package trace

import "sync"

// Wire-level events: what the reliable transport did underneath the process
// spans. Process events (compute/send/recv/idle/blocked) must tile each
// process's clock exactly — Reconcile enforces it — so transport activity
// (retransmissions, drops, duplicate suppression) is recorded in a separate
// stream that carries virtual timestamps but occupies no process time.
// The Chrome export shows it as instant events on a "network" track, so a
// trace of a chaos run displays the fault storm under the process timeline.

// WireKind classifies one transport event.
type WireKind uint8

const (
	// WireXmit is a data transmission attempt leaving the sender's NIC.
	WireXmit WireKind = iota
	// WireDrop is an attempt dropped by the fault schedule.
	WireDrop
	// WireDeliver is the first copy of a message reaching the receiver's
	// transport (the copy that is released to the application).
	WireDeliver
	// WireDup is a redundant copy suppressed by the receiver's duplicate
	// detection (a network duplicate, or a retransmission after a lost ack).
	WireDup
	// WireAckDrop is a lost acknowledgement: the data arrived but the sender
	// will retransmit it anyway.
	WireAckDrop
	// WireLost is the transport giving up after its attempt budget: the
	// message is lost forever and the link is declared dead.
	WireLost
)

func (k WireKind) String() string {
	switch k {
	case WireXmit:
		return "xmit"
	case WireDrop:
		return "drop"
	case WireDeliver:
		return "deliver"
	case WireDup:
		return "dup"
	case WireAckDrop:
		return "ackdrop"
	case WireLost:
		return "lost"
	}
	return "WireKind(?)"
}

// WireEvent is one transport-level event at a virtual-time instant.
type WireEvent struct {
	Kind     WireKind
	Src, Dst int
	Tag      int64
	// Seq is the message's per-link transport sequence number.
	Seq uint64
	// MsgSeq is the sender's application-level message counter — the same
	// number the send/recv/idle process spans carry in Event.Seq — linking
	// every transport attempt back to the process span that initiated it.
	MsgSeq uint64
	// Attempt is the 1-based transmission attempt the event belongs to.
	Attempt int
	// Time is the virtual instant: departure for xmit/drop/lost, arrival
	// for deliver/dup/ackdrop.
	Time uint64
	// Values is the message's payload size.
	Values int
}

// EmitWire appends one transport event. Unlike Emit, wire events originate
// from many sender goroutines into one stream, so the log serializes them
// with its own mutex. Ordering between concurrent senders is not meaningful
// (each event carries its virtual timestamp); per-link order is send order.
func (l *Log) EmitWire(e WireEvent) {
	l.wmu.Lock()
	l.wire = append(l.wire, e)
	l.wmu.Unlock()
}

// WireEvents returns the transport event stream. Read only after the run
// completes; the returned slice is the log's own storage.
func (l *Log) WireEvents() []WireEvent {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.wire
}

// wireState is embedded in Log (kept in a separate struct so trace.go stays
// focused on process spans).
type wireState struct {
	wmu  sync.Mutex
	wire []WireEvent
}
