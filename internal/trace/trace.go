// Package trace records a per-process event log of a simulated machine run:
// every span of virtual time a process spends computing, sending, receiving,
// idling for a message, or blocked waiting for its node's CPU. The log is the
// instrument behind the paper's evaluation story — Figs. 6 and 7 argue about
// where virtual time goes (compute vs. message overhead vs. idle wait), and
// the event log lets that argument be inspected event by event rather than
// only through post-hoc aggregates.
//
// A Log is attached to a run through machine.Config.Tracer (nil by default:
// untraced runs pay nothing beyond a nil check). The machine emits events;
// after Run returns the log offers a Chrome trace-event exporter
// (WriteChromeTrace, openable in chrome://tracing or Perfetto), a per-
// (src,dst) message matrix and per-tag histogram for communication-pattern
// analysis, and an exact reconciliation check against the machine's
// Breakdown partition (Reconcile).
//
// A log either stores what the run emits, or expects it. Expect hands a log
// the timeline the run should lay down (the anchor of autotune's search
// replays its model first and gives the replayed events here). While a
// process's closed events equal the next expected ones the log stores nothing
// of its own: Events(p) is the agreed prefix of the expected slice. At the
// first disagreement it copies that prefix and stores every later event, as a
// storing log does. Either way every reader sees the events a storing log
// would hold.
//
// Concurrency: Expect and Begin are called before processes start; each
// process emits only its own events (distinct per-process slices and
// agreement slots, no locking); End is called once the processes have
// stopped, and readers must wait until the run completes — machine.Run's
// return is the happens-before edge.
package trace

import "fmt"

// Kind classifies one event span.
type Kind uint8

const (
	// KindCompute is local work: the process advanced its clock computing.
	KindCompute Kind = iota
	// KindSend is the CPU overhead of initiating a send (start-up plus
	// per-value packing).
	KindSend
	// KindRecv is the CPU overhead of completing a receive (start-up plus
	// per-value unpacking).
	KindRecv
	// KindIdle is time spent waiting for a message that had not yet arrived:
	// the clock jumped to the message's arrival stamp.
	KindIdle
	// KindBlocked is time a runnable process waited for its node's CPU while
	// a co-resident held it. It occurs only under Config.Placement; in the
	// one-process-per-processor model a process never contends for a CPU.
	KindBlocked
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindIdle:
		return "idle"
	case KindBlocked:
		return "blocked"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one span of a process's virtual time, [Start, End) in cycles.
type Event struct {
	Proc  int
	Kind  Kind
	Start uint64
	End   uint64
	// Peer is the other endpoint: the destination of a send, the source of a
	// receive or of the message an idle span waited for; -1 otherwise.
	Peer int
	// Tag is the message tag of send/recv/idle events; 0 otherwise.
	Tag int64
	// Values is the number of values moved by a send or receive.
	Values int
	// Seq identifies the message a send/recv/idle event belongs to: the
	// sender's 1-based message counter, in program order, so the pair
	// (sender, Seq) is a stable edge ID linking the send span to the
	// receiver's idle and recv spans and to the transport's wire events.
	// 0 on non-message events.
	Seq uint64
	// Arrive is the message's release stamp at the receiver, set on recv and
	// idle events: the virtual instant the transport made the message
	// available. For an idle event Arrive == End; for a recv event it can
	// precede Start (the message was waiting before the receiver asked).
	Arrive uint64
}

// Dur is the event's span length in cycles.
func (e Event) Dur() uint64 { return e.End - e.Start }

// Log collects the events of one machine run.
type Log struct {
	node   []int     // per-process node under Placement; nil for the direct model
	events [][]Event // the events the log stores of its own, per process
	want   [][]Event // the expected timeline (Expect); nil for a storing log
	exp    []expecting
	wireState
}

// expecting is one process's agreement with the timeline its log expects.
type expecting struct {
	want []Event // the process's expected events
	n    int     // how many of them its closed events have equalled
	// open is the compute span still growing (Emit merges contiguous
	// compute into it); End == Start when none is.
	open Event
	// own is set at the first disagreement, when the log's events[p] takes
	// over: the agreed prefix, then every event as a storing log keeps it.
	own bool
}

// New returns an empty log, ready to pass as machine.Config.Tracer.
func New() *Log { return &Log{} }

// Rebuild reconstructs a completed log from its serialized parts — the
// inverse of reading Events/WireEvents per process, used by the analysis
// layer to revive a trace dumped to disk. The slices are adopted, not
// copied; the caller must not modify them afterwards.
func Rebuild(placement []int, events [][]Event, wire []WireEvent) *Log {
	l := &Log{events: events}
	if placement != nil {
		l.node = append([]int(nil), placement...)
	}
	l.wire = wire
	return l
}

// Expect makes the log hold each process's events to want[p] instead of
// storing them while they agree (see the package doc). Call it before the log
// is handed to machine.New; a nil want makes a storing log again. The slices
// are adopted, not copied: Events returns prefixes of them, so the caller
// must not modify them afterwards. A process beyond len(want) expects no
// events.
func (l *Log) Expect(want [][]Event) { l.want = want }

// Begin resets the log for a run of procs processes. placement is the
// machine's Config.Placement (nil for the direct one-process-per-processor
// model); it labels the per-node tracks of the Chrome export. An expecting
// log keeps its expected timeline and takes one agreement slot per process
// here, so emitting allocates nothing while the run agrees. The machine calls
// Begin from New; users only construct the Log.
func (l *Log) Begin(procs int, placement []int) {
	l.node = nil
	if placement != nil {
		l.node = append([]int(nil), placement...)
	}
	l.events = make([][]Event, procs)
	l.exp = nil
	if l.want != nil {
		l.exp = make([]expecting, procs)
		for p := range min(procs, len(l.want)) {
			l.exp[p].want = l.want[p]
		}
	}
	l.wmu.Lock()
	l.wire = nil
	l.wmu.Unlock()
}

// Emit appends one event to its process's log. Consecutive compute spans are
// coalesced (the interpreter charges compute in many tiny increments; merging
// runs keeps logs and exported traces compact). Zero-duration compute, idle,
// and blocked spans are dropped; zero-duration send/recv events are kept
// because they carry message-pattern information.
//
// Emit is called by the simulated machine from the owning process's
// goroutine only; it needs no lock because each process appends to its own
// slice.
//
// An expecting log holds the same events to its expected timeline instead: a
// compute span waits in its process's slot until a non-merging event or End
// closes it, and each closed event is compared with the next expected one.
func (l *Log) Emit(e Event) {
	if e.End == e.Start {
		switch e.Kind {
		case KindCompute, KindIdle, KindBlocked:
			return
		}
	}
	if l.exp != nil && !l.exp[e.Proc].own {
		l.expect(&l.exp[e.Proc], e)
		return
	}
	l.store(e)
}

// store appends e to its process's own events, merging it into the last one
// if both are contiguous compute.
func (l *Log) store(e Event) {
	evs := l.events[e.Proc]
	if e.Kind == KindCompute && len(evs) > 0 {
		if last := &evs[len(evs)-1]; last.Kind == KindCompute && last.End == e.Start {
			last.End = e.End
			return
		}
	}
	l.events[e.Proc] = append(evs, e)
}

// expect is Emit for a process whose events have agreed so far.
func (l *Log) expect(x *expecting, e Event) {
	if e.Kind == KindCompute && x.open.End != x.open.Start && x.open.End == e.Start {
		x.open.End = e.End
		return
	}
	if !l.close(x) {
		l.store(e)
		return
	}
	if e.Kind == KindCompute {
		x.open = e
		return
	}
	l.agree(x, e)
}

// close holds x's open compute span, if there is one, to the next expected
// event, and reports whether the process still agrees.
func (l *Log) close(x *expecting) bool {
	if x.open.End == x.open.Start {
		return true
	}
	open := x.open
	x.open = Event{}
	return l.agree(x, open)
}

// agree holds the closed event e to the next expected one. On a
// disagreement the process's own storage starts: the agreed prefix, then e.
func (l *Log) agree(x *expecting, e Event) bool {
	if x.n < len(x.want) && x.want[x.n] == e {
		x.n++
		return true
	}
	x.own = true
	l.events[e.Proc] = append(append([]Event(nil), x.want[:x.n]...), e)
	return false
}

// End closes the run: an expecting log holds each agreeing process's open
// compute span to its expected timeline. A process that stopped short of it
// keeps the prefix it agreed on. machine.Run calls End when its processes
// have stopped; a storing log has nothing to close.
func (l *Log) End() {
	for p := range l.exp {
		if x := &l.exp[p]; !x.own {
			l.close(x)
		}
	}
}

// Procs is the number of processes the log was begun for.
func (l *Log) Procs() int { return len(l.events) }

// Node returns the physical node of process p (p itself when the run was not
// multiplexed).
func (l *Log) Node(p int) int {
	if l.node == nil {
		return p
	}
	return l.node[p]
}

// Multiplexed reports whether the run placed several processes per node.
func (l *Log) Multiplexed() bool { return l.node != nil }

// Events returns process p's event log in virtual-time order. The returned
// slice is the log's own storage, or, while p agrees with what an expecting
// log expects, the agreed prefix of the expected slice; callers must not
// modify it.
func (l *Log) Events(p int) []Event {
	if l.exp != nil && !l.exp[p].own {
		x := &l.exp[p]
		return x.want[:x.n]
	}
	return l.events[p]
}

// Len is the total number of recorded events.
func (l *Log) Len() int {
	n := 0
	for p := range l.events {
		n += len(l.Events(p))
	}
	return n
}

// Partition sums a process's event durations by kind — the trace-side view
// of the machine's Breakdown.
type Partition struct {
	Compute uint64
	Comm    uint64 // send + recv overhead
	Idle    uint64 // message wait
	Blocked uint64 // CPU wait under Placement
}

// Total is every traced cycle of the partition.
func (p Partition) Total() uint64 { return p.Compute + p.Comm + p.Idle + p.Blocked }

// Sums accumulates process p's event durations by kind.
func (l *Log) Sums(p int) Partition {
	var s Partition
	for _, e := range l.Events(p) {
		switch e.Kind {
		case KindCompute:
			s.Compute += e.Dur()
		case KindSend, KindRecv:
			s.Comm += e.Dur()
		case KindIdle:
			s.Idle += e.Dur()
		case KindBlocked:
			s.Blocked += e.Dur()
		}
	}
	return s
}

// Totals sums every process's partition.
func (l *Log) Totals() Partition {
	var t Partition
	for p := range l.events {
		s := l.Sums(p)
		t.Compute += s.Compute
		t.Comm += s.Comm
		t.Idle += s.Idle
		t.Blocked += s.Blocked
	}
	return t
}

// Reconcile checks process p's event log against the machine's accounting:
// the events must tile [0, clock) exactly — in order, no gaps, no overlaps —
// and the per-kind sums must equal the Breakdown partition (compute, comm,
// and idle, where trace idle + blocked together account for the Breakdown's
// idle cycles). A nil error means every cycle of the process's final clock
// is explained by exactly one traced event.
func (l *Log) Reconcile(p int, compute, comm, idle, clock uint64) error {
	var prevEnd uint64
	for i, e := range l.Events(p) {
		if e.End < e.Start {
			return fmt.Errorf("trace: proc %d event %d (%s) ends at %d before it starts at %d", p, i, e.Kind, e.End, e.Start)
		}
		if e.Start != prevEnd {
			return fmt.Errorf("trace: proc %d event %d (%s) starts at %d, want %d (events must tile the clock)", p, i, e.Kind, e.Start, prevEnd)
		}
		prevEnd = e.End
	}
	if prevEnd != clock {
		return fmt.Errorf("trace: proc %d events end at %d, final clock is %d", p, prevEnd, clock)
	}
	s := l.Sums(p)
	if s.Compute != compute {
		return fmt.Errorf("trace: proc %d traced compute %d != breakdown compute %d", p, s.Compute, compute)
	}
	if s.Comm != comm {
		return fmt.Errorf("trace: proc %d traced comm %d != breakdown comm %d", p, s.Comm, comm)
	}
	if s.Idle+s.Blocked != idle {
		return fmt.Errorf("trace: proc %d traced idle %d + blocked %d != breakdown idle %d", p, s.Idle, s.Blocked, idle)
	}
	return nil
}
