package machine

import (
	"fmt"
	"sort"
	"strings"

	"procdecomp/internal/faults"
	"procdecomp/internal/trace"
)

// Reliable delivery over a faulty fabric.
//
// When Config.Faults is set, the ideal network of §2.2 is replaced by one
// that can drop, duplicate, delay, and reorder individual transmission
// attempts, and lose their acknowledgements (see internal/faults). Programs
// still see the paper's semantics — per-(src,tag) FIFOs delivering exactly
// the values sent — because each link runs a reliable transport: every
// message gets a per-link sequence number, is retransmitted on a virtual-time
// retry timer with exponential backoff until acknowledged, duplicates are
// suppressed at the receiver, and delivery is released in sequence order (a
// reordered early arrival waits for its predecessor's release).
//
// The protocol is simulated synchronously at send time: because every fault
// decision is a pure function of (seed, link, seq, attempt) and retry timers
// live in virtual time, the entire retransmission dialogue — and therefore
// the message's final release stamp — is computable the moment the send
// happens, in the sender's own step, without simulating the NIC as a
// separate process. Retransmissions are NIC work, not process work: they
// consume no process CPU, so fault storms surface as receiver idle time
// (later arrival stamps), exactly where a real latency hit would land.
//
// If the transport exhausts its attempt budget the message is lost forever
// and the link is declared dead (later sends on it are lost too, like a
// reset connection). A receive that can be proven unsatisfiable — its
// message lost, or its link dead — fails with a RecvTimeoutError naming the
// blocked (src, tag) instead of hanging; the deadlock detector performs the
// same test at quiescence.

// linkState is the per-(src,dst) transport state, written only by the
// sending process (fault path only — the ideal fabric never touches it).
type linkState struct {
	seq     uint64 // transport sequence numbers consumed (including lost)
	lastRel Cost   // release stamp of the last delivered message (in-order)
	dead    bool   // a message was lost forever; the link is down for good
}

// lostRecord describes the first message lost forever on a (dst, src, tag)
// queue, for watchdog diagnostics.
type lostRecord struct {
	count    int
	seq      uint64
	at       Cost // departure time of the final attempt
	attempts int
}

// transmit simulates the reliable delivery of one message departing p→dst at
// virtual time depart, and returns its release stamp at the receiver. ok is
// false when the transport gave up: the message is lost forever and recorded
// for watchdog diagnostics.
func (m *Machine) transmit(p *Proc, dst int, tag int64, nvals int, depart Cost) (release Cost, ok bool) {
	f := m.cfg.Faults
	ls := &m.links[p.id][dst]
	seq := ls.seq
	ls.seq++
	t := m.cfg.Tracer
	wire := func(kind trace.WireKind, attempt int, at Cost) {
		if t != nil {
			t.EmitWire(trace.WireEvent{Kind: kind, Src: p.id, Dst: dst, Tag: tag,
				Seq: seq, MsgSeq: p.msgSeq, Attempt: attempt, Time: at, Values: nvals})
		}
	}
	if ls.dead {
		m.recordLost(p.id, dst, tag, seq, depart, 0)
		wire(trace.WireLost, 0, depart)
		return 0, false
	}

	rto, maxAttempts := faults.Retry(m.cfg.Latency)
	var firstArrive Cost
	delivered := false
	attempts := 0
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		attempts = attempt
		if attempt > 1 {
			m.retries++
		}
		out := f.Attempt(p.id, dst, seq, attempt)
		wire(trace.WireXmit, attempt, depart)
		if out.Drop {
			// The attempt never arrives; the retry timer fires rto later.
			wire(trace.WireDrop, attempt, depart)
			depart += rto
			rto *= 2
			continue
		}
		arrive := depart + m.cfg.Latency + out.Jitter
		if !delivered {
			delivered, firstArrive = true, arrive
			wire(trace.WireDeliver, attempt, arrive)
		} else {
			// A retransmission of data the receiver already has (its ack
			// was lost): suppressed by sequence-number dedup.
			m.dups++
			wire(trace.WireDup, attempt, arrive)
		}
		if out.Dup {
			// The network itself duplicated the attempt; also suppressed.
			m.dups++
			wire(trace.WireDup, attempt, arrive)
		}
		if out.AckDrop {
			wire(trace.WireAckDrop, attempt, arrive)
			depart += rto
			rto *= 2
			continue
		}
		break // acknowledged: the sender's transport is done
	}
	if !delivered {
		ls.dead = true
		m.recordLost(p.id, dst, tag, seq, depart, attempts)
		wire(trace.WireLost, attempts, depart)
		return 0, false
	}
	// In-order release: a message that arrived before its predecessor was
	// released is held by the receiver's transport until sequence order is
	// restored — this is what turns network reordering back into the
	// paper's in-order fabric.
	if firstArrive < ls.lastRel {
		firstArrive = ls.lastRel
	}
	ls.lastRel = firstArrive
	return firstArrive, true
}

// recordLost notes a lost-forever message so a receive blocked on its
// queue can fail with a precise diagnosis rather than a bare deadlock.
func (m *Machine) recordLost(src, dst int, tag int64, seq uint64, at Cost, attempts int) {
	m.lostCount++
	k := key{src: src, tag: tag}
	if m.lost[dst] == nil {
		m.lost[dst] = map[key]lostRecord{}
	}
	r, ok := m.lost[dst][k]
	if !ok {
		r = lostRecord{seq: seq, at: at, attempts: attempts}
	}
	r.count++
	m.lost[dst][k] = r
}

// recvUnsatisfiable reports why a receive by pid on queue k can never be
// satisfied ("" when it still can): the message was lost forever, or the
// link is dead. Only meaningful when the queue is empty.
func (m *Machine) recvUnsatisfiable(pid int, k key) string {
	if m.cfg.Faults == nil {
		return ""
	}
	if r, ok := m.lost[pid][k]; ok {
		return fmt.Sprintf("message seq %d from process %d was lost forever after %d delivery attempts (last at cycle %d); %d message(s) lost on this queue, link %d->%d is dead",
			r.seq, k.src, r.attempts, r.at, r.count, k.src, pid)
	}
	if m.links[k.src][pid].dead {
		return fmt.Sprintf("link %d->%d is dead (an earlier message on it was lost forever)", k.src, pid)
	}
	return ""
}

// RecvTimeoutError is the receive watchdog's diagnosis: a process is blocked
// on a (src, tag) queue that can never be satisfied — the message was lost
// forever by the fault schedule, or its link is dead. It satisfies
// errors.Is(err, ErrRecvTimeout).
type RecvTimeoutError struct {
	Proc  int   // the blocked receiver
	Src   int   // the awaited source
	Tag   int64 // the awaited tag
	Clock Cost  // the receiver's virtual time at the blocked receive
	// Reason says why the receive is unsatisfiable.
	Reason string
}

func (e *RecvTimeoutError) Error() string {
	return fmt.Sprintf("machine: receive watchdog: process %d blocked at cycle %d waiting for (src %d, tag %d): %s",
		e.Proc, e.Clock, e.Src, e.Tag, e.Reason)
}

// Is makes errors.Is(err, ErrRecvTimeout) work.
func (e *RecvTimeoutError) Is(target error) bool { return target == ErrRecvTimeout }

// BlockedProc is one entry of a DeadlockError: a process, the receive it is
// blocked in, and what its mailbox held at the time.
type BlockedProc struct {
	Proc int
	// Peer and Tag name the awaited message.
	Peer  int
	Tag   int64
	Clock Cost
	// Pending summarizes the non-empty queues sitting in the process's own
	// mailbox — messages it could receive but is not asking for.
	Pending []string
}

func (b BlockedProc) String() string {
	s := fmt.Sprintf("proc %d blocked in recv at cycle %d: awaits (src %d, tag %d)", b.Proc, b.Clock, b.Peer, b.Tag)
	if len(b.Pending) > 0 {
		s += fmt.Sprintf(", mailbox holds %s", strings.Join(b.Pending, " "))
	}
	return s
}

// DeadlockError reports a detected deadlock with per-process diagnostics:
// who is blocked on which (src, tag) key, and what is pending in each
// blocked process's mailbox. It satisfies
// errors.Is(err, ErrDeadlock).
type DeadlockError struct {
	Blocked []BlockedProc
}

func (e *DeadlockError) Error() string {
	parts := make([]string, len(e.Blocked))
	for i, b := range e.Blocked {
		parts[i] = b.String()
	}
	return fmt.Sprintf("machine: deadlock: all %d live processes blocked: %s",
		len(e.Blocked), strings.Join(parts, "; "))
}

// Is makes errors.Is(err, ErrDeadlock) work, preserving the sentinel
// contract of earlier versions.
func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// deadlockError builds the diagnostic for the current quiescent state,
// deterministically ordered by process id.
func (m *Machine) deadlockError() error {
	e := &DeadlockError{}
	for pid, k := range m.waiting {
		if m.ev.state[pid] != evWaiting {
			continue
		}
		bp := BlockedProc{Proc: pid, Peer: k.src, Tag: k.tag, Clock: m.procs[pid].clock}
		// The mailbox is already in src order; the tags of one src are in
		// first-send order.
		for src, fs := range m.boxes[pid] {
			fs = append([]fifo(nil), fs...)
			sort.Slice(fs, func(i, j int) bool { return fs[i].tag < fs[j].tag })
			for _, f := range fs {
				if f.len() > 0 {
					bp.Pending = append(bp.Pending, fmt.Sprintf("(src %d, tag %d)x%d", src, f.tag, f.len()))
				}
			}
		}
		e.Blocked = append(e.Blocked, bp)
	}
	return e
}
