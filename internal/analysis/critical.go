package analysis

import (
	"fmt"
	"sort"

	"procdecomp/internal/trace"
)

// Critical-path extraction.
//
// Every process's events tile its clock, so the run's makespan is the end of
// some process's last event. Walking backward from that instant, exactly one
// constraint was binding at every moment:
//
//   - a compute/send/recv span: the process itself was busy — the span is on
//     the path, and the walk continues at its start;
//   - a blocked span: the node CPU (or a full channel) was held — the span is
//     on the path as blocked time;
//   - an idle span: the process waited for a message. The message departed
//     when its send span ended (the trace's (sender, Seq) edge ID finds it),
//     so the tail of the wait — from the departure to the release stamp — was
//     bound by the wire (nominal latency, plus any fault-retry delay beyond
//     it), and before the departure the binding constraint was the *sender's*
//     activity: the walk jumps to the sender's timeline. If the message
//     departed before the wait began, the wait is pure wire time and the walk
//     stays on the receiver.
//
// Because each step covers a contiguous interval ending where the previous
// one began, the collected segments tile [0, makespan) exactly: their lengths
// — and the per-cause attribution that splits them — sum to the makespan with
// no unexplained cycles. CriticalPath verifies that invariant before
// returning; a violation is a bug report, not a result.

// Attribution partitions critical-path cycles by cause. Every field is
// cycles; the fields sum to the critical path's length (== the makespan).
type Attribution struct {
	// Compute is local work on the path.
	Compute uint64
	// SendStartup / RecvStartup are the fixed message-initiation and
	// -completion overheads (the paper's dominant term at small messages).
	SendStartup uint64
	RecvStartup uint64
	// PerValue is packing/unpacking proportional to message size.
	PerValue uint64
	// Wire is nominal time of flight (Config.Latency) the receiver could not
	// overlap.
	Wire uint64
	// Fault is wait time beyond the nominal latency: retransmissions, jitter,
	// and in-order holds of the reliable transport under fault injection.
	Fault uint64
	// Blocked is time a runnable process waited for its node CPU (Placement).
	Blocked uint64
}

// Total sums every category.
func (a Attribution) Total() uint64 {
	return a.Compute + a.SendStartup + a.RecvStartup + a.PerValue + a.Wire + a.Fault + a.Blocked
}

func (a *Attribution) accumulate(b Attribution) {
	a.Compute += b.Compute
	a.SendStartup += b.SendStartup
	a.RecvStartup += b.RecvStartup
	a.PerValue += b.PerValue
	a.Wire += b.Wire
	a.Fault += b.Fault
	a.Blocked += b.Blocked
}

// Segment is one contiguous interval of the critical path on one process's
// timeline (or, for Kind "wait", the wire interval the receiver's progress
// was pinned under).
type Segment struct {
	Proc  int
	Start uint64
	End   uint64
	// Kind is "compute", "send", "recv", "wait" (wire/fault time inside an
	// idle span), or "blocked".
	Kind string
	// Peer/Tag/Seq identify the message for send/recv/wait segments
	// (Peer: the other endpoint; Seq: the sender's message counter);
	// Peer is -1 on compute and CPU-blocked segments.
	Peer int    `json:",omitempty"`
	Tag  int64  `json:",omitempty"`
	Seq  uint64 `json:",omitempty"`
	// Attr splits this segment's cycles by cause; Attr.Total() == End-Start.
	Attr Attribution
}

// Dur is the segment length in cycles.
func (s Segment) Dur() uint64 { return s.End - s.Start }

// CriticalPath is the extracted chain, in increasing time order, plus its
// attribution. Len() == Makespan is verified at construction.
type CriticalPath struct {
	Makespan uint64
	// EndProc is the process whose final clock is the makespan (lowest id on
	// ties) — where the backward walk starts.
	EndProc  int
	Segments []Segment
	Attr     Attribution
}

// Len sums the segment lengths.
func (cp *CriticalPath) Len() uint64 {
	var n uint64
	for _, s := range cp.Segments {
		n += s.Dur()
	}
	return n
}

// CriticalPath extracts and verifies the run's critical path. Every slice it
// makes has its exact size: the send index is counted before it is filled,
// and the backward walk runs twice, once to count the segments and once to
// lay them down, last first, so none grows by appending.
func (d *Dump) CriticalPath() (*CriticalPath, error) {
	makespan := d.Makespan()
	cp := &CriticalPath{Makespan: makespan}
	if makespan == 0 {
		return cp, nil
	}
	for p, evs := range d.Events {
		if n := len(evs); n > 0 && evs[n-1].End == makespan {
			cp.EndProc = p
			break
		}
	}

	// Index send spans by their (sender, Seq) edge ID. Seq is the sender's
	// 1-based message counter, so a slice per sender suffices; the slices
	// share one array.
	n := 0
	for _, evs := range d.Events {
		for _, e := range evs {
			if e.Kind == trace.KindSend {
				n++
			}
		}
	}
	all := make([]*trace.Event, 0, n)
	sends := make([][]*trace.Event, d.Procs)
	for p, evs := range d.Events {
		from := len(all)
		for i := range evs {
			if evs[i].Kind == trace.KindSend {
				all = append(all, &evs[i])
			}
		}
		sends[p] = all[from:len(all):len(all)]
	}

	segs := 0
	if err := d.walkBack(cp.EndProc, makespan, sends, func(Segment) { segs++ }); err != nil {
		return nil, err
	}
	cp.Segments = make([]Segment, segs)
	if err := d.walkBack(cp.EndProc, makespan, sends, func(s Segment) { segs--; cp.Segments[segs] = s }); err != nil {
		return nil, err
	}

	// Verify exactness: the segments must tile [0, makespan) and the
	// attribution must tile the segments.
	var sum uint64
	for _, s := range cp.Segments {
		if s.Attr.Total() != s.Dur() {
			return nil, fmt.Errorf("analysis: segment attribution does not tile: proc %d [%d,%d) %s has %d attributed cycles for %d",
				s.Proc, s.Start, s.End, s.Kind, s.Attr.Total(), s.Dur())
		}
		sum += s.Dur()
		cp.Attr.accumulate(s.Attr)
	}
	if sum != makespan {
		return nil, fmt.Errorf("analysis: critical-path length %d != makespan %d (unexplained cycles)", sum, makespan)
	}
	if cp.Attr.Total() != makespan {
		return nil, fmt.Errorf("analysis: attribution total %d != makespan %d", cp.Attr.Total(), makespan)
	}
	return cp, nil
}

// walkBack walks the critical path backward from instant t on proc's
// timeline, handing visit each segment, latest first. sends[p][seq-1] is
// process p's send span of message seq.
func (d *Dump) walkBack(proc int, t uint64, sends [][]*trace.Event, visit func(Segment)) error {
	findSend := func(src int, seq uint64) (*trace.Event, error) {
		if src < 0 || src >= d.Procs || seq == 0 || seq > uint64(len(sends[src])) {
			return nil, fmt.Errorf("analysis: no send span for message (proc %d, seq %d); the trace lacks message causality", src, seq)
		}
		e := sends[src][seq-1]
		if e.Seq != seq {
			return nil, fmt.Errorf("analysis: send spans of proc %d are not numbered consecutively (index %d holds seq %d)", src, seq-1, e.Seq)
		}
		return e, nil
	}

	// Each iteration either consumes ≥1 cycle or jumps along a message edge;
	// jumps at a constant instant cannot revisit a (proc, instant) pair, so
	// this bound is generous. It guards degenerate zero-cost traces.
	maxSteps := 2*totalEvents(d.Events) + d.Procs + 16
	for steps := 0; t > 0; steps++ {
		if steps > maxSteps {
			return fmt.Errorf("analysis: critical-path walk did not terminate (stuck near proc %d, cycle %d)", proc, t)
		}
		e, err := eventBefore(d.Events[proc], proc, t)
		if err != nil {
			return err
		}
		switch e.Kind {
		case trace.KindCompute:
			visit(Segment{Proc: proc, Start: e.Start, End: e.End, Kind: "compute", Peer: -1,
				Attr: Attribution{Compute: e.Dur()}})
			t = e.Start
		case trace.KindSend:
			startup := min64(e.Dur(), d.Costs.SendStartup)
			visit(Segment{Proc: proc, Start: e.Start, End: e.End, Kind: "send",
				Peer: e.Peer, Tag: e.Tag, Seq: e.Seq,
				Attr: Attribution{SendStartup: startup, PerValue: e.Dur() - startup}})
			t = e.Start
		case trace.KindRecv:
			startup := min64(e.Dur(), d.Costs.RecvStartup)
			visit(Segment{Proc: proc, Start: e.Start, End: e.End, Kind: "recv",
				Peer: e.Peer, Tag: e.Tag, Seq: e.Seq,
				Attr: Attribution{RecvStartup: startup, PerValue: e.Dur() - startup}})
			t = e.Start
		case trace.KindBlocked:
			visit(Segment{Proc: proc, Start: e.Start, End: e.End, Kind: "blocked", Peer: e.Peer,
				Attr: Attribution{Blocked: e.Dur()}})
			t = e.Start
		case trace.KindIdle:
			// The wait [e.Start, e.End) ended when the message from e.Peer
			// was released at e.End. Find its departure (send-span end).
			snd, err := findSend(e.Peer, e.Seq)
			if err != nil {
				return err
			}
			depart := snd.End
			from := e.Start
			if depart > from {
				from = depart // the sender was the constraint before departure
			}
			if from < e.End {
				// Tail beyond depart+Latency is transport-induced delay.
				faultFrom := depart + d.Costs.Latency
				if faultFrom < from {
					faultFrom = from
				}
				if faultFrom > e.End {
					faultFrom = e.End
				}
				visit(Segment{Proc: proc, Start: from, End: e.End, Kind: "wait",
					Peer: e.Peer, Tag: e.Tag, Seq: e.Seq,
					Attr: Attribution{Wire: faultFrom - from, Fault: e.End - faultFrom}})
			}
			if depart > e.Start {
				proc, t = e.Peer, depart // follow the message to its sender
			} else {
				t = e.Start // the wait was pure wire time; stay local
			}
		default:
			return fmt.Errorf("analysis: proc %d has an event of unknown kind %v", proc, e.Kind)
		}
	}
	return nil
}

// eventBefore finds the unique nonzero-length event of proc containing the
// instant just before t. Because events tile the clock, the first event whose
// end reaches t starts strictly before it.
func eventBefore(evs []trace.Event, proc int, t uint64) (*trace.Event, error) {
	i := sort.Search(len(evs), func(i int) bool { return evs[i].End >= t })
	if i == len(evs) || evs[i].Start >= t {
		return nil, fmt.Errorf("analysis: proc %d has no event covering cycle %d (trace does not tile the clock)", proc, t)
	}
	return &evs[i], nil
}

func totalEvents(events [][]trace.Event) int {
	n := 0
	for _, evs := range events {
		n += len(evs)
	}
	return n
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
