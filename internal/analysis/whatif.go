package analysis

import (
	"fmt"

	"procdecomp/internal/trace"
)

// What-if cost modeling: replay the recorded communication DAG under altered
// machine cost parameters to predict how the makespan would move, without
// rerunning the program.
//
// The recorded trace fixes the *structure* of the run — which process
// computed how much between which messages, and which message satisfied
// which receive. Replay keeps that structure and recomputes the clocks:
// compute spans keep their recorded durations, message overheads are
// recomputed from the scenario's costs, and every receive waits for its
// recorded message's new arrival stamp (send completion + scenario latency +
// the recorded transport excess). With unchanged costs the replay reproduces
// the measured makespan exactly — the identity that anchors trust in the
// altered-cost predictions.
//
// Model assumptions, stated honestly:
//   - The program's message structure would not change under the new costs
//     (no re-blocking, no re-decomposition) — predictions are ceilings for
//     *this* program, not for a recompiled one.
//   - Blocked spans (CPU contention under Placement) replay as their
//     recorded durations: the contention pattern is assumed unchanged.
//     Exact for unchanged costs; an approximation otherwise.
//   - Transport excess beyond the nominal latency (retries, jitter, in-order
//     holds) replays as the recorded per-message surplus.

// Scenario overrides a subset of the cost parameters; nil fields keep the
// recorded calibration.
type Scenario struct {
	Name        string
	SendStartup *uint64
	RecvStartup *uint64
	PerValue    *uint64
	Latency     *uint64
}

// apply resolves the scenario against the recorded costs.
func (s Scenario) apply(c Costs) Costs {
	if s.SendStartup != nil {
		c.SendStartup = *s.SendStartup
	}
	if s.RecvStartup != nil {
		c.RecvStartup = *s.RecvStartup
	}
	if s.PerValue != nil {
		c.PerValue = *s.PerValue
	}
	if s.Latency != nil {
		c.Latency = *s.Latency
	}
	return c
}

// Zero is a convenience pointer for scenario literals.
func Zero() *uint64 { z := uint64(0); return &z }

// CostPtr boxes a cost value for a Scenario field.
func CostPtr(v uint64) *uint64 { return &v }

// DefaultScenarios are the standard speedup-ceiling probes: the recorded
// calibration (the identity check), free message startup, free per-value
// copying (infinite bandwidth), free wire, and free communication.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "as recorded"},
		{Name: "send startup = 0", SendStartup: Zero()},
		{Name: "startup = 0 (send+recv)", SendStartup: Zero(), RecvStartup: Zero()},
		{Name: "per-value = 0 (infinite bandwidth)", PerValue: Zero()},
		{Name: "latency = 0", Latency: Zero()},
		{Name: "free communication", SendStartup: Zero(), RecvStartup: Zero(), PerValue: Zero(), Latency: Zero()},
	}
}

// Action is one step of a process's program in a replayable communication
// DAG, in program order. The analyzer rebuilds actions from a recorded trace;
// the decomposition search (internal/autotune) derives them statically.
type Action struct {
	Kind trace.Kind // KindCompute, KindSend or KindRecv
	// Dur is a compute (or blocked) span's cycles; on a send, the transport
	// delay of its message beyond the nominal latency (retries, jitter).
	Dur    uint64
	Peer   int   // send: destination; recv: source
	Tag    int64 // message tag: ReplayDump's spans carry it; the clocks do not read it
	Values int
	Seq    uint64 // message edge ID: the sender's 1-based send counter
}

// msgIndex numbers a run's messages densely: message (src, seq) is slot
// off[src]+seq-1, for seq from 1 to src's count of sends. A (src, seq) pair
// outside those ranges names no message.
type msgIndex []int

// newMsgIndex lays out the slots of procs senders, sends(p) messages each.
func newMsgIndex(procs int, sends func(p int) int) msgIndex {
	off := make(msgIndex, procs+1)
	for p := range procs {
		off[p+1] = off[p] + sends(p)
	}
	return off
}

// slots is the number of messages the index numbers.
func (ix msgIndex) slots() int { return ix[len(ix)-1] }

// slot returns message (src, seq)'s slot, and false if it names no message.
func (ix msgIndex) slot(src int, seq uint64) (int, bool) {
	if src < 0 || src >= len(ix)-1 || seq < 1 || seq > uint64(ix[src+1]-ix[src]) {
		return 0, false
	}
	return ix[src] + int(seq) - 1, true
}

// stamp is one message's clock stamp, once it is known.
type stamp struct {
	at  uint64
	set bool
}

// Predict replays the dump under the scenario and returns the predicted
// makespan.
func (d *Dump) Predict(sc Scenario) (uint64, error) {
	// Recorded release stamps, for per-message transport excess.
	ix := newMsgIndex(len(d.Events), func(p int) int {
		n := 0
		for _, e := range d.Events[p] {
			if e.Kind == trace.KindSend {
				n++
			}
		}
		return n
	})
	arrive := make([]stamp, ix.slots())
	for p := range d.Events {
		for _, e := range d.Events[p] {
			if e.Kind != trace.KindRecv {
				continue
			}
			if s, ok := ix.slot(e.Peer, e.Seq); ok {
				arrive[s] = stamp{at: e.Arrive, set: true}
			}
		}
	}

	// Rebuild each process's action list. Idle spans are dropped (waits are
	// recomputed); blocked spans become fixed delays.
	acts := make([][]Action, d.Procs)
	for p := range d.Events {
		acts[p] = make([]Action, 0, len(d.Events[p]))
		for _, e := range d.Events[p] {
			switch e.Kind {
			case trace.KindCompute, trace.KindBlocked:
				acts[p] = append(acts[p], Action{Kind: trace.KindCompute, Dur: e.Dur()})
			case trace.KindSend:
				a := Action{Kind: trace.KindSend, Peer: e.Peer, Tag: e.Tag, Seq: e.Seq, Values: e.Values}
				if s, ok := ix.slot(p, e.Seq); ok && arrive[s].set {
					nominal := e.End + d.Costs.Latency
					if rel := arrive[s].at; rel > nominal {
						a.Dur = rel - nominal
					}
				}
				acts[p] = append(acts[p], a)
			case trace.KindRecv:
				acts[p] = append(acts[p], Action{Kind: trace.KindRecv, Peer: e.Peer, Tag: e.Tag, Seq: e.Seq, Values: e.Values})
			case trace.KindIdle:
				// recomputed from the matching send
			default:
				return 0, fmt.Errorf("analysis: proc %d has an event of unknown kind %v", p, e.Kind)
			}
		}
	}
	return Replay(acts, sc.apply(d.Costs))
}

// Replay runs each process's actions under the machine's clock recurrence
// and returns the makespan: a send completes after startup + per-value
// packing and its message arrives Latency (plus its recorded excess) later;
// a receive waits for the arrival stamp of the message its (Peer, Seq) names,
// then pays startup + per-value unpacking. It is event-driven: advance each
// process until it blocks on a message whose send has not executed yet, and
// repeat until quiescent. An acyclic dependence structure — any run that
// completed — makes progress every round until all processes finish.
//
// A counting pass sizes one stamp per message, numbered 1..n per sender as
// traced runs and walked profiles both number them. A receive naming a pair
// outside that numbering waits for a message that never comes, so it
// deadlocks the replay exactly as one whose sender never reaches the send.
func Replay(acts [][]Action, costs Costs) (uint64, error) {
	return replay(acts, costs, nil)
}

// ReplayDump is Replay that also lays down the timeline: the dump holds each
// process's spans exactly as a direct-mode traced run of the same DAG
// records them, so (*Dump).CriticalPath attributes a replayed run as it
// attributes a traced one. Each process's events are sized once, from its
// actions.
func ReplayDump(acts [][]Action, costs Costs) (*Dump, error) {
	d := &Dump{Version: Version, Procs: len(acts), Costs: costs, Events: make([][]trace.Event, len(acts))}
	for p, as := range acts {
		n := len(as)
		for _, a := range as {
			if a.Kind == trace.KindRecv {
				n++ // its idle span, if it waits
			}
		}
		d.Events[p] = make([]trace.Event, 0, n)
	}
	if _, err := replay(acts, costs, d.Events); err != nil {
		return nil, err
	}
	return d, nil
}

// replay is Replay's recurrence. With evs non-nil it appends each action's
// spans to evs[p] as machine.Proc emits them: a compute span with Peer -1
// (none for zero cycles, which trace.Log drops), a send span, and for a
// receive an idle span only when the message arrives after the clock, then
// the recv span; idle and recv carry the arrival stamp.
func replay(acts [][]Action, costs Costs, evs [][]trace.Event) (uint64, error) {
	rec := evs != nil
	ix := newMsgIndex(len(acts), func(p int) int {
		n := 0
		for _, a := range acts[p] {
			if a.Kind == trace.KindSend {
				n++
			}
		}
		return n
	})
	released := make([]stamp, ix.slots())
	clocks := make([]uint64, len(acts))
	idx := make([]int, len(acts))
	for {
		progressed, done := false, true
		for p := range acts {
			for idx[p] < len(acts[p]) {
				a := acts[p][idx[p]]
				if a.Kind == trace.KindRecv {
					s, ok := ix.slot(a.Peer, a.Seq)
					if !ok || !released[s].set {
						break // the sender has not reached this message, or never will
					}
					rel := released[s].at
					if rel > clocks[p] {
						if rec {
							evs[p] = append(evs[p], trace.Event{Proc: p, Kind: trace.KindIdle, Start: clocks[p], End: rel,
								Peer: a.Peer, Tag: a.Tag, Seq: a.Seq, Arrive: rel})
						}
						clocks[p] = rel
					}
					over := costs.RecvStartup + uint64(a.Values)*costs.PerValue
					clocks[p] += over
					if rec {
						evs[p] = append(evs[p], trace.Event{Proc: p, Kind: trace.KindRecv, Start: clocks[p] - over, End: clocks[p],
							Peer: a.Peer, Tag: a.Tag, Values: a.Values, Seq: a.Seq, Arrive: rel})
					}
				} else if a.Kind == trace.KindSend {
					over := costs.SendStartup + uint64(a.Values)*costs.PerValue
					clocks[p] += over
					if rec {
						evs[p] = append(evs[p], trace.Event{Proc: p, Kind: trace.KindSend, Start: clocks[p] - over, End: clocks[p],
							Peer: a.Peer, Tag: a.Tag, Values: a.Values, Seq: a.Seq})
					}
					if s, ok := ix.slot(p, a.Seq); ok {
						released[s] = stamp{at: clocks[p] + costs.Latency + a.Dur, set: true}
					}
				} else {
					if rec && a.Dur > 0 {
						evs[p] = append(evs[p], trace.Event{Proc: p, Kind: trace.KindCompute, Start: clocks[p], End: clocks[p] + a.Dur, Peer: -1})
					}
					clocks[p] += a.Dur
				}
				idx[p]++
				progressed = true
			}
			if idx[p] < len(acts[p]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progressed {
			return 0, fmt.Errorf("analysis: replay deadlocked (a receive's message is never sent)")
		}
	}
	var makespan uint64
	for _, c := range clocks {
		if c > makespan {
			makespan = c
		}
	}
	return makespan, nil
}
