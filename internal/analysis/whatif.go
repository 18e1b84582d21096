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
//   - Blocked spans (CPU contention under Placement, backpressure under
//     MailboxCap) replay as their recorded durations: the contention pattern
//     is assumed unchanged. Exact for unchanged costs; an approximation
//     otherwise.
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
	Tag    int64 // message tag (Replay does not read it)
	Values int
	Seq    uint64 // message edge ID: the sender's 1-based send counter
}

type msgKey struct {
	src int
	seq uint64
}

// Predict replays the dump under the scenario and returns the predicted
// makespan.
func (d *Dump) Predict(sc Scenario) (uint64, error) {
	// Recorded release stamps, for per-message transport excess.
	arrive := map[msgKey]uint64{}
	for p := range d.Events {
		for _, e := range d.Events[p] {
			if e.Kind == trace.KindRecv {
				arrive[msgKey{src: e.Peer, seq: e.Seq}] = e.Arrive
			}
		}
	}

	// Rebuild each process's action list. Idle spans are dropped (waits are
	// recomputed); blocked spans become fixed delays.
	acts := make([][]Action, d.Procs)
	for p := range d.Events {
		for _, e := range d.Events[p] {
			switch e.Kind {
			case trace.KindCompute, trace.KindBlocked:
				acts[p] = append(acts[p], Action{Kind: trace.KindCompute, Dur: e.Dur()})
			case trace.KindSend:
				a := Action{Kind: trace.KindSend, Peer: e.Peer, Tag: e.Tag, Seq: e.Seq, Values: e.Values}
				if rel, ok := arrive[msgKey{src: p, seq: e.Seq}]; ok {
					nominal := e.End + d.Costs.Latency
					if rel > nominal {
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
func Replay(acts [][]Action, costs Costs) (uint64, error) {
	clocks := make([]uint64, len(acts))
	idx := make([]int, len(acts))
	released := map[msgKey]uint64{}
	for {
		progressed, done := false, true
		for p := range acts {
			for idx[p] < len(acts[p]) {
				a := acts[p][idx[p]]
				if a.Kind == trace.KindRecv {
					rel, ok := released[msgKey{src: a.Peer, seq: a.Seq}]
					if !ok {
						break // sender has not reached this message yet
					}
					if rel > clocks[p] {
						clocks[p] = rel
					}
					clocks[p] += costs.RecvStartup + uint64(a.Values)*costs.PerValue
				} else if a.Kind == trace.KindSend {
					clocks[p] += costs.SendStartup + uint64(a.Values)*costs.PerValue
					released[msgKey{src: p, seq: a.Seq}] = clocks[p] + costs.Latency + a.Dur
				} else {
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
