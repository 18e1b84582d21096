package machine

import (
	"fmt"

	"procdecomp/internal/trace"
)

// Multiplexed execution: several processes per processor.
//
// §2.2, footnote 2: "Strictly speaking, the iPSC permits multiple processes
// to execute on a processor but we can take that into account simply by
// increasing the number of processors in our model." §5.4 is the payoff:
// "A good process decomposition places several processes on one processor to
// ensure that when one process needs to wait for a remote reference the
// processor running it will have work to do."
//
// Setting Config.Placement maps each virtual process to a physical node.
// Node CPUs are serialized: compute and message-handling overhead of
// co-resident processes cannot overlap, but time a process spends blocked
// waiting for a message occupies no CPU — co-residents run during it. That
// is exactly the latency hiding §5.4 describes.
//
// Determinism: conservative admission (admit, event.go) lets exactly one
// process action proceed at a time, always that of the runnable process with
// the smallest (clock, id) key. A process parked in a receive is not runnable
// and rejoins with its clock advanced to the message's arrival. Because every
// admitted action has the globally minimal timestamp, no later action can
// causally affect it, so simulated clocks are independent of Go scheduling —
// the same guarantee the direct machine gives, extended to CPU contention.

// muxSched is the node-CPU state of a multiplexed machine (Placement set).
type muxSched struct {
	m     *Machine
	node  []int  // virtual process -> physical node
	nodes []Cost // physical node CPU clocks
}

// initMux validates the placement and builds the scheduler.
func initMux(m *Machine, placement []int) (*muxSched, error) {
	if len(placement) != m.cfg.Procs {
		return nil, fmt.Errorf("machine: placement has %d entries for %d processes", len(placement), m.cfg.Procs)
	}
	maxNode := 0
	for vp, n := range placement {
		if n < 0 {
			return nil, fmt.Errorf("machine: process %d placed on negative node %d", vp, n)
		}
		if n > maxNode {
			maxNode = n
		}
	}
	s := &muxSched{
		m:     m,
		node:  append([]int(nil), placement...),
		nodes: make([]Cost, maxNode+1),
	}
	return s, nil
}

// busy charges c cycles of CPU to p's node, serializing with co-residents:
// the work starts when both the process and the node are free. Time the
// process spends runnable but waiting for the node CPU (a co-resident held
// it) is charged to its idle account — every cycle of the final clock must be
// compute, comm, or idle — and traced as a blocked span.
func (s *muxSched) busy(p *Proc, c Cost) {
	n := s.node[p.id]
	start := p.clock
	if s.nodes[n] > start {
		start = s.nodes[n]
	}
	if gap := start - p.clock; gap > 0 {
		p.idle += gap
		if t := s.m.cfg.Tracer; t != nil {
			t.Emit(trace.Event{Proc: p.id, Kind: trace.KindBlocked, Start: p.clock, End: start, Peer: -1})
		}
	}
	p.clock = start + c
	s.nodes[n] = p.clock
}

// charge bills p for c cycles of CPU: on its own clock when it has a node to
// itself, on its node's under Placement (the same arithmetic when no
// co-resident holds the node).
func (p *Proc) charge(c Cost) {
	if s := p.m.sched; s != nil {
		s.busy(p, c)
		return
	}
	p.clock += c
}
