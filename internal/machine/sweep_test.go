package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"procdecomp/internal/faults"
	"procdecomp/internal/golden"
	"procdecomp/internal/trace"
)

// A seeded sweep over generated message-passing programs: random
// straight-line send/recv/compute scripts for 1–6 processes, crossed with
// Placement, a chaos schedule and a receive nobody answers. Its properties
// need no second engine to compare with: a run repeats byte for byte, its
// trace tiles every process's clock, every value arrives where and in the
// order it was sent, messages are conserved when a run fails, and no
// goroutine is left. The same scripts, dumped by the engine
// this one replaced, are how a change to the engine is compared with its
// parent (EXPERIMENTS, "Coroutines and dense mailboxes").

type sweepOp struct {
	kind byte // 'c' compute, 's' send, 'r' recv
	peer int
	tag  int64
	cost Cost
}

// sweepCase is one generated program and the machine it runs on.
type sweepCase struct {
	procs     int
	ops       [][]sweepOp
	placement []int
	faults    *faults.Schedule
	// mustFail: one process waits for a message that is never sent, so the
	// run has to end in an error.
	mustFail bool
}

// sweepPayload is what the k-th message from src with tag carries: between
// zero and three values that name it.
func sweepPayload(src int, tag int64, k int) []Value {
	vals := make([]Value, (src+int(tag)+k)%4)
	for i := range vals {
		vals[i] = Value(src*1_000_000 + int(tag)*10_000 + k*10 + i)
	}
	return vals
}

// genSweepCase builds case number seed. The script is laid out along one
// global order in which every receive follows its send, so a complete
// schedule exists and — the machine being a deterministic process network —
// every run finds it. Receives are deferred at random to let queues build up.
func genSweepCase(seed int64) sweepCase {
	rng := rand.New(rand.NewSource(seed))
	c := sweepCase{procs: 1 + rng.Intn(6)}
	c.ops = make([][]sweepOp, c.procs)
	type link struct{ src, dst int }
	type owed struct {
		link
		tag int64
	}
	var deferred []owed
	emitRecv := func(i int) {
		o := deferred[i]
		deferred = append(deferred[:i], deferred[i+1:]...)
		c.ops[o.dst] = append(c.ops[o.dst], sweepOp{kind: 'r', peer: o.src, tag: o.tag})
	}
	for n := rng.Intn(100); n > 0; n-- {
		switch r := rng.Intn(10); {
		case r < 3:
			p := rng.Intn(c.procs)
			c.ops[p] = append(c.ops[p], sweepOp{kind: 'c', cost: Cost(rng.Intn(400))})
		case r < 7:
			l := link{rng.Intn(c.procs), rng.Intn(c.procs)}
			tag := int64(rng.Intn(3))
			c.ops[l.src] = append(c.ops[l.src], sweepOp{kind: 's', peer: l.dst, tag: tag})
			deferred = append(deferred, owed{l, tag})
		default:
			if len(deferred) > 0 {
				emitRecv(rng.Intn(len(deferred)))
			}
		}
	}
	for len(deferred) > 0 {
		emitRecv(rng.Intn(len(deferred)))
	}
	if rng.Intn(3) == 0 {
		c.placement = make([]int, c.procs)
		nodes := 1 + rng.Intn(c.procs)
		for p := range c.placement {
			c.placement[p] = rng.Intn(nodes)
		}
	}
	if rng.Intn(2) == 0 {
		c.faults = faults.Chaos(uint64(seed), 0.1)
	}
	if rng.Intn(4) == 0 {
		p := rng.Intn(c.procs)
		c.ops[p] = append(c.ops[p], sweepOp{kind: 'r', peer: rng.Intn(c.procs), tag: 7})
		c.mustFail = true
	}
	return c
}

// run executes the case once on a traced machine.
func (c sweepCase) run() (*Machine, *trace.Log, error) {
	cfg := DefaultConfig(c.procs)
	cfg.Placement, cfg.Faults = c.placement, c.faults
	cfg.Tracer = trace.New()
	m := New(cfg)
	err := m.Run(func(p *Proc) {
		type queue struct {
			peer int
			tag  int64
		}
		sent, received := map[queue]int{}, map[queue]int{}
		for _, op := range c.ops[p.ID()] {
			q := queue{op.peer, op.tag}
			switch op.kind {
			case 'c':
				p.Compute(op.cost)
			case 's':
				p.Send(op.peer, op.tag, sweepPayload(p.ID(), op.tag, sent[q])...)
				sent[q]++
			case 'r':
				got, want := p.Recv(op.peer, op.tag), sweepPayload(op.peer, op.tag, received[q])
				if !slices.Equal(got, want) {
					panic(fmt.Sprintf("message %d of (src %d, tag %d) arrived as %v, want %v",
						received[q], op.peer, op.tag, got, want))
				}
				received[q]++
			}
		}
	})
	return m, cfg.Tracer, err
}

// sweepDump renders everything observable about a finished run: every span,
// every wire event in the order the run emitted it, the counters, the error.
func sweepDump(m *Machine, log *trace.Log, err error) string {
	var b strings.Builder
	for p := 0; p < log.Procs(); p++ {
		for _, e := range log.Events(p) {
			fmt.Fprintf(&b, "%+v\n", e)
		}
	}
	for _, w := range log.WireEvents() {
		fmt.Fprintf(&b, "%+v\n", w)
	}
	st, serr := m.Stats()
	fmt.Fprintf(&b, "%+v %v\nnodes %v\nerr %v\n", st, serr, m.NodeTimes(), err)
	return b.String()
}

func TestGeneratedProgramsSweep(t *testing.T) {
	seeds := 2000
	if golden.RaceEnabled || testing.Short() {
		seeds = 200
	}
	base := runtime.NumGoroutine()
	failed := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		c := genSweepCase(seed)
		m, log, err := c.run()
		switch {
		case err != nil && !c.mustFail:
			t.Fatalf("seed %d: %v", seed, err)
		case err == nil && c.mustFail:
			t.Fatalf("seed %d: a receive nobody answers did not fail the run", seed)
		case err != nil && strings.Contains(err.Error(), "arrived as"):
			t.Fatalf("seed %d: %v", seed, err)
		case err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrRecvTimeout):
			t.Fatalf("seed %d: failed with neither a deadlock nor a watchdog report: %v", seed, err)
		}
		if verr := m.VerifyTrace(); verr != nil {
			t.Fatalf("seed %d (run error %v): %v", seed, err, verr)
		}
		dump := sweepDump(m, log, err)
		m2, log2, err2 := c.run()
		if again := sweepDump(m2, log2, err2); again != dump {
			t.Fatalf("seed %d: two runs differ:\n%s\n---\n%s", seed, dump, again)
		}
		// Conservation, which a failed run must keep too: every message a
		// Send counted was received, is still in a mailbox, or was lost.
		st := mustStats(t, m)
		var recvd int64
		for p := 0; p < log.Procs(); p++ {
			for _, e := range log.Events(p) {
				if e.Kind == trace.KindRecv {
					recvd++
				}
			}
		}
		if pending := pendingMessages(m); st.Messages != recvd+pending+st.Lost {
			t.Fatalf("seed %d (run error %v): %d messages sent, %d received + %d pending + %d lost",
				seed, err, st.Messages, recvd, pending, st.Lost)
		}
		if err != nil {
			failed++
		}
	}
	settled(t, "after the sweep", base)
	t.Logf("%d generated programs, %d of them ending in a deadlock or watchdog report", seeds, failed)
}
