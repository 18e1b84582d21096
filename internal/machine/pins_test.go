package machine

import (
	"testing"
	"time"

	"procdecomp/internal/golden"
)

// Absolute pins on the engine's own cost. They replace a gate that compared
// the event loop with the goroutine core it superseded (≥ 5× on a
// multiplexed shape): with one core there is nothing to be relative to, so
// the numbers are pinned where they stand.

// sendRecvRing is pdperf's machine probe: every process sends one value to
// its right neighbour and receives one from its left, laps times.
func sendRecvRing(laps int) func(p *Proc) {
	return func(p *Proc) {
		next, prev := (p.ID()+1)%p.Procs(), (p.ID()+p.Procs()-1)%p.Procs()
		for i := 0; i < laps; i++ {
			p.Send(next, 1, 1.0)
			p.Recv(prev, 1)
		}
	}
}

// perStep measures what one more iteration of body's loop allocates, as the
// difference between a run of 2,000 and a run of 1,000 — which cancels
// everything a run allocates once (the machine, its coroutines, the heap).
func perStep(t *testing.T, procs int, body func(laps int) func(p *Proc)) float64 {
	t.Helper()
	allocs := func(laps int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := New(DefaultConfig(procs)).Run(body(laps)); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (allocs(2000) - allocs(1000)) / float64(1000*procs)
}

// A ring message allocates nothing once its queue has grown: its values are
// copied into the run's arena (one 1,024-value chunk per 1,024 of them — the
// 0.001 measured here) and its (dst, src, tag) FIFO keeps its buffer when it
// drains (a private copy and a map-held queue re-grown after every drain cost
// 1.5). pdperf reports the same number as machine.ring_allocs_per_msg;
// nothing may raise it unnoticed.
func TestRingAllocsPerMessage(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const pin = 0.01
	if got := perStep(t, 8, sendRecvRing); got > pin {
		t.Errorf("a ring message costs %.3f allocations, pinned at %.2f", got, pin)
	}
	empty := perStep(t, 8, func(laps int) func(p *Proc) {
		return func(p *Proc) {
			next, prev := (p.ID()+1)%p.Procs(), (p.ID()+p.Procs()-1)%p.Procs()
			for i := 0; i < laps; i++ {
				p.Send(next, 1)
				p.Recv(prev, 1)
			}
		}
	})
	if empty > 0.0005 {
		t.Errorf("a ring message without values costs %.4f allocations, want 0", empty)
	}
}

// What a run costs before its first event. A coroutine is dearer to make
// than the goroutine and channel it replaced (iter.Pull's closures and the
// variables they share: 11 allocations a process where there were 4); the pin
// keeps that entry fee from creeping. The processes share one seq closure and
// one slab of Procs, or it would be 13.
func TestEmptyRunAllocsPerProcess(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const procs, pin = 32, 12
	got := testing.AllocsPerRun(10, func() {
		if err := New(DefaultConfig(procs)).Run(func(p *Proc) {}); err != nil {
			t.Fatal(err)
		}
	}) / procs
	if got > pin {
		t.Errorf("an empty run costs %.1f allocations a process, pinned at %d", got, pin)
	}
}

// Compute is the simulator's hottest call and allocates nothing.
func TestComputeDoesNotAllocate(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	got := perStep(t, 8, func(laps int) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < laps; i++ {
				p.Compute(3)
			}
		}
	})
	if got > 0.001 {
		t.Errorf("a Compute costs %.3f allocations, want 0", got)
	}
}

// The shape the relative gate existed for: many processes on few nodes, where
// every action waits for conservative admission. An engine that wakes every
// resident on every event is O(S²) per admitted step here — the goroutine
// core took 33.7 s on this exact ring, the event loop ≈ 40 ms (EXPERIMENTS,
// "Engine speedup") — so a bound with ≥ 50× headroom over the event loop
// still fails any engine of that complexity class by an order of magnitude.
func TestMultiplexedRingStaysSubquadratic(t *testing.T) {
	procs, rounds, bound := 256, 50, 3*time.Second
	if golden.RaceEnabled || testing.Short() {
		procs, rounds = 64, 20
	}
	cfg := DefaultConfig(procs)
	cfg.Placement = make([]int, procs)
	for p := range cfg.Placement {
		cfg.Placement[p] = p % 4
	}
	m := New(cfg)
	start := time.Now()
	if err := m.Run(sendRecvRing(rounds)); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	if st := mustStats(t, m); st.Messages != int64(procs*rounds) {
		t.Fatalf("ring delivered %d messages, want %d", st.Messages, procs*rounds)
	}
	t.Logf("%d processes on 4 nodes, %d rounds: %v", procs, rounds, d)
	if d > bound {
		t.Errorf("%d processes on 4 nodes took %v for %d rounds, bound %v", procs, d, rounds, bound)
	}
}
