package machine

import (
	"errors"
	"testing"
)

func muxConfig(procs int, placement []int) Config {
	cfg := testConfig(procs)
	cfg.Placement = placement
	return cfg
}

// Identity placement (one process per node) must behave exactly like the
// direct machine: same clocks, same stats.
func TestMuxIdentityMatchesDirect(t *testing.T) {
	body := func(p *Proc) {
		right := (p.ID() + 1) % 4
		left := (p.ID() + 3) % 4
		p.Compute(Cost(p.ID()*37 + 11))
		p.Send(right, 1, 1, 2)
		vals := p.Recv(left, 1)
		p.Compute(Cost(len(vals)) * 100)
	}
	direct := New(testConfig(4))
	if err := direct.Run(body); err != nil {
		t.Fatal(err)
	}
	mux := New(muxConfig(4, []int{0, 1, 2, 3}))
	if err := mux.Run(body); err != nil {
		t.Fatal(err)
	}
	ds, ms := mustStats(t, direct), mustStats(t, mux)
	if ds.Makespan != ms.Makespan {
		t.Errorf("makespan %d != %d", ms.Makespan, ds.Makespan)
	}
	for i := range ds.ProcTimes {
		if ds.ProcTimes[i] != ms.ProcTimes[i] {
			t.Errorf("proc %d clock %d != %d", i, ms.ProcTimes[i], ds.ProcTimes[i])
		}
	}
	if ds.Messages != ms.Messages || ds.Values != ms.Values {
		t.Error("message stats differ")
	}
}

// Co-resident processes serialize their compute: two processes doing 1000
// cycles each on one node take 2000 node cycles.
func TestMuxSerializesCompute(t *testing.T) {
	m := New(muxConfig(2, []int{0, 0}))
	if err := m.Run(func(p *Proc) {
		p.Compute(1000)
	}); err != nil {
		t.Fatal(err)
	}
	nodes := m.NodeTimes()
	if len(nodes) != 1 || nodes[0] != 2000 {
		t.Errorf("node times = %v, want [2000]", nodes)
	}
	st := mustStats(t, m)
	if st.Makespan != 2000 {
		t.Errorf("makespan = %d, want 2000", st.Makespan)
	}
}

// NodeTimes reads clocks the running processes write without a lock, so, like
// Stats, it must refuse a mid-run snapshot (`go test -race` keeps it honest).
func TestNodeTimesDuringRunReturnsNil(t *testing.T) {
	m := New(muxConfig(2, []int{0, 0}))
	inBody := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(p *Proc) {
			p.Compute(1000)
			if p.ID() == 0 {
				close(inBody)
			}
			<-release
			p.Compute(1000)
		})
	}()
	<-inBody
	if nodes := m.NodeTimes(); nodes != nil {
		t.Errorf("NodeTimes during Run = %v, want nil", nodes)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if nodes := m.NodeTimes(); len(nodes) != 1 || nodes[0] != 4000 {
		t.Errorf("node times after Run = %v, want [4000]", nodes)
	}
}

// Latency hiding (§5.4): while one resident waits for a remote message, its
// co-resident computes. The node finishes much earlier than if the wait
// held the CPU.
func TestMuxLatencyHiding(t *testing.T) {
	// Process 0 (node 0) waits for a message process 2 (node 1) sends after
	// long compute; process 1 (node 0) computes meanwhile.
	m := New(muxConfig(3, []int{0, 0, 1}))
	if err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Recv(2, 9)
			p.Compute(10)
		case 1:
			p.Compute(5000)
		case 2:
			p.Compute(5000)
			p.Send(0, 9, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	// Process 1's 5000 cycles fully overlap process 0's wait: node 0's
	// clock stays near the message arrival, not near wait+5000.
	arrival := Cost(5000) + testConfig(3).SendStartup + 2 + testConfig(3).Latency
	finish0 := st.ProcTimes[0]
	if finish0 > arrival+200 {
		t.Errorf("process 0 finished at %d; waiting seems to have held the CPU (arrival %d)", finish0, arrival)
	}
	if st.Breakdown[0].Idle == 0 {
		t.Error("process 0 should have idled waiting")
	}
	if st.ProcTimes[1] < 5000 {
		t.Error("process 1 did not do its work")
	}
}

// Determinism: repeated multiplexed runs give identical clocks.
func TestMuxDeterministic(t *testing.T) {
	run := func() []Cost {
		m := New(muxConfig(6, []int{0, 1, 0, 1, 0, 1}))
		if err := m.Run(func(p *Proc) {
			right := (p.ID() + 1) % 6
			left := (p.ID() + 5) % 6
			for k := 0; k < 5; k++ {
				p.Compute(Cost(13*p.ID() + 7))
				if p.ID()%2 == 0 {
					p.Send(right, 1, float64(k))
					p.Recv(left, 2)
				} else {
					p.Recv(left, 1)
					p.Send(right, 2, float64(k))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return mustStats(t, m).ProcTimes
	}
	first := run()
	for trial := 0; trial < 15; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: proc %d clock %d != %d", trial, i, got[i], first[i])
			}
		}
	}
}

func TestMuxDeadlockDetected(t *testing.T) {
	m := New(muxConfig(2, []int{0, 0}))
	err := m.Run(func(p *Proc) {
		p.Recv(1-p.ID(), 99)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// Deadlock detection through the muxRecv path: co-resident processes wait
// on a cycle that crosses nodes while another resident finished long ago.
func TestMuxDeadlockCoResidentCycle(t *testing.T) {
	// Processes 0,1 on node 0; 2,3 on node 1. Process 0 computes and exits;
	// 1 -> 3 -> 2 -> 1 wait on each other forever.
	m := New(muxConfig(4, []int{0, 0, 1, 1}))
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Compute(500)
		case 1:
			p.Recv(3, 1)
		case 2:
			p.Recv(1, 1)
		case 3:
			p.Recv(2, 1)
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// A queued message under the wrong tag must not mask a multiplexed deadlock:
// the detector requires a pending message that satisfies a waiter.
func TestMuxDeadlockDespitePendingWrongTag(t *testing.T) {
	m := New(muxConfig(3, []int{0, 0, 0}))
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 5, 1.0) // delivered but never awaited
			p.Recv(1, 6)
		case 1:
			p.Recv(0, 6)
		case 2:
			p.Compute(10)
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// A traced multiplexed deadlock still reports ErrDeadlock (the tracer must
// not interfere with the abort paths).
func TestMuxDeadlockWithTracer(t *testing.T) {
	cfg := muxConfig(2, []int{0, 0})
	cfg.Tracer = nil // exercise default first
	for _, traced := range []bool{false, true} {
		cfg := cfg
		if traced {
			cfg.Tracer = newTestLog()
		}
		m := New(cfg)
		err := m.Run(func(p *Proc) {
			p.Recv(1-p.ID(), 99)
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("traced=%v: err = %v, want deadlock", traced, err)
		}
	}
}

func TestMuxPanicAborts(t *testing.T) {
	m := New(muxConfig(3, []int{0, 0, 1}))
	err := m.Run(func(p *Proc) {
		if p.ID() == 2 {
			panic("boom")
		}
		p.Recv(2, 1)
	})
	if err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want process failure", err)
	}
}

func TestMuxBadPlacement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad placement length")
		}
	}()
	New(muxConfig(3, []int{0, 1}))
}

// NodeTimes reports the physical node clocks of a multiplexed run: nil when
// the machine was not multiplexed, and — the node clocks being written
// lock-free by the token holder, like everything Stats reads — nil while Run
// is in progress.
func (m *Machine) NodeTimes() []Cost {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sched == nil || m.running {
		return nil
	}
	return append([]Cost(nil), m.sched.nodes...)
}
