package machine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testConfig(procs int) Config {
	return Config{
		Procs: procs, OpCost: 1, MemCost: 1, LoopCost: 1,
		SendStartup: 100, RecvStartup: 10, PerValue: 2, Latency: 5, ValueBytes: 4,
	}
}

// mustStats fetches Stats after Run has returned, failing the test on error.
func mustStats(t *testing.T, m *Machine) Stats {
	t.Helper()
	st, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPingTiming(t *testing.T) {
	m := New(testConfig(2))
	var recvClock Cost
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Compute(50)
			p.Send(1, 7, 3.5)
		case 1:
			v := p.Recv1(0, 7)
			if v != 3.5 {
				t.Errorf("got %v, want 3.5", v)
			}
			recvClock = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: 50 compute + 100 startup + 2 per-value = 152; arrival 152+5=157.
	// Receiver idle until 157, then 10 + 2 = 169.
	if recvClock != 169 {
		t.Errorf("receiver clock = %d, want 169", recvClock)
	}
	st := mustStats(t, m)
	if st.Messages != 1 || st.Values != 1 || st.Bytes != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.Makespan != 169 {
		t.Errorf("makespan = %d, want 169", st.Makespan)
	}
}

func TestReceiverNotDelayedWhenMessageEarly(t *testing.T) {
	m := New(testConfig(2))
	var recvClock Cost
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, 1) // arrives at 100+2+5 = 107
		case 1:
			p.Compute(500) // already past arrival
			p.Recv(0, 1)
			recvClock = p.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvClock != 512 { // 500 + 10 + 2
		t.Errorf("receiver clock = %d, want 512", recvClock)
	}
}

func TestFIFOPerTag(t *testing.T) {
	m := New(testConfig(2))
	var got []Value
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < 10; i++ {
				p.Send(1, 3, Value(i))
			}
		case 1:
			for i := 0; i < 10; i++ {
				got = append(got, p.Recv1(0, 3))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != Value(i) {
			t.Fatalf("out of order: got[%d] = %v", i, v)
		}
	}
}

func TestTagsIndependent(t *testing.T) {
	m := New(testConfig(2))
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, 10)
			p.Send(1, 2, 20)
		case 1:
			// Receive in the opposite order of sending.
			if v := p.Recv1(0, 2); v != 20 {
				t.Errorf("tag 2: got %v", v)
			}
			if v := p.Recv1(0, 1); v != 10 {
				t.Errorf("tag 1: got %v", v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New(testConfig(2))
	err := m.Run(func(p *Proc) {
		// Both wait for a message that never comes.
		p.Recv(1-p.ID(), 99)
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestDeadlockWithFinishedProcs(t *testing.T) {
	m := New(testConfig(3))
	err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			return // finishes immediately
		}
		p.Recv(0, 1) // waits forever
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestPanicAborts(t *testing.T) {
	m := New(testConfig(2))
	err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			panic("boom")
		}
		p.Recv(0, 1) // must be woken up rather than hang
	})
	if err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want process failure", err)
	}
}

func TestRingDeterministicTiming(t *testing.T) {
	// A token passed around a ring: the final clock must be identical across
	// repeated runs (virtual-time determinism regardless of scheduling).
	run := func() Cost {
		m := New(testConfig(8))
		if err := m.Run(func(p *Proc) {
			right := (p.ID() + 1) % 8
			left := (p.ID() + 7) % 8
			if p.ID() == 0 {
				p.Send(right, 0, 1)
				p.Recv(left, 0)
			} else {
				v := p.Recv1(left, 0)
				p.Compute(Cost(p.ID()) * 13)
				p.Send(right, 0, v+1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return mustStats(t, m).Makespan
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: makespan %d != %d", i, got, first)
		}
	}
}

func TestManyToOneCounts(t *testing.T) {
	const procs = 9
	m := New(testConfig(procs))
	var total int64
	err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for src := 1; src < procs; src++ {
				vals := p.Recv(src, 5)
				atomic.AddInt64(&total, int64(len(vals)))
			}
			return
		}
		p.Send(0, 5, make([]Value, p.ID())...)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	if st.Messages != procs-1 {
		t.Errorf("messages = %d, want %d", st.Messages, procs-1)
	}
	want := int64((procs - 1) * procs / 2)
	if st.Values != want || total != want {
		t.Errorf("values = %d (recv %d), want %d", st.Values, total, want)
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	m := New(testConfig(2))
	err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(5, 0, 1)
		}
	})
	if err == nil {
		t.Fatal("expected error for out-of-range send")
	}
}

func TestMakespanIsMaxClock(t *testing.T) {
	m := New(testConfig(4))
	if err := m.Run(func(p *Proc) {
		p.Compute(Cost(p.ID()) * 1000)
	}); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	if st.Makespan != 3000 {
		t.Errorf("makespan = %d, want 3000", st.Makespan)
	}
	for i, c := range st.ProcTimes {
		if c != Cost(i)*1000 {
			t.Errorf("proc %d time = %d", i, c)
		}
	}
}

// Property: a message's receive completion time is never before
// send-initiation + startup + latency, and cost accounting is additive.
func TestMessageCostLowerBound(t *testing.T) {
	f := func(work uint16, nvals uint8) bool {
		n := int(nvals%32) + 1
		m := New(testConfig(2))
		var senderDone, recvDone Cost
		err := m.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Compute(Cost(work))
				p.Send(1, 0, make([]Value, n)...)
				senderDone = p.Clock()
			} else {
				p.Recv(0, 0)
				recvDone = p.Clock()
			}
		})
		if err != nil {
			return false
		}
		cfg := testConfig(2)
		wantSender := Cost(work) + cfg.SendStartup + Cost(n)*cfg.PerValue
		wantRecv := wantSender + cfg.Latency + cfg.RecvStartup + Cost(n)*cfg.PerValue
		return senderDone == wantSender && recvDone == wantRecv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.Procs != 16 || cfg.SendStartup < 100*cfg.OpCost {
		t.Errorf("default config not iPSC/2-flavoured: %+v", cfg)
	}
	m := New(cfg)
	if m.Config().Procs != 16 {
		t.Error("Config() mismatch")
	}
}

func TestNewPanicsOnBadProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Procs: 0})
}

func TestSharedMemoryConfig(t *testing.T) {
	mp := DefaultConfig(8)
	shm := SharedMemoryConfig(8)
	if shm.Procs != 8 {
		t.Error("procs not carried")
	}
	// §1's regimes: hundreds of cycles per message vs tens.
	if mp.SendStartup < 100 || shm.SendStartup > 50 {
		t.Errorf("start-ups do not reflect the two machine classes: %d vs %d",
			mp.SendStartup, shm.SendStartup)
	}
	if shm.SendStartup+shm.RecvStartup < 10 {
		t.Error("remote access should still cost tens of cycles on shared memory")
	}
}

// The time partition must account for every cycle: compute + comm + idle
// equals the final clock on every process, in every run.
func TestBreakdownAccountsEveryCycle(t *testing.T) {
	m := New(testConfig(4))
	if err := m.Run(func(p *Proc) {
		right := (p.ID() + 1) % 4
		left := (p.ID() + 3) % 4
		p.Compute(Cost(p.ID()*50 + 10))
		p.Send(right, 1, 1, 2, 3)
		p.Recv(left, 1)
		p.Ops(7)
		p.Mem(3)
		p.LoopStep()
	}); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	for i, b := range st.Breakdown {
		if b.Compute+b.Comm+b.Idle != st.ProcTimes[i] {
			t.Errorf("proc %d: %d + %d + %d != clock %d",
				i, b.Compute, b.Comm, b.Idle, st.ProcTimes[i])
		}
	}
	if st.MeanUtilization() <= 0 || st.MeanUtilization() > 1 {
		t.Errorf("mean utilization = %v", st.MeanUtilization())
	}
}

// Stats must refuse to report mid-run: the per-process clocks are written
// lock-free by whichever process holds the execution token, so a concurrent
// snapshot would be a data race returning torn values. (This call used to
// panic; it now returns the typed ErrRunInProgress, and `go test -race` keeps
// the guard honest.)
func TestStatsDuringRunReturnsError(t *testing.T) {
	m := New(testConfig(2))
	inBody := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(p *Proc) {
			if p.ID() == 0 {
				close(inBody)
			}
			<-release
			p.Compute(10)
		})
	}()
	<-inBody
	if _, err := m.Stats(); !errors.Is(err, ErrRunInProgress) {
		t.Errorf("Stats during Run: err = %v, want ErrRunInProgress", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// After Run returns, Stats is safe again.
	if st := mustStats(t, m); st.Makespan != 10 {
		t.Errorf("makespan = %d, want 10", st.Makespan)
	}
}

func TestIdleMeasuresWaiting(t *testing.T) {
	m := New(testConfig(2))
	if err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(10000)
			p.Send(1, 1, 1)
			return
		}
		p.Recv(0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	b := mustStats(t, m).Breakdown[1]
	if b.Idle < 10000 {
		t.Errorf("receiver idle = %d, want >= 10000", b.Idle)
	}
	if b.Compute != 0 {
		t.Errorf("receiver compute = %d, want 0", b.Compute)
	}
}

// TestDeadlockDiagnostics: the deadlock error names who is blocked on which
// (src, tag) and what is sitting unread in their mailboxes.
func TestDeadlockDiagnostics(t *testing.T) {
	m := New(testConfig(2))
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 9, 1.0) // delivered but never asked for
			p.Recv(1, 1)
		case 1:
			p.Recv(0, 2) // wrong tag: 9 is pending, 2 never comes
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T, want *DeadlockError", err)
	}
	if len(de.Blocked) != 2 || de.Blocked[0].Proc != 0 || de.Blocked[1].Proc != 1 {
		t.Fatalf("blocked = %+v, want procs 0 and 1 in order", de.Blocked)
	}
	msg := err.Error()
	for _, want := range []string{
		"proc 0 blocked in recv",
		"awaits (src 1, tag 1)",
		"proc 1 blocked in recv",
		"awaits (src 0, tag 2)",
		"mailbox holds (src 0, tag 9)x1",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error %q missing %q", msg, want)
		}
	}
}

// TestRecvOutOfRangePanics: Recv validates its source like Send validates
// its destination (the seed's guard, pinned by test).
func TestRecvOutOfRangePanics(t *testing.T) {
	m := New(testConfig(2))
	err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Recv(2, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "recv from processor 2 out of range [0,2)") {
		t.Errorf("err = %v, want out-of-range receive panic", err)
	}
}
