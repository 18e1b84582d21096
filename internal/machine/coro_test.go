package machine

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"procdecomp/internal/faults"
)

// Tests of what the coroutine engine and the dense mailboxes promise beyond
// the simulated numbers (those are held by testdata/golden/engine_witness.json
// in internal/bench): a Machine is one run, nothing outlives a run however it
// ends, a received slice is the receiver's, and every (src, tag) queue is a
// FIFO whatever its neighbours do.

// settled waits for the goroutine count to come back down to base. A process
// coroutine is gone the moment it ends, but Run's Cancel watcher and a test's
// own helper goroutine exit a scheduling step after the call that ends them.
func settled(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// pendingMessages counts the messages sitting in mailboxes after a run.
func pendingMessages(m *Machine) int64 {
	var n int64
	for _, row := range m.boxes {
		for _, fs := range row {
			for i := range fs {
				n += int64(fs[i].len())
			}
		}
	}
	return n
}

// A second Run used to return nil with the first run's clocks, counters and
// failure carried over (Makespan 509 then 866, Messages 1 then 2 on this
// body). It is refused before it touches anything.
func TestRunTwiceIsRefused(t *testing.T) {
	m := New(DefaultConfig(2))
	body := func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 1.0)
		} else {
			p.Recv(0, 1)
		}
	}
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	first := mustStats(t, m)
	err := m.Run(body)
	if !errors.Is(err, errReused) {
		t.Fatalf("second Run returned %v, want errReused", err)
	}
	if again := mustStats(t, m); again.Makespan != first.Makespan || again.Messages != first.Messages {
		t.Errorf("the refused Run moved the machine: makespan %d -> %d, messages %d -> %d",
			first.Makespan, again.Makespan, first.Messages, again.Messages)
	}
}

// A body that leaves by runtime.Goexit — what t.Fatal does — ends the
// goroutine that called Run. The other processes (one parked in Recv, two not
// yet started) are ended, the parked one through its deferred calls, and the
// machine no longer claims to be running.
func TestGoexitInBodyEndsCallerAndLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	m := New(DefaultConfig(4))
	unwound := make([]bool, 4)
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Run(func(p *Proc) {
			defer func() { unwound[p.ID()] = true }()
			switch p.ID() {
			case 0:
				p.Recv(3, 9) // parked when the Goexit happens
			case 1:
				runtime.Goexit()
			}
			p.Compute(1)
		})
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the goroutine that called Run did not end")
	}
	if returned {
		t.Error("Run returned to its caller after a Goexit in a body")
	}
	if !unwound[0] || !unwound[1] {
		t.Errorf("deferred calls of the started processes did not all run: %v", unwound)
	}
	if unwound[2] || unwound[3] {
		t.Errorf("a process that was never dispatched ran: %v", unwound)
	}
	if _, err := m.Stats(); err != nil {
		t.Errorf("Stats after the unwound run: %v", err)
	}
	settled(t, "after Goexit", base)
}

// No run leaves a goroutine behind, however it ends.
func TestNoGoroutineOutlivesARun(t *testing.T) {
	ring := sendRecvRing(10)
	cases := []struct {
		name string
		cfg  func() Config
		body func(p *Proc)
		want error // errors.Is target; nil for a clean run
	}{
		{"clean", func() Config { return DefaultConfig(4) }, ring, nil},
		{"deadlock", func() Config { return DefaultConfig(4) }, func(p *Proc) {
			p.Recv((p.ID()+1)%p.Procs(), 1)
		}, ErrDeadlock},
		{"panic", func() Config { return DefaultConfig(4) }, func(p *Proc) {
			if p.ID() == 2 {
				panic("boom")
			}
			p.Recv(2, 1)
		}, errAny},
		{"lost forever", func() Config {
			cfg := DefaultConfig(4)
			cfg.Faults = &faults.Schedule{Seed: 1, Drop: 1}
			return cfg
		}, ring, ErrRecvTimeout},
		{"cancel", func() Config {
			cancel := make(chan struct{})
			close(cancel)
			cfg := DefaultConfig(4)
			cfg.Cancel = cancel
			return cfg
		}, sendRecvRing(1 << 62), ErrCanceled}, // only the watcher ends this one
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			err := New(c.cfg()).Run(c.body)
			switch {
			case c.want == nil && err != nil:
				t.Fatal(err)
			case c.want == errAny && err == nil:
				t.Fatal("run succeeded")
			case c.want != nil && c.want != errAny && !errors.Is(err, c.want):
				t.Fatalf("run returned %v, want %v", err, c.want)
			}
			settled(t, c.name, base)
		})
	}
}

// errAny stands for "some error" in a test table.
var errAny = errors.New("any error")

// The slice Recv returns is the receiver's: 5,000 later messages on the same
// link and on others leave it as it was, and appending to it does not reach
// into the next message's values.
func TestRecvSliceIsTheReceiversToKeep(t *testing.T) {
	const later = 5000
	var first, second []Value
	var wrong int
	m := New(DefaultConfig(3))
	if err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, 10, 11, 12)
			p.Send(1, 1, 20, 21, 22)
			for i := 0; i < later; i++ {
				p.Send(1, 1, Value(i), Value(i)+0.5)
				p.Send(2, 1, -1)
			}
		case 1:
			first = p.Recv(0, 1)
			second = p.Recv(0, 1)
			first = append(first, 99)
			for i := 0; i < later; i++ {
				if v := p.Recv(0, 1); len(v) != 2 || v[0] != Value(i) || v[1] != Value(i)+0.5 {
					wrong++
				}
			}
		case 2:
			for i := 0; i < later; i++ {
				p.Recv(0, 1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if want := []Value{10, 11, 12, 99}; !slices.Equal(first, want) {
		t.Errorf("message 1 after %d later sends and an append: %v, want %v", 2*later, first, want)
	}
	if want := []Value{20, 21, 22}; !slices.Equal(second, want) {
		t.Errorf("message 2 after an append to message 1: %v, want %v", second, want)
	}
	if wrong != 0 {
		t.Errorf("%d of the later messages arrived with the wrong values", wrong)
	}
}

// Two tags interleaved on one (src, dst) pair are each a FIFO, whichever the
// receiver drains first.
func TestInterleavedTagsEachFIFO(t *testing.T) {
	const n = 50
	for _, firstTag := range []int64{1, 2} {
		got := map[int64][]Value{}
		m := New(DefaultConfig(2))
		if err := m.Run(func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < n; i++ {
					p.Send(1, 1, Value(i))
					p.Send(1, 2, Value(1000+i))
				}
				return
			}
			for _, tag := range []int64{firstTag, 3 - firstTag} {
				for i := 0; i < n; i++ {
					got[tag] = append(got[tag], p.Recv1(0, tag))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got[1][i] != Value(i) || got[2][i] != Value(1000+i) {
				t.Fatalf("tag %d drained first: message %d arrived as %v (tag 1), %v (tag 2)",
					firstTag, i, got[1][i], got[2][i])
			}
		}
	}
}

// A queue that drains and refills keeps its buffer; 1,000 refills of varying
// depth still deliver in send order.
func TestRefilledQueueDeliversInOrder(t *testing.T) {
	const refills = 1000
	var wrong int
	m := New(DefaultConfig(2))
	if err := m.Run(func(p *Proc) {
		next := Value(0)
		for r := 0; r < refills; r++ {
			depth := 1 + r%7
			if p.ID() == 0 {
				for i := 0; i < depth; i++ {
					p.Send(1, 4, next)
					next++
				}
				p.Recv(1, 5) // the queue is empty again
				continue
			}
			for i := 0; i < depth; i++ {
				if p.Recv1(0, 4) != next {
					wrong++
				}
				next++
			}
			p.Send(0, 5)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if wrong != 0 {
		t.Errorf("%d messages out of order", wrong)
	}
	if q := m.queue(1, key{src: 0, tag: 4}); q == nil || q.len() != 0 || cap(q.q) > 16 {
		t.Errorf("the refilled queue did not keep one small buffer: %+v", q)
	}
}

// A receiver that keeps up without ever catching up never lets its queue
// drain; the buffer must still stay proportional to what is pending.
func TestNeverDrainedQueueStaysSmall(t *testing.T) {
	const n = 10000
	var wrong int
	m := New(DefaultConfig(2))
	if err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < n+3; i++ {
				p.Send(1, 1, Value(i))
				if i >= 3 {
					p.Recv(1, 2) // stay three messages ahead
				}
			}
			return
		}
		for i := 0; i < n; i++ {
			if p.Recv1(0, 1) != Value(i) {
				wrong++
			}
			p.Send(0, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if wrong != 0 {
		t.Errorf("%d messages out of order", wrong)
	}
	q := m.queue(1, key{src: 0, tag: 1})
	if q.len() != 3 || cap(q.q) > 16 {
		t.Errorf("queue holds %d messages in a buffer of %d", q.len(), cap(q.q))
	}
}
