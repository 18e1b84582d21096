package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The tests in this file ran once per simulation core, as subtests named
// after it. One core is left; its subtest keeps the name ("event") under
// which these checks have been tracked since they were written.

// TestCancelAbortsRun: closing Config.Cancel makes a long compute-bound run
// return a typed *CanceledError instead of running to completion.
func TestCancelAbortsRun(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		cancel := make(chan struct{})
		close(cancel) // canceled before the run starts: the first action aborts
		cfg := DefaultConfig(4)
		cfg.Cancel = cancel
		m := New(cfg)
		err := m.Run(func(p *Proc) {
			for i := 0; i < 1_000_000; i++ {
				p.Compute(1)
			}
		})
		if err == nil {
			t.Fatal("canceled run succeeded")
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("errors.Is(err, ErrCanceled) = false for %v", err)
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("error is %T, want *CanceledError", err)
		}
	})
}

// TestCancelFromHeartbeat: a Heartbeat that closes Cancel stops the run at
// the next action, with no help from the watcher goroutine. On one OS thread
// the watcher may not be scheduled before a short run ends, so the loop
// polls Cancel itself after each beat.
func TestCancelFromHeartbeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cancel := make(chan struct{})
	var once sync.Once
	cfg := DefaultConfig(4)
	cfg.Cancel = cancel
	cfg.Heartbeat = func(Cost) { once.Do(func() { close(cancel) }) }
	if err := New(cfg).Run(sendRecvRing(2000)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("run whose Heartbeat canceled it returned %v, want ErrCanceled", err)
	}
}

// TestCancelUnblocksParkedReceiver: cancellation must also reach a process
// blocked in Recv with no message coming — the case where only the host's
// wall-clock signal can end the run.
func TestCancelUnblocksParkedReceiver(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		cancel := make(chan struct{})
		cfg := DefaultConfig(2)
		cfg.Cancel = cancel
		m := New(cfg)
		done := make(chan error, 1)
		go func() {
			done <- m.Run(func(p *Proc) {
				if p.ID() == 0 {
					// An endless ping-pong: proc 0 keeps proc 1 fed so the
					// run never deadlocks and never finishes on its own.
					for i := 0; ; i++ {
						p.Send(1, 1, float64(i))
						p.Recv(1, 2)
					}
				}
				for {
					p.Recv(0, 1)
					p.Send(0, 2, 1.0)
				}
			})
		}()
		time.Sleep(5 * time.Millisecond)
		close(cancel)
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not terminate after cancellation")
		}
	})
}

// TestCancelNeverClosedIsIdentical: a Cancel channel that never fires must
// not change the simulated result in any way.
func TestCancelNeverClosedIsIdentical(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		run := func(cancel <-chan struct{}) Stats {
			cfg := DefaultConfig(3)
			cfg.Cancel = cancel
			m := New(cfg)
			if err := m.Run(func(p *Proc) {
				p.Compute(10)
				next := (p.ID() + 1) % 3
				prev := (p.ID() + 2) % 3
				p.Send(next, 1, float64(p.ID()))
				p.Recv(prev, 1)
			}); err != nil {
				t.Fatal(err)
			}
			s, err := m.Stats()
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		base := run(nil)
		got := run(make(chan struct{}))
		if fmt.Sprint(base) != fmt.Sprint(got) {
			t.Fatalf("an armed-but-silent Cancel changed the run:\n base %v\n got  %v", base, got)
		}
	})
}
