package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"procdecomp/internal/faults"
)

// The tests in this file ran once per simulation core, as subtests named
// after it. One core is left; its subtest keeps the name ("event") under
// which these checks have been tracked since they were written.

// TestCapBlockedSenderOnCrashedPeer: MailboxCap backpressure interacting
// with a crash-stop fault. Process 1 crash-stops before receiving anything;
// process 0 fills the bounded 0→1 channel and blocks on capacity. The send
// watchdog must diagnose the wait as unsatisfiable — a typed SendTimeoutError
// naming the sender, the dead destination, and the reason — never a bare
// deadlock report and never a hang.
func TestCapBlockedSenderOnCrashedPeer(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		cfg := DefaultConfig(2)
		cfg.MailboxCap = 1
		cfg.Faults = &faults.Schedule{Seed: 1, Crash: map[int]uint64{1: 0}}
		m := New(cfg)
		err := m.Run(func(p *Proc) {
			if p.ID() == 1 {
				p.Compute(1) // crash-stops here (crash point 0)
				p.Recv(0, 7)
				return
			}
			p.Send(1, 7, 1.0) // fills the one-slot channel
			p.Send(1, 7, 2.0) // blocks on capacity, forever
		})
		if err == nil {
			t.Fatal("run succeeded; want a send watchdog error")
		}
		if errors.Is(err, ErrDeadlock) {
			t.Fatalf("got a deadlock report, want a typed send watchdog error: %v", err)
		}
		if !errors.Is(err, ErrSendTimeout) {
			t.Fatalf("errors.Is(err, ErrSendTimeout) = false for %v", err)
		}
		var ste *SendTimeoutError
		if !errors.As(err, &ste) {
			t.Fatalf("error is %T, want *SendTimeoutError: %v", err, err)
		}
		if ste.Proc != 0 || ste.Dst != 1 {
			t.Errorf("watchdog blamed proc %d -> %d, want 0 -> 1", ste.Proc, ste.Dst)
		}
		if ste.Reason == "" {
			t.Error("watchdog reported no reason")
		}
	})
}

// TestCapBlockedSenderCrashAfterBlock covers the other interleaving: the
// sender is already parked on the full channel when the receiver crashes
// mid-run. The crash wake-up must reach capacity-blocked senders, not only
// blocked receivers.
func TestCapBlockedSenderCrashAfterBlock(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		cfg := DefaultConfig(2)
		cfg.MailboxCap = 1
		// Process 1 crashes at virtual time 5000: after it has received one
		// message (freeing a slot) but before it drains the rest.
		cfg.Faults = &faults.Schedule{Seed: 1, Crash: map[int]uint64{1: 5000}}
		m := New(cfg)
		err := m.Run(func(p *Proc) {
			if p.ID() == 1 {
				p.Recv(0, 7)
				p.Compute(10000) // crosses the crash point
				p.Recv(0, 7)
				p.Recv(0, 7)
				return
			}
			for i := 0; i < 3; i++ {
				p.Send(1, 7, float64(i))
			}
		})
		if err == nil {
			t.Fatal("run succeeded; want a send watchdog error")
		}
		if !errors.Is(err, ErrSendTimeout) {
			t.Fatalf("want ErrSendTimeout, got %v", err)
		}
	})
}

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
