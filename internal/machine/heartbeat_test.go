package machine

import (
	"reflect"
	"testing"
)

// pingPong is the heartbeat workload: rounds request/reply exchanges between
// two processes, so the event loop performs a known-shaped dispatch sequence
// (each blocking receive forces a fresh dispatch).
func pingPong(rounds int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if p.ID() == 0 {
				p.Send(1, 1, Value(i))
				p.Recv(1, 2)
			} else {
				p.Recv(0, 1)
				p.Send(0, 2, Value(i))
			}
		}
	}
}

// heartbeats runs the workload and returns the beat clocks in call order
// plus the run's stats. Heartbeat runs on the loop's own goroutine, and Run
// joins it, so the slice is safe to read after.
func heartbeats(t *testing.T, every, rounds int) ([]Cost, Stats) {
	t.Helper()
	cfg := testConfig(2)
	cfg.HeartbeatEvery = every
	var beats []Cost
	cfg.Heartbeat = func(c Cost) { beats = append(beats, c) }
	m := New(cfg)
	if err := m.Run(pingPong(rounds)); err != nil {
		t.Fatal(err)
	}
	return beats, mustStats(t, m)
}

// TestHeartbeatCadence pins the contract: Heartbeat fires exactly every
// HeartbeatEvery dispatches — halving the interval over the same workload
// yields floor(D/k) beats for the same dispatch count D.
func TestHeartbeatCadence(t *testing.T) {
	const rounds = 200
	// every=1 counts every dispatch, giving us the workload's exact D.
	all, _ := heartbeats(t, 1, rounds)
	d := len(all)
	if d < 2*rounds {
		t.Fatalf("ping-pong of %d rounds produced only %d dispatches", rounds, d)
	}
	for _, every := range []int{4, 8, 16, 64} {
		beats, _ := heartbeats(t, every, rounds)
		if want := d / every; len(beats) != want {
			t.Errorf("every=%d: %d beats over %d dispatches, want %d", every, len(beats), d, want)
		}
	}
}

// TestHeartbeatOrdering pins the loop's clock discipline: beats report the
// loop's current virtual time, so the sequence is non-decreasing and never
// exceeds the run's makespan.
func TestHeartbeatOrdering(t *testing.T) {
	beats, st := heartbeats(t, 8, 200)
	if len(beats) == 0 {
		t.Fatal("no beats")
	}
	for i := 1; i < len(beats); i++ {
		if beats[i] < beats[i-1] {
			t.Fatalf("beat %d went backwards: %d after %d", i, beats[i], beats[i-1])
		}
	}
	if last := beats[len(beats)-1]; last > st.Makespan {
		t.Errorf("last beat %d exceeds makespan %d", last, st.Makespan)
	}
}

// TestHeartbeatDeterministic: equal runs beat at equal virtual clocks.
func TestHeartbeatDeterministic(t *testing.T) {
	a, _ := heartbeats(t, 8, 200)
	b, _ := heartbeats(t, 8, 200)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("beat sequences differ between identical runs:\n%v\n%v", a, b)
	}
}

// TestHeartbeatObservationalOnly: the hook must not perturb the simulation —
// stats are bit-identical with and without it — and the default interval
// only applies when the hook is set at all.
func TestHeartbeatObservationalOnly(t *testing.T) {
	const rounds = 200
	_, withBeats := heartbeats(t, 3, rounds)
	cfg := testConfig(2)
	m := New(cfg)
	if err := m.Run(pingPong(rounds)); err != nil {
		t.Fatal(err)
	}
	if without := mustStats(t, m); !reflect.DeepEqual(without, withBeats) {
		t.Errorf("heartbeat perturbed the simulation:\nwith:    %+v\nwithout: %+v", withBeats, without)
	}
}

// TestHeartbeatDefaultInterval: HeartbeatEvery <= 0 means the documented
// default of 4096 dispatches, verified against the workload's exact
// dispatch count.
func TestHeartbeatDefaultInterval(t *testing.T) {
	const rounds = 3000 // enough dispatches to cross 4096 at least once
	all, _ := heartbeats(t, 1, rounds)
	d := len(all)
	if d <= 4096 {
		t.Fatalf("workload produced only %d dispatches, cannot observe the default interval", d)
	}
	beats, _ := heartbeats(t, 0, rounds)
	if want := d / 4096; len(beats) != want {
		t.Errorf("default interval: %d beats over %d dispatches, want %d", len(beats), d, want)
	}
}
