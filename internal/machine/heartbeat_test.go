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
func heartbeats(t *testing.T, rounds int) ([]Cost, Stats) {
	t.Helper()
	cfg := testConfig(2)
	var beats []Cost
	cfg.Heartbeat = func(c Cost) { beats = append(beats, c) }
	m := New(cfg)
	if err := m.Run(pingPong(rounds)); err != nil {
		t.Fatal(err)
	}
	return beats, mustStats(t, m)
}

// TestHeartbeatCadence pins the contract: Heartbeat fires exactly every
// heartbeatEvery dispatches, so D dispatches yield floor(D/heartbeatEvery)
// beats. The ping-pong dispatches each process once to start and once per
// message that wakes it, except that process 1 starts after process 0's
// first send, so its first receive does not block: D = 2·rounds + 1. The
// round counts straddle the first and the fourth beat.
func TestHeartbeatCadence(t *testing.T) {
	for _, rounds := range []int{10, 127, 128, 511, 512} {
		beats, _ := heartbeats(t, rounds)
		d := 2*rounds + 1
		if want := d / heartbeatEvery; len(beats) != want {
			t.Errorf("%d rounds: %d beats over %d dispatches, want %d", rounds, len(beats), d, want)
		}
	}
}

// TestHeartbeatOrdering pins the loop's clock discipline: beats report the
// loop's current virtual time, so the sequence is non-decreasing and never
// exceeds the run's makespan.
func TestHeartbeatOrdering(t *testing.T) {
	beats, st := heartbeats(t, 3000)
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
	a, _ := heartbeats(t, 3000)
	b, _ := heartbeats(t, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("beat sequences differ between identical runs:\n%v\n%v", a, b)
	}
}

// TestHeartbeatObservationalOnly: the hook must not perturb the simulation —
// stats are bit-identical with and without it.
func TestHeartbeatObservationalOnly(t *testing.T) {
	const rounds = 3000
	_, withBeats := heartbeats(t, rounds)
	cfg := testConfig(2)
	m := New(cfg)
	if err := m.Run(pingPong(rounds)); err != nil {
		t.Fatal(err)
	}
	if without := mustStats(t, m); !reflect.DeepEqual(without, withBeats) {
		t.Errorf("heartbeat perturbed the simulation:\nwith:    %+v\nwithout: %+v", withBeats, without)
	}
}

// TestHeartbeatDefaultInterval: a config that sets only the hook beats at
// the documented interval of 256 dispatches, checked against the workload's
// exact dispatch count (2·rounds + 1, see TestHeartbeatCadence).
func TestHeartbeatDefaultInterval(t *testing.T) {
	if heartbeatEvery != 256 {
		t.Fatalf("heartbeat interval is %d dispatches, documented as 256", heartbeatEvery)
	}
	const rounds = 3000 // enough dispatches to cross 256 many times
	d := 2*rounds + 1
	beats, _ := heartbeats(t, rounds)
	if want := d / 256; len(beats) != want {
		t.Errorf("default interval: %d beats over %d dispatches, want %d", len(beats), d, want)
	}
}
