package faults

import (
	"math"
	"testing"
)

// TestFaultsAttemptPure: the whole point of the package — a decision depends
// only on the schedule and the coordinates, never on call order.
func TestFaultsAttemptPure(t *testing.T) {
	s := Chaos(42, 0.3)
	first := s.Attempt(2, 5, 17, 3)
	s.Attempt(5, 2, 17, 3) // interleave other decisions
	s.Attempt(2, 5, 18, 1)
	if again := s.Attempt(2, 5, 17, 3); again != first {
		t.Errorf("same coordinates, different outcome: %+v vs %+v", first, again)
	}
	other := Chaos(43, 0.3).Attempt(2, 5, 17, 3)
	same := Chaos(42, 0.3).Attempt(2, 5, 17, 3)
	if same != first {
		t.Errorf("same seed, different outcome: %+v vs %+v", first, same)
	}
	_ = other // a different seed may legally coincide on one decision
}

// TestFaultsDropRate: the hashed variates are roughly uniform — a 30% drop
// probability drops about 30% of attempts.
func TestFaultsDropRate(t *testing.T) {
	s := &Schedule{Seed: 7, Drop: 0.3}
	drops := 0
	const n = 20000
	for seq := uint64(0); seq < n; seq++ {
		if s.Attempt(0, 1, seq, 1).Drop {
			drops++
		}
	}
	if got := float64(drops) / n; math.Abs(got-0.3) > 0.02 {
		t.Errorf("empirical drop rate %.3f, want 0.30 ± 0.02", got)
	}
}

// TestFaultsJitterBounds: jitter is in [1, MaxJitter] when applied, 0 when
// Delay is off.
func TestFaultsJitterBounds(t *testing.T) {
	s := &Schedule{Seed: 3, Delay: 1, MaxJitter: 50}
	for seq := uint64(0); seq < 1000; seq++ {
		j := s.Attempt(0, 1, seq, 1).Jitter
		if j < 1 || j > 50 {
			t.Fatalf("jitter %d outside [1, 50]", j)
		}
	}
	none := &Schedule{Seed: 3, MaxJitter: 50}
	if j := none.Attempt(0, 1, 0, 1).Jitter; j != 0 {
		t.Errorf("jitter %d with Delay 0, want 0", j)
	}
}

// TestFaultsDefaults: zero values mean no faults, and Retry gives the
// documented timeout and attempt cap.
func TestFaultsDefaults(t *testing.T) {
	var s Schedule
	for seq := uint64(0); seq < 100; seq++ {
		if o := s.Attempt(0, 1, seq, 1); o != (Outcome{}) {
			t.Fatalf("zero schedule injected a fault: %+v", o)
		}
	}
	if rto, max := Retry(50); rto != 216 || max != 16 {
		t.Errorf("Retry(50) = (%d, %d), want (216, 16)", rto, max)
	}
}
