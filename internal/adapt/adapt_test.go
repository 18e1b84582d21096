package adapt

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// testController builds a controller whose search is the given stub, with
// thresholds small enough for unit-length observation streams. After six
// observations of one shape, a new shape's share first reaches shiftAt on its
// fifth observation, and Dwell confirms the shift on its seventh.
func testController(t *testing.T, fn func(ctx context.Context, tr *trigger) (searchResult, error), restored []State, startSeq uint64, hooks Hooks) *Controller {
	t.Helper()
	cfg := Config{MinObs: 4, Dwell: 3, Cooldown: 16, MinGain: 0.05}
	c := New(cfg, restored, startSeq, hooks)
	c.searchFn = fn
	return c
}

func obs(scenario, shape string) Observation {
	return Observation{Scenario: scenario, Shape: shape, Makespan: 100,
		Spec: SearchSpec{Source: "x", Entry: "e", Dist: "d", Procs: 2, Mode: "ctr"}}
}

// feed pushes n observations of one shape.
func feed(c *Controller, scenario, shape string, n int) {
	for i := 0; i < n; i++ {
		c.Observe(obs(scenario, shape))
	}
}

// waitIdle blocks until every triggered search has settled — the same
// Busy-polling contract the phase harness uses against GET /adapt.
func waitIdle(t *testing.T, c *Controller) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Snapshot().Busy {
		if time.Now().After(deadline) {
			t.Fatal("controller never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// A sustained shift triggers exactly one search — the dwell filters
// transients, the cooldown absorbs the aftermath — and a winning candidate
// switches the preference.
func TestShiftTriggersOnceAndSwitches(t *testing.T) {
	var mu sync.Mutex
	var decisions []Decision
	searches := 0
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		searches++
		return searchResult{Winner: "all", WinnerMakespan: 50, IncumbentMakespan: 100,
			MeasuredGain: 0.5, PredictedGain: 0.5, Enumerated: 7, Candidates: 7, Replayed: 3}, nil
	}, nil, 0, Hooks{Persist: func(d Decision) { mu.Lock(); decisions = append(decisions, d); mu.Unlock() }})

	feed(c, "s1", "N=16", 6) // anchor: tunedFor = N=16
	feed(c, "s1", "N=24", 30)
	waitIdle(t, c)
	c.Close()

	if searches != 1 {
		t.Fatalf("%d searches ran, want exactly 1 (dwell+cooldown hysteresis)", searches)
	}
	st := c.Stats()
	if st.Triggers != 1 || st.Switched != 1 || st.Held+st.Failed+st.Panicked+st.Canceled != 0 {
		t.Errorf("stats = %+v, want one trigger, one switch", st)
	}
	if got := c.Preferred("s1"); got != "all" {
		t.Errorf("Preferred = %q, want the stub winner", got)
	}
	if len(decisions) != 1 {
		t.Fatalf("%d decisions journaled, want 1", len(decisions))
	}
	d := decisions[0]
	if d.Seq != 1 || d.Scenario != "s1" || d.Shape != "N=24" || d.Outcome != "switched" ||
		d.Mapping != "all" || d.Incumbent != "" || d.Cause != "shift" {
		t.Errorf("decision = %+v", d)
	}
	if d.MeasuredGain != 0.5 || d.IncumbentMakespan != 100 || d.WinnerMakespan != 50 {
		t.Errorf("decision gains = %+v", d)
	}
}

// Steady traffic in the first-observed shape never triggers: the anchor pins
// tunedFor to what the scenario started with.
func TestUnshiftedTrafficNeverTriggers(t *testing.T) {
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		t.Error("search ran on unshifted traffic")
		return searchResult{}, nil
	}, nil, 0, Hooks{})
	feed(c, "s1", "N=16", 200)
	c.Close()
	if st := c.Stats(); st.Triggers != 0 || st.Observations != 200 {
		t.Errorf("stats = %+v, want 200 observations and no triggers", st)
	}
}

// A transient burst shorter than the dwell resets and never triggers.
func TestDwellFiltersTransients(t *testing.T) {
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		t.Error("search ran on a transient")
		return searchResult{}, nil
	}, nil, 0, Hooks{})
	feed(c, "s1", "N=16", 6)
	for i := 0; i < 10; i++ {
		feed(c, "s1", "N=24", 5) // dominant for <Dwell observations...
		feed(c, "s1", "N=16", 6) // ...then the old shape recovers
	}
	c.Close()
	if st := c.Stats(); st.Triggers != 0 {
		t.Errorf("transient bursts triggered %d searches", st.Triggers)
	}
}

// A search below the gain threshold holds the incumbent — and moves the
// tuning anchor, so the same shift cannot re-trigger and flap.
func TestHeldBelowGainMovesAnchor(t *testing.T) {
	searches := 0
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		searches++
		return searchResult{Winner: "all", WinnerMakespan: 99, IncumbentMakespan: 100, MeasuredGain: 0.01}, nil
	}, nil, 0, Hooks{})
	feed(c, "s1", "N=16", 6)
	feed(c, "s1", "N=24", 120) // far beyond one cooldown window
	waitIdle(t, c)
	c.Close()
	if searches != 1 {
		t.Fatalf("%d searches, want 1 — a held decision must not flap", searches)
	}
	if got := c.Preferred("s1"); got != "" {
		t.Errorf("Preferred = %q after held decision, want declared", got)
	}
	if st := c.Stats(); st.Held != 1 || st.Switched != 0 {
		t.Errorf("stats = %+v, want one held", st)
	}
}

// The decision sequence is a pure function of the observation sequence: two
// controllers fed the same stream journal byte-identical decisions.
func TestDecisionsAreDeterministic(t *testing.T) {
	run := func() []byte {
		var buf []byte
		c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
			return searchResult{Winner: "all", WinnerMakespan: 40, IncumbentMakespan: 100,
				MeasuredGain: 0.6, PredictedGain: 1.0 / 3.0, Enumerated: 5, Candidates: 5, Replayed: 2}, nil
		}, nil, 0, Hooks{Persist: func(d Decision) {
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, b...)
			buf = append(buf, '\n')
		}})
		feed(c, "s1", "N=16", 5)
		feed(c, "s1", "N=24", 40)
		feed(c, "s2", "N=8", 5)
		feed(c, "s2", "N=12", 40)
		waitIdle(t, c)
		c.Close()
		return buf
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("decision journals differ:\n%s\nvs\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no decisions journaled")
	}
}

// A panicking search is isolated: the decision records the panic, the
// incumbent survives, and the controller keeps serving. A panic leaves the
// tuning anchor where it was, so the shift, still dominant, triggers again
// once the cooldown has passed and Dwell more observations confirm it.
func TestSearchPanicIsolated(t *testing.T) {
	var decisions []Decision
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		panic("modeled candidate exploded")
	}, nil, 0, Hooks{Persist: func(d Decision) { decisions = append(decisions, d) }})
	feed(c, "s1", "N=16", 6)
	feed(c, "s1", "N=24", 7) // the seventh triggers
	waitIdle(t, c)
	feed(c, "s1", "N=24", 16+2) // the cooldown, then one short of Dwell
	if st := c.Stats(); st.Triggers != 1 || st.Panicked != 1 {
		t.Fatalf("stats = %+v, want one panicked search before the re-trigger", st)
	}
	feed(c, "s1", "N=24", 1)
	waitIdle(t, c)
	c.Close()
	if st := c.Stats(); st.Triggers != 2 || st.Panicked != 2 || st.Switched != 0 {
		t.Errorf("stats = %+v, want two panicked searches", st)
	}
	if got := c.Preferred("s1"); got != "" {
		t.Errorf("Preferred = %q after panic, want incumbent kept", got)
	}
	if len(decisions) != 2 || decisions[0].Outcome != "panicked" || decisions[1].Outcome != "panicked" ||
		decisions[0].Obs != 13 || decisions[1].Obs != 32 {
		t.Fatalf("decisions = %+v, want panicked at observations 13 and 32", decisions)
	}
}

// Close cancels an in-flight search; the queued decision settles as
// canceled, Observe becomes a no-op, and nothing deadlocks.
func TestCloseCancelsInFlightSearch(t *testing.T) {
	started := make(chan struct{})
	var decisions []Decision
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		close(started)
		<-ctx.Done()
		return searchResult{}, ctx.Err()
	}, nil, 0, Hooks{Persist: func(d Decision) { decisions = append(decisions, d) }})
	feed(c, "s1", "N=16", 6)
	feed(c, "s1", "N=24", 30)
	<-started
	c.Close()
	if len(decisions) != 1 || decisions[0].Outcome != "canceled" {
		t.Fatalf("decisions = %+v, want one canceled", decisions)
	}
	if st := c.Stats(); st.Canceled != 1 {
		t.Errorf("stats = %+v, want one canceled", st)
	}
	c.Observe(obs("s1", "N=24")) // must be a silent no-op
	if c.Stats().Observations != 36 {
		t.Error("Observe advanced counters after Close")
	}
}

// A controller restored from journaled state resumes its preference and
// decision numbering, and does not re-trigger for the shape it is tuned for.
func TestRestoreResumesPreference(t *testing.T) {
	var decisions []Decision
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		if tr.incumbent != "cyclic_cols(2)" {
			t.Errorf("search incumbent = %q, want the restored preference", tr.incumbent)
		}
		return searchResult{Winner: "all", WinnerMakespan: 10, IncumbentMakespan: 100, MeasuredGain: 0.9}, nil
	}, []State{{Scenario: "s1", Preferred: "cyclic_cols(2)", TunedFor: "N=24", Decisions: 3}}, 7,
		Hooks{Persist: func(d Decision) { decisions = append(decisions, d) }})

	if got := c.Preferred("s1"); got != "cyclic_cols(2)" {
		t.Fatalf("restored Preferred = %q", got)
	}
	feed(c, "s1", "N=24", 50) // the tuned-for shape: no trigger
	if st := c.Stats(); st.Triggers != 0 {
		t.Fatalf("restored controller re-triggered for its tuned shape")
	}
	feed(c, "s1", "N=32", 30) // a new shift searches against the restored incumbent
	waitIdle(t, c)
	c.Close()
	if len(decisions) != 1 {
		t.Fatalf("decisions = %+v, want 1", decisions)
	}
	if d := decisions[0]; d.Seq != 8 || d.Incumbent != "cyclic_cols(2)" || d.Outcome != "switched" {
		t.Errorf("decision = %+v, want seq 8 against the restored incumbent", d)
	}
	snap := c.Snapshot()
	if len(snap.Scenarios) != 1 || snap.Scenarios[0].Decisions != 4 {
		t.Errorf("snapshot = %+v, want 4 cumulative decisions", snap.Scenarios)
	}
}

// Decisions across scenarios settle in trigger order with monotonic
// sequence numbers, and Snapshot reflects the final state.
func TestMultiScenarioSequencing(t *testing.T) {
	var decisions []Decision
	c := testController(t, func(ctx context.Context, tr *trigger) (searchResult, error) {
		return searchResult{Winner: fmt.Sprintf("win-%s", tr.scenario), WinnerMakespan: 10,
			IncumbentMakespan: 100, MeasuredGain: 0.9}, nil
	}, nil, 0, Hooks{Persist: func(d Decision) { decisions = append(decisions, d) }})
	for i := 0; i < 6; i++ {
		c.Observe(obs("a", "x"))
		c.Observe(obs("b", "x"))
	}
	for i := 0; i < 30; i++ {
		c.Observe(obs("a", "y"))
		c.Observe(obs("b", "y"))
	}
	waitIdle(t, c)
	c.Close()
	if len(decisions) != 2 {
		t.Fatalf("%d decisions, want one per scenario", len(decisions))
	}
	var seqs []uint64
	for _, d := range decisions {
		seqs = append(seqs, d.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2}) {
		t.Errorf("decision seqs = %v, want [1 2]", seqs)
	}
	if c.Preferred("a") != "win-a" || c.Preferred("b") != "win-b" {
		t.Errorf("preferences = %q/%q", c.Preferred("a"), c.Preferred("b"))
	}
}
