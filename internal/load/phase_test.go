package load

import (
	"strings"
	"testing"
)

// The full four-server experiment at the default sizes, gated exactly as CI
// runs it: one switch per shifted run, byte-identical decisions across the
// seeded pair, a silent unshifted control, and a steady state that beats the
// no-adapt control by the margin.
func TestPhaseExperimentGates(t *testing.T) {
	if testing.Short() {
		t.Skip("phase experiment boots four servers")
	}
	rep, err := RunPhase(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(); err != nil {
		t.Fatal(err)
	}
	// The decision stream is the experiment's receipt — it must name a real
	// switch, not merely be equal-and-empty across the seeded pair.
	if !strings.Contains(rep.Adaptive.Decisions, `"Outcome":"switched"`) {
		t.Fatalf("adaptive decisions carry no switch:\n%s", rep.Adaptive.Decisions)
	}
	if rep.Unshifted.Decisions != "" {
		t.Fatalf("unshifted control journaled decisions:\n%s", rep.Unshifted.Decisions)
	}
}

// Gate failures must name the failing run, so a red CI log reads without
// re-running locally.
func TestPhaseGateNamesFailures(t *testing.T) {
	rep := &PhaseReport{GainFrac: 0.05}
	rep.Adaptive = PhaseRun{Label: "adaptive", Triggers: 1, Switches: 1, Mapping: "all", SteadyMakespan: 100}
	rep.Repeat = rep.Adaptive
	rep.Repeat.Label = "repeat"
	rep.Control = PhaseRun{Label: "control", SteadyMakespan: 200}
	rep.Unshifted = PhaseRun{Label: "unshifted"}
	if err := rep.Gate(); err != nil {
		t.Fatalf("healthy report flunked: %v", err)
	}

	bad := *rep
	bad.Unshifted.Triggers = 2
	bad.Repeat.Decisions = "x"
	bad.Adaptive.SteadyMakespan = 199
	bad.Control.MetricsCheck = "counter drift"
	err := bad.Gate()
	if err == nil {
		t.Fatal("broken report passed the gate")
	}
	for _, want := range []string{
		"unshifted control triggered 2",
		"decision journals differ",
		"does not beat the no-adapt control",
		"control: metrics reconciliation",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error misses %q:\n%v", want, err)
		}
	}
}
