package load

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"procdecomp/internal/adapt"
	"procdecomp/internal/serve"
)

// The phase-shift harness is the adaptation loop's end-to-end proof under
// real HTTP traffic: a workload that runs one problem size for a phase and
// then shifts to another, driven at concurrency 1 so the observation
// sequence — and therefore every controller decision — is deterministic.
// Four in-process servers tell the whole story:
//
//   - adaptive + shifted, twice with the same seed: the controller must
//     trigger exactly one re-decomposition, switch to a measurably better
//     mapping, and journal byte-identical decisions across the two runs;
//   - no-adapt + shifted: the control whose steady-state makespan the
//     adaptive run must beat by the configured margin;
//   - adaptive + unshifted: the null control — steady traffic must never
//     trigger.

// The experiment's fixed shape: Gauss-Seidel at phaseProcs, problem size
// phaseBaseN in phase one and phaseShiftN in phase two, phaseOps requests a
// phase (enough for the EWMA profile to cross the shift threshold and dwell
// out), then phaseSteadyOps measured requests once the controller settles.
// The adaptive run's steady state must beat the no-adapt control by
// phaseGainFrac: adaptive <= (1-phaseGainFrac)*control.
const (
	phaseOps       = 30
	phaseSteadyOps = 8
	phaseProcs     = 4
	phaseBaseN     = 16
	phaseShiftN    = 24
	phaseGainFrac  = 0.05
)

// phaseAdaptConfig is the controller tuning every adaptive run uses: the
// profile needs ten observations and six dwells to trigger, and the long
// cooldown bounds each run to at most one switch per phase.
func phaseAdaptConfig(enabled bool) adapt.Config {
	return adapt.Config{
		Enabled: enabled, MinObs: 10, Dwell: 6,
		Cooldown: 1000, MinGain: 0.02, SearchKeep: 8,
	}
}

// PhaseRun is one server's side of the experiment.
type PhaseRun struct {
	Label    string
	Requests int
	// Controller outcome after drain.
	Triggers int64
	Switches int64
	// Mapping is the X-Adapt-Mapping of the last steady-state response
	// ("" = the program as declared).
	Mapping string
	// SteadyMakespan is the last steady-state response's simulated makespan.
	SteadyMakespan uint64
	// Decisions is the raw NDJSON of GET /adapt/journal after drain — the
	// byte stream the determinism gate compares across seeded runs.
	Decisions string `json:",omitempty"`
	// AdaptCounters are the pdserve_adapt_* samples scraped after drain.
	AdaptCounters map[string]float64 `json:",omitempty"`
	// MetricsCheck is the post-drain reconciliation outcome ("" = held).
	MetricsCheck string `json:",omitempty"`
}

// PhaseReport is the whole experiment.
type PhaseReport struct {
	Seed     uint64
	Procs    int
	BaseN    int64
	ShiftN   int64
	GainFrac float64

	Adaptive  PhaseRun // adapt on, workload shifts
	Repeat    PhaseRun // same seed again: must reproduce Adaptive's bytes
	Control   PhaseRun // adapt off, workload shifts
	Unshifted PhaseRun // adapt on, workload never shifts
}

// RunPhase executes the four-server experiment and returns the report. The
// seed feeds the servers' deterministic jitter (0 means 1); the request
// schedule itself is fixed (concurrency 1, fixed op counts).
func RunPhase(seed uint64) (*PhaseReport, error) {
	if seed == 0 {
		seed = 1
	}
	rep := &PhaseReport{Seed: seed, Procs: phaseProcs,
		BaseN: phaseBaseN, ShiftN: phaseShiftN, GainFrac: phaseGainFrac}
	var err error
	if rep.Adaptive, err = phaseRun("adaptive", seed, true, true); err != nil {
		return nil, err
	}
	if rep.Repeat, err = phaseRun("repeat", seed, true, true); err != nil {
		return nil, err
	}
	if rep.Control, err = phaseRun("control", seed, false, true); err != nil {
		return nil, err
	}
	if rep.Unshifted, err = phaseRun("unshifted", seed, true, false); err != nil {
		return nil, err
	}
	return rep, nil
}

// phaseRun drives one server through the phase schedule at concurrency 1.
func phaseRun(label string, seed uint64, adaptOn, shifted bool) (PhaseRun, error) {
	run := PhaseRun{Label: label}
	t, err := Boot(serve.Config{
		Workers: 1, QueueDepth: 16, AdmitSeed: seed,
		Adapt: phaseAdaptConfig(adaptOn),
	}, 1)
	if err != nil {
		return run, err
	}
	defer t.Drain() // for the error returns; a second Drain is a no-op

	post := func(n int64) (string, uint64, error) {
		resp, payload, err := slurp(t.Post(context.Background(), "/run", "", "", serve.Request{
			GS: true, Procs: phaseProcs, Mode: "ctr", Defines: map[string]int64{"N": n}}))
		if err != nil {
			return "", 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return "", 0, fmt.Errorf("load: phase %s: /run N=%d: status %d: %.200s", label, n, resp.StatusCode, payload)
		}
		var rr serve.RunResponse
		if err := json.Unmarshal(payload, &rr); err != nil {
			return "", 0, err
		}
		run.Requests++
		return resp.Header.Get("X-Adapt-Mapping"), rr.Makespan, nil
	}

	// Phase one: phaseBaseN traffic. Phase two (shifted runs): phaseShiftN
	// traffic.
	for i := 0; i < phaseOps; i++ {
		if _, _, err := post(phaseBaseN); err != nil {
			return run, err
		}
	}
	steadyN := int64(phaseBaseN)
	if shifted {
		steadyN = phaseShiftN
		for i := 0; i < phaseOps; i++ {
			if _, _, err := post(phaseShiftN); err != nil {
				return run, err
			}
		}
	}
	// Let any in-flight or queued search settle before measuring steady
	// state, so the steady requests run under the post-decision preference.
	if adaptOn {
		if err := awaitAdaptIdle(t); err != nil {
			return run, err
		}
	}
	for i := 0; i < phaseSteadyOps; i++ {
		mapping, makespan, err := post(steadyN)
		if err != nil {
			return run, err
		}
		run.Mapping, run.SteadyMakespan = mapping, makespan
	}

	// Drain, then keep the settled ledgers: the decision journal bytes, the
	// post-drain scrape's verdict, and the controller's counters.
	d, err := t.Drain()
	if err != nil {
		return run, err
	}
	run.Decisions, run.MetricsCheck = d.Decisions, d.Check
	run.AdaptCounters = map[string]float64{}
	for k, v := range d.Metrics {
		if strings.HasPrefix(k, "pdserve_adapt_") {
			run.AdaptCounters[k] = v
		}
	}
	run.Triggers, run.Switches = d.Stats.Adapt.Triggers, d.Stats.Adapt.Switched
	return run, nil
}

// awaitAdaptIdle polls GET /adapt until no search is queued or running.
func awaitAdaptIdle(t *Target) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		_, body, err := slurp(t.Get(ctx, "/adapt"))
		if err != nil {
			return fmt.Errorf("load: adaptation never settled: %w", err)
		}
		var ar serve.AdaptResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			return err
		}
		if !ar.Status.Busy {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("load: adaptation never settled: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Gate returns an error when any phase-shift promise fails: the shifted
// adaptive runs must trigger and switch exactly once and reproduce each
// other byte-for-byte, the unshifted run must never trigger, the adaptive
// steady state must beat the no-adapt control by the margin, and every
// run's metrics must reconcile.
func (r *PhaseReport) Gate() error {
	var problems []string
	for _, run := range []*PhaseRun{&r.Adaptive, &r.Repeat} {
		if run.Triggers != 1 || run.Switches != 1 {
			problems = append(problems, fmt.Sprintf(
				"%s: %d triggers, %d switches, want exactly 1 of each", run.Label, run.Triggers, run.Switches))
		}
		if run.Mapping == "" {
			problems = append(problems, run.Label+": steady state runs with no adaptive mapping")
		}
	}
	if r.Adaptive.Decisions != r.Repeat.Decisions {
		problems = append(problems, "decision journals differ between equal seeded runs")
	}
	if bad := CompareCounters(r.Adaptive.AdaptCounters, r.Repeat.AdaptCounters, nil); len(bad) > 0 {
		problems = append(problems, fmt.Sprintf("adapt counters differ between equal seeded runs: %v", bad))
	}
	if r.Unshifted.Triggers != 0 {
		problems = append(problems, fmt.Sprintf("unshifted control triggered %d searches", r.Unshifted.Triggers))
	}
	if r.Control.SteadyMakespan == 0 || r.Adaptive.SteadyMakespan == 0 {
		problems = append(problems, "a steady-state makespan is missing")
	} else if limit := float64(r.Control.SteadyMakespan) * (1 - r.GainFrac); float64(r.Adaptive.SteadyMakespan) > limit {
		problems = append(problems, fmt.Sprintf(
			"adaptive steady makespan %d does not beat the no-adapt control %d by %.0f%%",
			r.Adaptive.SteadyMakespan, r.Control.SteadyMakespan, r.GainFrac*100))
	}
	for _, run := range []*PhaseRun{&r.Adaptive, &r.Repeat, &r.Control, &r.Unshifted} {
		if run.MetricsCheck != "" {
			problems = append(problems, run.Label+": metrics reconciliation: "+run.MetricsCheck)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("load: phase gate failed: %s", strings.Join(problems, "; "))
	}
	return nil
}
