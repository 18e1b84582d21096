package autotune

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
)

func gsWorkload(n int64) *Workload {
	return &Workload{
		Name:    "gauss-seidel",
		Source:  bench.GSSource,
		Entry:   "gs_iteration",
		Dist:    "Column",
		Defines: map[string]int64{"N": n},
	}
}

// The walker must reproduce the machine cycle for cycle on every
// code-generation variant before the search may trust it anywhere.
func TestProfilePredictsEveryVariant(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	for _, spec := range bench.Variants() {
		if spec.Handwritten {
			continue
		}
		progs, err := bench.CompileGS(spec.Variant, 4, 16, 4)
		if err != nil {
			t.Fatalf("%s: compile: %v", spec.Name, err)
		}
		pf, err := BuildProfile(progs, cfg)
		if err != nil {
			t.Fatalf("%s: walk: %v", spec.Name, err)
		}
		pred, err := pf.Predict(cfg)
		if err != nil {
			t.Fatalf("%s: replay: %v", spec.Name, err)
		}
		pt, err := bench.RunGSWith(cfg, spec.Variant, 16, 4)
		if err != nil {
			t.Fatalf("%s: run: %v", spec.Name, err)
		}
		if pred != uint64(pt.Makespan) {
			t.Errorf("%s: predicted %d, machine measured %d", spec.Name, pred, pt.Makespan)
		}
		if pf.Messages != pt.Messages || pf.Values != pt.Values {
			t.Errorf("%s: modeled %d messages/%d values, machine %d/%d",
				spec.Name, pf.Messages, pf.Values, pt.Messages, pt.Values)
		}
	}
}

// The ISSUE's acceptance criteria for the seeded Gauss-Seidel search at
// S ∈ {4, 32}: byte-identical reports across runs, every measured candidate
// exactly reproducible by rerunning the machine, the winner's prediction
// equal to its measurement, and a winner at least as fast as the paper's
// hand-chosen cyclic-columns optimized III mapping.
func TestSearchGaussSeidel(t *testing.T) {
	for _, tc := range []struct {
		procs int
		n     int64
	}{{4, 16}, {32, 24}} {
		t.Run(fmt.Sprintf("S%d", tc.procs), func(t *testing.T) {
			cfg := machine.DefaultConfig(tc.procs)
			rep, err := Search(gsWorkload(tc.n), cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Determinism: a fresh search emits identical bytes in every form.
			rep2, err := Search(gsWorkload(tc.n), cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Format() != rep2.Format() {
				t.Error("text reports differ between identical searches")
			}
			var j1, j2 bytes.Buffer
			if err := rep.WriteJSON(&j1); err != nil {
				t.Fatal(err)
			}
			if err := rep2.WriteJSON(&j2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Error("JSON reports differ between identical searches")
			}

			var winner, hand *Result
			for i := range rep.Results {
				switch rep.Results[i].Candidate.Key() {
				case rep.Winner:
					winner = &rep.Results[i]
				case rep.Hand:
					hand = &rep.Results[i]
				}
			}
			if winner == nil || hand == nil {
				t.Fatalf("winner %q or reference %q missing from the results", rep.Winner, rep.Hand)
			}

			// The winner's what-if prediction must equal its measurement.
			if winner.Status != StatusMeasured || winner.Unmodeled {
				t.Fatalf("winner %s was not a modeled measurement: %+v", rep.Winner, winner)
			}
			if winner.Predicted != winner.Measured {
				t.Errorf("winner predicted %d != measured %d", winner.Predicted, winner.Measured)
			}

			// The winner's attribution, which the search replays, is what a
			// direct traced run of the winner attributes.
			w, c := gsWorkload(tc.n), winner.Candidate
			b, err := w.build(&c.Mapping, c.Mode, c.Blk, cfg.Procs)
			if err != nil {
				t.Fatal(err)
			}
			ins, err := exec.PatternInputs(b.info, w.Entry)
			if err != nil {
				t.Fatal(err)
			}
			_, d, err := measure(context.Background(), w, c, b, ins, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := d.CriticalPath()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attr != cp.Attr {
				t.Errorf("winner attribution %+v, a direct traced run of %s gives %+v", rep.Attr, c.Key(), cp.Attr)
			}

			// The reference is the paper's hand choice, and it measures exactly
			// what the benchmark harness measures for optimized III.
			if want := DefaultHand(tc.procs).Key(); rep.Hand != want {
				t.Fatalf("reference candidate %s, want %s", rep.Hand, want)
			}
			pt, err := bench.RunGSWith(cfg, bench.OptimizedIII, tc.n, 8)
			if err != nil {
				t.Fatal(err)
			}
			if hand.Measured != uint64(pt.Makespan) {
				t.Errorf("reference measured %d, benchmark harness measures %d", hand.Measured, pt.Makespan)
			}

			// The search never loses to the hand choice, and the regret is its
			// margin.
			if winner.Measured > hand.Measured {
				t.Errorf("winner %s (%d cycles) is slower than the hand choice %s (%d cycles)",
					rep.Winner, winner.Measured, rep.Hand, hand.Measured)
			}
			if rep.Regret != hand.Measured-winner.Measured {
				t.Errorf("regret %d, want %d", rep.Regret, hand.Measured-winner.Measured)
			}

			// Every reported measurement is reproduced exactly by rerunning
			// the machine at that configuration.
			for _, res := range rep.Results {
				if res.Status != StatusMeasured {
					continue
				}
				m, err := Measure(gsWorkload(tc.n), res.Candidate, cfg)
				if err != nil {
					t.Fatalf("rerun %s: %v", res.Candidate.Key(), err)
				}
				if m.Makespan != res.Measured {
					t.Errorf("rerun %s: %d cycles, report says %d", res.Candidate.Key(), m.Makespan, res.Measured)
				}
			}
		})
	}
}

// Retargeting covers every mapping family, and a retargeted program still
// computes the right answer (Measure validates against the sequential
// reference).
func TestRetargetEveryFamily(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	w := gsWorkload(8)
	for _, m := range []Mapping{
		{Kind: dist.KindCyclicCols, Span: 2},
		{Kind: dist.KindCyclicRows, Span: 4},
		{Kind: dist.KindBlockCols, Span: 4},
		{Kind: dist.KindBlockRows, Span: 3},
		{Kind: dist.KindBlock2D, PR: 2, PC: 2},
		{Kind: dist.KindReplicated},
		{Kind: dist.KindSingle},
	} {
		c := Candidate{Mapping: m, Mode: "ctr"}
		if _, err := Measure(w, c, cfg); err != nil {
			t.Errorf("%s: %v", c.Key(), err)
		}
	}
	prog, err := lang.Parse(bench.GSSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := Retarget(prog, "NoSuchDist", Mapping{Kind: dist.KindBlockCols, Span: 2}); err == nil {
		t.Error("retargeting an unknown dist succeeded")
	}
}

// Machine features outside the cost model are rejected up front rather than
// silently mispredicted.
func TestSearchRejectsUnmodeledMachines(t *testing.T) {
	w := gsWorkload(8)
	mux := machine.DefaultConfig(4)
	mux.Placement = []int{0, 0, 1, 1}
	if _, err := Search(w, mux, Options{}); err == nil {
		t.Error("search accepted a multiplexed placement")
	}
	capped := machine.DefaultConfig(4)
	capped.MailboxCap = 1
	if _, err := Search(w, capped, Options{}); err == nil {
		t.Error("search accepted bounded mailboxes")
	}
}

// Mapping validation: every owner a candidate mapping can produce must name
// a real processor, or the candidate must be rejected before Retarget —
// degenerate mappings used to crash the search mid-run deep inside dist.
func TestMappingValidate(t *testing.T) {
	for _, tc := range []struct {
		m  Mapping
		ok bool
	}{
		{Mapping{Kind: dist.KindCyclicCols, Span: 4}, true},
		{Mapping{Kind: dist.KindCyclicCols, Span: 1}, true},
		{Mapping{Kind: dist.KindCyclicCols, Span: 0}, false},
		{Mapping{Kind: dist.KindCyclicCols, Span: -2}, false},
		{Mapping{Kind: dist.KindBlockRows, Span: 8}, false}, // spans past the machine
		{Mapping{Kind: dist.KindBlock2D, PR: 2, PC: 2}, true},
		{Mapping{Kind: dist.KindBlock2D, PR: 0, PC: 2}, false},
		{Mapping{Kind: dist.KindBlock2D, PR: 4, PC: 2}, false}, // 8 > 4 processors
		{Mapping{Kind: dist.KindReplicated}, true},
		{Mapping{Kind: dist.KindSingle}, true},
		{Mapping{Kind: dist.Kind(99)}, false},
	} {
		err := tc.m.Validate(4)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.m, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want rejection", tc.m)
		}
	}
}

// A degenerate candidate handed straight to Measure (the pdmap/pdrun entry
// points route through the same compile) comes back as an error, not a panic.
func TestMeasureRejectsDegenerateMapping(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	w := gsWorkload(8)
	for _, m := range []Mapping{
		{Kind: dist.KindCyclicCols, Span: 8},
		{Kind: dist.KindBlock2D, PR: 4, PC: 2},
	} {
		_, err := Measure(w, Candidate{Mapping: m, Mode: "ctr"}, cfg)
		if err == nil {
			t.Errorf("%s: measuring a degenerate mapping succeeded", m)
		}
	}
}

// A search whose reference candidate is degenerate must skip it as
// infeasible and fail with a diagnosis, never crash.
func TestSearchSurvivesDegenerateHand(t *testing.T) {
	w := gsWorkload(8)
	cfg := machine.DefaultConfig(4)
	hand := Candidate{Mapping: Mapping{Kind: dist.KindCyclicCols, Span: 64}, Mode: "ctr"}
	_, err := Search(w, cfg, Options{Hand: &hand})
	if err == nil {
		t.Fatal("search with a degenerate reference succeeded")
	}
}
