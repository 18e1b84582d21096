package autotune

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/faults"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
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

// The seeded Gauss-Seidel search at S ∈ {4, 32} gives byte-identical
// reports across runs, every measured candidate exactly reproducible by
// rerunning the machine, the winner's prediction equal to its measurement,
// and a winner at least as fast as the paper's hand-chosen cyclic-columns
// optimized III mapping.
//
// The reference is the mapping the program declares. Gauss-Seidel with its
// subscripts swapped declares cyclic_rows, so its reference is
// cyclic_rows(S)/opt3/blk8; the compiler is orientation-free on it, so its
// regret is the original's at the same S and N (the transposition relation).
func TestSearchGaussSeidel(t *testing.T) {
	regrets := map[string]uint64{}
	for _, tc := range []struct {
		name       string
		procs      int
		n          int64
		transposed bool
		hand       string // the declared mapping at opt3/blk8
		regretOf   string // the row whose regret this one's equals
	}{
		{"S4", 4, 16, false, "cyclic_cols(4)/opt3/blk8", ""},
		{"S32", 32, 24, false, "cyclic_cols(32)/opt3/blk8", ""},
		{"S4/transposed", 4, 16, true, "cyclic_rows(4)/opt3/blk8", "S4"},
	} {
		workload := func() *Workload {
			w := gsWorkload(tc.n)
			if tc.transposed {
				w.Source = strings.NewReplacer("cyclic_cols", "cyclic_rows", "[i, j]", "[j, i]", "[i - 1, j]", "[j, i - 1]",
					"[i, j - 1]", "[j - 1, i]", "[i + 1, j]", "[j, i + 1]", "[i, j + 1]", "[j + 1, i]").Replace(w.Source)
			}
			return w
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig(tc.procs)
			rep, err := Search(workload(), cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			regrets[tc.name] = rep.Regret
			if want, ok := regrets[tc.regretOf]; tc.regretOf != "" && (!ok || rep.Regret != want) {
				t.Errorf("regret %d, want %s's %d", rep.Regret, tc.regretOf, want)
			}

			// Determinism: a fresh search emits identical bytes in every form.
			rep2, err := Search(workload(), cfg, Options{})
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
			w, c := workload(), winner.Candidate
			b, err := w.build(&c.Mapping, c.Mode, c.Blk, cfg.Procs)
			if err != nil {
				t.Fatal(err)
			}
			ins, err := exec.PatternInputs(b.info, w.Entry)
			if err != nil {
				t.Fatal(err)
			}
			_, d, err := measure(context.Background(), w, c, b, ins, cfg, trace.New())
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

			// The reference is the mapping the program declares, the paper's
			// hand choice, at opt3/blk8, and it measures exactly what the
			// benchmark harness measures for optimized III.
			if rep.Hand != tc.hand {
				t.Fatalf("reference candidate %s, want %s", rep.Hand, tc.hand)
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
				m, err := Measure(workload(), res.Candidate, cfg)
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
	chaotic := machine.DefaultConfig(4)
	chaotic.Faults = faults.Chaos(1, 0.1)
	if _, err := Search(w, chaotic, Options{}); err == nil {
		t.Error("search accepted a fault schedule")
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

// A search of a dist declaration no array is mapped by has nothing to vary
// and no declared mapping to quote regret against: it fails up front.
func TestSearchNeedsAMappedDist(t *testing.T) {
	w := gsWorkload(8)
	w.Source, w.Dist = "dist Unused = block_cols(NPROCS);\n"+w.Source, "Unused"
	_, err := Search(w, machine.DefaultConfig(4), Options{})
	if err == nil || !strings.Contains(err.Error(), "maps nothing by dist Unused") {
		t.Fatalf("search of an unused dist: error %v, want one naming it", err)
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

// Measure compiles and runs one candidate on the simulated machine, validates
// its result against the sequential reference, and reports the measurement.
// It is deterministic: rerunning the same candidate reproduces the makespan
// exactly, which the search (and its tests) rely on.
func Measure(w *Workload, c Candidate, cfg machine.Config) (Measurement, error) {
	b, err := w.build(&c.Mapping, c.Mode, c.Blk, cfg.Procs)
	if err != nil {
		return Measurement{}, err
	}
	ins, err := exec.PatternInputs(b.info, w.Entry)
	if err != nil {
		return Measurement{}, err
	}
	m, _, err := measure(context.Background(), w, c, b, ins, cfg, nil)
	return m, err
}
