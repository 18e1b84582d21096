package machine_test

import (
	"context"
	"testing"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/golden"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
)

// TestExpectingTraceAllocationsDoNotGrowWithEvents: a traced run whose log
// expects its own replayed timeline, as the search's anchor run does, stores
// no event. GS ctr on four processes makes 1,768 events at N=16 and 4,360 at
// N=24, and the run itself allocates a few times more at N=24 (its inputs,
// its message arena); what tracing adds to it must be the same at both sizes,
// and at most the log, Begin's two per-process slices and the two slices of
// the Stats that VerifyTrace reconciles against.
func TestExpectingTraceAllocationsDoNotGrowWithEvents(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const procs, pin = 4, 5
	overhead := func(n int64) float64 {
		progs, err := bench.CompileGS(bench.CompileTime, procs, n, 8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig(procs)
		pf, err := autotune.BuildProfile(progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := analysis.ReplayDump(pf.Acts, analysis.CostsOf(cfg))
		if err != nil {
			t.Fatal(err)
		}
		img, err := exec.LowerAll(progs, procs)
		if err != nil {
			t.Fatal(err)
		}
		ins := map[string]*istruct.Matrix{"Old": bench.Input(n)}
		run := func(tr *trace.Log) {
			cfg.Tracer = tr
			if _, err := img.Run(context.Background(), cfg, ins); err != nil {
				t.Fatal(err)
			}
		}
		var tr *trace.Log
		expecting := testing.AllocsPerRun(5, func() {
			tr = trace.New()
			tr.Expect(replayed.Events)
			run(tr)
		})
		for p := range procs {
			if got, want := len(tr.Events(p)), len(replayed.Events[p]); got != want {
				t.Fatalf("N=%d: process %d agreed on %d of its %d replayed events", n, p, got, want)
			}
		}
		untraced := testing.AllocsPerRun(5, func() { run(nil) })
		t.Logf("N=%d: %.0f allocations expecting %d events, %.0f untraced", n, expecting, tr.Len(), untraced)
		return expecting - untraced
	}
	small, large := overhead(16), overhead(24)
	if small != large {
		t.Errorf("expecting its replay costs a run %.0f allocations at N=16 and %.0f at N=24", small, large)
	}
	if large > pin {
		t.Errorf("expecting its replay costs a run %.0f allocations, pinned at %d", large, pin)
	}
}
