package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/exec"
	"procdecomp/internal/gen"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

// The abstract run and the real run are one stepper over two domains, and
// the replay is the machine's clock recurrence, so the walked profile's
// replayed timeline must be the traced run's, span for span, on every
// process — not only the makespan, where errors off the critical path (or
// compensating ones on it) would hide. Equal events cover each process's
// compute cycles, its send/recv sequence (endpoint, tag, value count and
// message number), and every wait. For every compiled variant, the
// reversed-loop program and generated programs (gen.Program's, entry step,
// on the pattern inputs) under every mode, × S∈{1,4,8}.
func TestWalkMatchesRunPerProcess(t *testing.T) {
	const n, blk = 16, 4
	type point struct {
		progs []*spmd.Program
		ins   map[string]*istruct.Matrix
	}
	rng := rand.New(rand.NewSource(45))
	var generated []string
	for range 6 {
		src, _ := gen.Program(rng)
		generated = append(generated, src)
	}
	for _, procs := range []int{1, 4, 8} {
		compiled := map[string]point{}
		gsIn := map[string]*istruct.Matrix{"Old": Input(n)}
		for _, spec := range Variants() {
			if spec.Handwritten {
				continue
			}
			progs, err := CompileGS(spec.Variant, procs, n, blk)
			if err != nil {
				t.Fatalf("%s S=%d: %v", spec.Name, procs, err)
			}
			compiled[spec.Name] = point{progs, gsIn}
		}
		info, err := checkGS(GSReversedSource, procs, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range xform.StandardModes() {
			progs, err := xform.Compile(info, "gs_iteration", mode, blk)
			if err != nil {
				t.Fatalf("reversed %s S=%d: %v", mode, procs, err)
			}
			compiled["reversed/"+mode] = point{progs, gsIn}
		}
		for seed, src := range generated {
			prog, err := lang.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			info, errs := sem.Check(prog, sem.Config{Procs: int64(procs)})
			if len(errs) > 0 {
				t.Fatalf("gen/%d S=%d: %v", seed, procs, errs[0])
			}
			ins, err := exec.PatternInputs(info, "step")
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range xform.StandardModes() {
				progs, err := xform.Compile(info, "step", mode, blk)
				if err != nil {
					t.Fatalf("gen/%d %s S=%d: %v", seed, mode, procs, err)
				}
				compiled[fmt.Sprintf("gen/%d/%s", seed, mode)] = point{progs, ins}
			}
		}
		for name, pt := range compiled {
			t.Run(fmt.Sprintf("%s/S=%d", name, procs), func(t *testing.T) {
				cfg := machine.DefaultConfig(procs)
				pf, err := autotune.BuildProfile(pt.progs, cfg)
				if err != nil {
					t.Fatalf("walk: %v", err)
				}
				replayed, err := analysis.ReplayDump(pf.Acts, analysis.CostsOf(cfg))
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				tr := trace.New()
				cfg.Tracer = tr
				if _, err := exec.RunSPMD(pt.progs, cfg, pt.ins); err != nil {
					t.Fatal(err)
				}
				traced := analysis.NewDump(cfg, tr)
				for p := range procs {
					// slices.Equal: a process with no events is nil in the
					// log and empty in the replay.
					if !slices.Equal(replayed.Events[p], traced.Events[p]) {
						t.Errorf("process %d: replayed %d events, traced %d; first difference at %d",
							p, len(replayed.Events[p]), len(traced.Events[p]), firstDiff(replayed.Events[p], traced.Events[p]))
					}
				}
			})
		}
	}
}

// firstDiff is the index of the first event at which a and b differ.
func firstDiff(a, b []trace.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
