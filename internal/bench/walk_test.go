package bench

import (
	"context"
	"errors"
	"fmt"
	"path"
	"slices"
	"testing"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/gen"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
)

// The abstract run and the real run are one stepper over two domains, and
// the replay is the machine's clock recurrence, so the walked profile's
// replayed timeline must be the traced run's, span for span, on every
// process — not only the makespan, where errors off the critical path (or
// compensating ones on it) would hide. Equal events cover each process's
// compute cycles, its send/recv sequence (endpoint, tag, value count and
// message number), and every wait. For every case of gen's corpus and the
// compiled Fig. 1 program and its reversed-loop variant at N=16, blk 4, S ∈
// {1, 4, 8}, at every pipeline point.
//
// Domain: the identity is the direct-mode machine's, so a multiplexed case is
// checked on its direct-mode machine, and it holds wherever the walk
// succeeds. A case that branches on an element value (gen.Case.StopsWalk)
// is outside it; its walks must stop, and no other case's may. Every point
// must have an image of its own on some corpus case.
func TestWalkMatchesRunPerProcess(t *testing.T) {
	corpus, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if modes := gen.Unexercised(corpus); len(modes) > 0 {
		t.Errorf("no corpus case has an image of its own at %v: only Gauss-Seidel checks those passes", modes)
	}
	var cases []*gen.Compiled
	for _, procs := range []int{1, 4, 8} {
		for _, c := range []gen.Case{{Src: GSSource}, {Name: "reversed", Src: GSReversedSource}} {
			c.Entry, c.Procs, c.Blk, c.Defines = "gs_iteration", procs, 4, map[string]int64{"N": 16}
			cc, err := gen.Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, cc)
		}
	}
	cases = append(slices.Clip(corpus), cases...)
	images, outside := 0, 0
	for _, c := range cases {
		for i, pt := range c.Points {
			t.Run(path.Join(c.Name, pt.Mode, fmt.Sprintf("S=%d", c.Procs)), func(t *testing.T) {
				if k := c.First[i]; k != i {
					t.Logf("the image of %s", gen.Label(c.Points[k]))
					return
				}
				images++
				cfg := machine.DefaultConfig(c.Procs)
				pf, err := autotune.BuildProfile(c.Stages[i].Progs, cfg)
				var um *autotune.ErrUnmodeled
				if c.StopsWalk && errors.As(err, &um) {
					outside++
					t.Logf("outside the domain: %v", err)
					return
				}
				if c.StopsWalk {
					t.Fatalf("branches on an element value, and the walk gave %v, not an unmodeled program", err)
				}
				if err != nil {
					t.Fatalf("walk: %v", err)
				}
				replayed, err := analysis.ReplayDump(pf.Acts, analysis.CostsOf(cfg))
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				tr := trace.New()
				cfg.Tracer = tr
				if _, err := c.Images[i].Run(context.Background(), cfg, c.Inputs); err != nil {
					t.Fatal(err)
				}
				traced := analysis.NewDump(cfg, tr)
				for p := range c.Procs {
					// slices.Equal: a process with no events is nil in the
					// log and empty in the replay.
					if !slices.Equal(replayed.Events[p], traced.Events[p]) {
						t.Errorf("process %d: replayed %d events, traced %d; first difference at %d\n%s",
							p, len(replayed.Events[p]), len(traced.Events[p]), firstDiff(replayed.Events[p], traced.Events[p]), c.Src)
					}
				}
			})
		}
	}
	t.Logf("%d cases, %d distinct images, %d of them outside the domain", len(cases), images, outside)
	if outside == 0 {
		t.Error("no walk stopped: the corpus has lost its branches on element values")
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
