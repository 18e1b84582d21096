package autotune

import (
	"strings"
	"sync"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// A Workload parses its source once and Search compiles candidates on several
// workers, so compiles of different retargets must not see each other through
// the shared tree: a declaration retarget (cyclic_cols rewrites the DistDecl)
// and a use-site retarget (all rewrites the mapping annotations inside the
// procedures) run side by side, and each must produce exactly what a
// workload of its own — a fresh parse — produces. Run under -race.
func TestCompileSharesOneParseSafely(t *testing.T) {
	const procs = 4
	mappings := []Mapping{{Kind: dist.KindCyclicCols, Span: 2}, {Kind: dist.KindReplicated}}
	format := func(w *Workload, m Mapping) (string, error) {
		_, stages, err := w.compileAll(&m, []xform.Point{{Mode: "opt3", Blk: 4}}, procs)
		if err == nil {
			err = stages[0].Err
		}
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, p := range stages[0].Progs {
			b.WriteString(spmd.Format(p))
		}
		return b.String(), nil
	}
	want := make([]string, len(mappings))
	for i, m := range mappings {
		var err error
		if want[i], err = format(gsWorkload(12), m); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	if want[0] == want[1] {
		t.Fatal("the two retargets compile to the same code; the test would prove nothing")
	}

	shared := gsWorkload(12)
	var wg sync.WaitGroup
	for i, m := range mappings {
		wg.Add(1)
		go func(i int, m Mapping) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				got, err := format(shared, m)
				if err != nil {
					t.Errorf("%s, compile %d: %v", m, n, err)
					return
				}
				if got != want[i] {
					t.Errorf("%s, compile %d: the shared parse compiled differently from a fresh one", m, n)
					return
				}
			}
		}(i, m)
	}
	wg.Wait()
}
