package autotune

import (
	"strings"
	"sync"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/lang"
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

// PickDist is the one rule for which declaration a search varies: pdmap's
// -dist and pdserve's Dist both resolve through it.
func TestPickDist(t *testing.T) {
	decls := func(names ...string) string {
		var b strings.Builder
		for _, n := range names {
			b.WriteString("dist " + n + " = cyclic_cols(NPROCS);\n")
		}
		return b.String()
	}
	for _, tc := range []struct {
		name, src, pick string
		want            string
		errHas          []string
	}{
		{"named hit", decls("A", "B"), "B", "B", nil},
		{"named miss lists what exists", decls("A", "B"), "C", "", []string{"no dist declaration C", "A, B"}},
		{"zero", "const N = 4;\n", "", "", []string{"no dist declaration to retarget"}},
		{"one", decls("Only"), "", "Only", nil},
		{"several", decls("A", "B", "C"), "", "", []string{"3 dist declarations", "A, B, C"}},
	} {
		prog, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := PickDist(prog, tc.pick)
		if tc.errHas == nil {
			if err != nil || got != tc.want {
				t.Errorf("%s: PickDist = %q, %v, want %q", tc.name, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: resolved to %q, want an error", tc.name, got)
			continue
		}
		for _, s := range tc.errHas {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, s)
			}
		}
	}
}
