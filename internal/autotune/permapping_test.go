package autotune

import (
	"fmt"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/golden"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// jacobiSource is a 5-point relaxation reading only the old grid: no
// loop-carried dependence, so (unlike Gauss-Seidel) jam and strip-mine find
// nothing to pipeline and the passes exercise their no-op paths.
const jacobiSource = `
const N = 16;
const w = 0.25;

dist D = cyclic_cols(NPROCS);

proc jacobi(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    New[1, j] = Old[1, j];
    New[N, j] = Old[N, j];
  }
  for i = 2 to N - 1 {
    New[i, 1] = Old[i, 1];
    New[i, N] = Old[i, N];
  }
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
      New[i, j] = w * (Old[i - 1, j] + Old[i + 1, j] + Old[i, j - 1] + Old[i, j + 1]);
    }
  }
  return New;
}
`

func searchedWorkloads(n int64) []*Workload {
	defs := map[string]int64{"N": n}
	return []*Workload{
		gsWorkload(n),
		{Name: "gs-reversed", Source: bench.GSReversedSource, Entry: "gs_iteration", Dist: "Column", Defines: defs},
		{Name: "jacobi", Source: jacobiSource, Entry: "jacobi", Dist: "D", Defines: defs},
	}
}

// freshCompile is the compile the search used to pay per candidate: a parse
// of its own, retargeted, checked, and compiled at the candidate's one point.
func freshCompile(w *Workload, c Candidate, procs int) ([]*spmd.Program, error) {
	prog, err := lang.Parse(w.Source)
	if err != nil {
		return nil, err
	}
	if err := c.Mapping.Validate(int64(procs)); err != nil {
		return nil, err
	}
	if err := Retarget(prog, w.Dist, c.Mapping); err != nil {
		return nil, err
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(procs), Defines: w.Defines})
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return xform.Compile(info, w.Entry, c.Mode, c.Blk)
}

func formatAll(progs []*spmd.Program) string {
	s := ""
	for _, p := range progs {
		s += spmd.Format(p)
	}
	return s
}

// The incremental compile is the fresh compile: for every candidate of the
// default space, what its mapping's one compileAll hands it — programs, or the
// error — is exactly what a compile of its own produces.
func TestCompileAllMatchesCompile(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		cands, _ := Space{}.enumerate(procs)
		for _, w := range searchedWorkloads(12) {
			for _, idx := range groupBy(len(cands), func(i int) Mapping { return cands[i].Mapping }) {
				mapping := cands[idx[0]].Mapping
				points := make([]xform.Point, len(idx))
				for k, i := range idx {
					points[k] = xform.Point{Mode: cands[i].Mode, Blk: cands[i].Blk}
				}
				_, stages, frontErr := w.compileAll(&mapping, points, procs)
				for k, i := range idx {
					name := fmt.Sprintf("%s S=%d %s", w.Name, procs, cands[i].Key())
					got, gotErr := []*spmd.Program(nil), frontErr
					if frontErr == nil {
						got, gotErr = stages[k].Progs, stages[k].Err
					}
					want, wantErr := freshCompile(w, cands[i], procs)
					if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Errorf("%s: error %v, a fresh compile says %v", name, gotErr, wantErr)
						continue
					}
					if formatAll(got) != formatAll(want) {
						t.Errorf("%s: the per-mapping compile differs from a fresh compile", name)
					}
				}
			}
		}
	}
}

// Tier 1 hands whole mappings to the pool; how many workers share them must
// not show in the report. Run under -race.
func TestSearchIndependentOfWorkers(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	for _, w := range searchedWorkloads(12) {
		one, err := Search(w, cfg, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		four, err := Search(w, cfg, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if one.Format() != four.Format() {
			t.Errorf("%s: the report depends on the number of workers", w.Name)
		}
	}
}

// A profile is allocated at its size: walking three times the grid records
// many times the actions, and may cost no more allocations than a slice per
// process on top — the action lists, the send index and the channel table are
// each built once, never grown by doubling.
func TestBuildProfileAllocationsDoNotGrowWithActions(t *testing.T) {
	if golden.RaceEnabled {
		// The detector drops sync.Pool puts at random, and walkScratch is a
		// pool: a dropped slice is regrown by doubling.
		t.Skip("the race detector allocates on its own account")
	}
	const procs = 4
	cfg := machine.DefaultConfig(procs)
	allocs := func(n int64) (float64, int) {
		b, err := gsWorkload(n).build(nil, "opt2", 0, procs)
		if err != nil {
			t.Fatal(err)
		}
		actions := 0
		per := testing.AllocsPerRun(10, func() {
			pf, err := profileOf(b.img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			actions = 0
			for _, acts := range pf.Acts {
				actions += len(acts)
			}
		})
		return per, actions
	}
	small, smallActs := allocs(8)
	large, largeActs := allocs(24)
	if largeActs < 4*smallActs {
		t.Fatalf("N=24 records %d actions, N=8 %d: the comparison would prove nothing", largeActs, smallActs)
	}
	if large > small+procs {
		t.Errorf("profile of %d actions allocates %.0f times, of %d actions %.0f", largeActs, large, smallActs, small)
	}
}
