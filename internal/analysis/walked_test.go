package analysis_test

import (
	"fmt"
	"testing"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// jacobiSource is the Jacobi relaxation of the search witness
// (internal/autotune's permapping_test.go).
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

// walkedProfiles walks every distinct program a search of the workload at S
// processors walks: the program as declared at ctr (the anchor), and each
// candidate of the default space, whose mapping is compiled once at all of
// its points and whose twins (points sharing programs) are walked once.
// Candidates the walk cannot model are skipped: the search never replays them.
func walkedProfiles(t *testing.T, src, entry, distName string, defines map[string]int64, procs int) map[string]*autotune.Profile {
	t.Helper()
	cfg := machine.DefaultConfig(procs)
	out := map[string]*autotune.Profile{}
	walk := func(name string, m *autotune.Mapping, points []xform.Point) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			if err := autotune.Retarget(prog, distName, *m); err != nil {
				return
			}
		}
		info, errs := sem.Check(prog, sem.Config{Procs: int64(procs), Defines: defines})
		if len(errs) > 0 {
			return
		}
		walked := map[*spmd.Program]bool{}
		for k, st := range xform.CompileAll(info, entry, points) {
			if st.Err != nil || walked[st.Progs[0]] {
				continue
			}
			walked[st.Progs[0]] = true
			if pf, err := autotune.BuildProfile(st.Progs, cfg); err == nil {
				out[fmt.Sprintf("%s/%s/blk%d", name, points[k].Mode, points[k].Blk)] = pf
			}
		}
	}
	walk("declared", nil, []xform.Point{{Mode: "ctr"}})
	// Enumerate sorts by key, which starts with the mapping: each mapping's
	// candidates are consecutive.
	cands := autotune.Space{}.Enumerate(procs)
	for i := 0; i < len(cands); {
		m := cands[i].Mapping
		var points []xform.Point
		for ; i < len(cands) && cands[i].Mapping == m; i++ {
			points = append(points, xform.Point{Mode: cands[i].Mode, Blk: cands[i].Blk})
		}
		walk(m.String(), &m, points)
	}
	return out
}

// eachWalkedProfile calls f on every profile the search witness's workloads
// walk (GS at N=16 and 24, reversed GS and Jacobi at N=24, S ∈ {2, 4, 8}),
// with the calibration the search replays it under, and fails the test if
// there are suspiciously few.
func eachWalkedProfile(t *testing.T, f func(name string, pf *autotune.Profile, costs analysis.Costs)) {
	t.Helper()
	n16, n24 := map[string]int64{"N": 16}, map[string]int64{"N": 24}
	workloads := []struct {
		name, src, entry, dist string
		defines                map[string]int64
	}{
		{"gauss-seidel N=16", bench.GSSource, "gs_iteration", "Column", n16},
		{"gauss-seidel N=24", bench.GSSource, "gs_iteration", "Column", n24},
		{"gs-reversed N=24", bench.GSReversedSource, "gs_iteration", "Column", n24},
		{"jacobi N=24", jacobiSource, "jacobi", "D", n24},
	}
	profiles := 0
	for _, procs := range []int{2, 4, 8} {
		costs := analysis.CostsOf(machine.DefaultConfig(procs))
		for _, w := range workloads {
			for name, pf := range walkedProfiles(t, w.src, w.entry, w.dist, w.defines, procs) {
				profiles++
				f(fmt.Sprintf("%s S=%d %s", w.name, procs, name), pf, costs)
			}
		}
	}
	t.Logf("%d walked profiles compared", profiles)
	if profiles < 300 {
		t.Errorf("only %d walked profiles compared", profiles)
	}
}

// TestReplayMatchesMapOracleOnWalkedProfiles: on every walked profile,
// Replay returns exactly what the map-keyed oracle does.
func TestReplayMatchesMapOracleOnWalkedProfiles(t *testing.T) {
	eachWalkedProfile(t, func(name string, pf *autotune.Profile, costs analysis.Costs) {
		got, gotErr := analysis.Replay(pf.Acts, costs)
		want, wantErr := analysis.ReplayByMap(pf.Acts, costs)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: Replay = %d, %v; the map oracle says %d, %v", name, got, gotErr, want, wantErr)
		}
	})
}

// TestReplayDumpMatchesReplayOnWalkedProfiles: on every walked profile, the
// replayed timeline ends where Replay says (or fails with its error), and
// its critical path tiles that makespan.
func TestReplayDumpMatchesReplayOnWalkedProfiles(t *testing.T) {
	eachWalkedProfile(t, func(name string, pf *autotune.Profile, costs analysis.Costs) {
		want, wantErr := analysis.Replay(pf.Acts, costs)
		d, err := analysis.ReplayDump(pf.Acts, costs)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: ReplayDump fails with %v, Replay with %v", name, err, wantErr)
			return
		}
		if err != nil {
			return
		}
		if got := d.Makespan(); got != want {
			t.Errorf("%s: replayed timeline ends at %d, Replay says %d", name, got, want)
		}
		cp, err := d.CriticalPath()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if cp.Len() != want || cp.Attr.Total() != want {
			t.Errorf("%s: path %d cycles, attribution %d, makespan %d", name, cp.Len(), cp.Attr.Total(), want)
		}
	})
}
