package exec

import (
	"strings"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/expr"
	"procdecomp/internal/golden"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

func cfg4() machine.Config { return machine.DefaultConfig(4) }

// prog builds a minimal generic program over one replicated 2x2 array.
func prog(body []spmd.Stmt, outputs ...spmd.OutVar) *spmd.Program {
	d := dist.NewReplicated(4, 2, 2)
	return &spmd.Program{
		Name: "t", Proc: -1,
		Arrays:  map[string]spmd.ArrayInfo{"A": {Name: "A", Dist: d, GlobalShape: []int64{2, 2}}},
		Body:    append([]spmd.Stmt{&spmd.Alloc{Array: "A", Shape: []expr.Expr{expr.C(2), expr.C(2)}}}, body...),
		Outputs: outputs,
	}
}

func TestSPMDGuardExecutesOnOneProcess(t *testing.T) {
	// Each process writes a different element under a guard on me.
	p := prog([]spmd.Stmt{
		&spmd.Guard{Proc: expr.C(1), Body: []spmd.Stmt{
			&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(1), expr.C(1)}, Val: spmd.VConst{F: 7}},
		}},
	}, spmd.OutVar{Name: "A", IsArray: true})
	out, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replicated gather reads process 0's copy, which must be undefined —
	// only process 1 wrote.
	if out.Arrays["A"].Defined(1, 1) {
		t.Error("guarded write leaked to process 0")
	}
}

func TestSPMDCoerceBroadcast(t *testing.T) {
	// Owner 2 broadcasts a scalar to everyone; every process then writes it
	// into its own replicated copy.
	p := prog([]spmd.Stmt{
		&spmd.Guard{Proc: expr.C(2), Body: []spmd.Stmt{
			&spmd.AssignIVar{Name: "x", Val: spmd.VConst{F: 42}},
		}},
		&spmd.Coerce{Dst: "t1", Var: "x", Owner: expr.C(2), NeederAll: true, Tag: 1},
		&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(1), expr.C(2)}, Val: spmd.VVar{Name: "t1"}},
	}, spmd.OutVar{Name: "A", IsArray: true})
	m := machine.New(cfg4())
	_ = m
	out, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := out.Arrays["A"].Read(1, 2)
	if err != nil || v != 42 {
		t.Fatalf("broadcast value = %v (%v)", v, err)
	}
	if out.Stats.Messages != 3 {
		t.Errorf("broadcast messages = %d, want 3", out.Stats.Messages)
	}
}

func TestSPMDCoerceLocalNoMessages(t *testing.T) {
	p := prog([]spmd.Stmt{
		&spmd.AssignIVar{Name: "x", Val: spmd.VConst{F: 5}}, // replicated I-var
		&spmd.Coerce{Dst: "t1", Var: "x", OwnerAll: true, NeederAll: true, Tag: 1},
		&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(2), expr.C(2)}, Val: spmd.VVar{Name: "t1"}},
	}, spmd.OutVar{Name: "A", IsArray: true})
	out, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Messages != 0 {
		t.Errorf("local coerce sent %d messages", out.Stats.Messages)
	}
}

func TestSPMDIStructureViolationSurfaces(t *testing.T) {
	p := prog([]spmd.Stmt{
		&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(1), expr.C(1)}, Val: spmd.VConst{F: 1}},
		&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(1), expr.C(1)}, Val: spmd.VConst{F: 2}},
	})
	_, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err == nil || !strings.Contains(err.Error(), "already written") {
		t.Errorf("err = %v, want I-structure violation", err)
	}
}

func TestSPMDProtocolMismatchDeadlocks(t *testing.T) {
	// Process 0 waits for a message nobody sends: the machine's deadlock
	// detector must surface it as an error, not a hang.
	p := prog([]spmd.Stmt{
		&spmd.Guard{Proc: expr.C(0), Body: []spmd.Stmt{
			&spmd.Recv{Src: expr.C(3), Tag: 77, Dst: "t"},
		}},
	})
	_, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestSPMDScalarOutput(t *testing.T) {
	p := prog([]spmd.Stmt{
		&spmd.Guard{Proc: expr.C(3), Body: []spmd.Stmt{
			&spmd.AssignIVar{Name: "r", Val: spmd.VConst{F: 9}},
		}},
	}, spmd.OutVar{Name: "r", ScalarDist: dist.NewSingle(4, 3)})
	out, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Scalars["r"] != 9 {
		t.Errorf("scalar output = %v", out.Scalars["r"])
	}
}

func TestSPMDMissingInput(t *testing.T) {
	d := dist.NewCyclicCols(4, 4, 4)
	p := &spmd.Program{
		Name: "t", Proc: -1,
		Params: []spmd.ArrayInfo{{Name: "In", Dist: d, GlobalShape: []int64{4, 4}}},
		Arrays: map[string]spmd.ArrayInfo{"In": {Name: "In", Dist: d, GlobalShape: []int64{4, 4}}},
	}
	if _, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil); err == nil {
		t.Error("missing input should be an error")
	}
}

func TestSPMDWrongProgramCount(t *testing.T) {
	p := prog(nil)
	p.Proc = 0 // specialized, but only one program for 4 processes
	if _, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil); err == nil {
		t.Error("program-count mismatch should be an error")
	}
}

func TestSPMDIfValueBranches(t *testing.T) {
	// Each process writes 1 if me < 2 else 2 into its replicated copy; the
	// gather reads process 0 (then-branch).
	p := prog([]spmd.Stmt{
		&spmd.IfValue{
			Cond: spmd.VBin{Op: lang.OpLt, L: spmd.VInt{X: expr.V(spmd.Me)}, R: spmd.VConst{F: 2}},
			Then: []spmd.Stmt{&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(1), expr.C(1)}, Val: spmd.VConst{F: 1}}},
			Else: []spmd.Stmt{&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(1), expr.C(1)}, Val: spmd.VConst{F: 2}}},
		},
	}, spmd.OutVar{Name: "A", IsArray: true})
	out, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.Arrays["A"].Read(1, 1); v != 1 {
		t.Errorf("process 0 took the wrong branch: %v", v)
	}
}

func TestSPMDBuffersRoundTrip(t *testing.T) {
	// Pack values into a buffer on process 0, block-send to 1, unpack there.
	p := prog([]spmd.Stmt{
		&spmd.AllocBuf{Buf: "b", Size: expr.C(3)},
		&spmd.Guard{Proc: expr.C(0), Body: []spmd.Stmt{
			&spmd.BufWrite{Buf: "b", Idx: expr.C(1), Val: spmd.VConst{F: 10}},
			&spmd.BufWrite{Buf: "b", Idx: expr.C(2), Val: spmd.VConst{F: 20}},
			&spmd.BufWrite{Buf: "b", Idx: expr.C(3), Val: spmd.VConst{F: 30}},
			&spmd.SendBuf{Dst: expr.C(1), Tag: 5, Buf: "b", Lo: expr.C(1), Hi: expr.C(3)},
		}},
		&spmd.Guard{Proc: expr.C(1), Body: []spmd.Stmt{
			&spmd.RecvBuf{Src: expr.C(0), Tag: 5, Buf: "b", Lo: expr.C(1), Hi: expr.C(3)},
			&spmd.BufRead{Dst: "x", Buf: "b", Idx: expr.C(2)},
			&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(1), expr.C(1)}, Val: spmd.VVar{Name: "x"}},
		}},
	}, spmd.OutVar{Name: "A", IsArray: true})
	out, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replicated gather reads proc 0's copy: undefined there. Check stats
	// instead and read process 1's value via a second run with a single
	// processor? Simpler: check messages and values.
	if out.Stats.Messages != 1 || out.Stats.Values != 3 {
		t.Errorf("stats = %+v, want 1 message of 3 values", out.Stats)
	}
}

func TestSPMDBufferBoundsChecked(t *testing.T) {
	p := prog([]spmd.Stmt{
		&spmd.AllocBuf{Buf: "b", Size: expr.C(2)},
		&spmd.BufWrite{Buf: "b", Idx: expr.C(5), Val: spmd.VConst{F: 1}},
	})
	_, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v, want bounds error", err)
	}
}

// gatherOne builds a matrix with one defined element per process and checks
// the cyclic gather reassembles ownership correctly.
func TestSPMDGatherCyclic(t *testing.T) {
	d := dist.NewCyclicCols(4, 4, 4)
	p := &spmd.Program{
		Name: "t", Proc: -1,
		Arrays: map[string]spmd.ArrayInfo{"A": {Name: "A", Dist: d, GlobalShape: []int64{4, 4}}},
		Body: []spmd.Stmt{
			&spmd.Alloc{Array: "A", Shape: []expr.Expr{expr.C(4), expr.C(1)}},
			// Every process owns exactly one column; write row 2 of it.
			&spmd.AWrite{Array: "A", Idx: []expr.Expr{expr.C(2), expr.C(1)},
				Val: spmd.VInt{X: expr.V(spmd.Me)}},
		},
		Outputs: []spmd.OutVar{{Name: "A", IsArray: true}},
	}
	out, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Column j's owner is j mod 4; its local column 1 row 2 holds the owner id.
	for j := int64(1); j <= 4; j++ {
		v, err := out.Arrays["A"].Read(2, j)
		if err != nil {
			t.Fatalf("col %d: %v", j, err)
		}
		if int64(v) != j%4 {
			t.Errorf("col %d gathered from process %v, want %d", j, v, j%4)
		}
	}
}

func TestScatterPartialInput(t *testing.T) {
	g, _ := istruct.NewMatrix("In", 3, 3)
	g.Write(1, 1, 5)
	d := dist.NewCyclicCols(2, 3, 3)
	locals, err := scatter(g, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	local := locals[1] // owner of column 1 is process 1
	l := d.Local(nil, []int64{1, 1})
	v, err := local.Read(l[0], l[1])
	if err != nil || v != 5 {
		t.Errorf("scatter lost the defined element: %v %v", v, err)
	}
	if local.Defined(2, 1) {
		t.Error("scatter invented undefined elements")
	}
	if locals[0] == nil || locals[0].Defined(l[0], l[1]) {
		t.Error("process 0 owns nothing: it should get an empty allocation of its own")
	}
}

// badAllocDist and badLocalDist wrap a sound decomposition with the two
// failure shapes a malformed mapping can produce: a degenerate local
// allocation, and a local index outside the allocation. scatter used to
// panic on both — and since scattering happens before the machine run, the
// panics escaped RunSPMD raw instead of surfacing as errors.

type badAllocDist struct{ dist.Dist }

func (badAllocDist) LocalShape() []int64 { return []int64{0, 0} }

type badLocalDist struct{ dist.Dist }

func (badLocalDist) Local(dst, idx []int64) []int64 { return append(dst[:0], 99, 99) }

func scatterProg(d dist.Dist) *spmd.Program {
	return &spmd.Program{
		Name: "t", Proc: -1,
		Params: []spmd.ArrayInfo{{Name: "In", Dist: d, GlobalShape: []int64{2, 2}}},
		Arrays: map[string]spmd.ArrayInfo{"In": {Name: "In", Dist: d, GlobalShape: []int64{2, 2}}},
	}
}

func TestScatterBadAllocationIsError(t *testing.T) {
	g, _ := istruct.NewMatrix("In", 2, 2)
	g.Write(1, 2, 1)
	_, err := scatter(g, badAllocDist{dist.NewCyclicCols(2, 2, 2)}, 2)
	if err == nil || !strings.Contains(err.Error(), "local allocation") {
		t.Fatalf("err = %v, want local-allocation error", err)
	}
}

func TestScatterBadLocalIndexIsError(t *testing.T) {
	g, _ := istruct.NewMatrix("In", 2, 2)
	g.Write(1, 2, 1) // owned by process 0 under cyclic_cols(S=2)
	_, err := scatter(g, badLocalDist{dist.NewCyclicCols(2, 2, 2)}, 2)
	if err == nil || !strings.Contains(err.Error(), "to process 0 at local [99,99]") {
		t.Fatalf("err = %v, want out-of-range local index error", err)
	}
}

// Both scatter failure paths must come back from RunSPMD as errors naming
// the parameter — the route `pdrun -check` reports — not as panics.
func TestRunSPMDScatterErrorsSurface(t *testing.T) {
	g, _ := istruct.NewMatrix("In", 2, 2)
	g.Write(1, 2, 1)
	for _, tc := range []struct {
		name string
		d    dist.Dist
		want string
	}{
		{"degenerate allocation", badAllocDist{dist.NewCyclicCols(4, 2, 2)}, "local allocation"},
		{"local index out of range", badLocalDist{dist.NewCyclicCols(4, 2, 2)}, "at local [99,99]"},
	} {
		_, err := RunSPMD([]*spmd.Program{scatterProg(tc.d)}, cfg4(), map[string]*istruct.Matrix{"In": g})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "parameter In") {
			t.Errorf("%s: err = %v, want parameter name in message", tc.name, err)
		}
	}
}

// gather used to index GlobalShape[0] unasked, so an output array the program
// records no ArrayInfo for (or one of a rank the harness cannot hold) killed
// the caller with an index-out-of-range panic after the run had succeeded.
func TestRunSPMDGatherErrorsSurface(t *testing.T) {
	d := dist.NewReplicated(4, 2, 2)
	for _, tc := range []struct {
		name   string
		arrays map[string]spmd.ArrayInfo
		want   string
	}{
		{"no ArrayInfo", nil, "exec: output array A has no recorded shape"},
		{"rank 3", map[string]spmd.ArrayInfo{"A": {Name: "A", Dist: d, GlobalShape: []int64{2, 2, 2}}},
			"exec: output array A has rank 3"},
	} {
		p := &spmd.Program{Name: "t", Proc: -1, Arrays: tc.arrays,
			Outputs: []spmd.OutVar{{Name: "A", IsArray: true}}}
		_, err := RunSPMD([]*spmd.Program{p}, cfg4(), nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// Scattering a parameter is one pass over its elements whatever the machine
// size: the allocations that remain per process are its local matrix, not a
// share of the element loop. (The per-process scatter this replaced visited
// all N² elements once per process and allocated per visit, so S=8 cost
// about 2.5 times S=2.)
func TestScatterAllocationsDoNotGrowWithProcs(t *testing.T) {
	const n = 16
	g, err := istruct.Pattern("In", n, n)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(procs int) float64 {
		d := dist.NewCyclicCols(int64(procs), n, n)
		return testing.AllocsPerRun(10, func() {
			if _, err := scatter(g, d, procs); err != nil {
				t.Fatal(err)
			}
		})
	}
	a2, a8 := allocs(2), allocs(8)
	// Six more processes: six more local matrices (a struct and two slices
	// each) and nothing that scales with the n*n elements.
	if grow := a8 - a2; grow > 6*3 {
		t.Errorf("scatter allocates %.0f objects at S=2 and %.0f at S=8: %.0f more, want at most %d", a2, a8, grow, 6*3)
	}
}

// scatter and gather allocate per array and per process, never per element:
// the same count for a 64×64 array as for a 16×16 one.
func TestScatterGatherAllocsDoNotGrowWithN(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const procs = 4
	allocs := func(d func(n int64) dist.Dist, n int64) float64 {
		g, err := istruct.Pattern("Old", n, n)
		if err != nil {
			t.Fatal(err)
		}
		info := spmd.ArrayInfo{Name: "Old", Dist: d(n), GlobalShape: []int64{n, n}}
		locals, err := scatter(g, info.Dist, procs)
		if err != nil {
			t.Fatal(err)
		}
		states := make([]*concrete, procs)
		for p := range states {
			states[p] = &concrete{low: &Lowered{arrays: []string{"Old"}}, arrays: []*istruct.Matrix{locals[p]}}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := scatter(g, info.Dist, procs); err != nil {
				t.Fatal(err)
			}
			if _, err := gather(states, "Old", info); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, d := range map[string]func(n int64) dist.Dist{
		"cyclic_cols": func(n int64) dist.Dist { return dist.NewCyclicCols(procs, n, n) },
		"block2d":     func(n int64) dist.Dist { return dist.NewBlock2D(2, 2, n, n) },
		"all":         func(n int64) dist.Dist { return dist.NewReplicated(procs, n, n) },
	} {
		if small, large := allocs(d, 16), allocs(d, 64); small != large {
			t.Errorf("%s: scatter+gather allocate %.0f times at N=16 and %.0f at N=64", name, small, large)
		}
	}
}
