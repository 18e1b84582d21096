package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// Uniform loops (uniform.go). A walk steps a uniform loop's first iteration
// into a tape and plays it for the rest. That must change how often the host
// steps and nothing a Sink can sum: the differential test holds every walk to
// the same image stepped iteration by iteration, the rule's rows pin it one
// at a time, and the host-work pin holds what the tape buys.

// The memo corpus, and every image a search of the search witness's workloads
// walks, walk alike with and without tapes, and the tapes save Sink calls.
func TestUniformLoopsAreInvisible(t *testing.T) {
	differAll(t, noTapes)
	images, calls := 0, [2]int{}
	eachSearchedImage(t, func(name string, im *exec.Image, procs int) {
		_, c := walksAlike(t, name, im, im.WithoutTapes(), procs, noTapes)
		images++
		calls[0] += c[0]
		calls[1] += c[1]
	})
	t.Logf("%d searched images: %d Sink calls with tapes, %d without", images, calls[0], calls[1])
	if images < 341 {
		t.Errorf("only %d searched images compared", images)
	}
	if 2*calls[0] > calls[1] {
		t.Errorf("tapes cut the searched images' Sink calls from %d to %d, want at least half", calls[1], calls[0])
	}
}

// eachSearchedImage calls f on every distinct image a search walks for the
// workloads of the search witness (GS at N=16 and 24, reversed GS and Jacobi
// at N=24, S ∈ {2, 4, 8}): the program as declared at ctr, and each candidate
// of the default space, compiled once per mapping at all of its points, twins
// (points sharing programs) once.
func eachSearchedImage(t *testing.T, f func(name string, im *exec.Image, procs int)) {
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
	for _, procs := range []int{2, 4, 8} {
		for _, w := range workloads {
			walk := func(mapping string, m *autotune.Mapping, points []xform.Point) {
				prog, err := lang.Parse(w.src)
				if err != nil {
					t.Fatal(err)
				}
				if m != nil && autotune.Retarget(prog, w.dist, *m) != nil {
					return
				}
				info, errs := sem.Check(prog, sem.Config{Procs: int64(procs), Defines: w.defines})
				if len(errs) > 0 {
					return
				}
				walked := map[*spmd.Program]bool{}
				for k, st := range xform.CompileAll(info, w.entry, points) {
					if st.Err != nil || walked[st.Progs[0]] {
						continue
					}
					walked[st.Progs[0]] = true
					im, err := exec.LowerAll(st.Progs, procs)
					if err != nil {
						t.Fatal(err)
					}
					f(fmt.Sprintf("%s S=%d %s/%s/blk%d", w.name, procs, mapping, points[k].Mode, points[k].Blk), im, procs)
				}
			}
			walk("declared", nil, []xform.Point{{Mode: "ctr"}})
			// Enumerate sorts by key, which starts with the mapping: each
			// mapping's candidates are consecutive.
			cands := autotune.Space{}.Enumerate(procs)
			for i := 0; i < len(cands); {
				m := cands[i].Mapping
				var points []xform.Point
				for ; i < len(cands) && cands[i].Mapping == m; i++ {
					points = append(points, xform.Point{Mode: cands[i].Mode, Blk: cands[i].Blk})
				}
				walk(m.String(), &m, points)
			}
		}
	}
}

// tapeBoth walks process me of a one-statement-list program on two processes
// with and without tapes, into recorders that refuse their refuse-th send,
// and returns what both agree on.
func tapeBoth(t *testing.T, me, refuse int, body ...spmd.Stmt) (*exec.Lowered, *recorder, string) {
	t.Helper()
	low := exec.Lower(&spmd.Program{Name: "t", Proc: -1, Body: body})
	with, without := &recorder{procs: 2, refuse: refuse}, &recorder{procs: 2, refuse: refuse}
	err, ctl := low.Walk(me, with), exec.WithoutTapes(low).Walk(me, without)
	if errText(err) != errText(ctl) || !slices.Equal(with.spans(), without.spans()) || !slices.Equal(with.sends, without.sends) {
		t.Fatalf("walk with tapes: error %q, spans %v; without: error %q, spans %v",
			errText(err), with.spans(), errText(ctl), without.spans())
	}
	return low, with, errText(err)
}

func TestUniformLoopRule(t *testing.T) {
	c, v := expr.C, expr.V
	k := expr.Mod(v("k"), c(2))
	setK := &spmd.AssignVar{Name: "k", Val: spmd.VConst{F: 1}}
	// fill names slots 2 … 63, after k's 1, so the next new name takes slot
	// 64 and the one after it 65, which shares k's bit.
	var fill []spmd.Stmt
	for s := 2; s <= 63; s++ {
		fill = append(fill, assign(fmt.Sprintf("f%d", s), 0))
	}
	for _, tc := range []struct {
		name    string
		me      int
		refuse  int
		body    []spmd.Stmt
		uniform []bool // every For, in pre-order
		sends   []int64
		err     string
	}{
		{name: "loop-carried variable read by a guard",
			body:    []spmd.Stmt{assign("k", 0), loop("i", 1, 3, &spmd.Guard{Proc: k, Body: []spmd.Stmt{sendTo(c(1))}}, setK)},
			uniform: []bool{false}, sends: []int64{1}},
		{name: "loop-carried variable read by a peer",
			body:    []spmd.Stmt{assign("k", 0), loop("i", 1, 3, sendTo(k), setK)},
			uniform: []bool{false}, sends: []int64{0, 1, 1}},
		{name: "loop-carried variable read by a bound",
			body: []spmd.Stmt{assign("k", 0),
				loop("i", 1, 3, &spmd.For{Var: "j", Lo: c(1), Hi: v("k"), Step: c(1), Body: []spmd.Stmt{sendTo(c(1))}}, setK)},
			uniform: []bool{false, true}, sends: []int64{1, 1}},
		{name: "IfValue on the induction variable",
			body: []spmd.Stmt{loop("i", 1, 3, &spmd.IfValue{
				Cond: spmd.VBin{Op: lang.OpEq, L: spmd.VInt{X: v("i")}, R: spmd.VConst{F: 2}}, Then: []spmd.Stmt{sendTo(c(1))}})},
			uniform: []bool{false}, sends: []int64{1}},
		{name: "nested For's variable read inside it",
			body:    []spmd.Stmt{loop("i", 1, 3, loop("j", 0, 1, sendTo(v("j"))))},
			uniform: []bool{true, false}, sends: []int64{0, 1, 0, 1, 0, 1}},
		{name: "nested For's variable read outside it",
			body:    []spmd.Stmt{assign("j", 0), loop("i", 1, 3, sendTo(v("j")), loop("j", 1, 1))},
			uniform: []bool{false, true}, sends: []int64{0, 1, 1}},
		{name: "nested For's variable assigned twice",
			body:    []spmd.Stmt{loop("i", 1, 3, loop("j", 0, 1, sendTo(v("j"))), loop("j", 0, 0, sendTo(v("j"))))},
			uniform: []bool{false, false, false}, sends: []int64{0, 1, 0, 0, 1, 0, 0, 1, 0}},
		{name: "nested For's variable is the loop's own",
			body:    []spmd.Stmt{loop("i", 1, 2, sendTo(c(1)), loop("i", 0, 1, sendTo(v("i"))))},
			uniform: []bool{false, false}, sends: []int64{1, 0, 1, 1, 0, 1}},
		{name: "reads through subscripts only",
			body: []spmd.Stmt{loop("i", 1, 3,
				&spmd.ARead{Dst: "t", Array: "A", Idx: []expr.Expr{v("i")}},
				&spmd.AWrite{Array: "A", Idx: []expr.Expr{v("i")}, Val: spmd.VVar{Name: "t"}},
				&spmd.BufRead{Dst: "u", Buf: "b", Idx: v("i")},
				&spmd.BufWrite{Buf: "b", Idx: v("i"), Val: spmd.VInt{X: v("i")}},
				&spmd.Send{Dst: c(1), Tag: 1, Val: spmd.VVar{Name: "t"}},
				&spmd.Coerce{Dst: "w", Array: "A", Idx: []expr.Expr{v("i")}, Owner: c(0), Needer: c(1), Tag: 2})},
			uniform: []bool{true}, sends: []int64{1, 1, 1, 1, 1, 1}},
		// j takes slot 65 and k slot 1: one bit. Exempting j inside its own
		// For must not exempt k, which the loop assigns after the read.
		{name: "slot 64 apart from an exempted one",
			body: append(append([]spmd.Stmt{assign("k", 0)}, fill...),
				loop("i", 1, 3, loop("j", 1, 1, sendTo(v("k"))), setK)),
			uniform: []bool{false, false}, sends: []int64{0, 1, 1}},
		{name: "zero-trip loop",
			body:    []spmd.Stmt{loop("i", 1, 0, sendTo(c(1)))},
			uniform: []bool{true}},
		{name: "one-trip loop",
			body:    []spmd.Stmt{loop("i", 1, 1, sendTo(c(1)))},
			uniform: []bool{true}, sends: []int64{1}},
		// The walk fails where stepping would: after the send before it.
		{name: "control code failing in the first iteration",
			body: []spmd.Stmt{assign("k", 1), assign("z", 0),
				loop("i", 1, 3, sendTo(c(1)), sendTo(expr.Mod(v("k"), v("z"))))},
			uniform: []bool{true}, sends: []int64{1}, err: "expr: mod by non-positive 0"},
		{name: "Sink refusing a played message", refuse: 3,
			body:    []spmd.Stmt{loop("i", 1, 4, sendTo(c(1)), assign("t", 2))},
			uniform: []bool{true}, sends: []int64{1, 1}, err: "send 3 refused"},
		// Refused in the first iteration, before the step that fails: the
		// Sink's refusal is what stepping would have reported.
		{name: "Sink refusing a message before a failing step", refuse: 1,
			body: []spmd.Stmt{assign("k", 1), assign("z", 0),
				loop("i", 1, 3, sendTo(c(1)), sendTo(expr.Mod(v("k"), v("z"))))},
			uniform: []bool{true}, err: "send 1 refused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			low, rec, err := tapeBoth(t, tc.me, tc.refuse, tc.body...)
			if got := exec.Uniform(low); !slices.Equal(got, tc.uniform) {
				t.Errorf("uniform loops %v, want %v", got, tc.uniform)
			}
			if !slices.Equal(rec.sends, tc.sends) || err != tc.err {
				t.Errorf("sends to %v, error %q; want %v, %q", rec.sends, err, tc.sends, tc.err)
			}
		})
	}
	// A run declines the tape: its iterations differ in their data, and a
	// code failing in the first one fails with the words it always had.
	p := &spmd.Program{Name: "t", Proc: -1, Body: []spmd.Stmt{assign("k", 1), assign("z", 0),
		loop("i", 1, 3, sendTo(c(1)), sendTo(expr.Mod(v("k"), v("z"))))}}
	_, err := exec.RunSPMD([]*spmd.Program{p}, machine.DefaultConfig(2), nil)
	if want := "machine: process 0 failed: process 0: expr: mod by non-positive 0"; errText(err) != want {
		t.Errorf("run: error %q, want %q", err, want)
	}
}

// The charges of an opt3 Gauss-Seidel walk are linear in N with tapes. At
// block size N/4 process 1 of four receives and sends a fixed number of
// blocks per column and so makes a linear number of messages; every loop
// within a block is uniform, so with tapes each costs a fixed number of
// charges. Stepped, a block costs charges in proportion to its N/4 rows, and
// the walk's charges grow quadratically.
func TestUniformLoopsChargeInLinearHostWork(t *testing.T) {
	const procs, me = 4, 1
	charges := func(n int64, undo bool) int {
		_, progs, err := compile(bench.GSSource, "gs_iteration", procs, map[string]int64{"N": n}, nil, "opt3", n/4)
		if err != nil {
			t.Fatal(err)
		}
		low := exec.Lower(progs[me])
		if undo {
			low = exec.WithoutTapes(low)
		}
		c := &callCounter{procs: procs}
		if err := low.Walk(me, c); err != nil {
			t.Fatal(err)
		}
		return c.calls - c.msgs
	}
	for _, undo := range []bool{false, true} {
		c16, c32, c64 := charges(16, undo), charges(32, undo), charges(64, undo)
		if grows := c64 - c32; undo && grows <= 2*(c32-c16) || !undo && grows != 2*(c32-c16) {
			t.Errorf("tapes undone %v: %d, %d, %d charges at N = 16, 32, 64; want linear growth with tapes, faster without",
				undo, c16, c32, c64)
		}
	}
}
