package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/gen"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// Keyed loops (keyed.go). A walk steps a keyed loop's first iteration of each
// key vector into a tape and plays it for every later iteration with the same
// keys. That must change how often the host steps and nothing a Sink can sum:
// the differential test holds every walk to the same image stepped iteration
// by iteration, the rules' rows pin them one at a time, and the host-work pins
// hold what the tapes buy.

// Every image a search walks for Gauss-Seidel, reversed Gauss-Seidel and
// Jacobi at S ∈ {2, 3, 4, 8} and N ∈ {16, 24, 29, 37} (odd N and S=3 give
// ragged blocks) walks alike with and without keys: span for span, the view a
// matched profile is built from, and with the same error text. The keys save
// Sink calls. The differential corpus is held to the same control, runs
// included, by TestInertLoopsAreInvisible.
func TestKeyedLoopsAreInvisible(t *testing.T) {
	images, walks, calls := 0, 0, [2]int{}
	eachSearchedImage(func(name string, im *exec.Image, procs int) {
		c, _, err := walksAlike(im, im.WithoutKeys(), procs, noKeys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		images++
		walks += procs
		calls[0] += c[0]
		calls[1] += c[1]
	})
	t.Logf("%d searched images, %d walks: %d Sink calls with keys, %d without", images, walks, calls[0], calls[1])
	if images < 1296 {
		t.Errorf("only %d searched images compared", images)
	}
	if 2*calls[0] > calls[1] {
		t.Errorf("keys cut the searched images' Sink calls from %d to %d, want at least half", calls[1], calls[0])
	}
}

// eachSearchedImage calls f on every distinct image a search walks for
// Gauss-Seidel, reversed Gauss-Seidel and Jacobi at S ∈ {2, 3, 4, 8} and N ∈
// {16, 24, 29, 37}: the program as declared at ctr, and each candidate of the
// default space, compiled once per mapping at all of its points, twins
// (points sharing programs) once.
func eachSearchedImage(f func(name string, im *exec.Image, procs int)) {
	for _, procs := range []int{2, 3, 4, 8} {
		for _, n := range []int64{16, 24, 29, 37} {
			for _, w := range []struct {
				gen.Case
				dist string
			}{
				{gen.Case{Name: "gauss-seidel", Src: bench.GSSource, Entry: "gs_iteration"}, "Column"},
				{gen.Case{Name: "gs-reversed", Src: bench.GSReversedSource, Entry: "gs_iteration"}, "Column"},
				{gen.Case{Name: "jacobi", Src: jacobiSource, Entry: "jacobi"}, "D"},
			} {
				w.Name, w.Procs, w.Defines = fmt.Sprintf("%s N=%d S=%d", w.Name, n, procs), procs, map[string]int64{"N": n}
				declared := w.Case
				declared.Name, declared.Points = w.Name+" declared", []xform.Point{{Mode: "ctr"}}
				for _, c := range append([]gen.Case{declared}, candidates(w.Case, w.dist)...) {
					cc, err := gen.Compile(c)
					if err != nil {
						continue // a mapping this machine cannot take
					}
					for k, im := range cc.Images {
						if im != nil && cc.First[k] == k {
							f(c.Name+" "+gen.Label(c.Points[k]), im, procs)
						}
					}
				}
			}
		}
	}
}

// candidates is one case per mapping of the default search space on
// base.Procs processes: base retargeted to the mapping through its dist
// declaration dist, at the points of that mapping's candidates. Enumerate
// sorts by key, which starts with the mapping: each mapping's candidates are
// consecutive.
func candidates(base gen.Case, dist string) []gen.Case {
	var out []gen.Case
	cands := autotune.Space{}.Enumerate(base.Procs)
	for i := 0; i < len(cands); {
		c, m := base, cands[i].Mapping
		c.Name, c.Retarget, c.Points = base.Name+" "+m.String(), func(p *lang.Program) error { return autotune.Retarget(p, dist, m) }, nil
		for ; i < len(cands) && cands[i].Mapping == m; i++ {
			c.Points = append(c.Points, xform.Point{Mode: cands[i].Mode, Blk: cands[i].Blk})
		}
		out = append(out, c)
	}
	return out
}

// tapeBoth walks process me of a one-statement-list program on two processes
// with and without keys, into recorders that refuse their refuse-th send,
// and returns what both agree on.
func tapeBoth(t *testing.T, me, refuse int, body ...spmd.Stmt) (*exec.Lowered, *recorder, string) {
	t.Helper()
	low := exec.Lower(&spmd.Program{Name: "t", Proc: -1, Body: body})
	with, without := &recorder{procs: 2, refuse: refuse}, &recorder{procs: 2, refuse: refuse}
	err, ctl := low.Walk(me, with), exec.WithoutKeys(low).Walk(me, without)
	if errText(err) != errText(ctl) || !slices.Equal(with.spans(), without.spans()) || !slices.Equal(with.sends, without.sends) {
		t.Fatalf("walk with keys: error %q, spans %v; without: error %q, spans %v",
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

func TestKeyedLoopRule(t *testing.T) {
	c, v := expr.C, expr.V
	i := v("i")
	// fill names slots 2 … 64 after i's 1, so the next new name, k, takes
	// slot 65, which shares i's bit.
	var fill []spmd.Stmt
	for s := 2; s <= 64; s++ {
		fill = append(fill, assign(fmt.Sprintf("f%d", s), 0))
	}
	for _, tc := range []struct {
		name   string
		me     int
		refuse int
		body   []spmd.Stmt
		keys   []int // every For, in pre-order: its keys, -1 if not keyed
		sends  []int64
		err    string
	}{
		{name: "mod key",
			body: []spmd.Stmt{loop("i", 1, 5, sendTo(expr.Mod(i, c(2))))},
			keys: []int{1}, sends: []int64{1, 0, 1, 0, 1}},
		{name: "div key",
			body: []spmd.Stmt{loop("i", 1, 6, sendTo(expr.Div(expr.Sub(i, c(1)), c(3))))},
			keys: []int{1}, sends: []int64{0, 0, 0, 1, 1, 1}},
		// Three atoms read the index; the one that appears twice is one key.
		{name: "min and max keys",
			body: []spmd.Stmt{loop("i", 0, 4,
				sendTo(expr.Min(i, c(1))),
				&spmd.Guard{Proc: expr.Max(expr.Sub(c(2), i), c(0)), Body: []spmd.Stmt{sendTo(expr.Min(i, c(1)))}})},
			keys: []int{2}, sends: []int64{0, 1, 1, 1, 1, 1, 1, 1}},
		{name: "product key",
			body: []spmd.Stmt{assign("k", 1), loop("i", 0, 3, sendTo(expr.Mod(expr.Mul(i, v("k")), c(2))))},
			keys: []int{1}, sends: []int64{0, 1, 0, 1}},
		{name: "index read linearly",
			body: []spmd.Stmt{loop("i", 0, 3, &spmd.Guard{Proc: i, Body: []spmd.Stmt{sendTo(c(1))}})},
			keys: []int{-1}, sends: []int64{1}},
		{name: "key atom reading an exempt nested index",
			body: []spmd.Stmt{loop("i", 1, 2, loop("j", 0, 2, sendTo(expr.Mod(expr.Add(i, v("j")), c(2)))))},
			keys: []int{-1, 1}, sends: []int64{1, 0, 1, 0, 1, 0}},
		{name: "key atom reading another assigned slot",
			body: []spmd.Stmt{loop("i", 1, 3, assign("k", 1), sendTo(expr.Mod(expr.Add(i, v("k")), c(2))))},
			keys: []int{-1}, sends: []int64{0, 1, 0}},
		{name: "index read by AssignVar",
			body: []spmd.Stmt{loop("i", 1, 3, &spmd.AssignVar{Name: "t", Val: spmd.VInt{X: expr.Mod(i, c(2))}}, sendTo(c(1)))},
			keys: []int{-1}, sends: []int64{1, 1, 1}},
		{name: "index read by IfValue",
			body: []spmd.Stmt{loop("i", 1, 3, &spmd.IfValue{
				Cond: spmd.VBin{Op: lang.OpEq, L: spmd.VInt{X: expr.Mod(i, c(2))}, R: spmd.VConst{F: 1}}, Then: []spmd.Stmt{sendTo(c(1))}})},
			keys: []int{-1}, sends: []int64{1, 1}},
		// k takes slot 65 and i slot 1: one bit. An atom reading k, which
		// the loop leaves alone, touches i's bit and is no key.
		{name: "atom reading a slot 64 apart from the index",
			body: append(append([]spmd.Stmt{loop("i", 1, 1)}, fill...), assign("k", 3),
				loop("i", 1, 3, sendTo(expr.Mod(v("k"), c(2))))),
			keys: []int{0, -1}, sends: []int64{1, 1, 1}},
		{name: "zero-trip loop",
			body: []spmd.Stmt{loop("i", 1, 0, sendTo(expr.Mod(i, c(2))))},
			keys: []int{1}},
		{name: "one-trip loop",
			body: []spmd.Stmt{loop("i", 1, 1, sendTo(expr.Mod(i, c(2))))},
			keys: []int{1}, sends: []int64{1}},
		// 7 mod (4-i) is a key until i = 4, where it fails: the walk steps on
		// from there and fails at the send, after the send before it.
		{name: "key failing mid-loop",
			body: []spmd.Stmt{loop("i", 1, 5, sendTo(c(1)), sendTo(expr.Mod(c(7), expr.Sub(c(4), i))))},
			keys: []int{1}, sends: []int64{1, 1, 1, 1, 1, 0, 1}, err: "expr: mod by non-positive 0"},
		{name: "Sink refusing a played message", refuse: 2,
			body: []spmd.Stmt{loop("i", 1, 6, sendTo(expr.Div(expr.Sub(i, c(1)), c(3))))},
			keys: []int{1}, sends: []int64{0}, err: "send 2 refused"},
		// t is 1 after an iteration with i mod 2 = 1 and unknown after one
		// with 0. The last iteration's keys (1) are not the latest taped
		// (0), so it steps and leaves t = 1, which the send after the loop
		// reads; played, it would leave t unknown.
		{name: "last iteration's keys not the latest taped",
			body: []spmd.Stmt{
				loop("i", 1, 5, assign("t", 1), &spmd.Guard{Proc: expr.Mod(i, c(2)), Body: []spmd.Stmt{
					&spmd.ARead{Dst: "t", Array: "A", Idx: []expr.Expr{i}}}}),
				sendTo(v("t"))},
			keys: []int{1}, sends: []int64{1}},
		// Here the last iteration's keys are the latest taped, and the frame
		// is what its recording left: t unknown, so the send fails.
		{name: "last iteration's keys the latest taped",
			body: []spmd.Stmt{
				loop("i", 1, 4, assign("t", 1), &spmd.Guard{Proc: expr.Mod(i, c(2)), Body: []spmd.Stmt{
					&spmd.ARead{Dst: "t", Array: "A", Idx: []expr.Expr{i}}}}),
				sendTo(v("t"))},
			keys: []int{1}, err: `expr: unbound variable "t"`},
		// The keys decide which guard assigns s, and so which value the loop
		// leaves: iterations run keys A, B, A, C, and the frame after a
		// playback would hold what the latest recording (C) left, not the
		// last write (A's). Not keyed.
		{name: "keys deciding an assignment",
			body: []spmd.Stmt{
				loop("i", 0, 3,
					&spmd.Guard{Proc: expr.Add(expr.Mod(i, c(2)), expr.Div(i, c(3))), Body: []spmd.Stmt{assign("s", 1)}},
					&spmd.Guard{Proc: expr.Sub(expr.Add(expr.Mod(i, c(2)), expr.Div(i, c(3))), c(1)), Body: []spmd.Stmt{assign("s", 2)}}),
				sendTo(v("s"))},
			keys: []int{-1}, sends: []int64{1}},
		// The keys decide the nested loop's bound, 1, 2, 1, 0 (keys A, B,
		// A, Z), and so whether it assigns j and to what: stepped, it leaves
		// j = 1, and played, Z's recording would leave B's j = 2. Not keyed.
		{name: "keys deciding a nested loop's bounds",
			body: []spmd.Stmt{
				loop("i", 0, 3, &spmd.For{Var: "j", Lo: c(1), Step: c(1),
					Hi: expr.Sub(expr.Add(c(1), expr.Mod(i, c(2))), expr.Mul(c(2), expr.Div(i, c(3))))}),
				sendTo(v("j"))},
			keys: []int{-1, 0}, sends: []int64{1}},
		// The same as "keys deciding an assignment" with loops assigning j.
		{name: "keys deciding a nested loop",
			body: []spmd.Stmt{
				loop("i", 0, 3,
					&spmd.Guard{Proc: expr.Add(expr.Mod(i, c(2)), expr.Div(i, c(3))), Body: []spmd.Stmt{loop("j", 1, 1)}},
					&spmd.Guard{Proc: expr.Sub(expr.Add(expr.Mod(i, c(2)), expr.Div(i, c(3))), c(1)), Body: []spmd.Stmt{loop("j", 2, 2)}}),
				sendTo(v("j"))},
			keys: []int{-1, 0, 0}, sends: []int64{1}},
		// Under a guard the keys decide, a receive assigns: a walk leaves its
		// destination unknown whatever the keys, so the loop stays keyed.
		{name: "keys deciding a receive",
			body: []spmd.Stmt{
				loop("i", 1, 3, &spmd.Guard{Proc: expr.Mod(i, c(2)), Body: []spmd.Stmt{
					&spmd.Recv{Dst: "r", Src: c(1), Tag: 1}}}),
				sendTo(c(1))},
			keys: []int{1}, sends: []int64{1}},
		// Past maxTapes key vectors the rest of the loop steps.
		{name: "keys that never repeat", me: 1,
			body: []spmd.Stmt{loop("i", 1, 100, &spmd.Guard{Proc: expr.Mod(i, c(97)), Body: []spmd.Stmt{sendTo(c(0))}})},
			keys: []int{1}, sends: []int64{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			low, rec, err := tapeBoth(t, tc.me, tc.refuse, tc.body...)
			if got := exec.Keyed(low); !slices.Equal(got, tc.keys) {
				t.Errorf("keys %v, want %v", got, tc.keys)
			}
			if !slices.Equal(rec.sends, tc.sends) || err != tc.err {
				t.Errorf("sends to %v, error %q; want %v, %q", rec.sends, err, tc.sends, tc.err)
			}
		})
	}
}

// callCounter is a Sink that counts the calls reaching it, and the messages
// among them.
type callCounter struct{ procs, calls, msgs int }

func (c *callCounter) Procs() int                 { return c.procs }
func (c *callCounter) Ops(int64)                  { c.calls++ }
func (c *callCounter) Mem(int64)                  { c.calls++ }
func (c *callCounter) LoopStep()                  { c.calls++ }
func (c *callCounter) LoopSteps(int64)            { c.calls++ }
func (c *callCounter) Send(int, int64, int) error { c.calls++; c.msgs++; return nil }
func (c *callCounter) Recv(int, int64, int) error { c.calls++; c.msgs++; return nil }

// The charges of an opt3 Gauss-Seidel walk are linear in N with tapes. At
// block size N/4 process 1 of four receives and sends a fixed number of
// blocks per column and so makes a linear number of messages; every loop
// within a block is uniform, so with tapes each costs a fixed number of
// charges. Stepped, a block costs charges in proportion to its N/4 rows, and
// the walk's charges grow quadratically.
func TestUniformLoopsChargeInLinearHostWork(t *testing.T) {
	linearCharges(t, nil, func(n int64) xform.Point { return xform.Point{Mode: "opt3", Blk: n / 4} })
}

// The charges of a block2d(2x2) Gauss-Seidel walk at ctr are linear in N with
// keys. Process 1 owns a quarter of the grid, and every loop reads its index
// through the owner terms (j-1) div (N/2) only, so each loop has a fixed
// number of key vectors, each taped once, whatever N is; it sends and
// receives a linear number of boundary values. Stepped, every process walks
// all N² iterations, and the charges grow quadratically.
func TestKeyedLoopsChargeInLinearHostWork(t *testing.T) {
	m := autotune.Mapping{Kind: dist.KindBlock2D, PR: 2, PC: 2}
	linearCharges(t, &m, func(int64) xform.Point { return xform.Point{Mode: "ctr"} })
}

// linearCharges fails t unless the charges (the Sink calls that are not
// messages) of process 1's walk of Gauss-Seidel on four processes at N = 16,
// 32 and 64, retargeted to m unless it is nil and compiled at at(N), grow
// linearly in N with keys and faster without.
func linearCharges(t *testing.T, m *autotune.Mapping, at func(n int64) xform.Point) {
	t.Helper()
	const procs, me = 4, 1
	charges := func(n int64, undo bool) int {
		gs, err := compileGS(procs, n, m, at(n))
		if err != nil {
			t.Fatal(err)
		}
		low := exec.Lower(gs.Stages[0].Progs[me])
		if undo {
			low = exec.WithoutKeys(low)
		}
		c := &callCounter{procs: procs}
		if err := low.Walk(me, c); err != nil {
			t.Fatal(err)
		}
		return c.calls - c.msgs
	}
	for _, undo := range []bool{false, true} {
		c16, c32, c64 := charges(16, undo), charges(32, undo), charges(64, undo)
		t.Logf("keys undone %v: %d, %d, %d charges at N = 16, 32, 64", undo, c16, c32, c64)
		if grows := c64 - c32; undo && grows <= 2*(c32-c16) || !undo && grows != 2*(c32-c16) {
			t.Errorf("keys undone %v: %d, %d, %d charges at N = 16, 32, 64; want linear growth with keys, faster without",
				undo, c16, c32, c64)
		}
	}
}
