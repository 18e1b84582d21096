package exec_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/gen"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

// Loop-invariant control codes (memo.go). The memo must change how often the
// host evaluates a code and nothing else: the edge cases pin the invariance
// rule one row at a time, and the differential test holds every observable —
// walked actions, Stats, gathered outputs, error texts — to the same program
// with nothing memoized.

// recorder is a Sink that keeps every action it is handed, and the
// destinations of its sends apart. It refuses its refuse-th send, if any.
type recorder struct {
	procs  int
	log    []int64
	sends  []int64
	refuse int
}

func (r *recorder) Procs() int        { return r.procs }
func (r *recorder) Ops(n int64)       { r.log = append(r.log, 1, n) }
func (r *recorder) Mem(n int64)       { r.log = append(r.log, 2, n) }
func (r *recorder) LoopStep()         { r.log = append(r.log, 3) }
func (r *recorder) LoopSteps(n int64) { r.log = append(r.log, 6, n) }
func (r *recorder) Send(dst int, tag int64, values int) error {
	if len(r.sends)+1 == r.refuse {
		return fmt.Errorf("send %d refused", r.refuse)
	}
	r.log = append(r.log, 4, int64(dst), tag, int64(values))
	r.sends = append(r.sends, int64(dst))
	return nil
}
func (r *recorder) Recv(src int, tag int64, values int) error {
	r.log = append(r.log, 5, int64(src), tag, int64(values))
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// memoOf returns the decision for the one code of op.field in l.
func memoOf(t *testing.T, l *exec.Lowered, op, field string) exec.Memo {
	t.Helper()
	var found []exec.Memo
	for _, m := range exec.Memos(l) {
		if m.Op == op && m.Field == field {
			found = append(found, m)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s.%s: %d codes, want 1 (%v)", op, field, len(found), exec.Memos(l))
	}
	return found[0]
}

// walkBoth walks process 0 of a one-statement-list program with and without
// memos and returns the outcome both agree on.
func walkBoth(t *testing.T, body ...spmd.Stmt) (*exec.Lowered, *recorder, string) {
	t.Helper()
	low := exec.Lower(&spmd.Program{Name: "t", Proc: -1, Body: body})
	with, without := &recorder{procs: 2}, &recorder{procs: 2}
	err, ctl := low.Walk(0, with), exec.WithoutMemos(low).Walk(0, without)
	if errText(err) != errText(ctl) || !slices.Equal(with.log, without.log) {
		t.Fatalf("memoized walk: error %q, %d actions; unmemoized: error %q, %d actions",
			errText(err), len(with.log), errText(ctl), len(without.log))
	}
	return low, with, errText(err)
}

func loop(v string, lo, hi int64, body ...spmd.Stmt) *spmd.For {
	return &spmd.For{Var: v, Lo: expr.C(lo), Hi: expr.C(hi), Step: expr.C(1), Body: body}
}

func sendTo(dst expr.Expr) *spmd.Send {
	return &spmd.Send{Dst: dst, Tag: 1, Val: spmd.VConst{F: 1}}
}

func assign(name string, v int64) *spmd.AssignVar {
	return &spmd.AssignVar{Name: name, Val: spmd.VConst{F: float64(v)}}
}

func TestMemoEdgeCases(t *testing.T) {
	// Only codes with something to compute are memoized (a linear one costs
	// what reading its memo would), so the codes under test take a mod.
	nope := expr.Mod(expr.V("nope"), expr.C(4)) // never bound: evaluating it fails
	bad := expr.Mod(expr.V("k"), expr.V("z"))
	k := expr.Mod(expr.V("k"), expr.C(4))

	t.Run("zero-trip loop never evaluates its invariant code", func(t *testing.T) {
		low, _, err := walkBoth(t, loop("i", 1, 0, sendTo(nope)))
		if m := memoOf(t, low, "send", "x"); !m.Memoized || err != "" {
			t.Errorf("%v, error %q; want memoized and no error", m, err)
		}
	})
	t.Run("false guard never evaluates its invariant code", func(t *testing.T) {
		low, _, err := walkBoth(t, loop("i", 1, 3, &spmd.Guard{Proc: expr.C(1), Body: []spmd.Stmt{sendTo(nope)}}))
		if m := memoOf(t, low, "send", "x"); !m.Memoized || err != "" {
			t.Errorf("%v, error %q; want memoized and no error", m, err)
		}
	})
	t.Run("failing invariant code reports the parent's text", func(t *testing.T) {
		body := []spmd.Stmt{assign("k", 1), assign("z", 0),
			loop("i", 1, 3, &spmd.Guard{Proc: expr.C(0), Body: []spmd.Stmt{sendTo(bad)}})}
		low, _, err := walkBoth(t, body...)
		if m := memoOf(t, low, "send", "x"); !m.Memoized || err != "expr: mod by non-positive 0" {
			t.Errorf("walk: %v, error %q; want memoized and the mod error", m, err)
		}
		p := &spmd.Program{Name: "t", Proc: -1, Body: body}
		_, rerr := exec.RunSPMD([]*spmd.Program{p}, machine.DefaultConfig(2), nil)
		if want := "machine: process 0 failed: process 0: expr: mod by non-positive 0"; errText(rerr) != want {
			t.Errorf("run: error %q, want %q", rerr, want)
		}
	})
	t.Run("slot assigned after its use", func(t *testing.T) {
		low, rec, err := walkBoth(t, assign("k", 0),
			loop("i", 1, 3, sendTo(k), &spmd.AssignVar{Name: "k", Val: spmd.VInt{X: expr.V("i")}}))
		if m := memoOf(t, low, "send", "x"); m.Memoized || err != "" {
			t.Errorf("%v, error %q; want not memoized and no error", m, err)
		}
		if got := rec.sends; !slices.Equal(got, []int64{0, 1, 2}) {
			t.Errorf("sends to %v, want [0 1 2]: k before each iteration's assignment", got)
		}
	})
	// Each of these assigns k somewhere inside the loop, and only there.
	for _, tc := range []struct {
		name   string
		assign spmd.Stmt
	}{
		{"only in a nested loop", loop("m", 1, 1, assign("k", 1))},
		{"only in an IfValue else arm", &spmd.IfValue{Cond: spmd.VConst{F: 1}, Else: []spmd.Stmt{assign("k", 1)}}},
		{"by a Coerce dst", &spmd.Coerce{Dst: "k", Var: "s", OwnerAll: true, NeederAll: true, Tag: 2}},
		{"by a Recv", &spmd.Recv{Dst: "k", Src: expr.C(1), Tag: 2}},
	} {
		t.Run("slot assigned "+tc.name, func(t *testing.T) {
			low := exec.Lower(&spmd.Program{Name: "t", Proc: -1, Body: []spmd.Stmt{
				assign("k", 0), loop("i", 1, 3, sendTo(k), tc.assign)}})
			if m := memoOf(t, low, "send", "x"); m.Memoized {
				t.Errorf("%v, want not memoized", m)
			}
		})
	}
	t.Run("linear invariant code", func(t *testing.T) {
		low, _, _ := walkBoth(t, assign("k", 1), loop("i", 1, 3, sendTo(expr.Add(expr.V("k"), expr.C(1)))))
		if m := memoOf(t, low, "send", "x"); m.Memoized {
			t.Errorf("%v, want not memoized", m)
		}
	})
	t.Run("slot assigned only before the loop", func(t *testing.T) {
		low, rec, _ := walkBoth(t, assign("k", 1), loop("i", 1, 3, sendTo(k)), assign("k", 0))
		if m := memoOf(t, low, "send", "x"); !m.Memoized {
			t.Errorf("%v, want memoized", m)
		}
		if got := rec.sends; !slices.Equal(got, []int64{1, 1, 1}) {
			t.Errorf("sends to %v, want [1 1 1]", got)
		}
	})
}

// Under run-time resolution Gauss-Seidel's inner loop runs over rows: every
// coerce's owner and needer, the owner-computes guard and every column
// subscript depend on the column index only and are memoized; the row
// subscripts change every iteration and are not.
func TestMemoDecisionsGaussSeidelRTR(t *testing.T) {
	progs, err := bench.CompileGS(bench.RunTime, 4, 16, bench.DefaultBlk)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, m := range exec.Memos(exec.Lower(progs[0])) {
		if m.Depth != 2 {
			continue
		}
		key := m.Op + "." + m.Field
		seen[key]++
		if want := m.Field != "lo"; m.Memoized != want {
			t.Errorf("inner loop %v, want memoized=%v", m, want)
		}
	}
	want := map[string]int{"coerce.lo": 4, "coerce.hi": 4, "coerce.x": 4, "coerce.y": 4,
		"guard.x": 1, "awrite.lo": 1, "awrite.hi": 1}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("inner-loop control codes %v, want %v", seen, want)
	}
}

// Lowering allocates what it does without memo slots, plus two allocations
// per loop with keys (keyed.go): its keys' code and their terms. The analyses
// walk the tree they built and keep their state on the stack. The base counts
// are those of the lowering alone, for the RTR program and for process 0's
// opt3 program (blk 4), both at N=16, S=4. They were 155 and 219 when memo
// slots came (b14db00), and fell to 114 and 147 when one expression-code
// table came to serve a whole image: a value compiles once, and a small
// constant not at all.
func TestLowerAllocsUnchangedByMemo(t *testing.T) {
	for _, tc := range []struct {
		v    bench.Variant
		base float64
	}{{bench.RunTime, 114}, {bench.OptimizedIII, 147}} {
		progs, err := bench.CompileGS(tc.v, 4, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.base
		for _, n := range exec.Keyed(exec.Lower(progs[0])) {
			if n > 0 {
				want += 2
			}
		}
		if got := testing.AllocsPerRun(20, func() { exec.Lower(progs[0]) }); got != want {
			t.Errorf("Lower(%v): %.0f allocations, want %.0f", tc.v, got, want)
		}
		t.Logf("Lower(%v): %.0f allocations, %.0f of them keys", tc.v, want, want-tc.base)
	}
}

// The processes of an image share one Code per expression value. GS opt3 at
// S=32 specializes one generic program 32 ways. Processes 0 and 31 keep its
// interior row loop's upper bound, N-1, a constant whose Code every image
// shares, and its stencil reads' row subscripts, such as i-1, which the
// image's table compiles once.
func TestImageSharesCodes(t *testing.T) {
	const procs, n = 32, 64
	progs, err := bench.CompileGS(bench.OptimizedIII, procs, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	im, err := exec.LowerAll(progs, procs)
	if err != nil {
		t.Fatal(err)
	}
	// shared lists the codes in field f of op's statements that processes 0
	// and procs-1 both hold.
	shared := func(op string, f int) []*expr.Code {
		first := map[*expr.Code]bool{}
		for _, cs := range im.Codes(0, op) {
			first[cs[f]] = cs[f] != nil
		}
		var out []*expr.Code
		for _, cs := range im.Codes(procs-1, op) {
			if first[cs[f]] {
				out = append(out, cs[f])
			}
		}
		return out
	}
	if !slices.ContainsFunc(shared("for", 1), func(c *expr.Code) bool {
		v, err := c.Eval(&expr.Frame{})
		return c.Terms() == 0 && err == nil && v == n-1
	}) {
		t.Errorf("processes 0 and %d hold the row loop's bound %d as two Codes", procs-1, n-1)
	}
	if !slices.ContainsFunc(shared("aread", 0), func(c *expr.Code) bool { return c.Terms() > 0 }) {
		t.Errorf("processes 0 and %d hold no row subscript of a read as one Code", procs-1)
	}
}

// spans is a walk as autotune's recorder sees it: each message, and the
// operations, accesses and loop steps charged between two messages summed
// into one compute span. The span keeps the three counts apart, so no cost
// table can hide a charge moved from one kind to another.
func (r *recorder) spans() []int64 {
	var out []int64
	var ops, mem, steps int64
	flush := func() {
		if ops|mem|steps != 0 {
			out = append(out, 0, ops, mem, steps)
			ops, mem, steps = 0, 0, 0
		}
	}
	for i := 0; i < len(r.log); {
		switch r.log[i] {
		case 1:
			ops += r.log[i+1]
			i += 2
		case 2:
			mem += r.log[i+1]
			i += 2
		case 3:
			steps++
			i++
		case 6:
			steps += r.log[i+1]
			i += 2
		default: // a message: kind, peer, tag, values
			flush()
			out = append(out, r.log[i:i+4]...)
			i += 4
		}
	}
	flush()
	return out
}

// A control is what a differential test holds a lowered image to: the same
// image with one lowering decision undone, run by the same stepper, and the
// view of a walk on which the two must agree.
type control struct {
	undone string
	undo   func(*exec.Image) *exec.Image
	walked func(*recorder) []int64
}

var (
	// Memos change how often a code is evaluated, never a charge: the walks
	// agree call by call.
	noMemos = control{undone: "memos", undo: (*exec.Image).WithoutMemos, walked: func(r *recorder) []int64 { return r.log }}
	// Keys make one charge of many, and play messages back: the walks agree
	// span by span, so on every charge's sum too. Undone, they undo the
	// machine's bulk charge of a uniform loop as well.
	noKeys = control{undone: "keys", undo: (*exec.Image).WithoutKeys, walked: (*recorder).spans}
)

// The memo is the only variable: every image of the differential corpus
// walks, runs, traces, fails and gathers exactly alike with and without it.
func TestMemoIsInvisible(t *testing.T) { invisible(t, noMemos) }

// invisible fails t on each difference the differential sweep found between
// an image and its control under c, and returns the sweep.
func invisible(t *testing.T, c control) *sweep {
	t.Helper()
	sw, err := differential()
	if err != nil {
		t.Fatal(err)
	}
	for _, diff := range sw.diffs[c.undone] {
		t.Error(diff)
	}
	t.Logf("%d distinct images: %d walks stopped, %d runs failed, each alike on both sides", sw.images, sw.stopped, sw.failedRun)
	return sw
}

// A sweep is the differential corpus held to both controls.
type sweep struct {
	diffs     map[string][]string // each control's differences, by what it undoes
	images    int
	stopped   int   // images whose walk stopped: both sides must stop alike
	failedRun int   // images whose run failed: both sides must fail alike
	bulk      int64 // loops the lowered images' runs charged in bulk
}

// differential sweeps the differential corpus once per test binary: the
// compiled variants of Fig. 6 at S ∈ {1, 2, 4, 8, 32}, N ∈ {8, 16}; Jacobi,
// heat and reversed Gauss-Seidel at S ∈ {2, 4}; every candidate pdmap
// enumerates for Gauss-Seidel at N=16, S=4 (no candidate is skipped for being
// unmodeled or infeasible: at this size all 66 compile and walk, and
// pdmap_gs_s4_n24.json has none of either kind at N=24 too); and gen's
// corpus, each case on its own machine. Exactly one run fails: heat's on a
// fully defined input, whose first boundary write is a second one, and both
// sides must fail with the same words.
var differential = sync.OnceValues(func() (*sweep, error) {
	sw := &sweep{diffs: map[string][]string{}}
	n16, heat := map[string]int64{"N": 16}, map[string]int64{"T": 16, "W": 16}
	var cases []gen.Case
	for _, s := range []int{1, 2, 4, 8, 32} {
		for _, n := range []int64{8, 16} {
			cases = append(cases, gen.Case{Name: fmt.Sprintf("gs N=%d", n), Src: bench.GSSource, Entry: "gs_iteration",
				Procs: s, Blk: bench.DefaultBlk, Defines: map[string]int64{"N": n}})
		}
	}
	for _, s := range []int{2, 4} {
		cases = append(cases,
			gen.Case{Name: "jacobi", Src: jacobiSource, Entry: "jacobi", Procs: s, Blk: 4},
			gen.Case{Name: "heat", Src: heatSource, Entry: "heat", Procs: s, Blk: 4, Defines: heat},
			gen.Case{Name: "gs-reversed", Src: bench.GSReversedSource, Entry: "gs_iteration", Procs: s, Blk: 4, Defines: n16})
	}
	cases = append(cases, gen.Case{Name: "heat on a defined input", Src: heatSource, Entry: "heat", Procs: 2, Defines: heat,
		Points: []xform.Point{{Mode: "rtr"}}})
	cases = append(cases, candidates(gen.Case{Name: "pdmap", Src: bench.GSSource, Entry: "gs_iteration", Procs: 4, Defines: n16}, "Column")...)
	var compiled []*gen.Compiled
	for _, c := range cases {
		cc, err := gen.Compile(c)
		if err != nil {
			return nil, fmt.Errorf("%s S=%d: %w", c.Name, c.Procs, err)
		}
		if c.Name == "heat" {
			cc.Inputs = map[string]*istruct.Matrix{"U": rod(16, 16)}
		}
		compiled = append(compiled, cc)
	}
	corpus, err := gen.CompiledCorpus()
	if err != nil {
		return nil, err
	}
	for _, c := range append(compiled, corpus...) {
		for i, pt := range c.Points {
			name := fmt.Sprintf("%s S=%d %s", c.Name, c.Procs, gen.Label(pt))
			if err := c.Stages[i].Err; err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if c.First[i] != i {
				continue
			}
			if err := sw.differ(name, c.Images[i], c.Config(), c.Inputs); err != nil {
				return nil, err
			}
		}
	}
	if sw.failedRun != 1 || sw.stopped == 0 {
		return nil, fmt.Errorf("%d runs failed, want 1: heat's on a defined input; %d walks stopped, want some", sw.failedRun, sw.stopped)
	}
	return sw, nil
})

// differ holds im, walked and run traced under cfg on ins, to each control:
// the lowered side's run is made once, and its traces, Stats, outputs and
// error text are compared with each control's. It records each difference
// under its control, and what the lowered side's walks and runs did; an
// error is a counted run that failed where the traced one did not.
func (sw *sweep) differ(name string, im *exec.Image, cfg machine.Config, ins map[string]*istruct.Matrix) error {
	sw.images++
	oa, ta, ea := tracedRun(im, cfg, ins)
	stopped := false
	for _, c := range []control{noMemos, noKeys} {
		ctl := c.undo(im)
		_, s, err := walksAlike(im, ctl, cfg.Procs, c)
		if err == nil {
			err = sameRun(oa, ta, ea, ctl, cfg, ins)
		}
		if err != nil {
			sw.diffs[c.undone] = append(sw.diffs[c.undone], fmt.Sprintf("%s without %s: %v", name, c.undone, err))
		}
		stopped = stopped || s
	}
	if stopped {
		sw.stopped++
	}
	if ea != nil {
		sw.failedRun++
		return nil
	}
	charges, err := im.RunCharges(cfg, ins)
	for _, ch := range charges {
		sw.bulk += ch.Bulk
	}
	if err != nil {
		return fmt.Errorf("%s: counted run: %w", name, err)
	}
	return nil
}

// sameRun runs ctl traced under cfg on ins and returns its first difference
// from the run that returned oa, ta and ea: error text, then wire events and
// each process's trace (a failing run's too), then Stats and outputs.
func sameRun(oa *exec.SPMDOutcome, ta *trace.Log, ea error, ctl *exec.Image, cfg machine.Config, ins map[string]*istruct.Matrix) error {
	ob, tb, eb := tracedRun(ctl, cfg, ins)
	if errText(ea) != errText(eb) {
		return fmt.Errorf("run error %q, the control's %q", errText(ea), errText(eb))
	}
	if !slices.Equal(ta.WireEvents(), tb.WireEvents()) {
		return fmt.Errorf("wire events differ")
	}
	for p := 0; p < cfg.Procs; p++ {
		if !slices.Equal(ta.Events(p), tb.Events(p)) {
			return fmt.Errorf("process %d traces differently", p)
		}
	}
	if ea != nil {
		return nil
	}
	return sameOutcome(oa, ob)
}

// walksAlike walks every process of im and of its control ctl and returns an
// error unless c's view of the walks and their errors agree. It returns the
// Sink calls of both sides' walks, and whether the walks stopped.
func walksAlike(im, ctl *exec.Image, procs int, c control) (calls [2]int, stopped bool, err error) {
	for p := 0; p < procs; p++ {
		a, b := &recorder{procs: procs}, &recorder{procs: procs}
		ea, eb := im.Walk(p, a), ctl.Walk(p, b)
		if errText(ea) != errText(eb) || !slices.Equal(c.walked(a), c.walked(b)) {
			return calls, false, fmt.Errorf("process %d walks differently: with %s %q, %d actions; without %q, %d actions",
				p, c.undone, errText(ea), len(c.walked(a)), errText(eb), len(c.walked(b)))
		}
		calls[0] += a.calls()
		calls[1] += b.calls()
		stopped = stopped || ea != nil
	}
	return calls, stopped, nil
}

// calls counts the Sink calls r was handed: its log holds each call as its
// kind (1 Ops, 2 Mem, 3 LoopStep, 4 Send, 5 Recv, 6 LoopSteps) and arguments.
func (r *recorder) calls() (n int) {
	for i := 0; i < len(r.log); i += [...]int{1: 2, 2: 2, 3: 1, 4: 4, 5: 4, 6: 2}[r.log[i]] {
		n++
	}
	return n
}

// tracedRun runs im under cfg with a fresh tracer.
func tracedRun(im *exec.Image, cfg machine.Config, ins map[string]*istruct.Matrix) (*exec.SPMDOutcome, *trace.Log, error) {
	cfg.Tracer = trace.New()
	out, err := im.Run(context.Background(), cfg, ins)
	return out, cfg.Tracer, err
}

// sameOutcome returns an error unless two runs' Stats, scalars and gathered
// arrays are identical.
func sameOutcome(oa, ob *exec.SPMDOutcome) error {
	if !reflect.DeepEqual(oa.Stats, ob.Stats) || !reflect.DeepEqual(oa.Scalars, ob.Scalars) || len(oa.Arrays) != len(ob.Arrays) {
		return fmt.Errorf("run %+v, control %+v", oa.Stats, ob.Stats)
	}
	for n, ma := range oa.Arrays {
		va, da := ma.Snapshot()
		vb, db := ob.Arrays[n].Snapshot()
		if !reflect.DeepEqual(va, vb) || !reflect.DeepEqual(da, db) {
			return fmt.Errorf("output %s differs from the control's", n)
		}
	}
	return nil
}

// compileGS compiles Gauss-Seidel at one point for procs processes and grid
// size n, retargeted to m unless it is nil.
func compileGS(procs int, n int64, m *autotune.Mapping, pt xform.Point) (*gen.Compiled, error) {
	c := gen.Case{Src: bench.GSSource, Entry: "gs_iteration", Procs: procs, Defines: map[string]int64{"N": n}, Points: []xform.Point{pt}}
	if m != nil {
		c.Retarget = func(p *lang.Program) error { return autotune.Retarget(p, "Column", *m) }
	}
	return gen.Compile(c)
}

// rod is heat's input: row 1 defined, a hot spot in the middle.
func rod(steps, width int64) *istruct.Matrix {
	m, err := istruct.NewMatrix("U", steps, width)
	for x := int64(1); x <= width && err == nil; x++ {
		v := 0.0
		if x > width/3 && x < 2*width/3 {
			v = 100.0
		}
		err = m.Write(1, x, v)
	}
	if err != nil {
		panic(err)
	}
	return m
}
