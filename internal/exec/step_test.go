package exec

import (
	"context"
	"testing"
	"unsafe"

	"procdecomp/internal/expr"
	"procdecomp/internal/golden"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// The concrete domain's user-visible failures, pinned to the text a run
// reports: each names the process twice (the machine's frame, then the
// interpreter's) and the offending object.
func TestConcreteFailureMessages(t *testing.T) {
	c := expr.C
	one := spmd.VConst{F: 1}
	on := func(p int64, body ...spmd.Stmt) spmd.Stmt { return &spmd.Guard{Proc: c(p), Body: body} }
	cases := []struct {
		name string
		body []spmd.Stmt
		want string
	}{
		{"undefined array",
			[]spmd.Stmt{on(0, &spmd.ARead{Dst: "t", Array: "B", Idx: []expr.Expr{c(1), c(1)}})},
			"machine: process 0 failed: process 0: undefined array B"},
		{"undefined buffer",
			[]spmd.Stmt{on(0, &spmd.BufRead{Dst: "t", Buf: "b", Idx: c(1)})},
			"machine: process 0 failed: process 0: undefined buffer b"},
		{"undefined variable",
			[]spmd.Stmt{on(0, &spmd.AssignVar{Name: "x", Val: spmd.VVar{Name: "nope"}})},
			"machine: process 0 failed: process 0: undefined variable nope"},
		{"buffer index out of range",
			[]spmd.Stmt{on(0,
				&spmd.AllocBuf{Buf: "b", Size: c(2)},
				&spmd.BufWrite{Buf: "b", Idx: c(3), Val: one})},
			"machine: process 0 failed: process 0: buffer b index 3 out of range [1,2]"},
		{"block receive length mismatch",
			[]spmd.Stmt{
				on(0,
					&spmd.AllocBuf{Buf: "b", Size: c(2)},
					&spmd.BufWrite{Buf: "b", Idx: c(1), Val: one},
					&spmd.BufWrite{Buf: "b", Idx: c(2), Val: one},
					&spmd.SendBuf{Dst: c(1), Tag: 1, Buf: "b", Lo: c(1), Hi: c(2)}),
				on(1,
					&spmd.AllocBuf{Buf: "b", Size: c(3)},
					&spmd.RecvBuf{Src: c(0), Tag: 1, Buf: "b", Lo: c(1), Hi: c(3)})},
			"machine: process 1 failed: process 1: block receive of 2 values into b[1..3]"},
		{"loop step 0",
			[]spmd.Stmt{on(0, &spmd.For{Var: "i", Lo: c(1), Hi: c(2), Step: c(0)})},
			"machine: process 0 failed: process 0: loop step 0"},
		{"coerce of undefined scalar",
			[]spmd.Stmt{on(0, &spmd.Coerce{Dst: "t", Var: "x", OwnerAll: true, NeederAll: true, Tag: 1})},
			"machine: process 0 failed: process 0: coerce of undefined scalar x"},
	}
	for _, tc := range cases {
		p := &spmd.Program{Name: "t", Proc: -1, Body: tc.body}
		_, err := RunSPMD([]*spmd.Program{p}, machine.DefaultConfig(2), nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

// A malformed block transfer or buffer size is refused by the stepper, so a
// walk and a run fail at the same step with the same words; a run used to die
// on a Go runtime error instead (a slice bound, makeslice).
func TestMalformedBuffersFailAlikeOnBothDomains(t *testing.T) {
	c := expr.C
	alloc := &spmd.AllocBuf{Buf: "B", Size: c(6)}
	for _, tc := range []struct {
		name string
		body []spmd.Stmt
		want string
	}{
		{"block send of an empty range",
			[]spmd.Stmt{alloc, &spmd.SendBuf{Dst: c(1), Tag: 1, Buf: "B", Lo: c(5), Hi: c(3)}},
			"block send of B[5..3]"},
		{"block receive into an empty range",
			[]spmd.Stmt{alloc, &spmd.RecvBuf{Src: c(1), Tag: 1, Buf: "B", Lo: c(5), Hi: c(3)}},
			"block receive into B[5..3]"},
		{"buffer of negative size",
			[]spmd.Stmt{&spmd.AllocBuf{Buf: "B", Size: c(-3)}, &spmd.BufWrite{Buf: "B", Idx: c(1), Val: spmd.VConst{F: 1}}},
			"buffer B of size -3"},
	} {
		p := &spmd.Program{Name: "t", Proc: -1, Body: []spmd.Stmt{&spmd.Guard{Proc: c(0), Body: tc.body}}}
		if err := Lower(p).Walk(0, nullSink{procs: 2}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: walk error %v, want %q", tc.name, err, tc.want)
		}
		_, err := RunSPMD([]*spmd.Program{p}, machine.DefaultConfig(2), nil)
		if want := "machine: process 0 failed: process 0: " + tc.want; err == nil || err.Error() != want {
			t.Errorf("%s: run error %v, want %q", tc.name, err, want)
		}
	}
}

// The stepper walks slices of lstmt, and a lowering's bytes are part of every
// search candidate's: the memo index and mask fit in what the three coerce
// bools and a 64-bit operator count used to take.
func TestLoweredStatementSize(t *testing.T) {
	if n := unsafe.Sizeof(lstmt{}); n > 120 {
		t.Errorf("lstmt is %d bytes, want at most 120", n)
	}
}

// nullSink accepts every charge and message.
type nullSink struct{ procs int }

func (s nullSink) Procs() int               { return s.procs }
func (nullSink) Ops(int64)                  {}
func (nullSink) Mem(int64)                  {}
func (nullSink) LoopStep()                  {}
func (nullSink) LoopSteps(int64)            {}
func (nullSink) Send(int, int64, int) error { return nil }
func (nullSink) Recv(int, int64, int) error { return nil }

// An abstract run has no data: a branch on an array element is the one thing
// it cannot decide, and it says so instead of guessing; a branch on a value
// it can compute is taken as a real run would take it.
func TestWalkRefusesBranchOnData(t *testing.T) {
	idx := []expr.Expr{expr.C(1), expr.C(1)}
	branch := func(cond spmd.VExpr) *spmd.Program {
		return &spmd.Program{Name: "t", Proc: -1, Body: []spmd.Stmt{
			&spmd.Alloc{Array: "A", Shape: []expr.Expr{expr.C(2), expr.C(2)}},
			&spmd.AWrite{Array: "A", Idx: idx, Val: spmd.VConst{F: 1}},
			&spmd.ARead{Dst: "t1", Array: "A", Idx: idx},
			&spmd.AssignVar{Name: "k", Val: spmd.VConst{F: 0}},
			&spmd.IfValue{Cond: cond, Else: []spmd.Stmt{
				&spmd.Send{Dst: expr.C(9), Tag: 1, Val: spmd.VConst{F: 1}},
			}},
		}}
	}
	err := Lower(branch(spmd.VVar{Name: "t1"})).Walk(0, nullSink{procs: 2})
	if err == nil || err.Error() != "branch on a computed value" {
		t.Errorf("branch on an ARead result: error %v, want \"branch on a computed value\"", err)
	}
	// k is known to be 0, so the Else arm runs and its send reaches the sink.
	sent := 0
	err = Lower(branch(spmd.VVar{Name: "k"})).Walk(0, sendCounter{nullSink{procs: 2}, &sent})
	if err != nil || sent != 1 {
		t.Errorf("branch on a known value: error %v, %d send(s); want the Else arm's one send", err, sent)
	}
}

type sendCounter struct {
	nullSink
	n *int
}

func (s sendCounter) Send(int, int64, int) error { *s.n++; return nil }

// stepLoop is a communication-free loop of the four statements that make up
// the inner loops the compiler emits: it reads A[i], computes on it, and
// writes the result to B[i] and to a buffer.
func stepLoop(trips int64) *spmd.Program {
	const size = 1000
	c, i := expr.C, expr.V("i")
	vec := func(name string) spmd.Stmt { return &spmd.Alloc{Array: name, Shape: []expr.Expr{c(size)}} }
	return &spmd.Program{Name: "t", Proc: -1, Body: []spmd.Stmt{
		vec("A"), vec("B"),
		&spmd.AllocBuf{Buf: "b", Size: c(size)},
		&spmd.For{Var: "i", Lo: c(1), Hi: c(size), Step: c(1), Body: []spmd.Stmt{
			&spmd.AWrite{Array: "A", Idx: []expr.Expr{i}, Val: spmd.VInt{X: i}},
		}},
		&spmd.For{Var: "i", Lo: c(1), Hi: c(trips), Step: c(1), Body: []spmd.Stmt{
			&spmd.ARead{Dst: "t1", Array: "A", Idx: []expr.Expr{i}},
			&spmd.AssignVar{Name: "t2", Val: spmd.VBin{Op: lang.OpMul, L: spmd.VVar{Name: "t1"}, R: spmd.VConst{F: 2}}},
			&spmd.AWrite{Array: "B", Idx: []expr.Expr{expr.Add(expr.Mod(i, c(size)), c(1))}, Val: spmd.VVar{Name: "t2"}},
			&spmd.BufWrite{Buf: "b", Idx: i, Val: spmd.VVar{Name: "t2"}},
		}},
	}}
}

// Stepping allocates nothing: a run's allocations are its set-up (the frame,
// the machine), so a loop of 1,000 trips allocates exactly what a
// loop of 10 does — in the abstract domain, where every t1 is unknown, and
// in the concrete one on a one-process machine. The walk's half does not run
// under the race detector, which drops sync.Pool puts at random: a walk's
// tapes come from a pool.
func TestSteppingDoesNotAllocate(t *testing.T) {
	walk := func(trips int64) float64 {
		low := Lower(stepLoop(trips))
		return testing.AllocsPerRun(10, func() {
			if err := low.Walk(0, nullSink{procs: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := walk(10), walk(1000); a != b && !golden.RaceEnabled {
		t.Errorf("abstract walk: %.0f allocations at 10 trips, %.0f at 1,000", a, b)
	}
	run := func(trips int64) float64 {
		im, err := LowerAll([]*spmd.Program{stepLoop(trips)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := im.Run(context.Background(), machine.DefaultConfig(1), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := run(10), run(1000); a != b {
		t.Errorf("concrete run: %.0f allocations at 10 trips, %.0f at 1,000", a, b)
	}
}
