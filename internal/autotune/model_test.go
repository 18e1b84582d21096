package autotune

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/expr"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// wrapSource is Gauss-Seidel with a subscript call on the row dimension:
// under a mapping that splits rows, run-time resolution coerces the call's
// result to every process and the owner code reads it, which a walk, with no
// data, cannot follow.
var wrapSource = strings.Replace(strings.Replace(bench.GSSource,
	"Old[i + 1, j]", "Old[wrap(i + 1), j]", 1),
	"proc gs_iteration", "proc wrap(k: int): int {\n  return k mod N + 1;\n}\n\nproc gs_iteration", 1)

// What the walk cannot decide, and what the recorder refuses, both surface
// as *ErrUnmodeled naming the process, with the bare reason a report prints
// as the candidate's Note; a matched profile that cannot run is a plain error.
// A search measures what the walk cannot decide instead of modeling it.
func TestBuildProfileFailures(t *testing.T) {
	c := expr.C
	idx := []expr.Expr{c(1), c(1)}
	on := func(p int64, body ...spmd.Stmt) spmd.Stmt { return &spmd.Guard{Proc: c(p), Body: body} }
	unmodeled := []struct {
		name   string
		body   []spmd.Stmt
		proc   int
		reason string
	}{
		{"branch on an ARead result",
			[]spmd.Stmt{on(1,
				&spmd.ARead{Dst: "t1", Array: "A", Idx: idx},
				&spmd.IfValue{Cond: spmd.VVar{Name: "t1"}})},
			1, "branch on a computed value"},
		{"send out of the machine",
			[]spmd.Stmt{on(0, &spmd.Send{Dst: c(9), Tag: 1, Val: spmd.VConst{F: 1}})},
			0, "send to processor 9 out of range [0,2)"},
		{"receive from out of the machine",
			[]spmd.Stmt{on(1, &spmd.Recv{Src: c(-1), Tag: 1, Dst: "t1"})},
			1, "recv from processor -1 out of range [0,2)"},
		{"empty block send",
			[]spmd.Stmt{on(0, &spmd.SendBuf{Dst: c(1), Tag: 1, Buf: "b", Lo: c(3), Hi: c(2)})},
			0, "block send of b[3..2]"},
		{"loop bound on data",
			[]spmd.Stmt{on(0,
				&spmd.ARead{Dst: "t1", Array: "A", Idx: idx},
				&spmd.For{Var: "i", Lo: c(1), Hi: expr.V("t1"), Step: c(1)})},
			0, `expr: unbound variable "t1"`},
	}
	cfg := machine.DefaultConfig(2)
	for _, tc := range unmodeled {
		_, err := BuildProfile([]*spmd.Program{{Name: "t", Proc: -1, Body: tc.body}}, cfg)
		var um *ErrUnmodeled
		if !errors.As(err, &um) || um.Proc != tc.proc || um.Reason != tc.reason {
			t.Errorf("%s: error %v, want ErrUnmodeled{Proc: %d, Reason: %q}", tc.name, err, tc.proc, tc.reason)
		}
	}

	plain := []struct {
		name string
		body []spmd.Stmt
		want string
	}{
		{"receive with no send",
			[]spmd.Stmt{on(1, &spmd.Recv{Src: c(0), Tag: 7, Dst: "t1"})},
			"candidate deadlocks: 1 receive(s) on 0->1 tag 7 have no matching send"},
		{"block receive of the wrong length",
			[]spmd.Stmt{
				on(0, &spmd.SendBuf{Dst: c(1), Tag: 1, Buf: "b", Lo: c(1), Hi: c(2)}),
				on(1, &spmd.RecvBuf{Src: c(0), Tag: 1, Buf: "b", Lo: c(1), Hi: c(3)})},
			"block receive on 0->1 tag 1 expects 3 values, send carries 2"},
	}
	for _, tc := range plain {
		_, err := BuildProfile([]*spmd.Program{{Name: "t", Proc: -1, Body: tc.body}}, cfg)
		var um *ErrUnmodeled
		if err == nil || errors.As(err, &um) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a plain error containing %q", tc.name, err, tc.want)
		}
	}

	// Only the run-time resolution of a mapping that splits rows stops the
	// walk, at the coerced call (the stencil's third coerced term); its
	// compile-time points model, and nothing is infeasible.
	w := &Workload{Name: "gs-wrap", Source: wrapSource, Entry: "gs_iteration", Dist: "Column", Defines: map[string]int64{"N": 16}}
	rep, err := Search(w, machine.DefaultConfig(4), Options{})
	if err != nil {
		t.Fatalf("the search of a program the walk cannot follow everywhere failed: %v", err)
	}
	const note = `expr: unbound variable "t3"`
	var got []string
	for _, r := range rep.Results {
		switch {
		case r.Unmodeled:
			got = append(got, r.Candidate.Key())
			if r.Status != StatusMeasured || r.Note != note {
				t.Errorf("%s: %s with note %q, want %s with note %q", r.Candidate.Key(), r.Status, r.Note, StatusMeasured, note)
			}
		case r.Status == StatusInfeasible:
			t.Errorf("%s: infeasible (%s)", r.Candidate.Key(), r.Note)
		}
	}
	slices.Sort(got)
	want := []string{"block2d(2x2)/rtr", "block_rows(2)/rtr", "block_rows(4)/rtr", "cyclic_rows(2)/rtr", "cyclic_rows(4)/rtr"}
	if !slices.Equal(got, want) {
		t.Errorf("unmodeled candidates %v, want %v", got, want)
	}
}
