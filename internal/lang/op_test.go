package lang

import (
	"strings"
	"testing"
)

// EvalBin is the one definition the oracle and the stepper share, so it is
// pinned directly, against expectations written by hand: floor division and
// Euclidean mod over every sign combination, 1/0 truth values, and the
// division-by-zero reports.
func TestEvalBinTable(t *testing.T) {
	for _, tc := range []struct {
		op      Op
		l, r    float64
		want    float64
		failure string
	}{
		{OpAdd, 2.5, -4, -1.5, ""}, {OpSub, 2.5, -4, 6.5, ""}, {OpMul, 2.5, -4, -10, ""},
		{OpDivReal, 7, 2, 3.5, ""}, {OpDivReal, -7, 2, -3.5, ""},
		{OpDivInt, 7, 3, 2, ""}, {OpDivInt, -7, 3, -3, ""}, {OpDivInt, 7, -3, -3, ""}, {OpDivInt, -7, -3, 2, ""},
		{OpDivInt, -6, 3, -2, ""}, {OpDivInt, 6, -3, -2, ""}, {OpDivInt, 0, -3, 0, ""},
		{OpMod, 7, 3, 1, ""}, {OpMod, -7, 3, 2, ""}, {OpMod, 7, -3, 1, ""}, {OpMod, -7, -3, 2, ""},
		{OpMod, -6, 3, 0, ""}, {OpMod, 6, -3, 0, ""},
		{OpMin, 2, -3, -3, ""}, {OpMin, -3, 2, -3, ""}, {OpMax, 2, -3, 2, ""}, {OpMax, -3, 2, 2, ""},
		{OpEq, 2, 2, 1, ""}, {OpEq, 2, 3, 0, ""}, {OpNe, 2, 2, 0, ""}, {OpNe, 2, 3, 1, ""},
		{OpLt, 2, 3, 1, ""}, {OpLt, 3, 3, 0, ""}, {OpLe, 3, 3, 1, ""}, {OpLe, 4, 3, 0, ""},
		{OpGt, 3, 2, 1, ""}, {OpGt, 3, 3, 0, ""}, {OpGe, 3, 3, 1, ""}, {OpGe, 2, 3, 0, ""},
		{OpAnd, 1, 1, 1, ""}, {OpAnd, 1, 0, 0, ""}, {OpAnd, 0, 1, 0, ""}, {OpAnd, 2, -1, 1, ""},
		{OpOr, 0, 0, 0, ""}, {OpOr, 1, 0, 1, ""}, {OpOr, 0, 1, 1, ""}, {OpOr, 0, -3, 1, ""},
		{OpDivReal, 1, 0, 0, "division by zero"}, {OpDivInt, 1, 0, 0, "division by zero"}, {OpMod, 1, 0, 0, "mod by zero"},
		{OpNot, 1, 0, 0, "unsupported operator not"},
	} {
		failure := ""
		got := EvalBin(tc.op, tc.l, tc.r, func(msg string) { failure += msg })
		if got != tc.want || failure != tc.failure {
			t.Errorf("%g %v %g = %g (failure %q), want %g (failure %q)", tc.l, tc.op, tc.r, got, failure, tc.want, tc.failure)
		}
	}
}

func TestEvalUn(t *testing.T) {
	for _, tc := range []struct {
		op      Op
		x, want float64
	}{
		{OpNeg, 2.5, -2.5}, {OpNeg, -3, 3}, {OpNot, 0, 1}, {OpNot, 1, 0}, {OpNot, -2, 0},
	} {
		if got := EvalUn(tc.op, tc.x); got != tc.want {
			t.Errorf("%v %g = %g, want %g", tc.op, tc.x, got, tc.want)
		}
	}
}

// Each operator is spelled by its token, and no token spells two operators
// in one position, so the parser's lookup and the printer agree.
func TestOpTableSpellings(t *testing.T) {
	seen := map[[2]int]Op{}
	for _, op := range Ops() {
		d := ops[op]
		if op.String() != d.tok.String() || strings.HasPrefix(op.String(), "Kind(") {
			t.Errorf("%d spelled %q, its token %v", op, op.String(), d.tok)
		}
		key := [2]int{int(d.form), int(d.tok)}
		if prev, ok := seen[key]; ok {
			t.Errorf("%v and %v share a token in one position", prev, op)
		}
		seen[key] = op
		if got := spelled[d.form][d.tok]; got != op {
			t.Errorf("token %v parses as %v, want %v", d.tok, got, op)
		}
		if d.eval == nil {
			t.Errorf("%v has no evaluation", op)
		}
	}
}
