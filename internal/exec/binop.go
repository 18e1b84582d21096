package exec

import (
	"fmt"
	"math"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
)

// EvalBin applies a binary operator to runtime values with Idn semantics:
// div is floor division, mod is Euclidean (expr.FloorDiv and expr.EucMod, as
// compiled code computes them), comparisons yield 1/0. The fail callback
// reports division by zero. It is the one definition the sequential
// interpreter and the stepper share.
func EvalBin(op lang.Op, l, r Value, fail func(string)) Value {
	switch op {
	case lang.OpAdd:
		return l + r
	case lang.OpSub:
		return l - r
	case lang.OpMul:
		return l * r
	case lang.OpDivReal:
		if r == 0 {
			fail("division by zero")
			return 0
		}
		return l / r
	case lang.OpDivInt:
		if r == 0 {
			fail("division by zero")
			return 0
		}
		return Value(expr.FloorDiv(int64(l), int64(r)))
	case lang.OpMod:
		if r == 0 {
			fail("mod by zero")
			return 0
		}
		return Value(expr.EucMod(int64(l), int64(r)))
	case lang.OpEq:
		return boolToV(l == r)
	case lang.OpNe:
		return boolToV(l != r)
	case lang.OpLt:
		return boolToV(l < r)
	case lang.OpLe:
		return boolToV(l <= r)
	case lang.OpGt:
		return boolToV(l > r)
	case lang.OpGe:
		return boolToV(l >= r)
	case lang.OpAnd:
		return boolToV(l != 0 && r != 0)
	case lang.OpOr:
		return boolToV(l != 0 || r != 0)
	case lang.OpMin:
		return math.Min(l, r)
	case lang.OpMax:
		return math.Max(l, r)
	default:
		fail(fmt.Sprintf("unsupported operator %v", op))
		return 0
	}
}

func boolToV(b bool) Value {
	if b {
		return 1
	}
	return 0
}
