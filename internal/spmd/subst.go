package spmd

import "procdecomp/internal/expr"

// SubstVExpr substitutes a symbolic variable in the integer parts of a value
// expression.
func SubstVExpr(v VExpr, name string, val expr.Expr) VExpr {
	out, _ := substV(v, name, val)
	return out
}

// VExprEqual reports structural equality of value expressions (via their
// canonical rendering).
func VExprEqual(a, b VExpr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return FormatV(a) == FormatV(b)
}
