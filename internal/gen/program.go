// Package gen is test support for the paper's claim on programs nobody
// picked. Program generates random wavefront-style Idn programs; Corpus is
// the one set of cases every pipeline property runs on, Compile the one front
// half that compiles and lowers a case, and Check holds every point of a
// compiled case to one sequential reference, by exec's one checked run.
// Import it from _test.go files only.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"procdecomp/internal/lang"
)

// The operators Program draws, read from lang's operator table: the
// comparisons, the boolean operators (and, or, not), the integer operators
// (div, mod) and the numeric operators that keep ints ints (+, -, *, min,
// max).
var comparisons, booleans, integers, numerics = func() (cmp, boolean, integer, numeric []lang.Op) {
	for _, op := range lang.Ops() {
		switch in := op.Operands(); {
		case op.Comparison():
			cmp = append(cmp, op)
		case in == lang.Boolean:
			boolean = append(boolean, op)
		case in == lang.Integer:
			integer = append(integer, op)
		case !op.Unary() && op.Result(lang.TInt, lang.TInt) == lang.TInt:
			numeric = append(numeric, op)
		}
	}
	return
}()

// num is an int literal, negated when v < 0.
func num(v int64) lang.Expr {
	if v < 0 {
		return &lang.UnExpr{Op: lang.OpNeg, X: &lang.NumLit{Val: float64(-v), IsInt: true}}
	}
	return &lang.NumLit{Val: float64(v), IsInt: true}
}

// offset is v + d.
func offset(v string, d int64) lang.Expr {
	x := lang.Expr(&lang.VarRef{Name: v})
	switch {
	case d > 0:
		return &lang.BinExpr{Op: lang.OpAdd, L: x, R: num(d)}
	case d < 0:
		return &lang.BinExpr{Op: lang.OpSub, L: x, R: num(-d)}
	}
	return x
}

// condition draws an if condition on i: a comparison of i div m or i mod m,
// with m one of ±2 and ±3, to a small constant, or a boolean operator over
// smaller conditions.
func condition(rng *rand.Rand, depth int) lang.Expr {
	if depth == 0 || rng.Intn(2) == 0 {
		m := int64(2 + rng.Intn(2))
		if rng.Intn(2) == 0 {
			m = -m
		}
		x := &lang.BinExpr{Op: integers[rng.Intn(len(integers))], L: &lang.VarRef{Name: "i"}, R: num(m)}
		return &lang.BinExpr{Op: comparisons[rng.Intn(len(comparisons))], L: x, R: num(int64(rng.Intn(5) - 2))}
	}
	op := booleans[rng.Intn(len(booleans))]
	if op.Unary() {
		return &lang.UnExpr{Op: op, X: condition(rng, depth-1)}
	}
	return &lang.BinExpr{Op: op, L: condition(rng, depth-1), R: condition(rng, depth-1)}
}

// stencil draws one to three terms, each a coefficient times an element of
// Old or New near (i, j), combined by numeric operators. Reads of New are
// constrained to lexicographically earlier iterations (j column-major order)
// so the sequential program is well-defined.
func stencil(rng *rand.Rand) lang.Expr {
	var e lang.Expr
	for k, n := 0, 1+rng.Intn(3); k < n; k++ {
		array, di, dj := "Old", int64(rng.Intn(3)-1), int64(rng.Intn(3)-1)
		if rng.Intn(2) == 0 {
			array, dj = "New", 0
			// Lexicographically earlier in (j, i) order.
			if di = -1; rng.Intn(2) == 0 {
				di, dj = int64(rng.Intn(3)-1), -1
			}
		}
		term := &lang.BinExpr{Op: lang.OpMul,
			L: &lang.NumLit{Val: float64(rng.Intn(5)+1) / 8},
			R: &lang.IndexExpr{Array: array, Indices: []lang.Expr{offset("i", di), offset("j", dj)}}}
		if e == nil {
			e = term
			continue
		}
		e = &lang.BinExpr{Op: numerics[rng.Intn(len(numerics))], L: e, R: term}
	}
	return e
}

// Program builds a random wavefront-style Idn program. Apart from its
// stencil it independently draws a scalar let in the inner loop, replicated
// or on process 0, whose value feeds the stencil, and a call of a one-line
// scalar procedure in the stencil's value or in a subscript.
func Program(rng *rand.Rand) (src string, distName string) {
	dists := []string{"cyclic_cols", "cyclic_rows", "block_cols", "block_rows"}
	distName = dists[rng.Intn(len(dists))]

	var let, callee string
	var fed []lang.Expr // added, with bias, to the stencil value
	if rng.Intn(2) == 0 {
		on := ""
		if rng.Intn(2) == 0 {
			on = ": real on proc(0)"
		}
		let = fmt.Sprintf("      let t%s = %s;\n", on, lang.FormatExpr(stencil(rng)))
		fed = append(fed, &lang.VarRef{Name: "t"})
	}
	old := func(i, j lang.Expr) lang.Expr { return &lang.IndexExpr{Array: "Old", Indices: []lang.Expr{i, j}} }
	call := func(name string, arg lang.Expr) lang.Expr { return &lang.CallExpr{Name: name, Args: []lang.Expr{arg}} }
	near := func(v string) lang.Expr { return offset(v, int64(rng.Intn(3)-1)) }
	switch rng.Intn(3) {
	case 1:
		callee = "proc half(x: real): real {\n  return x * 0.5;\n}\n\n"
		fed = append(fed, call("half", old(near("i"), near("j"))))
	case 2:
		// On the dimension the mapping does not split, so every owner stays
		// a function of the loop indices and a walk can follow it.
		callee = "proc wrap(k: int): int {\n  return k mod N + 1;\n}\n\n"
		if strings.HasSuffix(distName, "_cols") {
			fed = append(fed, old(call("wrap", near("i")), near("j")))
		} else {
			fed = append(fed, old(near("i"), call("wrap", near("j"))))
		}
	}
	value := func(e lang.Expr) string {
		for _, f := range fed {
			e = &lang.BinExpr{Op: lang.OpAdd, L: e, R: f}
		}
		return lang.FormatExpr(&lang.BinExpr{Op: lang.OpAdd, L: e, R: &lang.VarRef{Name: "bias"}})
	}

	var body string
	if rng.Intn(3) == 0 {
		// Data-dependent control flow between two stencils.
		body = fmt.Sprintf(`      if %s {
        New[i, j] = %s;
      } else {
        New[i, j] = %s;
      }`, lang.FormatExpr(condition(rng, 2)), lang.FormatExpr(stencil(rng)), value(stencil(rng)))
	} else {
		body = fmt.Sprintf("      New[i, j] = %s;", value(stencil(rng)))
	}

	// The bias scalar lives on a random processor (or replicated),
	// exercising scalar coercion into the stencil.
	biasMap := "all"
	if rng.Intn(2) == 0 {
		biasMap = "proc(0)"
	}

	src = fmt.Sprintf(`
const N = %d;

dist D = %s(NPROCS);

proc boundary(New: matrix[N, N] on D) {
  for j = 1 to N {
    New[1, j] = 2.0;
    New[N, j] = 3.0;
  }
  for i = 2 to N - 1 {
    New[i, 1] = 4.0;
    New[i, N] = 5.0;
  }
}

%sproc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  let bias: real on %s = 0.125;
  call boundary(New);
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
%s%s
    }
  }
  return New;
}
`, 8+rng.Intn(9), distName, callee, biasMap, let, body)
	return src, distName
}
