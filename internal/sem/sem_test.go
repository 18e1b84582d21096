package sem

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/lang"
)

const gsSource = `
const N = 16;
const c = 0.25;

dist Column = cyclic_cols(NPROCS);

proc init_boundary(New: matrix[N, N] on Column) {
  for j = 1 to N {
    New[1, j] = 1.0;
    New[N, j] = 1.0;
  }
  for i = 2 to N - 1 {
    New[i, 1] = 1.0;
    New[i, N] = 1.0;
  }
}

proc gs_iteration(Old: matrix[N, N] on Column): matrix[N, N] on Column {
  let New = matrix(N, N) on Column;
  call init_boundary(New);
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
      New[i, j] = c * (New[i - 1, j] + New[i, j - 1] + Old[i + 1, j] + Old[i, j + 1]);
    }
  }
  return New;
}
`

func check(t *testing.T, src string, cfg Config) *Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, errs := Check(prog, cfg)
	if len(errs) > 0 {
		t.Fatalf("check: %v", errs)
	}
	return info
}

func checkErr(t *testing.T, src string, wantSubstr string) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, errs := Check(prog, Config{Procs: 4})
	if len(errs) == 0 {
		t.Fatalf("expected error containing %q, got none", wantSubstr)
	}
	for _, e := range errs {
		if strings.Contains(e.Error(), wantSubstr) {
			return
		}
	}
	t.Fatalf("no error contains %q; got %v", wantSubstr, errs)
}

func TestCheckGaussSeidel(t *testing.T) {
	info := check(t, gsSource, Config{Procs: 4})
	gs := info.Procs["gs_iteration"]
	if gs == nil {
		t.Fatal("gs_iteration missing")
	}
	old := gs.Params[0]
	if old.Kind != SymArray || old.Dist.Kind() != dist.KindCyclicCols {
		t.Errorf("Old: kind=%v dist=%v", old.Kind, old.Dist)
	}
	if old.Type.Dims[0] != 16 || old.Type.Dims[1] != 16 {
		t.Errorf("Old dims = %v", old.Type.Dims)
	}
	if gs.RetType == nil || gs.RetDist.Kind() != dist.KindCyclicCols {
		t.Error("return type/dist wrong")
	}
	// The let New symbol must carry the Column decomposition.
	let := gs.Decl.Body.Stmts[0].(*lang.LetStmt)
	sym := info.SymbolOf(let)
	if sym.Dist.Kind() != dist.KindCyclicCols || sym.Dist.Procs() != 4 {
		t.Errorf("New dist = %v", sym.Dist)
	}
}

func TestDefinesOverride(t *testing.T) {
	info := check(t, gsSource, Config{Procs: 2, Defines: map[string]int64{"N": 8}})
	gs := info.Procs["gs_iteration"]
	if gs.Params[0].Type.Dims[0] != 8 {
		t.Errorf("N override not applied: dims = %v", gs.Params[0].Type.Dims)
	}
	if info.Consts["NPROCS"].Const != 2 {
		t.Errorf("NPROCS = %v", info.Consts["NPROCS"].Const)
	}
}

func TestScalarMappings(t *testing.T) {
	src := `
proc main() {
  let a: int on proc(0) = 5;
  let b: int on proc(1) = 7;
  let cc: int on proc(2) = a + b;
  let r = 1.5;
}
`
	info := check(t, src, Config{Procs: 4})
	body := info.Procs["main"].Decl.Body
	a := info.SymbolOf(body.Stmts[0].(*lang.LetStmt))
	if p, ok := dist.ProcOf(a.Dist); !ok || p != 0 {
		t.Errorf("a mapped to %v", a.Dist)
	}
	r := info.SymbolOf(body.Stmts[3].(*lang.LetStmt))
	if r.Dist.Kind() != dist.KindReplicated {
		t.Errorf("unmapped scalar should default to replicated, got %v", r.Dist)
	}
	if r.Type.Base != lang.TReal {
		t.Errorf("r should infer real, got %v", r.Type)
	}
}

func TestMonomorphization(t *testing.T) {
	src := `
proc id[D: dist](a: int on D): int on D {
  return a;
}
proc main() {
  let b: int on proc(1) = 7;
  let cc: int on proc(2) = 9;
  let x: int on proc(1) = id[proc(1)](b);
  let y: int on proc(2) = id[proc(2)](cc);
  let z: int on proc(1) = id[proc(1)](x);
}
`
	info := check(t, src, Config{Procs: 4})
	// Two distinct instantiations; the third call shares the first.
	var instances []string
	for name := range info.Procs {
		if strings.Contains(name, "__inst") {
			instances = append(instances, name)
		}
	}
	if len(instances) != 2 {
		t.Fatalf("instances = %v, want 2", instances)
	}
	// The template must be gone from the program.
	for _, d := range info.Prog.Decls {
		if pd, ok := d.(*lang.ProcDecl); ok && len(pd.DistParams) > 0 {
			t.Error("template survived monomorphization")
		}
	}
	// Instantiated parameter mappings must be concrete.
	for _, name := range instances {
		p := info.Procs[name]
		if _, ok := dist.ProcOf(p.Params[0].Dist); !ok {
			t.Errorf("%s param dist = %v, want single-processor", name, p.Params[0].Dist)
		}
	}
}

func TestPolymorphicChain(t *testing.T) {
	// A polymorphic procedure calling another polymorphic procedure with its
	// own parameter must instantiate transitively.
	src := `
proc g[D: dist](a: int on D): int on D {
  return a;
}
proc f[D: dist](a: int on D): int on D {
  let t: int on D = g[D](a);
  return t;
}
proc main() {
  let b: int on proc(3) = 1;
  let x: int on proc(3) = f[proc(3)](b);
}
`
	info := check(t, src, Config{Procs: 4})
	count := 0
	for name := range info.Procs {
		if strings.Contains(name, "__inst") {
			count++
		}
	}
	if count != 2 { // f[proc(3)] and g[proc(3)]
		t.Errorf("instances = %d, want 2", count)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`proc main() { let x = y; }`, "undefined variable y"},
		{`proc main() { x = 1; }`, "undefined variable x"},
		{`proc main() { let x = 1; let x = 2; }`, "shadowing"},
		{`proc main() { for i = 1 to 3 { i = 2; } }`, "loop variable"},
		{`const N = 4; proc main() { N = 2; }`, "constant"},
		{`proc main(A: matrix[4, 4] on all) { A = 1; }`, "whole array"},
		{`proc main(A: matrix[4, 4] on all) { A[1] = 1.0; }`, "rank 2"},
		{`proc main(A: vector[4] on all) { let x = A[1, 2]; }`, "rank 1"},
		{`proc main(A: matrix[4, 4] on all) { A[1.5, 2] = 1.0; }`, "subscript must be int"},
		{`proc main() { for i = 1.5 to 3 { } }`, "loop bound must be int"},
		{`proc main() { for i = 1 to 8 by 0 { } }`, "step must be positive"},
		{`proc main() { if 3 { } }`, "condition must be bool"},
		{`proc main() { let x = 1 mod 2.5; }`, "requires int operands"},
		{`proc main() { let x = true + 1; }`, "numeric"},
		{`proc f(): int { return; }`, "must return"},
		{`proc f() { return 3; }`, "returns no value"},
		{`proc main() { call nosuch(); }`, "undefined procedure"},
		{`proc f(x: int) {} proc main() { call f(); }`, "expects 1 argument"},
		{`proc f() {} proc main() { let x = f(); }`, "returns no value"},
		{`proc f() { call g(); } proc g() { call f(); }`, "recursion"},
		{`proc f() { call f(); }`, "recursion"},
		{`proc g(x: int) {} proc f(x: int): int { call g(f(x)); return x; }`, "recursion"},
		{`proc main() { let A = matrix(0, 4) on all; }`, "must be positive"},
		{`proc main() { let n = 4; let A = matrix(n, 4) on all; }`, "not a constant"},
		{`proc main(a: int on proc(9)) {}`, "out of range"},
		{`dist D = cyclic_cols(99); proc main(A: matrix[4, 4] on D) {}`, "exceeds machine size"},
		{`dist D = nosuch(2); proc main(A: matrix[4, 4] on D) {}`, "unknown decomposition"},
		{`dist D = cyclic_cols(2, 3); proc main(A: matrix[4, 4] on D) {}`, "expects 1 argument"},
		{`dist D = cyclic_cols(2); proc main(a: int on D) {}`, "applies to matrices"},
		{`dist D = cyclic(2); proc main(A: matrix[4, 4] on D) {}`, "applies to vectors"},
		{`dist D = block2d(3, 2); proc main(A: matrix[4, 4] on D) {}`, "block2d(3, 2) exceeds machine size 4"},
		{`dist D = block2d(2, 0); proc main(A: matrix[4, 4] on D) {}`, "arguments must be positive"},
		{`dist D = single(2); proc main(A: matrix[4, 4] on D) {}`, "unknown decomposition builtin single"},
		{`dist D = Cyclic_Cols(2); proc main(A: matrix[4, 4] on D) {}`, "unknown decomposition builtin Cyclic_Cols"},
		{`proc main(A: matrix[4, 4] on all) { let x = undef_dist_call[all](A); }`, "undefined procedure"},
		{`proc f(x: int) {} proc main() { call f[all](1); }`, "not mapping-polymorphic"},
		{`proc f[D: dist](x: int on D) {} proc main() { call f(1); }`, "requires instantiation"},
		{`proc f[D: dist](x: int on D) {} proc main() { call f[all, all](1); }`, "expects 1 mapping argument"},
		{`const N = 4; const N = 5; proc main() {}`, "duplicate"},
		{`dist Rows = cyclic_rows(2);
		  dist Cols = cyclic_cols(2);
		  proc f(A: matrix[4, 4] on Rows) {}
		  proc main(B: matrix[4, 4] on Cols) { call f(B); }`, "mapping"},
		{`proc f(): matrix[4, 4] {
		    let A = matrix(4, 4) on all;
		    return A;
		  }`, "must declare its return mapping"},
	}
	for _, tc := range cases {
		checkErr(t, tc.src, tc.want)
	}
}

func TestReturnMappingMismatch(t *testing.T) {
	src := `
dist Rows = cyclic_rows(2);
dist Cols = cyclic_cols(2);
proc f(): matrix[4, 4] on Cols {
  let A = matrix(4, 4) on Rows;
  return A;
}
`
	checkErr(t, src, "redistribution on return")
}

func TestArrayValuedCall(t *testing.T) {
	src := `
const N = 8;
dist Column = cyclic_cols(NPROCS);
proc make(): matrix[N, N] on Column {
  let A = matrix(N, N) on Column;
  A[1, 1] = 0.0;
  return A;
}
proc main() {
  let B = make();
  B[2, 2] = 1.0;
}
`
	info := check(t, src, Config{Procs: 2})
	let := info.Procs["main"].Decl.Body.Stmts[0].(*lang.LetStmt)
	sym := info.SymbolOf(let)
	if sym.Kind != SymArray || sym.Dist.Kind() != dist.KindCyclicCols {
		t.Errorf("B: kind=%v dist=%v", sym.Kind, sym.Dist)
	}
}

func TestTypesRecorded(t *testing.T) {
	src := `proc main() { let x = 1 + 2; let y = 1.0 + 2; let b = 1 < 2; }`
	info := check(t, src, Config{Procs: 2})
	body := info.Procs["main"].Decl.Body
	if tt := typeOf(t, info, body.Stmts[0].(*lang.LetStmt).Init); tt.Base != lang.TInt {
		t.Errorf("1+2: %v", tt)
	}
	if tt := typeOf(t, info, body.Stmts[1].(*lang.LetStmt).Init); tt.Base != lang.TReal {
		t.Errorf("1.0+2: %v", tt)
	}
	if tt := typeOf(t, info, body.Stmts[2].(*lang.LetStmt).Init); tt.Base != lang.TBool {
		t.Errorf("1<2: %v", tt)
	}
}

func TestConstExpressions(t *testing.T) {
	src := `
const A = 3 + 4 * 2;
const B = A div 3;
const C = A mod 3;
const D = -B;
const E = min(A, 100);
proc main() { let x = A + B + C + D + E; }
`
	info := check(t, src, Config{Procs: 2})
	want := map[string]float64{"A": 11, "B": 3, "C": 2, "D": -3, "E": 11}
	for name, v := range want {
		if got := info.Consts[name].Const; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestBlock2DDist(t *testing.T) {
	src := `
dist Grid = block2d(2, 2);
proc main(A: matrix[8, 8] on Grid) {}
`
	info := check(t, src, Config{Procs: 4})
	sym := info.Procs["main"].Params[0]
	if sym.Dist.Kind() != dist.KindBlock2D {
		t.Errorf("dist = %v", sym.Dist)
	}
}

// Mapping polymorphism over array parameters: the instantiated copies bind
// the actual decomposition.
func TestPolymorphicArrayParam(t *testing.T) {
	src := `
const N = 8;
dist Rows = cyclic_rows(NPROCS);
dist Cols = cyclic_cols(NPROCS);
proc touch[D: dist](A: matrix[N, N] on D) {
  A[1, 1] = 1.0;
}
proc main(R: matrix[N, N] on Rows, C: matrix[N, N] on Cols) {
  call touch[Rows](R);
  call touch[Cols](C);
}
`
	info := check(t, src, Config{Procs: 2})
	var kinds []dist.Kind
	for name, p := range info.Procs {
		if strings.Contains(name, "__inst") {
			kinds = append(kinds, p.Params[0].Dist.Kind())
		}
	}
	if len(kinds) != 2 {
		t.Fatalf("instances = %d, want 2", len(kinds))
	}
	if kinds[0] == kinds[1] {
		t.Error("instances should bind different decompositions")
	}
}

// Instantiating with a mismatched decomposition is still a mapping error.
func TestPolymorphicArrayMismatch(t *testing.T) {
	src := `
const N = 8;
dist Rows = cyclic_rows(NPROCS);
dist Cols = cyclic_cols(NPROCS);
proc touch[D: dist](A: matrix[N, N] on D) {
  A[1, 1] = 1.0;
}
proc main(R: matrix[N, N] on Rows) {
  call touch[Cols](R);
}
`
	checkErr(t, src, "mapping")
}

// Constant folding computes what the run time does: every operator a
// constant may use folds, over ints and reals of either sign, to the value
// lang's evaluator gives, and to an int exactly when the same expression in
// a procedure body is typed int.
func TestConstFoldMatchesEvaluator(t *testing.T) {
	num := func(v float64) lang.Expr {
		lit := &lang.NumLit{Val: math.Abs(v), IsInt: v == math.Trunc(v)}
		if v < 0 {
			return &lang.UnExpr{Op: lang.OpNeg, X: lit}
		}
		return lit
	}
	operands := []float64{7, -7, 2, -3, 2.5, -0.5, 0}
	folds := map[lang.Op]bool{}
	// run gives the run time's value; it is only asked for once the constant
	// folds, since div and mod may not be applied to reals.
	check := func(e lang.Expr, run func() (v float64, failed bool)) {
		t.Helper()
		src := fmt.Sprintf("const C = %s;\nproc main() { let x = %s; }", lang.FormatExpr(e), lang.FormatExpr(e))
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, errs := Check(prog, Config{Procs: 4})
		if len(errs) > 0 {
			if !strings.HasPrefix(errs[0].Error(), "1:1: constant C: ") {
				t.Errorf("%s: %v", src, errs)
			}
			return
		}
		c := info.Consts["C"]
		var op lang.Op
		switch e := e.(type) {
		case *lang.UnExpr:
			op = e.Op
		case *lang.BinExpr:
			op = e.Op
		}
		folds[op] = true
		let := prog.Decls[1].(*lang.ProcDecl).Body.Stmts[0].(*lang.LetStmt).Init
		want, failed := run()
		if failed || c.Const != want || c.ConstIsInt != (typeOf(t, info, let).Base == lang.TInt) {
			t.Errorf("const C = %s folds to %g (int %v), the run time gives %g (failed %v, typed %s)",
				lang.FormatExpr(e), c.Const, c.ConstIsInt, want, failed, typeOf(t, info, let))
		}
	}
	for _, op := range lang.Ops() {
		for _, l := range operands {
			if op.Unary() {
				check(&lang.UnExpr{Op: op, X: num(l)}, func() (float64, bool) { return lang.EvalUn(op, l), false })
				continue
			}
			for _, r := range operands {
				check(&lang.BinExpr{Op: op, L: num(l), R: num(r)}, func() (float64, bool) {
					failed := false
					v := lang.EvalBin(op, l, r, func(string) { failed = true })
					return v, failed
				})
			}
		}
	}
	want := []lang.Op{lang.OpAdd, lang.OpSub, lang.OpMul, lang.OpDivReal, lang.OpDivInt, lang.OpMod, lang.OpNeg, lang.OpMin, lang.OpMax}
	if len(folds) != len(want) {
		t.Errorf("operators folded: %v, want %v", folds, want)
	}
	for _, op := range want {
		if !folds[op] {
			t.Errorf("operator %s never folded", op)
		}
	}
	for src, want := range map[string]float64{"-7 div 2": -4, "7 mod -3": 1, "-7 mod 3": 2, "7 div -3": -3} {
		prog, _ := lang.Parse("const C = " + src + ";")
		if info, errs := Check(prog, Config{Procs: 4}); len(errs) > 0 || info.Consts["C"].Const != want {
			t.Errorf("const C = %s: %v %v, want %g", src, info.Consts["C"], errs, want)
		}
	}
}

// The operator table's typing reports each rejected operand with the text
// sem has always used, in procedure bodies and in constants.
func TestOperatorErrorTexts(t *testing.T) {
	for src, want := range map[string]string{
		`proc main() { let x = 1 mod 2.5; }`:     "1:25: operator mod requires int operands, got int and real",
		`proc main() { let x = 1.5 div 2; }`:     "1:27: operator div requires int operands, got real and int",
		`proc main() { let x = -true; }`:         "1:23: operator - requires a numeric operand, got bool",
		`proc main() { let x = not 1; }`:         "1:23: operator not requires a bool operand, got int",
		`proc main() { let x = true + 1; }`:      "1:28: operator + requires numeric operands, got bool and int",
		`proc main() { let x = 1 - true; }`:      "1:25: operator - requires numeric operands, got int and bool",
		`proc main() { let x = true * 1; }`:      "1:28: operator * requires numeric operands, got bool and int",
		`proc main() { let x = 1 / true; }`:      "1:25: operator / requires numeric operands, got int and bool",
		`proc main() { let x = min(true, 1); }`:  "1:23: operator min requires numeric operands, got bool and int",
		`proc main() { let x = max(1, false); }`: "1:23: operator max requires numeric operands, got int and bool",
		`proc main() { let x = 1 < true; }`:      "1:25: comparison requires numeric operands, got int and bool",
		`proc main() { let x = true == 1; }`:     "1:28: comparison requires numeric operands, got bool and int",
		`proc main() { let x = 1 and true; }`:    "1:25: operator and requires bool operands, got int and bool",
		`proc main() { let x = true or 2.5; }`:   "1:28: operator or requires bool operands, got bool and real",
		`const C = 7.5 div 2;`:                   "1:1: constant C: div requires integer operands",
		`const C = 7 mod 2.0;`:                   "1:1: constant C: mod requires integer operands",
		`const C = 1 < 2;`:                       "1:1: constant C: operator < not allowed in constants",
		`const C = 1 and 2;`:                     "1:1: constant C: operator and not allowed in constants",
		`const C = not 1;`:                       "1:1: constant C: operator not not allowed in constants",
		`const C = 1 / 0;`:                       "1:1: constant C: division by zero in constant",
		`const C = 1 div 0;`:                     "1:1: constant C: division by zero in constant",
		`const C = 1 mod 0;`:                     "1:1: constant C: division by zero in constant",
		`const C = true;`:                        "1:1: constant C: expression is not a compile-time constant",
	} {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, errs := Check(prog, Config{Procs: 4}); len(errs) != 1 || errs[0].Error() != want {
			t.Errorf("%s: %v, want [%s]", src, errs, want)
		}
	}
}

// typeOf is the resolved type of a checked expression.
func typeOf(t *testing.T, info *Info, e lang.Expr) Type {
	t.Helper()
	tt, ok := info.Types[e]
	if !ok {
		t.Fatalf("expression %T has no resolved type", e)
	}
	return tt
}
