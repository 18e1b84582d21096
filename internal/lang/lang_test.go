package lang

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// gsSource is the paper's Fig. 1 program written in Idn, including the
// italicized domain-decomposition code.
const gsSource = `
-- Gauss-Seidel relaxation in normal order (paper Fig. 1).
const N = 128;
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

func TestTokenizeBasics(t *testing.T) {
	toks, errs := Tokenize("for j = 2 to N-1 { A[i, j] = 3.5 mod x; } -- comment\n")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	kinds := make([]Kind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []Kind{KwFor, IDENT, Assign, INT, KwTo, IDENT, Minus, INT, LBrace,
		IDENT, LBrack, IDENT, Comma, IDENT, RBrack, Assign, REAL, KwMod, IDENT,
		Semi, RBrace, EOF}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v\nwant %v", kinds, want)
	}
}

func TestTokenPositions(t *testing.T) {
	toks, _ := Tokenize("a\n  bb == c")
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("bb at %v", toks[1].Pos)
	}
	if toks[2].Kind != Eq || toks[2].Pos != (Pos{2, 6}) {
		t.Errorf("== at %v (%v)", toks[2].Pos, toks[2].Kind)
	}
}

func TestLexError(t *testing.T) {
	_, errs := Tokenize("a ? b")
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), `"?"`) {
		t.Errorf("errs = %v", errs)
	}
}

func TestParseGaussSeidel(t *testing.T) {
	prog, err := Parse(gsSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Decls) != 5 {
		t.Fatalf("decls = %d, want 5", len(prog.Decls))
	}
	dd, ok := prog.Decls[2].(*DistDecl)
	if !ok || dd.Name != "Column" || dd.Builtin != "cyclic_cols" {
		t.Fatalf("dist decl wrong: %+v", prog.Decls[2])
	}
	gs, ok := prog.Decls[4].(*ProcDecl)
	if !ok || gs.Name != "gs_iteration" {
		t.Fatalf("proc decl wrong")
	}
	if gs.RetType == nil || gs.RetType.Base != TMatrix {
		t.Error("return type should be matrix")
	}
	if gs.RetMap == nil || gs.RetMap.Name != "Column" {
		t.Error("return mapping should be Column")
	}
	if len(gs.Body.Stmts) != 4 {
		t.Fatalf("gs body stmts = %d, want 4", len(gs.Body.Stmts))
	}
	let, ok := gs.Body.Stmts[0].(*LetStmt)
	if !ok || let.Map == nil || let.Map.Name != "Column" {
		t.Error("let New should carry the Column mapping")
	}
	if _, ok := let.Init.(*AllocExpr); !ok {
		t.Error("let New initializer should be an allocation")
	}
	outer, ok := gs.Body.Stmts[2].(*ForStmt)
	if !ok || outer.Var != "j" {
		t.Fatal("outer loop should iterate j")
	}
	inner, ok := outer.Body.Stmts[0].(*ForStmt)
	if !ok || inner.Var != "i" {
		t.Fatal("inner loop should iterate i")
	}
	store, ok := inner.Body.Stmts[0].(*StoreStmt)
	if !ok || store.Array != "New" || len(store.Indices) != 2 {
		t.Fatal("store statement wrong")
	}
}

func TestParseScalarExample(t *testing.T) {
	// The paper's Fig. 4a: a:P1, b:P2, c:P3.
	src := `
proc main() {
  let a: int on proc(0) = 5;
  let b: int on proc(1) = 7;
  let cc: int on proc(2) = a + b;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Decls[0].(*ProcDecl).Body
	if len(body.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(body.Stmts))
	}
	let := body.Stmts[0].(*LetStmt)
	if let.Map == nil || let.Map.Kind != MapProc {
		t.Error("mapping should be proc(0)")
	}
	if let.Type == nil || let.Type.Base != TInt {
		t.Error("type should be int")
	}
}

func TestParsePolymorphicProc(t *testing.T) {
	// §5.1: the polymorphic identity λP.λa:P.a and its instantiations.
	src := `
proc id[D: dist](a: int on D): int on D {
  return a;
}
proc main() {
  let b: int on proc(1) = 7;
  let x: int on proc(1) = id[proc(1)](b);
  call id[all](x);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	id := prog.Decls[0].(*ProcDecl)
	if len(id.DistParams) != 1 || id.DistParams[0] != "D" {
		t.Fatalf("dist params = %v", id.DistParams)
	}
	if id.Params[0].Map == nil || id.Params[0].Map.Name != "D" {
		t.Error("param should be mapped on D")
	}
	main := prog.Decls[1].(*ProcDecl)
	let := main.Body.Stmts[1].(*LetStmt)
	call, ok := let.Init.(*CallExpr)
	if !ok || len(call.DistArgs) != 1 || call.DistArgs[0].Kind != MapProc {
		t.Fatalf("instantiated call wrong: %+v", let.Init)
	}
	cs := main.Body.Stmts[2].(*CallStmt)
	if len(cs.DistArgs) != 1 || cs.DistArgs[0].Kind != MapAll {
		t.Fatalf("call stmt dist args wrong: %+v", cs)
	}
}

func TestIndexVsInstantiationAmbiguity(t *testing.T) {
	src := `
proc main(A: matrix[4, 4] on all) {
  let x = A[i, j];
  let y = A[i + 1, j];
  let z = f[proc(2)](y);
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Decls[0].(*ProcDecl).Body
	if _, ok := body.Stmts[0].(*LetStmt).Init.(*IndexExpr); !ok {
		t.Error("A[i, j] should parse as an index expression")
	}
	if _, ok := body.Stmts[1].(*LetStmt).Init.(*IndexExpr); !ok {
		t.Error("A[i+1, j] should parse as an index expression")
	}
	if _, ok := body.Stmts[2].(*LetStmt).Init.(*CallExpr); !ok {
		t.Error("f[proc(2)](y) should parse as an instantiated call")
	}
}

func TestPrecedence(t *testing.T) {
	src := `proc main() { let x = 1 + 2 * 3 - 4 div 2 mod 3; let y = not (a < b and c == d); }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatExpr(prog.Decls[0].(*ProcDecl).Body.Stmts[0].(*LetStmt).Init)
	if got != "1 + 2 * 3 - 4 div 2 mod 3" {
		t.Errorf("formatted = %q", got)
	}
	// Structural check: (1 + (2*3)) - ((4 div 2) mod 3)
	e := prog.Decls[0].(*ProcDecl).Body.Stmts[0].(*LetStmt).Init.(*BinExpr)
	if e.Op != OpSub {
		t.Fatalf("top op = %v", e.Op)
	}
	if l := e.L.(*BinExpr); l.Op != OpAdd || l.R.(*BinExpr).Op != OpMul {
		t.Error("left subtree wrong")
	}
	if r := e.R.(*BinExpr); r.Op != OpMod || r.L.(*BinExpr).Op != OpDivInt {
		t.Error("right subtree wrong")
	}
	// and binds tighter than or, and not than both: (not a) or (b and c).
	prog, err = Parse(`proc main() { let z = not a or b and c; }`)
	if err != nil {
		t.Fatal(err)
	}
	z := prog.Decls[0].(*ProcDecl).Body.Stmts[0].(*LetStmt).Init.(*BinExpr)
	if z.Op != OpOr || z.L.(*UnExpr).Op != OpNot || z.R.(*BinExpr).Op != OpAnd {
		t.Errorf("not a or b and c parsed as %s", FormatExpr(z))
	}
	// The printer keeps a comparison's comparison operand parenthesized on
	// either side, since the parser would not chain them.
	a, b := &VarRef{Name: "a"}, &VarRef{Name: "b"}
	lt := &BinExpr{Op: OpLt, L: a, R: b}
	for e, want := range map[Expr]string{
		&BinExpr{Op: OpEq, L: lt, R: b}: "(a < b) == b",
		&BinExpr{Op: OpEq, L: a, R: lt}: "a == (a < b)",
	} {
		if got := FormatExpr(e); got != want {
			t.Errorf("formatted %q, want %q", got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"const = 5;",
		"proc f( {}",
		"proc f() { let x = ; }",
		"proc f() { for i = 1 { } }",
		"proc f() { x[1 = 2; }",
		"dist D = cyclic_cols(4)", // missing semicolon
		"proc f() { return 1 }",   // missing semicolon
		"proc f(x: on all) {}",    // missing type
		"proc f() { if { } }",     // missing condition
		"junk",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) returned %T, want *SyntaxError", src, err)
		}
	}
	// Comparisons do not chain: the expression ends after the first one,
	// wherever it stands, and its caller reports the second.
	for src, want := range map[string]string{
		"proc main() { let x = a < b < c; }":       "1:29: expected ;, found <",
		"proc main() { if a < b < c { } }":         "1:24: expected {, found <",
		"proc main() { let x = a and b < c < d; }": "1:35: expected ;, found <",
		"proc main() { let x = a + b == c != d; }": "1:34: expected ;, found !=",
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}
}

// Round-trip property: format(Parse(format(p))) == format(p).
func TestFormatRoundTrip(t *testing.T) {
	prog, err := Parse(gsSource)
	if err != nil {
		t.Fatal(err)
	}
	once := format(prog)
	prog2, err := Parse(once)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, once)
	}
	twice := format(prog2)
	if once != twice {
		t.Errorf("format not a fixpoint:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

// Property: randomly generated programs survive the format/parse round trip.
func TestFormatRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		prog := randomProgram(rng)
		once := format(prog)
		prog2, err := Parse(once)
		if err != nil {
			t.Fatalf("iteration %d: re-parse failed: %v\n%s", iter, err, once)
		}
		twice := format(prog2)
		if once != twice {
			t.Fatalf("iteration %d: not a fixpoint:\n%s\nvs\n%s", iter, once, twice)
		}
	}
}

func randomProgram(rng *rand.Rand) *Program {
	p := &Program{}
	p.Decls = append(p.Decls, &ConstDecl{Name: "N", Value: &NumLit{Val: 16, IsInt: true}})
	p.Decls = append(p.Decls, &DistDecl{Name: "D", Builtin: "cyclic_cols", Args: []Expr{&VarRef{Name: "NPROCS"}}})
	body := &Block{}
	for i := 0; i < 4; i++ {
		body.Stmts = append(body.Stmts, randomStmt(rng, 2))
	}
	p.Decls = append(p.Decls, &ProcDecl{
		Name:   "main",
		Params: []Param{{Name: "A", Type: TypeExpr{Base: TMatrix, Dims: []Expr{&VarRef{Name: "N"}, &VarRef{Name: "N"}}}, Map: &MapExpr{Kind: MapNamed, Name: "D"}}},
		Body:   body,
	})
	return p
}

func randomStmt(rng *rand.Rand, depth int) Stmt {
	if depth == 0 {
		return &StoreStmt{Array: "A", Indices: []Expr{randomExpr(rng, 1), randomExpr(rng, 1)}, Value: randomExpr(rng, 2)}
	}
	switch rng.Intn(4) {
	case 0:
		b := &Block{}
		for i := 0; i < 1+rng.Intn(2); i++ {
			b.Stmts = append(b.Stmts, randomStmt(rng, depth-1))
		}
		f := &ForStmt{Var: "i", Lo: randomExpr(rng, 1), Hi: randomExpr(rng, 1), Body: b}
		if rng.Intn(2) == 0 {
			f.Step = &NumLit{Val: 2, IsInt: true}
		}
		return f
	case 1:
		s := &IfStmt{Cond: &BinExpr{Op: OpLt, L: randomExpr(rng, 1), R: randomExpr(rng, 1)},
			Then: &Block{Stmts: []Stmt{randomStmt(rng, depth-1)}}}
		if rng.Intn(2) == 0 {
			s.Else = &Block{Stmts: []Stmt{randomStmt(rng, depth-1)}}
		}
		return s
	case 2:
		return &AssignStmt{Name: "x", Value: randomExpr(rng, 2)}
	default:
		return &StoreStmt{Array: "A", Indices: []Expr{randomExpr(rng, 1), randomExpr(rng, 1)}, Value: randomExpr(rng, 2)}
	}
}

func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return &NumLit{Val: float64(rng.Intn(20)), IsInt: true}
		case 1:
			return &NumLit{Val: float64(rng.Intn(10)) + 0.5}
		default:
			return &VarRef{Name: []string{"i", "j", "x", "N"}[rng.Intn(4)]}
		}
	}
	switch rng.Intn(4) {
	case 0, 1:
		// Any operator of the table, so each binding power and form meets
		// every other as an operand.
		op := Op(rng.Intn(int(numOps)))
		if op.Unary() {
			return &UnExpr{Op: op, X: randomExpr(rng, depth-1)}
		}
		return &BinExpr{Op: op, L: randomExpr(rng, depth-1), R: randomExpr(rng, depth-1)}
	case 2:
		return &IndexExpr{Array: "A", Indices: []Expr{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}}
	default:
		return randomExpr(rng, depth-1)
	}
}

func TestFormatRoundTripAllDecls(t *testing.T) {
	src := `
const N = 8;
dist G = block2d(2, 2);
dist V = cyclic(NPROCS);
dist B = block(NPROCS);

proc f(A: matrix[N, N] on G, v: vector[N] on V, w: vector[N] on B): vector[N] on V {
  for i = 1 to N {
    v[i] = A[i, 1] + w[i];
  }
  return v;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	once := format(prog)
	prog2, err := Parse(once)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, once)
	}
	if twice := format(prog2); once != twice {
		t.Errorf("not a fixpoint:\n%s\nvs\n%s", once, twice)
	}
	dd := prog.Decls[1].(*DistDecl)
	if dd.Builtin != "block2d" || len(dd.Args) != 2 {
		t.Errorf("block2d decl wrong: %+v", dd)
	}
}
