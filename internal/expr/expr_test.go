package expr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  Expr
		want int64
	}{
		{Add(C(2), C(3)), 5},
		{Sub(C(2), C(3)), -1},
		{Mul(C(4), C(-3)), -12},
		{Div(C(7), C(2)), 3},
		{Div(C(-7), C(2)), -4}, // floor division
		{Mod(C(7), C(3)), 1},
		{Mod(C(-7), C(3)), 2}, // Euclidean mod
		{Min(C(3), C(9)), 3},
		{Max(C(3), C(9)), 9},
		{Neg(C(5)), -5},
	}
	for i, c := range cases {
		v, ok := c.got.ConstVal()
		if !ok {
			t.Errorf("case %d: %v did not fold to a constant", i, c.got)
			continue
		}
		if v != c.want {
			t.Errorf("case %d: got %d, want %d", i, v, c.want)
		}
	}
}

func TestAffineSimplification(t *testing.T) {
	j := V("j")
	// j + 1 - 1 == j
	if got := Sub(Add(j, C(1)), C(1)); !got.Equal(j) {
		t.Errorf("j+1-1 = %v, want j", got)
	}
	// 2j + 3j == 5j
	if got := Add(Mul(C(2), j), Mul(C(3), j)); !got.Equal(Mul(C(5), j)) {
		t.Errorf("2j+3j = %v, want 5j", got)
	}
	// j - j == 0
	if got := Sub(j, j); !got.IsZero() {
		t.Errorf("j-j = %v, want 0", got)
	}
}

func TestModSimplification(t *testing.T) {
	j := V("j")
	s := C(4)
	// (j + 8) mod 4 == j mod 4
	if got, want := Mod(Add(j, C(8)), s), Mod(j, s); !got.Equal(want) {
		t.Errorf("(j+8) mod 4 = %v, want %v", got, want)
	}
	// (j + 4k) mod 4 == j mod 4
	if got, want := Mod(Add(j, Mul(C(4), V("k"))), s), Mod(j, s); !got.Equal(want) {
		t.Errorf("(j+4k) mod 4 = %v, want %v", got, want)
	}
	// ((j mod 4) mod 4) == j mod 4
	if got, want := Mod(Mod(j, s), s), Mod(j, s); !got.Equal(want) {
		t.Errorf("(j mod 4) mod 4 = %v, want %v", got, want)
	}
	// (7) mod 4 == 3
	if v, ok := Mod(C(7), s).ConstVal(); !ok || v != 3 {
		t.Errorf("7 mod 4 = %v", Mod(C(7), s))
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := V("x").Eval(Env{}); err == nil {
		t.Error("unbound variable should be an error")
	}
	if _, err := Mod(V("x"), V("m")).Eval(Env{"x": 1, "m": 0}); err == nil {
		t.Error("mod by zero should be an error")
	}
	// A negative modulus is Idn's Euclidean mod, as the sequential
	// interpreter computes it: 7 mod -3 = 1.
	if v, err := Mod(V("x"), V("m")).Eval(Env{"x": 7, "m": -3}); err != nil || v != 1 {
		t.Errorf("7 mod -3 = %d, %v; want 1", v, err)
	}
	if _, err := Div(V("x"), V("m")).Eval(Env{"x": 1, "m": 0}); err == nil {
		t.Error("div by zero should be an error")
	}
}

func TestSubst(t *testing.T) {
	j := V("j")
	e := Mod(Add(j, C(1)), C(4))
	got := e.Subst("j", C(7))
	if v, ok := got.ConstVal(); !ok || v != 0 {
		t.Errorf("subst j=7 into (j+1) mod 4: got %v, want 0", got)
	}
	// Substitution into nested atoms.
	e2 := Div(Mul(V("i"), V("n")), C(2))
	got2 := e2.Subst("i", C(6)).Subst("n", C(5))
	if v, ok := got2.ConstVal(); !ok || v != 15 {
		t.Errorf("got %v, want 15", got2)
	}
}

func TestEqualTri(t *testing.T) {
	j := V("j")
	if got := EqualTri(Add(j, C(1)), Add(j, C(1))); got != Yes {
		t.Errorf("identical exprs: %v, want yes", got)
	}
	if got := EqualTri(Add(j, C(1)), Add(j, C(2))); got != No {
		t.Errorf("constant-offset exprs: %v, want no", got)
	}
	if got := EqualTri(V("i"), V("j")); got != Maybe {
		t.Errorf("distinct vars: %v, want maybe", got)
	}
	if got := EqualTri(Mod(j, C(4)), C(2)); got != Maybe {
		t.Errorf("mod vs const: %v, want maybe", got)
	}
}

func TestVars(t *testing.T) {
	e := Add(Mod(Add(V("j"), C(1)), V("S")), Mul(V("i"), V("n")))
	for _, v := range []string{"S", "i", "j", "n"} {
		if !e.HasVar(v) {
			t.Errorf("HasVar(%q) = false in %v", v, e)
		}
	}
	if e.HasVar("k") {
		t.Errorf("HasVar(\"k\") = true in %v", e)
	}
}

func TestStringStable(t *testing.T) {
	// Commutative construction yields identical canonical strings.
	a := Add(Add(V("a"), V("b")), C(3))
	b := Add(C(3), Add(V("b"), V("a")))
	if a.String() != b.String() {
		t.Errorf("%q != %q", a.String(), b.String())
	}
	cases := map[string]Expr{
		"j + 1":           Add(V("j"), C(1)),
		"-j":              Neg(V("j")),
		"2*j - 3":         Sub(Mul(C(2), V("j")), C(3)),
		"((j + 1) mod 4)": Mod(Add(V("j"), C(1)), C(4)),
		"0":               Expr{},
	}
	for want, e := range cases {
		if e.String() != want {
			t.Errorf("String() = %q, want %q", e.String(), want)
		}
	}
}

func TestSolveModEqSimple(t *testing.T) {
	// (j+1) mod 4 == 2  =>  j ≡ 1 (mod 4), so "for j = 0 to 12" starts at 1.
	class, ok := Solve(Mod(Add(V("j"), C(1)), C(4)), 2, "j")
	if !ok {
		t.Fatal("Solve failed")
	}
	o := Range(C(0), C(12)).Intersect(class)
	first, err := o.First.Eval(Env{})
	if err != nil || first != 1 {
		t.Fatalf("first = %v (%v), want 1", o.First, err)
	}
	if o.Stride != 4 {
		t.Fatalf("stride = %d, want 4", o.Stride)
	}
}

func TestSolveModEqNegativeCoef(t *testing.T) {
	// (5 - j) mod 3 == 1  =>  -j ≡ -4 ≡ 2 (mod 3)  =>  j ≡ 1 (mod 3)
	class, ok := Solve(Mod(Sub(C(5), V("j")), C(3)), 1, "j")
	if !ok {
		t.Fatal("Solve failed")
	}
	o := Range(C(0), C(30)).Intersect(class)
	first := value(t, o.First, Env{})
	for j := int64(0); j < 30; j++ {
		want := EucMod(5-j, 3) == 1
		got := j >= first && EucMod(j-first, o.Stride) == 0
		if want != got {
			t.Fatalf("j=%d: solver says %v, direct check says %v", j, got, want)
		}
	}
}

func TestSolveModEqUndecidable(t *testing.T) {
	// Coefficient not coprime with modulus.
	if _, ok := Solve(Mod(Mul(C(2), V("j")), C(4)), 1, "j"); ok {
		t.Error("2j mod 4 == 1 should be undecidable (gcd 2)")
	}
	// Variable inside an opaque atom.
	if _, ok := Solve(Mod(Div(V("j"), C(2)), C(4)), 1, "j"); ok {
		t.Error("j inside div should be undecidable")
	}
	// Target outside the values the owner takes.
	for _, p := range []int64{-1, 4} {
		if _, ok := Solve(Mod(V("j"), C(4)), p, "j"); ok {
			t.Errorf("j mod 4 == %d should be rejected", p)
		}
	}
	// Variable absent.
	if _, ok := Solve(Mod(V("i"), C(4)), 1, "j"); ok {
		t.Error("absent variable should be rejected")
	}
	// Owner not a mod.
	if _, ok := Solve(Div(Sub(V("j"), C(1)), C(2)), 1, "j"); ok {
		t.Error("a block owner should be undecidable")
	}
}

func TestFirstAtLeast(t *testing.T) {
	// (j - 3) mod 5 == 0: the owned iterations are j ≡ 3 (mod 5).
	owner := Mod(Sub(V("j"), C(3)), C(5))
	for lo := int64(-7); lo < 20; lo++ {
		class, ok := Solve(owner, 0, "j")
		if !ok {
			t.Fatalf("Solve from %d failed", lo)
		}
		first := value(t, Range(C(lo), C(20)).Intersect(class).First, Env{})
		if first < lo || EucMod(first-3, 5) != 0 || first-lo >= 5 {
			t.Fatalf("first at or after %d = %d", lo, first)
		}
	}
}

// Property: Solve's owned iterations match a brute-force scan of solutions.
func TestSolveModEqMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		s := int64(rng.Intn(9) + 2)
		coef := int64(rng.Intn(11) - 5)
		if coef == 0 {
			coef = 1
		}
		d := int64(rng.Intn(21) - 10)
		p := int64(rng.Intn(int(s)))
		owner := Mod(Add(Mul(C(coef), V("j")), C(d)), C(s))
		class, ok := Solve(owner, p, "j")
		g, _, _ := extGCD(EucMod(coef, s), s)
		if g != 1 {
			if ok {
				// Only acceptable if the solver refused; it must not claim ok.
				t.Fatalf("gcd(%d,%d)=%d but solver claimed success", coef, s, g)
			}
			continue
		}
		if !ok {
			t.Fatalf("solver failed on coprime case coef=%d s=%d", coef, s)
		}
		o := Range(C(-25), C(25)).Intersect(class)
		first := value(t, o.First, Env{})
		for j := int64(-25); j <= 25; j++ {
			direct := EucMod(coef*j+d, s) == p
			bySol := j >= first && EucMod(j-first, o.Stride) == 0
			if direct != bySol {
				t.Fatalf("coef=%d d=%d s=%d p=%d j=%d: direct=%v solver=%v",
					coef, d, s, p, j, direct, bySol)
			}
		}
	}
}

// Property: Eval(Add(a,b)) == Eval(a)+Eval(b) etc. on random affine exprs.
func TestArithmeticHomomorphism(t *testing.T) {
	type lin struct{ A, B, C int64 }
	env := Env{"x": 0, "y": 0}
	mk := func(l lin) Expr { return Add(Add(Mul(C(l.A), V("x")), Mul(C(l.B), V("y"))), C(l.C)) }
	f := func(p, q lin, x, y int16) bool {
		env["x"], env["y"] = int64(x), int64(y)
		a, b := mk(p), mk(q)
		av, bv := value(t, a, env), value(t, b, env)
		if value(t, Add(a, b), env) != av+bv {
			return false
		}
		if value(t, Sub(a, b), env) != av-bv {
			return false
		}
		if value(t, Mul(a, b), env) != av*bv {
			return false
		}
		if value(t, Neg(a), env) != -av {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: mod simplification is sound — simplified and unsimplified forms
// evaluate identically.
func TestModSimplificationSound(t *testing.T) {
	f := func(a, b, k int16, s uint8) bool {
		mod := int64(s%16) + 2
		env := Env{"j": int64(a), "k": int64(k)}
		// (j + b + mod*k) mod mod should equal (j + b) mod mod.
		e1 := Mod(Add(Add(V("j"), C(int64(b))), Mul(C(mod), V("k"))), C(mod))
		want := EucMod(int64(a)+int64(b), mod)
		return value(t, e1, env) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: String is injective enough — equal strings imply Equal exprs for
// randomly constructed expressions.
func TestStringCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var gen func(depth int) Expr
	vars := []string{"i", "j", "k"}
	gen = func(depth int) Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return C(int64(rng.Intn(9) - 4))
			}
			return V(vars[rng.Intn(len(vars))])
		}
		a, b := gen(depth-1), gen(depth-1)
		switch rng.Intn(6) {
		case 0:
			return Add(a, b)
		case 1:
			return Sub(a, b)
		case 2:
			return Mul(a, b)
		case 3:
			return Mod(a, C(int64(rng.Intn(5)+2)))
		case 4:
			return Min(a, b)
		default:
			return Max(a, b)
		}
	}
	exprs := make([]Expr, 200)
	for i := range exprs {
		exprs[i] = gen(3)
	}
	for i := range exprs {
		for j := range exprs {
			se, sf := exprs[i].String(), exprs[j].String()
			if (se == sf) != exprs[i].Equal(exprs[j]) {
				t.Fatalf("canonical string mismatch: %q vs %q, Equal=%v",
					se, sf, exprs[i].Equal(exprs[j]))
			}
		}
	}
}

func TestFloorDivEucModAgree(t *testing.T) {
	f := func(a int32, b int16) bool {
		bb := int64(b)
		if bb == 0 {
			return true
		}
		q := FloorDiv(int64(a), bb)
		var r int64
		if bb > 0 {
			r = EucMod(int64(a), bb)
			// a = q*b + r with 0 <= r < b
			return q*bb+r == int64(a) && r >= 0 && r < bb
		}
		// floor property for negative divisor: q <= a/b < q+1 with b < 0
		// multiplies through as q*b >= a > (q+1)*b. The Euclidean mod is
		// a's residue in [0, |b|).
		r = EucMod(int64(a), bb)
		return q*bb >= int64(a) && (q+1)*bb < int64(a) &&
			r >= 0 && r < -bb && (int64(a)-r)%bb == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func ExampleSolve() {
	// Which iterations of "for j = 2 to 12" does processor 2 own under
	// wrapped columns, (j+1) mod 4?
	class, _ := Solve(Mod(Add(V("j"), C(1)), C(4)), 2, "j")
	o := Range(C(2), C(12)).Intersect(class)
	fmt.Printf("for j = %v to %v by %d\n", o.First, o.Hi, o.Stride)
	// Output:
	// for j = 5 to 12 by 4
}

func TestEqualTriModRules(t *testing.T) {
	j := V("j")
	s := C(4)
	// (j+1) mod 4 vs j mod 4: never equal.
	if got := EqualTri(Mod(Add(j, C(1)), s), Mod(j, s)); got != No {
		t.Errorf("(j+1) mod 4 == j mod 4: %v, want no", got)
	}
	// (j+4) mod 4 vs j mod 4: always equal.
	if got := EqualTri(Mod(Add(j, C(4)), s), Mod(j, s)); got != Yes {
		t.Errorf("(j+4) mod 4 == j mod 4: %v, want yes", got)
	}
	// j mod 4 vs 6: impossible (range).
	if got := EqualTri(Mod(j, s), C(6)); got != No {
		t.Errorf("j mod 4 == 6: %v, want no", got)
	}
	if got := EqualTri(C(-1), Mod(j, s)); got != No {
		t.Errorf("-1 == j mod 4: %v, want no", got)
	}
	// j mod 4 vs 2: depends on j.
	if got := EqualTri(Mod(j, s), C(2)); got != Maybe {
		t.Errorf("j mod 4 == 2: %v, want maybe", got)
	}
	// Different moduli: undecidable.
	if got := EqualTri(Mod(j, C(4)), Mod(j, C(3))); got != Maybe {
		t.Errorf("j mod 4 == j mod 3: %v, want maybe", got)
	}
}

// value evaluates e, which the test knows is closed under env.
func value(t *testing.T, e Expr, env Env) int64 {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
