package expr

// The ownership solver of compile-time resolution.
//
// Paper §3.2: "To compute the required set of iterations for a given
// processor, we set the equations in the evaluators equal to the processor
// name and solve for the loop variable." For the wrapped-column mapping the
// equation is (j+d) mod S == p, whose solutions are the iterations
// j ≡ (p-d) mod S. Solve handles the general affine case
// (a·v + rest) mod S == p whenever gcd(a, S) = 1.

// Owned is a set of iterations of a loop variable v: the strided interval
// {First ≤ v ≤ Hi, v ≡ First (mod Stride)}, First, First+Stride, ... up to
// Hi. First and Hi may mention free variables (the loop's bounds and the
// owner expression's other variables); First is a constant when they are.
// A class Solve returns is not bounded yet: its First is one member and Hi
// is unset, and only Intersect reads it.
type Owned struct {
	First, Hi Expr
	Stride    int64
}

// Range is every iteration of a unit-stride loop from lo to hi.
func Range(lo, hi Expr) Owned { return Owned{First: lo, Hi: hi, Stride: 1} }

// Intersect returns the members of class, as Solve returns it, that lie in
// o, a Range: the class's first iteration at or after o's First, by the
// class's stride, up to o's Hi.
func (o Owned) Intersect(class Owned) Owned {
	return Owned{First: Add(o.First, Mod(Sub(class.First, o.First), C(class.Stride))), Hi: o.Hi, Stride: class.Stride}
}

// Count returns how many iterations o holds, (Hi − First) div Stride + 1.
// It is exact whenever Hi ≥ First − Stride: for a Range from lo to hi with
// hi ≥ lo − 1, and for every set Intersect takes from one (an empty range
// counts 0).
func (o Owned) Count() Expr {
	return Add(Div(Sub(o.Hi, o.First), C(o.Stride)), C(1))
}

// Solve returns the class of iterations v for which owner == p. ok is false
// when the equation is outside the decidable fragment (compile-time
// resolution then keeps a run-time test, §3.2's "inconclusive" outcome):
// owner is not (e) mod S for a constant S > 0, p is not a value it takes,
// v's coefficient in e is 0 or shares a factor with S, or v occurs inside an
// opaque atom of e.
func Solve(owner Expr, p int64, v string) (Owned, bool) {
	e, s, ok := asMod(owner)
	if !ok || p < 0 || p >= s {
		return Owned{}, false
	}
	coef, rest, ok := coefOf(e, v)
	if !ok || coef == 0 {
		return Owned{}, false
	}
	inv, ok := modInverse(coef, s)
	if !ok {
		return Owned{}, false
	}
	// a·v ≡ p - rest (mod S)  =>  v ≡ inv·(p - rest) (mod S).
	return Owned{First: Mul(C(inv), Sub(C(p), rest)), Stride: s}, true
}

// asMod decomposes e as (inner mod s) for a positive constant s. It accepts
// only a bare mod atom with coefficient 1 and no additive constant, which is
// the shape every cyclic mapping expression takes.
func asMod(e Expr) (inner Expr, s int64, ok bool) {
	if e.c != 0 || len(e.terms) != 1 || e.terms[0].coef != 1 {
		return Expr{}, 0, false
	}
	m, isMod := e.terms[0].atom.(modAtom)
	if !isMod {
		return Expr{}, 0, false
	}
	sv, isConst := m.b.ConstVal()
	if !isConst || sv <= 0 {
		return Expr{}, 0, false
	}
	return m.a, sv, true
}

// coefOf returns the coefficient of variable name in the affine part of e,
// and e with that term removed. ok is false when name occurs inside an opaque
// atom (mod, div, min, max, product), where linear reasoning is unsound.
func coefOf(e Expr, name string) (coef int64, rest Expr, ok bool) {
	ts := make([]term, 0, len(e.terms))
	for _, t := range e.terms {
		if v, isVar := t.atom.(varAtom); isVar && string(v) == name {
			coef += t.coef
			continue
		}
		if t.atom.hasVar(name) {
			return 0, Expr{}, false
		}
		ts = append(ts, t)
	}
	return coef, normalize(ts, e.c), true
}

// modInverse returns the multiplicative inverse of a modulo m > 0, reduced
// into [0, m), using the extended Euclidean algorithm. ok is false when
// gcd(a, m) != 1.
func modInverse(a, m int64) (int64, bool) {
	g, x, _ := extGCD(EucMod(a, m), m)
	if g != 1 {
		return 0, false
	}
	return EucMod(x, m), true
}

// extGCD returns g = gcd(a, b) along with x, y such that a·x + b·y = g.
func extGCD(a, b int64) (g, x, y int64) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := extGCD(b, a%b)
	return g, y1, x1 - (a/b)*y1
}
