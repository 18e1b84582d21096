package expr

// The ownership solver of compile-time resolution.
//
// Paper §3.2: "To compute the required set of iterations for a given
// processor, we set the equations in the evaluators equal to the processor
// name and solve for the loop variable." For the wrapped-column mapping the
// equation is (j+d) mod S == p, whose solutions are the iterations
// j ≡ (p-d) mod S. Solve handles the general affine case
// (a·v + rest) mod S == p whenever gcd(a, S) = 1.

// Owned is the set of iterations a process owns in a loop: First,
// First+Stride, First+2·Stride, ... up to the loop's upper bound. First may
// mention the free variables of the loop's lower bound and of the owner
// expression; it is a constant when they are.
type Owned struct {
	First  Expr
	Stride int64
}

// Solve returns the iterations v ≥ lo for which owner == p. ok is false
// when the equation is outside the decidable fragment (compile-time
// resolution then keeps a run-time test, §3.2's "inconclusive" outcome):
// owner is not (e) mod S for a constant S > 0, p is not a value it takes,
// v's coefficient in e is 0 or shares a factor with S, or v occurs inside an
// opaque atom of e.
func Solve(owner Expr, p int64, v string, lo Expr) (Owned, bool) {
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
	// a·v ≡ p - rest (mod S)  =>  v ≡ inv·(p - rest) (mod S), and the first
	// such v ≥ lo is lo + ((inv·(p - rest) - lo) mod S).
	off := Mul(C(inv), Sub(C(p), rest))
	return Owned{First: Add(lo, Mod(Sub(off, lo), C(s))), Stride: s}, true
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
