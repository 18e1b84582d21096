package expr

// The modular equation solver of compile-time resolution.
//
// Paper §3.2: "To compute the required set of iterations for a given
// processor, we set the equations in the evaluators equal to the processor
// name and solve for the loop variable." For the wrapped-column mapping the
// equation is (j+d) mod S == p, whose solution set is the arithmetic
// progression j ≡ (p-d) mod S. SolveModEq handles the general affine case
// c·v + rest ≡ target (mod S) whenever gcd(c, S) = 1.

// Solution describes the set { v : v ≡ Offset (mod Stride) } of solutions of
// a modular equation in a single variable. Offset may mention other free
// variables of the equation; it is normalized into [0, Stride) by an outer
// mod when those variables are bound.
type Solution struct {
	Offset Expr
	Stride int64
}

// FirstAtLeast returns the smallest member of the solution set that is >= lo:
// lo + ((Offset - lo) mod Stride).
func (s Solution) FirstAtLeast(lo Expr) Expr {
	return Add(lo, Mod(Sub(s.Offset, lo), C(s.Stride)))
}

// AsMod decomposes e as (inner mod s) for a positive constant s. It accepts
// only a bare mod atom with coefficient 1 and no additive constant, which is
// the shape every cyclic mapping expression takes.
func AsMod(e Expr) (inner Expr, s int64, ok bool) {
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

// SolveModEq solves (e) mod s == target for variable v, where e must be
// affine in v with a coefficient coprime to s, and target must not mention v.
// It returns the solution progression and true, or false when the equation is
// outside the decidable fragment (the compiler then falls back to run-time
// resolution, exactly as §3.2 prescribes for the "inconclusive" outcome):
// s ≤ 0, v's coefficient is 0 or shares a factor with s, or v occurs in
// target or inside an opaque atom of e.
func SolveModEq(e Expr, s int64, target Expr, v string) (Solution, bool) {
	if s <= 0 || target.HasVar(v) {
		return Solution{}, false
	}
	coef, rest, ok := coefOf(e, v)
	if !ok || coef == 0 {
		return Solution{}, false
	}
	c := EucMod(coef, s)
	inv, ok := modInverse(c, s)
	if !ok {
		return Solution{}, false
	}
	// c·v ≡ target - rest (mod s)  =>  v ≡ inv·(target - rest) (mod s)
	off := Mod(Mul(C(inv), Sub(target, rest)), C(s))
	return Solution{Offset: off, Stride: s}, true
}

// modInverse returns the multiplicative inverse of a modulo m (both reduced
// into [0, m)), using the extended Euclidean algorithm. ok is false when
// gcd(a, m) != 1.
func modInverse(a, m int64) (int64, bool) {
	if m <= 0 {
		return 0, false
	}
	a = EucMod(a, m)
	g, x, _ := extGCD(a, m)
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
