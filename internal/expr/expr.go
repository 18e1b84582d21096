// Package expr implements the symbolic integer expression algebra used by
// the process-decomposition compiler.
//
// The evaluators/participants analysis of compile-time resolution (paper
// §3.2) manipulates processor-mapping expressions such as "(j+1) mod S".
// This package provides a canonical representation for such expressions —
// affine combinations of variables and opaque atoms (mod, div, min, max,
// non-affine products) — along with simplification, evaluation, substitution,
// tri-state comparison, and the modular equation solver used to restrict loop
// bounds to the iterations a processor owns.
//
// div is floor division and mod is Euclidean (the result lies in [0, m) for
// m > 0), matching the paper's processor arithmetic where the left neighbour
// on a ring is (p-1) mod S even for p = 0.
package expr

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Expr is an immutable symbolic integer expression in canonical form: a
// constant plus a sum of coefficient·atom terms, where an atom is a variable
// or an opaque subexpression (mod, div, min, max, product). The zero value is
// the constant 0.
type Expr struct {
	terms []term // sorted by atom key; no zero coefficients; unique atoms
	c     int64
}

type term struct {
	coef int64
	atom atom
}

// atom is a non-constant building block of an expression.
type atom interface {
	key() string // canonical, unambiguous; used for ordering and equality
	eval(env Env) (int64, error)
	subst(name string, r Expr) Expr // result of substituting into this atom
	hasVar(name string) bool
}

// Env supplies values for free variables during evaluation.
type Env map[string]int64

// Tri is a three-valued truth value: the outcome of a comparison the compiler
// may or may not be able to decide (paper §3.2: "Three outcomes are possible:
// true, false, and inconclusive").
type Tri int

// Tri values.
const (
	No Tri = iota
	Maybe
	Yes
)

func (t Tri) String() string {
	switch t {
	case No:
		return "no"
	case Yes:
		return "yes"
	default:
		return "maybe"
	}
}

// C returns the constant expression v.
func C(v int64) Expr { return Expr{c: v} }

// V returns the variable expression name.
func V(name string) Expr {
	return Expr{terms: []term{{coef: 1, atom: varAtom(name)}}}
}

// atomExpr wraps a single atom with coefficient 1.
func atomExpr(a atom) Expr {
	return Expr{terms: []term{{coef: 1, atom: a}}}
}

// normalize sorts terms by atom key, merges duplicate atoms and drops zero
// coefficients, in place: the result keeps ts, so every caller passes a slice
// it built for the call.
func normalize(ts []term, c int64) Expr {
	if !slices.IsSortedFunc(ts, byKey) {
		slices.SortFunc(ts, byKey)
	}
	out := ts[:0]
	for _, t := range ts {
		if t.coef == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].atom.key() == t.atom.key() {
			out[n-1].coef += t.coef
			if out[n-1].coef == 0 {
				out = out[:n-1]
			}
			continue
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return C(c)
	}
	return Expr{terms: out, c: c}
}

func byKey(s, t term) int { return strings.Compare(s.atom.key(), t.atom.key()) }

// Add returns a+b.
func Add(a, b Expr) Expr { return plus(a, b, 1) }

// Sub returns a-b.
func Sub(a, b Expr) Expr { return plus(a, b, -1) }

// plus returns a + k·b for k ≠ 0.
func plus(a, b Expr, k int64) Expr {
	switch {
	case len(b.terms) == 0:
		return Expr{terms: a.terms, c: a.c + k*b.c}
	case len(a.terms) == 0:
		kb := scale(b, k)
		kb.c += a.c
		return kb
	}
	ts := make([]term, 0, len(a.terms)+len(b.terms))
	ts = append(ts, a.terms...)
	for _, t := range b.terms {
		ts = append(ts, term{coef: k * t.coef, atom: t.atom})
	}
	return normalize(ts, a.c+k*b.c)
}

// Neg returns -a.
func Neg(a Expr) Expr { return scale(a, -1) }

func scale(a Expr, k int64) Expr {
	switch k {
	case 0:
		return Expr{}
	case 1:
		return a
	}
	ts := make([]term, len(a.terms))
	for i, t := range a.terms {
		ts[i] = term{coef: t.coef * k, atom: t.atom}
	}
	return Expr{terms: ts, c: a.c * k}
}

// Mul returns a*b, distributing constants over affine forms and falling back
// to an opaque product atom when both operands are non-constant.
func Mul(a, b Expr) Expr {
	if k, ok := a.ConstVal(); ok {
		return scale(b, k)
	}
	if k, ok := b.ConstVal(); ok {
		return scale(a, k)
	}
	// Canonical order for the operands of the opaque product.
	sa, sb := a.String(), b.String()
	if sa > sb {
		a, b, sa, sb = b, a, sb, sa
	}
	return atomExpr(prodAtom{pair{a, b, "(" + sa + ")*(" + sb + ")"}})
}

// Div returns floor(a/b). Constant cases fold; division by 1 is the identity.
func Div(a, b Expr) Expr {
	if k, ok := b.ConstVal(); ok {
		if k == 1 {
			return a
		}
		if av, ok2 := a.ConstVal(); ok2 && k != 0 {
			return C(FloorDiv(av, k))
		}
	}
	return atomExpr(divAtom{pair{a, b, "((" + a.String() + ") div " + b.String() + ")"}})
}

// Mod returns a mod b (Euclidean for constant positive b). When b is a
// positive constant s, terms of a whose coefficients are multiples of s are
// dropped and the constant part is reduced, since (x + k·s) mod s = x mod s.
func Mod(a, b Expr) Expr {
	if s, ok := b.ConstVal(); ok && s > 0 {
		// Dropping terms keeps the rest in key order.
		red := Expr{terms: a.terms, c: EucMod(a.c, s)}
		if slices.ContainsFunc(a.terms, func(t term) bool { return t.coef%s == 0 }) {
			red.terms = nil
			for _, t := range a.terms {
				if t.coef%s != 0 {
					red.terms = append(red.terms, t)
				}
			}
		}
		if v, ok := red.ConstVal(); ok {
			return C(EucMod(v, s))
		}
		// mod(mod(e, s), s) == mod(e, s)
		if red.c == 0 && len(red.terms) == 1 && red.terms[0].coef == 1 {
			if m, ok := red.terms[0].atom.(modAtom); ok {
				if ms, ok2 := m.b.ConstVal(); ok2 && ms == s {
					return atomExpr(m)
				}
			}
		}
		a = red
	}
	return atomExpr(modAtom{pair{a, b, "((" + a.String() + ") mod " + b.String() + ")"}})
}

// Min returns min(a, b), folding constants and identical operands.
func Min(a, b Expr) Expr {
	if av, ok := a.ConstVal(); ok {
		if bv, ok2 := b.ConstVal(); ok2 {
			if av < bv {
				return a
			}
			return b
		}
	}
	if a.Equal(b) {
		return a
	}
	sa, sb := a.String(), b.String()
	if sa > sb {
		a, b, sa, sb = b, a, sb, sa
	}
	return atomExpr(minAtom{pair{a, b, "min(" + sa + ", " + sb + ")"}})
}

// Max returns max(a, b), folding constants and identical operands.
func Max(a, b Expr) Expr {
	if av, ok := a.ConstVal(); ok {
		if bv, ok2 := b.ConstVal(); ok2 {
			if av > bv {
				return a
			}
			return b
		}
	}
	if a.Equal(b) {
		return a
	}
	sa, sb := a.String(), b.String()
	if sa > sb {
		a, b, sa, sb = b, a, sb, sa
	}
	return atomExpr(maxAtom{pair{a, b, "max(" + sa + ", " + sb + ")"}})
}

// ConstVal reports whether e is a constant, and its value.
func (e Expr) ConstVal() (int64, bool) {
	if len(e.terms) == 0 {
		return e.c, true
	}
	return 0, false
}

// IsZero reports whether e is the constant 0.
func (e Expr) IsZero() bool { v, ok := e.ConstVal(); return ok && v == 0 }

// Equal reports structural equality of canonical forms.
func (e Expr) Equal(f Expr) bool {
	if e.c != f.c || len(e.terms) != len(f.terms) {
		return false
	}
	for i := range e.terms {
		if e.terms[i].coef != f.terms[i].coef || e.terms[i].atom.key() != f.terms[i].atom.key() {
			return false
		}
	}
	return true
}

// EqualTri decides e == f as well as the algebra allows: Yes when the
// canonical forms coincide, No when the difference is a non-zero constant;
// when both sides are mods by the same constant S whose arguments differ by
// a constant modulo S, Yes if it is 0 ("(−3j) mod 4" is "j mod 4") and No
// otherwise (the "(j+1) mod S vs j mod S" neighbours of cyclic
// decompositions); No when one side is a mod and the other a constant
// outside [0, modulus), and Maybe otherwise.
func EqualTri(e, f Expr) Tri {
	d := Sub(e, f)
	if v, ok := d.ConstVal(); ok {
		if v == 0 {
			return Yes
		}
		return No
	}
	if ae, se, eok := asMod(e); eok {
		if af, sf, fok := asMod(f); fok && se == sf {
			if dv, ok := Mod(Sub(ae, af), C(se)).ConstVal(); ok {
				if dv == 0 {
					return Yes
				}
				return No
			}
		}
		if fv, ok := f.ConstVal(); ok && (fv < 0 || fv >= se) {
			return No
		}
	}
	if _, sf, fok := asMod(f); fok {
		if ev, ok := e.ConstVal(); ok && (ev < 0 || ev >= sf) {
			return No
		}
	}
	return Maybe
}

// Eval evaluates e under env. Unbound variables, zero moduli and zero
// divisors are errors.
func (e Expr) Eval(env Env) (int64, error) {
	v := e.c
	for _, t := range e.terms {
		av, err := t.atom.eval(env)
		if err != nil {
			return 0, err
		}
		v += t.coef * av
	}
	return v, nil
}

// HasVar reports whether name occurs free in e.
func (e Expr) HasVar(name string) bool {
	for _, t := range e.terms {
		if t.atom.hasVar(name) {
			return true
		}
	}
	return false
}

// Subst returns e with every free occurrence of name replaced by r: e itself
// when name does not occur, and otherwise e's untouched terms plus the
// substituted ones.
func (e Expr) Subst(name string, r Expr) Expr {
	if !e.HasVar(name) {
		return e
	}
	kept := make([]term, 0, len(e.terms))
	out := C(e.c)
	for _, t := range e.terms {
		if !t.atom.hasVar(name) {
			kept = append(kept, t)
			continue
		}
		out = plus(out, t.atom.subst(name, r), t.coef)
	}
	return Add(Expr{terms: kept}, out)
}

// String renders e in canonical, re-parsable form.
func (e Expr) String() string {
	switch {
	case len(e.terms) == 0:
		return strconv.FormatInt(e.c, 10)
	case len(e.terms) == 1 && e.terms[0].coef == 1 && e.c == 0:
		return e.terms[0].atom.key()
	}
	// Room for every key plus a separator and a coefficient each: one
	// allocation for the whole rendering.
	var b strings.Builder
	n := 24
	for _, t := range e.terms {
		n += len(t.atom.key()) + 24
	}
	b.Grow(n)
	for i, t := range e.terms {
		switch {
		case t.coef == 1:
			if i > 0 {
				b.WriteString(" + ")
			}
		case t.coef == -1:
			if i > 0 {
				b.WriteString(" - ")
			} else {
				b.WriteByte('-')
			}
		case t.coef < 0 && i > 0:
			b.WriteString(" - ")
			writeInt(&b, -t.coef)
			b.WriteByte('*')
		default:
			if i > 0 {
				b.WriteString(" + ")
			}
			writeInt(&b, t.coef)
			b.WriteByte('*')
		}
		b.WriteString(t.atom.key())
	}
	if e.c > 0 {
		b.WriteString(" + ")
		writeInt(&b, e.c)
	} else if e.c < 0 {
		b.WriteString(" - ")
		writeInt(&b, -e.c)
	}
	return b.String()
}

func writeInt(b *strings.Builder, v int64) {
	var d [20]byte
	b.Write(strconv.AppendInt(d[:0], v, 10))
}

// FloorDiv returns floor(a/b) for b != 0: Idn's div, the one definition the
// compiler, the interpreters and sem's constant folding share.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// EucMod returns a mod m in [0, |m|) for m != 0: Idn's Euclidean mod, the one
// definition the compiler, the interpreters and sem's constant folding share.
func EucMod(a, m int64) int64 {
	r := a % m // in (-|m|, |m|), with the sign of a
	if r < 0 {
		if m < 0 {
			return r - m
		}
		r += m
	}
	return r
}

// --- atoms ---

type varAtom string

func (v varAtom) key() string { return string(v) }
func (v varAtom) eval(env Env) (int64, error) {
	val, ok := env[string(v)]
	if !ok {
		return 0, fmt.Errorf("expr: unbound variable %q", string(v))
	}
	return val, nil
}
func (v varAtom) subst(name string, r Expr) Expr {
	if string(v) == name {
		return r
	}
	return atomExpr(v)
}
func (v varAtom) hasVar(name string) bool { return string(v) == name }

// pair is an opaque atom's two operands and its canonical key. The
// constructor (Mod, Div, Min, Max, Mul) renders the key once, from operands
// that are canonical already, exactly as the operands' String() reads; key()
// returns it, so sorting, merging and comparing terms renders nothing.
type pair struct {
	a, b Expr
	k    string
}

func (p pair) key() string             { return p.k }
func (p pair) hasVar(name string) bool { return p.a.HasVar(name) || p.b.HasVar(name) }

// operands evaluates a, then b, stopping at the first error.
func (p pair) operands(env Env) (av, bv int64, err error) {
	if av, err = p.a.Eval(env); err != nil {
		return 0, 0, err
	}
	bv, err = p.b.Eval(env)
	return av, bv, err
}

type modAtom struct{ pair } // a mod b

func (m modAtom) eval(env Env) (int64, error) {
	ev, mv, err := m.operands(env)
	if err != nil {
		return 0, err
	}
	if mv == 0 {
		return 0, fmt.Errorf("expr: mod by non-positive %d", mv)
	}
	return EucMod(ev, mv), nil
}
func (m modAtom) subst(name string, r Expr) Expr {
	return Mod(m.a.Subst(name, r), m.b.Subst(name, r))
}

type divAtom struct{ pair } // a div b

func (d divAtom) eval(env Env) (int64, error) {
	ev, mv, err := d.operands(env)
	if err != nil {
		return 0, err
	}
	if mv == 0 {
		return 0, fmt.Errorf("expr: division by zero")
	}
	return FloorDiv(ev, mv), nil
}
func (d divAtom) subst(name string, r Expr) Expr {
	return Div(d.a.Subst(name, r), d.b.Subst(name, r))
}

type minAtom struct{ pair }

func (m minAtom) eval(env Env) (int64, error) {
	av, bv, err := m.operands(env)
	if err != nil {
		return 0, err
	}
	return min(av, bv), nil
}
func (m minAtom) subst(name string, r Expr) Expr {
	return Min(m.a.Subst(name, r), m.b.Subst(name, r))
}

type maxAtom struct{ pair }

func (m maxAtom) eval(env Env) (int64, error) {
	av, bv, err := m.operands(env)
	if err != nil {
		return 0, err
	}
	return max(av, bv), nil
}
func (m maxAtom) subst(name string, r Expr) Expr {
	return Max(m.a.Subst(name, r), m.b.Subst(name, r))
}

type prodAtom struct{ pair }

func (p prodAtom) eval(env Env) (int64, error) {
	av, bv, err := p.operands(env)
	if err != nil {
		return 0, err
	}
	return av * bv, nil
}
func (p prodAtom) subst(name string, r Expr) Expr {
	return Mul(p.a.Subst(name, r), p.b.Subst(name, r))
}
