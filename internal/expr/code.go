package expr

import (
	"fmt"
	"slices"
)

// Code is an Expr resolved against a slot numbering: every variable is an
// index into a Frame instead of a name looked up in an Env, and every atom is
// a tagged term instead of an interface value. Code.Eval computes what
// Expr.Eval computes — the same value, or the same first error — without a map
// lookup or a dynamic dispatch per atom. It is for an interpreter that
// evaluates one expression many times; Expr.Eval remains the definition, and
// the cheaper choice for evaluating an expression once.
type Code struct {
	terms []cterm // in the Expr's own (sorted-key) order, so errors agree
	c     int64
}

// cterm is coef·atom. A variable reads its slot; every other kind combines
// its two operands.
type cterm struct {
	coef int64
	a, b *Code
	slot int32
	kind uint8
}

const (
	cVar uint8 = iota
	cMod
	cDiv
	cMin
	cMax
	cProd
)

// Frame holds the variables a Code reads: slot s has the value Vals[s] when
// Known[s], and is unbound otherwise. Names maps a slot back to the
// variable's name, for the unbound-variable error only.
type Frame struct {
	Vals  []int64
	Known []bool
	Names []string
}

// Compile resolves e's variables through slot, which numbers a name (the
// same name always gets the same slot).
func Compile(e Expr, slot func(name string) int32) *Code {
	c := &Code{c: e.c}
	if len(e.terms) > 0 {
		c.terms = make([]cterm, len(e.terms))
	}
	for i, t := range e.terms {
		ct := &c.terms[i]
		ct.coef = t.coef
		var p pair
		switch at := t.atom.(type) {
		case varAtom:
			ct.kind, ct.slot = cVar, slot(string(at))
			continue
		case modAtom:
			ct.kind, p = cMod, at.pair
		case divAtom:
			ct.kind, p = cDiv, at.pair
		case minAtom:
			ct.kind, p = cMin, at.pair
		case maxAtom:
			ct.kind, p = cMax, at.pair
		case prodAtom:
			ct.kind, p = cProd, at.pair
		default:
			panic(fmt.Sprintf("expr: Compile: unknown atom %T", at))
		}
		ct.a, ct.b = Compile(p.a, slot), Compile(p.b, slot)
	}
	return c
}

// Slots appends to buf each slot c reads that buf does not already hold, in
// the order Eval first reads them, and returns the extended buffer; it
// allocates only to grow buf.
func (c *Code) Slots(buf []int32) []int32 {
	for i := range c.terms {
		t := &c.terms[i]
		if t.kind != cVar {
			buf = t.b.Slots(t.a.Slots(buf))
			continue
		}
		if !slices.Contains(buf, t.slot) {
			buf = append(buf, t.slot)
		}
	}
	return buf
}

// Terms is how many terms c has: multiples of a variable or of an atom (a
// mod, div, min, max or product), in the order Eval adds them.
func (c *Code) Terms() int { return len(c.terms) }

// Term appends to buf each slot term i of c reads that buf does not already
// hold, as Slots does, and reports whether the term is an atom rather than a
// variable.
func (c *Code) Term(i int, buf []int32) ([]int32, bool) {
	t := &c.terms[i]
	if t.kind != cVar {
		return t.b.Slots(t.a.Slots(buf)), true
	}
	if !slices.Contains(buf, t.slot) {
		buf = append(buf, t.slot)
	}
	return buf, false
}

// TermOf names term I of code C.
type TermOf struct {
	C *Code
	I int
}

// Atoms returns a code whose terms are the atoms of the named terms, each
// once and with coefficient 1, for EvalAtoms; nil if ts names none. Every
// named term must be an atom.
func Atoms(ts []TermOf) *Code {
	if len(ts) == 0 {
		return nil
	}
	k := &Code{terms: make([]cterm, 0, len(ts))}
next:
	for _, t := range ts {
		a := t.C.terms[t.I]
		a.coef = 1
		for i := range k.terms {
			if k.terms[i].same(&a) {
				continue next
			}
		}
		k.terms = append(k.terms, a)
	}
	return k
}

func (t *cterm) same(u *cterm) bool {
	return t.coef == u.coef && t.kind == u.kind && t.slot == u.slot && t.a.same(u.a) && t.b.same(u.b)
}

func (c *Code) same(d *Code) bool {
	if c == nil || d == nil {
		return c == d
	}
	if c.c != d.c || len(c.terms) != len(d.terms) {
		return false
	}
	for i := range c.terms {
		if !c.terms[i].same(&d.terms[i]) {
			return false
		}
	}
	return true
}

// EvalAtoms appends to out the value of each term of c, coefficient aside,
// with Eval's errors; it stops at the first. It is for a code built by Atoms.
func (c *Code) EvalAtoms(f *Frame, out []int64) ([]int64, error) {
	for i := range c.terms {
		one := Code{terms: c.terms[i : i+1 : i+1]} // 1·atom: the atom's value
		v, err := one.Eval(f)
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Linear reports whether c is a constant plus multiples of variables: no
// mod, div, min, max or product to compute.
func (c *Code) Linear() bool {
	for i := range c.terms {
		if c.terms[i].kind != cVar {
			return false
		}
	}
	return true
}

// Eval evaluates the code over f, with Expr.Eval's errors.
func (c *Code) Eval(f *Frame) (int64, error) {
	v := c.c
	for i := range c.terms {
		t := &c.terms[i]
		if t.kind == cVar {
			if !f.Known[t.slot] {
				return 0, fmt.Errorf("expr: unbound variable %q", f.Names[t.slot])
			}
			v += t.coef * f.Vals[t.slot]
			continue
		}
		a, err := t.a.Eval(f)
		if err != nil {
			return 0, err
		}
		b, err := t.b.Eval(f)
		if err != nil {
			return 0, err
		}
		switch t.kind {
		case cMod:
			if b == 0 {
				return 0, fmt.Errorf("expr: mod by non-positive %d", b)
			}
			a = EucMod(a, b)
		case cDiv:
			if b == 0 {
				return 0, fmt.Errorf("expr: division by zero")
			}
			a = FloorDiv(a, b)
		case cMin:
			if b < a {
				a = b
			}
		case cMax:
			if b > a {
				a = b
			}
		case cProd:
			a *= b
		}
		v += t.coef * a
	}
	return v, nil
}
