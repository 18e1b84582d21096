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
			if b <= 0 {
				return 0, fmt.Errorf("expr: mod by non-positive %d", b)
			}
			a = eucMod(a, b)
		case cDiv:
			if b == 0 {
				return 0, fmt.Errorf("expr: division by zero")
			}
			a = floorDiv(a, b)
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
