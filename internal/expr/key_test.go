package expr

import (
	"fmt"
	"strings"
	"testing"

	"procdecomp/internal/golden"
)

// An atom's key is rendered once, when its constructor builds it, and read
// ever after. These tests keep the rendering it replaced — recursive, from
// the operands, at every call — as the definition the stored key must equal,
// so term order, every String() and every emitted program stay what they were.

// renderKey is an atom's canonical key as first defined.
func renderKey(a atom) string {
	switch a := a.(type) {
	case varAtom:
		return string(a)
	case modAtom:
		return "((" + render(a.a) + ") mod " + render(a.b) + ")"
	case divAtom:
		return "((" + render(a.a) + ") div " + render(a.b) + ")"
	case minAtom:
		return "min(" + render(a.a) + ", " + render(a.b) + ")"
	case maxAtom:
		return "max(" + render(a.a) + ", " + render(a.b) + ")"
	case prodAtom:
		return "(" + render(a.a) + ")*(" + render(a.b) + ")"
	}
	panic(fmt.Sprintf("renderKey: unknown atom %T", a))
}

// render is Expr.String as first written, over renderKey.
func render(e Expr) string {
	if len(e.terms) == 0 {
		return fmt.Sprintf("%d", e.c)
	}
	var b strings.Builder
	for i, t := range e.terms {
		s := renderKey(t.atom)
		switch {
		case t.coef == 1:
			if i > 0 {
				b.WriteString(" + ")
			}
			b.WriteString(s)
		case t.coef == -1:
			if i > 0 {
				b.WriteString(" - ")
				b.WriteString(s)
			} else {
				b.WriteString("-" + s)
			}
		case t.coef < 0 && i > 0:
			fmt.Fprintf(&b, " - %d*%s", -t.coef, s)
		default:
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%d*%s", t.coef, s)
		}
	}
	if e.c > 0 {
		fmt.Fprintf(&b, " + %d", e.c)
	} else if e.c < 0 {
		fmt.Fprintf(&b, " - %d", -e.c)
	}
	return b.String()
}

// checkKeys holds every atom of e, at every depth, to renderKey, e's terms to
// strictly increasing rendered keys with no zero coefficient, and String to
// render.
func checkKeys(t *testing.T, e Expr) {
	t.Helper()
	if got, want := e.String(), render(e); got != want {
		t.Fatalf("String() = %q, rendering gives %q", got, want)
	}
	prev := ""
	for i, tm := range e.terms {
		want := renderKey(tm.atom)
		if got := tm.atom.key(); got != want {
			t.Fatalf("%s: stored key %q, rendering gives %q", e, got, want)
		}
		if tm.coef == 0 || (i > 0 && want <= prev) {
			t.Fatalf("%s: term %d (coef %d, key %q) out of canonical order after %q", e, i, tm.coef, want, prev)
		}
		prev = want
		var p pair
		switch a := tm.atom.(type) {
		case varAtom:
			continue
		case modAtom:
			p = a.pair
		case divAtom:
			p = a.pair
		case minAtom:
			p = a.pair
		case maxAtom:
			p = a.pair
		case prodAtom:
			p = a.pair
		}
		checkKeys(t, p.a)
		checkKeys(t, p.b)
	}
}

// checkKeysUnderOps checks e, f and what each operation of the algebra builds
// from them.
func checkKeysUnderOps(t *testing.T, e, f Expr) {
	t.Helper()
	for _, g := range []Expr{e, f, Add(e, f), Sub(e, f), Mul(e, f), Mod(e, f), Div(e, f), Min(e, f), Max(e, f),
		Mod(e, C(4)), Div(e, C(3)), e.Subst("a", f), e.Subst("z", f), Swap(e)} {
		checkKeys(t, g)
	}
}

func TestAtomKeyMatchesRendering(t *testing.T) {
	cases := codeCorpus()
	for i, c := range cases {
		checkKeysUnderOps(t, c.e, cases[(i+1)%len(cases)].e)
	}
}

func FuzzCanonicalKey(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{4, 4, 0, 9, 3, 1, 7, 200, 13, 5, 4, 4, 6, 2, 9, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, choices []byte) {
		pick := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			x := int(choices[0]) % n
			choices = choices[1:]
			return x
		}
		nvars := 1 + pick(4)
		e := genExpr(pick, nvars, 4)
		checkKeysUnderOps(t, e, genExpr(pick, nvars, 3))
	})
}

// Substituting a name an expression does not mention returns the expression
// itself, and asking whether it mentions one walks the tree: neither
// allocates.
func TestSubstAbsentAndHasVarDoNotAllocate(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	e := Add(Mod(Add(V("a"), Div(V("b"), C(3))), Max(V("c"), C(2))), Mul(V("a"), V("d")))
	r := Add(V("q"), C(1))
	var got Expr
	if n := testing.AllocsPerRun(100, func() { got = e.Subst("z", r) }); n != 0 {
		t.Errorf("Subst of an absent name: %.0f allocations, want 0", n)
	}
	if !got.Equal(e) {
		t.Errorf("Subst of an absent name = %v, want %v", got, e)
	}
	var hit, miss bool
	if n := testing.AllocsPerRun(100, func() { hit, miss = e.HasVar("c"), e.HasVar("z") }); n != 0 {
		t.Errorf("HasVar: %.0f allocations, want 0", n)
	}
	if !hit || miss {
		t.Errorf("HasVar(c) = %v, HasVar(z) = %v; want true, false", hit, miss)
	}
}
