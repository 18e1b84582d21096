package expr_test

import (
	"fmt"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/expr"
)

// The owned-iteration set, exhaustively. Compile-time resolution restricts a
// loop to the iterations a processor owns by solving (a·j + d) mod S == p
// (expr.Solve), intersecting the loop's range with the class it returns and
// running the loop over that expr.Owned set; the message passes and the
// rounds form count a set's members with Count. It merges or separates
// statement classes by EqualTri on their owner expressions. Over every
// coefficient in [-5, 5], offset in [-10, 10], S ≤ 10, p in [-1, S] and loop
// bounds in [-10, 10], all of them agree with brute force.
//
// There is no div solver to enumerate: a block owner ((j - 1) div w) == p is
// never solved at compile time, and compile-time resolution keeps it as a
// run-time guard.

// TestSolveModEqExhaustive: the set Intersect takes from a range [lo, hi] and
// a solved class — for bounds known only at evaluation and for constant ones —
// is exactly the solutions in [lo, hi], "for j = First to Hi by Stride"
// visits them in order, and Count is how many there are, as it is for the
// range itself; and the solver is inconclusive exactly where solve.go says it
// is — S = 1 (the mod folds to 0), a coefficient not coprime with S, a p the
// owner never takes, or an owner outside the (affine in j) mod S fragment.
func TestSolveModEqExhaustive(t *testing.T) {
	j := expr.V("j")
	for _, owner := range []expr.Expr{
		expr.Mod(expr.Mul(expr.C(2), j), expr.C(4)), // gcd(2, 4) = 2
		expr.Mod(expr.Div(j, expr.C(2)), expr.C(4)), // j inside an opaque atom
		expr.Mod(expr.V("i"), expr.C(4)),            // j absent
		expr.Div(expr.Sub(j, expr.C(1)), expr.C(2)), // a block owner
	} {
		for p := int64(0); p < 4; p++ {
			if o, ok := expr.Solve(owner, p, "j"); ok {
				t.Errorf("%v == %d solved to %+v, want inconclusive", owner, p, o)
			}
		}
	}

	env := expr.Env{}
	for lo := int64(-10); lo <= 10; lo++ {
		for hi := lo - 1; hi <= 10; hi++ {
			env["lo"], env["hi"] = lo, hi
			if n, err := expr.Range(expr.V("lo"), expr.V("hi")).Count().Eval(env); err != nil || n != hi-lo+1 {
				t.Fatalf("[%d, %d]: Count is %d (%v), want %d", lo, hi, n, err, hi-lo+1)
			}
		}
	}

	solved, seen := 0, map[string]bool{}
	for s := int64(1); s <= 10; s++ {
		for coef := int64(-5); coef <= 5; coef++ {
			coprime := gcd(expr.EucMod(coef, s), s) == 1
			for off := int64(-10); off <= 10; off++ {
				arg := expr.Add(expr.Mul(expr.C(coef), j), expr.C(off))
				owners := []expr.Expr{expr.Mod(arg, expr.C(s))}
				if s <= 9 {
					owners = append(owners, dist.NewCyclicCols(s, 8, 8).SymbolicOwner([]expr.Expr{expr.V("i"), arg}))
				}
				for _, owner := range owners {
					for p := int64(-1); p <= s; p++ {
						want := s > 1 && coprime && p >= 0 && p < s
						class, ok := expr.Solve(owner, p, "j")
						if ok != want {
							t.Fatalf("%v == %d: solver ok=%v, want ok=%v", owner, p, ok, want)
						}
						if !ok {
							continue
						}
						solved++
						checkOwned(t, seen, owner, p, class, func(j int64) bool { return expr.EucMod(coef*j+off, s) == p })
					}
				}
			}
		}
	}
	if solved == 0 {
		t.Fatal("no equation was solved")
	}
	t.Logf("%d equations solved to %d distinct classes", solved, len(seen))
}

// checkOwned holds class to the brute-force solution set of owner == p
// and then, once per distinct class in seen (Intersect and Count read
// nothing else of it), the sets Intersect takes from it and every range in
// [-10, 10], symbolic and with a constant lower bound.
func checkOwned(t *testing.T, seen map[string]bool, owner expr.Expr, p int64, class expr.Owned, solution func(j int64) bool) {
	t.Helper()
	s := class.Stride
	member, err := class.First.Eval(expr.Env{})
	if err != nil {
		t.Fatalf("%v == %d: class %v is not a constant: %v", owner, p, class.First, err)
	}
	for j := int64(-10); j <= 10+s; j++ {
		if got, want := expr.EucMod(j-member, s) == 0, solution(j); got != want {
			t.Fatalf("%v == %d: j=%d in class %v by %d is %v, solution=%v", owner, p, j, class.First, s, got, want)
		}
	}
	key := fmt.Sprintf("%v by %d", class.First, s)
	if seen[key] {
		return
	}
	seen[key] = true
	symbolic := expr.Range(expr.V("lo"), expr.V("hi")).Intersect(class)
	symCount := symbolic.Count()
	env := expr.Env{}
	for lo := int64(-10); lo <= 10; lo++ {
		env["lo"] = lo
		start, err := symbolic.First.Eval(env)
		if err != nil || start < lo || start >= lo+s || !solution(start) {
			t.Fatalf("%v == %d: First %v at lo=%d is %d (%v), want the first solution at or after lo", owner, p, symbolic.First, lo, start, err)
		}
		konst := expr.Range(expr.C(lo), expr.V("hi")).Intersect(class)
		if v, ok := konst.First.ConstVal(); !ok || v != start || konst.Stride != s {
			t.Fatalf("%v == %d from %d: First %v by %d, want %d by %d", owner, p, lo, konst.First, konst.Stride, start, s)
		}
		konstCount := konst.Count()
		for hi := lo - 1; hi <= 10; hi++ {
			env["hi"] = hi
			if last, err := symbolic.Hi.Eval(env); err != nil || last != hi {
				t.Fatalf("%v == %d over [%d, %d]: Hi %v is %d (%v)", owner, p, lo, hi, symbolic.Hi, last, err)
			}
			// The loop visits start, start+Stride, ... up to Hi.
			next, members := start, int64(0)
			for j := lo; j <= hi; j++ {
				if got, want := next == j, solution(j); got != want {
					t.Fatalf("%v == %d over [%d, %d]: j=%d visited=%v, solution=%v", owner, p, lo, hi, j, got, want)
				}
				if next == j {
					next += s
					members++
				}
			}
			for _, count := range []expr.Expr{symCount, konstCount} {
				if n, err := count.Eval(env); err != nil || n != members {
					t.Fatalf("%v == %d over [%d, %d]: Count %v is %d (%v), want %d", owner, p, lo, hi, count, n, err, members)
				}
			}
		}
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TestEqualTriModsExhaustive: comparing (c1·j + d1) mod S with
// (c2·j + d2) mod S, a Yes or No is what brute force says for every j, and
// EqualTri decides every pair whose arguments differ by a constant modulo S
// (c1 ≡ c2 mod S). Where they do not it may answer Maybe.
func TestEqualTriModsExhaustive(t *testing.T) {
	j := expr.V("j")
	for s := int64(1); s <= 9; s++ {
		for c1 := int64(-4); c1 <= 4; c1++ {
			for d1 := int64(-8); d1 <= 8; d1++ {
				e := expr.Mod(expr.Add(expr.Mul(expr.C(c1), j), expr.C(d1)), expr.C(s))
				for c2 := int64(-4); c2 <= 4; c2++ {
					for d2 := int64(-8); d2 <= 8; d2++ {
						f := expr.Mod(expr.Add(expr.Mul(expr.C(c2), j), expr.C(d2)), expr.C(s))
						tri := expr.EqualTri(e, f)
						// Both sides have period S in j.
						equal, differ := 0, 0
						for j := int64(0); j < s; j++ {
							if expr.EucMod(c1*j+d1, s) == expr.EucMod(c2*j+d2, s) {
								equal++
							} else {
								differ++
							}
						}
						switch {
						case tri == expr.Yes && differ > 0, tri == expr.No && equal > 0:
							t.Fatalf("EqualTri(%v, %v) = %v, but over one period %d values agree and %d differ", e, f, tri, equal, differ)
						case tri == expr.Maybe && expr.EucMod(c1-c2, s) == 0:
							t.Fatalf("EqualTri(%v, %v) = maybe, but the arguments differ by a constant modulo %d", e, f, s)
						}
					}
				}
			}
		}
	}
}
