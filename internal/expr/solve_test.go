package expr

import "testing"

// The ownership solver, exhaustively. Compile-time resolution restricts a
// loop to the iterations a processor owns by solving affine(j) mod S == p
// (SolveModEq) and starting the loop at the first solution (FirstAtLeast), and
// it merges or separates statement classes by EqualTri on their owner
// expressions. Over every coefficient in [-4, 4], offset in [-8, 8], S ≤ 9,
// p < S and loop bounds in [-10, 10], both agree with brute force.
//
// There is no div solver to enumerate: a block owner ((j - 1) div w) == p is
// never solved at compile time, and compile-time resolution keeps it as a
// run-time guard.

// TestSolveModEqExhaustive: the restricted loop "for j = FirstAtLeast(lo) to
// hi by Stride" visits exactly the solutions in [lo, hi], and the solver is
// inconclusive exactly where solve.go says it is — a coefficient of 0 or one
// not coprime with S.
func TestSolveModEqExhaustive(t *testing.T) {
	solved := 0
	for s := int64(1); s <= 9; s++ {
		for coef := int64(-4); coef <= 4; coef++ {
			g, _, _ := extGCD(EucMod(coef, s), s)
			inconclusive := coef == 0 || g != 1
			for off := int64(-8); off <= 8; off++ {
				e := Add(Mul(C(coef), V("j")), C(off))
				for p := int64(0); p < s; p++ {
					sol, ok := SolveModEq(e, s, C(p), "j")
					if ok == inconclusive {
						t.Fatalf("(%v) mod %d == %d: solver ok=%v, want ok=%v (gcd %d)", e, s, p, ok, !inconclusive, g)
					}
					if !ok {
						continue
					}
					solved++
					if sol.Stride != s {
						t.Fatalf("(%v) mod %d == %d: stride %d, want %d", e, s, p, sol.Stride, s)
					}
					for lo := int64(-10); lo <= 10; lo++ {
						start, err := sol.FirstAtLeast(C(lo)).Eval(nil)
						if err != nil || start < lo {
							t.Fatalf("(%v) mod %d == %d: FirstAtLeast(%d) = %d (%v)", e, s, p, lo, start, err)
						}
						for hi := lo - 1; hi <= 10; hi++ {
							// The loop visits start, start+Stride, ... up to hi.
							next := start
							for j := lo; j <= hi; j++ {
								want := EucMod(coef*j+off, s) == p
								if got := next == j; got != want {
									t.Fatalf("(%v) mod %d == %d over [%d, %d]: j=%d visited=%v, solution=%v",
										e, s, p, lo, hi, j, got, want)
								}
								if next == j {
									next += sol.Stride
								}
							}
						}
					}
				}
			}
		}
	}
	if solved == 0 {
		t.Fatal("no equation was solved")
	}
}

// TestEqualTriModsExhaustive: comparing (c1·j + d1) mod S with
// (c2·j + d2) mod S, a Yes or No is what brute force says for every j, and
// EqualTri decides every pair whose arguments differ by a constant (c1 = c2).
// Where they differ by a non-constant it may answer Maybe.
func TestEqualTriModsExhaustive(t *testing.T) {
	for s := int64(1); s <= 9; s++ {
		for c1 := int64(-4); c1 <= 4; c1++ {
			for d1 := int64(-8); d1 <= 8; d1++ {
				e := Mod(Add(Mul(C(c1), V("j")), C(d1)), C(s))
				for c2 := int64(-4); c2 <= 4; c2++ {
					for d2 := int64(-8); d2 <= 8; d2++ {
						f := Mod(Add(Mul(C(c2), V("j")), C(d2)), C(s))
						tri := EqualTri(e, f)
						// Both sides have period S in j.
						equal, differ := 0, 0
						for j := int64(0); j < s; j++ {
							if EucMod(c1*j+d1, s) == EucMod(c2*j+d2, s) {
								equal++
							} else {
								differ++
							}
						}
						switch {
						case tri == Yes && differ > 0, tri == No && equal > 0:
							t.Fatalf("EqualTri(%v, %v) = %v, but over one period %d values agree and %d differ", e, f, tri, equal, differ)
						case tri == Maybe && c1 == c2:
							t.Fatalf("EqualTri(%v, %v) = maybe, but the arguments differ by a constant", e, f)
						}
					}
				}
			}
		}
	}
}
