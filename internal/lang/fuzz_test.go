package lang

import "testing"

// FuzzParse asserts the front end never panics and that anything it accepts
// survives the format/re-parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"const N = 128;",
		"dist D = cyclic_cols(NPROCS);",
		"proc f(a: matrix[4, 4] on D): matrix[4, 4] on D { return a; }",
		"proc f[D: dist](x: int on D) { call f[all](x); }",
		"proc main() { for i = 1 to 8 by 2 { A[i, j] = 1.5 * x mod 3; } }",
		"proc main() { if not (a < b and c == d) { return; } }",
		"-- comment only",
		"proc f() { let x = min(1, max(2, 3)); }",
		"proc f() { let x = --5; }",
		"proc ( } ] ;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		once := format(prog)
		prog2, err := Parse(once)
		if err != nil {
			t.Fatalf("accepted program failed to re-parse: %v\n%s", err, once)
		}
		if twice := format(prog2); once != twice {
			t.Fatalf("format not a fixpoint:\n%s\nvs\n%s", once, twice)
		}
	})
}
