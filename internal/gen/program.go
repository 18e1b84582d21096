// Package gen is test support for the paper's claim on programs nobody
// picked: Program generates random wavefront-style Idn programs, and Check
// runs one through every point of the standard pipeline and holds each
// gathered result to one sequential reference, by exec's one checked run.
// Import it from _test.go files only.
package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// stencilTerm is one operand of a generated stencil expression.
type stencilTerm struct {
	array  string // "New" or "Old"
	di, dj int64
	coef   float64
}

// Program builds a random wavefront-style Idn program. Reads of New are
// constrained to lexicographically earlier iterations (j column-major order)
// so the sequential program is well-defined.
func Program(rng *rand.Rand) (src string, distName string) {
	dists := []string{"cyclic_cols", "cyclic_rows", "block_cols", "block_rows"}
	distName = dists[rng.Intn(len(dists))]

	terms := func(allowNew bool) []stencilTerm {
		var ts []stencilTerm
		n := 1 + rng.Intn(3)
		for k := 0; k < n; k++ {
			t := stencilTerm{coef: float64(rng.Intn(5)+1) / 8}
			if allowNew && rng.Intn(2) == 0 {
				t.array = "New"
				// Lexicographically earlier in (j, i) order.
				if rng.Intn(2) == 0 {
					t.dj = -1
					t.di = int64(rng.Intn(3) - 1)
				} else {
					t.dj = 0
					t.di = -1
				}
			} else {
				t.array = "Old"
				t.di = int64(rng.Intn(3) - 1)
				t.dj = int64(rng.Intn(3) - 1)
			}
			ts = append(ts, t)
		}
		return ts
	}

	expr := func(ts []stencilTerm) string {
		parts := make([]string, len(ts))
		for i, t := range ts {
			idx := func(v string, d int64) string {
				switch {
				case d > 0:
					return fmt.Sprintf("%s + %d", v, d)
				case d < 0:
					return fmt.Sprintf("%s - %d", v, -d)
				default:
					return v
				}
			}
			parts[i] = fmt.Sprintf("%g * %s[%s, %s]", t.coef, t.array, idx("i", t.di), idx("j", t.dj))
		}
		return strings.Join(parts, " + ")
	}

	var body string
	if rng.Intn(3) == 0 {
		// Data-dependent control flow between two stencils.
		body = fmt.Sprintf(`      if i mod 2 == 0 {
        New[i, j] = %s;
      } else {
        New[i, j] = %s + bias;
      }`, expr(terms(true)), expr(terms(true)))
	} else {
		body = fmt.Sprintf("      New[i, j] = %s + bias;", expr(terms(true)))
	}

	// The bias scalar lives on a random processor (or replicated),
	// exercising scalar coercion into the stencil.
	biasMap := "all"
	if rng.Intn(2) == 0 {
		biasMap = "proc(0)"
	}

	src = fmt.Sprintf(`
const N = %d;

dist D = %s(NPROCS);

proc boundary(New: matrix[N, N] on D) {
  for j = 1 to N {
    New[1, j] = 2.0;
    New[N, j] = 3.0;
  }
  for i = 2 to N - 1 {
    New[i, 1] = 4.0;
    New[i, N] = 5.0;
  }
}

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  let bias: real on %s = 0.125;
  call boundary(New);
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
%s
    }
  }
  return New;
}
`, 8+rng.Intn(9), distName, biasMap, body)
	return src, distName
}
