package gen

import "fmt"

// rows are the corpus's hand-written programs: shapes the generator does not
// draw, each on four processes at blk 4. The branches on an element value
// stop a walk, so the walk-based properties' domains and the differential
// controls' "both sides stop alike" arm are exercised; stops marks them.
var rows = []struct {
	name, src string
	stops     bool
}{
	// Idn's mod is Euclidean for a negative modulus too: 7 mod -3 = 1.
	{"negative modulus", row("cyclic_cols", "", `  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[i, (j mod (0 - N)) + 1] + Old[(i div (0 - 2)) + N, j];
    }
  }`), false},
	// An owned scalar in a subscript is broadcast from its owner: the
	// owner sends (a decided Yes), every other process receives (No).
	{"owned scalar in a subscript", row("cyclic_cols", "", `  let k: int on proc(1) = 3;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[k, j] + Old[i, j];
    }
  }`), false},
	// A replicated scalar in a subscript is coerced from everyone to
	// everyone: each process reads its own copy.
	{"replicated scalar in a subscript", row("cyclic_cols", "", `  let k = 3;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[k, j] + Old[i, j];
    }
  }`), false},
	// A call's result in a subscript is broadcast to every process.
	{"call in a subscript outside a loop", row("cyclic_cols", `proc third(): int {
  return 3;
}

`, `  let c = Old[third(), 2];
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[i, j] + c;
    }
  }`), false},
	// Every process evaluates a branch condition, so an element read
	// there is broadcast from an owner only the run can tell: the
	// coerce stays a run-time test.
	{"branch on an element", row("cyclic_cols", "", `  for j = 1 to N {
    for i = 1 to N {
      if Old[i, j] > 0.5 {
        New[i, j] = Old[i, j];
      } else {
        New[i, j] = 0 - Old[i, j];
      }
    }
  }`), true},
	// Each call, and each execution of a scalar let, binds a fresh
	// variable, as the sequential program gives each its own frame.
	{"call in a value inside a loop", row("cyclic_cols", `proc twice(x: real): real {
  return x + x;
}

`, `  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = twice(Old[i, j]);
    }
  }`), false},
	{"call in a subscript inside a loop", row("cyclic_cols", `proc third(): int {
  return 3;
}

`, `  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[third(), j] + Old[i, j];
    }
  }`), false},
	{"call with a loop-variant argument", row("cyclic_cols", `proc wrap(k: int): int {
  return k mod N + 1;
}

`, `  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[wrap(i), j];
    }
  }`), false},
	{"replicated scalar let in the inner loop", row("cyclic_cols", "", `  for j = 1 to N {
    for i = 1 to N {
      let t = Old[i, j] + 1;
      New[i, j] = t * t;
    }
  }`), false},
	{"owned scalar let in the outer loop", row("cyclic_cols", "", `  for j = 1 to N {
    let s: real on proc(0) = Old[1, j];
    for i = 1 to N {
      New[i, j] = Old[i, j] + s;
    }
  }`), false},
	// A branch on an element of the result, which a row mapping must
	// receive before it can branch.
	{"branch on an element of the result", row("cyclic_rows", "", `  for j = 1 to N {
    New[1, j] = Old[1, j];
  }
  for j = 1 to N {
    for i = 2 to N {
      if New[i - 1, j] > Old[i, j] {
        New[i, j] = New[i - 1, j] * 0.5;
      } else {
        New[i, j] = Old[i, j] + 0.25;
      }
    }
  }`), true},
	// Gauss-Seidel's wavefront with a replicated bias: the three message
	// passes each apply, as they do to the paper's program, so each
	// pipeline point has an image of its own.
	{"wavefront with a replicated bias", row("cyclic_cols", "", wavefront(
		"New[i, j] = 0.25 * (New[i - 1, j] + New[i, j - 1] + Old[i + 1, j] + Old[i, j + 1]) + bias;")), false},
	// The same wavefront with its subscripts swapped, under rows.
	{"transposed wavefront", row("cyclic_rows", "", wavefront(
		"New[j, i] = 0.25 * (New[j, i - 1] + New[j - 1, i] + Old[j, i + 1] + Old[j + 1, i]) + bias;")), false},
	// A branch on an owned scalar let, fed through a call.
	{"branch on an owned scalar", row("block_cols", `proc half(x: real): real {
  return x * 0.5;
}

`, `  for j = 2 to N {
    for i = 1 to N - 1 {
      let t: real on proc(0) = Old[i, j - 1];
      if half(t) < Old[i, j] {
        New[i, j] = t;
      } else {
        New[i, j] = Old[i + 1, j];
      }
    }
  }`), true},
	// An inner loop that starts at the outer loop's variable: its one
	// owned set starts where only the run can tell, and is still Fig. 5's
	// strided loop, as the loop below it that ends there is.
	{"loop from the outer variable", row("cyclic_rows", "", `  for j = 1 to N {
    for i = j to N {
      New[i, j] = Old[i, j] + 1.0;
    }
    for i = 1 to j - 1 {
      New[i, j] = Old[i, j];
    }
  }`), false},
}

// row is a program over an N×N grid, N = 8, under dist D of the given
// family: procs, then the entry step, whose body is New's allocation, then
// body, then New's return.
func row(family, procs, body string) string {
	return fmt.Sprintf(`
const N = 8;

dist D = %s(NPROCS);

%sproc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
%s
  return New;
}
`, family, procs, body)
}

// wavefront is a body that sets New's boundary to 1, then assigns stmt over
// the interior in j-major order, with a replicated scalar bias in scope.
func wavefront(stmt string) string {
	return fmt.Sprintf(`  let bias = 0.125;
  for j = 1 to N {
    New[1, j] = 1.0;
    New[N, j] = 1.0;
  }
  for i = 2 to N - 1 {
    New[i, 1] = 1.0;
    New[i, N] = 1.0;
  }
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
      %s
    }
  }`, stmt)
}
