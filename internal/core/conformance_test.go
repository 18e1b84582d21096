package core_test

import (
	"math/rand"
	"testing"

	"procdecomp/internal/gen"
	"procdecomp/internal/machine"
)

// Conformance property: for randomly generated stencil programs under
// random decompositions and machine sizes, every point of the standard
// pipeline — run-time resolution, compile-time resolution, and Optimized
// I–III — computes exactly the sequential interpreter's result. This is the
// repository's strongest correctness statement: the process decomposition is
// semantics-preserving across the whole compilation space, not just on the
// paper's example. gen.Check compiles and checks each program the way every
// product does.

func TestConformanceRandomStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		src, distName := gen.Program(rng)
		procs := []int{1, 2, 3, 4, 5}[rng.Intn(5)]
		blk := int64(1 + rng.Intn(6))
		rng.Int63() // once the input's seed; still drawn, so each trial generates the program it always did
		if _, err := gen.Check(src, "step", machine.DefaultConfig(procs), blk); err != nil {
			t.Fatalf("trial %d (dist=%s, S=%d): %v\n%s", trial, distName, procs, err, src)
		}
	}
}

// Conformance on the message-count invariant: whatever the optimizations do
// to packaging, the total number of VALUES moved must be identical to
// run-time resolution's (locality decides what moves; optimizations only
// re-batch it). Sends to nobody (the unconsumed last column) are the one
// allowed difference, so the optimized value count may be at most the RTR
// count.
func TestConformanceValuesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		src, _ := gen.Program(rng)
		procs := 2 + rng.Intn(3)
		rng.Int63() // once the input's seed
		outs, err := gen.Check(src, "step", machine.DefaultConfig(procs), 4)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		base, after := outs["rtr"].Stats, outs["opt3"].Stats
		if after.Values > base.Values {
			t.Errorf("trial %d: optimization increased moved values: %d > %d\n%s",
				trial, after.Values, base.Values, src)
		}
		if after.Messages > base.Messages {
			t.Errorf("trial %d: optimization increased messages: %d > %d",
				trial, after.Messages, base.Messages)
		}
	}
}

// Conformance under multiplexing: the same random programs, with the
// specialized processes co-scheduled on fewer physical nodes, must still
// match the sequential semantics (the §5.4 machine mode changes timing, and
// must not change meaning).
func TestConformanceMultiplexed(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	for trial := 0; trial < 8; trial++ {
		src, distName := gen.Program(rng)
		const vprocs = 6
		const nodes = 2
		rng.Int63() // once the input's seed
		cfg := machine.DefaultConfig(vprocs)
		cfg.Placement = make([]int, vprocs)
		for i := range cfg.Placement {
			cfg.Placement[i] = i % nodes
		}
		if _, err := gen.Check(src, "step", cfg, 4); err != nil {
			t.Fatalf("trial %d (dist=%s): %v\n%s", trial, distName, err, src)
		}
	}
}

// Conformance on shapes the generator does not draw, each checked at every
// pipeline point against the sequential interpreter.
func TestConformanceRows(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		// Idn's mod is Euclidean for a negative modulus too: 7 mod -3 = 1.
		{"negative modulus", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[i, (j mod (0 - N)) + 1] + Old[(i div (0 - 2)) + N, j];
    }
  }
  return New;
}
`},
		// An owned scalar in a subscript is broadcast from its owner: the
		// owner sends (a decided Yes), every other process receives (No).
		{"owned scalar in a subscript", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  let k: int on proc(1) = 3;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[k, j] + Old[i, j];
    }
  }
  return New;
}
`},
		// A replicated scalar in a subscript is coerced from everyone to
		// everyone: each process reads its own copy.
		{"replicated scalar in a subscript", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  let k = 3;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[k, j] + Old[i, j];
    }
  }
  return New;
}
`},
		// A call's result in a subscript is broadcast to every process.
		{"call in a subscript outside a loop", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc third(): int {
  return 3;
}

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  let c = Old[third(), 2];
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[i, j] + c;
    }
  }
  return New;
}
`},
		// Every process evaluates a branch condition, so an element read
		// there is broadcast from an owner only the run can tell: the
		// coerce stays a run-time test.
		{"branch on an element", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    for i = 1 to N {
      if Old[i, j] > 0.5 {
        New[i, j] = Old[i, j];
      } else {
        New[i, j] = 0 - Old[i, j];
      }
    }
  }
  return New;
}
`},
		// Each call, and each execution of a scalar let, binds a fresh
		// variable, as the sequential program gives each its own frame.
		{"call in a value inside a loop", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc twice(x: real): real {
  return x + x;
}

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = twice(Old[i, j]);
    }
  }
  return New;
}
`},
		{"call in a subscript inside a loop", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc third(): int {
  return 3;
}

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[third(), j] + Old[i, j];
    }
  }
  return New;
}
`},
		{"call with a loop-variant argument", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc wrap(k: int): int {
  return k mod N + 1;
}

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    for i = 1 to N {
      New[i, j] = Old[wrap(i), j];
    }
  }
  return New;
}
`},
		{"replicated scalar let in the inner loop", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    for i = 1 to N {
      let t = Old[i, j] + 1;
      New[i, j] = t * t;
    }
  }
  return New;
}
`},
		{"owned scalar let in the outer loop", `
const N = 8;

dist D = cyclic_cols(NPROCS);

proc step(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    let s: real on proc(0) = Old[1, j];
    for i = 1 to N {
      New[i, j] = Old[i, j] + s;
    }
  }
  return New;
}
`},
	} {
		if _, err := gen.Check(tc.src, "step", machine.DefaultConfig(4), 4); err != nil {
			t.Errorf("%s: %v\n%s", tc.name, err, tc.src)
		}
	}
}
