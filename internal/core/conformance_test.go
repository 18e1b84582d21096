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
	} {
		if _, err := gen.Check(tc.src, "step", machine.DefaultConfig(4), 4); err != nil {
			t.Errorf("%s: %v\n%s", tc.name, err, tc.src)
		}
	}
}
