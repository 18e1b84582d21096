package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/gen"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
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

// Conformance on what each step of the pipeline moves, checked from outside,
// rtr → ctr → opt1 → opt2 → opt3: whatever a step does to packaging, every
// process sends exactly as many values to every other process as before it,
// and receives exactly as many from it (locality decides what moves; the
// steps only re-batch it), and no more messages are sent. Compile-time
// resolution sends exactly the messages run-time resolution does (Footnote 3:
// 31,752 = 31,752 on the paper's example); only the passes after it may
// batch them. Both sides of a step are walked, not run: (*exec.Image).Walk
// hands a Sink exactly a run's message shapes. A walk never matches a send
// with a receive, so both ends are counted.
func TestConformanceValuesInvariant(t *testing.T) {
	steps, applied := 0, 0
	check := func(at, src, entry string, procs int, blk int64, defines map[string]int64) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, errs := sem.Check(prog, sem.Config{Procs: int64(procs), Defines: defines})
		if len(errs) > 0 {
			t.Fatal(errs)
		}
		points := []xform.Point{{Mode: "rtr"}, {Mode: "ctr"}, {Mode: "opt1"}, {Mode: "opt2"}, {Mode: "opt3", Blk: blk}}
		var before *traffic
		for i, st := range xform.CompileAll(info, entry, points) {
			at := fmt.Sprintf("%s S=%d %s/blk=%d", at, procs, points[i].Mode, blk)
			if st.Err != nil {
				t.Fatalf("%s: %v\n%s", at, st.Err, src)
			}
			after := walkTraffic(t, at, st.Progs, procs)
			if before != nil {
				steps++
				if &st.Progs[0] != &before.progs[0] {
					applied++
				}
				if !maps.Equal(after.received, before.received) {
					t.Errorf("%s: values received per (src, dst) moved: %v, before the pass %v\n%s", at, after.received, before.received, src)
				}
				if !maps.Equal(after.sent, before.sent) {
					t.Errorf("%s: values sent per (src, dst) moved: %v, before the pass %v\n%s", at, after.sent, before.sent, src)
				}
				if after.messages > before.messages || points[i].Mode == "ctr" && after.messages != before.messages {
					t.Errorf("%s: the step moved the messages sent: %d, before it %d\n%s", at, after.messages, before.messages, src)
				}
			}
			before = after
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		src, distName := gen.Program(rng)
		check(fmt.Sprintf("trial %d (dist=%s)", trial, distName), src, "step", 2+rng.Intn(3), int64(1+rng.Intn(6)), nil)
	}
	for _, procs := range []int{2, 3, 4, 8} {
		for _, blk := range []int64{1, 4} {
			check("Gauss-Seidel", bench.GSSource, "gs_iteration", procs, blk, map[string]int64{"N": 16})
			check("reversed Gauss-Seidel", bench.GSReversedSource, "gs_iteration", procs, blk, map[string]int64{"N": 16})
		}
	}
	t.Logf("%d pass steps checked, %d of them on programs the pass changed", steps, applied)
}

// traffic is what the walks of every process of an image send and receive.
type traffic struct {
	progs    []*spmd.Program
	received map[[2]int]int64 // values received, by (src, dst)
	sent     map[[2]int]int64 // values sent, by (src, dst)
	messages int64            // messages sent
}

// walkTraffic walks every process of progs and counts its traffic.
func walkTraffic(t *testing.T, at string, progs []*spmd.Program, procs int) *traffic {
	t.Helper()
	img, err := exec.LowerAll(progs, procs)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	tr := &traffic{progs: progs, received: map[[2]int]int64{}, sent: map[[2]int]int64{}}
	for p := 0; p < procs; p++ {
		if err := img.Walk(p, &counter{tr: tr, me: p, procs: procs}); err != nil {
			t.Fatalf("%s: walking process %d: %v", at, p, err)
		}
	}
	return tr
}

// counter is the Sink of one process's walk: it adds the process's messages
// to tr.
type counter struct {
	tr        *traffic
	me, procs int
}

func (c *counter) Procs() int      { return c.procs }
func (c *counter) Ops(int64)       {}
func (c *counter) Mem(int64)       {}
func (c *counter) LoopStep()       {}
func (c *counter) LoopSteps(int64) {}
func (c *counter) Send(dst int, _ int64, values int) error {
	c.tr.messages++
	c.tr.sent[[2]int{c.me, dst}] += int64(values)
	return nil
}
func (c *counter) Recv(src int, _ int64, values int) error {
	c.tr.received[[2]int{src, c.me}] += int64(values)
	return nil
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
