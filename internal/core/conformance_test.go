package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"procdecomp/internal/core"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// Conformance property: for randomly generated stencil programs under
// random decompositions and machine sizes, every code-generation strategy —
// run-time resolution, compile-time resolution with and without loop
// restriction, and the full optimization pipeline — computes exactly the
// sequential interpreter's result. This is the repository's strongest
// correctness statement: the process decomposition is semantics-preserving
// across the whole compilation space, not just on the paper's example.

// stencilTerm is one operand of a generated stencil expression.
type stencilTerm struct {
	array  string // "New" or "Old"
	di, dj int64
	coef   float64
}

// genProgram builds a random wavefront-style Idn program. Reads of New are
// constrained to lexicographically earlier iterations (j column-major order)
// so the sequential program is well-defined.
func genProgram(rng *rand.Rand) (src string, distName string) {
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

func confInput(n int64, rng *rand.Rand) *istruct.Matrix {
	m, err := istruct.NewMatrix("Old", n, n)
	if err != nil {
		panic(err)
	}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			m.Write(i, j, math.Floor(rng.Float64()*64)/4)
		}
	}
	return m
}

func TestConformanceRandomStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		src, distName := genProgram(rng)
		procs := []int64{1, 2, 3, 4, 5}[rng.Intn(5)]
		blk := int64(1 + rng.Intn(6))

		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		info, errs := sem.Check(prog, sem.Config{Procs: procs})
		if len(errs) > 0 {
			t.Fatalf("trial %d: check: %v\n%s", trial, errs, src)
		}
		n := int64(info.Consts["N"].Const)
		seed := rng.Int63()

		mkInput := func() *istruct.Matrix {
			return confInput(n, rand.New(rand.NewSource(seed)))
		}
		want, err := exec.RunSequential(info, "step", []exec.ArgVal{{Matrix: mkInput()}})
		if err != nil {
			t.Fatalf("trial %d: sequential: %v\n%s", trial, err, src)
		}

		comp := core.New(info)
		runAndCompare := func(label string, progs []*spmd.Program) {
			t.Helper()
			out, err := exec.RunSPMD(progs, machine.DefaultConfig(int(procs)),
				map[string]*istruct.Matrix{"Old": mkInput()})
			if err != nil {
				t.Fatalf("trial %d (%s, dist=%s, S=%d): %v\n%s", trial, label, distName, procs, err, src)
			}
			got := out.Arrays["New"]
			for i := int64(1); i <= n; i++ {
				for j := int64(1); j <= n; j++ {
					dw, dg := want.Ret.Matrix.Defined(i, j), got.Defined(i, j)
					if dw != dg {
						t.Fatalf("trial %d (%s, dist=%s, S=%d): definedness mismatch at (%d,%d)\n%s",
							trial, label, distName, procs, i, j, src)
					}
					if !dw {
						continue
					}
					vw, _ := want.Ret.Matrix.Read(i, j)
					vg, _ := got.Read(i, j)
					if math.Abs(vw-vg) > 1e-9 {
						t.Fatalf("trial %d (%s, dist=%s, S=%d): (%d,%d) = %g, want %g\n%s",
							trial, label, distName, procs, i, j, vg, vw, src)
					}
				}
			}
		}

		rtr, err := comp.CompileRTR("step")
		if err != nil {
			t.Fatalf("trial %d: RTR compile: %v\n%s", trial, err, src)
		}
		runAndCompare("RTR", []*spmd.Program{rtr})

		plain, err := comp.CompileCTR("step", false)
		if err != nil {
			t.Fatalf("trial %d: CTR compile: %v\n%s", trial, err, src)
		}
		runAndCompare("CTR/unrestricted", plain)

		restricted, err := comp.CompileCTR("step", true)
		if err != nil {
			t.Fatalf("trial %d: CTR compile: %v\n%s", trial, err, src)
		}
		runAndCompare("CTR/restricted", restricted)

		optimized, err := comp.CompileCTR("step", true)
		if err != nil {
			t.Fatal(err)
		}
		xform.Vectorize(optimized)
		xform.Jam(optimized)
		xform.StripMine(optimized, blk)
		runAndCompare(fmt.Sprintf("optimized/blk=%d", blk), optimized)
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
		src, _ := genProgram(rng)
		procs := int64(2 + rng.Intn(3))
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, errs := sem.Check(prog, sem.Config{Procs: procs})
		if len(errs) > 0 {
			t.Fatal(errs)
		}
		n := int64(info.Consts["N"].Const)
		seed := rng.Int63()
		mkInput := func() *istruct.Matrix {
			return confInput(n, rand.New(rand.NewSource(seed)))
		}
		comp := core.New(info)
		rtr, err := comp.CompileRTR("step")
		if err != nil {
			t.Fatal(err)
		}
		base, err := exec.RunSPMD([]*spmd.Program{rtr}, machine.DefaultConfig(int(procs)),
			map[string]*istruct.Matrix{"Old": mkInput()})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := comp.CompileCTR("step", true)
		if err != nil {
			t.Fatal(err)
		}
		xform.Vectorize(opt)
		xform.Jam(opt)
		xform.StripMine(opt, 4)
		after, err := exec.RunSPMD(opt, machine.DefaultConfig(int(procs)),
			map[string]*istruct.Matrix{"Old": mkInput()})
		if err != nil {
			t.Fatal(err)
		}
		if after.Stats.Values > base.Stats.Values {
			t.Errorf("trial %d: optimization increased moved values: %d > %d\n%s",
				trial, after.Stats.Values, base.Stats.Values, src)
		}
		if after.Stats.Messages > base.Stats.Messages {
			t.Errorf("trial %d: optimization increased messages: %d > %d",
				trial, after.Stats.Messages, base.Stats.Messages)
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
		src, distName := genProgram(rng)
		const vprocs = 6
		const nodes = 2
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, errs := sem.Check(prog, sem.Config{Procs: vprocs})
		if len(errs) > 0 {
			t.Fatal(errs)
		}
		n := int64(info.Consts["N"].Const)
		seed := rng.Int63()
		mkInput := func() *istruct.Matrix {
			return confInput(n, rand.New(rand.NewSource(seed)))
		}
		want, err := exec.RunSequential(info, "step", []exec.ArgVal{{Matrix: mkInput()}})
		if err != nil {
			t.Fatal(err)
		}
		progs, err := core.New(info).CompileCTR("step", true)
		if err != nil {
			t.Fatal(err)
		}
		xform.Vectorize(progs)
		xform.Jam(progs)
		cfg := machine.DefaultConfig(vprocs)
		cfg.Placement = make([]int, vprocs)
		for i := range cfg.Placement {
			cfg.Placement[i] = i % nodes
		}
		out, err := exec.RunSPMD(progs, cfg, map[string]*istruct.Matrix{"Old": mkInput()})
		if err != nil {
			t.Fatalf("trial %d (dist=%s): %v\n%s", trial, distName, err, src)
		}
		got := out.Arrays["New"]
		for i := int64(1); i <= n; i++ {
			for j := int64(1); j <= n; j++ {
				if want.Ret.Matrix.Defined(i, j) != got.Defined(i, j) {
					t.Fatalf("trial %d: definedness mismatch at (%d,%d)\n%s", trial, i, j, src)
				}
				if !want.Ret.Matrix.Defined(i, j) {
					continue
				}
				vw, _ := want.Ret.Matrix.Read(i, j)
				vg, _ := got.Read(i, j)
				if math.Abs(vw-vg) > 1e-9 {
					t.Fatalf("trial %d: (%d,%d) = %g, want %g\n%s", trial, i, j, vg, vw, src)
				}
			}
		}
	}
}
