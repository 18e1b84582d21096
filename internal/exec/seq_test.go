package exec

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
)

func checked(t *testing.T, src string, procs int64, defines map[string]int64) *sem.Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: procs, Defines: defines})
	if len(errs) > 0 {
		t.Fatalf("check: %v", errs)
	}
	return info
}

const gsSeqSource = `
const N = 16;
const c = 0.25;

dist Column = cyclic_cols(NPROCS);

proc init_boundary(New: matrix[N, N] on Column) {
  for j = 1 to N {
    New[1, j] = 1.0;
    New[N, j] = 1.0;
  }
  for i = 2 to N - 1 {
    New[i, 1] = 1.0;
    New[i, N] = 1.0;
  }
}

proc gs_iteration(Old: matrix[N, N] on Column): matrix[N, N] on Column {
  let New = matrix(N, N) on Column;
  call init_boundary(New);
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
      New[i, j] = c * (New[i - 1, j] + New[i, j - 1] + Old[i + 1, j] + Old[i, j + 1]);
    }
  }
  return New;
}
`

// fullMatrix builds an n×n matrix with f(i,j) everywhere.
func fullMatrix(t *testing.T, name string, n int64, f func(i, j int64) float64) *istruct.Matrix {
	t.Helper()
	m, err := istruct.NewMatrix(name, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			if err := m.Write(i, j, f(i, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// goldenGS computes the Gauss-Seidel iteration directly in Go.
func goldenGS(n int64, old *istruct.Matrix) [][]float64 {
	out := make([][]float64, n+1)
	for i := range out {
		out[i] = make([]float64, n+1)
	}
	for j := int64(1); j <= n; j++ {
		out[1][j], out[n][j] = 1.0, 1.0
	}
	for i := int64(2); i <= n-1; i++ {
		out[i][1], out[i][n] = 1.0, 1.0
	}
	for j := int64(2); j <= n-1; j++ {
		for i := int64(2); i <= n-1; i++ {
			oDown, _ := old.Read(i+1, j)
			oRight, _ := old.Read(i, j+1)
			out[i][j] = 0.25 * (out[i-1][j] + out[i][j-1] + oDown + oRight)
		}
	}
	return out
}

func TestSequentialGaussSeidel(t *testing.T) {
	info := checked(t, gsSeqSource, 4, nil)
	old := fullMatrix(t, "Old", 16, func(i, j int64) float64 { return float64(i*31+j*17) / 7 })
	out, err := RunSequential(info, "gs_iteration", []ArgVal{{Matrix: old}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.HasRet || out.Ret.Matrix == nil {
		t.Fatal("expected a matrix result")
	}
	want := goldenGS(16, old)
	for i := int64(1); i <= 16; i++ {
		for j := int64(1); j <= 16; j++ {
			got, err := out.Ret.Matrix.Read(i, j)
			if err != nil {
				t.Fatalf("(%d,%d): %v", i, j, err)
			}
			if math.Abs(got-want[i][j]) > 1e-12 {
				t.Fatalf("(%d,%d): got %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}

func TestSequentialScalars(t *testing.T) {
	src := `
proc addmul(a: int, b: int): int {
  let s = a + b;
  let p = a * b;
  return s * 10 + p;
}
`
	info := checked(t, src, 2, nil)
	out, err := RunSequential(info, "addmul", []ArgVal{{IsScal: true, Scalar: 3}, {IsScal: true, Scalar: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Ret.Scalar != 82 {
		t.Errorf("got %v, want 82", out.Ret.Scalar)
	}
}

func TestSequentialControlFlow(t *testing.T) {
	src := `
proc chain(n: int): real {
  let A = vector(64) on all;
  A[1] = n + 0.0;
  for i = 2 to 20 {
    if i mod 2 == 0 {
      A[i] = A[i - 1] * 2.0;
    } else {
      A[i] = A[i - 1] + 1.0;
    }
  }
  return A[20];
}
`
	info := checked(t, src, 2, nil)
	out, err := RunSequential(info, "chain", []ArgVal{{IsScal: true, Scalar: 7}})
	if err != nil {
		t.Fatal(err)
	}
	seq := []float64{7}
	for i := int64(2); i <= 20; i++ {
		x := seq[len(seq)-1]
		if i%2 == 0 {
			seq = append(seq, x*2)
		} else {
			seq = append(seq, x+1)
		}
	}
	if out.Ret.Scalar != seq[19] {
		t.Errorf("got %v, want %v", out.Ret.Scalar, seq[19])
	}
}

func TestSequentialIStructureError(t *testing.T) {
	src := `
proc bad() {
  let A = matrix(4, 4) on all;
  A[1, 1] = 1.0;
  A[1, 1] = 2.0;
}
`
	info := checked(t, src, 2, nil)
	_, err := RunSequential(info, "bad", nil)
	if err == nil || !strings.Contains(err.Error(), "already written") {
		t.Errorf("err = %v, want I-structure write error", err)
	}
}

func TestSequentialReadUndefined(t *testing.T) {
	src := `
proc bad(): real {
  let A = matrix(4, 4) on all;
  return A[2, 2];
}
`
	info := checked(t, src, 2, nil)
	_, err := RunSequential(info, "bad", nil)
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("err = %v, want undefined-element error", err)
	}
}

func TestSequentialScalarSingleAssignment(t *testing.T) {
	src := `
proc bad(): int {
  let x = 0;
  for i = 1 to 3 {
    x = i;
  }
  return x;
}
`
	info := checked(t, src, 2, nil)
	_, err := RunSequential(info, "bad", nil)
	if err == nil || !strings.Contains(err.Error(), "already written") {
		t.Errorf("err = %v, want I-var rebind error", err)
	}
}

func TestSequentialDivMod(t *testing.T) {
	src := `
proc f(a: int, b: int): int {
  return (a div b) * 100 + a mod b;
}
`
	info := checked(t, src, 2, nil)
	out, err := RunSequential(info, "f", []ArgVal{{IsScal: true, Scalar: -7}, {IsScal: true, Scalar: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// floor(-7/3) = -3, -7 mod 3 = 2 (Euclidean)
	if out.Ret.Scalar != -298 {
		t.Errorf("got %v, want -298", out.Ret.Scalar)
	}
}

func TestSequentialNestedCalls(t *testing.T) {
	src := `
proc square(x: int): int { return x * x; }
proc sumsq(a: int, b: int): int { return square(a) + square(b); }
`
	info := checked(t, src, 2, nil)
	out, err := RunSequential(info, "sumsq", []ArgVal{{IsScal: true, Scalar: 3}, {IsScal: true, Scalar: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Ret.Scalar != 25 {
		t.Errorf("got %v, want 25", out.Ret.Scalar)
	}
}

func TestSequentialDivByZero(t *testing.T) {
	src := `proc f(a: int): int { return a div (a - a); }`
	info := checked(t, src, 2, nil)
	if _, err := RunSequential(info, "f", []ArgVal{{IsScal: true, Scalar: 3}}); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestSequentialLoopStep(t *testing.T) {
	src := `
proc f(): real {
  let A = vector(32) on all;
  let total = 0;
  for i = 3 to 17 by 4 {
    A[i] = i + 0.0;
  }
  return A[3] + A[7] + A[11] + A[15];
}
`
	info := checked(t, src, 2, nil)
	out, err := RunSequential(info, "f", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ret.Scalar != 36 {
		t.Errorf("got %v, want 36", out.Ret.Scalar)
	}
}

func TestSequentialDiscardedCallResult(t *testing.T) {
	src := `
proc make(A: matrix[2, 2] on all): int {
  A[1, 1] = 3.0;
  return 7;
}
proc main(): real {
  let A = matrix(2, 2) on all;
  call make(A);
  return A[1, 1];
}
`
	info := checked(t, src, 2, nil)
	out, err := RunSequential(info, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ret.Scalar != 3 {
		t.Errorf("got %v, want 3", out.Ret.Scalar)
	}
}

func TestSequentialVectorReturn(t *testing.T) {
	src := `
proc fill(): vector[4] {
  let v = vector(4) on all;
  for i = 1 to 4 {
    v[i] = i * 10.0;
  }
  return v;
}
`
	// Vector returns need an explicit mapping only for distributed dists;
	// "on all" defaults apply here via the return-type check... the checker
	// requires arrays to declare their return mapping, so expect an error.
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, errs := sem.Check(prog, sem.Config{Procs: 2})
	if len(errs) == 0 {
		// If accepted, it must run.
		info := checked(t, src, 2, nil)
		out, err := RunSequential(info, "fill", nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Ret.Vector == nil {
			t.Fatal("expected a vector result")
		}
		v, _ := out.Ret.Vector.Read(3)
		if v != 30 {
			t.Errorf("v[3] = %v, want 30", v)
		}
		return
	}
	// The declared behaviour: array returns must state their mapping.
	if !strings.Contains(errs[0].Error(), "return mapping") {
		t.Errorf("unexpected error: %v", errs[0])
	}
}

// An argument must have its parameter's declared shape, not only its kind —
// at the entry and, through the same code, at every call.
func TestSequentialArgumentShape(t *testing.T) {
	src := `
const N = 8;
proc f(A: matrix[N, N] on all): real { return A[1, 1]; }
proc g(v: vector[N] on all): real { return v[1]; }
`
	info := checked(t, src, 2, nil)
	small := fullMatrix(t, "A", 3, func(i, j int64) float64 { return 1 })
	if out, err := RunSequential(info, "f", []ArgVal{{Matrix: small}}); err == nil ||
		!strings.Contains(err.Error(), "argument 1 of f must be a 8x8 matrix, got 3x3") {
		t.Errorf("3x3 for matrix[8, 8]: %+v, %v", out, err)
	}
	if _, err := RunSequential(info, "f", []ArgVal{{Matrix: fullMatrix(t, "A", 8, func(i, j int64) float64 { return 1 })}}); err != nil {
		t.Errorf("8x8 for matrix[8, 8]: %v", err)
	}
	short, err := istruct.NewVector("v", 5)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := RunSequential(info, "g", []ArgVal{{Vector: short}}); err == nil ||
		!strings.Contains(err.Error(), "argument 1 of g must be a vector of length 8, got 5") {
		t.Errorf("length 5 for vector[8]: %+v, %v", out, err)
	}
}

// A fault inside the interpreter is not a failure of the program: it must
// come out of RunSequential as the panic it is, never as a returned error
// that Reference would wrap as "sequential reference failed". The Info here
// is inconsistent on purpose — the element read resolves to a scalar's
// symbol, so the run reaches for an array its slot never held.
func TestSequentialInterpreterFaultPanics(t *testing.T) {
	info := checked(t, `
proc f(): real {
  let x = 2;
  let A = vector(2) on all;
  A[1] = 1.0;
  return A[1] + x;
}
`, 2, nil)
	var x *sem.Symbol
	for node, sym := range info.Refs {
		if _, isLet := node.(*lang.LetStmt); isLet && sym.Name == "x" {
			x = sym
		}
	}
	for node := range info.Refs {
		if _, isRead := node.(*lang.IndexExpr); isRead {
			info.Refs[node] = x
		}
	}
	defer func() {
		if _, isFault := recover().(runtime.Error); !isFault {
			t.Error("no runtime.Error propagated")
		}
	}()
	out, err := RunSequential(info, "f", nil)
	t.Errorf("returned %+v, %v", out, err)
}

// The run allocates per activation and per array, never per iteration or per
// node visited: the Gauss-Seidel reference costs the same number of
// allocations at N=64 (3,844 interior points) as at N=16 (196). The map-scope
// interpreter this replaced made 4,321 at N=64.
func TestReferenceAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int64) float64 {
		info := checked(t, gsSeqSource, 4, map[string]int64{"N": n})
		return testing.AllocsPerRun(5, func() {
			if _, err := Reference(info, "gs_iteration"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(64)
	t.Logf("Reference(gs): %.0f allocations at N=16, %.0f at N=64", small, large)
	if large-small > 2 || large > 130 {
		t.Errorf("Reference(gs) allocates %.0f times at N=16 and %.0f at N=64; want equal (±2) and ≤ 130", small, large)
	}
}
