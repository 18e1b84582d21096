package exec_test

// The oracle's witness.
//
// exec.RunSequential is what every validated number in this repository is
// compared against, so nothing can check it but its own past behaviour. The
// interpreter it was first written as — a scope chain of map[string]*binding
// walked by name at every node — was run over the corpus below at fffb6ea and
// what it returned was recorded in testdata/golden/seq_witness.json before
// anything else changed: the result (or the exact error text), a SHA-256 over
// the shape, definedness bitmap and IEEE bits of every returned array, and
// the same for every array argument after the run (a procedure may write its
// parameters). That interpreter is gone; the file is the reference, and
// TestSeqWitness holds the resolved interpreter to it byte for byte.
//
// Cases that carry a hand-computed answer are checked against it as well
// (TestSeqHandComputed), so the file is not the only thing that says what a
// program means.
//
// A failing TestSeqWitness writes what it observed to a file it names; there
// is no -update flag. Only a change that means to alter the sequential
// semantics copies that file over the golden, and says why.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/golden"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
)

const seqWitnessPath = "../../testdata/golden/seq_witness.json"

// seqCase is one program, entry and argument list of the corpus.
type seqCase struct {
	name    string
	src     string
	entry   string
	n       int64     // overrides the program's const N when > 0
	scalars []float64 // the entry's scalar arguments, in order
	// args replaces the default arguments (a Pattern matrix per matrix
	// parameter, element i = i + 0.5 per vector parameter, scalars as above).
	args func(t *testing.T, p *sem.Proc) []exec.ArgVal
	want string // the hand-computed scalar result, %g-formatted; "" = none
}

// seqRecord is what one case did, as the file stores it.
type seqRecord struct {
	Name   string   `json:"name"`
	Error  string   `json:"error,omitempty"`
	Result string   `json:"result,omitempty"`
	Args   []string `json:"args,omitempty"` // array arguments after the run
}

// jacobiSource and heatSource are the programs of internal/autotune's
// per-mapping tests and examples/heat; triSource is internal/bench's
// triangular workload with its mapping filled in. The oracle ignores
// mappings, so one of each is enough.
const jacobiSource = `
const N = 16;
const w = 0.25;

dist D = cyclic_cols(NPROCS);

proc jacobi(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    New[1, j] = Old[1, j];
    New[N, j] = Old[N, j];
  }
  for i = 2 to N - 1 {
    New[i, 1] = Old[i, 1];
    New[i, N] = Old[i, N];
  }
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
      New[i, j] = w * (Old[i - 1, j] + Old[i + 1, j] + Old[i, j - 1] + Old[i, j + 1]);
    }
  }
  return New;
}
`

const heatSource = `
const T = 64;
const W = 64;
const alpha = 0.25;

dist Steps = cyclic_rows(NPROCS);

proc heat(U: matrix[T, W] on Steps): matrix[T, W] on Steps {
  for t = 2 to T {
    U[t, 1] = 0.0;
    U[t, W] = 0.0;
  }
  for t = 1 to T - 1 {
    for x = 2 to W - 1 {
      U[t + 1, x] = U[t, x] + alpha * (U[t, x - 1] - 2.0 * U[t, x] + U[t, x + 1]);
    }
  }
  return U;
}
`

const triSource = `
const N = 96;
const w = 0.25;

dist D = block_cols(NPROCS);

proc tri(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 2 to N - 1 {
    for i = 2 to j {
      New[i, j] = w * (Old[i - 1, j] + Old[i + 1, j] + Old[i, j - 1] + Old[i, j + 1]);
    }
  }
  return New;
}
`

// gsSeqSource is seq_test.go's and check_test.go's copy of Fig. 1.
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

// emptyArrays allocates every array argument with no element defined, for
// entries that write their parameters.
func emptyArrays(t *testing.T, p *sem.Proc) []exec.ArgVal {
	args := make([]exec.ArgVal, len(p.Params))
	for i, prm := range p.Params {
		var err error
		switch prm.Type.Base {
		case lang.TMatrix:
			args[i].Matrix, err = istruct.NewMatrix(prm.Name, prm.Type.Dims[0], prm.Type.Dims[1])
		case lang.TVector:
			args[i].Vector, err = istruct.NewVector(prm.Name, prm.Type.Dims[0])
		default:
			t.Fatalf("emptyArrays: %s is a scalar", prm.Name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return args
}

// hotRod is examples/heat's input: row 1 defined, a hot spot in the middle.
func hotRod(t *testing.T, p *sem.Proc) []exec.ArgVal {
	args := emptyArrays(t, p)
	u := args[0].Matrix
	for x := int64(1); x <= u.Cols(); x++ {
		v := 0.0
		if x > u.Cols()/3 && x < 2*u.Cols()/3 {
			v = 100.0
		}
		if err := u.Write(1, x, v); err != nil {
			t.Fatal(err)
		}
	}
	return args
}

// fixedArgs passes an argument list that need not fit the entry at all.
func fixedArgs(args ...exec.ArgVal) func(*testing.T, *sem.Proc) []exec.ArgVal {
	return func(*testing.T, *sem.Proc) []exec.ArgVal { return args }
}

func seqCases() []seqCase {
	var cases []seqCase
	// The programs the figures and the search run, at the sizes they run them.
	for _, n := range []int64{8, 16, 64} {
		cases = append(cases,
			seqCase{name: fmt.Sprintf("gs/N=%d", n), src: bench.GSSource, entry: "gs_iteration", n: n},
			seqCase{name: fmt.Sprintf("gs-reversed/N=%d", n), src: bench.GSReversedSource, entry: "gs_iteration", n: n})
	}
	return append(cases, []seqCase{
		{name: "gs/init_boundary-as-entry", src: bench.GSSource, entry: "init_boundary", n: 8, args: emptyArrays},
		{name: "gs/seq_test-copy", src: gsSeqSource, entry: "gs_iteration"},
		{name: "tri/N=96", src: triSource, entry: "tri"},
		{name: "tri/N=12", src: triSource, entry: "tri", n: 12},
		{name: "jacobi/N=16", src: jacobiSource, entry: "jacobi"},
		{name: "jacobi/N=24", src: jacobiSource, entry: "jacobi", n: 24},
		{name: "heat/64x64", src: heatSource, entry: "heat", args: hotRod},
		{name: "heat/fully-defined-input", src: heatSource, entry: "heat"},

		// seq_test.go and check_test.go, program by program.
		{name: "scalars", entry: "addmul", scalars: []float64{3, 4}, want: "82", src: `
proc addmul(a: int, b: int): int {
  let s = a + b;
  let p = a * b;
  return s * 10 + p;
}
`},
		{name: "control-flow", entry: "chain", scalars: []float64{7}, want: "8190", src: `
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
`},
		{name: "fail/matrix-write-twice", entry: "bad", src: `
proc bad() {
  let A = matrix(4, 4) on all;
  A[1, 1] = 1.0;
  A[1, 1] = 2.0;
}
`},
		{name: "fail/matrix-read-undefined", entry: "bad", src: `
proc bad(): real {
  let A = matrix(4, 4) on all;
  return A[2, 2];
}
`},
		{name: "fail/scalar-reassigned", entry: "bad", src: `
proc bad(): int {
  let x = 0;
  for i = 1 to 3 {
    x = i;
  }
  return x;
}
`},
		{name: "div-mod/-7,3", entry: "f", scalars: []float64{-7, 3}, want: "-298", src: divModSource},
		{name: "div-mod/7,-3", entry: "f", scalars: []float64{7, -3}, want: "-299", src: divModSource},
		{name: "div-mod/-7,-3", entry: "f", scalars: []float64{-7, -3}, want: "202", src: divModSource},
		{name: "nested-calls", entry: "sumsq", scalars: []float64{3, 4}, want: "25", src: `
proc square(x: int): int { return x * x; }
proc sumsq(a: int, b: int): int { return square(a) + square(b); }
`},
		{name: "fail/div-by-zero", entry: "f", scalars: []float64{3}, src: `proc f(a: int): int { return a div (a - a); }`},
		{name: "loop-step", entry: "f", want: "36", src: `
proc f(): real {
  let A = vector(32) on all;
  let total = 0;
  for i = 3 to 17 by 4 {
    A[i] = i + 0.0;
  }
  return A[3] + A[7] + A[11] + A[15];
}
`},
		{name: "discarded-call-result", entry: "main", want: "3", src: `
proc make(A: matrix[2, 2] on all): int {
  A[1, 1] = 3.0;
  return 7;
}
proc main(): real {
  let A = matrix(2, 2) on all;
  call make(A);
  return A[1, 1];
}
`},
		{name: "vector-return", entry: "fill", src: `
proc fill(): vector[4] on all {
  let v = vector(4) on all;
  for i = 1 to 4 {
    v[i] = i * 10.0;
  }
  return v;
}
`},
		{name: "scalar-identity", entry: "f", scalars: []float64{3}, want: "3", src: `proc f(x: int): int { return x; }`},

		// What a slot frame could plausibly get wrong.
		{name: "let-in-loop", entry: "f", want: "82.5", src: `
proc f(): real {
  let A = vector(5) on all;
  for i = 1 to 5 {
    let sq = i * i;
    let half = sq / 2.0;
    A[i] = half + sq;
  }
  return A[1] + A[2] + A[3] + A[4] + A[5];
}
`},
		{name: "array-let-in-loop", entry: "f", want: "14", src: `
proc f(): real {
  let S = vector(3) on all;
  for i = 1 to 3 {
    let T = vector(2) on all;
    T[1] = i + 0.0;
    T[2] = T[1] * T[1];
    S[i] = T[2];
  }
  return S[1] + S[2] + S[3];
}
`},
		{name: "same-callee-twice-and-in-loop", entry: "f", want: "42", src: `
proc bump(x: int): int {
  let y = x + 1;
  return y * 2;
}
proc f(): real {
  let a = bump(1);
  let b = bump(a);
  let A = vector(4) on all;
  for i = 1 to 4 {
    A[i] = bump(i) + 0.0;
  }
  return a + b + A[1] + A[2] + A[3] + A[4];
}
`},
		{name: "return-from-nested-loops", entry: "f", want: "2300", src: `
proc find(A: matrix[4, 4] on all, limit: real): int {
  for i = 1 to 4 {
    for j = 1 to 4 {
      if A[i, j] > limit {
        return i * 10 + j;
      }
    }
  }
  return 0;
}
proc f(): int {
  let A = matrix(4, 4) on all;
  for i = 1 to 4 {
    for j = 1 to 4 {
      A[i, j] = i * j + 0.0;
    }
  }
  return find(A, 5.5) * 100 + find(A, 100.0);
}
`},
		{name: "array-valued-call-bound-by-let", entry: "f", want: "20", src: `
proc squares(): vector[4] on all {
  let v = vector(4) on all;
  for i = 1 to 4 {
    v[i] = i * i + 0.0;
  }
  return v;
}
proc f(): real {
  let s = squares();
  let t = squares();
  return s[2] + t[4];
}
`},
		{name: "array-down-two-levels", entry: "f", want: "4.5", src: `
proc inner(A: matrix[2, 2] on all, k: int) {
  A[k, k] = k * 1.5;
}
proc middle(A: matrix[2, 2] on all) {
  call inner(A, 1);
  call inner(A, 2);
}
proc f(): real {
  let A = matrix(2, 2) on all;
  call middle(A);
  return A[1, 1] + A[2, 2];
}
`},
		{name: "loop-bounds-evaluated-once", entry: "f", want: "9", src: `
proc mark(A: vector[4] on all, k: int): int {
  A[k] = 1.0;
  return 3;
}
proc f(): real {
  let A = vector(4) on all;
  let B = vector(4) on all;
  for i = mark(A, 1) - 2 to mark(A, 2) by mark(A, 3) - 2 {
    B[i] = i + 0.0;
  }
  return B[1] + B[2] + B[3] + A[1] + A[2] + A[3];
}
`},
		{name: "empty-loops", entry: "f", want: "1", src: `
proc f(): real {
  let A = vector(2) on all;
  for i = 5 to 4 {
    A[1] = 9.0;
  }
  for i = 3 to 1 by 2 {
    A[1] = 9.0;
  }
  A[1] = 1.0;
  return A[1];
}
`},
		{name: "bare-return-in-callee", entry: "f", want: "13", src: bareReturnSource},
		{name: "bare-return-at-entry", entry: "fill", scalars: []float64{2}, src: bareReturnEntrySource},
		{name: "operators", entry: "ops", scalars: []float64{-7, 3}, want: "26.5", src: `
const k = 10;
proc ops(a: int, b: int): real {
  let m = min(a, b) + max(a, b) * k;
  let q = a / 2.0;
  let neg = -a;
  let lt = a < b;
  let A = vector(1) on all;
  if (lt and not (a == b)) or false {
    A[1] = m + q + neg;
  } else {
    A[1] = 0.0;
  }
  return A[1];
}
`},
		{name: "polymorphic-callee", entry: "main", args: emptyArrays, src: `
const N = 4;
dist Rows = cyclic_rows(NPROCS);
dist Cols = cyclic_cols(NPROCS);
proc touch[D: dist](A: matrix[N, N] on D, k: int, v: real) {
  A[k, k] = v;
}
proc main(R: matrix[N, N] on Rows, C: matrix[N, N] on Cols) {
  call touch[Rows](R, 1, 2.5);
  call touch[Cols](C, 1, 3.5);
  call touch[Rows](R, 2, 4.5);
}
`},
		{name: "vector-parameter", entry: "dot", want: "41", src: `
proc dot(a: vector[4] on all, b: vector[4] on all): real {
  let s = vector(4) on all;
  s[1] = a[1] * b[1];
  for i = 2 to 4 {
    s[i] = s[i - 1] + a[i] * b[i];
  }
  return s[4];
}
`},
		{name: "falls-off-end-at-entry", entry: "f", scalars: []float64{0}, src: fallsOffSource},

		// One program per run-time failure, and the order checks fire in.
		{name: "fail/vector-write-twice", entry: "f", src: `
proc f() {
  let v = vector(4) on all;
  for i = 1 to 4 by 3 {
    v[i] = 1.0;
  }
  v[4] = 2.0;
}
`},
		{name: "fail/vector-read-undefined", entry: "f", src: `
proc f(): real {
  let v = vector(4) on all;
  v[1] = 1.0;
  return v[1] + v[2];
}
`},
		{name: "fail/parameter-reassigned", entry: "f", scalars: []float64{1}, src: `
proc f(x: int): int {
  x = 2;
  return x;
}
`},
		{name: "fail/real-division-by-zero", entry: "f", scalars: []float64{0}, src: `proc f(z: real): real { return 1.0 / z; }`},
		{name: "fail/mod-by-zero", entry: "f", scalars: []float64{0}, src: `proc f(z: int): int { return 5 mod z; }`},
		{name: "fail/step-zero", entry: "f", scalars: []float64{0}, src: stepSource},
		{name: "fail/step-negative", entry: "f", scalars: []float64{-2}, src: stepSource},
		{name: "fail/matrix-read-out-of-bounds", entry: "f", scalars: []float64{5}, src: `
proc f(k: int): real {
  let A = matrix(4, 3) on all;
  A[1, 1] = 1.0;
  return A[1, 1] + A[k, 1];
}
`},
		{name: "fail/matrix-write-out-of-bounds", entry: "f", scalars: []float64{0}, src: `
proc f(k: int) {
  let A = matrix(4, 3) on all;
  A[1, k] = 1.0;
}
`},
		{name: "fail/vector-read-out-of-bounds", entry: "f", scalars: []float64{9}, src: `
proc f(k: int): real {
  let v = vector(8) on all;
  return v[k];
}
`},
		{name: "fail/vector-write-out-of-bounds", entry: "f", scalars: []float64{-1}, src: `
proc f(k: int) {
  let v = vector(8) on all;
  v[k] = 1.0;
}
`},
		{name: "fail/falls-off-end-in-expression", entry: "g", src: fallsOffSource},
		{name: "fail/falls-off-end-in-array-let", entry: "f", src: `
proc make(k: int): vector[2] on all {
  let v = vector(2) on all;
  if k > 0 {
    return v;
  }
}
proc f(): real {
  let a = make(1);
  a[1] = 1.0;
  let b = make(0);
  return a[1];
}
`},
		{name: "fail/inside-callee-inside-loop", entry: "f", src: `
proc put(A: vector[3] on all, k: int) {
  A[k] = k + 0.0;
}
proc f() {
  let A = vector(3) on all;
  for i = 1 to 5 {
    call put(A, i);
  }
}
`},
		{name: "fail/order-store-value-before-indices", entry: "f", scalars: []float64{0}, src: `
proc f(z: int) {
  let A = matrix(2, 2) on all;
  A[1 div z, 1 mod z] = 1.0 / z;
}
`},
		{name: "fail/order-row-before-column", entry: "f", scalars: []float64{0}, src: `
proc f(z: int): real {
  let A = matrix(2, 2) on all;
  return A[1 div z, 1 mod z];
}
`},
		{name: "fail/order-left-before-right", entry: "f", scalars: []float64{0}, src: `proc f(z: int): int { return (1 mod z) + (1 div z); }`},
		{name: "fail/order-lo-before-hi-before-step", entry: "f", scalars: []float64{0}, src: `
proc f(z: int) {
  let A = vector(2) on all;
  for i = 1 mod z to 1 div z by z {
    A[1] = 1.0;
  }
}
`},
		{name: "fail/order-arguments-left-to-right", entry: "f", scalars: []float64{0}, src: `
proc two(a: int, b: int): int { return a + b; }
proc f(z: int): int { return two(1 mod z, 1 div z); }
`},
		{name: "fail/order-arguments-before-callee", entry: "f", scalars: []float64{0}, src: `
proc boom(a: int): int { return 1 div (a - a); }
proc f(z: int): int { return boom(1 mod z); }
`},

		// The entry's own argument list.
		{name: "fail/no-such-procedure", entry: "nosuch", src: `proc f() {}`, args: fixedArgs()},
		{name: "fail/argument-count", entry: "f", src: `proc f(x: int): int { return x; }`, args: fixedArgs()},
		{name: "fail/scalar-for-matrix", entry: "f", src: `proc f(A: matrix[2, 2] on all) {}`,
			args: fixedArgs(exec.ArgVal{IsScal: true, Scalar: 1})},
		{name: "fail/scalar-for-vector", entry: "f", src: `proc f(x: int, v: vector[2] on all) {}`,
			args: fixedArgs(exec.ArgVal{IsScal: true, Scalar: 1}, exec.ArgVal{IsScal: true, Scalar: 2})},
	}...)
}

const divModSource = `
proc f(a: int, b: int): int {
  return (a div b) * 100 + a mod b;
}
`

const bareReturnSource = `
proc fill(A: vector[4] on all, n: int) {
  for i = 1 to 4 {
    if i > n {
      return;
    }
    A[i] = i + 0.0;
  }
}
proc f(): real {
  let A = vector(4) on all;
  call fill(A, 2);
  A[3] = 10.0;
  return A[1] + A[2] + A[3];
}
`

const bareReturnEntrySource = `
proc fill(n: int) {
  let A = vector(4) on all;
  for i = 1 to 4 {
    if i > n {
      return;
    }
    A[i] = i + 0.0;
  }
}
`

const fallsOffSource = `
proc f(k: int): int {
  if k > 0 {
    return 1;
  }
}
proc g(): int {
  return f(1) + f(0);
}
`

const stepSource = `
proc f(s: int): real {
  let A = vector(4) on all;
  for i = 1 to 4 by s {
    A[i] = 1.0;
  }
  return A[1];
}
`

// digest hashes an array's shape, definedness bitmap and the IEEE bits of
// every defined value, row-major.
func digest(rows, cols int64, at func(i, j int64) (float64, bool)) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(rows))
	put(uint64(cols))
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			v, ok := at(i, j)
			if !ok {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1})
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// describe renders one value of a run for the record.
func describe(a exec.ArgVal) string {
	switch {
	case a.Matrix != nil:
		m, defined := a.Matrix, 0
		sum := digest(m.Rows(), m.Cols(), func(i, j int64) (float64, bool) {
			if !m.Defined(i, j) {
				return 0, false
			}
			defined++
			v, _ := m.Read(i, j)
			return v, true
		})
		return fmt.Sprintf("matrix %s %dx%d defined=%d sha256=%s", m.Name(), m.Rows(), m.Cols(), defined, sum)
	case a.Vector != nil:
		v, defined := a.Vector, 0
		sum := digest(v.Len(), 1, func(i, _ int64) (float64, bool) {
			if !v.Defined(i) {
				return 0, false
			}
			defined++
			x, _ := v.Read(i)
			return x, true
		})
		return fmt.Sprintf("vector len=%d defined=%d sha256=%s", v.Len(), defined, sum)
	case a.IsScal:
		return fmt.Sprintf("scalar %g bits=%#016x", a.Scalar, math.Float64bits(a.Scalar))
	}
	return "nothing"
}

// run checks c's program and runs its entry on c's arguments.
func (c seqCase) run(t *testing.T) (*exec.Outcome, []exec.ArgVal, error) {
	t.Helper()
	prog, err := lang.Parse(c.src)
	if err != nil {
		t.Fatalf("%s: parse: %v", c.name, err)
	}
	cfg := sem.Config{Procs: 4}
	if c.n > 0 {
		cfg.Defines = map[string]int64{"N": c.n}
	}
	info, errs := sem.Check(prog, cfg)
	if len(errs) > 0 {
		t.Fatalf("%s: check: %v", c.name, errs)
	}
	var args []exec.ArgVal
	switch p := info.Procs[c.entry]; {
	case c.args != nil:
		args = c.args(t, p)
	default:
		scalars := c.scalars
		for _, prm := range p.Params {
			var a exec.ArgVal
			switch prm.Type.Base {
			case lang.TMatrix:
				if a.Matrix, err = istruct.Pattern(prm.Name, prm.Type.Dims[0], prm.Type.Dims[1]); err != nil {
					t.Fatal(err)
				}
			case lang.TVector:
				if a.Vector, err = istruct.NewVector(prm.Name, prm.Type.Dims[0]); err != nil {
					t.Fatal(err)
				}
				for i := int64(1); i <= a.Vector.Len(); i++ {
					if err := a.Vector.Write(i, float64(i)+0.5); err != nil {
						t.Fatal(err)
					}
				}
			default:
				a, scalars = exec.ArgVal{IsScal: true, Scalar: scalars[0]}, scalars[1:]
			}
			args = append(args, a)
		}
	}
	out, err := exec.RunSequential(info, c.entry, args)
	return out, args, err
}

func (c seqCase) observe(t *testing.T) seqRecord {
	t.Helper()
	out, args, err := c.run(t)
	rec := seqRecord{Name: c.name}
	switch {
	case err != nil:
		rec.Error = err.Error()
	case out.HasRet:
		rec.Result = "returned " + describe(out.Ret)
	default:
		rec.Result = "no return"
	}
	for _, a := range args {
		if !a.IsScal {
			rec.Args = append(rec.Args, describe(a))
		}
	}
	return rec
}

// TestSeqWitness holds the interpreter to the whole file: every case, none
// missing or left over, byte for byte.
func TestSeqWitness(t *testing.T) {
	var recs []seqRecord
	for _, c := range seqCases() {
		recs = append(recs, c.observe(t))
	}
	got, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Hold(t, seqWitnessPath, append(got, '\n'),
		"Only a change that means to alter the sequential semantics copies it over the golden, and says why.")
}

// TestSeqHandComputed checks the cases whose answer was worked out by hand —
// the witness pins what the interpreter did, these pin what it should do.
func TestSeqHandComputed(t *testing.T) {
	for _, c := range seqCases() {
		if c.want == "" {
			continue
		}
		out, _, err := c.run(t)
		switch {
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !out.HasRet || !out.Ret.IsScal:
			t.Errorf("%s: no scalar result: %+v", c.name, out)
		case fmt.Sprintf("%g", out.Ret.Scalar) != c.want:
			t.Errorf("%s = %g, want %s", c.name, out.Ret.Scalar, c.want)
		}
	}
}
