package expr_test

// The compiler's witness.
//
// Every program the compiler emits is built from this package's algebra: loop
// bounds, owner tests and local subscripts are Exprs, and their canonical
// String() is what spmd.Format prints. testdata/golden/compile_witness.json
// records, for a fixed corpus, the name, length and SHA-256 of spmd.Format of
// every program xform.CompileAll emits, and the same digest over the String()
// of each algebra operation applied to the 2,000 expressions of
// TestCodeMatchesEval's sweep. It was written by the algebra that rendered
// every atom's key afresh at each comparison, before that changed; the file is
// the reference, and TestCompileWitness holds the compiler to it byte for
// byte.
//
// A failing TestCompileWitness writes what it observed to a file it names;
// there is no -update flag. Only a change that means to alter the emitted
// programs copies that file over the golden, and says why.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/expr"
	"procdecomp/internal/golden"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

const compileWitnessPath = "../../testdata/golden/compile_witness.json"

// compileRecord is one emitted program, or one algebra operation over the
// whole expression corpus, as the file stores it.
type compileRecord struct {
	Name   string `json:"name"`
	Error  string `json:"error,omitempty"`
	Len    int    `json:"len"`
	SHA256 string `json:"sha256,omitempty"`
}

// jacobiSource and heatSource are internal/exec's witness copies of
// examples/jacobi and examples/heat.
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

// witnessPoints is every pipeline point: rtr, ctr, the three optimization
// levels, and opt3 at two block sizes.
var witnessPoints = []xform.Point{{Mode: "rtr"}, {Mode: "ctr"}, {Mode: "opt1"}, {Mode: "opt2"},
	{Mode: "opt3", Blk: 4}, {Mode: "opt3", Blk: 8}}

func pointName(pt xform.Point) string {
	if pt.Mode == "opt3" {
		return fmt.Sprintf("opt3/blk=%d", pt.Blk)
	}
	return pt.Mode
}

// digest is the record of one rendering.
func digest(name, s string) compileRecord {
	sum := sha256.Sum256([]byte(s))
	return compileRecord{Name: name, Len: len(s), SHA256: hex.EncodeToString(sum[:])}
}

// A compileCase is one program of the corpus at one machine size: entry of
// src, retargeted to mapping unless it is empty.
type compileCase struct {
	name, src, entry string
	procs            int
	defines          map[string]int64
	mapping          string
}

// check parses, retargets and checks the case.
func (c compileCase) check(t *testing.T) *sem.Info {
	t.Helper()
	prog, err := lang.Parse(c.src)
	if err != nil {
		t.Fatalf("%s: parse: %v", c.name, err)
	}
	if c.mapping != "" {
		m, err := autotune.ParseMapping(c.mapping)
		if err != nil {
			t.Fatal(err)
		}
		distName, err := autotune.PickDist(prog, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := autotune.Retarget(prog, distName, m); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(c.procs), Defines: c.defines})
	if len(errs) > 0 {
		t.Fatalf("%s: check: %v", c.name, errs)
	}
	return info
}

// compileRecords compiles the case at every pipeline point and records each
// emitted program.
func compileRecords(t *testing.T, c compileCase) []compileRecord {
	t.Helper()
	var recs []compileRecord
	for i, st := range xform.CompileAll(c.check(t), c.entry, witnessPoints) {
		at := c.name + "/" + pointName(witnessPoints[i])
		if st.Err != nil {
			recs = append(recs, compileRecord{Name: at, Error: st.Err.Error()})
			continue
		}
		for _, p := range st.Progs {
			proc := "generic"
			if p.Proc >= 0 {
				proc = fmt.Sprintf("p%d", p.Proc)
			}
			recs = append(recs, digest(at+"/"+proc, spmd.Format(p)))
		}
	}
	return recs
}

// algebraRecords digests the String() of each operation applied to every
// expression of the sweep and its successor.
func algebraRecords() []compileRecord {
	es := expr.CodeCorpus()
	ops := []struct {
		name string
		op   func(e, f expr.Expr) expr.Expr
	}{
		{"String", func(e, _ expr.Expr) expr.Expr { return e }},
		{"Add", expr.Add},
		{"Sub", expr.Sub},
		{"Mul", expr.Mul},
		{"Mod", expr.Mod},
		{"Div", expr.Div},
		{"Min", expr.Min},
		{"Max", expr.Max},
		{"Subst", func(e, f expr.Expr) expr.Expr { return e.Subst("a", f) }},
		{"Subst/absent", func(e, f expr.Expr) expr.Expr { return e.Subst("z", f) }},
		// Renaming a record changes the witness, so this one keeps its name.
		{"SubstAll/swap", func(e, _ expr.Expr) expr.Expr { return expr.Swap(e) }},
	}
	recs := make([]compileRecord, len(ops))
	for k, op := range ops {
		var b bytes.Buffer
		for i, e := range es {
			b.WriteString(op.op(e, es[(i+1)%len(es)]).String())
			b.WriteByte('\n')
		}
		recs[k] = digest("expr/"+op.name, b.String())
	}
	return recs
}

// compileCases is the witness's programs, in file order.
func compileCases() []compileCase {
	programs := []struct {
		name, src, entry string
		defines          func(n int64) map[string]int64
	}{
		{"gs", bench.GSSource, "gs_iteration", func(n int64) map[string]int64 { return map[string]int64{"N": n} }},
		{"gs-reversed", bench.GSReversedSource, "gs_iteration", func(n int64) map[string]int64 { return map[string]int64{"N": n} }},
		{"jacobi", jacobiSource, "jacobi", func(n int64) map[string]int64 { return map[string]int64{"N": n} }},
		{"heat", heatSource, "heat", func(n int64) map[string]int64 { return map[string]int64{"T": n, "W": n} }},
	}
	var cases []compileCase
	for _, p := range programs {
		for _, s := range []int{1, 2, 3, 4, 8, 16, 32} {
			for _, n := range []int64{8, 16} {
				cases = append(cases, compileCase{fmt.Sprintf("%s/N=%d/S=%d", p.name, n, s),
					p.src, p.entry, s, p.defines(n), ""})
			}
		}
	}
	for _, s := range []int{4, 8} {
		grid := map[int]string{4: "2x2", 8: "2x4"}[s]
		for _, m := range []string{fmt.Sprintf("block_cols(%d)", s), "block2d(" + grid + ")", "all"} {
			for _, n := range []int64{8, 16} {
				cases = append(cases, compileCase{fmt.Sprintf("gs@%s/N=%d/S=%d", m, n, s),
					bench.GSSource, "gs_iteration", s, map[string]int64{"N": n}, m})
			}
		}
	}
	return cases
}

// compileCorpus is the whole witness, in file order.
func compileCorpus(t *testing.T) []compileRecord {
	var recs []compileRecord
	for _, c := range compileCases() {
		recs = append(recs, compileRecords(t, c)...)
	}
	return append(recs, algebraRecords()...)
}

// encode writes one record a line, so a diff of two files names programs.
func encode(recs []compileRecord) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		b.Write(line)
		if i < len(recs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestCompileWitness holds the compiler and the algebra to the whole file:
// every record, none missing or left over, byte for byte.
func TestCompileWitness(t *testing.T) {
	golden.Hold(t, compileWitnessPath, encode(compileCorpus(t)),
		"Only a change that means to alter the emitted programs copies it over the golden, and says why.")
}

// TestPassesChangeWhatTheyReport is the pass half of a validator over the
// witness's programs: along opt3's pipeline at both block sizes, a pass that
// reports 0 applications leaves every program's spmd.Format as it was, and a
// pass that reports more changes it. CompileAll's sharing rests on the first
// half: a point whose pass applied nowhere takes its prefix's programs.
func TestPassesChangeWhatTheyReport(t *testing.T) {
	formatAll := func(progs []*spmd.Program) string {
		var b strings.Builder
		for _, p := range progs {
			b.WriteString(spmd.Format(p))
		}
		return b.String()
	}
	applied := 0
	for _, c := range compileCases() {
		info := c.check(t)
		for _, blk := range []int64{4, 8} {
			progs, err := xform.Compile(info, c.entry, "ctr", 0)
			if err != nil {
				continue // the witness records the error
			}
			passes, _ := xform.StandardPipeline("opt3", blk)
			for _, p := range passes {
				before := formatAll(progs)
				n, err := p.Apply(progs)
				if err != nil {
					break
				}
				switch changed := formatAll(progs) != before; {
				case n == 0 && changed:
					t.Errorf("%s: %s reports no application but changed the programs", c.name, p)
				case n > 0 && !changed:
					t.Errorf("%s: %s reports %d applications but changed nothing", c.name, p, n)
				case n > 0:
					applied++
				}
			}
		}
	}
	if applied == 0 {
		t.Fatal("no pass applied anywhere in the corpus")
	}
}
