package gen

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/xform"
)

// A generated program passes at all five points, and one gathered element
// moved at any one point fails the run with that point's name.
func TestCheckNamesThePointThatDiffers(t *testing.T) {
	src, _ := Program(rand.New(rand.NewSource(1)))
	c, err := Compile(Case{Src: src, Entry: "step", Procs: 3, Blk: 2})
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if outs, err := Check(c, c.Config()); err != nil || len(outs) != 5 {
		t.Fatalf("%d outcomes, %v\n%s", len(outs), err, src)
	}
	for _, point := range []string{"rtr", "ctr", "opt3/blk=2"} {
		_, err := check(c, c.Config(), false, func(p string, out *exec.SPMDOutcome) {
			if p == point {
				vals, defined := out.Arrays["New"].Snapshot()
				vals[2][3]++
				moved, _ := istruct.NewMatrix("New", int64(len(vals)), int64(len(vals[0])))
				for i := range vals {
					for j := range vals[i] {
						if defined[i][j] {
							moved.Write(int64(i+1), int64(j+1), vals[i][j])
						}
					}
				}
				out.Arrays["New"] = moved
			}
		})
		if want := point + ": output array New: element (3,4) is "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s perturbed: %v, want %q…", point, err, want)
		}
	}
}

// Cost scaling, a metamorphic relation over the corpus: every machine cost
// multiplied by 3 multiplies every process's clock by 3, and every cause of
// the critical path by 3, at every point of every case, on its own machine
// (multiplexed ones too); each traced run replays to its own makespan.
func TestCostScaling(t *testing.T) {
	t.Parallel()
	cases, err := CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if err := CheckScaled(c, c.Config(), 3); err != nil {
			t.Errorf("%s S=%d: %v\n%s", c.Name, c.Procs, err, c.Src)
		}
	}
	t.Logf("%d cases", len(cases))
}

// Transposition, a metamorphic relation over every corpus case mapped by
// one-axis families, and over Gauss-Seidel under cyclic and block rows and
// columns at S=8, N=64: the transposed program on the transposed inputs
// takes the same time and messages on every process at every point, and
// computes the transposed arrays.
func TestTransposition(t *testing.T) {
	t.Parallel()
	cases, err := CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	cases = slices.Clip(cases) // the corpus is shared: append to a copy
	points := []xform.Point{{Mode: "rtr"}, {Mode: "ctr"}, {Mode: "opt1"}, {Mode: "opt2"}, {Mode: "opt3", Blk: 4}, {Mode: "opt3", Blk: 8}}
	for _, family := range []string{"cyclic_cols", "cyclic_rows", "block_cols", "block_rows"} {
		c, err := Compile(Case{Name: "Gauss-Seidel " + family, Src: strings.Replace(bench.GSSource, "cyclic_cols(NPROCS)", family+"(NPROCS)", 1),
			Entry: "gs_iteration", Procs: 8, Defines: map[string]int64{"N": 64}, Points: points})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	checked := 0
	for k, c := range cases {
		switch err := CheckTransposed(c); {
		case errors.Is(err, ErrNoAxis) && k < len(cases)-4: // every Gauss-Seidel case has a transpose
		case err != nil:
			t.Errorf("%s S=%d: %v\n%s", c.Name, c.Procs, err, c.Src)
		default:
			checked++
		}
	}
	t.Logf("%d of %d cases", checked, len(cases))
}

// The trivial machine: on one process no point sends a message, rtr's
// guards cost more than ctr's none, and every message pass leaves ctr as
// it is, for every one-process case of the corpus.
func TestTrivialMachine(t *testing.T) {
	t.Parallel()
	cases, err := CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range cases {
		if c.Procs != 1 {
			continue
		}
		n++
		if err := CheckTrivial(c); err != nil {
			t.Errorf("%s: %v\n%s", c.Name, err, c.Src)
		}
	}
	if n == 0 {
		t.Fatal("the corpus has no one-process case")
	}
	t.Logf("%d cases", n)
}
