package xform_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/core"
	"procdecomp/internal/gen"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// TestCompileAllSharesOnlyWhatNoPassChanged: each point of a CompileAll
// formats exactly as a one-point Compile does, and two points share a program
// iff every pass between them applied nowhere — in which case they share the
// whole slice. The stages share leaf statements wherever they share nothing
// else, so a pass that wrote a leaf in place would show here as an earlier
// point that no longer formats as its own compile. The inputs are
// Gauss-Seidel as declared and retargeted to all, single (on proc(0)) and
// block_cols, asked every nonempty set of six pipeline points in either
// order; and every case of gen's corpus, asked its own points in order.
func TestCompileAllSharesOnlyWhatNoPassChanged(t *testing.T) {
	points := []xform.Point{{Mode: "rtr"}, {Mode: "ctr"}, {Mode: "opt1"}, {Mode: "opt2"},
		{Mode: "opt3", Blk: 4}, {Mode: "opt3", Blk: 8}}
	// An input is a compiled program and the orders, each a list of indices
	// into its Points, that CompileAll is asked its points in.
	type input struct {
		*gen.Compiled
		orders [][]int
	}
	var everySet [][]int
	for set := 1; set < 1<<len(points); set++ {
		var idx []int
		for i := range points {
			if set&(1<<i) != 0 {
				idx = append(idx, i)
			}
		}
		back := slices.Clone(idx)
		slices.Reverse(back)
		everySet = append(everySet, idx, back)
	}
	var inputs []input
	for _, mapping := range []string{"", "all", "proc(0)", "block_cols"} {
		inputs = append(inputs, input{retargeted(t, mapping, points), everySet})
	}
	corpus, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus {
		own := make([]int, len(c.Points))
		for i := range own {
			own[i] = i
		}
		inputs = append(inputs, input{c, [][]int{own}})
	}
	shared := 0
	for _, c := range inputs {
		want := make([]string, len(c.Points))
		for i, pt := range c.Points {
			progs, err := xform.Compile(c.Info, c.Entry, pt.Mode, pt.Blk)
			if err != nil {
				t.Fatalf("%s %v: %v", c.Name, pt, err)
			}
			want[i] = xform.FormatAll(progs)
		}
		name := applied(t, c.Compiled)
		for _, order := range c.orders {
			asked := make([]xform.Point, len(order))
			for k, i := range order {
				asked[k] = c.Points[i]
			}
			stages := xform.CompileAll(c.Info, c.Entry, asked)
			for k, i := range order {
				at := fmt.Sprintf("%s S=%d %v of %v", c.Name, c.Procs, c.Points[i], asked)
				if stages[k].Err != nil {
					t.Fatalf("%s: %v", at, stages[k].Err)
				}
				if xform.FormatAll(stages[k].Progs) != want[i] {
					t.Errorf("%s: differs from a one-point compile", at)
				}
				for l := range k {
					j := order[l]
					same := &stages[k].Progs[0] == &stages[l].Progs[0]
					common := slices.ContainsFunc(stages[k].Progs, func(p *spmd.Program) bool {
						return slices.Contains(stages[l].Progs, p)
					})
					switch {
					case name[i] == name[j] && !same:
						t.Errorf("%s: no pass between it and %v applied (%s), yet it is a copy", at, c.Points[j], name[i])
					case name[i] != name[j] && common:
						t.Errorf("%s: shares a program with %v, though %s and %s differ", at, c.Points[j], name[i], name[j])
					case same:
						shared++
					}
				}
			}
		}
	}
	t.Logf("%d inputs (%d corpus cases), %d shared pairs", len(inputs), len(corpus), shared)
}

// retargeted is Gauss-Seidel at S=4, N=16 with its Column mapping replaced,
// compiled at points: a builtin family names the declaration's new builtin,
// anything else ("all", "proc(0)") replaces every use, as the auto-mapper
// retargets.
func retargeted(t *testing.T, mapping string, points []xform.Point) *gen.Compiled {
	t.Helper()
	src := bench.GSSource
	switch mapping {
	case "":
	case "block_cols":
		src = strings.Replace(src, "cyclic_cols(NPROCS)", "block_cols(NPROCS)", 1)
	default:
		src = strings.ReplaceAll(src, " on Column", " on "+mapping)
	}
	c, err := gen.Compile(gen.Case{Name: fmt.Sprintf("Gauss-Seidel %q", mapping), Src: src, Entry: "gs_iteration",
		Procs: 4, Defines: map[string]int64{"N": 16}, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// applied names what each of c's points' programs are: its resolution and the
// passes of its pipeline up to the last one that applied somewhere, each
// pipeline run on its own copy of one compile-time resolution. Two points
// share programs iff their names are equal — every pass between them applied
// nowhere.
func applied(t *testing.T, c *gen.Compiled) []string {
	t.Helper()
	progs, err := core.New(c.Info).CompileCTR(c.Entry, true)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(c.Points))
	for i, pt := range c.Points {
		if pt.Mode == "rtr" {
			names[i] = "rtr"
			continue
		}
		passes, _ := xform.StandardPipeline(pt.Mode, pt.Blk)
		copies := make([]*spmd.Program, len(progs))
		for p, prog := range progs {
			copies[p] = prog.CloneProgram()
		}
		counts, err := xform.Apply(copies, passes)
		if err != nil {
			t.Fatal(err)
		}
		names[i] = "ctr"
		for k, n := range counts {
			if n > 0 {
				names[i] = fmt.Sprint("ctr", passes[:k+1])
			}
		}
	}
	return names
}
