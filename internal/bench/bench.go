// Package bench is the experiment harness that regenerates every figure and
// table of the paper's evaluation (§4, Figs. 6 and 7, footnote 3) plus the
// ablations the text discusses (block-size choice, loop interchange). Each
// experiment compiles the Gauss-Seidel program of Fig. 1 under one of the
// code-generation variants, runs it on the simulated iPSC/2-like machine,
// and reports simulated execution time (makespan) and message statistics.
package bench

import (
	"fmt"

	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/wavefront"
	"procdecomp/internal/xform"
)

// GSSource is the Gauss-Seidel program of the paper's Fig. 1, in Idn. The
// grid size N is overridden per experiment.
const GSSource = `
-- Gauss-Seidel relaxation in normal order (paper Fig. 1), columns wrapped
-- around the machine's ring of processors (§2.3).
const N = 128;
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

// GSReversedSource is the §4 interchange scenario: the same computation with
// the i and j loops reversed, which hides the wavefront from the
// column-oriented pipeline.
const GSReversedSource = `
const N = 128;
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
  for i = 2 to N - 1 {
    for j = 2 to N - 1 {
      New[i, j] = c * (New[i - 1, j] + New[i, j - 1] + Old[i + 1, j] + Old[i, j + 1]);
    }
  }
  return New;
}
`

// Variant selects the code-generation strategy under measurement.
type Variant int

// The six curves of Figs. 6 and 7.
const (
	RunTime      Variant = iota // §3.1 run-time resolution
	CompileTime                 // §3.2 compile-time resolution
	OptimizedI                  // + vectorized old-column messages (A.2)
	OptimizedII                 // + loop jamming / pipelining (A.3)
	OptimizedIII                // + strip-mined blocks (A.4)
	Handwritten                 // the Fig. 3 program
)

// String is the variant's figure legend.
func (v Variant) String() string {
	if spec, ok := SpecOf(v); ok {
		return spec.Legend
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// AllVariants lists every curve in presentation order.
var AllVariants = []Variant{RunTime, CompileTime, OptimizedI, OptimizedII, OptimizedIII, Handwritten}

// Point is one measurement.
type Point struct {
	Variant  Variant
	Procs    int
	N        int64
	BlkSize  int64
	Makespan machine.Cost
	Messages int64
	Values   int64
	Bytes    int64
}

// Input builds the deterministic Old matrix used by every experiment.
func Input(n int64) *istruct.Matrix {
	m, err := istruct.Pattern("Old", n, n)
	if err != nil {
		panic(err)
	}
	return m
}

// checkGS parses and checks a Gauss-Seidel source for a machine size and
// grid size.
func checkGS(src string, procs int, n int64) (*sem.Info, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(procs), Defines: map[string]int64{"N": n}})
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return info, nil
}

// CompileGS compiles the Fig. 1 program under a variant: the registry name of
// a compiled variant is its xform.StandardPipeline mode. For Handwritten it
// returns nil (RunGS dispatches to the wavefront package instead).
func CompileGS(v Variant, procs int, n, blk int64) ([]*spmd.Program, error) {
	if v == Handwritten {
		return nil, nil
	}
	info, err := checkGS(GSSource, procs, n)
	if err != nil {
		return nil, err
	}
	return compileGS(info, v, blk)
}

func compileGS(info *sem.Info, v Variant, blk int64) ([]*spmd.Program, error) {
	spec, ok := SpecOf(v)
	if !ok {
		return nil, fmt.Errorf("bench: variant %v has no registry entry", v)
	}
	return xform.Compile(info, "gs_iteration", spec.Name, blk)
}

// RunGS measures one configuration on the default (iPSC/2-like) machine.
// The result matrix is validated against the sequential reference before
// reporting (an experiment that computes the wrong answer reports an error,
// not a time).
func RunGS(v Variant, procs int, n, blk int64) (*Point, error) {
	return RunGSWith(machine.DefaultConfig(procs), v, n, blk)
}

// RunGSWith measures one configuration on an explicit machine calibration
// (used by the shared-memory ablation).
func RunGSWith(cfg machine.Config, v Variant, n, blk int64) (*Point, error) {
	stats, err := runGS(cfg, v, n, blk)
	if err != nil {
		return nil, err
	}
	return &Point{
		Variant: v, Procs: cfg.Procs, N: n, BlkSize: blk,
		Makespan: stats.Makespan, Messages: stats.Messages,
		Values: stats.Values, Bytes: stats.Bytes,
	}, nil
}

// runGS is how the harness runs one Gauss-Seidel point: check the Fig. 1
// source once, compile it under the variant (or dispatch to the hand-written
// wavefront), run on cfg — the caller sets Tracer, Placement and Faults —
// and compare the gathered result with the sequential reference. Every figure
// and table goes through it, so none reports a run that computed the wrong
// answer.
func runGS(cfg machine.Config, v Variant, n, blk int64) (machine.Stats, error) {
	info, err := checkGS(GSSource, cfg.Procs, n)
	if err != nil {
		return machine.Stats{}, err
	}
	ref, err := exec.Reference(info, "gs_iteration")
	if err != nil {
		return machine.Stats{}, err
	}
	var stats machine.Stats
	var wrong error
	if v == Handwritten {
		res, err := wavefront.Run(cfg, n, blk, Input(n))
		if err != nil {
			return machine.Stats{}, err
		}
		stats, wrong = res.Stats, ref.CheckMatrix(res.New)
	} else {
		progs, err := compileGS(info, v, blk)
		if err != nil {
			return machine.Stats{}, err
		}
		out, err := exec.RunSPMD(progs, cfg, map[string]*istruct.Matrix{"Old": Input(n)})
		if err != nil {
			return machine.Stats{}, err
		}
		stats, wrong = out.Stats, ref.Check(progs[0].Outputs, out)
	}
	if wrong != nil {
		return stats, fmt.Errorf("%v (procs=%d, n=%d, blk=%d): %w", v, cfg.Procs, n, blk, wrong)
	}
	return stats, nil
}
