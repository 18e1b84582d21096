package main

import (
	"fmt"
	"time"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/core"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/wavefront"
	"procdecomp/internal/xform"
)

// The compile-and-run pipeline opened up into its stages, one span around
// each layer's public function. It makes the same calls in the same order as
// bench.RunGS, autotune's candidate compile and serve's /run evaluation, so
// with a nil tracer it doubles as the direct library run the serve workloads
// check their responses against.

// build is one compilation request: a program, an optional retargeted
// mapping, a machine size and a transformation pipeline.
type build struct {
	src, entry string
	mapping    *autotune.Mapping // nil = the program as declared
	dist       string            // the dist declaration mapping retargets
	procs      int
	defines    map[string]int64
	mode       string
	blk        int64
}

const us, ms = time.Microsecond, time.Millisecond

// compileStaged is parse → (retarget) → sem → core → xform.
func compileStaged(t *tracer, parent handle, b build) ([]*spmd.Program, error) {
	var prog *lang.Program
	err := t.stage("lang.Parse", parent, "lang.parse_us", us, "lang.parse_allocs", func() (err error) {
		prog, err = lang.Parse(b.src)
		return err
	})
	if err != nil {
		return nil, err
	}
	if b.mapping != nil {
		err := t.stage("autotune.Retarget", parent, "autotune.retarget_us", us, "", func() error {
			if err := b.mapping.Validate(int64(b.procs)); err != nil {
				return err
			}
			return autotune.Retarget(prog, b.dist, *b.mapping)
		})
		if err != nil {
			return nil, err
		}
	}
	var info *sem.Info
	err = t.stage("sem.Check", parent, "sem.check_us", us, "sem.check_allocs", func() error {
		var errs []error
		info, errs = sem.Check(prog, sem.Config{Procs: int64(b.procs), Defines: b.defines})
		if len(errs) > 0 {
			return errs[0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	comp := core.New(info)
	if b.mode == "rtr" {
		var generic *spmd.Program
		err := t.stage("core.CompileRTR", parent, "core.rtr_us", us, "", func() (err error) {
			generic, err = comp.CompileRTR(b.entry)
			return err
		})
		if err != nil {
			return nil, err
		}
		return []*spmd.Program{generic}, nil
	}
	passes, ok := xform.StandardPipeline(b.mode, b.blk)
	if !ok {
		return nil, fmt.Errorf("unknown mode %q", b.mode)
	}
	var progs []*spmd.Program
	err = t.stage("core.CompileCTR", parent, "core.ctr_us", us, "core.ctr_allocs", func() (err error) {
		progs, err = comp.CompileCTR(b.entry, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.stage("xform.Apply", parent, "xform.apply_us", us, "xform.apply_allocs", func() error {
		counts, err := xform.Apply(progs, passes)
		applied := 0
		for _, c := range counts {
			applied += c
		}
		t.observe("xform.passes_applied", float64(applied))
		return err
	})
	if err != nil {
		return nil, err
	}
	return progs, nil
}

// inputStaged builds the deterministic N×N "Old" matrix every program here
// takes (bench.Input's pattern is also autotune's and serve's).
func inputStaged(t *tracer, parent handle, n int64) *istruct.Matrix {
	var m *istruct.Matrix
	t.stage("bench.Input", parent, "istruct.input_us", us, "", func() error {
		m = bench.Input(n)
		return nil
	})
	return m
}

// runStaged executes compiled programs on the default machine.
func runStaged(t *tracer, parent handle, progs []*spmd.Program, procs int, n int64) (*exec.SPMDOutcome, error) {
	in := inputStaged(t, parent, n)
	var out *exec.SPMDOutcome
	h := t.start("exec.RunSPMD", parent)
	out, err := exec.RunSPMD(progs, machine.DefaultConfig(procs), map[string]*istruct.Matrix{"Old": in})
	d, allocs := h.end()
	if err != nil {
		return nil, err
	}
	if t != nil {
		if t.countAllocs {
			t.observe("exec.spmd_allocs", float64(allocs))
		} else {
			t.observe("exec.spmd_ms", float64(d)/float64(ms))
			t.observe("exec.ns_per_sim_cycle", float64(d)/float64(out.Stats.Makespan))
		}
	}
	return out, nil
}

// oracleStaged runs the sequential interpreter on the program as written —
// the reference every distributed result is compared with.
func oracleStaged(t *tracer, parent handle, src, entry string, procs int, n int64) (*istruct.Matrix, error) {
	var prog *lang.Program
	err := t.stage("lang.Parse", parent, "", us, "", func() (err error) {
		prog, err = lang.Parse(src)
		return err
	})
	if err != nil {
		return nil, err
	}
	var info *sem.Info
	err = t.stage("sem.Check", parent, "", us, "", func() error {
		var errs []error
		info, errs = sem.Check(prog, sem.Config{Procs: int64(procs), Defines: map[string]int64{"N": n}})
		if len(errs) > 0 {
			return errs[0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	in := inputStaged(t, parent, n)
	var out *exec.Outcome
	err = t.stage("exec.RunSequential", parent, "exec.seq_ms", ms, "", func() (err error) {
		out, err = exec.RunSequential(info, entry, []exec.ArgVal{{Matrix: in}})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out.Ret.Matrix, nil
}

// sameMatrix compares a distributed result with the sequential reference,
// cell for cell, definedness included.
func sameMatrix(want, got *istruct.Matrix) error {
	if got == nil || want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		return fmt.Errorf("result shape differs from the sequential reference")
	}
	for i := int64(1); i <= want.Rows(); i++ {
		for j := int64(1); j <= want.Cols(); j++ {
			dw, dg := want.Defined(i, j), got.Defined(i, j)
			if dw != dg {
				return fmt.Errorf("definedness mismatch at (%d,%d)", i, j)
			}
			if !dw {
				continue
			}
			vw, _ := want.Read(i, j)
			vg, _ := got.Read(i, j)
			if d := vw - vg; d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("value mismatch at (%d,%d): %g vs %g", i, j, vg, vw)
			}
		}
	}
	return nil
}

// gsPointStaged is bench.RunGS opened up: one Fig. 6/7 point of
// Gauss-Seidel, compiled, run and validated against the sequential oracle,
// with the same calls bench.RunGSWith and its validateGS make.
func gsPointStaged(t *tracer, root handle, spec bench.VariantSpec, procs int, n, blk int64) (opResult, error) {
	var stats machine.Stats
	var result *istruct.Matrix
	in := inputStaged(t, root, n)
	if spec.Handwritten {
		var res *wavefront.Result
		err := t.stage("wavefront.Run", root, "machine.wavefront_ms", ms, "", func() (err error) {
			res, err = wavefront.Run(machine.DefaultConfig(procs), n, blk, in)
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		stats, result = res.Stats, res.New
	} else {
		progs, err := compileStaged(t, root, build{src: bench.GSSource, entry: "gs_iteration",
			procs: procs, defines: map[string]int64{"N": n}, mode: spec.Name, blk: blk})
		if err != nil {
			return opResult{}, err
		}
		out, err := runStaged(t, root, progs, procs, n)
		if err != nil {
			return opResult{}, err
		}
		stats, result = out.Stats, out.Arrays["New"]
	}
	want, err := oracleStaged(t, root, bench.GSSource, "gs_iteration", procs, n)
	if err != nil {
		return opResult{}, err
	}
	err = t.stage("validate", root, "", us, "", func() error { return sameMatrix(want, result) })
	if err != nil {
		return opResult{}, err
	}
	return opResult{Makespan: uint64(stats.Makespan), Messages: stats.Messages}, nil
}

// libRun is the direct library run of a /run request: compile and execute,
// no validation (the fig6-exec workload owns that).
func libRun(b build, n int64) (opResult, error) {
	progs, err := compileStaged(nil, handle{}, b)
	if err != nil {
		return opResult{}, err
	}
	out, err := runStaged(nil, handle{}, progs, b.procs, n)
	if err != nil {
		return opResult{}, err
	}
	return opResult{Makespan: uint64(out.Stats.Makespan), Messages: out.Stats.Messages}, nil
}
