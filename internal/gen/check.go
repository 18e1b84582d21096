package gen

import (
	"context"
	"errors"
	"fmt"

	"procdecomp/internal/exec"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/xform"
)

// Check runs src's entry through the path every product takes and holds each
// result to the sequential one. It checks src for cfg.Procs processes, builds
// exec.Reference once, compiles every StandardPipeline point (opt3 at blk)
// with one xform.CompileAll, and lowers and runs each stage on the pattern
// inputs under cfg (which may carry a Placement, Faults or a Tracer). It
// returns each point's outcome by mode name; an error names the point that
// failed to compile, to run, or to match the reference.
func Check(src, entry string, cfg machine.Config, blk int64) (map[string]*exec.SPMDOutcome, error) {
	return check(src, entry, cfg, blk, nil)
}

// check is Check with a hook that may alter each outcome before it is
// compared, so a test can watch a wrong result fail.
func check(src, entry string, cfg machine.Config, blk int64, tamper func(mode string, out *exec.SPMDOutcome)) (map[string]*exec.SPMDOutcome, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(cfg.Procs)})
	if len(errs) > 0 {
		return nil, fmt.Errorf("check: %w", errors.Join(errs...))
	}
	ref, err := exec.Reference(info, entry)
	if err != nil {
		return nil, err
	}
	ins, err := exec.PatternInputs(info, entry)
	if err != nil {
		return nil, err
	}
	modes := xform.StandardModes()
	points := make([]xform.Point, len(modes))
	for i, mode := range modes {
		points[i] = xform.Point{Mode: mode, Blk: blk}
	}
	stage := func(mode string, st xform.Stage) (*exec.SPMDOutcome, error) {
		if st.Err != nil {
			return nil, st.Err
		}
		img, err := exec.LowerAll(st.Progs, cfg.Procs)
		if err != nil {
			return nil, err
		}
		out, err := img.Run(context.Background(), cfg, ins)
		if err != nil {
			return nil, err
		}
		if tamper != nil {
			tamper(mode, out)
		}
		return out, ref.Check(img.Outputs(), out)
	}
	outs := make(map[string]*exec.SPMDOutcome, len(points))
	for i, st := range xform.CompileAll(info, entry, points) {
		mode := points[i].Mode
		out, err := stage(mode, st)
		if err != nil {
			if mode == "opt3" {
				mode = fmt.Sprintf("opt3/blk=%d", blk)
			}
			return outs, fmt.Errorf("%s: %w", mode, err)
		}
		outs[mode] = out
	}
	return outs, nil
}
