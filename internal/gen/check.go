package gen

import (
	"context"
	"fmt"

	"procdecomp/internal/exec"
	"procdecomp/internal/machine"
)

// Check holds every point of c, run under cfg (which may carry a Placement,
// Faults or a Tracer) on c's pattern inputs, to one exec.Reference: the
// property every product's checked run states. Twins are run once. It
// returns each point's outcome by Label; an error names the point that
// failed to compile, to run, or to match the reference.
func Check(c *Compiled, cfg machine.Config) (map[string]*exec.SPMDOutcome, error) {
	return check(c, cfg, nil)
}

// check is Check with a hook that may alter each outcome before it is
// compared, so a test can watch a wrong result fail.
func check(c *Compiled, cfg machine.Config, tamper func(point string, out *exec.SPMDOutcome)) (map[string]*exec.SPMDOutcome, error) {
	ref, err := exec.Reference(c.Info, c.Entry)
	if err != nil {
		return nil, err
	}
	outs := make(map[string]*exec.SPMDOutcome, len(c.Points))
	ran := make([]*exec.SPMDOutcome, len(c.Points))
	for i, pt := range c.Points {
		label := Label(pt)
		if err := c.Stages[i].Err; err != nil {
			return outs, fmt.Errorf("%s: %w", label, err)
		}
		if ran[c.First[i]] == nil {
			if ran[c.First[i]], err = c.Images[i].Run(context.Background(), cfg, c.Inputs); err != nil {
				return outs, fmt.Errorf("%s: %w", label, err)
			}
		}
		out := ran[c.First[i]]
		if tamper != nil {
			tamper(label, out)
		}
		if err := ref.Check(c.Images[i].Outputs(), out); err != nil {
			return outs, fmt.Errorf("%s: %w", label, err)
		}
		outs[label] = out
	}
	return outs, nil
}
