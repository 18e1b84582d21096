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

// CheckScaled is the cost-scaling relation on c: run under cfg with each of
// its seven costs multiplied by k, every point passes Check and every
// process's clock, so the makespan too, ends exactly k times as late as under
// cfg. A charge made outside the tariff breaks it.
func CheckScaled(c *Compiled, cfg machine.Config, k machine.Cost) error {
	base, err := Check(c, cfg)
	if err != nil {
		return err
	}
	for _, cost := range []*machine.Cost{&cfg.OpCost, &cfg.MemCost, &cfg.LoopCost, &cfg.SendStartup, &cfg.RecvStartup, &cfg.PerValue, &cfg.Latency} {
		*cost *= k
	}
	scaled, err := Check(c, cfg)
	if err != nil {
		return fmt.Errorf("costs ×%d: %w", k, err)
	}
	for _, pt := range c.Points {
		label := Label(pt)
		b, s := base[label].Stats, scaled[label].Stats
		if s.Makespan != k*b.Makespan {
			return fmt.Errorf("%s: costs ×%d give makespan %d, ×1 gave %d", label, k, s.Makespan, b.Makespan)
		}
		for p := range b.ProcTimes {
			if s.ProcTimes[p] != k*b.ProcTimes[p] {
				return fmt.Errorf("%s: costs ×%d end process %d at %d, ×1 at %d", label, k, p, s.ProcTimes[p], b.ProcTimes[p])
			}
		}
	}
	return nil
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
