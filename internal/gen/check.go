package gen

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"procdecomp/internal/analysis"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
)

// Check holds every point of c, run under cfg (which may carry a Placement,
// Faults or a Tracer) on c's pattern inputs, to one exec.Reference: the
// property every product's checked run states. Twins are run once. It
// returns each point's outcome by Label; an error names the point that
// failed to compile, to run, or to match the reference.
func Check(c *Compiled, cfg machine.Config) (map[string]*exec.SPMDOutcome, error) {
	rs, err := check(c, cfg, false, nil)
	outs := make(map[string]*exec.SPMDOutcome, len(rs))
	for i, r := range rs {
		outs[Label(c.Points[i])] = r.out
	}
	return outs, err
}

// CheckScaled is the cost-scaling relation on c: run under cfg with each of
// its seven costs multiplied by k, every point passes Check and every
// process's clock, so the makespan too, ends exactly k times as late as under
// cfg. Both runs are traced: each replays its trace to its own makespan
// ((*analysis.Dump).Predict of the identity scenario), and every cause of the
// scaled run's critical path is exactly k times the first's. A charge made
// outside the tariff breaks it.
func CheckScaled(c *Compiled, cfg machine.Config, k machine.Cost) error {
	base, err := check(c, cfg, true, nil)
	if err != nil {
		return err
	}
	for _, cost := range []*machine.Cost{&cfg.OpCost, &cfg.MemCost, &cfg.LoopCost, &cfg.SendStartup, &cfg.RecvStartup, &cfg.PerValue, &cfg.Latency} {
		*cost *= k
	}
	scaled, err := check(c, cfg, true, nil)
	if err != nil {
		return fmt.Errorf("costs ×%d: %w", k, err)
	}
	for i, pt := range c.Points {
		label := Label(pt)
		b, s := base[i].out.Stats, scaled[i].out.Stats
		if s.Makespan != k*b.Makespan {
			return fmt.Errorf("%s: costs ×%d give makespan %d, ×1 gave %d", label, k, s.Makespan, b.Makespan)
		}
		for p := range b.ProcTimes {
			if s.ProcTimes[p] != k*b.ProcTimes[p] {
				return fmt.Errorf("%s: costs ×%d end process %d at %d, ×1 at %d", label, k, p, s.ProcTimes[p], b.ProcTimes[p])
			}
		}
		var paths [2]analysis.Attribution
		for j, r := range []run{base[i], scaled[i]} {
			replayed, err := r.dump.Predict(analysis.Scenario{})
			if err != nil {
				return fmt.Errorf("%s: replaying the trace: %w", label, err)
			}
			if replayed != uint64(r.out.Stats.Makespan) {
				return fmt.Errorf("%s: the trace replays to %d, the run took %d", label, replayed, r.out.Stats.Makespan)
			}
			cp, err := r.dump.CriticalPath()
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			paths[j] = cp.Attr
		}
		if want := times(paths[0], uint64(k)); paths[1] != want {
			return fmt.Errorf("%s: costs ×%d attribute the critical path as %+v, ×1 as %+v", label, k, paths[1], paths[0])
		}
	}
	return nil
}

// times is every cause of a multiplied by k.
func times(a analysis.Attribution, k uint64) analysis.Attribution {
	return analysis.Attribution{Compute: k * a.Compute, SendStartup: k * a.SendStartup, RecvStartup: k * a.RecvStartup,
		PerValue: k * a.PerValue, Wire: k * a.Wire, Fault: k * a.Fault, Blocked: k * a.Blocked}
}

// ErrNoAxis is CheckTransposed's answer for a case whose arrays are not all
// mapped by a one-axis family, which has no transpose.
var ErrNoAxis = errors.New("gen: not every dist is a one-axis family")

// axisSwapped pairs each one-axis matrix family with its transpose.
var axisSwapped = map[string]string{"cyclic_cols": "cyclic_rows", "cyclic_rows": "cyclic_cols",
	"block_cols": "block_rows", "block_rows": "block_cols"}

// CheckTransposed is the transposition relation on c, run on its own
// machine: c's transpose — every 2-D subscript and matrix shape swapped, and
// each dist's family swapped for its other axis — on the transposed inputs
// gives, at every point, the same makespan, messages and per-process clocks
// as c, and gathers each array transposed. c itself passes Check. A case
// with a dist of any other family gives ErrNoAxis.
func CheckTransposed(c *Compiled) error {
	tc := c.Case
	tc.Retarget = func(p *lang.Program) error {
		if c.Retarget != nil {
			if err := c.Retarget(p); err != nil {
				return err
			}
		}
		return transpose(p)
	}
	t, err := Compile(tc)
	if err != nil {
		return fmt.Errorf("transposed: %w", err)
	}
	for name, m := range c.Inputs {
		t.Inputs[name] = transposed(m)
	}
	cfg := c.Config()
	orig, err := check(c, cfg, false, nil)
	if err != nil {
		return err
	}
	trans, err := runAll(t, cfg, false)
	if err != nil {
		return fmt.Errorf("transposed: %w", err)
	}
	for i, pt := range c.Points {
		a, b := orig[i].out, trans[i].out
		switch {
		case a.Stats.Makespan != b.Stats.Makespan:
			return fmt.Errorf("%s: makespan %d, transposed %d", Label(pt), a.Stats.Makespan, b.Stats.Makespan)
		case a.Stats.Messages != b.Stats.Messages:
			return fmt.Errorf("%s: %d messages, transposed %d", Label(pt), a.Stats.Messages, b.Stats.Messages)
		case !slices.Equal(a.Stats.ProcTimes, b.Stats.ProcTimes):
			return fmt.Errorf("%s: process clocks %v, transposed %v", Label(pt), a.Stats.ProcTimes, b.Stats.ProcTimes)
		}
		for name, m := range a.Arrays {
			if err := sameMatrix(transposed(m), b.Arrays[name]); err != nil {
				return fmt.Errorf("%s: array %s transposed: %w", Label(pt), name, err)
			}
		}
	}
	return nil
}

// transpose swaps every 2-D subscript, store and matrix shape of p and each
// dist's axis; it fails with ErrNoAxis unless p declares a dist and each is
// a one-axis family.
func transpose(p *lang.Program) error {
	axes := 0
	var err error
	swap := func(es []lang.Expr) {
		if len(es) == 2 {
			es[0], es[1] = es[1], es[0]
		}
	}
	lang.Inspect(p, func(n any) bool {
		switch n := n.(type) {
		case *lang.DistDecl:
			if other, ok := axisSwapped[n.Builtin]; ok {
				n.Builtin = other
				axes++
			} else {
				err = ErrNoAxis
			}
		case *lang.IndexExpr:
			swap(n.Indices)
		case *lang.StoreStmt:
			swap(n.Indices)
		case *lang.TypeExpr:
			swap(n.Dims)
		case *lang.AllocExpr:
			swap(n.Dims)
		}
		return true
	})
	if axes == 0 {
		return ErrNoAxis
	}
	return err
}

// transposed is m's transpose, its definedness included.
func transposed(m *istruct.Matrix) *istruct.Matrix {
	t, _ := istruct.NewMatrix(m.Name(), m.Cols(), m.Rows())
	for i := int64(1); i <= m.Rows(); i++ {
		for j := int64(1); j <= m.Cols(); j++ {
			if v, err := m.Read(i, j); err == nil {
				_ = t.Write(j, i, v)
			}
		}
	}
	return t
}

// sameMatrix reports where got differs from want: shape, definedness or an
// element's exact value.
func sameMatrix(want, got *istruct.Matrix) error {
	if got == nil || got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("shape differs")
	}
	wv, wd := want.Snapshot()
	gv, gd := got.Snapshot()
	for i := range wv {
		for j := range wv[i] {
			if wd[i][j] != gd[i][j] || wv[i][j] != gv[i][j] {
				return fmt.Errorf("element (%d,%d) is %g (defined %t), want %g (defined %t)", i+1, j+1, gv[i][j], gd[i][j], wv[i][j], wd[i][j])
			}
		}
	}
	return nil
}

// CheckTrivial is the trivial-machine relation on a one-process case: no
// point sends a message, rtr costs strictly more than ctr (it keeps its
// guards), and opt1 to opt3 are ctr's twins, since no pass has a message to
// act on.
func CheckTrivial(c *Compiled) error {
	if c.Procs != 1 {
		return fmt.Errorf("CheckTrivial: %d processes, want 1", c.Procs)
	}
	rs, err := check(c, c.Config(), false, nil)
	if err != nil {
		return err
	}
	at := map[string]int{}
	for i, pt := range c.Points {
		at[pt.Mode] = i
		if m := rs[i].out.Stats.Messages; m != 0 {
			return fmt.Errorf("%s: %d messages on one process", Label(pt), m)
		}
	}
	rtr, ctr := rs[at["rtr"]].out.Stats.Makespan, rs[at["ctr"]].out.Stats.Makespan
	if rtr <= ctr {
		return fmt.Errorf("rtr takes %d, ctr %d: rtr's guards cost nothing", rtr, ctr)
	}
	for _, mode := range []string{"opt1", "opt2", "opt3"} {
		if i := at[mode]; c.First[i] != c.First[at["ctr"]] {
			return fmt.Errorf("%s is not ctr's twin: a pass applied on one process", Label(c.Points[i]))
		}
	}
	return nil
}

// A run is one point's outcome, and the dump of its trace when traced.
type run struct {
	out  *exec.SPMDOutcome
	dump *analysis.Dump
}

// runAll runs each distinct image of c once, under cfg on c's inputs, traced
// if asked, and returns each point's run; an error names the point that
// failed to compile or to run.
func runAll(c *Compiled, cfg machine.Config, traced bool) ([]run, error) {
	rs := make([]run, len(c.Points))
	for i, pt := range c.Points {
		if err := c.Stages[i].Err; err != nil {
			return nil, fmt.Errorf("%s: %w", Label(pt), err)
		}
		if k := c.First[i]; k != i {
			rs[i] = rs[k]
			continue
		}
		cfg := cfg
		if traced {
			cfg.Tracer = trace.New()
		}
		out, err := c.Images[i].Run(context.Background(), cfg, c.Inputs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", Label(pt), err)
		}
		rs[i].out = out
		if traced {
			rs[i].dump = analysis.NewDump(cfg, cfg.Tracer)
		}
	}
	return rs, nil
}

// check is runAll held to c's reference at every point, with a hook that may
// alter each outcome before it is compared, so a test can watch a wrong
// result fail.
func check(c *Compiled, cfg machine.Config, traced bool, tamper func(point string, out *exec.SPMDOutcome)) ([]run, error) {
	ref, err := exec.Reference(c.Info, c.Entry)
	if err != nil {
		return nil, err
	}
	rs, err := runAll(c, cfg, traced)
	if err != nil {
		return nil, err
	}
	for i, pt := range c.Points {
		label := Label(pt)
		if tamper != nil {
			tamper(label, rs[i].out)
		}
		if err := ref.Check(c.Images[i].Outputs(), rs[i].out); err != nil {
			return rs, fmt.Errorf("%s: %w", label, err)
		}
	}
	return rs, nil
}
