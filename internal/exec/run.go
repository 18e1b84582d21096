package exec

import (
	"context"
	"errors"
	"fmt"

	"procdecomp/internal/dist"
	"procdecomp/internal/expr"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// SPMDOutcome is the result of a distributed run: gathered global values
// plus the machine's performance statistics.
type SPMDOutcome struct {
	Stats machine.Stats
	// Arrays holds the output arrays reassembled from the owners' local
	// pieces (undefined elements stay undefined).
	Arrays map[string]*istruct.Matrix
	// Scalars holds output scalar I-variables, read from their owners.
	Scalars map[string]Value
}

// RunSPMD executes the compiled programs on a fresh simulated machine.
// progs must either hold exactly one generic program (Proc == -1, executed
// by every process — run-time resolution) or cfg.Procs specialized programs
// indexed by process number (compile-time resolution). inputs supplies the
// global contents of each parameter array; the harness scatters them to the
// owners before timing starts.
func RunSPMD(progs []*spmd.Program, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	return RunSPMDCtx(context.Background(), progs, cfg, inputs)
}

// RunSPMDCtx is RunSPMD under a context: the context's Done channel is wired
// to the machine's Cancel hook, so a deadline or cancellation aborts the
// simulated run at the next machine action of any process. A canceled run
// returns an error satisfying errors.Is against both machine.ErrCanceled and
// the context's own error (context.Canceled or context.DeadlineExceeded), so
// callers can tell a host-side abort from a simulation failure.
func RunSPMDCtx(ctx context.Context, progs []*spmd.Program, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	if done := ctx.Done(); done != nil {
		cfg.Cancel = done
	}
	out, err := runSPMD(progs, cfg, inputs)
	if err != nil && errors.Is(err, machine.ErrCanceled) && ctx.Err() != nil {
		return nil, fmt.Errorf("exec: %w: %w", err, ctx.Err())
	}
	return out, err
}

// PerProcess resolves which program each of procs processes runs: progs must
// hold exactly one generic program (Proc == -1, run by every process) or procs
// specialized programs indexed by process number.
func PerProcess(progs []*spmd.Program, procs int) (func(p int) *spmd.Program, error) {
	switch {
	case len(progs) == 1 && progs[0].Proc < 0:
		return func(int) *spmd.Program { return progs[0] }, nil
	case len(progs) == procs:
		for i, pr := range progs {
			if pr.Proc != i {
				return nil, fmt.Errorf("exec: program %d is specialized for process %d", i, pr.Proc)
			}
		}
		return func(p int) *spmd.Program { return progs[p] }, nil
	}
	return nil, fmt.Errorf("exec: got %d program(s) for %d processes", len(progs), procs)
}

func runSPMD(progs []*spmd.Program, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	pick, err := PerProcess(progs, cfg.Procs)
	if err != nil {
		return nil, err
	}

	m := machine.New(cfg)
	states := make([]*concrete, cfg.Procs)
	// Scatter input arrays (setup, not timed).
	for i := range states {
		st := newConcrete()
		states[i] = st
		for _, prm := range pick(i).Params {
			g, ok := inputs[prm.Name]
			if !ok {
				return nil, fmt.Errorf("exec: no input supplied for parameter %s", prm.Name)
			}
			lp, serr := scatter(g, prm.Dist, int64(i))
			if serr != nil {
				return nil, fmt.Errorf("exec: parameter %s: %w", prm.Name, serr)
			}
			st.arrays[prm.Name] = lp
		}
	}

	err = m.Run(func(p *machine.Proc) {
		d := states[p.ID()]
		d.Proc = p
		if err := newStepper(p.ID(), d).run(pick(p.ID()).Body); err != nil {
			panic(fmt.Errorf("process %d: %w", p.ID(), err))
		}
	})
	if err != nil {
		return nil, err
	}
	// A traced run self-checks: the event log must reconcile exactly with the
	// machine's compute/comm/idle partition.
	if err := m.VerifyTrace(); err != nil {
		return nil, err
	}

	stats, err := m.Stats()
	if err != nil {
		return nil, err
	}
	out := &SPMDOutcome{
		Stats:   stats,
		Arrays:  map[string]*istruct.Matrix{},
		Scalars: map[string]Value{},
	}
	for _, o := range pick(0).Outputs {
		if o.IsArray {
			info := pick(0).Arrays[o.Name]
			g, gerr := gather(states, o.Name, info)
			if gerr != nil {
				return nil, gerr
			}
			out.Arrays[o.Name] = g
		} else {
			owner := int64(0)
			if o.ScalarDist != nil && o.ScalarDist.Kind() == dist.KindSingle {
				owner, _ = dist.ProcOf(o.ScalarDist)
			}
			iv, ok := states[owner].ivars[o.Name]
			if !ok || !iv.Defined() {
				return nil, fmt.Errorf("exec: output scalar %s undefined on process %d", o.Name, owner)
			}
			v, _ := iv.Read()
			out.Scalars[o.Name] = v
		}
	}
	return out, nil
}

// scatter builds process p's local piece of a global input array. A mapping
// that is inconsistent with the array — a degenerate local allocation, or a
// local index outside it — is reported as an error naming the array, the
// mapping, and the offending element, so callers (and ultimately
// `pdrun -check`) can surface it instead of crashing on a raw panic.
func scatter(g *istruct.Matrix, d dist.Dist, p int64) (*istruct.Matrix, error) {
	ls := d.LocalShape()
	local, err := istruct.NewMatrix(g.Name(), ls[0], ls[1])
	if err != nil {
		return nil, fmt.Errorf("scatter %s under %s: local allocation %v: %w", g.Name(), d, ls, err)
	}
	rows, cols := g.Rows(), g.Cols()
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			owner := d.Owner([]int64{i, j})
			if owner != p && owner != dist.All {
				continue
			}
			if !g.Defined(i, j) {
				continue
			}
			v, _ := g.Read(i, j)
			l := d.Local([]int64{i, j})
			if err := local.Write(l[0], l[1], v); err != nil {
				return nil, fmt.Errorf("scatter %s[%d,%d] under %s to process %d at local [%d,%d]: %w",
					g.Name(), i, j, d, p, l[0], l[1], err)
			}
		}
	}
	return local, nil
}

// gather reassembles a global array from the owners' local pieces. Vectors
// (rank 1) gather into an n×1 matrix, matching their local representation.
func gather(states []*concrete, name string, info spmd.ArrayInfo) (*istruct.Matrix, error) {
	shape := info.GlobalShape
	rows, cols := shape[0], int64(1)
	if len(shape) == 2 {
		cols = shape[1]
	}
	g, err := istruct.NewMatrix(name, rows, cols)
	if err != nil {
		return nil, err
	}
	d := info.Dist
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			idx := []int64{i, j}
			if len(shape) == 1 {
				idx = []int64{i}
			}
			owner := d.Owner(idx)
			if owner == dist.All {
				owner = 0
			}
			st := states[owner]
			local, ok := st.arrays[name]
			if !ok {
				return nil, fmt.Errorf("exec: process %d never allocated %s", owner, name)
			}
			l := d.Local(idx)
			li, lj := l[0], int64(1)
			if len(l) == 2 {
				lj = l[1]
			}
			if !local.Defined(li, lj) {
				continue
			}
			v, _ := local.Read(li, lj)
			if err := g.Write(i, j, v); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// concrete is the domain of a real run: one process's local arrays, scalar
// I-variables and message buffers, on its simulated processor.
type concrete struct {
	*machine.Proc
	arrays map[string]*istruct.Matrix
	ivars  map[string]*istruct.IVar
	bufs   map[string][]Value
}

func newConcrete() *concrete {
	return &concrete{
		arrays: map[string]*istruct.Matrix{},
		ivars:  map[string]*istruct.IVar{},
		bufs:   map[string][]Value{},
	}
}

func (d *concrete) absent(err error) (Value, bool) {
	fail(err)
	return 0, false
}

func (d *concrete) stored(st *stepper, v spmd.VExpr) Value {
	val, _ := st.evalV(v)
	return val
}

func (d *concrete) alloc(st *stepper, s *spmd.Alloc) {
	if n := len(s.Shape); n != 1 && n != 2 {
		failf("alloc of rank %d", n)
	}
	rows, cols := st.intOf(s.Shape[0]), int64(1)
	if len(s.Shape) == 2 {
		cols = st.intOf(s.Shape[1])
	}
	m, err := istruct.NewMatrix(s.Array, rows, cols)
	if err != nil {
		fail(err)
	}
	d.arrays[s.Array] = m
}

func (d *concrete) allocBuf(st *stepper, s *spmd.AllocBuf) {
	d.bufs[s.Buf] = make([]Value, st.intOf(s.Size)+1) // 1-based
}

func (d *concrete) defineScalar(name string, v Value) {
	iv, ok := d.ivars[name]
	if !ok {
		iv = istruct.NewIVar(name)
		d.ivars[name] = iv
	}
	if err := iv.Write(v); err != nil {
		fail(err)
	}
}

func (d *concrete) scalar(name string) (Value, bool) {
	iv, ok := d.ivars[name]
	if !ok {
		failf("coerce of undefined scalar %s", name)
	}
	v, err := iv.Read()
	if err != nil {
		fail(err)
	}
	return v, true
}

// elem resolves an array element reference to the local array and indices.
func (d *concrete) elem(st *stepper, name string, idx []expr.Expr) (*istruct.Matrix, int64, int64) {
	arr, ok := d.arrays[name]
	if !ok {
		failf("undefined array %s", name)
	}
	i, j := st.intOf(idx[0]), int64(1)
	if len(idx) == 2 {
		j = st.intOf(idx[1])
	}
	return arr, i, j
}

func (d *concrete) aread(st *stepper, name string, idx []expr.Expr) (Value, bool) {
	arr, i, j := d.elem(st, name, idx)
	v, err := arr.Read(i, j)
	if err != nil {
		fail(err)
	}
	return v, true
}

func (d *concrete) awrite(st *stepper, name string, idx []expr.Expr, v Value) {
	arr, i, j := d.elem(st, name, idx)
	if err := arr.Write(i, j, v); err != nil {
		fail(err)
	}
}

// slot resolves buf[lo..hi] after checking both ends are in range.
func (d *concrete) slot(name string, lo, hi int64) []Value {
	buf, ok := d.bufs[name]
	if !ok {
		failf("undefined buffer %s", name)
	}
	for _, i := range [2]int64{lo, hi} {
		if i < 1 || i >= int64(len(buf)) {
			failf("buffer %s index %d out of range [1,%d]", name, i, len(buf)-1)
		}
	}
	return buf[lo : hi+1]
}

func (d *concrete) bufRead(st *stepper, name string, idx expr.Expr) (Value, bool) {
	i := st.intOf(idx)
	return d.slot(name, i, i)[0], true
}

func (d *concrete) bufWrite(st *stepper, name string, idx expr.Expr, v Value) {
	i := st.intOf(idx)
	d.slot(name, i, i)[0] = v
}

func (d *concrete) send(dst int, tag int64, v Value) { d.Send(dst, tag, v) }

func (d *concrete) recv(src int, tag int64) (Value, bool) { return d.Recv1(src, tag), true }

func (d *concrete) sendBuf(name string, lo, hi int64, dst int, tag int64) {
	d.Send(dst, tag, d.slot(name, lo, hi)...)
}

func (d *concrete) recvBuf(name string, lo, hi int64, src int, tag int64) {
	into := d.slot(name, lo, hi)
	vals := d.Recv(src, tag)
	if len(vals) != len(into) {
		failf("block receive of %d values into %s[%d..%d]", len(vals), name, lo, hi)
	}
	copy(into, vals)
}
