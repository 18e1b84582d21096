package exec

import (
	"context"
	"errors"
	"fmt"

	"procdecomp/internal/dist"
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

// RunSPMDCtx is RunSPMD under a context: LowerAll, then the image's Run.
func RunSPMDCtx(ctx context.Context, progs []*spmd.Program, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	im, err := LowerAll(progs, cfg.Procs)
	if err != nil {
		return nil, err
	}
	return im.Run(ctx, cfg, inputs)
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

// An Image is a program suite lowered for a machine of a fixed size: what
// each process steps, plus the parameter and output declarations the harness
// scatters and gathers by. It is immutable, so one image serves any number of
// runs and walks, concurrently.
type Image struct {
	low []*Lowered // by process; a generic program's one Lowered, repeated
	// Specializations share their generic program's declarations, so process
	// 0's speak for all.
	params  []spmd.ArrayInfo
	arrays  map[string]spmd.ArrayInfo
	outputs []spmd.OutVar
}

// LowerAll resolves progs for procs processes (as PerProcess accepts them)
// and lowers each distinct program once, all of them with one name table and
// one expression-code table: the generic program of run-time resolution is
// shared by every process.
func LowerAll(progs []*spmd.Program, procs int) (*Image, error) {
	pick, err := PerProcess(progs, procs)
	if err != nil {
		return nil, err
	}
	return &Image{low: lower(pick, procs), params: pick(0).Params, arrays: pick(0).Arrays, outputs: pick(0).Outputs}, nil
}

// Outputs lists the values a run of the image produces.
func (im *Image) Outputs() []spmd.OutVar { return im.outputs }

// Walk is process p's abstract run (see Lowered.Walk).
func (im *Image) Walk(p int, sink Sink) error { return im.low[p].Walk(p, sink) }

// Run executes the image on a fresh simulated machine of the size it was
// lowered for. The context's Done channel is wired to the machine's Cancel
// hook, so a deadline or cancellation aborts the simulated run at the next
// machine action of any process. A canceled run returns an error satisfying
// errors.Is against both machine.ErrCanceled and the context's own error
// (context.Canceled or context.DeadlineExceeded), so callers can tell a
// host-side abort from a simulation failure.
func (im *Image) Run(ctx context.Context, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	if cfg.Procs != len(im.low) {
		return nil, fmt.Errorf("exec: image lowered for %d processes run on %d", len(im.low), cfg.Procs)
	}
	if done := ctx.Done(); done != nil {
		cfg.Cancel = done
	}
	out, err := im.run(cfg, inputs)
	if err != nil && errors.Is(err, machine.ErrCanceled) && ctx.Err() != nil {
		return nil, fmt.Errorf("exec: %w: %w", err, ctx.Err())
	}
	return out, err
}

func (im *Image) run(cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	states, err := im.states(inputs)
	if err != nil {
		return nil, err
	}
	m := machine.New(cfg)
	err = m.Run(func(p *machine.Proc) {
		d := states[p.ID()]
		d.Proc = p
		if err := newStepper(d.low, p.ID(), d).run(); err != nil {
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
	for _, o := range im.outputs {
		if o.IsArray {
			info := im.arrays[o.Name]
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
			st := states[owner]
			slot := index(st.low.scalars, o.Name)
			if slot < 0 || st.ivars[slot] == nil || !st.ivars[slot].Defined() {
				return nil, fmt.Errorf("exec: output scalar %s undefined on process %d", o.Name, owner)
			}
			v, _ := st.ivars[slot].Read()
			out.Scalars[o.Name] = v
		}
	}
	return out, nil
}

// states makes every process's concrete domain, holding its pieces of the
// input arrays (setup, not timed).
func (im *Image) states(inputs map[string]*istruct.Matrix) ([]*concrete, error) {
	states := make([]*concrete, len(im.low))
	for p := range states {
		states[p] = newConcrete(im.low[p])
	}
	for _, prm := range im.params {
		g, ok := inputs[prm.Name]
		if !ok {
			return nil, fmt.Errorf("exec: no input supplied for parameter %s", prm.Name)
		}
		locals, err := scatter(g, prm.Dist, len(states))
		if err != nil {
			return nil, fmt.Errorf("exec: parameter %s: %w", prm.Name, err)
		}
		// Lowering gives every parameter a slot, the same on every process.
		for p, st := range states {
			st.arrays[index(st.low.arrays, prm.Name)] = locals[p]
		}
	}
	return states, nil
}

// scatter builds every process's local piece of a global input array in one
// pass over its elements. Each process gets an allocation even when it owns
// nothing; a replicated element (owner dist.All) goes to every piece, and one
// whose owner lies outside the machine to none. A mapping that is
// inconsistent with the array — a degenerate local allocation, or a local
// index outside it — is reported as an error naming the array, the mapping,
// and the offending element, so callers (and ultimately `pdrun -check`) can
// surface it instead of crashing on a raw panic.
func scatter(g *istruct.Matrix, d dist.Dist, procs int) ([]*istruct.Matrix, error) {
	ls := d.LocalShape()
	locals := make([]*istruct.Matrix, procs)
	for p := range locals {
		local, err := istruct.NewMatrix(g.Name(), ls[0], ls[1])
		if err != nil {
			return nil, fmt.Errorf("scatter %s under %s: local allocation %v: %w", g.Name(), d, ls, err)
		}
		locals[p] = local
	}
	rows, cols := g.Rows(), g.Cols()
	idx, l := make([]int64, 2), make([]int64, 0, 2)
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			if !g.Defined(i, j) {
				continue
			}
			idx[0], idx[1] = i, j
			owner := d.Owner(idx)
			first, last := owner, owner
			if owner == dist.All {
				first, last = 0, int64(procs)-1
			} else if owner < 0 || owner >= int64(procs) {
				continue
			}
			v, _ := g.Read(i, j)
			l = d.Local(l, idx)
			for p := first; p <= last; p++ {
				if err := locals[p].Write(l[0], l[1], v); err != nil {
					return nil, fmt.Errorf("scatter %s[%d,%d] under %s to process %d at local [%d,%d]: %w",
						g.Name(), i, j, d, p, l[0], l[1], err)
				}
			}
		}
	}
	return locals, nil
}

// gather reassembles a global array from the owners' local pieces. Vectors
// (rank 1) gather into an n×1 matrix, matching their local representation.
func gather(states []*concrete, name string, info spmd.ArrayInfo) (*istruct.Matrix, error) {
	shape := info.GlobalShape
	if len(shape) == 0 {
		return nil, fmt.Errorf("exec: output array %s has no recorded shape", name)
	}
	if len(shape) > 2 {
		return nil, fmt.Errorf("exec: output array %s has rank %d", name, len(shape))
	}
	rows, cols := shape[0], int64(1)
	if len(shape) == 2 {
		cols = shape[1]
	}
	g, err := istruct.NewMatrix(name, rows, cols)
	if err != nil {
		return nil, err
	}
	// The image's one name table numbers the array alike on every process.
	locals := make([]*istruct.Matrix, len(states))
	if slot := index(states[0].low.arrays, name); slot >= 0 {
		for p, st := range states {
			locals[p] = st.arrays[slot]
		}
	}
	d := info.Dist
	idx, l := make([]int64, len(shape)), make([]int64, 0, len(shape))
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			idx[0] = i
			if len(idx) == 2 {
				idx[1] = j
			}
			owner := d.Owner(idx)
			if owner == dist.All {
				owner = 0
			}
			local := locals[owner]
			if local == nil {
				return nil, fmt.Errorf("exec: process %d never allocated %s", owner, name)
			}
			l = d.Local(l, idx)
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
// I-variables and message buffers, indexed by its program's slots (nil until
// allocated or defined), on its simulated processor.
type concrete struct {
	*machine.Proc
	low    *Lowered
	arrays []*istruct.Matrix
	ivars  []*istruct.IVar
	bufs   [][]Value
	// What the process has done, for tape: the operations charged, and the
	// roles played, each a data or message call, a scalar definition, an
	// allocation or a loop step.
	ops, roles int64
}

func newConcrete(low *Lowered) *concrete {
	return &concrete{
		low:    low,
		arrays: make([]*istruct.Matrix, len(low.arrays)),
		ivars:  make([]*istruct.IVar, len(low.scalars)),
		bufs:   make([][]Value, len(low.bufs)),
	}
}

func (d *concrete) undefined(st *stepper, slot int32) (Value, bool) {
	failf("undefined variable %s", st.low.vars[slot])
	return 0, false
}

func (d *concrete) absent(err error) (Value, bool) {
	fail(err)
	return 0, false
}

func (d *concrete) stored(st *stepper, v *lvexpr) Value {
	val, _ := st.evalV(v)
	return val
}

func (d *concrete) alloc(st *stepper, s *lstmt) {
	d.roles++
	if s.rank != 1 && s.rank != 2 {
		failf("alloc of rank %d", s.rank)
	}
	rows, cols := st.ctl(s, mLo), int64(1)
	if s.hi != nil {
		cols = st.ctl(s, mHi)
	}
	m, err := istruct.NewMatrix(st.low.arrays[s.obj], rows, cols)
	if err != nil {
		fail(err)
	}
	d.arrays[s.obj] = m
}

// allocBuf gives buffer slot a fresh, all-zero body of size elements. The
// optimized programs allocate their message buffers inside loops, once per
// iteration, so the previous body is cleared and reused when it is large
// enough: nothing else holds it (a send copies out of it, a receive into it).
func (d *concrete) allocBuf(_ *stepper, slot int32, size int64) {
	d.roles++
	n := size + 1 // 1-based
	if buf := d.bufs[slot]; n <= int64(cap(buf)) {
		d.bufs[slot] = buf[:n]
		clear(d.bufs[slot])
		return
	}
	d.bufs[slot] = make([]Value, n)
}

func (d *concrete) Ops(n int64) {
	d.ops += n
	d.Proc.Ops(n)
}

// Mem charges the access of a data call; each one makes a role.
func (d *concrete) Mem(n int64) {
	d.roles++
	d.Proc.Mem(n)
}

func (d *concrete) LoopStep() {
	d.roles++
	d.Proc.LoopStep()
}

// tape serves a uniform keyed loop (keyed.go) and declines one with keys: a
// real run's iterations differ in their data, and only where this process
// plays no role do they differ in nothing else. It steps the first iteration.
// If that played a role, the stepper steps the rest. If not, no other
// iteration plays one either: every read that decides a role reads a slot the
// loop leaves alone, and an assignment writes what it wrote before. Each
// other iteration would charge a loop step and the operations the first
// charged, and the machine charges them in one call; it declines under
// Placement, and the stepper steps them.
func (d *concrete) tape(st *stepper, s *lstmt, lo, hi, step int64) int64 {
	if s.y != nil {
		return 0
	}
	st.d.LoopStep()
	st.induct(s.dst, lo)
	ops, roles := d.ops, d.roles
	st.exec(s.body)
	n := iterations(lo, hi, step)
	if d.roles != roles || !d.Proc.LoopSteps(n, d.ops-ops) {
		return 1
	}
	st.induct(s.dst, lo+n*step)
	return n + 1
}

// defineScalar writes v to the scalar's I-variable; a definition (def)
// writes a fresh one.
func (d *concrete) defineScalar(st *stepper, slot int32, v Value, def bool) {
	d.roles++
	iv := d.ivars[slot]
	if iv == nil || def {
		iv = istruct.NewIVar(st.low.scalars[slot])
		d.ivars[slot] = iv
	}
	if err := iv.Write(v); err != nil {
		fail(err)
	}
}

func (d *concrete) scalar(st *stepper, slot int32) (Value, bool) {
	iv := d.ivars[slot]
	if iv == nil {
		failf("coerce of undefined scalar %s", st.low.scalars[slot])
	}
	v, err := iv.Read()
	if err != nil {
		fail(err)
	}
	return v, true
}

// elem resolves an array element reference to the local array and indices.
func (d *concrete) elem(st *stepper, s *lstmt) (*istruct.Matrix, int64, int64) {
	arr := d.arrays[s.obj]
	if arr == nil {
		failf("undefined array %s", st.low.arrays[s.obj])
	}
	i, j := st.ctl(s, mLo), int64(1)
	if s.hi != nil {
		j = st.ctl(s, mHi)
	}
	return arr, i, j
}

func (d *concrete) aread(st *stepper, s *lstmt) (Value, bool) {
	arr, i, j := d.elem(st, s)
	v, err := arr.Read(i, j)
	if err != nil {
		fail(err)
	}
	return v, true
}

func (d *concrete) awrite(st *stepper, s *lstmt, v Value) {
	arr, i, j := d.elem(st, s)
	if err := arr.Write(i, j, v); err != nil {
		fail(err)
	}
}

// span resolves buf[lo..hi] after checking both ends are in range.
func (d *concrete) span(st *stepper, slot int32, lo, hi int64) []Value {
	buf := d.bufs[slot]
	if buf == nil {
		failf("undefined buffer %s", st.low.bufs[slot])
	}
	for _, i := range [2]int64{lo, hi} {
		if i < 1 || i >= int64(len(buf)) {
			failf("buffer %s index %d out of range [1,%d]", st.low.bufs[slot], i, len(buf)-1)
		}
	}
	return buf[lo : hi+1]
}

func (d *concrete) bufRead(st *stepper, s *lstmt) (Value, bool) {
	i := st.ctl(s, mLo)
	return d.span(st, s.obj, i, i)[0], true
}

func (d *concrete) bufWrite(st *stepper, s *lstmt, v Value) {
	i := st.ctl(s, mLo)
	d.span(st, s.obj, i, i)[0] = v
}

func (d *concrete) send(dst int, tag int64, v Value) {
	d.roles++
	d.Send(dst, tag, v)
}

func (d *concrete) recv(src int, tag int64) (Value, bool) {
	d.roles++
	return d.Recv1(src, tag), true
}

func (d *concrete) sendBuf(st *stepper, buf int32, lo, hi int64, dst int, tag int64) {
	d.roles++
	d.Send(dst, tag, d.span(st, buf, lo, hi)...)
}

func (d *concrete) recvBuf(st *stepper, buf int32, lo, hi int64, src int, tag int64) {
	d.roles++
	into := d.span(st, buf, lo, hi)
	vals := d.Recv(src, tag)
	if len(vals) != len(into) {
		failf("block receive of %d values into %s[%d..%d]", len(vals), st.low.bufs[buf], lo, hi)
	}
	copy(into, vals)
}
