package exec_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"procdecomp/internal/autotune"
	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/faults"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// Uniform loops on the machine (run.go's tape). A uniform keyed loop whose
// first iteration gives this process no role is charged in one call for the
// rest. That must change how often the host steps and nothing else:
// TestInertLoopsAreInvisible holds every observable of the differential corpus
// to the same images without keys, the edge cases pin the rule one row at a
// time, and the host-work pin holds what the bulk charge buys.

// The differential corpus, gen's corpus included, walks, runs, traces,
// fails and gathers alike with and without keys, and its runs charge loops in
// bulk.
func TestInertLoopsAreInvisible(t *testing.T) {
	if sw := invisible(t, noKeys); sw.bulk == 0 {
		t.Error("no run charged a loop in bulk")
	}
}

// runBoth runs a one-statement-list program on two processes, traced, with
// and without keys, and fails unless their Stats, traces and error texts
// agree. It returns the program's keys per loop (exec.Keyed), each process's
// bulk loop charges and the run's error text.
func runBoth(t *testing.T, body ...spmd.Stmt) ([]int, [2]int64, string) {
	t.Helper()
	p := &spmd.Program{Name: "t", Proc: -1, Body: body}
	im, err := exec.LowerAll([]*spmd.Program{p}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(2)
	oa, ta, ea := tracedRun(im, cfg, nil)
	if err := sameRun(oa, ta, ea, im.WithoutKeys(), cfg, nil); err != nil {
		t.Fatalf("without keys: %v", err)
	}
	charges, err := im.RunCharges(cfg, nil)
	if errText(err) != errText(ea) {
		t.Fatalf("counted run error %q, want %q", errText(err), errText(ea))
	}
	return exec.Keyed(exec.Lower(p)), [2]int64{charges[0].Bulk, charges[1].Bulk}, errText(ea)
}

// coerce is a scalar coerce of s into t from owner to needer.
func coerce(owner, needer expr.Expr) *spmd.Coerce {
	return &spmd.Coerce{Dst: "t", Var: "s", Owner: owner, Needer: needer, Tag: 2}
}

func on(p int64, body ...spmd.Stmt) *spmd.Guard { return &spmd.Guard{Proc: expr.C(p), Body: body} }

func TestInertLoopEdgeCases(t *testing.T) {
	c, k := expr.C, expr.Mod(expr.V("k"), expr.C(4))
	defS := &spmd.AssignIVar{Name: "s", Val: spmd.VConst{F: 1}, Def: true} // what coerce reads
	sum := &spmd.AssignVar{Name: "u", Val: spmd.VBin{Op: lang.OpAdd, L: spmd.VConst{F: 1}, R: spmd.VConst{F: 2}}}
	for _, tc := range []struct {
		name string
		body []spmd.Stmt
		keys []int    // every For, in pre-order: its keys, -1 if not keyed
		bulk [2]int64 // each process's bulk loop charges
		err  string
	}{
		{name: "zero-trip loop", body: []spmd.Stmt{defS, loop("i", 1, 0, coerce(c(1), c(1)), on(1))},
			keys: []int{0}},
		{name: "one-trip loop", body: []spmd.Stmt{defS, loop("i", 1, 1, coerce(c(1), c(1)), on(1))},
			keys: []int{0}},
		// The induction variable ends at its last value, 7, as if stepped:
		// process 0 sends to 1 after the loop.
		{name: "roleless loop charged in bulk",
			body: []spmd.Stmt{defS, assign("k", 1),
				&spmd.For{Var: "i", Lo: c(1), Hi: c(8), Step: c(3), Body: []spmd.Stmt{coerce(k, k), on(1, sendTo(c(0)))}},
				on(0, sendTo(expr.Sub(expr.V("i"), c(6))))},
			keys: []int{0}, bulk: [2]int64{1, 0}},
		// Process 1 reads s and sends in every iteration.
		{name: "loop with a role steps",
			body: []spmd.Stmt{defS, assign("k", 1), loop("i", 1, 3, coerce(k, k), on(1, sendTo(c(0))))},
			keys: []int{0}, bulk: [2]int64{1, 0}},
		{name: "body that only assigns a temporary",
			body: []spmd.Stmt{loop("i", 1, 4, sum)},
			keys: []int{0}, bulk: [2]int64{1, 1}},
		{name: "scalar I-variable definition",
			body: []spmd.Stmt{loop("i", 1, 3, &spmd.AssignIVar{Name: "v", Val: spmd.VConst{F: 1}, Def: true})},
			keys: []int{0}},
		{name: "buffer allocation",
			body: []spmd.Stmt{loop("i", 1, 3, &spmd.AllocBuf{Buf: "b", Size: c(2)})},
			keys: []int{0}},
		{name: "element read",
			body: []spmd.Stmt{&spmd.Alloc{Array: "A", Shape: []expr.Expr{c(2), c(2)}},
				&spmd.AWrite{Array: "A", Idx: []expr.Expr{c(1), c(1)}, Val: spmd.VConst{F: 1}},
				loop("i", 1, 3, &spmd.ARead{Dst: "t", Array: "A", Idx: []expr.Expr{c(1), c(1)}})},
			keys: []int{0}},
		// The nested loop's steps are a role, so the outer loop steps; each
		// activation of the nested one is charged in bulk. Charging the outer
		// loop's repeats one loop step each would drop the nested steps.
		{name: "nested loop in the first iteration",
			body: []spmd.Stmt{loop("i", 1, 3, loop("j", 1, 2, sum))},
			keys: []int{0, 0}, bulk: [2]int64{3, 3}},
		{name: "guard process read from a slot its own body assigns",
			body: []spmd.Stmt{assign("k", 1), loop("i", 1, 3, &spmd.Guard{Proc: expr.V("k"), Body: []spmd.Stmt{assign("k", 0)}})},
			keys: []int{-1}},
		// A loop with keys: no process plays a role, and the machine
		// declines it anyway.
		{name: "roleless loop with keys",
			body: []spmd.Stmt{loop("i", 1, 3, on(2, sendTo(expr.Mod(expr.V("i"), c(2)))))},
			keys: []int{1}},
		// Every process needs the value, so every process plays a role.
		{name: "coerce every process needs",
			body: []spmd.Stmt{defS, loop("i", 1, 3, &spmd.Coerce{Dst: "t", Var: "s", Owner: c(1), NeederAll: true, Tag: 2})},
			keys: []int{0}},
		// A failing code fails in the first iteration, before any bulk
		// charge, with the words it always had.
		{name: "failing invariant owner code",
			body: []spmd.Stmt{defS, assign("k", 1), assign("z", 0), loop("i", 1, 3, coerce(expr.Mod(expr.V("k"), expr.V("z")), c(1)))},
			keys: []int{0}, err: "machine: process 0 failed: process 0: expr: mod by non-positive 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys, bulk, err := runBoth(t, tc.body...)
			if !slices.Equal(keys, tc.keys) || bulk != tc.bulk || err != tc.err {
				t.Errorf("keys %v, bulk charges %v, error %q; want %v, %v, %q", keys, bulk, err, tc.keys, tc.bulk, tc.err)
			}
		})
	}
}

// The host work of a process with no role is linear in N. Gauss-Seidel under
// run-time resolution on 32 processes, its columns wrapped around the first
// 16 of them, leaves process 31 owning and needing nothing at every N: on the
// machine each column costs it one step of the outer loop and one stepped
// iteration of the inner, uniform one. Without keys the inner loop's N-2
// iterations each step, and the charges grow quadratically.
func TestInertLoopsChargeInLinearHostWork(t *testing.T) {
	const procs, idle = 32, 31
	m := autotune.Mapping{Kind: dist.KindCyclicCols, Span: 16}
	calls := func(n int64, undo bool) int64 {
		c, err := compileGS(procs, n, &m, xform.Point{Mode: "rtr"})
		if err != nil {
			t.Fatal(err)
		}
		im := c.Images[0]
		if undo {
			im = im.WithoutKeys()
		}
		charges, err := im.RunCharges(machine.DefaultConfig(procs), c.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		if bulk := charges[idle].Bulk; (bulk == 0) != undo {
			t.Errorf("keys undone %v: %d bulk loop charges at N = %d", undo, bulk, n)
		}
		return charges[idle].Calls
	}
	for _, undo := range []bool{false, true} {
		c16, c32, c64 := calls(16, undo), calls(32, undo), calls(64, undo)
		linear := c64-c32 == 2*(c32-c16)
		if linear == undo {
			t.Errorf("keys undone %v: %d, %d, %d calls at N = 16, 32, 64; want linear growth only with keys", undo, c16, c32, c64)
		}
	}
}

// A host cancellation still lands while processes charge loops in bulk: the
// bulk charge is a Compute, the machine's cancellation point.
func TestInertStretchHonoursCancel(t *testing.T) {
	gs, err := compileGS(32, 256, nil, xform.Point{Mode: "rtr"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := machine.DefaultConfig(32)
	cfg.Heartbeat = func(machine.Cost) { once.Do(cancel) }
	_, err = gs.Images[0].Run(ctx, cfg, gs.Inputs)
	if !errors.Is(err, machine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want one wrapping machine.ErrCanceled and context.Canceled", err)
	}
}

// Under a placement every charge is scheduled by itself, so the machine
// declines the bulk charge and the stepper steps on; a fault schedule touches
// no compute charge, so the machine takes it as on the ideal fabric. Either
// way — chaos, a multiplexed placement, both — every observable (Stats,
// traces, wire events, outputs, error texts) equals stepping without keys,
// and no loop under a placement is charged in bulk.
func TestInertLoopsUnderFaults(t *testing.T) {
	const procs = 8
	placed := machine.DefaultConfig(procs)
	placed.Placement = []int{0, 0, 1, 1, 2, 2, 3, 3}
	chaos := machine.DefaultConfig(procs)
	chaos.Faults = faults.Chaos(7, 0.05)
	both := placed
	both.Faults = chaos.Faults
	cfgs := map[string]machine.Config{"placement": placed, "chaos": chaos, "chaos+placement": both}

	// The machine itself: plain or under chaos, it charges
	// n·(ops·OpCost + LoopCost) at once; under a placement it declines and
	// charges nothing.
	for name, cfg := range map[string]machine.Config{"plain": machine.DefaultConfig(procs), "chaos": chaos, "placement": placed} {
		took := make([]bool, procs)
		m := machine.New(cfg)
		if err := m.Run(func(p *machine.Proc) { took[p.ID()] = p.LoopSteps(3, 4) }); err != nil {
			t.Fatal(err)
		}
		st, err := m.Stats()
		if err != nil {
			t.Fatal(err)
		}
		want, clock := name != "placement", machine.Cost(0)
		if want {
			clock = 3 * (4 + 1)
		}
		for p := range took {
			if took[p] != want || st.ProcTimes[p] != clock {
				t.Errorf("%s: process %d took the bulk charge %v at clock %d; want %v, %d", name, p, took[p], st.ProcTimes[p], want, clock)
			}
		}
	}

	gs, err := compileGS(procs, 16, nil, xform.Point{Mode: "rtr"})
	if err != nil {
		t.Fatal(err)
	}
	im, ins := gs.Images[0], gs.Inputs
	for name, cfg := range cfgs {
		oa, ta, ea := tracedRun(im, cfg, ins)
		if ea != nil {
			t.Errorf("%s: %v", name, ea)
		}
		if err := sameRun(oa, ta, ea, im.WithoutKeys(), cfg, ins); err != nil {
			t.Errorf("%s without keys: %v", name, err)
		}
		charges, _ := im.RunCharges(cfg, ins)
		for p, c := range charges {
			if cfg.Placement != nil && c.Bulk != 0 {
				t.Errorf("%s: process %d charged %d loops in bulk, want none", name, p, c.Bulk)
			}
		}
	}
	for name, cfg := range map[string]machine.Config{"plain": machine.DefaultConfig(procs), "chaos": chaos} {
		if charges, err := im.RunCharges(cfg, ins); err != nil || charges[procs-1].Bulk == 0 {
			t.Errorf("%s: charges %v, error %v; want process %d to charge some loops in bulk", name, charges, err, procs-1)
		}
	}
}
