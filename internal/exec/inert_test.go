package exec_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/faults"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// Inert-capable loops (memo.go, step.go's loop). A loop whose first iteration
// gives this process no role is charged in one call for the rest. That must
// change how often the host steps and nothing else: the differential tests
// hold every observable to the same images stepped iteration by iteration,
// the edge cases pin the rule one row at a time, and the host-work pin holds
// what the skip buys.

// Every point of the memo corpus walks, runs, traces, fails and gathers alike
// with and without skips, and some of its loops are skipped.
func TestInertLoopsAreInvisible(t *testing.T) {
	if bulk := differAll(t, noSkips); bulk == 0 {
		t.Error("no walk charged a loop in bulk")
	}
}

// skipBoth walks process me of a one-statement-list program on two processes
// with and without skips and returns what both agree on. Neither side has
// keyed loops, so the walks take the path a run does.
func skipBoth(t *testing.T, me int, body ...spmd.Stmt) (*exec.Lowered, *recorder, string) {
	t.Helper()
	low := exec.WithoutKeys(exec.Lower(&spmd.Program{Name: "t", Proc: -1, Body: body}))
	with, without := &recorder{procs: 2}, &recorder{procs: 2}
	err, ctl := low.Walk(me, with), exec.WithoutSkips(low).Walk(me, without)
	if errText(err) != errText(ctl) || !slices.Equal(with.spans(), without.spans()) || !slices.Equal(with.sends, without.sends) {
		t.Fatalf("walk with skips: error %q, spans %v; without: error %q, spans %v",
			errText(err), with.spans(), errText(ctl), without.spans())
	}
	return low, with, errText(err)
}

// coerce is a scalar coerce of s into t from owner to needer.
func coerce(owner, needer expr.Expr) *spmd.Coerce {
	return &spmd.Coerce{Dst: "t", Var: "s", Owner: owner, Needer: needer, Tag: 2}
}

func on(p int64, body ...spmd.Stmt) *spmd.Guard { return &spmd.Guard{Proc: expr.C(p), Body: body} }

func TestInertLoopEdgeCases(t *testing.T) {
	c, k := expr.C, expr.Mod(expr.V("k"), expr.C(4))
	for _, tc := range []struct {
		name  string
		me    int
		body  []spmd.Stmt
		inert bool
		bulk  int
		sends []int64
		err   string
	}{
		{name: "zero-trip loop", body: []spmd.Stmt{loop("i", 1, 0, coerce(c(1), c(1)), on(1))},
			inert: true},
		{name: "one-trip loop", body: []spmd.Stmt{loop("i", 1, 1, coerce(c(1), c(1)), on(1))},
			inert: true},
		// The induction variable ends at its last value, 7, as if stepped.
		{name: "roleless loop charged in bulk",
			body: []spmd.Stmt{assign("k", 1),
				&spmd.For{Var: "i", Lo: c(1), Hi: c(8), Step: c(3), Body: []spmd.Stmt{coerce(k, k), on(1, sendTo(c(0)))}},
				sendTo(expr.Sub(expr.V("i"), c(6)))},
			inert: true, bulk: 1, sends: []int64{1}},
		{name: "loop with a role steps", me: 1,
			body:  []spmd.Stmt{assign("k", 1), loop("i", 1, 3, coerce(k, k), on(1, sendTo(c(0))))},
			inert: true, sends: []int64{0, 0, 0}},
		{name: "guard process read from a slot its own body assigns",
			body:  []spmd.Stmt{assign("k", 1), loop("i", 1, 3, &spmd.Guard{Proc: expr.V("k"), Body: []spmd.Stmt{assign("k", 0)}})},
			inert: false},
		// Every process needs the value, so every process plays a role.
		{name: "coerce every process needs",
			body:  []spmd.Stmt{loop("i", 1, 3, &spmd.Coerce{Dst: "t", Var: "s", Owner: c(1), NeederAll: true, Tag: 2})},
			inert: false},
		{name: "failing invariant owner code",
			body:  []spmd.Stmt{assign("k", 1), assign("z", 0), loop("i", 1, 3, coerce(expr.Mod(expr.V("k"), expr.V("z")), c(1)))},
			inert: true, err: "expr: mod by non-positive 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			low, rec, err := skipBoth(t, tc.me, tc.body...)
			if got := exec.Inert(low); len(got) != 1 || got[0] != tc.inert {
				t.Errorf("inert-capable loops %v, want [%v]", got, tc.inert)
			}
			if rec.bulk != tc.bulk || !slices.Equal(rec.sends, tc.sends) || err != tc.err {
				t.Errorf("%d bulk charges, sends to %v, error %q; want %d, %v, %q", rec.bulk, rec.sends, err, tc.bulk, tc.sends, tc.err)
			}
		})
	}
	// A failing code fails in the first iteration, before any skip, on the
	// concrete side too and with the words it always had.
	p := &spmd.Program{Name: "t", Proc: -1, Body: []spmd.Stmt{assign("k", 1), assign("z", 0),
		loop("i", 1, 3, coerce(expr.Mod(expr.V("k"), expr.V("z")), c(1)))}}
	_, err := exec.RunSPMD([]*spmd.Program{p}, machine.DefaultConfig(2), nil)
	if want := "machine: process 0 failed: process 0: expr: mod by non-positive 0"; errText(err) != want {
		t.Errorf("run: error %q, want %q", err, want)
	}
}

// callCounter is a Sink that counts the calls reaching it, and the messages
// among them.
type callCounter struct{ procs, calls, msgs int }

func (c *callCounter) Procs() int                 { return c.procs }
func (c *callCounter) Ops(int64)                  { c.calls++ }
func (c *callCounter) Mem(int64)                  { c.calls++ }
func (c *callCounter) LoopStep()                  { c.calls++ }
func (c *callCounter) LoopSteps(int64, int64)     { c.calls++ }
func (c *callCounter) Send(int, int64, int) error { c.calls++; c.msgs++; return nil }
func (c *callCounter) Recv(int, int64, int) error { c.calls++; c.msgs++; return nil }

// The host work of a process with no role is linear in N. Gauss-Seidel under
// run-time resolution on 32 processes, its columns wrapped around the first
// 16 of them, leaves process 31 owning and needing nothing at every N: each
// column costs it one step of the outer loop and one watched iteration of the
// inner one. Stepped, the inner loop's N-2 iterations make it quadratic. The
// loops are keyed too, and a tape per key vector would make the walk linear
// even without skips, so the walks go without keys, as a run does.
func TestInertLoopsChargeInLinearHostWork(t *testing.T) {
	const procs, idle = 32, 31
	m := autotune.Mapping{Kind: dist.KindCyclicCols, Span: 16}
	calls := func(n int64, undo bool) int {
		_, progs, err := compile(bench.GSSource, "gs_iteration", procs, map[string]int64{"N": n}, &m, "rtr", 0)
		if err != nil {
			t.Fatal(err)
		}
		low := exec.WithoutKeys(exec.Lower(progs[0]))
		if undo {
			low = exec.WithoutSkips(low)
		}
		c := &callCounter{procs: procs}
		if err := low.Walk(idle, c); err != nil {
			t.Fatal(err)
		}
		return c.calls
	}
	for _, undo := range []bool{false, true} {
		c16, c32, c64 := calls(16, undo), calls(32, undo), calls(64, undo)
		linear := c64-c32 == 2*(c32-c16)
		if linear == undo {
			t.Errorf("skips undone %v: %d, %d, %d calls at N = 16, 32, 64; want linear growth only with skips", undo, c16, c32, c64)
		}
	}
}

// A host cancellation still lands while processes charge loops in bulk: the
// bulk charge is a Compute, the machine's cancellation point.
func TestInertStretchHonoursCancel(t *testing.T) {
	progs, err := bench.CompileGS(bench.RunTime, 32, 256, bench.DefaultBlk)
	if err != nil {
		t.Fatal(err)
	}
	im, err := exec.LowerAll(progs, 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := machine.DefaultConfig(32)
	cfg.Heartbeat = func(machine.Cost) { once.Do(cancel) }
	_, err = im.Run(ctx, cfg, map[string]*istruct.Matrix{"Old": bench.Input(256)})
	if !errors.Is(err, machine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want one wrapping machine.ErrCanceled and context.Canceled", err)
	}
}

// Under a fault schedule or a placement every charge is scaled, checked
// against a crash point or scheduled by itself, so the machine declines the
// bulk charge and the stepper steps on: Slow factors that round each charge
// on its own, a crash-stop and a multiplexed placement leave every
// observable — Stats, traces, wire events, outputs, error texts — equal to
// stepping.
func TestInertLoopsUnderFaults(t *testing.T) {
	const procs = 8
	chaos := func() *faults.Schedule {
		f := faults.Chaos(7, 0.05)
		f.Slow = map[int]float64{2: 1.5, 5: 2.5}
		return f
	}
	crash := chaos()
	crash.Crash = map[int]uint64{6: 4000}
	placed := machine.DefaultConfig(procs)
	placed.Placement = []int{0, 0, 1, 1, 2, 2, 3, 3}
	cfgs := map[string]machine.Config{"placement": placed}
	for name, f := range map[string]*faults.Schedule{"slow": chaos(), "crash": crash} {
		cfg := machine.DefaultConfig(procs)
		cfg.Faults = f
		cfgs[name] = cfg
		cfg.Placement = placed.Placement
		cfgs[name+"+placement"] = cfg
	}

	// The machine itself: plain, it charges n·(ops·OpCost + LoopCost) at once;
	// otherwise it declines and charges nothing.
	for name, cfg := range map[string]machine.Config{"plain": machine.DefaultConfig(procs), "slow": cfgs["slow"], "placement": placed} {
		took := make([]bool, procs)
		m := machine.New(cfg)
		if err := m.Run(func(p *machine.Proc) { took[p.ID()] = p.LoopSteps(3, 4) }); err != nil {
			t.Fatal(err)
		}
		st, err := m.Stats()
		if err != nil {
			t.Fatal(err)
		}
		want, clock := name == "plain", machine.Cost(0)
		if want {
			clock = 3 * (4 + 1)
		}
		for p := range took {
			if took[p] != want || st.ProcTimes[p] != clock {
				t.Errorf("%s: process %d took the bulk charge %v at clock %d; want %v, %d", name, p, took[p], st.ProcTimes[p], want, clock)
			}
		}
	}

	progs, err := bench.CompileGS(bench.RunTime, procs, 16, bench.DefaultBlk)
	if err != nil {
		t.Fatal(err)
	}
	im, err := exec.LowerAll(progs, procs)
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]*istruct.Matrix{"Old": bench.Input(16)}
	failed := 0
	for name, cfg := range cfgs {
		oa, ta, ea := tracedRun(im, cfg, ins)
		ob, tb, eb := tracedRun(im.WithoutSkips(), cfg, ins)
		if errText(ea) != errText(eb) {
			t.Fatalf("%s: run error with skips %q, without %q", name, errText(ea), errText(eb))
		}
		if !slices.Equal(ta.WireEvents(), tb.WireEvents()) {
			t.Errorf("%s: wire events differ with and without skips", name)
		}
		for p := 0; p < procs; p++ {
			if !slices.Equal(ta.Events(p), tb.Events(p)) {
				t.Errorf("%s: process %d traces differently with and without skips", name, p)
			}
		}
		if ea != nil {
			failed++
			continue
		}
		sameOutcome(t, name+" without skips", oa, ob)
	}
	if failed != 2 {
		t.Errorf("%d runs failed, want 2: the crash-stops", failed)
	}
}
