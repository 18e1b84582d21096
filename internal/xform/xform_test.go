package xform

import (
	"strings"
	"testing"

	"procdecomp/internal/core"
	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
)

const gsSource = `
const N = 16;
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

func checked(t *testing.T, procs int64, n int64) *sem.Info {
	t.Helper()
	prog, err := lang.Parse(gsSource)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: procs, Defines: map[string]int64{"N": n}})
	if len(errs) > 0 {
		t.Fatalf("check: %v", errs)
	}
	return info
}

func compileCTR(t *testing.T, info *sem.Info) []*spmd.Program {
	t.Helper()
	progs, err := core.New(info).CompileCTR("gs_iteration", true)
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

// run runs progs on their entry's pattern inputs and holds the gathered
// result to the sequential one: exec's one checked run.
func run(t *testing.T, info *sem.Info, progs []*spmd.Program) *exec.SPMDOutcome {
	t.Helper()
	entry := progs[0].Name
	ins, err := exec.PatternInputs(info, entry)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.RunSPMD(progs, machine.DefaultConfig(int(info.Cfg.Procs)), ins)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Reference(info, entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Check(progs[0].Outputs, res); err != nil {
		t.Fatalf("S=%d: %v", info.Cfg.Procs, err)
	}
	return res
}

// The message passes, as StandardPipeline spells them.
var (
	vectorize = Pass{Kind: PassVectorize}
	jam       = Pass{Kind: PassJam}
)

func stripMine(blk int64) Pass { return Pass{Kind: PassStripMine, Blk: blk} }

// apply runs one pass over progs and returns how many channels it
// transformed.
func apply(t *testing.T, progs []*spmd.Program, p Pass) int {
	t.Helper()
	n, err := p.Apply(progs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Message-count formulas for the N×N wavefront, interior (N-2)².
func optIMsgs(n int64) int64 { return (n-2)*(n-2) + (n - 2) }
func optIIIMsgs(n, b int64) int64 {
	blocksPerCol := (n - 2 + b - 1) / b
	return (n-2)*blocksPerCol + (n - 2)
}

func TestVectorizePreservesSemantics(t *testing.T) {
	for _, procs := range []int64{2, 3, 4, 8} {
		const n = 16
		info := checked(t, procs, n)
		progs := compileCTR(t, info)
		changed := apply(t, progs, vectorize)
		if changed == 0 {
			t.Fatalf("S=%d: vectorize transformed nothing", procs)
		}
		res := run(t, info, progs)
		if res.Stats.Messages != optIMsgs(n) {
			t.Errorf("S=%d: messages = %d, want %d", procs, res.Stats.Messages, optIMsgs(n))
		}
	}
}

func TestVectorizeOnlyReadOnlyChannels(t *testing.T) {
	info := checked(t, 4, 16)
	progs := compileCTR(t, info)
	if changed := apply(t, progs, vectorize); changed != 1 {
		t.Errorf("vectorize transformed %d channels, want 1 (only the Old column)", changed)
	}
}

func TestJamPreservesSemantics(t *testing.T) {
	for _, procs := range []int64{2, 3, 4, 8} {
		const n = 16
		info := checked(t, procs, n)
		progs := compileCTR(t, info)
		apply(t, progs, vectorize)
		if changed := apply(t, progs, jam); changed == 0 {
			t.Fatalf("S=%d: jam transformed nothing", procs)
		}
		res := run(t, info, progs)
		// Jam relocates sends; it does not change the message count.
		if res.Stats.Messages != optIMsgs(n) {
			t.Errorf("S=%d: messages = %d, want %d", procs, res.Stats.Messages, optIMsgs(n))
		}
	}
}

func TestJamExposesParallelism(t *testing.T) {
	// Optimized II's defining property (Fig. 7): with pipelining, makespan
	// drops as processors are added; before it, the curve is flat.
	const n = 32
	makespan := func(procs int64, jammed bool) machine.Cost {
		info := checked(t, procs, n)
		progs := compileCTR(t, info)
		apply(t, progs, vectorize)
		if jammed {
			apply(t, progs, jam)
		}
		return run(t, info, progs).Stats.Makespan
	}
	preJam2, preJam8 := makespan(2, false), makespan(8, false)
	postJam2, postJam8 := makespan(2, true), makespan(8, true)
	// Jamming must scale markedly better than the column-serialized version
	// and deliver a real absolute speedup from 2 to 8 processors.
	flatRatio := float64(preJam2) / float64(preJam8)
	speedup := float64(postJam2) / float64(postJam8)
	if speedup < 2 {
		t.Errorf("jammed speedup 2->8 procs = %.2f, expected > 2", speedup)
	}
	if speedup < flatRatio*1.2 {
		t.Errorf("jamming did not improve scaling: %.2f vs %.2f unjammed", speedup, flatRatio)
	}
}

func TestStripMinePreservesSemantics(t *testing.T) {
	for _, procs := range []int64{2, 3, 4, 8} {
		for _, blk := range []int64{1, 2, 4, 7, 14, 20} {
			const n = 16
			info := checked(t, procs, n)
			progs := compileCTR(t, info)
			apply(t, progs, vectorize)
			apply(t, progs, jam)
			if changed := apply(t, progs, stripMine(blk)); changed == 0 {
				t.Fatalf("S=%d blk=%d: strip mine transformed nothing", procs, blk)
			}
			res := run(t, info, progs)
			if res.Stats.Messages != optIIIMsgs(n, blk) {
				t.Errorf("S=%d blk=%d: messages = %d, want %d",
					procs, blk, res.Stats.Messages, optIIIMsgs(n, blk))
			}
		}
	}
}

func TestStripMineReducesMessagesAndBeatsJamAtScale(t *testing.T) {
	const n = 32
	const procs = 8
	info := checked(t, procs, n)
	base := compileCTR(t, info)
	apply(t, base, vectorize)
	apply(t, base, jam)
	jammed := run(t, info, base)

	info2 := checked(t, procs, n)
	mined := compileCTR(t, info2)
	apply(t, mined, vectorize)
	apply(t, mined, jam)
	apply(t, mined, stripMine(5))
	blocked := run(t, info2, mined)

	if blocked.Stats.Messages >= jammed.Stats.Messages {
		t.Errorf("blocking did not reduce messages: %d vs %d",
			blocked.Stats.Messages, jammed.Stats.Messages)
	}
	if blocked.Stats.Makespan >= jammed.Stats.Makespan {
		t.Errorf("blocking did not improve makespan: %d vs %d",
			blocked.Stats.Makespan, jammed.Stats.Makespan)
	}
}

func TestFullPipelineOrdering(t *testing.T) {
	// Fig. 6/7 ordering at one configuration: RTR > CTR > OptI > OptII > OptIII.
	const n = 32
	const procs = 8
	info := checked(t, procs, n)
	comp := core.New(info)

	rtr, err := comp.CompileRTR("gs_iteration")
	if err != nil {
		t.Fatal(err)
	}
	mkRTR := run(t, info, []*spmd.Program{rtr}).Stats.Makespan

	ctr := compileCTR(t, info)
	mkCTR := run(t, info, ctr).Stats.Makespan

	v := compileCTR(t, info)
	apply(t, v, vectorize)
	mkI := run(t, info, v).Stats.Makespan

	j := compileCTR(t, info)
	apply(t, j, vectorize)
	apply(t, j, jam)
	mkII := run(t, info, j).Stats.Makespan

	sm := compileCTR(t, info)
	apply(t, sm, vectorize)
	apply(t, sm, jam)
	apply(t, sm, stripMine(5))
	mkIII := run(t, info, sm).Stats.Makespan

	if !(mkRTR > mkCTR && mkCTR > mkI && mkI > mkII && mkII > mkIII) {
		t.Errorf("expected RTR > CTR > OptI > OptII > OptIII, got %d > %d > %d > %d > %d",
			mkRTR, mkCTR, mkI, mkII, mkIII)
	}
}

func TestInterchange(t *testing.T) {
	// Reversed-loop Gauss-Seidel: i outer, j inner.
	src := `
const N = 12;
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
proc gs_rev(Old: matrix[N, N] on Column): matrix[N, N] on Column {
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
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: 4})
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	generic, err := core.New(info).CompileRTR("gs_rev")
	if err != nil {
		t.Fatal(err)
	}
	if !Interchange(generic, "i") {
		t.Fatal("interchange did not fire")
	}
	run(t, info, core.SpecializeAll(generic, 4, true))
}

func TestInterchangeRefusesDependentBounds(t *testing.T) {
	// A triangular nest must not be swapped.
	prog := &spmd.Program{Body: []spmd.Stmt{
		&spmd.For{Var: "a", Lo: c0(), Hi: c0(), Step: c1(), Body: []spmd.Stmt{
			&spmd.For{Var: "b", Lo: c0(), Hi: vOf("a"), Step: c1()},
		}},
	}}
	if Interchange(prog, "a") {
		t.Error("interchange fired on a triangular nest")
	}
}

func c0() expr.Expr          { return expr.C(0) }
func c1() expr.Expr          { return expr.C(1) }
func vOf(n string) expr.Expr { return expr.V(n) }

// Running each pass a second time must be a no-op: transformed channels are
// no longer in the matchable fragment.
func TestPassesIdempotent(t *testing.T) {
	info := checked(t, 4, 16)
	progs := compileCTR(t, info)
	if apply(t, progs, vectorize) == 0 {
		t.Fatal("first vectorize did nothing")
	}
	if n := apply(t, progs, vectorize); n != 0 {
		t.Errorf("second vectorize transformed %d channels", n)
	}
	if apply(t, progs, jam) == 0 {
		t.Fatal("first jam did nothing")
	}
	if n := apply(t, progs, jam); n != 0 {
		t.Errorf("second jam transformed %d channels", n)
	}
	if apply(t, progs, stripMine(4)) == 0 {
		t.Fatal("first strip mine did nothing")
	}
	if n := apply(t, progs, stripMine(4)); n != 0 {
		t.Errorf("second strip mine transformed %d channels", n)
	}
	// The result must still be correct.
	run(t, info, progs)
}

// Strip mining with a nonsensical block size must refuse rather than
// corrupt: the pass is rejected and the programs are left as they were.
func TestStripMineRejectsBadBlock(t *testing.T) {
	info := checked(t, 4, 16)
	progs := compileCTR(t, info)
	apply(t, progs, vectorize)
	apply(t, progs, jam)
	before := formatAll(progs)
	for _, blk := range []int64{0, -3} {
		if n, err := stripMine(blk).Apply(progs); err == nil {
			t.Errorf("blk=%d accepted, transformed %d channels", blk, n)
		}
		if formatAll(progs) != before {
			t.Errorf("blk=%d rewrote the programs", blk)
		}
	}
}

// The passes must leave a no-communication (single-processor) program alone.
func TestPassesOnSingleProcessor(t *testing.T) {
	info := checked(t, 1, 16)
	progs := compileCTR(t, info)
	if n := apply(t, progs, vectorize); n != 0 {
		t.Errorf("vectorize on S=1 transformed %d channels", n)
	}
	if n := apply(t, progs, jam); n != 0 {
		t.Errorf("jam on S=1 transformed %d channels", n)
	}
	if n := apply(t, progs, stripMine(4)); n != 0 {
		t.Errorf("strip mine on S=1 transformed %d channels", n)
	}
}

// Appendix A staircase shapes, pinned structurally: each optimization level
// introduces exactly the constructs the paper's corresponding listing shows.
func TestAppendixAShapes(t *testing.T) {
	info := checked(t, 4, 8)

	// A.2 (vectorized): the old column leaves as one buffered message.
	v := compileCTR(t, info)
	apply(t, v, vectorize)
	p1 := spmd.Format(v[1])
	for _, want := range []string{
		"oldvalues4 := vector[6]",        // calloc'd oldvalues vector
		"send(oldvalues4[1..6], to 0)",   // single column message left
		"rvalues4[1..6] := receive(from", // single column receive
	} {
		if !strings.Contains(p1, want) {
			t.Errorf("A.2 shape missing %q:\n%s", want, p1)
		}
	}
	// New values still go one at a time after the compute loop.
	if !strings.Contains(p1, "send(ct1, to 2)") {
		t.Errorf("A.2 should keep element sends of new values:\n%s", p1)
	}

	// A.3 (jammed): the new value is sent as soon as it is written.
	j := compileCTR(t, info)
	apply(t, j, vectorize)
	apply(t, j, jam)
	p1 = spmd.Format(j[1])
	iw := strings.Index(p1, "is_write(New[i#2,")
	snd := strings.Index(p1[iw:], "send(jam2, to 2)")
	if iw < 0 || snd < 0 || snd > 300 {
		t.Errorf("A.3 fused send not adjacent to the write (offset %d):\n%s", snd, p1)
	}

	// A.4 (strip-mined): snewvalues/rnewvalues blocks around the inner loop.
	sm := compileCTR(t, info)
	apply(t, sm, vectorize)
	apply(t, sm, jam)
	apply(t, sm, stripMine(2))
	p1 = spmd.Format(sm[1])
	for _, want := range []string{
		"rnewvalues2 := vector[2]",
		"snewvalues2 := vector[2]",
		".blk = 0 to 2",                     // the block loop
		"rnewvalues2[1..", "snewvalues2[1.", // block receives and sends
	} {
		if !strings.Contains(p1, want) {
			t.Errorf("A.4 shape missing %q:\n%s", want, p1)
		}
	}
}
