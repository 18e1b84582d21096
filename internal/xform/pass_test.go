package xform

import (
	"errors"
	"strings"
	"testing"

	"procdecomp/internal/core"
	"procdecomp/internal/spmd"
)

// Every malformed pass must be rejected with an error, never a panic or a
// silent no-op: bad strip sizes, misplaced parameters, missing interchange
// variables, unknown kinds, and empty program lists.
func TestPassValidateRejections(t *testing.T) {
	cases := []struct {
		pass Pass
		want string // substring of the error
	}{
		{Pass{Kind: PassStripMine, Blk: 0}, "block size must be >= 1"},
		{Pass{Kind: PassStripMine, Blk: -4}, "block size must be >= 1"},
		{Pass{Kind: PassStripMine, Blk: 2, Var: "i"}, "no loop variable"},
		{Pass{Kind: PassInterchange}, "needs the outer loop variable"},
		{Pass{Kind: PassInterchange, Var: "i", Blk: 3}, "no block size"},
		{Pass{Kind: PassVectorize, Blk: 8}, "takes no parameters"},
		{Pass{Kind: PassJam, Var: "j"}, "takes no parameters"},
		{Pass{Kind: PassKind(99)}, "unknown pass kind"},
	}
	for _, c := range cases {
		err := c.pass.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted, want error containing %q", c.pass, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %q, want substring %q", c.pass, err, c.want)
		}
		// Apply must refuse the same inputs without touching the programs.
		if _, err := c.pass.Apply([]*spmd.Program{{Name: "p"}}); err == nil {
			t.Errorf("Apply(%+v) accepted invalid pass", c.pass)
		}
	}
	if _, err := (Pass{Kind: PassVectorize}).Apply(nil); err == nil {
		t.Error("Apply on an empty program list accepted")
	}
}

// An interchange whose outer variable matches no perfect loop nest is an
// applicability error, not a silent no-op. Interchange runs on the generic
// program before specialization (the CTR-specialized bodies are no longer
// perfect nests), so that is what the pass is validated against.
func TestInterchangeApplicability(t *testing.T) {
	generic, err := core.New(checked(t, 4, 16)).CompileRTR("gs_iteration")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*spmd.Program{generic}
	if _, err := (Pass{Kind: PassInterchange, Var: "nosuchvar"}).Apply(progs); err == nil {
		t.Fatal("interchange on a missing loop variable accepted")
	}
	// The GS nest is j-outer; interchanging on j must swap it to i-outer.
	n, err := (Pass{Kind: PassInterchange, Var: "j"}).Apply(progs)
	if err != nil {
		t.Fatalf("interchange(j): %v", err)
	}
	if n != 1 {
		t.Fatalf("interchange(j) swapped %d programs, want 1", n)
	}
	// The nest is now i-outer: a second interchange on j has nothing to swap.
	if _, err := (Pass{Kind: PassInterchange, Var: "j"}).Apply(progs); err == nil {
		t.Fatal("interchange applied twice on the same outer variable")
	}
}

// The validated passes must produce exactly the same code as the bare
// functions they wrap — Pass is a contract change, not a behavior change.
func TestPassesMatchBareFunctions(t *testing.T) {
	compile := func() []*spmd.Program { return compileCTR(t, checked(t, 4, 16)) }
	bare := compile()
	Vectorize(bare)
	Jam(bare)
	StripMine(bare, 4)

	viaPasses := compile()
	passes, ok := StandardPipeline("opt3", 4)
	if !ok {
		t.Fatal("opt3 is not a standard mode")
	}
	counts, err := Apply(viaPasses, passes)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("pass %v transformed nothing on the GS program", passes[i])
		}
	}
	if formatAll(bare) != formatAll(viaPasses) {
		t.Fatal("pass pipeline and bare functions produced different code")
	}
}

func TestStandardPipelineModes(t *testing.T) {
	want := map[string][]string{
		"rtr":  nil,
		"ctr":  nil,
		"opt1": {"vectorize"},
		"opt2": {"vectorize", "jam"},
		"opt3": {"vectorize", "jam", "stripmine(8)"},
	}
	for _, mode := range StandardModes() {
		passes, ok := StandardPipeline(mode, 8)
		if !ok {
			t.Fatalf("StandardPipeline rejects its own mode %q", mode)
		}
		var names []string
		for _, p := range passes {
			names = append(names, p.String())
			if err := p.Validate(); err != nil {
				t.Errorf("mode %s yields invalid pass %v: %v", mode, p, err)
			}
		}
		if len(names) != len(want[mode]) {
			t.Fatalf("mode %s: passes %v, want %v", mode, names, want[mode])
		}
		for i := range names {
			if names[i] != want[mode][i] {
				t.Fatalf("mode %s: passes %v, want %v", mode, names, want[mode])
			}
		}
	}
	if _, ok := StandardPipeline("warp", 8); ok {
		t.Error("unknown mode accepted")
	}
	// A strip size of 0 in opt3 yields an invalid pass that Apply rejects —
	// the silent StripMine(progs, 0) no-op is no longer reachable through the
	// validated path.
	passes, _ := StandardPipeline("opt3", 0)
	if _, err := Apply(compileCTR(t, checked(t, 4, 16)), passes); err == nil {
		t.Error("opt3 with block size 0 accepted")
	}
}

func formatAll(progs []*spmd.Program) string {
	var b strings.Builder
	for _, p := range progs {
		b.WriteString(spmd.Format(p))
	}
	return b.String()
}

// CompileAll's shared stages must not alias: every point of a multi-point
// compile formats exactly as a one-point Compile of its own does, the early
// stages are unchanged by deriving opt3/blk4 and opt3/blk8 from them, points
// with different pipelines share no program, and the order the points are
// asked in changes nothing.
func TestCompileAllStagesDoNotAlias(t *testing.T) {
	early := []Point{{Mode: "rtr"}, {Mode: "ctr"}, {Mode: "opt1"}, {Mode: "opt2"}}
	all := append(append([]Point(nil), early...), Point{Mode: "opt3", Blk: 4}, Point{Mode: "opt3", Blk: 8})
	reversed := make([]Point, len(all))
	for i, pt := range all {
		reversed[len(all)-1-i] = pt
	}

	before := CompileAll(checked(t, 4, 16), "gs_iteration", early)
	stages := CompileAll(checked(t, 4, 16), "gs_iteration", all)
	back := CompileAll(checked(t, 4, 16), "gs_iteration", reversed)
	owner := map[*spmd.Program]int{}
	for i, pt := range all {
		if stages[i].Err != nil {
			t.Fatalf("%v: %v", pt, stages[i].Err)
		}
		want, err := Compile(checked(t, 4, 16), "gs_iteration", pt.Mode, pt.Blk)
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		got := formatAll(stages[i].Progs)
		if got != formatAll(want) {
			t.Errorf("%v: the multi-point compile differs from a one-point compile", pt)
		}
		if i < len(early) && got != formatAll(before[i].Progs) {
			t.Errorf("%v: deriving the opt3 points changed an earlier stage", pt)
		}
		if got != formatAll(back[len(all)-1-i].Progs) {
			t.Errorf("%v: the order of the points changed the result", pt)
		}
		for _, p := range stages[i].Progs {
			if j, dup := owner[p]; dup {
				t.Errorf("%v and %v share a program", all[j], pt)
			}
			owner[p] = i
		}
	}
}

// A point fails alone, with exactly what Compile says of it (a failing pass
// names its index in the point's full pipeline), and the points beside it
// still compile; a failure to resolve the entry is every point's.
func TestCompileAllPerPointErrors(t *testing.T) {
	points := []Point{{Mode: "opt3", Blk: 0}, {Mode: "warp"}, {Mode: "opt2"}, {Mode: "opt3", Blk: 4}, {Mode: "rtr"}}
	for _, entry := range []string{"gs_iteration", "no_such_proc"} {
		stages := CompileAll(checked(t, 4, 16), entry, points)
		for i, pt := range points {
			want, wantErr := Compile(checked(t, 4, 16), entry, pt.Mode, pt.Blk)
			if (wantErr == nil) != (stages[i].Err == nil) || (wantErr != nil && wantErr.Error() != stages[i].Err.Error()) {
				t.Errorf("%s %v: error %v, Compile says %v", entry, pt, stages[i].Err, wantErr)
			}
			if formatAll(stages[i].Progs) != formatAll(want) {
				t.Errorf("%s %v: programs differ from Compile's", entry, pt)
			}
		}
		if !errors.Is(stages[1].Err, ErrUnknownMode) {
			t.Errorf("%s: unknown mode reported as %v", entry, stages[1].Err)
		}
	}
	if err := CompileAll(checked(t, 4, 16), "gs_iteration", points)[0].Err; err == nil ||
		!strings.HasPrefix(err.Error(), "pass 2 (stripmine(0)): ") {
		t.Errorf("opt3 with block size 0: error %v, want the failing pass named by its pipeline index", err)
	}
}

// Compile is CompileAll of one point, which must copy nothing: it allocates
// what resolving the entry and applying the pipeline by hand allocate, give or
// take a few of bookkeeping (the result slice and the point's pass list for
// Apply's counts; the race detector's runtime adds noise of its own) — nowhere
// near the cost of copying a stage.
func TestCompileOnePointClonesNothing(t *testing.T) {
	info := checked(t, 4, 16)
	ctr := compileCTR(t, info)
	clone := testing.AllocsPerRun(20, func() {
		for _, p := range ctr {
			p.CloneProgram()
		}
	})
	for _, mode := range []string{"ctr", "opt1", "opt3"} {
		byHand := testing.AllocsPerRun(20, func() {
			progs, err := core.New(info).CompileCTR("gs_iteration", true)
			if err != nil {
				t.Fatal(err)
			}
			passes, _ := StandardPipeline(mode, 4)
			if _, err := Apply(progs, passes); err != nil {
				t.Fatal(err)
			}
		})
		compile := testing.AllocsPerRun(20, func() {
			if _, err := Compile(info, "gs_iteration", mode, 4); err != nil {
				t.Fatal(err)
			}
		})
		if compile-byHand > clone/10 {
			t.Errorf("%s: Compile allocates %.0f times, the pipeline by hand %.0f; copying the ctr stage costs %.0f",
				mode, compile, byHand, clone)
		}
	}
}
