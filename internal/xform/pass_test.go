package xform

import (
	"errors"
	"strings"
	"testing"

	"procdecomp/internal/core"
	"procdecomp/internal/spmd"
)

// Every malformed pass must be rejected with an error, never a panic or a
// silent no-op: bad strip sizes, misplaced parameters, unknown kinds, and
// empty program lists.
func TestPassValidateRejections(t *testing.T) {
	cases := []struct {
		pass Pass
		want string // substring of the error
	}{
		{Pass{Kind: PassStripMine, Blk: 0}, "block size must be >= 1"},
		{Pass{Kind: PassStripMine, Blk: -4}, "block size must be >= 1"},
		{Pass{Kind: PassVectorize, Blk: 8}, "takes no parameters"},
		{Pass{Kind: PassJam, Blk: 1}, "takes no parameters"},
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

// An interchange whose outer variable matches no perfect loop nest applies
// nowhere. Interchange runs on the generic program before specialization (the
// CTR-specialized bodies are no longer perfect nests), so that is what it is
// checked against.
func TestInterchangeApplicability(t *testing.T) {
	generic, err := core.New(checked(t, 4, 16)).CompileRTR("gs_iteration")
	if err != nil {
		t.Fatal(err)
	}
	before := spmd.Format(generic)
	if Interchange(generic, "nosuchvar") {
		t.Fatal("interchange on a missing loop variable applied")
	}
	if spmd.Format(generic) != before {
		t.Fatal("an interchange that applied nowhere rewrote the program")
	}
	// The GS nest is j-outer; interchanging on j must swap it to i-outer.
	if !Interchange(generic, "j") {
		t.Fatal("interchange(j) did not apply")
	}
	// The nest is now i-outer: a second interchange on j has nothing to swap,
	// and one on i swaps it back.
	if Interchange(generic, "j") {
		t.Fatal("interchange applied twice on the same outer variable")
	}
	if !Interchange(generic, "i") || spmd.Format(generic) != before {
		t.Fatal("interchange(i) did not undo interchange(j)")
	}
}

// Every pass of the opt3 pipeline transforms something on Gauss-Seidel, and
// the passes applied one at a time through Pass.Apply give exactly the
// programs Compile gives for the point.
func TestPassesMatchCompile(t *testing.T) {
	info := checked(t, 4, 16)
	byHand := compileCTR(t, info)
	passes, ok := StandardPipeline("opt3", 4)
	if !ok {
		t.Fatal("opt3 is not a standard mode")
	}
	for _, p := range passes {
		if apply(t, byHand, p) == 0 {
			t.Errorf("pass %v transformed nothing on the GS program", p)
		}
	}
	compiled, err := Compile(info, "gs_iteration", "opt3", 4)
	if err != nil {
		t.Fatal(err)
	}
	if formatAll(byHand) != formatAll(compiled) {
		t.Fatal("the passes applied one at a time and Compile produced different code")
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
	// A strip size of 0 in opt3 yields an invalid pass that Apply rejects,
	// not a silent no-op.
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

// A stage a pass left as its prefix's is never rewritten in place. No program
// of the repository has a vectorize that applies nowhere followed by a jam
// that applies, so the test makes one: Gauss-Seidel's CTR programs already
// vectorized, where a second vectorize finds nothing. For every set of the
// CTR-derived points, each point must format as its pipeline applied by hand
// to a copy of those programs, the input must come back untouched whenever a
// point holds it, and ctr and opt1 must hold the input itself.
func TestCompileAllNeverRewritesAnInheritedStage(t *testing.T) {
	points := []Point{{Mode: "ctr"}, {Mode: "opt1"}, {Mode: "opt2"}, {Mode: "opt3", Blk: 4}, {Mode: "opt3", Blk: 8}}
	vectorized := func() []*spmd.Program {
		progs := compileCTR(t, checked(t, 4, 16))
		if apply(t, progs, vectorize) == 0 {
			t.Fatal("vectorize found nothing to transform in Gauss-Seidel")
		}
		return progs
	}
	input := formatAll(vectorized())
	want := make([]string, len(points))
	for i, pt := range points {
		progs := vectorized()
		passes, _ := StandardPipeline(pt.Mode, pt.Blk)
		counts, err := Apply(progs, passes)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Mode == "opt2" && (counts[0] != 0 || counts[1] == 0) {
			t.Fatalf("opt2 applied %v, want a vectorize that finds nothing and a jam that applies", counts)
		}
		want[i] = formatAll(progs)
	}
	for set := 1; set < 1<<len(points); set++ {
		var asked []Point
		var idx []int
		for i, pt := range points {
			if set&(1<<i) != 0 {
				asked, idx = append(asked, pt), append(idx, i)
			}
		}
		progs := vectorized()
		out := make([]Stage, len(asked))
		for k, pt := range asked {
			out[k].passes, _ = StandardPipeline(pt.Mode, pt.Blk)
		}
		grow(out, progs, nil, false)
		for k, i := range idx {
			if got := formatAll(out[k].Progs); got != want[i] {
				t.Errorf("%v of %v: differs from its pipeline applied by hand", asked[k], asked)
			}
			if i < 2 {
				if &out[k].Progs[0] != &progs[0] {
					t.Errorf("%v of %v: a copy of the programs no pass changed", asked[k], asked)
				}
				if formatAll(progs) != input {
					t.Errorf("%v: a later pass rewrote the programs %v holds", asked, asked[k])
				}
			}
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
