package autotune

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

// smallSpace keeps the robustness tests fast: one family, four pipelines.
func smallSpace() Space {
	return Space{
		Kinds: []dist.Kind{dist.KindCyclicCols},
		Spans: []int64{4},
		Modes: []string{"ctr", "opt1", "opt2", "opt3"},
		Blks:  []int64{4, 8},
	}
}

// twinSpace holds a replicated mapping, where vectorize applies nowhere: its
// opt1 candidate's stage is its ctr candidate's, so the two are twins that
// share one walk, one replay and one run.
func twinSpace() Space {
	return Space{Kinds: []dist.Kind{dist.KindReplicated}, Modes: []string{"ctr", "opt1"}}
}

func replicated(mode string) func(Candidate) bool {
	return func(c Candidate) bool { return c.Mapping.Kind == dist.KindReplicated && c.Mode == mode }
}

// TestSearchSurvivesPanickingCandidate: a candidate whose evaluation panics —
// in the tier-1 lowering and walk or in the tier-3 measurement pool — must be
// recorded as infeasible with the panic message, not crash the search or
// poison the report, and must take no other candidate with it, not even one
// of its own mapping, nor its twin, whichever of the two comes first. A panic
// in the front half a mapping's candidates share marks each of them, under
// its own key, and no other mapping's. The winner still emerges from the
// surviving candidates.
func TestSearchSurvivesPanickingCandidate(t *testing.T) {
	twoSpans := smallSpace()
	twoSpans.Spans = []int64{2, 4}
	for _, tc := range []struct {
		name, stage string
		space       Space
		hit         func(Candidate) bool
	}{
		{"static", "static", smallSpace(), func(c Candidate) bool { return c.Mode == "opt1" }},
		{"measure", "measure", smallSpace(), func(c Candidate) bool { return c.Mode == "opt1" }},
		{"compile", "compile", twoSpans, func(c Candidate) bool { return c.Mapping.Span == 2 }},
		{"static-twin", "static", twinSpace(), replicated("opt1")},
		{"measure-twin", "measure", twinSpace(), replicated("opt1")},
		{"static-first-twin", "static", twinSpace(), replicated("ctr")},
		{"measure-first-twin", "measure", twinSpace(), replicated("ctr")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Space: tc.space}
			opts.evalHook = func(s string, c Candidate) {
				if s == tc.stage && tc.hit(c) {
					panic("injected evaluation fault")
				}
			}
			rep, err := SearchCtx(context.Background(), gsWorkload(16), machine.DefaultConfig(4), opts)
			if err != nil {
				t.Fatalf("search did not survive the panicking candidate: %v", err)
			}
			if rep.Winner == "" {
				t.Fatal("search survived but crowned no winner")
			}
			var panicked int
			for _, r := range rep.Results {
				if !tc.hit(r.Candidate) {
					if r.Status == StatusInfeasible {
						t.Errorf("%s: infeasible (%s) though nothing of its own panicked", r.Candidate.Key(), r.Note)
					}
					if tc.stage == "measure" && r.Candidate.Mapping.Kind == dist.KindReplicated && r.Status != StatusMeasured {
						t.Errorf("%s: status %s, want its twin's panic to leave it %s", r.Candidate.Key(), r.Status, StatusMeasured)
					}
					continue
				}
				if r.Candidate.Key() == rep.Winner {
					t.Errorf("the panicking candidate %s won", rep.Winner)
				}
				if r.Status != StatusInfeasible {
					t.Errorf("%s: status %s, want %s", r.Candidate.Key(), r.Status, StatusInfeasible)
				}
				if !strings.Contains(r.Note, r.Candidate.Key()+": panic: injected evaluation fault") {
					t.Errorf("%s: note %q does not carry its key and the panic message", r.Candidate.Key(), r.Note)
				}
				panicked++
			}
			if panicked == 0 {
				t.Fatalf("no candidate reached the panicking stage %s", tc.stage)
			}
		})
	}
}

// TestSearchCtxCanceledBeforeStart: a context canceled before the search
// begins yields an error wrapping context.Canceled, never a crowned report.
func TestSearchCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := SearchCtx(ctx, gsWorkload(16), machine.DefaultConfig(4), Options{Space: smallSpace()})
	if err == nil {
		t.Fatal("canceled search succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if rep == nil {
		t.Fatal("canceled search returned no partial report")
	}
	if rep.Winner != "" {
		t.Fatalf("canceled search crowned %s", rep.Winner)
	}
}

// TestSearchCtxCanceledInTier1: tier 1 hands out no mapping after the
// context is done. With one worker, a cancel from the first mapping's compile
// lets that mapping finish and compiles no other; the search reports it
// interrupted instead of compiling and walking the whole space first.
func TestSearchCtxCanceledInTier1(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	compiles := 0
	opts := Options{Workers: 1}
	opts.evalHook = func(s string, c Candidate) {
		if s == "compile" {
			compiles++
			cancel()
		}
	}
	rep, err := SearchCtx(ctx, gsWorkload(16), machine.DefaultConfig(4), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want one wrapping context.Canceled", err)
	}
	if compiles != 1 {
		t.Errorf("%d mappings compiled, want 1", compiles)
	}
	if rep == nil || len(rep.Results) == 0 {
		t.Fatal("no partial report of the mapping that ran")
	}
	for _, r := range rep.Results {
		if r.Candidate.Mapping != rep.Results[0].Candidate.Mapping {
			t.Errorf("partial report holds %s, which was never compiled", r.Candidate.Key())
		}
	}
}

// TestSearchCtxCanceledMidSearch: cancellation after the anchor (triggered
// from inside the tier-1 pool) ends the search promptly with the partial
// results accumulated so far.
func TestSearchCtxCanceledMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Space: smallSpace()}
	opts.evalHook = func(s string, c Candidate) {
		if s == "static" {
			cancel()
		}
	}
	rep, err := SearchCtx(ctx, gsWorkload(16), machine.DefaultConfig(4), opts)
	if err == nil {
		t.Fatal("canceled search succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if rep == nil {
		t.Fatal("canceled search returned no partial report")
	}
	if len(rep.Results) == 0 {
		t.Fatal("mid-search cancellation dropped the partial results")
	}
}

// TestSearchAnchorPanicReachesCaller: the anchor runs in tier 1's pool, yet a
// panic in it reaches SearchCtx's caller as a panic — the one serve's attempt
// and adapt's runTrigger recover — and only once every mapping has been
// handed out and the pool has drained.
func TestSearchAnchorPanicReachesCaller(t *testing.T) {
	cands, _ := Space{}.enumerate(4)
	mappings := len(groupBy(len(cands), func(i int) Mapping { return cands[i].Mapping }))
	for _, workers := range []int{1, 4} {
		var compiles atomic.Int64
		opts := Options{Workers: workers}
		opts.evalHook = func(s string, c Candidate) {
			switch s {
			case "anchor":
				panic("injected anchor fault")
			case "compile":
				compiles.Add(1)
			}
		}
		got := func() (p any) {
			defer func() { p = recover() }()
			_, _ = SearchCtx(context.Background(), gsWorkload(16), machine.DefaultConfig(4), opts)
			return nil
		}()
		if got != "injected anchor fault" {
			t.Errorf("workers=%d: the caller recovered %v, want the anchor's panic", workers, got)
		}
		if n, want := compiles.Load(), int64(mappings); n != want {
			t.Errorf("workers=%d: %d of %d mappings compiled before the panic reached the caller", workers, n, want)
		}
	}
}

// TestSearchAnchorFailureDiscardsTier1: a baseline that does not compile fails
// the search with the error it always did and no report, although tier 1 ran
// beside it.
func TestSearchAnchorFailureDiscardsTier1(t *testing.T) {
	var compiles atomic.Int64
	opts := Options{BaselineMode: "bogus"}
	opts.evalHook = func(s string, c Candidate) {
		if s == "compile" {
			compiles.Add(1)
		}
	}
	rep, err := SearchCtx(context.Background(), gsWorkload(16), machine.DefaultConfig(4), opts)
	const want = `autotune: baseline does not compile: autotune: unknown mode "bogus"`
	if err == nil || err.Error() != want || !errors.Is(err, xform.ErrUnknownMode) {
		t.Errorf("error %v, want %s", err, want)
	}
	if rep != nil {
		t.Errorf("a failed anchor returned a report with %d results", len(rep.Results))
	}
	if compiles.Load() == 0 {
		t.Error("no mapping compiled beside the anchor: the case proves nothing")
	}
}

// TestSearchCtxCanceledInAnchor: a cancel from inside the anchor returns an
// error wrapping context.Canceled and a partial report with no winner. With
// one worker the anchor is the first task, so no mapping is compiled after it.
func TestSearchCtxCanceledInAnchor(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var compiles atomic.Int64
		opts := Options{Workers: workers}
		opts.evalHook = func(s string, c Candidate) {
			switch s {
			case "anchor":
				cancel()
			case "compile":
				compiles.Add(1)
			}
		}
		rep, err := SearchCtx(ctx, gsWorkload(16), machine.DefaultConfig(4), opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v, want one wrapping context.Canceled", workers, err)
		}
		if rep == nil {
			t.Fatalf("workers=%d: no partial report", workers)
		}
		if rep.Winner != "" {
			t.Errorf("workers=%d: a search canceled in its anchor crowned %s", workers, rep.Winner)
		}
		if workers == 1 && (compiles.Load() != 0 || len(rep.Results) != 0) {
			t.Errorf("workers=1: %d mappings compiled and %d results after the anchor canceled", compiles.Load(), len(rep.Results))
		}
	}
}

// TestSearchSurvivesPanickingWinner: when the best-predicted candidate (and
// every twin of its makespan) panics in its measurement, the search crowns
// the next measured candidate instead, and attributes that one — not the
// best prediction — exactly as a direct traced measure and CriticalPath of
// its own image do.
func TestSearchSurvivesPanickingWinner(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	base, err := Search(gsWorkload(16), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var best uint64
	var next *Result
	for i, r := range base.Results {
		if r.Unmodeled {
			t.Fatalf("%s is unmodeled: the winner is not known before tier 3", r.Candidate.Key())
		}
		switch {
		case r.Candidate.Key() == base.Winner:
			best = r.Measured
		case next == nil && r.Status == StatusMeasured && best != 0 && r.Measured > best:
			next = &base.Results[i]
		}
	}
	if next == nil {
		t.Fatal("no measured candidate is slower than the winner")
	}
	opts := Options{}
	opts.evalHook = func(s string, c Candidate) {
		if s == "measure" && base.measuredOf(c.Key()) == best {
			panic("injected winner fault")
		}
	}
	rep, err := Search(gsWorkload(16), cfg, opts)
	if err != nil {
		t.Fatalf("search did not survive its predicted winner panicking: %v", err)
	}
	if rep.Winner != next.Candidate.Key() {
		t.Fatalf("winner %s, want the next candidate %s", rep.Winner, next.Candidate.Key())
	}
	for _, r := range rep.Results {
		if r.Candidate.Key() == base.Winner && r.Status != StatusInfeasible {
			t.Errorf("the panicking winner %s: status %s, want %s", base.Winner, r.Status, StatusInfeasible)
		}
	}
	w, c := gsWorkload(16), next.Candidate
	b, err := w.build(&c.Mapping, c.Mode, c.Blk, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := exec.PatternInputs(b.info, w.Entry)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := measure(context.Background(), w, c, b, ins, cfg, trace.New())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := d.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attr != cp.Attr || rep.Attr.Total() != next.Measured {
		t.Errorf("winner attribution %+v (total %d), a direct traced run of %s gives %+v (makespan %d)",
			rep.Attr, rep.Attr.Total(), c.Key(), cp.Attr, next.Measured)
	}
}

// TestSearchProgressOrder: whatever runs beside what, Progress delivers
// baseline, enumerated, static and predicted once each and in that order,
// then one measured per measured candidate, then the winner.
func TestSearchProgressOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var (
			mu     sync.Mutex
			stages []string
		)
		opts := Options{Workers: workers, Progress: func(p Progress) {
			mu.Lock()
			stages = append(stages, p.Stage)
			mu.Unlock()
		}}
		rep, err := Search(gsWorkload(16), machine.DefaultConfig(4), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"baseline", "enumerated", "static", "predicted"}
		for _, r := range rep.Results {
			if r.Status == StatusMeasured {
				want = append(want, "measured")
			}
		}
		want = append(want, "winner")
		if !slices.Equal(stages, want) {
			t.Errorf("workers=%d: stages %v, want %v", workers, stages, want)
		}
	}
}

// TestReplicatedOpt1IsCtrsTwin pins the premise of the twin cases: on Gauss-Seidel at
// S=4, the replicated mapping's opt1 stage is its ctr stage.
func TestReplicatedOpt1IsCtrsTwin(t *testing.T) {
	m := Mapping{Kind: dist.KindReplicated}
	_, stages, err := gsWorkload(16).compileAll(&m, []xform.Point{{Mode: "ctr"}, {Mode: "opt1"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &stages[0].Progs[0] != &stages[1].Progs[0] {
		t.Fatal("the replicated mapping's opt1 stage is a copy of its ctr stage, not the stage itself")
	}
}

// TestMeasuredProgressNamesEachCandidateOnce: twins run one image, yet each
// gets its own "measured" event. The events name every measured candidate
// exactly once, and their Done counts run 1..Total, so Done reaches Total;
// with one worker the last event is the one that does.
func TestMeasuredProgressNamesEachCandidateOnce(t *testing.T) {
	space := smallSpace()
	space.Kinds = append(space.Kinds, dist.KindReplicated)
	for _, workers := range []int{1, 4} {
		var (
			mu     sync.Mutex
			events []Progress
		)
		opts := Options{Space: space, Workers: workers, TopK: 20, Progress: func(p Progress) {
			if p.Stage == "measured" {
				mu.Lock()
				events = append(events, p)
				mu.Unlock()
			}
		}}
		rep, err := Search(gsWorkload(16), machine.DefaultConfig(4), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, r := range rep.Results {
			if r.Status == StatusMeasured {
				want[r.Candidate.Key()] = true
			}
		}
		seen := map[string]bool{}
		done := make([]bool, len(events)+1)
		for _, p := range events {
			if seen[p.Candidate] || !want[p.Candidate] {
				t.Errorf("workers=%d: a measured event for %s, which is a repeat or was not measured", workers, p.Candidate)
			}
			seen[p.Candidate] = true
			if p.Total != len(want) || p.Done < 1 || p.Done > p.Total || done[p.Done] {
				t.Errorf("workers=%d: event Done=%d Total=%d, want each of 1..%d once", workers, p.Done, p.Total, len(want))
				continue
			}
			done[p.Done] = true
		}
		if len(seen) != len(want) {
			t.Errorf("workers=%d: %d measured candidates, %d named by an event", workers, len(want), len(seen))
		}
		if workers == 1 && len(events) > 0 && events[len(events)-1].Done != len(want) {
			t.Errorf("workers=1: the last event has Done=%d, want %d", events[len(events)-1].Done, len(want))
		}
		twins := 0
		for _, r := range rep.Results {
			if r.Candidate.Mapping.Kind == dist.KindReplicated && r.Candidate.Mode == "opt1" && r.Status == StatusMeasured {
				twins++
			}
		}
		if twins == 0 {
			t.Errorf("workers=%d: the replicated opt1 twin was not measured", workers)
		}
	}
}
