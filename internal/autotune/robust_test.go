package autotune

import (
	"context"
	"errors"
	"strings"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/machine"
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

// TestSearchSurvivesPanickingCandidate: a candidate whose evaluation panics —
// in the tier-1 lowering and walk or in the tier-3 measurement pool — must be
// recorded as infeasible with the panic message, not crash the search or
// poison the report, and must take no other candidate with it, not even one
// of its own mapping. A panic in the front half a mapping's candidates share
// marks each of them, under its own key, and no other mapping's. The winner
// still emerges from the surviving candidates.
func TestSearchSurvivesPanickingCandidate(t *testing.T) {
	twoSpans := smallSpace()
	twoSpans.Spans = []int64{2, 4}
	for _, tc := range []struct {
		stage string
		space Space
		hit   func(Candidate) bool
	}{
		{"static", smallSpace(), func(c Candidate) bool { return c.Mode == "opt1" }},
		{"measure", smallSpace(), func(c Candidate) bool { return c.Mode == "opt1" }},
		{"compile", twoSpans, func(c Candidate) bool { return c.Mapping.Span == 2 }},
	} {
		t.Run(tc.stage, func(t *testing.T) {
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
