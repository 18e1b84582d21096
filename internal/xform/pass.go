package xform

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"procdecomp/internal/core"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
)

// A PassKind names one of the Appendix-A message passes.
type PassKind int

// The message passes, in the order the paper's optimization levels stack
// them.
const (
	PassVectorize PassKind = iota // A.2: merge per-element sends into vectors
	PassJam                       // A.3: jam cross-iteration send/recv pairs
	PassStripMine                 // A.4: exchange blocks of the pipelined loop
)

func (k PassKind) String() string {
	switch k {
	case PassVectorize:
		return "vectorize"
	case PassJam:
		return "jam"
	case PassStripMine:
		return "stripmine"
	default:
		return fmt.Sprintf("PassKind(%d)", int(k))
	}
}

// A Pass is one validated, parameterized message pass, and Pass.Apply is the
// only way one runs: StandardPipeline lists the passes of each optimization
// level, and Apply and CompileAll run them. Bad parameters are an error, not
// a panic or a silent no-op.
type Pass struct {
	Kind PassKind
	Blk  int64 // strip-mine block size (PassStripMine only)
}

func (p Pass) String() string {
	if p.Kind == PassStripMine {
		return fmt.Sprintf("stripmine(%d)", p.Blk)
	}
	return p.Kind.String()
}

// Validate checks the pass parameters without touching any program: the
// strip-mine block size must be at least 1, and the other passes take none.
func (p Pass) Validate() error {
	switch p.Kind {
	case PassVectorize, PassJam:
		if p.Blk != 0 {
			return fmt.Errorf("xform: %s takes no parameters (Blk=%d)", p.Kind, p.Blk)
		}
	case PassStripMine:
		if p.Blk < 1 {
			return fmt.Errorf("xform: stripmine block size must be >= 1, got %d", p.Blk)
		}
	default:
		return fmt.Errorf("xform: unknown pass kind %v", p.Kind)
	}
	return nil
}

// Apply runs the pass over the compiled programs, returning how many
// channels it transformed. Invalid parameters are errors; a pass that finds
// nothing to transform returns 0 without error, because the passes are
// allowed to be no-ops on programs that have no matching communication
// pattern. It is the one driver of every message pass: take a census,
// rewrite the lowest-numbered channel the pass's plan accepts, and take a
// fresh census, until none qualifies.
func (p Pass) Apply(progs []*spmd.Program) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if len(progs) == 0 {
		return 0, fmt.Errorf("xform: %s applied to no programs", p)
	}
	s := censuses.Get().(*suite)
	defer censuses.Put(s)
	n := 0
	for p.rewrite(s.collect(progs)) {
		n++
	}
	return n, nil
}

// censuses recycles the census's storage: every pass of every compile takes
// at least one census, and one more per channel it rewrites.
var censuses = sync.Pool{New: func() any {
	return &suite{loops: map[*spmd.For]loopSite{}, blocked: map[spmd.Tag]bool{}, written: map[string]bool{}}
}}

// rewrite rewrites the lowest-numbered channel of the census whose plan
// holds for the pass, and reports whether there was one. The census is stale
// afterwards.
func (p Pass) rewrite(s *suite) bool {
	for _, tag := range s.tags {
		switch p.Kind {
		case PassVectorize:
			if s.vectorizable(tag) {
				s.vectorizeChannel(tag)
				return true
			}
		case PassJam:
			if steps, ok := s.jamPlan(tag); ok {
				jamChannel(tag, steps)
				return true
			}
		case PassStripMine:
			if loops, ok := s.stripPlan(tag); ok {
				stripMineChannel(tag, loops, p.Blk)
				return true
			}
		}
	}
	return false
}

// Apply runs a pipeline of passes in order, stopping at the first error.
// It returns the per-pass transformation counts.
func Apply(progs []*spmd.Program, passes []Pass) ([]int, error) {
	counts := make([]int, len(passes))
	for i, p := range passes {
		n, err := p.Apply(progs)
		if err != nil {
			return counts, passError(i, p, err)
		}
		counts[i] = n
	}
	return counts, nil
}

// passError names the failing pass by its index in the pipeline it is part of.
func passError(i int, p Pass, err error) error {
	return fmt.Errorf("pass %d (%s): %w", i, p, err)
}

// StandardPipeline maps an optimization-mode name to the pass pipeline the
// paper's variants use — the single definition behind Compile:
//
//	rtr, ctr  — no passes (rtr additionally selects run-time resolution)
//	opt1      — vectorize
//	opt2      — vectorize, jam
//	opt3      — vectorize, jam, stripmine(blk)
//
// The second result is false for an unknown mode.
func StandardPipeline(mode string, blk int64) ([]Pass, bool) {
	switch mode {
	case "rtr", "ctr":
		return nil, true
	case "opt1":
		return []Pass{{Kind: PassVectorize}}, true
	case "opt2":
		return []Pass{{Kind: PassVectorize}, {Kind: PassJam}}, true
	case "opt3":
		return []Pass{{Kind: PassVectorize}, {Kind: PassJam}, {Kind: PassStripMine, Blk: blk}}, true
	}
	return nil, false
}

// ErrUnknownMode is Compile's error for a mode StandardPipeline does not know.
var ErrUnknownMode = errors.New("unknown mode")

// Compile is the back half of the compile pipeline, shared by every driver
// (pdc, pdrun, pdserve, the bench registry and the auto-mapper): resolve
// entry of the checked program — run-time resolution for "rtr" (one generic
// program), compile-time resolution with loop restriction otherwise (one
// program per process) — and apply the mode's StandardPipeline. It is
// CompileAll of one point, which clones nothing.
func Compile(info *sem.Info, entry, mode string, blk int64) ([]*spmd.Program, error) {
	st := CompileAll(info, entry, []Point{{Mode: mode, Blk: blk}})[0]
	return st.Progs, st.Err
}

// A Point is one optimization level of the standard pipeline: a mode name and
// the strip-mine block size (which only opt3 reads).
type Point struct {
	Mode string
	Blk  int64
}

// A Stage is what one Point compiled to: its programs, or why there are none.
// Points whose pipelines differ only by passes that applied nowhere share one
// stage's programs (the same slice, so a caller can tell twins apart from
// distinct stages by identity), and every stage shares the generic program's
// declarations; treat them as read-only.
type Stage struct {
	Progs []*spmd.Program
	Err   error

	passes []Pass // the point's StandardPipeline
}

// CompileAll compiles entry at every requested point for the price of one
// front half: the entry is resolved once (the generic program is the "rtr"
// point) and specialized once (the "ctr" point), and each pass of the points'
// pipelines runs once, on the stage its prefix produced — the paper's
// optimization levels are suffixes of one pipeline over one CTR output. A
// stage is copied before a pass rewrites it only if it is still needed as
// itself: it is a requested point, or another requested point extends it by a
// different pass. Otherwise the pass runs in place, so compiling one point
// copies nothing. A pass that applies nowhere leaves its point with its
// prefix's stage, not a copy of it, and a stage inherited so is copied before
// any later pass runs: it is never rewritten in place. The result is indexed
// like points. A point fails alone with what Compile would say of it; points
// that extend a failed pass share its error.
func CompileAll(info *sem.Info, entry string, points []Point) []Stage {
	out := make([]Stage, len(points))
	resolve, specialize := false, false
	for i, pt := range points {
		passes, ok := StandardPipeline(pt.Mode, pt.Blk)
		if !ok {
			out[i].Err = fmt.Errorf("%w %q", ErrUnknownMode, pt.Mode)
			continue
		}
		out[i].passes = passes
		resolve = true
		specialize = specialize || pt.Mode != "rtr"
	}
	if !resolve {
		return out
	}
	generic, err := core.New(info).CompileRTR(entry)
	for i, pt := range points {
		switch {
		case out[i].Err != nil:
		case err != nil:
			out[i].Err = err
		case pt.Mode == "rtr":
			out[i].Progs = []*spmd.Program{generic}
		}
	}
	if err == nil && specialize {
		grow(out, core.SpecializeAll(generic, info.Cfg.Procs, true), nil, false)
	}
	return out
}

// pending reports whether the stage is still to be produced and its pipeline
// starts with prefix.
func (st *Stage) pending(prefix []Pass) bool {
	return st.Progs == nil && st.Err == nil && len(st.passes) >= len(prefix) &&
		slices.Equal(st.passes[:len(prefix)], prefix)
}

// grow settles every pending stage whose pipeline starts with prefix, given
// progs, the programs prefix produces; shared says an earlier point already
// holds progs. The stages that stop here take progs, and each distinct next
// pass runs once: on a copy if progs is held or another branch still needs
// it, in place otherwise. A pass that applies nowhere hands progs on as its
// stage and drops its copy; progs then stays shared with the earlier point,
// so every later pass copies it before rewriting anything.
func grow(out []Stage, progs []*spmd.Program, prefix []Pass, shared bool) {
	d := len(prefix)
	for i := range out {
		if out[i].pending(prefix) && len(out[i].passes) == d {
			out[i].Progs, shared = progs, true
		}
	}
	for i := range out {
		if !out[i].pending(prefix) {
			continue
		}
		next := out[i].passes[:d+1]
		stage, copied := progs, shared || otherBranch(out[i+1:], prefix, next[d])
		if copied {
			stage = make([]*spmd.Program, len(progs))
			for p, prog := range progs {
				stage[p] = prog.CloneProgram()
			}
		}
		n, err := next[d].Apply(stage)
		switch {
		case err != nil:
			err = passError(d, next[d], err)
			for j := range out {
				if out[j].pending(next) {
					out[j].Err = err
				}
			}
		case n == 0:
			grow(out, progs, next, copied)
		default:
			grow(out, stage, next, false)
		}
	}
}

// otherBranch reports whether a pending stage extends prefix by a pass other
// than next.
func otherBranch(out []Stage, prefix []Pass, next Pass) bool {
	for i := range out {
		if out[i].pending(prefix) && out[i].passes[len(prefix)] != next {
			return true
		}
	}
	return false
}

// StandardModes lists the mode names StandardPipeline accepts, in
// optimization order.
func StandardModes() []string { return []string{"rtr", "ctr", "opt1", "opt2", "opt3"} }
