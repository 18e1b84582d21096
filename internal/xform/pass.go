package xform

import (
	"errors"
	"fmt"

	"procdecomp/internal/core"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
)

// A PassKind names one of the Appendix-A transformations.
type PassKind int

// The transformation passes, in the order the paper's optimization levels
// stack them.
const (
	PassVectorize   PassKind = iota // A.2: merge per-element sends into vectors
	PassJam                         // A.3: jam cross-iteration send/recv pairs
	PassStripMine                   // A.4: exchange blocks of the pipelined loop
	PassInterchange                 // §4: swap a loop nest to expose the wavefront
)

func (k PassKind) String() string {
	switch k {
	case PassVectorize:
		return "vectorize"
	case PassJam:
		return "jam"
	case PassStripMine:
		return "stripmine"
	case PassInterchange:
		return "interchange"
	default:
		return fmt.Sprintf("PassKind(%d)", int(k))
	}
}

// A Pass is one validated, parameterized transformation. Unlike the bare
// Vectorize/Jam/StripMine/Interchange functions, a Pass rejects bad
// parameters with an error instead of panicking or silently doing nothing —
// the contract the auto-mapper's enumerated pipelines need.
type Pass struct {
	Kind PassKind
	Blk  int64  // strip-mine block size (PassStripMine only)
	Var  string // outer loop variable (PassInterchange only)
}

func (p Pass) String() string {
	switch p.Kind {
	case PassStripMine:
		return fmt.Sprintf("stripmine(%d)", p.Blk)
	case PassInterchange:
		return fmt.Sprintf("interchange(%s)", p.Var)
	default:
		return p.Kind.String()
	}
}

// Validate checks the pass parameters without touching any program: the
// strip-mine block size must be at least 1, interchange needs the outer loop
// variable, and parameters that do not belong to the kind must be unset.
func (p Pass) Validate() error {
	switch p.Kind {
	case PassVectorize, PassJam:
		if p.Blk != 0 || p.Var != "" {
			return fmt.Errorf("xform: %s takes no parameters (Blk=%d, Var=%q)", p.Kind, p.Blk, p.Var)
		}
	case PassStripMine:
		if p.Blk < 1 {
			return fmt.Errorf("xform: stripmine block size must be >= 1, got %d", p.Blk)
		}
		if p.Var != "" {
			return fmt.Errorf("xform: stripmine takes no loop variable, got %q", p.Var)
		}
	case PassInterchange:
		if p.Var == "" {
			return fmt.Errorf("xform: interchange needs the outer loop variable")
		}
		if p.Blk != 0 {
			return fmt.Errorf("xform: interchange takes no block size, got %d", p.Blk)
		}
	default:
		return fmt.Errorf("xform: unknown pass kind %v", p.Kind)
	}
	return nil
}

// Apply runs the pass over the compiled programs, returning how many sites it
// transformed. Invalid parameters and inapplicable interchanges are errors; a
// vectorize/jam/stripmine that finds nothing to transform returns 0 without
// error, because the opportunistic passes are allowed to be no-ops on
// programs that have no matching communication pattern.
func (p Pass) Apply(progs []*spmd.Program) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if len(progs) == 0 {
		return 0, fmt.Errorf("xform: %s applied to no programs", p)
	}
	switch p.Kind {
	case PassVectorize:
		return Vectorize(progs), nil
	case PassJam:
		return Jam(progs), nil
	case PassStripMine:
		return StripMine(progs, p.Blk), nil
	case PassInterchange:
		n := 0
		for _, prog := range progs {
			if Interchange(prog, p.Var) {
				n++
			}
		}
		if n == 0 {
			return 0, fmt.Errorf("xform: interchange(%s) not applicable: no perfect loop nest with outer variable %q", p.Var, p.Var)
		}
		return n, nil
	}
	return 0, fmt.Errorf("xform: unknown pass kind %v", p.Kind)
}

// Apply runs a pipeline of passes in order, stopping at the first error.
// It returns the per-pass transformation counts.
func Apply(progs []*spmd.Program, passes []Pass) ([]int, error) {
	counts := make([]int, len(passes))
	for i, p := range passes {
		n, err := p.Apply(progs)
		if err != nil {
			return counts, fmt.Errorf("pass %d (%s): %w", i, p, err)
		}
		counts[i] = n
	}
	return counts, nil
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
// program per process) — and apply the mode's StandardPipeline.
func Compile(info *sem.Info, entry, mode string, blk int64) ([]*spmd.Program, error) {
	passes, ok := StandardPipeline(mode, blk)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownMode, mode)
	}
	comp := core.New(info)
	if mode == "rtr" {
		generic, err := comp.CompileRTR(entry)
		if err != nil {
			return nil, err
		}
		return []*spmd.Program{generic}, nil
	}
	progs, err := comp.CompileCTR(entry, true)
	if err != nil {
		return nil, err
	}
	if _, err := Apply(progs, passes); err != nil {
		return nil, err
	}
	return progs, nil
}

// StandardModes lists the mode names StandardPipeline accepts, in
// optimization order.
func StandardModes() []string { return []string{"rtr", "ctr", "opt1", "opt2", "opt3"} }
