// Package autotune closes the loop the paper leaves open: it searches for the
// domain decomposition instead of taking it as a programmer annotation. Given
// a source program, a machine calibration, and a candidate space — mapping
// family and span per distributed array, plus the transformation pipeline —
// it predicts each candidate's makespan with a tiered cost model and confirms
// the best ones with real simulated runs.
//
// The evaluation tiers, cheapest first:
//
//  1. Static walk. Each candidate is compiled and its per-process programs
//     are run abstractly (exec.Walk): the interpreter's own stepper, and so
//     its exact cost accounting, over a domain that computes no data
//     values. The walk yields each process's busy time (compute + message
//     overheads, no waits); the maximum over processes is a lower bound on
//     the makespan, which makes the prune branch-and-bound: a candidate
//     whose bound exceeds the best tier-2 prediction provably cannot win.
//  2. Communication-DAG replay. The same walk also records every process's
//     action sequence (compute spans, sends, receives). Replaying that DAG
//     with the machine's cost parameters — analysis.Replay, the one
//     event-driven replay pdtrace's what-if scenarios also run on —
//     yields the candidate's predicted makespan including pipeline stalls.
//  3. Simulated runs. The top-k survivors execute on the real simulated
//     machine, results validated against the sequential reference. A
//     modeled candidate whose measured makespan differs from its tier-2
//     prediction is an error, never a report.
//
// A traced baseline run of the program's declared mapping anchors the model:
// the walked profile's replayed timeline must equal the trace, event for
// event, before any candidate is trusted. The winner is attributed from its
// own replayed timeline, which the anchor vouches for, without rerunning it.
package autotune

import (
	"fmt"
	"slices"
	"strings"

	"procdecomp/internal/dist"
	"procdecomp/internal/xform"
)

// A Mapping is one candidate decomposition for the workload's distributed
// arrays: a family plus the processors it spans.
type Mapping struct {
	Kind dist.Kind
	// Span is the processor count the 1-D families distribute over (the S of
	// cyclic_cols(S)); it may be smaller than the machine to concentrate the
	// data. Ignored for block2d/all/single.
	Span int64
	// PR, PC form the block2d processor grid.
	PR, PC int64
}

func (m Mapping) String() string {
	switch m.Kind.Arity() {
	case 0:
		return m.Kind.String()
	case 2:
		return fmt.Sprintf("%s(%dx%d)", m.Kind, m.PR, m.PC)
	}
	return fmt.Sprintf("%s(%d)", m.Kind, m.Span)
}

// args lists the mapping's parameters as its family's declaration takes
// them: the span, the grid, or none.
func (m Mapping) args() []int64 {
	switch m.Kind.Arity() {
	case 0:
		return nil
	case 2:
		return []int64{m.PR, m.PC}
	}
	return []int64{m.Span}
}

// Validate checks that the mapping is executable on a machine of the given
// size by the family's own parameter rule (dist.Kind.Check): every owner the
// decomposition can produce must name a real processor. A mapping that fails
// validation would crash the run it is compiled into — the dist constructors
// panic on degenerate parameters, and out-of-machine owners address
// nonexistent processes — so the search validates every candidate before
// retargeting and skips offenders with a logged note instead of dying
// mid-search.
func (m Mapping) Validate(procs int64) error {
	if err := m.Kind.Check(m.args(), procs); err != nil {
		return fmt.Errorf("autotune: mapping %s: %w", m, err)
	}
	return nil
}

// A Candidate is one point of the search space: a mapping plus the
// optimization pipeline compiled on top of it.
type Candidate struct {
	Mapping Mapping
	// Mode is an xform.StandardPipeline mode: rtr, ctr, opt1, opt2, opt3.
	Mode string
	// Blk is the opt3 strip-mine block size (0 for other modes).
	Blk int64
}

// Key is the candidate's canonical content key: equal keys mean identical
// generated code, so the deduplication compares it and the reports print it.
func (c Candidate) Key() string {
	if c.Blk > 0 {
		return fmt.Sprintf("%s/%s/blk%d", c.Mapping, c.Mode, c.Blk)
	}
	return fmt.Sprintf("%s/%s", c.Mapping, c.Mode)
}

func (c Candidate) String() string { return c.Key() }

// Space describes the candidate configurations to enumerate. Zero fields
// take defaults that cover the paper's families.
type Space struct {
	// Kinds are the mapping families to try. Default: the four 1-D matrix
	// families, block2d, all, and single.
	Kinds []dist.Kind
	// Spans are the processor counts for the 1-D families; entries larger
	// than the machine are clipped out. Default: {procs, procs/2}.
	Spans []int64
	// Modes are the optimization pipelines. Default: xform.StandardModes.
	Modes []string
	// Blks are the opt3 strip-mine block sizes. Default: {4, 8}.
	Blks []int64
}

// DefaultKinds is the default family set for matrix workloads.
func DefaultKinds() []dist.Kind {
	return []dist.Kind{
		dist.KindCyclicCols, dist.KindCyclicRows, dist.KindBlockCols,
		dist.KindBlockRows, dist.KindBlock2D, dist.KindReplicated, dist.KindSingle,
	}
}

// Enumerate lists the space's candidates for a machine of the given size, in
// a deterministic order, deduplicated by Key.
func (sp Space) Enumerate(procs int) []Candidate {
	cands, _ := sp.enumerate(procs)
	return cands
}

// enumerate is Enumerate with each candidate's key, rendered once: keys[i] is
// cands[i].Key(), and both lists are sorted by it.
func (sp Space) enumerate(procs int) (cands []Candidate, keys []string) {
	p := int64(procs)
	kinds := sp.Kinds
	if len(kinds) == 0 {
		kinds = DefaultKinds()
	}
	spans := sp.Spans
	if len(spans) == 0 {
		spans = []int64{p}
		if p/2 >= 1 && p/2 != p {
			spans = append(spans, p/2)
		}
	}
	var mappings []Mapping
	for _, k := range kinds {
		switch k.Arity() {
		case 0:
			mappings = append(mappings, Mapping{Kind: k})
		case 2:
			// Proper 2-D factorizations of the machine; the degenerate 1×S
			// and S×1 grids duplicate the block_cols/block_rows owners.
			for pr := int64(2); pr <= p/2; pr++ {
				if p%pr == 0 {
					mappings = append(mappings, Mapping{Kind: k, PR: pr, PC: p / pr})
				}
			}
		default:
			for _, s := range spans {
				if s >= 1 && s <= p {
					mappings = append(mappings, Mapping{Kind: k, Span: s})
				}
			}
		}
	}

	type keyed struct {
		key string
		c   Candidate
	}
	var all []keyed
	seen := map[string]bool{}
	points := sp.pipelinePoints()
	for _, m := range mappings {
		for _, pp := range points {
			c := Candidate{Mapping: m, Mode: pp.mode, Blk: pp.blk}
			if k := c.Key(); !seen[k] {
				seen[k] = true
				all = append(all, keyed{k, c})
			}
		}
	}
	slices.SortFunc(all, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	cands, keys = make([]Candidate, len(all)), make([]string, len(all))
	for i, kc := range all {
		cands[i], keys[i] = kc.c, kc.key
	}
	return cands, keys
}

// A pipelinePoint is one configuration of the space's non-mapping dimension:
// an optimization mode, with a strip-mine block size when the mode takes one.
type pipelinePoint struct {
	mode string
	blk  int64
}

// pipelinePoints lists the space's (mode, blk) pairs with the same defaults
// Enumerate applies — the dimension a warm-start mapping is expanded across.
func (sp Space) pipelinePoints() []pipelinePoint {
	modes := sp.Modes
	if len(modes) == 0 {
		modes = xform.StandardModes()
	}
	blks := sp.Blks
	if len(blks) == 0 {
		blks = []int64{4, 8}
	}
	var out []pipelinePoint
	for _, mode := range modes {
		if mode == "opt3" {
			for _, b := range blks {
				if b >= 1 {
					out = append(out, pipelinePoint{mode: mode, blk: b})
				}
			}
		} else {
			out = append(out, pipelinePoint{mode: mode})
		}
	}
	return out
}
