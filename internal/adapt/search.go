package adapt

import (
	"context"
	"fmt"
	"strings"

	"procdecomp/internal/autotune"
	"procdecomp/internal/machine"
)

// runSearch is the production search bridge: one triggered shift becomes one
// bounded autotune search over the scenario's mapping space, pinned to the
// pipeline the service compiles the shape with, warm-started from the
// incumbent. The incumbent's makespan is measured inside the same search —
// as the anchored baseline when the scenario still runs its declared
// decomposition, as the forced reference candidate once a preference is in
// force — so the reported gain compares like with like.
func (c *Controller) runSearch(ctx context.Context, t *trigger) (searchResult, error) {
	spec := t.spec
	if spec.Source == "" || spec.Entry == "" || spec.Dist == "" || spec.Procs < 1 {
		return searchResult{}, fmt.Errorf("adapt: trigger for %s carries no searchable spec", t.scenario)
	}
	w := &autotune.Workload{
		Name: t.scenario, Source: spec.Source, Entry: spec.Entry,
		Dist: spec.Dist, Defines: spec.Defines,
	}
	space := autotune.Space{Modes: []string{spec.Mode}}
	if spec.Blk > 0 {
		space.Blks = []int64{spec.Blk}
	}
	opts := autotune.Options{
		Space: space, Keep: c.cfg.SearchKeep, TopK: searchTopK,
		Workers: searchWorkers,
		// Anchor the model with the program as declared, compiled the way the
		// service compiles it.
		BaselineMode: spec.Mode, BaselineBlk: spec.Blk,
	}
	var handKey string
	if t.incumbent != "" {
		m, err := autotune.ParseMapping(t.incumbent)
		if err != nil {
			return searchResult{}, fmt.Errorf("adapt: incumbent %q: %w", t.incumbent, err)
		}
		hand := autotune.Candidate{Mapping: m, Mode: spec.Mode, Blk: spec.Blk}
		handKey = hand.Key()
		opts.Hand = &hand
		opts.Seed = []autotune.Mapping{m}
	}
	rep, err := autotune.SearchCtx(ctx, w, machine.DefaultConfig(spec.Procs), opts)
	if err != nil {
		return searchResult{}, err
	}

	res := searchResult{
		Enumerated: rep.Enumerated,
		Replayed:   rep.Replayed,
		Candidates: len(rep.Results),
	}
	winKey, _, _ := strings.Cut(rep.Winner, "/")
	res.Winner = winKey
	var winPred uint64
	for _, r := range rep.Results {
		if r.Candidate.Key() != rep.Winner {
			continue
		}
		res.WinnerMakespan = r.Measured
		winPred = r.Predicted
		if winPred == 0 {
			winPred = r.Measured
		}
		break
	}
	incMeasured, incPred := rep.Baseline.Measured, rep.Baseline.Predicted
	if handKey != "" {
		found := false
		for _, r := range rep.Results {
			if r.Candidate.Key() == handKey {
				incMeasured, incPred, found = r.Measured, r.Predicted, true
				if incPred == 0 {
					incPred = r.Measured
				}
				break
			}
		}
		if !found || incMeasured == 0 {
			return searchResult{}, fmt.Errorf("adapt: incumbent %s was not measured", handKey)
		}
	}
	res.IncumbentMakespan = incMeasured
	if incMeasured > 0 && res.WinnerMakespan > 0 {
		res.MeasuredGain = (float64(incMeasured) - float64(res.WinnerMakespan)) / float64(incMeasured)
	}
	if incPred > 0 && winPred > 0 {
		res.PredictedGain = (float64(incPred) - float64(winPred)) / float64(incPred)
	}
	return res, nil
}
