package autotune

import (
	"sync/atomic"

	"procdecomp/internal/analysis"
	"procdecomp/internal/machine"
)

// SearchWork is what one search did, counted through the search's test
// seams rather than by the product.
type SearchWork struct {
	// Replayed is the report's Replayed: the candidates tier 2 scored.
	Replayed int
	// Measured counts tier 3's evaluations (evalHook's "measure" stage).
	Measured int
	// AnchorReplayed counts the events of the anchor's replayed timeline.
	AnchorReplayed int
	// AnchorStored counts the events the anchor's traced run keeps in
	// storage of its own: each process's events that are not a prefix of
	// the replayed timeline's slice.
	AnchorStored int
}

// CountSearchWork runs Search with opts and the seams installed.
func CountSearchWork(w *Workload, cfg machine.Config, opts Options) (SearchWork, error) {
	var work SearchWork
	var measured atomic.Int64 // tier 3's pool evaluates concurrently
	opts.evalHook = func(stage string, _ Candidate) {
		if stage == "measure" {
			measured.Add(1)
		}
	}
	opts.anchorHook = func(replayed, traced *analysis.Dump) {
		for p, evs := range traced.Events {
			want := replayed.Events[p]
			work.AnchorReplayed += len(want)
			if len(evs) > 0 && (len(want) == 0 || &evs[0] != &want[0]) {
				work.AnchorStored += len(evs)
			}
		}
	}
	rep, err := Search(w, cfg, opts)
	if err != nil {
		return work, err
	}
	work.Replayed, work.Measured = rep.Replayed, int(measured.Load())
	return work, nil
}
