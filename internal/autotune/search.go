package autotune

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"procdecomp/internal/analysis"
	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

// Status records how far a candidate got through the evaluation tiers.
type Status string

const (
	// StatusInfeasible: the candidate does not compile to a runnable program
	// (semantic rejection, transformation rejection, or a modeled deadlock).
	StatusInfeasible Status = "infeasible"
	// StatusPruned: walked and scored statically; its busy-time lower bound
	// already exceeds the best predicted makespan, so it provably cannot win
	// and is never replayed.
	StatusPruned Status = "pruned"
	// StatusPredicted: makespan predicted by DAG replay, cut before running.
	StatusPredicted Status = "predicted"
	// StatusMeasured: executed on the simulated machine.
	StatusMeasured Status = "measured"
)

// Result is one candidate's outcome.
type Result struct {
	Candidate Candidate
	Status    Status
	// Unmodeled marks a candidate whose control flow the static walk could
	// not decide; it skipped the model tiers and was measured directly.
	Unmodeled bool `json:",omitempty"`
	// Note carries the infeasibility or unmodeled reason.
	Note string `json:",omitempty"`
	// Static is the tier-1 busy-time lower bound.
	Static uint64 `json:",omitempty"`
	// Predicted is the tier-2 DAG-replay makespan.
	Predicted uint64 `json:",omitempty"`
	// Measured is the simulated machine's makespan.
	Measured uint64 `json:",omitempty"`
	Messages int64  `json:",omitempty"`
	Values   int64  `json:",omitempty"`
}

// Baseline is the traced run of the program as annotated, which anchors the
// cost model before any candidate is trusted.
type Baseline struct {
	Mode     string
	Blk      int64 `json:",omitempty"`
	Measured uint64
	// Predicted is the makespan of the walked profile's replayed timeline;
	// the search fails unless that timeline is the traced run's, event for
	// event, so it equals Measured.
	Predicted uint64
	Messages  int64
	Values    int64
}

// Report is the search outcome: every candidate's result, the winner with its
// makespan attribution, and the regret of the hand-chosen reference mapping.
// Reports are deterministic — equal inputs produce identical bytes.
type Report struct {
	Workload   string
	Procs      int
	Defines    map[string]int64 `json:",omitempty"`
	Enumerated int              // space size before forcing the reference in
	Baseline   Baseline
	Results    []Result
	// Replayed counts the candidates scored in tier 2 — those the
	// branch-and-bound prune did not skip. Twins (candidates whose stages
	// are the same programs) share one replay but count once each.
	// Warm-starting (Options.Seed) lowers it without changing the winner.
	Replayed int
	Winner   string // winning candidate's Key
	Hand     string // reference candidate's Key
	// Regret is the reference mapping's measured makespan minus the winner's:
	// how many cycles the hand-chosen decomposition leaves on the table.
	Regret uint64
	// Attr partitions the winner's measured makespan by cause: the critical
	// path of its profile's replayed timeline, or of its traced run if the
	// walk could not model it.
	Attr analysis.Attribution
}

// Options tunes the search. The zero value is usable.
type Options struct {
	Space Space
	// Keep is the minimum number of statically ranked candidates scored in
	// tier 2 (default 12). Beyond it, candidates are still scored until
	// their static lower bound passes the best prediction — the prune is
	// branch-and-bound, never a gamble.
	Keep int
	// TopK is how many predicted candidates are confirmed on the simulated
	// machine (default 6).
	TopK int
	// Workers bounds both of the search's pools (default 4): tier 1's, which
	// also runs the anchor, and tier 3's. No search work runs outside them
	// but the serial tier 2, which walks again each image it replays, and
	// the winner's attribution, one replay of its profile. Results are
	// written by index, so parallelism never changes the report.
	Workers int
	// BaselineMode/BaselineBlk select the anchor compilation of the program
	// as annotated (default ctr).
	BaselineMode string
	BaselineBlk  int64
	// Hand overrides the reference candidate whose regret the report quotes.
	// Default: the paper's hand choice — cyclic columns over the whole
	// machine, fully optimized (opt3) with block size 8.
	Hand *Candidate
	// Seed lists warm-start mappings — typically the incumbent decomposition
	// an adaptive caller is already serving. Each valid seed is expanded
	// across the space's pipeline dimension, forced into the candidate set,
	// and replayed first in tier 2, so the branch-and-bound prune starts
	// from the incumbent's bound instead of discovering one from scratch.
	// Seeding a mapping already inside the space never changes the winner,
	// only the replay order and count; a seed outside the space widens it.
	// Invalid seeds are skipped — a stale incumbent must not kill the
	// search that would replace it.
	Seed []Mapping
	// Progress, when non-nil, receives coarse search progress: the anchored
	// baseline, each tier transition with done/total counts, a partial
	// ranking after the prediction tier, every confirmed measurement, and
	// the winner. "baseline" and "enumerated" come from the tier-1 pool
	// goroutine that ran the anchor, and "measured" calls concurrently from
	// the tier-3 pool; the callback must be safe for concurrent use and
	// must return promptly. It is observational only — the search's report
	// is bit-identical with or without it.
	Progress func(Progress)
	// evalHook, when non-nil, is called before each evaluation (stage
	// "anchor" for the baseline run, with a candidate that carries only the
	// baseline's mode and block size; "compile" for a mapping's shared front
	// half, with a candidate that carries only the mapping; "static" for a
	// candidate's tier-1 walk; "measure" for a tier-3 run) — a test seam for
	// injecting panics and cancellations into the worker pools.
	evalHook func(stage string, c Candidate)
}

// Progress is one coarse progress report from a running search — which
// tier just finished (or which candidate was just measured), how much of
// the tier is done, and a partial ranking where one exists. Stages arrive
// in order baseline, enumerated (both once the anchor has run, while tier 1
// may still be walking), static, predicted, then one measured per confirmed
// candidate (concurrently), then winner.
type Progress struct {
	// Stage is "baseline", "enumerated", "static", "predicted",
	// "measured", or "winner".
	Stage string
	// Done/Total count the stage's progress (candidates walked, predicted,
	// or measured so far, out of the tier's population).
	Done, Total int
	// Candidate names the subject of a "measured" or "winner" report.
	Candidate string `json:",omitempty"`
	// Makespan is the baseline measurement, a measured candidate's
	// makespan, or the winner's makespan, depending on Stage.
	Makespan uint64 `json:",omitempty"`
	// Top is the partial ranking at the "predicted" stage: the
	// best-predicted candidate keys, best first.
	Top []string `json:",omitempty"`
}

// ErrEvalPanic marks a candidate evaluation that panicked. The Search worker
// pool recovers the panic and records the candidate as infeasible with the
// panic message (errors.Is against this sentinel), so one broken candidate
// cannot take down a whole search.
var ErrEvalPanic = errors.New("autotune: candidate evaluation panicked")

func panicAsError(c Candidate, r any) error {
	return fmt.Errorf("%w: %s: panic: %v", ErrEvalPanic, c.Key(), r)
}

// Measurement is one confirmed run.
type Measurement struct {
	Makespan uint64
	Messages int64
	Values   int64
}

// Measure compiles and runs one candidate on the simulated machine, validates
// its result against the sequential reference, and reports the measurement.
// It is deterministic: rerunning the same candidate reproduces the makespan
// exactly, which the search (and its tests) rely on.
func Measure(w *Workload, c Candidate, cfg machine.Config) (Measurement, error) {
	b, err := w.build(&c.Mapping, c.Mode, c.Blk, cfg.Procs)
	if err != nil {
		return Measurement{}, err
	}
	ins, err := exec.PatternInputs(b.info, w.Entry)
	if err != nil {
		return Measurement{}, err
	}
	m, _, err := measure(context.Background(), w, c, b, ins, cfg, false)
	return m, err
}

// run is one image's tier-3 outcome, which every twin sharing the image
// reads.
type run struct {
	done bool
	m    Measurement
	d    *analysis.Dump // the trace of an image tier 1 could not model
	err  error
}

// safeMeasure is a tier-3 run of what tier 1 built, with the worker pool's
// panic isolation: a panicking evaluation comes back as an
// ErrEvalPanic-wrapped error instead of unwinding the pool. The image runs
// once per twin set: the first twin to get past its hook fills r, and the
// others copy it. An unmodeled image runs traced: it has no profile to
// replay, so its trace is what attributes it should it win.
func safeMeasure(ctx context.Context, w *Workload, c Candidate, b *built, ins map[string]*istruct.Matrix, cfg machine.Config, hook func(string, Candidate), r *run, traced bool) (m Measurement, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = Measurement{}, panicAsError(c, p)
		}
	}()
	if hook != nil {
		hook("measure", c)
	}
	if !r.done {
		r.m, r.d, r.err = measure(ctx, w, c, b, ins, cfg, traced)
		r.done = true
	}
	return r.m, r.err
}

// wrongAnswer is a run that completed with a result the sequential reference
// rejects.
type wrongAnswer struct {
	key string
	err error
}

func (e *wrongAnswer) Error() string { return e.key + " computes the wrong answer: " + e.err.Error() }
func (e *wrongAnswer) Unwrap() error { return e.err }

// measure runs a built candidate and validates its result; it optionally
// traces the run and captures it for the analyzer.
func measure(ctx context.Context, w *Workload, c Candidate, b *built, ins map[string]*istruct.Matrix, cfg machine.Config, traced bool) (Measurement, *analysis.Dump, error) {
	cfg.Tracer = nil
	var tr *trace.Log
	if traced {
		tr = trace.New()
		cfg.Tracer = tr
	}
	out, err := b.img.Run(ctx, cfg, ins)
	if err != nil {
		return Measurement{}, nil, err
	}
	if err := w.validate(out, b); err != nil {
		return Measurement{}, nil, &wrongAnswer{key: c.Key(), err: err}
	}
	m := Measurement{Makespan: uint64(out.Stats.Makespan), Messages: out.Stats.Messages, Values: out.Stats.Values}
	if traced {
		return m, analysis.NewDump(cfg, tr), nil
	}
	return m, nil, nil
}

// DefaultHand is the paper's hand-chosen mapping for a machine of the given
// size: cyclic columns across every processor, fully optimized, block size 8.
func DefaultHand(procs int) Candidate {
	return Candidate{Mapping: Mapping{Kind: dist.KindCyclicCols, Span: int64(procs)}, Mode: "opt3", Blk: 8}
}

// forEach runs f(0..n-1) on a bounded worker pool. Callers write results by
// index, so scheduling order never leaks into the output. Once ctx is done it
// hands out no more indices; the calls already running finish.
func forEach(ctx context.Context, n, workers int, f func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
		}
	}
	close(idx)
	wg.Wait()
}

// Search runs the tiered search and returns its report. It fails (rather
// than report) if the machine configuration is outside the model, if the
// baseline run contradicts the model, or if any modeled candidate's measured
// makespan differs from its prediction.
func Search(w *Workload, cfg machine.Config, opts Options) (*Report, error) {
	return SearchCtx(context.Background(), w, cfg, opts)
}

// interrupted finalizes a partial report after context cancellation: every
// result accumulated so far is kept so the caller can still print what the
// search learned, alongside a nonzero ("interrupted") error.
func interrupted(rep *Report, results []Result, err error) (*Report, error) {
	rep.Results = orderResults(results)
	return rep, fmt.Errorf("autotune: search interrupted: %w", err)
}

// SearchCtx is Search under a context. Cancellation is honored between tiers,
// by both worker pools (no further mapping is compiled and no further
// candidate measured once ctx is done; those under way finish) and inside the
// simulated machine (via exec.RunSPMDCtx); an interrupted search returns the
// partial report together with an error wrapping ctx.Err(). A panic in a
// candidate's evaluation marks that candidate infeasible; a panic in the
// anchor run is raised again on the caller's goroutine once tier 1's pool has
// drained.
func SearchCtx(ctx context.Context, w *Workload, cfg machine.Config, opts Options) (*Report, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("autotune: machine with %d processors", cfg.Procs)
	}
	if cfg.Faults != nil {
		return nil, errors.New("autotune: the cost model does not cover fault injection")
	}
	if cfg.Placement != nil {
		return nil, errors.New("autotune: the cost model does not cover multiplexed placement")
	}
	if cfg.MailboxCap > 0 {
		return nil, errors.New("autotune: the cost model does not cover bounded mailboxes")
	}
	if opts.Keep <= 0 {
		opts.Keep = 12
	}
	if opts.TopK <= 0 {
		opts.TopK = 6
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.BaselineMode == "" {
		opts.BaselineMode = "ctr"
	}
	hand := DefaultHand(cfg.Procs)
	if opts.Hand != nil {
		hand = *opts.Hand
	}
	handKey := hand.Key()

	rep := &Report{Workload: w.Name, Procs: cfg.Procs, Defines: w.Defines, Hand: handKey}
	emit := func(p Progress) {
		if opts.Progress != nil {
			opts.Progress(p)
		}
	}

	// Enumerate, forcing the hand-chosen reference in so the winner is never
	// worse than it. cands stays sorted by key, and keys[i] is cands[i]'s key,
	// rendered once: every later test and sort of a candidate reads it.
	cands, keys := opts.Space.enumerate(cfg.Procs)
	rep.Enumerated = len(cands)
	force := func(c Candidate, key string) {
		if at, found := slices.BinarySearch(keys, key); !found {
			cands, keys = slices.Insert(cands, at, c), slices.Insert(keys, at, key)
		}
	}
	force(hand, handKey)
	// Warm start: force each seeded mapping in, expanded across the space's
	// pipeline points, and remember its rank so tier 2 replays it first.
	seedRank := map[string]int{}
	for _, m := range opts.Seed {
		if err := m.Validate(int64(cfg.Procs)); err != nil {
			continue
		}
		for _, pp := range opts.Space.pipelinePoints() {
			c := Candidate{Mapping: m, Mode: pp.mode, Blk: pp.blk}
			key := c.Key()
			if _, ok := seedRank[key]; ok {
				continue
			}
			seedRank[key] = len(seedRank)
			force(c, key)
		}
	}
	seed := make([]int, len(cands)) // each candidate's seed rank, or -1
	for i, key := range keys {
		seed[i] = -1
		if r, ok := seedRank[key]; ok {
			seed[i] = r
		}
	}

	// Tier 1: compile and walk everything, one mapping per pool task — its
	// candidates share one retarget, one check and one resolution of the
	// entry, and differ only in the pass suffix xform.CompileAll applies.
	// What each candidate lowers to is kept: tiers 2 and 3 read it. What it
	// walks to is not: the walk is matched in a pooled scratch, so a deadlock
	// or a mismatched value count shows here, and only its static score is
	// kept. Twins — the candidates of a mapping whose stages are the same
	// programs, because a pass applied nowhere — share one lowering and one
	// walk. Every evaluation runs under a recover, so a candidate whose
	// lowering or walk panics is recorded as infeasible (with the panic
	// message) instead of crashing the pool; a panic in the shared front
	// half marks each of the mapping's candidates so.
	//
	// The anchor is the pool's task 0, beside the mappings: tier 1 only
	// compiles and walks, and trusts nothing the anchor decides, while tiers
	// 2 and 3 start only once the pool has drained. It runs the program as
	// annotated, traced, and demands that the walked profile's replayed
	// timeline be that trace, event for event, before the model is trusted
	// anywhere else. If it fails, the mappings' work is
	// discarded; a panic in it is held until the pool drains and then raised
	// on the caller's goroutine.
	results := make([]Result, len(cands))
	builds := make([]*built, len(cands))
	groups := groupBy(len(cands), func(i int) Mapping { return cands[i].Mapping })
	var (
		ins         map[string]*istruct.Matrix
		anchorErr   error
		anchorPanic any
	)
	runAnchor := func() {
		defer func() { anchorPanic = recover() }()
		if opts.evalHook != nil {
			opts.evalHook("anchor", Candidate{Mode: opts.BaselineMode, Blk: opts.BaselineBlk})
		}
		if ins, anchorErr = anchor(ctx, w, cfg, opts, rep); anchorErr == nil {
			emit(Progress{Stage: "baseline", Makespan: rep.Baseline.Measured})
			emit(Progress{Stage: "enumerated", Total: len(cands)})
		}
	}
	forEach(ctx, 1+len(groups), opts.Workers, func(task int) {
		if task == 0 {
			runAnchor()
			return
		}
		idx := groups[task-1]
		mapping := cands[idx[0]].Mapping
		points := make([]xform.Point, len(idx))
		for k, i := range idx {
			points[k] = xform.Point{Mode: cands[i].Mode, Blk: cands[i].Blk}
		}
		var (
			info       *sem.Info
			stages     []xform.Stage
			frontErr   error
			frontPanic any
		)
		func() {
			defer func() { frontPanic = recover() }()
			if opts.evalHook != nil {
				opts.evalHook("compile", Candidate{Mapping: mapping})
			}
			info, stages, frontErr = w.compileAll(&mapping, points, cfg.Procs)
		}()
		twins := map[*spmd.Program]*walk{}
		for k, i := range idx {
			c := cands[i]
			results[i] = Result{Candidate: c}
			err := frontErr
			if frontPanic != nil {
				err = panicAsError(c, frontPanic)
			}
			var static uint64
			if err == nil {
				builds[i], static, err = model(info, stages[k], c, cfg, opts.evalHook, twins)
			}
			var um *ErrUnmodeled
			switch {
			case err == nil:
				results[i].Status = StatusPruned
				results[i].Static = static
			case errors.As(err, &um):
				results[i].Unmodeled = true
				results[i].Note = um.Reason
			default:
				results[i].Status = StatusInfeasible
				results[i].Note = err.Error()
			}
		}
	})
	if anchorPanic != nil {
		panic(anchorPanic)
	}
	if err := ctx.Err(); err != nil {
		// A mapping never handed out has no results to report.
		return interrupted(rep, slices.DeleteFunc(results, func(r Result) bool { return r == Result{} }), err)
	}
	if anchorErr != nil {
		return nil, anchorErr
	}

	// Tier 2, with a sound prune. The static score is a lower bound on the
	// makespan (busy time can only be stretched by waits), so replaying in
	// static order and stopping once the bound passes the best prediction is
	// branch-and-bound, not a heuristic: a pruned candidate provably cannot
	// win. Keep forces at least that many replays regardless of the bound.
	// Only a replayed image is walked again, into the profile the replay
	// reads, once for all its twins.
	modeled := indicesWhere(results, func(r Result) bool { return r.Status == StatusPruned })
	emit(Progress{Stage: "static", Done: len(modeled), Total: len(cands)})
	sort.SliceStable(modeled, func(a, b int) bool {
		i, j := modeled[a], modeled[b]
		if (seed[i] >= 0) != (seed[j] >= 0) {
			// Seeded candidates replay first: the incumbent's bound is in
			// place before anything else can be pruned against it.
			return seed[i] >= 0
		}
		if seed[i] != seed[j] {
			return seed[i] < seed[j]
		}
		if results[i].Static != results[j].Static {
			return results[i].Static < results[j].Static
		}
		return keys[i] < keys[j]
	})
	best := uint64(0)
	haveBest := false
	type replay struct {
		pf   *Profile
		pred uint64
		err  error
	}
	replays := map[*built]*replay{} // twins share one image, so one walk and one replay
	for n, i := range modeled {
		if err := ctx.Err(); err != nil {
			return interrupted(rep, results, err)
		}
		forced := seed[i] >= 0 || keys[i] == handKey
		if n >= opts.Keep && haveBest && results[i].Static >= best && !forced {
			continue // provably not the winner
		}
		rep.Replayed++
		pr := replays[builds[i]]
		if pr == nil {
			pr = &replay{}
			if pr.pf, pr.err = profileOf(builds[i].img, cfg); pr.err == nil {
				pr.pred, pr.err = pr.pf.Predict(cfg)
			}
			replays[builds[i]] = pr
		}
		pred, err := pr.pred, pr.err
		if err != nil {
			results[i].Status = StatusInfeasible
			results[i].Note = err.Error()
			continue
		}
		results[i].Status = StatusPredicted
		results[i].Predicted = pred
		results[i].Messages = pr.pf.Messages
		results[i].Values = pr.pf.Values
		if !haveBest || pred < best {
			best, haveBest = pred, true
		}
	}

	// Tier 3 selection: the TopK best-predicted, the reference, and every
	// unmodeled candidate (the model cannot rank what it cannot walk).
	predicted := indicesWhere(results, func(r Result) bool { return r.Status == StatusPredicted })
	sort.SliceStable(predicted, func(a, b int) bool {
		i, j := predicted[a], predicted[b]
		if results[i].Predicted != results[j].Predicted {
			return results[i].Predicted < results[j].Predicted
		}
		return keys[i] < keys[j]
	})
	if opts.Progress != nil {
		top := make([]string, 0, 5)
		for _, i := range predicted {
			if len(top) == 5 {
				break
			}
			top = append(top, keys[i])
		}
		emit(Progress{Stage: "predicted", Done: len(predicted), Total: len(modeled), Top: top})
	}
	toMeasure := map[int]bool{}
	for n, i := range predicted {
		if n < opts.TopK || keys[i] == handKey {
			toMeasure[i] = true
		}
	}
	for i, r := range results {
		if r.Unmodeled {
			toMeasure[i] = true
		}
	}
	var mIdx []int
	for i := range toMeasure {
		mIdx = append(mIdx, i)
	}
	sort.Ints(mIdx)
	if err := ctx.Err(); err != nil {
		return interrupted(rep, results, err)
	}

	// Tier 3: confirm on the simulated machine, one pool task per image so
	// that twins run it once and copy the outcome.
	errs := make([]error, len(mIdx))
	dumps := make([]*analysis.Dump, len(cands))
	images := groupBy(len(mIdx), func(n int) *built { return builds[mIdx[n]] })
	var measuredSoFar atomic.Int64
	forEach(ctx, len(images), opts.Workers, func(task int) {
		var r run
		for _, n := range images[task] {
			i := mIdx[n]
			m, err := safeMeasure(ctx, w, cands[i], builds[i], ins, cfg, opts.evalHook, &r, results[i].Unmodeled)
			if err != nil {
				errs[n] = err
				continue
			}
			dumps[i] = r.d
			results[i].Status = StatusMeasured
			results[i].Measured = m.Makespan
			results[i].Messages = m.Messages
			results[i].Values = m.Values
			emit(Progress{Stage: "measured", Candidate: keys[i],
				Makespan: m.Makespan, Done: int(measuredSoFar.Add(1)), Total: len(mIdx)})
		}
	})
	if err := ctx.Err(); err != nil {
		return interrupted(rep, results, err)
	}
	for n, err := range errs {
		if err != nil {
			// A candidate that compiles and models but fails to run (or runs
			// wrong) is a model violation for modeled candidates, a mere
			// infeasibility for unmodeled ones. A panicking evaluation is
			// never a model violation: the pool isolated it, so it is just
			// recorded and the search carries on.
			i := mIdx[n]
			if !results[i].Unmodeled && !errors.Is(err, ErrEvalPanic) {
				return nil, fmt.Errorf("autotune: modeled candidate %s failed to run: %w", keys[i], err)
			}
			results[i].Status = StatusInfeasible
			results[i].Note = err.Error()
		}
	}

	// The invariant that makes the report trustworthy: a modeled candidate's
	// measured makespan must equal its DAG-replay prediction, cycle for cycle.
	for _, i := range mIdx {
		r := results[i]
		if r.Status == StatusMeasured && !r.Unmodeled && r.Predicted != r.Measured {
			return nil, fmt.Errorf("autotune: %s predicted %d but measured %d — the cost model is wrong",
				keys[i], r.Predicted, r.Measured)
		}
	}

	// Winner and regret.
	winner, handIdx := -1, -1
	for _, i := range mIdx {
		r := results[i]
		if r.Status != StatusMeasured {
			continue
		}
		if keys[i] == handKey {
			handIdx = i
		}
		if winner < 0 || r.Measured < results[winner].Measured ||
			(r.Measured == results[winner].Measured && keys[i] < keys[winner]) {
			winner = i
		}
	}
	if winner < 0 {
		return nil, errors.New("autotune: no candidate survived to measurement")
	}
	if handIdx < 0 {
		return nil, fmt.Errorf("autotune: reference candidate %s was not measurable", handKey)
	}
	rep.Winner = keys[winner]
	rep.Regret = results[handIdx].Measured - results[winner].Measured

	// The winner's critical path attributes its makespan by cause. A modeled
	// winner's replayed timeline is its run's trace event for event — the
	// anchor demands exactly that of the one run the search traces — so
	// replaying its profile attributes it without running it again.
	d := dumps[winner]
	if d == nil {
		var err error
		if d, err = analysis.ReplayDump(replays[builds[winner]].pf.Acts, analysis.CostsOf(cfg)); err != nil {
			return nil, fmt.Errorf("autotune: winner replay: %w", err)
		}
	}
	cp, err := d.CriticalPath()
	if err != nil {
		return nil, fmt.Errorf("autotune: winner attribution: %w", err)
	}
	rep.Attr = cp.Attr
	emit(Progress{Stage: "winner", Candidate: rep.Winner, Makespan: results[winner].Measured})

	rep.Results = orderResults(results)
	return rep, nil
}

// walk is one stage's tier-1 outcome, which every twin sharing the stage
// reads.
type walk struct {
	b      *built
	static uint64
	err    error
}

// model is tier 1 for one candidate of a compiled mapping: lower its stage
// and score the image, with the worker pool's panic isolation. A candidate
// the walk cannot decide (*ErrUnmodeled) still returns its image: tier 3
// measures it. A stage is lowered and walked once: twins, keyed by the
// stage's first program, read what the first of them to get past its hook
// left in twins.
func model(info *sem.Info, st xform.Stage, c Candidate, cfg machine.Config, hook func(string, Candidate), twins map[*spmd.Program]*walk) (b *built, static uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			b, static, err = nil, 0, panicAsError(c, r)
		}
	}()
	if hook != nil {
		hook("static", c)
	}
	if st.Err != nil {
		_, err = lower(info, st, cfg.Procs)
		return nil, 0, err
	}
	wk := twins[st.Progs[0]]
	if wk == nil {
		wk = &walk{}
		if wk.b, wk.err = lower(info, st, cfg.Procs); wk.err == nil {
			wk.static, wk.err = score(wk.b.img, cfg)
		}
		twins[st.Progs[0]] = wk
	}
	return wk.b, wk.static, wk.err
}

// anchor measures the declared program traced and checks the model against
// it: the walked profile's replayed timeline must be the trace, event for
// event — every compute span, message and wait of every process, so the
// makespan and the message totals too. It returns the run inputs it built,
// which every later run of the search shares.
func anchor(ctx context.Context, w *Workload, cfg machine.Config, opts Options, rep *Report) (map[string]*istruct.Matrix, error) {
	b, err := w.build(nil, opts.BaselineMode, opts.BaselineBlk, cfg.Procs)
	if err != nil {
		return nil, fmt.Errorf("autotune: baseline does not compile: %w", err)
	}
	ins, err := exec.PatternInputs(b.info, w.Entry)
	if err != nil {
		return nil, err
	}
	m, traced, err := measure(ctx, w, Candidate{Mode: opts.BaselineMode, Blk: opts.BaselineBlk}, b, ins, cfg, true)
	var wrong *wrongAnswer
	if errors.As(err, &wrong) {
		return nil, fmt.Errorf("autotune: baseline computes the wrong answer: %w", wrong.err)
	}
	if err != nil {
		return nil, fmt.Errorf("autotune: baseline run: %w", err)
	}
	sc := getScratch() // the walk is replayed where it was matched
	defer sc.release()
	if _, _, err := sc.walk(b.img, cfg); err != nil {
		return nil, fmt.Errorf("autotune: baseline is not statically modelable: %w", err)
	}
	replayed, err := analysis.ReplayDump(sc.acts, analysis.CostsOf(cfg))
	if err != nil {
		return nil, fmt.Errorf("autotune: baseline DAG replay: %w", err)
	}
	for p := range traced.Events {
		if !slices.Equal(replayed.Events[p], traced.Events[p]) {
			return nil, fmt.Errorf("autotune: baseline process %d: the DAG replay's timeline disagrees with the machine's trace", p)
		}
	}
	rep.Baseline = Baseline{
		Mode: opts.BaselineMode, Blk: opts.BaselineBlk,
		Measured: m.Makespan, Predicted: replayed.Makespan(),
		Messages: m.Messages, Values: m.Values,
	}
	return ins, nil
}

// groupBy partitions 0..n-1 by key, groups and members both in order of
// first appearance.
func groupBy[K comparable](n int, key func(int) K) [][]int {
	var groups [][]int
	at := map[K]int{}
	for i := range n {
		g, ok := at[key(i)]
		if !ok {
			g = len(groups)
			at[key(i)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

func indicesWhere(rs []Result, pred func(Result) bool) []int {
	var out []int
	for i, r := range rs {
		if pred(r) {
			out = append(out, i)
		}
	}
	return out
}

// orderResults sorts for presentation: measured by makespan, then predicted
// by prediction, then pruned by static score, then infeasible by key. Each
// key is rendered once.
func orderResults(rs []Result) []Result {
	rank := func(r *Result) int {
		switch r.Status {
		case StatusMeasured:
			return 0
		case StatusPredicted:
			return 1
		case StatusPruned:
			return 2
		default:
			return 3
		}
	}
	keys := make([]string, len(rs))
	order := make([]int, len(rs))
	for i := range rs {
		keys[i], order[i] = rs[i].Candidate.Key(), i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		a, b := &rs[i], &rs[j]
		if rank(a) != rank(b) {
			return rank(a) < rank(b)
		}
		switch a.Status {
		case StatusMeasured:
			if a.Measured != b.Measured {
				return a.Measured < b.Measured
			}
		case StatusPredicted:
			if a.Predicted != b.Predicted {
				return a.Predicted < b.Predicted
			}
		case StatusPruned:
			if a.Static != b.Static {
				return a.Static < b.Static
			}
		}
		return keys[i] < keys[j]
	})
	if len(rs) == 0 {
		return nil
	}
	out := make([]Result, len(rs))
	for n, i := range order {
		out[n] = rs[i]
	}
	return out
}
