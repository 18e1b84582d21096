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
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
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
	// anchorHook, when non-nil, receives the anchor's replayed timeline and
	// the dump of its traced run once the two agree — a test seam for
	// counting what the anchor holds.
	anchorHook func(replayed, traced *analysis.Dump)
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

// evalPanic is a candidate evaluation that panicked, as the pool recovered
// it: the candidate's key and the value it panicked with.
type evalPanic struct {
	key string
	val any
}

func panicAsError(c Candidate, val any) error { return &evalPanic{key: c.Key(), val: val} }

func (e *evalPanic) Error() string {
	return fmt.Sprintf("%v: %s: panic: %v", ErrEvalPanic, e.key, e.val)
}
func (e *evalPanic) Unwrap() error { return ErrEvalPanic }

// Measurement is one confirmed run.
type Measurement struct {
	Makespan uint64
	Messages int64
	Values   int64
}

// wrongAnswer is a run that completed with a result the sequential reference
// rejects.
type wrongAnswer struct {
	key string
	err error
}

func (e *wrongAnswer) Error() string { return e.key + " computes the wrong answer: " + e.err.Error() }
func (e *wrongAnswer) Unwrap() error { return e.err }

// measure runs a built candidate and validates its result. With tr non-nil
// it traces the run into tr and captures it for the analyzer.
func measure(ctx context.Context, w *Workload, c Candidate, b *built, ins map[string]*istruct.Matrix, cfg machine.Config, tr *trace.Log) (Measurement, *analysis.Dump, error) {
	cfg.Tracer = tr
	out, err := b.img.Run(ctx, cfg, ins)
	if err != nil {
		return Measurement{}, nil, err
	}
	if err := w.validate(out, b); err != nil {
		return Measurement{}, nil, &wrongAnswer{key: c.Key(), err: err}
	}
	m := Measurement{Makespan: uint64(out.Stats.Makespan), Messages: out.Stats.Messages, Values: out.Stats.Values}
	if tr != nil {
		return m, analysis.NewDump(cfg, tr), nil
	}
	return m, nil, nil
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
	s := &search{ctx: ctx, w: w, cfg: cfg, opts: opts,
		rep: &Report{Workload: w.Name, Procs: cfg.Procs, Defines: w.Defines}}
	// The program as declared: the anchor compiles it, and its mapping is
	// the default reference.
	declared, _, err := w.compileAll(nil, nil, cfg.Procs)
	if err != nil {
		return nil, fmt.Errorf("autotune: baseline does not compile: %w", err)
	}
	if err := s.enumerate(declared); err != nil {
		return nil, err
	}
	anchorErr := s.tier1(declared)
	if err := ctx.Err(); err != nil {
		// A mapping never handed out has no results to report.
		s.results = slices.DeleteFunc(s.results, func(r Result) bool { return r == Result{} })
		return s.interrupted(err)
	}
	if anchorErr != nil {
		return nil, anchorErr
	}
	modeled, err := s.tier2()
	if err != nil {
		return s.interrupted(err)
	}
	mIdx, errs := s.tier3(modeled)
	if err := ctx.Err(); err != nil {
		return s.interrupted(err)
	}
	if err := s.crown(mIdx, errs); err != nil {
		return nil, err
	}
	s.rep.Results = orderResults(s.results)
	return s.rep, nil
}

// A search is one run of SearchCtx: its candidates, what each tier made of
// them, and the report it fills.
type search struct {
	ctx  context.Context
	w    *Workload
	cfg  machine.Config
	opts Options
	rep  *Report
	// cands stays sorted by key, and keys[i] is cands[i]'s key, rendered
	// once: every later test and sort of a candidate reads it. seed[i] is
	// cands[i]'s seed rank, or -1.
	cands   []Candidate
	keys    []string
	seed    []int
	results []Result
	imgs    []*image                   // each candidate's image, from tier 1
	ins     map[string]*istruct.Matrix // the run inputs, from the anchor
}

// An image is one distinct compiled stage of the search and what each tier
// made of it. Twins — the candidates of a mapping whose stages are the same
// programs, because a pass applied nowhere — share one record, created in
// tier 1, so they share its lowering, walk, replay and run by construction.
// Each tier's part is filled by the first twin to reach it, and only once its
// work has returned: work that panicked is tried again by the next twin.
type image struct {
	// Tier 1: the lowered image (kept when the walk is unmodeled, for tier 3
	// to run) and its static score.
	b       *built
	static  uint64
	walkErr error
	// Tier 2: the profile the replay reads and the predicted makespan.
	pf      *Profile
	pred    uint64
	predErr error
	// Tier 3: the run, and the trace of an image tier 1 could not model.
	m      Measurement
	d      *analysis.Dump
	runErr error
	// Which tiers' parts are filled; each is set last.
	walked, replayed, ran bool
}

// walk is tier 1's work on the image: lower its stage and score it. A walk
// the image's control flow defeats (*ErrUnmodeled) keeps what it lowered.
func (im *image) walk(info *sem.Info, st xform.Stage, cfg machine.Config) error {
	if !im.walked {
		if im.b, im.walkErr = lower(info, st, cfg.Procs); im.walkErr == nil {
			im.static, im.walkErr = score(im.b.img, cfg)
		}
		im.walked = true
	}
	return im.walkErr
}

// replay is tier 2's work on the image: walk it again, into the profile the
// replay reads, and predict its makespan.
func (im *image) replay(cfg machine.Config) error {
	if !im.replayed {
		if im.pf, im.predErr = profileOf(im.b.img, cfg); im.predErr == nil {
			im.pred, im.predErr = im.pf.Predict(cfg)
		}
		im.replayed = true
	}
	return im.predErr
}

// run is tier 3's work on the image: run it on the simulated machine and
// validate its result. An unmodeled image runs traced: it has no profile to
// replay, so its trace is what attributes it should it win.
func (im *image) run(s *search, c Candidate, traced bool) error {
	if !im.ran {
		var tr *trace.Log
		if traced {
			tr = trace.New()
		}
		im.m, im.d, im.runErr = measure(s.ctx, s.w, c, im.b, s.ins, s.cfg, tr)
		im.ran = true
	}
	return im.runErr
}

// emit hands p to the Progress callback, if there is one.
func (s *search) emit(p Progress) {
	if s.opts.Progress != nil {
		s.opts.Progress(p)
	}
}

// eval is one candidate evaluation under the worker pool's panic isolation:
// the stage's hook for c, then f. A panic in either comes back as an
// ErrEvalPanic-wrapped error naming c instead of unwinding the pool.
func (s *search) eval(stage string, c Candidate, f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicAsError(c, p)
		}
	}()
	if s.opts.evalHook != nil {
		s.opts.evalHook(stage, c)
	}
	return f()
}

// interrupted finalizes a partial report after context cancellation: every
// result accumulated so far is kept so the caller can still print what the
// search learned, alongside a nonzero ("interrupted") error.
func (s *search) interrupted(err error) (*Report, error) {
	s.rep.Results = orderResults(s.results)
	return s.rep, fmt.Errorf("autotune: search interrupted: %w", err)
}

// enumerate lists the space's candidates, forcing the reference in so the
// winner is never worse than it, and each seeded mapping, expanded across the
// space's pipeline points, with its rank, so tier 2 replays it first. The
// reference is Options.Hand, or else the mapping the checked declared program
// binds to the workload's dist declaration, at opt3 with block size 8.
func (s *search) enumerate(declared *sem.Info) error {
	hand := s.opts.Hand
	if hand == nil {
		d, ok := declared.Decomps[s.w.Dist]
		if !ok {
			return fmt.Errorf("autotune: the program maps nothing by dist %s", s.w.Dist)
		}
		hand = &Candidate{Mapping: mappingOf(d.Kind, d.Args), Mode: "opt3", Blk: 8}
	}
	s.rep.Hand = hand.Key()
	s.cands, s.keys = s.opts.Space.enumerate(s.cfg.Procs)
	s.rep.Enumerated = len(s.cands)
	force := func(c Candidate, key string) {
		if at, found := slices.BinarySearch(s.keys, key); !found {
			s.cands, s.keys = slices.Insert(s.cands, at, c), slices.Insert(s.keys, at, key)
		}
	}
	force(*hand, s.rep.Hand)
	seedRank := map[string]int{}
	for _, m := range s.opts.Seed {
		if err := m.Validate(int64(s.cfg.Procs)); err != nil {
			continue
		}
		for _, pp := range s.opts.Space.pipelinePoints() {
			c := Candidate{Mapping: m, Mode: pp.mode, Blk: pp.blk}
			key := c.Key()
			if _, ok := seedRank[key]; ok {
				continue
			}
			seedRank[key] = len(seedRank) + 1 // so an unseeded key reads 0
			force(c, key)
		}
	}
	s.seed = make([]int, len(s.cands))
	for i, key := range s.keys {
		s.seed[i] = seedRank[key] - 1
	}
	return nil
}

// tier1 compiles and walks everything, one mapping per pool task (see
// mapping), and returns the anchor's error.
//
// The anchor is the pool's task 0, beside the mappings: tier 1 only compiles
// and walks, and trusts nothing the anchor decides, while tiers 2 and 3 start
// only once the pool has drained. It runs the program as annotated, traced,
// and demands that the walked profile's replayed timeline be that trace,
// event for event, before the model is trusted anywhere else. If it fails,
// the mappings' work is discarded; a panic in it is held until the pool
// drains and then raised on the caller's goroutine.
func (s *search) tier1(declared *sem.Info) error {
	s.results = make([]Result, len(s.cands))
	s.imgs = make([]*image, len(s.cands))
	groups := groupBy(len(s.cands), func(i int) Mapping { return s.cands[i].Mapping })
	var anchorErr error
	var anchorPanic any
	forEach(s.ctx, 1+len(groups), s.opts.Workers, func(task int) {
		if task > 0 {
			s.mapping(groups[task-1])
			return
		}
		defer func() { anchorPanic = recover() }()
		anchorErr = s.anchor(declared)
	})
	if anchorPanic != nil {
		panic(anchorPanic)
	}
	return anchorErr
}

// mapping is tier 1 for one mapping's candidates: they share one retarget,
// one check and one resolution of the entry, and differ only in the pass
// suffix xform.CompileAll applies. Each distinct stage gets one image, which
// is lowered and walked once for all its twins. What it lowers to is kept:
// tiers 2 and 3 read it. What it walks to is not: the walk is matched in a
// pooled scratch, so a deadlock or a mismatched value count shows here, and
// only its static score is kept. A candidate whose front half, lowering or
// walk panics is recorded as infeasible (with the panic message, under its
// own key) instead of crashing the pool.
func (s *search) mapping(idx []int) {
	m := s.cands[idx[0]].Mapping
	points := make([]xform.Point, len(idx))
	for k, i := range idx {
		points[k] = xform.Point{Mode: s.cands[i].Mode, Blk: s.cands[i].Blk}
	}
	var info *sem.Info
	var stages []xform.Stage
	frontErr := s.eval("compile", Candidate{Mapping: m}, func() (err error) {
		info, stages, err = s.w.compileAll(&m, points, s.cfg.Procs)
		return err
	})
	// A stage's image, by its first program; a failed stage, by its index,
	// has its own.
	images := map[any]*image{}
	for k, i := range idx {
		c, r := s.cands[i], &s.results[i]
		*r = Result{Candidate: c}
		err := frontErr
		if p, ok := err.(*evalPanic); ok {
			err = panicAsError(c, p.val) // each candidate under its own key
		}
		if err == nil {
			st, key := stages[k], any(k)
			if st.Err == nil {
				key = st.Progs[0]
			}
			if images[key] == nil {
				images[key] = &image{}
			}
			im := images[key]
			s.imgs[i] = im
			err = s.eval("static", c, func() error { return im.walk(info, st, s.cfg) })
		}
		var um *ErrUnmodeled
		switch {
		case err == nil:
			r.Status = StatusPruned
			r.Static = s.imgs[i].static
		case errors.As(err, &um):
			r.Unmodeled = true
			r.Note = um.Reason
		default:
			r.Status = StatusInfeasible
			r.Note = err.Error()
		}
	}
}

// anchor measures the declared program traced and checks the model against
// it: the walked profile's replayed timeline must be the trace, event for
// event — every compute span, message and wait of every process, so the
// makespan and the message totals too. The run inputs it builds are the ones
// every later run of the search shares.
//
// It walks and replays first, then runs: the run's log expects the replayed
// timeline, so it stores no second copy of it while the two agree. If the
// walk or the replay fails, the run's log stores, and the run's own errors
// still come first.
func (s *search) anchor(declared *sem.Info) error {
	c := Candidate{Mode: s.opts.BaselineMode, Blk: s.opts.BaselineBlk}
	if s.opts.evalHook != nil {
		s.opts.evalHook("anchor", c)
	}
	b, err := lower(declared, xform.CompileAll(declared, s.w.Entry, []xform.Point{{Mode: c.Mode, Blk: c.Blk}})[0], s.cfg.Procs)
	if err != nil {
		return fmt.Errorf("autotune: baseline does not compile: %w", err)
	}
	if s.ins, err = exec.PatternInputs(b.info, s.w.Entry); err != nil {
		return err
	}
	sc := getScratch() // the walk is replayed where it was matched
	defer sc.release()
	var replayed *analysis.Dump
	var replayErr error
	_, _, walkErr := sc.walk(b.img, s.cfg)
	if walkErr == nil {
		replayed, replayErr = analysis.ReplayDump(sc.acts, analysis.CostsOf(s.cfg))
	}
	tr := trace.New()
	if replayed != nil {
		tr.Expect(replayed.Events)
	}
	m, traced, err := measure(s.ctx, s.w, c, b, s.ins, s.cfg, tr)
	var wrong *wrongAnswer
	if errors.As(err, &wrong) {
		return fmt.Errorf("autotune: baseline computes the wrong answer: %w", wrong.err)
	}
	if err != nil {
		return fmt.Errorf("autotune: baseline run: %w", err)
	}
	if walkErr != nil {
		return fmt.Errorf("autotune: baseline is not statically modelable: %w", walkErr)
	}
	if replayErr != nil {
		return fmt.Errorf("autotune: baseline DAG replay: %w", replayErr)
	}
	for p := range traced.Events {
		if !slices.Equal(replayed.Events[p], traced.Events[p]) {
			return fmt.Errorf("autotune: baseline process %d: the DAG replay's timeline disagrees with the machine's trace", p)
		}
	}
	if s.opts.anchorHook != nil {
		s.opts.anchorHook(replayed, traced)
	}
	s.rep.Baseline = Baseline{
		Mode: s.opts.BaselineMode, Blk: s.opts.BaselineBlk,
		Measured: m.Makespan, Predicted: replayed.Makespan(),
		Messages: m.Messages, Values: m.Values,
	}
	s.emit(Progress{Stage: "baseline", Makespan: m.Makespan})
	s.emit(Progress{Stage: "enumerated", Total: len(s.cands)})
	return nil
}

// tier2 predicts, with a sound prune, and returns how many candidates tier 1
// modeled. The static score is a lower bound on the makespan (busy time can
// only be stretched by waits), so replaying in static order and stopping once
// the bound passes the best prediction is branch-and-bound, not a heuristic:
// a pruned candidate provably cannot win. Keep forces at least that many
// replays regardless of the bound. Only a replayed image is walked again,
// into the profile the replay reads, once for all its twins.
func (s *search) tier2() (int, error) {
	modeled := indicesWhere(s.results, func(r Result) bool { return r.Status == StatusPruned })
	s.emit(Progress{Stage: "static", Done: len(modeled), Total: len(s.cands)})
	sort.SliceStable(modeled, func(a, b int) bool {
		i, j := modeled[a], modeled[b]
		if (s.seed[i] >= 0) != (s.seed[j] >= 0) {
			// Seeded candidates replay first: the incumbent's bound is in
			// place before anything else can be pruned against it.
			return s.seed[i] >= 0
		}
		if s.seed[i] != s.seed[j] {
			return s.seed[i] < s.seed[j]
		}
		if s.results[i].Static != s.results[j].Static {
			return s.results[i].Static < s.results[j].Static
		}
		return s.keys[i] < s.keys[j]
	})
	best, haveBest := uint64(0), false
	for n, i := range modeled {
		if err := s.ctx.Err(); err != nil {
			return 0, err
		}
		r := &s.results[i]
		forced := s.seed[i] >= 0 || s.keys[i] == s.rep.Hand
		if n >= s.opts.Keep && haveBest && r.Static >= best && !forced {
			continue // provably not the winner
		}
		s.rep.Replayed++
		im := s.imgs[i]
		if err := im.replay(s.cfg); err != nil {
			r.Status = StatusInfeasible
			r.Note = err.Error()
			continue
		}
		r.Status = StatusPredicted
		r.Predicted, r.Messages, r.Values = im.pred, im.pf.Messages, im.pf.Values
		if !haveBest || im.pred < best {
			best, haveBest = im.pred, true
		}
	}
	return len(modeled), nil
}

// tier3 confirms on the simulated machine the TopK best-predicted
// candidates, the reference, and every unmodeled candidate (the model cannot
// rank what it cannot walk), one pool task per image, so that twins run it
// once. It returns the candidates it confirmed, in order, and the error of
// each one that failed.
func (s *search) tier3(modeled int) ([]int, []error) {
	predicted := indicesWhere(s.results, func(r Result) bool { return r.Status == StatusPredicted })
	sort.SliceStable(predicted, func(a, b int) bool {
		i, j := predicted[a], predicted[b]
		if s.results[i].Predicted != s.results[j].Predicted {
			return s.results[i].Predicted < s.results[j].Predicted
		}
		return s.keys[i] < s.keys[j]
	})
	if s.opts.Progress != nil {
		top := make([]string, 0, 5)
		for _, i := range predicted[:min(5, len(predicted))] {
			top = append(top, s.keys[i])
		}
		s.emit(Progress{Stage: "predicted", Done: len(predicted), Total: modeled, Top: top})
	}
	confirm := map[int]bool{}
	for n, i := range predicted {
		confirm[i] = n < s.opts.TopK || s.keys[i] == s.rep.Hand
	}
	var mIdx []int
	for i, r := range s.results {
		if confirm[i] || r.Unmodeled {
			mIdx = append(mIdx, i)
		}
	}

	errs := make([]error, len(mIdx))
	images := groupBy(len(mIdx), func(n int) *image { return s.imgs[mIdx[n]] })
	var measuredSoFar atomic.Int64
	forEach(s.ctx, len(images), s.opts.Workers, func(task int) {
		for _, n := range images[task] {
			i := mIdx[n]
			c, r, im := s.cands[i], &s.results[i], s.imgs[i]
			if errs[n] = s.eval("measure", c, func() error { return im.run(s, c, r.Unmodeled) }); errs[n] != nil {
				continue
			}
			r.Status = StatusMeasured
			r.Measured, r.Messages, r.Values = im.m.Makespan, im.m.Messages, im.m.Values
			s.emit(Progress{Stage: "measured", Candidate: s.keys[i],
				Makespan: im.m.Makespan, Done: int(measuredSoFar.Add(1)), Total: len(mIdx)})
		}
	})
	return mIdx, errs
}

// crown settles tier 3's outcome, picks the winner, quotes the reference's
// regret and attributes the winner's makespan.
func (s *search) crown(mIdx []int, errs []error) error {
	for n, err := range errs {
		if err != nil {
			// A candidate that compiles and models but fails to run (or runs
			// wrong) is a model violation for modeled candidates, a mere
			// infeasibility for unmodeled ones. A panicking evaluation is
			// never a model violation: the pool isolated it, so it is just
			// recorded and the search carries on.
			i := mIdx[n]
			if !s.results[i].Unmodeled && !errors.Is(err, ErrEvalPanic) {
				return fmt.Errorf("autotune: modeled candidate %s failed to run: %w", s.keys[i], err)
			}
			s.results[i].Status = StatusInfeasible
			s.results[i].Note = err.Error()
		}
	}

	// The invariant that makes the report trustworthy: a modeled candidate's
	// measured makespan must equal its DAG-replay prediction, cycle for cycle.
	winner, handIdx := -1, -1
	for _, i := range mIdx {
		r := s.results[i]
		if r.Status != StatusMeasured {
			continue
		}
		if !r.Unmodeled && r.Predicted != r.Measured {
			return fmt.Errorf("autotune: %s predicted %d but measured %d — the cost model is wrong",
				s.keys[i], r.Predicted, r.Measured)
		}
		if s.keys[i] == s.rep.Hand {
			handIdx = i
		}
		if winner < 0 || r.Measured < s.results[winner].Measured ||
			(r.Measured == s.results[winner].Measured && s.keys[i] < s.keys[winner]) {
			winner = i
		}
	}
	if winner < 0 {
		return errors.New("autotune: no candidate survived to measurement")
	}
	if handIdx < 0 {
		return fmt.Errorf("autotune: reference candidate %s was not measurable", s.rep.Hand)
	}
	s.rep.Winner = s.keys[winner]
	s.rep.Regret = s.results[handIdx].Measured - s.results[winner].Measured

	// The winner's critical path attributes its makespan by cause. A modeled
	// winner's replayed timeline is its run's trace event for event — the
	// anchor demands exactly that of the one run the search traces — so
	// replaying its profile attributes it without running it again.
	d := s.imgs[winner].d
	if d == nil {
		var err error
		if d, err = analysis.ReplayDump(s.imgs[winner].pf.Acts, analysis.CostsOf(s.cfg)); err != nil {
			return fmt.Errorf("autotune: winner replay: %w", err)
		}
	}
	cp, err := d.CriticalPath()
	if err != nil {
		return fmt.Errorf("autotune: winner attribution: %w", err)
	}
	s.rep.Attr = cp.Attr
	s.emit(Progress{Stage: "winner", Candidate: s.rep.Winner, Makespan: s.results[winner].Measured})
	return nil
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
