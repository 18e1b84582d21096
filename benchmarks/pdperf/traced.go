package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/obs"
	"procdecomp/internal/spmd"
	"procdecomp/internal/trace"
)

// The traced run. It replays the selected workload's op list — once with
// tracing off, once counting allocations, once with spans around every call
// into a layer — and the other three workloads for one round each, so every
// per-layer metric has a measured value whichever workload was asked for
// (the selected workload's own samples win where it reaches the layer).
// End-to-end metrics are never taken here.

// searchStaged replays one finished search candidate by candidate, with the
// layer calls autotune makes for each: compile (parse → retarget → sem →
// core → xform), BuildProfile, Static, Predict for the candidates the search
// replayed, and for the ones it confirmed a measurement — compile again,
// input, run, validate against the sequential reference (computed once per
// search, as autotune memoizes it). Every staged measurement must reproduce
// the search's own.
func searchStaged(t *tracer, lane int, id string, w *autotune.Workload, cfg machine.Config, rep *autotune.Report) error {
	root := t.root("search staged", id, lane)
	defer root.end()
	n := w.Defines["N"]
	var want *istruct.Matrix
	measured := 0
	for _, r := range rep.Results {
		if r.Status == autotune.StatusInfeasible {
			continue
		}
		c := r.Candidate
		b := build{src: w.Source, entry: w.Entry, mapping: &c.Mapping, dist: w.Dist,
			procs: cfg.Procs, defines: w.Defines, mode: c.Mode, blk: c.Blk}
		cand := t.start("candidate", root)
		progs, err := compileStaged(t, cand, b)
		if err != nil {
			cand.end()
			return fmt.Errorf("%s: candidate %s: %w", id, c.Key(), err)
		}
		if !r.Unmodeled {
			var pf *autotune.Profile
			err = t.stage("autotune.BuildProfile", cand, "autotune.profile_us", us, "", func() (err error) {
				pf, err = autotune.BuildProfile(progs, cfg)
				return err
			})
			if err == nil {
				err = t.stage("autotune.Static", cand, "autotune.static_us", us, "", func() error {
					if got := pf.Static(cfg); got != r.Static {
						return fmt.Errorf("static bound %d, the search said %d", got, r.Static)
					}
					return nil
				})
			}
			if err == nil && r.Status != autotune.StatusPruned {
				err = t.stage("autotune.Predict", cand, "autotune.predict_us", us, "", func() error {
					got, err := pf.Predict(cfg)
					if err == nil && got != r.Predicted {
						err = fmt.Errorf("predicted %d, the search said %d", got, r.Predicted)
					}
					return err
				})
			}
		}
		if err == nil && r.Status == autotune.StatusMeasured {
			measured++
			m := t.start("measure", cand)
			err = func() error {
				progs, err := compileStaged(t, m, b)
				if err != nil {
					return err
				}
				out, err := runStaged(t, m, progs, cfg.Procs, n)
				if err != nil {
					return err
				}
				if got := uint64(out.Stats.Makespan); got != r.Measured {
					return fmt.Errorf("measured %d, the search said %d", got, r.Measured)
				}
				if want == nil {
					if want, err = oracleStaged(t, m, w.Source, w.Entry, cfg.Procs, n); err != nil {
						return err
					}
				}
				return t.stage("validate", m, "", us, "", func() error {
					return sameMatrix(want, out.Arrays[want.Name()])
				})
			}()
			if d, _ := m.end(); err == nil && !t.countAllocs {
				t.observe("autotune.measure_ms", float64(d)/float64(ms))
			}
		}
		cand.end()
		if err != nil {
			return fmt.Errorf("%s: candidate %s: %w", id, c.Key(), err)
		}
	}
	if !t.countAllocs {
		t.observe("autotune.candidates", float64(len(rep.Results)))
		t.observe("autotune.measured", float64(measured))
	}
	return nil
}

// engineSpans are the spans counted as exec + machine + istruct + the
// sequential oracle when the traced shares are reported.
var engineSpans = map[string]bool{"exec.RunSPMD": true, "wavefront.Run": true, "bench.Input": true, "exec.RunSequential": true}

// section replays one workload inside the traced run.
func (e *env) section(t *tracer, w *workload, selected bool, out map[string]float64) (*tally, error) {
	t.section = w.name
	rounds := 1
	if selected {
		rounds = w.tracedRounds
	}
	inst, c, err := e.setUp(w)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	replay := func(tr *tracer, rounds int) (*tally, *loadStats) {
		if w.rate > 0 && rounds > 0 {
			return e.openLoop(inst, w, w.rate, float64(rounds), tr)
		}
		return e.closedLoop(inst, w, 0, max(rounds, 1), tr), nil
	}

	untraced, load := replay(nil, rounds)
	t.countAllocs = true
	allocRound, _ := replay(t, 0)
	t.countAllocs = false
	var before, after *obs.Scrape
	if inst.scrape != nil {
		if before, err = inst.scrape(t); err != nil {
			return nil, err
		}
	}
	from := len(t.spans)
	traced, _ := replay(t, rounds)
	if inst.scrape != nil {
		if after, err = inst.scrape(t); err != nil {
			return nil, err
		}
		evalMS, queueMS := serveLayers(t, before, after, traced)
		if http := t.samples["serve.http_ms"][w.name]; len(http) > 0 {
			// What a cold /run costs beyond waiting for and occupying a
			// worker: transport, admission, encode.
			t.observe("serve.overhead_ms", median(http)-evalMS-queueMS)
		}
	}
	if load != nil {
		t.observe("load.sent", float64(load.sent))
		t.observe("load.late_p99_ms", quantile(load.lateMS, 0.99))
		t.observe("load.lat_p90_ms", quantile(load.latMS, 0.90))
		t.observe("load.lat_p99_ms", quantile(load.latMS, 0.99))
		step := 0.5 // seconds per rate step
		switch {
		case e.tiny:
			step = 0.2
		case selected:
			step = 3
		}
		t.observe("load.knee_rate_per_s", e.knee(inst, w, step))
	}

	total := &tally{}
	for _, tl := range []*tally{untraced, allocRound, traced} {
		total.add(tl)
	}
	if selected {
		out["raw.setup_s"] = c.rawS
		out["raw.ops_per_s"], out["raw.lat_p50_ms"] = untraced.rawRates()
		out["trace.run_overhead_share"] = traced.wall / untraced.wall
		e.logShares(t, w, from)
	}
	return total, nil
}

// logShares prints where the traced rounds' wall-clock went: for each kind
// of root span, every span name's self time (its duration minus what its
// children cover) as a share of that kind's total, and how much of the
// engine — exec + machine + istruct + the sequential oracle — that is.
func (e *env) logShares(t *tracer, w *workload, from int) {
	child := make([]time.Duration, len(t.spans))
	rootOf := make([]int, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		rootOf[i] = i
		if p := t.spans[i].Parent; p >= from {
			rootOf[i] = rootOf[p]
			child[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	type group struct {
		n     int
		total time.Duration
		self  map[string]time.Duration
	}
	groups := map[string]*group{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		g := groups[t.spans[rootOf[i]].Name]
		if g == nil {
			g = &group{self: map[string]time.Duration{}}
			groups[t.spans[rootOf[i]].Name] = g
		}
		if s.Parent < 0 {
			g.n++
			g.total += s.End - s.Start
		}
		g.self[s.Name] += s.End - s.Start - child[i]
	}
	kinds := make([]string, 0, len(groups))
	for k := range groups {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		g := groups[k]
		names := make([]string, 0, len(g.self))
		var engine time.Duration
		for name, d := range g.self {
			names = append(names, name)
			if engineSpans[name] {
				engine += d
			}
		}
		sort.Slice(names, func(i, j int) bool { return g.self[names[i]] > g.self[names[j]] })
		fmt.Fprintf(e.log, "pdperf: %s: %d %q spans, mean %.3f ms each; self time by span:\n",
			w.name, g.n, k, float64(g.total)/float64(g.n)/float64(ms))
		for _, name := range names {
			fmt.Fprintf(e.log, "pdperf:   %-24s %6.2f%%\n", name, 100*float64(g.self[name])/float64(g.total))
		}
		fmt.Fprintf(e.log, "pdperf:   exec+machine+istruct+oracle = %.1f%%\n", 100*float64(engine)/float64(g.total))
	}
}

// serveLayers turns the /metrics deltas over the traced rounds into the
// server-side per-layer metrics.
func serveLayers(t *tracer, before, after *obs.Scrape, tl *tally) (evalMS, queueMS float64) {
	delta := func(name string, labels map[string]string) float64 {
		return after.Sum(name, labels) - before.Sum(name, labels)
	}
	completed := delta("pdserve_completed_total", nil)
	busy := delta("pdserve_worker_busy_seconds_total", nil)
	if completed > 0 {
		evalMS = 1000 * busy / completed
		t.observe("serve.eval_ms", evalMS)
	}
	if n := delta("pdserve_queue_wait_seconds_count", nil); n > 0 {
		queueMS = 1000 * delta("pdserve_queue_wait_seconds_sum", nil) / n
		t.observe("serve.queue_wait_ms", queueMS)
	}
	if tl.wall > 0 {
		t.observe("serve.worker_busy_share", busy/(2*tl.wall)) // two workers
	}
	t.observe("serve.shed_count", delta("pdserve_sheds_total", nil))
	hits := delta("pdserve_cache_ops_total", map[string]string{"op": "hit"})
	if lookups := delta("pdserve_cache_lookups_total", nil); lookups > 0 {
		t.observe("serve.cache_hit_share", hits/lookups)
	}
	t.observe("serve.cache_put_count", delta("pdserve_cache_ops_total", map[string]string{"op": "write"}))
	if n := delta("pdserve_journal_fsync_seconds_count", nil); n > 0 {
		t.observe("serve.journal_fsync_ms", 1000*delta("pdserve_journal_fsync_seconds_sum", nil)/n)
	}
	if jobs := delta("pdserve_jobs_total", map[string]string{"state": "accepted"}); jobs > 0 {
		t.observe("serve.journal_appends_per_job", delta("pdserve_journal_appends_total", nil)/jobs)
	}
	return evalMS, queueMS
}

// knee steps the open loop through 1× to 5× the workload's rate and returns
// the highest rate whose p90 met the limit with no growing backlog (the
// step's last reply arrived within the limit of the step's end).
func (e *env) knee(inst *instance, w *workload, step float64) float64 {
	best := 0.0
	for rate := w.rate; rate <= 5*w.rate; rate += w.rate {
		tl, load := e.openLoop(inst, w, rate, step, nil)
		if tl.firstErr != nil && tl.failed > tl.attempted/10 {
			break
		}
		if quantile(load.latMS, 0.90) <= w.limitMS && tl.wall <= step+w.limitMS/1000 {
			best = rate
		}
	}
	return best
}

// probes measures the layers no workload's op calls on its own: the bare
// machine (an 8-process send/recv ring, and 64 virtual processes on 4
// nodes), the cost of the machine's own tracer, the post-run analyzer, and
// the two printers of the SPMD IR.
func probes(t *tracer) error {
	t.section = "probes"
	ring := func(cfg machine.Config, laps int) (time.Duration, uint64, int64, error) {
		m := machine.New(cfg)
		mem0 := markMem()
		start := time.Now()
		err := m.Run(func(p *machine.Proc) {
			next, prev := (p.ID()+1)%p.Procs(), (p.ID()+p.Procs()-1)%p.Procs()
			for i := 0; i < laps; i++ {
				p.Send(next, 1, 1.0)
				p.Recv(prev, 1)
			}
		})
		d := time.Since(start)
		mem1 := markMem()
		if err != nil {
			return 0, 0, 0, err
		}
		st, err := m.Stats()
		return d, mem1.mallocs - mem0.mallocs, st.Messages, err
	}
	for i := 0; i < 5; i++ {
		d, allocs, msgs, err := ring(machine.DefaultConfig(8), 2000)
		if err != nil {
			return fmt.Errorf("ring probe: %w", err)
		}
		t.observe("machine.ring_ns_per_msg", float64(d)/float64(msgs))
		t.observe("machine.ring_allocs_per_msg", float64(allocs)/float64(msgs))
		cfg := machine.DefaultConfig(64)
		cfg.Placement = make([]int, 64)
		for p := range cfg.Placement {
			cfg.Placement[p] = p % 4
		}
		if d, _, msgs, err = ring(cfg, 250); err != nil {
			return fmt.Errorf("mux probe: %w", err)
		}
		t.observe("machine.mux_ns_per_msg", float64(d)/float64(msgs))
	}

	const procs, n = 8, 64
	progs, err := bench.CompileGS(bench.OptimizedIII, procs, n, bench.DefaultBlk)
	if err != nil {
		return err
	}
	irBytes := 0
	for _, p := range progs {
		irBytes += len(spmd.Format(p))
	}
	t.observe("spmd.ir_bytes", float64(irBytes))
	start := time.Now()
	for _, p := range progs {
		spmd.FormatC(p)
	}
	t.observe("spmd.cgen_us", float64(time.Since(start))/float64(us))

	run := func(tr *trace.Log) (time.Duration, machine.Config, error) {
		cfg := machine.DefaultConfig(procs)
		cfg.Tracer = tr
		in := map[string]*istruct.Matrix{"Old": bench.Input(n)}
		start := time.Now()
		_, err := exec.RunSPMD(progs, cfg, in)
		return time.Since(start), cfg, err
	}
	for i := 0; i < 5; i++ {
		plain, _, err := run(nil)
		if err != nil {
			return err
		}
		tr := trace.New()
		withTracer, cfg, err := run(tr)
		if err != nil {
			return err
		}
		t.observe("trace.overhead_share", float64(withTracer)/float64(plain))
		start := time.Now()
		if _, err := analysis.Analyze(analysis.NewDump(cfg, tr), analysis.Options{TopLinks: 8, TopTags: 8}); err != nil {
			return err
		}
		t.observe("analysis.analyze_ms", float64(time.Since(start))/float64(ms))
	}
	return nil
}

// tracedRun produces every per-layer metric for the selected workload and
// writes the spans as Chrome trace JSON.
func (e *env) tracedRun(ws []*workload, sel *workload) (map[string]float64, *tally, error) {
	t := newTracer()
	out := map[string]float64{}
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)
	if err := probes(t); err != nil {
		return nil, nil, err
	}
	// The selected workload goes last, the others in declaration order.
	total := &tally{}
	order := make([]*workload, 0, len(ws))
	for _, w := range ws {
		if w != sel {
			order = append(order, w)
		}
	}
	for _, w := range append(order, sel) {
		tl, err := e.section(t, w, w == sel, out)
		if err != nil {
			return nil, nil, fmt.Errorf("%s section: %w", w.name, err)
		}
		total.add(tl)
	}

	for _, m := range perLayer {
		if _, done := out[m.Name]; done {
			continue
		}
		if v, ok := t.value(m.Name, sel.name); ok {
			out[m.Name] = v
		}
	}
	refs := e.ref.all()
	out["ref.kernel_ms"] = median(refs)
	out["ref.drift_share"] = (quantile(refs, 0.9) - quantile(refs, 0.1)) / median(refs)
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out["go.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	out["go.gc_pause_ms"] = float64(gc1.PauseTotal-gc0.PauseTotal) / float64(ms)
	out["go.heap_peak_mb"] = float64(mem.HeapSys) / (1 << 20)

	path := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.trace.json", sel.name, e.seed))
	if err := t.writeChrome(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(e.log, "pdperf: %d spans written to %s\n", len(t.spans), path)
	return out, total, nil
}
