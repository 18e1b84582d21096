package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"procdecomp/internal/obs"
)

// opResult is what an op reports for the correctness gate: the simulated
// statistics of the program it ran, which must equal expected.json.
type opResult struct {
	Makespan uint64
	Messages int64
	Winner   string `json:",omitempty"` // searches: the winning candidate's key
}

// An op is one unit of a workload's round. run executes it once; salt is
// unique per execution and seeds whatever must be new each time (cold
// content keys). With a tracer the op records its spans, on the given lane.
type op struct {
	id  string // names the op's entry in expected.json
	run func(t *tracer, lane int, salt uint64) (opResult, error)
}

// A workload names a fixed op list and how it is driven.
type workload struct {
	name, why string
	// clients is the number of closed-loop driver goroutines. rate, when
	// positive, makes the timed section open loop instead: arrivals per
	// second on a seeded schedule over two connections, each timed from the
	// instant it was due and a miss when later than limitMS.
	clients int
	rate    float64
	limitMS float64
	// warmRounds closed-loop rounds run in set-up, before the first timed op.
	warmRounds int
	// tracedRounds is how many rounds the traced run replays, once untraced
	// and once with spans (seconds of slots for the open loop).
	tracedRounds int
	setup        func(e *env, c *chunker) (*instance, error)
}

// An instance is a workload set up and ready for its first timed op.
type instance struct {
	ops []op
	// scrape reads the in-process server's /metrics (nil for the library
	// workloads); the traced run turns its deltas into serve.* metrics.
	scrape func(t *tracer) (*obs.Scrape, error)
	close  func()
}

// env is what one pdperf run shares across workloads.
type env struct {
	seed   uint64
	tiny   bool
	outDir string // trace files and the server's temp dirs; inside the checkout
	log    io.Writer
	ref    *refKernel
	clean  *cleanups
	exp    map[string]opResult
	// learn, when non-nil, collects results in place of checking them: the
	// -update-expected mode.
	learn map[string]opResult
	mu    sync.Mutex
	salt  atomic.Uint64
	// booted lists every server this run started, for the hygiene tests.
	booted []*server
	// expired is set when the watchdog fires: the timed loops stop early.
	expired atomic.Bool
}

// check compares one op's result with its committed expectation.
func (e *env) check(id string, got opResult) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.learn != nil {
		if prev, ok := e.learn[id]; ok && prev != got {
			return fmt.Errorf("%s is not deterministic: %+v then %+v", id, prev, got)
		}
		e.learn[id] = got
		return nil
	}
	want, ok := e.exp[id]
	if !ok {
		return fmt.Errorf("%s has no entry in expected.json", id)
	}
	if got != want {
		return fmt.Errorf("%s: got %+v, expected.json says %+v", id, got, want)
	}
	return nil
}

func (e *env) nextSalt() uint64 { return e.seed<<32 | e.salt.Add(1) }

// roundStat is one round of the timed section (one 1 s slot in open loop).
type roundStat struct {
	wall float64   // seconds
	lats []float64 // per-op latency, ms
	ref  float64   // median of the reference samples around the round, ms
}

// tally accumulates a timed section.
type tally struct {
	rounds []roundStat
	// failed counts ops that errored or returned a wrong output; late counts
	// correct replies that missed the open loop's latency limit. Both are
	// misses for ok_share; only failed makes the run incorrect.
	attempted, failed, late int
	wall                    float64    // seconds, whole section
	sim                     []opResult // one round's results, in op-list order
	firstErr                error
}

// add folds another section's counts into tl.
func (tl *tally) add(o *tally) {
	tl.attempted += o.attempted
	tl.failed += o.failed
	if tl.firstErr == nil {
		tl.firstErr = o.firstErr
	}
}

func (tl *tally) fail(err error) {
	tl.failed++
	if tl.firstErr == nil {
		tl.firstErr = err
	}
}

// runOp executes and checks one op.
func (e *env) runOp(o op, t *tracer, lane int) (opResult, time.Duration, error) {
	start := time.Now()
	res, err := o.run(t, lane, e.nextSalt())
	d := time.Since(start)
	if err == nil {
		err = e.check(o.id, res)
	}
	return res, d, err
}

// closedRound runs the op list once, in the given order, over `clients`
// driver goroutines, and adds the round to the tally.
func (e *env) closedRound(inst *instance, order []int, clients int, t *tracer, tl *tally) {
	n := len(order)
	lats := make([]float64, n)
	results := make([]opResult, len(inst.ops))
	errs := make([]error, n)
	var next atomic.Int64
	drive := func(lane int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			res, d, err := e.runOp(inst.ops[order[i]], t, lane)
			lats[i], errs[i], results[order[i]] = float64(d)/float64(ms), err, res
		}
	}
	start := time.Now()
	if clients <= 1 {
		drive(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				drive(lane)
			}(c)
		}
		wg.Wait()
	}
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		tl.attempted++
		if err != nil {
			tl.fail(err)
		}
	}
	tl.rounds = append(tl.rounds, roundStat{wall: wall, lats: lats})
	tl.wall += wall
	if tl.sim == nil {
		tl.sim = results
	}
}

// closedLoop repeats rounds until `seconds` have been measured (at least
// one), or for exactly `rounds` rounds when rounds > 0.
func (e *env) closedLoop(inst *instance, w *workload, seconds float64, rounds int, t *tracer) *tally {
	// The seed shuffles the op order once; every round has the same
	// composition in the same order.
	order := rand.New(rand.NewSource(int64(e.seed))).Perm(len(inst.ops))
	tl := &tally{}
	// One reference sample before the first round and one after each.
	samples := []float64{e.ref.sample()}
	start := time.Now()
	for r := 0; ; r++ {
		if rounds > 0 && r >= rounds {
			break
		}
		if rounds <= 0 && r > 0 && time.Since(start).Seconds() >= seconds || e.expired.Load() {
			break
		}
		e.closedRound(inst, order, w.clients, t, tl)
		samples = append(samples, e.ref.sample())
	}
	for r, ref := range windowed(samples) {
		tl.rounds[r].ref = ref
	}
	return tl
}

// refQuiet is the stretch at the start of every second of an open-loop run
// that the arrival schedule leaves empty for the reference sample.
const refQuiet = 40 * time.Millisecond

// loadStats describes how the open-loop generator itself behaved.
type loadStats struct {
	sent   int
	lateMS []float64 // send instant minus due instant
	latMS  []float64 // completion minus due instant
}

// openLoop sends round(rate × seconds) requests on a seeded schedule —
// arrival instants independent and uniform over the run, i.e. a Poisson
// process conditioned on its count — over two sender goroutines (two
// keep-alive connections). Latency runs from the instant a request was due,
// so a stall is charged to the requests it delays. The reference kernel is
// sampled once per second on its own goroutine; round = each 1 s slot.
func (e *env) openLoop(inst *instance, w *workload, rate, seconds float64, t *tracer) (*tally, *loadStats) {
	n := int(math.Round(rate * seconds))
	slots := int(math.Ceil(seconds))
	rng := rand.New(rand.NewSource(int64(e.seed)))
	// No arrival falls in the first refQuiet of a second: that is where the
	// reference kernel is sampled, once in-flight requests have drained, so
	// the sample times the box and not the server it shares the box with.
	due := make([]time.Duration, n)
	for i := range due {
		at := time.Duration(rng.Float64() * seconds * float64(time.Second))
		for at%time.Second < refQuiet {
			at = time.Duration(rng.Float64() * seconds * float64(time.Second))
		}
		due[i] = at
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	first := rng.Intn(len(inst.ops)) // the seed picks where the op cycle starts

	lat := make([]float64, n)
	late := make([]float64, n)
	errs := make([]error, n)
	results := make([]opResult, n)
	refs := make([]float64, slots+1)
	var next, inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range refs {
			at := min(time.Duration(k)*time.Second, time.Duration(seconds*float64(time.Second)))
			time.Sleep(time.Until(start.Add(at)))
			for wait := time.Now(); inflight.Load() > 0 && time.Since(wait) < refQuiet/2; {
				time.Sleep(200 * time.Microsecond)
			}
			if e.expired.Load() {
				return
			}
			refs[k] = e.ref.sample()
		}
	}()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || e.expired.Load() {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				sent := time.Now()
				o := inst.ops[(first+i)%len(inst.ops)]
				inflight.Add(1)
				res, err := o.run(t, lane, e.nextSalt())
				inflight.Add(-1)
				if err == nil {
					err = e.check(o.id, res)
				}
				lat[i] = float64(time.Since(at)) / float64(ms)
				late[i] = float64(sent.Sub(at)) / float64(ms)
				errs[i], results[i] = err, res
			}
		}(c)
	}
	wg.Wait()

	tl := &tally{wall: time.Since(start).Seconds(), attempted: n, rounds: make([]roundStat, slots)}
	for k, ref := range windowed(refs) {
		tl.rounds[k] = roundStat{wall: 1, ref: ref}
	}
	for i := range due {
		rs := &tl.rounds[int(due[i]/time.Second)]
		rs.lats = append(rs.lats, lat[i])
		switch {
		case errs[i] != nil:
			tl.fail(errs[i])
		case lat[i] > w.limitMS:
			tl.late++
		}
	}
	// One round's worth of simulated statistics: one pass over the op cycle.
	for i := 0; i < len(inst.ops) && i < n; i++ {
		tl.sim = append(tl.sim, results[i])
	}
	return tl, &loadStats{sent: n, lateMS: late, latMS: lat}
}

// memMark is a reading of the process's cumulative allocation counters.
type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc}
}

// endToEnd turns a timed section into the eight end-to-end metrics (setup_s
// is filled in by the caller).
func (tl *tally) endToEnd(w *workload, mem0, mem1 memMark) map[string]float64 {
	var opsPerS, p50 []float64
	for _, r := range tl.rounds {
		if len(r.lats) == 0 {
			continue
		}
		// A slow box stretches both the op and the reference kernel: scale
		// rates up and times down by how slow the kernel ran.
		opsPerS = append(opsPerS, float64(len(r.lats))/r.wall*r.ref/refNominalMS)
		p50 = append(p50, median(r.lats)*refNominalMS/r.ref)
	}
	ok := tl.attempted - tl.failed - tl.late
	m := map[string]float64{
		"norm_ops_per_s":  median(opsPerS),
		"norm_lat_p50_ms": median(p50),
		"allocs_per_op":   float64(mem1.mallocs-mem0.mallocs) / float64(tl.attempted),
		"alloc_kb_per_op": float64(mem1.bytes-mem0.bytes) / 1024 / float64(tl.attempted),
		"ok_share":        float64(ok) / float64(tl.attempted),
	}
	if w.rate > 0 {
		// Open loop: the schedule, not the box, sets the rate, so there is
		// nothing to correct — this is goodput, ops that met the limit per
		// second of the whole section.
		m["norm_ops_per_s"] = float64(ok) / tl.wall
	}
	cycles := make([]float64, 0, len(tl.sim))
	var messages int64
	for _, r := range tl.sim {
		cycles = append(cycles, float64(r.Makespan))
		messages += r.Messages
	}
	m["sim_cycles_geomean"] = geomean(cycles)
	m["sim_messages"] = float64(messages)
	return m
}

// rawRates is the uncorrected pair behind norm_ops_per_s/norm_lat_p50_ms.
func (tl *tally) rawRates() (opsPerS, p50 float64) {
	var o, p []float64
	for _, r := range tl.rounds {
		if len(r.lats) > 0 {
			o = append(o, float64(len(r.lats))/r.wall)
			p = append(p, median(r.lats))
		}
	}
	return median(o), median(p)
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last instance runs the timed section.
const setupRepeats = 5

// setUp builds one instance: the workload's own set-up (inputs, server
// boot, cache priming) followed by its warm-up rounds, all in pieces the
// chunker corrects one by one.
func (e *env) setUp(w *workload) (*instance, *chunker, error) {
	c := newChunker(e.ref)
	inst, err := w.setup(e, c)
	if err != nil {
		return nil, nil, err
	}
	// Warm-up: warmRounds rounds' worth of ops in eight pieces.
	var warm []op
	for r := 0; r < w.warmRounds; r++ {
		warm = append(warm, inst.ops...)
	}
	per := (len(warm) + 7) / 8
	for len(warm) > 0 && err == nil {
		piece := warm[:min(per, len(warm))]
		warm = warm[len(piece):]
		err = c.do(func() error {
			for _, o := range piece {
				// Warm-up results are not measured, so not checked either:
				// a wrong output is the timed section's to report.
				if _, err := o.run(nil, 0, e.nextSalt()); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		inst.close()
		return nil, nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	return inst, c, nil
}

// result is one untraced run of one workload.
type result struct {
	metrics                 map[string]float64 // the end-to-end metrics
	raw                     map[string]float64 // their uncorrected twins, for the log and -selfcheck
	attempted, failed, late int
	firstErr                error
}

// measure is the untraced run: set up (several times), then the timed
// section for `seconds`.
func (e *env) measure(w *workload, seconds float64) (*result, error) {
	var inst *instance
	var setups, rawSetups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		var c *chunker
		var err error
		if inst, c, err = e.setUp(w); err != nil {
			return nil, err
		}
		setups = append(setups, c.norm())
		rawSetups = append(rawSetups, c.rawS)
	}
	defer inst.close()

	mem0 := markMem()
	var tl *tally
	if w.rate > 0 {
		tl, _ = e.openLoop(inst, w, w.rate, seconds, nil)
	} else {
		tl = e.closedLoop(inst, w, seconds, 0, nil)
	}
	mem1 := markMem()

	res := &result{metrics: tl.endToEnd(w, mem0, mem1), attempted: tl.attempted, failed: tl.failed, late: tl.late, firstErr: tl.firstErr}
	res.metrics["setup_s"] = median(setups)
	rawOps, rawP50 := tl.rawRates()
	if w.rate > 0 {
		rawOps = res.metrics["norm_ops_per_s"]
	}
	res.raw = map[string]float64{"setup_s": median(rawSetups), "norm_ops_per_s": rawOps, "norm_lat_p50_ms": rawP50}
	return res, nil
}
