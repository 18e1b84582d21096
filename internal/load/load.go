// Package load is the one driver for the serve package. client.go boots an
// in-process pdserve (real TCP listener, real HTTP client), gates on /readyz
// and, at the end, drains it, scrapes /metrics and reconciles the scrape with
// the server's own Stats — once, for every scenario. The scenarios are plain
// functions over that *Target: the storm in this file (mixes "chaos" and
// "tame"), the self-check it also runs (mix "smoke"), and the workload-shift
// experiment in phase.go.
//
// The storm drives thousands of concurrent mixed requests — synchronous
// compile/run/search/trace, durable async jobs, NDJSON event streams, doomed
// deadlines, mid-flight client disconnects, and server-injected panics —
// recording latency percentiles, every outcome class, and the two
// robustness gates the service promises under overload:
//
//   - no hung connections: every request reaches a terminal outcome inside
//     the harness's generous client bound, even while the server sheds,
//     degrades, panics, and retries;
//   - determinism under chaos: every 200 body is hashed under its
//     (template, degradation-budget) identity, and two bodies with the same
//     identity must be byte-identical — within a run and across repeated
//     seeded runs.
package load

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"procdecomp/internal/serve"
)

// Config shapes one load run.
type Config struct {
	// Requests is the total operation count (default 5000); Concurrency the
	// number of concurrent client goroutines (default 2000 — more clients
	// than the server has queue slots, which is the point).
	Requests    int
	Concurrency int
	// Seed drives every random choice: the request mix, tenants, timeouts,
	// and disconnects. Equal seeds produce equal request sequences.
	Seed uint64
	// Mix selects the operation mix: "chaos" (default) includes mid-flight
	// disconnects and deadline-doomed requests; "tame" remaps both to plain
	// synchronous operations, leaving a schedule whose outcome counters are
	// reproducible across runs (disconnect and doom outcomes race the
	// server's progress, so only the tame mix supports exact cross-run
	// counter comparison); "smoke" is the service's self-check — five
	// request shapes round-robin, all synchronous, every other evaluation
	// panicking, every response required to be a 200, then one traced
	// request followed through /logz.
	Mix string
	// Server configures the in-process server under test. Zero values take
	// the serve defaults; the harness leaves chaos knobs to the caller,
	// except under the smoke mix, which fixes PanicEvery and QueueDepth.
	Server serve.Config
	// ClientTimeout is the per-operation hang bound (default 60s): an
	// operation still unresolved past it counts as hung, which fails the
	// harness's gate.
	ClientTimeout time.Duration
}

// jobPoll is the interval between polls of an async job not yet terminal.
const jobPoll = 5 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 5000
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2000
	}
	if c.ClientTimeout <= 0 {
		c.ClientTimeout = 60 * time.Second
	}
	if c.Mix == "" {
		c.Mix = "chaos"
	}
	return c
}

// Percentiles are latency quantiles in milliseconds.
type Percentiles struct {
	P50  float64
	P99  float64
	P999 float64
	Max  float64
}

// Report is the harness's outcome. The gates a CI run should assert on:
// Hung == 0, JobsSubmitted == JobsTerminal, DigestConflicts == 0.
type Report struct {
	Mix         string
	Requests    int
	Concurrency int
	Seed        uint64
	ElapsedMS   int64

	// Statuses counts final HTTP statuses ("200", "429", ...); "disconnect"
	// counts operations the harness itself abandoned mid-flight on purpose.
	Statuses map[string]int

	Sync        int // synchronous endpoint operations
	Jobs        int // POST /jobs + poll-to-terminal operations
	Streams     int // POST /jobs + follow /events operations
	Disconnects int // operations canceled mid-flight by design

	Hung            int // operations with no outcome inside ClientTimeout
	JobsSubmitted   int // 202-acknowledged async jobs
	JobsTerminal    int // of those, observed in a terminal state
	StreamsOpened   int
	StreamsTerminal int // streams that delivered a terminal event
	DegradedReplies int // 200s carrying a degraded-budget marker

	Latency Percentiles

	// Digests maps each (template, degradation-budget) identity to the
	// sha256 of its response body; DigestConflicts counts identities that
	// produced two different bodies in this run (must be 0).
	Digests         map[string]string
	DigestConflicts int

	// Metrics holds every counter sample scraped from /metrics after the
	// drain, keyed by the sample's canonical name{labels} form.
	// MetricsCheck is the outcome of reconciling that scrape against the
	// server's ground-truth Stats: "" when every identity held, else the
	// first violation. Gate(true) makes a non-empty check a failure.
	Metrics      map[string]float64 `json:",omitempty"`
	MetricsCheck string             `json:",omitempty"`

	// Trace is the smoke mix's observability round trip (nil otherwise).
	Trace *TraceCheck `json:",omitempty"`

	// Stats is the server's own view after drain.
	Stats serve.Stats
}

// template is one deterministic request shape in the mix.
type template struct {
	key      string
	endpoint string
	body     serve.Request
}

// templates returns the fixed request mix. Searches are rare and bounded
// (they dominate evaluation cost); most shapes repeat, so the cache and the
// byte-identity gate both get heavy traffic.
func templates() []template {
	var ts []template
	add := func(key, ep string, req serve.Request) {
		ts = append(ts, template{key: key, endpoint: ep, body: req})
	}
	// A small grid keeps one evaluation cheap, so the harness measures the
	// server's overload machinery rather than the simulator's throughput.
	n := map[string]int64{"N": 16}
	for _, procs := range []int{2, 4} {
		for _, mode := range []string{"ctr", "opt2"} {
			add(fmt.Sprintf("compile-p%d-%s", procs, mode), "/compile",
				serve.Request{GS: true, Procs: procs, Mode: mode, Defines: n})
		}
		for _, blk := range []int64{4, 8} {
			add(fmt.Sprintf("compile-p%d-opt3b%d", procs, blk), "/compile",
				serve.Request{GS: true, Procs: procs, Mode: "opt3", Blk: blk, Defines: n})
		}
		add(fmt.Sprintf("run-p%d-opt2", procs), "/run",
			serve.Request{GS: true, Procs: procs, Mode: "opt2", Defines: n})
		add(fmt.Sprintf("run-p%d-opt3b8", procs), "/run",
			serve.Request{GS: true, Procs: procs, Mode: "opt3", Blk: 8, Defines: n})
	}
	add("trace-p2-opt3b8", "/trace", serve.Request{GS: true, Procs: 2, Mode: "opt3", Blk: 8, Defines: n})
	add("search-p2", "/search", serve.Request{GS: true, Procs: 2, Keep: 6, TopK: 2, Defines: n})
	// Deterministic failures keep the error paths hot: a semantic error
	// (422) and a request-shape error (400).
	add("bad-sem", "/run", serve.Request{Source: "proc main() { x := nope(); }", Entry: "main"})
	add("bad-shape", "/run", serve.Request{GS: true, Source: "dead", Entry: "main"})
	return ts
}

// opKind is what one operation does with its template.
type opKind int

const (
	opSync opKind = iota
	opJob
	opStream
	opDisconnect
	opDoomed
)

// plan is the deterministic schedule for one operation index.
type plan struct {
	kind     opKind
	tmpl     int
	tenant   string
	cancelMS int // opDisconnect: client abandons after this many ms
}

// planFor derives operation i's plan from the seed alone, so the request
// sequence is a pure function of (seed, i) regardless of goroutine
// interleaving.
func planFor(seed uint64, i, ntmpl int) plan {
	rng := rand.New(rand.NewSource(int64(mix(seed, uint64(i)))))
	p := plan{tmpl: rng.Intn(ntmpl), tenant: fmt.Sprintf("tenant-%d", rng.Intn(4))}
	switch roll := rng.Intn(100); {
	case roll < 64:
		p.kind = opSync
	case roll < 79:
		p.kind = opJob
	case roll < 92:
		p.kind = opStream
	case roll < 96:
		p.kind = opDisconnect
		p.cancelMS = 1 + rng.Intn(20)
	default:
		p.kind = opDoomed
	}
	return p
}

// tamePlan remaps the racy operation kinds — disconnects and doomed
// deadlines, whose outcomes depend on how far the server got — to plain
// synchronous operations. The schedule stays a pure function of (seed, i);
// only the outcome-nondeterministic kinds are gone.
func tamePlan(p plan) plan {
	if p.kind == opDisconnect || p.kind == opDoomed {
		p.kind = opSync
		p.cancelMS = 0
	}
	return p
}

// mix is splitmix64's finalizer — the same deterministic hash the server
// uses for Retry-After jitter.
func mix(seed, i uint64) uint64 {
	x := seed ^ (i+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// smokeTemplates is the smoke mix's request list, sent round-robin: distinct
// programs for misses, repeats for hits. Small N keeps a run fast even under
// -race.
func smokeTemplates() []template {
	n := map[string]int64{"N": 16}
	return []template{
		{"run-p4-ctr", "/run", serve.Request{GS: true, Procs: 4, Mode: "ctr", Defines: n}},
		{"run-p4-opt3b8", "/run", serve.Request{GS: true, Procs: 4, Mode: "opt3", Blk: 8, Defines: n}},
		{"compile-p4-opt2", "/compile", serve.Request{GS: true, Procs: 4, Mode: "opt2", Defines: n}},
		{"trace-p4-opt3b8", "/trace", serve.Request{GS: true, Procs: 4, Mode: "opt3", Blk: 8, Defines: n}},
		{"run-p8-opt1", "/run", serve.Request{GS: true, Procs: 8, Mode: "opt1", Defines: n}},
	}
}

// Run executes one load run against a fresh in-process server and returns
// the report. The server is drained (not killed) at the end, so its own
// counters in Report.Stats are complete; a drain that had to cancel
// stragglers is an error, not a report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	tmpls := templates()
	switch cfg.Mix {
	case "chaos", "tame":
	case "smoke":
		tmpls = smokeTemplates()
		// Most of the mix is repeats answered from the cache, so only a
		// handful of jobs ever reach the pool; every other one must panic
		// for the isolation path to be exercised at all.
		cfg.Server.PanicEvery = 2
		// The smoke asserts universal success, so the queue must absorb the
		// whole client herd; the storm covers shedding.
		cfg.Server.QueueDepth = cfg.Requests
	default:
		return nil, fmt.Errorf("load: unknown mix %q (want chaos, tame or smoke)", cfg.Mix)
	}
	t, err := Boot(cfg.Server, cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	defer t.Drain() // for the error returns; a second Drain is a no-op

	h := &harness{cfg: cfg, t: t,
		tmpls: tmpls, digests: map[string]string{}, statuses: map[string]int{}}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests {
					return
				}
				h.operate(i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var trace *TraceCheck
	if cfg.Mix == "smoke" {
		if trace, err = traceRoundTrip(t, cfg.ClientTimeout); err != nil {
			return nil, err
		}
	}
	d, err := t.Drain()
	if err != nil {
		return nil, fmt.Errorf("load: the report would describe a server that was cut short: %w", err)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	return &Report{
		Mix: cfg.Mix, Requests: cfg.Requests, Concurrency: cfg.Concurrency, Seed: cfg.Seed,
		ElapsedMS: elapsed.Milliseconds(),
		Statuses:  h.statuses,
		Sync:      h.sync, Jobs: h.jobs, Streams: h.streams, Disconnects: h.disconnects,
		Hung: h.hung, JobsSubmitted: h.jobsSubmitted, JobsTerminal: h.jobsTerminal,
		StreamsOpened: h.streamsOpened, StreamsTerminal: h.streamsTerminal,
		DegradedReplies: h.degraded,
		Latency:         percentiles(h.latencies),
		Digests:         h.digests, DigestConflicts: h.conflicts,
		Metrics: d.Metrics, MetricsCheck: d.Check,
		Trace: trace,
		Stats: d.Stats,
	}, nil
}

// TraceCheck is what the smoke's observability round trip counted; all three
// are non-zero in any report that exists.
type TraceCheck struct {
	WallSpans     int
	MachineEvents int
	LogLines      int
}

// traceRoundTrip drives the correlation contract end to end, over real HTTP:
// one traced request under a known request ID must come back as a stitched
// two-clock-domain Chrome trace, and the same ID must retrieve the structured
// log lines the request produced.
func traceRoundTrip(t *Target, bound time.Duration) (*TraceCheck, error) {
	const rid = "r-smoke-trace"
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	resp, stitched, err := slurp(t.Post(ctx, "/run?trace=1", "", rid, smokeTemplates()[1].body))
	if err != nil {
		return nil, fmt.Errorf("load: traced request: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: traced request: status %d: %.200s", resp.StatusCode, stitched)
	}
	_, logz, err := slurp(t.Get(ctx, "/logz?req="+rid))
	if err != nil {
		return nil, fmt.Errorf("load: /logz: %w", err)
	}
	return traceVerdict(rid, resp.Header.Get("X-Request-Id"), stitched, logz)
}

// traceVerdict checks what the round trip read: the ID echoed in the response
// header, the stitched trace's summary naming that ID with wall spans and
// machine events, and /logz's lines for it.
func traceVerdict(rid, echoed string, stitched, logz []byte) (*TraceCheck, error) {
	if echoed != rid {
		return nil, fmt.Errorf("load: request ID not echoed: got %q, want %q", echoed, rid)
	}
	var doc struct {
		PDObs struct {
			RequestID     string
			WallSpans     int
			MachineEvents int
		} `json:"pdobs"`
	}
	if err := json.Unmarshal(stitched, &doc); err != nil {
		return nil, fmt.Errorf("load: stitched trace does not parse: %w", err)
	}
	switch {
	case doc.PDObs.RequestID != rid:
		return nil, fmt.Errorf("load: trace names request %q, want %q", doc.PDObs.RequestID, rid)
	case doc.PDObs.WallSpans == 0:
		return nil, fmt.Errorf("load: stitched trace has no wall-time service spans")
	case doc.PDObs.MachineEvents == 0:
		return nil, fmt.Errorf("load: stitched trace has no virtual-time machine events")
	}
	var lines []json.RawMessage
	if err := json.Unmarshal(logz, &lines); err != nil {
		return nil, fmt.Errorf("load: /logz does not parse: %w", err)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("load: request %s left no structured log lines", rid)
	}
	return &TraceCheck{doc.PDObs.WallSpans, doc.PDObs.MachineEvents, len(lines)}, nil
}

type harness struct {
	cfg   Config
	t     *Target
	tmpls []template

	mu              sync.Mutex
	statuses        map[string]int
	latencies       []float64
	digests         map[string]string
	conflicts       int
	sync, jobs      int
	streams         int
	disconnects     int
	hung            int
	jobsSubmitted   int
	jobsTerminal    int
	streamsOpened   int
	streamsTerminal int
	degraded        int
}

// bump increments one of the harness's tallies.
func (h *harness) bump(n *int) {
	h.mu.Lock()
	*n++
	h.mu.Unlock()
}

func (h *harness) count(status string) {
	h.mu.Lock()
	h.statuses[status]++
	h.mu.Unlock()
}

func (h *harness) latency(d time.Duration) {
	h.mu.Lock()
	h.latencies = append(h.latencies, float64(d.Microseconds())/1000)
	h.mu.Unlock()
}

// record hashes a 200 body under its (template, budget) identity and flags
// any identity that ever produces different bytes.
func (h *harness) record(tmplKey, budget string, body []byte) {
	key := tmplKey
	if budget != "" {
		key += "@b" + budget
	}
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	h.mu.Lock()
	defer h.mu.Unlock()
	if budget != "" {
		h.degraded++
	}
	if prev, ok := h.digests[key]; ok {
		if prev != digest {
			h.conflicts++
		}
		return
	}
	h.digests[key] = digest
}

// planOf is operation i's plan under the configured mix.
func (h *harness) planOf(i int) plan {
	switch h.cfg.Mix {
	case "smoke":
		return plan{kind: opSync, tmpl: i % len(h.tmpls)}
	case "tame":
		return tamePlan(planFor(h.cfg.Seed, i, len(h.tmpls)))
	}
	return planFor(h.cfg.Seed, i, len(h.tmpls))
}

func (h *harness) operate(i int) {
	p := h.planOf(i)
	t := h.tmpls[p.tmpl]
	switch p.kind {
	case opSync:
		h.bump(&h.sync)
		h.doSync(t, p, 0)
	case opDoomed:
		h.bump(&h.sync)
		// A 1ms budget is doomed the moment there is any queue: the server
		// should shed it at admission (504) or, if idle, still answer.
		h.doSync(t, p, 1)
	case opDisconnect:
		h.bump(&h.disconnects)
		h.doDisconnect(t, p)
	case opJob:
		h.bump(&h.jobs)
		h.doJob(t, p, false)
	case opStream:
		h.bump(&h.streams)
		h.doJob(t, p, true)
	}
}

// lost settles an operation whose request or response failed in transport:
// past the client bound it hung, which fails the gate; otherwise it is an
// "error" outcome.
func (h *harness) lost(ctx context.Context) {
	if ctx.Err() != nil {
		h.bump(&h.hung)
		return
	}
	h.count("error")
}

func (h *harness) doSync(t template, p plan, timeoutMS int64) {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.ClientTimeout)
	defer cancel()
	body := t.body
	body.TimeoutMS = timeoutMS
	start := time.Now()
	resp, payload, err := slurp(h.t.Post(ctx, t.endpoint, p.tenant, "", body))
	if resp != nil {
		h.latency(time.Since(start))
	}
	if err != nil {
		h.lost(ctx)
		return
	}
	h.count(fmt.Sprint(resp.StatusCode))
	if resp.StatusCode == http.StatusOK {
		h.record(t.key, resp.Header.Get("X-Degraded"), payload)
	}
}

func (h *harness) doDisconnect(t template, p plan) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(p.cancelMS)*time.Millisecond)
	defer cancel()
	resp, err := h.t.Post(ctx, t.endpoint, p.tenant, "", t.body)
	if err != nil {
		h.count("disconnect")
		return
	}
	// The response beat the disconnect timer; drain it like a normal reply.
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	h.count(fmt.Sprint(resp.StatusCode))
}

func (h *harness) doJob(t template, p plan, stream bool) {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.ClientTimeout)
	defer cancel()
	start := time.Now()
	resp, ackBody, err := slurp(h.t.Post(ctx, "/jobs", p.tenant, "",
		serve.JobSubmit{Endpoint: t.endpoint, Request: t.body}))
	if resp != nil {
		h.latency(time.Since(start))
	}
	if err != nil {
		h.lost(ctx)
		return
	}
	h.count(fmt.Sprint(resp.StatusCode))
	if resp.StatusCode != http.StatusAccepted {
		return // shed, rejected, invalid: a terminal outcome in itself
	}
	var ack serve.JobAccepted
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		h.count("error")
		return
	}
	h.bump(&h.jobsSubmitted)

	if stream {
		h.bump(&h.streamsOpened)
		if !h.followStream(ctx, ack.ID) {
			h.bump(&h.hung)
			return
		}
		h.bump(&h.streamsTerminal)
	}

	// Poll the job to its terminal state and fetch the result bytes.
	for {
		resp, payload, err := slurp(h.t.Get(ctx, "/jobs/"+ack.ID))
		if err != nil {
			h.lost(ctx)
			return
		}
		if resp.StatusCode == http.StatusAccepted {
			select {
			case <-time.After(jobPoll):
				continue
			case <-ctx.Done():
				h.bump(&h.hung)
				return
			}
		}
		h.bump(&h.jobsTerminal)
		if resp.StatusCode == http.StatusOK {
			h.record(t.key, resp.Header.Get("X-Degraded"), payload)
		}
		return
	}
}

// followStream reads the job's NDJSON event stream to its terminal event.
// Returns false if the stream ended (or the client gave up) without one.
func (h *harness) followStream(ctx context.Context, id string) bool {
	resp, err := h.t.Get(ctx, "/jobs/"+id+"/events")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return false
		}
		if ev.Terminal {
			return true
		}
	}
	return false
}

// percentiles is the one latency summary: the q-quantile of n samples is
// sorted[int(q*n)], clamped to the last element — so the p99 of fewer than a
// hundred samples is the maximum.
func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(q * float64(len(s)))
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Percentiles{P50: at(0.50), P99: at(0.99), P999: at(0.999), Max: s[len(s)-1]}
}

// WriteJSON writes a report (*Report or *PhaseReport) to path, indented and
// newline-terminated.
func WriteJSON(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Gate returns an error when a robustness gate fails: a hung operation, a
// non-terminal acknowledged job, or a byte-identity conflict. With metrics
// set, a failed metrics reconciliation (Report.MetricsCheck) fails the gate
// too. A smoke report promises more: the reconciliation held whether or not
// metrics is set, every outcome was a 200, and panics were injected — a
// smoke run that injected nothing proves nothing about isolating them.
func (r *Report) Gate(metrics bool) error {
	var problems []string
	if r.Hung > 0 {
		problems = append(problems, fmt.Sprintf("%d hung operations", r.Hung))
	}
	if r.JobsTerminal != r.JobsSubmitted {
		problems = append(problems, fmt.Sprintf("%d of %d jobs not terminal", r.JobsSubmitted-r.JobsTerminal, r.JobsSubmitted))
	}
	if r.DigestConflicts > 0 {
		problems = append(problems, fmt.Sprintf("%d byte-identity conflicts", r.DigestConflicts))
	}
	smoke := r.Mix == "smoke"
	if (metrics || smoke) && r.MetricsCheck != "" {
		problems = append(problems, "metrics reconciliation: "+r.MetricsCheck)
	}
	if smoke {
		var other []string
		for status, n := range r.Statuses {
			if status != "200" {
				other = append(other, fmt.Sprintf("%d × %s", n, status))
			}
		}
		if len(other) > 0 {
			sort.Strings(other)
			problems = append(problems, "smoke outcomes other than 200: "+strings.Join(other, ", "))
		}
		if r.Stats.Panics == 0 {
			problems = append(problems, "the chaos knob injected no panics — the isolation path went unexercised")
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("load: gate failed: %s", strings.Join(problems, "; "))
	}
	return nil
}

// CompareDigests checks two seeded runs for byte-identity on every shared
// (template, budget) identity and returns the mismatched keys.
func CompareDigests(a, b map[string]string) []string {
	var bad []string
	for k, av := range a {
		if bv, ok := b[k]; ok && av != bv {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}

// CompareMetrics checks two seeded tame-mix runs for equal counter values
// (CompareCounters) and returns the differing keys. Two families are exempt
// even under the tame mix:
//
//   - timing counters (any family naming "seconds"): wall-clock sums differ
//     between equal runs by construction;
//   - pdserve_http_requests_total: the harness polls /readyz and /jobs/{id}
//     on wall-clock intervals, so the HTTP edge sees a run-dependent number
//     of polls even when every logical outcome is identical.
func CompareMetrics(a, b map[string]float64) []string {
	return CompareCounters(a, b, func(k string) bool {
		return strings.Contains(k, "seconds") || strings.HasPrefix(k, "pdserve_http_requests_total")
	})
}

// CompareCounters returns, sorted, the keys whose values differ between two
// scraped counter maps over the union of their samples (a counter present in
// one and absent in the other differs too), skipping the keys exempt names
// (nil exempts none).
func CompareCounters(a, b map[string]float64, exempt func(key string) bool) []string {
	union := map[string]bool{}
	for k := range a {
		union[k] = true
	}
	for k := range b {
		union[k] = true
	}
	var bad []string
	for k := range union {
		if exempt != nil && exempt(k) {
			continue
		}
		av, aok := a[k]
		bv, bok := b[k]
		if !aok || !bok || av != bv {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}
