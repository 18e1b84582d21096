package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"procdecomp/internal/obs"
)

// The serve-side measurement plane: the pdserve_* metric catalog, the HTTP
// instrumentation that stamps every request with an ID, and the
// reconciliation identities that make the numbers trustworthy. The catalog is
// the server's one ledger: Stats reads its counts from it, so no code path
// can bump a count on one side only. VerifyScrape checks what can still
// disagree — the exposition against Stats through the writer → strict parser
// round trip, and identities between counters bumped on different paths —
// and every family is read by an identity, a test, a pdperf metric or a
// DESIGN failure-mode row (TestEveryFamilyHasAReader).

// serverMetrics is the server's metric catalog on one obs.Registry.
type serverMetrics struct {
	reg *obs.Registry

	// HTTP edge, from the instrument middleware: every response, every route.
	httpRequests obs.Counter // route, code

	// Typed responses, from writeResult/writeError/writeAccepted: every 4xx
	// and 5xx carries the cause admission or evaluation assigned it.
	responses obs.Counter // code, cause

	// Admission and the worker pool.
	admitted  obs.Counter
	sheds     obs.Counter // cause: queue_full, fair_share, doomed, draining
	fairSheds obs.Counter // tenant: the fair_share subset, per offender
	degraded  obs.Counter
	completed obs.Counter
	failed    obs.Counter
	panics    obs.Counter
	retries   obs.Counter

	queueDepth  obs.Gauge
	queueWait   obs.Histogram
	workersBusy obs.Gauge
	busySeconds obs.Counter

	// Result cache: lookups are counted at the serve call sites, hits and
	// misses inside the DiskCache — two independent paths that must add up.
	cacheLookups obs.Counter
	cacheOps     obs.Counter // op: hit, miss, write, quarantined, evict
	cacheBytes   obs.Gauge   // installed result bytes on disk

	// Job and decision journals.
	journalAppends     obs.Counter // op: accepted, running, done, failed
	journalErrors      obs.Counter // site: accept, running, finalize, born_done, decision
	journalFsync       obs.Histogram
	journalCompactions obs.Counter // cause: open, threshold, adapt_open, adapt_threshold

	// Async-job lifecycle and event streams.
	jobs   obs.Counter // state: accepted, recovered, requeued, done, failed
	events obs.Counter // outcome: published, dropped_after_terminal, dropped_overflow

	// The adaptation controller, mirrored against Stats.Adapt by VerifyScrape.
	adaptObs      obs.Counter // completed /run observations fed to the profiles
	adaptTriggers obs.Counter // cause: shift
	adaptSearches obs.Counter // outcome: switched, held, failed, panicked, canceled
	adaptSwitches obs.Counter // preference hot-swaps (== searches{switched})
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		httpRequests: r.NewCounter("pdserve_http_requests_total",
			"HTTP responses by route and status code", "route", "code"),
		responses: r.NewCounter("pdserve_responses_total",
			"typed responses by status code and cause", "code", "cause"),
		admitted: r.NewCounter("pdserve_admitted_total",
			"requests admitted to the queue"),
		sheds: r.NewCounter("pdserve_sheds_total",
			"requests refused at admission, by cause", "cause"),
		fairSheds: r.NewCounter("pdserve_fair_sheds_total",
			"fair-share sheds by offending tenant", "tenant"),
		degraded: r.NewCounter("pdserve_degraded_total",
			"/search evaluations admitted with a reduced candidate budget"),
		completed: r.NewCounter("pdserve_completed_total",
			"jobs that finished with a result"),
		failed: r.NewCounter("pdserve_failed_total",
			"jobs that finished with a typed error"),
		panics: r.NewCounter("pdserve_panics_total",
			"evaluation panics caught by worker isolation"),
		retries: r.NewCounter("pdserve_retries_total",
			"panic-retry attempts"),
		queueDepth: r.NewGauge("pdserve_queue_depth",
			"jobs reserved or queued right now"),
		queueWait: r.NewHistogram("pdserve_queue_wait_seconds",
			"measured queue wait at dequeue", nil),
		workersBusy: r.NewGauge("pdserve_workers_busy",
			"workers evaluating a job right now"),
		busySeconds: r.NewCounter("pdserve_worker_busy_seconds_total",
			"cumulative worker-seconds spent evaluating"),
		cacheLookups: r.NewCounter("pdserve_cache_lookups_total",
			"result-cache lookups issued by the server"),
		cacheOps: r.NewCounter("pdserve_cache_ops_total",
			"result-cache operations, by kind", "op"),
		cacheBytes: r.NewGauge("pdserve_cache_bytes",
			"installed result-cache bytes on disk"),
		journalAppends: r.NewCounter("pdserve_journal_appends_total",
			"journal records appended durably, by op", "op"),
		journalErrors: r.NewCounter("pdserve_journal_errors_total",
			"journal appends that failed, by call site", "site"),
		journalFsync: r.NewHistogram("pdserve_journal_fsync_seconds",
			"journal group-commit fsync latency", nil),
		journalCompactions: r.NewCounter("pdserve_journal_compactions_total",
			"journal compaction rewrites, by journal and trigger", "cause"),
		jobs: r.NewCounter("pdserve_jobs_total",
			"async-job lifecycle transitions, by state", "state"),
		events: r.NewCounter("pdserve_events_total",
			"job-stream event publishes, by outcome", "outcome"),
		adaptObs: r.NewCounter("pdserve_adapt_observations_total",
			"completed /run requests observed by the adaptation controller"),
		adaptTriggers: r.NewCounter("pdserve_adapt_triggers_total",
			"re-decomposition searches triggered, by cause", "cause"),
		adaptSearches: r.NewCounter("pdserve_adapt_searches_total",
			"re-decomposition searches settled, by outcome", "outcome"),
		adaptSwitches: r.NewCounter("pdserve_adapt_switches_total",
			"mapping-preference hot-swaps applied"),
	}
	// Pre-touch the fixed label spaces so equal workloads produce identical
	// sample sets.
	for _, c := range []obs.Counter{m.admitted, m.degraded, m.completed,
		m.failed, m.panics, m.retries, m.busySeconds, m.cacheLookups,
		m.adaptObs, m.adaptSwitches} {
		c.Add(0)
	}
	for _, cause := range []string{"queue_full", "fair_share", "doomed", "draining"} {
		m.sheds.Add(0, cause)
	}
	for _, op := range []string{"hit", "miss", "write", "quarantined", "evict"} {
		m.cacheOps.Add(0, op)
	}
	for _, cause := range []string{"open", "threshold", "adapt_open", "adapt_threshold"} {
		m.journalCompactions.Add(0, cause)
	}
	m.adaptTriggers.Add(0, "shift")
	for _, outcome := range []string{"switched", "held", "failed", "panicked", "canceled"} {
		m.adaptSearches.Add(0, outcome)
	}
	for _, op := range []string{"accepted", "running", "done", "failed"} {
		m.journalAppends.Add(0, op)
	}
	for _, state := range []string{"accepted", "recovered", "requeued", "done", "failed"} {
		m.jobs.Add(0, state)
	}
	for _, outcome := range []string{"published", "dropped_after_terminal", "dropped_overflow"} {
		m.events.Add(0, outcome)
	}
	m.queueDepth.Set(0)
	m.workersBusy.Set(0)
	m.cacheBytes.Set(0)
	return m
}

// newRequestID mints a process-unique request ID (the salt keeps IDs from
// colliding across restarts in one log stream).
func (s *Server) newRequestID() string {
	return fmt.Sprintf("r%016x", admitJitter(s.ridSalt, s.ridSeq.Add(1)))
}

// statusWriter captures the response status for the middleware. It forwards
// Flush so the NDJSON event stream keeps its live-tail behavior.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// instrument wraps one route: it adopts the client's X-Request-Id (or mints
// one), carries it in the request context and response header, logs the
// request and response lines, and feeds the edge metrics.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = s.newRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), rid)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-Id", rid)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("route", route), slog.String("tenant", tenantOf(r)))
		h(sw, r)
		elapsed := time.Since(start)
		code := strconv.Itoa(sw.code())
		s.m.httpRequests.Inc(route, code)
		s.log.LogAttrs(ctx, slog.LevelInfo, "response",
			slog.String("route", route), slog.String("code", code),
			slog.Int64("ms", elapsed.Milliseconds()))
	}
}

// publish is the one way events reach a job's stream: it stamps the job ID,
// the originating request ID, and the wall-clock time, then counts what the
// log did with the event. A synchronous job has no stream, and publishing to
// it does nothing. An event published after its stream's terminal event is a
// protocol violation — counted, and the reconciliation check fails the run
// on it.
func (s *Server) publish(j *job, ev Event) {
	if j.log == nil {
		return
	}
	ev.Job = j.id
	ev.Req = j.RID
	ev.WallMS = time.Now().UnixMilli()
	switch j.log.publish(ev) {
	case published:
		s.m.events.Inc("published")
	case droppedTerminal:
		s.m.events.Inc("dropped_after_terminal")
	case droppedOverflow:
		s.m.events.Inc("dropped_overflow")
	}
}

// journalAppend wraps journal.Append with the bookkeeping every call site
// owes: the per-op append counter on success, and on failure the per-site
// error counter plus a structured log line. The error is returned so sites
// whose durability contract requires the record (the accepted record before
// a 202) can refuse; best-effort sites log and move on.
func (s *Server) journalAppend(ctx context.Context, site string, rec journalRec) error {
	if s.journal == nil {
		return nil
	}
	if err := appendJob(s.journal, rec); err != nil {
		s.m.journalErrors.Inc(site)
		s.log.LogAttrs(ctx, slog.LevelWarn, "journal append failed",
			slog.String("site", site), slog.String("op", rec.Op),
			slog.String("job", rec.ID), slog.String("error", err.Error()))
		return err
	}
	s.m.journalAppends.Inc(rec.Op)
	return nil
}

// cacheGet counts one server-issued cache lookup and performs it. Every Get
// must come through here: the lookup counter pairs with the hit/miss
// counters the DiskCache reports itself, and the reconciliation identity
// lookups == hits + misses is what detects a path counting only one side.
func (s *Server) cacheGet(key string) ([]byte, bool) {
	if s.cache == nil {
		return nil, false
	}
	s.m.cacheLookups.Inc()
	return s.cache.Get(key)
}

// WriteMetrics refreshes the gauges kept elsewhere — the admission
// controller's occupancy and the cache's installed bytes — and writes the
// registry in Prometheus text exposition format.
func (s *Server) WriteMetrics(w io.Writer) error {
	queued, _, _ := s.adm.snapshot()
	s.m.queueDepth.Set(float64(queued))
	s.m.cacheBytes.Set(float64(s.cache.Stats().Bytes))
	return s.m.reg.WritePrometheus(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// handleLogz serves the in-memory structured log ring: every retained line,
// or just one request's lines with ?req=<id>.
func (s *Server) handleLogz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.ring.Lines(r.URL.Query().Get("req")))
}

// allowedCauses is the response-cause contract: every typed response's cause
// label must come from its status code's set — a 429 is always queue_full or
// fair_share, a 504 always deadline or doomed, and so on.
var allowedCauses = map[string]map[string]bool{
	"200": {"ok": true},
	"202": {"accepted": true},
	"400": {"invalid": true},
	"404": {"notfound": true},
	"422": {"program": true},
	"429": {"queue_full": true, "fair_share": true},
	"500": {"panic": true, "internal": true},
	"503": {"draining": true, "shutdown": true},
	"504": {"deadline": true, "doomed": true},
}

// VerifyScrape checks a parsed /metrics scrape against the server's own
// Stats snapshot and the catalog's identities. Stats reads the registry the
// scrape was written from, so a scrape-vs-Stats mismatch means the exposition
// lost or changed a sample on its way through the writer and the parser; a
// broken identity means a code path counted one side of a pair and not the
// other — a metric that lies. Valid after drain (the gauges must be at rest
// and every admitted job settled).
func VerifyScrape(sc *obs.Scrape, st Stats) error {
	var bad []string
	flunk := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	want := func(name string, labels map[string]string, want float64) {
		if got := sc.Sum(name, labels); got != want {
			flunk("%s%v = %v, want %v", name, labels, got, want)
		}
	}
	cause := func(c string) map[string]string { return map[string]string{"cause": c} }

	// Scrape vs Stats: every admission, pool, job, cache and journal count,
	// through the exposition round trip.
	want("pdserve_admitted_total", nil, float64(st.Accepted))
	want("pdserve_sheds_total", cause("queue_full"), float64(st.Shed-st.FairShed))
	want("pdserve_sheds_total", cause("fair_share"), float64(st.FairShed))
	want("pdserve_sheds_total", cause("doomed"), float64(st.Doomed))
	want("pdserve_sheds_total", cause("draining"), float64(st.Rejected))
	want("pdserve_fair_sheds_total", nil, float64(st.FairShed))
	want("pdserve_degraded_total", nil, float64(st.Degraded))
	want("pdserve_completed_total", nil, float64(st.Completed))
	want("pdserve_failed_total", nil, float64(st.Failed))
	want("pdserve_panics_total", nil, float64(st.Panics))
	want("pdserve_retries_total", nil, float64(st.Retries))
	state := func(s string) map[string]string { return map[string]string{"state": s} }
	want("pdserve_jobs_total", state("accepted"), float64(st.Jobs.Accepted))
	want("pdserve_jobs_total", state("recovered"), float64(st.Jobs.Recovered))
	want("pdserve_jobs_total", state("requeued"), float64(st.Jobs.Requeued))
	want("pdserve_jobs_total", state("done"), float64(st.Jobs.Done))
	want("pdserve_jobs_total", state("failed"), float64(st.Jobs.Failed))
	op := func(o string) map[string]string { return map[string]string{"op": o} }
	want("pdserve_cache_ops_total", op("hit"), float64(st.Cache.Hits))
	want("pdserve_cache_ops_total", op("miss"), float64(st.Cache.Misses))
	want("pdserve_cache_ops_total", op("write"), float64(st.Cache.Writes))
	want("pdserve_cache_ops_total", op("quarantined"), float64(st.Cache.Quarantined))
	want("pdserve_cache_ops_total", op("evict"), float64(st.Cache.Evictions))
	want("pdserve_cache_bytes", nil, float64(st.Cache.Bytes))
	want("pdserve_journal_compactions_total", cause("open"), float64(st.Journal.OpenCompactions))
	want("pdserve_journal_compactions_total", cause("threshold"), float64(st.Journal.ThresholdCompactions))
	want("pdserve_journal_compactions_total", cause("adapt_open"), float64(st.Journal.AdaptOpenCompactions))
	want("pdserve_journal_compactions_total", cause("adapt_threshold"), float64(st.Journal.AdaptThresholdCompactions))

	// The adaptation plane: scrape vs the controller's own counters, plus the
	// internal identities — every trigger settles as exactly one search
	// outcome, and every switch is a switched search.
	outcome := func(o string) map[string]string { return map[string]string{"outcome": o} }
	want("pdserve_adapt_observations_total", nil, float64(st.Adapt.Observations))
	want("pdserve_adapt_triggers_total", nil, float64(st.Adapt.Triggers))
	want("pdserve_adapt_searches_total", outcome("switched"), float64(st.Adapt.Switched))
	want("pdserve_adapt_searches_total", outcome("held"), float64(st.Adapt.Held))
	want("pdserve_adapt_searches_total", outcome("failed"), float64(st.Adapt.Failed))
	want("pdserve_adapt_searches_total", outcome("panicked"), float64(st.Adapt.Panicked))
	want("pdserve_adapt_searches_total", outcome("canceled"), float64(st.Adapt.Canceled))
	if trig, settledSearches := sc.Sum("pdserve_adapt_triggers_total", nil), sc.Sum("pdserve_adapt_searches_total", nil); trig != settledSearches {
		flunk("adapt triggers %v != settled searches %v", trig, settledSearches)
	}
	if sw, won := sc.Sum("pdserve_adapt_switches_total", nil), sc.Sum("pdserve_adapt_searches_total", outcome("switched")); sw != won {
		flunk("adapt switches %v != searches{switched} %v", sw, won)
	}

	// Conservation: every admitted or requeued job settled exactly once.
	admitted := sc.Sum("pdserve_admitted_total", nil)
	requeued := sc.Sum("pdserve_jobs_total", state("requeued"))
	settled := sc.Sum("pdserve_completed_total", nil) + sc.Sum("pdserve_failed_total", nil)
	if admitted+requeued != settled {
		flunk("conservation: admitted %v + requeued %v != completed+failed %v", admitted, requeued, settled)
	}
	// Every acknowledged job reached exactly one terminal state.
	jAccepted := sc.Sum("pdserve_jobs_total", state("accepted"))
	jSettled := sc.Sum("pdserve_jobs_total", state("done")) + sc.Sum("pdserve_jobs_total", state("failed"))
	if jAccepted+requeued != jSettled {
		flunk("jobs accepted %v + requeued %v != done+failed %v", jAccepted, requeued, jSettled)
	}
	// Every cache lookup the server issued was a hit or a miss — the two
	// sides are counted in different components.
	lookups := sc.Sum("pdserve_cache_lookups_total", nil)
	if hm := sc.Sum("pdserve_cache_ops_total", op("hit")) + sc.Sum("pdserve_cache_ops_total", op("miss")); lookups != hm {
		flunk("cache lookups %v != hits+misses %v", lookups, hm)
	}
	// Every typed response's cause belongs to its status code.
	for _, smp := range sc.Series("pdserve_responses_total") {
		code, c := smp.Labels["code"], smp.Labels["cause"]
		if !allowedCauses[code][c] {
			flunk("response code %s with cause %q (count %v)", code, c, smp.Value)
		}
	}
	// The HTTP edge and the typed-response ledger agree on the codes only
	// writeError can produce.
	for _, code := range []string{"429", "504"} {
		edge := sc.Sum("pdserve_http_requests_total", map[string]string{"code": code})
		typed := sc.Sum("pdserve_responses_total", map[string]string{"code": code})
		if edge != typed {
			flunk("http edge saw %v %s responses, typed ledger %v", edge, code, typed)
		}
	}
	// No event ever followed its stream's terminal event.
	if n := sc.Sum("pdserve_events_total", map[string]string{"outcome": "dropped_after_terminal"}); n != 0 {
		flunk("%v events published after their stream's terminal event", n)
	}
	// At rest: nothing queued, nobody busy.
	if d := sc.Sum("pdserve_queue_depth", nil); d != 0 {
		flunk("queue_depth %v after drain", d)
	}
	if b := sc.Sum("pdserve_workers_busy", nil); b != 0 {
		flunk("workers_busy %v after drain", b)
	}

	if len(bad) > 0 {
		return fmt.Errorf("serve: metrics reconciliation failed:\n  %s", joinLines(bad))
	}
	return nil
}

func joinLines(lines []string) string {
	out := lines[0]
	for _, l := range lines[1:] {
		out += "\n  " + l
	}
	return out
}
