package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"procdecomp/internal/adapt"
	"procdecomp/internal/durable"
	"procdecomp/internal/machine"
	"procdecomp/internal/obs"
)

// Config tunes the server. The zero value takes the defaults below.
type Config struct {
	// QueueDepth bounds the admission queue (default 64). A request arriving
	// at a full queue is shed immediately with 429 + Retry-After rather than
	// queued without bound.
	QueueDepth int
	// Workers is the fixed evaluation pool size (default 4).
	Workers int
	// DefaultDeadline applies when a request carries no TimeoutMS (default
	// 30s); MaxDeadline clamps what a request may ask for (default 2m). The
	// deadline covers queue wait plus evaluation and propagates into the
	// simulated machine, which aborts at its next cancellation point.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight work past it is
	// canceled (default 10s).
	DrainTimeout time.Duration
	// Retries is how many times a panicking evaluation is retried before the
	// request fails with 500 (default 2). Only panics retry — a compile or
	// run error is deterministic and retrying it would waste the pool.
	Retries int
	// CacheDir, when set, enables the persistent result cache and the
	// durable async-job journal (jobs.journal in the same directory). With
	// no CacheDir, /jobs still works but jobs do not survive a restart.
	CacheDir string
	// CacheMaxBytes caps the disk result cache's installed footprint;
	// least-recently-used entries are evicted past it (0 = unbounded).
	CacheMaxBytes int64
	// JournalCompactEvery folds the job journal (and the adapt decision
	// journal) in place after that many runtime appends, on top of the
	// always-on open-time compaction (default 4096; negative disables
	// runtime folding).
	JournalCompactEvery int
	// Adapt configures the online workload-shift controller. When enabled,
	// completed /run requests feed per-scenario workload profiles, a
	// sustained shift triggers a bounded background re-decomposition search,
	// and the winning mapping is applied to subsequent /run requests.
	Adapt adapt.Config
	// FairShareAt is the queue occupancy fraction at which per-tenant
	// fair-share caps engage (default 0.5): past it, no tenant (X-Tenant
	// header; empty means the anonymous tenant) may hold more than an equal
	// split of the queue. Set >= 1 to disable.
	FairShareAt float64
	// DegradeAt is the smoothed queue occupancy past which /search requests
	// are admitted with a reduced candidate budget instead of full fidelity
	// (default 0.75). Set >= 1 to disable; a negative value forces
	// degradation always (a test knob).
	DegradeAt float64
	// DegradeKeep is the degraded /search candidate budget (default 4): the
	// number of statically ranked candidates replayed, with a single
	// machine confirmation.
	DegradeKeep int
	// AdmitSeed seeds the deterministic Retry-After jitter (default 1).
	AdmitSeed uint64
	// PanicEvery is a chaos knob: every Nth evaluation panics on its first
	// attempt (0 = off). It exists so the smoke test and the soak can drive
	// the panic-isolation path deterministically.
	PanicEvery int
	// LogHandler, when set, receives every structured log record in addition
	// to the in-memory ring behind /logz (nil = ring only, no external
	// output — the right default for tests).
	LogHandler slog.Handler
	// gate, when non-nil, is called by a worker after dequeuing a job and
	// before evaluating it — a test seam: the soak holds workers here to
	// fill the queue deterministically. Set before New; never mutated after.
	gate func(j *job)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.FairShareAt == 0 {
		c.FairShareAt = 0.5
	}
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.75
	}
	if c.DegradeKeep <= 0 {
		c.DegradeKeep = 4
	}
	if c.AdmitSeed == 0 {
		c.AdmitSeed = 1
	}
	switch {
	case c.JournalCompactEvery == 0:
		c.JournalCompactEvery = 4096
	case c.JournalCompactEvery < 0:
		c.JournalCompactEvery = 0
	}
	return c
}

// ErrKind classifies a failed job; it maps one-to-one onto an HTTP status.
type ErrKind string

const (
	KindInvalid  ErrKind = "invalid"  // 400: rejected before any work
	KindShed     ErrKind = "shed"     // 429: queue full or tenant over fair share
	KindDraining ErrKind = "draining" // 503: server is shutting down
	KindDeadline ErrKind = "deadline" // 504: deadline exceeded (or doomed at admission)
	KindCanceled ErrKind = "canceled" // 503: aborted by server shutdown
	KindFailed   ErrKind = "failed"   // 422: the program itself failed
	KindPanic    ErrKind = "panic"    // 500: evaluation panicked, retries exhausted
	KindInternal ErrKind = "internal" // 500: the server could not honor its own contract
	KindNotFound ErrKind = "notfound" // 404: no such job
)

// JobError is the typed failure of one request.
type JobError struct {
	Kind    ErrKind
	Message string
	// Attempts counts evaluation attempts, >1 only after panic retries.
	Attempts int `json:",omitempty"`
	// RetryAfter, when positive, is the derived Retry-After in seconds
	// (shed and draining replies).
	RetryAfter int `json:",omitempty"`
	// cause, when set, overrides the metric cause label derived from Kind —
	// the admission controller distinguishes fair-share from queue-full
	// sheds and doomed from ran-out deadlines this way.
	cause string
}

// causeLabel is the error's cause label on pdserve_responses_total; the
// explicit override wins, otherwise the kind implies it.
func (e *JobError) causeLabel() string {
	if e.cause != "" {
		return e.cause
	}
	switch e.Kind {
	case KindInvalid:
		return "invalid"
	case KindShed:
		return "queue_full"
	case KindDraining:
		return "draining"
	case KindDeadline:
		return "deadline"
	case KindCanceled:
		return "shutdown"
	case KindFailed:
		return "program"
	case KindPanic:
		return "panic"
	case KindNotFound:
		return "notfound"
	default:
		return "internal"
	}
}

func (e *JobError) Error() string {
	return fmt.Sprintf("serve: %s: %s", e.Kind, e.Message)
}

// HTTPStatus maps the failure kind to its response code.
func (e *JobError) HTTPStatus() int {
	switch e.Kind {
	case KindInvalid:
		return http.StatusBadRequest
	case KindShed:
		return http.StatusTooManyRequests
	case KindDraining, KindCanceled:
		return http.StatusServiceUnavailable
	case KindDeadline:
		return http.StatusGatewayTimeout
	case KindFailed:
		return http.StatusUnprocessableEntity
	case KindNotFound:
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// payload is what admission decided about one request: everything a worker
// needs to run it and a restarted server needs to run it again. The job
// embeds it, and the journal's records embed it field for field, so an
// accepted record is the payload's bytes.
type payload struct {
	RID      string `json:",omitempty"` // originating request ID, the log/trace join key
	Endpoint string `json:",omitempty"` // target pipeline
	Tenant   string `json:",omitempty"` // fair-share account
	Key      string `json:",omitempty"` // content key
	// Budget, when positive, is the degraded /search candidate budget
	// admission assigned under saturation.
	Budget int `json:",omitempty"`
	// Mapping, when set, is the adaptation controller's preferred
	// decomposition at admission time: the evaluation retargets the
	// program's dist declaration to it, and the content key is qualified by
	// it so results under different preferences never collide.
	Mapping string   `json:",omitempty"`
	Req     *Request `json:",omitempty"` // the normalized request
}

// job is the one record of one admitted request. It is either queued, to be
// settled by a worker, or born done: settled at birth from a cached result or
// from the outcome a previous process journaled. A /jobs job also has an ID
// and an event log, lives in Server.jobs for the life of the process, and is
// journaled across processes.
type job struct {
	payload
	seq uint64
	// id and log make a /jobs job ("" and nil on the synchronous endpoints).
	id  string
	log *eventLog
	// recovered marks a job re-enqueued from the journal on restart; it
	// bypasses admission accounting (it was admitted in a previous life).
	recovered  bool
	enqueuedAt time.Time // zero for a job born done
	ctx        context.Context
	cancel     context.CancelFunc // nil for a job born done
	// done closes exactly once, when the job turns terminal: result, jerr and
	// chrome are written before it closes and read only after.
	done   chan struct{}
	result []byte // nil for a recovered done job: the cache holds the bytes
	jerr   *JobError
	// spans, when non-nil, records the job's wall-time service spans for
	// trace stitching; wantTrace additionally captures the machine's
	// virtual-time Chrome trace into chrome during evaluation.
	spans     *obs.SpanRecorder
	wantTrace bool
	chrome    []byte
	// panicked marks that the chaos knob already fired for this job, so a
	// retried attempt succeeds instead of panicking forever.
	panicked bool
}

// born reports whether the job was settled at birth and never queued.
func (j *job) born() bool { return j.enqueuedAt.IsZero() }

// terminal reports whether the job has settled: whether done is closed.
func (j *job) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// JobStats counts the async-job lifecycle.
type JobStats struct {
	Accepted  int64 // jobs acknowledged via POST /jobs
	Recovered int64 // journal jobs found on restart (any state)
	Requeued  int64 // recovered jobs re-enqueued to run again
	Done      int64
	Failed    int64
}

// QueueStats snapshots the adaptive admission controller.
type QueueStats struct {
	Depth           int
	Queued          int
	DrainRatePerSec float64
	EstWaitMS       int64
}

// Stats is a point-in-time snapshot of the server's counters. Every count
// is read from the metric catalog, the one place the server keeps it; the
// cache's and the controller's are their own.
type Stats struct {
	Accepted  int64
	Shed      int64 // queue-full and fair-share sheds (429)
	FairShed  int64 // the fair-share subset of Shed
	Doomed    int64 // deadline-doomed requests shed at admission (504)
	Degraded  int64 // /search evaluations run with a reduced candidate budget
	Rejected  int64 // refused while draining
	Completed int64
	Failed    int64
	Panics    int64
	Retries   int64
	Jobs      JobStats
	Queue     QueueStats
	Cache     CacheStats
	Journal   JournalStats
	Adapt     adapt.Stats
}

// JournalStats counts compaction rewrites per journal and trigger, as
// pdserve_journal_compactions_total{cause} does.
type JournalStats struct {
	OpenCompactions           int64 // job journal folds at open
	ThresholdCompactions      int64 // job journal folds at the append threshold
	AdaptOpenCompactions      int64 // decision journal folds at open
	AdaptThresholdCompactions int64 // decision journal folds at the threshold
}

// Server is the fault-tolerant front of the toolchain. Create with New,
// expose Handler on an http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	cache   *DiskCache
	adm     *admission
	journal *durable.Log // nil without a cache directory

	// The adaptation plane: the shift controller, its durable decision
	// journal, and the in-memory decision list behind GET /adapt.
	adapt          *adapt.Controller
	adaptJournal   *durable.Log // nil unless adapting with a cache directory
	adaptMu        sync.Mutex
	adaptDecisions []adapt.Decision
	adaptDecLines  []byte // NDJSON of this process's decisions, append-only

	// The observability plane: the metric catalog, the structured-log ring
	// behind /logz, and the logger every component writes through.
	m    *serverMetrics
	ring *obs.Ring
	log  *slog.Logger

	// ridSalt/ridSeq mint request IDs unique across restarts of one process
	// lineage (the salt is the start time).
	ridSalt uint64
	ridSeq  atomic.Uint64

	baseCtx context.Context
	abort   context.CancelFunc

	queue      chan *job
	workers    sync.WaitGroup
	admissions sync.WaitGroup // one count per job admitted and not yet finished

	mu       sync.Mutex
	draining bool
	shutdown sync.Once

	jobsMu sync.Mutex
	jobs   map[string]*job

	ready atomic.Bool // journal recovery complete; flips off while draining

	seq atomic.Uint64
}

// logLines caps the in-memory structured-log ring behind /logz.
const logLines = 4096

// New starts a server: opens the cache and the job journal (if configured),
// recovers and re-enqueues journal jobs a previous process left unfinished,
// and launches the worker pool. The server reports ready (/readyz) only
// after recovery completes.
func New(cfg Config) (*Server, error) { return newServer(cfg, durable.OS{}) }

// newServer is New over a chosen file system — the seam the crash-point sweep
// substitutes a failing one through.
func newServer(cfg Config, fs durable.FS) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, adm: newAdmission(cfg), jobs: map[string]*job{}}
	s.m = newServerMetrics()
	s.ring = obs.NewRing(logLines, cfg.LogHandler)
	s.log = slog.New(s.ring)
	s.ridSalt = uint64(time.Now().UnixNano())
	s.baseCtx, s.abort = context.WithCancel(context.Background())
	var recovered []*foldedJob
	var restoredStates []adapt.State
	var restoredSeq uint64
	if cfg.CacheDir != "" {
		// One sweep, before anything opens: a temp file stranded by a kill
		// mid-install belongs to no one, while a running log's fold owns one.
		durable.SweepTemps(fs, cfg.CacheDir)
		c, err := openDiskCache(fs, cfg.CacheDir, cfg.CacheMaxBytes, s.m.cacheOps)
		if err != nil {
			return nil, err
		}
		s.cache = c
		j, jobs, maxSeq, err := openJournal(fs, cfg.CacheDir, durable.Options{
			CompactEvery: cfg.JournalCompactEvery,
			OnCompact:    func(cause string) { s.m.journalCompactions.Inc(cause) },
			OnFsync:      func(d time.Duration) { s.m.journalFsync.Observe(d.Seconds()) },
			OnFail:       func(err error) { s.logStopped("job journal", err) },
		})
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.seq.Store(maxSeq)
		recovered = jobs
		if cfg.Adapt.Enabled {
			dj, states, seq, err := openDecisionJournal(fs, cfg.CacheDir, durable.Options{
				CompactEvery: cfg.JournalCompactEvery,
				OnCompact:    func(cause string) { s.m.journalCompactions.Inc("adapt_" + cause) },
				OnFail:       func(err error) { s.logStopped("decision journal", err) },
			})
			if err != nil {
				j.Close() // the job log's writer is already running
				return nil, err
			}
			s.adaptJournal = dj
			restoredStates, restoredSeq = states, seq
		}
	}
	if cfg.Adapt.Enabled {
		s.adapt = adapt.New(cfg.Adapt, restoredStates, restoredSeq,
			adapt.Hooks{Persist: s.persistDecision, Metric: s.adaptMetric})
	}
	// Size the queue for the admission depth plus every recovered re-run:
	// reserved submissions and the recovery sweep can then never block on
	// the channel, so admission decisions stay immediate.
	s.queue = make(chan *job, cfg.QueueDepth+len(recovered))
	s.recover(recovered)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s, nil
}

// logStopped is both logs' OnFail observer: the one line that names why a
// journal fail-stopped. Every append after it is refused with the same error.
func (s *Server) logStopped(which string, err error) {
	s.log.LogAttrs(context.Background(), slog.LevelError, which+" stopped: appends are refused until restart",
		slog.String("error", err.Error()))
}

// recover materializes journal jobs: terminal ones are born done (a done
// job's result is re-read from the cache when served), and
// accepted-but-unfinished ones — including "done" jobs whose cache entry did
// not survive — are re-enqueued and re-run under the deadline their request
// asked for. Acknowledged work is never silently lost.
func (s *Server) recover(jobs []*foldedJob) {
	for _, fj := range jobs {
		s.m.jobs.Inc("recovered")
		done := fj.done
		if done {
			// The journal says done but the result may be gone (torn entry
			// quarantined, cache wiped): re-run rather than serve nothing.
			_, done = s.cacheGet(fj.Key)
		}
		if done || fj.jerr != nil {
			j, _ := s.newJob(fj.payload, 0, fj.id, "", false)
			j.jerr = fj.jerr
			s.settle(j, "")
			continue
		}
		s.m.jobs.Inc("requeued")
		j, _ := s.newJob(fj.payload, s.seq.Add(1), fj.id, "", true)
		j.recovered = true
		s.publish(j, Event{Type: "requeued"})
		s.admissions.Add(1)
		s.queue <- j
	}
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	queued, rate, wait := s.adm.snapshot()
	n := func(c obs.Counter, label ...string) int64 { return int64(c.Value(label...)) }
	m := s.m
	return Stats{
		Accepted: n(m.admitted), Shed: n(m.sheds, "queue_full") + n(m.sheds, "fair_share"),
		FairShed: n(m.sheds, "fair_share"), Doomed: n(m.sheds, "doomed"), Degraded: n(m.degraded),
		Rejected:  n(m.sheds, "draining"),
		Completed: n(m.completed), Failed: n(m.failed),
		Panics: n(m.panics), Retries: n(m.retries),
		Jobs: JobStats{
			Accepted: n(m.jobs, "accepted"), Recovered: n(m.jobs, "recovered"),
			Requeued: n(m.jobs, "requeued"), Done: n(m.jobs, "done"), Failed: n(m.jobs, "failed"),
		},
		Queue: QueueStats{Depth: s.cfg.QueueDepth, Queued: queued,
			DrainRatePerSec: rate, EstWaitMS: wait},
		Cache: s.cache.Stats(),
		Journal: JournalStats{
			OpenCompactions:           n(m.journalCompactions, "open"),
			ThresholdCompactions:      n(m.journalCompactions, "threshold"),
			AdaptOpenCompactions:      n(m.journalCompactions, "adapt_open"),
			AdaptThresholdCompactions: n(m.journalCompactions, "adapt_threshold"),
		},
		Adapt: s.adaptStats(),
	}
}

// deadlineFor resolves a request's deadline budget.
func (s *Server) deadlineFor(req Request) time.Duration {
	deadline := s.cfg.DefaultDeadline
	if req.TimeoutMS > 0 {
		deadline = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	return deadline
}

// submitOpts carries the per-submission observability context: the request
// ID minted at ingress, whether the job is a /jobs job, and whether the
// caller wants a stitched trace (which forces evaluation — a cached answer
// has no machine timeline to stitch).
type submitOpts struct {
	rid   string
	async bool
	trace bool
	spans *obs.SpanRecorder
}

// submit admits one request through the adaptive controller: it refuses
// while draining; sheds on a full queue, on a tenant over its fair share
// under contention, or when the request's deadline is already doomed by the
// measured queue wait; under sustained saturation it admits /search with a
// degraded candidate budget instead of shedding. A request whose answer is
// already cached needs no pool time and is born done: a /jobs request on a
// full-fidelity hit (before admission, as the synchronous endpoints' own
// fast path), any request on a degraded-key hit. opts.async makes it a /jobs
// job, journaled before it is queued so an acknowledged job survives a crash.
//
// Exactly one of the two returns is non-nil: the job, or the typed refusal.
func (s *Server) submit(endpoint string, req Request, tenant string, opts submitOpts) (*job, *JobError) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.sheds.Inc("draining")
		return nil, &JobError{Kind: KindDraining, Message: "server is draining",
			RetryAfter: s.adm.retryAfter(s.seq.Add(1))}
	}
	s.admissions.Add(1)
	s.mu.Unlock()

	p := payload{RID: opts.rid, Endpoint: endpoint, Tenant: tenant,
		Mapping: s.preferredMapping(endpoint, req), Req: &req}
	if opts.async {
		p.Key = contentKey(endpoint, req, 0, p.Mapping)
		if body, ok := s.cacheGet(p.Key); ok {
			defer s.admissions.Done()
			return s.bornDone(p, s.seq.Add(1), opts.async, body)
		}
	}
	seq := s.seq.Add(1)
	dec := s.adm.admit(endpoint, tenant, s.deadlineFor(req), seq, time.Now())
	if dec.shed != nil {
		s.admissions.Done()
		switch {
		case dec.shed.Kind == KindDeadline:
			s.m.sheds.Inc("doomed")
		case dec.reason == "fair":
			s.m.sheds.Inc("fair_share")
			s.m.fairSheds.Inc(tenant)
		default:
			s.m.sheds.Inc("queue_full")
		}
		return nil, dec.shed
	}

	p.Budget, p.Key = dec.budget, contentKey(endpoint, req, dec.budget, p.Mapping)
	if dec.budget > 0 {
		// A saturated server may already hold the degraded answer; serving
		// it costs no pool time, so give the slot back. A traced request
		// skips the shortcut: the trace needs a live evaluation.
		if !opts.trace {
			if body, ok := s.cacheGet(p.Key); ok {
				s.adm.release(tenant)
				defer s.admissions.Done()
				return s.bornDone(p, seq, opts.async, body)
			}
		}
		s.m.degraded.Inc()
	}

	j, jerr := s.newJob(p, seq, jobIDIf(opts.async, seq), "accept", true)
	if jerr != nil {
		s.adm.release(tenant)
		s.admissions.Done()
		return nil, jerr
	}
	j.spans, j.wantTrace = opts.spans, opts.trace
	s.publish(j, Event{Type: "queued", QueuePos: dec.pos})
	if dec.budget > 0 {
		s.publish(j, Event{Type: "degraded", Budget: dec.budget})
	}
	s.m.admitted.Inc()
	// The reservation guarantees a slot: at most QueueDepth reservations are
	// outstanding and the channel holds QueueDepth beyond the recovery jobs.
	s.queue <- j
	return j, nil
}

// jobIDIf is a /jobs job's ID, or "" for a synchronous request.
func jobIDIf(async bool, seq uint64) string {
	if !async {
		return ""
	}
	return jobID(seq)
}

// bornDone settles a job whose result p.Key already holds in the cache. A
// /jobs job is still journaled accepted+done, so a restart re-serves it
// identically; p.Budget is the degraded budget the bytes were cached under (0
// = full fidelity), part of the key a restart looks them up by, and GET
// /jobs/<id> reports it as X-Degraded exactly as a job that ran degraded would.
func (s *Server) bornDone(p payload, seq uint64, async bool, body []byte) (*job, *JobError) {
	j, jerr := s.newJob(p, seq, jobIDIf(async, seq), "born_done", false)
	if jerr != nil {
		return nil, jerr
	}
	j.result = body
	// A cache-hit-born job is still one observed request.
	s.adaptObserve(p.Endpoint, *p.Req, body)
	// Best-effort: without the done record a restart re-runs the job, which
	// re-derives the same cached result.
	s.settle(j, "born_done")
	return j, nil
}

// newJob is the one way a job comes to exist, for submit and recovery alike:
// queued, under the deadline its request asked for, or born done, for its
// caller to settle. A /jobs job (id != "") also gets an event log and is
// registered in s.jobs, its stream opened by "accepted". A new one is
// journaled first, at the call site named by site: its accepted record is
// what a 202 promises, so a failed append refuses the job. A recovered one
// (site "") is in the journal already.
func (s *Server) newJob(p payload, seq uint64, id, site string, queued bool) (*job, *JobError) {
	j := &job{payload: p, seq: seq, id: id, done: make(chan struct{})}
	if queued {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.deadlineFor(*p.Req))
		j.ctx, j.cancel, j.enqueuedAt = obs.WithRequestID(ctx, p.RID), cancel, time.Now()
	} else {
		j.ctx = obs.WithRequestID(context.Background(), p.RID)
	}
	if id == "" {
		return j, nil
	}
	if site != "" {
		if err := s.journalAppend(j.ctx, site, journalRec{Op: "accepted", ID: id, payload: p}); err != nil {
			if j.cancel != nil {
				j.cancel()
			}
			return nil, &JobError{Kind: KindInternal, Message: "job journal write failed: " + err.Error()}
		}
		s.m.jobs.Inc("accepted")
	}
	j.log = newEventLog()
	s.jobsMu.Lock()
	s.jobs[id] = j
	s.jobsMu.Unlock()
	s.publish(j, Event{Type: "accepted"})
	return j, nil
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		now := time.Now()
		if !j.recovered {
			waited := now.Sub(j.enqueuedAt)
			s.adm.dequeued(j.Tenant, waited, now)
			s.m.queueWait.Observe(waited.Seconds())
		}
		if j.spans != nil {
			j.spans.Add("queued", "service", j.enqueuedAt, now, nil)
		}
		if j.id != "" {
			// A failed running marker costs nothing durable — the journal's
			// recovery re-runs unfinished jobs with or without it.
			s.journalAppend(j.ctx, "running", journalRec{Op: "running", ID: j.id})
		}
		s.m.workersBusy.Add(1)
		s.runJob(j)
		s.m.workersBusy.Add(-1)
		s.m.busySeconds.Add(time.Since(now).Seconds())
		j.cancel()
		s.admissions.Done()
	}
}

// terminalEvent is the stream's terminal event for an outcome:
// shutdown-flavored failures stream as "canceled", every other failure as
// "failed".
func terminalEvent(jerr *JobError) Event {
	if jerr == nil {
		return Event{Type: "done", Terminal: true}
	}
	typ := "failed"
	if jerr.Kind == KindCanceled || jerr.Kind == KindDraining {
		typ = "canceled"
	}
	return Event{Type: typ, Terminal: true, Kind: jerr.Kind, Message: jerr.Message, Attempts: jerr.Attempts}
}

// settle makes a job terminal, in the one order every path keeps: the
// terminal journal record, then done closes, then the terminal event. A
// reader who finds the stream sealed therefore finds the job terminal, and
// one who finds it terminal finds its terminal record already appended. site
// names the call site of the journal append; "" settles an outcome a
// previous process journaled.
func (s *Server) settle(j *job, site string) {
	if j.id != "" && site != "" {
		// A dropped terminal record is re-resolved on restart by re-running
		// the job; logging it beats silently losing the signal.
		s.journalAppend(j.ctx, site, terminalRec(j.id, j.Key, j.jerr))
		if j.jerr == nil {
			s.m.jobs.Inc("done")
		} else {
			s.m.jobs.Inc("failed")
		}
	}
	close(j.done)
	s.publish(j, terminalEvent(j.jerr))
}

// runJob evaluates one job, settles it exactly once, and installs a result
// in the cache, so no caller is ever left waiting, no queue slot is ever
// wedged, and no event stream is left unterminated. The install and the
// settle come in one of two orders. A /jobs job installs first: recovery
// reads a done job's bytes from the cache, so its done record must not
// precede them. A synchronous job promises bytes, not durability: its result
// is staged, so a repeat request hits while the install runs, the reply goes
// out, and the install follows. A kill before the install lands costs a miss
// that recomputes the same bytes. The worker's admission slot is held until
// runJob returns, so Shutdown's drain waits for every install either way.
func (s *Server) runJob(j *job) {
	if !s.evaluateJob(j) || s.cache == nil {
		s.settle(j, "finalize")
		return
	}
	if j.id != "" {
		t0 := time.Now()
		s.cache.Put(j.Key, j.result)
		if j.spans != nil {
			j.spans.Add("cache install", "service", t0, time.Now(), nil)
		}
		s.settle(j, "finalize")
		return
	}
	s.cache.Stage(j.Key, j.result)
	s.settle(j, "finalize")
	// settle readied the waiting handler on this worker's P, and the
	// install's file syscalls would keep holding that P: yield, so the reply
	// is written first. Without the yield a reply on a 2-vCPU box waited
	// ≈ 1.2 ms, most of an install (EXPERIMENTS, "Reply before install").
	runtime.Gosched()
	s.cache.Put(j.Key, j.result)
}

// evaluateJob runs one job's attempts with panic isolation: a panicking
// attempt is recorded, backed off, and retried up to cfg.Retries times. It
// leaves either j.result or j.jerr set and reports whether the job succeeded.
func (s *Server) evaluateJob(j *job) bool {
	if s.cfg.gate != nil {
		s.cfg.gate(j)
	}
	for attempt := 1; ; attempt++ {
		if err := j.ctx.Err(); err != nil {
			j.jerr = s.ctxError(err)
			j.jerr.Attempts = attempt - 1
			s.m.failed.Inc()
			return false
		}
		s.publish(j, Event{Type: "running", Attempt: attempt})
		t0 := time.Now()
		out, err := s.attempt(j)
		if j.spans != nil {
			name := fmt.Sprintf("attempt %d", attempt)
			args := map[string]string{"endpoint": j.Endpoint}
			if err != nil {
				args["error"] = err.Error()
			}
			j.spans.Add(name, "service", t0, time.Now(), args)
		}
		if err == nil {
			j.result = out
			s.m.completed.Inc()
			if !j.recovered {
				// Recovered jobs were observed in a previous life; feeding
				// them again would double-count the workload profile.
				s.adaptObserve(j.Endpoint, *j.Req, out)
			}
			return true
		}
		var pe *panicError
		if errors.As(err, &pe) {
			s.m.panics.Inc()
			if attempt <= s.cfg.Retries {
				s.m.retries.Inc()
				s.backoff(j.ctx, attempt)
				continue
			}
			j.jerr = &JobError{Kind: KindPanic, Message: pe.Error(), Attempts: attempt}
			s.m.failed.Inc()
			return false
		}
		j.jerr = s.classify(j, err)
		j.jerr.Attempts = attempt
		s.m.failed.Inc()
		return false
	}
}

// attempt runs one evaluation under a recover, converting a panic — from the
// chaos knob or from a genuine bug in a pipeline — into a *panicError value.
func (s *Server) attempt(j *job) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: string(debug.Stack())}
		}
	}()
	if n := s.cfg.PanicEvery; n > 0 && j.seq%uint64(n) == 0 && !j.panicked {
		j.panicked = true
		panic(fmt.Sprintf("chaos: injected panic on job %d", j.seq))
	}
	var hooks *evalHooks
	if j.log != nil || j.wantTrace {
		hooks = &evalHooks{}
		if j.log != nil {
			hooks.emit = func(ev Event) { s.publish(j, ev) }
		}
		if j.wantTrace {
			hooks.wantTrace = true
			hooks.chrome = func(b []byte) { j.chrome = b }
		}
	}
	return evaluate(j.ctx, j.payload, hooks)
}

type panicError struct {
	val   any
	stack string
}

func (e *panicError) Error() string { return fmt.Sprintf("evaluation panicked: %v", e.val) }

// The backoff between panic retries starts at retryBase and doubles up to
// retryMax.
const (
	retryBase = 10 * time.Millisecond
	retryMax  = 250 * time.Millisecond
)

// backoff sleeps the capped exponential delay for the given attempt, waking
// early if the job's deadline fires.
func (s *Server) backoff(ctx context.Context, attempt int) {
	d := retryBase << (attempt - 1)
	if d > retryMax {
		d = retryMax
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// ctxError distinguishes a request that ran out its own deadline from one
// aborted by server shutdown.
func (s *Server) ctxError(err error) *JobError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &JobError{Kind: KindDeadline, Message: "request deadline exceeded"}
	}
	return &JobError{Kind: KindCanceled, Message: "server shut down before the request finished"}
}

// classify types an evaluation error.
func (s *Server) classify(j *job, err error) *JobError {
	if errors.Is(err, ErrInvalid) {
		return &JobError{Kind: KindInvalid, Message: err.Error()}
	}
	// A run the machine aborted on our cancellation signal is a deadline or
	// shutdown outcome, not a program failure.
	if errors.Is(err, machine.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if ctxErr := j.ctx.Err(); ctxErr != nil {
			return s.ctxError(ctxErr)
		}
	}
	return &JobError{Kind: KindFailed, Message: err.Error()}
}

// Shutdown drains gracefully: new work is refused at the door, in-flight and
// queued jobs get up to the drain timeout (bounded further by ctx) to
// finish, stragglers are canceled, and the pool exits. Every async job
// reaches a terminal state — and its event stream a terminal event — before
// Shutdown returns, which is what lets the caller close the HTTP listener
// afterwards without cutting a stream short. Safe to call once; later calls
// return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdown.Do(func() {
		s.ready.Store(false)
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()

		drained := make(chan struct{})
		go func() {
			s.admissions.Wait()
			close(drained)
		}()
		t := time.NewTimer(s.cfg.DrainTimeout)
		defer t.Stop()
		select {
		case <-drained:
		case <-t.C:
			err = errors.New("serve: drain timeout; canceling in-flight work")
			s.abort()
			<-drained
		case <-ctx.Done():
			err = fmt.Errorf("serve: shutdown: %w", ctx.Err())
			s.abort()
			<-drained
		}
		close(s.queue)
		s.workers.Wait()
		s.abort()
		// The controller closes after the pool has drained (so every finished
		// job's observation landed) and before the decision journal: Close
		// cancels an in-flight search and settles queued triggers as
		// "canceled" decisions, which must still reach disk.
		if s.adapt != nil {
			s.adapt.Close()
		}
		for _, l := range []*durable.Log{s.adaptJournal, s.journal} {
			if l != nil {
				l.Close()
			}
		}
	})
	return err
}

// Close shuts down immediately, canceling everything in flight.
func (s *Server) Close() {
	s.abort()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
}

// crash abandons the server the way kill -9 would — the test seam behind
// the restart-recovery proof. Both journals stop accepting writes without a
// flush and in-flight work is canceled; nothing is drained, recorded, or
// acknowledged past this point.
func (s *Server) crash() {
	for _, l := range []*durable.Log{s.journal, s.adaptJournal} {
		if l != nil {
			l.Crash()
		}
	}
	s.abort()
}

// Handler routes the service's endpoints, every one wrapped in the
// instrument middleware (request IDs, structured log lines, edge metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, ep := range endpoints {
		ep := ep
		mux.HandleFunc("POST "+ep, s.instrument(ep,
			func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, ep) }))
	}
	mux.HandleFunc("POST /jobs", s.instrument("/jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /jobs/{id}", s.instrument("/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("GET /jobs/{id}/events", s.instrument("/jobs/{id}/events", s.handleJobEvents))
	mux.HandleFunc("GET /jobs/{id}/trace", s.instrument("/jobs/{id}/trace", s.handleJobTrace))
	mux.HandleFunc("GET /adapt", s.instrument("/adapt", s.handleAdapt))
	mux.HandleFunc("GET /adapt/journal", s.instrument("/adapt/journal", s.handleAdaptJournal))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /logz", s.instrument("/logz", s.handleLogz))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		switch {
		case draining:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !s.ready.Load():
			http.Error(w, "recovering journal", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ready")
		}
	}))
	mux.HandleFunc("GET /stats", s.instrument("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	}))
	return mux
}

const maxBodyBytes = 4 << 20

// tenantOf resolves the request's fair-share account.
func tenantOf(r *http.Request) string {
	return r.Header.Get("X-Tenant")
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request, endpoint string) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, &JobError{Kind: KindInvalid, Message: "bad request body: " + err.Error()})
		return
	}
	req, err := normalize(endpoint, req)
	if err != nil {
		s.writeError(w, &JobError{Kind: KindInvalid, Message: err.Error()})
		return
	}

	// ?trace=1 asks for the stitched wall+virtual-time Chrome trace of this
	// evaluation instead of its result body. Tracing forces a live
	// evaluation — a cache hit has no timeline — so the fast paths below
	// are skipped (the result still lands in the cache as usual).
	wantTrace := r.URL.Query().Get("trace") == "1"
	rid := obs.RequestID(r.Context())
	var spans *obs.SpanRecorder
	if wantTrace {
		spans = obs.NewSpanRecorder()
	}

	// Cache hits bypass admission entirely: they cost no pool time, so a
	// saturated queue must not shed them. Full-fidelity entries are checked
	// first — a hit beats a degraded recompute. The key carries the current
	// mapping preference, so a re-decomposition switch never re-serves the
	// old decomposition's bytes.
	mapping := s.preferredMapping(endpoint, req)
	if !wantTrace {
		if body, ok := s.cacheGet(contentKey(endpoint, req, 0, mapping)); ok {
			// A hit is still one observed request: the workload profile must
			// advance whether or not the pool ran.
			s.adaptObserve(endpoint, req, body)
			setMappingHeader(w, mapping)
			s.writeResult(w, body, "hit", 0)
			return
		}
	}

	j, jerr := s.submit(endpoint, req, tenantOf(r), submitOpts{rid: rid, trace: wantTrace, spans: spans})
	if jerr != nil {
		s.writeError(w, jerr)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away. The job finishes in the background (its
		// result still lands in the cache); this handler just leaves.
		return
	}
	if j.jerr != nil {
		s.writeError(w, j.jerr)
		return
	}
	setMappingHeader(w, j.Mapping)
	if wantTrace {
		doc, err := obs.StitchChrome(rid, spans.Epoch(), spans.Spans(), j.chrome)
		if err != nil {
			s.writeError(w, &JobError{Kind: KindInternal, Message: "trace stitch failed: " + err.Error()})
			return
		}
		s.writeResult(w, doc, "miss", j.Budget)
		return
	}
	cache := "miss"
	if j.born() {
		cache = "hit"
	}
	s.writeResult(w, j.result, cache, j.Budget)
}

func (s *Server) writeResult(w http.ResponseWriter, body []byte, cache string, budget int) {
	s.m.responses.Inc("200", "ok")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	if budget > 0 {
		w.Header().Set("X-Degraded", strconv.Itoa(budget))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, jerr *JobError) {
	s.m.responses.Inc(strconv.Itoa(jerr.HTTPStatus()), jerr.causeLabel())
	w.Header().Set("Content-Type", "application/json")
	switch {
	case jerr.RetryAfter > 0:
		w.Header().Set("Retry-After", strconv.Itoa(jerr.RetryAfter))
	case jerr.Kind == KindShed:
		w.Header().Set("Retry-After", "1")
	case jerr.Kind == KindDraining, jerr.Kind == KindCanceled:
		w.Header().Set("Retry-After", "5")
	}
	w.WriteHeader(jerr.HTTPStatus())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(jerr)
}
