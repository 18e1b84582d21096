package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"procdecomp/internal/obs"
)

// asyncJob is the durable record behind one POST /jobs acceptance: identity,
// the normalized request (so a restarted server can re-run it), the event
// log its streamers follow, and — once terminal — the outcome. The record
// lives in Server.jobs for the life of the process and in the journal across
// processes.
type asyncJob struct {
	id       string
	rid      string // originating request ID, the log/trace join key
	endpoint string
	tenant   string
	key      string
	budget   int
	mapping  string
	req      Request
	log      *eventLog
	// spans records the job's wall-time service spans for GET
	// /jobs/{id}/trace (nil for recovered jobs: their wall history is gone).
	spans *obs.SpanRecorder

	mu       sync.Mutex
	terminal bool
	result   []byte // nil for a recovered done job: the cache holds the bytes
	jerr     *JobError
	chrome   []byte // the machine's virtual-time Chrome trace, if evaluated here
}

// complete/fail settle the job exactly once; later calls are ignored (a
// drain and a deadline can race to settle the same job).
func (a *asyncJob) complete(result []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.terminal {
		return
	}
	a.terminal = true
	a.result = result
}

func (a *asyncJob) fail(jerr *JobError) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.terminal {
		return
	}
	a.terminal = true
	a.jerr = jerr
}

func (a *asyncJob) state() (terminal bool, result []byte, jerr *JobError) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.terminal, a.result, a.jerr
}

// setChrome stores the machine trace bytes a traced evaluation produced.
// Called before complete/fail, so a terminal read observes it.
func (a *asyncJob) setChrome(b []byte) {
	if b == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.terminal {
		a.chrome = b
	}
}

func (a *asyncJob) chromeBytes() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.chrome
}

// JobSubmit is POST /jobs' body: which pipeline to run, and its request.
type JobSubmit struct {
	Endpoint string
	Request  Request
}

// JobAccepted is the 202 acknowledgment. By the time a client reads it, the
// job's accepted record is durable: a crash after the 202 cannot lose it.
type JobAccepted struct {
	ID     string
	Status string
	// Degraded reports the reduced /search candidate budget admission
	// assigned under saturation (0 = full fidelity).
	Degraded int `json:",omitempty"`
}

// JobPending is GET /jobs/<id>'s 202 body while the job is still moving.
type JobPending struct {
	ID     string
	Status string
	Events int
}

func (s *Server) lookupJob(id string) *asyncJob {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

// handleJobSubmit admits one durable async job: same admission control as
// the synchronous endpoints, but the reply is an immediate 202 with the job
// ID and the work proceeds in the background, journaled at every state
// change. If the full-fidelity result is already cached the job is born
// terminal — still journaled, still replayable, no pool time.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var sub JobSubmit
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		s.writeError(w, &JobError{Kind: KindInvalid, Message: "bad request body: " + err.Error()})
		return
	}
	valid := false
	for _, ep := range endpoints {
		if sub.Endpoint == ep {
			valid = true
			break
		}
	}
	if !valid {
		s.writeError(w, &JobError{Kind: KindInvalid, Message: fmt.Sprintf("no endpoint %q", sub.Endpoint)})
		return
	}
	req, err := normalize(sub.Endpoint, sub.Request)
	if err != nil {
		s.writeError(w, &JobError{Kind: KindInvalid, Message: err.Error()})
		return
	}

	rid := obs.RequestID(r.Context())
	mapping := s.preferredMapping(sub.Endpoint, req)
	if body, ok := s.cacheGet(contentKey(sub.Endpoint, req, 0, mapping)); ok {
		if aj, jerr := s.bornDone(sub.Endpoint, req, tenantOf(r), rid, mapping, 0, body); jerr != nil {
			s.writeError(w, jerr)
		} else {
			s.writeAccepted(w, JobAccepted{ID: aj.id, Status: "done"})
		}
		return
	}

	// Every async job records its wall-time spans, so GET /jobs/{id}/trace
	// always has a service timeline. The machine's virtual-time trace is
	// opt-in (?trace=1): it forces a live evaluation and holds the trace
	// bytes for the job's lifetime, too heavy to pay on every submission.
	j, cached, jerr := s.submit(sub.Endpoint, req, tenantOf(r),
		submitOpts{rid: rid, async: true, trace: r.URL.Query().Get("trace") == "1",
			spans: obs.NewSpanRecorder()})
	if jerr != nil {
		s.writeError(w, jerr)
		return
	}
	if cached != nil {
		// Degraded-key hit: the saturated answer is already on disk.
		if aj, jerr := s.bornDone(sub.Endpoint, req, tenantOf(r), rid, mapping, s.cfg.DegradeKeep, cached); jerr != nil {
			s.writeError(w, jerr)
		} else {
			s.writeAccepted(w, JobAccepted{ID: aj.id, Status: "done", Degraded: s.cfg.DegradeKeep})
		}
		return
	}
	s.writeAccepted(w, JobAccepted{ID: j.async.id, Status: "accepted", Degraded: j.budget})
}

// bornDone registers a job that is terminal on arrival (its result was
// cached): journaled accepted+done so a restart re-serves it identically.
// budget is the degraded budget body was cached under (0 = full fidelity):
// it is part of the key a restart looks the bytes up by, and GET /jobs/<id>
// reports it as X-Degraded exactly as a job that ran degraded would.
func (s *Server) bornDone(endpoint string, req Request, tenant, rid, mapping string, budget int, body []byte) (*asyncJob, *JobError) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.sheds.Inc("draining")
		return nil, &JobError{Kind: KindDraining, Message: "server is draining",
			RetryAfter: s.adm.retryAfter(s.seq.Add(1))}
	}
	s.mu.Unlock()
	key := contentKey(endpoint, req, budget, mapping)
	aj := &asyncJob{id: jobID(s.seq.Add(1)), rid: rid, endpoint: endpoint, tenant: tenant,
		key: key, budget: budget, mapping: mapping, req: req, log: newEventLog()}
	ctx := obs.WithRequestID(context.Background(), rid)
	if err := s.journalAppend(ctx, "born_done", journalRec{Op: "accepted", ID: aj.id,
		RID: rid, Endpoint: endpoint, Tenant: tenant, Key: key, Budget: budget, Mapping: mapping, Req: &req}); err != nil {
		return nil, &JobError{Kind: KindInternal, Message: "job journal write failed: " + err.Error()}
	}
	// Best-effort: without the done record a restart re-runs the job, which
	// re-derives the same cached result.
	s.journalAppend(ctx, "born_done", journalRec{Op: "done", ID: aj.id, Key: key})
	// A cache-hit-born job is still one observed request.
	s.adaptObserve(endpoint, req, body)
	aj.complete(body)
	s.jobsMu.Lock()
	s.jobs[aj.id] = aj
	s.jobsMu.Unlock()
	s.m.jobs.Inc("accepted")
	s.m.jobs.Inc("done")
	s.publish(aj, Event{Type: "accepted"})
	s.publish(aj, Event{Type: "done", Terminal: true})
	return aj, nil
}

func (s *Server) writeAccepted(w http.ResponseWriter, acc JobAccepted) {
	s.m.responses.Inc("202", "accepted")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/jobs/"+acc.ID)
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(acc)
}

// handleJobGet serves a job's terminal result — the same bytes the
// synchronous endpoint would have returned, re-readable any number of times
// and across restarts — or a 202 progress envelope while it runs.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	aj := s.lookupJob(r.PathValue("id"))
	if aj == nil {
		s.writeError(w, &JobError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	terminal, result, jerr := aj.state()
	if !terminal {
		// The event log seals (snapshot's second return) only after the
		// job's state turns terminal, so re-check rather than racing a
		// finalize that landed between the two reads: a sealed log with a
		// pending reply would tell the client the stream ended on a job
		// still "running".
		n, sealed := aj.log.snapshot()
		if sealed {
			terminal, result, jerr = aj.state()
		}
		if !terminal {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(JobPending{ID: aj.id, Status: "pending", Events: n})
			return
		}
	}
	if jerr != nil {
		s.writeError(w, jerr)
		return
	}
	if result == nil {
		// Recovered done job: the journal has the key, the cache the bytes.
		body, ok := s.cacheGet(aj.key)
		if !ok {
			s.writeError(w, &JobError{Kind: KindInternal,
				Message: "job result missing from cache"})
			return
		}
		result = body
	}
	s.writeResult(w, result, "job", aj.budget)
}

// handleJobTrace serves the job's stitched Chrome trace: its wall-time
// service spans (queued, attempts, settle) plus, when the job was submitted
// with ?trace=1, the machine's virtual-time trace — both tagged with the
// originating request ID. 202 while the job still runs; 404 for recovered
// jobs, whose wall-time history did not survive the restart.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	aj := s.lookupJob(r.PathValue("id"))
	if aj == nil {
		s.writeError(w, &JobError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	terminal, _, _ := aj.state()
	if !terminal {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		n, _ := aj.log.snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(JobPending{ID: aj.id, Status: "pending", Events: n})
		return
	}
	if aj.spans == nil {
		s.writeError(w, &JobError{Kind: KindNotFound,
			Message: "no trace recorded for this job (served from cache, or recovered from the journal)"})
		return
	}
	doc, err := obs.StitchChrome(aj.rid, aj.spans.Epoch(), aj.spans.Spans(), aj.chromeBytes())
	if err != nil {
		s.writeError(w, &JobError{Kind: KindInternal, Message: "trace stitch failed: " + err.Error()})
		return
	}
	s.writeResult(w, doc, "job", aj.budget)
}

// handleJobEvents streams the job's event log as NDJSON: full replay from
// event 0, then live tail. The stream always ends with the job's terminal
// event — on completion, failure, cancellation, and server drain alike —
// or with the client's own disconnect.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	aj := s.lookupJob(r.PathValue("id"))
	if aj == nil {
		s.writeError(w, &JobError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	i := 0
	for {
		evs, terminal, next := aj.log.since(i)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		i += len(evs)
		if len(evs) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
	}
}
