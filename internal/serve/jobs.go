package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"procdecomp/internal/obs"
)

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

func (s *Server) lookupJob(id string) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

// handleJobSubmit admits one durable async job: same admission control as
// the synchronous endpoints, but the reply is an immediate 202 with the job
// ID and the work proceeds in the background, journaled at every state
// change. If the result is already cached the job is born done — still
// journaled, still replayable, no pool time.
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

	// Every async job records its wall-time spans, so GET /jobs/{id}/trace
	// always has a service timeline. The machine's virtual-time trace is
	// opt-in (?trace=1): it forces a live evaluation and holds the trace
	// bytes for the job's lifetime, too heavy to pay on every submission.
	j, jerr := s.submit(sub.Endpoint, req, tenantOf(r),
		submitOpts{rid: obs.RequestID(r.Context()), async: true, trace: r.URL.Query().Get("trace") == "1",
			spans: obs.NewSpanRecorder()})
	if jerr != nil {
		s.writeError(w, jerr)
		return
	}
	status := "accepted"
	if j.born() {
		status = "done"
	}
	s.writeAccepted(w, JobAccepted{ID: j.id, Status: status, Degraded: j.Budget})
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

// writePending writes GET /jobs/<id>'s 202 progress envelope and reports
// true while the job is not yet terminal.
func writePending(w http.ResponseWriter, j *job) bool {
	if j.terminal() {
		return false
	}
	n, _ := j.log.snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(JobPending{ID: j.id, Status: "pending", Events: n})
	return true
}

// handleJobGet serves a job's terminal result — the same bytes the
// synchronous endpoint would have returned, re-readable any number of times
// and across restarts — or a 202 progress envelope while it runs.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, &JobError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	if writePending(w, j) {
		return
	}
	if j.jerr != nil {
		s.writeError(w, j.jerr)
		return
	}
	result := j.result
	if result == nil {
		// Recovered done job: the journal has the key, the cache the bytes.
		body, ok := s.cacheGet(j.Key)
		if !ok {
			s.writeError(w, &JobError{Kind: KindInternal,
				Message: "job result missing from cache"})
			return
		}
		result = body
	}
	s.writeResult(w, result, "job", j.Budget)
}

// handleJobTrace serves the job's stitched Chrome trace: its wall-time
// service spans (queued, attempts, cache install) plus, when the job was
// submitted with ?trace=1, the machine's virtual-time trace — both tagged
// with the originating request ID. 202 while the job still runs; 404 for
// recovered jobs, whose wall-time history did not survive the restart.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, &JobError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	if writePending(w, j) {
		return
	}
	if j.spans == nil {
		s.writeError(w, &JobError{Kind: KindNotFound,
			Message: "no trace recorded for this job (served from cache, or recovered from the journal)"})
		return
	}
	doc, err := obs.StitchChrome(j.RID, j.spans.Epoch(), j.spans.Spans(), j.chrome)
	if err != nil {
		s.writeError(w, &JobError{Kind: KindInternal, Message: "trace stitch failed: " + err.Error()})
		return
	}
	s.writeResult(w, doc, "job", j.Budget)
}

// handleJobEvents streams the job's event log as NDJSON: full replay from
// event 0, then live tail. The stream always ends with the job's terminal
// event — on completion, failure, cancellation, and server drain alike —
// or with the client's own disconnect.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
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
		evs, terminal, next := j.log.since(i)
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
