package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"procdecomp/internal/durable"
)

// The job journal is the durability half of the async-job contract: a
// request POSTed to /jobs is acknowledged only after its "accepted" record
// (carrying the full normalized request) is durable in an append-only NDJSON
// log, and every job later appends exactly one terminal record — "done" with
// its content key, or "failed" with its typed error. A server killed at any
// instant can therefore reconstruct every acknowledged job on restart:
// terminal jobs are served from the journal plus the result cache, and
// accepted-but-unfinished jobs are re-enqueued and re-run.
//
// How records reach disk and come back — group commit, fail-stop, torn-tail
// quarantine, compaction — is durable.Log's; this file is the record type
// and the folder that gives the records their meaning.

const journalName = "jobs.journal"

// journalRec is one NDJSON journal line.
type journalRec struct {
	Op       string   // "accepted", "running", "done", "failed"
	ID       string   // job ID
	RID      string   `json:",omitempty"` // accepted: originating request ID
	Endpoint string   `json:",omitempty"` // accepted: target pipeline
	Tenant   string   `json:",omitempty"` // accepted: fair-share account
	Key      string   `json:",omitempty"` // accepted/done: content key
	Budget   int      `json:",omitempty"` // accepted: degraded /search budget
	Mapping  string   `json:",omitempty"` // accepted: adaptive mapping preference
	Req      *Request `json:",omitempty"` // accepted: normalized request
	Kind     ErrKind  `json:",omitempty"` // failed: error kind
	Message  string   `json:",omitempty"` // failed: error message
	Attempts int      `json:",omitempty"` // failed: evaluation attempts
}

// appendJob journals one record durably: it returns once the record (and any
// batchmates) has been fsynced, or an error if the journal is closed or has
// failed.
func appendJob(l *durable.Log, rec journalRec) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	return l.Append(line)
}

// recoveredJob is one job reconstructed from the journal on open.
type recoveredJob struct {
	id       string
	rid      string // originating request ID, carried for log correlation
	endpoint string
	tenant   string
	key      string
	budget   int
	mapping  string
	req      Request
	// terminal state, if the job reached one before the crash:
	done bool
	jerr *JobError // non-nil iff the job failed
	// unfinished == !done && jerr == nil: re-run it.
}

func (r *recoveredJob) unfinished() bool { return !r.done && r.jerr == nil }

// openJournal recovers and opens the job journal under dir, returning every
// known job in acceptance order plus the highest job sequence number seen.
func openJournal(fs durable.FS, dir string, opt durable.Options) (*durable.Log, []*recoveredJob, uint64, error) {
	l, f, err := durable.Open(fs, dir, journalName, opt, newJobFold)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: job journal: %w", err)
	}
	return l, f.jobs, f.maxSeq, nil
}

// jobFold is the job journal's folder: its records folded into per-job
// state, in acceptance order.
type jobFold struct {
	jobs   []*recoveredJob
	byID   map[string]*recoveredJob
	maxSeq uint64 // highest job sequence parsed from the IDs
}

func newJobFold() *jobFold { return &jobFold{byID: map[string]*recoveredJob{}} }

// Accept folds one journal line into its job's state. A line that is not a
// record, or an accept that lost its request, starts the torn tail.
func (f *jobFold) Accept(line []byte) bool {
	var rec journalRec
	if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
		return false
	}
	switch rec.Op {
	case "accepted":
		if rec.Req == nil {
			return false // a request-less accept is corrupt
		}
		rj := &recoveredJob{id: rec.ID, rid: rec.RID, endpoint: rec.Endpoint,
			tenant: rec.Tenant, key: rec.Key, budget: rec.Budget, mapping: rec.Mapping, req: *rec.Req}
		if _, dup := f.byID[rec.ID]; !dup {
			f.byID[rec.ID] = rj
			f.jobs = append(f.jobs, rj)
		}
		if seq, ok := parseJobID(rec.ID); ok && seq > f.maxSeq {
			f.maxSeq = seq
		}
	case "done":
		if rj := f.byID[rec.ID]; rj != nil {
			rj.done, rj.jerr = true, nil
		}
	case "failed":
		if rj := f.byID[rec.ID]; rj != nil && !rj.done {
			rj.jerr = &JobError{Kind: rec.Kind, Message: rec.Message, Attempts: rec.Attempts}
		}
	case "running":
		// informational only; an unfinished job re-runs either way
	}
	return true
}

// Image renders the compacted journal: per job, its accepted record and (if
// it reached one) a single terminal record — "running" markers and duplicate
// terminals fold away.
func (f *jobFold) Image() ([]byte, error) {
	var buf bytes.Buffer
	for _, rj := range f.jobs {
		acc := journalRec{Op: "accepted", ID: rj.id, RID: rj.rid, Endpoint: rj.endpoint,
			Tenant: rj.tenant, Key: rj.key, Budget: rj.budget, Mapping: rj.mapping, Req: &rj.req}
		b, err := json.Marshal(acc)
		if err != nil {
			return nil, err
		}
		buf.Write(append(b, '\n'))
		var term *journalRec
		if rj.done {
			term = &journalRec{Op: "done", ID: rj.id, Key: rj.key}
		} else if rj.jerr != nil {
			term = &journalRec{Op: "failed", ID: rj.id, Kind: rj.jerr.Kind,
				Message: rj.jerr.Message, Attempts: rj.jerr.Attempts}
		}
		if term != nil {
			b, err := json.Marshal(*term)
			if err != nil {
				return nil, err
			}
			buf.Write(append(b, '\n'))
		}
	}
	return buf.Bytes(), nil
}

// jobID formats and parseJobID parses the journal's job identifiers: a
// monotonic sequence number, resumed past the journal's maximum on restart
// so IDs never collide across crashes.
func jobID(seq uint64) string { return fmt.Sprintf("j%016x", seq) }

func parseJobID(id string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(id, "j%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}
