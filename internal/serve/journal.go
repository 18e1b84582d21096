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

// journalRec is one NDJSON journal line. An accepted record carries the
// job's whole payload; a "done" record its content key alone.
type journalRec struct {
	Op string // "accepted", "running", "done", "failed"
	ID string // job ID
	payload
	Kind     ErrKind `json:",omitempty"` // failed: error kind
	Message  string  `json:",omitempty"` // failed: error message
	Attempts int     `json:",omitempty"` // failed: evaluation attempts
}

// terminalRec is a job's terminal record: "done" with its content key, or
// "failed" with its typed error.
func terminalRec(id, key string, jerr *JobError) journalRec {
	if jerr == nil {
		return journalRec{Op: "done", ID: id, payload: payload{Key: key}}
	}
	return journalRec{Op: "failed", ID: id, Kind: jerr.Kind, Message: jerr.Message, Attempts: jerr.Attempts}
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

// foldedJob is one job as the journal folds it: its accepted payload plus
// the terminal state it reached before the crash, if any.
type foldedJob struct {
	id string
	payload
	done bool      // a "done" record was folded
	jerr *JobError // the job failed (and no "done" record overrides it)
}

func (f *foldedJob) unfinished() bool { return !f.done && f.jerr == nil }

// openJournal recovers and opens the job journal under dir, returning every
// known job in acceptance order plus the highest job sequence number seen.
func openJournal(fs durable.FS, dir string, opt durable.Options) (*durable.Log, []*foldedJob, uint64, error) {
	l, f, err := durable.Open(fs, dir, journalName, opt, newJobFold)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: job journal: %w", err)
	}
	return l, f.jobs, f.maxSeq, nil
}

// jobFold is the job journal's folder: its records folded into per-job
// state, in acceptance order.
type jobFold struct {
	jobs   []*foldedJob
	byID   map[string]*foldedJob
	maxSeq uint64 // highest job sequence parsed from the IDs
}

func newJobFold() *jobFold { return &jobFold{byID: map[string]*foldedJob{}} }

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
		if _, dup := f.byID[rec.ID]; !dup {
			fj := &foldedJob{id: rec.ID, payload: rec.payload}
			f.byID[rec.ID] = fj
			f.jobs = append(f.jobs, fj)
		}
		if seq, ok := parseJobID(rec.ID); ok && seq > f.maxSeq {
			f.maxSeq = seq
		}
	case "done":
		if fj := f.byID[rec.ID]; fj != nil {
			fj.done, fj.jerr = true, nil
		}
	case "failed":
		if fj := f.byID[rec.ID]; fj != nil && !fj.done {
			fj.jerr = &JobError{Kind: rec.Kind, Message: rec.Message, Attempts: rec.Attempts}
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
	for _, fj := range f.jobs {
		recs := []journalRec{{Op: "accepted", ID: fj.id, payload: fj.payload}}
		if !fj.unfinished() {
			recs = append(recs, terminalRec(fj.id, fj.Key, fj.jerr))
		}
		for _, rec := range recs {
			b, err := json.Marshal(rec)
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
