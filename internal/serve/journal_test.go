package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"procdecomp/internal/durable"
	"procdecomp/internal/golden"
)

// writeJournal lays down a journal file from raw lines.
func writeJournal(t *testing.T, dir string, lines ...string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	raw := strings.Join(lines, "")
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func rec(t *testing.T, r journalRec) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// A kill mid-append leaves a partial last line. Opening the journal must
// quarantine the torn tail, keep every intact record, and re-run the jobs
// with no terminal record.
func TestJournalQuarantinesTornTail(t *testing.T) {
	dir := t.TempDir()
	req := Request{GS: true, Procs: 2, Mode: "ctr", Entry: "gs_iteration"}
	finished := rec(t, journalRec{Op: "accepted", ID: jobID(1), payload: payload{Endpoint: "/run", Key: "k1", Req: &req}})
	finishedDone := rec(t, journalRec{Op: "done", ID: jobID(1), payload: payload{Key: "k1"}})
	unfinished := rec(t, journalRec{Op: "accepted", ID: jobID(2), payload: payload{Endpoint: "/run", Key: "k2", Req: &req}})
	running := rec(t, journalRec{Op: "running", ID: jobID(2)})
	torn := `{"Op":"accepted","ID":"j000000000000dead","Endpoint":"/run","Req":{"GS":tr` // cut mid-token
	writeJournal(t, dir, finished, finishedDone, unfinished, running, torn)

	j, jobs, maxSeq, err := openJournal(durable.OS{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(jobs))
	}
	if !jobs[0].done || jobs[0].id != jobID(1) {
		t.Errorf("job 1 = %+v, want done", jobs[0])
	}
	if !jobs[1].unfinished() || jobs[1].id != jobID(2) {
		t.Errorf("job 2 = %+v, want unfinished (re-run)", jobs[1])
	}
	if maxSeq != 2 {
		t.Errorf("maxSeq = %d, want 2", maxSeq)
	}
	// The torn bytes are preserved for inspection, not re-parsed.
	got, err := os.ReadFile(filepath.Join(dir, quarantineDir, journalName+".torn"))
	if err != nil || string(got) != torn {
		t.Errorf("quarantined tail = %q (err %v), want the torn bytes", got, err)
	}
	// The compacted journal holds only intact records; reopening parses the
	// same state with nothing left to quarantine.
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("dead")) {
		t.Error("compacted journal still contains torn bytes")
	}
	if !bytes.HasSuffix(raw, []byte("\n")) {
		t.Error("compacted journal does not end on a record boundary")
	}
	j.Close()
	j2, jobs2, _, err := openJournal(durable.OS{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(jobs2) != 2 || !jobs2[0].done || !jobs2[1].unfinished() {
		t.Errorf("reopen recovered %d jobs (%+v), want the same 2", len(jobs2), jobs2)
	}
}

// A torn tail can also be a syntactically valid accept record whose Req was
// never written — corrupt by schema, quarantined the same way.
func TestJournalTreatsRequestlessAcceptAsTorn(t *testing.T) {
	dir := t.TempDir()
	req := Request{GS: true, Procs: 2, Mode: "ctr", Entry: "gs_iteration"}
	good := rec(t, journalRec{Op: "accepted", ID: jobID(1), payload: payload{Endpoint: "/run", Key: "k1", Req: &req}})
	bad := rec(t, journalRec{Op: "accepted", ID: jobID(9), payload: payload{Endpoint: "/run", Key: "k9"}})
	writeJournal(t, dir, good, bad)

	j, jobs, _, err := openJournal(durable.OS{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(jobs) != 1 || jobs[0].id != jobID(1) {
		t.Fatalf("recovered %+v, want only the intact job", jobs)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, journalName+".torn")); err != nil {
		t.Errorf("request-less accept not quarantined: %v", err)
	}
}

// Appends made through the journal survive a close/reopen cycle verbatim.
func TestJournalAppendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	j, jobs, _, err := openJournal(durable.OS{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(jobs))
	}
	req := Request{GS: true, Procs: 4, Mode: "opt3", Blk: 8, Entry: "gs_iteration"}
	if err := appendJob(j, journalRec{Op: "accepted", ID: jobID(3),
		payload: payload{Endpoint: "/search", Tenant: "t1", Key: "kk", Budget: 4, Req: &req}}); err != nil {
		t.Fatal(err)
	}
	if err := appendJob(j, journalRec{Op: "running", ID: jobID(3)}); err != nil {
		t.Fatal(err)
	}
	if err := appendJob(j, journalRec{Op: "failed", ID: jobID(3), Kind: KindPanic, Message: "boom", Attempts: 3}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := appendJob(j, journalRec{Op: "done", ID: jobID(3)}); err == nil {
		t.Error("append after Close succeeded")
	}

	opens := 0
	counting := durable.Options{OnCompact: func(string) { opens++ }}
	j2, jobs2, maxSeq, err := openJournal(durable.OS{}, dir, counting)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(jobs2) != 1 || maxSeq != 3 {
		t.Fatalf("recovered %d jobs, maxSeq %d; want 1 and 3", len(jobs2), maxSeq)
	}
	// The first reopen folds the running marker away; opening the folded
	// journal again installs nothing and leaves its bytes alone.
	folded, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	j3, _, _, err := openJournal(durable.OS{}, dir, counting)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	again, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if opens != 1 || !bytes.Equal(folded, again) {
		t.Errorf("%d open compactions over two reopens (want 1); bytes unchanged by the second: %v",
			opens, bytes.Equal(folded, again))
	}
	rj := jobs2[0]
	if rj.Endpoint != "/search" || rj.Tenant != "t1" || rj.Budget != 4 || rj.Req.Blk != 8 {
		t.Errorf("recovered job = %+v, want the appended fields", rj)
	}
	if rj.jerr == nil || rj.jerr.Kind != KindPanic || rj.jerr.Attempts != 3 {
		t.Errorf("recovered error = %+v, want the panic failure", rj.jerr)
	}
}

// Runtime threshold compaction: once compactEvery records have been appended,
// the writer folds the journal in place — "running" markers drop, terminal
// state survives, appends continue seamlessly, and recovery still sees every
// job.
func TestJournalCompactsAtThreshold(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	compactions := 0 // writer goroutine only; reads below happen after Close
	opt := durable.Options{CompactEvery: 4, OnCompact: func(string) { compactions++ }}
	j, jobs, _, err := openJournal(durable.OS{}, dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(jobs))
	}

	req := Request{GS: true, Procs: 2, Mode: "ctr", Entry: "gs_iteration"}
	// Sequential appends: accepted + two running markers + done crosses the
	// threshold of 4 and folds to two lines; the next accept lands after.
	for _, r := range []journalRec{
		{Op: "accepted", ID: jobID(1), payload: payload{Endpoint: "/run", Key: "k1", Req: &req}},
		{Op: "running", ID: jobID(1)},
		{Op: "running", ID: jobID(1)},
		{Op: "done", ID: jobID(1), payload: payload{Key: "k1"}},
		{Op: "accepted", ID: jobID(2), payload: payload{Endpoint: "/run", Key: "k2", Req: &req}},
	} {
		if err := appendJob(j, r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if compactions != 1 {
		t.Errorf("%d threshold compactions, want 1", compactions)
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(raw, []byte("\n"))
	if lines != 3 { // job 1 accepted+done, job 2 accepted
		t.Errorf("journal holds %d lines after fold, want 3:\n%s", lines, raw)
	}
	if bytes.Contains(raw, []byte(`"running"`)) {
		t.Error("running markers survived the fold")
	}
	// Recovery reads the folded file like any other journal.
	j2, jobs2, maxSeq, err := openJournal(durable.OS{}, dir, durable.Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(jobs2) != 2 || !jobs2[0].done || !jobs2[1].unfinished() || maxSeq != 2 {
		t.Fatalf("recovered %d jobs (maxSeq %d) after fold, want done j1 + unfinished j2", len(jobs2), maxSeq)
	}
}

const journalWitnessPath = "../../testdata/golden/job_journal.ndjson"

// TestJournalWitness holds the journal's on-disk format to the file: the
// lines appendJob writes for each record a job can leave — accepted with a
// full request, running, done and failed, and the accepted+done pair of a
// job born done from the cache — followed by the fold's compacted image of
// those lines. Old journals are read by the same fold, so a change here is a
// change to what every journal on disk means.
func TestJournalWitness(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := openJournal(durable.OS{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := Request{GS: true, Entry: "gs_iteration", Procs: 4, Mode: "opt3", Blk: 8,
		Defines: map[string]int64{"N": 32, "M": 16}, TimeoutMS: 90000}
	search := Request{GS: true, Entry: "gs_iteration", Procs: 4, Dist: "A", Keep: 6, TopK: 3,
		Defines: map[string]int64{"N": 24}}
	for _, r := range []journalRec{
		{Op: "accepted", ID: jobID(1), payload: payload{RID: "r0000000000000001", Endpoint: "/run",
			Tenant: "t1", Key: "k1", Mapping: "block(2)", Req: &run}},
		{Op: "running", ID: jobID(1)},
		{Op: "done", ID: jobID(1), payload: payload{Key: "k1"}},
		{Op: "accepted", ID: jobID(2), payload: payload{RID: "r0000000000000002", Endpoint: "/search",
			Key: "k2", Budget: 4, Req: &search}},
		{Op: "running", ID: jobID(2)},
		{Op: "failed", ID: jobID(2), Kind: KindPanic, Message: "evaluation panicked: boom", Attempts: 3},
		{Op: "accepted", ID: jobID(3), payload: payload{RID: "r0000000000000003", Endpoint: "/search",
			Tenant: "t2", Key: "k3", Budget: 4, Mapping: "cyclic", Req: &search}},
		{Op: "done", ID: jobID(3), payload: payload{Key: "k3"}},
	} {
		if err := appendJob(j, r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	written, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	f := newJobFold()
	for _, line := range bytes.SplitAfter(written, []byte("\n")) {
		if len(line) > 0 && !f.Accept(line) {
			t.Fatalf("the fold refused a line appendJob wrote: %s", line)
		}
	}
	image, err := f.Image()
	if err != nil {
		t.Fatal(err)
	}
	golden.Hold(t, journalWitnessPath, append(written, image...),
		"Only a change that means to alter the journal's on-disk format copies it over the golden, and says why: journals already written must still read.")
}
