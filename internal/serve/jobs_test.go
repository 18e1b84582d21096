package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func postJSON(t *testing.T, url string, payload any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, url, string(b))
}

// pollJob GETs the job until it leaves 202, bounded.
func pollJob(t *testing.T, base, id string) (*http.Response, []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			return resp, body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left pending", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readEvents consumes the job's NDJSON stream to EOF and returns the events.
func readEvents(t *testing.T, base, id string) []Event {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// checkStream asserts the stream invariants: dense Seq from 0, "accepted"
// first, exactly one terminal event, and it is last.
func checkStream(t *testing.T, evs []Event) Event {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("empty event stream")
	}
	terminals := 0
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has Seq %d; the stream is not dense", i, ev.Seq)
		}
		if ev.Terminal {
			terminals++
		}
	}
	if evs[0].Type != "accepted" {
		t.Errorf("first event %q, want accepted", evs[0].Type)
	}
	if terminals != 1 || !evs[len(evs)-1].Terminal {
		t.Fatalf("%d terminal events (last terminal: %v), want exactly one, last", terminals, evs[len(evs)-1].Terminal)
	}
	return evs[len(evs)-1]
}

func TestAsyncJobMatchesSyncBytes(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	body := Request{GS: true, Procs: 4, Mode: "ctr", Defines: map[string]int64{"N": 16}}

	resp, ack := postJSON(t, hs.URL+"/jobs", JobSubmit{Endpoint: "/run", Request: body})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, ack)
	}
	var acc JobAccepted
	if err := json.Unmarshal(ack, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID == "" || resp.Header.Get("Location") != "/jobs/"+acc.ID {
		t.Fatalf("ack = %+v, Location = %q", acc, resp.Header.Get("Location"))
	}

	jresp, jbody := pollJob(t, hs.URL, acc.ID)
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("job result status %d: %s", jresp.StatusCode, jbody)
	}
	sresp, sbody := post(t, hs.URL+"/run", gsRun)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d", sresp.StatusCode)
	}
	if !bytes.Equal(jbody, sbody) {
		t.Error("async job bytes differ from the synchronous endpoint's")
	}
	// Terminal results re-read identically, any number of times.
	if _, again := pollJob(t, hs.URL, acc.ID); !bytes.Equal(again, jbody) {
		t.Error("re-reading the job returned different bytes")
	}

	last := checkStream(t, readEvents(t, hs.URL, acc.ID))
	if last.Type != "done" {
		t.Errorf("terminal event %q, want done", last.Type)
	}
}

func TestAsyncJobNotFound(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/jobs/j00000000000000ff")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

func TestAsyncJobFailureIsTerminal(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	resp, ack := postJSON(t, hs.URL+"/jobs", JobSubmit{Endpoint: "/run",
		Request: Request{Source: "proc main() { x := nope(); }", Entry: "main"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, ack)
	}
	var acc JobAccepted
	if err := json.Unmarshal(ack, &acc); err != nil {
		t.Fatal(err)
	}
	jresp, jbody := pollJob(t, hs.URL, acc.ID)
	if jresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("failed job status %d (%s), want 422", jresp.StatusCode, jbody)
	}
	var jerr JobError
	if err := json.Unmarshal(jbody, &jerr); err != nil || jerr.Kind != KindFailed {
		t.Fatalf("failed job error = %+v (%v), want KindFailed", jerr, err)
	}
	last := checkStream(t, readEvents(t, hs.URL, acc.ID))
	if last.Type != "failed" || last.Kind != KindFailed {
		t.Errorf("terminal event = %+v, want failed/KindFailed", last)
	}
}

func TestSearchJobStreamsTierProgress(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	resp, ack := postJSON(t, hs.URL+"/jobs", JobSubmit{Endpoint: "/search",
		Request: Request{GS: true, Procs: 2, Keep: 4, TopK: 2}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, ack)
	}
	var acc JobAccepted
	if err := json.Unmarshal(ack, &acc); err != nil {
		t.Fatal(err)
	}
	if r, b := pollJob(t, hs.URL, acc.ID); r.StatusCode != http.StatusOK {
		t.Fatalf("search job status %d: %s", r.StatusCode, b)
	}
	evs := readEvents(t, hs.URL, acc.ID)
	checkStream(t, evs)
	stages := map[string]bool{}
	for _, ev := range evs {
		if ev.Type == "search" {
			stages[ev.Stage] = true
		}
	}
	for _, want := range []string{"baseline", "enumerated", "static", "predicted", "measured", "winner"} {
		if !stages[want] {
			t.Errorf("stream missing search stage %q (saw %v)", want, stages)
		}
	}
}

// The drain-flush regression test: SIGTERM-style shutdown must push a
// terminal NDJSON event to every open stream before the listener would
// close — i.e. Server.Shutdown does not return until streams terminate.
func TestShutdownFlushesTerminalEventToOpenStreams(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	cfg := Config{CacheDir: t.TempDir(), Workers: 1, DrainTimeout: 100 * time.Millisecond}
	cfg.gate = func(j *job) {
		if hold.Load() {
			entered <- struct{}{}
			select {
			case <-release:
			case <-j.ctx.Done():
			}
		}
	}
	s, hs := newTestServer(t, cfg)
	defer close(release)

	hold.Store(true)
	resp, ack := postJSON(t, hs.URL+"/jobs", JobSubmit{Endpoint: "/run",
		Request: Request{GS: true, Procs: 2, Mode: "ctr", Defines: map[string]int64{"N": 16}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, ack)
	}
	var acc JobAccepted
	if err := json.Unmarshal(ack, &acc); err != nil {
		t.Fatal(err)
	}

	<-entered // the job is in the worker, wedged at the gate

	// Open the stream while the job is wedged.
	type streamResult struct {
		evs []Event
	}
	got := make(chan streamResult, 1)
	go func() {
		got <- streamResult{evs: readEvents(t, hs.URL, acc.ID)}
	}()
	waitFor(t, "the stream to replay the admission events", func() bool {
		n, _ := s.lookupJob(acc.ID).log.snapshot()
		return n >= 2 // accepted, queued
	})

	// Drain: the held job cannot finish, so the drain timeout cancels it.
	// By the time Shutdown returns, the stream must have terminated.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(contextWithTimeout(t, 5*time.Second)) }()
	select {
	case err := <-shutdownDone:
		if err == nil {
			t.Error("drain of a wedged job reported clean shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung")
	}
	select {
	case sr := <-got:
		last := checkStream(t, sr.evs)
		if last.Type != "canceled" || last.Kind != KindCanceled {
			t.Errorf("terminal event after drain = %+v, want canceled", last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after Shutdown returned")
	}
}

// Kill -9 mid-load, restart on the same directory: every acknowledged job
// is re-run (or already terminal) and re-served byte-identically.
func TestCrashRestartRecoversAcknowledgedJobs(t *testing.T) {
	dir := t.TempDir()
	var hold atomic.Bool
	release := make(chan struct{})
	entered := make(chan string, 16)
	cfg := Config{CacheDir: dir, Workers: 1, QueueDepth: 16}
	cfg.gate = func(j *job) {
		if hold.Load() {
			entered <- j.Key
			select {
			case <-release:
			case <-j.ctx.Done():
			}
		}
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(a.Handler())

	runReq := Request{GS: true, Procs: 2, Mode: "ctr", Defines: map[string]int64{"N": 16}}
	traceReq := Request{GS: true, Procs: 2, Mode: "opt3", Blk: 8, Defines: map[string]int64{"N": 16}}

	// Job 1 completes before the crash: its done record and cache entry are
	// durable, so the restarted server re-serves it without re-running.
	resp, ack := postJSON(t, hsA.URL+"/jobs", JobSubmit{Endpoint: "/run", Request: runReq})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 ack = %d: %s", resp.StatusCode, ack)
	}
	var acc1 JobAccepted
	if err := json.Unmarshal(ack, &acc1); err != nil {
		t.Fatal(err)
	}
	r1, body1 := pollJob(t, hsA.URL, acc1.ID)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("job 1 status %d", r1.StatusCode)
	}

	// Jobs 2 and 3 are acknowledged but unfinished at the crash: 2 wedged
	// mid-run in the gate, 3 still queued behind it.
	hold.Store(true)
	_, ack2 := postJSON(t, hsA.URL+"/jobs", JobSubmit{Endpoint: "/trace", Request: traceReq})
	var acc2 JobAccepted
	if err := json.Unmarshal(ack2, &acc2); err != nil {
		t.Fatal(err)
	}
	<-entered // job 2 is in the worker, wedged
	_, ack3 := postJSON(t, hsA.URL+"/jobs", JobSubmit{Endpoint: "/run",
		Request: Request{GS: true, Procs: 4, Mode: "opt2", Defines: map[string]int64{"N": 16}}})
	var acc3 JobAccepted
	if err := json.Unmarshal(ack3, &acc3); err != nil {
		t.Fatal(err)
	}

	// kill -9: the journal stops cold (no terminal records for 2 and 3),
	// in-flight work is canceled, nothing is drained.
	a.crash()
	close(release)
	hsA.Close()
	a.Close()

	// Restart on the same directory.
	hold.Store(false)
	b, err := New(Config{CacheDir: dir, Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	hsB := httptest.NewServer(b.Handler())
	defer func() {
		hsB.Close()
		b.Close()
	}()
	st := b.Stats()
	if st.Jobs.Recovered != 3 {
		t.Errorf("recovered %d jobs, want 3", st.Jobs.Recovered)
	}
	if st.Jobs.Requeued != 2 {
		t.Errorf("requeued %d jobs, want 2 (the unfinished ones)", st.Jobs.Requeued)
	}

	// Job 1: served from the journal + cache, byte-identical, no re-run.
	rb1, bodyB1 := pollJob(t, hsB.URL, acc1.ID)
	if rb1.StatusCode != http.StatusOK || !bytes.Equal(bodyB1, body1) {
		t.Errorf("job 1 after restart: status %d, bytes identical: %v", rb1.StatusCode, bytes.Equal(bodyB1, body1))
	}

	// Jobs 2 and 3: re-run to completion; bytes must match a fresh
	// synchronous evaluation of the same request (which hits the cache the
	// re-run populated).
	for _, tc := range []struct {
		id       string
		endpoint string
		req      Request
	}{
		{acc2.ID, "/trace", traceReq},
		{acc3.ID, "/run", Request{GS: true, Procs: 4, Mode: "opt2", Defines: map[string]int64{"N": 16}}},
	} {
		rb, body := pollJob(t, hsB.URL, tc.id)
		if rb.StatusCode != http.StatusOK {
			t.Fatalf("job %s after restart: status %d: %s", tc.id, rb.StatusCode, body)
		}
		sreq, _ := json.Marshal(tc.req)
		sresp, sbody := post(t, hsB.URL+tc.endpoint, string(sreq))
		if sresp.StatusCode != http.StatusOK || !bytes.Equal(body, sbody) {
			t.Errorf("job %s bytes differ from the synchronous result after restart", tc.id)
		}
		if sresp.Header.Get("X-Cache") != "hit" {
			t.Errorf("re-run of job %s did not repopulate the cache", tc.id)
		}
		last := checkStream(t, readEvents(t, hsB.URL, tc.id))
		if last.Type != "done" {
			t.Errorf("job %s terminal event %q, want done", tc.id, last.Type)
		}
	}

	// Restarting again with everything terminal re-runs nothing.
	hsB.Close()
	b.Close()
	c, err := New(Config{CacheDir: dir, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.Jobs.Recovered != 3 || st.Jobs.Requeued != 0 {
		t.Errorf("third boot recovered %d / requeued %d, want 3 / 0", st.Jobs.Recovered, st.Jobs.Requeued)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(hs.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200 while serving", ep, resp.StatusCode)
		}
	}
	if err := s.Shutdown(contextWithTimeout(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Liveness holds through drain; readiness drops, so a balancer stops
	// routing before the listener goes away.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("/readyz during drain = %d %q, want 503 draining", resp.StatusCode, body)
	}
}

// A job born done from a degraded cache hit is still a degraded answer: its
// result must say so (X-Degraded, as its 202 did), and a restart must find
// the same bytes — under the degraded key, not the full-fidelity one.
func TestBornDoneDegradedJobKeepsBudget(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: dir, DegradeAt: -1, DegradeKeep: 3}
	a, hsA := newTestServer(t, cfg)
	req := Request{GS: true, Procs: 2}
	resp, degraded := postJSON(t, hsA.URL+"/search", req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Degraded") != "3" {
		t.Fatalf("degraded search = %d, X-Degraded %q", resp.StatusCode, resp.Header.Get("X-Degraded"))
	}
	resp, ack := postJSON(t, hsA.URL+"/jobs", JobSubmit{Endpoint: "/search", Request: req})
	var acc JobAccepted
	if err := json.Unmarshal(ack, &acc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || acc.Status != "done" || acc.Degraded != 3 {
		t.Fatalf("job on a cached degraded answer: %d %+v, want 202 born done with Degraded 3", resp.StatusCode, acc)
	}
	check := func(when, base string) {
		t.Helper()
		r, body := pollJob(t, base, acc.ID)
		if r.StatusCode != http.StatusOK || !bytes.Equal(body, degraded) {
			t.Errorf("%s: job result %d, bytes identical to the degraded answer: %v", when, r.StatusCode, bytes.Equal(body, degraded))
		}
		if got := r.Header.Get("X-Degraded"); got != "3" {
			t.Errorf("%s: job result X-Degraded = %q, want 3", when, got)
		}
	}
	check("live", hsA.URL)

	hsA.Close()
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, hsB := newTestServer(t, cfg)
	check("after restart", hsB.URL)
}

func TestDegradedSearchReportsBudget(t *testing.T) {
	// DegradeAt < 0 forces the degraded path on every /search admission.
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir(), DegradeAt: -1, DegradeKeep: 3})
	req := `{"GS":true,"Procs":2}`
	resp, body := post(t, hs.URL+"/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded search = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Degraded"); got != "3" {
		t.Errorf("X-Degraded = %q, want 3", got)
	}
	var sr struct {
		DegradedBudget int
	}
	if err := json.Unmarshal(body, &sr); err != nil || sr.DegradedBudget != 3 {
		t.Errorf("DegradedBudget = %d (%v), want 3 in the reply body", sr.DegradedBudget, err)
	}
	// The degraded entry is cached under its own key: a second degraded
	// request hits it, and it never shadows the full-fidelity answer.
	resp2, body2 := post(t, hs.URL+"/search", req)
	if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, body2) {
		t.Errorf("second degraded search: X-Cache %q, identical %v", resp2.Header.Get("X-Cache"), bytes.Equal(body, body2))
	}

	// A full-fidelity server on the same cache dir must not serve the
	// degraded bytes for the plain request.
	full := Request{GS: true, Procs: 2}
	norm, err := normalize("/search", full)
	if err != nil {
		t.Fatal(err)
	}
	if key := contentKey("/search", norm, 0, ""); key == contentKey("/search", norm, 3, "") {
		t.Error("degraded and full content keys collide")
	}
}

// A client that read a job's event stream to its terminal event finds the
// job terminal: GET /jobs/<id> never answers 202 once the stream has sealed.
// Every kind of job is held to it — done, failed, born done at full fidelity
// and degraded, and, after a restart, recovered done and recovered failed.
func TestSealedStreamMeansTerminalJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: dir, DegradeAt: -1, DegradeKeep: 3} // every /search degrades
	run := Request{GS: true, Procs: 2, Mode: "ctr", Defines: map[string]int64{"N": 8}}
	search := Request{GS: true, Procs: 2}
	bad := Request{Source: "proc main() { x := nope(); }", Entry: "main"}
	sealedThenGet := func(base, id, kind, wantLast string) {
		t.Helper()
		if last := checkStream(t, readEvents(t, base, id)); last.Type != wantLast {
			t.Errorf("%s job %s: terminal event %q, want %q", kind, id, last.Type, wantLast)
		}
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode == http.StatusAccepted {
			t.Errorf("%s job %s: GET after the sealed stream answered 202: %s", kind, id, body)
		}
	}

	a, hsA := newTestServer(t, cfg)
	var ids []string
	var lasts []string
	for _, tc := range []struct {
		kind       string
		sub        JobSubmit
		wantStatus string
		wantLast   string
	}{
		{"done", JobSubmit{Endpoint: "/run", Request: run}, "accepted", "done"},
		{"failed", JobSubmit{Endpoint: "/run", Request: bad}, "accepted", "failed"},
		{"born done (full)", JobSubmit{Endpoint: "/run", Request: run}, "done", "done"},
		{"degraded", JobSubmit{Endpoint: "/search", Request: search}, "accepted", "done"},
		{"born done (degraded)", JobSubmit{Endpoint: "/search", Request: search}, "done", "done"},
	} {
		resp, ack := postJSON(t, hsA.URL+"/jobs", tc.sub)
		var acc JobAccepted
		if err := json.Unmarshal(ack, &acc); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: POST /jobs = %d: %s", tc.kind, resp.StatusCode, ack)
		}
		if acc.Status != tc.wantStatus {
			t.Fatalf("%s: acknowledged %q, want %q", tc.kind, acc.Status, tc.wantStatus)
		}
		sealedThenGet(hsA.URL, acc.ID, tc.kind, tc.wantLast)
		ids, lasts = append(ids, acc.ID), append(lasts, tc.wantLast)
	}
	hsA.Close()
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	b, hsB := newTestServer(t, cfg)
	if st := b.Stats(); st.Jobs.Recovered != int64(len(ids)) || st.Jobs.Requeued != 0 {
		t.Fatalf("restart recovered %d / requeued %d, want %d / 0", st.Jobs.Recovered, st.Jobs.Requeued, len(ids))
	}
	for i, id := range ids {
		sealedThenGet(hsB.URL, id, "recovered "+lasts[i], lasts[i])
	}
}

// A job recovered from the journal re-runs under the deadline its request
// asked for, not the server's default: a /run acknowledged with a 90 s
// budget still has more than the 30 s default left when a restarted worker
// picks it up.
func TestRecoveredJobKeepsItsDeadline(t *testing.T) {
	cfg := Config{CacheDir: t.TempDir(), Workers: 1, DefaultDeadline: 30 * time.Second}
	cfg.gate = func(j *job) { <-j.ctx.Done() } // nothing settles before the crash
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, ack := do(t, a.Handler(), "POST", "/jobs", JobSubmit{Endpoint: "/run",
		Request: Request{GS: true, Procs: 2, Mode: "ctr", Defines: map[string]int64{"N": 8}, TimeoutMS: 90000}})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, ack)
	}
	a.crash()
	a.Close()

	left := make(chan time.Duration, 1)
	cfg.gate = func(j *job) {
		d, ok := j.ctx.Deadline()
		if !ok {
			left <- 0
			return
		}
		left <- time.Until(d)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	select {
	case d := <-left:
		if d <= cfg.DefaultDeadline || d > 90*time.Second {
			t.Errorf("recovered job has %v left, want the 90s it asked for", d.Round(time.Second))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the recovered job never reached a worker")
	}
}
