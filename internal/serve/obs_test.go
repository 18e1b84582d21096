package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"procdecomp/internal/adapt"
	"procdecomp/internal/durable/durabletest"
	"procdecomp/internal/obs"
)

// drainAndVerify shuts the server down and runs the full reconciliation.
func drainAndVerify(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Errorf("metrics reconciliation: %v", err)
	}
}

// scrapeURL fetches and strictly parses /metrics over the wire.
func scrapeURL(t *testing.T, base string) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	sc, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	return sc
}

// TestMetricsReconcileAfterMixedWorkload drives every kind of traffic the
// catalog counts — cache misses and hits, a typed failure, an async job, a
// panic retry — then requires the wire scrape to reconcile exactly with the
// server's Stats and the catalog's identities.
func TestMetricsReconcileAfterMixedWorkload(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, PanicEvery: 3, CacheDir: t.TempDir()})

	post(t, hs.URL+"/run", gsRun)                      // miss -> evaluate -> write
	post(t, hs.URL+"/run", gsRun)                      // hit
	post(t, hs.URL+"/compile", gsRun)                  // miss
	post(t, hs.URL+"/run", `{"bad json`)               // 400 invalid
	post(t, hs.URL+"/run", `{"GS":true,"Source":"x"}`) // 400 invalid

	// One typed program failure (422).
	resp, _ := post(t, hs.URL+"/run", `{"Source":"procedure p() { q(); }","Entry":"p"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad program resolved %d, want 422", resp.StatusCode)
	}

	// One async job through the full lifecycle.
	resp, body := post(t, hs.URL+"/jobs", `{"Endpoint":"/compile","Request":{"GS":true,"Procs":2,"Mode":"opt1","Defines":{"N":8}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit resolved %d: %s", resp.StatusCode, body)
	}
	var acc JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "async job to settle", func() bool {
		terminal := s.lookupJob(acc.ID).terminal()
		return terminal
	})

	sc := scrapeURL(t, hs.URL)
	if v := sc.Sum("pdserve_cache_ops_total", map[string]string{"op": "hit"}); v < 1 {
		t.Errorf("scrape shows %v cache hits, want >= 1", v)
	}
	if v := sc.Sum("pdserve_responses_total", map[string]string{"code": "400"}); v != 2 {
		t.Errorf("scrape shows %v 400s, want 2", v)
	}
	if v := sc.Sum("pdserve_responses_total", map[string]string{"code": "422", "cause": "program"}); v != 1 {
		t.Errorf("scrape shows %v program failures, want 1", v)
	}
	if v := sc.Sum("pdserve_jobs_total", map[string]string{"state": "accepted"}); v != 1 {
		t.Errorf("scrape shows %v accepted jobs, want 1", v)
	}

	drainAndVerify(t, s)
}

// TestVerifyScrapeDetectsDrift is the negative control, identities that
// cannot fail prove nothing. Stats reads the registry, so a count bumped on
// one ledger only cannot happen; an admission that never settles must fail
// the conservation identity instead, and one sample edited between the
// writer and the parser must fail the scrape-vs-Stats row naming its family.
func TestVerifyScrapeDetectsDrift(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	post(t, hs.URL+"/run", gsRun)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Fatalf("clean run must reconcile: %v", err)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	const line = "\npdserve_degraded_total 0\n"
	if !strings.Contains(buf.String(), line) {
		t.Fatalf("exposition lacks %q", line)
	}
	sc, err := obs.ParsePrometheus(strings.NewReader(strings.Replace(buf.String(), line, "\npdserve_degraded_total 1\n", 1)))
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyScrape(sc, s.Stats())
	if err == nil || !strings.Contains(err.Error(), "pdserve_degraded_total") {
		t.Errorf("an edited sample must fail reconciliation naming its family: %v", err)
	}

	s.m.admitted.Inc() // simulated drift: an admission that never settles
	err = s.VerifyMetrics()
	if err == nil {
		t.Fatal("an unsettled admission passed reconciliation")
	}
	if !strings.Contains(err.Error(), "conservation: admitted 2 + requeued 0 != completed+failed 1") {
		t.Errorf("drift error does not name the conservation identity: %v", err)
	}
}

// TestEveryFamilyHasAReader holds the catalog to DESIGN.md: the pdserve_*
// families a fresh server exposes are exactly the ones DESIGN's tables name
// (the reconciliation identities, the families read only as measurements,
// and the failure-mode table's signal column). An unread family fails it,
// and so does a row naming a family that is gone.
func TestEveryFamilyHasAReader(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	family := regexp.MustCompile(`pdserve_[a-z_]+`)
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "|") {
			for _, fam := range family.FindAllString(line, -1) {
				named[fam] = true
			}
		}
	}
	exposed := map[string]bool{}
	for fam := range sc.Types {
		exposed[fam] = true
	}
	if len(exposed) == 0 {
		t.Fatal("a fresh server exposes no family")
	}
	// missing lists, sorted, the names in a that b lacks.
	missing := func(a, b map[string]bool) []string {
		var out []string
		for k := range a {
			if !b[k] {
				out = append(out, k)
			}
		}
		sort.Strings(out)
		return out
	}
	if unread := missing(exposed, named); len(unread) > 0 {
		t.Errorf("exposed, but no DESIGN.md table names a reader: %v", unread)
	}
	if gone := missing(named, exposed); len(gone) > 0 {
		t.Errorf("named in DESIGN.md, but the server does not expose: %v", gone)
	}
}

// TestJournalErrorsNameTheSite pins the signal of DESIGN's "write or fsync
// error on a journal" row: a refused job-journal write answers POST /jobs 500
// and counts pdserve_journal_errors_total{site="accept"}; a refused
// decision-journal write counts {site="decision"}. Each writes one warn line
// with its site and error text. Neither breaks the other identities.
func TestJournalErrorsNameTheSite(t *testing.T) {
	// Operations 1 and 2 open the two journals; 3 is the first write.
	fs := durabletest.New(3, durabletest.Refuse)
	s, err := newServer(Config{CacheDir: t.TempDir(), Workers: 1, Adapt: adapt.Config{Enabled: true}}, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := do(t, s.Handler(), "POST", "/jobs", JobSubmit{Endpoint: "/compile", Request: Request{GS: true, Procs: 2, Mode: "ctr", Defines: map[string]int64{"N": 8}}})
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "job journal write failed") {
		t.Fatalf("POST /jobs over a failed journal: %d %s", code, body)
	}
	if v := s.m.journalErrors.Value("accept"); v != 1 {
		t.Errorf("journal_errors_total{site=accept} = %v, want 1", v)
	}
	s.persistDecision(adapt.Decision{Seq: 1, Scenario: "gs//p2", Outcome: "held"})
	if v := s.m.journalErrors.Value("decision"); v != 1 {
		t.Errorf("journal_errors_total{site=decision} = %v, want 1", v)
	}
	// Each refusal also leaves one warn line naming its site and the error,
	// the only place the error's text is kept.
	for _, want := range []struct{ msg, site string }{
		{"journal append failed", "accept"},
		{"adapt decision not durable", "decision"},
	} {
		found := 0
		for _, ln := range s.ring.Lines("") {
			if strings.HasPrefix(ln.Text, want.msg+" ") && ln.Level == slog.LevelWarn &&
				strings.Contains(ln.Text, " site="+want.site) && strings.Contains(ln.Text, " error=") {
				found++
			}
		}
		if found != 1 {
			t.Errorf("%d %q lines with site=%s and an error field, want 1; ring: %v",
				found, want.msg, want.site, s.ring.Lines(""))
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Errorf("a refused job must still reconcile: %v", err)
	}
}

// TestNoEventAfterTerminal pins the stream protocol: a publish after the
// terminal event must not reach the stream, must be counted, and must fail
// reconciliation — the regression the publish helper exists to catch.
func TestNoEventAfterTerminal(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	resp, body := post(t, hs.URL+"/jobs", `{"Endpoint":"/run","Request":{"GS":true,"Procs":2,"Mode":"ctr","Defines":{"N":8}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit resolved %d: %s", resp.StatusCode, body)
	}
	var acc JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	aj := s.lookupJob(acc.ID)
	waitFor(t, "job to settle", func() bool { return aj.terminal() })

	before, sealed := aj.log.snapshot()
	if !sealed {
		t.Fatal("terminal job's event log is not sealed")
	}
	s.publish(aj, Event{Type: "heartbeat", Clock: 99}) // protocol violation
	after, _ := aj.log.snapshot()
	if after != before {
		t.Fatalf("event published after terminal grew the stream %d -> %d", before, after)
	}
	if v := s.m.events.Value("dropped_after_terminal"); v != 1 {
		t.Fatalf("dropped_after_terminal = %v, want 1", v)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := s.VerifyMetrics()
	if err == nil || !strings.Contains(err.Error(), "after their stream's terminal event") {
		t.Errorf("reconciliation did not flag the after-terminal publish: %v", err)
	}
}

// TestRequestIDPropagation follows one ID from the ingress header through
// the response header, the job's event stream (with wall-clock stamps), the
// journal record, and the /logz retrieval.
func TestRequestIDPropagation(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	const rid = "r-test-propagation"

	req, err := http.NewRequest("POST", hs.URL+"/jobs",
		strings.NewReader(`{"Endpoint":"/run","Request":{"GS":true,"Procs":2,"Mode":"ctr","Defines":{"N":8}}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != rid {
		t.Errorf("response echoes request ID %q, want %q", got, rid)
	}

	aj := s.lookupJob(acc.ID)
	waitFor(t, "job to settle", func() bool { return aj.terminal() })
	evs, _, _ := aj.log.since(0)
	if len(evs) == 0 {
		t.Fatal("no events on the job stream")
	}
	wallLo := time.Now().Add(-time.Minute).UnixMilli()
	for _, ev := range evs {
		if ev.Req != rid {
			t.Errorf("event %d (%s) carries request ID %q, want %q", ev.Seq, ev.Type, ev.Req, rid)
		}
		if ev.WallMS < wallLo {
			t.Errorf("event %d (%s) wall time %d is implausible", ev.Seq, ev.Type, ev.WallMS)
		}
	}

	// The journal's accepted record carries the ID, so a restarted server
	// keeps the correlation.
	raw, err := os.ReadFile(filepath.Join(s.cfg.CacheDir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	fold := newJobFold()
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		if !fold.Accept(line) {
			t.Fatalf("journal line rejected: %s", line)
		}
	}
	found := false
	for _, rj := range fold.jobs {
		if rj.id == acc.ID {
			found = true
			if rj.RID != rid {
				t.Errorf("journal records request ID %q, want %q", rj.RID, rid)
			}
		}
	}
	if !found {
		t.Fatalf("job %s not in the journal", acc.ID)
	}

	lresp, err := http.Get(hs.URL + "/logz?req=" + rid)
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var lines []obs.Line
	if err := json.NewDecoder(lresp.Body).Decode(&lines); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("/logz returned no lines for the request ID")
	}
	for _, ln := range lines {
		if ln.Req != rid {
			t.Errorf("/logz line %q tagged %q, want %q", ln.Text, ln.Req, rid)
		}
	}
}

// TestJobTraceStitchesBothClockDomains submits a traced job and requires
// /jobs/{id}/trace to return one Chrome document holding wall-time service
// spans and virtual-time machine events, both tagged with the request ID.
// The wall spans name the job's queue wait, its attempt and its cache
// install, in that order.
func TestJobTraceStitchesBothClockDomains(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	const rid = "r-test-trace"

	req, err := http.NewRequest("POST", hs.URL+"/jobs?trace=1",
		strings.NewReader(`{"Endpoint":"/run","Request":{"GS":true,"Procs":2,"Mode":"ctr","Defines":{"N":8}}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var acc JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	aj := s.lookupJob(acc.ID)
	waitFor(t, "traced job to settle", func() bool { return aj.terminal() })

	tresp, err := http.Get(hs.URL + "/jobs/" + acc.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d", tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		PDObs struct {
			RequestID     string
			WallSpans     int
			MachineEvents int
		} `json:"pdobs"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("stitched trace does not parse: %v", err)
	}
	if doc.PDObs.RequestID != rid {
		t.Errorf("trace names request %q, want %q", doc.PDObs.RequestID, rid)
	}
	if doc.PDObs.WallSpans < 2 || doc.PDObs.MachineEvents == 0 {
		t.Errorf("trace has %d wall spans and %d machine events, want >=2 and >0",
			doc.PDObs.WallSpans, doc.PDObs.MachineEvents)
	}
	wallLinked, machine := 0, 0
	var wall []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Pid == 1<<21 {
			wall = append(wall, ev.Name)
			if ev.Args["request_id"] == rid {
				wallLinked++
			}
		} else {
			machine++
		}
	}
	if got := strings.Join(wall, ", "); got != "queued, attempt 1, cache install" {
		t.Errorf("wall spans %q, want queued, attempt 1, cache install", got)
	}
	if wallLinked != doc.PDObs.WallSpans {
		t.Errorf("%d of %d wall spans carry the request ID", wallLinked, doc.PDObs.WallSpans)
	}
	if machine == 0 {
		t.Error("no machine events on the non-service tracks")
	}
}

// TestSyncTraceQuery pins the synchronous flavor: POST /run?trace=1 answers
// with the stitched trace document instead of the result body, and the
// result still lands in the cache for the next untraced request.
func TestSyncTraceQuery(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	resp, body := post(t, hs.URL+"/run?trace=1", gsRun)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced run resolved %d: %.200s", resp.StatusCode, body)
	}
	var doc struct {
		PDObs struct{ MachineEvents int } `json:"pdobs"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("traced response is not a stitched trace: %v", err)
	}
	if doc.PDObs.MachineEvents == 0 {
		t.Error("traced run stitched no machine events")
	}
	resp, _ = post(t, hs.URL+"/run", gsRun)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("untraced repeat after traced run: X-Cache %q, want hit (the traced evaluation must still populate the cache)", got)
	}
	drainAndVerify(t, s)
}

// TestCauseLabelsStayInContract pins every ErrKind's derived cause label to
// the allowedCauses contract VerifyScrape enforces.
func TestCauseLabelsStayInContract(t *testing.T) {
	kinds := []ErrKind{KindInvalid, KindShed, KindDraining, KindDeadline,
		KindCanceled, KindFailed, KindPanic, KindInternal, KindNotFound}
	for _, k := range kinds {
		e := &JobError{Kind: k}
		code := fmt.Sprintf("%d", e.HTTPStatus())
		if !allowedCauses[code][e.causeLabel()] {
			t.Errorf("kind %s derives cause %q, not allowed for code %s", k, e.causeLabel(), code)
		}
	}
	for _, explicit := range []struct {
		kind  ErrKind
		cause string
	}{
		{KindShed, "fair_share"}, {KindDeadline, "doomed"},
	} {
		e := &JobError{Kind: explicit.kind, cause: explicit.cause}
		code := fmt.Sprintf("%d", e.HTTPStatus())
		if !allowedCauses[code][e.causeLabel()] {
			t.Errorf("explicit cause %q not allowed for code %s", explicit.cause, code)
		}
	}
}

// TestMetricsExpositionIsDeterministic pins the exposition format: two
// writes of the same registry are byte-identical, and a fresh server
// pre-touches its fixed label spaces so equal workloads expose equal
// sample sets.
func TestMetricsExpositionIsDeterministic(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var a, b bytes.Buffer
	if err := s.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two writes of an idle registry differ")
	}
	sc, err := obs.ParsePrometheus(&a)
	if err != nil {
		t.Fatalf("fresh exposition does not parse: %v", err)
	}
	for _, fam := range []string{
		"pdserve_admitted_total", "pdserve_sheds_total", "pdserve_jobs_total",
		"pdserve_events_total", "pdserve_cache_ops_total", "pdserve_journal_appends_total",
		"pdserve_queue_depth", "pdserve_workers_busy",
	} {
		if len(sc.Series(fam)) == 0 {
			t.Errorf("fresh server does not expose %s", fam)
		}
	}
}

// VerifyMetrics writes the server's own registry, parses it back strictly and
// checks every reconciliation identity against the live Stats. Meaningful
// after Shutdown: the conservation identities only hold once every admitted
// job has settled.
func (s *Server) VerifyMetrics() error {
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		return err
	}
	sc, err := obs.ParsePrometheus(&buf)
	if err != nil {
		return err
	}
	return VerifyScrape(sc, s.Stats())
}
