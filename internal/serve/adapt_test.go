package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"procdecomp/internal/adapt"
	"procdecomp/internal/durable"
)

// The end-to-end adaptation proof: a server watching real /run traffic
// detects a problem-size shift, runs a real autotune search in the
// background, hot-swaps the winning mapping for subsequent requests, and —
// after a restart on the same cache directory — resumes the preference from
// its decision journal. procs=2 with N stepping 8→12 is the smallest
// workload where the search finds a decisive winner, so the test stays fast.

const (
	adaptBaseRun  = `{"GS":true,"Procs":2,"Mode":"ctr","Defines":{"N":8}}`
	adaptShiftRun = `{"GS":true,"Procs":2,"Mode":"ctr","Defines":{"N":12}}`
)

// adaptTestConfig is tuned so a handful of requests cross every threshold:
// four observations warm the scenario up, two dwells confirm the shift, and
// the long cooldown guarantees at most one search in the test's lifetime.
func adaptTestConfig(dir string) Config {
	return Config{
		CacheDir: dir,
		Workers:  1,
		Adapt: adapt.Config{
			Enabled: true, MinObs: 4, Dwell: 2,
			Cooldown: 1000, MinGain: 0.01, SearchKeep: 6,
		},
	}
}

func getAdapt(t *testing.T, base string) AdaptResponse {
	t.Helper()
	resp, err := http.Get(base + "/adapt")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ar AdaptResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("bad /adapt body: %v\n%s", err, body)
	}
	return ar
}

// waitAdaptSettled polls GET /adapt until no search is queued or in flight
// and at least wantDecisions have settled.
func waitAdaptSettled(t *testing.T, base string, wantDecisions int) AdaptResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ar := getAdapt(t, base)
		if !ar.Status.Busy && len(ar.Decisions) >= wantDecisions {
			return ar
		}
		if time.Now().After(deadline) {
			t.Fatalf("adaptation did not settle: %+v", ar)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeAdaptsToWorkloadShift(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, adaptTestConfig(dir))

	// Phase 1: N=8 traffic anchors the scenario's tuning. No preference yet,
	// so neither the body nor the header names a mapping.
	for i := 0; i < 4; i++ {
		resp, body := post(t, hs.URL+"/run", adaptBaseRun)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("base run %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Adapt-Mapping"); got != "" {
			t.Fatalf("base run %d carries mapping %q before any decision", i, got)
		}
	}

	// Phase 2: sustained N=12 traffic. After four N=8 observations the new
	// shape's share first reaches the shift threshold on its fifth
	// observation and Dwell confirms on the sixth, so eight requests leave
	// two to spare — and the cooldown forbids a second trigger.
	var preMakespan uint64
	for i := 0; i < 8; i++ {
		resp, body := post(t, hs.URL+"/run", adaptShiftRun)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shift run %d: status %d: %s", i, resp.StatusCode, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Mapping == "" {
			preMakespan = rr.Makespan
		}
	}
	if preMakespan == 0 {
		t.Fatal("no pre-switch N=12 run observed")
	}

	ar := waitAdaptSettled(t, hs.URL, 1)
	if len(ar.Decisions) != 1 {
		t.Fatalf("decisions = %d, want exactly 1: %+v", len(ar.Decisions), ar.Decisions)
	}
	d := ar.Decisions[0]
	if d.Seq != 1 || d.Cause != "shift" {
		t.Errorf("decision seq/cause = %d/%q, want 1/shift", d.Seq, d.Cause)
	}
	if d.Outcome != "switched" || d.Mapping == "" {
		t.Fatalf("decision = %+v, want a switched outcome with a mapping", d)
	}
	if d.MeasuredGain < 0.01 {
		t.Errorf("measured gain %v below the switch threshold", d.MeasuredGain)
	}

	// Phase 3: the next N=12 request runs under the winner — visible in the
	// body, the header, and the makespan.
	resp, body := post(t, hs.URL+"/run", adaptShiftRun)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-switch run: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Adapt-Mapping"); got != d.Mapping {
		t.Errorf("X-Adapt-Mapping = %q, want %q", got, d.Mapping)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Mapping != d.Mapping {
		t.Errorf("response Mapping = %q, want %q", rr.Mapping, d.Mapping)
	}
	if rr.Makespan >= preMakespan {
		t.Errorf("post-switch makespan %d not better than pre-switch %d", rr.Makespan, preMakespan)
	}
	postMakespan := rr.Makespan

	// The mapped result caches under its own key: the same request hits, and
	// the switch never re-serves the old decomposition's bytes.
	resp2, body2 := post(t, hs.URL+"/run", adaptShiftRun)
	if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, body2) {
		t.Error("post-switch request did not hit its mapping-qualified cache entry")
	}

	// Drain, then reconcile every ledger.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Adapt.Triggers != 1 || st.Adapt.Switched != 1 {
		t.Errorf("adapt stats = %+v, want exactly one switched trigger", st.Adapt)
	}

	// Restart on the same directory: the decision journal folds to state on
	// open, the preference resumes without re-learning, and the mapped cache
	// entry still answers.
	s2, hs2 := newTestServer(t, adaptTestConfig(dir))
	if got := s2.Stats().Journal.AdaptOpenCompactions; got != 1 {
		t.Errorf("restart adapt open compactions = %d, want 1", got)
	}
	ar2 := getAdapt(t, hs2.URL)
	if len(ar2.Decisions) != 0 {
		t.Errorf("restarted server replays %d decisions as its own", len(ar2.Decisions))
	}
	var found bool
	for _, sc := range ar2.Status.Scenarios {
		if sc.Preferred == d.Mapping {
			found = true
		}
	}
	if !found {
		t.Fatalf("restored scenarios %+v carry no preference %q", ar2.Status.Scenarios, d.Mapping)
	}
	resp3, body3 := post(t, hs2.URL+"/run", adaptShiftRun)
	if got := resp3.Header.Get("X-Adapt-Mapping"); got != d.Mapping {
		t.Errorf("restarted X-Adapt-Mapping = %q, want %q", got, d.Mapping)
	}
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Errorf("restarted mapped request X-Cache = %q, want hit", resp3.Header.Get("X-Cache"))
	}
	var rr3 RunResponse
	if err := json.Unmarshal(body3, &rr3); err != nil {
		t.Fatal(err)
	}
	if rr3.Makespan != postMakespan {
		t.Errorf("restarted makespan %d != pre-restart %d", rr3.Makespan, postMakespan)
	}
	// Reconciliation holds on the restarted server too, once drained.
	s2.Close()
	if err := s2.VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
}

// A decision the journal could not make durable is an error the caller sees,
// and it stays out of the folded state: a restart restores exactly what
// reached disk.
func TestDecisionJournalAppendReportsFailure(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openDecisionJournal(durable.OS{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendDecision := func(d adapt.Decision) error {
		line, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return j.Append(line)
	}
	kept := adapt.Decision{Seq: 1, Scenario: "s", Shape: "a", Outcome: "switched", Mapping: "all"}
	if err := appendDecision(kept); err != nil {
		t.Fatalf("append on an open journal: %v", err)
	}
	j.Close() // what Server.crash does to it
	lost := adapt.Decision{Seq: 2, Scenario: "s", Shape: "b", Outcome: "switched", Mapping: "single"}
	if err := appendDecision(lost); err == nil {
		t.Fatal("append after the journal closed reported success")
	}
	j2, restored, maxSeq, err := openDecisionJournal(durable.OS{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(restored) != 1 || restored[0].Preferred != "all" || restored[0].TunedFor != "a" || maxSeq != 1 {
		t.Errorf("restart restored %+v (maxSeq %d), want only the durable decision", restored, maxSeq)
	}
}
