package load

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"procdecomp/internal/serve"
)

// A scaled-down load run must pass every gate: no hung operations, every
// acknowledged job terminal, no byte-identity conflicts — with panics
// injected and the queue small enough that shedding and degradation engage.
func TestLoadRunGates(t *testing.T) {
	if testing.Short() {
		t.Skip("load run in -short mode")
	}
	cfg := Config{
		Requests:      300,
		Concurrency:   100,
		Seed:          7,
		ClientTimeout: 60 * time.Second,
		Server: serve.Config{
			// A deliberately small queue over few workers: on a loaded
			// single-CPU CI runner the clients interleave instead of truly
			// bursting, and 4 workers can drain 16 slots fast enough that a
			// run occasionally sheds nothing — which fails the assertion
			// below. 8 slots over 2 workers keeps overflow certain without
			// changing what the test proves.
			QueueDepth: 8, Workers: 2,
			PanicEvery: 5, DegradeAt: 0.5, AdmitSeed: 7,
		},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Metrics must reconcile even under full chaos: the identities hold
	// per-run regardless of how the races resolved.
	if err := rep.Gate(true); err != nil {
		t.Fatal(err)
	}
	if rep.Statuses["200"] == 0 {
		t.Error("no successful operations at all")
	}
	if rep.Stats.Shed == 0 {
		t.Error("100 clients against a 16-deep queue shed nothing; the overload path never ran")
	}
	if rep.Stats.Panics == 0 {
		t.Error("chaos panics never fired")
	}
	if rep.JobsSubmitted == 0 {
		t.Error("the mix produced no async jobs")
	}

	// Same seed, fresh server: every shared identity byte-identical.
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep2.Gate(true); err != nil {
		t.Fatal(err)
	}
	if bad := CompareDigests(rep.Digests, rep2.Digests); len(bad) > 0 {
		t.Errorf("repeated seeded run produced different bytes for %v", bad)
	}
}

// Under the tame mix (no disconnects, no doomed deadlines) at concurrency 1,
// two equal-seeded runs must expose equal counter values — the cross-run
// half of the observability determinism gate.
func TestLoadTameMixCountersReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("load run in -short mode")
	}
	cfg := Config{
		Requests:      120,
		Concurrency:   1,
		Seed:          11,
		Mix:           "tame",
		ClientTimeout: 60 * time.Second,
		Server: serve.Config{
			QueueDepth: 16, Workers: 4,
			PanicEvery: 5, DegradeAt: 0.5, AdmitSeed: 11,
		},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(true); err != nil {
		t.Fatal(err)
	}
	if rep.Disconnects != 0 {
		t.Errorf("tame mix ran %d disconnect operations, want 0", rep.Disconnects)
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("report carries no scraped counters")
	}
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep2.Gate(true); err != nil {
		t.Fatal(err)
	}
	if bad := CompareMetrics(rep.Metrics, rep2.Metrics); len(bad) > 0 {
		t.Errorf("equal tame runs scraped different counters for %v", bad)
	}
}

// The mix parameter is validated, and the tame remap only changes the racy
// kinds.
func TestMixValidationAndRemap(t *testing.T) {
	// "phase" is pdload's own branch (RunPhase), not a storm mix.
	for _, m := range []string{"wild", "phase"} {
		if _, err := Run(Config{Requests: 1, Concurrency: 1, Mix: m}); err == nil {
			t.Errorf("mix %q accepted", m)
		}
	}
	for _, k := range []opKind{opSync, opJob, opStream} {
		if got := tamePlan(plan{kind: k}).kind; got != k {
			t.Errorf("tame remapped kind %d to %d", k, got)
		}
	}
	for _, k := range []opKind{opDisconnect, opDoomed} {
		if got := tamePlan(plan{kind: k, cancelMS: 5}); got.kind != opSync || got.cancelMS != 0 {
			t.Errorf("tame left kind %d as %+v", k, got)
		}
	}
}

// The plan derivation is a pure function of (seed, index).
func TestPlanDeterministic(t *testing.T) {
	n := len(templates())
	for i := 0; i < 500; i++ {
		a, b := planFor(42, i, n), planFor(42, i, n)
		if a != b {
			t.Fatalf("planFor(42, %d) unstable: %+v vs %+v", i, a, b)
		}
	}
	kinds := map[opKind]int{}
	for i := 0; i < 1000; i++ {
		kinds[planFor(1, i, n).kind]++
	}
	for _, k := range []opKind{opSync, opJob, opStream, opDisconnect, opDoomed} {
		if kinds[k] == 0 {
			t.Errorf("1000 plans never produced kind %d", k)
		}
	}
}

// The smoke mix is the service's self-check: every response a 200 although
// every other evaluation panics, the cache serving the repeats, the scrape
// reconciling, and a traced request found again in the trace and in /logz.
func TestSmokeMix(t *testing.T) {
	rep, err := Run(Config{Mix: "smoke", Requests: 40, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(false); err != nil {
		t.Fatal(err)
	}
	if len(rep.Statuses) != 1 || rep.Statuses["200"] != 40 {
		t.Errorf("statuses %v, want 40 × 200", rep.Statuses)
	}
	if rep.Stats.Panics == 0 || rep.Stats.Panics != rep.Stats.Retries {
		t.Errorf("%d panics, %d retries: want some, each retried once", rep.Stats.Panics, rep.Stats.Retries)
	}
	if rep.Stats.Cache.Hits == 0 {
		t.Error("no cache hits: the repeats never reached the cache")
	}
	if rep.MetricsCheck != "" || len(rep.Metrics) == 0 {
		t.Errorf("scrape: %d counters, check %q", len(rep.Metrics), rep.MetricsCheck)
	}
	if tr := rep.Trace; tr == nil || tr.WallSpans == 0 || tr.MachineEvents == 0 || tr.LogLines == 0 {
		t.Errorf("trace round trip: %+v", tr)
	}
	if rep.DigestConflicts != 0 || len(rep.Digests) != len(smokeTemplates()) {
		t.Errorf("%d identities, %d conflicts, want %d and 0", len(rep.Digests), rep.DigestConflicts, len(smokeTemplates()))
	}
	if rep.Sync != 40 || rep.Hung != 0 {
		t.Errorf("%d sync operations, %d hung", rep.Sync, rep.Hung)
	}
}

// What the smoke promises beyond the storm's gates fails by name — and only
// for a smoke report.
func TestSmokeGateNamesFailures(t *testing.T) {
	healthy := func() *Report {
		return &Report{Mix: "smoke", Statuses: map[string]int{"200": 40}, Stats: serve.Stats{Panics: 3}}
	}
	if err := healthy().Gate(false); err != nil {
		t.Fatalf("healthy report flunked: %v", err)
	}
	for _, tc := range []struct {
		name  string
		wreck func(*Report)
		want  string
	}{
		{"a 422 among the 200s", func(r *Report) { r.Statuses["422"] = 1 }, "1 × 422"},
		{"a transport error", func(r *Report) { r.Statuses["error"] = 2 }, "2 × error"},
		{"no panic injected", func(r *Report) { r.Stats.Panics = 0 }, "isolation path went unexercised"},
		{"scrape does not reconcile", func(r *Report) { r.MetricsCheck = "counter drift" }, "metrics reconciliation: counter drift"},
		{"a hung operation", func(r *Report) { r.Hung = 1 }, "1 hung"},
	} {
		r := healthy()
		tc.wreck(r)
		if err := r.Gate(false); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: gate said %v, want it to name %q", tc.name, err, tc.want)
		}
		// The storm promises none of this, except that nothing hangs.
		r.Mix = "chaos"
		if err := r.Gate(false); err != nil && r.Hung == 0 {
			t.Errorf("%s: failed a chaos report too: %v", tc.name, err)
		}
	}
}

// Each line of the observability round trip's verdict fails on its own.
func TestTraceVerdictNamesFailures(t *testing.T) {
	const rid = "r-x"
	stitched := func(id string, wall, machine int) []byte {
		return []byte(fmt.Sprintf(`{"traceEvents":[],"pdobs":{"RequestID":%q,"WallSpans":%d,"MachineEvents":%d}}`, id, wall, machine))
	}
	got, err := traceVerdict(rid, rid, stitched(rid, 3, 205), []byte(`[{},{}]`))
	if err != nil || *got != (TraceCheck{WallSpans: 3, MachineEvents: 205, LogLines: 2}) {
		t.Fatalf("healthy round trip: %+v, %v", got, err)
	}
	for _, tc := range []struct {
		echoed         string
		stitched, logz []byte
		want           string
	}{
		{"r-other", stitched(rid, 3, 205), []byte(`[{}]`), "request ID not echoed"},
		{rid, []byte(`not json`), []byte(`[{}]`), "stitched trace does not parse"},
		{rid, stitched("r-other", 3, 205), []byte(`[{}]`), `trace names request "r-other"`},
		{rid, stitched(rid, 0, 205), []byte(`[{}]`), "no wall-time service spans"},
		{rid, stitched(rid, 3, 0), []byte(`[{}]`), "no virtual-time machine events"},
		{rid, stitched(rid, 3, 205), []byte(`{`), "/logz does not parse"},
		{rid, stitched(rid, 3, 205), []byte(`[]`), "left no structured log lines"},
	} {
		if _, err := traceVerdict(rid, tc.echoed, tc.stitched, tc.logz); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("verdict %v, want it to name %q", err, tc.want)
		}
	}
}

// One latency summary, one index rule: the q-quantile of n sorted samples is
// element int(q*n), clamped. Samples are 1..n ms, so element i reads i+1.
func TestPercentilesIndexRule(t *testing.T) {
	if got := percentiles(nil); got != (Percentiles{}) {
		t.Errorf("no samples: %+v", got)
	}
	for _, tc := range []struct {
		n    int
		want Percentiles
	}{
		{1, Percentiles{P50: 1, P99: 1, P999: 1, Max: 1}},
		{2, Percentiles{P50: 2, P99: 2, P999: 2, Max: 2}},
		{60, Percentiles{P50: 31, P99: 60, P999: 60, Max: 60}},
		{100, Percentiles{P50: 51, P99: 100, P999: 100, Max: 100}},
		{1000, Percentiles{P50: 501, P99: 991, P999: 1000, Max: 1000}},
	} {
		ms := make([]float64, tc.n)
		for i := range ms {
			ms[i] = float64(tc.n - i) // descending: percentiles must sort
		}
		if got := percentiles(ms); got != tc.want {
			t.Errorf("n=%d: %+v, want %+v", tc.n, got, tc.want)
		}
		if ms[0] != float64(tc.n) {
			t.Errorf("n=%d: percentiles reordered its argument", tc.n)
		}
	}
}

// One counter-diff loop: the union of both sides, sorted, with the exemptions
// CompareMetrics documents as a filter over it.
func TestCompareCounters(t *testing.T) {
	a := map[string]float64{
		"pdserve_completed_total{}":                            6,
		"pdserve_panics_total{}":                               3,
		"pdserve_only_in_a_total{}":                            0,
		"pdserve_worker_busy_seconds_total{}":                  0.04,
		`pdserve_http_requests_total{code="200",route="/run"}`: 37,
	}
	b := map[string]float64{
		"pdserve_completed_total{}":                               6,
		"pdserve_panics_total{}":                                  4,
		"pdserve_only_in_b_total{}":                               0,
		"pdserve_worker_busy_seconds_total{}":                     0.05,
		`pdserve_http_requests_total{code="200",route="/run"}`:    37,
		`pdserve_http_requests_total{code="200",route="/readyz"}`: 2,
	}
	if bad := CompareCounters(a, a, nil); len(bad) != 0 {
		t.Errorf("a map differs from itself: %v", bad)
	}
	want := []string{
		`pdserve_http_requests_total{code="200",route="/readyz"}`,
		"pdserve_only_in_a_total{}", "pdserve_only_in_b_total{}",
		"pdserve_panics_total{}", "pdserve_worker_busy_seconds_total{}",
	}
	if bad := CompareCounters(a, b, nil); !reflect.DeepEqual(bad, want) {
		t.Errorf("unfiltered diff %v, want %v", bad, want)
	}
	if bad := CompareMetrics(a, b); !reflect.DeepEqual(bad, want[1:4]) {
		t.Errorf("CompareMetrics %v, want %v (timing and HTTP-edge families exempt)", bad, want[1:4])
	}
}
