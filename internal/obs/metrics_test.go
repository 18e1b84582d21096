package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestExpositionDeterministicAndParsable(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_requests_total", "requests by route and outcome", "route", "outcome")
	c.Inc("/run", "ok")
	c.Inc("/run", "ok")
	c.Inc("/compile", "error")
	g := r.NewGauge("t_queue_depth", "queued jobs")
	g.Set(3)
	g.Add(-1)
	h := r.NewHistogram("t_wait_seconds", "queue wait", []float64{0.01, 0.1, 1}, "route")
	h.Observe(0.005, "/run")
	h.Observe(0.05, "/run")
	h.Observe(50, "/run")

	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two writes of the same registry differ:\n%s\n---\n%s", a.String(), b.String())
	}

	sc, err := ParsePrometheus(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("own output does not re-parse: %v\n%s", err, a.String())
	}
	if v, err := sc.Value("t_requests_total", map[string]string{"route": "/run", "outcome": "ok"}); err != nil || v != 2 {
		t.Errorf("t_requests_total{/run,ok} = %v, %v; want 2", v, err)
	}
	if got := sc.Sum("t_requests_total", nil); got != 3 {
		t.Errorf("sum over t_requests_total = %v, want 3", got)
	}
	if v, err := sc.Value("t_queue_depth", nil); err != nil || v != 2 {
		t.Errorf("t_queue_depth = %v, %v; want 2", v, err)
	}
	if v, err := sc.Value("t_wait_seconds_count", map[string]string{"route": "/run"}); err != nil || v != 3 {
		t.Errorf("t_wait_seconds_count = %v, %v; want 3", v, err)
	}
	if v, err := sc.Value("t_wait_seconds_bucket", map[string]string{"route": "/run", "le": "0.1"}); err != nil || v != 2 {
		t.Errorf("le=0.1 bucket = %v, %v; want cumulative 2", v, err)
	}
	// Families appear in sorted order.
	idx := func(s string) int { return strings.Index(a.String(), "# TYPE "+s) }
	if !(idx("t_queue_depth") < idx("t_requests_total") && idx("t_requests_total") < idx("t_wait_seconds")) {
		t.Errorf("families not sorted:\n%s", a.String())
	}
}

func TestCounterConcurrencyLosesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "concurrent increments")
	h := r.NewHistogram("t_obs_seconds", "concurrent observations", []float64{1, 2}, "k")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(1.5, "x")
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter lost increments: %v of %v", got, workers*per)
	}
	if got := h.Count("x"); got != workers*per {
		t.Errorf("histogram lost observations: %v of %v", got, workers*per)
	}
}

// Reading a metric is not writing it: a read of a label set nothing touched
// answers 0 and leaves the exposition byte for byte as it was, and a family
// nothing has written still names itself with its HELP and TYPE lines.
func TestReadsDoNotCreateSeries(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "by kind", "kind")
	c.Inc("a")
	g := r.NewGauge("t_level", "by kind", "kind")
	g.Set(2, "a")
	h := r.NewHistogram("t_seconds", "by kind", []float64{1}, "kind")
	h.Observe(0.5, "a")
	r.NewCounter("t_unwritten_total", "never written")
	var before, after bytes.Buffer
	if err := r.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	if v := c.Value("b"); v != 0 {
		t.Errorf("untouched counter reads %v", v)
	}
	if v := g.Value("b"); v != 0 {
		t.Errorf("untouched gauge reads %v", v)
	}
	if v := h.Count("b"); v != 0 {
		t.Errorf("untouched histogram counts %v", v)
	}
	if err := r.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Errorf("reads changed the exposition:\n%s\n---\n%s", before.String(), after.String())
	}
	sc, err := ParsePrometheus(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Types["t_unwritten_total"] != "counter" || len(sc.Series("t_unwritten_total")) != 0 {
		t.Errorf("unwritten family: type %q, %d samples; want its TYPE line and no sample",
			sc.Types["t_unwritten_total"], len(sc.Series("t_unwritten_total")))
	}
}

func TestParserRejectsMalformedExposition(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "x_total 1\n",
		"garbage line":        "# TYPE x_total counter\nx_total one\n",
		"unknown type":        "# TYPE x summary\n",
		"negative counter":    "# TYPE x_total counter\nx_total -1\n",
		"unterminated labels": "# TYPE x_total counter\nx_total{a=\"b\" 1\n",
		"histogram no +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 0.5\nh_count 1\n",
		"histogram count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 2\n",
		"histogram non-cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"suffixed counter sample": "# TYPE x counter\nx_bucket{le=\"1\"} 1\n",
	}
	for name, text := range cases {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted malformed exposition:\n%s", name, text)
		}
	}
}

func TestParserAcceptsEscapedLabels(t *testing.T) {
	text := "# TYPE x_total counter\n" +
		"x_total{msg=\"a \\\"quoted\\\" path\\\\name\\nnext\"} 4\n"
	sc, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := "a \"quoted\" path\\name\nnext"
	if got := sc.Samples[0].Labels["msg"]; got != want {
		t.Errorf("unescaped label = %q, want %q", got, want)
	}
	// And the writer escapes the same way, round-tripping.
	r := NewRegistry()
	r.NewCounter("x_total", "t", "msg").Add(4, want)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc2, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if got := sc2.Samples[0].Labels["msg"]; got != want {
		t.Errorf("round-tripped label = %q, want %q", got, want)
	}
}
