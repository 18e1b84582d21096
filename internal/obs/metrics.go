// Package obs is the service's measurement plane: a dependency-free
// metrics registry with Prometheus text exposition (and a strict parser for
// the self-check gates), structured request logging built on log/slog with a
// request ID carried in context, and wall-time span recording that stitches
// service spans together with the simulated machine's virtual-time Chrome
// trace.
//
// The package deliberately has no opinion about what is measured — the serve
// package owns its metric catalog and its reconciliation identities — but it
// guarantees the properties those identities need: counters never lose
// increments under concurrency, exposition output is deterministic (families
// and series in sorted order, numbers formatted canonically), and the parser
// round-trips everything the writer emits.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families. The zero value is not usable; create with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with a fixed label schema and a series per
// distinct label-value tuple.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, +Inf implicit

	mu     sync.Mutex
	series map[string]*series
}

// series is one (family, label values) time series. Counters and gauges use
// val; histograms use counts/sum/total.
type series struct {
	labelVals []string

	val atomic.Uint64 // float64 bits

	counts []atomic.Uint64 // per finite bucket, non-cumulative
	inf    atomic.Uint64   // observations above every finite bucket
	sumB   atomic.Uint64   // float64 bits of the observation sum
}

func (s *series) add(delta float64) {
	for {
		old := s.val.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if s.val.CompareAndSwap(old, next) {
			return
		}
	}
}

func (s *series) set(v float64) { s.val.Store(math.Float64bits(v)) }

// get reads the value; a nil series (never written) reads 0.
func (s *series) get() float64 {
	if s == nil {
		return 0
	}
	return math.Float64frombits(s.val.Load())
}

func (s *series) observe(v float64, buckets []float64) {
	i := sort.SearchFloat64s(buckets, v) // first bucket with bound >= v
	if i < len(buckets) {
		s.counts[i].Add(1)
	} else {
		s.inf.Add(1)
	}
	for {
		old := s.sumB.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumB.CompareAndSwap(old, next) {
			return
		}
	}
}

func (r *Registry) family(name, help, typ string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, buckets: buckets,
		labels: append([]string(nil), labels...), series: map[string]*series{}}
	r.families[name] = f
	return f
}

func (f *family) key(vals []string) string {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	return strings.Join(vals, "\xff")
}

// lookup returns the addressed series, or nil if it was never written:
// reading a metric must not add a sample to the exposition.
func (f *family) lookup(vals ...string) *series {
	key := f.key(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.series[key]
}

// with returns the addressed series, creating it on first write.
func (f *family) with(vals ...string) *series {
	key := f.key(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelVals: append([]string(nil), vals...)}
	if f.typ == "histogram" {
		s.counts = make([]atomic.Uint64, len(f.buckets))
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing value, addressed by label values.
type Counter struct{ f *family }

// NewCounter registers (or returns the existing) counter family.
func (r *Registry) NewCounter(name, help string, labels ...string) Counter {
	return Counter{r.family(name, help, "counter", nil, labels)}
}

// Inc adds 1 to the series addressed by the label values.
func (c Counter) Inc(labelVals ...string) { c.f.with(labelVals...).add(1) }

// Add adds v (which must be >= 0) to the addressed series.
func (c Counter) Add(v float64, labelVals ...string) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter %q decremented", c.f.name))
	}
	c.f.with(labelVals...).add(v)
}

// Value reads the addressed series (0 if never touched, which it stays).
func (c Counter) Value(labelVals ...string) float64 { return c.f.lookup(labelVals...).get() }

// Gauge is a value that can move both ways.
type Gauge struct{ f *family }

// NewGauge registers (or returns the existing) gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) Gauge {
	return Gauge{r.family(name, help, "gauge", nil, labels)}
}

// Set stores v on the addressed series.
func (g Gauge) Set(v float64, labelVals ...string) { g.f.with(labelVals...).set(v) }

// Add moves the addressed series by delta.
func (g Gauge) Add(delta float64, labelVals ...string) { g.f.with(labelVals...).add(delta) }

// Value reads the addressed series (0 if never touched, which it stays).
func (g Gauge) Value(labelVals ...string) float64 { return g.f.lookup(labelVals...).get() }

// Histogram is a bucketed distribution (cumulative buckets on exposition).
type Histogram struct{ f *family }

// DefBuckets suits request latencies in seconds: 1ms up to ~65s, doubling.
var DefBuckets = []float64{0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064,
	0.128, 0.256, 0.512, 1.024, 2.048, 4.096, 8.192, 16.384, 32.768, 65.536}

// NewHistogram registers (or returns the existing) histogram family with the
// given ascending finite bucket bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return Histogram{r.family(name, help, "histogram", buckets, labels)}
}

// Observe records one sample on the addressed series.
func (h Histogram) Observe(v float64, labelVals ...string) {
	h.f.with(labelVals...).observe(v, h.f.buckets)
}

// Count reads the addressed series' observation count (0 if never touched,
// which it stays).
func (h Histogram) Count(labelVals ...string) float64 {
	s := h.f.lookup(labelVals...)
	if s == nil {
		return 0
	}
	var n uint64
	for i := range s.counts {
		n += s.counts[i].Load()
	}
	return float64(n + s.inf.Load())
}

// formatValue renders a sample canonically: integers without an exponent,
// everything else in Go's shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func labelPairs(names, vals []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(vals[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4). Output is deterministic: families sorted by name, series
// sorted by label values, histogram buckets cumulative and ascending. A
// family nothing has written yet is its HELP and TYPE lines alone, so every
// scrape names the whole catalog.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range sers {
			switch f.typ {
			case "histogram":
				var cum uint64
				for i, bound := range f.buckets {
					cum += s.counts[i].Load()
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelPairs(f.labels, s.labelVals, "le", formatValue(bound)), cum); err != nil {
						return err
					}
				}
				cum += s.inf.Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					labelPairs(f.labels, s.labelVals, "le", "+Inf"), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
					labelPairs(f.labels, s.labelVals),
					formatValue(math.Float64frombits(s.sumB.Load()))); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
					labelPairs(f.labels, s.labelVals), cum); err != nil {
					return err
				}
			default:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
					labelPairs(f.labels, s.labelVals), formatValue(s.get())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
