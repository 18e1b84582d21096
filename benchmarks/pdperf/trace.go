package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A span is one timed call into a layer: name, start, end, the span that
// caused it and the op it belongs to. Spans are recorded from pdperf's own
// code around the layers' public functions; spans inside the program are a
// later change.
type span struct {
	Name   string
	Op     string // the op's identifier, shared by all its spans
	Lane   int    // the driver goroutine that ran the op; the trace's tid
	Parent int    // index into tracer.spans, -1 for an op's root span
	Start  time.Duration
	End    time.Duration
	Allocs uint64 // Mallocs delta over the call, alloc round only
}

// tracer keeps spans in memory and the per-layer samples derived from them;
// both are written out when the run ends. A nil *tracer records nothing, so
// the untraced ops call the same staged code at no cost but a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// countAllocs turns on a runtime.ReadMemStats pair around every span:
	// exact per-call allocation counts, but the reads stop the world, so
	// the rounds that time the stages leave it off.
	countAllocs bool
	// section names the workload whose ops are being replayed; samples are
	// kept per section so the selected workload's own numbers win over the
	// one-round probes of the others.
	section string
	samples map[string]map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string]map[string][]float64{}}
}

// handle identifies an open span; the zero handle (from a nil tracer) is
// inert.
type handle struct {
	t      *tracer
	idx    int
	allocs uint64
}

// root opens an op's root span; lane is the driver goroutine running the op.
func (t *tracer) root(name, op string, lane int) handle {
	return t.open(span{Name: name, Op: op, Lane: lane, Parent: -1})
}

// start opens a child span of parent, in the same op and lane.
func (t *tracer) start(name string, parent handle) handle {
	if t == nil {
		return handle{}
	}
	t.mu.Lock()
	p := t.spans[parent.idx]
	t.mu.Unlock()
	return t.open(span{Name: name, Op: p.Op, Lane: p.Lane, Parent: parent.idx})
}

func (t *tracer) open(s span) handle {
	if t == nil {
		return handle{}
	}
	h := handle{t: t}
	if t.countAllocs {
		h.allocs = markMem().mallocs
	}
	t.mu.Lock()
	h.idx = len(t.spans)
	s.Start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return h
}

// end closes the span and returns its duration and, in the alloc round, the
// process's Mallocs delta over it.
func (h handle) end() (time.Duration, uint64) {
	if h.t == nil {
		return 0, 0
	}
	now := time.Since(h.t.epoch)
	var a uint64
	if h.t.countAllocs {
		a = markMem().mallocs - h.allocs
	}
	h.t.mu.Lock()
	s := &h.t.spans[h.idx]
	s.End, s.Allocs = now, a
	d := s.End - s.Start
	h.t.mu.Unlock()
	return d, a
}

// observe adds one sample of a per-layer metric under the current section.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bySec := t.samples[name]
	if bySec == nil {
		bySec = map[string][]float64{}
		t.samples[name] = bySec
	}
	bySec[t.section] = append(bySec[t.section], v)
}

// stage times one call into a layer as a child span of parent and feeds the
// layer's <metric>_us (or _ms) and, in the alloc round, <metric>_allocs
// samples. timeMetric or allocMetric may be empty.
func (t *tracer) stage(name string, parent handle, timeMetric string, unit time.Duration, allocMetric string, f func() error) error {
	if t == nil {
		return f()
	}
	h := t.start(name, parent)
	err := f()
	d, allocs := h.end()
	if err != nil {
		return err
	}
	if t.countAllocs {
		if allocMetric != "" {
			t.observe(allocMetric, float64(allocs))
		}
	} else if timeMetric != "" {
		t.observe(timeMetric, float64(d)/float64(unit))
	}
	return nil
}

// value is the metric's median over the selected section's samples, or over
// every other section's when the selected workload does not reach the layer.
func (t *tracer) value(name, selected string) (float64, bool) {
	bySec := t.samples[name]
	if s := bySec[selected]; len(s) > 0 {
		return median(s), true
	}
	var all []float64
	for _, s := range bySec {
		all = append(all, s...)
	}
	return median(all), len(all) > 0
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, over the spans of one section's timing rounds (those
// recorded from index `from` on).
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p >= from {
			child[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	self := map[string]time.Duration{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace JSON (chrome://tracing and
// Perfetto load it), one track per driver goroutine.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"op": s.Op, "id": i}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		if s.Allocs > 0 {
			args["allocs"] = s.Allocs
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond), Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
