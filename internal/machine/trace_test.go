package machine

import (
	"bytes"
	"encoding/json"
	"testing"

	"procdecomp/internal/trace"
)

func newTestLog() *trace.Log { return trace.New() }

func tracedConfig(procs int) (Config, *trace.Log) {
	cfg := testConfig(procs)
	tr := trace.New()
	cfg.Tracer = tr
	return cfg, tr
}

// The direct path must emit the exact event sequence of a ping: the sender's
// compute and send spans, the receiver's idle wait and recv overhead, with
// the virtual times of TestPingTiming.
func TestTraceDirectPing(t *testing.T) {
	cfg, tr := tracedConfig(2)
	m := New(cfg)
	if err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Compute(50)
			p.Send(1, 7, 3.5)
		case 1:
			p.Recv1(0, 7)
		}
	}); err != nil {
		t.Fatal(err)
	}

	want0 := []trace.Event{
		{Proc: 0, Kind: trace.KindCompute, Start: 0, End: 50, Peer: -1},
		{Proc: 0, Kind: trace.KindSend, Start: 50, End: 152, Peer: 1, Tag: 7, Values: 1, Seq: 1},
	}
	want1 := []trace.Event{
		{Proc: 1, Kind: trace.KindIdle, Start: 0, End: 157, Peer: 0, Tag: 7, Seq: 1, Arrive: 157},
		{Proc: 1, Kind: trace.KindRecv, Start: 157, End: 169, Peer: 0, Tag: 7, Values: 1, Seq: 1, Arrive: 157},
	}
	for p, want := range [][]trace.Event{want0, want1} {
		got := tr.Events(p)
		if len(got) != len(want) {
			t.Fatalf("proc %d: %d events, want %d: %+v", p, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("proc %d event %d = %+v, want %+v", p, i, got[i], want[i])
			}
		}
	}
	if err := m.VerifyTrace(); err != nil {
		t.Error(err)
	}
}

// Traced event durations must sum exactly to the Breakdown partition on the
// direct path, for a workload mixing compute, sends, receives, and waits.
func TestTraceReconcilesDirect(t *testing.T) {
	cfg, tr := tracedConfig(4)
	m := New(cfg)
	if err := m.Run(func(p *Proc) {
		right := (p.ID() + 1) % 4
		left := (p.ID() + 3) % 4
		p.Compute(Cost(p.ID()*50 + 10))
		p.Send(right, 1, 1, 2, 3)
		p.Recv(left, 1)
		p.Ops(7)
		p.Mem(3)
		p.LoopStep()
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyTrace(); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	for i, b := range st.Breakdown {
		s := tr.Sums(i)
		if s.Compute != b.Compute || s.Comm != b.Comm || s.Idle+s.Blocked != b.Idle {
			t.Errorf("proc %d: trace %+v != breakdown %+v", i, s, b)
		}
		if s.Total() != st.ProcTimes[i] {
			t.Errorf("proc %d: traced total %d != clock %d", i, s.Total(), st.ProcTimes[i])
		}
	}
}

// Under Placement, time a runnable process spends waiting for its node's CPU
// is a blocked span, charged to the idle account: two co-residents computing
// 1000 cycles each mean the second is blocked for the first's 1000.
func TestTraceMuxBlockedSpan(t *testing.T) {
	cfg, tr := tracedConfig(2)
	cfg.Placement = []int{0, 0}
	m := New(cfg)
	if err := m.Run(func(p *Proc) {
		p.Compute(1000)
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyTrace(); err != nil {
		t.Fatal(err)
	}
	// The scheduler admits process 0 first (smaller id at equal clocks).
	evs := tr.Events(1)
	if len(evs) != 2 {
		t.Fatalf("proc 1 events = %+v, want blocked+compute", evs)
	}
	if evs[0].Kind != trace.KindBlocked || evs[0].Start != 0 || evs[0].End != 1000 {
		t.Errorf("blocked span = %+v, want [0,1000)", evs[0])
	}
	if evs[1].Kind != trace.KindCompute || evs[1].Start != 1000 || evs[1].End != 2000 {
		t.Errorf("compute span = %+v, want [1000,2000)", evs[1])
	}
	st := mustStats(t, m)
	if st.Breakdown[1].Idle != 1000 {
		t.Errorf("proc 1 idle = %d, want 1000 (CPU wait must be accounted)", st.Breakdown[1].Idle)
	}
}

// The multiplexed path's Breakdown must account every cycle even without a
// tracer: compute + comm + idle == final clock under CPU contention. (The
// CPU-wait gap used to vanish from the partition.)
func TestMuxBreakdownAccountsEveryCycle(t *testing.T) {
	m := New(muxConfig(6, []int{0, 0, 0, 1, 1, 1}))
	if err := m.Run(func(p *Proc) {
		right := (p.ID() + 1) % 6
		left := (p.ID() + 5) % 6
		p.Compute(Cost(17*p.ID() + 23))
		if p.ID()%2 == 0 {
			p.Send(right, 1, 1, 2)
			p.Recv(left, 2)
		} else {
			p.Recv(left, 1)
			p.Send(right, 2, 3)
		}
		p.Compute(100)
	}); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	var contended bool
	for i, b := range st.Breakdown {
		if b.Compute+b.Comm+b.Idle != st.ProcTimes[i] {
			t.Errorf("proc %d: %d + %d + %d != clock %d",
				i, b.Compute, b.Comm, b.Idle, st.ProcTimes[i])
		}
		if b.Idle > 0 {
			contended = true
		}
	}
	if !contended {
		t.Error("workload was expected to exhibit CPU contention or message waits")
	}
}

// Traced multiplexed runs reconcile exactly, including blocked spans, and
// stay deterministic across repetitions.
func TestTraceMuxReconcilesDeterministically(t *testing.T) {
	run := func() ([]Cost, *trace.Log) {
		cfg, tr := tracedConfig(6)
		cfg.Placement = []int{0, 1, 0, 1, 0, 1}
		m := New(cfg)
		if err := m.Run(func(p *Proc) {
			right := (p.ID() + 1) % 6
			left := (p.ID() + 5) % 6
			for k := 0; k < 5; k++ {
				p.Compute(Cost(13*p.ID() + 7))
				if p.ID()%2 == 0 {
					p.Send(right, 1, float64(k))
					p.Recv(left, 2)
				} else {
					p.Recv(left, 1)
					p.Send(right, 2, float64(k))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyTrace(); err != nil {
			t.Fatal(err)
		}
		return mustStats(t, m).ProcTimes, tr
	}
	clocks, first := run()
	_ = clocks
	for trial := 0; trial < 5; trial++ {
		_, tr := run()
		for p := 0; p < 6; p++ {
			a, b := first.Events(p), tr.Events(p)
			if len(a) != len(b) {
				t.Fatalf("trial %d proc %d: %d events != %d", trial, p, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d proc %d event %d: %+v != %+v", trial, p, i, b[i], a[i])
				}
			}
		}
	}
}

// The trace-side message matrix must agree with the machine's counters.
func TestTraceMatrixMatchesStats(t *testing.T) {
	cfg, tr := tracedConfig(3)
	m := New(cfg)
	if err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, 1)
			p.Send(1, 1, 2)
			p.Send(2, 2, 3, 4)
		case 1:
			p.Recv(0, 1)
			p.Recv(0, 1)
		case 2:
			p.Recv(0, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	if tr.Messages() != st.Messages {
		t.Errorf("trace messages %d != stats %d", tr.Messages(), st.Messages)
	}
	mat := tr.MessageMatrix()
	if mat[0][1] != 2 || mat[0][2] != 1 {
		t.Errorf("matrix = %v", mat)
	}
	h := map[int64][2]int64{} // tag → messages, values
	for p := range tr.Procs() {
		for _, e := range tr.Events(p) {
			if e.Kind == trace.KindSend {
				h[e.Tag] = [2]int64{h[e.Tag][0] + 1, h[e.Tag][1] + int64(e.Values)}
			}
		}
	}
	if h[1] != [2]int64{2, 2} || h[2] != [2]int64{1, 2} {
		t.Errorf("messages and values by tag = %v", h)
	}
}

// A real run's Chrome export must be valid JSON with one track per process.
func TestTraceChromeExportFromRun(t *testing.T) {
	cfg, tr := tracedConfig(2)
	m := New(cfg)
	if err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(10)
			p.Send(1, 1, 1)
		} else {
			p.Recv(0, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
}

// An untraced machine's VerifyTrace is a no-op, and tracing must not change
// the simulated clocks.
func TestTracingDoesNotPerturbTiming(t *testing.T) {
	body := func(p *Proc) {
		right := (p.ID() + 1) % 4
		left := (p.ID() + 3) % 4
		p.Compute(Cost(p.ID()*31 + 5))
		p.Send(right, 1, 1)
		p.Recv(left, 1)
	}
	plain := New(testConfig(4))
	if err := plain.Run(body); err != nil {
		t.Fatal(err)
	}
	if err := plain.VerifyTrace(); err != nil {
		t.Errorf("untraced VerifyTrace = %v, want nil", err)
	}
	cfg, _ := tracedConfig(4)
	traced := New(cfg)
	if err := traced.Run(body); err != nil {
		t.Fatal(err)
	}
	ps, ts := mustStats(t, plain), mustStats(t, traced)
	if ps.Makespan != ts.Makespan {
		t.Errorf("tracing changed the makespan: %d != %d", ts.Makespan, ps.Makespan)
	}
	for i := range ps.ProcTimes {
		if ps.ProcTimes[i] != ts.ProcTimes[i] {
			t.Errorf("proc %d clock %d != %d", i, ts.ProcTimes[i], ps.ProcTimes[i])
		}
	}
}
