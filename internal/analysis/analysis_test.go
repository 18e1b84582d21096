package analysis

import (
	"bytes"
	"strings"
	"testing"

	"procdecomp/internal/trace"
)

// testCosts is a small calibration that keeps hand-computed expectations
// readable.
func testCosts() Costs {
	return Costs{OpCost: 1, SendStartup: 10, RecvStartup: 5, PerValue: 1, Latency: 7, ValueBytes: 4}
}

// pingDump is a two-process run built by hand: proc 0 computes 100 cycles,
// sends 3 values to proc 1 (departing at 113, arriving at 120); proc 1
// computes 50 cycles, waits, and receives. Every stamp below is derived from
// testCosts by hand, so the assertions are independent of the analyzer.
func pingDump() *Dump {
	return &Dump{
		Version: Version,
		Procs:   2,
		Costs:   testCosts(),
		Events: [][]trace.Event{
			{
				{Proc: 0, Kind: trace.KindCompute, Start: 0, End: 100, Peer: -1},
				{Proc: 0, Kind: trace.KindSend, Start: 100, End: 113, Peer: 1, Tag: 9, Values: 3, Seq: 1},
			},
			{
				{Proc: 1, Kind: trace.KindCompute, Start: 0, End: 50, Peer: -1},
				{Proc: 1, Kind: trace.KindIdle, Start: 50, End: 120, Peer: 0, Tag: 9, Seq: 1, Arrive: 120},
				{Proc: 1, Kind: trace.KindRecv, Start: 120, End: 128, Peer: 0, Tag: 9, Values: 3, Seq: 1, Arrive: 120},
			},
		},
	}
}

func TestCriticalPathPing(t *testing.T) {
	d := pingDump()
	cp, err := d.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Makespan != 128 {
		t.Fatalf("makespan = %d, want 128", cp.Makespan)
	}
	if cp.EndProc != 1 {
		t.Fatalf("end proc = %d, want 1", cp.EndProc)
	}
	if got := cp.Len(); got != 128 {
		t.Fatalf("path length = %d, want 128", got)
	}
	// The binding chain: proc 0 compute [0,100), send [100,113), wire
	// [113,120) on proc 1, recv [120,128).
	want := Attribution{Compute: 100, SendStartup: 10, RecvStartup: 5, PerValue: 6, Wire: 7}
	if cp.Attr != want {
		t.Fatalf("attribution = %+v, want %+v", cp.Attr, want)
	}
	kinds := make([]string, len(cp.Segments))
	for i, s := range cp.Segments {
		kinds[i] = s.Kind
	}
	if got := strings.Join(kinds, ","); got != "compute,send,wait,recv" {
		t.Fatalf("segment kinds = %s", got)
	}
}

// A message that arrives later than depart+Latency (transport retries) must
// show the surplus as fault delay, not wire time.
func TestCriticalPathFaultDelay(t *testing.T) {
	d := pingDump()
	// Delay the arrival by 30 cycles beyond the nominal 120.
	d.Events[1][1].End = 150
	d.Events[1][1].Arrive = 150
	d.Events[1][2] = trace.Event{Proc: 1, Kind: trace.KindRecv, Start: 150, End: 158, Peer: 0, Tag: 9, Values: 3, Seq: 1, Arrive: 150}
	cp, err := d.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Attr.Wire != 7 || cp.Attr.Fault != 30 {
		t.Fatalf("wire/fault = %d/%d, want 7/30", cp.Attr.Wire, cp.Attr.Fault)
	}
	if cp.Len() != cp.Makespan {
		t.Fatalf("length %d != makespan %d", cp.Len(), cp.Makespan)
	}
}

// A message that departed before the receiver started waiting pins the whole
// wait on the wire, and the walk stays on the receiver.
func TestCriticalPathEarlyDeparture(t *testing.T) {
	d := pingDump()
	// Receiver computes 110 cycles, so the send (departing at 113) overlaps
	// almost fully; only [110,120) is an exposed wait.
	d.Events[1][0].End = 110
	d.Events[1][1].Start = 110
	cp, err := d.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	// Chain: proc1 compute [0,110), wait [113,120)... no — depart=113 is
	// inside the wait, so the walk jumps to the sender at 113 after the
	// [113,120) wire tail; the exposed wire is 7 cycles either way. What
	// matters: it still tiles exactly.
	if cp.Len() != cp.Makespan || cp.Attr.Total() != cp.Makespan {
		t.Fatalf("path does not tile: len %d, attr %d, makespan %d", cp.Len(), cp.Attr.Total(), cp.Makespan)
	}
	if cp.Attr.Fault != 0 {
		t.Fatalf("fault = %d, want 0", cp.Attr.Fault)
	}
}

// Corrupting the tiling must produce an error, never a silently wrong report.
func TestCriticalPathDetectsBrokenTiling(t *testing.T) {
	d := pingDump()
	d.Events[0][0].End = 99 // gap [99,100) before the send span, on the path
	if _, err := d.CriticalPath(); err == nil {
		t.Fatal("expected an error on a non-tiling trace")
	}
	d = pingDump()
	d.Events[1][1].Seq = 7 // dangling message edge
	if _, err := d.CriticalPath(); err == nil {
		t.Fatal("expected an error on a dangling message edge")
	}
}

func TestPredictIdentityAndScenarios(t *testing.T) {
	d := pingDump()
	got, err := d.Predict(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 128 {
		t.Fatalf("identity replay = %d, want 128", got)
	}
	// Latency=0: message released at 113; proc 1 finishes at 113+5+3 = 121.
	got, err = d.Predict(Scenario{Latency: Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if got != 121 {
		t.Fatalf("latency=0 replay = %d, want 121", got)
	}
	// SendStartup=0: send span is 3 cycles, release 103+7=110; proc 1
	// finishes at 110+8 = 118.
	got, err = d.Predict(Scenario{SendStartup: Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if got != 118 {
		t.Fatalf("sendstartup=0 replay = %d, want 118", got)
	}
	// Free communication: proc 1's recv still waits for the release at 100
	// (send is instant, latency 0); it finishes at max(50,100) = 100.
	got, err = d.Predict(Scenario{SendStartup: Zero(), RecvStartup: Zero(), PerValue: Zero(), Latency: Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("free-comm replay = %d, want 100", got)
	}
}

// Transport surplus (arrival beyond depart+Latency) must replay as a
// per-message excess so the identity holds on fault-injected runs.
func TestPredictKeepsTransportExcess(t *testing.T) {
	d := pingDump()
	d.Events[1][1].End = 150
	d.Events[1][1].Arrive = 150
	d.Events[1][2] = trace.Event{Proc: 1, Kind: trace.KindRecv, Start: 150, End: 158, Peer: 0, Tag: 9, Values: 3, Seq: 1, Arrive: 150}
	got, err := d.Predict(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 158 {
		t.Fatalf("identity replay with excess = %d, want 158", got)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	d := pingDump()
	var buf bytes.Buffer
	if err := d.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs != d.Procs || got.Costs != d.Costs || len(got.Events) != len(d.Events) {
		t.Fatalf("round trip mangled the dump: %+v", got)
	}
	for p := range d.Events {
		if len(got.Events[p]) != len(d.Events[p]) {
			t.Fatalf("proc %d: %d events, want %d", p, len(got.Events[p]), len(d.Events[p]))
		}
		for i := range d.Events[p] {
			if got.Events[p][i] != d.Events[p][i] {
				t.Fatalf("proc %d event %d: %+v != %+v", p, i, got.Events[p][i], d.Events[p][i])
			}
		}
	}
	// The same file must still be a valid Chrome trace (events array intact).
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatal("dump is not embedded in a Chrome trace file")
	}
}

func TestReadDumpRejectsForeignFiles(t *testing.T) {
	if _, err := ReadDump(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("expected an error for a trace without a pdtrace payload")
	}
	if _, err := ReadDump(strings.NewReader(`not json`)); err == nil {
		t.Fatal("expected an error for a non-JSON file")
	}
	if _, err := ReadDump(strings.NewReader(`{"pdtrace":{"Version":99,"Procs":0,"Events":[]}}`)); err == nil {
		t.Fatal("expected a version error")
	}
}

func TestAnalyzeReportPing(t *testing.T) {
	d := pingDump()
	r, err := Analyze(d, Options{IncludePath: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 128 || r.Messages != 1 || r.Values != 3 {
		t.Fatalf("report headline = %d/%d/%d", r.Makespan, r.Messages, r.Values)
	}
	if len(r.WhatIf) != len(DefaultScenarios()) {
		t.Fatalf("%d what-if rows", len(r.WhatIf))
	}
	if r.WhatIf[0].Predicted != 128 || r.WhatIf[0].Speedup != 1.0 {
		t.Fatalf("identity row = %+v", r.WhatIf[0])
	}
	if len(r.Links) != 1 || r.Links[0].Src != 0 || r.Links[0].Dst != 1 {
		t.Fatalf("links = %+v", r.Links)
	}
	text := r.Format()
	for _, want := range []string{"makespan 128 cycles", "send startup", "what-if", "critical path (time order)"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report lacks %q", want)
		}
	}
}

// An empty run must analyze without errors (and without divisions by zero).
func TestAnalyzeEmptyRun(t *testing.T) {
	d := &Dump{Version: Version, Procs: 1, Costs: testCosts(), Events: [][]trace.Event{{}}}
	r, err := Analyze(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 0 || r.Segments != 0 {
		t.Fatalf("empty run report = %+v", r)
	}
}

// Replay on hand-built actions: the recurrence charges what the machine
// would, a send's Dur delays only its own message, and a receive whose
// message is never sent is a deadlock error rather than a hang or a number.
func TestReplay(t *testing.T) {
	costs := Costs{SendStartup: 10, RecvStartup: 5, PerValue: 1, Latency: 3}
	acts := [][]Action{
		{{Kind: trace.KindCompute, Dur: 7}, {Kind: trace.KindSend, Peer: 1, Values: 2, Seq: 1}},
		{{Kind: trace.KindRecv, Peer: 0, Values: 2, Seq: 1}, {Kind: trace.KindCompute, Dur: 4}},
	}
	// Sender: 7 + (10+2) = 19; arrival 22; receiver: 22 + (5+2) + 4 = 33.
	if got, err := Replay(acts, costs); err != nil || got != 33 {
		t.Errorf("Replay = %d, %v; want 33", got, err)
	}
	acts[0][1].Dur = 6 // transport excess on the message
	if got, err := Replay(acts, costs); err != nil || got != 39 {
		t.Errorf("Replay with 6 cycles of excess = %d, %v; want 39", got, err)
	}
	acts[1][0].Seq = 2 // names a message process 0 never sends
	if _, err := Replay(acts, costs); err == nil || !strings.Contains(err.Error(), "deadlocked") {
		t.Errorf("Replay of a receive with no send: error %v, want the deadlock error", err)
	}
}
