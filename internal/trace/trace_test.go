package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEmitCoalescesCompute(t *testing.T) {
	l := New()
	l.Begin(1, nil)
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 0, End: 5, Peer: -1})
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 5, End: 9, Peer: -1})
	l.Emit(Event{Proc: 0, Kind: KindSend, Start: 9, End: 20, Peer: 0, Tag: 1, Values: 2})
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 20, End: 21, Peer: -1})
	evs := l.Events(0)
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3 (adjacent compute spans must merge)", len(evs))
	}
	if evs[0].Start != 0 || evs[0].End != 9 {
		t.Errorf("merged span = [%d,%d), want [0,9)", evs[0].Start, evs[0].End)
	}
}

func TestEmitDropsZeroDurationCompute(t *testing.T) {
	l := New()
	l.Begin(1, nil)
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 3, End: 3, Peer: -1})
	l.Emit(Event{Proc: 0, Kind: KindIdle, Start: 3, End: 3, Peer: 0})
	l.Emit(Event{Proc: 0, Kind: KindBlocked, Start: 3, End: 3, Peer: -1})
	if n := len(l.Events(0)); n != 0 {
		t.Fatalf("events = %d, want 0", n)
	}
	// Zero-duration sends keep their message-pattern information.
	l.Emit(Event{Proc: 0, Kind: KindSend, Start: 3, End: 3, Peer: 0, Tag: 9, Values: 1})
	if n := len(l.Events(0)); n != 1 {
		t.Fatalf("events = %d, want 1 (zero-duration send must be kept)", n)
	}
}

func TestSumsAndReconcile(t *testing.T) {
	l := New()
	l.Begin(2, nil)
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 0, End: 50, Peer: -1})
	l.Emit(Event{Proc: 0, Kind: KindSend, Start: 50, End: 152, Peer: 1, Tag: 7, Values: 1})
	l.Emit(Event{Proc: 1, Kind: KindIdle, Start: 0, End: 157, Peer: 0, Tag: 7})
	l.Emit(Event{Proc: 1, Kind: KindRecv, Start: 157, End: 169, Peer: 0, Tag: 7, Values: 1})

	s := l.Sums(0)
	if s.Compute != 50 || s.Comm != 102 || s.Idle != 0 {
		t.Errorf("proc 0 sums = %+v", s)
	}
	if err := l.Reconcile(0, 50, 102, 0, 152); err != nil {
		t.Errorf("proc 0: %v", err)
	}
	if err := l.Reconcile(1, 0, 12, 157, 169); err != nil {
		t.Errorf("proc 1: %v", err)
	}
	// Wrong partition must be detected.
	if err := l.Reconcile(0, 49, 103, 0, 152); err == nil {
		t.Error("reconcile accepted a wrong compute sum")
	}
	// Wrong clock must be detected.
	if err := l.Reconcile(0, 50, 102, 0, 200); err == nil {
		t.Error("reconcile accepted a wrong final clock")
	}
}

func TestReconcileDetectsGapsAndOverlaps(t *testing.T) {
	l := New()
	l.Begin(1, nil)
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 0, End: 10, Peer: -1})
	l.Emit(Event{Proc: 0, Kind: KindRecv, Start: 12, End: 20, Peer: 0}) // gap [10,12)
	if err := l.Reconcile(0, 10, 8, 0, 20); err == nil {
		t.Error("reconcile accepted a gap in the event tiling")
	}

	l.Begin(1, nil)
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 0, End: 10, Peer: -1})
	l.Emit(Event{Proc: 0, Kind: KindRecv, Start: 8, End: 20, Peer: 0}) // overlaps
	if err := l.Reconcile(0, 10, 12, 0, 20); err == nil {
		t.Error("reconcile accepted overlapping events")
	}
}

func TestMessageMatrix(t *testing.T) {
	l := New()
	l.Begin(3, nil)
	l.Emit(Event{Proc: 0, Kind: KindSend, Start: 0, End: 1, Peer: 1, Tag: 1, Values: 4})
	l.Emit(Event{Proc: 0, Kind: KindSend, Start: 1, End: 2, Peer: 1, Tag: 2, Values: 8})
	l.Emit(Event{Proc: 2, Kind: KindSend, Start: 0, End: 1, Peer: 0, Tag: 1, Values: 1})
	// Receives must not count as traffic.
	l.Emit(Event{Proc: 1, Kind: KindRecv, Start: 0, End: 1, Peer: 0, Tag: 1, Values: 4})

	m := l.MessageMatrix()
	if m[0][1] != 2 || m[2][0] != 1 || m[0][2] != 0 {
		t.Errorf("matrix = %v", m)
	}
	if l.Messages() != 3 {
		t.Errorf("messages = %d, want 3", l.Messages())
	}
	src, dst, c, ok := l.BusiestLink()
	if !ok || src != 0 || dst != 1 || c != 2 {
		t.Errorf("busiest link = %d->%d (%d, ok=%v)", src, dst, c, ok)
	}
}

// chromeFile mirrors the trace-event JSON shape for decoding in tests.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   uint64         `json:"ts"`
		Dur  uint64         `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	l := New()
	l.Begin(2, nil)
	l.Emit(Event{Proc: 0, Kind: KindCompute, Start: 0, End: 50, Peer: -1})
	l.Emit(Event{Proc: 0, Kind: KindSend, Start: 50, End: 152, Peer: 1, Tag: 7, Values: 3})
	l.Emit(Event{Proc: 1, Kind: KindIdle, Start: 0, End: 157, Peer: 0, Tag: 7})
	l.Emit(Event{Proc: 1, Kind: KindRecv, Start: 157, End: 169, Peer: 0, Tag: 7, Values: 3})

	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var spans, meta int
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Name == "send" {
				if e.Ts != 50 || e.Dur != 102 || e.Tid != 0 {
					t.Errorf("send span = %+v", e)
				}
				if dst, okd := e.Args["dst"]; !okd || dst != float64(1) {
					t.Errorf("send args = %v", e.Args)
				}
			}
		case "M":
			meta++
		}
	}
	if spans != 4 {
		t.Errorf("span events = %d, want 4", spans)
	}
	if meta < 3 { // one process_name + two thread_name
		t.Errorf("metadata events = %d, want >= 3", meta)
	}
}

func TestWriteChromeTracePlacementTracks(t *testing.T) {
	l := New()
	l.Begin(4, []int{0, 0, 1, 1})
	l.Emit(Event{Proc: 2, Kind: KindCompute, Start: 0, End: 10, Peer: -1})
	l.Emit(Event{Proc: 3, Kind: KindBlocked, Start: 0, End: 10, Peer: -1})

	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "node 0") || !strings.Contains(out, "node 1") {
		t.Error("per-node tracks missing under Placement")
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && e.Tid == 2 && e.Pid != 1 {
			t.Errorf("proc 2's span on pid %d, want node 1", e.Pid)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindCompute: "compute", KindSend: "send", KindRecv: "recv",
		KindIdle: "idle", KindBlocked: "blocked",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
