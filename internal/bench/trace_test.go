package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"procdecomp/internal/faults"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
)

// assertReconciles checks the acceptance property event by event: every
// process's traced durations must sum exactly to the machine's Breakdown
// partition, and compute + comm + idle must equal the final clock.
func assertReconciles(t *testing.T, label string, procs int, n, blk int64, v Variant, placement []int) *trace.Log {
	t.Helper()
	st, tr, err := TraceGS(v, procs, n, blk, placement)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if tr.Len() == 0 {
		t.Fatalf("%s: empty trace", label)
	}
	for i, b := range st.Breakdown {
		s := tr.Sums(i)
		if s.Compute != b.Compute {
			t.Errorf("%s proc %d: traced compute %d != breakdown %d", label, i, s.Compute, b.Compute)
		}
		if s.Comm != b.Comm {
			t.Errorf("%s proc %d: traced comm %d != breakdown %d", label, i, s.Comm, b.Comm)
		}
		if s.Idle+s.Blocked != b.Idle {
			t.Errorf("%s proc %d: traced idle %d + blocked %d != breakdown idle %d",
				label, i, s.Idle, s.Blocked, b.Idle)
		}
		if b.Compute+b.Comm+b.Idle != st.ProcTimes[i] {
			t.Errorf("%s proc %d: breakdown does not tile the clock: %d+%d+%d != %d",
				label, i, b.Compute, b.Comm, b.Idle, st.ProcTimes[i])
		}
		if s.Total() != st.ProcTimes[i] {
			t.Errorf("%s proc %d: traced total %d != clock %d", label, i, s.Total(), st.ProcTimes[i])
		}
	}
	if tr.Messages() != st.Messages {
		t.Errorf("%s: trace messages %d != machine %d", label, tr.Messages(), st.Messages)
	}
	return tr
}

// The Fig. 6 workload's event traces must reconcile exactly with the
// Breakdown partition on the direct path, for the compiled variants and the
// handwritten baseline alike.
func TestTraceReconcilesFig6Direct(t *testing.T) {
	for _, v := range []Variant{RunTime, CompileTime, OptimizedIII, Handwritten} {
		assertReconciles(t, v.String(), 4, 24, 4, v, nil)
	}
}

// Same property on the multiplexed (Config.Placement / muxRecv) path, where
// blocked-for-CPU spans join the partition.
func TestTraceReconcilesFig6Placement(t *testing.T) {
	// 8 virtual processes cyclically placed on 4 nodes.
	placement := []int{0, 1, 2, 3, 0, 1, 2, 3}
	tr := assertReconciles(t, "optIII multiplexed", 8, 24, 4, OptimizedIII, placement)
	if !tr.Multiplexed() {
		t.Error("log does not know the run was multiplexed")
	}
	var blocked uint64
	for p := 0; p < tr.Procs(); p++ {
		blocked += tr.Sums(p).Blocked
	}
	if blocked == 0 {
		t.Error("co-resident processes never contended for a CPU; placement path untested")
	}
}

// The hardest tracing path: multiplexed placement and an unreliable network
// at once (mux scheduling, reliable-transport retries, blocked-for-CPU spans
// all active). The trace must still reconcile exactly — Sums against the
// Breakdown, Totals against the per-process sums, and the pattern analyses
// (MessageMatrix, the send events' values) against the machine's message
// counters.
func TestTraceReconcilesPlacementChaos(t *testing.T) {
	cfg := machine.DefaultConfig(8)
	cfg.Placement = []int{0, 1, 2, 3, 0, 1, 2, 3}
	cfg.Faults = faults.Chaos(7, 0.05)
	st, tr, err := TraceGSWith(cfg, OptimizedIII, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Error("chaos schedule caused no retries; fault path untested")
	}
	var tot trace.Partition
	for i, b := range st.Breakdown {
		s := tr.Sums(i)
		if s.Compute != b.Compute || s.Comm != b.Comm || s.Idle+s.Blocked != b.Idle {
			t.Errorf("proc %d: traced %+v does not reconcile with breakdown %+v", i, s, b)
		}
		if s.Total() != st.ProcTimes[i] {
			t.Errorf("proc %d: traced total %d != clock %d", i, s.Total(), st.ProcTimes[i])
		}
		tot.Compute += s.Compute
		tot.Comm += s.Comm
		tot.Idle += s.Idle
		tot.Blocked += s.Blocked
	}
	if tr.Totals() != tot {
		t.Errorf("Totals %+v != summed per-process partitions %+v", tr.Totals(), tot)
	}
	var matrixMsgs int64
	for _, row := range tr.MessageMatrix() {
		for _, c := range row {
			matrixMsgs += c
		}
	}
	if matrixMsgs != st.Messages {
		t.Errorf("message matrix sums to %d, machine counted %d", matrixMsgs, st.Messages)
	}
	var values int64
	for p := range tr.Procs() {
		for _, e := range tr.Events(p) {
			if e.Kind == trace.KindSend {
				values += int64(e.Values)
			}
		}
	}
	if values != st.Values {
		t.Errorf("send events carry %d values, machine counted %d", values, st.Values)
	}
}

// The wavefront run's trace opens in Chrome/Perfetto: valid trace-event JSON
// whose span count matches the log.
func TestTraceFig6ChromeExport(t *testing.T) {
	_, tr, err := TraceGS(Handwritten, 4, 24, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	spans := 0
	for _, e := range parsed.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != tr.Len() {
		t.Errorf("exported %d spans, log holds %d", spans, tr.Len())
	}
}

// The communication pattern of the wavefront is a ring: every processor
// sends only to its left and right neighbours.
func TestTraceWavefrontRingPattern(t *testing.T) {
	const procs = 4
	_, tr, err := TraceGS(Handwritten, procs, 24, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.MessageMatrix()
	for src := 0; src < procs; src++ {
		left := (src + procs - 1) % procs
		right := (src + 1) % procs
		for dst := 0; dst < procs; dst++ {
			if m[src][dst] > 0 && dst != left && dst != right {
				t.Errorf("non-neighbour traffic %d -> %d (%d messages)", src, dst, m[src][dst])
			}
		}
	}
	// Both logical channels (old columns, new-value blocks) must appear.
	tags := map[int64]bool{}
	for p := range procs {
		for _, e := range tr.Events(p) {
			if e.Kind == trace.KindSend {
				tags[e.Tag] = true
			}
		}
	}
	if len(tags) < 2 {
		t.Errorf("sends carry tags %v, want the wavefront's two channels", tags)
	}
}
