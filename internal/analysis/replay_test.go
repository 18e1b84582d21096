package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"procdecomp/internal/golden"
	"procdecomp/internal/trace"
)

// replayByMap is Replay as it was written before messages were indexed by
// slice: every release stamp keyed by (sender, sequence number) in a map. It
// is kept as the oracle the slice-indexed Replay is held to.
func replayByMap(acts [][]Action, costs Costs) (uint64, error) {
	type msgKey struct {
		src int
		seq uint64
	}
	clocks := make([]uint64, len(acts))
	idx := make([]int, len(acts))
	released := map[msgKey]uint64{}
	for {
		progressed, done := false, true
		for p := range acts {
			for idx[p] < len(acts[p]) {
				a := acts[p][idx[p]]
				if a.Kind == trace.KindRecv {
					rel, ok := released[msgKey{src: a.Peer, seq: a.Seq}]
					if !ok {
						break
					}
					if rel > clocks[p] {
						clocks[p] = rel
					}
					clocks[p] += costs.RecvStartup + uint64(a.Values)*costs.PerValue
				} else if a.Kind == trace.KindSend {
					clocks[p] += costs.SendStartup + uint64(a.Values)*costs.PerValue
					released[msgKey{src: p, seq: a.Seq}] = clocks[p] + costs.Latency + a.Dur
				} else {
					clocks[p] += a.Dur
				}
				idx[p]++
				progressed = true
			}
			if idx[p] < len(acts[p]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progressed {
			return 0, fmt.Errorf("analysis: replay deadlocked (a receive's message is never sent)")
		}
	}
	var makespan uint64
	for _, c := range clocks {
		if c > makespan {
			makespan = c
		}
	}
	return makespan, nil
}

// randomDAG draws a communication DAG that completes: events are drawn in
// one global order, each a compute span or a message whose receive is
// appended after its send, and each sender numbers its sends from 1.
func randomDAG(rng *rand.Rand, procs, events int) [][]Action {
	acts := make([][]Action, procs)
	sent := make([]uint64, procs)
	for range events {
		src := rng.Intn(procs)
		if procs == 1 || rng.Intn(3) == 0 {
			acts[src] = append(acts[src], Action{Kind: trace.KindCompute, Dur: uint64(rng.Intn(50))})
			continue
		}
		dst := (src + 1 + rng.Intn(procs-1)) % procs
		sent[src]++
		values := rng.Intn(5)
		acts[src] = append(acts[src], Action{Kind: trace.KindSend, Peer: dst, Values: values, Seq: sent[src], Dur: uint64(rng.Intn(3)) * uint64(rng.Intn(20))})
		acts[dst] = append(acts[dst], Action{Kind: trace.KindRecv, Peer: src, Values: values, Seq: sent[src]})
	}
	return acts
}

// recvs lists the positions of every receive in acts.
func recvs(acts [][]Action) [][2]int {
	var at [][2]int
	for p := range acts {
		for i, a := range acts[p] {
			if a.Kind == trace.KindRecv {
				at = append(at, [2]int{p, i})
			}
		}
	}
	return at
}

// breakDAG damages one receive of a complete DAG: it moves it to the front of
// its process, which may close a cycle of waits, or points it at a message
// the numbering does not have (sequence number 0 or past the sender's last, a
// sender outside the machine) or at another sender's message.
func breakDAG(rng *rand.Rand, acts [][]Action) {
	at := recvs(acts)
	if len(at) == 0 {
		return
	}
	pos := at[rng.Intn(len(at))]
	p, i := pos[0], pos[1]
	r := &acts[p][i]
	switch rng.Intn(5) {
	case 0:
		moved := *r
		copy(acts[p][1:i+1], acts[p][:i])
		acts[p][0] = moved
	case 1:
		r.Seq = 0
	case 2:
		r.Seq += uint64(1 + rng.Intn(1000))
	case 3:
		r.Peer = []int{-1, len(acts), len(acts) + 7}[rng.Intn(3)]
	case 4:
		r.Peer = rng.Intn(len(acts))
		r.Seq = uint64(rng.Intn(6))
	}
}

func randomCosts(rng *rand.Rand) Costs {
	return Costs{
		SendStartup: uint64(rng.Intn(400)), RecvStartup: uint64(rng.Intn(400)),
		PerValue: uint64(rng.Intn(4)), Latency: uint64(rng.Intn(60)),
	}
}

// sameReplay reports where Replay and the map oracle disagree on acts, or "".
func sameReplay(acts [][]Action, costs Costs) string {
	got, gotErr := Replay(acts, costs)
	want, wantErr := replayByMap(acts, costs)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
		return fmt.Sprintf("Replay = %d, %v; the map oracle says %d, %v", got, gotErr, want, wantErr)
	}
	return ""
}

// TestReplayMatchesMapOracle: over seeded random DAGs — complete ones, and
// the same DAGs with one receive moved ahead of its process or pointed at a
// message nobody sends — Replay returns the oracle's makespan or its error.
func TestReplayMatchesMapOracle(t *testing.T) {
	deadlocks := 0
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		acts := randomDAG(rng, 1+rng.Intn(6), rng.Intn(60))
		costs := randomCosts(rng)
		if _, err := Replay(acts, costs); err != nil {
			t.Fatalf("seed %d: a DAG drawn in one global order deadlocked: %v", seed, err)
		}
		if diff := sameReplay(acts, costs); diff != "" {
			t.Fatalf("seed %d, complete DAG: %s", seed, diff)
		}
		breakDAG(rng, acts)
		if diff := sameReplay(acts, costs); diff != "" {
			t.Fatalf("seed %d, damaged DAG: %s", seed, diff)
		}
		if _, err := Replay(acts, costs); err != nil {
			deadlocks++
		}
	}
	t.Logf("%d of 2000 damaged DAGs deadlock", deadlocks)
	if deadlocks < 500 {
		t.Errorf("only %d of 2000 damaged DAGs deadlock: the deadlock path is barely exercised", deadlocks)
	}
}

// TestReplayAllocationsDoNotGrowWithMessages: Replay allocates a fixed
// number of slices, sized by its counting pass; nothing is allocated per
// message.
func TestReplayAllocationsDoNotGrowWithMessages(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const procs = 4
	ring := func(messages int) [][]Action {
		acts := make([][]Action, procs)
		seq := make([]uint64, procs)
		for m := range messages {
			src := m % procs
			dst := (src + 1) % procs
			seq[src]++
			acts[src] = append(acts[src], Action{Kind: trace.KindCompute, Dur: 3},
				Action{Kind: trace.KindSend, Peer: dst, Values: 2, Seq: seq[src]})
			acts[dst] = append(acts[dst], Action{Kind: trace.KindRecv, Peer: src, Values: 2, Seq: seq[src]})
		}
		return acts
	}
	costs := testCosts()
	allocs := func(messages int) float64 {
		acts := ring(messages)
		return testing.AllocsPerRun(20, func() {
			if _, err := Replay(acts, costs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Errorf("Replay allocates %.0f times at 10 messages, %.0f at 1,000", small, large)
	}
}

// TestCriticalPathAllocationsDoNotGrowWithSpans: CriticalPath counts its send
// index and its segments before it makes them, so it allocates as often on a
// ring of 1,000 messages as on one of 10.
func TestCriticalPathAllocationsDoNotGrowWithSpans(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const procs = 4
	allocs := func(messages int) float64 {
		acts := make([][]Action, procs)
		seq := make([]uint64, procs)
		for m := range messages {
			src := m % procs
			dst := (src + 1) % procs
			seq[src]++
			acts[src] = append(acts[src], Action{Kind: trace.KindCompute, Dur: 3},
				Action{Kind: trace.KindSend, Peer: dst, Values: 2, Seq: seq[src]})
			acts[dst] = append(acts[dst], Action{Kind: trace.KindRecv, Peer: src, Values: 2, Seq: seq[src]})
		}
		d, err := ReplayDump(acts, testCosts())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := d.CriticalPath(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Errorf("CriticalPath allocates %.0f times at 10 messages, %.0f at 1,000", small, large)
	}
}

// TestReplayDumpPing: the ping of machine's TestTraceDirectPing, replayed
// under that test's calibration, lays down the spans the machine traced —
// the sender's compute [0,50) and send [50,152), the receiver's idle
// [0,157) and recv [157,169) — field for field.
func TestReplayDumpPing(t *testing.T) {
	costs := Costs{OpCost: 1, MemCost: 1, LoopCost: 1, SendStartup: 100, RecvStartup: 10, PerValue: 2, Latency: 5, ValueBytes: 4}
	acts := [][]Action{
		{{Kind: trace.KindCompute, Dur: 50}, {Kind: trace.KindSend, Peer: 1, Tag: 7, Values: 1, Seq: 1}},
		{{Kind: trace.KindRecv, Peer: 0, Tag: 7, Values: 1, Seq: 1}},
	}
	d, err := ReplayDump(acts, costs)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]trace.Event{
		{
			{Proc: 0, Kind: trace.KindCompute, Start: 0, End: 50, Peer: -1},
			{Proc: 0, Kind: trace.KindSend, Start: 50, End: 152, Peer: 1, Tag: 7, Values: 1, Seq: 1},
		},
		{
			{Proc: 1, Kind: trace.KindIdle, Start: 0, End: 157, Peer: 0, Tag: 7, Seq: 1, Arrive: 157},
			{Proc: 1, Kind: trace.KindRecv, Start: 157, End: 169, Peer: 0, Tag: 7, Values: 1, Seq: 1, Arrive: 157},
		},
	}
	if d.Version != Version || d.Procs != 2 || d.Costs != costs || len(d.Events) != len(want) {
		t.Fatalf("dump header %d/%d/%+v with %d streams", d.Version, d.Procs, d.Costs, len(d.Events))
	}
	for p := range want {
		if !slices.Equal(d.Events[p], want[p]) {
			t.Errorf("proc %d: replayed %+v, want %+v", p, d.Events[p], want[p])
		}
	}
	if d.Makespan() != 169 {
		t.Errorf("makespan %d, want 169", d.Makespan())
	}
}

// TestReplayDumpAllocationsDoNotGrowWithMessages: ReplayDump sizes every
// process's events once, from its actions, so its allocations are the same
// at 10 messages as at 1,000.
func TestReplayDumpAllocationsDoNotGrowWithMessages(t *testing.T) {
	if golden.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const procs = 4
	allocs := func(messages int) float64 {
		acts := make([][]Action, procs)
		seq := make([]uint64, procs)
		for m := range messages {
			src := m % procs
			dst := (src + 1) % procs
			seq[src]++
			acts[src] = append(acts[src], Action{Kind: trace.KindCompute, Dur: 3},
				Action{Kind: trace.KindSend, Peer: dst, Values: 2, Seq: seq[src]})
			acts[dst] = append(acts[dst], Action{Kind: trace.KindRecv, Peer: src, Values: 2, Seq: seq[src]})
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ReplayDump(acts, testCosts()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Errorf("ReplayDump allocates %.0f times at 10 messages, %.0f at 1,000", small, large)
	}
}
