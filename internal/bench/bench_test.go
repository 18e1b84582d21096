package bench

import (
	"fmt"
	"strings"
	"testing"

	"procdecomp/internal/exec"
	"procdecomp/internal/machine"
)

func TestRunGSAllVariantsSmall(t *testing.T) {
	for _, v := range AllVariants {
		pt, err := RunGS(v, 4, 16, 4)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if pt.Makespan == 0 {
			t.Errorf("%v: zero makespan", v)
		}
		if v != RunTime && v != CompileTime && pt.Messages == 0 {
			t.Errorf("%v: zero messages", v)
		}
	}
}

func TestMessageCountsScaleWithFormulas(t *testing.T) {
	const n = 16
	const blk = 4
	want := map[Variant]int64{
		RunTime:     2 * (n - 2) * (n - 2),
		CompileTime: 2 * (n - 2) * (n - 2),
		OptimizedI:  (n-2)*(n-2) + (n - 2),
		OptimizedII: (n-2)*(n-2) + (n - 2),
		OptimizedIII: func() int64 {
			blocks := int64((n - 2 + blk - 1) / blk)
			return (n-2)*blocks + (n - 2)
		}(),
		Handwritten: func() int64 {
			blocks := int64((n - 2 + blk - 1) / blk)
			return (n-2)*blocks + (n - 2)
		}(),
	}
	for v, w := range want {
		pt, err := RunGS(v, 4, n, blk)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if pt.Messages != w {
			t.Errorf("%v: messages = %d, want %d", v, pt.Messages, w)
		}
	}
}

func TestOptimizedIIIMatchesHandwrittenMessages(t *testing.T) {
	// The compiled Optimized III program must exchange exactly as many
	// messages as the handwritten Fig. 3 program.
	a, err := RunGS(OptimizedIII, 4, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGS(Handwritten, 4, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages {
		t.Errorf("OptIII %d messages vs handwritten %d", a.Messages, b.Messages)
	}
}

func TestFigure6ShapeSmall(t *testing.T) {
	s, err := Figure6(24, []int{2, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Format()
	for _, want := range []string{"run-time resolution", "handwritten", "S=2", "S=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 6 output missing %q:\n%s", want, out)
		}
	}
	if len(s.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(s.Rows))
	}
}

func TestFigure7OrderingSmall(t *testing.T) {
	// At 8 processors the optimization staircase must hold.
	const n = 32
	get := func(v Variant) uint64 {
		pt, err := RunGS(v, 8, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		return pt.Makespan
	}
	i, ii, iii := get(OptimizedI), get(OptimizedII), get(OptimizedIII)
	if !(i > ii && ii > iii) {
		t.Errorf("expected OptI > OptII > OptIII, got %d, %d, %d", i, ii, iii)
	}
}

func TestBlockSizeSweepSmall(t *testing.T) {
	s, err := BlockSizeSweep([]int64{16, 32}, []int64{1, 4, 14}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 || len(s.Rows[0]) != 5 {
		t.Errorf("unexpected sweep shape: %v", s.Rows)
	}
	// A middling block size should beat blocksize 1 (too many messages).
	// The "best" column must name one of the sweep values.
	best := s.Rows[1][len(s.Rows[1])-1]
	if best != "1" && best != "4" && best != "14" {
		t.Errorf("best column = %q", best)
	}
}

func TestInterchangeAblationSmall(t *testing.T) {
	s, err := InterchangeAblation(24, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
}

func TestMessageTableSmall(t *testing.T) {
	s, err := MessageTable(16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != len(AllVariants) {
		t.Errorf("rows = %d, want %d", len(s.Rows), len(AllVariants))
	}
}

func TestValidationCatchesCorruption(t *testing.T) {
	// The comparison runGS applies must reject a wrong result.
	info, err := checkGS(GSSource, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Reference(info, "gs_iteration")
	if err != nil {
		t.Fatal(err)
	}
	got := Input(16) // the input is not the GS output
	if err := ref.CheckMatrix(got); err == nil {
		t.Error("validation accepted a wrong matrix")
	}
}

// The analytic block-size model (the paper's open §4 question) must be
// accurate enough to act on: running Optimized III at the predicted block
// size costs at most 15% more than the best block size found empirically.
func TestPredictBestBlockNearOptimal(t *testing.T) {
	for _, n := range []int64{32, 64, 128} {
		const procs = 8
		cfg := machine.DefaultConfig(procs)
		pred := PredictBestBlock(cfg, n)

		best := uint64(0)
		for b := int64(1); b <= n-2; b *= 2 {
			pt, err := RunGS(OptimizedIII, procs, n, b)
			if err != nil {
				t.Fatal(err)
			}
			if best == 0 || pt.Makespan < best {
				best = pt.Makespan
			}
		}
		atPred, err := RunGS(OptimizedIII, procs, n, pred)
		if err != nil {
			t.Fatal(err)
		}
		if float64(atPred.Makespan) > 1.15*float64(best) {
			t.Errorf("N=%d: predicted blk=%d gives %d, empirical best %d (>15%% off)",
				n, pred, atPred.Makespan, best)
		}
	}
}

// The model must reproduce the qualitative law: the best block size grows
// with the matrix size.
func TestPredictedBlockGrowsWithN(t *testing.T) {
	cfg := machine.DefaultConfig(8)
	prev := int64(0)
	for _, n := range []int64{32, 64, 128, 256, 512} {
		b := PredictBestBlock(cfg, n)
		if b < prev {
			t.Errorf("predicted block shrank: N=%d gives %d after %d", n, b, prev)
		}
		prev = b
	}
}

func TestSharedMemoryAblationRuns(t *testing.T) {
	s, err := SharedMemoryAblation(24, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 5 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
}

func TestUtilizationTable(t *testing.T) {
	s, err := UtilizationTable(24, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != len(AllVariants) {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// Optimized III must idle less than run-time resolution.
	a, _, err := TraceGS(RunTime, 4, 24, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := TraceGS(OptimizedIII, 4, 24, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var idleA, idleB machine.Cost
	for _, x := range a.Breakdown {
		idleA += x.Idle
	}
	for _, x := range b.Breakdown {
		idleB += x.Idle
	}
	if idleB >= idleA {
		t.Errorf("OptIII idle %d should be far below RTR idle %d", idleB, idleA)
	}
}

func TestLoadBalanceTable(t *testing.T) {
	s, err := LoadBalanceTable(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// Blocks must exchange fewer messages (edges only); wrapping must have
	// the lower compute imbalance. Parse the cells back.
	var blockMsgs, cyclicMsgs int64
	fmt.Sscanf(s.Rows[0][2], "%d", &blockMsgs)
	fmt.Sscanf(s.Rows[1][2], "%d", &cyclicMsgs)
	if blockMsgs >= cyclicMsgs {
		t.Errorf("blocks should communicate less: %d vs %d", blockMsgs, cyclicMsgs)
	}
}

func TestMultiplexTable(t *testing.T) {
	s, err := MultiplexTable(2, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 5 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// Every decomposition must exchange the same messages (the column
	// traffic depends on N and blk, not on S for this program).
	for _, row := range s.Rows[1:] {
		if row[3] != s.Rows[0][3] {
			t.Errorf("message counts differ across decompositions: %v", s.Rows)
		}
	}
}
