package wavefront

import (
	"testing"

	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
)

const gsSource = `
const N = 16;
const c = 0.25;

dist Column = cyclic_cols(NPROCS);

proc init_boundary(New: matrix[N, N] on Column) {
  for j = 1 to N {
    New[1, j] = 1.0;
    New[N, j] = 1.0;
  }
  for i = 2 to N - 1 {
    New[i, 1] = 1.0;
    New[i, N] = 1.0;
  }
}

proc gs_iteration(Old: matrix[N, N] on Column): matrix[N, N] on Column {
  let New = matrix(N, N) on Column;
  call init_boundary(New);
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
      New[i, j] = c * (New[i - 1, j] + New[i, j - 1] + Old[i + 1, j] + Old[i, j + 1]);
    }
  }
  return New;
}
`

func input(t *testing.T, n int64) *istruct.Matrix {
	t.Helper()
	m, err := istruct.NewMatrix("Old", n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			m.Write(i, j, float64((i*5+j*3)%17)+0.125)
		}
	}
	return m
}

func sequentialGS(t *testing.T, procs, n int64) *exec.Outcome {
	t.Helper()
	prog, err := lang.Parse(gsSource)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: procs, Defines: map[string]int64{"N": n}})
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	out, err := exec.RunSequential(info, "gs_iteration", []exec.ArgVal{{Matrix: input(t, n)}})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHandwrittenMatchesSequential(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 8} {
		for _, blk := range []int64{1, 3, 8, 14, 50} {
			const n = 16
			want := sequentialGS(t, int64(procs), n)
			res, err := Run(machine.DefaultConfig(procs), n, blk, input(t, n))
			if err != nil {
				t.Fatalf("procs=%d blk=%d: %v", procs, blk, err)
			}
			if err := want.CheckMatrix(res.New); err != nil {
				t.Fatalf("procs=%d blk=%d: %v", procs, blk, err)
			}
		}
	}
}

func TestHandwrittenMessageCount(t *testing.T) {
	// Footnote 3: "2142 messages for the handwritten code" at N=128,
	// blksize=8: 126 old-column messages + 126 columns × 16 new-value blocks.
	res, err := Run(machine.DefaultConfig(8), 128, 8, input(t, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages != 2142 {
		t.Errorf("messages = %d, want 2142 (paper footnote 3)", res.Stats.Messages)
	}
}

func TestHandwrittenMessageFormula(t *testing.T) {
	for _, procs := range []int{2, 4} {
		for _, blk := range []int64{2, 4, 8} {
			const n = 32
			res, err := Run(machine.DefaultConfig(procs), n, blk, input(t, n))
			if err != nil {
				t.Fatal(err)
			}
			blocks := (n - 2 + blk - 1) / blk
			want := (n - 2) + (n-2)*blocks
			if res.Stats.Messages != want {
				t.Errorf("procs=%d blk=%d: messages = %d, want %d", procs, blk, res.Stats.Messages, want)
			}
		}
	}
}

func TestHandwrittenScales(t *testing.T) {
	const n = 64
	mk := func(procs int) machine.Cost {
		res, err := Run(machine.DefaultConfig(procs), n, 8, input(t, n))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Makespan
	}
	// Message start-up costs dominate small machines (the paper's central
	// premise), so a few processors can lose to one; but the pipeline must
	// scale beyond that and eventually beat the sequential run.
	m1, m4, m16 := mk(1), mk(4), mk(16)
	if m4 <= m16 {
		t.Errorf("no scaling from 4 to 16 procs: %d vs %d", m4, m16)
	}
	if m16 >= m1 {
		t.Errorf("16 processors (%d) should beat 1 (%d)", m16, m1)
	}
}

func TestBadArguments(t *testing.T) {
	if _, err := Run(machine.DefaultConfig(2), 16, 0, input(t, 16)); err == nil {
		t.Error("zero block size should fail")
	}
	if _, err := Run(machine.DefaultConfig(2), 32, 4, input(t, 16)); err == nil {
		t.Error("shape mismatch should fail")
	}
}
