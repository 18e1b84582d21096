package wavefront

import (
	"testing"

	"procdecomp/internal/golden"
	"procdecomp/internal/machine"
)

// The scale the goroutine machine could not reach: a 1024-processor
// Gauss-Seidel wavefront over a 4096×4096 grid — over four thousand
// simulated processes' worth of sends, receives and blocked waits — must
// complete inside an ordinary `go test` run on the event-loop engine, and
// compute the exact sequential answer. Under the race detector (or -short)
// the grid shrinks; the full size runs in plain CI.
func TestScale1024x4096(t *testing.T) {
	s, n, blk := 1024, int64(4096), int64(32)
	if golden.RaceEnabled || testing.Short() {
		s, n, blk = 64, 512, 16
	}

	old := input(t, n)
	res, err := Run(machine.DefaultConfig(s), n, blk, old)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Makespan == 0 || len(res.Stats.ProcTimes) != s {
		t.Fatalf("degenerate stats: %+v", res.Stats)
	}

	// Reference recurrence in plain Go: boundaries 1.0, interior in normal
	// order — cheap even at 4096².
	want := make([][]float64, n+2)
	for i := range want {
		want[i] = make([]float64, n+2)
	}
	rd := func(i, j int64) float64 {
		v, err := old.Read(i, j)
		if err != nil {
			t.Fatalf("input read (%d,%d): %v", i, j, err)
		}
		return v
	}
	for j := int64(1); j <= n; j++ {
		want[1][j], want[n][j] = 1.0, 1.0
	}
	for i := int64(2); i <= n-1; i++ {
		want[i][1], want[i][n] = 1.0, 1.0
	}
	for j := int64(2); j <= n-1; j++ {
		for i := int64(2); i <= n-1; i++ {
			want[i][j] = 0.25 * (want[i-1][j] + want[i][j-1] + rd(i+1, j) + rd(i, j+1))
		}
	}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			got, err := res.New.Read(i, j)
			if err != nil {
				t.Fatalf("result read (%d,%d): %v", i, j, err)
			}
			if d := got - want[i][j]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("value mismatch at (%d,%d): got %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}
