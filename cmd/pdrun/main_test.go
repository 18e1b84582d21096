package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/golden"
	"procdecomp/internal/istruct"
)

// Output listing must be sorted by name — map iteration order must never
// leak into what the user sees (golden check for the determinism audit).
func TestPrintOutputsSorted(t *testing.T) {
	mk := func(name string) *istruct.Matrix {
		m, err := istruct.NewMatrix(name, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write(1, 1, 3.5); err != nil {
			t.Fatal(err)
		}
		return m
	}
	out := &exec.SPMDOutcome{
		Arrays:  map[string]*istruct.Matrix{"Zeta": mk("Zeta"), "Alpha": mk("Alpha"), "Mid": mk("Mid")},
		Scalars: map[string]exec.Value{"z": 1, "a": 2.5, "m": -3},
	}
	want := `  array Alpha: 2x2, 1 defined elements
  array Mid: 2x2, 1 defined elements
  array Zeta: 2x2, 1 defined elements
  scalar a = 2.5
  scalar m = -3
  scalar z = 1
`
	for i := 0; i < 20; i++ {
		var b strings.Builder
		printOutputs(&b, out)
		if b.String() != want {
			t.Fatalf("iteration %d:\ngot:\n%s\nwant:\n%s", i, b.String(), want)
		}
	}
}

// pdrun's stdout and exit status are pinned: testdata/golden/cli was recorded
// from the binaries of the commit before run was split from main and the
// -check comparison moved into internal/exec, and every listed invocation
// must still print the same bytes.
func TestMatchesCLIGoldens(t *testing.T) {
	const dir = "../../testdata/golden/cli/"
	cases, err := os.ReadFile(dir + "cases.txt")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, line := range strings.Split(strings.TrimSpace(string(cases)), "\n") {
		f := strings.Fields(line) // name status command args...
		if f[2] != "pdrun" {
			continue
		}
		ran++
		name, wantOK, args := f[0], f[1] == "0", append([]string{"-entry", "gs_iteration", "-D", "N=16", "-procs", "4"}, f[3:]...)
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), args, strings.NewReader(bench.GSSource), &stdout, &stderr)
		if (err == nil) != wantOK {
			t.Errorf("%s: run returned %v (stderr %q), recorded exit status %s", name, err, stderr.String(), f[1])
		}
		golden.Hold(t, dir+name+".stdout", stdout.Bytes(), "It is what pdrun "+strings.Join(args, " ")+" printed.")
	}
	if ran == 0 {
		t.Fatal("cases.txt lists no pdrun invocation")
	}
}

// An entry the program does not define is an error before anything runs.
func TestRunReportsMissingEntry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-entry", "nosuch", "-D", "N=8"}, strings.NewReader(bench.GSSource), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no procedure nosuch") {
		t.Fatalf("err = %v, want a missing-procedure error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run printed %q", stdout.String())
	}
}
