package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"procdecomp/internal/golden"
)

// The CLI's report must be deterministic down to the byte, in both text and
// JSON form — the property CI relies on when it diffs artifacts.
func TestSearchOutputByteIdentical(t *testing.T) {
	render := func(args ...string) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	args := []string{"-gs", "-procs", "4", "-D", "N=12", "-topk", "3"}
	a, b := render(args...), render(args...)
	if !bytes.Equal(a, b) {
		t.Fatal("identical searches produced different text reports")
	}
	if !strings.Contains(string(a), "winner:") {
		t.Fatalf("report names no winner:\n%s", a)
	}

	j1, j2 := render(append(args, "-json")...), render(append(args, "-json")...)
	if !bytes.Equal(j1, j2) {
		t.Fatal("identical searches produced different JSON reports")
	}
	var rep struct {
		Winner string
		Hand   string
		Regret uint64
	}
	if err := json.Unmarshal(j1, &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v", err)
	}
	if rep.Winner == "" || rep.Hand == "" {
		t.Fatalf("JSON report missing winner or reference: %+v", rep)
	}
}

// The cost semantics does not drift: the smoke searches CI runs render to the
// committed reports byte for byte — every candidate's static score, predicted
// and measured makespan, message count and rank. A change to what a statement
// charges, to what the compiler emits or to how the search ranks shows up here
// before it shows up in a figure. The S=8 search covers what S=4 cannot: the
// 2x4 and 4x2 block2d grids, and eight-way spans.
func TestSearchMatchesGolden(t *testing.T) {
	for _, tc := range []struct{ procs, n, golden string }{
		{"4", "24", "pdmap_gs_s4_n24.json"},
		{"8", "32", "pdmap_gs_s8_n32.json"},
	} {
		var got bytes.Buffer
		if err := run(context.Background(), []string{"-gs", "-procs", tc.procs, "-D", "N=" + tc.n, "-json"}, &got); err != nil {
			t.Fatal(err)
		}
		golden.Hold(t, "../../testdata/golden/"+tc.golden, got.Bytes(),
			"If the cost model or the compiler was meant to change, regenerate the goldens from the repository root and review the diff:\n"+
				"  go run ./cmd/pdmap -gs -procs 4 -D N=24 -json > testdata/golden/pdmap_gs_s4_n24.json\n"+
				"  go run ./cmd/pdmap -gs -procs 8 -D N=32 -json > testdata/golden/pdmap_gs_s8_n32.json\n"+
				"  go run ./cmd/pdbench -fig none -n 64 -procs 1,2,4,8 -json testdata/golden/fig6_n64.json")
	}
}

// Flag validation: contradictory sources and unknown dists fail cleanly.
func TestBadInvocations(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-gs", "-file", "x.idn"}, &buf); err == nil {
		t.Error("-gs with -file accepted")
	}
	if err := run(context.Background(), []string{"-gs", "-dist", "NoSuch", "-D", "N=8"}, &buf); err == nil {
		t.Error("unknown -dist accepted")
	}
	if err := run(context.Background(), []string{"-gs", "-kinds", "bogus", "-D", "N=8"}, &buf); err == nil {
		t.Error("unknown -kinds entry accepted")
	}
}
