package autotune_test

// The stage ledger.
//
// testdata/golden/ledger.json holds counts that repeat exactly from run to
// run, so a change that moves one shows in the diff of one line, named by its
// stage, with no wall clock and no benchmark run:
//
//   - alloc/…: the allocations of one call of each pipeline stage for
//     Gauss-Seidel at N=64, opt3/blk 8, on 1 and 8 processes, and of its
//     compiling, lowering and running on 32; and of lowering and running the
//     first generated corpus case of each family on two or more processes at
//     its ctr point;
//   - work/…: what one cold map-search search (GS, N=24, S=4, one worker)
//     does: the candidates tier 2 replays, tier 3's evaluations, the events
//     the anchor's replayed timeline holds and the events its traced run
//     stores beside them.
//
// A failing TestLedger writes what it observed to a file it names; there is
// no -update flag. A change that means to move a row copies that file over
// the golden and gives the diff in its description.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/dist"
	"procdecomp/internal/exec"
	"procdecomp/internal/gen"
	"procdecomp/internal/golden"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/xform"
)

const ledgerPath = "../../testdata/golden/ledger.json"

// ledgerRow is one line of the ledger.
type ledgerRow struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// allocRows counts the allocations of the stages named in only, or of every
// stage when it names none, for GS at N=64, opt3/blk 8, on procs processes.
// Each stage runs on the previous stage's result, built once outside the
// count.
func allocRows(t *testing.T, procs int, only ...string) []ledgerRow {
	t.Helper()
	const entry, n = "gs_iteration", 64
	point := []xform.Point{{Mode: "opt3", Blk: 8}}
	cfg := sem.Config{Procs: int64(procs), Defines: map[string]int64{"N": n}}
	prog, err := lang.Parse(bench.GSSource)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := sem.Check(prog, cfg)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	st := xform.CompileAll(info, entry, point)[0]
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	img, err := exec.LowerAll(st.Progs, procs)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := exec.PatternInputs(info, entry)
	if err != nil {
		t.Fatal(err)
	}
	stages := []struct {
		name string
		f    func() error
	}{
		{"lang.Parse", func() error { _, err := lang.Parse(bench.GSSource); return err }},
		{"sem.Check", func() error {
			if _, errs := sem.Check(prog, cfg); len(errs) > 0 {
				return errs[0]
			}
			return nil
		}},
		{"xform.CompileAll", func() error { return xform.CompileAll(info, entry, point)[0].Err }},
		{"exec.LowerAll", func() error { _, err := exec.LowerAll(st.Progs, procs); return err }},
		{"exec.Reference", func() error { _, err := exec.Reference(info, entry); return err }},
		{"(*Image).Run", func() error {
			_, err := img.Run(context.Background(), machine.DefaultConfig(procs), ins)
			return err
		}},
	}
	var rows []ledgerRow
	for _, s := range stages {
		if len(only) > 0 && !slices.Contains(only, s.name) {
			continue
		}
		rows = append(rows, leastAllocs(t, fmt.Sprintf("alloc/gs N=%d S=%d opt3 blk8/%s", n, procs, s.name), s.f))
	}
	return rows
}

// corpusRows counts exec.LowerAll and (*Image).Run for the first corpus case
// of each family gen draws that runs on two or more processes, so that every
// row's run sends messages, at its ctr point.
func corpusRows(t *testing.T) []ledgerRow {
	t.Helper()
	cases, err := gen.CompiledCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var rows []ledgerRow
	for _, family := range []dist.Kind{dist.KindCyclicCols, dist.KindCyclicRows, dist.KindBlockCols, dist.KindBlockRows} {
		i := slices.IndexFunc(cases, func(c *gen.Compiled) bool { return c.Info.Decomps["D"].Kind == family && c.Procs >= 2 })
		if i < 0 {
			t.Fatalf("the corpus has no case of %s on two or more processes", family)
		}
		c := cases[i]
		ctr := slices.IndexFunc(c.Points, func(pt xform.Point) bool { return pt.Mode == "ctr" })
		if c.Images[ctr] == nil {
			t.Fatalf("%s: ctr: %v", c.Name, c.Stages[ctr].Err)
		}
		if out, err := c.Images[ctr].Run(context.Background(), c.Config(), c.Inputs); err != nil || out.Stats.Messages == 0 {
			t.Fatalf("%s S=%d: ctr sends no message (err %v)", c.Name, c.Procs, err)
		}
		at := fmt.Sprintf("alloc/corpus %s %s S=%d ctr/", family, c.Name, c.Procs)
		rows = append(rows,
			leastAllocs(t, at+"exec.LowerAll", func() error { _, err := exec.LowerAll(c.Stages[ctr].Progs, c.Procs); return err }),
			leastAllocs(t, at+"(*Image).Run", func() error {
				_, err := c.Images[ctr].Run(context.Background(), c.Config(), c.Inputs)
				return err
			}))
	}
	return rows
}

// leastAllocs is the row name for f's allocations, the least of five counts:
// a collection that lands inside a call can cost it an allocation or two on
// its own account (a pool refilled), while an allocation f makes shows in
// every count.
func leastAllocs(t *testing.T, name string, f func() error) ledgerRow {
	t.Helper()
	var err error
	least := math.Inf(1)
	for range 5 {
		least = min(least, testing.AllocsPerRun(1, func() {
			if e := f(); e != nil {
				err = e
			}
		}))
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ledgerRow{name, int64(least)}
}

// workRows counts one cold search of map-search's GS N=24 op at S=4, on one
// worker so that no count depends on scheduling.
func workRows(t *testing.T) []ledgerRow {
	t.Helper()
	w := &autotune.Workload{Name: "gs", Source: bench.GSSource, Entry: "gs_iteration", Dist: "Column",
		Defines: map[string]int64{"N": 24}}
	work, err := autotune.CountSearchWork(w, machine.DefaultConfig(4), autotune.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const op = "work/map-search gs N=24 S=4/"
	return []ledgerRow{
		{op + "candidates replayed", int64(work.Replayed)},
		{op + "tier-3 evaluations", int64(work.Measured)},
		{op + "events the anchor replays", int64(work.AnchorReplayed)},
		{op + "events the anchor's log stores", int64(work.AnchorStored)},
	}
}

// TestLedger holds the stage ledger to testdata/golden/ledger.json. Under the
// race detector, which allocates on its own account, the alloc rows are read
// from the golden rather than measured.
func TestLedger(t *testing.T) {
	var rows []ledgerRow
	if golden.RaceEnabled {
		b, err := os.ReadFile(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		var held []ledgerRow
		if err := json.Unmarshal(b, &held); err != nil {
			t.Fatal(err)
		}
		for _, r := range held {
			if strings.HasPrefix(r.Name, "alloc/") {
				rows = append(rows, r)
			}
		}
	} else {
		rows = slices.Concat(allocRows(t, 1), allocRows(t, 8),
			allocRows(t, 32, "xform.CompileAll", "exec.LowerAll", "(*Image).Run"), corpusRows(t))
	}
	rows = append(rows, workRows(t)...)
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		line, _ := json.Marshal(r)
		b.WriteString("  ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	golden.Hold(t, ledgerPath, b.Bytes(),
		"Only a change that means to move a count copies the observed file over the golden, and gives the diff.")
}
