// Command pdbench regenerates the paper's evaluation: Fig. 6 (effect of
// compile-time and run-time resolution), Fig. 7 (effect of message-passing
// optimizations), the footnote-3 message counts, the §4 block-size sweep,
// and the §4 loop-interchange ablation.
//
// Usage:
//
//	pdbench                 # everything at paper scale (N=128)
//	pdbench -fig 6 -n 64    # one figure at another grid size
//	pdbench -procs 2,4,8
//
// Every measured run is validated against the sequential reference
// interpreter before its numbers are reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"procdecomp/internal/bench"
	"procdecomp/internal/machine"
)

func main() {
	var (
		fig       = flag.String("fig", "all", strings.Join(figures, " | ")+" | none | all")
		n         = flag.Int64("n", 128, "grid size N (the paper uses 128)")
		blk       = flag.Int64("blk", bench.DefaultBlk, "block size for Optimized III / handwritten")
		procsCS   = flag.String("procs", "", "comma-separated processor counts (default: the paper's sweep)")
		jsonOut   = flag.String("json", "", "write the Fig. 6 sweep with critical-path attribution as JSON to this file")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of one Optimized III Fig. 6 run (open in Perfetto, analyze with pdtrace)")
		faultRate = flag.Float64("faults", 0.10, "top drop rate of the fault sweep (-fig faults)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the fault sweep's chaos schedules")
	)
	flag.Parse()
	if err := checkFig(*fig); err != nil {
		fatal(err)
	}

	procs := bench.DefaultProcs
	if *procsCS != "" {
		var err error
		procs, err = parseProcs(*procsCS)
		if err != nil {
			fatal(err)
		}
	}

	run := func(name string, f func() (*bench.Series, error)) {
		s, err := f()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println(s.Format())
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("6") {
		run("figure 6", func() (*bench.Series, error) { return bench.Figure6(*n, procs, *blk) })
	}
	if want("7") {
		run("figure 7", func() (*bench.Series, error) { return bench.Figure7(*n, procs, *blk) })
	}
	if want("messages") {
		p := 8
		for _, q := range procs {
			if q > 1 {
				p = q
				break
			}
		}
		run("message counts", func() (*bench.Series, error) { return bench.MessageTable(*n, p, *blk) })
	}
	if want("blocksize") {
		ns := []int64{*n / 2, *n, *n * 2}
		blks := []int64{1, 2, 4, 8, 16, 32, 63}
		run("block-size sweep", func() (*bench.Series, error) { return bench.BlockSizeSweep(ns, blks, 8) })
	}
	if want("interchange") {
		run("interchange", func() (*bench.Series, error) { return bench.InterchangeAblation(*n, 8, *blk) })
	}
	if want("sharedmem") {
		run("shared memory", func() (*bench.Series, error) { return bench.SharedMemoryAblation(*n, 8, *blk) })
	}
	if want("utilization") {
		run("utilization", func() (*bench.Series, error) { return bench.UtilizationTable(*n, 8, *blk) })
	}
	if want("attribution") {
		run("attribution", func() (*bench.Series, error) { return bench.AttributionTable(*n, 8, *blk) })
	}
	if want("balance") {
		run("load balance", func() (*bench.Series, error) { return bench.LoadBalanceTable(8) })
	}
	if want("multiplex") {
		// The conservative co-scheduler is slower to simulate; half the grid
		// keeps the full sweep quick.
		run("multiplexing", func() (*bench.Series, error) { return bench.MultiplexTable(4, *n/2, *blk) })
	}
	if want("faults") {
		rates := []float64{0, *faultRate / 5, *faultRate / 2, *faultRate}
		run("fault sweep", func() (*bench.Series, error) {
			return bench.FaultSweep(*n/2, *blk, 8, *faultSeed, rates)
		})
	}

	if *jsonOut != "" {
		recs, err := bench.Figure6JSON(*n, procs, *blk)
		if err != nil {
			fatal(fmt.Errorf("json: %w", err))
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("json: %d records (Fig. 6 sweep with makespan attribution) -> %s\n", len(recs), *jsonOut)
	}

	if *traceOut != "" {
		p := 8
		for _, q := range procs {
			if q > 1 {
				p = q
				break
			}
		}
		st, d, err := bench.DumpGS(machine.DefaultConfig(p), bench.OptimizedIII, *n, *blk)
		if err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := d.WriteTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: Optimized III, S=%d, N=%d, blksize %d: makespan %d, %d messages -> %s\n",
			p, *n, *blk, st.Makespan, d.Messages(), *traceOut)
	}
}

// figures is what -fig accepts besides "none" and "all".
var figures = []string{"6", "7", "messages", "blocksize", "interchange", "sharedmem",
	"utilization", "attribution", "balance", "multiplex", "faults"}

// checkFig rejects a -fig value that would select nothing: a misspelt or
// retired name must not pass as an empty, successful run.
func checkFig(name string) error {
	if name == "none" || name == "all" {
		return nil
	}
	for _, f := range figures {
		if name == f {
			return nil
		}
	}
	return fmt.Errorf("unknown -fig %q (valid: %s | none | all)", name, strings.Join(figures, " | "))
}

func parseProcs(s string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		if v <= 0 {
			return nil, fmt.Errorf("processor count %d must be positive", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("duplicate processor count %d", v)
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdbench:", err)
	os.Exit(1)
}
