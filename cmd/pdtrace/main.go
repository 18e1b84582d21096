// Command pdtrace analyzes a trace file recorded by pdrun -trace or
// pdbench -trace: it extracts the critical path, attributes every cycle of
// the makespan to a cause, ranks hotspot links and tags, and replays the run
// under altered cost parameters (what-if modeling).
//
// Usage:
//
//	pdtrace [flags] trace.json      # or read the trace from stdin
//
// The analyzer verifies its own arithmetic — the critical path's length must
// equal the makespan, the attribution must tile the path, and the identity
// replay must reproduce the measured makespan — and exits nonzero if any
// invariant fails, so it doubles as a trace self-check in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"procdecomp/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	pathOut := flag.Bool("path", false, "include the full critical path in the report")
	top := flag.Int("top", 10, "rows to keep in the hotspot rankings (0 = all)")
	set := flag.String("set", "", "extra what-if scenario, e.g. \"SendStartup=0,Latency=25\"")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pdtrace [flags] [trace.json]\n\nanalyze a trace recorded with pdrun -trace or pdbench -trace\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "pdtrace: at most one trace file")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	d, err := analysis.ReadDump(in)
	if err != nil {
		fatal(err)
	}

	opt := analysis.Options{TopLinks: *top, TopTags: *top, IncludePath: *pathOut}
	if *set != "" {
		sc, err := parseScenario(*set)
		if err != nil {
			fatal(err)
		}
		opt.Scenarios = append(analysis.DefaultScenarios(), sc)
	}

	r, err := analysis.Analyze(d, opt)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(r.Format())
	}
}

// parseScenario turns "SendStartup=0,Latency=25" into a what-if scenario.
func parseScenario(spec string) (analysis.Scenario, error) {
	sc := analysis.Scenario{Name: "custom: " + spec}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return sc, fmt.Errorf("pdtrace: -set %q: want Name=value pairs", part)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return sc, fmt.Errorf("pdtrace: -set %s: %v", part, err)
		}
		switch strings.TrimSpace(key) {
		case "SendStartup":
			sc.SendStartup = analysis.CostPtr(n)
		case "RecvStartup":
			sc.RecvStartup = analysis.CostPtr(n)
		case "PerValue":
			sc.PerValue = analysis.CostPtr(n)
		case "Latency":
			sc.Latency = analysis.CostPtr(n)
		default:
			return sc, fmt.Errorf("pdtrace: -set: unknown cost %q (want SendStartup, RecvStartup, PerValue, or Latency)", key)
		}
	}
	return sc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdtrace:", err)
	os.Exit(1)
}
