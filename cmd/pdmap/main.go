// Command pdmap searches for a program's domain decomposition instead of
// taking the annotation on faith: it enumerates mapping families, spans, and
// transformation pipelines, ranks them with a tiered cost model (static walk,
// communication-DAG replay), confirms the best predictions on the simulated
// machine, and reports predicted vs. measured makespan per candidate, the
// winner's makespan attribution, and the regret of the hand-chosen mapping.
//
// Usage:
//
//	pdmap -file prog.idn -entry gs_iteration -procs 8
//	pdmap -gs -procs 4 -D N=16 -json
//
// The report is deterministic: identical searches emit identical bytes. A
// modeled candidate whose measured makespan differs from its prediction is an
// error (exit 1), never a report — so a pdmap run doubles as a cost-model
// self-check in CI.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"procdecomp/internal/autotune"
	"procdecomp/internal/bench"
	"procdecomp/internal/cli"
	"procdecomp/internal/dist"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
)

func main() {
	// Ctrl-C cancels the search through its context: pdmap prints the
	// partial report accumulated so far and exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdmap:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdmap", flag.ContinueOnError)
	var (
		file     = fs.String("file", "", "Idn source file (default: stdin)")
		gs       = fs.Bool("gs", false, "search the built-in Gauss-Seidel program (paper Fig. 1) instead of -file")
		entry    = fs.String("entry", "", "entry procedure (default with -gs: gs_iteration)")
		distName = fs.String("dist", "", "dist declaration to retarget (default: the program's only one)")
		procs    = fs.Int("procs", 4, "number of processors")
		kinds    = fs.String("kinds", "", "comma-separated mapping families to try (default: all families)")
		spans    = fs.String("spans", "", "comma-separated spans for 1-D families (default: procs and procs/2)")
		modes    = fs.String("modes", "", "comma-separated pipelines: rtr,ctr,opt1,opt2,opt3 (default: all)")
		blks     = fs.String("blks", "", "comma-separated opt3 strip sizes (default: 4,8)")
		keep     = fs.Int("keep", 0, "candidates surviving the static prune (default 12)")
		topk     = fs.Int("topk", 0, "predicted candidates confirmed by real runs (default 6)")
		workers  = fs.Int("workers", 0, "measurement worker pool size (default 4)")
		baseMode = fs.String("baseline", "ctr", "compilation mode of the anchoring baseline run")
		baseBlk  = fs.Int64("baseline-blk", 0, "strip size of the baseline when its mode is opt3")
		warm     = fs.String("warm", "", "warm-start from a previous run: a pdmap JSON report whose winner seeds the branch-and-bound prune")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON instead of text")
		defines  cli.Defines
	)
	fs.Var(&defines, "D", "override a constant, e.g. -D N=64 (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var src, name string
	switch {
	case *gs && *file != "":
		return fmt.Errorf("-gs and -file are mutually exclusive")
	case *gs:
		src, name = bench.GSSource, "gauss-seidel"
		if *entry == "" {
			*entry = "gs_iteration"
		}
	default:
		var err error
		if src, err = cli.ReadSource(*file, os.Stdin); err != nil {
			return err
		}
		if name = *file; name == "" {
			name = "stdin"
		}
	}
	if *entry == "" {
		return fmt.Errorf("-entry is required")
	}

	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	dn, err := autotune.PickDist(prog, *distName)
	if err != nil {
		return err
	}

	space, err := parseSpace(*kinds, *spans, *modes, *blks)
	if err != nil {
		return err
	}

	var seed []autotune.Mapping
	if *warm != "" {
		m, err := warmSeed(*warm)
		if err != nil {
			return err
		}
		seed = []autotune.Mapping{m}
	}

	w := &autotune.Workload{Name: name, Source: src, Entry: *entry, Dist: dn, Defines: defines}
	rep, err := autotune.SearchCtx(ctx, w, machine.DefaultConfig(*procs), autotune.Options{
		Space: space, Keep: *keep, TopK: *topk, Workers: *workers,
		BaselineMode: *baseMode, BaselineBlk: *baseBlk, Seed: seed,
	})
	if err != nil {
		// An interrupted search still returns what it learned: print the
		// partial report before exiting nonzero.
		if rep != nil && errors.Is(err, context.Canceled) {
			if *jsonOut {
				rep.WriteJSON(stdout)
			} else {
				io.WriteString(stdout, rep.Format())
			}
		}
		return err
	}

	if *jsonOut {
		return rep.WriteJSON(stdout)
	}
	_, err = io.WriteString(stdout, rep.Format())
	return err
}

// warmSeed extracts the winning mapping from a previous run's JSON report —
// the candidate key's leading segment, e.g. "all" from "all/ctr" or
// "cyclic_cols(4)" from "cyclic_cols(4)/opt3/blk8".
func warmSeed(path string) (autotune.Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return autotune.Mapping{}, err
	}
	var rep struct{ Winner string }
	if err := json.Unmarshal(data, &rep); err != nil {
		return autotune.Mapping{}, fmt.Errorf("-warm %s: %v", path, err)
	}
	if rep.Winner == "" {
		return autotune.Mapping{}, fmt.Errorf("-warm %s: report has no winner", path)
	}
	key, _, _ := strings.Cut(rep.Winner, "/")
	m, err := autotune.ParseMapping(key)
	if err != nil {
		return autotune.Mapping{}, fmt.Errorf("-warm %s: %v", path, err)
	}
	return m, nil
}

// parseSpace builds the candidate space from the comma-separated flags,
// leaving zero fields for the library defaults.
func parseSpace(kinds, spans, modes, blks string) (autotune.Space, error) {
	var sp autotune.Space
	for _, k := range splitList(kinds) {
		kind, err := dist.Parse(k)
		if err != nil {
			return sp, err
		}
		sp.Kinds = append(sp.Kinds, kind)
	}
	var err error
	if sp.Spans, err = parseInts(spans, "-spans"); err != nil {
		return sp, err
	}
	sp.Modes = splitList(modes)
	if sp.Blks, err = parseInts(blks, "-blks"); err != nil {
		return sp, err
	}
	return sp, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s, flagName string) ([]int64, error) {
	var out []int64
	for _, part := range splitList(s) {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", flagName, err)
		}
		out = append(out, v)
	}
	return out, nil
}
