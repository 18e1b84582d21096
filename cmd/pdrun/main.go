// Command pdrun compiles an Idn program and executes it on the simulated
// message-passing machine, reporting results and performance statistics.
// Array parameters are filled with a deterministic test pattern; with
// -check, the distributed result is compared against the sequential
// reference interpreter.
//
// Usage:
//
//	pdrun -file prog.idn -entry gs_iteration -procs 8 -mode opt3 -blk 8 -check
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/cli"
	"procdecomp/internal/exec"
	"procdecomp/internal/faults"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

func main() {
	// Ctrl-C cancels the simulated run through the machine's cancellation
	// points: the run returns a typed *machine.CanceledError naming where
	// each blocked process stood, and pdrun exits 130 like an interrupted
	// shell command would.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	stop()
	if errors.Is(err, machine.ErrCanceled) {
		var ce *machine.CanceledError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "pdrun: interrupted at process %d, cycle %d\n", ce.Proc, ce.Clock)
		} else {
			fmt.Fprintln(os.Stderr, "pdrun: interrupted")
		}
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdrun:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	// ExitOnError keeps -h at status 0 and a bad flag at 2, as before run
	// was split from main.
	fs := flag.NewFlagSet("pdrun", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		file      = fs.String("file", "", "Idn source file (default: stdin)")
		entry     = fs.String("entry", "", "entry procedure")
		procs     = fs.Int("procs", 4, "number of processors")
		mode      = fs.String("mode", "opt3", "rtr | ctr | opt1 | opt2 | opt3")
		blk       = fs.Int64("blk", 8, "block size for opt3")
		check     = fs.Bool("check", true, "compare against the sequential interpreter")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
		faultRate = fs.Float64("faults", 0, "inject a chaos fault schedule: drop messages at this rate, with duplicates, ack loss, and jitter (0 = reliable network)")
		faultSeed = fs.Uint64("fault-seed", 1, "seed for the fault schedule (same seed, same faults)")
		defines   cli.Defines
		remaps    remapFlag
	)
	fs.Var(&defines, "D", "override a constant, e.g. -D N=64 (repeatable)")
	fs.Var(&remaps, "dist", "retarget a dist declaration, e.g. -dist Column=block2d(2x4) (repeatable; pdmap searches these)")
	fs.Parse(args)

	src, err := cli.ReadSource(*file, stdin)
	if err != nil {
		return err
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	for _, rm := range remaps.maps {
		m := rm.mapping
		if m.Span == 0 {
			m.Span = int64(*procs) // bare family name: span the whole machine
		}
		if err := m.Validate(int64(*procs)); err != nil {
			return err
		}
		if err := autotune.Retarget(prog, rm.name, m); err != nil {
			return err
		}
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(*procs), Defines: defines})
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(stderr, "error:", e)
		}
		return fmt.Errorf("%d semantic error(s)", len(errs))
	}
	name := *entry
	if name == "" {
		return fmt.Errorf("-entry is required")
	}
	inputs, err := exec.PatternInputs(info, name)
	if err != nil {
		return err
	}

	progs, err := xform.Compile(info, name, *mode, *blk)
	if err != nil {
		return err
	}

	cfg := machine.DefaultConfig(*procs)
	if *faultRate > 0 {
		cfg.Faults = faults.Chaos(*faultSeed, *faultRate)
	}
	var tr *trace.Log
	if *traceOut != "" {
		tr = trace.New()
		cfg.Tracer = tr
	}
	out, err := exec.RunSPMDCtx(ctx, progs, cfg, inputs)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "executed %s on %d simulated processors (%s)\n", name, *procs, *mode)
	fmt.Fprintf(stdout, "  makespan: %d cycles\n", out.Stats.Makespan)
	fmt.Fprintf(stdout, "  messages: %d (%d values, %d bytes)\n", out.Stats.Messages, out.Stats.Values, out.Stats.Bytes)
	if *faultRate > 0 {
		fmt.Fprintf(stdout, "  faults: chaos rate %g, seed %d: %d retries, %d duplicates suppressed, %d lost\n",
			*faultRate, *faultSeed, out.Stats.Retries, out.Stats.Duplicates, out.Stats.Lost)
	}
	if tr != nil {
		if err := writeTrace(*traceOut, cfg, tr); err != nil {
			return err
		}
		links := 0
		for _, row := range tr.MessageMatrix() {
			for _, c := range row {
				if c > 0 {
					links++
				}
			}
		}
		fmt.Fprintf(stdout, "  trace: %d events, %d messages over %d links -> %s (Perfetto timeline; analyze with pdtrace)\n",
			tr.Len(), tr.Messages(), links, *traceOut)
	}
	printOutputs(stdout, out)

	if *check {
		ref, err := exec.Reference(info, name)
		if err != nil {
			return err
		}
		if err := ref.Check(progs[0].Outputs, out); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		if ref.Returned() != nil {
			fmt.Fprintln(stdout, "  check: distributed result matches the sequential interpreter")
		}
	}
	return nil
}

// printOutputs reports the run's output arrays and scalars in sorted name
// order.
func printOutputs(w io.Writer, out *exec.SPMDOutcome) {
	arrays, scalars := out.Summary()
	for _, a := range arrays {
		fmt.Fprintf(w, "  array %s: %dx%d, %d defined elements\n", a.Name, a.Rows, a.Cols, a.Defined)
	}
	for _, s := range scalars {
		fmt.Fprintf(w, "  scalar %s = %g\n", s.Name, s.Value)
	}
}

// writeTrace writes the run as a Chrome trace-event file with the analyzer's
// dump embedded (pdtrace reads it back; Perfetto ignores the extra key).
func writeTrace(path string, cfg machine.Config, tr *trace.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := analysis.NewDump(cfg, tr).WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// remapFlag parses repeated -dist Name=mapping flags.
type remapFlag struct {
	maps []remap
}

type remap struct {
	name    string
	mapping autotune.Mapping
}

func (r *remapFlag) String() string {
	parts := make([]string, len(r.maps))
	for i, rm := range r.maps {
		parts[i] = rm.name + "=" + rm.mapping.String()
	}
	return strings.Join(parts, ",")
}

func (r *remapFlag) Set(s string) error {
	name, spec, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=MAPPING, got %q", s)
	}
	m, err := autotune.ParseMapping(spec)
	if err != nil {
		return err
	}
	r.maps = append(r.maps, remap{name: strings.TrimSpace(name), mapping: m})
	return nil
}
