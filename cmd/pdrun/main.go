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
	"sort"
	"strconv"
	"strings"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/exec"
	"procdecomp/internal/faults"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/trace"
	"procdecomp/internal/xform"
)

func main() {
	var (
		file      = flag.String("file", "", "Idn source file (default: stdin)")
		entry     = flag.String("entry", "", "entry procedure")
		procs     = flag.Int("procs", 4, "number of processors")
		mode      = flag.String("mode", "opt3", "rtr | ctr | opt1 | opt2 | opt3")
		blk       = flag.Int64("blk", 8, "block size for opt3")
		check     = flag.Bool("check", true, "compare against the sequential interpreter")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
		faultRate = flag.Float64("faults", 0, "inject a chaos fault schedule: drop messages at this rate, with duplicates, ack loss, and jitter (0 = reliable network)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the fault schedule (same seed, same faults)")
		defines   defineFlag
		remaps    remapFlag
	)
	flag.Var(&defines, "D", "override a constant, e.g. -D N=64 (repeatable)")
	flag.Var(&remaps, "dist", "retarget a dist declaration, e.g. -dist Column=block2d(2x4) (repeatable; pdmap searches these)")
	flag.Parse()

	src, err := readSource(*file)
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(src)
	if err != nil {
		fatal(err)
	}
	for _, rm := range remaps.maps {
		m := rm.mapping
		if m.Span == 0 {
			m.Span = int64(*procs) // bare family name: span the whole machine
		}
		if err := m.Validate(int64(*procs)); err != nil {
			fatal(err)
		}
		if err := autotune.Retarget(prog, rm.name, m); err != nil {
			fatal(err)
		}
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(*procs), Defines: defines.vals})
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "error:", e)
		}
		os.Exit(1)
	}
	name := *entry
	if name == "" {
		fatal(fmt.Errorf("-entry is required"))
	}
	p, ok := info.Procs[name]
	if !ok {
		fatal(fmt.Errorf("no procedure %s", name))
	}

	// Build deterministic inputs for array parameters.
	inputs := map[string]*istruct.Matrix{}
	var seqArgs []exec.ArgVal
	for _, prm := range p.Params {
		if prm.Type.Base != lang.TMatrix {
			fatal(fmt.Errorf("entry parameters must be matrices; use consts for scalars"))
		}
		mk := func() *istruct.Matrix {
			m, err := istruct.Pattern(prm.Name, prm.Type.Dims[0], prm.Type.Dims[1])
			if err != nil {
				fatal(err)
			}
			return m
		}
		inputs[prm.Name] = mk()
		seqArgs = append(seqArgs, exec.ArgVal{Matrix: mk()})
	}

	progs, err := xform.Compile(info, name, *mode, *blk)
	if err != nil {
		fatal(err)
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
	// Ctrl-C cancels the simulated run through the machine's cancellation
	// points: the run returns a typed *machine.CanceledError naming where
	// each blocked process stood, and pdrun exits 130 like an interrupted
	// shell command would.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	out, err := exec.RunSPMDCtx(ctx, progs, cfg, inputs)
	stop()
	if err != nil {
		if errors.Is(err, machine.ErrCanceled) {
			var ce *machine.CanceledError
			if errors.As(err, &ce) {
				fmt.Fprintf(os.Stderr, "pdrun: interrupted at process %d, cycle %d\n", ce.Proc, ce.Clock)
			} else {
				fmt.Fprintln(os.Stderr, "pdrun: interrupted")
			}
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Printf("executed %s on %d simulated processors (%s)\n", name, *procs, *mode)
	fmt.Printf("  makespan: %d cycles\n", out.Stats.Makespan)
	fmt.Printf("  messages: %d (%d values, %d bytes)\n", out.Stats.Messages, out.Stats.Values, out.Stats.Bytes)
	if *faultRate > 0 {
		fmt.Printf("  faults: chaos rate %g, seed %d: %d retries, %d duplicates suppressed, %d lost\n",
			*faultRate, *faultSeed, out.Stats.Retries, out.Stats.Duplicates, out.Stats.Lost)
	}
	if tr != nil {
		if err := writeTrace(*traceOut, cfg, tr); err != nil {
			fatal(err)
		}
		links := 0
		for _, row := range tr.MessageMatrix() {
			for _, c := range row {
				if c > 0 {
					links++
				}
			}
		}
		fmt.Printf("  trace: %d events, %d messages over %d links -> %s (Perfetto timeline; analyze with pdtrace)\n",
			tr.Len(), tr.Messages(), links, *traceOut)
	}
	printOutputs(os.Stdout, out)

	if *check {
		seq, err := exec.RunSequential(info, name, seqArgs)
		if err != nil {
			fatal(fmt.Errorf("sequential reference failed: %w", err))
		}
		if seq.HasRet && seq.Ret.Matrix != nil {
			want := seq.Ret.Matrix
			// Identify the returned array by name: prefer the output whose
			// name matches the matrix the sequential interpreter returned,
			// falling back to the last array output (the return value is
			// emitted last). Matching by shape alone could silently compare
			// against a different, same-shaped output array.
			retName, lastArray := "", ""
			for _, o := range progs[0].Outputs {
				if !o.IsArray {
					continue
				}
				lastArray = o.Name
				if o.Name == want.Name() {
					retName = o.Name
				}
			}
			if retName == "" {
				retName = lastArray
			}
			if retName == "" {
				fatal(fmt.Errorf("the entry returns an array but the compiled program has no array output"))
			}
			got := out.Arrays[retName]
			if got == nil {
				fatal(fmt.Errorf("output array %s missing from the distributed result", retName))
			}
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				fatal(fmt.Errorf("output array %s is %dx%d, sequential result is %dx%d",
					retName, got.Rows(), got.Cols(), want.Rows(), want.Cols()))
			}
			for i := int64(1); i <= want.Rows(); i++ {
				for j := int64(1); j <= want.Cols(); j++ {
					if want.Defined(i, j) != got.Defined(i, j) {
						fatal(fmt.Errorf("check failed: definedness differs at (%d,%d)", i, j))
					}
					if !want.Defined(i, j) {
						continue
					}
					vw, _ := want.Read(i, j)
					vg, _ := got.Read(i, j)
					if d := vw - vg; d > 1e-9 || d < -1e-9 {
						fatal(fmt.Errorf("check failed at (%d,%d): %g vs %g", i, j, vg, vw))
					}
				}
			}
			fmt.Println("  check: distributed result matches the sequential interpreter")
		}
	}
}

func readSource(file string) (string, error) {
	if file == "" {
		return readAll(os.Stdin)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// readAll drains r, keeping any bytes read before a mid-stream failure is
// reported. Unlike a bare read loop, a non-EOF error is returned, not
// swallowed.
func readAll(r io.Reader) (string, error) {
	var b strings.Builder
	buf := make([]byte, 64*1024)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err == io.EOF {
			return b.String(), nil
		}
		if err != nil {
			return "", fmt.Errorf("reading source: %w", err)
		}
	}
}

// printOutputs reports the run's output arrays and scalars in sorted name
// order, so identical runs print identically (map iteration order is random).
func printOutputs(w io.Writer, out *exec.SPMDOutcome) {
	names := make([]string, 0, len(out.Arrays))
	for name := range out.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Arrays[name]
		defined := 0
		for i := int64(1); i <= m.Rows(); i++ {
			for j := int64(1); j <= m.Cols(); j++ {
				if m.Defined(i, j) {
					defined++
				}
			}
		}
		fmt.Fprintf(w, "  array %s: %dx%d, %d defined elements\n", name, m.Rows(), m.Cols(), defined)
	}
	names = names[:0]
	for name := range out.Scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  scalar %s = %g\n", name, out.Scalars[name])
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdrun:", err)
	os.Exit(1)
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

// defineFlag parses repeated -D NAME=VALUE flags.
type defineFlag struct {
	vals map[string]int64
}

func (d *defineFlag) String() string { return fmt.Sprint(d.vals) }

func (d *defineFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	if d.vals == nil {
		d.vals = map[string]int64{}
	}
	d.vals[name] = v
	return nil
}
