// Command pdc is the process-decomposition compiler driver: it parses an
// Idn program, checks it against a machine configuration, performs run-time
// or compile-time resolution (optionally followed by the §4 message
// optimizations), and prints the resulting SPMD program(s).
//
// Usage:
//
//	pdc -file prog.idn -entry gs_iteration -procs 4 -mode ctr [-spec 1]
//	pdc -file prog.idn -mode opt3 -blk 8 -D N=64
//
// Modes: rtr (run-time resolution, one generic program), ctr (compile-time
// resolution, per-processor programs), opt1/opt2/opt3 (ctr plus vectorize /
// +jam / +strip-mine).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"procdecomp/internal/cli"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pdc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	// ExitOnError keeps -h at status 0 and a bad flag at 2, as before run
	// was split from main.
	fs := flag.NewFlagSet("pdc", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		file    = fs.String("file", "", "Idn source file (default: stdin)")
		entry   = fs.String("entry", "", "entry procedure (default: sole procedure or 'main')")
		procs   = fs.Int("procs", 4, "number of processors")
		mode    = fs.String("mode", "ctr", "rtr | ctr | opt1 | opt2 | opt3")
		spec    = fs.Int("spec", -1, "print only this processor's program (ctr modes)")
		blk     = fs.Int64("blk", 8, "block size for opt3")
		emit    = fs.String("emit", "pseudo", "pseudo (the paper's pseudo-code) | c (iPSC/2 C, Appendix A style)")
		defines cli.Defines
	)
	fs.Var(&defines, "D", "override a constant, e.g. -D N=64 (repeatable)")
	fs.Parse(args)
	if *spec < -1 || *spec >= *procs {
		return fmt.Errorf("-spec %d names no process of %d: want 0 to %d, or -1 for all", *spec, *procs, *procs-1)
	}

	src, err := cli.ReadSource(*file, stdin)
	if err != nil {
		return err
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(*procs), Defines: defines})
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(stderr, "error:", e)
		}
		return fmt.Errorf("%d semantic error(s)", len(errs))
	}
	name, err := pickEntry(info, *entry)
	if err != nil {
		return err
	}

	format := spmd.Format
	switch *emit {
	case "pseudo":
	case "c":
		format = spmd.FormatC
	default:
		return fmt.Errorf("unknown -emit %q", *emit)
	}

	progs, err := xform.Compile(info, name, *mode, *blk)
	if err != nil {
		return err
	}
	for _, p := range progs {
		if p.Proc < 0 {
			fmt.Fprint(stdout, format(p)) // the one generic program: -spec does not apply
			continue
		}
		if *spec >= 0 && p.Proc != *spec {
			continue
		}
		fmt.Fprint(stdout, format(p))
		fmt.Fprintln(stdout)
	}
	return nil
}

// pickEntry resolves the procedure to compile: the named one, else main, else
// the only procedure nothing else calls (sem rejects recursion, so a program's
// sole procedure is that), read from sem's call graph, Proc.Callees. Several
// uncalled procedures are an error, not a coin toss over map iteration order.
func pickEntry(info *sem.Info, entry string) (string, error) {
	if entry != "" {
		return entry, nil
	}
	if _, ok := info.Procs["main"]; ok {
		return "main", nil
	}
	called := map[string]bool{}
	for _, p := range info.Procs {
		for _, n := range p.Callees {
			called[n] = true
		}
	}
	var roots []string
	for name := range info.Procs {
		if !called[name] {
			roots = append(roots, name)
		}
	}
	sort.Strings(roots)
	switch len(roots) {
	case 1:
		return roots[0], nil
	case 0:
		return "", fmt.Errorf("cannot determine entry procedure; use -entry")
	default:
		return "", fmt.Errorf("cannot determine entry procedure (candidates: %s); use -entry", strings.Join(roots, ", "))
	}
}
