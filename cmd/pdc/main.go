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
	"os"
	"strconv"
	"strings"

	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

func main() {
	var (
		file    = flag.String("file", "", "Idn source file (default: stdin)")
		entry   = flag.String("entry", "", "entry procedure (default: sole procedure or 'main')")
		procs   = flag.Int("procs", 4, "number of processors")
		mode    = flag.String("mode", "ctr", "rtr | ctr | opt1 | opt2 | opt3")
		spec    = flag.Int("spec", -1, "print only this processor's program (ctr modes)")
		blk     = flag.Int64("blk", 8, "block size for opt3")
		emit    = flag.String("emit", "pseudo", "pseudo (the paper's pseudo-code) | c (iPSC/2 C, Appendix A style)")
		defines defineFlag
	)
	flag.Var(&defines, "D", "override a constant, e.g. -D N=64 (repeatable)")
	flag.Parse()

	src, err := readSource(*file)
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(src)
	if err != nil {
		fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(*procs), Defines: defines.vals})
	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "error:", e)
		}
		os.Exit(1)
	}
	name := pickEntry(info, *entry)

	format := spmd.Format
	switch *emit {
	case "pseudo":
	case "c":
		format = spmd.FormatC
	default:
		fatal(fmt.Errorf("unknown -emit %q", *emit))
	}

	progs, err := xform.Compile(info, name, *mode, *blk)
	if err != nil {
		fatal(err)
	}
	for _, p := range progs {
		if p.Proc < 0 {
			fmt.Print(format(p)) // the one generic program: -spec does not apply
			continue
		}
		if *spec >= 0 && p.Proc != *spec {
			continue
		}
		fmt.Print(format(p))
		fmt.Println()
	}
}

func readSource(file string) (string, error) {
	if file == "" {
		var b strings.Builder
		buf := make([]byte, 64*1024)
		for {
			n, err := os.Stdin.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String(), nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func pickEntry(info *sem.Info, entry string) string {
	if entry != "" {
		return entry
	}
	if _, ok := info.Procs["main"]; ok {
		return "main"
	}
	if len(info.Procs) == 1 {
		for name := range info.Procs {
			return name
		}
	}
	// Prefer a procedure nothing else calls.
	called := map[string]bool{}
	for _, p := range info.Procs {
		var names []string
		collectCalled(p, &names)
		for _, n := range names {
			called[n] = true
		}
	}
	for name := range info.Procs {
		if !called[name] {
			return name
		}
	}
	fatal(fmt.Errorf("cannot determine entry procedure; use -entry"))
	return ""
}

func collectCalled(p *sem.Proc, out *[]string) {
	var walk func(b *lang.Block)
	var walkExpr func(e lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.CallExpr:
			*out = append(*out, e.Name)
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *lang.BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *lang.UnExpr:
			walkExpr(e.X)
		case *lang.IndexExpr:
			for _, ix := range e.Indices {
				walkExpr(ix)
			}
		}
	}
	walk = func(b *lang.Block) {
		if b == nil {
			return
		}
		for _, st := range b.Stmts {
			switch st := st.(type) {
			case *lang.CallStmt:
				*out = append(*out, st.Name)
				for _, a := range st.Args {
					walkExpr(a)
				}
			case *lang.LetStmt:
				walkExpr(st.Init)
			case *lang.AssignStmt:
				walkExpr(st.Value)
			case *lang.StoreStmt:
				walkExpr(st.Value)
			case *lang.ForStmt:
				walk(st.Body)
			case *lang.IfStmt:
				walk(st.Then)
				walk(st.Else)
			case *lang.ReturnStmt:
				if st.Value != nil {
					walkExpr(st.Value)
				}
			}
		}
	}
	walk(p.Decl.Body)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdc:", err)
	os.Exit(1)
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
