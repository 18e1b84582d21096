// Polymap: mapping polymorphism (paper §5.1, Figs. 8 and 9). A procedure
// with a fixed mapping forces every call's data to travel to the mapping's
// processor; abstracting the mapping ("λP.λa:P.a") lets each call site be
// compiled where its data lives, eliminating the messages and letting the
// calls proceed in parallel. This example compiles both versions and counts
// the messages. It exits nonzero unless both compute (14, 18) and the
// polymorphic version sends fewer messages than the monomorphic one.
//
//	go run ./examples/polymap
package main

import (
	"fmt"
	"log"

	"procdecomp/internal/core"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
)

// Monomorphic: scale is pinned to processor 0 (the paper's f = λa:P1.a).
// Both calls must ship their argument to processor 0 and the result back.
const monoSrc = `
proc scale(x: real on proc(0)): real on proc(0) {
  return 2.0 * x;
}
proc main(Out: matrix[2, 1] on proc(2)) {
  let b: real on proc(1) = 7.0;
  let cc: real on proc(2) = 9.0;
  Out[1, 1] = scale(b);
  Out[2, 1] = scale(cc);
}
`

// Polymorphic: the mapping is abstracted (λP.λa:P.a); each call instantiates
// it where the argument lives (Fig. 9), so no coercion messages are needed
// to reach the procedure.
const polySrc = `
proc scale[D: dist](x: real on D): real on D {
  return 2.0 * x;
}
proc main(Out: matrix[2, 1] on proc(2)) {
  let b: real on proc(1) = 7.0;
  let cc: real on proc(2) = 9.0;
  Out[1, 1] = scale[proc(1)](b);
  Out[2, 1] = scale[proc(2)](cc);
}
`

// run compiles and runs src, prints its row, and returns its message count.
func run(label, src string) int64 {
	prog, err := lang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: 3})
	if len(errs) > 0 {
		log.Fatal(errs[0])
	}
	progs, err := core.New(info).CompileCTR("main", true)
	if err != nil {
		log.Fatal(err)
	}
	out, _ := istruct.NewMatrix("Out", 2, 1)
	res, err := exec.RunSPMD(progs, machine.DefaultConfig(3),
		map[string]*istruct.Matrix{"Out": out})
	if err != nil {
		log.Fatal(err)
	}
	v1, _ := res.Arrays["Out"].Read(1, 1)
	v2, _ := res.Arrays["Out"].Read(2, 1)
	fmt.Printf("%-22s  results (%g, %g)  messages %d  makespan %d\n",
		label, v1, v2, res.Stats.Messages, res.Stats.Makespan)
	if v1 != 14 || v2 != 18 {
		log.Fatalf("%s: results (%g, %g), want (14, 18)", label, v1, v2)
	}
	return res.Stats.Messages
}

func main() {
	fmt.Println("Mapping polymorphism (paper §5.1, Figs. 8/9), three processors")
	fmt.Println()
	mono := run("monomorphic (on P0)", monoSrc)
	poly := run("polymorphic (on D)", polySrc)
	if poly >= mono {
		log.Fatalf("the polymorphic version sends %d messages, the monomorphic %d; §5.1 says fewer (1 against 4)", poly, mono)
	}
	fmt.Println()
	fmt.Println("The monomorphic version coerces both arguments to processor 0 and the")
	fmt.Println("results back out; the polymorphic version computes where the data lives.")
	fmt.Println("(Both still ship the value Out[2,1] needs nowhere: cc already lives on")
	fmt.Println("processor 2, which owns Out — only the b-call's result must move.)")
}
