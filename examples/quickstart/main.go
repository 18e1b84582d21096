// Quickstart: compile a three-statement program (the paper's Fig. 4
// example) with run-time and compile-time resolution, print both, and
// execute them on a simulated three-processor machine. It exits nonzero
// unless the result is 12 and the run sent Fig. 4d's 2 messages.
//
//	go run ./examples/quickstart
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
	"procdecomp/internal/spmd"
)

// The paper's Fig. 4a: a on P1, b on P2, their sum on P3 (0-indexed here).
// The Out matrix exists so the result can be gathered from the machine.
const src = `
proc main(Out: matrix[1, 1] on proc(2)) {
  let a: int on proc(0) = 5;
  let b: int on proc(1) = 7;
  let cc: int on proc(2) = a + b;
  Out[1, 1] = cc + 0.0;
}
`

func main() {
	// Parse and check against a three-processor machine.
	prog, err := lang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: 3})
	if len(errs) > 0 {
		log.Fatal(errs[0])
	}
	comp := core.New(info)

	// Run-time resolution: one generic program, executed by every process,
	// full of ownership tests and coerces (Fig. 4b).
	rtr, err := comp.CompileRTR("main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== run-time resolution (generic program) ===")
	fmt.Println(spmd.Format(rtr))

	// Compile-time resolution: the mapping information specializes the
	// program per processor; the tests disappear (Fig. 4d).
	ctr, err := comp.CompileCTR("main", true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== compile-time resolution (per-processor programs) ===")
	for _, p := range ctr {
		fmt.Print(spmd.Format(p))
	}

	// Execute the specialized programs on the simulated machine.
	out, _ := istruct.NewMatrix("Out", 1, 1)
	res, err := exec.RunSPMD(ctr, machine.DefaultConfig(3),
		map[string]*istruct.Matrix{"Out": out})
	if err != nil {
		log.Fatal(err)
	}
	v, _ := res.Arrays["Out"].Read(1, 1)
	fmt.Printf("\nresult: %g (expected 12)\n", v)
	fmt.Printf("messages exchanged: %d, makespan: %d cycles\n",
		res.Stats.Messages, res.Stats.Makespan)
	if v != 12 || res.Stats.Messages != 2 {
		log.Fatalf("result %g with %d messages; Fig. 4d computes 12 with 2", v, res.Stats.Messages)
	}
}
