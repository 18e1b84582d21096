// Jacobi: a 5-point relaxation where every read comes from the old grid, so
// compile-time resolution alone already exposes all the parallelism — no
// pipelining needed, unlike Gauss-Seidel. The example also contrasts two
// decompositions: wrapped (cyclic) columns, which the analysis resolves
// fully at compile time, and block columns, whose ownership tests fall into
// the "inconclusive" class and remain as run-time resolution — the paper's
// graceful-degradation path (§3.2).
//
//	go run ./examples/jacobi
package main

import (
	"fmt"
	"log"

	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
	"procdecomp/internal/xform"
)

const srcTemplate = `
const N = 64;
const w = 0.25;

dist D = %s(NPROCS);

proc jacobi(Old: matrix[N, N] on D): matrix[N, N] on D {
  let New = matrix(N, N) on D;
  for j = 1 to N {
    New[1, j] = Old[1, j];
    New[N, j] = Old[N, j];
  }
  for i = 2 to N - 1 {
    New[i, 1] = Old[i, 1];
    New[i, N] = Old[i, N];
  }
  for j = 2 to N - 1 {
    for i = 2 to N - 1 {
      New[i, j] = w * (Old[i - 1, j] + Old[i + 1, j] + Old[i, j - 1] + Old[i, j + 1]);
    }
  }
  return New;
}
`

func run(distName string, procs int) {
	src := fmt.Sprintf(srcTemplate, distName)
	prog, err := lang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: int64(procs)})
	if len(errs) > 0 {
		log.Fatal(errs[0])
	}
	const n = 64

	input := func() *istruct.Matrix {
		m, _ := istruct.NewMatrix("Old", n, n)
		for i := int64(1); i <= n; i++ {
			for j := int64(1); j <= n; j++ {
				m.Write(i, j, float64((i*7+j*13)%31))
			}
		}
		return m
	}

	progs, err := xform.Compile(info, "jacobi", "opt1", 0)
	if err != nil {
		log.Fatal(err)
	}

	out, err := exec.RunSPMD(progs, machine.DefaultConfig(procs),
		map[string]*istruct.Matrix{"Old": input()})
	if err != nil {
		log.Fatal(err)
	}

	// Validate against the sequential interpreter.
	seq, err := exec.RunSequential(info, "jacobi", []exec.ArgVal{{Matrix: input()}})
	if err != nil {
		log.Fatal(err)
	}
	if err := seq.Check(progs[0].Outputs, out); err != nil {
		log.Fatalf("%s: %v", distName, err)
	}

	fmt.Printf("  %-12s  makespan %10d  messages %7d  (validated)\n",
		distName, out.Stats.Makespan, out.Stats.Messages)
}

func main() {
	fmt.Println("Jacobi 5-point relaxation, 64x64 grid")
	for _, procs := range []int{2, 4, 8} {
		fmt.Printf("\n%d processors:\n", procs)
		// Cyclic columns: mod-based ownership, fully resolved at compile time.
		run("cyclic_cols", procs)
		// Block columns: div-based ownership; the three-valued analysis says
		// "inconclusive", so the generated code keeps run-time tests — slower
		// but still correct (the paper's prescribed fallback).
		run("block_cols", procs)
	}
	fmt.Println("\nBlock columns exchange fewer values (only block edges cross processes)")
	fmt.Println("but keep run-time ownership tests; wrapped columns resolve at compile time.")
}
