// Heat: an explicit 1-D heat equation stepped through time, with the
// time-step rows wrapped around the ring (cyclic rows). Each processor owns
// every S-th time step; row t+1 consumes row t, so the decomposition is a
// pure producer-consumer pipeline along the other axis than the Gauss-Seidel
// example.
//
// The example deliberately shows a limit of the §4 transformations: the
// stencil's x-1/x/x+1 offsets lie in the dimension the messages vary over,
// which is outside the jamming pass's decidable fragment, so each time-step
// row travels as per-element messages after the full row is computed — and
// the time steps serialize, exactly like the flat unoptimized curves of
// Fig. 6. The measured flat makespan across processor counts quantifies why
// the paper's message optimizations are the difference between a pipeline
// and a serial program.
//
//	go run ./examples/heat
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

// U[t, x]: row t is the rod's temperature at step t. Row 1 is the initial
// condition supplied by the harness; columns 1 and W are fixed ends.
const src = `
const T = 64;
const W = 64;
const alpha = 0.25;

dist Steps = cyclic_rows(NPROCS);

proc heat(U: matrix[T, W] on Steps): matrix[T, W] on Steps {
  for t = 2 to T {
    U[t, 1] = 0.0;
    U[t, W] = 0.0;
  }
  for t = 1 to T - 1 {
    for x = 2 to W - 1 {
      U[t + 1, x] = U[t, x] + alpha * (U[t, x - 1] - 2.0 * U[t, x] + U[t, x + 1]);
    }
  }
  return U;
}
`

func initialRod(t, w int64) *istruct.Matrix {
	m, _ := istruct.NewMatrix("U", t, w)
	for x := int64(1); x <= w; x++ {
		// A hot spot in the middle of the rod.
		v := 0.0
		if x > w/3 && x < 2*w/3 {
			v = 100.0
		}
		m.Write(1, x, v)
	}
	return m
}

func main() {
	const tSteps, width = 64, 64
	prog, err := lang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("1-D heat equation, 64 time steps on a 64-point rod, steps wrapped by row")
	fmt.Printf("\n%-6s  %12s  %10s\n", "procs", "makespan", "messages")

	var seq *exec.Outcome
	for _, procs := range []int{1, 2, 4, 8} {
		info, errs := sem.Check(prog, sem.Config{Procs: int64(procs)})
		if len(errs) > 0 {
			log.Fatal(errs[0])
		}
		if seq == nil {
			if seq, err = exec.RunSequential(info, "heat",
				[]exec.ArgVal{{Matrix: initialRod(tSteps, width)}}); err != nil {
				log.Fatal(err)
			}
		}

		// Optimized II's pipeline: vectorize and jam decline here (the
		// stencil offsets are in the message dimension), so this compiles
		// to the compile-time-resolved programs — the passes are safe
		// no-ops outside their fragment.
		progs, err := xform.Compile(info, "heat", "opt2", 0)
		if err != nil {
			log.Fatal(err)
		}

		out, err := exec.RunSPMD(progs, machine.DefaultConfig(procs),
			map[string]*istruct.Matrix{"U": initialRod(tSteps, width)})
		if err != nil {
			log.Fatal(err)
		}
		if err := seq.Check(progs[0].Outputs, out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d  %12d  %10d\n", procs, out.Stats.Makespan, out.Stats.Messages)
	}

	fmt.Println("\nThe makespan is flat in the processor count: each row's values leave")
	fmt.Println("as per-element messages only after the whole row is computed, so time")
	fmt.Println("steps serialize — the same phenomenon as the unoptimized Fig. 6 curves.")

	// Show the final temperature profile coarsely.
	fmt.Println("\nfinal profile (step 64, every 8th point):")
	for x := int64(1); x <= width; x += 8 {
		v, _ := seq.Ret.Matrix.Read(tSteps, x)
		fmt.Printf("  x=%2d: %6.2f\n", x, v)
	}
}
