// Command pdperf is the repository's benchmark: four workloads over the
// library (exec, search) and the service (pdserve, in-process behind a real
// loopback listener), eight drift-corrected end-to-end metrics, and a
// separate traced run that replays a workload stage by stage for ~60
// per-layer metrics. BENCHMARK.json at the repository root declares it;
// README.md beside this file explains every metric and why wall-clock
// numbers are divided by a reference kernel.
//
//	pdperf -workload fig6-exec -seed 1 -seconds 25 -trace 0
//
// One process, no children: the server, its clients and the simulated
// machines all run in here, and everything is torn down on every exit path.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// cleanups is the run's teardown stack. The normal path runs it under
// defer; the watchdog runs it before exiting non-zero, so a hung run still
// leaves no listener and no temp dir behind.
type cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleanups) add(f func()) {
	c.mu.Lock()
	c.fns = append(c.fns, f)
	c.mu.Unlock()
}

// run calls every registered teardown, newest first. Teardowns are
// idempotent, so running the stack twice is harmless.
func (c *cleanups) run() {
	c.mu.Lock()
	fns := append([]func(){}, c.fns...)
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// output is the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	e, o, code := parse(os.Args[1:], os.Stderr)
	if e == nil {
		os.Exit(code)
	}
	os.Exit(e.main(o, os.Stdout, os.Exit))
}

// options is the parsed command line, minus what lives in env.
type options struct {
	workload string
	seconds  float64
	traced   bool
	watchdog time.Duration
	self     bool
	update   string
}

// parse reads the command line; a nil env means exit with the code.
func parse(args []string, stderr io.Writer) (*env, *options, int) {
	fs := flag.NewFlagSet("pdperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o      options
		seed   = fs.Uint64("seed", 1, "workload seed: shuffles the op order, schedules arrivals, salts cold keys")
		traced = fs.Int("trace", 0, "1 = the traced run (per-layer metrics); 0 = end-to-end metrics, tracing off")
		scale  = fs.String("scale", "full", "full, or tiny (shrunken sizes, for the tests only)")
		outDir = fs.String("out", "benchmarks/pdperf/out", "directory for trace files and the server's temp dirs")
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: fig6-exec, map-search, serve-open or serve-durable")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed section")
	fs.DurationVar(&o.watchdog, "watchdog", 170*time.Second, "tear everything down and exit non-zero after this long")
	fs.BoolVar(&o.self, "selfcheck", false, "run every workload as two interleaved sets and compare their medians")
	fs.StringVar(&o.update, "update-expected", "", "run every op once and write its simulated statistics to this file")
	if err := fs.Parse(args); err != nil {
		return nil, nil, 2
	}
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintf(stderr, "pdperf: unknown -scale %q\n", *scale)
		return nil, nil, 2
	}
	o.traced = *traced == 1
	e := &env{seed: *seed, tiny: *scale == "tiny", outDir: *outDir, log: stderr,
		ref: newRefKernel(), clean: &cleanups{}}
	if err := json.Unmarshal(expectedJSON, &e.exp); err != nil {
		fmt.Fprintf(stderr, "pdperf: expected.json: %v\n", err)
		return nil, nil, 1
	}
	return e, &o, 0
}

// main runs what the options ask for under the watchdog. exit is os.Exit,
// injectable so the tests can drive the watchdog path inside one process.
func (e *env) main(o *options, stdout io.Writer, exit func(int)) int {
	defer e.clean.run()
	dog := time.AfterFunc(o.watchdog, func() {
		e.expired.Store(true)
		fmt.Fprintf(e.log, "pdperf: watchdog: still running after %v; shutting down\n", o.watchdog)
		e.clean.run()
		exit(3)
	})
	defer dog.Stop()

	ws := workloads(e.tiny)
	code := func() int {
		switch {
		case o.update != "":
			return e.updateExpected(ws, o.update)
		case o.self:
			return e.selfcheck(ws, o.seconds, stdout)
		}
		for _, w := range ws {
			if w.name == o.workload {
				return e.single(ws, w, o.seconds, o.traced, stdout)
			}
		}
		fmt.Fprintf(e.log, "pdperf: unknown -workload %q\n", o.workload)
		return 2
	}()
	if e.expired.Load() {
		return 3
	}
	return code
}

// single is one contract run: one workload, one result line.
func (e *env) single(ws []*workload, sel *workload, seconds float64, traced bool, stdout io.Writer) int {
	out := output{Metrics: map[string]metricValue{}}
	var firstErr error
	if traced {
		values, tl, err := e.tracedRun(ws, sel)
		if err != nil {
			fmt.Fprintf(e.log, "pdperf: %s: %v\n", sel.name, err)
			return 1
		}
		out.Attempted, out.Failed, firstErr = tl.attempted, tl.failed, tl.firstErr
		for _, m := range perLayer {
			v, ok := values[m.Name]
			if !ok {
				fmt.Fprintf(e.log, "pdperf: %s: per-layer metric %s was not measured (%d ops failed; first: %v)\n", sel.name, m.Name, out.Failed, firstErr)
				return 1
			}
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		res, err := e.measure(sel, seconds)
		if err != nil {
			fmt.Fprintf(e.log, "pdperf: %s: %v\n", sel.name, err)
			return 1
		}
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{res.metrics[m.Name], m.Unit}
		}
		out.Attempted, out.Failed, firstErr = res.attempted, res.failed, res.firstErr
		if res.late > 0 {
			fmt.Fprintf(e.log, "pdperf: %s: %d of %d replies were correct but later than %.0f ms\n", sel.name, res.late, res.attempted, sel.limitMS)
		}
		refs := e.ref.all()
		fmt.Fprintf(e.log, "pdperf: %s seed %d: raw setup_s %.4f ops/s %.3f lat_p50_ms %.4f; reference kernel p10/p50/p90 %.3f/%.3f/%.3f ms (stream %.3f + chase %.3f) over %d samples (nominal %.1f)\n",
			sel.name, e.seed, res.raw["setup_s"], res.raw["norm_ops_per_s"], res.raw["norm_lat_p50_ms"],
			quantile(refs, 0.1), median(refs), quantile(refs, 0.9), median(e.ref.streamMS), median(e.ref.chaseMS), len(refs), refNominalMS)
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(e.log, "pdperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		fmt.Fprintf(e.log, "pdperf: %s: %d of %d ops failed; first: %v\n", sel.name, out.Failed, out.Attempted, firstErr)
		return 1
	}
	return 0
}

// updateExpected runs one round of every workload and writes what the ops
// reported. Use it only when a change is meant to alter simulated results.
func (e *env) updateExpected(ws []*workload, path string) int {
	e.learn = map[string]opResult{}
	for _, w := range ws {
		inst, _, err := e.setUp(w)
		if err != nil {
			fmt.Fprintf(e.log, "pdperf: %s: %v\n", w.name, err)
			return 1
		}
		tl := e.closedLoop(inst, w, 0, 1, nil)
		inst.close()
		if tl.failed > 0 {
			fmt.Fprintf(e.log, "pdperf: %s: %v\n", w.name, tl.firstErr)
			return 1
		}
	}
	// The other scale's entries live in the same file: keep them.
	if old, err := os.ReadFile(path); err == nil {
		kept := map[string]opResult{}
		if err := json.Unmarshal(old, &kept); err != nil {
			fmt.Fprintf(e.log, "pdperf: %s: %v\n", path, err)
			return 1
		}
		for id, r := range kept {
			if _, ok := e.learn[id]; !ok {
				e.learn[id] = r
			}
		}
	}
	b, err := json.MarshalIndent(e.learn, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(e.log, "pdperf: %v\n", err)
		return 1
	}
	return 0
}

// selfcheck runs the four workloads as two interleaved sets (A B A B …,
// three runs per set) and fails unless, for every end-to-end metric ×
// workload, the two set medians agree within the metric's bound. It prints
// the raw and the corrected spread side by side.
func (e *env) selfcheck(ws []*workload, seconds float64, stdout io.Writer) int {
	const runs = 6
	type key struct{ w, m string }
	vals, raws := map[key][]float64{}, map[key][]float64{}
	for i := 0; i < runs; i++ {
		e.seed = uint64(i + 1)
		for _, w := range ws {
			res, err := e.measure(w, seconds)
			if err == nil && res.failed > 0 {
				err = res.firstErr
			}
			if err != nil {
				fmt.Fprintf(e.log, "pdperf: selfcheck: %s run %d: %v\n", w.name, i+1, err)
				return 1
			}
			for name, v := range res.metrics {
				vals[key{w.name, name}] = append(vals[key{w.name, name}], v)
			}
			for name, v := range res.raw {
				raws[key{w.name, name}] = append(raws[key{w.name, name}], v)
			}
		}
	}
	sets := func(v []float64) (a, b []float64) {
		for i, x := range v {
			if i%2 == 0 {
				a = append(a, x)
			} else {
				b = append(b, x)
			}
		}
		return a, b
	}
	spread := func(v []float64) float64 { return (quantile(v, 1) - quantile(v, 0)) / median(v) }
	bad := 0
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %9s %7s %12s %12s\n", "workload", "metric", "set A median", "set B median", "A vs B", "bound", "spread", "raw spread")
	for _, w := range ws {
		for _, m := range endToEnd {
			k := key{w.name, m.Name}
			a, b := sets(vals[k])
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			raw := "-"
			if r, ok := raws[k]; ok {
				raw = fmt.Sprintf("%.2f%%", 100*spread(r))
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.5g %14.5g %8.2f%% %6.1f%% %11.2f%% %12s%s\n",
				w.name, m.Name, ma, mb, 100*diff, 100*m.Bound, 100*spread(vals[k]), raw, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(e.log, "pdperf: selfcheck: %d metric × workload pairs disagree beyond their bound\n", bad)
		return 1
	}
	return 0
}
