// Command pdload is the driver for pdserve — its overload harness, its
// self-check and its adaptation experiment: it boots an in-process server,
// waits for /readyz, and by default drives thousands of concurrent
// mixed requests — synchronous endpoints, durable async jobs, NDJSON event
// streams, deadline-doomed requests, mid-flight disconnects, and injected
// panics — then reports latency percentiles and the robustness gates:
// zero hung operations, every acknowledged job terminal, and byte-identical
// bodies for equal request identities.
//
// Usage:
//
//	pdload                         # 5000 requests, 2000 clients, 2 seeded runs
//	pdload -requests 2000 -concurrency 500 -repeat 1
//	pdload -json BENCH_load.json   # also write the first run's report
//	pdload -metrics                # also gate on /metrics reconciling with ground truth
//	pdload -mix tame -concurrency 1 -metrics-compare
//	                               # racy ops remapped; counter values must
//	                               # reproduce exactly across the seeded runs
//	pdload -mix smoke -requests 60 -concurrency 8 -json BENCH_pdserve.json
//	                               # the service's self-check: every other
//	                               # evaluation panics and every response must
//	                               # still be a 200; a traced request must
//	                               # stitch and be found in /logz; /metrics
//	                               # must reconcile (-queue and
//	                               # -chaos-panic-every are fixed by the mix)
//	pdload -mix phase -json BENCH_adapt.json
//	                               # seeded workload-shift experiment: the
//	                               # adaptation loop must switch exactly once,
//	                               # beat the no-adapt control, and journal
//	                               # byte-identical decisions across runs
//
// With -repeat > 1 every run uses the same seed against a fresh server and
// the digests of later runs must match the first — the cross-run half of
// the determinism gate. The exit status is non-zero when any gate fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"procdecomp/internal/load"
	"procdecomp/internal/serve"
)

func main() {
	var (
		requests    = flag.Int("requests", 5000, "total operations per run")
		concurrency = flag.Int("concurrency", 2000, "concurrent client goroutines")
		seed        = flag.Uint64("seed", 1, "seed for the request mix, tenants, timeouts and disconnects")
		repeat      = flag.Int("repeat", 2, "seeded runs; later runs must reproduce the first run's bytes")
		queue       = flag.Int("queue", 64, "server admission queue depth")
		workers     = flag.Int("workers", 4, "server worker pool size")
		panicEvery  = flag.Int("chaos-panic-every", 13, "server chaos: every Nth evaluation panics once (0 = off)")
		degradeAt   = flag.Float64("degrade-at", 0.5, "server occupancy past which /search degrades")
		timeout     = flag.Duration("client-timeout", 60*time.Second, "per-operation hang bound")
		jsonOut     = flag.String("json", "", "write the first run's report to this file")
		mixFlag     = flag.String("mix", "chaos", "operation mix: chaos (disconnects + doomed deadlines), tame (reproducible outcome counters), smoke (self-check: all 200 through injected panics, trace and /logz round trip), or phase (workload-shift adaptation experiment)")
		metricsGate = flag.Bool("metrics", false, "fail the gate when the post-drain /metrics scrape does not reconcile with the server's ground truth")
		metricsCmp  = flag.Bool("metrics-compare", false, "with -repeat > 1: require later runs to scrape the same counter values as run 1 (needs -mix tame)")
	)
	flag.Parse()

	if *mixFlag == "phase" {
		runPhase(*seed, *jsonOut)
		return
	}
	if *metricsCmp && *mixFlag != "tame" {
		fatal(fmt.Errorf("-metrics-compare needs -mix tame: the chaos mix races disconnects and deadlines against the server, so its counters are not reproducible"))
	}

	cfg := load.Config{
		Requests: *requests, Concurrency: *concurrency, Seed: *seed,
		Mix:           *mixFlag,
		ClientTimeout: *timeout,
		Server: serve.Config{
			QueueDepth: *queue, Workers: *workers,
			PanicEvery: *panicEvery, DegradeAt: *degradeAt,
			AdmitSeed: *seed,
		},
	}

	var first *load.Report
	failed := false
	for run := 1; run <= *repeat; run++ {
		rep, err := load.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pdload: run %d/%d: %d ops in %dms  p50 %.1fms p99 %.1fms p999 %.1fms  hung %d  jobs %d/%d terminal  degraded %d  shed %d  doomed %d\n",
			run, *repeat, rep.Requests, rep.ElapsedMS,
			rep.Latency.P50, rep.Latency.P99, rep.Latency.P999,
			rep.Hung, rep.JobsTerminal, rep.JobsSubmitted,
			rep.Stats.Degraded, rep.Stats.Shed, rep.Stats.Doomed)
		if rep.Trace != nil {
			fmt.Printf("pdload: smoke: %d panics isolated, %d cache hits; traced request stitched %d wall spans with %d machine events and left %d log lines\n",
				rep.Stats.Panics, rep.Stats.Cache.Hits, rep.Trace.WallSpans, rep.Trace.MachineEvents, rep.Trace.LogLines)
		}
		if err := rep.Gate(*metricsGate); err != nil {
			fmt.Fprintln(os.Stderr, "pdload:", err)
			failed = true
		}
		if rep.MetricsCheck != "" && !*metricsGate {
			fmt.Fprintln(os.Stderr, "pdload: warning: metrics reconciliation:", rep.MetricsCheck)
		}
		if first == nil {
			first = rep
			if *jsonOut != "" {
				if err := load.WriteJSON(*jsonOut, rep); err != nil {
					fatal(err)
				}
			}
			continue
		}
		if bad := load.CompareDigests(first.Digests, rep.Digests); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "pdload: run %d bytes differ from run 1 for %d identities: %v\n", run, len(bad), bad)
			failed = true
		} else {
			fmt.Printf("pdload: run %d reproduced run 1 byte-for-byte on %d shared identities\n", run, shared(first.Digests, rep.Digests))
		}
		if *metricsCmp {
			if bad := load.CompareMetrics(first.Metrics, rep.Metrics); len(bad) > 0 {
				fmt.Fprintf(os.Stderr, "pdload: run %d scraped different counters from run 1 for %d samples: %v\n", run, len(bad), bad)
				failed = true
			} else {
				fmt.Printf("pdload: run %d scraped identical counter values to run 1 (%d samples compared)\n", run, len(first.Metrics))
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runPhase drives the phase-shift experiment: four in-process servers (two
// seeded adaptive runs, a no-adapt control, an unshifted control) prove that
// the adaptation loop triggers exactly once on a workload shift, beats the
// control's steady state, journals byte-identical decisions under a fixed
// seed, and stays silent when the workload never shifts.
func runPhase(seed uint64, jsonOut string) {
	rep, err := load.RunPhase(seed)
	if err != nil {
		fatal(err)
	}
	for _, run := range []*load.PhaseRun{&rep.Adaptive, &rep.Repeat, &rep.Control, &rep.Unshifted} {
		fmt.Printf("pdload: phase %-9s  %3d ops  triggers %d  switches %d  steady makespan %-6d mapping %q\n",
			run.Label, run.Requests, run.Triggers, run.Switches, run.SteadyMakespan, run.Mapping)
	}
	if rep.Control.SteadyMakespan > 0 {
		gain := 1 - float64(rep.Adaptive.SteadyMakespan)/float64(rep.Control.SteadyMakespan)
		fmt.Printf("pdload: phase steady-state gain over no-adapt control: %.1f%% (gate ≥ %.1f%%)\n",
			gain*100, rep.GainFrac*100)
	}
	if jsonOut != "" {
		if err := load.WriteJSON(jsonOut, rep); err != nil {
			fatal(err)
		}
	}
	if err := rep.Gate(); err != nil {
		fatal(err)
	}
	fmt.Println("pdload: phase gates passed: one switch per shifted run, byte-identical decisions across seeds, silent unshifted control")
}

func shared(a, b map[string]string) int {
	n := 0
	for k := range a {
		if _, ok := b[k]; ok {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdload:", err)
	os.Exit(1)
}
