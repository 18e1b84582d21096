// Command pdserve runs the toolchain as a long-lived HTTP service: POST
// /compile, /run, /search, /trace with the same semantics as the pdc, pdrun,
// pdmap and pdtrace commands, plus the robustness a shared service needs —
// a bounded admission queue with adaptive load shedding, per-request
// deadlines, panic-isolated workers with retries, graceful drain on SIGTERM,
// and a crash-safe persistent result cache.
//
// Beyond the synchronous endpoints, POST /jobs accepts durable async jobs
// (journaled before the 202, re-run after a crash), GET /jobs/<id> serves a
// job's result, GET /jobs/<id>/events streams its NDJSON progress, and
// /healthz and /readyz report liveness and readiness.
//
// Observability: GET /metrics serves the full counter/gauge/histogram
// catalog in Prometheus text exposition; every request carries a request ID
// (adopted from X-Request-Id or minted, always echoed back) that tags its
// structured log lines (GET /logz?req=<id>), its job events, and its trace;
// ?trace=1 on a synchronous request — or on POST /jobs, read back via GET
// /jobs/<id>/trace — returns a Chrome trace stitching the service's
// wall-clock spans with the machine's virtual-time spans.
//
// With -adapt the server watches completed /run traffic per scenario, and
// when the workload shifts (new problem size dominating the profile) it runs
// a bounded autotune search in the background and hot-swaps the winning
// mapping for subsequent requests — every decision journaled so a restart
// resumes the preference. GET /adapt reports the controller's state, GET
// /adapt/journal streams its decisions, and adapted responses carry an
// X-Adapt-Mapping header naming the active mapping.
//
// Usage:
//
//	pdserve -addr :8420 -cache /var/cache/pdserve
//	pdserve -addr :8420 -cache /var/cache/pdserve -adapt -cache-max-bytes 1073741824
//	pdserve -debug-addr 127.0.0.1:8421   # net/http/pprof, on its own listener
//
// Every response is a deterministic function of the request body; identical
// requests are answered with identical bytes, before or after a restart.
// The self-check that holds a live server to that — concurrent load through
// injected panics, a traced request followed through /logz, the post-drain
// /metrics scrape reconciled with ground truth — is pdload -mix smoke.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"procdecomp/internal/adapt"
	"procdecomp/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8420", "listen address")
		queue      = flag.Int("queue", 64, "admission queue depth (beyond it, requests are shed with 429)")
		workers    = flag.Int("workers", 4, "evaluation worker pool size")
		deadline   = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDL      = flag.Duration("max-deadline", 2*time.Minute, "largest deadline a request may ask for")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		cacheDir   = flag.String("cache", "", "persistent result cache + job journal directory (empty = neither)")
		cacheMax   = flag.Int64("cache-max-bytes", 0, "disk cache size cap in bytes; least-recently-used entries evict past it (0 = unbounded)")
		compactEv  = flag.Int("journal-compact-every", 4096, "fold the job and adapt journals after this many appended records (negative = only on open)")
		adaptOn    = flag.Bool("adapt", false, "watch /run traffic per scenario and re-decompose in the background when the workload shifts (needs -cache for durable decisions)")
		adaptObs   = flag.Int("adapt-min-obs", 16, "observations a scenario needs before a shift may trigger")
		adaptDwell = flag.Int("adapt-dwell", 8, "consecutive shifted observations required before a search triggers")
		adaptCool  = flag.Int("adapt-cooldown", 64, "observations a scenario stays quiet after a trigger")
		adaptGain  = flag.Float64("adapt-min-gain", 0.05, "relative measured improvement required before a mapping is swapped in")
		retries    = flag.Int("retries", 2, "retries for a panicking evaluation before the request fails")
		fairAt     = flag.Float64("fair-share-at", 0.5, "queue occupancy at which per-tenant fair-share caps engage (>=1 disables)")
		degradeAt  = flag.Float64("degrade-at", 0.75, "smoothed occupancy past which /search degrades to a bounded budget (>=1 disables)")
		degKeep    = flag.Int("degrade-keep", 4, "degraded /search candidate budget")
		panicEvery = flag.Int("chaos-panic-every", 0, "chaos: every Nth evaluation panics once (0 = off)")
		debugAddr  = flag.String("debug-addr", "", "also serve net/http/pprof on this address (kept off the public listener)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON on stderr (default: human-readable text)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}

	cfg := serve.Config{
		QueueDepth: *queue, Workers: *workers,
		DefaultDeadline: *deadline, MaxDeadline: *maxDL, DrainTimeout: *drain,
		Retries: *retries, CacheDir: *cacheDir, PanicEvery: *panicEvery,
		CacheMaxBytes: *cacheMax, JournalCompactEvery: *compactEv,
		FairShareAt: *fairAt, DegradeAt: *degradeAt, DegradeKeep: *degKeep,
		LogHandler: handler,
		Adapt: adapt.Config{
			Enabled: *adaptOn, MinObs: *adaptObs, Dwell: *adaptDwell,
			Cooldown: *adaptCool, MinGain: *adaptGain,
		},
	}

	// The profiler is opt-in and always on its own listener: exposing pprof
	// on the public address would hand every client heap and goroutine dumps.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pdserve: debug listener (pprof) on %s\n", dln.Addr())
		go http.Serve(dln, dmux)
	}

	s, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	fmt.Printf("pdserve: listening on %s (queue %d, workers %d, cache %q)\n",
		ln.Addr(), *queue, *workers, *cacheDir)

	// SIGTERM/SIGINT: stop accepting, drain in-flight work up to the drain
	// budget, cancel stragglers, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("pdserve: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	// Drain the server first: every job reaches a terminal state and every
	// open event stream receives its terminal NDJSON event while the
	// listener is still up. Only then close the listener — the other order
	// would cut live streams off mid-job.
	if err := s.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pdserve:", err)
	}
	hs.Shutdown(shutCtx)
	st := s.Stats()
	fmt.Printf("pdserve: done: %d completed, %d failed, %d shed, %d panics isolated\n",
		st.Completed, st.Failed, st.Shed, st.Panics)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdserve:", err)
	os.Exit(1)
}
