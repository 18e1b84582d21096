package main

// metric is one declared metric: BENCHMARK.json carries the same table, and
// the schema test holds the two together.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists the metrics a user of the system would see, the same eight
// on every workload, taken with tracing off. Bound is the share by which a
// metric may get worse before a change counts as a regression.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"norm_ops_per_s", "1/s", "higher", 0.25},
	{"norm_lat_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
	{"sim_cycles_geomean", "cycles", "lower", 0.001},
	{"sim_messages", "count", "lower", 0.001},
	{"ok_share", "share", "higher", 0.02},
}

// perLayer lists the traced run's metrics, named <module>.<metric>.
var perLayer = []metric{
	// The compiler, front to back.
	{Name: "lang.parse_us", Unit: "us", Better: "lower"},
	{Name: "lang.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "sem.check_us", Unit: "us", Better: "lower"},
	{Name: "sem.check_allocs", Unit: "count", Better: "lower"},
	{Name: "core.rtr_us", Unit: "us", Better: "lower"},
	{Name: "core.ctr_us", Unit: "us", Better: "lower"},
	{Name: "core.ctr_allocs", Unit: "count", Better: "lower"},
	{Name: "xform.apply_us", Unit: "us", Better: "lower"},
	{Name: "xform.apply_allocs", Unit: "count", Better: "lower"},
	{Name: "xform.passes_applied", Unit: "count", Better: "higher"},
	{Name: "spmd.ir_bytes", Unit: "bytes", Better: "lower"},
	{Name: "spmd.cgen_us", Unit: "us", Better: "lower"},
	// The interpreter and the simulated machine.
	{Name: "exec.spmd_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.spmd_allocs", Unit: "count", Better: "lower"},
	{Name: "exec.seq_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.ns_per_sim_cycle", Unit: "ns", Better: "lower"},
	{Name: "istruct.input_us", Unit: "us", Better: "lower"},
	{Name: "machine.ring_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "machine.ring_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "machine.mux_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "machine.wavefront_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "analysis.analyze_ms", Unit: "ms", Better: "lower"},
	// The decomposition search.
	{Name: "autotune.search_ms", Unit: "ms", Better: "lower"},
	{Name: "autotune.candidates", Unit: "count", Better: "lower"},
	{Name: "autotune.measured", Unit: "count", Better: "lower"},
	{Name: "autotune.profile_us", Unit: "us", Better: "lower"},
	{Name: "autotune.static_us", Unit: "us", Better: "lower"},
	{Name: "autotune.predict_us", Unit: "us", Better: "lower"},
	{Name: "autotune.measure_ms", Unit: "ms", Better: "lower"},
	{Name: "autotune.retarget_us", Unit: "us", Better: "lower"},
	// The service.
	{Name: "serve.http_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.worker_busy_share", Unit: "share", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.shed_count", Unit: "count", Better: "lower"},
	{Name: "serve.hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "serve.cache_put_count", Unit: "count", Better: "lower"},
	{Name: "serve.job_ack_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.job_done_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.journal_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.journal_appends_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.events_per_job", Unit: "count", Better: "lower"},
	{Name: "obs.scrape_us", Unit: "us", Better: "lower"},
	{Name: "obs.metrics_bytes", Unit: "bytes", Better: "lower"},
	// The open-loop generator and the throughput-vs-tail curve.
	{Name: "load.sent", Unit: "count", Better: "higher"},
	{Name: "load.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.lat_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "load.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.knee_rate_per_s", Unit: "1/s", Better: "higher"},
	// The run itself: uncorrected twins, the reference kernel, the runtime.
	{Name: "raw.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "raw.lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "ref.kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "ref.drift_share", Unit: "share", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.run_overhead_share", Unit: "share", Better: "lower"},
}
