package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root carries the same table (a test keeps the two equal); the
// copy here is what the program prints from and what -selfcheck reads its
// bounds from.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the relative worsening that counts as a regression
	// (end-to-end metrics only; per-layer metrics are never gated).
	bound float64
}

// endToEnd lists the gated metrics: what an untraced run puts in its
// result line, for every workload. The memory metrics repeat within 1 %
// and carry issue 12's 3 %. The two simulated totals move only when the
// trajectory itself changes, which a host-only optimisation must never do.
// setup_s is the one host-time metric here: the driver's contract requires
// it and exempts its spread. It is reported at reference host speed
// (hostspeed.go), and carries the contract's largest bound because two sets
// of ten runs of the same code disagreed on it by up to 24 % as the clock
// read it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.03},
	{"state_heap_mb", "MB", "lower", 0.03},
	{"total_gflops", "GFLOP", "lower", 0.0001},
	{"total_wire_mb", "MB", "lower", 0.0001},
}

// hostTime lists the three throughput metrics of issue 12 that an untraced
// run also measures and prints, after the gated ones, but keeps out of its
// result line. On the reference box they spread by 4-17 % from run to run
// depending on the hour (README.md, "Noise"), which no bound up to the
// issue's 10 % survives, so by the issue's own rule they are demoted: not
// gated, and reported by the traced run as core.<name>. They stay in the
// untraced output because a claimed gain is shown with paired runs of
// exactly this protocol, tracing off.
var hostTime = []metricDef{
	{name: "updates_per_s", unit: "1/s", better: "higher"},
	{name: "step_ms_p50", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_update", unit: "ms", better: "lower"},
}

// perLayer lists the metrics a traced run prints, named <module>.<metric>
// after the module they are measured around. README.md records which
// end-to-end metric each is expected to move, and on which workload.
var perLayer = []metricDef{
	{name: "data.generate_ms", unit: "ms", better: "lower"},
	{name: "partition.partition_ms", unit: "ms", better: "lower"},
	{name: "core.newrunstate_ms", unit: "ms", better: "lower"},
	{name: "tensor.gemm_ms", unit: "ms", better: "lower"},
	{name: "tensor.gemm_gflops_per_s", unit: "GFLOP/s", better: "higher"},
	{name: "nn.forward_ms", unit: "ms", better: "lower"},
	{name: "nn.backward_ms", unit: "ms", better: "lower"},
	{name: "optim.step_us", unit: "us", better: "lower"},
	{name: "algos.transformgrad_us_p50", unit: "us", better: "lower"},
	{name: "algos.transformgrad_calls", unit: "count", better: "lower"},
	{name: "algos.transformgrad_ms_total", unit: "ms", better: "lower"},
	{name: "algos.beginround_ms_total", unit: "ms", better: "lower"},
	{name: "algos.endround_ms_total", unit: "ms", better: "lower"},
	{name: "core.localtrain_ms_p50", unit: "ms", better: "lower"},
	{name: "core.train_phase_ms_p50", unit: "ms", better: "lower"},
	{name: "core.merge_phase_ms_p50", unit: "ms", better: "lower"},
	{name: "core.post_phase_ms_p50", unit: "ms", better: "lower"},
	{name: "core.step_ms_p95", unit: "ms", better: "lower"},
	{name: "core.step_ms_max", unit: "ms", better: "lower"},
	{name: "core.cold_pass_ratio", unit: "ratio", better: "lower"},
	{name: "core.events_per_s", unit: "1/s", better: "higher"},
	{name: "core.participants", unit: "count", better: "higher"},
	{name: "core.dropped_updates", unit: "count", better: "lower"},
	{name: "core.rejected_updates", unit: "count", better: "lower"},
	{name: "core.mean_staleness", unit: "count", better: "lower"},
	{name: "core.sim_time_s", unit: "s", better: "lower"},
	{name: "core.final_acc", unit: "ratio", better: "higher"},
	{name: "core.state_bytes_per_participant", unit: "B", better: "lower"},
	{name: "core.evaluate_ms", unit: "ms", better: "lower"},
	{name: "core.snapshot_ms", unit: "ms", better: "lower"},
	{name: "core.resume_ms", unit: "ms", better: "lower"},
	{name: "core.snapshot_mb", unit: "MB", better: "lower"},
	{name: "comm.down_ms_total", unit: "ms", better: "lower"},
	{name: "comm.up_ms_total", unit: "ms", better: "lower"},
	{name: "comm.down_us_p50", unit: "us", better: "lower"},
	{name: "comm.up_us_p50", unit: "us", better: "lower"},
	{name: "comm.down_calls", unit: "count", better: "lower"},
	{name: "comm.up_calls", unit: "count", better: "lower"},
	{name: "comm.wire_bytes_per_update", unit: "B", better: "lower"},
	{name: "comm.compression_ratio", unit: "ratio", better: "higher"},
	{name: "quantize.topk_ms", unit: "ms", better: "lower"},
	{name: "quantize.q8_ms", unit: "ms", better: "lower"},
	{name: "parallel.scaling_2x", unit: "ratio", better: "higher"},
	{name: "flops.gflops_per_update", unit: "GFLOP", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_cpu_pct", unit: "%", better: "lower"},
	{name: "go.allocs_per_update", unit: "count", better: "lower"},
	{name: "go.alloc_kb_per_update", unit: "kB", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.pass_wall_iqr_pct", unit: "%", better: "lower"},
	{name: "core.updates_per_s", unit: "1/s", better: "higher"},
	{name: "core.step_ms_p50", unit: "ms", better: "lower"},
	{name: "core.cpu_ms_per_update", unit: "ms", better: "lower"},
}
