package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesCatalogue keeps them equal.
type metricDef struct{ name, unit string }

// endToEnd is measured with tracing off, the same five on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"alloc_mb_per_job", "MB"},
	{"rss_p50_mb", "MB"},
}

// perLayer comes from the traced run. A layer the workload leaves idle
// has no samples: its line reads "unmeasured" and its JSON value is 0.
var perLayer = []metricDef{
	{"job.tail_ms", "ms"},
	{"job.count", "count"},
	{"job.failed", "count"},
	{"job.cpu_ms", "ms"},

	{"core.new_ms_p50", "ms"},
	{"core.new_alloc_mb", "MB"},
	{"core.run_ms_p50", "ms"},
	{"core.result_ms_p50", "ms"},
	{"core.phase_dd_ms_p50", "ms"},
	{"core.phase_convert_ms_p50", "ms"},
	{"core.phase_fuse_ms_p50", "ms"},
	{"core.phase_dmav_ms_p50", "ms"},
	{"core.unaccounted_ms_p50", "ms"},
	{"core.converted_at_gate", "count"},
	{"core.fused_gates", "count"},

	{"dd.manager_new_ms_p50", "ms"},
	{"dd.build_gate_us_p50", "us"},
	{"ddsim.apply_us_p50", "us"},
	{"ddsim.busy_ms", "ms"},
	{"ddsim.gates", "count"},
	{"ddsim.peak_nodes", "count"},
	{"ewma.fired_at_gate", "count"},

	{"convert.busy_ms_p50", "ms"},
	{"convert.amps_per_s", "1/s"},
	{"convert.seq_ms_p50", "ms"},

	{"fusion.fuse_ms_p50", "ms"},
	{"fusion.gates_in", "count"},
	{"fusion.gates_out", "count"},

	{"dmav.apply_us_p50", "us"},
	{"dmav.busy_ms", "ms"},
	{"dmav.gates", "count"},
	{"dmav.cached_gates", "count"},
	{"dmav.macs_modeled", "count"},
	{"dmav.macs_per_s", "1/s"},
	{"dmav.computed_gb_per_s", "GB/s"},

	{"sched.batch_us_p50", "us"},
	{"sched.steals", "count"},
	{"sched.idle_ms", "ms"},

	{"statevec.run_ms", "ms"},
	{"qasm.parse_us_p50", "us"},
	{"circuit.hash_us_p50", "us"},

	{"serve.submit_ms_p50", "ms"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.fetch_ms_p50", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.result_bytes_p50", "B"},

	{"cluster.hop_ms_p50", "ms"},
	{"cluster.retries", "count"},

	{"host.calib_ms_p50", "ms"},
	{"host.factor", "ratio"},
	{"host.peak_rss_mb", "MB"},
	{"host.steal_pct", "%"},
	{"host.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.accounted_pct", "%"},
}
