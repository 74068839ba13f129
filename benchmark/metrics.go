package main

// The metric tables below are the benchmark's vocabulary. BENCHMARK.json at
// the root of the repository lists the same names, units and directions
// (plus the regression bounds); TestMetricTablesMatchBenchmarkJSON fails
// when the two drift apart, so a renamed metric cannot silently vanish from
// later comparisons.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, which is why workload-specific figures (job latency, cells
// per second) live in perLayer under the layer that owns them. Peak
// resident memory is not here either: over three ten-seed batches VmHWM
// repeated to 1-10 % on four workloads and to 9-76 % on figures_warm and
// server_closed, so it cannot carry a bound and is mem.peak_rss_mb below.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"host_ns_per_cycle", "ns", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is reported by a traced run (-trace 1). A metric that does not
// apply to a workload reads 0 there: connector.sent on a one-core
// workload, server.* outside server_closed.
var perLayer = []metricDef{
	// sim: the kernel. *_s are host seconds from profile.KernelProf.
	{"sim.cycles", "count", "lower"},
	{"sim.ticked_cycles", "count", "lower"},
	{"sim.ff_cycles", "count", "higher"},
	{"sim.ff_jumps", "count", "higher"},
	{"sim.ff_cycle_frac", "ratio", "higher"},
	{"sim.produce_s", "s", "lower"},
	{"sim.commit_s", "s", "lower"},
	{"sim.ff_s", "s", "lower"},
	{"sim.other_s", "s", "lower"},
	{"sim.barrier_wait_s", "s", "lower"},
	// core
	{"core.uops", "count", "lower"},
	{"core.committed", "count", "lower"},
	{"core.ipc", "ratio", "higher"},
	{"core.mispredict_ratio", "ratio", "lower"},
	{"core.cv_traps", "count", "lower"},
	{"core.ns_per_uop", "ns", "lower"},
	{"core.slot_frac.retired", "ratio", "higher"},
	{"core.slot_frac.frontend", "ratio", "lower"},
	{"core.slot_frac.trap", "ratio", "lower"},
	{"core.slot_frac.backend", "ratio", "lower"},
	{"core.slot_frac.backend_mem", "ratio", "lower"},
	{"core.slot_frac.idle", "ratio", "lower"},
	// queue
	{"queue.enqueues", "count", "lower"},
	{"queue.dequeues", "count", "lower"},
	{"queue.mean_mapped_regs", "count", "lower"},
	{"queue.peak_mapped_regs", "count", "lower"},
	{"queue.full_slot_frac", "ratio", "lower"},
	{"queue.empty_slot_frac", "ratio", "lower"},
	{"queue.op_ns", "ns", "lower"},
	// ra
	{"ra.mean_occupancy", "count", "higher"},
	{"ra.peak_occupancy", "count", "higher"},
	// connector
	{"connector.sent", "count", "lower"},
	{"connector.cvs_sent", "count", "lower"},
	{"connector.credit_stall_cycles", "count", "lower"},
	// cache
	{"cache.l1_hits", "count", "higher"},
	{"cache.l2_hits", "count", "higher"},
	{"cache.l3_hits", "count", "higher"},
	{"cache.dram_accesses", "count", "lower"},
	{"cache.prefetches", "count", "lower"},
	{"cache.writebacks", "count", "lower"},
	{"cache.dram_mpki", "ratio", "lower"},
	{"cache.access_ns_hit", "ns", "lower"},
	{"cache.access_ns_miss", "ns", "lower"},
	// mem
	{"mem.peak_rss_mb", "MB", "lower"},
	{"mem.footprint_mb", "MB", "lower"},
	{"mem.rw_ns", "ns", "lower"},
	// isa
	{"isa.static_insts", "count", "lower"},
	{"isa.fused_pair_ratio", "ratio", "higher"},
	{"isa.predecode_ns_per_inst", "ns", "lower"},
	// bench and its input generators
	{"graph.generate_s", "s", "lower"},
	{"sparse.generate_s", "s", "lower"},
	{"btree.build_s", "s", "lower"},
	{"bench.build_s", "s", "lower"},
	{"bench.check_s", "s", "lower"},
	{"bench.first_rep_wall_s", "s", "lower"},
	// checkpoint
	{"checkpoint.save_ms", "ms", "lower"},
	{"checkpoint.restore_ms", "ms", "lower"},
	{"checkpoint.snapshot_kb", "kB", "lower"},
	{"checkpoint.statehash_ms", "ms", "lower"},
	// harness
	{"harness.cells", "count", "lower"},
	{"harness.cells_computed", "count", "lower"},
	{"harness.cache_hit_ratio", "ratio", "higher"},
	{"harness.sim_cycles", "count", "lower"},
	{"harness.cells_per_s", "1/s", "higher"},
	{"harness.cell_wall_sum_s", "s", "lower"},
	{"harness.slowest_cell_s", "s", "lower"},
	{"harness.worker_util", "ratio", "higher"},
	{"harness.matrix_enum_ms", "ms", "lower"},
	{"harness.cache_probe_us", "us", "lower"},
	{"harness.runcell_hit_ms", "ms", "lower"},
	{"harness.warm_sweep_s", "s", "lower"},
	{"harness.cached_figs_s", "s", "lower"},
	{"harness.fig14_s", "s", "lower"},
	{"harness.fig15_s", "s", "lower"},
	{"harness.profile_exp_s", "s", "lower"},
	// server
	{"server.jobs_per_s", "1/s", "higher"},
	{"server.job_latency_p50_ms", "ms", "lower"},
	{"server.job_latency_p95_ms", "ms", "lower"},
	{"server.submit_rtt_p50_ms", "ms", "lower"},
	{"server.submit_rtt_p95_ms", "ms", "lower"},
	{"server.done_wait_p50_ms", "ms", "lower"},
	{"server.done_wait_p95_ms", "ms", "lower"},
	{"server.result_rtt_p50_ms", "ms", "lower"},
	{"server.computed", "count", "lower"},
	{"server.dedup_hits", "count", "higher"},
	{"server.cache_hits", "count", "higher"},
	{"server.dedup_ratio", "ratio", "higher"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.queue_depth_max", "count", "lower"},
	// profile/telemetry: what tracing itself costs
	{"trace.overhead_frac", "ratio", "lower"},
	// model: an exact count, not a gate (see README)
	{"model.speedup_over_serial", "ratio", "higher"},
}
