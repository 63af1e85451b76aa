package main

// metricDef names one reported metric and its unit. For an end-to-end metric
// bound is how far the median may worsen, as a share of the parent's median,
// before a change counts as a regression, and higher says which way is
// better. BENCHMARK.json lists the same names, units and bounds;
// TestBenchmarkJSONMatches holds the two together.
type metricDef struct {
	name, unit string
	bound      float64
	higher     bool
}

var endToEnd = []metricDef{
	// Timings are restated at the host's reference speed (atRefSpeed), which
	// takes out the host's changes of speed to within about a tenth: what is
	// left depends on how the run's blocks fell over the host's speeds, and
	// identical runs differ by 1–12%. The bounds are a quarter, the most the
	// driver allows and twice the widest spread seen (NOISE.md).
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_ms", unit: "ms", bound: 0.25},
	{name: "items_per_s", unit: "1/s", bound: 0.25, higher: true},
	{name: "alloc_mb_per_op", unit: "MB", bound: 0.03},
	{name: "accuracy_pct", unit: "%", bound: 0.001, higher: true},
}

// perLayer is every metric of the traced run. A workload reports 0 for a
// layer it does not exercise (no k-means runs while serving), so that every
// name is present on every workload.
var perLayer = []metricDef{
	{name: "load.op_min_ms", unit: "ms"},
	{name: "load.op_p10_ms", unit: "ms"},
	{name: "load.op_p50_ms", unit: "ms"},
	{name: "load.op_p95_ms", unit: "ms"},
	{name: "load.op_max_ms", unit: "ms"},
	{name: "load.cpu_ms_per_op", unit: "ms"},
	{name: "load.items_per_s_mean", unit: "1/s"},
	{name: "load.ops", unit: "count"},
	{name: "load.ops_failed", unit: "count"},
	{name: "host.calib_p10_ms", unit: "ms"},
	{name: "host.calib_p50_over_p10", unit: "ratio"},
	{name: "data.generate_ms", unit: "ms"},
	{name: "data.libsvm_load_mb_s", unit: "MB/s"},
	{name: "kmeans.run_ms", unit: "ms"},
	{name: "kmeans.iters", unit: "count"},
	{name: "partition.fcfs_ms", unit: "ms"},
	{name: "partition.materialize_ms", unit: "ms"},
	{name: "smo.solve_ms", unit: "ms"},
	{name: "smo.iters", unit: "count"},
	{name: "smo.us_per_iter", unit: "us"},
	{name: "smo.flops", unit: "count"},
	{name: "smo.ckpt_encode_us", unit: "us"},
	{name: "smo.ckpt_bytes", unit: "B"},
	{name: "kernel.row_fill_us", unit: "us"},
	{name: "kernel.row_hit_ns", unit: "ns"},
	{name: "kernel.prefetch_pair_us", unit: "us"},
	{name: "kernel.cross_tile_ns_per_elem", unit: "ns"},
	{name: "la.dot_ns_per_flop", unit: "ns"},
	{name: "la.spdot_ns_per_nnz", unit: "ns"},
	{name: "la.multile_ns_per_flop", unit: "ns"},
	{name: "core.train_ms", unit: "ms"},
	{name: "core.unattributed_pct", unit: "%"},
	{name: "core.virt_makespan_ms", unit: "ms"},
	{name: "core.virt_init_ms", unit: "ms"},
	{name: "core.comm_bytes", unit: "B"},
	{name: "core.comm_msgs", unit: "count"},
	{name: "core.svs", unit: "count"},
	{name: "core.run_shard_ms", unit: "ms"},
	{name: "mpi.world_spawn_us", unit: "us"},
	{name: "mpi.allreduce_us", unit: "us"},
	{name: "mpi.bcast_us", unit: "us"},
	{name: "mpi.share_pct", unit: "%"},
	{name: "tcpmpi.mesh_dial_ms", unit: "ms"},
	{name: "tcpmpi.pingpong_us", unit: "us"},
	{name: "tcpmpi.bandwidth_mb_s", unit: "MB/s"},
	{name: "tcpmpi.allreduce_us", unit: "us"},
	{name: "cluster.register_ms", unit: "ms"},
	{name: "cluster.submit_to_result_ms", unit: "ms"},
	{name: "cluster.protocol_ms", unit: "ms"},
	{name: "cluster.generations", unit: "count"},
	{name: "fleet.overhead_pct", unit: "%"},
	{name: "compress.set_ms", unit: "ms"},
	{name: "compress.sv_ratio", unit: "ratio"},
	{name: "model.predict_all_us_per_query", unit: "us"},
	{name: "model.from_solution_us", unit: "us"},
	{name: "serve.decode_us", unit: "us"},
	{name: "serve.batcher_us", unit: "us"},
	{name: "serve.http_self_us", unit: "us"},
	{name: "serve.batch_size_mean", unit: "count"},
	{name: "serve.flush_timer_pct", unit: "%"},
	{name: "serve.batches_per_request", unit: "ratio"},
	{name: "pool.solve_speedup_2p", unit: "ratio"},
	{name: "pool.predict_all_speedup_2p", unit: "ratio"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}
