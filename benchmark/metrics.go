package main

// BENCHMARK.json at the repository root lists every metric with its unit,
// direction and bound; the smoke test holds it against what a run prints. The
// six end-to-end metrics carry their units where endToEnd assembles them.

// layerUnits are the metrics of a traced run; the part of a name before the
// first dot is the layer (the module of the program, or yardstick/host/bench
// for numbers that describe the run and not the program).
var layerUnits = map[string]string{
	// set-up, by the module that does the work
	"matrix.mm_read_s":        "s",
	"core.sss_build_s":        "s",
	"core.kernel_build_s":     "s",
	"reorder.rcm_s":           "s",
	"reorder.bandwidth_ratio": "ratio",
	"color.build_s":           "s",
	"color.colors":            "count",
	"csx.encode_s":            "s",
	"csx.bytes_ratio":         "ratio",
	"csr.build_s":             "s",
	"partition.split_s":       "s",
	"partition.imbalance":     "ratio",
	// traffic of the pinned core kernel, computed from its data structures
	"core.mult_bytes":    "B",
	"core.red_bytes":     "B",
	"core.localvec_mb":   "MB",
	"core.flop_per_byte": "flop/B",
	// one product per kernel, the lower quartile of its samples, as measured (not adjusted by the yardstick)
	"core.naive.spmv_ms":     "ms",
	"core.effective.spmv_ms": "ms",
	"core.indexed.spmv_ms":   "ms",
	"core.colored.spmv_ms":   "ms",
	"core.indexed.spmv1_ms":  "ms",
	"core.par_speedup":       "ratio",
	"core.spmvdot_ms":        "ms",
	"core.spmm4_ms":          "ms",
	"core.spmm4_gain":        "ratio",
	"csr.spmv_ms":            "ms",
	"csr.spmv1_ms":           "ms",
	"csx.sym_spmv_ms":        "ms",
	"core.sym_speedup":       "ratio",
	// bandwidth yardsticks and the kernel's place under them
	"yardstick.triad_gbps": "GB/s",
	"core.achieved_gbps":   "GB/s",
	"core.roofline_frac":   "ratio",
	"stream.triad_gbps":    "GB/s",
	// pool and vector operations
	"parallel.run_us":     "us",
	"parallel.phases2_us": "us",
	"parallel.barrier_us": "us",
	"vec.dot_ms":          "ms",
	"vec.cgstep_ms":       "ms",
	"vec.multicgstep4_ms": "ms",
	"vec.gbps":            "GB/s",
	// the solver
	"cg.iters":      "count", // exact at a fixed seed, moves with the seeded matrix: not gated
	"cg.iter_ms":    "ms",
	"cg.spmv_share": "ratio",
	"cg.fused_gain": "ratio",
	"cg.alloc_mb":   "MB",
	// the autotuner, a diagnostic: the end-to-end metrics pin the format
	"autotune.tune_s":         "s",
	"autotune.trials":         "count",
	"autotune.pick_is_pinned": "count",
	"autotune.regret":         "ratio",
	"autotune.cache_hit_s":    "s",
	// the service
	"serve.load_s":            "s",
	"serve.spmv_req_ms":       "ms",
	"serve.solve_overhead_ms": "ms",
	"serve.decode_ms":         "ms",
	"serve.lanes_mean":        "ratio",
	"serve.req_p50_ms":        "ms",
	"serve.req_p90_ms":        "ms",
	"serve.rejected":          "count",
	// observability switched on
	"obs.sampling_overhead_rel": "ratio",
	// the run, not the program
	"host.steal_frac":         "ratio",
	"yardstick.contention":    "ratio",
	"yardstick.cpu_ms":        "ms",
	"bench.span_overhead_rel": "ratio",
}
