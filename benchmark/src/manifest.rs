//! The names this benchmark is held to: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `../BENCHMARK.json` states the
//! same; the test at the bottom keeps the two identical.

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "compile-cold",
        "15 zoo models x 7 presets compiled from memory, no cache: the cg DP does the work, cache, wire and engine none",
    ),
    (
        "reuse-disk",
        "a project iteration on a filled disk cache: JSON model load, three warm passes, five cold sessions with 50 one-layer recompiles",
    ),
    (
        "serve-closed",
        "run_tcp with two closed-loop clients mixing small warm compiles, big flow responses and pings: wire, queue, pool, render, socket",
    ),
    (
        "traffic-sim",
        "a steady and an overloaded 40k-request trace replayed under fifo, priority and edf: the engine's queue handling, pricing warm",
    ),
];

/// `(name, unit, better, bound)`: the same five on every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.15),
    ("peak_heap_mb", "MB", "lower", 0.03),
    ("model_mcycles", "Mcycle", "lower", 1e-9),
];

/// `(name, unit, better)`. Every traced run prints all of them.
pub const PER_LAYER: [(&str, &str, &str); 76] = [
    // cim-graph
    ("graph.zoo_build_us", "us", "lower"),
    ("graph.json_parse_mb_per_s", "MB/s", "higher"),
    ("graph.json_parse_small_mb_per_s", "MB/s", "higher"),
    ("graph.json_parse_large_mb_per_s", "MB/s", "higher"),
    ("graph.json_write_mb_per_s", "MB/s", "higher"),
    ("graph.json_bytes", "B", "lower"),
    ("graph.delta_apply_us", "us", "lower"),
    // cim-arch
    ("arch.preset_build_us", "us", "lower"),
    // cim-compiler passes
    ("compiler.stages_ms", "ms", "lower"),
    ("compiler.cg_ms", "ms", "lower"),
    ("compiler.mvm_ms", "ms", "lower"),
    ("compiler.vvm_ms", "ms", "lower"),
    ("compiler.finish_ms", "ms", "lower"),
    ("compiler.cg_share", "ratio", "lower"),
    ("compiler.case_gmean_ms", "ms", "lower"),
    ("compiler.case_max_ms", "ms", "lower"),
    ("compiler.case_top2_share", "ratio", "lower"),
    ("compiler.stages_count", "count", "lower"),
    ("compiler.segments_count", "count", "lower"),
    ("compiler.scratch_peak_kb", "KB", "lower"),
    ("compiler.allocs_per_compile", "count", "lower"),
    // cim-compiler::cache
    ("cache.fingerprint_us", "us", "lower"),
    ("cache.fill_ms", "ms", "lower"),
    ("cache.warm_ms", "ms", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.disk_bytes", "B", "lower"),
    ("cache.disk_files", "count", "lower"),
    ("cache.decode_mb_per_s", "MB/s", "higher"),
    // cim-compiler::region
    ("region.cold_ms", "ms", "lower"),
    ("region.recompile_p50_ms", "ms", "lower"),
    ("region.edit_vs_cold_ratio", "ratio", "lower"),
    ("region.hits", "count", "higher"),
    ("region.misses", "count", "lower"),
    // api
    ("api.parse_us", "us", "lower"),
    ("api.handle_warm_us", "us", "lower"),
    ("api.render_us", "us", "lower"),
    ("api.request_bytes", "B", "lower"),
    ("api.response_small_bytes", "B", "lower"),
    ("api.response_big_bytes", "B", "lower"),
    // serve
    ("serve.rtt_p50_ms", "ms", "lower"),
    ("serve.rtt_tail_ms", "ms", "lower"),
    ("serve.rtt_tail_pct", "%", "higher"),
    ("serve.samples", "count", "higher"),
    ("serve.small_rtt_p50_ms", "ms", "lower"),
    ("serve.big_rtt_p50_ms", "ms", "lower"),
    ("serve.server_elapsed_p50_ms", "ms", "lower"),
    ("serve.transport_p50_ms", "ms", "lower"),
    ("serve.ok", "count", "higher"),
    ("serve.errors", "count", "lower"),
    ("serve.overloaded", "count", "lower"),
    ("serve.protocol_errors", "count", "lower"),
    // cim-traffic
    ("traffic.gen_req_per_s", "1/s", "higher"),
    ("traffic.price_ms", "ms", "lower"),
    ("traffic.steady.fifo_ms", "ms", "lower"),
    ("traffic.steady.priority_ms", "ms", "lower"),
    ("traffic.steady.edf_ms", "ms", "lower"),
    ("traffic.overload.fifo_ms", "ms", "lower"),
    ("traffic.overload.priority_ms", "ms", "lower"),
    ("traffic.overload.edf_ms", "ms", "lower"),
    ("traffic.requests", "count", "higher"),
    ("traffic.dropped", "count", "lower"),
    ("traffic.max_queue_depth", "count", "lower"),
    // cim-sim / cim-mop
    ("sim.codegen_mops_per_s", "1/s", "higher"),
    ("mop.validate_mops_per_s", "1/s", "higher"),
    ("sim.execute_mops_per_s", "1/s", "higher"),
    ("sim.reference_ms", "ms", "lower"),
    ("sim.cases", "count", "higher"),
    ("sim.cases_equal", "count", "higher"),
    // cim-obs
    ("obs.enabled_overhead_pct", "%", "lower"),
    // harness / host
    ("host.nproc", "count", "higher"),
    ("host.ref_ms", "ms", "lower"),
    ("harness.rounds", "count", "higher"),
    ("harness.measured_s", "s", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
];

/// How long one run measures, `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;
