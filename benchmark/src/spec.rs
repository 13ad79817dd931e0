//! The benchmark's declared surface: workload names and every metric
//! with its unit. `BENCHMARK.json` at the repository root declares the
//! same names (plus direction and bounds); `--check` fails when the two
//! or the emitted metrics disagree.

use std::path::PathBuf;

use crate::json::Json;

/// The six workloads, in run order.
pub const WORKLOADS: [&str; 6] =
    ["svc_warm", "svc_cold", "svc_churn", "fabric_loaded_64", "fabric_sparse_256", "collective_64"];

/// The workloads `BENCHMARK.json` declares, which a driver runs and
/// holds to the bounds: the single-threaded ones, whose host-time numbers
/// a shared two-core host lets repeat. The other three run from this
/// program's own command line only (README, "Workloads the driver does
/// not run").
pub const DRIVEN: [&str; 3] = ["svc_warm", "svc_cold", "fabric_loaded_64"];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default of `--seconds`): as long as the driver's time limit for all
/// its runs allows with a margin, because the host is slow for tens of
/// seconds at a time and a run has to outlast that to see it quiet.
pub const RUN_SECONDS: f64 = 36.0;

/// End-to-end metrics `(name, unit)`: what `--trace 0` prints, for
/// every workload. What each means per workload is in the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_us", "us"),
    ("model_cost", "steps"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`: what `--trace 1` prints, for every
/// workload. Three sources (README, "Per-layer metrics"):
///
/// * set-up spans of the workload's own networks,
/// * the workload's traced run (counts, shares and ratios; `0` when the
///   workload does not exercise the layer),
/// * the fixed layer probes on the seeded reference networks.
pub const PER_LAYER: &[(&str, &str)] = &[
    // --- set-up spans (workload's own networks, median over instances)
    ("mesh.fault_draw_ms", "ms"),
    ("fault.mcc_build_ms", "ms"),
    ("fault.blocks_build_ms", "ms"),
    ("fault.mcc_count", "count"),
    ("info.bounds_build_ms", "ms"),
    ("info.model_build_ms.b1", "ms"),
    ("info.model_build_ms.b2", "ms"),
    ("info.model_build_ms.b3", "ms"),
    ("info.build_share_pct", "%"),
    ("info.involved_pct.b2", "%"),
    ("route.net_build_ms", "ms"),
    ("route.net_build_self_ms", "ms"),
    // --- the workload's traced run
    ("share_pct.mesh", "%"),
    ("share_pct.fault", "%"),
    ("share_pct.info", "%"),
    ("share_pct.route", "%"),
    ("share_pct.meshpath", "%"),
    ("share_pct.traffic", "%"),
    ("share_pct.workload", "%"),
    ("share_pct.harness", "%"),
    ("share_pct.unattributed", "%"),
    ("obs.traced_throughput_per_s", "1/s"),
    ("tail.hi_over_p50", "ratio"),
    ("tail.hi_pct", "%"),
    ("tail.samples", "count"),
    ("meshpath.cache_hit_pct", "%"),
    ("meshpath.reader_hi_over_p50", "ratio"),
    ("meshpath.update_late_pct", "%"),
    ("meshpath.updates_incremental_pct", "%"),
    ("traffic.path_misses", "count"),
    ("traffic.compile_share_pct", "%"),
    ("traffic.escape_pct", "%"),
    ("traffic.barriers", "count"),
    ("traffic.stall_p99_cycles", "cycles"),
    ("traffic.plan_share_pct", "%"),
    ("traffic.boundary_share_pct", "%"),
    ("traffic.commit_share_pct", "%"),
    ("traffic.shard_speedup_t2", "ratio"),
    ("traffic.sim_cycles", "cycles"),
    ("traffic.sim_p50_cycles", "cycles"),
    ("traffic.sim_p99_cycles", "cycles"),
    ("traffic.delivered_pct", "%"),
    ("workload.makespan_cycles", "cycles"),
    ("workload.flow_p99_cycles", "cycles"),
    ("workload.phase_cycles_mean", "cycles"),
    ("workload.flows_aborted", "count"),
    // --- fixed layer probes (reference networks drawn from the seed)
    ("fault.relabel_us", "us"),
    ("route.update_add_ms", "ms"),
    ("route.update_remove_ms", "ms"),
    ("route.update_incremental_pct", "%"),
    ("route.update_vs_build", "ratio"),
    ("route.cold_us.xy", "us"),
    ("route.cold_us.ecube", "us"),
    ("route.cold_us.rb1", "us"),
    ("route.cold_us.rb2", "us"),
    ("route.cold_us.rb3", "us"),
    ("route.cold_us.rb2_dense", "us"),
    ("route.ns_per_hop.rb2", "ns"),
    ("route.oracle_bfs_us", "us"),
    ("route.shortest_pct.rb1", "%"),
    ("route.shortest_pct.rb2", "%"),
    ("route.shortest_pct.rb3", "%"),
    ("route.delivered_pct.rb2", "%"),
    ("route.net_build_256_ms", "ms"),
    ("meshpath.hit_ns", "ns"),
    ("meshpath.miss_us", "us"),
    ("meshpath.miss_overhead_us", "us"),
    ("meshpath.rewarm_ms", "ms"),
    ("meshpath.publish_overhead_ms", "ms"),
    ("meshpath.route_many_qps", "1/s"),
    ("meshpath.read_scaling_t2", "ratio"),
    ("traffic.path_compile_us", "us"),
    ("traffic.path_hit_ns", "ns"),
    ("traffic.forest_build_ms", "ms"),
    ("traffic.ns_per_flit_hop", "ns"),
    ("traffic.empty_cycle_us.64", "us"),
    ("traffic.empty_cycle_us.256", "us"),
    ("traffic.ns_per_node_cycle.256", "ns"),
    ("traffic.rb2_xy_p99_ratio", "ratio"),
    ("workload.build_ms", "ms"),
    ("workload.lockstep_ratio", "ratio"),
    ("obs.metrics_overhead_pct", "%"),
    ("obs.service_metrics_overhead_pct", "%"),
    ("analysis.trace_write_mb_s", "MB/s"),
    ("analysis.trace_read_mb_s", "MB/s"),
    ("analysis.sweep_overhead_pct", "%"),
];

/// The benchmark package's own directory (`benchmark/`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where result documents and span files go (`benchmark/out/`, ignored
/// by git).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Reads `BENCHMARK.json` from the repository root.
pub fn read_benchmark_json() -> Result<Json, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))
}

/// The names of one metric list (`end_to_end`, `per_layer`, `workloads`)
/// of `BENCHMARK.json`, in file order.
pub fn declared_names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
pub fn declared_bound(doc: &Json, metric: &str) -> Option<f64> {
    doc.get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}
