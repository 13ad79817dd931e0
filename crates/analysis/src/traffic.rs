//! Traffic load sweeps: latency-vs-injection-rate curves per routing
//! function and fault density.
//!
//! This is the macro-level benchmark of the workspace: where the Fig. 5
//! harness measures per-packet routing quality, the load sweep measures
//! what those routing decisions cost a *network under contention* —
//! mean/p95 latency, accepted throughput and saturation onset, per
//! router, per fault density, per injection rate.

use meshpath_mesh::{FaultInjection, FaultSet, Mesh};
use meshpath_obs::Phase;
use meshpath_route::{NetView, RoutingKind};
use meshpath_traffic::{
    DrainStallObserver, LatencyHistogram, ObsReport, PathTable, SimConfig, TraceEntry, TrafficSim,
    TrafficStats, WindowObserver, WorkloadOutcome,
};
use meshpath_workload::WorkloadSpec;

use crate::jsonl::{document_with, JsonObject};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

use crate::sweep::{derive_seed, pool_map};
use crate::table::{f1, f3, Table};

/// Parameters of one load sweep.
#[derive(Clone, Debug)]
pub struct LoadSweepConfig {
    /// Mesh side length.
    pub mesh: u32,
    /// Fault counts to evaluate (each gets one seeded configuration).
    pub fault_counts: Vec<usize>,
    /// Injection rates (packets/node/cycle) to evaluate.
    pub rates: Vec<f64>,
    /// Routing functions to drive.
    pub routers: Vec<RoutingKind>,
    /// Simulator template; `rate` and `seed` are overridden per point.
    /// Its [`threads`](SimConfig::threads) knob shards each *single*
    /// simulation across worker threads (bit-identical results; the
    /// right tool for a few large-mesh points) — distinct from the
    /// sweep-level [`threads`](LoadSweepConfig::threads) pool below,
    /// which parallelizes across *points*. Multiplying the two
    /// oversubscribes the machine; prefer the pool for many small
    /// points and `sim.threads` for few large ones.
    pub sim: SimConfig,
    /// Base seed for fault placement and traffic streams.
    pub seed: u64,
    /// Sweep-level worker threads, one simulation per task
    /// (0 = all available cores).
    pub threads: usize,
    /// Fault placement model.
    pub injection: FaultInjection,
    /// Rate-ladder early exit: once a `(router, faults)` ladder
    /// saturates or deadlocks at some rate, every *higher* rate is
    /// marked `saturated` without simulating (offered load only grows,
    /// so the verdict is monotone), and a saturated run's drain is cut
    /// short once it has visibly wedged (see
    /// [`DrainStallObserver`]). Post-saturation points then carry the
    /// verdict but not full statistics (`simulated = false`, or a
    /// truncated drain) — disable when the exact shape of the
    /// post-saturation curve matters, as `examples/traffic_saturation`
    /// does.
    pub early_exit: bool,
    /// Scheduled workload replacing the synthetic injection process:
    /// trace replay, a flow DAG, or barrier-synchronised collective
    /// rounds. Every grid point runs the same spec (rebuilt per point
    /// against that point's fault configuration), and workload points
    /// carry `flow_p50`/`flow_p99`/`phase_cycles` in the `--json` rows.
    /// `rate` is ignored by workload runs, so sweep a single rate.
    pub workload: Option<WorkloadSpec>,
}

impl Default for LoadSweepConfig {
    fn default() -> Self {
        LoadSweepConfig {
            mesh: 16,
            fault_counts: vec![0, 8, 25],
            rates: vec![0.002, 0.005, 0.01, 0.02, 0.05],
            routers: RoutingKind::ALL.to_vec(),
            sim: SimConfig::default(),
            seed: 0x6e6f_6321, // "noc!"
            threads: 0,
            injection: FaultInjection::Uniform,
            early_exit: true,
            workload: None,
        }
    }
}

impl LoadSweepConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        LoadSweepConfig {
            mesh: 8,
            fault_counts: vec![0, 3],
            rates: vec![0.005, 0.02],
            routers: vec![RoutingKind::Xy, RoutingKind::Rb2],
            sim: SimConfig::smoke(),
            ..Default::default()
        }
    }
}

/// One measured `(router, fault count, rate)` grid point.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// The routing function driven.
    pub router: RoutingKind,
    /// Faults injected into the configuration.
    pub faults: usize,
    /// Offered injection rate (packets/node/cycle).
    pub rate: f64,
    /// Full simulator statistics.
    pub stats: TrafficStats,
    /// Whether this point was actually simulated. `false` for
    /// rate-ladder early exits: a lower rate on the same `(router,
    /// faults)` ladder already saturated or deadlocked, so this point
    /// carries a synthesized `saturated` verdict and zeroed counters.
    pub simulated: bool,
    /// Wall-clock spent simulating this point, in milliseconds (0 for
    /// early-exited points) — the per-point perf trajectory recorded
    /// in `BENCH_traffic.json`.
    pub sim_wall_ms: f64,
    /// The merged observability report, present when the sweep ran
    /// with [`SimConfig::obs`] above `Off` and the point was actually
    /// simulated. Summarized into the `obs_report` section of
    /// [`LoadSweepResult::to_json`].
    pub obs: Option<ObsReport>,
    /// The workload outcome (flow completions, phase timings, abort
    /// ledger), present when the sweep ran a
    /// [`workload`](LoadSweepConfig::workload) and the point was
    /// simulated.
    pub workload: Option<WorkloadOutcome>,
    /// The recorded packet trace, present when
    /// [`SimConfig::record_trace`] was set and the point was simulated
    /// — the payload `traffic_sweep --record-trace` writes out through
    /// [`crate::workload_io`].
    pub trace: Option<Vec<TraceEntry>>,
}

impl LoadPoint {
    /// Simulated flit-hops per wall second, in millions (0 when not
    /// simulated) — the simulator-throughput figure of the BENCH
    /// trajectory.
    pub(crate) fn mflits_per_sec(&self) -> f64 {
        if self.sim_wall_ms <= 0.0 {
            0.0
        } else {
            self.stats.flits_moved as f64 / (self.sim_wall_ms * 1e-3) / 1e6
        }
    }
}

/// The full sweep outcome.
#[derive(Clone, Debug)]
pub struct LoadSweepResult {
    /// The configuration that produced this result.
    pub config: LoadSweepConfig,
    /// Grid points in `(fault, rate, router)` lexicographic order.
    pub points: Vec<LoadPoint>,
}

/// An O(1) grid view over a [`LoadSweepResult`], built once per table
/// render (the fix for the old O(points²) rendering: one linear `find`
/// per cell). Points are produced in `(fault, rate, router)`
/// lexicographic order, so the index is pure arithmetic over the
/// config axes; each lookup verifies the identity of the indexed point
/// and falls back to a linear scan for hand-assembled results whose
/// `points` ordering differs.
struct GridIndex<'a> {
    result: &'a LoadSweepResult,
    n_rates: usize,
    n_routers: usize,
}

impl<'a> GridIndex<'a> {
    fn new(result: &'a LoadSweepResult) -> Self {
        GridIndex {
            result,
            n_rates: result.config.rates.len(),
            n_routers: result.config.routers.len(),
        }
    }

    /// The point at grid position `(fault index, rate index, router
    /// index)`, if present.
    fn at(&self, fi: usize, ri: usize, ki: usize) -> Option<&'a LoadPoint> {
        let cfg = &self.result.config;
        let (&faults, &rate, &router) =
            (cfg.fault_counts.get(fi)?, cfg.rates.get(ri)?, cfg.routers.get(ki)?);
        let idx = (fi * self.n_rates + ri) * self.n_routers + ki;
        match self.result.points.get(idx) {
            Some(p) if p.router == router && p.faults == faults && rate_close(p.rate, rate) => {
                Some(p)
            }
            _ => self
                .result
                .points
                .iter()
                .find(|p| p.router == router && p.faults == faults && rate_close(p.rate, rate)),
        }
    }
}

/// Rates match with a small relative tolerance so programmatically
/// constructed rates (e.g. `3.0 * 0.01`) resolve to the grid point
/// they produced despite f64 rounding.
fn rate_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

impl LoadSweepResult {
    /// The point for `(router, faults, rate)`, if it was swept (O(1)
    /// position lookup over the config axes plus an arithmetic grid
    /// index; see `GridIndex`).
    pub fn point(&self, router: RoutingKind, faults: usize, rate: f64) -> Option<&LoadPoint> {
        let cfg = &self.config;
        let pos = (
            cfg.fault_counts.iter().position(|&f| f == faults),
            cfg.rates.iter().position(|&r| rate_close(r, rate)),
            cfg.routers.iter().position(|&k| k == router),
        );
        match pos {
            (Some(fi), Some(ri), Some(ki)) => GridIndex::new(self).at(fi, ri, ki),
            // Key off the config axes: a hand-assembled result may
            // hold points the axes don't name — keep the original
            // exhaustive search for those.
            _ => self
                .points
                .iter()
                .find(|p| p.router == router && p.faults == faults && rate_close(p.rate, rate)),
        }
    }

    /// One latency table per fault density: rows = injection rates,
    /// columns = routers (mean latency in cycles, `sat`/`dead` markers
    /// past the saturation point).
    pub fn latency_tables(&self) -> Vec<Table> {
        let grid = GridIndex::new(self);
        self.config
            .fault_counts
            .iter()
            .enumerate()
            .map(|(fi, &fc)| {
                let mut headers = vec!["rate".to_string()];
                headers.extend(self.config.routers.iter().map(|r| r.name().to_string()));
                let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
                let mut t = Table::new(
                    format!(
                        "mean latency (cycles) vs injection rate — {}x{} mesh, {} faults",
                        self.config.mesh, self.config.mesh, fc
                    ),
                    &header_refs,
                );
                for (ri, &rate) in self.config.rates.iter().enumerate() {
                    let mut row = vec![f3(rate)];
                    for ki in 0..self.config.routers.len() {
                        row.push(match grid.at(fi, ri, ki) {
                            Some(p) if p.stats.deadlocked => "dead".to_string(),
                            Some(p) if p.stats.saturated => "sat".to_string(),
                            Some(p) => f1(p.stats.mean_latency()),
                            None => "-".to_string(),
                        });
                    }
                    t.push_row(row);
                }
                t
            })
            .collect()
    }

    /// Serializes the sweep as a JSON document: a `config` summary plus
    /// one flat `rows` object per grid point, suitable for recording
    /// `BENCH_*.json` trajectories across commits. Emitted through
    /// [`crate::jsonl`], the single hand-rolled JSON path.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut config = JsonObject::new();
        config
            .field("mesh", c.mesh)
            .field("seed", c.seed)
            .field("sim_threads", c.sim.threads)
            .field("vcs", c.sim.vcs)
            .field("escape_vcs", c.sim.escape_vcs)
            .field("vc_depth", c.sim.vc_depth)
            .field("packet_len", c.sim.packet_len)
            .field("warmup", c.sim.warmup)
            .field("measure", c.sim.measure)
            .field("drain", c.sim.drain)
            .field("churn_events", c.sim.fault_churn.len())
            .string("obs", c.sim.obs.name());
        if let Some(spec) = &c.workload {
            config.string("workload", spec.name());
        }
        let rows: Vec<JsonObject> = self
            .points
            .iter()
            .map(|p| {
                let st = &p.stats;
                let mut row = JsonObject::new();
                row.string("router", p.router.name())
                    .field("faults", p.faults)
                    .field("rate", p.rate);
                if p.simulated {
                    row.float("mean_latency", st.mean_latency(), 3)
                        .field("p50_latency", st.p50_latency())
                        .field("p95_latency", st.p95_latency())
                        .field("p99_latency", st.p99_latency())
                        .field("max_latency", st.latency.max())
                        .float(
                            "accepted_flits_per_node_cycle",
                            st.accepted_flits_per_node_cycle(),
                            6,
                        )
                        .float("delivered_pct", st.delivered_pct(), 3);
                } else {
                    // An early-exited point inherited its verdict; nothing
                    // was measured. Its placeholder statistics would read
                    // "100 % delivered at zero latency".
                    for key in [
                        "mean_latency",
                        "p50_latency",
                        "p95_latency",
                        "p99_latency",
                        "max_latency",
                        "accepted_flits_per_node_cycle",
                        "delivered_pct",
                    ] {
                        row.null(key);
                    }
                }
                row.field("generated", st.generated)
                    .field("measured_generated", st.measured_generated)
                    .field("measured_delivered", st.measured_delivered)
                    .field("unroutable", st.unroutable)
                    .field("ttl_dropped", st.ttl_dropped)
                    .field("escape_packets", st.escape_packets)
                    .field("cycles", st.cycles)
                    .field("saturated", st.saturated)
                    .field("deadlocked", st.deadlocked)
                    .field("simulated", p.simulated)
                    .field("flits_moved", st.flits_moved)
                    .field("epochs", st.epoch_delivered.len().max(1))
                    .array_u64("epoch_delivered", &st.epoch_delivered)
                    .field("churn_dropped", st.churn_dropped)
                    .field("churn_killed", st.churn_killed)
                    .field("churn_rejected", st.churn_rejected)
                    .float("sim_wall_ms", p.sim_wall_ms, 3);
                if p.simulated {
                    row.float("mflits_per_sec", p.mflits_per_sec(), 3);
                } else {
                    row.null("mflits_per_sec");
                }
                if let Some(wl) = &p.workload {
                    row.field("flows_delivered", wl.flows_delivered)
                        .field("flows_aborted", wl.flows_aborted)
                        .field("flow_p50", wl.flow_p50())
                        .field("flow_p99", wl.flow_p99())
                        .field("flow_makespan", wl.makespan)
                        .array_u64("phase_cycles", &wl.phase_cycles());
                }
                row
            })
            .collect();
        let obs_rows = self.obs_rows();
        if obs_rows.is_empty() {
            document_with(&config, &rows, &[])
        } else {
            document_with(&config, &rows, &[("obs_report", &obs_rows)])
        }
    }

    /// One flat summary object per point that carries an
    /// [`ObsReport`] — the `obs_report` section of [`to_json`]. The
    /// full report (heatmaps, event stream, post-mortem) stays in
    /// memory; JSON gets the numeric digest only, because the
    /// hand-rolled emitter is charset-restricted (see [`crate::jsonl`]).
    ///
    /// [`to_json`]: LoadSweepResult::to_json
    pub(crate) fn obs_rows(&self) -> Vec<JsonObject> {
        self.points
            .iter()
            .filter_map(|p| {
                let r = p.obs.as_ref()?;
                let phase_ns =
                    |ph: Phase| -> u64 { r.shards.iter().map(|s| s.phases.get(ph)).sum() };
                let mut o = JsonObject::new();
                o.string("router", p.router.name())
                    .field("faults", p.faults)
                    .field("rate", p.rate)
                    .string("level", r.level.name())
                    .string("stop", r.stop.name())
                    .field("stopped_at", r.stopped_at)
                    .field("injected", r.injected)
                    .field("delivered", r.delivered)
                    .field("dropped", r.dropped)
                    .field("shards", r.shards.len())
                    .field("link_flits_total", r.link_flits.iter().sum::<u64>())
                    .field("link_flits_max", r.link_flits.iter().copied().max().unwrap_or(0))
                    .field("escape_entries", r.escape_entries.iter().sum::<u64>())
                    .field("stall_events", r.stall_cycles.count())
                    .field("stall_p95_cycles", r.stall_cycles.percentile(0.95))
                    .field("stall_max_cycles", r.stall_cycles.max())
                    .field("occupancy_p95", r.vc_occupancy.percentile(0.95))
                    .field(
                        "boundary_msgs",
                        r.shards
                            .iter()
                            .map(|s| s.boundary_to_prev + s.boundary_to_next)
                            .sum::<u64>(),
                    )
                    // Coordinator barriers summed over shards: `cycles *
                    // shards / realized window`, the figure the 256x256
                    // ladder watches to confirm the window actually
                    // amortizes the round trip; `fence_ns` is what the
                    // workers spent waiting on those barriers.
                    .field("barriers", r.shards.iter().map(|s| s.barriers).sum::<u64>())
                    .field("plan_ns", phase_ns(Phase::Plan))
                    .field("boundary_ns", phase_ns(Phase::Boundary))
                    .field("commit_ns", phase_ns(Phase::Commit))
                    .field("fence_ns", phase_ns(Phase::Fence))
                    .field("events_seen", r.shards.iter().map(|s| s.events_seen).sum::<u64>())
                    .field("recent_events", r.recent_events.len())
                    .field("postmortem", r.postmortem.is_some());
                Some(o)
            })
            .collect()
    }

    /// Accepted-throughput table (flits/node/cycle) per fault density.
    pub fn throughput_tables(&self) -> Vec<Table> {
        let grid = GridIndex::new(self);
        self.config
            .fault_counts
            .iter()
            .enumerate()
            .map(|(fi, &fc)| {
                let mut headers = vec!["rate".to_string()];
                headers.extend(self.config.routers.iter().map(|r| r.name().to_string()));
                let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
                let mut t = Table::new(
                    format!(
                        "accepted throughput (flits/node/cycle) — {}x{} mesh, {} faults",
                        self.config.mesh, self.config.mesh, fc
                    ),
                    &header_refs,
                );
                for (ri, &rate) in self.config.rates.iter().enumerate() {
                    let mut row = vec![f3(rate)];
                    for ki in 0..self.config.routers.len() {
                        row.push(match grid.at(fi, ri, ki) {
                            // Early-exited points have no measured
                            // throughput — mark, don't print 0.000.
                            Some(p) if !p.simulated => "sat".to_string(),
                            Some(p) => f3(p.stats.accepted_flits_per_node_cycle()),
                            None => "-".to_string(),
                        });
                    }
                    t.push_row(row);
                }
                t
            })
            .collect()
    }
}

/// The synthesized statistics of a rate-ladder early exit: the
/// `saturated` verdict inherited from a lower rate, zeroed counters (no
/// cycles were simulated), and the real healthy-node count so the point
/// stays comparable in per-node denominators.
fn saturated_placeholder(net: &NetView, sim: &SimConfig) -> TrafficStats {
    let faults = net.faults();
    TrafficStats {
        cycles: 0,
        nodes: net.mesh().iter().filter(|&c| faults.is_healthy(c)).count(),
        measure_window: sim.measure,
        generated: 0,
        measured_generated: 0,
        measured_delivered: 0,
        unroutable: 0,
        ttl_dropped: 0,
        escape_packets: 0,
        measured_flits_ejected: 0,
        flits_moved: 0,
        latency: LatencyHistogram::new(1),
        saturated: true,
        deadlocked: false,
        epoch_delivered: vec![0; sim.fault_churn.len() + 1],
        churn_dropped: 0,
        churn_killed: 0,
        churn_rejected: 0,
        online_events: Vec::new(),
    }
}

/// Executes the sweep on a worker pool. The fault configuration for a
/// given fault count derives from the seed alone, so every router and
/// rate sees the *same* faults — the comparison is paired. The
/// expensive per-fault-count network analysis (MCC labeling + info
/// models across four orientations) runs once up front; `Network` is
/// `Send + Sync`, so the workers share the results by reference (each
/// task still builds its own router and path table, which are not
/// `Send`).
pub fn run_load_sweep(config: &LoadSweepConfig) -> LoadSweepResult {
    let mesh = Mesh::square(config.mesh);

    // One analyzed network per fault count, shared across workers.
    let nets: Vec<NetView> = config
        .fault_counts
        .iter()
        .enumerate()
        .map(|(fi, &faults)| {
            let mut frng = StdRng::seed_from_u64(derive_seed(config.seed, fi as u64, 0));
            NetView::build(FaultSet::random(mesh, faults, config.injection, &mut frng))
        })
        .collect();

    // One task per (fault, router): a task sweeps every injection rate
    // through a single path table, so route compilation happens once
    // per (network, routing function) instead of once per rate.
    let (n_rates, n_routers) = (config.rates.len(), config.routers.len());
    let tasks: Vec<(usize, usize)> = (0..config.fault_counts.len())
        .flat_map(|fi| (0..n_routers).map(move |ki| (fi, ki)))
        .collect();
    let ladders = pool_map(config.threads, &tasks, |&(fi, ki)| {
        let faults = config.fault_counts[fi];
        let router = config.routers[ki];
        let net = &nets[fi];
        let mut paths = PathTable::new(net, router);
        // Lowest rate at which this (router, faults) ladder saturated
        // or deadlocked: offered load only grows with the rate, so
        // every higher rate inherits the verdict without simulating
        // (early exit).
        let mut sat_from: Option<f64> = None;
        let mut ladder = Vec::with_capacity(n_rates);
        for (ri, &rate) in config.rates.iter().enumerate() {
            let point = if config.early_exit && sat_from.is_some_and(|s| rate >= s) {
                LoadPoint {
                    router,
                    faults,
                    rate,
                    stats: saturated_placeholder(net, &config.sim),
                    simulated: false,
                    sim_wall_ms: 0.0,
                    obs: None,
                    workload: None,
                    trace: None,
                }
            } else {
                let sim = SimConfig {
                    rate,
                    seed: derive_seed(config.seed, fi as u64, ri as u64 + 1),
                    ..config.sim.clone()
                };
                // The stall observer only ever cuts a *wedged* drain
                // short (4 consecutive delivery-free windows), so live
                // runs — including honestly-saturated ones that keep
                // draining — are untouched.
                let mut stall = DrainStallObserver::new(4);
                let mut passive = ();
                let observer: &mut dyn WindowObserver =
                    if config.early_exit { &mut stall } else { &mut passive };
                let started = Instant::now();
                let mut run = TrafficSim::new(&mut paths, sim);
                if let Some(spec) = &config.workload {
                    run = run.with_workload(spec.build(net));
                }
                // A shard-worker panic fails the sweep, like a panic of
                // this sweep worker.
                let out = run.try_run_full(observer).unwrap_or_else(|e| panic!("{e}"));
                let sim_wall_ms = started.elapsed().as_secs_f64() * 1e3;
                if out.stats.saturated || out.stats.deadlocked {
                    sat_from = Some(sat_from.map_or(rate, |s: f64| s.min(rate)));
                }
                LoadPoint {
                    router,
                    faults,
                    rate,
                    stats: out.stats,
                    simulated: true,
                    sim_wall_ms,
                    obs: out.obs,
                    workload: out.workload,
                    trace: out.trace,
                }
            };
            ladder.push(point);
        }
        ladder
    });

    // Ladders come back per (fault, router); points are listed in
    // (fault, rate, router) order.
    let mut ladders: Vec<_> = ladders.into_iter().map(Vec::into_iter).collect();
    let mut points = Vec::with_capacity(tasks.len() * n_rates);
    for fi in 0..config.fault_counts.len() {
        for _ in 0..n_rates {
            for ladder in &mut ladders[fi * n_routers..(fi + 1) * n_routers] {
                points.push(ladder.next().expect("one point per rate"));
            }
        }
    }
    LoadSweepResult { config: config.clone(), points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::{parse_flat, FlatValue};
    use meshpath_traffic::ObsLevel;

    #[test]
    fn smoke_sweep_completes_and_is_deterministic() {
        let cfg = LoadSweepConfig { threads: 2, ..LoadSweepConfig::smoke() };
        let a = run_load_sweep(&cfg);
        let b = run_load_sweep(&cfg);
        assert_eq!(a.points.len(), cfg.fault_counts.len() * cfg.rates.len() * cfg.routers.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.stats, pb.stats, "parallel scheduling must not change results");
            assert_eq!(pa.router, pb.router);
        }
    }

    #[test]
    fn tables_render_every_grid_point() {
        let cfg = LoadSweepConfig { threads: 2, ..LoadSweepConfig::smoke() };
        let res = run_load_sweep(&cfg);
        let lat = res.latency_tables();
        assert_eq!(lat.len(), cfg.fault_counts.len());
        for t in &lat {
            assert_eq!(t.len(), cfg.rates.len());
            let text = t.to_text();
            assert!(text.contains("XY") && text.contains("RB2"), "{text}");
        }
        let thr = res.throughput_tables();
        assert_eq!(thr.len(), cfg.fault_counts.len());
    }

    #[test]
    fn json_rows_cover_every_grid_point() {
        let cfg = LoadSweepConfig { threads: 2, ..LoadSweepConfig::smoke() };
        let res = run_load_sweep(&cfg);
        let json = res.to_json();
        // Structural sanity without a JSON parser: balanced braces and
        // brackets, one row object per grid point, key fields present.
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count(), "{json}");
        assert_eq!(json.matches("\"router\"").count(), res.points.len());
        for key in [
            "\"mean_latency\"",
            "\"escape_packets\"",
            "\"deadlocked\"",
            "\"escape_vcs\"",
            "\"sim_wall_ms\"",
            "\"mflits_per_sec\"",
            "\"flits_moved\"",
            "\"simulated\"",
            // The shard count rides in the config object so a BENCH
            // row is attributable to its band count.
            "\"sim_threads\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Every smoke point is low-load, hence actually simulated, with
        // a recorded wall clock and work total.
        for p in &res.points {
            assert!(p.simulated, "no smoke point saturates, none may be skipped");
            assert!(p.sim_wall_ms > 0.0, "simulated points must record wall time");
            assert!(p.stats.flits_moved > 0, "simulated points must record flit-hops");
        }
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"), "trailing comma: {json}");

        // A synthesized (early-exited) row keeps the schema but reads
        // `null` wherever nothing was measured — not "100 % delivered at
        // zero latency". 0.3 packets/node/cycle on 6x6 saturates at the
        // first rate, so the second is synthesized.
        let sat = run_load_sweep(&LoadSweepConfig {
            mesh: 6,
            fault_counts: vec![0],
            rates: vec![0.3, 0.6],
            routers: vec![RoutingKind::Xy],
            sim: SimConfig { warmup: 50, measure: 300, drain: 150, ..SimConfig::default() },
            threads: 1,
            ..Default::default()
        });
        let json = sat.to_json();
        let rows: Vec<_> = json
            .split("\"rows\": [")
            .nth(1)
            .expect("rows array present")
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .map(|l| parse_flat(l.trim().trim_end_matches(',')).expect("flat row"))
            .collect();
        assert_eq!(rows.len(), 2);
        let unmeasured = [
            "mean_latency",
            "p50_latency",
            "p95_latency",
            "p99_latency",
            "max_latency",
            "accepted_flits_per_node_cycle",
            "delivered_pct",
            "mflits_per_sec",
        ];
        for (row, simulated) in rows.iter().zip([true, false]) {
            let get = |key: &str| {
                &row.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
            };
            assert_eq!(*get("simulated"), FlatValue::Bool(simulated));
            assert_eq!(*get("saturated"), FlatValue::Bool(true));
            for key in unmeasured {
                assert_eq!(*get(key) == FlatValue::Null, !simulated, "{key} in {row:?}");
            }
        }
        assert_eq!(
            rows[0].iter().map(|(k, _)| k).collect::<Vec<_>>(),
            rows[1].iter().map(|(k, _)| k).collect::<Vec<_>>(),
            "both kinds of row carry the same keys in the same order"
        );
    }

    /// The `rows` array of a sweep JSON document with the wall-clock
    /// fields (`sim_wall_ms`, `mflits_per_sec` — the only
    /// non-deterministic values in a row) blanked out.
    fn rows_without_wall_clock(json: &str) -> String {
        let rows = json.split("\"rows\": [").nth(1).expect("rows array present");
        rows.lines()
            .map(|line| {
                let mut out = String::new();
                for field in line.split(", ") {
                    if field.starts_with("\"sim_wall_ms\"")
                        || field.starts_with("\"mflits_per_sec\"")
                    {
                        continue;
                    }
                    if !out.is_empty() {
                        out.push_str(", ");
                    }
                    out.push_str(field);
                }
                out
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn sharded_sweep_rows_are_byte_identical_across_thread_counts() {
        // The tentpole determinism claim at the artifact level: the
        // same seeded 32x32 sweep emits byte-identical `--json` rows —
        // not just equal aggregate stats — at sim threads 1, 2 and 4
        // (only the wall-clock fields may differ).
        let cfg = LoadSweepConfig {
            mesh: 32,
            fault_counts: vec![6],
            rates: vec![0.01],
            routers: vec![RoutingKind::Rb2],
            sim: SimConfig { threads: 1, ..SimConfig::smoke() },
            threads: 1,
            ..Default::default()
        };
        let reference = rows_without_wall_clock(&run_load_sweep(&cfg).to_json());
        assert!(reference.contains("\"router\""), "rows must survive normalization");
        for sim_threads in [2usize, 4] {
            let sharded = LoadSweepConfig {
                sim: SimConfig { threads: sim_threads, ..cfg.sim.clone() },
                ..cfg.clone()
            };
            let rows = rows_without_wall_clock(&run_load_sweep(&sharded).to_json());
            assert_eq!(rows, reference, "rows diverged at sim threads {sim_threads}");
        }
    }

    #[test]
    fn obs_sweep_records_reports_and_emits_the_json_section() {
        let mut cfg = LoadSweepConfig { threads: 2, ..LoadSweepConfig::smoke() };
        cfg.sim.obs = ObsLevel::Metrics;
        let res = run_load_sweep(&cfg);
        for p in &res.points {
            let r = p.obs.as_ref().expect("every simulated smoke point carries a report");
            assert_eq!(r.level, ObsLevel::Metrics);
            assert!(r.link_flits.iter().sum::<u64>() > 0, "traffic moved, links counted");
            assert!(r.delivered > 0);
            assert!(r.postmortem.is_none(), "smoke points do not wedge");
        }
        let json = res.to_json();
        assert!(json.contains("\"obs\": \"metrics\""), "{json}");
        assert!(json.contains("\"obs_report\": ["), "{json}");
        assert_eq!(json.matches("\"plan_ns\"").count(), res.points.len());
        assert_eq!(json.matches("\"fence_ns\"").count(), res.points.len());
        assert_eq!(json.matches("\"barriers\"").count(), res.points.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        // The instrumented sweep's statistics stay bit-identical to the
        // bare sweep's (the sweep-level face of the golden guarantee).
        let bare = run_load_sweep(&LoadSweepConfig { threads: 2, ..LoadSweepConfig::smoke() });
        for (pa, pb) in res.points.iter().zip(&bare.points) {
            assert_eq!(pa.stats, pb.stats, "metrics recording must not perturb the run");
            assert!(pb.obs.is_none(), "obs off means no report");
        }
    }

    #[test]
    fn point_still_finds_entries_off_the_config_axes() {
        // A hand-assembled result may hold points the config axes
        // don't name; the grid index must fall back to the exhaustive
        // search for those rather than returning None.
        let cfg = LoadSweepConfig { threads: 1, ..LoadSweepConfig::smoke() };
        let mut res = run_load_sweep(&cfg);
        let mut stray = res.points[0].clone();
        stray.faults = 7; // not in cfg.fault_counts
        res.points.push(stray.clone());
        let found = res.point(stray.router, 7, stray.rate).expect("off-axis point reachable");
        assert_eq!(found.faults, 7);
        // On-axis lookups still resolve through the arithmetic index.
        let p = &res.points[0];
        assert!(res.point(p.router, p.faults, p.rate).is_some());
    }

    #[test]
    fn early_exit_marks_higher_rates_saturated_without_simulating() {
        // 0.3 packets/node/cycle on a 6x6 mesh is several times past
        // capacity: the ladder saturates at its first rate, so the
        // higher rates must be synthesized, not resimulated.
        let cfg = LoadSweepConfig {
            mesh: 6,
            fault_counts: vec![0],
            rates: vec![0.3, 0.6, 0.9],
            routers: vec![RoutingKind::Xy],
            sim: SimConfig { warmup: 50, measure: 300, drain: 150, ..SimConfig::default() },
            threads: 1,
            ..Default::default()
        };
        assert!(cfg.early_exit, "early exit is the default");
        let res = run_load_sweep(&cfg);
        let first = res.point(RoutingKind::Xy, 0, 0.3).expect("swept");
        assert!(first.simulated, "the saturation onset itself is simulated");
        assert!(first.stats.saturated || first.stats.deadlocked);
        assert!(first.sim_wall_ms > 0.0);
        for &rate in &[0.6, 0.9] {
            let p = res.point(RoutingKind::Xy, 0, rate).expect("swept");
            assert!(!p.simulated, "rate {rate} must be early-exited");
            assert!(p.stats.saturated && !p.stats.deadlocked);
            assert_eq!(p.stats.cycles, 0, "never resimulated");
            assert_eq!(p.sim_wall_ms, 0.0);
            assert_eq!(p.stats.nodes, 36, "healthy-node denominator still real");
        }
        // Tables render the synthesized points as `sat`, not as
        // misleading zeros.
        let lat = res.latency_tables();
        assert!(lat[0].to_text().matches("sat").count() >= 2, "{}", lat[0].to_text());
        // With early exit disabled, every point is simulated.
        let full = run_load_sweep(&LoadSweepConfig { early_exit: false, ..cfg });
        assert!(full.points.iter().all(|p| p.simulated));
        assert!(full.points.iter().all(|p| p.stats.saturated || p.stats.deadlocked));
    }

    #[test]
    fn workload_sweep_carries_flow_metrics_into_json() {
        // An all-to-all collective sweep point: the workload replaces
        // the synthetic generators, the outcome rides in the point and
        // the flow/phase metrics ride in the JSON rows.
        let cfg = LoadSweepConfig {
            mesh: 8,
            fault_counts: vec![0, 2],
            rates: vec![0.01],
            routers: vec![RoutingKind::Xy, RoutingKind::Rb2],
            sim: SimConfig::smoke(),
            threads: 2,
            workload: Some(WorkloadSpec::AllToAll { rounds: 2, len: 4 }),
            ..Default::default()
        };
        let res = run_load_sweep(&cfg);
        for p in &res.points {
            let wl = p.workload.as_ref().expect("workload points carry an outcome");
            assert_eq!(wl.phases.len(), 2, "both rounds completed");
            assert!(wl.flows_delivered > 0);
            assert!(wl.phase_cycles().iter().all(|&c| c > 0));
            // Every generated packet came from the workload (released
            // also counts admission-rejected flows, e.g. a fault draw
            // that disconnects a participant).
            assert!(p.stats.generated <= wl.released, "workload replaces the generators");
            assert!(p.stats.generated > 0);
        }
        // Same spec, same seed: the sweep is paired, so the fault-free
        // phase times are identical across routers only if the routers
        // are — which they are not; just check determinism per router.
        let again = run_load_sweep(&cfg);
        for (pa, pb) in res.points.iter().zip(&again.points) {
            assert_eq!(pa.stats, pb.stats);
            assert_eq!(pa.workload, pb.workload);
        }
        let json = res.to_json();
        for key in [
            "\"workload\": \"alltoall\"",
            "\"flows_delivered\"",
            "\"flows_aborted\"",
            "\"flow_p50\"",
            "\"flow_p99\"",
            "\"flow_makespan\"",
            "\"phase_cycles\": [",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"phase_cycles\"").count(), res.points.len());
    }

    #[test]
    fn low_load_latency_orders_sanely_under_faults() {
        // At low load with faults, RB2 (shortest paths) must not be
        // slower on average than the block-detouring E-cube.
        let cfg = LoadSweepConfig {
            mesh: 16,
            fault_counts: vec![12],
            rates: vec![0.005],
            routers: vec![RoutingKind::ECube, RoutingKind::Rb2],
            sim: SimConfig::smoke(),
            threads: 2,
            ..Default::default()
        };
        let res = run_load_sweep(&cfg);
        let ecube = res.point(RoutingKind::ECube, 12, 0.005).unwrap();
        let rb2 = res.point(RoutingKind::Rb2, 12, 0.005).unwrap();
        assert!(!rb2.stats.saturated && !ecube.stats.saturated);
        assert!(
            rb2.stats.mean_latency() <= ecube.stats.mean_latency() + 1e-9,
            "RB2 {} vs E-cube {}",
            rb2.stats.mean_latency(),
            ecube.stats.mean_latency()
        );
    }
}
