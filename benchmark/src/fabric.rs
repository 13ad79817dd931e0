//! The three wormhole-fabric workloads. Each repetition is one
//! `TrafficSim::try_run_full` with a *fresh* `PathTable`, so route
//! compilation is inside the measured wall exactly as a user pays it.
//!
//! * `fabric_loaded_64`: 64x64, 100 faults, RB2, unsaturated but
//!   contended — `traffic::fabric` allocate/commit and `PathTable`
//!   compile dominate, the O(nodes) per-cycle driver is small;
//! * `fabric_sparse_256`: 256x256, fault-free, XY, two tile shards —
//!   per-cycle driver work and shard coordination dominate and
//!   `route`/`info` do nothing (ROADMAP's large-mesh rung);
//! * `collective_64`: the same fabric under barrier-released all-to-all
//!   rounds, driven through the `WorkloadSource` feedback loop.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use meshpath::prelude::*;
use meshpath::traffic::{
    EscapeForest, PathTable, RunOutput, TrafficSim, WindowControl, WindowObserver, WindowSample,
};
use meshpath::workload::WorkloadSpec;

use crate::common::{
    breakdown_transfers, build_net, check_routes, quiet_latency, quiet_rate, Ctx, Outcome, Slice,
    Verdict, INSTANCES,
};
use crate::inputs::{connected_fault_seed, main_component, pairs, rng, stream, sub_seed};
use crate::json::Json;
use crate::manifest::host_cores;
use crate::span::{Layer, SpanId, NO_PARENT};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Loaded64,
    Sparse256,
    Collective64,
}

/// One workload's fixed configuration.
struct Plan {
    side: u32,
    faults: usize,
    router: RoutingKind,
    rate: f64,
    /// `(warmup, measure, drain)` cycles.
    windows: (u64, u64, u64),
    threads: usize,
    collective: Option<WorkloadSpec>,
    /// Pairs checked against the oracles (BFS on 256x256 is ~0.5 ms).
    check_sample: usize,
    /// Networks (fault draws) per run.
    instances: usize,
}

fn plan(ctx: &Ctx, kind: Kind) -> Plan {
    // Never more threads than the host has cores.
    let two = host_cores().min(2);
    match kind {
        Kind::Loaded64 => Plan {
            side: ctx.size(64, 16) as u32,
            faults: ctx.size(100, 6),
            router: RoutingKind::Rb2,
            rate: 0.003,
            windows: (100, 500, 1000),
            threads: 1,
            collective: None,
            check_sample: ctx.size(512, 32),
            // A run's rate moves ~10 % with the fault draw — as much as
            // the host moves it — so six draws are averaged, each still
            // with six or seven repetitions in a run.
            instances: ctx.size(6, INSTANCES),
        },
        Kind::Sparse256 => Plan {
            side: ctx.size(256, 32) as u32,
            faults: 0,
            router: RoutingKind::Xy,
            rate: 0.0005,
            windows: (100, 200, 1000),
            threads: two,
            collective: None,
            check_sample: ctx.size(128, 32),
            instances: INSTANCES,
        },
        Kind::Collective64 => Plan {
            side: ctx.size(64, 16) as u32,
            faults: ctx.size(64, 4),
            router: RoutingKind::Rb2,
            rate: 0.0,
            windows: (300, 1500, 3000),
            // One shard: under `with_workload` the threaded transport runs
            // coordinator + workers in per-cycle lockstep, and three
            // threads on two shared cores are a scheduler lottery (+-20 %
            // run to run, 30 % between quiet and busy minutes of the host)
            // that no bound could hold. The traced pass reruns it on two
            // shards and reports the ratio (`traffic.shard_speedup_t2`).
            threads: 1,
            collective: Some(WorkloadSpec::AllToAll { rounds: ctx.size(8, 2) as u32, len: 4 }),
            check_sample: ctx.size(512, 32),
            instances: INSTANCES,
        },
    }
}

struct Instance {
    view: NetView,
    cfg: SimConfig,
    /// The first repetition's output: later ones must repeat it exactly.
    first: Option<RunOutput>,
    /// Segment walls of every completed repetition (seconds).
    reps: Vec<Vec<f64>>,
    /// Distinct pairs the run generated (traced runs).
    compiled_pairs: usize,
    /// Bare `Router::route` seconds over those pairs (traced runs).
    bare_route_s: f64,
    compile_s: f64,
}

fn sim_config(p: &Plan, seed: u64, threads: usize) -> SimConfig {
    SimConfig {
        stats_window: if threads == 1 { SEGMENT_CYCLES } else { 0 },
        rate: p.rate,
        warmup: p.windows.0,
        measure: p.windows.1,
        drain: p.windows.2,
        threads,
        seed,
        ..SimConfig::default()
    }
}

/// Stamps the host clock at every statistics window of a run, cutting
/// the run into segments of `SEGMENT_CYCLES` simulated cycles.
#[derive(Default)]
struct WindowClock {
    stamps: Vec<Instant>,
}

impl WindowObserver for WindowClock {
    fn on_window(&mut self, _: &WindowSample) -> WindowControl {
        self.stamps.push(Instant::now());
        WindowControl::Continue
    }
}

/// Simulated cycles per segment on the in-process transport (~10-25 ms
/// of host time). The threaded transport replays its windows up to a
/// lease late, so a sharded run is one segment.
const SEGMENT_CYCLES: u64 = 50;

/// One repetition: fresh table, one full run. Returns the output, the
/// wall, and the wall cut into segments (which sum to it).
fn repetition(
    view: &NetView,
    p: &Plan,
    cfg: &SimConfig,
) -> (Option<RunOutput>, Duration, Vec<f64>) {
    let mut clock = WindowClock::default();
    let start = Instant::now();
    let mut paths = PathTable::new(view, p.router);
    let mut sim = TrafficSim::new(&mut paths, cfg.clone());
    if let Some(spec) = &p.collective {
        sim = sim.with_workload(spec.build(view));
    }
    let out = sim.try_run_full(&mut clock);
    let end = Instant::now();
    let mut segments = Vec::with_capacity(clock.stamps.len() + 1);
    let mut from = start;
    for &stamp in clock.stamps.iter().chain([&end]) {
        segments.push((stamp - from).as_secs_f64());
        from = stamp;
    }
    (out.ok(), end - start, segments)
}

/// The undisturbed wall of one instance's run, from its repetitions:
/// every repetition of a deterministic simulation does the same work in
/// each segment, so each segment's quietest observation is taken and
/// the segments are summed — a burst of host noise (they last seconds,
/// a segment lasts milliseconds) spoils the segments it hits in one
/// repetition, and another repetition supplies them. With one segment
/// per run this is the best repetition.
fn quiet_wall_s(reps: &[Vec<f64>]) -> f64 {
    let segments = reps.iter().map(Vec::len).min().unwrap_or(0);
    if reps.iter().any(|r| r.len() != segments) {
        // (Not expected: repetitions of one instance are identical.)
        return reps.iter().map(|r| r.iter().sum::<f64>()).fold(f64::INFINITY, f64::min);
    }
    (0..segments).map(|w| reps.iter().map(|r| r[w]).fold(f64::INFINITY, f64::min)).sum()
}

/// Attempted and failed operations of one run: measured packets for
/// the synthetic fabrics, released flows for the collective.
fn ops(out: &RunOutput) -> (u64, u64) {
    match &out.workload {
        Some(w) => (w.released, w.released - w.flows_delivered),
        None => (
            out.stats.measured_generated,
            out.stats.measured_generated - out.stats.measured_delivered,
        ),
    }
}

/// The simulated statistics two runs of one instance must share.
fn same_simulation(a: &RunOutput, b: &RunOutput) -> bool {
    a.stats == b.stats && a.workload == b.workload
}

/// Sets one instance up: fault draw, `NetView::build`, then what a
/// repetition constructs before its first cycle — `PathTable::new`,
/// `EscapeForest::new`, `WorkloadSpec::build` — timed once here.
/// Returns the instance and the seconds the stack spent.
fn set_up(ctx: &mut Ctx, p: &Plan, index: usize, parent: SpanId) -> (Instance, f64) {
    let op = index as u64;
    let mesh = Mesh::square(p.side);
    let root = ctx.tracer.open("setup", Layer::Harness, parent, op);
    let fault_seed = connected_fault_seed(mesh, p.faults, ctx.seed, op);
    let (view, mut stack_s) = build_net(ctx, root, op, mesh, p.faults, fault_seed);
    let t = &mut ctx.tracer;
    let (_, s) = t.time("traffic.path_table_new", Layer::Traffic, root, op, || {
        black_box(PathTable::new(&view, p.router));
    });
    stack_s += s;
    let (_, s) = t.time("traffic.forest_build", Layer::Traffic, root, op, || {
        black_box(EscapeForest::new(view.faults()));
    });
    stack_s += s;
    if let Some(spec) = &p.collective {
        let (_, s) = t.time("workload.build", Layer::Workload, root, op, || {
            black_box(spec.build(&view).exhausted(0));
        });
        stack_s += s;
    }
    t.close(root);
    let mut cfg = sim_config(p, sub_seed(ctx.seed, stream::TRAFFIC, op), p.threads);
    if ctx.traced {
        cfg = cfg.with_obs(ObsLevel::Metrics);
    }
    let instance = Instance {
        view,
        cfg,
        first: None,
        reps: Vec::new(),
        compiled_pairs: 0,
        bare_route_s: 0.0,
        compile_s: 0.0,
    };
    (instance, stack_s)
}

pub fn run(ctx: &mut Ctx, kind: Kind) -> Outcome {
    let p = plan(ctx, kind);
    let mut instances = Vec::new();
    let mut setup_s = Vec::new();
    for i in 0..p.instances {
        let (inst, s) = set_up(ctx, &p, i, NO_PARENT);
        instances.push(inst);
        setup_s.push(s);
    }

    let mut verdict = Verdict::default();
    let root = ctx.tracer.open("measure", Layer::Harness, NO_PARENT, 0);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut sim_wall = Duration::ZERO;
    let mut latency_us = Vec::new();
    let mut rep_instance = Vec::new();
    let mut reps = 0u64;
    'run: loop {
        for (i, inst) in instances.iter_mut().enumerate() {
            // A traced run records the first repetition's generated
            // pairs, to replay route compilation on them afterwards.
            let record = ctx.traced && inst.first.is_none();
            let cfg = if record { inst.cfg.clone().with_record_trace() } else { inst.cfg.clone() };
            let t0 = Instant::now();
            let (out, wall, segments) = repetition(&inst.view, &p, &cfg);
            ctx.tracer.record("traffic.sim", Layer::Traffic, root, reps, 1, t0, t0 + wall);
            reps += 1;
            if reps == p.instances as u64 {
                ctx.mark_rss();
            }
            rep_instance.push(i);
            latency_us.push(wall.as_secs_f64() * 1e6);
            sim_wall += wall;
            match out {
                // A worker panic surfaced as `RunError`: a failed op.
                None => {
                    verdict.attempted += 1;
                    verdict.failed += 1;
                }
                Some(out) => {
                    let (attempted, failed) = ops(&out);
                    verdict.attempted += attempted;
                    verdict.failed += failed;
                    inst.reps.push(segments);
                    verdict.require(!out.stats.deadlocked, || {
                        format!("instance {i}: the fabric deadlocked")
                    });
                    match &inst.first {
                        None => inst.first = Some(out),
                        Some(first) => verdict.require(same_simulation(first, &out), || {
                            format!("instance {i}: a repetition changed the simulated statistics")
                        }),
                    }
                }
            }
            if started.elapsed() >= budget {
                break 'run;
            }
            if ctx.setup_due(&setup_s, p.instances, started.elapsed().as_secs_f64()) {
                setup_s.push(set_up(ctx, &p, setup_s.len(), root).1);
            }
        }
    }
    ctx.tracer.close(root);
    while ctx.more_setups(&setup_s) {
        setup_s.push(set_up(ctx, &p, setup_s.len(), NO_PARENT).1);
    }
    // One rate and one wall per instance, from its repetitions' quietest
    // segments. On a fault-free mesh the instances differ by traffic seed
    // alone and count as one.
    let mut rep_rate: Vec<Slice> = Vec::new();
    let mut rep_wall_us: Vec<Slice> = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        let Some(first) = inst.first.as_ref().filter(|_| !inst.reps.is_empty()) else { continue };
        let group = if p.faults == 0 { 0 } else { i };
        let wall_s = quiet_wall_s(&inst.reps);
        rep_rate.push((group, first.stats.flits_moved as f64 / wall_s));
        rep_wall_us.push((group, wall_s * 1e6));
    }
    if rep_rate.is_empty() {
        // Every repetition failed; the verdict says so.
        rep_rate.push((0, 0.0));
        rep_wall_us.push((0, sim_wall.as_secs_f64() * 1e6));
    }

    // Host-independent cost: median packet latency in cycles for the
    // synthetic fabrics, mean flow completion time for the collective
    // (its makespan is the sum of eight per-round maxima and moves ~7 %
    // with the fault draw); the mean over the instances that ran.
    let firsts: Vec<&RunOutput> = instances.iter().filter_map(|i| i.first.as_ref()).collect();
    let mean = |f: &dyn Fn(&RunOutput) -> f64| {
        firsts.iter().map(|o| f(o)).sum::<f64>() / firsts.len().max(1) as f64
    };
    let model_cost = match kind {
        Kind::Collective64 => mean(&|o| o.workload.as_ref().map_or(0.0, |w| w.completion.mean())),
        _ => mean(&|o| o.stats.p50_latency() as f64),
    };

    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut transfers = Vec::new();
    let mut detail = Json::obj();
    if ctx.traced {
        transfers = breakdown_transfers(&ctx.breakdowns);
        traced_accounting(ctx, &p, &mut instances, &rep_instance, &mut transfers);
        let firsts: Vec<&RunOutput> = instances.iter().filter_map(|i| i.first.as_ref()).collect();
        layer_metrics(&firsts, &instances, sim_wall, reps, &mut layer);
        layer.insert("obs.traced_throughput_per_s", quiet_rate(&rep_rate));
        // Recording and sharding must not change the simulation: one
        // more run of instance 0 with recording off — and, except on
        // fabric_loaded_64, on the other shard count (1 <-> 2) — must
        // reproduce the traced run's statistics exactly.
        let inst = &instances[0];
        let threads = match kind {
            Kind::Loaded64 => p.threads,
            _ if p.threads == 1 => host_cores().min(2),
            _ => 1,
        };
        let plain = SimConfig { threads, obs: ObsLevel::Off, ..inst.cfg.clone() };
        let (out, wall, _) = repetition(&inst.view, &p, &plain);
        detail.set("plain_rerun_threads", threads);
        detail.set("plain_rerun_wall_s", wall.as_secs_f64());
        if threads != p.threads {
            // One shard against two on the same run (host cores are in
            // the manifest; with one core this says nothing).
            let (rerun_s, reps_s) = (wall.as_secs_f64(), quiet_latency(&rep_wall_us) * 1e-6);
            let speedup = if threads == 1 { rerun_s / reps_s } else { reps_s / rerun_s };
            layer.insert("traffic.shard_speedup_t2", speedup);
        }
        match (&inst.first, out) {
            (Some(first), Some(out)) => verdict.require(same_simulation(first, &out), || {
                format!("an unrecorded run on {threads} shard(s) changed the simulated statistics")
            }),
            _ => verdict.violation("the unrecorded comparison run failed".to_string()),
        }
    }

    // Output checks on the routing function the fabric compiled.
    for (i, inst) in instances.iter().enumerate() {
        let component = main_component(inst.view.faults());
        let mut srng = rng(ctx.seed, stream::SAMPLE, i as u64);
        let sample = pairs(&component, p.check_sample / p.instances + 1, false, &mut srng);
        let router = p.router.router();
        check_routes(&mut verdict, "compiled route", &inst.view, p.router, &sample, |s, d| {
            Some(router.route(&inst.view, s, d))
        });
    }

    // Digest of the simulated statistics, for comparing documents of one
    // seed across commits by eye.
    let digest: Vec<Json> = instances
        .iter()
        .filter_map(|i| i.first.as_ref())
        .map(|o| {
            Json::from(format!(
                "cycles={} generated={} delivered={} moved={} p50={} p99={} makespan={}",
                o.stats.cycles,
                o.stats.generated,
                o.stats.measured_delivered,
                o.stats.flits_moved,
                o.stats.p50_latency(),
                o.stats.p99_latency(),
                o.workload.as_ref().map_or(0, |w| w.makespan),
            ))
        })
        .collect();
    detail.set("sim_digest", digest);

    let config = Json::obj()
        .with("mesh", format!("{0}x{0}", p.side))
        .with("faults", p.faults)
        .with("router", p.router.name())
        .with("rate", p.rate)
        .with("warmup", p.windows.0)
        .with("measure", p.windows.1)
        .with("drain", p.windows.2)
        .with("threads", p.threads)
        .with("instances", p.instances)
        .with("workload", p.collective.as_ref().map_or("synthetic uniform Bernoulli", |w| w.name()))
        .with("loop", "closed: one full run after another, fresh PathTable each");
    Outcome {
        verdict,
        setup_s,
        throughput_slices: rep_rate,
        latency_slices_us: rep_wall_us,
        latency_us,
        model_cost,
        repetitions: reps,
        layer,
        transfers,
        config,
        detail,
    }
}

/// Replays route compilation on each instance's recorded pairs — a
/// fresh `PathTable::path` pass (compile) and a bare `Router::route`
/// pass (its `route`-layer child) — and books one such cost per
/// repetition of that instance.
fn traced_accounting(
    ctx: &mut Ctx,
    p: &Plan,
    instances: &mut [Instance],
    rep_instance: &[usize],
    transfers: &mut Vec<(Layer, Layer, f64)>,
) {
    for (i, inst) in instances.iter_mut().enumerate() {
        let Some(trace) = inst.first.as_mut().and_then(|o| o.trace.take()) else { continue };
        let mut seen = HashSet::new();
        let distinct: Vec<(Coord, Coord)> =
            trace.iter().map(|e| (e.src, e.dst)).filter(|&pair| seen.insert(pair)).collect();
        let mut table = PathTable::new(&inst.view, p.router);
        let t = &mut ctx.tracer;
        let (_, compile_s) =
            t.time_replay("traffic.path_compile", Layer::Traffic, NO_PARENT, i as u64, || {
                for &(s, d) in &distinct {
                    black_box(table.path(s, d).is_some());
                }
            });
        let router = p.router.router();
        let (_, bare_s) = t.time_replay("route.route", Layer::Route, NO_PARENT, i as u64, || {
            for &(s, d) in &distinct {
                black_box(router.route(&inst.view, s, d).delivered);
            }
        });
        inst.compiled_pairs = distinct.len();
        inst.compile_s = compile_s;
        inst.bare_route_s = bare_s;
    }
    for &i in rep_instance {
        transfers.push((Layer::Traffic, Layer::Route, instances[i].bare_route_s));
    }
}

/// The workload-specific per-layer metrics: simulated statistics (means
/// over the instances), the observability report's counters, and what
/// share of the run route compilation took.
fn layer_metrics(
    firsts: &[&RunOutput],
    instances: &[Instance],
    sim_wall: Duration,
    reps: u64,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    let n = firsts.len().max(1) as f64;
    let mean = |f: &dyn Fn(&RunOutput) -> f64| firsts.iter().map(|o| f(o)).sum::<f64>() / n;
    layer.insert("traffic.sim_cycles", mean(&|o| o.stats.cycles as f64));
    layer.insert("traffic.sim_p50_cycles", mean(&|o| o.stats.p50_latency() as f64));
    layer.insert("traffic.sim_p99_cycles", mean(&|o| o.stats.p99_latency() as f64));
    layer.insert("traffic.delivered_pct", mean(&|o| o.stats.delivered_pct()));
    layer.insert(
        "traffic.escape_pct",
        mean(&|o| 100.0 * o.stats.escape_packets as f64 / o.stats.generated.max(1) as f64),
    );
    let compiled: usize = instances.iter().map(|i| i.compiled_pairs).sum();
    layer.insert("traffic.path_misses", compiled as f64 / n);
    let compile_s: f64 = instances.iter().map(|i| i.compile_s).sum::<f64>() / n;
    let rep_s = sim_wall.as_secs_f64() / reps.max(1) as f64;
    layer.insert("traffic.compile_share_pct", 100.0 * compile_s / rep_s);

    // The existing opt-in ObsReport (`ObsLevel::Metrics`).
    let reports: Vec<_> = firsts.iter().filter_map(|o| o.obs.as_ref()).collect();
    let (mut plan, mut boundary, mut commit, mut barriers) = (0u64, 0u64, 0u64, 0u64);
    let mut stall_p99 = 0.0;
    for r in &reports {
        for s in &r.shards {
            plan += s.phases.get(meshpath::obs::Phase::Plan);
            boundary += s.phases.get(meshpath::obs::Phase::Boundary);
            commit += s.phases.get(meshpath::obs::Phase::Commit);
            barriers += s.barriers;
        }
        stall_p99 += r.stall_cycles.percentile(0.99) as f64 / reports.len() as f64;
    }
    let phases = (plan + boundary + commit).max(1) as f64;
    layer.insert("traffic.plan_share_pct", 100.0 * plan as f64 / phases);
    layer.insert("traffic.boundary_share_pct", 100.0 * boundary as f64 / phases);
    layer.insert("traffic.commit_share_pct", 100.0 * commit as f64 / phases);
    layer.insert("traffic.barriers", barriers as f64 / n);
    layer.insert("traffic.stall_p99_cycles", stall_p99);

    let outcomes: Vec<_> = firsts.iter().filter_map(|o| o.workload.as_ref()).collect();
    if !outcomes.is_empty() {
        let m = outcomes.len() as f64;
        layer.insert(
            "workload.makespan_cycles",
            outcomes.iter().map(|w| w.makespan as f64).sum::<f64>() / m,
        );
        layer.insert(
            "workload.flow_p99_cycles",
            outcomes.iter().map(|w| w.flow_p99() as f64).sum::<f64>() / m,
        );
        layer.insert(
            "workload.phase_cycles_mean",
            outcomes
                .iter()
                .map(|w| {
                    let c = w.phase_cycles();
                    c.iter().sum::<u64>() as f64 / c.len().max(1) as f64
                })
                .sum::<f64>()
                / m,
        );
        layer.insert(
            "workload.flows_aborted",
            outcomes.iter().map(|w| w.flows_aborted as f64).sum::<f64>() / m,
        );
    }
}
