//! The fixed layer probes of a traced run: each layer's own costs,
//! timed from outside through the pinned entry points on reference
//! networks drawn from the seed. They do not depend on the workload —
//! every traced run repeats them — so a per-layer number exists beside
//! every workload's end-to-end numbers, measured in the same process.
//!
//! Reference networks: `R64` = 64x64 with 204 uniform faults (the
//! service workloads' class); a dense 64x64 with 409 faults (10 %, the
//! percolation-side regime where cold RB2 loses to BFS); 256x256 with
//! 1638 faults (2.5 %) for the large-mesh build; fault-free 64x64 and
//! 256x256 for the fabric's regime rows.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use meshpath::analysis::traffic::{run_load_sweep, LoadSweepConfig};
use meshpath::analysis::workload_io::{read_trace, write_trace};
use meshpath::prelude::*;
use meshpath::traffic::{EscapeForest, PathTable, TrafficSim};
use meshpath::workload::WorkloadSpec;

use crate::common::Ctx;
use crate::inputs::{
    connected_fault_seed, draw_faults, main_component, pairs, rng, stream, sub_seed, toggle_nodes,
};
use crate::manifest::host_cores;
use crate::stats::median;

type Metrics = BTreeMap<&'static str, f64>;

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median seconds of `n` runs of `f`.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..n).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

/// Reference network `index`: a connected uniform draw.
fn draw(ctx: &Ctx, side: usize, faults: usize, index: u64) -> FaultSet {
    let mesh = Mesh::square(side as u32);
    let reference = sub_seed(ctx.seed, stream::REFERENCE, index);
    draw_faults(mesh, faults, connected_fault_seed(mesh, faults, reference, 0))
}

pub fn run(ctx: &Ctx, out: &mut Metrics) {
    let side = ctx.size(64, 16);
    let faults = draw(ctx, side, ctx.size(204, 12), 0);
    let mut view = None;
    let build_s = secs(|| view = Some(NetView::build(faults.clone())));
    let view = view.expect("built above");
    let component = main_component(&faults);
    let sample = pairs(&component, ctx.size(512, 48), true, &mut rng(ctx.seed, stream::SAMPLE, 99));

    route_probes(ctx, &view, &sample, out);
    let toggles = toggle_nodes(
        &faults,
        &component,
        &sample,
        ctx.size(12, 2),
        &mut rng(ctx.seed, stream::TOGGLES, 99),
    );
    let netstate_update_s = update_probes(&view, &toggles, build_s, out);
    service_probes(ctx, &view, &component, &toggles, netstate_update_s, out);
    let ns_per_flit_hop = traffic_probes(ctx, &view, out);
    workload_probes(ctx, &view, ns_per_flit_hop, out);
    analysis_probes(ctx, out);
}

/// `route`: every router cold on the same pairs, against the BFS oracle.
fn route_probes(ctx: &Ctx, view: &NetView, sample: &[(Coord, Coord)], out: &mut Metrics) {
    let mut best = Vec::with_capacity(sample.len());
    let bfs_s = secs(|| {
        for &(s, d) in sample {
            best.push(DistanceField::healthy(view.faults(), d).dist(s));
        }
    });
    out.insert("route.oracle_bfs_us", bfs_s * 1e6 / sample.len() as f64);

    for kind in RoutingKind::ALL {
        let router = kind.router();
        let mut results = Vec::with_capacity(sample.len());
        let s = secs(|| {
            for &(s, d) in sample {
                results.push(router.route(view, s, d));
            }
        });
        let cold_us = s * 1e6 / sample.len() as f64;
        let delivered = results.iter().filter(|r| r.delivered).count();
        let shortest =
            results.iter().zip(&best).filter(|(r, &b)| r.delivered && r.hops() == b).count();
        let shortest_pct = 100.0 * shortest as f64 / delivered.max(1) as f64;
        match kind {
            RoutingKind::Xy => out.insert("route.cold_us.xy", cold_us),
            RoutingKind::ECube => out.insert("route.cold_us.ecube", cold_us),
            RoutingKind::Rb1 => {
                out.insert("route.shortest_pct.rb1", shortest_pct);
                out.insert("route.cold_us.rb1", cold_us)
            }
            RoutingKind::Rb2 => {
                let hops: u64 = results.iter().map(|r| u64::from(r.hops())).sum();
                out.insert("route.ns_per_hop.rb2", s * 1e9 / hops.max(1) as f64);
                out.insert("route.shortest_pct.rb2", shortest_pct);
                out.insert(
                    "route.delivered_pct.rb2",
                    100.0 * delivered as f64 / sample.len() as f64,
                );
                out.insert("route.cold_us.rb2", cold_us)
            }
            RoutingKind::Rb3 => {
                out.insert("route.shortest_pct.rb3", shortest_pct);
                out.insert("route.cold_us.rb3", cold_us)
            }
        };
    }

    // Regime rows: RB2 cold at 10 % faults, and the large-mesh build.
    let side = ctx.size(64, 16);
    let dense = draw(ctx, side, side * side / 10, 1);
    let dense_view = NetView::build(dense.clone());
    let dense_pairs =
        pairs(&main_component(&dense), sample.len(), true, &mut rng(ctx.seed, stream::SAMPLE, 98));
    let rb2 = RoutingKind::Rb2.router();
    let s = secs(|| {
        for &(s, d) in &dense_pairs {
            black_box(rb2.route(&dense_view, s, d).delivered);
        }
    });
    out.insert("route.cold_us.rb2_dense", s * 1e6 / dense_pairs.len() as f64);

    let big = ctx.size(256, 48);
    let big_faults = draw(ctx, big, big * big / 40, 2);
    out.insert(
        "route.net_build_256_ms",
        secs(|| {
            black_box(NetView::build(big_faults).epoch());
        }) * 1e3,
    );
}

/// `route`/`fault`: incremental updates on a bare `NetState`, and the
/// relabeling inside them. Returns the median `NetState` update seconds.
fn update_probes(view: &NetView, toggles: &[Coord], build_s: f64, out: &mut Metrics) -> f64 {
    let mesh = *view.mesh();
    let mut state = NetState::adopt(view.clone());
    let (mut add_s, mut remove_s, mut relabel_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut incremental = 0usize;
    for &c in toggles {
        let before = state.view();
        let mut after = None;
        add_s.push(secs(|| after = Some(state.add_fault(c).expect("toggle nodes are healthy"))));
        incremental += usize::from(state.last_update_was_incremental());
        let after = after.expect("added above");
        for o in Orientation::ALL {
            let old = before.mccs(o).labeling();
            relabel_s.push(secs(|| {
                black_box(old.with_fault_added(after.faults(), c));
            }));
            let set = after.mccs(o);
            let id = set.mcc_at(o.apply(&mesh, c)).expect("a faulty cell is always in an MCC");
            let cells: Vec<Coord> = set.get(id).cells().collect();
            relabel_s.push(secs(|| {
                black_box(set.labeling().with_fault_removed(before.faults(), c, &cells));
            }));
        }
        remove_s.push(secs(|| {
            state.remove_fault(c).expect("just added");
        }));
        incremental += usize::from(state.last_update_was_incremental());
    }
    let both: Vec<f64> = add_s.iter().chain(&remove_s).copied().collect();
    out.insert("route.update_add_ms", median(&add_s) * 1e3);
    out.insert("route.update_remove_ms", median(&remove_s) * 1e3);
    out.insert("route.update_incremental_pct", 100.0 * incremental as f64 / both.len() as f64);
    out.insert("route.update_vs_build", median(&both) / build_s);
    out.insert("fault.relabel_us", median(&relabel_s) * 1e6);
    median(&both)
}

/// `meshpath`: the service's own cost around the router — hit path,
/// miss overhead, batches, publication, re-warming, metrics recording.
fn service_probes(
    ctx: &Ctx,
    view: &NetView,
    component: &[Coord],
    toggles: &[Coord],
    netstate_update_s: f64,
    out: &mut Metrics,
) {
    let hot = pairs(component, ctx.size(4096, 256), true, &mut rng(ctx.seed, stream::PAIRS, 99));
    let passes = ctx.size(8, 2);
    let service = RouteService::adopt(view.clone(), RoutingKind::Rb2);
    let pass = |svc: &RouteService| {
        for &(s, d) in &hot {
            black_box(svc.route(s, d).is_ok());
        }
    };

    let miss_s = secs(|| pass(&service)) / hot.len() as f64;
    let router = RoutingKind::Rb2.router();
    let bare_s = secs(|| {
        for &(s, d) in &hot {
            black_box(router.route(view, s, d).delivered);
        }
    }) / hot.len() as f64;
    out.insert("meshpath.miss_us", miss_s * 1e6);
    out.insert("meshpath.miss_overhead_us", (miss_s - bare_s) * 1e6);

    let hit_s = median_secs(passes, || pass(&service)) / hot.len() as f64;
    out.insert("meshpath.hit_ns", hit_s * 1e9);
    let batch_s = median_secs(passes, || {
        for chunk in hot.chunks(256) {
            black_box(service.route_many(chunk).len());
        }
    });
    out.insert("meshpath.route_many_qps", hot.len() as f64 / batch_s);

    let recording = RouteService::adopt(view.clone(), RoutingKind::Rb2).with_metrics();
    pass(&recording);
    let recorded_s = median_secs(passes, || pass(&recording)) / hot.len() as f64;
    out.insert("obs.service_metrics_overhead_pct", 100.0 * (recorded_s / hit_s - 1.0));

    // Two readers against one: each thread runs whole passes for a fixed
    // time (host cores are in the manifest; on one core this reads ~1).
    let window = Duration::from_millis(ctx.size(150, 20) as u64);
    let qps = |threads: usize| {
        let calls: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let (t, mut n) = (Instant::now(), 0u64);
                        while t.elapsed() < window {
                            pass(&service);
                            n += hot.len() as u64;
                        }
                        (n, t.elapsed())
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| {
                    let (n, elapsed) = w.join().expect("reader threads do not panic");
                    (n as f64 / elapsed.as_secs_f64()) as u64
                })
                .sum()
        });
        calls as f64
    };
    let single = qps(1);
    out.insert("meshpath.read_scaling_t2", qps(2) / single);

    // Publication: the service's update against the bare NetState's, and
    // what re-serving part of the hot set costs right after a publish.
    let rewarm = &hot[..hot.len().min(1024)];
    let (mut publish_s, mut rewarm_s) = (Vec::new(), Vec::new());
    for &c in &toggles[..toggles.len().min(6)] {
        publish_s.push(secs(|| {
            service.add_fault(c).expect("toggle nodes are healthy");
        }));
        rewarm_s.push(secs(|| {
            for &(s, d) in rewarm {
                black_box(service.route(s, d).is_ok());
            }
        }));
        publish_s.push(secs(|| {
            service.remove_fault(c).expect("just added");
        }));
    }
    out.insert("meshpath.publish_overhead_ms", (median(&publish_s) - netstate_update_s) * 1e3);
    out.insert("meshpath.rewarm_ms", median(&rewarm_s) * 1e3);
}

/// `traffic`/`obs`: a small contended simulation on `R64`, taken apart
/// — compile against replay, warm-table stepping, recording on and off
/// — plus the empty-cycle and fault-free regime rows. Returns the warm-table host ns per flit-hop.
fn traffic_probes(ctx: &Ctx, view: &NetView, out: &mut Metrics) -> f64 {
    let two = host_cores().min(2);
    let reps = ctx.size(3, 1);
    let mini = SimConfig {
        rate: 0.003,
        warmup: ctx.size(50, 20) as u64,
        measure: ctx.size(250, 60) as u64,
        drain: 500,
        threads: 1,
        seed: sub_seed(ctx.seed, stream::TRAFFIC, 99),
        ..SimConfig::default()
    };
    out.insert(
        "traffic.forest_build_ms",
        median_secs(reps, || {
            black_box(EscapeForest::new(view.faults()));
        }) * 1e3,
    );

    let mut table = PathTable::new(view, RoutingKind::Rb2);
    let cold = TrafficSim::new(&mut table, mini.clone().with_record_trace())
        .try_run_full(&mut ())
        .expect("the probe simulation runs");
    let trace = cold.trace.expect("record_trace was set");
    let mut seen = HashSet::new();
    let distinct: Vec<(Coord, Coord)> =
        trace.iter().map(|e| (e.src, e.dst)).filter(|&p| seen.insert(p)).collect();
    let mut fresh = PathTable::new(view, RoutingKind::Rb2);
    let walk = |t: &mut PathTable| {
        for &(s, d) in &distinct {
            black_box(t.path(s, d).is_some());
        }
    };
    let compile_s = secs(|| walk(&mut fresh));
    out.insert("traffic.path_compile_us", compile_s * 1e6 / distinct.len().max(1) as f64);
    let hit_s = median_secs(reps, || walk(&mut fresh));
    out.insert("traffic.path_hit_ns", hit_s * 1e9 / distinct.len().max(1) as f64);

    // The table is warm now: these runs step the fabric and nothing else.
    let mut moved = 0u64;
    let mut timed = |cfg: &SimConfig| {
        median_secs(reps, || {
            let stats = TrafficSim::new(&mut table, cfg.clone())
                .try_run_full(&mut ())
                .expect("the probe simulation runs")
                .stats;
            moved = stats.flits_moved;
        })
    };
    let warm_s = timed(&mini);
    let recorded_s = timed(&mini.clone().with_obs(ObsLevel::Metrics));
    let ns_per_flit_hop = warm_s * 1e9 / moved.max(1) as f64;
    out.insert("traffic.ns_per_flit_hop", ns_per_flit_hop);
    out.insert("obs.metrics_overhead_pct", 100.0 * (recorded_s / warm_s - 1.0));

    // Empty cycles: the same fabric with (almost) nothing injected, so
    // wall / cycles is the per-cycle driver cost alone.
    let idle = |table: &mut PathTable, threads: usize, cycles: u64| {
        let cfg = SimConfig {
            rate: 1e-7,
            warmup: 0,
            measure: cycles,
            drain: 10,
            threads,
            ..mini.clone()
        };
        let mut ran = 0u64;
        let s = secs(|| {
            ran = TrafficSim::new(table, cfg)
                .try_run_full(&mut ())
                .expect("the idle simulation runs")
                .stats
                .cycles;
        });
        s * 1e6 / ran.max(1) as f64
    };
    out.insert("traffic.empty_cycle_us.64", idle(&mut table, 1, ctx.size(2000, 100) as u64));
    let big = Mesh::square(ctx.size(256, 32) as u32);
    let big_view = NetView::build(FaultSet::none(big));
    let mut big_table = PathTable::new(&big_view, RoutingKind::Xy);
    let big_us = idle(&mut big_table, two, ctx.size(100, 20) as u64);
    out.insert("traffic.empty_cycle_us.256", big_us);
    out.insert("traffic.ns_per_node_cycle.256", big_us * 1e3 / big.len() as f64);

    // RB2 against XY where XY is optimal: a fault-free mesh under load
    // (ROADMAP needle 3: RB2 should not lose to XY there).
    let free = NetView::build(FaultSet::none(*view.mesh()));
    let loaded = SimConfig { rate: 0.004, warmup: 100, measure: ctx.size(400, 60) as u64, ..mini };
    let p99 = |kind: RoutingKind| {
        let mut t = PathTable::new(&free, kind);
        let stats = TrafficSim::new(&mut t, loaded.clone())
            .try_run_full(&mut ())
            .expect("the regime simulation runs")
            .stats;
        stats.p99_latency().max(1) as f64
    };
    out.insert("traffic.rb2_xy_p99_ratio", p99(RoutingKind::Rb2) / p99(RoutingKind::Xy));
    ns_per_flit_hop
}

/// `workload`: building a collective, and what its barrier-released
/// bursts cost per flit-hop against the free-running fabric.
fn workload_probes(ctx: &Ctx, view: &NetView, ns_per_flit_hop: f64, out: &mut Metrics) {
    let spec = WorkloadSpec::AllToAll { rounds: 1, len: 4 };
    out.insert(
        "workload.build_ms",
        median_secs(ctx.size(5, 1), || {
            black_box(spec.build(view).exhausted(0));
        }) * 1e3,
    );
    let cfg = SimConfig {
        threads: host_cores().min(2),
        seed: sub_seed(ctx.seed, stream::TRAFFIC, 98),
        ..SimConfig::default()
    };
    let mut table = PathTable::new(view, RoutingKind::Rb2);
    let collective = |table: &mut PathTable| {
        let mut moved = 0u64;
        let s = secs(|| {
            moved = TrafficSim::new(table, cfg.clone())
                .with_workload(spec.build(view))
                .try_run_full(&mut ())
                .expect("the collective probe runs")
                .stats
                .flits_moved;
        });
        s * 1e9 / moved.max(1) as f64
    };
    collective(&mut table); // compile the routes first
    let warm = median(&(0..ctx.size(2, 1)).map(|_| collective(&mut table)).collect::<Vec<_>>());
    out.insert("workload.lockstep_ratio", warm / ns_per_flit_hop);
}

/// `analysis`: the trace codec's speed and what a one-point load sweep
/// costs over the simulation inside it.
fn analysis_probes(ctx: &Ctx, out: &mut Metrics) {
    let sim = SimConfig {
        rate: 0.003,
        warmup: 50,
        measure: ctx.size(250, 60) as u64,
        drain: 500,
        threads: 1,
        record_trace: true,
        ..SimConfig::default()
    };
    let config = LoadSweepConfig {
        mesh: ctx.size(32, 12) as u32,
        fault_counts: vec![ctx.size(50, 6)],
        rates: vec![0.003],
        routers: vec![RoutingKind::Rb2],
        sim,
        seed: sub_seed(ctx.seed, stream::REFERENCE, 3),
        threads: 1,
        early_exit: false,
        ..LoadSweepConfig::default()
    };
    let mut result = None;
    let total_s = secs(|| result = Some(run_load_sweep(&config)));
    let point = result.expect("swept above").points.remove(0);
    out.insert("analysis.sweep_overhead_pct", 100.0 * (total_s * 1e3 / point.sim_wall_ms - 1.0));

    let trace = point.trace.expect("record_trace was set");
    let mut text = String::new();
    let write_s = median_secs(ctx.size(5, 1), || text = write_trace(&trace, 300));
    let read_s = median_secs(ctx.size(5, 1), || {
        black_box(read_trace(&text).expect("a written trace reads back").0.len());
    });
    let mb = text.len() as f64 / 1e6;
    out.insert("analysis.trace_write_mb_s", mb / write_s);
    out.insert("analysis.trace_read_mb_s", mb / read_s);
}
