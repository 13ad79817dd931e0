//! Observability tour: run one healthy traffic load with full tracing
//! and render the merged [`ObsReport`] — link/escape heatmaps, stall
//! and occupancy histograms, per-shard phase profile — then force the
//! `tests/escape.rs` wedge (heads never escape, 10% faults) and dump the
//! deadlock flight recorder with its VC wait-for graph.
//!
//! Run with `cargo run --release --example obs_report`; pass `--quick`
//! for the CI smoke configuration (shorter windows, same exhibits) or
//! `--json` to emit the reports as a JSONL document instead of text.
//!
//! [`ObsReport`]: meshpath::obs::ObsReport

use meshpath::analysis::traffic::{run_load_sweep, LoadSweepConfig};
use meshpath::prelude::*;
use meshpath::traffic::{DrainStallObserver, PathTable, TrafficSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let json = std::env::args().skip(1).any(|a| a == "--json");

    // ---- exhibit 1: a healthy run under full tracing -----------------
    let mesh = Mesh::square(16);
    let mut rng = StdRng::seed_from_u64(2007);
    let net = NetView::build(FaultSet::random(mesh, 8, FaultInjection::Uniform, &mut rng));
    let sim = if quick {
        SimConfig { rate: 0.02, ..SimConfig::smoke() }
    } else {
        SimConfig { rate: 0.02, warmup: 300, measure: 1500, drain: 4000, ..SimConfig::default() }
    };
    let cfg = sim.clone().with_obs(ObsLevel::Trace);
    let paths = PathTable::new(&net, RoutingKind::Rb2);
    let out = TrafficSim::new(&paths, cfg.clone()).try_run_full(&mut ()).expect("run completes");
    let (stats, report) = (out.stats, out.obs.expect("tracing enabled"));
    if !json {
        println!(
            "healthy 16x16 @ rate {:.3}, 8 faults — stop: {}, {} injected / {} delivered, \
             mean latency {:.1} cycles (p50 {} p95 {} p99 {})\n",
            cfg.rate,
            report.stop.name(),
            report.injected,
            report.delivered,
            stats.mean_latency(),
            stats.p50_latency(),
            stats.p95_latency(),
            stats.p99_latency(),
        );
        println!("{}", report.link_heatmap());
        println!("{}", report.escape_heatmap());
        println!(
            "stall ages at grant: {} grants, mean {:.1} cycles, p95 {}, max {}",
            report.stall_cycles.count(),
            report.stall_cycles.mean(),
            report.stall_cycles.percentile(0.95),
            report.stall_cycles.max(),
        );
        println!(
            "VC occupancy per active node: mean {:.2}, p95 {}",
            report.vc_occupancy.mean(),
            report.vc_occupancy.percentile(0.95),
        );
        for s in &report.shards {
            println!(
                "shard {} (nodes {}..{}): plan {:.1}ms boundary {:.1}ms commit {:.1}ms \
                 fence {:.1}ms, {} events, boundary msgs {}/{}",
                s.shard,
                s.node_start,
                s.node_end,
                s.phases.get(meshpath::obs::Phase::Plan) as f64 / 1e6,
                s.phases.get(meshpath::obs::Phase::Boundary) as f64 / 1e6,
                s.phases.get(meshpath::obs::Phase::Commit) as f64 / 1e6,
                s.phases.get(meshpath::obs::Phase::Fence) as f64 / 1e6,
                s.events_seen,
                s.boundary_to_prev,
                s.boundary_to_next,
            );
        }
        println!();
    }
    assert_eq!(report.stop, StopKind::Clean, "the healthy exhibit must not wedge");

    // ---- exhibit 2: a forced wedge and its post-mortem ---------------
    let mut rng = StdRng::seed_from_u64(2007);
    let wedge_net =
        NetView::build(FaultSet::random(Mesh::square(16), 26, FaultInjection::Uniform, &mut rng));
    let wedge = SimConfig { rate: 0.04, warmup: 150, measure: 500, drain: 1200, ..sim.clone() };
    // One more VC, never offered to a head: the same adaptive channels.
    let wedge_cfg =
        SimConfig { vcs: wedge.vcs + 1, patience: u32::MAX, obs: ObsLevel::Trace, ..wedge };
    let paths = PathTable::new(&wedge_net, RoutingKind::Rb2);
    let mut stall = DrainStallObserver::new(4);
    let wedged = TrafficSim::new(&paths, wedge_cfg.clone())
        .try_run_full(&mut stall)
        .expect("run completes")
        .obs
        .expect("tracing enabled");
    assert!(wedged.stop.is_wedged(), "never escaping at 10% faults must wedge");
    let pm = wedged.postmortem.as_ref().expect("wedged stops dump a post-mortem");
    if !json {
        println!(
            "forced wedge (heads never escape, 26 faults, rate {:.3}) — stop: {}\n",
            wedge_cfg.rate,
            wedged.stop.name()
        );
        println!("{}", pm.render());
        println!(
            "flight recorder: {} recent events of {} seen",
            pm.recent_events.len(),
            wedged.shards.iter().map(|s| s.events_seen).sum::<u64>()
        );
    }

    // ---- optional: the same exhibits through the JSONL exporter ------
    if json {
        let sweep = LoadSweepConfig {
            mesh: 16,
            fault_counts: vec![8],
            rates: vec![0.02],
            routers: vec![RoutingKind::Rb2],
            sim: sim.with_obs(ObsLevel::Metrics),
            early_exit: false,
            ..Default::default()
        };
        print!("{}", run_load_sweep(&sweep).to_json());
    }
}
