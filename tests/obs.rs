//! Observability end-to-end: the instrumented fabric must (1) never
//! perturb simulation results, (2) produce a usable deadlock
//! post-mortem — stalled packets, the VC wait-for graph, and the
//! packets on its cycle — whenever a run wedges, and (3) classify why
//! a run stopped ([`StopKind`]) so drain stalls and true deadlocks are
//! distinguishable from clean exits.
//!
//! The forced wedge reuses the `tests/escape.rs` operating point: a
//! 16x16 mesh at 10% faults (26 nodes), deterministic routing (no
//! escape VCs) at 2x the historical interlock onset — a configuration
//! the fabric demonstrably cannot drain.

use meshpath::prelude::*;
use meshpath::traffic::{DrainStallObserver, PathTable, TrafficSim, WindowObserver};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `sim` and splits the output into statistics and obs report.
fn observed(
    sim: TrafficSim<'_>,
    obs: &mut dyn WindowObserver,
) -> (TrafficStats, Option<ObsReport>) {
    let out = sim.try_run_full(obs).expect("no worker panicked");
    (out.stats, out.obs)
}

/// The `tests/escape.rs` wedge recipe: 16x16, 26 uniform faults,
/// deterministic RB2 at 4% injection.
fn wedge_net() -> NetView {
    let mesh = Mesh::square(16);
    let mut rng = StdRng::seed_from_u64(2007);
    NetView::build(FaultSet::random(mesh, 26, FaultInjection::Uniform, &mut rng))
}

fn wedge_cfg() -> SimConfig {
    SimConfig { rate: 0.04, warmup: 150, measure: 500, drain: 1200, ..SimConfig::default() }
        .without_escape()
}

#[test]
fn forced_deadlock_dumps_a_postmortem_naming_the_cycle() {
    let net = wedge_net();
    let cfg = wedge_cfg().with_obs(ObsLevel::Trace);
    let mut paths = PathTable::new(&net, RoutingKind::Rb2);
    let (stats, report) = observed(TrafficSim::new(&mut paths, cfg.clone()), &mut ());
    assert!(stats.deadlocked, "the recipe must wedge: {stats:?}");
    let report = report.expect("obs enabled yields a report");
    assert_eq!(report.stop, StopKind::Deadlock);
    assert!(report.stop.is_wedged());
    assert_eq!(report.stopped_at, stats.cycles, "report and stats agree on the stop cycle");

    // The flight recorder captured the run's last events.
    assert!(!report.recent_events.is_empty(), "Trace level keeps a flight-recorder ring");
    assert!(report.shards.iter().map(|s| s.events_seen).sum::<u64>() > 0);

    // The post-mortem names the blocked traffic: stalled packets, a
    // non-empty VC wait-for graph, and the packets on its cycle.
    let pm = report.postmortem.as_ref().expect("wedged stops dump a post-mortem");
    assert!(!pm.stalled.is_empty(), "stalled packets listed");
    assert!(!pm.wait_edges.is_empty(), "VC wait-for graph non-empty");
    assert!(!pm.cycle_packets.is_empty(), "the cyclic wait is named");
    for p in &pm.cycle_packets {
        assert!(
            pm.stalled.iter().any(|s| s.packet == *p),
            "cycle packet {p} appears among the stalled packets"
        );
        assert!(
            pm.wait_edges.iter().any(|e| e.waiter == *p),
            "cycle packet {p} waits on some channel"
        );
    }
    // And the rendering is a non-trivial human-readable dump.
    let text = pm.render();
    assert!(text.contains("wait-for"), "{text}");

    // Heatmaps cover the full mesh.
    let map = report.link_heatmap();
    assert_eq!(map.lines().count(), 16 + 1, "title plus one line per row:\n{map}");
    assert!(report.link_flits.iter().sum::<u64>() > 0);
}

#[test]
fn wedged_drain_stops_as_drain_stall_with_stalled_packets() {
    // Same wedge, but with the sweep harness's drain-stall observer
    // attached: it cuts the hopeless drain short well before the
    // 1000-idle-cycle deadlock detector, and the stop must be
    // classified as a drain stall — with the same post-mortem quality.
    let net = wedge_net();
    let cfg = wedge_cfg().with_obs(ObsLevel::Trace);
    let mut paths = PathTable::new(&net, RoutingKind::Rb2);
    let mut obs = DrainStallObserver::new(2);
    let (stats, report) = observed(TrafficSim::new(&mut paths, cfg.clone()), &mut obs);
    let report = report.expect("obs enabled yields a report");
    assert!(
        report.stop == StopKind::DrainStall || report.stop == StopKind::Deadlock,
        "a wedged drain stops wedged, got {:?}",
        report.stop
    );
    assert!(report.stop.is_wedged());
    let pm = report.postmortem.as_ref().expect("wedged stops dump a post-mortem");
    assert!(!pm.stalled.is_empty(), "the flight-recorder dump names the stalled packets");
    assert!(!pm.wait_edges.is_empty());
    // The early cut really did save cycles vs the full deadlock run.
    assert!(stats.cycles < 150 + 500 + 1200, "stopped before the configured horizon");
}

#[test]
fn online_churn_wedges_keep_postmortem_parity_and_unperturbed_stats() {
    // The same wedge recipe, now with live churn published mid-run
    // through the online epoch path: observability must stay
    // non-perturbing across epochs the run *invented as it went*, and a
    // wedge under churn must dump the same-quality post-mortem as a
    // static one.
    let net = wedge_net();
    let chaos = ChaosConfig {
        seed: 11,
        fail_prob: 0.5,
        repair_prob: 0.25,
        start: 100,
        stop: 400,
        max_faults: 3,
    };
    let run = |level: ObsLevel| {
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let sim = TrafficSim::new(&mut paths, wedge_cfg().with_obs(level))
            .with_online_churn(OnlineChurn::chaos(chaos));
        observed(sim, &mut ())
    };
    let (bare, none) = run(ObsLevel::Off);
    assert!(none.is_none(), "off means off under churn too");
    assert!(!bare.online_events.is_empty(), "the chaos schedule must fire: {bare:?}");
    assert!(bare.deadlocked, "the wedge recipe must still wedge under churn: {bare:?}");
    for level in [ObsLevel::Metrics, ObsLevel::Trace] {
        let (stats, report) = run(level);
        assert_eq!(stats, bare, "observation at {level:?} must not perturb a churning run");
        let report = report.expect("obs enabled yields a report");
        assert!(report.stop.is_wedged());
        let pm = report.postmortem.as_ref().expect("wedged churn runs dump a post-mortem");
        assert!(!pm.stalled.is_empty(), "stalled packets listed");
        assert!(!pm.wait_edges.is_empty(), "VC wait-for graph non-empty");
    }
}

#[test]
fn healthy_runs_report_clean_and_observation_does_not_perturb() {
    let mesh = Mesh::square(16);
    let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(8, 8)]));
    let cfg = SimConfig { rate: 0.02, ..SimConfig::smoke() };
    let bare = run_traffic(&net, RoutingKind::Rb2, &cfg);
    for level in [ObsLevel::Metrics, ObsLevel::Trace] {
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let (stats, report) =
            observed(TrafficSim::new(&mut paths, cfg.clone().with_obs(level)), &mut ());
        assert_eq!(stats, bare, "observation at {level:?} must not perturb the run");
        let report = report.expect("report present at {level:?}");
        assert_eq!(report.stop, StopKind::Clean);
        assert!(report.postmortem.is_none(), "clean runs have no post-mortem");
        assert!(report.delivered > 0);
        assert!(report.link_flits.iter().sum::<u64>() > 0);
    }
    // Off really means off: no report is assembled.
    let mut paths = PathTable::new(&net, RoutingKind::Rb2);
    let (stats, report) = observed(TrafficSim::new(&mut paths, cfg.clone()), &mut ());
    assert_eq!(stats, bare);
    assert!(report.is_none());
}
