//! Integration tests of the wormhole traffic subsystem against the rest
//! of the workspace: the zero-load latency model agrees with the BFS
//! oracle, runs are seed-deterministic, and the paper's routing-quality
//! ordering survives the translation from hops to cycles.

use meshpath::prelude::*;
use meshpath::traffic::single_packet_latency;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// At zero load and zero faults every router delivers minimal paths, so
/// wormhole latency is exactly `oracle hops + PIPELINE_DEPTH + (L-1)`.
#[test]
fn zero_load_zero_fault_latency_equals_hops_plus_pipeline() {
    let mesh = Mesh::square(12);
    let net = NetView::build(FaultSet::none(mesh));
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let len = 4u32;
    for _ in 0..20 {
        let s = Coord::new(rng.gen_range(0..12), rng.gen_range(0..12));
        let d = Coord::new(rng.gen_range(0..12), rng.gen_range(0..12));
        if s == d {
            continue;
        }
        let oracle = DistanceField::healthy(net.faults(), d);
        let hops = u64::from(oracle.dist(s));
        for kind in RoutingKind::ALL {
            let lat = single_packet_latency(&net, kind, s, d, len)
                .unwrap_or_else(|| panic!("{} must deliver {s:?}->{d:?}", kind.name()));
            assert_eq!(
                lat,
                hops + PIPELINE_DEPTH + u64::from(len) - 1,
                "{} {s:?}->{d:?}",
                kind.name()
            );
        }
    }
}

/// Under faults, RB2's zero-load latency still tracks the oracle on
/// pairs where its route is shortest, and never beats it (the fabric
/// cannot deliver faster than the hop count).
#[test]
fn faulty_zero_load_latency_is_bounded_by_the_route() {
    let mesh = Mesh::square(12);
    let faults = FaultSet::from_coords(
        mesh,
        [Coord::new(5, 5), Coord::new(6, 5), Coord::new(5, 6), Coord::new(8, 3)],
    );
    let net = NetView::build(faults);
    let s = Coord::new(1, 1);
    let d = Coord::new(10, 10);
    let oracle = DistanceField::healthy(net.faults(), d);
    let opt = u64::from(oracle.dist(s));
    for kind in [RoutingKind::ECube, RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3] {
        let lat = single_packet_latency(&net, kind, s, d, 1).expect("delivered");
        assert!(
            lat >= opt + PIPELINE_DEPTH,
            "{}: latency {lat} beats the oracle {opt}",
            kind.name()
        );
    }
    // RB2 is the paper's shortest-path routing: tight on this pair.
    let rb2 = single_packet_latency(&net, RoutingKind::Rb2, s, d, 1).expect("delivered");
    assert_eq!(rb2, opt + PIPELINE_DEPTH);
}

/// Same seed => bit-identical statistics; different seed => different
/// workload.
#[test]
fn seeded_runs_are_reproducible() {
    let mesh = Mesh::square(10);
    let mut rng = StdRng::seed_from_u64(3);
    let faults = FaultSet::random(mesh, 6, FaultInjection::Uniform, &mut rng);
    let net = NetView::build(faults);
    let cfg =
        SimConfig { rate: 0.02, warmup: 100, measure: 500, drain: 1500, ..SimConfig::default() };
    for kind in [RoutingKind::ECube, RoutingKind::Rb2] {
        let a = run_traffic(&net, kind, &cfg);
        let b = run_traffic(&net, kind, &cfg);
        assert_eq!(a, b, "{} must be deterministic", kind.name());
        let c = run_traffic(&net, kind, &SimConfig { seed: 99, ..cfg.clone() });
        assert_ne!(
            (a.generated, a.latency.count()),
            (c.generated, c.latency.count()),
            "{}: different seeds should differ",
            kind.name()
        );
    }
}

/// The acceptance ordering: at low load under faults, RB2's mean
/// latency does not exceed fault-tolerant E-cube's.
///
/// The comparison is *paired*: the NI admits every pair either router
/// delivers, so both carry the identical generated workload.
#[test]
fn rb2_not_slower_than_ecube_at_low_load_under_faults() {
    let mesh = Mesh::square(16);
    let mut rng = StdRng::seed_from_u64(21);
    let faults = FaultSet::random(mesh, 12, FaultInjection::Uniform, &mut rng);
    let net = NetView::build(faults);
    let cfg =
        SimConfig { rate: 0.002, warmup: 200, measure: 1000, drain: 6000, ..SimConfig::default() };
    let rb2 = run_traffic(&net, RoutingKind::Rb2, &cfg);
    let ecube = run_traffic(&net, RoutingKind::ECube, &cfg);
    assert!(!rb2.saturated && !rb2.deadlocked, "RB2 must be healthy at low load");
    assert!(!ecube.saturated && !ecube.deadlocked, "E-cube must be healthy at low load");
    assert_eq!(rb2.measured_generated, ecube.measured_generated, "paired workload");
    assert!(rb2.latency.count() > 0 && ecube.latency.count() > 0);
    assert!(
        rb2.mean_latency() <= ecube.mean_latency() + 1e-9,
        "RB2 {} vs E-cube {}",
        rb2.mean_latency(),
        ecube.mean_latency()
    );
}

/// Paired zero-load comparison over explicit pairs: RB2 (shortest-path
/// routing) is on average no slower than E-cube on the identical pair
/// set, fault configuration by fault configuration.
#[test]
fn rb2_not_slower_than_ecube_zero_load_paired() {
    for seed in [1u64, 2, 3] {
        let mesh = Mesh::square(16);
        let mut rng = StdRng::seed_from_u64(seed);
        let faults = FaultSet::random(mesh, 16, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        let (mut sum_rb2, mut sum_ecube, mut n) = (0u64, 0u64, 0u32);
        for _ in 0..200 {
            let s = Coord::new(rng.gen_range(0..16), rng.gen_range(0..16));
            let d = Coord::new(rng.gen_range(0..16), rng.gen_range(0..16));
            if s == d || !net.faults().is_healthy(s) || !net.faults().is_healthy(d) {
                continue;
            }
            let (Some(a), Some(b)) = (
                single_packet_latency(&net, RoutingKind::Rb2, s, d, 1),
                single_packet_latency(&net, RoutingKind::ECube, s, d, 1),
            ) else {
                continue;
            };
            sum_rb2 += a;
            sum_ecube += b;
            n += 1;
        }
        assert!(n > 100, "seed {seed}: too few routable pairs ({n})");
        assert!(
            sum_rb2 <= sum_ecube,
            "seed {seed}: RB2 total {sum_rb2} vs E-cube {sum_ecube} over {n} pairs"
        );
    }
}

/// The facade exposes the traffic subsystem through the prelude.
#[test]
fn facade_prelude_covers_traffic() {
    let net = NetView::build(FaultSet::none(Mesh::square(6)));
    let stats = run_traffic(&net, RoutingKind::Xy, &SimConfig { rate: 0.01, ..SimConfig::smoke() });
    let _: &TrafficStats = &stats;
    assert_eq!(stats.measured_delivered, stats.measured_generated);
    assert!(!stats.deadlocked);
}

/// Mid-run fault churn: epochs advance, deliveries are attributed per
/// epoch, nothing deadlocks, and the result is bit-identical at every
/// shard count. A publication re-plans adaptive packets and drains tree
/// packets: an in-flight packet re-plans onto the new epoch at its next
/// decision.
#[test]
fn fault_churn_runs_deadlock_free_and_shards_deterministically() {
    let mesh = Mesh::square(10);
    let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(2, 7)]));
    let cfg = SimConfig {
        rate: 0.02,
        ..SimConfig::smoke().with_fault_churn(vec![
            ChurnEvent::fail(150, Coord::new(5, 5)),
            ChurnEvent::fail(280, Coord::new(7, 2)),
            ChurnEvent::repair(400, Coord::new(5, 5)),
        ])
    };
    let stats = run_traffic(&net, RoutingKind::Rb2, &cfg);
    assert!(!stats.deadlocked, "churn must not interlock the fabric");
    assert!(!stats.saturated, "low load must drain across epochs");
    assert_eq!(stats.epoch_delivered.len(), 4, "one bucket per epoch");
    // Generation spans every epoch boundary, so each epoch delivers.
    for (e, &n) in stats.epoch_delivered.iter().enumerate() {
        assert!(n > 0, "epoch {e} delivered nothing: {:?}", stats.epoch_delivered);
    }
    // Every measured packet is accounted for: delivered, discarded by
    // the failed node's NI, or stranded in flight by the failure and
    // killed (a clean, non-saturated churn run has no fourth outcome).
    assert!(
        stats.measured_generated - stats.measured_delivered
            <= stats.churn_dropped + stats.churn_killed,
        "undelivered measured packets must be churn drops or kills: {stats:?}"
    );
    // Bit-identical under sharding, churn included.
    for threads in [2usize, 3] {
        let sharded = run_traffic(&net, RoutingKind::Rb2, &cfg.clone().with_threads(threads));
        assert_eq!(stats, sharded, "churn run diverged at {threads} threads");
    }
    // And the run itself is reproducible.
    assert_eq!(stats, run_traffic(&net, RoutingKind::Rb2, &cfg));
}

/// Regression: a `PathTable` reused across runs (the rate-sweep
/// pattern) must start every run from its own snapshot: starting from
/// a previous run's last epoch double-applied the events or mixed two
/// networks in one run.
#[test]
fn path_table_reuse_across_churn_runs_resolves_from_epoch_zero() {
    use meshpath::traffic::{PathTable, TrafficSim};
    let rerun = |paths: &PathTable, cfg: &SimConfig| {
        TrafficSim::new(paths, cfg.clone()).try_run_full(&mut ()).expect("run completes").stats
    };
    let net = NetView::build(FaultSet::none(Mesh::square(8)));
    let paths = PathTable::new(&net, RoutingKind::Rb2);
    let churn_cfg = SimConfig::smoke()
        .with_rate(0.02)
        .with_fault_churn(vec![ChurnEvent::fail(60, Coord::new(4, 4))]);
    let a = rerun(&paths, &churn_cfg);
    let b = rerun(&paths, &churn_cfg);
    assert_eq!(a, b, "reusing the table must not re-resolve churn from a stale epoch");
    // And an empty-churn run after a churn run must not inherit the
    // stale schedule (escape substrate, epoch-0 view).
    let plain_cfg = SimConfig::smoke().with_rate(0.02);
    let plain_reused = rerun(&paths, &plain_cfg);
    let plain_fresh = run_traffic(&net, RoutingKind::Rb2, &plain_cfg);
    assert_eq!(plain_reused, plain_fresh, "stale schedules must be cleared");
}
