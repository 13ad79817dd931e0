//! Cross-crate integration tests: the full pipeline from fault injection
//! through labeling, information models, routing and the experiment
//! harness.

use meshpath::analysis::{run_sweep, Fig5Data, SweepConfig};
use meshpath::info::ModelKind;
use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_net(mesh: Mesh, faults: usize, seed: u64) -> NetView {
    let mut rng = StdRng::seed_from_u64(seed);
    NetView::build(FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng))
}

#[test]
fn full_pipeline_on_one_configuration() {
    let mesh = Mesh::square(24);
    let net = random_net(mesh, 40, 11);

    // Labeling is consistent between orientations: faults are faulty in
    // all frames; unsafe counts may differ (quadrant-relative).
    for o in Orientation::ALL {
        let lab = net.mccs(o).labeling();
        for c in net.faults().iter() {
            assert!(lab.status_real(c).is_unsafe());
        }
        assert!(lab.unsafe_count() >= net.faults().count());
    }

    // Information models grow monotonically in carrier counts.
    for o in Orientation::ALL {
        let b1 = net.model(o, ModelKind::B1).stats().involved_nodes;
        let b2 = net.model(o, ModelKind::B2).stats().involved_nodes;
        let b3 = net.model(o, ModelKind::B3).stats().involved_nodes;
        assert!(b1 <= b3, "B1 ({b1}) must not exceed B3 ({b3})");
        assert!(b3 <= b2, "B3 ({b3}) must not exceed B2 ({b2})");
    }

    // Every router delivers on every reachable safe pair we can sample.
    let mut rng = StdRng::seed_from_u64(5);
    let routers: [&dyn Router; 4] = [&ECube, &Rb1::default(), &Rb2::default(), &Rb3::default()];
    let mut pairs = 0;
    while pairs < 12 {
        let s = Coord::new(rng.gen_range(0..24), rng.gen_range(0..24));
        let d = Coord::new(rng.gen_range(0..24), rng.gen_range(0..24));
        let o = Orientation::normalizing(s, d);
        let lab = net.mccs(o).labeling();
        if s == d || lab.status_real(s).is_unsafe() || lab.status_real(d).is_unsafe() {
            continue;
        }
        let oracle = DistanceField::healthy(net.faults(), d);
        if !oracle.reachable(s) {
            continue;
        }
        pairs += 1;
        for router in routers {
            let res = router.route(&net, s, d);
            assert!(res.delivered, "{} failed {s:?}->{d:?}", router.name());
            validate_path(&net, s, d, &res).expect("valid walk");
            assert!(res.hops() >= oracle.dist(s), "no router may beat BFS");
        }
    }
}

#[test]
fn b2_knowledge_covers_blocked_sources() {
    // Whenever a safe source is Manhattan-blocked toward a safe
    // destination, B2 must have stored at least one triple at the source
    // (that is the whole point of the broadcast).
    let mesh = Mesh::square(20);
    for seed in 0..6u64 {
        let net = random_net(mesh, 30, 100 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = Coord::new(rng.gen_range(0..20), rng.gen_range(0..20));
            let d = Coord::new(rng.gen_range(0..20), rng.gen_range(0..20));
            let o = Orientation::normalizing(s, d);
            let set = net.mccs(o);
            let lab = set.labeling();
            if s == d || lab.status_real(s).is_unsafe() || lab.status_real(d).is_unsafe() {
                continue;
            }
            let (os, od) = (o.apply(&mesh, s), o.apply(&mesh, d));
            let blocked = !meshpath::route::monotone::monotone_feasible(os, od, |c| {
                lab.status(c).is_unsafe()
            });
            if blocked {
                let model = net.model(o, ModelKind::B2);
                assert!(
                    !model.known_at(os).is_empty(),
                    "blocked source {s:?} (seed {seed}) holds no B2 triple"
                );
            }
        }
    }
}

#[test]
fn sweep_smoke_produces_consistent_figures() {
    let cfg = SweepConfig {
        mesh: 24,
        fault_counts: vec![0, 40, 80],
        configs_per_point: 2,
        pairs_per_config: 10,
        threads: 2,
        ..Default::default()
    };
    let res = run_sweep(&cfg);
    let figs = Fig5Data::from_sweep(&res);
    // Disabled area grows with the fault count.
    let rows: Vec<f64> = figs
        .a
        .to_csv()
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
        .collect();
    assert!(rows.windows(2).all(|w| w[0] <= w[1] + 1e-9), "disabled% must not shrink: {rows:?}");
    // RB2 shortest-path success stays at/near 100%.
    for line in figs.d.to_csv().lines().skip(1) {
        let rb2: f64 = line.split(',').nth(2).unwrap().parse().unwrap();
        assert!(rb2 >= 90.0, "RB2 success dropped: {line}");
    }
}

#[test]
fn repairing_all_faults_restores_manhattan_routing() {
    let mesh = Mesh::square(16);
    let mut faults = FaultSet::from_coords(mesh, [Coord::new(8, 8), Coord::new(7, 8)]);
    for c in [Coord::new(8, 8), Coord::new(7, 8)] {
        assert!(faults.repair(c));
    }
    let net = NetView::build(faults);
    let (s, d) = (Coord::new(1, 1), Coord::new(14, 12));
    let res = Rb2::default().route(&net, s, d);
    assert_eq!(res.hops(), s.manhattan(d));
    assert_eq!(res.replans, 0);
    assert_eq!(res.fallbacks, 0);
}
