//! Randomized checks of the paper's two theorems (and the reproduction's
//! measured refinements of them).
//!
//! * **Theorem 1**: RB2 finds a path whenever one exists, and no path is
//!   shorter. Holds exactly in our implementation under global knowledge;
//!   under the materialized B2 broadcast it holds in > 99% of pairs (the
//!   gap is local-knowledge replanning).
//! * **Theorem 2**: from a boundary node, RB3's path is no longer than
//!   RB2's (checked on sampled boundary sources).

use std::ops::Range;

use meshpath::info::ModelKind;
use meshpath::prelude::*;
use meshpath::route::seq::Planner;
use meshpath::{RouteError, RouteService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_pairs(net: &NetView, n: i32, count: usize, rng: &mut StdRng) -> Vec<(Coord, Coord, u32)> {
    sample_pairs_spanning(net, n, 0, count, rng)
}

/// [`sample_pairs`] keeping only pairs at least `min_dx` columns apart.
fn sample_pairs_spanning(
    net: &NetView,
    n: i32,
    min_dx: i32,
    count: usize,
    rng: &mut StdRng,
) -> Vec<(Coord, Coord, u32)> {
    sample_pairs_within(net, 0..n, min_dx, count, rng)
}

/// [`sample_pairs_spanning`] with both coordinates of both endpoints
/// drawn from `window`.
fn sample_pairs_within(
    net: &NetView,
    window: Range<i32>,
    min_dx: i32,
    count: usize,
    rng: &mut StdRng,
) -> Vec<(Coord, Coord, u32)> {
    let mut out = Vec::new();
    let mut attempts = 0;
    while out.len() < count && attempts < 20_000 {
        attempts += 1;
        let mut draw = || Coord::new(rng.gen_range(window.clone()), rng.gen_range(window.clone()));
        let (s, d) = (draw(), draw());
        if (s.x - d.x).abs() < min_dx {
            continue;
        }
        let o = Orientation::normalizing(s, d);
        let lab = net.mccs(o).labeling();
        if s == d || lab.status_real(s).is_unsafe() || lab.status_real(d).is_unsafe() {
            continue;
        }
        let oracle = DistanceField::healthy(net.faults(), d);
        if !oracle.reachable(s) {
            continue;
        }
        out.push((s, d, oracle.dist(s)));
    }
    out
}

#[test]
fn theorem1_rb2_global_is_exactly_optimal() {
    let n = 20;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for trial in 0..10 {
        let faults = FaultSet::random(mesh, 15 + trial * 8, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        let rb2 = Rb2 { scope: KnowledgeScope::Global, ..Default::default() };
        for (s, d, opt) in sample_pairs(&net, n, 20, &mut rng) {
            let res = rb2.route(&net, s, d);
            assert!(res.delivered, "RB2 must deliver {s:?}->{d:?} (trial {trial})");
            validate_path(&net, s, d, &res).expect("valid walk");
            assert_eq!(res.hops(), opt, "RB2(global) not optimal for {s:?}->{d:?} (trial {trial})");
        }
    }
}

/// Theorem 1 where a mesh row is two bit words: the feasibility fill
/// carries reachability across the word boundary at (oriented) column
/// 64, which most of the sampled rectangles straddle. Checked against
/// the BFS oracle, not the scalar DP: the route is exactly optimal, and
/// the planner calls a pair Manhattan-feasible exactly when BFS finds a
/// path that short (a lost carry would still route optimally, through a
/// needless fallback flood — the second assertion is the one it fails).
#[test]
fn theorem1_rb2_global_is_exactly_optimal_on_two_word_rows() {
    let n = 96;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(0x96_0096);
    let (mut routed, mut straddling) = (0u32, 0u32);
    for trial in 0..3 {
        let faults = FaultSet::random(mesh, 300 + trial * 150, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        let rb2 = Rb2 { scope: KnowledgeScope::Global, ..Default::default() };
        let planner = Planner::new(&net, ModelKind::B2, KnowledgeScope::Global);
        let pairs = sample_pairs_spanning(&net, n, 40, 40, &mut rng);
        assert_eq!(pairs.len(), 40, "sampling failed (trial {trial})");
        for (s, d, opt) in pairs {
            let o = Orientation::normalizing(s, d);
            routed += 1;
            straddling += u32::from(o.apply(&mesh, s).x / 64 != o.apply(&mesh, d).x / 64);
            let res = rb2.route(&net, s, d);
            assert!(res.delivered, "RB2 must deliver {s:?}->{d:?} (trial {trial})");
            validate_path(&net, s, d, &res).expect("valid walk");
            assert_eq!(res.hops(), opt, "RB2(global) not optimal for {s:?}->{d:?} (trial {trial})");
            // Safe endpoints: a Manhattan path over safe nodes exists
            // exactly when BFS over healthy nodes finds one that short.
            assert_eq!(
                planner.manhattan_feasible(s, s, d),
                opt == s.manhattan(d),
                "feasibility of {s:?}->{d:?} (trial {trial})"
            );
        }
    }
    assert!(straddling * 2 > routed, "only {straddling} of {routed} rectangles span two words");
}

#[test]
fn theorem1_rb2_local_is_near_optimal() {
    let n = 24;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut total = 0u32;
    let mut optimal = 0u32;
    for trial in 0..10 {
        let faults = FaultSet::random(mesh, 20 + trial * 10, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        for (s, d, opt) in sample_pairs(&net, n, 20, &mut rng) {
            let res = Rb2::default().route(&net, s, d);
            assert!(res.delivered, "RB2 must deliver {s:?}->{d:?} (trial {trial})");
            total += 1;
            if res.hops() == opt {
                optimal += 1;
            }
        }
    }
    assert!(total >= 150, "sampling failed: {total}");
    let pct = 100.0 * f64::from(optimal) / f64::from(total);
    assert!(pct >= 98.0, "local RB2 success {pct:.1}% below the reproduction floor");
}

#[test]
fn theorem2_rb3_matches_rb2_from_boundary_sources() {
    let n = 20;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(0x7E02);
    let mut checked = 0u32;
    let mut as_good = 0u32;
    for trial in 0..12 {
        let faults = FaultSet::random(mesh, 15 + trial * 6, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        // Boundary sources: nodes that hold at least one B3 triple.
        for (s, d, _opt) in sample_pairs(&net, n, 30, &mut rng) {
            let o = Orientation::normalizing(s, d);
            let os = o.apply(&mesh, s);
            if net.model(o, ModelKind::B3).known_at(os).is_empty() {
                continue;
            }
            checked += 1;
            let rb2 = Rb2::default().route(&net, s, d);
            let rb3 = Rb3::default().route(&net, s, d);
            assert!(rb2.delivered && rb3.delivered, "trial {trial} {s:?}->{d:?}");
            if rb3.hops() <= rb2.hops() {
                as_good += 1;
            }
            // Never catastrophically worse: the detour machinery bounds
            // the damage even when relation chains mislead.
            assert!(
                rb3.hops() <= rb2.hops() + 2 * n as u32,
                "RB3 ({}) runaway vs RB2 ({}) from {s:?} (trial {trial})",
                rb3.hops(),
                rb2.hops()
            );
        }
    }
    assert!(checked >= 40, "too few boundary sources sampled: {checked}");
    // Theorem 2 in measured form: from boundary sources RB3 matches RB2
    // in the vast majority of cases (the deficit is B3's lack of interior
    // broadcast).
    let pct = 100.0 * f64::from(as_good) / f64::from(checked);
    assert!(pct >= 85.0, "RB3 matched RB2 in only {pct:.1}% of boundary cases");
}

#[test]
fn routers_never_beat_bfs() {
    let n = 18;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for trial in 0..6 {
        let faults = FaultSet::random(mesh, 10 + trial * 10, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        let routers: [&dyn Router; 4] = [&ECube, &Rb1::default(), &Rb2::default(), &Rb3::default()];
        for (s, d, opt) in sample_pairs(&net, n, 10, &mut rng) {
            for router in routers {
                let res = router.route(&net, s, d);
                if res.delivered {
                    assert!(res.hops() >= opt, "{} beat BFS?! {s:?}->{d:?}", router.name());
                    assert_eq!(
                        (res.hops() - opt) % 2,
                        0,
                        "{}: path-length parity must match the optimum",
                        router.name()
                    );
                }
            }
        }
    }
}

#[test]
fn success_ordering_matches_the_paper() {
    // Fig. 5(d): RB2 >= RB3 >= RB1 in shortest-path success (allowing
    // small-sample noise of a few pairs).
    let n = 24;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(0x0D0E);
    let mut hits = [0u32; 3]; // rb1, rb2, rb3
    let mut total = 0u32;
    for trial in 0..8 {
        let faults = FaultSet::random(mesh, 30 + trial * 12, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        for (s, d, opt) in sample_pairs(&net, n, 20, &mut rng) {
            total += 1;
            for (i, res) in [
                Rb1::default().route(&net, s, d),
                Rb2::default().route(&net, s, d),
                Rb3::default().route(&net, s, d),
            ]
            .iter()
            .enumerate()
            {
                if res.delivered && res.hops() == opt {
                    hits[i] += 1;
                }
            }
        }
    }
    assert!(total >= 120);
    assert!(hits[1] + 4 >= hits[2], "RB2 ({}) must not trail RB3 ({})", hits[1], hits[2]);
    assert!(hits[2] + 8 >= hits[0], "RB3 ({}) must not trail RB1 ({})", hits[2], hits[0]);
}

/// Answers, not bookkeeping, on a 512x512 mesh (262 144 nodes; every
/// other test stops at 96x96): a 25-cell wall and 40 seeded faults
/// around (332, 332) — node ids past 2^17 — with pairs drawn around the
/// cluster, one straight across the wall and two mesh-wide. Every router
/// delivers a valid walk no shorter than BFS, RB2 under global knowledge
/// is exactly BFS (Theorem 1), and the service answers `Unreachable`
/// exactly for the pair BFS cannot connect.
#[test]
fn routers_answer_like_bfs_on_a_512x512_mesh() {
    let n = 512;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(0x512);
    let wall = (320..=344).map(|x| Coord::new(x, 332));
    let cluster = (0..40).map(|_| Coord::new(rng.gen_range(316..348), rng.gen_range(316..348)));
    let mut faults = FaultSet::from_coords(mesh, wall.chain(cluster));
    // Wall in the south-west corner node: healthy, and cut off.
    let pocket = Coord::new(0, 0);
    faults.inject(Coord::new(1, 0));
    faults.inject(Coord::new(0, 1));
    let net = NetView::build(faults);
    let svc = RouteService::adopt(net.clone(), RoutingKind::Rb2);

    let (below, above) = (Coord::new(332, 312), Coord::new(332, 352));
    let across = DistanceField::healthy(net.faults(), above).dist(below);
    assert!(across > below.manhattan(above), "the wall must force a detour");
    let mut pairs = vec![(below, above, across)];
    pairs.extend(sample_pairs_within(&net, 300..364, 20, 5, &mut rng));
    pairs.extend(sample_pairs_spanning(&net, n, 256, 2, &mut rng));
    assert_eq!(pairs.len(), 8, "sampling failed");
    let global = Rb2 { scope: KnowledgeScope::Global, ..Default::default() };
    let routers: [(&dyn Router, bool); 4] = [
        (&Rb1::default(), false),
        (&Rb2::default(), false),
        (&Rb3::default(), false),
        (&global, true),
    ];
    let from_pocket = DistanceField::healthy(net.faults(), pocket);
    for (s, d, opt) in pairs {
        for (router, exact) in routers {
            let res = router.route(&net, s, d);
            assert!(res.delivered, "{} must deliver {s:?}->{d:?}", router.name());
            validate_path(&net, s, d, &res).expect("valid walk");
            assert!(res.hops() >= opt, "{} beat BFS?! {s:?}->{d:?}", router.name());
            assert!(!exact || res.hops() == opt, "RB2(global) not optimal for {s:?}->{d:?}");
        }
        assert_eq!(svc.route(s, d).map(|reply| reply.hops() >= opt), Ok(true));
        assert!(!from_pocket.reachable(d));
        assert_eq!(
            svc.route(pocket, d).err(),
            Some(RouteError::Unreachable { src: pocket, dst: d })
        );
    }
}
