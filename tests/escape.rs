//! Escape-routing guarantees: the property that makes the reserved VC
//! class deadlock-free, and the end-to-end liveness it buys.
//!
//! * The tree escape class routes every connected pair with all "up"
//!   (depth-decreasing) hops before any "down" hop — the up*/down*
//!   order that makes it acyclic for *any* fault pattern.
//! * End to end: on a 16x16 mesh at 10% faults, RB1/RB2/RB3 with
//!   escape VCs sustain at least twice the injection rate that
//!   interlocked the source-routed fabric (~2%), with zero deadlock
//!   flags — while the deterministic policy demonstrably wedges there.

use meshpath::prelude::*;
use meshpath::traffic::EscapeForest;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Strategy: a mesh side plus a set of distinct fault coordinates
/// (up to ~15% of the nodes).
fn mesh_and_faults() -> impl Strategy<Value = (u32, Vec<(i32, i32)>)> {
    (5u32..12).prop_flat_map(|side| {
        let coords = proptest::collection::hash_set(
            (0..side as i32, 0..side as i32).prop_map(|(x, y)| (x, y)),
            0..((side * side / 7) as usize).max(1),
        );
        (Just(side), coords.prop_map(|s| s.into_iter().collect()))
    })
}

fn fault_set(side: u32, coords: &[(i32, i32)]) -> FaultSet {
    let mesh = Mesh::square(side);
    FaultSet::from_coords(mesh, coords.iter().map(|&(x, y)| Coord::new(x, y)))
}

/// A virtual channel of one escape class: the link leaving `node` in
/// direction `dir`.
type Channel = (Coord, Dir);

/// Kahn toposort over a channel-dependency graph; returns whether the
/// graph is acyclic. Edges join consecutive channels of a route.
fn acyclic(edges: &[(Channel, Channel)]) -> bool {
    let mut indeg: HashMap<Channel, usize> = HashMap::new();
    let mut out: HashMap<Channel, Vec<Channel>> = HashMap::new();
    let mut seen: std::collections::HashSet<(Channel, Channel)> = std::collections::HashSet::new();
    for &(a, b) in edges {
        if !seen.insert((a, b)) {
            continue;
        }
        indeg.entry(a).or_insert(0);
        *indeg.entry(b).or_insert(0) += 1;
        out.entry(a).or_default().push(b);
    }
    let mut ready: Vec<(Coord, Dir)> =
        indeg.iter().filter(|(_, &d)| d == 0).map(|(&c, _)| c).collect();
    let mut removed = 0usize;
    while let Some(c) = ready.pop() {
        removed += 1;
        for &n in out.get(&c).into_iter().flatten() {
            let d = indeg.get_mut(&n).expect("edge target has an indegree");
            *d -= 1;
            if *d == 0 {
                ready.push(n);
            }
        }
    }
    removed == indeg.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tree escape class: every connected pair routes, every route
    /// takes its up (depth-decreasing) hops before any down hop, and
    /// the induced channel-dependency graph is acyclic for any fault
    /// pattern.
    #[test]
    fn tree_escape_routes_up_then_down_and_acyclically(
        (side, coords) in mesh_and_faults()
    ) {
        let faults = fault_set(side, &coords);
        let mesh = faults.mesh();
        let forest = EscapeForest::new(&faults);
        let healthy: Vec<Coord> = mesh.iter().filter(|&c| faults.is_healthy(c)).collect();
        let mut edges = Vec::new();
        // Sampling keeps the case fast; routes overlap heavily on a
        // tree, so sampled routes still cover nearly every tree channel.
        for &s in healthy.iter().step_by(2) {
            for &d in healthy.iter().rev().step_by(2) {
                if s == d {
                    continue;
                }
                let Some(first) = forest.next_hop(mesh, s, d) else {
                    // Different components: the pair is unroutable for
                    // every router and never enters the fabric.
                    continue;
                };
                let mut cur = s;
                let mut dir = first;
                let mut went_down = false;
                let mut prev: Option<(Coord, Dir)> = None;
                let mut hops = 0usize;
                loop {
                    let next = cur.step(dir);
                    prop_assert!(faults.is_healthy(next));
                    let (dc, dn) = (forest.depth(mesh, cur), forest.depth(mesh, next));
                    prop_assert_eq!(dc.abs_diff(dn), 1, "tree hops move between levels");
                    if dn > dc {
                        went_down = true;
                    } else {
                        prop_assert!(!went_down, "{s:?}->{d:?}: up after down");
                    }
                    if let Some(p) = prev {
                        edges.push((p, (cur, dir)));
                    }
                    prev = Some((cur, dir));
                    cur = next;
                    hops += 1;
                    prop_assert!(hops <= 2 * mesh.len(), "{s:?}->{d:?}: walk too long");
                    if cur == d {
                        break;
                    }
                    dir = forest.next_hop(mesh, cur, d).expect("mid-route stays connected");
                }
            }
        }
        prop_assert!(acyclic(&edges), "tree escape CDG has a cycle on {side}x{side}, {coords:?}");
    }
}

/// The tentpole acceptance: on a 16x16 mesh at 10% faults (26 nodes),
/// the paper's routers with escape VCs sustain ≥2x the injection rate
/// that interlocked the source-routed fabric (deadlock onset was ~2%),
/// with zero deadlock flags — the deterministic policy wedges at the
/// same operating point.
#[test]
fn escape_vcs_survive_twice_the_old_interlock_onset() {
    let mesh = Mesh::square(16);
    let mut rng = StdRng::seed_from_u64(2007);
    let faults = FaultSet::random(mesh, 26, FaultInjection::Uniform, &mut rng);
    let net = NetView::build(faults);
    // 2x the old onset. Smaller windows than the default keep the test
    // quick; the deadlock detector needs 1000 idle cycles, which both
    // window sets allow.
    let cfg =
        SimConfig { rate: 0.04, warmup: 150, measure: 500, drain: 1200, ..SimConfig::default() };
    for kind in [RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3] {
        let stats = run_traffic(&net, kind, &cfg);
        assert!(
            !stats.deadlocked,
            "{} must not interlock at 4% injection with escape VCs: {stats:?}",
            kind.name()
        );
        assert!(stats.escape_packets > 0, "{}: blocking must trigger escapes", kind.name());
        // Past saturation is acceptable (4% exceeds the 26-fault mesh's
        // raw capacity); wedging is not: the fabric must keep
        // delivering at a substantial fraction of the offered load
        // (the deterministic policy below manages ~5%).
        assert!(
            stats.measured_delivered * 3 >= stats.measured_generated,
            "{}: only {}/{} delivered — the fabric stopped moving",
            kind.name(),
            stats.measured_delivered,
            stats.measured_generated
        );
    }
    // The same operating point under the deterministic policy wedges —
    // the contrast that shows escape VCs, not the refactor, buy the
    // liveness. (Pinned for RB2; the others behave alike.)
    // Same 4 VCs, so the contrast is the escape class alone.
    let det = run_traffic(&net, RoutingKind::Rb2, &SimConfig { patience: u32::MAX, ..cfg });
    assert!(det.deadlocked, "source-routed RB2 at 4% must interlock: {det:?}");
}

/// At the old interlock onset itself (2%), escape routing turns the
/// former deadlock into clean full delivery.
#[test]
fn old_interlock_onset_now_delivers_fully() {
    let mesh = Mesh::square(16);
    let mut rng = StdRng::seed_from_u64(2007);
    let faults = FaultSet::random(mesh, 26, FaultInjection::Uniform, &mut rng);
    let net = NetView::build(faults);
    let cfg =
        SimConfig { rate: 0.02, warmup: 150, measure: 500, drain: 1200, ..SimConfig::default() };
    for kind in [RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3] {
        let stats = run_traffic(&net, kind, &cfg);
        assert!(!stats.deadlocked, "{}: {stats:?}", kind.name());
        assert!(!stats.saturated, "{}: 2% is within capacity: {stats:?}", kind.name());
        assert_eq!(
            stats.measured_delivered,
            stats.measured_generated,
            "{} must deliver everything at 2%",
            kind.name()
        );
    }
}
