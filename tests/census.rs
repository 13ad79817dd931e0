//! An exhaustive census of small worlds against the BFS oracle: every
//! fault set of a small mesh, every connected ordered pair. The counts are
//! exact, so a change in any of them is a change in behaviour.

use meshpath::prelude::*;
use meshpath::route::oracle::DistanceField;

/// Calls `visit(net, s, d, bfs)` for every fault set of at most
/// `max_faults` nodes on the `n`x`n` mesh and every ordered pair BFS
/// connects there, `bfs` being the pair's distance. Returns the number
/// of fault sets.
fn census(n: u32, max_faults: usize, mut visit: impl FnMut(&NetView, Coord, Coord, u32)) -> usize {
    let mesh = Mesh::square(n);
    let nodes: Vec<Coord> = mesh.iter().collect();
    let mut sets = 0;
    let mut pick: Vec<usize> = Vec::new();
    loop {
        let net = NetView::build(FaultSet::from_coords(mesh, pick.iter().map(|&i| nodes[i])));
        sets += 1;
        for &d in nodes.iter().filter(|&&d| net.faults().is_healthy(d)) {
            let field = DistanceField::healthy(net.faults(), d);
            for &s in nodes.iter().filter(|&&s| s != d && field.reachable(s)) {
                visit(&net, s, d, field.dist(s));
            }
        }
        // The next combination in lexicographic order, growing the set
        // once every combination of its size is done.
        let k = pick.len();
        match (0..k).rev().find(|&i| pick[i] < nodes.len() - k + i) {
            Some(i) => {
                pick[i] += 1;
                for j in i + 1..k {
                    pick[j] = pick[j - 1] + 1;
                }
            }
            None if k < max_faults => pick = (0..=k).collect(),
            None => return sets,
        }
    }
}

/// Fault sets, connected pairs, and pairs where RB2 under global knowledge
/// does not deliver in exactly the BFS distance, over every fault set of at
/// most `max_faults` nodes on the `n`x`n` mesh.
fn rb2_global_census(n: u32, max_faults: usize) -> (usize, usize, usize) {
    let rb2 = Rb2 { scope: KnowledgeScope::Global };
    let (mut pairs, mut mismatches) = (0, 0);
    let sets = census(n, max_faults, |net, s, d, bfs| {
        pairs += 1;
        let res = rb2.route(net, s, d);
        mismatches += usize::from(!res.delivered || res.hops() != bfs);
    });
    (sets, pairs, mismatches)
}

#[test]
fn rb2_global_is_bfs_on_every_4x4_mesh_with_up_to_3_faults() {
    assert_eq!(rb2_global_census(4, 3), (697, 110_664, 0));
}

#[test]
fn rb2_global_is_bfs_on_every_5x5_mesh_with_up_to_2_faults() {
    assert_eq!(rb2_global_census(5, 2), (326, 166_024, 0));
}

/// Over the connected pairs whose endpoints are both safe in the pair's
/// orientation: how many, and per router — RB2 global, RB2 (B2), RB3
/// (B3), RB1, E-cube — `(refused, delivered on a longer path than BFS)`.
fn five_router_census(n: u32, max_faults: usize) -> (usize, [(usize, usize); 5]) {
    let routers: [&dyn Router; 5] = [
        &Rb2 { scope: KnowledgeScope::Global },
        &Rb2::default(),
        &Rb3::default(),
        &Rb1::default(),
        &ECube,
    ];
    let mut pairs = 0;
    let mut cells = [(0, 0); 5];
    census(n, max_faults, |net, s, d, bfs| {
        let labels = net.mccs(Orientation::normalizing(s, d)).labeling();
        if !(labels.status_real(s).is_safe() && labels.status_real(d).is_safe()) {
            return;
        }
        pairs += 1;
        for (router, (refused, longer)) in routers.iter().zip(&mut cells) {
            let res = router.route(net, s, d);
            *refused += usize::from(!res.delivered);
            *longer += usize::from(res.delivered && res.hops() != bfs);
        }
    });
    (pairs, cells)
}

/// E-cube refuses by design: it routes on the block model, not on the
/// MCCs. RB1 refuses the pairs whose wall walk closes its orbit.
#[test]
fn every_router_on_every_4x4_mesh_with_up_to_3_faults() {
    let rb2 = (0, 0);
    let rb3 = (0, 286);
    let rb1 = (18, 2_672);
    let ecube = (824, 13_960);
    assert_eq!(five_router_census(4, 3), (105_796, [rb2, rb2, rb3, rb1, ecube]));
}

/// The 5x5 row of the census: ~3 s in release, minutes in debug, so the
/// tier-1 suite skips it and CI runs it in release.
#[test]
#[ignore = "release-only; CI runs it"]
fn every_router_on_every_5x5_mesh_with_up_to_3_faults() {
    let rb2 = (0, 0);
    let rb3 = (0, 2_848);
    let rb1 = (134, 20_964);
    let ecube = (2_616, 169_192);
    assert_eq!(five_router_census(5, 3), (1_194_688, [rb2, rb2, rb3, rb1, ecube]));
}
