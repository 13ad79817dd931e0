//! An exhaustive census of small worlds against the BFS oracle: every
//! fault set of a small mesh, every connected ordered pair. The counts are
//! exact, so a change in any of them is a change in behaviour.

use meshpath::prelude::*;
use meshpath::route::oracle::DistanceField;

/// Fault sets, connected pairs, and pairs where RB2 under global knowledge
/// does not deliver in exactly the BFS distance, over every fault set of at
/// most `max_faults` nodes on the `n`x`n` mesh.
fn rb2_global_census(n: u32, max_faults: usize) -> (usize, usize, usize) {
    let mesh = Mesh::square(n);
    let nodes: Vec<Coord> = mesh.iter().collect();
    let rb2 = Rb2 { scope: KnowledgeScope::Global };
    let (mut sets, mut pairs, mut mismatches) = (0, 0, 0);
    let mut pick: Vec<usize> = Vec::new();
    loop {
        let net = NetView::build(FaultSet::from_coords(mesh, pick.iter().map(|&i| nodes[i])));
        sets += 1;
        for &d in nodes.iter().filter(|&&d| net.faults().is_healthy(d)) {
            let field = DistanceField::healthy(net.faults(), d);
            for &s in nodes.iter().filter(|&&s| s != d && field.reachable(s)) {
                pairs += 1;
                let res = rb2.route(&net, s, d);
                mismatches += usize::from(!res.delivered || res.hops() != field.dist(s));
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
            None => return (sets, pairs, mismatches),
        }
    }
}

#[test]
fn rb2_global_is_bfs_on_every_4x4_mesh_with_up_to_3_faults() {
    assert_eq!(rb2_global_census(4, 3), (697, 110_664, 0));
}

#[test]
fn rb2_global_is_bfs_on_every_5x5_mesh_with_up_to_2_faults() {
    assert_eq!(rb2_global_census(5, 2), (326, 166_024, 0));
}
