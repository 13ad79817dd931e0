//! Seeded input generation. Everything a workload hands the program —
//! fault sets, source/destination pairs, update schedules — derives
//! from `--seed` here; the program under test never sees the seed.

use std::collections::HashSet;

use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sub-seed for `(stream, index)` of the run's seed (SplitMix64
/// finaliser over the three words).
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags, so no two generators share a sequence.
pub mod stream {
    pub const FAULTS: u64 = 1;
    pub const PAIRS: u64 = 2;
    pub const TOGGLES: u64 = 3;
    pub const TRAFFIC: u64 = 4;
    pub const SAMPLE: u64 = 5;
    pub const REFERENCE: u64 = 6;
    pub const COLD: u64 = 7;
}

pub fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream, index))
}

/// The uniform fault draw every workload and probe uses.
pub fn draw_faults(mesh: Mesh, n_faults: usize, fault_seed: u64) -> FaultSet {
    FaultSet::random(
        mesh,
        n_faults,
        FaultInjection::Uniform,
        &mut rng(fault_seed, stream::FAULTS, 0),
    )
}

/// The first fault seed derived from `(seed, index)` whose draw leaves
/// every healthy node connected. The fabric picks its own destinations
/// among the healthy nodes, and a healthy node walled in by faults makes
/// every packet to it unroutable — after RB2 has burnt its whole hop
/// budget (~200 ms per pair on 64x64) looking. Workloads must not fail
/// operations, so such draws (~1 % at 100 faults, ~7 % at 204) are
/// skipped; the skipping is deterministic in the seed.
pub fn connected_fault_seed(mesh: Mesh, n_faults: usize, seed: u64, index: u64) -> u64 {
    (0..64)
        .map(|attempt| sub_seed(sub_seed(seed, stream::FAULTS, index), stream::FAULTS, attempt))
        .find(|&fault_seed| {
            let faults = draw_faults(mesh, n_faults, fault_seed);
            main_component(&faults).len() == faults.healthy_count()
        })
        .expect("a connected fault draw exists within 64 attempts")
}

/// The nodes of the largest healthy connected component, in row-major
/// order. Pairs drawn inside it are connected, so a route query between
/// them cannot legally fail.
pub fn main_component(faults: &FaultSet) -> Vec<Coord> {
    let mesh = *faults.mesh();
    let healthy: Vec<Coord> = mesh.iter().filter(|&c| faults.is_healthy(c)).collect();
    let mut seen: HashSet<Coord> = HashSet::new();
    let mut best: Vec<Coord> = Vec::new();
    for &start in &healthy {
        if seen.contains(&start) {
            continue;
        }
        let field = DistanceField::healthy(faults, start);
        let comp: Vec<Coord> = healthy.iter().copied().filter(|&c| field.reachable(c)).collect();
        seen.extend(comp.iter().copied());
        if comp.len() > best.len() {
            best = comp;
        }
        if best.len() * 2 > healthy.len() {
            break;
        }
    }
    best
}

/// `n` uniform source/destination pairs (`s != d`) over `nodes`;
/// `distinct` rejects repeats.
pub fn pairs(nodes: &[Coord], n: usize, distinct: bool, rng: &mut StdRng) -> Vec<(Coord, Coord)> {
    assert!(nodes.len() >= 2, "pairs need two nodes");
    assert!(!distinct || n <= nodes.len() * (nodes.len() - 1) / 2, "too few nodes for {n} pairs");
    let mut seen: HashSet<(Coord, Coord)> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let s = nodes[rng.gen_range(0..nodes.len())];
        let d = nodes[rng.gen_range(0..nodes.len())];
        if s != d && (!distinct || seen.insert((s, d))) {
            out.push((s, d));
        }
    }
    out
}

/// Up to `want` nodes whose failure is harmless to a hot set: each is
/// healthy, is no endpoint of `hot`, and leaves every other node of the
/// main component connected when it fails alone. Toggling them never
/// makes a hot-set query fail legally.
pub fn toggle_nodes(
    faults: &FaultSet,
    component: &[Coord],
    hot: &[(Coord, Coord)],
    want: usize,
    rng: &mut StdRng,
) -> Vec<Coord> {
    let endpoints: HashSet<Coord> = hot.iter().flat_map(|&(s, d)| [s, d]).collect();
    let anchor = hot[0].0;
    let mut out: Vec<Coord> = Vec::new();
    let mut tries = 0;
    while out.len() < want && tries < want * 64 {
        tries += 1;
        let c = component[rng.gen_range(0..component.len())];
        if endpoints.contains(&c) || out.contains(&c) {
            continue;
        }
        let mut with = faults.clone();
        with.inject(c);
        let field = DistanceField::healthy(&with, anchor);
        if component.iter().all(|&n| n == c || field.reachable(n)) {
            out.push(c);
        }
    }
    assert!(!out.is_empty(), "no harmless toggle node found");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mesh = Mesh::square(16);
        let draw = |seed| {
            let faults = FaultSet::random(
                mesh,
                20,
                FaultInjection::Uniform,
                &mut rng(seed, stream::FAULTS, 0),
            );
            let comp = main_component(&faults);
            let ps = pairs(&comp, 64, true, &mut rng(seed, stream::PAIRS, 0));
            (faults, ps)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).1, draw(8).1);
    }

    #[test]
    fn toggles_avoid_the_hot_set_and_keep_it_connected() {
        let mesh = Mesh::square(12);
        let faults =
            FaultSet::random(mesh, 14, FaultInjection::Uniform, &mut rng(3, stream::FAULTS, 0));
        let comp = main_component(&faults);
        let hot = pairs(&comp, 32, true, &mut rng(3, stream::PAIRS, 0));
        for c in toggle_nodes(&faults, &comp, &hot, 8, &mut rng(3, stream::TOGGLES, 0)) {
            assert!(hot.iter().all(|&(s, d)| s != c && d != c));
            let mut with = faults.clone();
            with.inject(c);
            for &(s, d) in &hot {
                assert!(DistanceField::healthy(&with, d).reachable(s));
            }
        }
    }
}
