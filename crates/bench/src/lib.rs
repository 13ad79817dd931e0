//! Shared fixtures for the Criterion benchmarks (`micro`, `fabric_step`,
//! `route_query`, `traffic`). The Fig. 5 pipelines are the `fig5*` bins
//! of `meshpath-analysis`.

use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mesh side used by the benchmark fixtures.
pub const SIDE: u32 = 40;

/// A deterministic fault set at roughly the paper's mid-sweep density.
pub fn fixture_faults(count: usize, seed: u64) -> FaultSet {
    let mesh = Mesh::square(SIDE);
    let mut rng = StdRng::seed_from_u64(seed);
    FaultSet::random(mesh, count, FaultInjection::Uniform, &mut rng)
}

/// A fully analyzed network snapshot over [`fixture_faults`].
pub fn fixture_network(count: usize, seed: u64) -> NetView {
    NetView::build(fixture_faults(count, seed))
}

/// Deterministic routable pairs (safe endpoints, connected).
pub fn fixture_pairs(net: &NetView, count: usize, seed: u64) -> Vec<(Coord, Coord)> {
    let n = SIDE as i32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut attempts = 0;
    while out.len() < count && attempts < 50_000 {
        attempts += 1;
        let s = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
        let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
        let o = Orientation::normalizing(s, d);
        let lab = net.mccs(o).labeling();
        if s == d || lab.status_real(s).is_unsafe() || lab.status_real(d).is_unsafe() {
            continue;
        }
        if DistanceField::healthy(net.faults(), d).reachable(s) {
            out.push((s, d));
        }
    }
    out
}
