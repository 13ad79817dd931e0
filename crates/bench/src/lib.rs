//! Shared fixtures for the Criterion `micro` benchmark. The Fig. 5
//! pipelines are the `fig5all` bin of `meshpath-analysis`.

use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
