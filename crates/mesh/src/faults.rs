//! Fault sets and random fault injection.
//!
//! The paper's simulator "is conducted on a 100x100 mesh with numbers of
//! faulty nodes randomly generated". [`FaultInjection::Uniform`] reproduces
//! that workload; [`FaultInjection::Clustered`] adds a harsher synthetic
//! workload (faults seeded around cluster centers) used by the extended
//! experiments to stress MCC merging.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::coord::Coord;
use crate::grid::BitGrid;
use crate::mesh::{Mesh, NodeId};

/// The set of faulty nodes of a mesh.
///
/// Link faults are handled as in the paper: "link faults can be treated as
/// node faults by disabling the corresponding adjacent nodes", so the model
/// only stores node faults.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultSet {
    faulty: BitGrid,
}

impl FaultSet {
    /// An initially fault-free mesh.
    pub fn none(mesh: Mesh) -> Self {
        FaultSet { faulty: BitGrid::new(mesh) }
    }

    /// Builds a fault set from explicit coordinates.
    ///
    /// # Panics
    /// Panics if any coordinate lies outside the mesh.
    pub fn from_coords(mesh: Mesh, coords: impl IntoIterator<Item = Coord>) -> Self {
        let mut f = FaultSet::none(mesh);
        for c in coords {
            f.inject(c);
        }
        f
    }

    /// Randomly generates `count` distinct faults according to `injection`.
    ///
    /// # Panics
    /// Panics if `count` exceeds the number of mesh nodes.
    pub fn random(mesh: Mesh, count: usize, injection: FaultInjection, rng: &mut impl Rng) -> Self {
        assert!(count <= mesh.len(), "cannot inject {count} faults into {} nodes", mesh.len());
        match injection {
            FaultInjection::Uniform => Self::random_uniform(mesh, count, rng),
            FaultInjection::Clustered { clusters, spread } => {
                Self::random_clustered(mesh, count, clusters, spread, rng)
            }
        }
    }

    fn random_uniform(mesh: Mesh, count: usize, rng: &mut impl Rng) -> Self {
        // Partial Fisher-Yates over the node ids: O(n) memory but exact
        // sampling without replacement, deterministic under a seeded rng.
        // NB: `partial_shuffle` shuffles and returns the *tail* of the
        // slice; reading the head instead silently yields nodes 0..count
        // (i.e. the bottom rows) — a bug class worth this comment.
        let mut ids: Vec<u32> = (0..mesh.len() as u32).collect();
        let (shuffled, _) = ids.partial_shuffle(rng, count);
        let mut f = FaultSet::none(mesh);
        for &id in shuffled.iter() {
            f.faulty.insert_id(NodeId(id));
        }
        f
    }

    fn random_clustered(
        mesh: Mesh,
        count: usize,
        clusters: usize,
        spread: u32,
        rng: &mut impl Rng,
    ) -> Self {
        let mut f = FaultSet::none(mesh);
        let clusters = clusters.max(1);
        let centers: Vec<Coord> = (0..clusters)
            .map(|_| {
                Coord::new(
                    rng.gen_range(0..mesh.width() as i32),
                    rng.gen_range(0..mesh.height() as i32),
                )
            })
            .collect();
        let spread = spread.max(1) as i32;
        let mut injected = 0usize;
        // Rejection-sample around the centers; fall back to uniform when a
        // cluster region saturates so the requested count is always met.
        let mut attempts = 0usize;
        while injected < count {
            attempts += 1;
            let c = if attempts <= count * 32 {
                let center = centers[rng.gen_range(0..centers.len())];
                Coord::new(
                    center.x + rng.gen_range(-spread..=spread),
                    center.y + rng.gen_range(-spread..=spread),
                )
            } else {
                Coord::new(
                    rng.gen_range(0..mesh.width() as i32),
                    rng.gen_range(0..mesh.height() as i32),
                )
            };
            if mesh.contains(c) && f.faulty.insert(c) {
                injected += 1;
            }
        }
        f
    }

    /// The mesh this fault set is defined over.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        self.faulty.mesh()
    }

    /// True when the node at `c` is faulty. Out-of-mesh coordinates are not
    /// faulty (they are simply absent).
    #[inline]
    pub fn is_faulty(&self, c: Coord) -> bool {
        self.faulty.contains(c)
    }

    /// True when `c` is a non-faulty node of the mesh.
    #[inline]
    pub fn is_healthy(&self, c: Coord) -> bool {
        self.mesh().contains(c) && !self.is_faulty(c)
    }

    /// Marks the node at `c` faulty; returns whether it was newly faulty.
    pub fn inject(&mut self, c: Coord) -> bool {
        self.faulty.insert(c)
    }

    /// Repairs the node at `c`; returns whether it was faulty.
    pub fn repair(&mut self, c: Coord) -> bool {
        self.faulty.remove(c)
    }

    /// Number of faulty nodes.
    #[inline]
    pub fn count(&self) -> usize {
        self.faulty.count()
    }

    /// Number of healthy (non-faulty) nodes.
    #[inline]
    pub fn healthy_count(&self) -> usize {
        self.mesh().len() - self.count()
    }

    /// Iterator over the faulty coordinates.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        self.faulty.iter()
    }
}

/// How random faults are placed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultInjection {
    /// Faults drawn uniformly without replacement (the paper's workload).
    Uniform,
    /// Faults drawn around `clusters` random centers with box radius
    /// `spread`, falling back to uniform once clusters saturate.
    Clustered {
        /// Number of cluster centers.
        clusters: usize,
        /// Box radius around each center.
        spread: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_injection_is_exact_and_deterministic() {
        let mesh = Mesh::square(20);
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = FaultSet::random(mesh, 37, FaultInjection::Uniform, &mut rng1);
        let b = FaultSet::random(mesh, 37, FaultInjection::Uniform, &mut rng2);
        assert_eq!(a.count(), 37);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_injection_spreads_over_the_mesh() {
        // Regression test: a broken sampler that keeps the head of the id
        // array concentrates faults in the bottom rows.
        let mesh = Mesh::square(50);
        let mut rng = StdRng::seed_from_u64(3);
        let f = FaultSet::random(mesh, 100, FaultInjection::Uniform, &mut rng);
        let mut rows = std::collections::HashSet::new();
        let mut cols = std::collections::HashSet::new();
        for c in f.iter() {
            rows.insert(c.y);
            cols.insert(c.x);
        }
        assert!(rows.len() > 25, "faults concentrated in {} rows", rows.len());
        assert!(cols.len() > 25, "faults concentrated in {} cols", cols.len());
    }

    #[test]
    fn clustered_injection_meets_count() {
        let mesh = Mesh::square(30);
        let mut rng = StdRng::seed_from_u64(11);
        let f = FaultSet::random(
            mesh,
            120,
            FaultInjection::Clustered { clusters: 4, spread: 3 },
            &mut rng,
        );
        assert_eq!(f.count(), 120);
        assert!(f.iter().all(|c| mesh.contains(c)));
    }

    #[test]
    fn inject_and_repair() {
        let mesh = Mesh::square(5);
        let mut f = FaultSet::none(mesh);
        assert!(f.inject(Coord::new(2, 2)));
        assert!(!f.inject(Coord::new(2, 2)));
        assert!(f.is_faulty(Coord::new(2, 2)));
        assert!(!f.is_healthy(Coord::new(2, 2)));
        assert!(f.repair(Coord::new(2, 2)));
        assert!(f.is_healthy(Coord::new(2, 2)));
        assert_eq!(f.count(), 0);
    }

    #[test]
    fn out_of_mesh_is_neither_faulty_nor_healthy() {
        let mesh = Mesh::square(4);
        let f = FaultSet::none(mesh);
        let outside = Coord::new(-1, 2);
        assert!(!f.is_faulty(outside));
        assert!(!f.is_healthy(outside));
    }

    #[test]
    #[should_panic(expected = "cannot inject")]
    fn overfull_injection_panics() {
        let mesh = Mesh::square(3);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = FaultSet::random(mesh, 10, FaultInjection::Uniform, &mut rng);
    }
}
