//! The classic rectangular fault block model.
//!
//! Used by the fault-tolerant E-cube baseline (Boppana & Chalasani, paper
//! reference \[2\]). A healthy node is *deactivated* when it has a
//! faulty-or-deactivated neighbor in each dimension; iterating to fixpoint
//! grows every fault cluster into its minimal bounding set of disjoint
//! rectangles. Compared with the MCC model this disables strictly more
//! healthy nodes — the gap is exactly what Fig. 5 of the paper quantifies.

use meshpath_mesh::{BitGrid, Coord, Dir, FaultSet, Mesh};

/// The rectangular fault blocks of a fault configuration.
#[derive(Clone, Debug)]
pub struct BlockSet {
    mesh: Mesh,
    /// Faulty or deactivated nodes.
    disabled: BitGrid,
}

impl BlockSet {
    /// Computes the rectangular-block closure of `faults`.
    pub fn build(faults: &FaultSet) -> Self {
        let mesh = *faults.mesh();
        let mut disabled = BitGrid::new(mesh);
        for c in faults.iter() {
            disabled.insert(c);
        }

        // Fixpoint: deactivate any healthy node with a blocked neighbor in
        // both dimensions (border does not block: a fault-free mesh stays
        // fully active). The deactivation rule is a least fixpoint, so
        // seeding the worklist with the faults' in-mesh neighbors — the
        // only cells that can deactivate before any propagation — reaches
        // the same closure as scanning every node, in O(faults) instead of
        // O(nodes) on the fault-free bulk.
        let blocked = |g: &BitGrid, c: Coord| g.contains(c);
        let mut work: Vec<Coord> = Vec::new();
        for c in faults.iter() {
            work.extend(mesh.neighbors(c));
        }
        while let Some(u) = work.pop() {
            if disabled.contains(u) {
                continue;
            }
            let x_blocked =
                blocked(&disabled, u.step(Dir::PlusX)) || blocked(&disabled, u.step(Dir::MinusX));
            let y_blocked =
                blocked(&disabled, u.step(Dir::PlusY)) || blocked(&disabled, u.step(Dir::MinusY));
            if x_blocked && y_blocked {
                disabled.insert(u);
                for v in mesh.neighbors(u) {
                    if !disabled.contains(v) {
                        work.push(v);
                    }
                }
            }
        }

        BlockSet { mesh, disabled }
    }

    /// The mesh.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// True when the node at `c` is faulty or deactivated. Out-of-mesh
    /// coordinates report `false`.
    #[inline]
    pub fn is_disabled(&self, c: Coord) -> bool {
        self.disabled.contains(c)
    }

    /// Number of disabled nodes (faulty + deactivated).
    #[inline]
    pub fn disabled_count(&self) -> usize {
        self.disabled.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::Rect;

    /// One bounding rectangle per 4-connected disabled component, in
    /// row-major discovery order; asserts that each component is exactly
    /// its bounding rectangle (the closure's defining property).
    fn rects(b: &BlockSet) -> Vec<Rect> {
        let mut rects = Vec::new();
        let mut seen = BitGrid::new(b.mesh);
        let mut stack = Vec::new();
        for start in b.disabled.iter() {
            if !seen.insert(start) {
                continue;
            }
            let mut bbox = Rect::point(start);
            stack.push(start);
            let mut count = 0u64;
            while let Some(u) = stack.pop() {
                count += 1;
                bbox.expand(u);
                for v in b.mesh.neighbors(u) {
                    if b.disabled.contains(v) && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
            assert_eq!(count, bbox.area(), "the closure produced a non-rectangle at {bbox:?}");
            rects.push(bbox);
        }
        rects
    }

    fn build(mesh: Mesh, faults: &[(i32, i32)]) -> BlockSet {
        let fs = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        BlockSet::build(&fs)
    }

    #[test]
    fn no_faults_no_blocks() {
        let b = build(Mesh::square(6), &[]);
        assert_eq!(b.disabled_count(), 0);
        assert!(rects(&b).is_empty());
    }

    #[test]
    fn single_fault_is_a_unit_rectangle() {
        let b = build(Mesh::square(6), &[(2, 3)]);
        assert_eq!(b.disabled_count(), 1);
        assert_eq!(rects(&b), [Rect::point(Coord::new(2, 3))]);
    }

    #[test]
    fn l_shape_fills_to_rectangle() {
        // Faults in an L: (2,2),(3,2),(2,3). Node (3,3) has a faulty -X
        // neighbor and a faulty -Y neighbor => deactivated.
        let b = build(Mesh::square(8), &[(2, 2), (3, 2), (2, 3)]);
        assert_eq!(b.disabled_count(), 4);
        assert!(b.is_disabled(Coord::new(3, 3)));
        assert_eq!(rects(&b), [Rect::new(Coord::new(2, 2), Coord::new(3, 3))]);
    }

    #[test]
    fn diagonal_faults_merge_into_one_rectangle() {
        // Unlike the MCC model, the rectangular model merges diagonal
        // neighbors: (2,2) and (3,3) both see a blocked node per dimension
        // once (3,2)/(2,3) are deactivated.
        let b = build(Mesh::square(8), &[(2, 2), (3, 3)]);
        assert_eq!(rects(&b), [Rect::new(Coord::new(2, 2), Coord::new(3, 3))]);
        assert_eq!(b.disabled_count(), 4);
    }

    mod random {
        use super::*;
        use meshpath_mesh::FaultInjection;
        use proptest::prelude::*;
        use rand::rngs::StdRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Over random uniform and clustered fault sets, every disabled
            /// component is exactly its bounding rectangle and covers
            /// every fault.
            #[test]
            fn every_component_is_a_rectangle(
                ((width, height), (density, clusters), seed) in
                    ((1u32..40, 1u32..40), (0usize..40, 0usize..5), 0u64..u64::MAX)
            ) {
                let mesh = Mesh::new(width, height);
                let mut rng = StdRng::seed_from_u64(seed);
                let injection = match clusters {
                    0 => FaultInjection::Uniform,
                    k => FaultInjection::Clustered { clusters: k, spread: 3 },
                };
                let fs = FaultSet::random(mesh, mesh.len() * density / 100, injection, &mut rng);
                let blocks = BlockSet::build(&fs);
                let rects = rects(&blocks);
                for c in mesh.iter().filter(|&c| !fs.is_healthy(c)) {
                    prop_assert!(rects.iter().any(|r| r.contains(c)), "fault {:?} uncovered", c);
                }
            }
        }
    }

    #[test]
    fn block_model_disables_at_least_as_much_as_mcc() {
        use crate::labeling::{BorderPolicy, Labeling};
        use meshpath_mesh::Orientation;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mesh = Mesh::square(24);
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..12 {
            let fs = FaultSet::random(
                mesh,
                20 + trial * 6,
                meshpath_mesh::FaultInjection::Uniform,
                &mut rng,
            );
            let blocks = BlockSet::build(&fs);
            rects(&blocks);
            for o in Orientation::ALL {
                let lab = Labeling::compute(&fs, o, BorderPolicy::Open);
                assert!(
                    blocks.disabled_count() >= lab.unsafe_count(),
                    "MCC must be the finer model (trial {trial})"
                );
            }
        }
    }
}
