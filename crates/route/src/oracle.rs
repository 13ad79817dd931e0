//! Ground-truth shortest paths (BFS) over the healthy sub-mesh.
//!
//! The paper's Fig. 5(d) success rate and Fig. 5(e) relative error are
//! normalized against "the length of the shortest-path" in the existing
//! network configuration — i.e. BFS over all non-faulty nodes, which may
//! include useless/can't-reach nodes (they are healthy hardware).

use meshpath_mesh::{Coord, FaultSet, Grid, Mesh};

/// Distance field from a destination over non-faulty nodes.
///
/// `dist[c]` is the hop count of the shortest healthy path from `c` to
/// the destination, or `u32::MAX` when disconnected.
pub struct DistanceField {
    dist: Grid<u32>,
    dest: Coord,
}

/// Marker distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

impl DistanceField {
    /// BFS from `dest` over all healthy nodes.
    ///
    /// # Panics
    /// Panics if `dest` is faulty or outside the mesh.
    pub fn healthy(faults: &FaultSet, dest: Coord) -> Self {
        assert!(faults.is_healthy(dest), "destination {dest:?} is not a healthy node");
        Self::bfs(*faults.mesh(), dest, |c| faults.is_healthy(c), None)
    }

    /// BFS from `dest` over an arbitrary passability predicate
    /// (`passable(dest)` must hold).
    pub fn with_predicate(mesh: Mesh, dest: Coord, passable: impl Fn(Coord) -> bool) -> Self {
        assert!(passable(dest), "destination {dest:?} is not passable");
        Self::bfs(mesh, dest, passable, None)
    }

    /// [`with_predicate`](Self::with_predicate) that stops flooding the
    /// moment `until` is labelled. BFS labels in distance order, so every
    /// node nearer `dest` than `until` already holds its final distance:
    /// `dist(until)` and `shortest_path(until)` equal the full field's.
    /// Other nodes may read [`UNREACHABLE`] although they are not — the
    /// field answers for `until` only, hence crate-private.
    pub(crate) fn with_predicate_until(
        mesh: Mesh,
        dest: Coord,
        passable: impl Fn(Coord) -> bool,
        until: Coord,
    ) -> Self {
        assert!(passable(dest), "destination {dest:?} is not passable");
        Self::bfs(mesh, dest, passable, Some(until))
    }

    fn bfs(
        mesh: Mesh,
        dest: Coord,
        passable: impl Fn(Coord) -> bool,
        until: Option<Coord>,
    ) -> Self {
        let mut dist = Grid::new(mesh, UNREACHABLE);
        let mut queue = std::collections::VecDeque::new();
        dist[dest] = 0;
        queue.push_back(dest);
        'flood: while let Some(u) = queue.pop_front() {
            let du = dist[u];
            for v in mesh.neighbors(u) {
                if dist[v] == UNREACHABLE && passable(v) {
                    dist[v] = du + 1;
                    if until == Some(v) {
                        break 'flood;
                    }
                    queue.push_back(v);
                }
            }
        }
        DistanceField { dist, dest }
    }

    /// The destination this field was computed from.
    pub fn dest(&self) -> Coord {
        self.dest
    }

    /// Distance from `c` to the destination ([`UNREACHABLE`] when
    /// disconnected or `c` is faulty/outside).
    #[inline]
    pub fn dist(&self, c: Coord) -> u32 {
        match self.dist.get(c) {
            Some(&d) => d,
            None => UNREACHABLE,
        }
    }

    /// True when a healthy path from `c` to the destination exists.
    #[inline]
    pub fn reachable(&self, c: Coord) -> bool {
        self.dist(c) != UNREACHABLE
    }

    /// Extracts one shortest path from `s` to the destination by gradient
    /// descent on the field (deterministic tie-break: `+X, -X, +Y, -Y`).
    pub fn shortest_path(&self, s: Coord) -> Option<Vec<Coord>> {
        if !self.reachable(s) {
            return None;
        }
        let mesh = *self.dist.mesh();
        let mut path = vec![s];
        let mut u = s;
        while u != self.dest {
            let du = self.dist(u);
            let next = mesh
                .neighbors(u)
                .find(|&v| self.dist(v) == du - 1)
                .expect("gradient step must exist on a reachable field");
            path.push(next);
            u = next;
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::FaultInjection;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The early-exit flood answers for its stop node exactly as the
        /// full field does — distance and the gradient-descent path —
        /// whether the stop node is near, far, the destination itself,
        /// impassable or cut off.
        #[test]
        fn early_exit_bfs_equals_the_full_field_at_the_stop_node(
            (n, density, seed) in (3i32..20, 0usize..45, 0u64..u64::MAX)
        ) {
            let mesh = Mesh::square(n as u32);
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = FaultSet::random(
                mesh,
                mesh.len() * density / 100,
                FaultInjection::Uniform,
                &mut rng,
            );
            let passable = |c: Coord| faults.is_healthy(c);
            let healthy: Vec<Coord> = mesh.iter().filter(|&c| passable(c)).collect();
            for _ in 0..24 {
                let dest = healthy[rng.gen_range(0..healthy.len())];
                let u = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                let full = DistanceField::with_predicate(mesh, dest, passable);
                let early = DistanceField::with_predicate_until(mesh, dest, passable, u);
                prop_assert_eq!(early.dist(u), full.dist(u), "{:?} -> {:?}", u, dest);
                prop_assert_eq!(early.shortest_path(u), full.shortest_path(u));
                // What the early field did label is final.
                for c in mesh.iter().filter(|&c| early.reachable(c)) {
                    prop_assert_eq!(early.dist(c), full.dist(c));
                }
            }
        }
    }

    #[test]
    fn fault_free_distance_is_manhattan() {
        let mesh = Mesh::square(9);
        let f = FaultSet::none(mesh);
        let d = Coord::new(7, 6);
        let field = DistanceField::healthy(&f, d);
        for c in mesh.iter() {
            assert_eq!(field.dist(c), c.manhattan(d), "at {c:?}");
        }
    }

    #[test]
    fn wall_forces_detour() {
        let mesh = Mesh::square(7);
        // Wall on column 3 with a gap at the top row.
        let f = FaultSet::from_coords(mesh, (0..6).map(|y| Coord::new(3, y)));
        let field = DistanceField::healthy(&f, Coord::new(6, 0));
        let s = Coord::new(0, 0);
        // Manhattan distance is 6; the only path climbs to row 6 and back.
        assert_eq!(field.dist(s), 6 + 2 * 6);
        let path = field.shortest_path(s).expect("reachable");
        assert_eq!(path.len() as u32, field.dist(s) + 1);
        assert_eq!(path[0], s);
        assert_eq!(*path.last().expect("nonempty"), Coord::new(6, 0));
        for w in path.windows(2) {
            assert!(w[0].is_neighbor(w[1]));
            assert!(f.is_healthy(w[1]));
        }
    }

    #[test]
    fn disconnected_region_is_unreachable() {
        let mesh = Mesh::square(5);
        let f = FaultSet::from_coords(mesh, (0..5).map(|y| Coord::new(2, y)));
        let field = DistanceField::healthy(&f, Coord::new(4, 2));
        assert!(!field.reachable(Coord::new(0, 0)));
        assert_eq!(field.shortest_path(Coord::new(0, 0)), None);
        assert!(field.reachable(Coord::new(3, 4)));
    }

    #[test]
    fn faulty_cells_are_unreachable() {
        let mesh = Mesh::square(5);
        let f = FaultSet::from_coords(mesh, [Coord::new(2, 2)]);
        let field = DistanceField::healthy(&f, Coord::new(0, 0));
        assert!(!field.reachable(Coord::new(2, 2)));
    }
}
