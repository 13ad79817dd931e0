//! Ground-truth shortest paths (BFS) over the healthy sub-mesh, and the
//! planner's single-pair flood.
//!
//! The paper's Fig. 5(d) success rate and Fig. 5(e) relative error are
//! normalized against "the length of the shortest-path" in the existing
//! network configuration — i.e. BFS over all non-faulty nodes, which may
//! include useless/can't-reach nodes (they are healthy hardware).
//! [`DistanceField`] is that full field.
//!
//! ## The goal-directed flood
//!
//! The planner's fallback wants one distance and one path — from a
//! destination `dest` to the node `until` asking — and a BFS ball around
//! `dest` that reaches `until` covers half the mesh to price a
//! Manhattan+2 detour. `DistanceField::with_predicate_until` instead
//! settles nodes in order of `f(n) = dist(n) + manhattan(n, until)`.
//! Along a mesh edge `dist` grows by one and the Manhattan term moves by
//! one, so `f` grows by 0 or 2: a deque is the priority queue (step
//! towards `until`: front; step away: back) and the first pop of a node
//! carries its final distance. The flood stops once every node with
//! `f <= f(until) = dist(until)` is settled.
//!
//! That set is enough for the `+X, -X, +Y, -Y` gradient descent from
//! `until` to read what the full field would show it. By induction the
//! descent stands on a node `u` of some shortest `until`–`dest` path,
//! `k` hops in. A neighbour `v` with true distance `dist(u) - 1`
//! continues such a path, so `f(v) <= (dist(u) - 1) + (k + 1) =
//! dist(until)`: `v` is settled and its label is exact. Any other
//! neighbour has true distance `>= dist(u)`, and its label — settled,
//! tentative (an upper bound) or absent — is therefore never
//! `dist(u) - 1`. The descent takes the same step as on the full field,
//! every time. What the flood leaves tentative is not final, so the
//! result is a `StopField` that answers for `until` only.
//!
//! A caller that wants the path only if it is shorter than one it
//! already holds passes a `limit`: the flood then stops at `f > limit`,
//! and an `until` it has not settled by then — labelled or not — answers
//! as unreachable.

use std::collections::VecDeque;

use meshpath_mesh::{Coord, FaultSet, Grid, Mesh};

/// Distance field from a destination over non-faulty nodes.
///
/// `dist[c]` is the hop count of the shortest healthy path from `c` to
/// the destination, or `u32::MAX` when disconnected.
pub struct DistanceField {
    dist: Grid<u32>,
}

/// Marker distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Reusable storage of a goal-directed flood: the distance labels and
/// the deque. Labels carry the generation of the flood that wrote them,
/// so starting a flood is O(1) — no O(nodes) clear — and one scratch
/// serves floods over any sequence of meshes. Lives in
/// [`HopState`](crate::HopState); a caller driving the
/// [`Planner`](crate::seq::Planner) directly keeps a `FloodScratch::default()`.
#[derive(Debug, Default)]
pub struct FloodScratch {
    /// `(generation, distance)` per node id; a label is live when its
    /// generation is the current one.
    labels: Vec<(u32, u32)>,
    generation: u32,
    /// `(node, distance at push)`, ordered by `f`.
    queue: VecDeque<(Coord, u32)>,
}

impl FloodScratch {
    /// Invalidates every label and sizes the store for `mesh`.
    fn begin(&mut self, mesh: &Mesh) {
        self.queue.clear();
        if self.labels.len() < mesh.len() {
            self.labels.resize(mesh.len(), (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: labels of 2^32 floods ago would read as live.
            self.labels.fill((0, 0));
            self.generation = 1;
        }
    }

    #[inline]
    fn label(&self, id: usize) -> u32 {
        let (generation, dist) = self.labels[id];
        if generation == self.generation {
            dist
        } else {
            UNREACHABLE
        }
    }
}

/// The answer of one goal-directed flood: distance and descent path from
/// the flood's stop node to its destination, and nothing else — labels of
/// other nodes may be tentative or missing.
pub(crate) struct StopField<'a> {
    scratch: &'a FloodScratch,
    mesh: Mesh,
    dest: Coord,
    until: Coord,
    /// Whether the flood settled `until`: only then is its label final.
    settled: bool,
}

impl StopField<'_> {
    #[inline]
    fn label(&self, c: Coord) -> u32 {
        self.scratch.label(self.mesh.id(c).index())
    }

    /// Distance from the stop node to the destination ([`UNREACHABLE`]
    /// when disconnected or farther than the flood's limit, or when the
    /// stop node is impassable or outside the mesh).
    pub(crate) fn dist(&self) -> u32 {
        if self.settled {
            self.label(self.until)
        } else {
            UNREACHABLE
        }
    }

    /// The path `DistanceField::shortest_path` extracts from the stop
    /// node on the full field (same `+X, -X, +Y, -Y` tie-break).
    pub(crate) fn shortest_path(&self) -> Option<Vec<Coord>> {
        (self.dist() != UNREACHABLE)
            .then(|| descend(&self.mesh, self.until, self.dest, |c| self.label(c)))
    }
}

/// Gradient descent from `s` to `dest` over `dist` labels of in-mesh
/// nodes (deterministic tie-break: `+X, -X, +Y, -Y`).
fn descend(mesh: &Mesh, s: Coord, dest: Coord, dist: impl Fn(Coord) -> u32) -> Vec<Coord> {
    let mut path = vec![s];
    let mut u = s;
    while u != dest {
        let du = dist(u);
        let next = mesh
            .neighbors(u)
            .find(|&v| dist(v) == du - 1)
            .expect("gradient step must exist on a reachable field");
        path.push(next);
        u = next;
    }
    path
}

impl DistanceField {
    /// BFS from `dest` over all healthy nodes.
    ///
    /// # Panics
    /// Panics if `dest` is faulty or outside the mesh.
    pub fn healthy(faults: &FaultSet, dest: Coord) -> Self {
        assert!(faults.is_healthy(dest), "destination {dest:?} is not a healthy node");
        Self::with_predicate(*faults.mesh(), dest, |c| faults.is_healthy(c))
    }

    /// BFS from `dest` over an arbitrary passability predicate
    /// (`passable(dest)` must hold).
    pub(crate) fn with_predicate(
        mesh: Mesh,
        dest: Coord,
        passable: impl Fn(Coord) -> bool,
    ) -> Self {
        assert!(passable(dest), "destination {dest:?} is not passable");
        let mut dist = Grid::new(mesh, UNREACHABLE);
        let mut queue = VecDeque::new();
        dist[dest] = 0;
        queue.push_back(dest);
        while let Some(u) = queue.pop_front() {
            let du = dist[u];
            for v in mesh.neighbors(u) {
                if dist[v] == UNREACHABLE && passable(v) {
                    dist[v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        DistanceField { dist }
    }

    /// The goal-directed flood from `dest` towards `until` (module docs):
    /// settles exactly the nodes with `dist + manhattan(·, until) <=
    /// dist(until)`, which is what `StopField::dist` and
    /// `StopField::shortest_path` read. An `until` that is cut off,
    /// impassable or outside the mesh floods `dest`'s whole component and
    /// answers [`UNREACHABLE`] / `None`. With a `limit` the flood settles
    /// no node past `dist + manhattan(·, until) <= limit`, and answers
    /// the same for an `until` farther than `limit` from `dest`.
    ///
    /// # Panics
    /// Panics if `dest` is not passable.
    pub(crate) fn with_predicate_until(
        mesh: Mesh,
        dest: Coord,
        passable: impl Fn(Coord) -> bool,
        until: Coord,
        limit: Option<u32>,
        scratch: &mut FloodScratch,
    ) -> StopField<'_> {
        assert!(passable(dest), "destination {dest:?} is not passable");
        scratch.begin(&mesh);
        let generation = scratch.generation;
        scratch.labels[mesh.id(dest).index()] = (generation, 0);
        scratch.queue.push_back((dest, 0));
        // f(until), once `until` is settled; the limit until then.
        let mut bound = limit.unwrap_or(UNREACHABLE);
        let mut settled = false;
        while let Some(&(u, du)) = scratch.queue.front() {
            let hu = u.manhattan(until);
            if du + hu > bound {
                break;
            }
            scratch.queue.pop_front();
            if du > scratch.label(mesh.id(u).index()) {
                continue; // re-pushed at a smaller distance since
            }
            if u == until {
                bound = du;
                settled = true;
            }
            for v in mesh.neighbors(u) {
                let iv = mesh.id(v).index();
                if du + 1 < scratch.label(iv) && passable(v) {
                    scratch.labels[iv] = (generation, du + 1);
                    if v.manhattan(until) < hu {
                        scratch.queue.push_front((v, du + 1));
                    } else {
                        scratch.queue.push_back((v, du + 1));
                    }
                }
            }
        }
        StopField { scratch, mesh, dest, until, settled }
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

    /// Every node's distance by node id (row-major), [`UNREACHABLE`]
    /// where [`dist`](DistanceField::dist) says so.
    pub fn as_slice(&self) -> &[u32] {
        self.dist.as_slice()
    }

    /// True when a healthy path from `c` to the destination exists.
    #[inline]
    pub fn reachable(&self, c: Coord) -> bool {
        self.dist(c) != UNREACHABLE
    }

    /// Extracts one shortest path from `s` to the destination by gradient
    /// descent on the field (deterministic tie-break: `+X, -X, +Y, -Y`).
    #[cfg(test)]
    pub(crate) fn shortest_path(&self, s: Coord) -> Option<Vec<Coord>> {
        let mesh = self.dist.mesh();
        let dest = mesh.iter().find(|&c| self.dist[c] == 0)?;
        self.reachable(s).then(|| descend(mesh, s, dest, |c| self.dist[c]))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use meshpath_mesh::FaultInjection;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// `density` % uniform faults overlaid with up to two long walls and
    /// up to two U-shaped pockets: detours far beyond Manhattan + 2, and
    /// often a cut mesh. At least one node stays healthy.
    pub(crate) fn walled_faults(mesh: Mesh, density: usize, rng: &mut StdRng) -> FaultSet {
        let (w, h) = (mesh.width() as i32, mesh.height() as i32);
        let mut faults =
            FaultSet::random(mesh, mesh.len() * density / 100, FaultInjection::Uniform, rng);
        // Never the last healthy node: a flood needs a destination.
        let mut block = |c: Coord| {
            if mesh.contains(c) && faults.is_healthy(c) && faults.count() + 1 < mesh.len() {
                faults.inject(c);
            }
        };
        // Walls: axis-aligned runs, often most of a mesh dimension.
        for _ in 0..rng.gen_range(0..3) {
            let (x, y) = (rng.gen_range(0..w), rng.gen_range(0..h));
            let len = rng.gen_range(2..w.max(h));
            let along_x = rng.gen_bool(0.5);
            for i in 0..len {
                block(if along_x { Coord::new(x + i, y) } else { Coord::new(x, y + i) });
            }
        }
        // U-shaped pockets: three sides of a square ring, open on one.
        for _ in 0..rng.gen_range(0..3) {
            let (cx, cy) = (rng.gen_range(0..w), rng.gen_range(0..h));
            let r = rng.gen_range(1i32..5);
            let open = rng.gen_range(0..4);
            for i in -r..=r {
                let sides = [
                    Coord::new(cx + i, cy - r),
                    Coord::new(cx + i, cy + r),
                    Coord::new(cx - r, cy + i),
                    Coord::new(cx + r, cy + i),
                ];
                for (side, c) in sides.into_iter().enumerate() {
                    if side != open {
                        block(c);
                    }
                }
            }
        }
        faults
    }

    /// Asserts the flood's answer for `until` equals the full field's —
    /// under a `limit`, when `until` is within it, and is "unreachable"
    /// otherwise.
    fn assert_flood_matches_full(
        mesh: Mesh,
        passable: impl Fn(Coord) -> bool + Copy,
        dest: Coord,
        until: Coord,
        limit: Option<u32>,
        scratch: &mut FloodScratch,
    ) {
        let full = DistanceField::with_predicate(mesh, dest, passable);
        let stop = DistanceField::with_predicate_until(mesh, dest, passable, until, limit, scratch);
        let what = format!("{until:?} -> {dest:?} within {limit:?}");
        if limit.is_none_or(|l| full.dist(until) <= l) {
            assert_eq!(stop.dist(), full.dist(until), "distance {what}");
            assert_eq!(stop.shortest_path(), full.shortest_path(until), "path {what}");
        } else {
            assert_eq!(stop.dist(), UNREACHABLE, "distance {what}");
            assert_eq!(stop.shortest_path(), None, "path {what}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The goal-directed flood answers for its stop node exactly as
        /// the full field does — distance and the gradient-descent path —
        /// over uniform faults overlaid with long walls and U-shaped
        /// pockets (detours far beyond Manhattan + 2, so the flood must
        /// keep widening `f`), whether the stop node is near, far, the
        /// destination itself, impassable or cut off — and, under a
        /// random limit, exactly when the stop node is within it. One
        /// scratch serves every flood of a case.
        #[test]
        fn goal_directed_flood_equals_the_full_field_at_the_stop_node(
            ((w, h), density, seed) in ((3i32..24, 3i32..24), 0usize..35, 0u64..u64::MAX)
        ) {
            let mesh = Mesh::new(w as u32, h as u32);
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = walled_faults(mesh, density, &mut rng);
            let passable = |c: Coord| faults.is_healthy(c);
            let healthy: Vec<Coord> = mesh.iter().filter(|&c| passable(c)).collect();
            let mut scratch = FloodScratch::default();
            for _ in 0..24 {
                let dest = healthy[rng.gen_range(0..healthy.len())];
                // Any node of the mesh: healthy, faulty or cut off.
                let until = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                assert_flood_matches_full(mesh, passable, dest, until, None, &mut scratch);
                assert_flood_matches_full(mesh, passable, dest, dest, None, &mut scratch);
                // From under the Manhattan distance (always too tight) to
                // past most detours.
                let limit = Some(rng.gen_range(0..2 * (w + h) as u32));
                assert_flood_matches_full(mesh, passable, dest, until, limit, &mut scratch);
                assert_flood_matches_full(mesh, passable, dest, dest, limit, &mut scratch);
            }
        }
    }

    #[test]
    fn flood_prices_a_pocket_far_beyond_manhattan() {
        // `until` sits in a pocket that opens away from `dest`: the
        // shortest path leaves through the far side and walks around.
        let mesh = Mesh::square(12);
        let mut cells: Vec<Coord> = (3..=8).map(|y| Coord::new(7, y)).collect();
        cells.extend((3..=7).flat_map(|x| [Coord::new(x, 3), Coord::new(x, 8)]));
        let faults = FaultSet::from_coords(mesh, cells);
        let passable = |c: Coord| faults.is_healthy(c);
        let (until, dest) = (Coord::new(6, 5), Coord::new(9, 5));
        let mut scratch = FloodScratch::default();
        let stop =
            DistanceField::with_predicate_until(mesh, dest, passable, until, None, &mut scratch);
        let detour = stop.dist();
        assert!(detour > until.manhattan(dest) + 2, "detour of {detour}");
        assert_flood_matches_full(mesh, passable, dest, until, None, &mut scratch);
        // A limit of exactly the detour finds it; one short does not.
        assert_flood_matches_full(mesh, passable, dest, until, Some(detour), &mut scratch);
        assert_flood_matches_full(mesh, passable, dest, until, Some(detour - 1), &mut scratch);
    }

    #[test]
    fn flood_terminates_on_unanswerable_stop_nodes() {
        let mesh = Mesh::square(6);
        let faults = FaultSet::from_coords(mesh, (0..6).map(|y| Coord::new(3, y)));
        let passable = |c: Coord| faults.is_healthy(c);
        let dest = Coord::new(5, 2);
        let mut scratch = FloodScratch::default();
        // Cut off, impassable, outside the mesh.
        for until in [Coord::new(0, 0), Coord::new(3, 3), Coord::new(-1, 7)] {
            let stop = DistanceField::with_predicate_until(
                mesh,
                dest,
                passable,
                until,
                None,
                &mut scratch,
            );
            assert_eq!(stop.dist(), UNREACHABLE, "{until:?}");
            assert_eq!(stop.shortest_path(), None, "{until:?}");
        }
    }

    #[test]
    fn one_scratch_serves_floods_over_different_meshes() {
        let mut scratch = FloodScratch::default();
        for side in [9u32, 4, 12] {
            let mesh = Mesh::square(side);
            let far = Coord::new(side as i32 - 1, side as i32 - 1);
            let faults = FaultSet::from_coords(mesh, [Coord::new(1, 1)]);
            let passable = |c: Coord| faults.is_healthy(c);
            assert_flood_matches_full(mesh, passable, Coord::new(0, 0), far, None, &mut scratch);
            assert_flood_matches_full(mesh, passable, far, Coord::new(1, 0), None, &mut scratch);
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
