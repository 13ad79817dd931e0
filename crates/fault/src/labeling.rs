//! The useless / can't-reach labeling fixpoint (paper Section 2).
//!
//! All labeling happens in *oriented* coordinates: the fault set is viewed
//! through an [`Orientation`] so that the destination quadrant is always
//! `(+X, +Y)` and the two labeling rules keep their canonical form. The
//! [`Labeling`] keeps the orientation so callers can query in either frame.
//!
//! **Dual labels.** The paper treats *useless* and *can't-reach* as
//! exclusive statuses, but a node can satisfy both definitions at once
//! (e.g. the center of a plus-shaped fault). Which label such a node gets
//! would then depend on evaluation order — and the choice changes what
//! propagates, because useless feeds only the `+X/+Y` rule and can't-reach
//! only the `-X/-Y` rule. To keep the fixpoint order-independent (so a
//! delta-seeded worklist and a whole-mesh sweep reach the same answer),
//! this implementation computes the two predicates *independently* as
//! least fixpoints; a node may carry both flags. [`NodeStatus`] reports
//! `Useless` for dual-flagged nodes; the exact predicates are exposed via
//! [`Labeling::is_useless`] and [`Labeling::is_cant_reach`].

use meshpath_mesh::{Coord, Dir, FaultSet, Grid, Mesh, Orientation};

/// Bit flags of the labeling predicates.
const FAULTY: u8 = 1;
const USELESS: u8 = 2;
const CANT_REACH: u8 = 4;

/// Status of a node under the MCC labeling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeStatus {
    /// Non-faulty and usable on some shortest (monotone) path.
    Safe,
    /// Hardware fault.
    Faulty,
    /// Non-faulty, but once a routing enters it the next move must take a
    /// `-X`/`-Y` direction (its `+X` and `+Y` neighbors are blocked).
    /// Also reported for nodes that are *both* useless and can't-reach.
    Useless,
    /// Non-faulty, but entering it requires a `-X`/`-Y` move (its `-X` and
    /// `-Y` neighbors are blocked).
    CantReach,
}

impl NodeStatus {
    /// Faulty, useless or can't-reach — i.e. a member of an MCC.
    #[inline]
    pub fn is_unsafe(self) -> bool {
        !matches!(self, NodeStatus::Safe)
    }

    /// The complement of [`NodeStatus::is_unsafe`].
    #[inline]
    pub fn is_safe(self) -> bool {
        matches!(self, NodeStatus::Safe)
    }

    fn from_mask(mask: u8) -> NodeStatus {
        if mask & FAULTY != 0 {
            NodeStatus::Faulty
        } else if mask & USELESS != 0 {
            NodeStatus::Useless
        } else if mask & CANT_REACH != 0 {
            NodeStatus::CantReach
        } else {
            NodeStatus::Safe
        }
    }
}

/// How a missing (out-of-mesh) neighbor is treated by the labeling rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BorderPolicy {
    /// A missing neighbor never blocks (default). Under this policy the
    /// labeling equals the unbounded-mesh labeling restricted to the mesh,
    /// and every MCC is a rising staircase (see `mcc` module docs).
    #[default]
    Open,
    /// A missing neighbor counts as blocked, treating the mesh border as a
    /// fault wall. Exploratory only: a fault-free mesh then labels its
    /// north-east border unsafe, which is intentionally conservative.
    Blocking,
}

/// The fixpoint labeling of a fault configuration under one orientation.
#[derive(Clone, Debug)]
pub struct Labeling {
    mesh: Mesh,
    orientation: Orientation,
    border: BorderPolicy,
    /// Predicate mask per node, indexed by oriented coordinates.
    mask: Grid<u8>,
    unsafe_count: usize,
    faulty_count: usize,
}

impl Labeling {
    /// Runs the iterative labeling procedure to fixpoint.
    ///
    /// `faults` is given in real coordinates; `orientation` maps real to
    /// oriented coordinates (the frame where the destination quadrant is
    /// `(+X, +Y)`).
    pub fn compute(faults: &FaultSet, orientation: Orientation, border: BorderPolicy) -> Self {
        let mesh = *faults.mesh();
        let mut mask = Grid::new(mesh, 0u8);
        // `Orientation::apply` is an involution, so it maps real
        // coordinates to oriented ones just as well.
        for c in faults.iter() {
            mask[orientation.apply(&mesh, c)] = FAULTY;
        }

        // Independent least fixpoints for the two predicates, driven by a
        // shared worklist. Flags only ever get added, so the iteration
        // terminates after at most 2n insertions. The least fixpoint is
        // unique, so any seed containing every cell that can gain a flag
        // *before* propagation starts converges to the same labeling as
        // seeding with every cell: a first gain needs both relevant
        // neighbors blocked, and pre-propagation a neighbor is blocked
        // only by being faulty or (under `BorderPolicy::Blocking`) out of
        // mesh. The faulty cells' in-mesh neighbors — plus the mesh rim
        // when the border blocks — are therefore a sufficient seed,
        // keeping the fault-free bulk untouched.
        let mut work: Vec<Coord> = Vec::new();
        for c in faults.iter() {
            let oc = orientation.apply(&mesh, c);
            work.extend(Dir::ALL.into_iter().map(|d| oc.step(d)).filter(|&v| mesh.contains(v)));
        }
        if border == BorderPolicy::Blocking {
            let (w, h) = (mesh.width() as i32, mesh.height() as i32);
            work.extend((0..w).flat_map(|x| [Coord::new(x, 0), Coord::new(x, h - 1)]));
            work.extend((0..h).flat_map(|y| [Coord::new(0, y), Coord::new(w - 1, y)]));
        }
        let mut unsafe_count = faults.count();
        run_fixpoint(&mesh, border, &mut mask, work, &mut unsafe_count, None);

        Labeling { mesh, orientation, border, mask, unsafe_count, faulty_count: faults.count() }
    }

    /// Incrementally relabels after one fault is **injected** at real
    /// coordinate `c` (`faults` is the *new* fault set, already
    /// containing `c`). Returns the new labeling plus the oriented
    /// coordinates whose predicate mask changed (the fault cell first).
    ///
    /// The labeling rules are monotone in the fault set, so the old
    /// fixpoint remains consistent everywhere except where propagation
    /// newly starts at `c`: re-running the worklist seeded with `c`'s
    /// neighbors converges to exactly the from-scratch least fixpoint
    /// (uniqueness), touching only the delta.
    pub fn with_fault_added(&self, faults: &FaultSet, c: Coord) -> (Labeling, Vec<Coord>) {
        debug_assert!(faults.is_faulty(c), "with_fault_added wants the new fault set");
        let mesh = self.mesh;
        let oc = self.orientation.apply(&mesh, c);
        let mut mask = self.mask.clone();
        let old = mask[oc];
        debug_assert_eq!(old & FAULTY, 0, "node {oc:?} was already faulty");
        let mut unsafe_count = self.unsafe_count + usize::from(old == 0);
        mask[oc] = FAULTY;
        let mut changed = vec![oc];
        let work: Vec<Coord> =
            Dir::ALL.into_iter().map(|d| oc.step(d)).filter(|&v| mesh.contains(v)).collect();
        run_fixpoint(&mesh, self.border, &mut mask, work, &mut unsafe_count, Some(&mut changed));
        let labeling = Labeling {
            mesh,
            orientation: self.orientation,
            border: self.border,
            mask,
            unsafe_count,
            faulty_count: faults.count(),
        };
        (labeling, changed)
    }

    /// Incrementally relabels after the fault at real coordinate `c` is
    /// **repaired** (`faults` is the new fault set, without `c`).
    /// `component` must list the oriented cells of the MCC that
    /// contained `c` under the old labeling: repairs can only change
    /// labels inside that component (flag derivations never cross
    /// between 4-connected unsafe components), so the fixpoint is
    /// re-run over those cells alone. Returns the new labeling plus the
    /// oriented coordinates whose mask changed.
    pub fn with_fault_removed(
        &self,
        faults: &FaultSet,
        c: Coord,
        component: &[Coord],
    ) -> (Labeling, Vec<Coord>) {
        debug_assert!(!faults.is_faulty(c), "with_fault_removed wants the new fault set");
        let mesh = self.mesh;
        let oc = self.orientation.apply(&mesh, c);
        debug_assert!(component.contains(&oc), "component must contain the repaired cell");
        let mut mask = self.mask.clone();
        let mut unsafe_count = self.unsafe_count;
        // Reset the component to its fault skeleton (the repaired cell
        // becomes plain healthy) and re-derive the healthy flags from
        // scratch within it.
        for &cc in component {
            debug_assert_ne!(self.mask[cc], 0, "component cells are unsafe");
            let keep = if cc == oc { 0 } else { mask[cc] & FAULTY };
            mask[cc] = keep;
            if keep == 0 {
                unsafe_count -= 1;
            }
        }
        run_fixpoint(&mesh, self.border, &mut mask, component.to_vec(), &mut unsafe_count, None);
        let changed: Vec<Coord> =
            component.iter().copied().filter(|&cc| mask[cc] != self.mask[cc]).collect();
        let labeling = Labeling {
            mesh,
            orientation: self.orientation,
            border: self.border,
            mask,
            unsafe_count,
            faulty_count: faults.count(),
        };
        (labeling, changed)
    }

    /// The nodes' predicate masks (oriented frame), 0 exactly on a safe
    /// node: [`is_safe_node`](Self::is_safe_node) by node id.
    #[inline]
    pub fn masks(&self) -> &Grid<u8> {
        &self.mask
    }

    /// The mesh being labeled.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The orientation this labeling was computed for.
    #[inline]
    pub(crate) fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// The border policy used.
    #[inline]
    pub fn border_policy(&self) -> BorderPolicy {
        self.border
    }

    #[inline]
    fn mask_at(&self, oc: Coord) -> u8 {
        match self.mask.get(oc) {
            Some(&m) => m,
            None => match self.border {
                BorderPolicy::Open => 0,
                BorderPolicy::Blocking => FAULTY,
            },
        }
    }

    /// Status of the node at *oriented* coordinate `oc`. Out-of-mesh
    /// coordinates report `Safe` under [`BorderPolicy::Open`] and `Faulty`
    /// under [`BorderPolicy::Blocking`], mirroring the labeling rules.
    #[inline]
    pub fn status(&self, oc: Coord) -> NodeStatus {
        NodeStatus::from_mask(self.mask_at(oc))
    }

    /// Status of the node at *real* coordinate `c`.
    #[inline]
    pub fn status_real(&self, c: Coord) -> NodeStatus {
        self.status(self.orientation.apply(&self.mesh, c))
    }

    /// The exact useless predicate (oriented coordinate).
    #[inline]
    pub fn is_useless(&self, oc: Coord) -> bool {
        self.mask_at(oc) & USELESS != 0
    }

    /// The exact can't-reach predicate (oriented coordinate).
    #[inline]
    pub fn is_cant_reach(&self, oc: Coord) -> bool {
        self.mask_at(oc) & CANT_REACH != 0
    }

    /// True when the node at oriented coordinate `oc` is safe **and**
    /// inside the mesh.
    #[inline]
    pub fn is_safe_node(&self, oc: Coord) -> bool {
        self.mesh.contains(oc) && self.mask_at(oc) == 0
    }

    /// Total unsafe nodes (faulty + useless + can't-reach).
    #[inline]
    pub fn unsafe_count(&self) -> usize {
        self.unsafe_count
    }

    /// Number of faulty nodes.
    #[inline]
    pub fn faulty_count(&self) -> usize {
        self.faulty_count
    }

    /// Non-faulty nodes swallowed by MCCs (useless + can't-reach).
    #[inline]
    pub(crate) fn healthy_unsafe_count(&self) -> usize {
        self.unsafe_count - self.faulty_count
    }

    /// Number of safe nodes.
    #[inline]
    pub fn safe_count(&self) -> usize {
        self.mesh.len() - self.unsafe_count
    }

    /// Iterator over oriented coordinates of all unsafe nodes, in
    /// row-major order.
    pub(crate) fn unsafe_nodes(&self) -> impl Iterator<Item = Coord> + '_ {
        self.mask.iter().filter(|&(_, &m)| m != 0).map(|(oc, _)| oc)
    }
}

/// The shared worklist fixpoint: applies the two labeling rules until
/// stable, starting from `work`. `unsafe_count` is kept current;
/// `changed`, when given, records every cell that gained a flag (cells
/// may appear once per distinct gain).
fn run_fixpoint(
    mesh: &Mesh,
    border: BorderPolicy,
    mask: &mut Grid<u8>,
    mut work: Vec<Coord>,
    unsafe_count: &mut usize,
    mut changed: Option<&mut Vec<Coord>>,
) {
    let blocked = |mask: &Grid<u8>, c: Coord, bit: u8| -> bool {
        match mask.get(c) {
            Some(&m) => m & (FAULTY | bit) != 0,
            None => border == BorderPolicy::Blocking,
        }
    };
    while let Some(u) = work.pop() {
        let m = mask[u];
        if m & FAULTY != 0 {
            continue;
        }
        let mut gained = 0u8;
        if m & USELESS == 0
            && blocked(mask, u.step(Dir::PlusX), USELESS)
            && blocked(mask, u.step(Dir::PlusY), USELESS)
        {
            gained |= USELESS;
        }
        if m & CANT_REACH == 0
            && blocked(mask, u.step(Dir::MinusX), CANT_REACH)
            && blocked(mask, u.step(Dir::MinusY), CANT_REACH)
        {
            gained |= CANT_REACH;
        }
        if gained != 0 {
            if m == 0 {
                *unsafe_count += 1;
            }
            mask[u] = m | gained;
            if let Some(changed) = changed.as_deref_mut() {
                changed.push(u);
            }
            if gained & USELESS != 0 {
                for d in [Dir::MinusX, Dir::MinusY] {
                    let v = u.step(d);
                    if mesh.contains(v) {
                        work.push(v);
                    }
                }
            }
            if gained & CANT_REACH != 0 {
                for d in [Dir::PlusX, Dir::PlusY] {
                    let v = u.step(d);
                    if mesh.contains(v) {
                        work.push(v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{FaultInjection, FaultSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn label(mesh: Mesh, faults: &[(i32, i32)]) -> Labeling {
        let fs = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        Labeling::compute(&fs, Orientation::IDENTITY, BorderPolicy::Open)
    }

    #[test]
    fn fault_free_mesh_is_all_safe() {
        let l = label(Mesh::square(8), &[]);
        assert_eq!(l.unsafe_count(), 0);
        assert_eq!(l.safe_count(), 64);
    }

    #[test]
    fn single_fault_adds_no_labels() {
        let l = label(Mesh::square(8), &[(3, 3)]);
        assert_eq!(l.unsafe_count(), 1);
        assert_eq!(l.status(Coord::new(3, 3)), NodeStatus::Faulty);
        assert_eq!(l.status(Coord::new(2, 2)), NodeStatus::Safe);
    }

    #[test]
    fn anti_diagonal_pair_fills_to_block() {
        // Faults at (0,1) and (1,0): the paper's canonical example.
        // (0,0) becomes useless (its +X and +Y neighbors are faulty);
        // (1,1) becomes can't-reach (its -X and -Y neighbors are faulty).
        let l = label(Mesh::square(8), &[(0, 1), (1, 0)]);
        assert_eq!(l.status(Coord::new(0, 0)), NodeStatus::Useless);
        assert_eq!(l.status(Coord::new(1, 1)), NodeStatus::CantReach);
        assert_eq!(l.unsafe_count(), 4);
    }

    #[test]
    fn plus_shaped_fault_center_is_dual_labeled() {
        // Faults at the four arms of a plus: the center is simultaneously
        // useless (+X/+Y faulty) and can't-reach (-X/-Y faulty).
        let l = label(Mesh::square(9), &[(4, 5), (4, 3), (3, 4), (5, 4)]);
        let center = Coord::new(4, 4);
        assert!(l.is_useless(center));
        assert!(l.is_cant_reach(center));
        assert_eq!(l.status(center), NodeStatus::Useless);
        // Besides the center, (3,3) becomes useless (+X/+Y arms faulty)
        // and (5,5) can't-reach (-X/-Y arms faulty): 4 faults + 3 labels.
        assert!(l.is_useless(Coord::new(3, 3)));
        assert!(l.is_cant_reach(Coord::new(5, 5)));
        assert_eq!(l.unsafe_count(), 7);
    }

    #[test]
    fn dual_label_propagates_both_rules() {
        // A dual-labeled node must feed BOTH rules: its -X/-Y neighbors
        // can become useless through it, and its +X/+Y neighbors
        // can't-reach through it. Build a chain that only closes if the
        // dual node propagates as useless.
        let l = label(Mesh::square(9), &[(4, 5), (4, 3), (3, 4), (5, 4), (3, 5), (5, 3)]);
        // (3,3): +X neighbor (4,3) faulty; +Y neighbor (3,4) faulty =>
        // useless regardless. (4,4) center is dual. Now (3,4) is faulty...
        // Check a node depending on the center's uselessness: (3,3)?
        // Instead verify directly: (5,5) has -X=(4,5) faulty, -Y=(5,4)
        // faulty => can't-reach; and (4,4) dual still counts for both.
        assert!(l.is_useless(Coord::new(4, 4)));
        assert!(l.is_cant_reach(Coord::new(4, 4)));
        assert!(l.is_cant_reach(Coord::new(5, 5)));
        assert!(l.is_useless(Coord::new(3, 3)));
    }

    #[test]
    fn descending_staircase_fills_to_rectangle() {
        // Faults on the NW-SE descending diagonal of a 3x3 box: the
        // closure must fill the whole box (any monotone path through it is
        // blocked).
        let l = label(Mesh::square(10), &[(2, 4), (3, 3), (4, 2)]);
        for x in 2..=4 {
            for y in 2..=4 {
                assert!(l.status(Coord::new(x, y)).is_unsafe(), "({x},{y}) should be unsafe");
            }
        }
        assert_eq!(l.unsafe_count(), 9);
    }

    #[test]
    fn ascending_staircase_is_stable() {
        // Faults on a SW-NE ascending staircase do not block monotone
        // paths; no extra labels appear.
        let l = label(Mesh::square(10), &[(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)]);
        assert_eq!(l.unsafe_count(), 5);
    }

    #[test]
    fn open_border_keeps_borders_safe() {
        let l = label(Mesh::square(5), &[]);
        assert_eq!(l.status(Coord::new(4, 4)), NodeStatus::Safe);
        // Out-of-mesh coordinates read Safe under the Open policy.
        assert_eq!(l.status(Coord::new(5, 4)), NodeStatus::Safe);
    }

    #[test]
    fn blocking_border_labels_ne_corner() {
        let fs = FaultSet::none(Mesh::square(5));
        let l = Labeling::compute(&fs, Orientation::IDENTITY, BorderPolicy::Blocking);
        // With the border acting as a fault wall, the NE corner node has
        // both +X and +Y missing => useless, and the labels cascade along
        // the whole north-east rim.
        assert_eq!(l.status(Coord::new(4, 4)), NodeStatus::Useless);
        assert!(l.unsafe_count() > 0);
    }

    #[test]
    fn orientation_relabels_the_quadrant() {
        // Fault pattern blocking the NE quadrant of the identity frame
        // behaves like the NW quadrant once X is flipped.
        let mesh = Mesh::square(8);
        let fs = FaultSet::from_coords(mesh, [Coord::new(6, 1), Coord::new(7, 0)]);
        let id = Labeling::compute(&fs, Orientation::IDENTITY, BorderPolicy::Open);
        // Identity frame: (6,0) is useless and (7,1) can't-reach, so the
        // anti-diagonal pair fills to a 2x2 block.
        assert_eq!(id.unsafe_count(), 4);
        assert_eq!(id.status(Coord::new(6, 0)), NodeStatus::Useless);
        assert_eq!(id.status(Coord::new(7, 1)), NodeStatus::CantReach);
        let flipped =
            Labeling::compute(&fs, Orientation { flip_x: true, flip_y: false }, BorderPolicy::Open);
        // In the flipped frame the faults sit at oriented (1,1) and (0,0):
        // a diagonal pair, which does not fill.
        assert_eq!(flipped.unsafe_count(), 2);
        // Real-frame queries agree with the fault set regardless of frame.
        assert!(flipped.status_real(Coord::new(6, 1)).is_unsafe());
        assert!(flipped.status_real(Coord::new(7, 0)).is_unsafe());
    }

    #[test]
    fn useless_chain_terminates_at_fault_in_same_column() {
        // Column of faults with a staircase that forces a long useless
        // cascade: every useless node must have a faulty node due north in
        // its own column (invariant used in the staircase-shape proof).
        let l = label(
            Mesh::square(12),
            &[(5, 8), (6, 7), (7, 6), (8, 5), (6, 8), (7, 7), (8, 6), (5, 9), (8, 7)],
        );
        for oc in l.mesh().iter() {
            if l.is_useless(oc) {
                let mut y = oc.y + 1;
                let mut found = false;
                while y < 12 {
                    let c = Coord::new(oc.x, y);
                    if l.status(c) == NodeStatus::Faulty {
                        found = true;
                        break;
                    } else if l.is_useless(c) {
                        y += 1;
                    } else {
                        break;
                    }
                }
                assert!(found, "useless node {oc:?} lacks a fault due north");
            }
        }
    }

    #[test]
    fn incremental_add_matches_full_compute() {
        let mesh = Mesh::square(12);
        let base: Vec<Coord> =
            [(2, 4), (3, 3), (4, 2), (8, 8)].iter().map(|&(x, y)| Coord::new(x, y)).collect();
        for o in meshpath_mesh::Orientation::ALL {
            let mut faults = FaultSet::from_coords(mesh, base.clone());
            let mut lab = Labeling::compute(&faults, o, BorderPolicy::Open);
            for add in [Coord::new(3, 4), Coord::new(9, 7), Coord::new(0, 0)] {
                faults.inject(add);
                let (inc, changed) = lab.with_fault_added(&faults, add);
                let full = Labeling::compute(&faults, o, BorderPolicy::Open);
                for oc in mesh.iter() {
                    assert_eq!(inc.masks()[oc], full.masks()[oc], "mask mismatch at {oc:?}");
                }
                assert_eq!(inc.unsafe_count(), full.unsafe_count());
                assert_eq!(inc.faulty_count(), full.faulty_count());
                assert!(changed.contains(&o.apply(&mesh, add)));
                lab = inc;
            }
        }
    }

    #[test]
    fn incremental_remove_matches_full_compute() {
        let mesh = Mesh::square(12);
        let coords: Vec<Coord> = [(2, 4), (3, 3), (4, 2), (8, 8), (3, 4)]
            .iter()
            .map(|&(x, y)| Coord::new(x, y))
            .collect();
        for o in meshpath_mesh::Orientation::ALL {
            for &rm in &coords {
                let faults = FaultSet::from_coords(mesh, coords.clone());
                let lab = Labeling::compute(&faults, o, BorderPolicy::Open);
                // The old component containing rm, via a direct flood fill
                // over unsafe cells (what MccSet::cells() reports).
                let orm = o.apply(&mesh, rm);
                let mut comp = vec![orm];
                let mut seen = std::collections::HashSet::from([orm]);
                let mut stack = vec![orm];
                while let Some(u) = stack.pop() {
                    for v in mesh.neighbors(u) {
                        if lab.status(v).is_unsafe() && seen.insert(v) {
                            comp.push(v);
                            stack.push(v);
                        }
                    }
                }
                let mut repaired = faults.clone();
                repaired.repair(rm);
                let (inc, changed) = lab.with_fault_removed(&repaired, rm, &comp);
                let full = Labeling::compute(&repaired, o, BorderPolicy::Open);
                for oc in mesh.iter() {
                    assert_eq!(inc.masks()[oc], full.masks()[oc], "mask mismatch at {oc:?}");
                }
                assert_eq!(inc.unsafe_count(), full.unsafe_count());
                assert!(changed.contains(&orm));
            }
        }
    }

    #[test]
    fn labeling_on_a_512x512_mesh_matches_known_pattern() {
        // The canonical anti-diagonal fill, far from the borders of a
        // large mesh.
        let mesh = Mesh::square(512);
        let fs = FaultSet::from_coords(mesh, [Coord::new(100, 101), Coord::new(101, 100)]);
        let l = Labeling::compute(&fs, Orientation::IDENTITY, BorderPolicy::Open);
        assert_eq!(l.status(Coord::new(100, 100)), NodeStatus::Useless);
        assert_eq!(l.status(Coord::new(101, 101)), NodeStatus::CantReach);
        assert_eq!(l.unsafe_count(), 4);
        let cells: Vec<Coord> = l.unsafe_nodes().collect();
        // Row-major order, exactly the 2x2 block.
        assert_eq!(
            cells,
            vec![
                Coord::new(100, 100),
                Coord::new(101, 100),
                Coord::new(100, 101),
                Coord::new(101, 101)
            ]
        );
    }

    /// The labeling rules applied to every cell at once, in synchronous
    /// rounds over the previous round's masks, until no mask changes: the
    /// least fixpoint with no seed and no evaluation order to get wrong.
    fn whole_mesh_reference(fs: &FaultSet, o: Orientation, border: BorderPolicy) -> Grid<u8> {
        let mesh = *fs.mesh();
        let mut mask = Grid::from_fn(mesh, |oc| u8::from(fs.is_faulty(o.apply(&mesh, oc))));
        loop {
            let blocked = |c: Coord, bit: u8| match mask.get(c) {
                Some(&m) => m & (FAULTY | bit) != 0,
                None => border == BorderPolicy::Blocking,
            };
            let next = Grid::from_fn(mesh, |u| {
                let m = mask[u];
                if m & FAULTY != 0 {
                    return m;
                }
                let useless =
                    blocked(u.step(Dir::PlusX), USELESS) && blocked(u.step(Dir::PlusY), USELESS);
                let cant_reach = blocked(u.step(Dir::MinusX), CANT_REACH)
                    && blocked(u.step(Dir::MinusY), CANT_REACH);
                m | if useless { USELESS } else { 0 } | if cant_reach { CANT_REACH } else { 0 }
            });
            if mesh.iter().all(|c| next[c] == mask[c]) {
                return mask;
            }
            mask = next;
        }
    }

    #[test]
    fn compute_equals_the_whole_mesh_reference() {
        let from = |n: u32, coords: &[(i32, i32)]| {
            FaultSet::from_coords(Mesh::square(n), coords.iter().map(|&(x, y)| Coord::new(x, y)))
        };
        let mut inputs = vec![
            from(12, &[]),
            from(12, &[(5, 5)]),
            from(12, &[(2, 3), (3, 2)]),
            from(12, &[(2, 4), (3, 3), (4, 2), (8, 8), (8, 9), (9, 8)]),
            from(12, &[(4, 5), (4, 3), (3, 4), (5, 4)]), // plus shape: dual label
            from(16, &[(3, 5), (4, 4), (5, 3), (10, 10), (11, 9), (2, 12)]),
        ];
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..10 {
            inputs.push(FaultSet::random(
                Mesh::square(20),
                30 + 10 * trial,
                FaultInjection::Uniform,
                &mut rng,
            ));
        }
        for fs in &inputs {
            for o in Orientation::ALL {
                for border in [BorderPolicy::Open, BorderPolicy::Blocking] {
                    let lab = Labeling::compute(fs, o, border);
                    let reference = whole_mesh_reference(fs, o, border);
                    for oc in fs.mesh().iter() {
                        assert_eq!(
                            lab.masks()[oc],
                            reference[oc],
                            "{oc:?} under {o:?}, {border:?}, faults {:?}",
                            fs.iter().collect::<Vec<_>>()
                        );
                    }
                    let unsafe_cells = fs.mesh().iter().filter(|&oc| reference[oc] != 0).count();
                    assert_eq!(lab.unsafe_count(), unsafe_cells);
                }
            }
        }
    }
}
