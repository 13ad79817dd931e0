//! Per-MCC boundary polylines, hit relations and merge lists.
//!
//! For every MCC `F` with a usable initialization corner `c` and opposite
//! corner `c'`, four boundary walks exist (paper Algorithms 1, 4 and 6):
//!
//! * `west_y` — the `-X` boundary: from `c` south along `x = x_c`,
//!   turning **right** around intervening MCCs (joining their `-X`
//!   boundary at their corner);
//! * `east_y` — the `+X` boundary: from `c'` south along `x = x_{c'}`,
//!   turning **left** (joining `+X` boundaries at opposite corners);
//! * `south_x` — the `-Y` boundary: from `c` west along `y = y_c`,
//!   turning **left**;
//! * `north_x` — the `+Y` boundary: from `c'` west along `y = y_{c'}`,
//!   turning **right**.
//!
//! The walks double as the merge machinery: the MCCs hit by the Y-walks
//! are exactly those whose forbidden regions merge into `F`'s (the walk
//! continues along their boundary), giving the `merged_y`/`merged_x`
//! shadow lists the routing layer pairs with `F`'s critical region.
//!
//! B3's split propagations and the Eq.-4 relation records are derived from
//! the same walks.
//!
//! **What a set stores.** A [`BoundarySet`] is a few flat arrays, laid out
//! in MCC-id order: one `WalkStore` holding every walk two bits a step,
//! per MCC the end of its walks there, and the contour nodes, merge lists
//! and Eq.-4 candidates each as one item array with per-MCC ends.
//! [`MccBoundaries`] and [`Walk`] are borrowed views into it. A record
//! reused by an incremental update is copied into the same layout, so an
//! updated set equals a from-scratch build field for field.

use meshpath_fault::{Mcc, MccId, MccSet};
use meshpath_mesh::Coord;

use crate::walker::{index, Walk, WalkConfig, WalkStore, Walker};

/// Per-MCC lists in one flat array (compressed sparse rows): list `i` is
/// `items[ends[i - 1]..ends[i]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Lists<T> {
    ends: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Lists<T> {
    fn default() -> Self {
        Lists { ends: Vec::new(), items: Vec::new() }
    }
}

impl<T: Copy + Ord> Lists<T> {
    /// List `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[T] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.items[start..self.ends[i] as usize]
    }

    /// Appends, as the next list, the distinct items of `list`, ascending.
    fn push_set(&mut self, list: impl IntoIterator<Item = T>) {
        let from = self.items.len();
        self.items.extend(list);
        self.items[from..].sort_unstable();
        let mut kept = from;
        for i in from..self.items.len() {
            if kept == from || self.items[i] != self.items[kept - 1] {
                self.items[kept] = self.items[i];
                kept += 1;
            }
        }
        self.items.truncate(kept);
        self.ends.push(index(kept));
    }

    /// The lists `0..n` of `(list, item)` pairs, each list's items in pair
    /// order.
    fn grouped(n: usize, mut pairs: Vec<(usize, T)>) -> Self {
        pairs.sort_by_key(|&(i, _)| i); // stable: a list keeps pair order
        let items = pairs.iter().map(|&(_, t)| t).collect();
        let mut ends = Vec::with_capacity(n);
        let mut end = 0;
        for i in 0..n {
            end += pairs[end..].iter().take_while(|&&(j, _)| j == i).count();
            ends.push(index(end));
        }
        Lists { ends, items }
    }

    fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.items.shrink_to_fit();
    }
}

/// All boundaries of one [`MccSet`], plus Eq.-4 relation records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundarySet {
    walks: WalkStore,
    /// Per MCC, the end of its walks in `walks`. They are `west_y`,
    /// `east_y`, `south_x` and `north_x`, then one B3 split per `west_y`
    /// hit, then one per `south_x` hit.
    walk_ends: Vec<u32>,
    /// Per MCC, its identification contour.
    edge_nodes: Lists<Coord>,
    /// Per MCC, the MCCs whose Y-shadows (X-shadows) merge into its
    /// Y-region (X-region).
    pub(crate) merged_y: Lists<MccId>,
    pub(crate) merged_x: Lists<MccId>,
    /// Per MCC `v`: the recorded type-I relations `F(v) -> F(c)` (the
    /// candidates for `v`'s succeeding MCC, Eq. 4).
    succ_candidates_y: Lists<MccId>,
    /// Per MCC `v`: the type-II relation candidates.
    succ_candidates_x: Lists<MccId>,
}

/// The boundary structures of one MCC, borrowed from its [`BoundarySet`].
#[derive(Clone, Copy)]
pub struct MccBoundaries<'a> {
    set: &'a BoundarySet,
    id: MccId,
}

impl<'a> MccBoundaries<'a> {
    /// The MCC these boundaries belong to.
    pub fn id(&self) -> MccId {
        self.id
    }

    /// Index of the record's first walk in the store.
    fn first_walk(&self) -> usize {
        match self.id.index() {
            0 => 0,
            i => self.set.walk_ends[i - 1] as usize,
        }
    }

    /// The record's walks from its `k`-th on.
    fn walks_from(&self, k: usize) -> impl Iterator<Item = Walk<'a>> + 'a {
        let walks = &self.set.walks;
        (self.first_walk() + k..self.set.walk_ends[self.id.index()] as usize).map(|i| walks.get(i))
    }

    /// `-X` boundary (empty when the initialization corner is unusable).
    pub fn west_y(&self) -> Walk<'a> {
        self.set.walks.get(self.first_walk())
    }

    /// `+X` boundary (empty when the opposite corner is unusable).
    pub fn east_y(&self) -> Walk<'a> {
        self.set.walks.get(self.first_walk() + 1)
    }

    /// `-Y` boundary.
    pub fn south_x(&self) -> Walk<'a> {
        self.set.walks.get(self.first_walk() + 2)
    }

    /// `+Y` boundary.
    pub fn north_x(&self) -> Walk<'a> {
        self.set.walks.get(self.first_walk() + 3)
    }

    /// B3 split propagations spawned at `west_y` hits, one per hit (each
    /// rounds the hit MCC once and merges into its `+X` boundary).
    pub fn splits_y(&self) -> impl Iterator<Item = Walk<'a>> + 'a {
        self.walks_from(4).take(self.west_y().hits().len())
    }

    /// B3 split propagations spawned at `south_x` hits.
    pub fn splits_x(&self) -> impl Iterator<Item = Walk<'a>> + 'a {
        self.walks_from(4 + self.west_y().hits().len())
    }

    /// Safe nodes adjacent to the MCC's cells (the identification contour
    /// traversed by the clockwise/counter-clockwise shape messages).
    pub fn edge_nodes(&self) -> &'a [Coord] {
        self.set.edge_nodes.get(self.id.index())
    }

    /// MCC ids whose Y-shadows merge into this MCC's Y-region
    /// (self + transitive hits of both Y-walks), ascending.
    pub fn merged_y(&self) -> &'a [MccId] {
        self.set.merged_y.get(self.id.index())
    }

    /// MCC ids whose X-shadows merge into this MCC's X-region.
    pub fn merged_x(&self) -> &'a [MccId] {
        self.set.merged_x.get(self.id.index())
    }

    /// Every coordinate this boundary record stores (walk nodes, split
    /// nodes, hit points, contour nodes) — the footprint used by the
    /// incremental layer's dirty test: a record whose footprint stays
    /// clear of all relabeled cells was derived from unchanged reads
    /// and can be reused verbatim.
    pub fn footprint(&self) -> impl Iterator<Item = Coord> + 'a {
        self.walks_from(0)
            .flat_map(|w| w.nodes().chain(w.hits().iter().map(|&(_, h)| h)))
            .chain(self.edge_nodes().iter().copied())
    }

    /// Every MCC id the record stores: walk hits and merge lists.
    fn referenced_ids(&self) -> impl Iterator<Item = MccId> + 'a {
        self.walks_from(0)
            .flat_map(|w| w.hits().iter().map(|&(v, _)| v))
            .chain(self.merged_y().iter().copied())
            .chain(self.merged_x().iter().copied())
    }
}

impl BoundarySet {
    /// Builds all four boundary walks (plus splits and relations) for
    /// every MCC in `set`.
    pub fn build(set: &MccSet) -> Self {
        Self::build_reusing(set, |_| None, |_| None)
    }

    /// Like [`BoundarySet::build`], but asking `reuse` for an
    /// already-valid record per component first — the incremental-update
    /// path: components whose boundary footprint and interacting
    /// components are untouched by a fault delta keep their walks,
    /// everything else is recomputed. A reused record (typically of an
    /// older set) is copied with every MCC id it stores mapped through
    /// `remap`; one whose ids do not all map is stale and rebuilt. The
    /// Eq.-4 relation records are always re-derived from the final walks
    /// (they are cheap and global).
    pub fn build_reusing<'a>(
        set: &MccSet,
        mut reuse: impl FnMut(MccId) -> Option<MccBoundaries<'a>>,
        remap: impl Fn(MccId) -> Option<MccId>,
    ) -> Self {
        let n = set.len();
        let mut walker = Walker::new(set);
        let mut out = BoundarySet {
            walks: WalkStore::default(),
            walk_ends: Vec::with_capacity(n),
            edge_nodes: Lists::default(),
            merged_y: Lists::default(),
            merged_x: Lists::default(),
            succ_candidates_y: Lists::default(),
            succ_candidates_x: Lists::default(),
        };
        let (mut succ_y, mut succ_x) = (Vec::new(), Vec::new());

        for mcc in set.iter() {
            match reuse(mcc.id()).filter(|old| old.referenced_ids().all(|v| remap(v).is_some())) {
                Some(old) => out.push_copy(old, |v| remap(v).expect("every id maps")),
                None => out.push_built(&mut walker, set, mcc),
            }
            let b = out.get(mcc.id());

            // Eq. 4 relation record: when the FIRST intersection of the
            // -X boundary of F(c) is with F(v) and F(c)'s corner sits
            // strictly east of F(v)'s, F(c) is a candidate succeeding MCC
            // of F(v) in a type-I sequence. (The paper writes the guard as
            // `x_c > x_{v'}`, which is geometrically unsatisfiable for a
            // first hit — Eq. 1 requires `x_c <= x_{c'_v}` for chain
            // overlap — so we read it as the corner comparison
            // `x_c > x_v`; the chain builder re-validates the full Eq. 1
            // conditions at routing time.)
            if let Some(&(v, _)) = b.west_y().hits().first() {
                if mcc.corner().x > set.get(v).corner().x {
                    succ_y.push((v.index(), mcc.id()));
                }
            }
            // Symmetric type-II record from the -Y boundary.
            if let Some(&(v, _)) = b.south_x().hits().first() {
                if mcc.corner().y > set.get(v).corner().y {
                    succ_x.push((v.index(), mcc.id()));
                }
            }
        }

        out.succ_candidates_y = Lists::grouped(n, succ_y);
        out.succ_candidates_x = Lists::grouped(n, succ_x);
        out.walks.shrink_to_fit();
        out.edge_nodes.shrink_to_fit();
        out.merged_y.shrink_to_fit();
        out.merged_x.shrink_to_fit();
        out
    }

    /// Appends the boundary structures of `mcc` (walks, splits, contour,
    /// merge lists) — everything except the Eq.-4 relation records, which
    /// are derived from the finished walks.
    fn push_built(&mut self, walker: &mut Walker<'_>, set: &MccSet, mcc: &Mcc) {
        // A corner that is itself a cell of another MCC (diagonally
        // touching components) cannot start a walk; per the merge
        // semantics the boundary *joins* that component's boundary,
        // so redirect the start to its corner (resp. opposite corner)
        // transitively and absorb the crossed components.
        let (west_start, absorbed_w) = resolve_start(set, mcc.corner(), false);
        let (east_start, absorbed_e) = resolve_start(set, mcc.opposite(), true);
        let walks = &mut self.walks;
        let mut walk = |start: Option<Coord>, cfg| match start {
            Some(c) => walker.walk(walks, c, cfg),
            None => walks.push_empty(),
        };
        let west_y = walk(west_start, WalkConfig::WEST_Y);
        let east_y = walk(east_start, WalkConfig::EAST_Y);
        let south_x = walk(west_start, WalkConfig::SOUTH_X);
        let north_x = walk(east_start, WalkConfig::NORTH_X);

        // B3 split propagations: at every Y-walk hit, the shape
        // information also rounds the obstacle the other way and
        // merges into its +X boundary (one disengagement).
        for (main, cfg) in [(west_y, WalkConfig::EAST_Y), (south_x, WalkConfig::NORTH_X)] {
            for k in 0..walks.get(main).hits().len() {
                let hit = walks.get(main).hits()[k].1;
                walker.walk_until(walks, hit, cfg, 1);
            }
        }

        // Merge lists: self, every MCC absorbed while resolving the
        // corner starts, plus every MCC the Y-walks (X-walks) hit.
        let walks = &self.walks;
        let merged = |a: usize, b: usize| {
            let hits = walks.get(a).hits().iter().chain(walks.get(b).hits()).map(|&(v, _)| v);
            [mcc.id()]
                .into_iter()
                .chain(absorbed_w.iter().copied())
                .chain(absorbed_e.iter().copied())
                .chain(hits)
        };
        self.merged_y.push_set(merged(west_y, east_y));
        self.merged_x.push_set(merged(south_x, north_x));

        // The identification contour: safe nodes adjacent to the MCC's cells.
        let labeling = set.labeling();
        self.edge_nodes.push_set(
            mcc.cells().flat_map(|c| c.neighbors()).filter(|&n| labeling.is_safe_node(n)),
        );
        self.walk_ends.push(index(self.walks.len()));
    }

    /// Appends a copy of `old` with every MCC id it stores mapped through
    /// `map`.
    fn push_copy(&mut self, old: MccBoundaries<'_>, map: impl Fn(MccId) -> MccId) {
        for w in old.walks_from(0) {
            self.walks.push_copy(w, &map);
        }
        self.edge_nodes.push_set(old.edge_nodes().iter().copied());
        self.merged_y.push_set(old.merged_y().iter().map(|&v| map(v)));
        self.merged_x.push_set(old.merged_x().iter().map(|&v| map(v)));
        self.walk_ends.push(index(self.walks.len()));
    }

    /// Boundaries of one MCC.
    #[inline]
    pub fn get(&self, id: MccId) -> MccBoundaries<'_> {
        MccBoundaries { set: self, id }
    }

    /// All boundaries, in MCC id order.
    pub fn iter(&self) -> impl Iterator<Item = MccBoundaries<'_>> {
        (0..self.walk_ends.len() as u32).map(|i| self.get(MccId(i)))
    }

    /// The succeeding MCC of `v` in a type-I sequence (Eq. 4): among the
    /// recorded candidates, the one with the lowest corner `y`.
    pub fn succ_y(&self, set: &MccSet, v: MccId) -> Option<MccId> {
        self.succ_candidates_y(v)
            .iter()
            .copied()
            .min_by_key(|&g| (set.get(g).corner().y, g.index()))
    }

    /// The succeeding MCC of `v` in a type-II sequence.
    pub fn succ_x(&self, set: &MccSet, v: MccId) -> Option<MccId> {
        self.succ_candidates_x(v)
            .iter()
            .copied()
            .min_by_key(|&g| (set.get(g).corner().x, g.index()))
    }

    /// All recorded type-I successor candidates of `v`.
    pub(crate) fn succ_candidates_y(&self, v: MccId) -> &[MccId] {
        self.succ_candidates_y.get(v.index())
    }

    /// All recorded type-II successor candidates of `v`.
    pub(crate) fn succ_candidates_x(&self, v: MccId) -> &[MccId] {
        self.succ_candidates_x.get(v.index())
    }
}

/// Resolves a walk start that may sit on another MCC's cell: follow that
/// component's corresponding corner transitively until a safe node (or
/// give up at the mesh border). Returns the start and the absorbed MCCs.
fn resolve_start(set: &MccSet, mut start: Coord, opposite: bool) -> (Option<Coord>, Vec<MccId>) {
    let mut absorbed = Vec::new();
    loop {
        if !set.mesh().contains(start) {
            return (None, absorbed);
        }
        if set.labeling().is_safe_node(start) {
            return (Some(start), absorbed);
        }
        match set.mcc_at(start) {
            Some(g) if !absorbed.contains(&g) => {
                absorbed.push(g);
                start = if opposite { set.get(g).opposite() } else { set.get(g).corner() };
            }
            _ => return (None, absorbed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_fault::BorderPolicy;
    use meshpath_mesh::{FaultSet, Mesh, Orientation};

    fn set(mesh: Mesh, faults: &[(i32, i32)]) -> MccSet {
        let fs = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        MccSet::build(&fs, Orientation::IDENTITY, BorderPolicy::Open)
    }

    #[test]
    fn single_mcc_boundaries_descend_from_corners() {
        let s = set(Mesh::square(10), &[(5, 5)]);
        let b = BoundarySet::build(&s);
        let mb = b.get(MccId(0));
        // -X boundary: from c = (4,4) straight south.
        assert_eq!(mb.west_y().start(), Some(Coord::new(4, 4)));
        assert!(mb.west_y().reached_edge());
        assert!(mb.west_y().nodes().any(|n| n == Coord::new(4, 0)));
        // +X boundary: from c' = (6,6) straight south.
        assert_eq!(mb.east_y().start(), Some(Coord::new(6, 6)));
        assert!(mb.east_y().nodes().any(|n| n == Coord::new(6, 0)));
        // -Y boundary: from c west; +Y from c' west.
        assert!(mb.south_x().nodes().any(|n| n == Coord::new(0, 4)));
        assert!(mb.north_x().nodes().any(|n| n == Coord::new(0, 6)));
        // Four edge nodes around a single cell plus diagonal-adjacent ones
        // are not included (edge = 4-neighbors only).
        assert_eq!(mb.edge_nodes().len(), 4);
        assert_eq!(mb.merged_y(), &[MccId(0)]);
    }

    #[test]
    fn border_touching_mcc_has_empty_west_boundary() {
        let s = set(Mesh::square(8), &[(0, 3)]);
        let b = BoundarySet::build(&s);
        let mb = b.get(MccId(0));
        assert!(mb.west_y().is_empty()); // corner (-1,2) out of mesh
        assert!(!mb.east_y().is_empty());
    }

    #[test]
    fn y_walk_records_hits_and_merges() {
        // F at (5,8); V at (4,3): F's -X boundary descends column 4 and
        // hits V, merging V into F's Y-region.
        let s = set(Mesh::square(12), &[(5, 8), (4, 3)]);
        let b = BoundarySet::build(&s);
        let f = s.iter().find(|m| m.contains(Coord::new(5, 8))).expect("F").id();
        let v = s.iter().find(|m| m.contains(Coord::new(4, 3))).expect("V").id();
        let fb = b.get(f);
        assert_eq!(fb.west_y().hits().len(), 1);
        assert_eq!(fb.west_y().hits()[0].0, v);
        assert!(fb.merged_y().contains(&v));
        let splits: Vec<Walk> = fb.splits_y().collect();
        assert_eq!(splits.len(), 1);
        assert_eq!(splits[0].start(), Some(fb.west_y().hits()[0].1));
        assert!(splits[0].len() > 1);
    }

    #[test]
    fn relation_recorded_when_geometry_matches() {
        // F at (5,8) has corner c=(4,7); V at (4,3) has corner (3,2).
        // F's -X boundary descends column 4 and first hits V, and
        // x_c = 4 > x_v = 3, so F is recorded as a chain successor of V —
        // consistent with Eq. 1 (x-spans overlap, F strictly higher).
        let s = set(Mesh::square(12), &[(5, 8), (4, 3)]);
        let b = BoundarySet::build(&s);
        let f = s.iter().find(|m| m.contains(Coord::new(5, 8))).expect("F").id();
        let v = s.iter().find(|m| m.contains(Coord::new(4, 3))).expect("V").id();
        assert_eq!(b.succ_candidates_y(v), &[f]);
        assert_eq!(b.succ_y(&s, v), Some(f));

        // A component whose -X boundary never touches V records nothing:
        // F at (4,8) descends column 3 while V occupies only column 4.
        let s2 = set(Mesh::square(12), &[(4, 8), (4, 3)]);
        let b2 = BoundarySet::build(&s2);
        let v2 = s2.iter().find(|m| m.contains(Coord::new(4, 3))).expect("V").id();
        assert!(b2.succ_candidates_y(v2).is_empty());
    }

    #[test]
    fn succ_picks_lowest_corner() {
        // Two candidates above V: the one with the lower corner wins.
        let s = set(
            Mesh::square(16),
            // V spans columns 3..=8 on row 2; F1 at (8,6); F2 at (7,10).
            &[(3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (8, 6), (7, 10)],
        );
        let b = BoundarySet::build(&s);
        let v = s.iter().find(|m| m.contains(Coord::new(3, 2))).expect("V").id();
        let f1 = s.iter().find(|m| m.contains(Coord::new(8, 6))).expect("F1").id();
        let cands = b.succ_candidates_y(v);
        assert!(cands.contains(&f1), "F1's -X walk (column 7) first hits V");
        if cands.len() > 1 {
            assert_eq!(b.succ_y(&s, v), Some(f1), "lower corner must win");
        }
    }

    #[test]
    fn x_walks_mirror_y_walks() {
        // Same geometry rotated: F at (8,5) hit by its -Y walk on V at
        // (3,4) while heading west.
        let s = set(Mesh::square(12), &[(8, 5), (3, 4)]);
        let b = BoundarySet::build(&s);
        let f = s.iter().find(|m| m.contains(Coord::new(8, 5))).expect("F").id();
        let v = s.iter().find(|m| m.contains(Coord::new(3, 4))).expect("V").id();
        let fb = b.get(f);
        assert_eq!(fb.south_x().hits().len(), 1);
        assert_eq!(fb.south_x().hits()[0].0, v);
        assert!(fb.merged_x().contains(&v));
        assert_eq!(fb.splits_x().count(), 1);
        assert_eq!(fb.splits_y().count(), 0);
    }
}
