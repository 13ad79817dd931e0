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

use meshpath_fault::{Mcc, MccId, MccSet};
use meshpath_mesh::Coord;

use crate::walker::{Walk, WalkConfig, Walker};

/// The boundary structures of one MCC.
#[derive(Clone, Debug)]
pub struct MccBoundaries {
    /// The MCC these boundaries belong to.
    pub id: MccId,
    /// `-X` boundary (empty when the initialization corner is unusable).
    pub west_y: Walk,
    /// `+X` boundary (empty when the opposite corner is unusable).
    pub east_y: Walk,
    /// `-Y` boundary.
    pub south_x: Walk,
    /// `+Y` boundary.
    pub north_x: Walk,
    /// B3 split propagations spawned at `west_y` hits (each rounds the hit
    /// MCC once and merges into its `+X` boundary).
    pub splits_y: Vec<Walk>,
    /// B3 split propagations spawned at `south_x` hits.
    pub splits_x: Vec<Walk>,
    /// Safe nodes adjacent to the MCC's cells (the identification contour
    /// traversed by the clockwise/counter-clockwise shape messages).
    pub edge_nodes: Vec<Coord>,
    /// MCC ids whose Y-shadows merge into this MCC's Y-region
    /// (self + transitive hits of both Y-walks).
    pub merged_y: Vec<MccId>,
    /// MCC ids whose X-shadows merge into this MCC's X-region.
    pub merged_x: Vec<MccId>,
}

/// All boundaries of one [`MccSet`], plus Eq.-4 relation records.
#[derive(Clone, Debug)]
pub struct BoundarySet {
    boundaries: Vec<MccBoundaries>,
    /// Per MCC `v`: the recorded type-I relations `F(v) -> F(c)` (the
    /// candidates for `v`'s succeeding MCC, Eq. 4).
    succ_candidates_y: Vec<Vec<MccId>>,
    /// Per MCC `v`: the type-II relation candidates.
    succ_candidates_x: Vec<Vec<MccId>>,
}

impl MccBoundaries {
    /// Every coordinate this boundary record stores (walk nodes, split
    /// nodes, hit points, contour nodes) — the footprint used by the
    /// incremental layer's dirty test: a record whose footprint stays
    /// clear of all relabeled cells was derived from unchanged reads
    /// and can be reused verbatim.
    pub fn footprint(&self) -> impl Iterator<Item = Coord> + '_ {
        let walks = [&self.west_y, &self.east_y, &self.south_x, &self.north_x];
        walks
            .into_iter()
            .chain(self.splits_y.iter())
            .chain(self.splits_x.iter())
            .flat_map(|w| w.nodes.iter().copied().chain(w.hits.iter().map(|&(_, h)| h)))
            .chain(self.edge_nodes.iter().copied())
    }

    /// Clone with every stored [`MccId`] remapped through `map` (used
    /// when a snapshot's components were re-extracted and re-numbered).
    /// Returns `None` when any referenced component no longer exists —
    /// the record is then stale and must be rebuilt.
    pub fn remapped(&self, new_id: MccId, map: impl Fn(MccId) -> Option<MccId>) -> Option<Self> {
        let map = &map;
        let remap_walk = |w: &Walk| -> Option<Walk> {
            let hits = w.hits.iter().map(|&(v, h)| Some((map(v)?, h))).collect::<Option<_>>()?;
            Some(Walk { nodes: w.nodes.clone(), hits, reached_edge: w.reached_edge })
        };
        let remap_walks =
            |ws: &[Walk]| -> Option<Vec<Walk>> { ws.iter().map(remap_walk).collect() };
        let remap_ids =
            |ids: &[MccId]| -> Option<Vec<MccId>> { ids.iter().map(|&v| map(v)).collect() };
        let mut merged_y = remap_ids(&self.merged_y)?;
        let mut merged_x = remap_ids(&self.merged_x)?;
        merged_y.sort_unstable();
        merged_y.dedup();
        merged_x.sort_unstable();
        merged_x.dedup();
        Some(MccBoundaries {
            id: new_id,
            west_y: remap_walk(&self.west_y)?,
            east_y: remap_walk(&self.east_y)?,
            south_x: remap_walk(&self.south_x)?,
            north_x: remap_walk(&self.north_x)?,
            splits_y: remap_walks(&self.splits_y)?,
            splits_x: remap_walks(&self.splits_x)?,
            edge_nodes: self.edge_nodes.clone(),
            merged_y,
            merged_x,
        })
    }
}

/// All boundary structures of one MCC (walks, splits, contour, merge
/// lists) — everything except the Eq.-4 relation records, which are
/// derived from the finished walks in a second pass.
fn boundaries_of(walker: &mut Walker<'_>, set: &MccSet, mcc: &Mcc) -> MccBoundaries {
    // A corner that is itself a cell of another MCC (diagonally
    // touching components) cannot start a walk; per the merge
    // semantics the boundary *joins* that component's boundary,
    // so redirect the start to its corner (resp. opposite corner)
    // transitively and absorb the crossed components.
    let (west_start, absorbed_w) = resolve_start(set, mcc.corner(), false);
    let (east_start, absorbed_e) = resolve_start(set, mcc.opposite(), true);
    let mut walk =
        |start: Option<Coord>, cfg| start.map(|c| walker.walk(c, cfg)).unwrap_or_default();
    let west_y = walk(west_start, WalkConfig::WEST_Y);
    let east_y = walk(east_start, WalkConfig::EAST_Y);
    let south_x = walk(west_start, WalkConfig::SOUTH_X);
    let north_x = walk(east_start, WalkConfig::NORTH_X);

    // B3 split propagations: at every Y-walk hit, the shape
    // information also rounds the obstacle the other way and
    // merges into its +X boundary (one disengagement).
    let splits_y =
        west_y.hits.iter().map(|&(_, hit)| walker.walk_until(hit, WalkConfig::EAST_Y, 1)).collect();
    let splits_x = south_x
        .hits
        .iter()
        .map(|&(_, hit)| walker.walk_until(hit, WalkConfig::NORTH_X, 1))
        .collect();

    // Merge lists: self, every MCC absorbed while resolving the
    // corner starts, plus every MCC the Y-walks (X-walks) hit.
    let mut merged_y = vec![mcc.id()];
    merged_y.extend(absorbed_w.iter().copied());
    merged_y.extend(absorbed_e.iter().copied());
    merged_y.extend(west_y.hits.iter().map(|&(v, _)| v));
    merged_y.extend(east_y.hits.iter().map(|&(v, _)| v));
    merged_y.sort_unstable();
    merged_y.dedup();
    let mut merged_x = vec![mcc.id()];
    merged_x.extend(absorbed_w.iter().copied());
    merged_x.extend(absorbed_e.iter().copied());
    merged_x.extend(south_x.hits.iter().map(|&(v, _)| v));
    merged_x.extend(north_x.hits.iter().map(|&(v, _)| v));
    merged_x.sort_unstable();
    merged_x.dedup();

    MccBoundaries {
        id: mcc.id(),
        west_y,
        east_y,
        south_x,
        north_x,
        splits_y,
        splits_x,
        edge_nodes: edge_nodes_of(set, mcc),
        merged_y,
        merged_x,
    }
}

impl BoundarySet {
    /// Builds all four boundary walks (plus splits and relations) for
    /// every MCC in `set`.
    pub fn build(set: &MccSet) -> Self {
        Self::build_reusing(set, |_| None)
    }

    /// Like [`BoundarySet::build`], but asking `reuse` for an
    /// already-valid (remapped) record per component first — the
    /// incremental-update path: components whose boundary footprint and
    /// interacting components are untouched by a fault delta keep their
    /// walks, everything else is recomputed. The Eq.-4 relation records
    /// are always re-derived from the final walks (they are cheap and
    /// global).
    pub fn build_reusing(
        set: &MccSet,
        mut reuse: impl FnMut(MccId) -> Option<MccBoundaries>,
    ) -> Self {
        let n = set.len();
        let mut walker = Walker::new(set);
        let mut boundaries = Vec::with_capacity(n);
        let mut succ_candidates_y = vec![Vec::new(); n];
        let mut succ_candidates_x = vec![Vec::new(); n];

        for mcc in set.iter() {
            let b = match reuse(mcc.id()) {
                Some(b) => {
                    debug_assert_eq!(b.id, mcc.id());
                    b
                }
                None => boundaries_of(&mut walker, set, mcc),
            };

            // Eq. 4 relation record: when the FIRST intersection of the
            // -X boundary of F(c) is with F(v) and F(c)'s corner sits
            // strictly east of F(v)'s, F(c) is a candidate succeeding MCC
            // of F(v) in a type-I sequence. (The paper writes the guard as
            // `x_c > x_{v'}`, which is geometrically unsatisfiable for a
            // first hit — Eq. 1 requires `x_c <= x_{c'_v}` for chain
            // overlap — so we read it as the corner comparison
            // `x_c > x_v`; the chain builder re-validates the full Eq. 1
            // conditions at routing time.)
            if let Some(&(v, _)) = b.west_y.hits.first() {
                if mcc.corner().x > set.get(v).corner().x {
                    succ_candidates_y[v.index()].push(mcc.id());
                }
            }
            // Symmetric type-II record from the -Y boundary.
            if let Some(&(v, _)) = b.south_x.hits.first() {
                if mcc.corner().y > set.get(v).corner().y {
                    succ_candidates_x[v.index()].push(mcc.id());
                }
            }

            boundaries.push(b);
        }

        BoundarySet { boundaries, succ_candidates_y, succ_candidates_x }
    }

    /// Boundaries of one MCC.
    #[inline]
    pub fn get(&self, id: MccId) -> &MccBoundaries {
        &self.boundaries[id.index()]
    }

    /// All boundaries, in MCC id order.
    pub fn iter(&self) -> impl Iterator<Item = &MccBoundaries> {
        self.boundaries.iter()
    }

    /// The succeeding MCC of `v` in a type-I sequence (Eq. 4): among the
    /// recorded candidates, the one with the lowest corner `y`.
    pub fn succ_y(&self, set: &MccSet, v: MccId) -> Option<MccId> {
        self.succ_candidates_y[v.index()]
            .iter()
            .copied()
            .min_by_key(|&g| (set.get(g).corner().y, g.index()))
    }

    /// The succeeding MCC of `v` in a type-II sequence.
    pub fn succ_x(&self, set: &MccSet, v: MccId) -> Option<MccId> {
        self.succ_candidates_x[v.index()]
            .iter()
            .copied()
            .min_by_key(|&g| (set.get(g).corner().x, g.index()))
    }

    /// All recorded type-I successor candidates of `v`.
    pub fn succ_candidates_y(&self, v: MccId) -> &[MccId] {
        &self.succ_candidates_y[v.index()]
    }

    /// All recorded type-II successor candidates of `v`.
    pub fn succ_candidates_x(&self, v: MccId) -> &[MccId] {
        &self.succ_candidates_x[v.index()]
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

/// The identification contour: safe nodes adjacent to the MCC's cells.
fn edge_nodes_of(set: &MccSet, mcc: &Mcc) -> Vec<Coord> {
    let labeling = set.labeling();
    let mut nodes: Vec<Coord> =
        mcc.cells().flat_map(|c| c.neighbors()).filter(|&n| labeling.is_safe_node(n)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
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
        assert_eq!(mb.west_y.nodes.first(), Some(&Coord::new(4, 4)));
        assert!(mb.west_y.reached_edge);
        assert!(mb.west_y.nodes.contains(&Coord::new(4, 0)));
        // +X boundary: from c' = (6,6) straight south.
        assert_eq!(mb.east_y.nodes.first(), Some(&Coord::new(6, 6)));
        assert!(mb.east_y.nodes.contains(&Coord::new(6, 0)));
        // -Y boundary: from c west; +Y from c' west.
        assert!(mb.south_x.nodes.contains(&Coord::new(0, 4)));
        assert!(mb.north_x.nodes.contains(&Coord::new(0, 6)));
        // Four edge nodes around a single cell plus diagonal-adjacent ones
        // are not included (edge = 4-neighbors only).
        assert_eq!(mb.edge_nodes.len(), 4);
        assert_eq!(mb.merged_y, vec![MccId(0)]);
    }

    #[test]
    fn border_touching_mcc_has_empty_west_boundary() {
        let s = set(Mesh::square(8), &[(0, 3)]);
        let b = BoundarySet::build(&s);
        let mb = b.get(MccId(0));
        assert!(mb.west_y.nodes.is_empty()); // corner (-1,2) out of mesh
        assert!(!mb.east_y.nodes.is_empty());
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
        assert_eq!(fb.west_y.hits.len(), 1);
        assert_eq!(fb.west_y.hits[0].0, v);
        assert!(fb.merged_y.contains(&v));
        assert_eq!(fb.splits_y.len(), 1);
        assert!(!fb.splits_y[0].nodes.is_empty());
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
        assert_eq!(fb.south_x.hits.len(), 1);
        assert_eq!(fb.south_x.hits[0].0, v);
        assert!(fb.merged_x.contains(&v));
    }
}
