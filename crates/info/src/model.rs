//! The three information models as per-node knowledge tables.
//!
//! [`InfoModel::build`] materializes, for one [`MccSet`] (i.e. one fault
//! configuration under one orientation), *which nodes hold which MCC's
//! shape information* under B1, B2 or B3, together with the Fig. 5(c)
//! cost metric: the set of nodes involved in the propagation.
//!
//! | model | knowledge carriers |
//! |-------|--------------------|
//! | B1 | identification contour, `-X` and `-Y` boundary polylines |
//! | B2 | B1 + `+X`/`+Y` polylines + **every node inside the forbidden regions** (the Algorithm 4 broadcast) |
//! | B3 | B1 + `+X`/`+Y` polylines + split propagations + relation records |
//!
//! Knowledge is stored as one bit-set per MCC, so `knows(node, mcc)` is
//! O(1) and the routing layer can scan candidates cheaply.

use meshpath_fault::{Mcc, MccId, MccSet};
use meshpath_mesh::{BitGrid, Coord};
use serde::{Deserialize, Serialize};

use crate::boundary::BoundarySet;
use crate::walker::Walk;

/// Which information model a table was built under.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ModelKind {
    /// Boundary lines only (prior work, Algorithm 1).
    B1,
    /// Boundaries + broadcast into the forbidden regions (Algorithm 4).
    B2,
    /// Boundaries + relation records, no broadcast (Algorithm 6).
    B3,
}

impl ModelKind {
    /// All three models, in paper order.
    pub const ALL: [ModelKind; 3] = [ModelKind::B1, ModelKind::B2, ModelKind::B3];

    /// Display name used in tables and plots.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::B1 => "B1",
            ModelKind::B2 => "B2",
            ModelKind::B3 => "B3",
        }
    }
}

/// Cost of one propagation (one configuration, one orientation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PropagationStats {
    /// Distinct nodes that carried at least one message (union over MCCs).
    pub involved_nodes: usize,
    /// Safe nodes in the mesh (the denominator of Fig. 5c).
    pub safe_nodes: usize,
    /// Estimated messages (every node forwards each triple it relays once).
    pub messages: u64,
    /// Carriers of the single most widely propagated MCC.
    pub per_mcc_max: usize,
    /// Mean carriers per MCC.
    pub per_mcc_avg: f64,
}

impl PropagationStats {
    /// Percentage of involved nodes to total safe nodes — the system-wide
    /// union cost.
    pub fn involved_pct(&self) -> f64 {
        if self.safe_nodes == 0 {
            0.0
        } else {
            100.0 * self.involved_nodes as f64 / self.safe_nodes as f64
        }
    }

    /// Percentage of safe nodes carrying the *most expensive single MCC*'s
    /// triple — the paper's "the information only needs to broadcast to
    /// 20% of the safe nodes" reading of Fig. 5(c).
    pub fn per_mcc_max_pct(&self) -> f64 {
        if self.safe_nodes == 0 {
            0.0
        } else {
            100.0 * self.per_mcc_max as f64 / self.safe_nodes as f64
        }
    }

    /// Mean percentage of safe nodes carrying one MCC's triple.
    pub fn per_mcc_avg_pct(&self) -> f64 {
        if self.safe_nodes == 0 {
            0.0
        } else {
            100.0 * self.per_mcc_avg / self.safe_nodes as f64
        }
    }
}

/// Per-node knowledge tables of one information model.
#[derive(Clone, Debug)]
pub struct InfoModel {
    kind: ModelKind,
    /// One carrier set per MCC: the nodes holding that MCC's triple.
    knowledge: Vec<BitGrid>,
    /// Eq.-4 successor per MCC (type-I), resolved at build time; `None`
    /// for B1/B2 (which do not record relations) and for chain tails.
    succ_y: Vec<Option<MccId>>,
    /// Eq.-4 successor per MCC (type-II).
    succ_x: Vec<Option<MccId>>,
    /// Y-region merge lists (self + transitive boundary hits).
    merged_y: Vec<Vec<MccId>>,
    /// X-region merge lists.
    merged_x: Vec<Vec<MccId>>,
    stats: PropagationStats,
}

impl InfoModel {
    /// Builds the knowledge tables of `kind` for `set`, reusing an
    /// already-constructed [`BoundarySet`].
    pub fn build_with(set: &MccSet, bounds: &BoundarySet, kind: ModelKind) -> Self {
        let mesh = *set.mesh();
        let mut knowledge: Vec<BitGrid> = Vec::with_capacity(set.len());
        let mut messages = 0u64;

        for mcc in set.iter() {
            let b = bounds.get(mcc.id());
            let mut grid = BitGrid::new(mesh);
            let mut absorb = |walk_nodes: &[Coord], messages: &mut u64| {
                for &c in walk_nodes {
                    grid.insert(c);
                    *messages += 1;
                }
            };

            // Identification contour (all models run Algorithm 1 step 1).
            absorb(&b.edge_nodes, &mut messages);
            // -X / -Y boundaries (all models).
            absorb(&b.west_y.nodes, &mut messages);
            absorb(&b.south_x.nodes, &mut messages);

            if kind != ModelKind::B1 {
                // +X / +Y boundaries (B2 and B3).
                absorb(&b.east_y.nodes, &mut messages);
                absorb(&b.north_x.nodes, &mut messages);
            }
            if kind == ModelKind::B3 {
                for w in b.splits_y.iter().chain(&b.splits_x) {
                    absorb(&w.nodes, &mut messages);
                }
            }
            if kind == ModelKind::B2 {
                // Algorithm 4 step 5: broadcast into the forbidden region
                // enclosed between the two boundary polylines...
                for c in funnel_y(set, mcc, &b.west_y, &b.east_y) {
                    if grid.insert(c) {
                        messages += 1;
                    }
                }
                for c in funnel_x(set, mcc, &b.south_x, &b.north_x) {
                    if grid.insert(c) {
                        messages += 1;
                    }
                }
                // ...and into the shadows of every MCC whose region merged
                // into this one ("R_Y(v) merges into R_Y(c)"): a node
                // blocked by a merged member must know the root's triple
                // even where the boundary walks could not pass (clusters
                // wedged against the mesh rim).
                for &g in &b.merged_y {
                    let gm = set.get(g);
                    for (i, span) in gm.cols().iter().enumerate() {
                        let x = gm.x0() + i as i32;
                        for y in 0..span.lo {
                            let c = Coord::new(x, y);
                            if set.labeling().is_safe_node(c) && grid.insert(c) {
                                messages += 1;
                            }
                        }
                    }
                }
                for &g in &b.merged_x {
                    let gm = set.get(g);
                    let ymin = gm.cols()[0].lo;
                    let ymax = gm.opposite().y - 1;
                    for y in ymin..=ymax {
                        if let Some((w, _)) = gm.row_range(y) {
                            for x in 0..w {
                                let c = Coord::new(x, y);
                                if set.labeling().is_safe_node(c) && grid.insert(c) {
                                    messages += 1;
                                }
                            }
                        }
                    }
                }
            }

            knowledge.push(grid);
        }

        if kind == ModelKind::B2 {
            // Region-merge fixpoint: "R_Y(v) merges into R_Y(c)" makes
            // the root's triple known throughout every merged member's
            // region, transitively (the broadcast carries the merged
            // triple along the joint boundaries). The merge graph can
            // contain cycles via opposite-side walks, and a chain of
            // members with rising ids moves one link a pass, so iterate
            // until nothing grows (sets only grow: it terminates).
            loop {
                let mut changed = false;
                for b in bounds.iter() {
                    let c = b.id.index();
                    for v in b.merged_y.iter().chain(&b.merged_x).map(|id| id.index()) {
                        if v == c {
                            continue;
                        }
                        let [dst, src] =
                            knowledge.get_disjoint_mut([c, v]).expect("two distinct MCC ids");
                        let before = dst.count();
                        dst.union_with(src);
                        changed |= dst.count() != before;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        // Union of all carriers (Fig. 5c numerator).
        let mut involved = BitGrid::new(mesh);
        for g in &knowledge {
            involved.union_with(g);
        }

        let n = set.len();
        let (succ_y, succ_x) = if kind == ModelKind::B3 {
            (
                (0..n).map(|i| bounds.succ_y(set, MccId(i as u32))).collect(),
                (0..n).map(|i| bounds.succ_x(set, MccId(i as u32))).collect(),
            )
        } else {
            (vec![None; n], vec![None; n])
        };

        let per_mcc_max = knowledge.iter().map(|g| g.count()).max().unwrap_or(0);
        let per_mcc_avg = if knowledge.is_empty() {
            0.0
        } else {
            knowledge.iter().map(|g| g.count()).sum::<usize>() as f64 / knowledge.len() as f64
        };
        let stats = PropagationStats {
            involved_nodes: involved.count(),
            safe_nodes: set.labeling().safe_count(),
            messages,
            per_mcc_max,
            per_mcc_avg,
        };

        InfoModel {
            kind,
            knowledge,
            succ_y,
            succ_x,
            merged_y: bounds.iter().map(|b| b.merged_y.clone()).collect(),
            merged_x: bounds.iter().map(|b| b.merged_x.clone()).collect(),
            stats,
        }
    }

    /// Builds boundaries and the knowledge tables in one go.
    pub fn build(set: &MccSet, kind: ModelKind) -> Self {
        let bounds = BoundarySet::build(set);
        Self::build_with(set, &bounds, kind)
    }

    /// The model kind.
    #[inline]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// True when the node at oriented coordinate `oc` holds `mcc`'s triple.
    #[inline]
    pub fn knows(&self, oc: Coord, mcc: MccId) -> bool {
        self.knowledge[mcc.index()].contains(oc)
    }

    /// The MCCs known at `oc`: one [`knows`](Self::knows) test per MCC
    /// of the orientation, O(#MCC) — for reports and tests. A routing
    /// decision never enumerates like this: Algorithm 2 asks
    /// `knows(oc, f)` only for the few MCCs whose critical region holds
    /// the phase target (`meshpath_route::alg2`, "What a decision
    /// reads").
    pub fn known_at(&self, oc: Coord) -> Vec<MccId> {
        (0..self.knowledge.len() as u32).map(MccId).filter(|&id| self.knows(oc, id)).collect()
    }

    /// Eq.-4 successor of `v` in a type-I sequence (B3 only).
    #[inline]
    pub fn succ_y(&self, v: MccId) -> Option<MccId> {
        self.succ_y[v.index()]
    }

    /// Eq.-4 successor of `v` in a type-II sequence (B3 only).
    #[inline]
    pub fn succ_x(&self, v: MccId) -> Option<MccId> {
        self.succ_x[v.index()]
    }

    /// MCCs whose Y-shadows merged into `f`'s Y-region (includes `f`).
    #[inline]
    pub fn merged_y(&self, f: MccId) -> &[MccId] {
        &self.merged_y[f.index()]
    }

    /// MCCs whose X-shadows merged into `f`'s X-region (includes `f`).
    #[inline]
    pub fn merged_x(&self, f: MccId) -> &[MccId] {
        &self.merged_x[f.index()]
    }

    /// Propagation cost (Fig. 5c).
    #[inline]
    pub fn stats(&self) -> PropagationStats {
        self.stats
    }
}

/// The Y-forbidden region of `mcc`: safe nodes enclosed between the
/// `-X`/`+X` boundary polylines, south of the component (paper Fig. 4(b)).
///
/// Row scan: for every row, the west limit is the westmost `-X` polyline
/// node (or the lower-staircase edge within the component's band), the
/// east limit the eastmost `+X` polyline node. Rows not covered by a
/// polyline (early-terminated walks around border-touching clusters) are
/// skipped — a conservative under-approximation noted in DESIGN.md §3.
pub fn funnel_y(set: &MccSet, mcc: &Mcc, west: &Walk, east: &Walk) -> Vec<Coord> {
    let mesh = *set.mesh();
    let labeling = set.labeling();
    let height = mesh.height() as i32;
    let yc = mcc.corner().y;
    let yct = mcc.opposite().y.min(height - 1);
    if yct < 0 {
        return Vec::new();
    }

    let mut wbx = vec![i32::MAX; height as usize];
    for &c in &west.nodes {
        if (0..height).contains(&c.y) {
            wbx[c.y as usize] = wbx[c.y as usize].min(c.x);
        }
    }
    let mut ebx = vec![i32::MIN; height as usize];
    for &c in &east.nodes {
        if (0..height).contains(&c.y) {
            ebx[c.y as usize] = ebx[c.y as usize].max(c.x);
        }
    }
    let mut out = Vec::new();
    for y in 0..=yct {
        let west_limit = if y <= yc {
            wbx[y as usize]
        } else {
            // Band rows: the region starts at the lower staircase edge.
            staircase_west_limit(mcc, y)
        };
        let east_limit = if ebx[y as usize] != i32::MIN {
            ebx[y as usize]
        } else {
            // No +X polyline (unusable opposite corner): fall back to the
            // component's east flank.
            mcc.x1() + 1
        };
        if west_limit == i32::MAX || west_limit > east_limit {
            continue;
        }
        for x in west_limit..=east_limit {
            let c = Coord::new(x, y);
            if labeling.is_safe_node(c) {
                out.push(c);
            }
        }
    }
    out
}

/// West limit of the Y-region inside the component's vertical band: the
/// first column whose cells start strictly above `y`.
fn staircase_west_limit(mcc: &Mcc, y: i32) -> i32 {
    for (i, s) in mcc.cols().iter().enumerate() {
        if s.lo > y {
            return mcc.x0() + i as i32;
        }
    }
    mcc.x1() + 1
}

/// The X-forbidden region: the 90-degree analogue of [`funnel_y`].
pub fn funnel_x(set: &MccSet, mcc: &Mcc, south: &Walk, north: &Walk) -> Vec<Coord> {
    let mesh = *set.mesh();
    let labeling = set.labeling();
    let width = mesh.width() as i32;
    let xc = mcc.corner().x;
    let xct = mcc.opposite().x.min(width - 1);
    if xct < 0 {
        return Vec::new();
    }

    let mut sby = vec![i32::MAX; width as usize];
    for &c in &south.nodes {
        if (0..width).contains(&c.x) {
            sby[c.x as usize] = sby[c.x as usize].min(c.y);
        }
    }
    let mut nby = vec![i32::MIN; width as usize];
    for &c in &north.nodes {
        if (0..width).contains(&c.x) {
            nby[c.x as usize] = nby[c.x as usize].max(c.y);
        }
    }
    let mut out = Vec::new();
    for x in 0..=xct {
        let south_limit = if x <= xc { sby[x as usize] } else { staircase_south_limit(mcc, x) };
        let north_limit =
            if nby[x as usize] != i32::MIN { nby[x as usize] } else { mcc.opposite().y };
        if south_limit == i32::MAX || south_limit > north_limit {
            continue;
        }
        for y in south_limit..=north_limit {
            let c = Coord::new(x, y);
            if labeling.is_safe_node(c) {
                out.push(c);
            }
        }
    }
    out
}

/// South limit of the X-region inside the component's horizontal band:
/// the first row whose cells start strictly east of `x`.
fn staircase_south_limit(mcc: &Mcc, x: i32) -> i32 {
    let ymin = mcc.cols()[0].lo;
    let ymax = mcc.opposite().y - 1;
    for y in ymin..=ymax {
        if let Some((w, _)) = mcc.row_range(y) {
            if w > x {
                return y;
            }
        }
    }
    ymax + 1
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
    fn b1_knowledge_lives_on_minus_boundaries() {
        let s = set(Mesh::square(10), &[(5, 5)]);
        let m = InfoModel::build(&s, ModelKind::B1);
        let id = MccId(0);
        assert!(m.knows(Coord::new(4, 4), id)); // corner c
        assert!(m.knows(Coord::new(4, 0), id)); // -X boundary
        assert!(m.knows(Coord::new(0, 4), id)); // -Y boundary
        assert!(m.knows(Coord::new(5, 4), id)); // edge node
        assert!(!m.knows(Coord::new(6, 0), id)); // +X boundary: B2/B3 only
        assert!(!m.knows(Coord::new(5, 2), id)); // shadow interior: B2 only
    }

    #[test]
    fn b3_adds_plus_boundaries_but_no_interior() {
        let s = set(Mesh::square(10), &[(5, 5)]);
        let m = InfoModel::build(&s, ModelKind::B3);
        let id = MccId(0);
        assert!(m.knows(Coord::new(6, 0), id)); // +X boundary
        assert!(m.knows(Coord::new(0, 6), id)); // +Y boundary
        assert!(!m.knows(Coord::new(5, 2), id)); // interior still unknown
    }

    #[test]
    fn b2_broadcasts_into_the_shadow() {
        let s = set(Mesh::square(10), &[(5, 5)]);
        let m = InfoModel::build(&s, ModelKind::B2);
        let id = MccId(0);
        // Every safe node in the column shadow below the fault now knows.
        for y in 0..5 {
            assert!(m.knows(Coord::new(5, y), id), "(5,{y}) must know");
        }
        // And the row shadow west of it (X-region broadcast).
        for x in 0..5 {
            assert!(m.knows(Coord::new(x, 5), id), "({x},5) must know");
        }
        // But not arbitrary far-away nodes.
        assert!(!m.knows(Coord::new(9, 9), id));
    }

    #[test]
    fn cost_ordering_matches_the_paper() {
        // B2 involves the most nodes; B1 the fewest; B3 close to B1.
        let s = set(Mesh::square(20), &[(5, 5), (12, 9), (9, 14), (15, 3), (3, 12), (7, 7)]);
        let b1 = InfoModel::build(&s, ModelKind::B1).stats();
        let b2 = InfoModel::build(&s, ModelKind::B2).stats();
        let b3 = InfoModel::build(&s, ModelKind::B3).stats();
        assert!(b1.involved_nodes <= b3.involved_nodes);
        assert!(b3.involved_nodes <= b2.involved_nodes);
        assert!(b2.involved_nodes < b2.safe_nodes, "B2 must stay below flooding");
        assert!(b1.involved_pct() > 0.0);
    }

    #[test]
    fn merged_lists_track_boundary_hits() {
        let s = set(Mesh::square(12), &[(5, 8), (4, 3)]);
        let m = InfoModel::build(&s, ModelKind::B2);
        let f = s.iter().find(|mc| mc.contains(Coord::new(5, 8))).expect("F").id();
        let v = s.iter().find(|mc| mc.contains(Coord::new(4, 3))).expect("V").id();
        assert!(m.merged_y(f).contains(&v));
        assert!(m.merged_y(f).contains(&f));
        assert_eq!(m.merged_y(v), &[v]);
    }

    #[test]
    fn known_at_collects_all_carriers() {
        let s = set(Mesh::square(12), &[(5, 8), (4, 3)]);
        let m = InfoModel::build(&s, ModelKind::B2);
        // A node deep in both shadows knows both MCCs.
        let known = m.known_at(Coord::new(4, 1));
        assert_eq!(known.len(), 2);
    }

    #[test]
    fn empty_mesh_has_empty_model() {
        let s = set(Mesh::square(8), &[]);
        let m = InfoModel::build(&s, ModelKind::B2);
        assert_eq!(m.stats().involved_nodes, 0);
        assert_eq!(m.stats().involved_pct(), 0.0);
        assert!(m.known_at(Coord::new(3, 3)).is_empty());
    }

    #[test]
    fn b2_knowledge_is_closed_under_merges_on_a_chain_deeper_than_eight() {
        // Six (bar, shelf) pairs climbing north-east, three cells apart. A
        // bar's +X boundary descends onto its shelf and a shelf's +Y
        // boundary runs west into the next bar, so each component merges
        // the next one up — a higher id, which the fixpoint's id-order
        // sweep has not updated yet. The top shelf's triple therefore
        // climbs down one link a pass: eleven passes to reach the bottom bar.
        let mut faults = Vec::new();
        for k in 0..6 {
            let (x, y) = (2 + 3 * k, 2 + 3 * k);
            faults.extend([(x, y), (x, y + 1), (x, y + 2), (x, y + 3), (x + 1, y + 3)]);
            faults.extend((2..=5).map(|dx| (x + dx, y + 1)));
            faults.push((x + 5, y + 2));
        }
        let s = set(Mesh::square(28), &faults);
        assert_eq!(s.len(), 12);
        let m = InfoModel::build(&s, ModelKind::B2);
        // The chain itself: every component but the last merges its successor.
        for c in (0..11).map(MccId) {
            let next = MccId(c.0 + 1);
            assert!(
                m.merged_y(c).contains(&next) || m.merged_x(c).contains(&next),
                "{c:?} must merge {next:?}"
            );
        }
        for c in s.iter().map(Mcc::id) {
            for &v in m.merged_y(c).iter().chain(m.merged_x(c)) {
                for n in s.mesh().iter() {
                    assert!(!m.knows(n, v) || m.knows(n, c), "{n:?} knows {v:?} but not {c:?}");
                }
            }
        }
    }
}
