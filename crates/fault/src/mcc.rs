//! Minimal connected components: extraction, shape, corners, and the
//! indexes a router finds shapes through.
//!
//! At the labeling fixpoint, 4-connected groups of unsafe nodes form the
//! MCCs. Under [`BorderPolicy::Open`] every MCC is a **rising
//! staircase**: per column `x ∈ [x0..x1]` one contiguous interval
//! `[lo(x), hi(x)]`, `lo` and `hi` non-decreasing in `x`, consecutive
//! columns overlapping. (Sketch: the useless rule fills south-west-facing
//! concavities, the can't-reach rule north-east-facing ones; a useless
//! node has a faulty node due north and one due east, so fills stay in
//! the bounding box and the fixpoint is the staircase closure. Debug
//! assertions and proptest enforce it.)
//!
//! An [`Mcc`] keeps the shape both ways, a span per column and a span per
//! row, so each `shadow_*`/`critical_*` predicate is one load; an
//! [`MccSet`] lists the MCCs on every column and row
//! ([`MccSet::in_col`], [`MccSet::in_row`]), so a search keyed on a
//! coordinate reads those few, not every MCC.
//!
//! The paper's pivots fall out of the shape: the **initialization
//! corner** `c = (x0-1, lo(x0)-1)`, whose `+X` and `+Y` neighbors are edge
//! nodes of the MCC, and the **opposite corner** `c' = (x1+1, hi(x1)+1)`,
//! whose `-X` and `-Y` neighbors are. Either may lie off the mesh (an MCC
//! on a rim) or on a cell of *another* MCC (diagonal neighbours);
//! [`Labeling::is_safe_node`] says so and routing treats the pivot as infeasible.

use meshpath_mesh::{Coord, FaultSet, Grid, Mesh, Orientation, Rect};

use crate::labeling::{BorderPolicy, Labeling};

/// Identifier of an MCC within one [`MccSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MccId(pub u32);

impl MccId {
    /// The raw index, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-column vertical span of an MCC (inclusive).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ColSpan {
    /// Lowest occupied row of the column.
    pub lo: i32,
    /// Highest occupied row of the column.
    pub hi: i32,
}

/// One minimal connected component, in oriented coordinates.
#[derive(Clone, Debug)]
pub struct Mcc {
    id: MccId,
    x0: i32,
    cols: Vec<ColSpan>,
    /// `(west, east)` of every row from `bbox.y0` north: `cols` transposed.
    rows: Vec<(i32, i32)>,
    cell_count: usize,
    faulty_count: usize,
    staircase: bool,
    bbox: Rect,
}

impl Mcc {
    /// This MCC's identifier.
    #[inline]
    pub fn id(&self) -> MccId {
        self.id
    }

    /// First (westmost) occupied column.
    #[inline]
    pub fn x0(&self) -> i32 {
        self.x0
    }

    /// Last (eastmost) occupied column.
    #[inline]
    pub fn x1(&self) -> i32 {
        self.x0 + self.cols.len() as i32 - 1
    }

    /// The vertical span of column `x`, if occupied.
    #[inline]
    pub fn col(&self, x: i32) -> Option<ColSpan> {
        if x < self.x0 {
            return None;
        }
        self.cols.get((x - self.x0) as usize).copied()
    }

    /// All column spans west to east.
    pub fn cols(&self) -> &[ColSpan] {
        &self.cols
    }

    /// Number of cells (unsafe nodes) in the component.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Number of *faulty* cells (the rest are useless/can't-reach).
    #[inline]
    pub fn faulty_count(&self) -> usize {
        self.faulty_count
    }

    /// Whether the rising-staircase shape invariant held for this
    /// component (always true under the `Open` border policy).
    #[inline]
    pub fn is_staircase(&self) -> bool {
        self.staircase
    }

    /// Bounding rectangle of the component.
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// True when the (oriented) coordinate is a cell of this MCC.
    ///
    /// Exact only for staircase shapes; for non-staircase components (the
    /// exploratory `Blocking` policy) this tests the per-column hull.
    #[inline]
    pub fn contains(&self, oc: Coord) -> bool {
        match self.col(oc.x) {
            Some(span) => span.lo <= oc.y && oc.y <= span.hi,
            None => false,
        }
    }

    /// The initialization corner `c = (x0-1, lo(x0)-1)` (paper Fig. 1b):
    /// the pivot for `-X` boundary construction and south-west detours.
    #[inline]
    pub fn corner(&self) -> Coord {
        Coord::new(self.x0 - 1, self.cols[0].lo - 1)
    }

    /// The opposite corner `c' = (x1+1, hi(x1)+1)`: the pivot for `+X`
    /// boundary construction and north-east detours.
    #[inline]
    pub fn opposite(&self) -> Coord {
        Coord::new(self.x1() + 1, self.cols[self.cols.len() - 1].hi + 1)
    }

    /// Iterator over the component's cells (oriented coordinates),
    /// column-major west to east.
    pub fn cells(&self) -> impl Iterator<Item = Coord> + '_ {
        self.cols.iter().enumerate().flat_map(move |(i, span)| {
            let x = self.x0 + i as i32;
            (span.lo..=span.hi).map(move |y| Coord::new(x, y))
        })
    }

    /// Horizontal extent `(west, east)` of the component at row `y`, if
    /// the row is occupied: the first and the last column whose span
    /// holds `y`. Exact for staircase shapes (the occupied columns of a
    /// row are contiguous).
    #[inline]
    pub fn row_range(&self, y: i32) -> Option<(i32, i32)> {
        if y < self.bbox.y0 {
            return None;
        }
        self.rows.get((y - self.bbox.y0) as usize).copied()
    }

    /// [`row_range`](Self::row_range) as a scan of the column spans: the
    /// reference the stored row spans are held to.
    #[cfg(test)]
    fn row_range_by_scan(&self, y: i32) -> Option<(i32, i32)> {
        let holds = |s: &ColSpan| s.lo <= y && y <= s.hi;
        let west = self.cols.iter().position(holds)?;
        let east = self.cols.iter().rposition(holds)?;
        Some((self.x0 + west as i32, self.x0 + east as i32))
    }

    /// True when `p` lies in the **Y-forbidden shadow** of this MCC: the
    /// column span is occupied and `p` sits strictly below the lower
    /// staircase. A routing at such a node cannot make monotone `+Y`
    /// progress past this MCC within its column span.
    #[inline]
    pub fn shadow_y(&self, p: Coord) -> bool {
        matches!(self.col(p.x), Some(s) if p.y < s.lo)
    }

    /// True when `p` lies in the **Y-critical region**: strictly above the
    /// upper staircase within the column span. `shadow_y(s) && critical_y(d)`
    /// is the paper's "routing blocked in the `+Y` direction" condition.
    #[inline]
    pub fn critical_y(&self, p: Coord) -> bool {
        matches!(self.col(p.x), Some(s) if p.y > s.hi)
    }

    /// True when `p` lies in the **X-forbidden shadow**: the row is
    /// occupied and `p` sits strictly west of the row's westmost cell.
    #[inline]
    pub fn shadow_x(&self, p: Coord) -> bool {
        matches!(self.row_range(p.y), Some((w, _)) if p.x < w)
    }

    /// True when `p` lies in the **X-critical region**: strictly east of
    /// the row's eastmost cell.
    #[inline]
    pub fn critical_x(&self, p: Coord) -> bool {
        matches!(self.row_range(p.y), Some((_, e)) if p.x > e)
    }
}

/// All MCCs of one labeling, plus the cell-to-component index.
#[derive(Clone, Debug)]
pub struct MccSet {
    labeling: Labeling,
    mccs: Vec<Mcc>,
    /// Oriented coordinate -> owning MCC id (`NO_MCC` for safe cells).
    cell_mcc: Grid<u32>,
    /// The unsafe cells as bit words, `words_per_row` per mesh row: bit
    /// `x % 64` of word `x / 64` of row `y` is set iff `(x, y)` is a cell
    /// of some MCC, so a reader takes 64 cells of a row in one load
    /// instead of 64 `mcc_at` probes.
    row_words: Vec<u64>,
    words_per_row: usize,
    /// The MCCs occupying each (oriented) column and each row.
    in_cols: Incidence,
    in_rows: Incidence,
}

const NO_MCC: u32 = u32::MAX;

/// Which MCCs lie on each line (column or row) of the mesh, in CSR form:
/// line `k`'s ids are `ids[start[k]..start[k + 1]]`, ascending.
#[derive(Clone, Debug)]
struct Incidence {
    start: Vec<u32>,
    ids: Vec<MccId>,
}

impl Incidence {
    /// `extent` is the inclusive range of lines a component occupies
    /// (its bounding box on the axis: a connected shape skips none).
    fn build(lines: usize, mccs: &[Mcc], extent: impl Fn(&Mcc) -> (i32, i32)) -> Self {
        let mut start = vec![0u32; lines + 1];
        for m in mccs {
            let (first, last) = extent(m);
            for k in first..=last {
                start[k as usize + 1] += 1;
            }
        }
        for k in 0..lines {
            start[k + 1] += start[k];
        }
        let mut ids = vec![MccId(0); start[lines] as usize];
        let mut fill = start.clone();
        for m in mccs {
            let (first, last) = extent(m);
            for k in first..=last {
                ids[fill[k as usize] as usize] = m.id;
                fill[k as usize] += 1;
            }
        }
        Incidence { start, ids }
    }

    /// The ids on `line`; none off the mesh.
    #[inline]
    fn on(&self, line: i32) -> &[MccId] {
        match usize::try_from(line).ok().and_then(|k| self.start.get(k..k + 2)) {
            Some(&[from, to]) => &self.ids[from as usize..to as usize],
            _ => &[],
        }
    }
}

impl MccSet {
    /// Labels `faults` under `orientation`/`border` and extracts the MCCs.
    pub fn build(faults: &FaultSet, orientation: Orientation, border: BorderPolicy) -> Self {
        let labeling = Labeling::compute(faults, orientation, border);
        Self::from_labeling(labeling, faults)
    }

    /// Extracts the MCCs of an existing labeling.
    pub fn from_labeling(labeling: Labeling, faults: &FaultSet) -> Self {
        let mesh = *labeling.mesh();
        let orientation = labeling.orientation();
        let mut cell_mcc = Grid::new(mesh, NO_MCC);
        let words_per_row = (mesh.width() as usize).div_ceil(64);
        let mut row_words = vec![0u64; words_per_row * mesh.height() as usize];
        let mut mccs: Vec<Mcc> = Vec::new();
        let mut stack: Vec<Coord> = Vec::new();
        let mut cells: Vec<Coord> = Vec::new();

        // `unsafe_nodes()` is row-major, and discovery order is the MccId
        // assignment.
        for start in labeling.unsafe_nodes() {
            row_words[start.y as usize * words_per_row + start.x as usize / 64] |=
                1 << (start.x as usize % 64);
            if cell_mcc[start] != NO_MCC {
                continue;
            }
            let id = MccId(mccs.len() as u32);
            cells.clear();
            cell_mcc[start] = id.0;
            stack.push(start);
            while let Some(u) = stack.pop() {
                cells.push(u);
                for v in mesh.neighbors(u) {
                    if labeling.status(v).is_unsafe() && cell_mcc[v] == NO_MCC {
                        cell_mcc[v] = id.0;
                        stack.push(v);
                    }
                }
            }
            mccs.push(Self::shape_of(id, &cells, &labeling, faults, orientation));
        }

        let in_cols = Incidence::build(mesh.width() as usize, &mccs, |m| (m.x0(), m.x1()));
        let in_rows = Incidence::build(mesh.height() as usize, &mccs, |m| (m.bbox.y0, m.bbox.y1));
        MccSet { labeling, mccs, cell_mcc, row_words, words_per_row, in_cols, in_rows }
    }

    fn shape_of(
        id: MccId,
        cells: &[Coord],
        labeling: &Labeling,
        faults: &FaultSet,
        orientation: Orientation,
    ) -> Mcc {
        let mesh = *labeling.mesh();
        let mut bbox = Rect::point(cells[0]);
        for &c in cells {
            bbox.expand(c);
        }
        let x0 = bbox.x0;
        let width = (bbox.x1 - bbox.x0 + 1) as usize;
        let mut lo = vec![i32::MAX; width];
        let mut hi = vec![i32::MIN; width];
        let mut per_col_count = vec![0usize; width];
        let mut faulty_count = 0usize;
        for &c in cells {
            let i = (c.x - x0) as usize;
            lo[i] = lo[i].min(c.y);
            hi[i] = hi[i].max(c.y);
            per_col_count[i] += 1;
            if faults.is_faulty(orientation.apply(&mesh, c)) {
                faulty_count += 1;
            }
        }

        // Rising-staircase validation: contiguous columns, spans matching
        // the cell counts (no holes), lo/hi non-decreasing, consecutive
        // columns overlapping.
        let mut staircase = true;
        for i in 0..width {
            if lo[i] > hi[i] {
                staircase = false; // empty column inside the bbox
                break;
            }
            if per_col_count[i] != (hi[i] - lo[i] + 1) as usize {
                staircase = false; // vertical hole
                break;
            }
            if i > 0 && (lo[i] < lo[i - 1] || hi[i] < hi[i - 1] || lo[i] > hi[i - 1]) {
                staircase = false; // not rising, or columns disconnected
                break;
            }
        }
        debug_assert!(
            staircase || labeling.border_policy() == BorderPolicy::Blocking,
            "non-staircase MCC under Open border policy: cells {cells:?}"
        );

        // The row spans: the column spans read the other way. A connected
        // component has a cell in every row of its bounding box.
        let mut rows = vec![(i32::MAX, i32::MIN); (bbox.y1 - bbox.y0 + 1) as usize];
        for (x, (&lo, &hi)) in (x0..).zip(lo.iter().zip(&hi)) {
            for y in lo..=hi {
                let (west, east) = &mut rows[(y - bbox.y0) as usize];
                *west = (*west).min(x);
                *east = x;
            }
        }
        debug_assert!(rows.iter().all(|(west, east)| west <= east), "empty row in {cells:?}");

        let cols = lo.into_iter().zip(hi).map(|(lo, hi)| ColSpan { lo, hi }).collect();
        Mcc { id, x0, cols, rows, cell_count: cells.len(), faulty_count, staircase, bbox }
    }

    /// The labeling the components were extracted from.
    #[inline]
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The mesh.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        self.labeling.mesh()
    }

    /// The orientation of the oriented frame.
    #[inline]
    pub fn orientation(&self) -> Orientation {
        self.labeling.orientation()
    }

    /// Number of components.
    #[inline]
    pub fn len(&self) -> usize {
        self.mccs.len()
    }

    /// True when the mesh has no unsafe node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mccs.is_empty()
    }

    /// The components, ordered by discovery (row-major first cell).
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &Mcc> {
        self.mccs.iter()
    }

    /// Component by id.
    #[inline]
    pub fn get(&self, id: MccId) -> &Mcc {
        &self.mccs[id.index()]
    }

    /// The MCCs with a span in (oriented) column `x` — those whose
    /// [`Mcc::col`]`(x)` is `Some` — in ascending id order; none when `x`
    /// is off the mesh. What a column-keyed search (`critical_y`,
    /// `shadow_y`, an Eq.-1 successor) reads instead of [`iter`](Self::iter).
    #[inline]
    pub fn in_col(&self, x: i32) -> &[MccId] {
        self.in_cols.on(x)
    }

    /// The MCCs with a span in (oriented) row `y` — those whose
    /// [`Mcc::row_range`]`(y)` is `Some` — in ascending id order.
    #[inline]
    pub fn in_row(&self, y: i32) -> &[MccId] {
        self.in_rows.on(y)
    }

    /// The MCC owning the (oriented) coordinate, if it is an unsafe cell.
    #[inline]
    pub fn mcc_at(&self, oc: Coord) -> Option<MccId> {
        self.cell_mcc.get(oc).copied().filter(|&raw| raw != NO_MCC).map(MccId)
    }

    /// The unsafe cells of (oriented) row `y` as bit words: bit `x % 64`
    /// of word `x / 64` is set iff `mcc_at((x, y))` is `Some`. Bits at and
    /// past the mesh width are zero.
    ///
    /// # Panics
    /// Panics when `y` is not a row of the mesh.
    #[inline]
    pub fn row_words(&self, y: i32) -> &[u64] {
        let start = y as usize * self.words_per_row;
        &self.row_words[start..start + self.words_per_row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::FaultSet;

    fn build(mesh: Mesh, faults: &[(i32, i32)]) -> MccSet {
        let fs = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        MccSet::build(&fs, Orientation::IDENTITY, BorderPolicy::Open)
    }

    #[test]
    fn empty_mesh_has_no_mccs() {
        let set = build(Mesh::square(6), &[]);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn single_fault_single_cell_mcc() {
        let set = build(Mesh::square(8), &[(3, 4)]);
        assert_eq!(set.len(), 1);
        let m = set.get(MccId(0));
        assert_eq!(m.cell_count(), 1);
        assert_eq!(m.faulty_count(), 1);
        assert!(m.is_staircase());
        assert_eq!(m.corner(), Coord::new(2, 3));
        assert_eq!(m.opposite(), Coord::new(4, 5));
        assert_eq!(set.mcc_at(Coord::new(3, 4)), Some(MccId(0)));
        assert_eq!(set.mcc_at(Coord::new(3, 3)), None);
    }

    #[test]
    fn separate_faults_make_separate_mccs() {
        let set = build(Mesh::square(10), &[(1, 1), (8, 8), (4, 6)]);
        assert_eq!(set.len(), 3);
        for m in set.iter() {
            assert_eq!(m.cell_count(), 1);
        }
    }

    #[test]
    fn anti_diagonal_merges_into_one_block() {
        let set = build(Mesh::square(8), &[(2, 3), (3, 2)]);
        assert_eq!(set.len(), 1);
        let m = set.get(MccId(0));
        assert_eq!(m.cell_count(), 4);
        assert_eq!(m.faulty_count(), 2);
        assert!(m.is_staircase());
        assert_eq!(m.corner(), Coord::new(1, 1));
        assert_eq!(m.opposite(), Coord::new(4, 4));
        assert_eq!(m.col(2), Some(ColSpan { lo: 2, hi: 3 }));
        assert_eq!(m.col(3), Some(ColSpan { lo: 2, hi: 3 }));
    }

    #[test]
    fn ascending_staircase_shape() {
        let set = build(Mesh::square(10), &[(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)]);
        assert_eq!(set.len(), 1);
        let m = set.get(MccId(0));
        assert!(m.is_staircase());
        assert_eq!(m.x0(), 2);
        assert_eq!(m.x1(), 4);
        assert_eq!(m.col(2), Some(ColSpan { lo: 2, hi: 2 }));
        assert_eq!(m.col(3), Some(ColSpan { lo: 2, hi: 3 }));
        assert_eq!(m.col(4), Some(ColSpan { lo: 3, hi: 4 }));
        assert_eq!(m.corner(), Coord::new(1, 1));
        assert_eq!(m.opposite(), Coord::new(5, 5));
        assert_eq!(m.cells().count(), m.cell_count());
    }

    #[test]
    fn descending_staircase_fills_and_stays_one_component() {
        let set = build(Mesh::square(10), &[(2, 4), (3, 3), (4, 2)]);
        assert_eq!(set.len(), 1);
        let m = set.get(MccId(0));
        assert_eq!(m.cell_count(), 9);
        assert_eq!(m.faulty_count(), 3);
        assert!(m.is_staircase());
        assert_eq!(m.bbox(), Rect::new(Coord::new(2, 2), Coord::new(4, 4)));
    }

    #[test]
    fn border_touching_mcc_has_out_of_mesh_corner() {
        let set = build(Mesh::square(6), &[(0, 0)]);
        let m = set.get(MccId(0));
        assert_eq!(m.corner(), Coord::new(-1, -1));
        assert!(!set.labeling().is_safe_node(m.corner()));
        assert!(set.labeling().is_safe_node(m.opposite()));
    }

    #[test]
    fn corner_blocked_by_diagonal_mcc_is_unusable() {
        // MCC A at (3,3); its corner (2,2) is itself faulty (MCC B).
        let set = build(Mesh::square(8), &[(3, 3), (2, 2)]);
        assert_eq!(set.len(), 2);
        let a = set.iter().find(|m| m.contains(Coord::new(3, 3))).expect("mcc A");
        assert_eq!(a.corner(), Coord::new(2, 2));
        assert!(!set.labeling().is_safe_node(a.corner()));
    }

    #[test]
    fn row_range_and_region_predicates() {
        // Staircase: col2 [2,2], col3 [2,3], col4 [3,4].
        let set = build(Mesh::square(10), &[(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)]);
        let m = set.get(MccId(0));
        assert_eq!(m.row_range(2), Some((2, 3)));
        assert_eq!(m.row_range(3), Some((3, 4)));
        assert_eq!(m.row_range(4), Some((4, 4)));
        assert_eq!(m.row_range(1), None);
        assert_eq!(m.row_range(5), None);
        assert_eq!(m.row_range(i32::MIN), None);

        // Y-shadow: below the lower staircase, within the column span.
        assert!(m.shadow_y(Coord::new(2, 1)));
        assert!(m.shadow_y(Coord::new(4, 2)));
        assert!(!m.shadow_y(Coord::new(1, 1))); // west of span
        assert!(!m.shadow_y(Coord::new(4, 3))); // a cell, not shadow
                                                // Y-critical: above the upper staircase.
        assert!(m.critical_y(Coord::new(2, 3)));
        assert!(m.critical_y(Coord::new(4, 5)));
        assert!(!m.critical_y(Coord::new(5, 5)));
        // X-shadow / X-critical.
        assert!(m.shadow_x(Coord::new(0, 2)));
        assert!(m.shadow_x(Coord::new(2, 3)));
        assert!(!m.shadow_x(Coord::new(2, 2)));
        assert!(m.critical_x(Coord::new(4, 2)));
        assert!(m.critical_x(Coord::new(5, 3)));
        assert!(!m.critical_x(Coord::new(5, 5)));
    }

    #[test]
    fn blocking_condition_matches_geometry() {
        // Single fault at (5,5): s on the same column below, d on the same
        // column above => blocked in +Y; shifting d one column east
        // unblocks.
        let set = build(Mesh::square(10), &[(5, 5)]);
        let m = set.get(MccId(0));
        let s = Coord::new(5, 0);
        assert!(m.shadow_y(s) && m.critical_y(Coord::new(5, 9)));
        assert!(!(m.shadow_y(s) && m.critical_y(Coord::new(6, 9))));
        // And the X-type condition for a west-east pair on the same row.
        assert!(m.shadow_x(Coord::new(0, 5)) && m.critical_x(Coord::new(9, 5)));
    }

    mod indexes {
        use super::*;
        use meshpath_mesh::FaultInjection;
        use proptest::prelude::*;
        use rand::rngs::StdRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every index answers what its definition answers: a
            /// `row_words` bit is `mcc_at(..).is_some()`, and `in_col` /
            /// `in_row` list exactly the MCCs with a span on that line, in
            /// ascending id order (one past either end included).
            #[test]
            fn indexes_match_their_definitions(
                ((n, faults), (seed, o_ix)) in
                    ((5u32..18, 0usize..10), (0u64..u64::MAX, 0usize..4))
            ) {
                let mesh = Mesh::square(n);
                let mut rng = StdRng::seed_from_u64(seed);
                let fs = FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng);
                let set = MccSet::build(&fs, Orientation::ALL[o_ix], BorderPolicy::Open);
                for oc in mesh.iter() {
                    let bit = set.row_words(oc.y)[oc.x as usize / 64] >> (oc.x % 64) & 1;
                    prop_assert_eq!(bit == 1, set.mcc_at(oc).is_some(), "row bit at {:?}", oc);
                }
                for k in -1..=n as i32 {
                    let on_col: Vec<MccId> =
                        set.iter().filter(|m| m.col(k).is_some()).map(Mcc::id).collect();
                    let on_row: Vec<MccId> =
                        set.iter().filter(|m| m.row_range(k).is_some()).map(Mcc::id).collect();
                    prop_assert_eq!(set.in_col(k), on_col, "column {}", k);
                    prop_assert_eq!(set.in_row(k), on_row, "row {}", k);
                }
            }

            /// The stored row spans are the column spans transposed:
            /// `row_range` answers what a scan of `cols` answers, for
            /// staircases (`Open`) and per-column hulls (`Blocking`)
            /// alike, on every row and one past either end.
            #[test]
            fn row_spans_equal_the_column_scan(
                ((n, density), (seed, b_ix)) in
                    ((5u32..20, 0usize..30), (0u64..u64::MAX, 0usize..2))
            ) {
                let mesh = Mesh::square(n);
                let mut rng = StdRng::seed_from_u64(seed);
                let fs = FaultSet::random(
                    mesh,
                    mesh.len() * density / 100,
                    FaultInjection::Uniform,
                    &mut rng,
                );
                let border = [BorderPolicy::Open, BorderPolicy::Blocking][b_ix];
                for o in Orientation::ALL {
                    let set = MccSet::build(&fs, o, border);
                    for m in set.iter() {
                        for y in -1..=n as i32 {
                            prop_assert_eq!(
                                m.row_range(y), m.row_range_by_scan(y),
                                "{:?} {:?} {:?} row {} of {:?}", o, border, m.id(), y, m.cols()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rim_touching_mccs_are_indexed_like_any_other() {
        // One single-cell MCC on each rim of a 6x6 mesh: a corner of each
        // lies outside the mesh, its spans and lists do not care.
        let (west, south, east, north) = ((0, 2), (3, 0), (5, 3), (2, 5));
        let set = build(Mesh::square(6), &[west, south, east, north]);
        assert_eq!(set.len(), 4);
        let at = |(x, y): (i32, i32)| set.mcc_at(Coord::new(x, y)).expect("a fault is in an MCC");
        let mesh = *set.mesh();
        assert!(!mesh.contains(set.get(at(west)).corner()));
        assert!(!mesh.contains(set.get(at(south)).corner()));
        assert!(!mesh.contains(set.get(at(east)).opposite()));
        assert!(!mesh.contains(set.get(at(north)).opposite()));
        for cell in [west, south, east, north] {
            let (m, (x, y)) = (set.get(at(cell)), cell);
            assert_eq!(m.row_range(y), Some((x, x)));
            assert_eq!((m.row_range(y - 1), m.row_range(y + 1)), (None, None));
            assert_eq!((set.in_col(x), set.in_row(y)), (&[m.id()][..], &[m.id()][..]));
            // The predicates are geometry: they hold off the mesh too.
            assert!(m.shadow_x(Coord::new(x - 1, y)) && m.critical_x(Coord::new(x + 1, y)));
        }
        for off in [-1, 6] {
            assert!(set.in_col(off).is_empty() && set.in_row(off).is_empty());
        }
        assert!(set.in_col(1).is_empty() && set.in_row(4).is_empty());
    }

    #[test]
    fn row_words_span_word_boundaries_and_stop_at_the_mesh_width() {
        // 130 columns: three words per row, the last holding two columns.
        let mesh = Mesh::new(130, 3);
        let set = build(mesh, &[(0, 0), (63, 1), (64, 1), (129, 2)]);
        assert_eq!(set.row_words(0), [1, 0, 0]);
        assert_eq!(set.row_words(1), [1 << 63, 1, 0]);
        assert_eq!(set.row_words(2), [0, 0, 0b10]);
        let cells: usize =
            (0..3).flat_map(|y| set.row_words(y)).map(|w| w.count_ones() as usize).sum();
        assert_eq!(cells, set.iter().map(Mcc::cell_count).sum::<usize>());
    }

    #[test]
    fn contains_matches_cell_grid() {
        let set = build(Mesh::square(12), &[(2, 4), (3, 3), (4, 2), (8, 8), (8, 9)]);
        for oc in Mesh::square(12).iter() {
            let by_grid = set.mcc_at(oc);
            let by_shape = set.iter().find(|m| m.contains(oc)).map(|m| m.id());
            assert_eq!(by_grid, by_shape, "mismatch at {oc:?}");
        }
    }
}
