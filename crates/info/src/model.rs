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
//! Knowledge is stored as one bit-set per *distinct* carrier set plus, per
//! MCC, the index of its set, so `knows(node, mcc)` is O(1): an index load
//! and a bit test. The members of one B2 merge component end with the same
//! set (`close_under_merges`), so B2 holds about a third as many sets as
//! MCCs; B1 and B3 are interned by the same rule.
//!
//! **What a B2 fill costs.** An MCC's forbidden regions are assembled as
//! column masks a row (`RegionFill`) — a row-limited shape sets a span
//! of a row's words, a column-limited one (the X-funnel, the stored
//! Y-region) is turned into row form by a start/end column-mask
//! sweep — and then inserted with one [`BitGrid::insert_row_masked`] per
//! run of columns, cut by a flat safe-node set built once per
//! [`InfoModel::build_with`]; the Fig. 5(c) message count is the popcount
//! of the newly set bits. A fill costs rows x words, not cells. The
//! region-merge closure unions each strongly connected component of the
//! merge graph once with each component it reads (`close_under_merges`).

use meshpath_fault::{Mcc, MccId, MccSet};
use meshpath_mesh::{BitGrid, Coord, FxHashMap};

use crate::boundary::{BoundarySet, Region};
use crate::walker::Walk;

/// Which information model a table was built under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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
    /// The distinct carrier sets, each stored once.
    sets: Vec<BitGrid>,
    /// Per MCC, the index in `sets` of the nodes holding its triple.
    set_of: Vec<u32>,
    /// Eq.-4 successor per MCC (type-I), resolved at build time; `None`
    /// for B1/B2 (which do not record relations) and for chain tails.
    succ_y: Vec<Option<MccId>>,
    /// Eq.-4 successor per MCC (type-II).
    succ_x: Vec<Option<MccId>>,
    stats: PropagationStats,
}

impl InfoModel {
    /// Builds the knowledge tables of `kind` for `set`, reusing an
    /// already-constructed [`BoundarySet`].
    pub fn build_with(set: &MccSet, bounds: &BoundarySet, kind: ModelKind) -> Self {
        let mesh = *set.mesh();
        let mut knowledge: Vec<BitGrid> = Vec::with_capacity(set.len());
        let mut messages = 0u64;
        let mut fill = (kind == ModelKind::B2).then(|| RegionFill::new(set));

        for mcc in set.iter() {
            let b = bounds.get(mcc.id());
            let mut grid = BitGrid::new(mesh);
            // Identification contour (all models run Algorithm 1 step 1).
            for &c in b.edge_nodes() {
                grid.insert(c);
            }
            messages += b.edge_nodes().len() as u64;
            if let Some(fill) = &mut fill {
                // Algorithm 4 step 5: the four boundary polylines, each
                // absorbed as its funnel reads its limits off it, then the
                // broadcast into the forbidden region enclosed between them...
                messages += fill.funnel_y(mcc, b.west_y(), b.east_y(), &mut grid);
                messages += fill.funnel_x(mcc, b.south_x(), b.north_x(), &mut grid);
                // ...and into the stored forbidden regions, the shadows of
                // every MCC whose region merged into this one ("R_Y(v)
                // merges into R_Y(c)"): a node blocked by a merged member
                // must know the root's triple even where the boundary walks
                // could not pass (clusters wedged against the mesh rim).
                fill.regions(b.regions(), bounds.profiles());
                messages += fill.insert_into(&mut grid);
            } else {
                // -X / -Y boundaries (all models).
                messages += absorb(&mut grid, b.west_y()) + absorb(&mut grid, b.south_x());
                if kind == ModelKind::B3 {
                    // +X / +Y boundaries and the split propagations.
                    for w in [b.east_y(), b.north_x()]
                        .into_iter()
                        .chain(b.splits_y())
                        .chain(b.splits_x())
                    {
                        messages += absorb(&mut grid, w);
                    }
                }
            }

            knowledge.push(grid);
        }

        if kind == ModelKind::B2 {
            close_under_merges(&mut knowledge, bounds);
        }
        // Union of all carriers (Fig. 5c numerator).
        let mut involved = BitGrid::new(mesh);
        involved.union_with_all(&knowledge);

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

        let (sets, set_of) = intern(knowledge);
        InfoModel { kind, sets, set_of, succ_y, succ_x, stats }
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
        self.carriers(mcc).contains(oc)
    }

    /// The nodes holding `mcc`'s triple.
    #[inline]
    fn carriers(&self, mcc: MccId) -> &BitGrid {
        &self.sets[self.set_of[mcc.index()] as usize]
    }

    /// The MCCs known at `oc`: one [`knows`](Self::knows) test per MCC
    /// of the orientation, O(#MCC) — for reports and tests. A routing
    /// decision never enumerates like this: Algorithm 2 asks
    /// `knows(oc, f)` only for the few MCCs whose critical region holds
    /// the phase target (`meshpath_route::alg2`, "What a decision
    /// reads").
    pub fn known_at(&self, oc: Coord) -> Vec<MccId> {
        (0..self.set_of.len() as u32).map(MccId).filter(|&id| self.knows(oc, id)).collect()
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

    /// Propagation cost (Fig. 5c).
    #[inline]
    pub fn stats(&self) -> PropagationStats {
        self.stats
    }
}

/// Assembles one MCC's B2 region as column masks a row and inserts it a
/// word of a row at a time; one per [`InfoModel::build_with`] call, its
/// scratch shared by every MCC.
struct RegionFill {
    /// The safe nodes, flat: every insert is cut by this mask.
    safe: BitGrid,
    width: i32,
    height: i32,
    /// Words per row of the column masks below: bit `x % 64` of word
    /// `x / 64` of a row's words stands for column `x`.
    words_per_row: usize,
    /// The region being assembled. All zero between MCCs.
    region: Vec<u64>,
    /// The pending column-limited shape as events: column `x`'s bit is set
    /// in `starts` on the row its span begins and in `ends` on the row it
    /// ends. All zero between sweeps.
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// The columns whose span covers the row being swept.
    active: Vec<u64>,
    /// The rows holding pending events.
    pending: Option<(i32, i32)>,
    /// Per row (Y-funnel) or per column (X-funnel): the polyline limits
    /// on the component's corner side and on its opposite-corner side.
    near: Vec<i32>,
    far: Vec<i32>,
}

impl RegionFill {
    fn new(set: &MccSet) -> Self {
        let mesh = *set.mesh();
        let labeling = set.labeling();
        let mut safe = BitGrid::new(mesh);
        for c in mesh.iter().filter(|&c| labeling.is_safe_node(c)) {
            safe.insert(c);
        }
        let (width, height) = (mesh.width() as usize, mesh.height() as usize);
        let words_per_row = width.div_ceil(64);
        RegionFill {
            safe,
            width: width as i32,
            height: height as i32,
            words_per_row,
            region: vec![0; height * words_per_row],
            starts: vec![0; height * words_per_row],
            ends: vec![0; height * words_per_row],
            active: vec![0; words_per_row],
            pending: None,
            near: vec![0; width.max(height)],
            far: vec![0; width.max(height)],
        }
    }

    /// Adds columns `x0..=x1` (clamped to the mesh) of row `y` to the region.
    fn row(&mut self, y: i32, x0: i32, x1: i32) {
        let (x0, x1) = (x0.max(0), x1.min(self.width - 1));
        if x0 > x1 {
            return;
        }
        let (first, last) = (x0 as usize / 64, x1 as usize / 64);
        let words = &mut self.region[y as usize * self.words_per_row..][first..=last];
        for (k, word) in words.iter_mut().enumerate() {
            let mut span = u64::MAX;
            if k == 0 {
                span &= u64::MAX << (x0 % 64);
            }
            if k == last - first {
                span &= u64::MAX >> (63 - x1 % 64);
            }
            *word |= span;
        }
    }

    /// Adds rows `y0..=y1` (clamped to the mesh) of in-mesh column `x` to
    /// the pending shape. A shape holds one span per column.
    fn column(&mut self, x: i32, y0: i32, y1: i32) {
        let (y0, y1) = (y0.max(0), y1.min(self.height - 1));
        if y0 > y1 {
            return;
        }
        let (word, bit) = (x as usize / 64, 1u64 << (x % 64));
        self.starts[y0 as usize * self.words_per_row + word] |= bit;
        self.ends[y1 as usize * self.words_per_row + word] |= bit;
        self.pending = Some(match self.pending {
            Some((lo, hi)) => (lo.min(y0), hi.max(y1)),
            None => (y0, y1),
        });
    }

    /// Adds the pending column-limited shape to the region in row form:
    /// sweeping north, a column joins the active mask on the row its span
    /// starts and leaves after the row it ends.
    fn sweep_columns(&mut self) {
        let Some((lo, hi)) = self.pending.take() else {
            return;
        };
        for y in lo..=hi {
            let row = y as usize * self.words_per_row;
            for k in 0..self.words_per_row {
                self.active[k] |= std::mem::take(&mut self.starts[row + k]);
                self.region[row + k] |= self.active[k];
                self.active[k] &= !std::mem::take(&mut self.ends[row + k]);
            }
        }
    }

    /// Inserts the safe nodes of the assembled region into `grid` — one
    /// row insert per run of columns — and clears it. Returns how many
    /// nodes were new to `grid`.
    fn insert_into(&mut self, grid: &mut BitGrid) -> u64 {
        let mut added = 0;
        for (i, word) in self.region.iter_mut().enumerate() {
            let mut cols = std::mem::take(word);
            let y = (i / self.words_per_row) as i32;
            let base = (i % self.words_per_row * 64) as i32;
            while cols != 0 {
                let first = cols.trailing_zeros();
                let run = (cols >> first).trailing_ones();
                let x0 = base + first as i32;
                added += grid.insert_row_masked(y, x0, x0 + run as i32 - 1, &self.safe) as u64;
                cols &= !(u64::MAX >> (64 - run) << first);
            }
        }
        added
    }

    /// Per line across a funnel (`line_and_pos` of a node: its row and
    /// column for the Y-funnel, its column and row for the X-funnel), the
    /// least position of the corner-side polyline in `near` (`i32::MAX`
    /// where it has none) and the greatest of the opposite-corner one in
    /// `far` (`i32::MIN`). Both polylines are absorbed into `grid` in the
    /// same pass, one decode each; returns their node count (one message
    /// a node).
    fn polyline_limits(
        &mut self,
        near: Walk<'_>,
        far: Walk<'_>,
        line_and_pos: impl Fn(Coord) -> (i32, i32),
        grid: &mut BitGrid,
    ) -> u64 {
        self.near.fill(i32::MAX);
        self.far.fill(i32::MIN);
        near.nodes().for_each(|c| {
            grid.insert(c);
            let (line, pos) = line_and_pos(c);
            self.near[line as usize] = self.near[line as usize].min(pos);
        });
        far.nodes().for_each(|c| {
            grid.insert(c);
            let (line, pos) = line_and_pos(c);
            self.far[line as usize] = self.far[line as usize].max(pos);
        });
        (near.len() + far.len()) as u64
    }

    /// The Y-forbidden region of `mcc`: safe nodes enclosed between the
    /// `-X`/`+X` boundary polylines, south of the component (paper
    /// Fig. 4(b)).
    ///
    /// Absorbs both polylines into `grid`; returns their node count.
    ///
    /// Row scan: for every row, the west limit is the westmost `-X`
    /// polyline node (or the lower-staircase edge within the component's
    /// band), the east limit the eastmost `+X` polyline node. Rows not
    /// covered by a polyline (early-terminated walks around
    /// border-touching clusters) are skipped — a conservative
    /// under-approximation: nodes of those rows just do not store `mcc`.
    fn funnel_y(&mut self, mcc: &Mcc, west: Walk<'_>, east: Walk<'_>, grid: &mut BitGrid) -> u64 {
        let yc = mcc.corner().y;
        let yct = mcc.opposite().y.min(self.height - 1);
        let messages = self.polyline_limits(west, east, |c| (c.y, c.x), grid);
        for y in 0..=yct {
            // Band rows: the region starts at the lower staircase edge.
            let west_limit =
                if y <= yc { self.near[y as usize] } else { staircase_west_limit(mcc, y) };
            // No +X polyline (unusable opposite corner): fall back to the
            // component's east flank.
            let east_limit =
                if self.far[y as usize] != i32::MIN { self.far[y as usize] } else { mcc.x1() + 1 };
            if west_limit != i32::MAX {
                self.row(y, west_limit, east_limit);
            }
        }
        messages
    }

    /// The X-forbidden region: the 90-degree analogue of
    /// [`funnel_y`](Self::funnel_y), limited per column and swept into rows.
    fn funnel_x(&mut self, mcc: &Mcc, south: Walk<'_>, north: Walk<'_>, grid: &mut BitGrid) -> u64 {
        let xc = mcc.corner().x;
        let xct = mcc.opposite().x.min(self.width - 1);
        let messages = self.polyline_limits(south, north, |c| (c.x, c.y), grid);
        for x in 0..=xct {
            let south_limit =
                if x <= xc { self.near[x as usize] } else { staircase_south_limit(mcc, x) };
            let north_limit = if self.far[x as usize] != i32::MIN {
                self.far[x as usize]
            } else {
                mcc.opposite().y
            };
            if south_limit != i32::MAX {
                self.column(x, south_limit, north_limit);
            }
        }
        self.sweep_columns();
        messages
    }

    /// The forbidden regions `[R_Y(F), R_X(F)]`, read off their
    /// `profiles`: in each column of the Y-region the rows under the
    /// profile (one span a column, swept once), in each row of the
    /// X-region the columns west of it.
    fn regions(&mut self, [y, x]: [Region; 2], [py, px]: [&[u16]; 2]) {
        for (col, &h) in (y.base..).zip(&py[y.at as usize..(y.at + y.len) as usize]) {
            self.column(col, 0, i32::from(h) - 1);
        }
        self.sweep_columns();
        for (row, &h) in (x.base..).zip(&px[x.at as usize..(x.at + x.len) as usize]) {
            self.row(row, 0, i32::from(h) - 1);
        }
    }
}

/// Inserts `walk`'s nodes into `grid`; returns its node count (one message
/// a node).
fn absorb(grid: &mut BitGrid, walk: Walk<'_>) -> u64 {
    walk.nodes().for_each(|c| {
        grid.insert(c);
    });
    walk.len() as u64
}

/// Stores each distinct set of `knowledge` once: the sets in order of first
/// occurrence, and per MCC the index of its set among them. Equal sets have
/// equal sizes, so a set is compared only with the kept sets of its size.
fn intern(knowledge: Vec<BitGrid>) -> (Vec<BitGrid>, Vec<u32>) {
    let mut kept_by_size: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
    let mut sets: Vec<BitGrid> = Vec::new();
    let set_of = knowledge
        .into_iter()
        .map(|grid| {
            let kept = kept_by_size.entry(grid.count()).or_default();
            if let Some(&i) = kept.iter().find(|&&i| sets[i as usize] == grid) {
                return i;
            }
            kept.push(sets.len() as u32);
            sets.push(grid);
            sets.len() as u32 - 1
        })
        .collect();
    (sets, set_of)
}

/// The region-merge closure: "R_Y(v) merges into R_Y(c)" makes the root's
/// triple known throughout every merged member's region, transitively (the
/// broadcast carries the merged triple along the joint boundaries) — the
/// least sets with `K(c) ⊇ K(v)` for every `v` on `c`'s merge lists.
///
/// The merge graph can contain cycles via opposite-side walks. The
/// components of a cycle end with one common set, and a component reads
/// only components that are final once they are taken in reverse
/// topological order, so every component is unioned exactly once with each
/// component it reads — whatever the depth of a chain of merges.
fn close_under_merges(knowledge: &mut [BitGrid], bounds: &BoundarySet) {
    let Some(first) = knowledge.first() else {
        return;
    };
    let reads = |c: usize| {
        let (y, x) = (bounds.merged_y.get(c), bounds.merged_x.get(c));
        y.iter().chain(x).map(|id| id.index()).filter(move |&v| v != c)
    };
    let (order, component) = merge_components(knowledge.len(), reads);
    // The set being closed, swapped out of `knowledge` so its sources can
    // be borrowed from there.
    let mut acc = BitGrid::new(*first.mesh());
    let mut read_by = vec![usize::MAX; knowledge.len()];
    let mut sources: Vec<usize> = Vec::new();
    let mut rest = &order[..];
    while let Some(&head) = rest.first() {
        let k = component[head];
        let len = rest.iter().take_while(|&&m| component[m] == k).count();
        let (members, tail) = rest.split_at(len);
        rest = tail;
        // One representative of every other component this one reads.
        read_by[k] = k;
        sources.clear();
        sources.extend_from_slice(&members[1..]);
        for &m in members {
            for v in reads(m) {
                if read_by[component[v]] != k {
                    read_by[component[v]] = k;
                    sources.push(v);
                }
            }
        }
        if sources.is_empty() {
            continue;
        }
        std::mem::swap(&mut acc, &mut knowledge[head]);
        acc.union_with_all(sources.iter().map(|&v| &knowledge[v]));
        for &m in &members[1..] {
            knowledge[m] = acc.clone();
        }
        std::mem::swap(&mut acc, &mut knowledge[head]);
    }
}

/// The strongly connected components of the graph `c -> reads(c)` over
/// nodes `0..n` (Tarjan's algorithm, iterative): the nodes grouped by
/// component, components in reverse topological order — every component a
/// node reads sits at or before its own — and the component of each node.
fn merge_components<I: Iterator<Item = usize>>(
    n: usize,
    reads: impl Fn(usize) -> I,
) -> (Vec<usize>, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut component = vec![UNSEEN; n];
    let mut order = Vec::with_capacity(n);
    let mut components = 0;
    let mut visited = 0;
    // Visited nodes not yet given a component, and the depth-first path
    // with each node's unread edges.
    let mut open: Vec<usize> = Vec::new();
    let mut path: Vec<(usize, I)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut entering = Some(root);
        loop {
            if let Some(u) = entering.take() {
                (index[u], low[u]) = (visited, visited);
                visited += 1;
                open.push(u);
                path.push((u, reads(u)));
            }
            let Some((u, edges)) = path.last_mut() else {
                break;
            };
            let u = *u;
            if let Some(v) = edges.next() {
                if index[v] == UNSEEN {
                    entering = Some(v);
                } else if component[v] == UNSEEN {
                    low[u] = low[u].min(index[v]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent] = low[parent].min(low[u]);
            }
            if low[u] == index[u] {
                while let Some(w) = open.pop() {
                    component[w] = components;
                    order.push(w);
                    if w == u {
                        break;
                    }
                }
                components += 1;
            }
        }
    }
    (order, component)
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

    /// [`RegionFill::funnel_y`] a cell at a time, as a list: the reference.
    fn funnel_y(set: &MccSet, mcc: &Mcc, west: Walk<'_>, east: Walk<'_>) -> Vec<Coord> {
        let mesh = *set.mesh();
        let labeling = set.labeling();
        let height = mesh.height() as i32;
        let yc = mcc.corner().y;
        let yct = mcc.opposite().y.min(height - 1);
        if yct < 0 {
            return Vec::new();
        }

        let mut wbx = vec![i32::MAX; height as usize];
        for c in west.nodes() {
            if (0..height).contains(&c.y) {
                wbx[c.y as usize] = wbx[c.y as usize].min(c.x);
            }
        }
        let mut ebx = vec![i32::MIN; height as usize];
        for c in east.nodes() {
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

    /// [`RegionFill::funnel_x`] a cell at a time, as a list: the reference.
    fn funnel_x(set: &MccSet, mcc: &Mcc, south: Walk<'_>, north: Walk<'_>) -> Vec<Coord> {
        let mesh = *set.mesh();
        let labeling = set.labeling();
        let width = mesh.width() as i32;
        let xc = mcc.corner().x;
        let xct = mcc.opposite().x.min(width - 1);
        if xct < 0 {
            return Vec::new();
        }

        let mut sby = vec![i32::MAX; width as usize];
        for c in south.nodes() {
            if (0..width).contains(&c.x) {
                sby[c.x as usize] = sby[c.x as usize].min(c.y);
            }
        }
        let mut nby = vec![i32::MIN; width as usize];
        for c in north.nodes() {
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

    /// B2 knowledge and message count built a cell at a time from the
    /// reference funnels, closed by re-unioning every pair until nothing
    /// grows: what the row-filled build is held to.
    fn b2_by_cells(set: &MccSet, bounds: &BoundarySet) -> (Vec<BitGrid>, u64) {
        let mesh = *set.mesh();
        let safe = |c: Coord| set.labeling().is_safe_node(c);
        let mut knowledge = Vec::new();
        let mut messages = 0u64;
        for mcc in set.iter() {
            let b = bounds.get(mcc.id());
            let mut grid = BitGrid::new(mesh);
            let walks = [b.west_y(), b.south_x(), b.east_y(), b.north_x()];
            for c in b.edge_nodes().iter().copied().chain(walks.into_iter().flat_map(|w| w.nodes()))
            {
                grid.insert(c);
                messages += 1;
            }
            let mut region = funnel_y(set, mcc, b.west_y(), b.east_y());
            region.extend(funnel_x(set, mcc, b.south_x(), b.north_x()));
            for &g in b.merged_y() {
                let gm = set.get(g);
                for (i, span) in gm.cols().iter().enumerate() {
                    region.extend((0..span.lo).map(|y| Coord::new(gm.x0() + i as i32, y)));
                }
            }
            for &g in b.merged_x() {
                let gm = set.get(g);
                for y in gm.cols()[0].lo..gm.opposite().y {
                    if let Some((w, _)) = gm.row_range(y) {
                        region.extend((0..w).map(|x| Coord::new(x, y)));
                    }
                }
            }
            for c in region {
                if safe(c) && grid.insert(c) {
                    messages += 1;
                }
            }
            knowledge.push(grid);
        }
        loop {
            let mut changed = false;
            for b in bounds.iter() {
                let c = b.id().index();
                for v in b.merged_y().iter().chain(b.merged_x()).map(|id| id.index()) {
                    if v != c {
                        let src = knowledge[v].clone();
                        let before = knowledge[c].count();
                        knowledge[c].union_with(&src);
                        changed |= knowledge[c].count() != before;
                    }
                }
            }
            if !changed {
                return (knowledge, messages);
            }
        }
    }

    mod reference {
        use super::*;
        use meshpath_mesh::FaultInjection;
        use proptest::prelude::*;
        use rand::rngs::StdRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(36))]

            /// Row-filled B2 equals the per-cell reference — carriers and
            /// message count — on rows shorter than a word, one past a
            /// word and past two, under all four orientations and both
            /// border policies (`Blocking` makes non-staircase hulls).
            #[test]
            fn row_filled_b2_equals_the_per_cell_reference(
                ((w_ix, height, density), (seed, b_ix)) in
                    ((0usize..3, 5u32..14, 0usize..25), (0u64..u64::MAX, 0usize..2))
            ) {
                let mesh = Mesh::new([10, 65, 130][w_ix], height);
                let mut rng = StdRng::seed_from_u64(seed);
                let fs = FaultSet::random(
                    mesh,
                    mesh.len() * density / 100,
                    FaultInjection::Uniform,
                    &mut rng,
                );
                let border = [BorderPolicy::Open, BorderPolicy::Blocking][b_ix];
                for o in Orientation::ALL {
                    let s = MccSet::build(&fs, o, border);
                    let bounds = BoundarySet::build(&s);
                    let model = InfoModel::build_with(&s, &bounds, ModelKind::B2);
                    let (knowledge, messages) = b2_by_cells(&s, &bounds);
                    prop_assert_eq!(model.stats().messages, messages, "{:?} {:?}", o, border);
                    for (id, want) in knowledge.iter().enumerate() {
                        prop_assert_eq!(
                            model.carriers(MccId(id as u32)), want,
                            "{:?} {:?} MCC {} of {:?}", o, border, id, fs.iter().collect::<Vec<_>>()
                        );
                    }
                }
            }
        }
    }

    /// On the 64x64/204-fault micro fixture a B2 merge component's members
    /// share one stored set — the four orientations store under 0.45 sets
    /// an MCC — and what each node knows is unchanged: the
    /// MCCs `known_at` lists are those whose per-cell reference set holds
    /// the node.
    #[test]
    fn b2_stores_each_shared_carrier_set_once() {
        use meshpath_mesh::FaultInjection;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mesh = Mesh::square(64);
        let mut rng = StdRng::seed_from_u64(0xc01d);
        let fs = FaultSet::random(mesh, mesh.len() / 20, FaultInjection::Uniform, &mut rng);
        let (mut stored, mut mccs) = (0, 0);
        for o in Orientation::ALL {
            let s = MccSet::build(&fs, o, BorderPolicy::Open);
            let bounds = BoundarySet::build(&s);
            let model = InfoModel::build_with(&s, &bounds, ModelKind::B2);
            (stored, mccs) = (stored + model.sets.len(), mccs + s.len());
            let (knowledge, _) = b2_by_cells(&s, &bounds);
            for n in mesh.iter() {
                let scan: Vec<MccId> = (0..s.len() as u32)
                    .map(MccId)
                    .filter(|id| knowledge[id.index()].contains(n))
                    .collect();
                assert_eq!(model.known_at(n), scan, "{o:?} at {n:?}");
            }
        }
        assert!(stored as f64 <= 0.45 * mccs as f64, "{stored} sets stored for {mccs} MCCs");
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
        let bounds = BoundarySet::build(&s);
        let m = InfoModel::build_with(&s, &bounds, ModelKind::B2);
        let merged = |c: MccId| {
            let b = bounds.get(c);
            b.merged_y().iter().chain(b.merged_x()).copied().collect::<Vec<_>>()
        };
        // The chain itself: every component but the last merges its successor.
        for c in (0..11).map(MccId) {
            let next = MccId(c.0 + 1);
            assert!(merged(c).contains(&next), "{c:?} must merge {next:?}");
        }
        for c in s.iter().map(Mcc::id) {
            for v in merged(c) {
                for n in s.mesh().iter() {
                    assert!(!m.knows(n, v) || m.knows(n, c), "{n:?} knows {v:?} but not {c:?}");
                }
            }
        }
    }
}
