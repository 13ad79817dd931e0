//! Blocking sequences and the recursive shortest-path distance.
//!
//! When no Manhattan path exists, Algorithm 5 identifies the *closest
//! blocking sequence* `F1, ..., Fn` (Eq. 1): a staircase chain of MCCs
//! that together bar every monotone path from the current node to the
//! destination. The routing then detours around the sequence through one
//! of `n+1` pivots (Eq. 3) —
//!
//! * `P0`: through `c1`, the initialization corner of the first MCC,
//! * `Pi`: between two consecutive MCCs, via `c'_i` then `c_{i+1}`,
//! * `Pn`: through `c'_n`, the opposite corner of the last MCC —
//!
//! picking the option minimizing the recursively-defined distance `D`
//! (Eq. 2). This module implements the chain search (both the type-I/+Y
//! and type-II/+X variants), the memoized recursion, and a flood-over-
//! known-obstacles fallback used when the paper's enumeration comes up
//! empty (counted and reported by the experiment harness; expected rare).
//!
//! ## What a plan reads
//!
//! Algorithm 5 asks "is there a Manhattan path?" once per phase and
//! detours only when there is none, so a plan should cost its rectangle,
//! not the mesh:
//!
//! * **Feasibility** ([`Planner::manhattan_feasible`]) is a row fill
//!   over the orientation's MCC row words ([`crate::monotone`]): one
//!   word operation per 64 columns per row of the `u`→`d` rectangle,
//!   first with every MCC cell blocking. Nearly every feasible pair is
//!   feasible under that blockage too, and then no per-node knowledge is
//!   read at all. Only a "blocked" answer under local knowledge runs the
//!   fill again with the cells of unknown MCCs cleared — one
//!   `mcc_at` + `knows` per run of unsafe cells in the rectangle.
//! * **The chain search** looks candidates up instead of scanning for
//!   them: F1 has a span on `u`'s column (row), an Eq.-1 successor its
//!   first column (row) between its predecessor's corners —
//!   `MccSet::in_col`/`in_row` list exactly those. Shape tests run before
//!   `knows`: that bit lives in a different carrier set per MCC, and
//!   almost no candidate passes the shape test.
//! * **The fallback flood** ([`Planner::fallback`], also the hybrid
//!   refinement and the legs the recursion prices by BFS) is
//!   goal-directed ([`crate::oracle`]): from `d` it settles the nodes
//!   that can lie on a shortest `d`–`u` path over the known obstacles —
//!   for a Manhattan+2 detour roughly the rectangle and a one-node rim —
//!   and its labels live in the message's [`FloodScratch`], so starting
//!   one allocates and clears nothing. The refinement's flood, kept only
//!   if it beats the pivots, looks no farther than their cost.

use meshpath_fault::{Mcc, MccId, MccSet};
use meshpath_info::ModelKind;
use meshpath_mesh::{Coord, FxHashMap, FxHashSet, Orientation};

use crate::env::Network;
use crate::monotone::{known_mcc_cells_feasible, mcc_cells_feasible};
use crate::oracle::{DistanceField, FloodScratch, UNREACHABLE};

/// Whether routing decisions may use triples not stored at the deciding
/// node (idealized reference runs) or only local knowledge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KnowledgeScope {
    /// Only triples the information model stored at the deciding node.
    #[default]
    Local,
    /// All triples (idealized global knowledge; reference/testing).
    Global,
}

/// Axis of a blocking sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SeqAxis {
    /// Type-I: blocks `+Y` progress.
    TypeI,
    /// Type-II: blocks `+X` progress.
    TypeII,
}

/// The plan produced at a decision point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// No blocking sequence: Manhattan-route straight to the target.
    Direct,
    /// Detour through these intermediate destinations (real coordinates),
    /// re-planning at the last one.
    Waypoints(Vec<Coord>),
    /// Follow this explicit path (BFS-over-known-obstacles fallback).
    Forced(Vec<Coord>),
}

/// Outcome statistics of one planning call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// The Eq.-3 enumeration failed and the BFS fallback was used.
    pub used_fallback: bool,
    /// Estimated remaining length (`D(u, d)`), when computable.
    pub estimate: Option<u64>,
}

/// Distance value for infeasible options.
const INF: u64 = u64::MAX / 4;

/// State of one `D(·, d)` recursion: the memo, the pivot-graph cycle
/// guard, and the flood scratch its BFS-priced legs run in.
struct DistMemo<'f> {
    memo: FxHashMap<Coord, u64>,
    in_progress: FxHashSet<Coord>,
    flood: &'f mut FloodScratch,
}

impl<'f> DistMemo<'f> {
    fn new(flood: &'f mut FloodScratch) -> Self {
        DistMemo { memo: FxHashMap::default(), in_progress: FxHashSet::default(), flood }
    }
}

/// The sequence/distance planner bound to one network and model.
pub struct Planner<'a> {
    net: &'a Network,
    kind: ModelKind,
    scope: KnowledgeScope,
}

impl<'a> Planner<'a> {
    /// Creates a planner over `net` using the `kind` information model.
    pub fn new(net: &'a Network, kind: ModelKind, scope: KnowledgeScope) -> Self {
        Planner { net, kind, scope }
    }

    /// True when `anchor` (real coordinates) holds `f`'s triple in the
    /// orientation-`o` model.
    fn knows(&self, anchor: Coord, o: Orientation, f: MccId) -> bool {
        match self.scope {
            KnowledgeScope::Global => true,
            KnowledgeScope::Local => {
                let oa = o.apply(self.net.mesh(), anchor);
                self.net.model(o, self.kind).knows(oa, f)
            }
        }
    }

    /// True when a Manhattan path from `u` to `d` exists as far as the
    /// knowledge stored at `anchor` can tell (monotone DP over the cells
    /// of known MCCs). This is the exact feasibility test: the Eq.-1
    /// chain conditions alone over-approximate blockage in marginal
    /// geometries (two chained MCCs with `xc_{i+1} = xc'_i` leave a
    /// one-column gap a monotone path can thread).
    ///
    /// Two row fills over the MCC row words (see [`crate::monotone`]):
    /// first with every MCC cell blocking — a superset of what any anchor
    /// knows, so "feasible" is final, and it is the common answer — then,
    /// only when that fails under local knowledge, with the cells of the
    /// MCCs `anchor` does not know cleared.
    pub fn manhattan_feasible(&self, anchor: Coord, u: Coord, d: Coord) -> bool {
        let o = Orientation::normalizing(u, d);
        let mesh = self.net.mesh();
        let (ou, od) = (o.apply(mesh, u), o.apply(mesh, d));
        let set = self.net.mccs(o);
        mcc_cells_feasible(set, ou, od)
            || (self.scope == KnowledgeScope::Local
                && known_mcc_cells_feasible(set, ou, od, |id| self.knows(anchor, o, id)))
    }

    /// Finds the closest blocking sequence from `u` toward `d` (real
    /// coordinates), using the knowledge stored at `anchor`.
    ///
    /// Returns `None` when a Manhattan path exists (no blocking). When
    /// blocked, returns the Eq.-1 chain when one can be enumerated; a
    /// blocked pair with no enumerable chain returns an empty chain
    /// (callers fall back to BFS planning).
    pub(crate) fn closest_sequence(
        &self,
        anchor: Coord,
        u: Coord,
        d: Coord,
    ) -> Option<(SeqAxis, Vec<MccId>, Orientation)> {
        if self.manhattan_feasible(anchor, u, d) {
            return None;
        }
        let o = Orientation::normalizing(u, d);
        let mesh = self.net.mesh();
        let (ou, od) = (o.apply(mesh, u), o.apply(mesh, d));
        let set = self.net.mccs(o);

        let type_i = self.chain(anchor, o, set, ou, od, SeqAxis::TypeI);
        let type_ii = self.chain(anchor, o, set, ou, od, SeqAxis::TypeII);
        match (type_i, type_ii) {
            (Some(a), None) => Some((SeqAxis::TypeI, a, o)),
            (None, Some(b)) => Some((SeqAxis::TypeII, b, o)),
            // The paper proves safe endpoints cannot see both kinds; if
            // local knowledge disagrees, prefer the shorter chain.
            (Some(a), Some(b)) => {
                if a.len() <= b.len() {
                    Some((SeqAxis::TypeI, a, o))
                } else {
                    Some((SeqAxis::TypeII, b, o))
                }
            }
            // Blocked, but the greedy chain enumeration found nothing:
            // signal with an empty chain.
            (None, None) => Some((SeqAxis::TypeI, Vec::new(), o)),
        }
    }

    /// Greedy Eq.-1 chain construction for one axis.
    fn chain(
        &self,
        anchor: Coord,
        o: Orientation,
        set: &MccSet,
        ou: Coord,
        od: Coord,
        axis: SeqAxis,
    ) -> Option<Vec<MccId>> {
        let model = self.net.model(o, self.kind);
        let known = |f: &Mcc| self.knows(anchor, o, f.id());

        // The MCCs on one line of the search axis: a column (type I) or
        // a row (type II), ascending ids.
        let on_line = |k: i32| {
            let ids = match axis {
                SeqAxis::TypeI => set.in_col(k),
                SeqAxis::TypeII => set.in_row(k),
            };
            ids.iter().map(|&id| set.get(id))
        };

        // F1: the closest MCC whose shadow contains u — it has a span on
        // u's line. Geometry first, here and in the successor search:
        // `known` reads a different per-MCC carrier set for every
        // candidate, the shape tests read the candidate itself and reject
        // almost all of them.
        let start = match axis {
            SeqAxis::TypeI => on_line(ou.x)
                .filter(|f| f.shadow_y(ou) && known(f))
                .min_by_key(|f| (f.col(ou.x).map_or(i32::MAX, |s| s.lo), f.id())),
            SeqAxis::TypeII => on_line(ou.y)
                .filter(|f| f.shadow_x(ou) && known(f))
                .min_by_key(|f| (f.row_range(ou.y).map_or(i32::MAX, |(w, _)| w), f.id())),
        }?;

        let terminal = |f: &Mcc| match axis {
            SeqAxis::TypeI => f.critical_y(od),
            SeqAxis::TypeII => f.critical_x(od),
        };
        // Eq.-1 pairwise chain condition (corner coordinates).
        let chainable = |f: &Mcc, g: &Mcc| match axis {
            SeqAxis::TypeI => {
                f.corner().x <= g.corner().x
                    && g.corner().x <= f.opposite().x
                    && f.opposite().y < g.opposite().y
            }
            SeqAxis::TypeII => {
                f.corner().y <= g.corner().y
                    && g.corner().y <= f.opposite().y
                    && f.opposite().x < g.opposite().x
            }
        };
        let closeness = |g: &Mcc| match axis {
            SeqAxis::TypeI => g.opposite().y,
            SeqAxis::TypeII => g.opposite().x,
        };

        let mut chain = vec![start.id()];
        let mut cur = start;
        let mut guard = set.len() + 1;
        while !terminal(cur) {
            guard = guard.checked_sub(1)?;
            // Eq. 4 (B3): the recorded relation resolves the successor;
            // otherwise search the known set.
            let by_relation = model
                .succ_y(cur.id())
                .filter(|_| axis == SeqAxis::TypeI)
                .or_else(|| model.succ_x(cur.id()).filter(|_| axis == SeqAxis::TypeII))
                .map(|id| set.get(id))
                .filter(|g| chainable(cur, g));
            // A chainable `g` has its corner between `cur`'s two corners on
            // the axis, so its first line is one of these. Ties on
            // closeness go to the lower id.
            let (first, last) = match axis {
                SeqAxis::TypeI => (cur.corner().x + 1, cur.opposite().x + 1),
                SeqAxis::TypeII => (cur.corner().y + 1, cur.opposite().y + 1),
            };
            let next = by_relation.or_else(|| {
                (first..=last)
                    .flat_map(on_line)
                    .filter(|g| chainable(cur, g) && !chain.contains(&g.id()) && known(g))
                    .min_by_key(|g| (closeness(g), g.id()))
            })?;
            chain.push(next.id());
            cur = next;
        }
        Some(chain)
    }

    /// The recursive shortest-path distance `D(u, d)` of Eq. 2, using the
    /// knowledge stored at `anchor`. Returns `None` when every option is
    /// infeasible within the known information.
    #[cfg(test)]
    pub(crate) fn distance(&self, anchor: Coord, u: Coord, d: Coord) -> Option<u64> {
        let mut flood = FloodScratch::default();
        let v = self.dist_rec(anchor, u, d, &mut DistMemo::new(&mut flood), 0);
        (v < INF).then_some(v)
    }

    fn dist_rec(
        &self,
        anchor: Coord,
        u: Coord,
        d: Coord,
        rec: &mut DistMemo<'_>,
        depth: usize,
    ) -> u64 {
        if u == d {
            return 0;
        }
        if let Some(&v) = rec.memo.get(&u) {
            return v;
        }
        if depth > 4 * self.net.mccs(Orientation::IDENTITY).len() + 16 {
            return INF;
        }
        if !rec.in_progress.insert(u) {
            return INF; // cycle in the pivot graph
        }
        let value = match self.closest_sequence(anchor, u, d) {
            None => u64::from(u.manhattan(d)),
            Some((_, chain, _)) if chain.is_empty() => {
                // Blocked with no enumerable chain: price the leg with a
                // BFS over the known obstacles (model-consistent).
                self.known_bfs_distance(anchor, u, d, rec.flood).unwrap_or(INF)
            }
            Some((_, chain, o)) => {
                let set = self.net.mccs(o);
                let mesh = self.net.mesh();
                let usable = |oc: Coord| set.labeling().is_safe_node(oc);
                let real = |oc: Coord| o.apply(mesh, oc);
                // A leg is priced at Manhattan distance only when it is
                // actually Manhattan-feasible within the knowledge; the
                // paper assumes this (Eq. 1 property 5), the greedy chain
                // does not guarantee it.
                let leg = |a: Coord, b: Coord| {
                    if self.manhattan_feasible(anchor, a, b) {
                        u64::from(a.manhattan(b))
                    } else {
                        INF
                    }
                };
                let mut best = INF;
                let n = chain.len();
                // P0: through c1.
                let c1 = set.get(chain[0]).corner();
                if usable(c1) {
                    let c1r = real(c1);
                    let tail = self.dist_rec(anchor, c1r, d, rec, depth + 1);
                    best = best.min(leg(u, c1r).saturating_add(tail));
                }
                // Pi: between consecutive MCCs.
                for i in 0..n.saturating_sub(1) {
                    let ci_op = set.get(chain[i]).opposite();
                    let cn = set.get(chain[i + 1]).corner();
                    if usable(ci_op) && usable(cn) {
                        let (a, b) = (real(ci_op), real(cn));
                        let tail = self.dist_rec(anchor, b, d, rec, depth + 1);
                        let cost = leg(u, a).saturating_add(leg(a, b)).saturating_add(tail);
                        best = best.min(cost);
                    }
                }
                // Pn: through c'_n.
                let cn_op = set.get(chain[n - 1]).opposite();
                if usable(cn_op) {
                    let cr = real(cn_op);
                    let tail = self.dist_rec(anchor, cr, d, rec, depth + 1);
                    best = best.min(leg(u, cr).saturating_add(tail));
                }
                best
            }
        };
        rec.in_progress.remove(&u);
        rec.memo.insert(u, value);
        value
    }

    /// Passability used by the BFS fallback: a node is an obstacle when it
    /// is a *faulty* cell of an MCC known at `anchor` (or in `learned`).
    ///
    /// Healthy-but-unsafe cells stay passable: the triples describe region
    /// shapes, and the true shortest path may legitimately thread useless
    /// or can't-reach nodes when the blocking geometry degenerates (e.g.
    /// an MCC whose initialization corner is itself faulty) — a case
    /// Theorem 1's safe-nodes-suffice argument overlooks near corners and
    /// borders. Unknown faults remain passable too: the route re-plans
    /// when local fault detection meets them.
    fn fallback_passable<'s>(
        &'s self,
        anchor: Coord,
        o: Orientation,
        learned: &'s FxHashSet<Coord>,
    ) -> impl Fn(Coord) -> bool + 's {
        let mesh = *self.net.mesh();
        let faults = self.net.faults();
        let set = self.net.mccs(o);
        let model = self.net.model(o, self.kind);
        let scope = self.scope;
        let oa = o.apply(&mesh, anchor);
        move |c: Coord| {
            if learned.contains(&c) {
                return false;
            }
            if !faults.is_faulty(c) {
                return true;
            }
            match set.mcc_at(o.apply(&mesh, c)) {
                Some(id) => scope == KnowledgeScope::Local && !model.knows(oa, id),
                None => true,
            }
        }
    }

    /// Model-consistent BFS distance over the fallback obstacle set.
    fn known_bfs_distance(
        &self,
        anchor: Coord,
        u: Coord,
        d: Coord,
        flood: &mut FloodScratch,
    ) -> Option<u64> {
        let mesh = *self.net.mesh();
        let o = Orientation::normalizing(u, d);
        let learned = FxHashSet::default();
        let passable = self.fallback_passable(anchor, o, &learned);
        if !passable(d) || !passable(u) {
            return None;
        }
        let dist = DistanceField::with_predicate_until(mesh, d, passable, u, None, flood).dist();
        (dist != UNREACHABLE).then_some(u64::from(dist))
    }

    /// Produces the routing plan at `u` toward `d` (Algorithm 5 steps
    /// 2-5). `learned` holds nodes the route has locally observed to be
    /// unsafe (excluded from the fallback BFS); `flood` is the scratch
    /// any fallback flood of this plan runs in.
    pub fn plan(
        &self,
        u: Coord,
        d: Coord,
        learned: &FxHashSet<Coord>,
        flood: &mut FloodScratch,
    ) -> (Plan, PlanStats) {
        match self.closest_sequence(u, u, d) {
            None => (Plan::Direct, PlanStats { used_fallback: false, estimate: None }),
            Some((_, chain, o)) if chain.is_empty() => self.fallback(u, d, o, learned, flood),
            Some((_, chain, o)) => {
                let set = self.net.mccs(o);
                let mesh = self.net.mesh();
                let usable = |oc: Coord| set.labeling().is_safe_node(oc);
                let real = |oc: Coord| o.apply(mesh, oc);
                let n = chain.len();

                let mut best: Option<(u64, Vec<Coord>)> = None;
                let mut consider = |cost: u64, wp: Vec<Coord>| {
                    if cost < INF && best.as_ref().is_none_or(|(c, _)| cost < *c) {
                        best = Some((cost, wp));
                    }
                };

                let leg = |a: Coord, b: Coord| {
                    if self.manhattan_feasible(u, a, b) {
                        u64::from(a.manhattan(b))
                    } else {
                        INF
                    }
                };
                let mut rec = DistMemo::new(&mut *flood);
                let c1 = set.get(chain[0]).corner();
                if usable(c1) {
                    let c1r = real(c1);
                    let tail = self.dist_rec(u, c1r, d, &mut rec, 1);
                    consider(leg(u, c1r).saturating_add(tail), vec![c1r]);
                }
                for i in 0..n.saturating_sub(1) {
                    let a = set.get(chain[i]).opposite();
                    let b = set.get(chain[i + 1]).corner();
                    if usable(a) && usable(b) {
                        let (ar, br) = (real(a), real(b));
                        let tail = self.dist_rec(u, br, d, &mut rec, 1);
                        let cost = leg(u, ar).saturating_add(leg(ar, br)).saturating_add(tail);
                        consider(cost, vec![ar, br]);
                    }
                }
                let cn = set.get(chain[n - 1]).opposite();
                if usable(cn) {
                    let cr = real(cn);
                    let tail = self.dist_rec(u, cr, d, &mut rec, 1);
                    consider(leg(u, cr).saturating_add(tail), vec![cr]);
                }

                match best {
                    Some((cost, wp)) => {
                        // Hybrid refinement: the Eq.-3 pivots only visit
                        // safe nodes of the current frame, but degenerate
                        // geometries (faulty corners, border-pressed
                        // clusters) can make the true shortest path thread
                        // healthy-but-unsafe cells. When the fallback BFS
                        // over known faults beats every pivot option, take
                        // it. Only a path under `cost` is taken, so the
                        // flood looks no farther.
                        let under = u32::try_from(cost.saturating_sub(1)).ok();
                        if let (Plan::Forced(p), stats) =
                            self.fallback_within(u, d, o, learned, flood, under)
                        {
                            return (Plan::Forced(p), stats);
                        }
                        (
                            Plan::Waypoints(wp),
                            PlanStats { used_fallback: false, estimate: Some(cost) },
                        )
                    }
                    None => self.fallback(u, d, o, learned, flood),
                }
            }
        }
    }

    /// Flood over known obstacles (goal-directed from `d` towards `u`,
    /// see [`crate::oracle`]): the model-consistent last resort.
    pub fn fallback(
        &self,
        u: Coord,
        d: Coord,
        o: Orientation,
        learned: &FxHashSet<Coord>,
        flood: &mut FloodScratch,
    ) -> (Plan, PlanStats) {
        self.fallback_within(u, d, o, learned, flood, None)
    }

    /// [`fallback`](Planner::fallback) that gives up (`Plan::Direct`, no
    /// estimate) on a path longer than `limit`.
    fn fallback_within(
        &self,
        u: Coord,
        d: Coord,
        o: Orientation,
        learned: &FxHashSet<Coord>,
        flood: &mut FloodScratch,
        limit: Option<u32>,
    ) -> (Plan, PlanStats) {
        let mesh = *self.net.mesh();
        let passable = self.fallback_passable(u, o, learned);
        if !passable(d) || !passable(u) {
            return (Plan::Direct, PlanStats { used_fallback: true, estimate: None });
        }
        let field = DistanceField::with_predicate_until(mesh, d, passable, u, limit, flood);
        match field.shortest_path() {
            Some(path) => {
                let est = Some((path.len() - 1) as u64);
                (Plan::Forced(path), PlanStats { used_fallback: true, estimate: est })
            }
            None => (Plan::Direct, PlanStats { used_fallback: true, estimate: None }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{FaultSet, Mesh};

    fn net(mesh: Mesh, faults: &[(i32, i32)]) -> Network {
        Network::build(FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y))))
    }

    #[test]
    fn no_faults_means_direct_plans() {
        let n = net(Mesh::square(10), &[]);
        let p = Planner::new(&n, ModelKind::B2, KnowledgeScope::Global);
        let (plan, stats) = p.plan(
            Coord::new(0, 0),
            Coord::new(7, 7),
            &FxHashSet::default(),
            &mut FloodScratch::default(),
        );
        assert_eq!(plan, Plan::Direct);
        assert!(!stats.used_fallback);
        assert_eq!(p.distance(Coord::new(0, 0), Coord::new(0, 0), Coord::new(7, 7)), Some(14));
    }

    #[test]
    fn single_blocker_on_column_yields_sequence() {
        // Fault at (5,5), s below at (5,1), d above at (5,8): blocked in
        // +Y by a one-element sequence; the detour options are the two
        // corners (4,4) and (6,6), both costing +2 over Manhattan.
        let n = net(Mesh::square(10), &[(5, 5)]);
        let p = Planner::new(&n, ModelKind::B2, KnowledgeScope::Global);
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 8));
        let seq = p.closest_sequence(s, s, d).expect("blocked");
        assert_eq!(seq.0, SeqAxis::TypeI);
        assert_eq!(seq.1.len(), 1);
        assert_eq!(p.distance(s, s, d), Some(u64::from(s.manhattan(d)) + 2));
        let (plan, stats) = p.plan(s, d, &FxHashSet::default(), &mut FloodScratch::default());
        assert!(matches!(plan, Plan::Waypoints(ref w) if w.len() == 1));
        assert_eq!(stats.estimate, Some(9));
    }

    #[test]
    fn row_blocker_is_a_type_ii_sequence() {
        let n = net(Mesh::square(10), &[(5, 5)]);
        let p = Planner::new(&n, ModelKind::B2, KnowledgeScope::Global);
        let (s, d) = (Coord::new(1, 5), Coord::new(8, 5));
        let seq = p.closest_sequence(s, s, d).expect("blocked");
        assert_eq!(seq.0, SeqAxis::TypeII);
        assert_eq!(p.distance(s, s, d), Some(u64::from(s.manhattan(d)) + 2));
    }

    #[test]
    fn two_mcc_chain_offers_the_gap() {
        // Two staircase-chained blockers spanning the corridor: F1 covers
        // columns 0..=5 on row 4 (via cells), F2 covers columns 4..=9 on
        // row 7. A route from (2,0) to (7,9) must either slip between
        // them (via F1's opposite corner then F2's corner) or go around.
        let f1: Vec<(i32, i32)> = (0..=5).map(|x| (x, 4)).collect();
        let f2: Vec<(i32, i32)> = (4..=9).map(|x| (x, 7)).collect();
        let all: Vec<(i32, i32)> = f1.iter().chain(f2.iter()).copied().collect();
        let n = net(Mesh::square(10), &all);
        let p = Planner::new(&n, ModelKind::B2, KnowledgeScope::Global);
        let (s, d) = (Coord::new(2, 0), Coord::new(7, 9));
        let seq = p.closest_sequence(s, s, d).expect("blocked");
        assert_eq!(seq.0, SeqAxis::TypeI);
        assert_eq!(seq.1.len(), 2, "chain must contain both MCCs");
        // The optimum: BFS ground truth.
        let field = DistanceField::healthy(n.faults(), d);
        assert_eq!(p.distance(s, s, d), Some(u64::from(field.dist(s))));
    }

    #[test]
    fn successors_tied_on_closeness_chain_to_the_lower_id() {
        // F1 = the bar on row 3 shadows u = (4,0). Two MCCs chain from it
        // with their opposite corners on row 8: the cell (3,7), found on
        // the first line searched (column 3), and the bar (7,6)-(7,7),
        // found on column 7 but discovered first (row 6), so it has the
        // lower id — and it is the one whose critical region holds d.
        let mut cells: Vec<(i32, i32)> = (2..=6).map(|x| (x, 3)).collect();
        cells.extend([(7, 6), (7, 7), (3, 7)]);
        let n = net(Mesh::square(12), &cells);
        let o = Orientation::IDENTITY;
        let set = n.mccs(o);
        let id = |x, y| set.mcc_at(Coord::new(x, y)).expect("a fault is in an MCC");
        let (f1, low, high) = (id(4, 3), id(7, 7), id(3, 7));
        assert!(low < high);
        assert_eq!(set.get(low).opposite().y, set.get(high).opposite().y);
        let p = Planner::new(&n, ModelKind::B2, KnowledgeScope::Global);
        let (u, d) = (Coord::new(4, 0), Coord::new(7, 11));
        assert_eq!(p.chain(u, o, set, u, d, SeqAxis::TypeI), Some(vec![f1, low]));
    }

    #[test]
    fn fallback_fires_when_corners_are_unusable() {
        // A blocker pressed against the west mesh edge: its corner is out
        // of mesh, and a destination due north forces P0 to be skipped.
        let cells: Vec<(i32, i32)> = (0..=6).map(|x| (x, 5)).collect();
        let n = net(Mesh::square(10), &cells);
        let p = Planner::new(&n, ModelKind::B2, KnowledgeScope::Global);
        let (s, d) = (Coord::new(0, 1), Coord::new(0, 9));
        let (plan, _) = p.plan(s, d, &FxHashSet::default(), &mut FloodScratch::default());
        // P0 unusable (corner at (-1,4)); Pn via the opposite corner
        // (7,6) remains and must be chosen -- no fallback needed.
        match plan {
            Plan::Waypoints(w) => assert_eq!(w, vec![Coord::new(7, 6)]),
            other => panic!("expected waypoint plan, got {other:?}"),
        }
        // Fully walled-in destination triggers the BFS fallback: block
        // both ends with the mesh edge.
        let wall: Vec<(i32, i32)> = (0..10).map(|x| (x, 5)).collect();
        let n2 = net(Mesh::square(10), &wall);
        let p2 = Planner::new(&n2, ModelKind::B2, KnowledgeScope::Global);
        let (plan2, stats2) = p2.plan(s, d, &FxHashSet::default(), &mut FloodScratch::default());
        // The mesh is split: no plan can exist; fallback reports Direct
        // with no estimate.
        assert!(stats2.used_fallback);
        assert_eq!(plan2, Plan::Direct);
    }

    #[test]
    fn local_scope_restricts_knowledge() {
        // Under B1 + Local, a node far from any boundary knows nothing
        // and plans Direct even though it is blocked.
        let n = net(Mesh::square(12), &[(5, 5)]);
        let p = Planner::new(&n, ModelKind::B1, KnowledgeScope::Local);
        let s = Coord::new(5, 1); // in the shadow; B1 stores nothing there
        let d = Coord::new(5, 9);
        assert!(p.closest_sequence(s, s, d).is_none());
        // The same node under Global sees the sequence.
        let pg = Planner::new(&n, ModelKind::B1, KnowledgeScope::Global);
        assert!(pg.closest_sequence(s, s, d).is_some());
        // And under B2 + Local the shadow interior holds the triple.
        let pb2 = Planner::new(&n, ModelKind::B2, KnowledgeScope::Local);
        assert!(pb2.closest_sequence(s, s, d).is_some());
    }
}
