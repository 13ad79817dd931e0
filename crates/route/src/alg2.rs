//! Algorithm 2: the Manhattan routing decision.
//!
//! At the current node `u` with target `t` (both in the oriented frame
//! where `t` lies in the `(+X, +Y)` quadrant):
//!
//! 1. add `+X` (`+Y`) to the candidate set `P` when the target is strictly
//!    east (north) and the neighbor is a safe node;
//! 2. for each triple `(F, R(F), R'(F))` known at `u`, exclude a candidate
//!    whose step would enter the forbidden region `R(F)` while
//!    `t ∈ R'(F)` — with `R(F)` the union of the shadows of every MCC
//!    merged into `F`'s region (the paper merges `R(v)` into `R(c)` when
//!    `c`'s boundary hits `v`) and `R'(F)` the critical region of `F`
//!    itself;
//! 3. pick any remaining direction with a fully adaptive policy.
//!
//! Neighbor *safety* (not just non-faultiness) is local knowledge: the
//! paper's labeling protocol works by neighbor status exchange, so
//! every node knows the converged status of its four neighbors.
//!
//! ## What a decision reads
//!
//! Only a triple with `t ∈ R'(F)` can exclude anything, and `t` is fixed
//! for a whole Manhattan phase. So step 2 is *target-keyed*: the message
//! carries a [`CriticalSet`], re-keyed only when `(orientation, target)`
//! changes (once per phase, and on RB1 quadrant flips). Re-keying reads
//! the MCCs on the target's column and row (`MccSet::in_col`/`in_row`),
//! keeps the few whose critical region holds `t` (2–4 on a 64x64 mesh at
//! 5 % faults) and flattens each one's `R(F)` into a profile. A hop then
//! reads the two neighbor labels of step 1 and two adjacent profile
//! entries per kept triple; `knows(u, F)` is asked only where a step
//! would enter a region. Exclusions only ever clear candidate bits, so
//! neither the order nor the subset of MCCs visited can change the
//! outcome: the decision equals the scan over every MCC and both
//! candidates, kept as the `#[cfg(test)]` reference of the proptests.

use meshpath_fault::{Mcc, MccId, MccSet};
use meshpath_info::InfoModel;
use meshpath_mesh::{Coord, Dir, Orientation};

use crate::seq::KnowledgeScope;

/// Tie-break policy for step 3's "any fully adaptive routing".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AdaptivePolicy {
    /// Move along the axis with the larger remaining distance (default;
    /// keeps the walk near the rectangle's diagonal, which maximizes
    /// later adaptivity).
    #[default]
    LongerFirst,
    /// Prefer `+X` when available (dimension-ordered flavour).
    PreferX,
    /// Prefer `+Y` when available.
    PreferY,
}

impl AdaptivePolicy {
    fn pick(self, ou: Coord, ot: Coord, p: [bool; 2]) -> Option<Dir> {
        let (px, py) = (p[0], p[1]);
        match (px, py) {
            (false, false) => None,
            (true, false) => Some(Dir::PlusX),
            (false, true) => Some(Dir::PlusY),
            (true, true) => Some(match self {
                AdaptivePolicy::PreferX => Dir::PlusX,
                AdaptivePolicy::PreferY => Dir::PlusY,
                AdaptivePolicy::LongerFirst => {
                    if ot.x - ou.x >= ot.y - ou.y {
                        Dir::PlusX
                    } else {
                        Dir::PlusY
                    }
                }
            }),
        }
    }
}

/// One routing decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Forward along this (oriented-frame) direction.
    Step(Dir),
    /// Current node is the target.
    Arrived,
    /// Candidate set is empty: the routing is blocked here.
    Blocked,
}

/// The per-phase decision context (one orientation).
pub struct PhaseCtx<'a> {
    /// MCC analysis for the phase orientation.
    pub set: &'a MccSet,
    /// Information model queried for triples.
    pub model: &'a InfoModel,
    /// Whether knowledge is restricted to what the model stored at `u`.
    pub scope: KnowledgeScope,
}

impl PhaseCtx<'_> {
    /// True when node `ou` holds the triple of `f` under the scope.
    #[inline]
    pub(crate) fn knows(&self, ou: Coord, f: MccId) -> bool {
        match self.scope {
            KnowledgeScope::Global => true,
            KnowledgeScope::Local => self.model.knows(ou, f),
        }
    }
}

/// One triple that can fire for the keyed target, with its forbidden
/// region `R(F)` flattened. The region is the union of the shadows merged
/// into `F`'s — each "everything below (west of) a staircase" — so it is
/// everything below one profile over the union's lines (columns for a
/// Y-type triple, rows for an X-type): `c` is inside iff its height is
/// under the profile at its line.
#[derive(Clone, Copy, Debug)]
struct Guard {
    f: MccId,
    /// The line before the region's first. Its profile entry is
    /// `i32::MIN` (outside at any height), so a step onto the first line
    /// reads two entries like every other step.
    base: i32,
    /// The profile is `profiles[at..at + len]` of the owning set.
    at: u32,
    len: u32,
}

impl Guard {
    /// Flattens the shadows of `merged` (MCCs of `set`; `f` and what
    /// merged into its region) onto the end of `profiles`. `extent` is
    /// the range of lines a shadow covers, `height` what it reaches
    /// below on one of them.
    fn flatten(
        profiles: &mut Vec<i32>,
        set: &MccSet,
        f: MccId,
        merged: &[MccId],
        extent: impl Fn(&Mcc) -> (i32, i32),
        height: impl Fn(&Mcc, i32) -> i32,
    ) -> Guard {
        let (first, last) = merged.iter().fold(extent(set.get(f)), |(first, last), &g| {
            let (a, b) = extent(set.get(g));
            (first.min(a), last.max(b))
        });
        let (at, len) = (profiles.len(), (last - first + 2) as usize);
        profiles.resize(at + len, i32::MIN);
        for &g in merged {
            let g = set.get(g);
            let (a, b) = extent(g);
            for line in a..=b {
                let top = &mut profiles[at + (line - first + 1) as usize];
                *top = (*top).max(height(g, line));
            }
        }
        Guard { f, base: first - 1, at: at as u32, len: len as u32 }
    }

    /// Whether the step from line `along` to line `along + 1` at height
    /// `across` *enters* the region: inside after, outside before. A node
    /// already inside is past the guard (the pair is blocked; detours
    /// handle it), so the exclusion only fires from outside.
    #[inline]
    fn entered(&self, profiles: &[i32], along: i32, across: i32) -> bool {
        let i = (along - self.base) as u32;
        if i >= self.len - 1 {
            return false; // negative wraps high: neither line is the region's
        }
        let at = (self.at + i) as usize;
        profiles[at] <= across && across < profiles[at + 1]
    }

    /// Whether this triple excludes that step for a message at `ou`: the
    /// step enters the region and `ou` holds the triple. Inlined by force:
    /// a hop asks every guard, and as a call this was a tenth of a route.
    #[inline(always)]
    fn fires(
        &self,
        ctx: &PhaseCtx<'_>,
        profiles: &[i32],
        ou: Coord,
        along: i32,
        across: i32,
    ) -> bool {
        self.entered(profiles, along, across) && ctx.knows(ou, self.f)
    }
}

/// The triples that can fire for one `(orientation, target)`: per MCC
/// whose Y- (X-) critical region contains the oriented target, its id and
/// its forbidden region as a profile. Part of the per-message scratch
/// ([`HopState`](crate::HopState)); valid for one network snapshot, so it
/// is [`clear`](CriticalSet::clear)ed with the rest of the scratch
/// between messages. (The merged lists come from the boundary walks, not
/// from what a model stores, so one key serves B1, B2 and B3 alike.)
#[derive(Debug, Default)]
pub struct CriticalSet {
    key: Option<(Orientation, Coord)>,
    y: Vec<Guard>,
    x: Vec<Guard>,
    /// The guards' profiles, back to back; rebuilt with them.
    profiles: Vec<i32>,
}

impl CriticalSet {
    /// Forgets the cached key (keeps the allocations).
    pub fn clear(&mut self) {
        self.key = None;
    }

    /// Whether a key is cached (the reset tests' probe).
    #[cfg(test)]
    pub(crate) fn is_keyed(&self) -> bool {
        self.key.is_some()
    }

    /// Makes the set describe `ot` in `ctx`'s orientation: a no-op while
    /// the key is unchanged, a rebuild otherwise.
    /// [`decide`] calls this itself; public for the `micro` bench row.
    #[inline]
    pub fn retarget(&mut self, ctx: &PhaseCtx<'_>, ot: Coord) {
        let key = Some((ctx.set.orientation(), ot));
        if self.key != key {
            self.key = key;
            self.rebuild(ctx, ot);
        }
    }

    /// Tests the MCCs on the target's column and row and flattens the
    /// regions of the few whose critical region holds it. Out of line:
    /// once a phase, where the key check above runs every hop.
    fn rebuild(&mut self, ctx: &PhaseCtx<'_>, ot: Coord) {
        let (set, model) = (ctx.set, ctx.model);
        self.y.clear();
        self.x.clear();
        self.profiles.clear();
        for &f in set.in_col(ot.x).iter().filter(|&&f| set.get(f).critical_y(ot)) {
            self.y.push(Guard::flatten(
                &mut self.profiles,
                set,
                f,
                model.merged_y(f),
                |g| (g.x0(), g.x1()),
                |g, x| g.col(x).map_or(i32::MIN, |s| s.lo),
            ));
        }
        for &f in set.in_row(ot.y).iter().filter(|&&f| set.get(f).critical_x(ot)) {
            self.x.push(Guard::flatten(
                &mut self.profiles,
                set,
                f,
                model.merged_x(f),
                |g| (g.bbox().y0, g.bbox().y1),
                |g, y| g.row_range(y).map_or(i32::MIN, |(west, _)| west),
            ));
        }
    }
}

/// The Algorithm 2 decision at oriented node `ou` toward oriented target
/// `ot`. `avoid` (the preceding node, Algorithm 3 step 1) is excluded from
/// the candidates when given. `critical` is the message's cached
/// [`CriticalSet`]; it is re-keyed here when the target or the
/// orientation moved.
#[inline]
pub fn decide(
    ctx: &PhaseCtx<'_>,
    ou: Coord,
    ot: Coord,
    policy: AdaptivePolicy,
    avoid: Option<Coord>,
    critical: &mut CriticalSet,
) -> Decision {
    debug_assert!(ot.x >= ou.x && ot.y >= ou.y, "target not in oriented quadrant");
    if ou == ot {
        return Decision::Arrived;
    }
    let mut p = candidates(ctx, ou, ot, avoid);

    // Step 2: exclusions by the few triples whose critical region holds
    // the target. Only the cross-axis step can enter a shadow — a
    // Y-shadow is everything *below* a staircase within its columns, so
    // `ou + Y` inside implies `ou` inside (likewise `ou + X` for an
    // X-shadow) — hence a Y-type triple is asked about `+X` only and an
    // X-type about `+Y`. Geometry first: nearly every hop enters nothing,
    // and then no `knows` bit is read.
    if p[0] || p[1] {
        critical.retarget(ctx, ot);
        let CriticalSet { y, x, profiles, .. } = &*critical;
        p[0] = p[0] && !y.iter().any(|t| t.fires(ctx, profiles, ou, ou.x, ou.y));
        p[1] = p[1] && !x.iter().any(|t| t.fires(ctx, profiles, ou, ou.y, ou.x));
    }

    // Step 3: fully adaptive selection.
    match policy.pick(ou, ot, p) {
        Some(dir) => Decision::Step(dir),
        None => Decision::Blocked,
    }
}

/// Step 1: the candidate directions `[+X, +Y]` — toward the target, onto
/// a safe node, not back to `avoid`.
#[inline]
fn candidates(ctx: &PhaseCtx<'_>, ou: Coord, ot: Coord, avoid: Option<Coord>) -> [bool; 2] {
    let labeling = ctx.set.labeling();
    let mut p = [false; 2];
    if ot.x > ou.x {
        let v = ou.step(Dir::PlusX);
        p[0] = labeling.is_safe_node(v) && Some(v) != avoid;
    }
    if ot.y > ou.y {
        let v = ou.step(Dir::PlusY);
        p[1] = labeling.is_safe_node(v) && Some(v) != avoid;
    }
    p
}

/// The reference Algorithm 2: step 2 as a scan over *every* MCC of the
/// orientation on every call. Tests only — the proptest below holds
/// [`decide`] to it.
#[cfg(test)]
fn decide_full_scan(
    ctx: &PhaseCtx<'_>,
    ou: Coord,
    ot: Coord,
    policy: AdaptivePolicy,
    avoid: Option<Coord>,
) -> Decision {
    if ou == ot {
        return Decision::Arrived;
    }
    let mut p = candidates(ctx, ou, ot, avoid);
    if p[0] || p[1] {
        for f in ctx.set.iter() {
            if !ctx.knows(ou, f.id()) {
                continue;
            }
            if f.critical_y(ot) {
                let merged = ctx.model.merged_y(f.id());
                let inside = |c: Coord| merged.iter().any(|&g| ctx.set.get(g).shadow_y(c));
                if !inside(ou) {
                    for (slot, dir) in [(0, Dir::PlusX), (1, Dir::PlusY)] {
                        if p[slot] && inside(ou.step(dir)) {
                            p[slot] = false;
                        }
                    }
                }
            }
            if f.critical_x(ot) {
                let merged = ctx.model.merged_x(f.id());
                let inside = |c: Coord| merged.iter().any(|&g| ctx.set.get(g).shadow_x(c));
                if !inside(ou) {
                    for (slot, dir) in [(0, Dir::PlusX), (1, Dir::PlusY)] {
                        if p[slot] && inside(ou.step(dir)) {
                            p[slot] = false;
                        }
                    }
                }
            }
            if !p[0] && !p[1] {
                break;
            }
        }
    }
    match policy.pick(ou, ot, p) {
        Some(dir) => Decision::Step(dir),
        None => Decision::Blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_fault::{BorderPolicy, MccSet};
    use meshpath_info::{InfoModel, ModelKind};
    use meshpath_mesh::{FaultInjection, FaultSet, Mesh, Orientation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// [`decide`](super::decide) on a fresh critical set, held to the
    /// full-scan reference.
    fn decide(
        ctx: &PhaseCtx<'_>,
        ou: Coord,
        ot: Coord,
        policy: AdaptivePolicy,
        avoid: Option<Coord>,
    ) -> Decision {
        let d = super::decide(ctx, ou, ot, policy, avoid, &mut CriticalSet::default());
        assert_eq!(d, decide_full_scan(ctx, ou, ot, policy, avoid));
        d
    }

    fn ctx_for(faults: &[(i32, i32)], kind: ModelKind) -> (MccSet, InfoModel) {
        let mesh = Mesh::square(10);
        let fs = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        let set = MccSet::build(&fs, Orientation::IDENTITY, BorderPolicy::Open);
        let model = InfoModel::build(&set, kind);
        (set, model)
    }

    #[test]
    fn fault_free_decision_moves_toward_target() {
        let (set, model) = ctx_for(&[], ModelKind::B1);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Local };
        let d = decide(&ctx, Coord::new(0, 0), Coord::new(3, 1), AdaptivePolicy::LongerFirst, None);
        assert_eq!(d, Decision::Step(Dir::PlusX)); // larger X remainder
        let d = decide(&ctx, Coord::new(0, 0), Coord::new(1, 3), AdaptivePolicy::LongerFirst, None);
        assert_eq!(d, Decision::Step(Dir::PlusY));
        let d = decide(&ctx, Coord::new(3, 1), Coord::new(3, 1), AdaptivePolicy::LongerFirst, None);
        assert_eq!(d, Decision::Arrived);
    }

    #[test]
    fn faulty_neighbor_is_not_a_candidate() {
        let (set, model) = ctx_for(&[(1, 0)], ModelKind::B1);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Local };
        let d = decide(&ctx, Coord::new(0, 0), Coord::new(3, 3), AdaptivePolicy::PreferX, None);
        assert_eq!(d, Decision::Step(Dir::PlusY));
    }

    #[test]
    fn exclusion_guards_the_shadow_at_the_boundary() {
        // Fault at (5,5); u sits on the -X boundary column at (4,2) with
        // the destination in the critical region (5,9): stepping +X into
        // the shadow must be excluded.
        let (set, model) = ctx_for(&[(5, 5)], ModelKind::B1);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Local };
        let d = decide(&ctx, Coord::new(4, 2), Coord::new(5, 9), AdaptivePolicy::PreferX, None);
        assert_eq!(d, Decision::Step(Dir::PlusY), "+X into the shadow must be excluded");
        // With a destination NOT in the critical region, +X is fine.
        let d = decide(&ctx, Coord::new(4, 2), Coord::new(6, 9), AdaptivePolicy::PreferX, None);
        assert_eq!(d, Decision::Step(Dir::PlusX));
    }

    #[test]
    fn no_knowledge_means_no_exclusion() {
        // Same geometry, but u = (4,2) under B1 *knows* (it is on the
        // boundary); a node east of the shadow like (7,2) does not, and
        // a doomed target makes it walk in anyway (that is RB1's miss,
        // repaired by detours).
        let (set, model) = ctx_for(&[(5, 5)], ModelKind::B1);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Local };
        // (5,2) is inside the shadow and holds no triple under B1.
        let d = decide(&ctx, Coord::new(5, 2), Coord::new(5, 9), AdaptivePolicy::PreferY, None);
        // +X not a candidate (target.x == u.x); +Y is taken blindly toward
        // the fault; at (5,4) the +Y neighbor is faulty and P empties.
        assert_eq!(d, Decision::Step(Dir::PlusY));
        let d = decide(&ctx, Coord::new(5, 4), Coord::new(5, 9), AdaptivePolicy::PreferY, None);
        assert_eq!(d, Decision::Blocked);
    }

    #[test]
    fn exclusion_only_fires_on_entry() {
        let (set, model) = ctx_for(&[(5, 5)], ModelKind::B1);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Global };
        // (5,2) is already inside the shadow: the guard is past, and the
        // exclusion must NOT fire (the pair is blocked; RB1's detour or
        // RB2's planning deal with it). The decision keeps +Y until the
        // fault wall itself empties P.
        let d = decide(&ctx, Coord::new(5, 2), Coord::new(5, 9), AdaptivePolicy::PreferY, None);
        assert_eq!(d, Decision::Step(Dir::PlusY));
        // From outside (the boundary column), entry is still excluded.
        let d = decide(&ctx, Coord::new(4, 2), Coord::new(5, 9), AdaptivePolicy::PreferX, None);
        assert_eq!(d, Decision::Step(Dir::PlusY));
    }

    /// A guard as `(F, base, profile)`.
    type GuardView<'a> = (MccId, i32, &'a [i32]);

    impl CriticalSet {
        /// Every guard, Y-type then X-type.
        fn guards(&self) -> [Vec<GuardView<'_>>; 2] {
            [&self.y, &self.x].map(|guards| {
                guards
                    .iter()
                    .map(|g| (g.f, g.base, &self.profiles[g.at as usize..(g.at + g.len) as usize]))
                    .collect()
            })
        }
    }

    #[test]
    fn critical_set_follows_its_key() {
        const MIN: i32 = i32::MIN;
        // Two single-cell MCCs: (5,5) has (5,9) in its Y-critical region,
        // (2,7) has (8,7) in its X-critical region.
        let (set, model) = ctx_for(&[(5, 5), (2, 7)], ModelKind::B1);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Local };
        let at = |set: &MccSet, c: Coord| set.mcc_at(c).expect("a fault is in an MCC");
        let (f, g) = (at(&set, Coord::new(5, 5)), at(&set, Coord::new(2, 7)));
        let mut cs = CriticalSet::default();
        // The shadow under (5,5): column 5 below row 5, after column 4.
        cs.retarget(&ctx, Coord::new(5, 9));
        assert_eq!(cs.guards(), [vec![(f, 4, &[MIN, 5][..])], vec![]]);
        // The shadow west of (2,7): row 7 west of column 2, after row 6.
        cs.retarget(&ctx, Coord::new(8, 7));
        assert_eq!(cs.guards(), [vec![], vec![(g, 6, &[MIN, 2][..])]]);
        cs.retarget(&ctx, Coord::new(5, 9));
        assert_eq!(cs.guards(), [vec![(f, 4, &[MIN, 5][..])], vec![]], "back to the first target");
        // The same target coordinate in the X-mirrored frame, where the
        // faults sit at (4,5) and (7,7): column 5 is empty there, so a
        // set keyed on the target alone would be stale — ids and profile.
        let flipped = Orientation { flip_x: true, flip_y: false };
        let fs = FaultSet::from_coords(*set.mesh(), [Coord::new(5, 5), Coord::new(2, 7)]);
        let fset = MccSet::build(&fs, flipped, BorderPolicy::Open);
        let fmodel = InfoModel::build(&fset, ModelKind::B1);
        let fctx = PhaseCtx { set: &fset, model: &fmodel, scope: KnowledgeScope::Local };
        cs.retarget(&fctx, Coord::new(5, 9));
        assert_eq!(cs.key, Some((flipped, Coord::new(5, 9))));
        assert_eq!(cs.guards(), [vec![], vec![]]);
        assert!(cs.profiles.is_empty(), "a re-key keeps no profile");
        // One column west the mirrored (5,5) is critical again, with the
        // mirrored profile.
        cs.retarget(&fctx, Coord::new(4, 9));
        assert_eq!(cs.guards(), [vec![(at(&fset, Coord::new(4, 5)), 3, &[MIN, 5][..])], vec![]]);
        cs.clear();
        assert_eq!(cs.key, None);
    }

    #[test]
    fn a_profile_is_the_union_of_the_merged_shadows() {
        // The walk down from (5,8)'s corner hits the MCC at (4,3), whose
        // shadow merges into the region: columns 4 and 5, below rows 3
        // and 8.
        let mesh = Mesh::square(12);
        let fs = FaultSet::from_coords(mesh, [Coord::new(5, 8), Coord::new(4, 3)]);
        let set = MccSet::build(&fs, Orientation::IDENTITY, BorderPolicy::Open);
        let model = InfoModel::build(&set, ModelKind::B2);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Global };
        let f = set.mcc_at(Coord::new(5, 8)).expect("F");
        let mut cs = CriticalSet::default();
        cs.retarget(&ctx, Coord::new(5, 11));
        assert_eq!(cs.guards(), [vec![(f, 3, &[i32::MIN, 3, 8][..])], vec![]]);
        let enters = |x, y| cs.y[0].entered(&cs.profiles, x, y);
        assert!(enters(3, 0) && enters(3, 2), "into column 4 under (4,3)");
        assert!(!enters(3, 3) && !enters(3, 7), "beside or above (4,3): column 4 is open there");
        assert!(enters(4, 3) && enters(4, 7), "from above (4,3) into column 5 under (5,8)");
        assert!(!enters(4, 2), "already inside: past the guard");
        assert!(!enters(5, 0) && !enters(2, 0) && !enters(-7, 0), "no region to enter");
    }

    #[test]
    fn avoid_excludes_the_preceding_node() {
        let (set, model) = ctx_for(&[], ModelKind::B1);
        let ctx = PhaseCtx { set: &set, model: &model, scope: KnowledgeScope::Local };
        let d = decide(
            &ctx,
            Coord::new(0, 0),
            Coord::new(1, 1),
            AdaptivePolicy::PreferX,
            Some(Coord::new(1, 0)),
        );
        assert_eq!(d, Decision::Step(Dir::PlusY));
    }

    /// Every MCC analysis the routers could hand to `decide` for one
    /// fault set: four orientations x three models.
    fn analyses(fs: &FaultSet) -> Vec<(MccSet, [InfoModel; 3])> {
        Orientation::ALL
            .iter()
            .map(|&o| {
                let set = MccSet::build(fs, o, BorderPolicy::Open);
                let models = ModelKind::ALL.map(|kind| InfoModel::build(&set, kind));
                (set, models)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The target-keyed decision equals the full scan for random
        /// fault sets x all four orientations x B1/B2/B3 x Local/Global
        /// x random `(ou, ot, avoid)` x every tie-break policy. One
        /// `CriticalSet` serves the whole sequence of a case (one
        /// network), so stale keys would show as well.
        #[test]
        fn target_keyed_decision_equals_the_full_scan(
            (n, density, seed) in (6i32..15, 0usize..28, 0u64..u64::MAX)
        ) {
            let mesh = Mesh::square(n as u32);
            let mut rng = StdRng::seed_from_u64(seed);
            let fs = FaultSet::random(
                mesh,
                mesh.len() * density / 100,
                FaultInjection::Uniform,
                &mut rng,
            );
            let nets = analyses(&fs);
            let mut critical = CriticalSet::default();
            for _ in 0..96 {
                let (set, models) = &nets[rng.gen_range(0..4usize)];
                let model = &models[rng.gen_range(0..3usize)];
                let scope =
                    if rng.gen_range(0..2) == 0 { KnowledgeScope::Local } else { KnowledgeScope::Global };
                let ctx = PhaseCtx { set, model, scope };
                let ou = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                // Half the draws keep the previous target (a phase in
                // progress), half move it.
                let ot = match critical.key {
                    Some((o, t)) if o == set.orientation()
                        && t.x >= ou.x && t.y >= ou.y
                        && rng.gen_range(0..2) == 0 => t,
                    _ => Coord::new(rng.gen_range(ou.x..n), rng.gen_range(ou.y..n)),
                };
                let avoid = match rng.gen_range(0..3) {
                    0 => None,
                    1 => Some(ou.step(Dir::PlusX)),
                    _ => Some(ou.step(Dir::PlusY)),
                };
                for policy in
                    [AdaptivePolicy::LongerFirst, AdaptivePolicy::PreferX, AdaptivePolicy::PreferY]
                {
                    prop_assert_eq!(
                        super::decide(&ctx, ou, ot, policy, avoid, &mut critical),
                        decide_full_scan(&ctx, ou, ot, policy, avoid),
                        "{:?} {:?} {:?}: {:?} -> {:?} avoiding {:?} over {:?}",
                        set.orientation(), model.kind(), scope, ou, ot, avoid,
                        fs.iter().collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
