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
//! 3. pick a remaining direction: the paper allows any fully adaptive
//!    rule; this one takes `+X` unless a triple is critical for `t`, and
//!    then the axis with the longer remaining distance.
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
//! the MCCs on the target's column and row (`MccSet::in_col`/`in_row`)
//! and keeps a handle per one whose critical region holds `t` (2–4 on a
//! 64x64 mesh at 5 % faults) to `R(F)`, which the network flattened into
//! a profile once per orientation when it was built. A hop then
//! reads the two neighbor labels of step 1 and two adjacent profile
//! entries per kept triple; `knows(u, F)` is asked only where a step
//! would enter a region. Exclusions only ever clear candidate bits, so
//! neither the order nor the subset of MCCs visited can change the
//! outcome: the decision equals the scan over every MCC and both
//! candidates, kept as the `#[cfg(test)]` reference of the proptests.
//!
//! ## Why step 3 may keep dimension order
//!
//! `t` is fixed for a phase, so with no guard in the [`CriticalSet`]
//! step 2 excludes nothing until the phase ends, and `+X` first gives
//! XY's route shape, which the fabric carries best (on a fault-free mesh
//! RB1/RB2/RB3 route every pair as XY). Under a guard the walk hugs the
//! diagonal: dimension order there can enter a dead-end corridor along
//! the border (the 6x6 hand cases in the root `tests/edge_cases.rs`).

use meshpath_fault::{MccId, MccSet};
use meshpath_info::{BoundarySet, InfoModel, Region};
use meshpath_mesh::{Coord, Dir, Orientation};

use crate::seq::KnowledgeScope;

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
    /// The orientation's boundaries, whose forbidden regions the
    /// exclusions read.
    pub bounds: &'a BoundarySet,
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

/// One triple that can fire for the keyed target: `F` and where its
/// stored forbidden region `R(F)` sits.
#[derive(Clone, Copy, Debug)]
struct Guard {
    f: MccId,
    region: Region,
}

impl Guard {
    /// Whether the step from line `along` to line `along + 1` at height
    /// `across` *enters* the region (`profiles` holds its profile):
    /// inside after, outside before. A node already inside is past the
    /// guard (the pair is blocked; detours handle it), so the exclusion
    /// only fires from outside.
    #[inline]
    fn entered(&self, profiles: &[u16], along: i32, across: i32) -> bool {
        let Region { base, at, len } = self.region;
        let i = (along - base) as u32;
        if i >= len - 1 {
            return false; // negative wraps high: neither line is the region's
        }
        let at = (at + i) as usize;
        i32::from(profiles[at]) <= across && across < i32::from(profiles[at + 1])
    }

    /// Whether one of `guards` excludes that step for a message at `ou`:
    /// the step enters its region and `ou` holds its triple. Inlined by
    /// force, and a loop rather than `Iterator::any`: a hop asks every
    /// guard, and as a call this was a tenth of a route.
    #[inline(always)]
    fn any_fires(
        guards: &[Guard],
        ctx: &PhaseCtx<'_>,
        profiles: &[u16],
        ou: Coord,
        along: i32,
        across: i32,
    ) -> bool {
        for guard in guards {
            if guard.entered(profiles, along, across) && ctx.knows(ou, guard.f) {
                return true;
            }
        }
        false
    }
}

/// The triples that can fire for one `(orientation, target)`: per MCC
/// whose Y- (X-) critical region contains the oriented target, its id and
/// a handle to its forbidden region. Part of the per-message scratch
/// ([`HopState`](crate::HopState)); valid for one network snapshot, so it
/// is [`clear`](CriticalSet::clear)ed with the rest of the scratch
/// between messages. (The regions come from the boundary walks, not
/// from what a model stores, so one key serves B1, B2 and B3 alike.)
#[derive(Debug, Default)]
pub struct CriticalSet {
    key: Option<(Orientation, Coord)>,
    y: Vec<Guard>,
    x: Vec<Guard>,
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

    /// Keeps the MCCs on the target's column and row whose critical
    /// region holds it. Out of line: once a phase, where the key check
    /// above runs every hop.
    fn rebuild(&mut self, ctx: &PhaseCtx<'_>, ot: Coord) {
        let (set, bounds) = (ctx.set, ctx.bounds);
        self.y.clear();
        self.x.clear();
        for &f in set.in_col(ot.x).iter().filter(|&&f| set.get(f).critical_y(ot)) {
            self.y.push(Guard { f, region: bounds.get(f).regions()[0] });
        }
        for &f in set.in_row(ot.y).iter().filter(|&&f| set.get(f).critical_x(ot)) {
            self.x.push(Guard { f, region: bounds.get(f).regions()[1] });
        }
    }

    /// Steps 2 and 3 at `ou` over the step-1 candidates `p`: what is left
    /// of them after the exclusions, then the pick. The set must be keyed
    /// for `ot` unless `p` is empty.
    ///
    /// Only the cross-axis step can enter a shadow — a Y-shadow is
    /// everything *below* a staircase within its columns, so `ou + Y`
    /// inside implies `ou` inside (likewise `ou + X` for an X-shadow) —
    /// hence a Y-type triple is asked about `+X` only and an X-type about
    /// `+Y`. Geometry first: nearly every hop enters nothing, and then no
    /// `knows` bit is read.
    #[inline(always)]
    pub(crate) fn choose(
        &self,
        ctx: &PhaseCtx<'_>,
        ou: Coord,
        ot: Coord,
        mut p: [bool; 2],
    ) -> Decision {
        let [py, px] = ctx.bounds.profiles();
        p[0] = p[0] && !Guard::any_fires(&self.y, ctx, py, ou, ou.x, ou.y);
        p[1] = p[1] && !Guard::any_fires(&self.x, ctx, px, ou, ou.y, ou.x);
        // Step 3: between two survivors, `+X` unless a guard is keyed,
        // then the longer remainder.
        let guarded = || !self.y.is_empty() || !self.x.is_empty();
        match p {
            [false, false] => Decision::Blocked,
            [true, false] => Decision::Step(Dir::PlusX),
            [false, true] => Decision::Step(Dir::PlusY),
            [true, true] if ot.x - ou.x >= ot.y - ou.y || !guarded() => Decision::Step(Dir::PlusX),
            [true, true] => Decision::Step(Dir::PlusY),
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
    avoid: Option<Coord>,
    critical: &mut CriticalSet,
) -> Decision {
    debug_assert!(ot.x >= ou.x && ot.y >= ou.y, "target not in oriented quadrant");
    if ou == ot {
        return Decision::Arrived;
    }
    let p = candidates(ctx, ou, ot, avoid);
    if p[0] || p[1] {
        critical.retarget(ctx, ot);
    }
    critical.choose(ctx, ou, ot, p)
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

/// The reference Algorithm 2: steps 2 and 3 as scans over *every* MCC
/// of the orientation on every call. Tests only — the proptest below
/// holds [`decide`] to it.
#[cfg(test)]
fn decide_full_scan(ctx: &PhaseCtx<'_>, ou: Coord, ot: Coord, avoid: Option<Coord>) -> Decision {
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
                let merged = ctx.bounds.get(f.id()).merged_y();
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
                let merged = ctx.bounds.get(f.id()).merged_x();
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
    let guarded = ctx.set.iter().any(|f| f.critical_y(ot) || f.critical_x(ot));
    match p {
        [true, true] if guarded && ot.y - ou.y > ot.x - ou.x => Decision::Step(Dir::PlusY),
        [true, _] => Decision::Step(Dir::PlusX),
        [false, true] => Decision::Step(Dir::PlusY),
        [false, false] => Decision::Blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_fault::{BorderPolicy, MccSet};
    use meshpath_info::ModelKind;
    use meshpath_mesh::{FaultInjection, FaultSet, Mesh, Orientation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// [`decide`](super::decide) on a fresh critical set, held to the
    /// full-scan reference.
    fn decide(ctx: &PhaseCtx<'_>, ou: Coord, ot: Coord, avoid: Option<Coord>) -> Decision {
        let d = super::decide(ctx, ou, ot, avoid, &mut CriticalSet::default());
        assert_eq!(d, decide_full_scan(ctx, ou, ot, avoid));
        d
    }

    /// One orientation of a fault set, analyzed as a network holds it.
    struct Analysis {
        set: MccSet,
        bounds: BoundarySet,
        model: InfoModel,
    }

    impl Analysis {
        fn new(fs: &FaultSet, o: Orientation, kind: ModelKind) -> Self {
            let set = MccSet::build(fs, o, BorderPolicy::Open);
            let bounds = BoundarySet::build(&set);
            let model = InfoModel::build_with(&set, &bounds, kind);
            Analysis { set, bounds, model }
        }

        fn ctx(&self, scope: KnowledgeScope) -> PhaseCtx<'_> {
            PhaseCtx { set: &self.set, model: &self.model, bounds: &self.bounds, scope }
        }
    }

    /// `faults` on a 10x10 mesh, in the identity frame.
    fn ctx_for(faults: &[(i32, i32)], kind: ModelKind) -> Analysis {
        let mesh = Mesh::square(10);
        let fs = FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        Analysis::new(&fs, Orientation::IDENTITY, kind)
    }

    /// A bar of faults on row 5, columns 5..=8: its shadow is those
    /// columns below row 5, and (8,6) is in its critical region with the
    /// X remainder from (4,4) or (5,3) no shorter than the Y remainder,
    /// so step 3 would take `+X` there unless step 2 excludes it.
    const BAR: [(i32, i32); 4] = [(5, 5), (6, 5), (7, 5), (8, 5)];

    #[test]
    fn fault_free_decision_moves_toward_target() {
        let net = ctx_for(&[], ModelKind::B1);
        let ctx = net.ctx(KnowledgeScope::Local);
        // Nothing is critical: dimension order, whichever remainder is longer.
        let d = decide(&ctx, Coord::new(0, 0), Coord::new(3, 1), None);
        assert_eq!(d, Decision::Step(Dir::PlusX));
        let d = decide(&ctx, Coord::new(0, 0), Coord::new(1, 3), None);
        assert_eq!(d, Decision::Step(Dir::PlusX));
        let d = decide(&ctx, Coord::new(1, 0), Coord::new(1, 3), None);
        assert_eq!(d, Decision::Step(Dir::PlusY));
        let d = decide(&ctx, Coord::new(3, 1), Coord::new(3, 1), None);
        assert_eq!(d, Decision::Arrived);
    }

    #[test]
    fn faulty_neighbor_is_not_a_candidate() {
        // Nothing is critical for (3,3), so step 3 would take +X.
        let net = ctx_for(&[(1, 0)], ModelKind::B1);
        let ctx = net.ctx(KnowledgeScope::Local);
        let d = decide(&ctx, Coord::new(0, 0), Coord::new(3, 3), None);
        assert_eq!(d, Decision::Step(Dir::PlusY));
    }

    #[test]
    fn exclusion_guards_the_shadow_at_the_boundary() {
        // u sits on the bar's -X boundary column at (4,4) with the
        // destination in the critical region (8,6): stepping +X into the
        // shadow must be excluded.
        let net = ctx_for(&BAR, ModelKind::B1);
        let ctx = net.ctx(KnowledgeScope::Local);
        let d = decide(&ctx, Coord::new(4, 4), Coord::new(8, 6), None);
        assert_eq!(d, Decision::Step(Dir::PlusY), "+X into the shadow must be excluded");
        // With a destination NOT in the critical region, +X is fine.
        let d = decide(&ctx, Coord::new(4, 4), Coord::new(9, 6), None);
        assert_eq!(d, Decision::Step(Dir::PlusX));
    }

    #[test]
    fn no_knowledge_means_no_exclusion() {
        // (9,7) is X-critical for the fault at (8,7), whose region merges
        // the shadow of (4,6): row 6 west of column 4. From (2,5), +X is
        // faulty and +Y enters that row. Under B1 the triple is not
        // stored at (2,5), so the walk goes in anyway (that is RB1's
        // miss, repaired by detours); global knowledge blocks the phase.
        let net = ctx_for(&[(3, 5), (4, 6), (8, 7)], ModelKind::B1);
        let (u, t) = (Coord::new(2, 5), Coord::new(9, 7));
        let ctx = net.ctx(KnowledgeScope::Local);
        assert_eq!(decide(&ctx, u, t, None), Decision::Step(Dir::PlusY));
        let ctx = PhaseCtx { scope: KnowledgeScope::Global, ..ctx };
        assert_eq!(decide(&ctx, u, t, None), Decision::Blocked);
    }

    #[test]
    fn exclusion_only_fires_on_entry() {
        let net = ctx_for(&BAR, ModelKind::B1);
        let ctx = net.ctx(KnowledgeScope::Global);
        // (5,3) is already inside the shadow: the guard is past, and the
        // exclusion must NOT fire on the +X step to (6,3), still inside
        // (the pair is blocked; RB1's detour or RB2's planning deal with
        // it).
        let d = decide(&ctx, Coord::new(5, 3), Coord::new(8, 6), None);
        assert_eq!(d, Decision::Step(Dir::PlusX));
        // From outside (the boundary column), entry is still excluded.
        let d = decide(&ctx, Coord::new(4, 4), Coord::new(8, 6), None);
        assert_eq!(d, Decision::Step(Dir::PlusY));
    }

    /// A guard as `(F, base, profile)`.
    type GuardView<'a> = (MccId, i32, &'a [u16]);

    impl CriticalSet {
        /// Every guard, Y-type then X-type, with the profile it reads.
        fn guards<'a>(&self, bounds: &'a BoundarySet) -> [Vec<GuardView<'a>>; 2] {
            [(&self.y, 0), (&self.x, 1)].map(|(guards, axis)| {
                let profiles = bounds.profiles()[axis];
                guards
                    .iter()
                    .map(|g| {
                        let Region { base, at, len } = g.region;
                        (g.f, base, &profiles[at as usize..(at + len) as usize])
                    })
                    .collect()
            })
        }
    }

    #[test]
    fn critical_set_follows_its_key() {
        // Two single-cell MCCs: (5,5) has (5,9) in its Y-critical region,
        // (2,7) has (8,7) in its X-critical region.
        let net = ctx_for(&[(5, 5), (2, 7)], ModelKind::B1);
        let ctx = net.ctx(KnowledgeScope::Local);
        let at = |set: &MccSet, c: Coord| set.mcc_at(c).expect("a fault is in an MCC");
        let (f, g) = (at(&net.set, Coord::new(5, 5)), at(&net.set, Coord::new(2, 7)));
        let mut cs = CriticalSet::default();
        // The shadow under (5,5): column 5 below row 5, after column 4.
        cs.retarget(&ctx, Coord::new(5, 9));
        assert_eq!(cs.guards(&net.bounds), [vec![(f, 4, &[0, 5][..])], vec![]]);
        // The shadow west of (2,7): row 7 west of column 2, after row 6.
        cs.retarget(&ctx, Coord::new(8, 7));
        assert_eq!(cs.guards(&net.bounds), [vec![], vec![(g, 6, &[0, 2][..])]]);
        cs.retarget(&ctx, Coord::new(5, 9));
        let back = cs.guards(&net.bounds);
        assert_eq!(back, [vec![(f, 4, &[0, 5][..])], vec![]], "back to the first target");
        // The same target coordinate in the X-mirrored frame, where the
        // faults sit at (4,5) and (7,7): column 5 is empty there, so a
        // set keyed on the target alone would be stale — ids and region.
        let flipped = Orientation { flip_x: true, flip_y: false };
        let fs = FaultSet::from_coords(*net.set.mesh(), [Coord::new(5, 5), Coord::new(2, 7)]);
        let fnet = Analysis::new(&fs, flipped, ModelKind::B1);
        let fctx = fnet.ctx(KnowledgeScope::Local);
        cs.retarget(&fctx, Coord::new(5, 9));
        assert_eq!(cs.key, Some((flipped, Coord::new(5, 9))));
        assert_eq!(cs.guards(&fnet.bounds), [vec![], vec![]]);
        // One column west the mirrored (5,5) is critical again, with the
        // mirrored profile.
        cs.retarget(&fctx, Coord::new(4, 9));
        let mirrored = at(&fnet.set, Coord::new(4, 5));
        assert_eq!(cs.guards(&fnet.bounds), [vec![(mirrored, 3, &[0, 5][..])], vec![]]);
        cs.clear();
        assert_eq!(cs.key, None);
    }

    #[test]
    fn a_profile_is_the_union_of_the_merged_shadows() {
        // The walk down from (5,8)'s corner hits the MCC at (4,3), whose
        // shadow merges into the region: columns 4 and 5, below rows 3
        // and 8.
        let fs = FaultSet::from_coords(Mesh::square(12), [Coord::new(5, 8), Coord::new(4, 3)]);
        let net = Analysis::new(&fs, Orientation::IDENTITY, ModelKind::B2);
        let ctx = net.ctx(KnowledgeScope::Global);
        let f = net.set.mcc_at(Coord::new(5, 8)).expect("F");
        let mut cs = CriticalSet::default();
        cs.retarget(&ctx, Coord::new(5, 11));
        assert_eq!(cs.guards(&net.bounds), [vec![(f, 3, &[0, 3, 8][..])], vec![]]);
        let enters = |x, y| cs.y[0].entered(net.bounds.profiles()[0], x, y);
        assert!(enters(3, 0) && enters(3, 2), "into column 4 under (4,3)");
        assert!(!enters(3, 3) && !enters(3, 7), "beside or above (4,3): column 4 is open there");
        assert!(enters(4, 3) && enters(4, 7), "from above (4,3) into column 5 under (5,8)");
        assert!(!enters(4, 2), "already inside: past the guard");
        assert!(!enters(5, 0) && !enters(2, 0) && !enters(-7, 0), "no region to enter");
    }

    #[test]
    fn avoid_excludes_the_preceding_node() {
        let net = ctx_for(&[], ModelKind::B1);
        let ctx = net.ctx(KnowledgeScope::Local);
        // Step 3 would take +X: nothing is critical.
        let d = decide(&ctx, Coord::new(0, 0), Coord::new(1, 1), Some(Coord::new(1, 0)));
        assert_eq!(d, Decision::Step(Dir::PlusY));
    }

    /// Every MCC analysis the routers could hand to `decide` for one
    /// fault set: four orientations x three models.
    fn analyses(fs: &FaultSet) -> Vec<[Analysis; 3]> {
        Orientation::ALL
            .iter()
            .map(|&o| ModelKind::ALL.map(|kind| Analysis::new(fs, o, kind)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The target-keyed decision equals the full scan for random
        /// fault sets x all four orientations x B1/B2/B3 x Local/Global
        /// x random `(ou, ot, avoid)`. One `CriticalSet` serves the whole
        /// sequence of a case (one network), so stale keys would show as
        /// well.
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
            for _ in 0..288 {
                let net = &nets[rng.gen_range(0..4usize)][rng.gen_range(0..3usize)];
                let (set, model) = (&net.set, &net.model);
                let scope =
                    if rng.gen_range(0..2) == 0 { KnowledgeScope::Local } else { KnowledgeScope::Global };
                let ctx = net.ctx(scope);
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
                prop_assert_eq!(
                    super::decide(&ctx, ou, ot, avoid, &mut critical),
                    decide_full_scan(&ctx, ou, ot, avoid),
                    "{:?} {:?} {:?}: {:?} -> {:?} avoiding {:?} over {:?}",
                    set.orientation(), model.kind(), scope, ou, ot, avoid,
                    fs.iter().collect::<Vec<_>>()
                );
            }
        }

        /// Every stored region is the flattened union of its merge list's
        /// shadows: over walled meshes, all four orientations, both axes
        /// and every MCC, a node lies under the stored profile exactly
        /// when a merged member's shadow holds it — on the region's lines
        /// and one past either end — and the profile spans exactly the
        /// members' lines.
        #[test]
        fn stored_regions_are_the_merged_shadows(
            ((w, h), density, seed) in ((4i32..20, 4i32..20), 0usize..31, 0u64..u64::MAX)
        ) {
            let mesh = Mesh::new(w as u32, h as u32);
            let mut rng = StdRng::seed_from_u64(seed);
            let net = crate::NetView::build(crate::oracle::tests::walled_faults(mesh, density, &mut rng));
            for o in Orientation::ALL {
                let (set, bounds) = (net.mccs(o), net.bounds(o));
                for f in set.iter().map(|m| m.id()) {
                    let b = bounds.get(f);
                    for (axis, merged) in [(0, b.merged_y()), (1, b.merged_x())] {
                        let Region { base, at, len } = b.regions()[axis];
                        let profile = &bounds.profiles()[axis][at as usize..(at + len) as usize];
                        // A Y-region's lines are columns, an X-region's rows.
                        let (lines, span) = if axis == 0 { (w, h) } else { (h, w) };
                        let extent = |g: MccId| {
                            let g = set.get(g);
                            if axis == 0 { (g.x0(), g.x1()) } else { (g.bbox().y0, g.bbox().y1) }
                        };
                        let first = merged.iter().map(|&g| extent(g).0).min();
                        let last = merged.iter().map(|&g| extent(g).1).max();
                        prop_assert_eq!((first, last), (Some(base + 1), Some(base + len as i32 - 1)));
                        prop_assert_eq!(profile[0], 0);
                        for line in (base - 1).max(0)..=(base + len as i32).min(lines - 1) {
                            for across in 0..span {
                                let c = if axis == 0 { Coord::new(line, across) } else { Coord::new(across, line) };
                                let shadowed = merged.iter().any(|&g| {
                                    if axis == 0 { set.get(g).shadow_y(c) } else { set.get(g).shadow_x(c) }
                                });
                                let i = line - base;
                                let stored = i > 0 && i < len as i32 && across < i32::from(profile[i as usize]);
                                prop_assert_eq!(stored, shadowed, "{:?} {:?} axis {} at {:?}", o, f, axis, c);
                            }
                        }
                    }
                }
            }
        }
    }
}
