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
//!    merged into `F`'s region (boundary-hit closure) and `R'(F)` the
//!    critical region of `F` itself (see DESIGN.md §3);
//! 3. pick any remaining direction with a fully adaptive policy.
//!
//! Neighbor *safety* (not just non-faultiness) is local knowledge: the
//! distributed labeling protocol works by neighbor status exchange, so
//! every node knows the converged status of its four neighbors.
//!
//! ## What a decision reads
//!
//! Only a triple with `t ∈ R'(F)` can exclude anything, and `t` is fixed
//! for a whole Manhattan phase. So step 2 is *target-keyed*: the message
//! carries a [`CriticalSet`] — the handful of MCCs (2–4 on a 64x64 mesh
//! at 5 % faults, out of ~175) whose Y- or X-critical region contains
//! the current target — recomputed with one pass over the orientation's
//! MCCs only when the `(orientation, target)` key changes (once per
//! phase, and on RB1 quadrant flips). A per-hop decision then reads the
//! two neighbor labels of step 1 and, for those few MCCs only, the
//! `knows(u, F)` bit and the merged-shadow lists — and each triple is
//! asked about one candidate only, because a shadow can only be entered
//! across its axis (a `+Y` step into a Y-shadow starts inside it).
//! Exclusions only ever clear candidate bits, so the order and the
//! subset of MCCs visited cannot change the outcome: the decision equals
//! the scan over every MCC and both candidates, which is kept as the
//! `#[cfg(test)]` reference the proptests compare against.

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
    pub fn knows(&self, ou: Coord, f: MccId) -> bool {
        match self.scope {
            KnowledgeScope::Global => true,
            KnowledgeScope::Local => self.model.knows(ou, f),
        }
    }
}

/// The triples that can fire for one `(orientation, target)`: the MCCs
/// whose Y- (X-) critical region contains the oriented target. Part of
/// the per-message scratch ([`HopState`](crate::HopState)); valid for
/// one network snapshot, so it is [`clear`](CriticalSet::clear)ed with
/// the rest of the scratch between messages.
#[derive(Debug, Default)]
pub struct CriticalSet {
    key: Option<(Orientation, Coord)>,
    y: Vec<MccId>,
    x: Vec<MccId>,
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

    /// Makes the set describe `ot` in `set`'s orientation: a no-op while
    /// the key is unchanged, one pass over the MCCs otherwise.
    fn retarget(&mut self, set: &MccSet, ot: Coord) {
        let key = Some((set.orientation(), ot));
        if self.key == key {
            return;
        }
        self.key = key;
        self.y.clear();
        self.x.clear();
        for f in set.iter() {
            if f.critical_y(ot) {
                self.y.push(f.id());
            }
            if f.critical_x(ot) {
                self.x.push(f.id());
            }
        }
    }
}

/// Step 2 for one axis: whether some triple in `critical` that `ou`
/// holds forbids stepping from `ou` to `step` — the step would *enter* a
/// shadow merged into the triple's forbidden region. A node already
/// inside the region is past the guard (the pair is blocked; detours
/// handle it), so the exclusion only fires from outside.
///
/// Only the cross-axis step can enter: a Y-shadow is everything *below*
/// a staircase within its columns, so `ou + Y` inside implies `ou`
/// inside (and likewise `ou + X` for an X-shadow). Hence Y-type triples
/// are asked about the `+X` step only and X-type triples about `+Y`.
fn enters_forbidden<'a>(
    ctx: &PhaseCtx<'a>,
    ou: Coord,
    step: Coord,
    critical: &[MccId],
    merged: impl Fn(MccId) -> &'a [MccId],
    shadow: impl Fn(&Mcc, Coord) -> bool,
) -> bool {
    critical.iter().any(|&f| {
        if !ctx.knows(ou, f) {
            return false;
        }
        let region = merged(f);
        let inside = |c: Coord| region.iter().any(|&g| shadow(ctx.set.get(g), c));
        inside(step) && !inside(ou)
    })
}

/// The Algorithm 2 decision at oriented node `ou` toward oriented target
/// `ot`. `avoid` (the preceding node, Algorithm 3 step 1) is excluded from
/// the candidates when given. `critical` is the message's cached
/// [`CriticalSet`]; it is re-keyed here when the target or the
/// orientation moved.
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

    // Step 2: exclusions from the triples known here, of the few whose
    // critical region holds the target.
    if p[0] || p[1] {
        critical.retarget(ctx.set, ot);
        let (east, north) = (ou.step(Dir::PlusX), ou.step(Dir::PlusY));
        let (merged_y, merged_x) = (|f| ctx.model.merged_y(f), |f| ctx.model.merged_x(f));
        p[0] = p[0] && !enters_forbidden(ctx, ou, east, &critical.y, merged_y, Mcc::shadow_y);
        p[1] = p[1] && !enters_forbidden(ctx, ou, north, &critical.x, merged_x, Mcc::shadow_x);
    }

    // Step 3: fully adaptive selection.
    match policy.pick(ou, ot, p) {
        Some(dir) => Decision::Step(dir),
        None => Decision::Blocked,
    }
}

/// Step 1: the candidate directions `[+X, +Y]` — toward the target, onto
/// a safe node, not back to `avoid`.
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

    #[test]
    fn critical_set_follows_its_key() {
        // Two single-cell MCCs: (5,5) has (5,9) in its Y-critical region,
        // (2,7) has (8,7) in its X-critical region.
        let (set, _) = ctx_for(&[(5, 5), (2, 7)], ModelKind::B1);
        let at = |c: Coord| set.mcc_at(c).expect("a fault is in an MCC");
        let mut cs = CriticalSet::default();
        cs.retarget(&set, Coord::new(5, 9));
        assert_eq!((&cs.y[..], &cs.x[..]), (&[at(Coord::new(5, 5))][..], &[][..]));
        cs.retarget(&set, Coord::new(8, 7));
        assert_eq!((&cs.y[..], &cs.x[..]), (&[][..], &[at(Coord::new(2, 7))][..]));
        cs.retarget(&set, Coord::new(5, 9));
        assert_eq!(cs.y, [at(Coord::new(5, 5))], "back to the first target");
        // The same target coordinate in the X-mirrored frame, where the
        // faults sit at (4,5) and (7,7): column 5 is empty there, so a
        // set keyed on the target alone would be stale.
        let flipped = Orientation { flip_x: true, flip_y: false };
        let fs = FaultSet::from_coords(*set.mesh(), [Coord::new(5, 5), Coord::new(2, 7)]);
        let fset = MccSet::build(&fs, flipped, BorderPolicy::Open);
        cs.retarget(&fset, Coord::new(5, 9));
        assert_eq!(cs.key, Some((flipped, Coord::new(5, 9))));
        assert!(cs.y.is_empty() && cs.x.is_empty());
        cs.clear();
        assert_eq!(cs.key, None);
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
