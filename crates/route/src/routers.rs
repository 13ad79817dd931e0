//! The four routers evaluated in the paper's Fig. 5(d)/(e), phrased as
//! per-hop [`Router::decide`] implementations over [`NetView`]
//! snapshots. Each decide call replays exactly one iteration of the
//! former whole-path loop: the per-message scratch (detours, visit
//! counts, waypoint stacks, learned obstacles) lives in the
//! [`HopState`] carried by [`HopCtx`], so a single router value serves
//! concurrent queries.
//!
//! Algorithms 3, 5 and 7 and E-cube's f-ring traversal share one
//! blocked-phase rule, and there is one implementation of it:
//! `HopState::wall_step` (in `hop.rs`) starts, continues and leaves
//! every wall-following walk. A decider here only says where it wants
//! to go, what counts as free, and what it tries before a walk starts.
//! What a Manhattan phase fixes is one `Phase`: a decision builds it
//! for one step, the engine's loop (`hop::drive_phased`) once a clean
//! phase.

use meshpath_info::ModelKind;
use meshpath_mesh::{Coord, Dir, Orientation};

use crate::alg2::{
    decide as alg2_decide, AdaptivePolicy, CriticalSet, Decision as PhaseDecision, PhaseCtx,
};
use crate::engine::least_visited_step;
use crate::engine::RouteResult;
use crate::hop::{drive_phased, xy_next, Decision, HopCtx, HopState, Router};
use crate::seq::{KnowledgeScope, Plan, Planner};
use crate::view::NetView;

/// Wall steps before a walk may leave onto a visited node: a full
/// orbit's worth.
fn detour_patience(view: &NetView) -> u32 {
    4 * (view.mesh().width() + view.mesh().height())
}

/// The hop onto `next`, a neighbor of `u`; `Blocked` without one.
#[inline]
fn hop_to(u: Coord, next: Option<Coord>) -> Decision {
    match next {
        Some(w) => Decision::Hop(u.dir_to(w).expect("deciders step to a neighbor")),
        None => Decision::Blocked,
    }
}

/// Visits of one node past which a detouring decider counts as thrashing.
const THRASH_VISITS: u32 = 8;

/// Thrash guard of every detouring decider: revisiting `u` this often
/// means the local decisions cycle, so degrade to the least-visited
/// exploration walk, which covers the connected component and therefore
/// terminates. `None` while `u` is not thrashing.
#[inline]
fn thrash_guard(view: &NetView, state: &mut HopState, u: Coord) -> Option<Decision> {
    if state.visited.count(u) <= THRASH_VISITS {
        return None;
    }
    let next = least_visited_step(u, |c| view.faults().is_healthy(c), &state.visited);
    state.detour_hops += u32::from(next.is_some());
    Some(hop_to(u, next))
}

/// What tells the Manhattan phases of RB1/RB2/RB3 apart: the model they
/// read, whose knowledge, and the tie-break of Algorithm 2's step 3.
pub(crate) type Alg = (ModelKind, KnowledgeScope, AdaptivePolicy);

/// What a Manhattan phase fixes: the frame that puts `target` in the
/// `(+X, +Y)` quadrant, that frame's MCCs and model, the target in it,
/// and the real directions of its `+X` and `+Y`. A per-hop decision
/// builds one for one step; [`drive_phased`] builds one and steps until
/// [`run_step`](Phase::run_step) hands back.
pub(crate) struct Phase<'a> {
    pctx: PhaseCtx<'a>,
    o: Orientation,
    target: Coord,
    ot: Coord,
    policy: AdaptivePolicy,
    dirs: [Dir; 2],
}

impl<'a> Phase<'a> {
    #[inline]
    fn toward(view: &'a NetView, u: Coord, target: Coord, (kind, scope, policy): Alg) -> Self {
        let o = Orientation::normalizing(u, target);
        let pctx = PhaseCtx { set: view.mccs(o), model: view.model(o, kind), scope };
        let dirs = [o.apply_dir(Dir::PlusX), o.apply_dir(Dir::PlusY)];
        Phase { pctx, o, target, ot: o.apply(view.mesh(), target), policy, dirs }
    }

    /// One Algorithm-2 step from `u` (short of the target), never onto
    /// `avoid`: the direction to take, `None` when the phase is blocked.
    #[inline]
    fn step(&self, u: Coord, avoid: Option<Coord>, critical: &mut CriticalSet) -> Option<Dir> {
        let mesh = self.pctx.set.mesh();
        let (ou, oavoid) = (self.o.apply(mesh, u), avoid.map(|p| self.o.apply(mesh, p)));
        match alg2_decide(&self.pctx, ou, self.ot, self.policy, oavoid, critical) {
            PhaseDecision::Arrived => unreachable!("arrival is handled before deciding"),
            PhaseDecision::Step(Dir::PlusX) => Some(self.dirs[0]),
            PhaseDecision::Step(_) => Some(self.dirs[1]),
            PhaseDecision::Blocked => None,
        }
    }

    /// The phase a message parked at `u` after a hop is in, when its next
    /// decision can only be a plain Algorithm-2 step: no walk in
    /// progress, no forced path, a live plan (`planned` deciders), and
    /// the node it came from not ahead of it (Algorithm 3 step 1 would
    /// avoid that one; every later step of the run leaves it behind).
    /// Stands down while tracing, so the per-hop line keeps printing.
    #[inline]
    pub(crate) fn clean(
        view: &'a NetView,
        state: &HopState,
        (u, dst): (Coord, Coord),
        (alg, planned): (Alg, bool),
    ) -> Option<Self> {
        let tracing = || meshpath_obs::enabled(meshpath_obs::LogLevel::Trace);
        if state.detour.is_some()
            || planned && (!state.planned || state.forced.is_some() || tracing())
        {
            return None;
        }
        let target = state.waypoints.last().copied().filter(|_| planned).unwrap_or(dst);
        let phase = Phase::toward(view, u, target, alg);
        let ahead = |dir| state.prev == Some(u.step(dir));
        (!ahead(phase.dirs[0]) && !ahead(phase.dirs[1])).then_some(phase)
    }

    /// The next hop of the run from `u`, or `None` to hand the hop back
    /// to `decide`: at the destination or the phase target, on a
    /// thrashing node, where the frame flips (the walk reached the
    /// target's column or row), or where the step is blocked. Every
    /// check `decide` makes on a clean phase, none of the lookups.
    #[inline]
    pub(crate) fn run_step(&self, u: Coord, dst: Coord, state: &mut HopState) -> Option<Dir> {
        if u == dst
            || u == self.target
            || state.visited.count(u) > THRASH_VISITS
            || Orientation::normalizing(u, self.target) != self.o
        {
            return None;
        }
        self.step(u, None, &mut state.critical)
    }
}

/// One Algorithm-2 step from `u` towards `target`: the neighbor to take
/// (`None` when the phase is blocked) and the blocked direction a walk
/// around the MCC starts from — `+Y` with the target above, else `+X`,
/// in the normalized frame. Both come back in real coordinates.
#[inline]
fn phase_step(
    view: &NetView,
    state: &mut HopState,
    u: Coord,
    target: Coord,
    alg: Alg,
) -> (Option<Coord>, Dir) {
    let phase = Phase::toward(view, u, target, alg);
    let want = phase.step(u, state.prev, &mut state.critical).map(|dir| u.step(dir));
    (want, phase.dirs[usize::from(target.y != u.y)])
}

/// `RB1` — Algorithm 3: Manhattan routing over the B1 boundary model,
/// with clockwise wall-following detours when blocked (no feasibility
/// check, no multi-phase planning).
#[derive(Clone, Copy, Debug)]
pub struct Rb1 {
    /// Adaptive tie-break for Algorithm 2's step 3.
    pub policy: AdaptivePolicy,
    /// Knowledge scope (Local reproduces the paper; Global for reference).
    pub scope: KnowledgeScope,
}

impl Default for Rb1 {
    fn default() -> Self {
        Rb1 { policy: AdaptivePolicy::LongerFirst, scope: KnowledgeScope::Local }
    }
}

impl Router for Rb1 {
    fn name(&self) -> &'static str {
        "RB1"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        decide_rb1_like(view, ctx, (ModelKind::B1, self.scope, self.policy))
    }

    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset(s);
        let run = Some(((ModelKind::B1, self.scope, self.policy), false));
        drive_phased(view, s, d, state, |view, ctx| self.decide(view, ctx), run)
    }
}

/// Shared per-hop decider for boundary-model routing with detours (RB1).
fn decide_rb1_like(view: &NetView, ctx: HopCtx<'_>, alg: Alg) -> Decision {
    let HopCtx { dst: d, here: u, state, .. } = ctx;
    if u == d {
        return Decision::Deliver;
    }
    state.clear_exhausted_detour();
    if let Some(thrashing) = thrash_guard(view, state, u) {
        return thrashing;
    }
    // Algorithm 3 step 3: a blocked phase routes around the MCC clockwise.
    let (want, toward) = phase_step(view, state, u, d, alg);
    let healthy = |c: Coord| view.faults().is_healthy(c);
    hop_to(u, state.wall_step(u, want, toward, healthy, detour_patience(view)))
}

/// `RB2` — Algorithm 5: shortest-path routing over the B2 broadcast model.
#[derive(Clone, Copy, Debug)]
pub struct Rb2 {
    /// Adaptive tie-break for the Manhattan phases.
    pub policy: AdaptivePolicy,
    /// Knowledge scope (Local reproduces the paper; Global for reference).
    pub scope: KnowledgeScope,
}

impl Default for Rb2 {
    fn default() -> Self {
        Rb2 { policy: AdaptivePolicy::LongerFirst, scope: KnowledgeScope::Local }
    }
}

impl Router for Rb2 {
    fn name(&self) -> &'static str {
        "RB2"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        decide_planned(view, ctx, (ModelKind::B2, self.scope, self.policy))
    }

    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset(s);
        let run = Some(((ModelKind::B2, self.scope, self.policy), true));
        drive_phased(view, s, d, state, |view, ctx| self.decide(view, ctx), run)
    }
}

/// `RB3` — Algorithm 7: the same multi-phase machinery over the B3
/// boundary + relation-record model.
#[derive(Clone, Copy, Debug)]
pub struct Rb3 {
    /// Adaptive tie-break for the Manhattan phases.
    pub policy: AdaptivePolicy,
    /// Knowledge scope.
    pub scope: KnowledgeScope,
}

impl Default for Rb3 {
    fn default() -> Self {
        Rb3 { policy: AdaptivePolicy::LongerFirst, scope: KnowledgeScope::Local }
    }
}

impl Router for Rb3 {
    fn name(&self) -> &'static str {
        "RB3"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        decide_planned(view, ctx, (ModelKind::B3, self.scope, self.policy))
    }

    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset(s);
        let run = Some(((ModelKind::B3, self.scope, self.policy), true));
        drive_phased(view, s, d, state, |view, ctx| self.decide(view, ctx), run)
    }
}

/// Shared per-hop decider for the multi-phase drivers (RB2/RB3,
/// Algorithms 5 and 7).
fn decide_planned(view: &NetView, ctx: HopCtx<'_>, alg: Alg) -> Decision {
    let HopCtx { dst: d, here: u, state, .. } = ctx;
    if u == d {
        return Decision::Deliver;
    }
    state.clear_exhausted_detour();
    let planner = Planner::new(view, alg.0, alg.1);
    let healthy = |c: Coord| view.faults().is_healthy(c);

    if let Some(thrashing) = thrash_guard(view, state, u) {
        state.forced = None;
        state.planned = false;
        return thrashing;
    }

    // Follow a forced (BFS fallback) path when active.
    if let Some((fpath, idx)) = &mut state.forced {
        let next = fpath[*idx + 1];
        if healthy(next) {
            *idx += 1;
            if *idx + 1 >= fpath.len() {
                state.forced = None;
                state.planned = false;
            }
            return Decision::Hop(u.dir_to(next).expect("forced paths are walks"));
        }
        // The plan crossed an unknown fault: learn and re-plan.
        state.learned.insert(next);
        state.forced = None;
        state.planned = false;
        state.replans += 1;
        return Decision::Replan;
    }

    // Reached the current intermediate destination: re-plan there
    // (Algorithm 5 step 5 "from that intermediate destination, the
    // routing will continue").
    while state.waypoints.last() == Some(&u) {
        state.waypoints.pop();
        state.planned = false;
    }

    if !state.planned {
        let (plan, stats) = planner.plan(u, d, &state.learned, &mut state.flood);
        state.planned = true;
        match plan {
            Plan::Direct => state.waypoints.clear(),
            Plan::Waypoints(w) => {
                // Keep in visiting order; the stack pops from the back.
                state.waypoints = w;
                state.waypoints.reverse();
            }
            Plan::Forced(p) => {
                state.forced = Some((p, 0));
                state.fallbacks += stats.used_fallback as u32;
                return Decision::Replan;
            }
        }
        if stats.used_fallback {
            state.fallbacks += 1;
        }
    }

    // `u == target` was handled above for waypoints, `target == d` at
    // the decider head.
    let target = state.waypoints.last().copied().unwrap_or(d);
    if meshpath_obs::enabled(meshpath_obs::LogLevel::Trace) {
        eprintln!(
            "at {u:?} target {target:?} waypoints {:?} detour {}",
            state.waypoints,
            state.detour.is_some()
        );
    }

    let (want, toward) = phase_step(view, state, u, target, alg);
    if want.is_none() && state.detour.is_none() {
        // The phase is blocked: re-plan once; if the planner has
        // nothing new, fall back to a BFS plan; as a last resort
        // wall-follow.
        state.replans += 1;
        let o_d = Orientation::normalizing(u, d);
        let (plan, stats) = planner.fallback(u, d, o_d, &state.learned, &mut state.flood);
        if stats.used_fallback {
            state.fallbacks += 1;
        }
        if let Plan::Forced(p) = plan {
            if p.len() > 1 {
                state.forced = Some((p, 0));
                return Decision::Replan;
            }
        }
    }
    hop_to(u, state.wall_step(u, want, toward, healthy, detour_patience(view)))
}

/// `E-cube` — fault-tolerant dimension-order routing over rectangular
/// fault blocks (Boppana & Chalasani, the paper's reference \[2\]): route
/// `X` first, then `Y`; on meeting a fault block, traverse its f-ring
/// until dimension progress resumes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ECube;

impl Router for ECube {
    fn name(&self) -> &'static str {
        "E-cube"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        let HopCtx { dst: d, src: s, here: u, state, .. } = ctx;
        if u == d {
            return Decision::Deliver;
        }
        // Once wall-following over enabled nodes exhausts its orbits,
        // the enabled region around the walker is a closed pocket: drop
        // the block constraint and walk healthy nodes (the deactivated
        // ones are physical hardware; the error metric pays for the
        // extra hops).
        if state.clear_exhausted_detour() {
            state.healthy_mode = true;
        }
        if let Some(thrashing) = thrash_guard(view, state, u) {
            state.healthy_mode = true;
            return thrashing;
        }
        // Walk on healthy nodes, but treat block-disabled nodes as
        // obstacles (except the endpoints, which the experiment harness
        // guarantees to be healthy but which the coarser block model may
        // have deactivated).
        let (mesh, blocks, healthy_mode) = (view.mesh(), view.blocks(), state.healthy_mode);
        let healthy = |c: Coord| view.faults().is_healthy(c);
        let passable = |c: Coord| {
            mesh.contains(c)
                && healthy(c)
                && (!blocks.is_disabled(c) || c == d || c == s || healthy_mode)
        };

        let dir = xy_next(u, d);
        let straight = u.step(dir);
        let want = passable(straight).then_some(straight);
        let next = state.wall_step(u, want, dir, passable, detour_patience(view)).or_else(|| {
            // Enabled nodes exhausted: escape over healthy nodes
            // (block-disabled ones are physically traversable; the
            // error metric pays for it).
            let w = least_visited_step(u, healthy, &state.visited)?;
            state.detour_hops += 1;
            Some(w)
        });
        hop_to(u, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::validate_path;
    use crate::oracle::DistanceField;
    use meshpath_mesh::{FaultSet, Mesh};

    fn net(mesh: Mesh, faults: &[(i32, i32)]) -> NetView {
        NetView::build(FaultSet::from_coords(mesh, faults.iter().map(|&(x, y)| Coord::new(x, y))))
    }

    fn check_optimal(router: &dyn Router, n: &NetView, s: Coord, d: Coord) {
        let res = router.route(n, s, d);
        assert!(res.delivered, "{} failed {s:?}->{d:?}: {:?}", router.name(), res.dirs);
        validate_path(n, s, d, &res).expect("valid path");
        let field = DistanceField::healthy(n.faults(), d);
        assert_eq!(
            res.hops(),
            field.dist(s),
            "{} suboptimal {s:?}->{d:?}: {:?}",
            router.name(),
            res.dirs
        );
    }

    #[test]
    fn all_routers_deliver_on_fault_free_mesh() {
        let n = net(Mesh::square(8), &[]);
        let (s, d) = (Coord::new(1, 1), Coord::new(6, 5));
        for router in [&Rb1::default() as &dyn Router, &Rb2::default(), &Rb3::default(), &ECube] {
            check_optimal(router, &n, s, d);
        }
    }

    #[test]
    fn rb2_takes_the_shortest_detour_around_a_single_fault() {
        let n = net(Mesh::square(10), &[(5, 5)]);
        // Blocked column case: optimal adds exactly 2 hops.
        check_optimal(&Rb2::default(), &n, Coord::new(5, 1), Coord::new(5, 8));
        // Feasible cases stay Manhattan.
        check_optimal(&Rb2::default(), &n, Coord::new(0, 0), Coord::new(9, 9));
        check_optimal(&Rb2::default(), &n, Coord::new(9, 9), Coord::new(0, 0));
        check_optimal(&Rb2::default(), &n, Coord::new(0, 9), Coord::new(9, 0));
    }

    #[test]
    fn rb2_threads_a_two_mcc_chain() {
        let f1: Vec<(i32, i32)> = (0..=5).map(|x| (x, 4)).collect();
        let f2: Vec<(i32, i32)> = (4..=9).map(|x| (x, 7)).collect();
        let all: Vec<(i32, i32)> = f1.into_iter().chain(f2).collect();
        let n = net(Mesh::square(10), &all);
        check_optimal(&Rb2::default(), &n, Coord::new(2, 0), Coord::new(7, 9));
    }

    #[test]
    fn rb1_delivers_with_detours_when_no_manhattan_path() {
        let n = net(Mesh::square(10), &[(5, 5)]);
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 8));
        let res = Rb1::default().route(&n, s, d);
        assert!(res.delivered);
        validate_path(&n, s, d, &res).expect("valid");
        // RB1 is allowed to be suboptimal, but must deliver.
        assert!(res.hops() >= s.manhattan(d));
    }

    #[test]
    fn rb3_matches_rb2_from_boundary_sources() {
        // Theorem 2: from a boundary node the RB3 path is as short as
        // RB2's. (4,1) lies on the -X boundary of the fault at (5,5)...
        // actually on the boundary of column 4 descending from (4,4).
        let n = net(Mesh::square(10), &[(5, 5)]);
        let (s, d) = (Coord::new(4, 1), Coord::new(5, 8));
        let rb2 = Rb2::default().route(&n, s, d);
        let rb3 = Rb3::default().route(&n, s, d);
        assert!(rb2.delivered && rb3.delivered);
        assert_eq!(rb2.hops(), rb3.hops());
    }

    #[test]
    fn ecube_routes_around_blocks() {
        let n = net(Mesh::square(10), &[(4, 4), (4, 5), (5, 4), (5, 5)]);
        let (s, d) = (Coord::new(1, 4), Coord::new(8, 5));
        let res = ECube.route(&n, s, d);
        assert!(res.delivered, "path: {:?}", res.dirs);
        validate_path(&n, s, d, &res).expect("valid");
        assert!(res.detour_hops > 0, "must have detoured around the block");
    }

    #[test]
    fn routers_survive_dense_random_faults() {
        use meshpath_mesh::FaultInjection;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mesh = Mesh::square(16);
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..6 {
            let faults = FaultSet::random(mesh, 30, FaultInjection::Uniform, &mut rng);
            if !meshpath_mesh::is_connected(&faults) {
                continue;
            }
            let n = NetView::build(faults);
            let field_ok = |c: Coord| {
                n.faults().is_healthy(c)
                    && Orientation::ALL
                        .iter()
                        .all(|&o| n.mccs(o).labeling().status_real(c).is_safe())
            };
            // Draw safe endpoint pairs.
            let mut pairs = Vec::new();
            while pairs.len() < 8 {
                let s = Coord::new(rng.gen_range(0..16), rng.gen_range(0..16));
                let d = Coord::new(rng.gen_range(0..16), rng.gen_range(0..16));
                if s != d && field_ok(s) && field_ok(d) {
                    pairs.push((s, d));
                }
            }
            for (s, d) in pairs {
                for router in
                    [&Rb1::default() as &dyn Router, &Rb2::default(), &Rb3::default(), &ECube]
                {
                    let res = router.route(&n, s, d);
                    assert!(
                        res.delivered,
                        "{} undelivered {s:?}->{d:?} (trial {trial})",
                        router.name()
                    );
                    validate_path(&n, s, d, &res).expect("valid path");
                }
            }
        }
    }
}
