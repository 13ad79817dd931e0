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

use meshpath_info::ModelKind;
use meshpath_mesh::{Coord, Dir, Orientation};

use crate::alg2::{decide as alg2_decide, AdaptivePolicy, Decision as PhaseDecision, PhaseCtx};
use crate::engine::least_visited_step;
use crate::hop::{xy_next, Decision, HopCtx, HopState, Router};
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

/// Thrash guard of every detouring decider: revisiting `u` this often
/// means the local decisions cycle, so degrade to the least-visited
/// exploration walk, which covers the connected component and therefore
/// terminates. `None` while `u` is not thrashing.
#[inline]
fn thrash_guard(view: &NetView, state: &mut HopState, u: Coord) -> Option<Decision> {
    if state.visited.count(u) <= 8 {
        return None;
    }
    let next = least_visited_step(u, |c| view.faults().is_healthy(c), &state.visited);
    state.detour_hops += u32::from(next.is_some());
    Some(hop_to(u, next))
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
    kind: ModelKind,
    scope: KnowledgeScope,
    policy: AdaptivePolicy,
) -> (Option<Coord>, Dir) {
    let mesh = view.mesh();
    let o = Orientation::normalizing(u, target);
    let pctx = PhaseCtx { set: view.mccs(o), model: view.model(o, kind), scope };
    let (ou, ot) = (o.apply(mesh, u), o.apply(mesh, target));
    let oprev = state.prev.map(|p| o.apply(mesh, p));
    let want = match alg2_decide(&pctx, ou, ot, policy, oprev, &mut state.critical) {
        PhaseDecision::Arrived => unreachable!("arrival is handled before deciding"),
        PhaseDecision::Step(dir) => Some(o.apply(mesh, ou.step(dir))),
        PhaseDecision::Blocked => None,
    };
    let toward = if ot.y > ou.y { Dir::PlusY } else { Dir::PlusX };
    (want, o.apply_dir(toward))
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
        decide_rb1_like(view, ctx, ModelKind::B1, self.scope, self.policy)
    }
}

/// Shared per-hop decider for boundary-model routing with detours (RB1).
fn decide_rb1_like(
    view: &NetView,
    ctx: HopCtx<'_>,
    kind: ModelKind,
    scope: KnowledgeScope,
    policy: AdaptivePolicy,
) -> Decision {
    let HopCtx { dst: d, here: u, state, .. } = ctx;
    if u == d {
        return Decision::Deliver;
    }
    state.clear_exhausted_detour();
    if let Some(thrashing) = thrash_guard(view, state, u) {
        return thrashing;
    }
    // Algorithm 3 step 3: a blocked phase routes around the MCC clockwise.
    let (want, toward) = phase_step(view, state, u, d, kind, scope, policy);
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
        decide_planned(view, ctx, ModelKind::B2, self.scope, self.policy)
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
        decide_planned(view, ctx, ModelKind::B3, self.scope, self.policy)
    }
}

/// Shared per-hop decider for the multi-phase drivers (RB2/RB3,
/// Algorithms 5 and 7).
fn decide_planned(
    view: &NetView,
    ctx: HopCtx<'_>,
    kind: ModelKind,
    scope: KnowledgeScope,
    policy: AdaptivePolicy,
) -> Decision {
    let HopCtx { dst: d, here: u, state, .. } = ctx;
    if u == d {
        return Decision::Deliver;
    }
    state.clear_exhausted_detour();
    let planner = Planner::new(view, kind, scope);
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

    let (want, toward) = phase_step(view, state, u, target, kind, scope, policy);
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
            let field_ok = |c: Coord| n.faults().is_healthy(c) && n.is_safe_all_orientations(c);
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
