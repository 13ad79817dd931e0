//! The four routers evaluated in the paper's Fig. 5(d)/(e), phrased as
//! per-hop [`Router::decide`] implementations over [`NetView`]
//! snapshots. The per-message scratch (the detour, waypoint stacks,
//! learned obstacles) lives in the [`HopState`] carried by [`HopCtx`],
//! so a single router value serves concurrent queries.
//!
//! Every route ends: it delivers or is refused (`Decision::Blocked`).
//! RB1's Algorithm 3 and E-cube's f-ring traversal share one wall walk,
//! `HopState::wall_step` (in `hop.rs`); a walk leaves its wall only
//! closer to the destination than where it began, and a closed orbit is
//! a refusal, so every hop outside a walk is productive and a route makes
//! at most `D(s, d)` walks of at most one orbit each. RB2 and RB3
//! (Algorithms 5 and 7) walk no walls: a blocked phase re-plans, then
//! follows the fallback flood, which passes every healthy node, so a
//! phase with no flood path is a cut pair and is refused. What a
//! Manhattan phase fixes is one `Phase`: a decision builds it for one
//! step, the engine's loop (`hop::drive_phased`) once a clean phase.

use meshpath_info::ModelKind;
use meshpath_mesh::{Coord, Dir, HopSeq, Orientation};

use crate::alg2::{decide as alg2_decide, CriticalSet, Decision as PhaseDecision, PhaseCtx};
use crate::engine::RouteResult;
use crate::hop::{drive_phased, xy_next, Decision, HopCtx, HopState, Router};
use crate::seq::{KnowledgeScope, Plan, Planner};
use crate::view::NetView;

/// The hop onto `next`, a neighbor of `u`; `Blocked` without one.
#[inline]
fn hop_to(u: Coord, next: Option<Coord>) -> Decision {
    match next {
        Some(w) => Decision::Hop(u.dir_to(w).expect("deciders step to a neighbor")),
        None => Decision::Blocked,
    }
}

/// What tells the Manhattan phases of RB1/RB2/RB3 apart: the model they
/// read and whose knowledge.
pub(crate) type Alg = (ModelKind, KnowledgeScope);

/// What a Manhattan phase fixes: the frame that puts `target` in the
/// `(+X, +Y)` quadrant, that frame's MCCs and model, the target in it,
/// and the real directions of its `+X` and `+Y`. A per-hop decision
/// builds one for one step; [`drive_phased`] builds one and
/// [`run`](Phase::run)s it.
pub(crate) struct Phase<'a> {
    pctx: PhaseCtx<'a>,
    o: Orientation,
    ot: Coord,
    dirs: [Dir; 2],
}

impl<'a> Phase<'a> {
    #[inline]
    fn toward(view: &'a NetView, u: Coord, target: Coord, (kind, scope): Alg) -> Self {
        let o = Orientation::normalizing(u, target);
        let (set, model, bounds) = (view.mccs(o), view.model(o, kind), view.bounds(o));
        let pctx = PhaseCtx { set, model, bounds, scope };
        let dirs = [o.apply_dir(Dir::PlusX), o.apply_dir(Dir::PlusY)];
        Phase { pctx, o, ot: o.apply(view.mesh(), target), dirs }
    }

    /// One Algorithm-2 step from `u` (short of the target), never onto
    /// `avoid`: the direction to take, `None` when the phase is blocked.
    #[inline]
    fn step(&self, u: Coord, avoid: Option<Coord>, critical: &mut CriticalSet) -> Option<Dir> {
        let mesh = self.pctx.set.mesh();
        let (ou, oavoid) = (self.o.apply(mesh, u), avoid.map(|p| self.o.apply(mesh, p)));
        match alg2_decide(&self.pctx, ou, self.ot, oavoid, critical) {
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

    /// Takes from `*u` the hops `decide` would take, until one of its
    /// tests fires — at the destination or the phase target, where the
    /// frame flips (a mirrored axis reached the target's line) or where
    /// the step is blocked — or `budget` runs out; a hop costs a unit and
    /// is recorded as `drive_phased` records one. None of `decide`'s
    /// lookups: the critical set is keyed once, and the walk steps its
    /// oriented node id by +1 / +width.
    pub(crate) fn run(
        &self,
        u: &mut Coord,
        dst: Coord,
        state: &mut HopState,
        dirs: &mut HopSeq,
        budget: &mut usize,
    ) {
        let mesh = self.pctx.set.mesh();
        let width = mesh.width() as usize;
        let masks = self.pctx.set.labeling().masks().as_slice();
        let (o, ot, od) = (self.o, self.ot, self.o.apply(mesh, dst));
        let mut ou = o.apply(mesh, *u);
        let mut oid = mesh.id(ou).index();
        let flipped = |ou: Coord| o.flip_x && ou.x == ot.x || o.flip_y && ou.y == ot.y;
        state.critical.retarget(&self.pctx, ot);
        while *budget > 0 && ou != od && ou != ot && !flipped(ou) {
            // Step 1: a target strictly ahead keeps the neighbor in the mesh.
            let p = [ot.x > ou.x && masks[oid + 1] == 0, ot.y > ou.y && masks[oid + width] == 0];
            let PhaseDecision::Step(dir) = state.critical.choose(&self.pctx, ou, ot, p) else {
                break;
            };
            let axis = usize::from(dir == Dir::PlusY);
            *budget -= 1;
            state.prev = Some(o.apply(mesh, ou));
            ou = ou.step(dir);
            oid += [1, width][axis];
            dirs.push(self.dirs[axis]);
        }
        *u = o.apply(mesh, ou);
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
/// check, no multi-phase planning). A pair whose walk closes its orbit
/// is refused.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rb1 {
    /// Knowledge scope (Local reproduces the paper; Global for reference).
    pub scope: KnowledgeScope,
}

impl Router for Rb1 {
    fn name(&self) -> &'static str {
        "RB1"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        let HopCtx { dst: d, here: u, state, .. } = ctx;
        if u == d {
            return Decision::Deliver;
        }
        // Algorithm 3 step 3: a blocked phase routes around the MCC clockwise.
        let (want, toward) = phase_step(view, state, u, d, (ModelKind::B1, self.scope));
        let healthy = |c: Coord| view.faults().is_healthy(c);
        hop_to(u, state.wall_step(u, want, toward, healthy, d))
    }

    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset();
        let run = Some(((ModelKind::B1, self.scope), false));
        drive_phased(view, s, d, state, |view, ctx| self.decide(view, ctx), run)
    }
}

/// `RB2` — Algorithm 5: shortest-path routing over the B2 broadcast model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rb2 {
    /// Knowledge scope (Local reproduces the paper; Global for reference).
    pub scope: KnowledgeScope,
}

impl Router for Rb2 {
    fn name(&self) -> &'static str {
        "RB2"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        decide_planned(view, ctx, (ModelKind::B2, self.scope))
    }

    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset();
        let run = Some(((ModelKind::B2, self.scope), true));
        drive_phased(view, s, d, state, |view, ctx| self.decide(view, ctx), run)
    }
}

/// `RB3` — Algorithm 7: the same multi-phase machinery over the B3
/// boundary + relation-record model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rb3 {
    /// Knowledge scope.
    pub scope: KnowledgeScope,
}

impl Router for Rb3 {
    fn name(&self) -> &'static str {
        "RB3"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        decide_planned(view, ctx, (ModelKind::B3, self.scope))
    }

    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset();
        let run = Some(((ModelKind::B3, self.scope), true));
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
    let planner = Planner::new(view, alg.0, alg.1);
    let healthy = |c: Coord| view.faults().is_healthy(c);

    // Follow a forced (flood) path when active.
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
        let (plan, flooded) = planner.plan(u, d, &state.learned, &mut state.flood);
        state.planned = true;
        state.fallbacks += u32::from(flooded);
        match plan {
            Plan::Direct => state.waypoints.clear(),
            Plan::Waypoints(w) => {
                // Keep in visiting order; the stack pops from the back.
                state.waypoints = w;
                state.waypoints.reverse();
            }
            Plan::Forced(p) => {
                state.forced = Some((p, 0));
                return Decision::Replan;
            }
        }
    }

    // `u == target` was handled above for waypoints, `target == d` at
    // the decider head.
    let target = state.waypoints.last().copied().unwrap_or(d);
    if meshpath_obs::enabled(meshpath_obs::LogLevel::Trace) {
        eprintln!("at {u:?} target {target:?} waypoints {:?}", state.waypoints);
    }

    let (want, _) = phase_step(view, state, u, target, alg);
    if want.is_none() {
        // The phase is blocked: follow the fallback flood, which passes
        // every healthy node; without a path the pair is cut.
        state.replans += 1;
        state.fallbacks += 1;
        if let Some(p) = planner.fallback(u, d, &state.learned, &mut state.flood) {
            if p.len() > 1 {
                state.forced = Some((p, 0));
                return Decision::Replan;
            }
        }
    }
    hop_to(u, want)
}

/// `E-cube` — fault-tolerant dimension-order routing over rectangular
/// fault blocks (Boppana & Chalasani, the paper's reference \[2\]): route
/// `X` first, then `Y`; on meeting a fault block, traverse its f-ring
/// until dimension progress resumes. Defined on the block model: the walk
/// passes no block-disabled node but the endpoints, and a pair it cannot
/// reach that way is refused.
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
        // Walk on healthy nodes, but treat block-disabled nodes as
        // obstacles (except the endpoints, which the experiment harness
        // guarantees to be healthy but which the coarser block model may
        // have deactivated).
        let (mesh, blocks) = (view.mesh(), view.blocks());
        let passable = |c: Coord| {
            mesh.contains(c)
                && view.faults().is_healthy(c)
                && (!blocks.is_disabled(c) || c == d || c == s)
        };
        let dir = xy_next(u, d);
        let straight = u.step(dir);
        let want = passable(straight).then_some(straight);
        hop_to(u, state.wall_step(u, want, dir, passable, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::validate_path;
    use crate::hop::XyRouter;
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
    fn fault_free_meshes_route_every_pair_as_xy() {
        // Nothing is ever critical, so every Manhattan phase keeps
        // dimension order: XY's route, hop for hop.
        for mesh in [Mesh::square(8), Mesh::new(7, 5)] {
            let n = NetView::build(FaultSet::none(mesh));
            for (s, d) in mesh.iter().flat_map(|s| mesh.iter().map(move |d| (s, d))) {
                let xy = XyRouter.route(&n, s, d).dirs;
                for scope in [KnowledgeScope::Local, KnowledgeScope::Global] {
                    for router in [&Rb1 { scope } as &dyn Router, &Rb2 { scope }, &Rb3 { scope }] {
                        let dirs = router.route(&n, s, d).dirs;
                        assert_eq!(dirs, xy, "{} {scope:?} {s:?}->{d:?}", router.name());
                    }
                }
            }
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
    fn ecube_refuses_a_pair_its_block_model_cuts() {
        // Two fault staircases on columns 3..=5 of a 9x6 mesh: their
        // rectangular blocks stack into one block touching the south and
        // north borders, which cuts the enabled nodes in two. A healthy
        // path threads the staircases through (3,2) (4,2) (4,3) (5,3):
        // RB2 takes it, and E-cube, defined on the block model, walks the
        // western region's rim once and refuses the pair.
        let n = net(Mesh::new(9, 6), &[(3, 0), (4, 1), (5, 2), (3, 3), (4, 4), (5, 5)]);
        assert!((0..6).all(|y| (3..=5).all(|x| n.blocks().is_disabled(Coord::new(x, y)))));
        let (s, d) = (Coord::new(1, 2), Coord::new(7, 2));
        check_optimal(&Rb2::default(), &n, s, d);
        let res = ECube.route(&n, s, d);
        assert!(!res.delivered, "E-cube crossed its block: {:?}", res.dirs);
        validate_path(&n, s, d, &res).expect("valid");
        assert!(res.path().all(|c| c.x < 3), "{:?}", res.dirs);
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
