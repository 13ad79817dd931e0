//! The unified per-hop routing interface: one [`Router`] trait —
//! `fn decide(&self, view, ctx) -> Decision` — implemented by
//! RB1/RB2/RB3, fault-tolerant E-cube and the XY baseline, and consumed
//! by *both* the offline engine (which derives a [`RouteResult`] by
//! iterating hops — see [`drive`]) and the wormhole traffic fabric
//! (whose route tables compile paths by driving the same decisions).
//!
//! ## Per hop, and per phase
//!
//! The paper's algorithms are distributed: every node makes a local
//! forwarding decision from its own labeling status and stored triples.
//! A [`Decision`] is that one local step, and `decide` is its definition;
//! per-packet scratch (detour walls, waypoint stacks — what the paper
//! carries in the message header) travels in the [`HopState`] inside
//! [`HopCtx`], so `decide` is `&self` and one router serves any number of
//! concurrent queries over a shared [`NetView`] snapshot.
//!
//! Algorithm 5 also plans once a *phase* and then only takes Algorithm-2
//! steps until the phase target, and a phase fixes most of what a
//! decision looks up. So the engine of RB1/RB2/RB3 (`drive_phased`) runs
//! a clean Manhattan phase as one loop (`routers::Phase::run`): the frame,
//! its MCCs and model and the critical set are fixed once, and a hop
//! steps the oriented node id by +1 / +width, reading two labels and the
//! guards' profile entries. The loop keeps `decide`'s tests that can
//! change mid-phase — destination or target reached, a mirrored axis
//! reaching the target's line, a blocked step — and hands the hop back to
//! `decide` when one fires; it does not start with a walk, a forced path
//! or a dead plan pending, with the preceding node ahead, or under
//! `MESHPATH_LOG=trace`.
//! A hop costs one unit of budget either way, and [`drive`] over the same
//! `decide` is the per-hop engine the tests hold the loop to.

use meshpath_mesh::{Coord, Dir, FxHashSet, HopSeq};

use crate::alg2::CriticalSet;
use crate::engine::{hop_budget, Detour, RouteResult};
use crate::oracle::FloodScratch;
use crate::routers::{Alg, Phase};
use crate::view::NetView;

/// One per-hop routing decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// The message is at its destination: eject.
    Deliver,
    /// Forward one hop in this direction.
    Hop(Dir),
    /// An internal zero-hop transition (plan refresh, learned obstacle):
    /// decide again from the same node. Consumes hop budget, so cyclic
    /// replanning cannot livelock the engine.
    Replan,
    /// No legal move exists within the router's knowledge: the message
    /// is undeliverable from here.
    Blocked,
}

/// Everything a [`Router`] sees for one decision: the message's
/// endpoints, its position and progress, and its mutable per-message
/// scratch state.
#[derive(Debug)]
pub struct HopCtx<'a> {
    /// Source node (real coordinates).
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// The node currently holding the message.
    pub here: Coord,
    /// Hops taken so far.
    pub hops: u32,
    /// Per-message routing scratch (travels with the message).
    pub state: &'a mut HopState,
}

/// Per-message routing scratch: the state the paper's algorithms carry
/// in the message header — the detour wall, the multi-phase waypoint
/// stack, locally learned obstacles, the triples that can fire for the
/// current phase target. Opaque to callers; create one per message with
/// [`HopState::default`] and hand it to every [`Router::decide`] call for
/// that message, all against the same snapshot.
#[derive(Debug, Default)]
pub struct HopState {
    pub(crate) prev: Option<Coord>,
    pub(crate) detour: Option<Detour>,
    pub(crate) detour_hops: u32,
    pub(crate) replans: u32,
    pub(crate) fallbacks: u32,
    pub(crate) learned: FxHashSet<Coord>,
    pub(crate) waypoints: Vec<Coord>,
    pub(crate) forced: Option<(Vec<Coord>, usize)>,
    pub(crate) planned: bool,
    /// Algorithm 2's target-keyed exclusion candidates (see
    /// [`CriticalSet`]): MCC ids of *this* message's snapshot.
    pub(crate) critical: CriticalSet,
    /// Labels and deque of the planner's fallback floods. Generation-
    /// stamped, so neither a new flood nor [`reset`](HopState::reset)
    /// clears it; sized to the mesh by the first flood that runs.
    pub(crate) flood: FloodScratch,
}

impl HopState {
    /// Resets to fresh scratch for a new message, keeping the heap
    /// allocations (learned set, waypoint stack, critical set, flood
    /// labels) of the previous message. This is the reuse entry point:
    /// [`Router::route_with`] resets one `HopState` per query, so a caller
    /// that routes many messages — the route service's miss path, the
    /// traffic path table — pays the scratch allocations once instead of
    /// once per message.
    pub(crate) fn reset(&mut self) {
        self.prev = None;
        self.detour = None;
        self.detour_hops = 0;
        self.replans = 0;
        self.fallbacks = 0;
        self.learned.clear();
        self.waypoints.clear();
        self.forced = None;
        self.planned = false;
        self.critical.clear();
    }

    /// One step of the wall walk RB1 and E-cube share (Algorithm 3 step
    /// 3, "route around the MCC in clockwise direction"): the one place a
    /// [`Detour`] starts, continues or ends. `want` is the neighbor of
    /// `u` the router would step to, `None` when it is blocked. Outside a
    /// walk `want` is taken as it stands, and without one a walk starts
    /// around the obstacle met moving `toward`. Inside a walk the wall is
    /// followed until `want` is strictly closer to `goal` than the node
    /// the walk began at (Bug2's leave rule), so each walk starts closer
    /// than the last. `None` when `free` blocks every side of `u` or the
    /// walk's orbit closed: the router refuses the pair.
    #[inline]
    pub(crate) fn wall_step(
        &mut self,
        u: Coord,
        want: Option<Coord>,
        toward: Dir,
        free: impl Fn(Coord) -> bool,
        goal: Coord,
    ) -> Option<Coord> {
        if let Some(v) = want {
            if self.detour.as_ref().is_none_or(|det| v.manhattan(goal) < det.hit) {
                self.detour = None;
                return Some(v);
            }
        }
        let det = self.detour.get_or_insert_with(|| Detour::around(toward, u.manhattan(goal)));
        let next = det.step(u, free)?;
        self.detour_hops += 1;
        Some(next)
    }
}

/// A routing algorithm making per-hop local decisions against an
/// epoch-versioned network snapshot.
///
/// `decide` is `&self`: router instances are stateless per call (all
/// per-message state lives in [`HopCtx::state`]), so one instance can
/// serve concurrent queries from many threads over shared [`NetView`]s.
pub trait Router {
    /// Display name used in tables (matches the paper's labels).
    fn name(&self) -> &'static str;

    /// The decision for the message described by `ctx`, parked at
    /// `ctx.here`, against the `view` snapshot.
    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision;

    /// Routes one message from `s` to `d` by iterating [`decide`]
    /// (see [`drive`]): the offline engine.
    ///
    /// [`decide`]: Router::decide
    fn route(&self, view: &NetView, s: Coord, d: Coord) -> RouteResult {
        self.route_with(view, s, d, &mut HopState::default())
    }

    /// [`route`](Router::route) reusing caller-provided scratch: the
    /// state is reset for `s` and driven to `d`,
    /// so batched callers amortize the per-message heap allocations
    /// across a whole batch.
    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset();
        drive(view, s, d, state, |view, ctx| self.decide(view, ctx))
    }
}

/// The offline engine: iterates a decision function from `s` until it
/// delivers, blocks, or exhausts the hop budget, assembling the hops
/// taken and the per-message statistics into a [`RouteResult`].
pub fn drive(
    view: &NetView,
    s: Coord,
    d: Coord,
    state: &mut HopState,
    decide: impl FnMut(&NetView, HopCtx<'_>) -> Decision,
) -> RouteResult {
    drive_phased(view, s, d, state, decide, None)
}

/// [`drive`] that runs a clean Manhattan phase as one loop, given in
/// `run` what the router's phases read and whether they follow a plan:
/// after every hop it asks for the [`Phase`] the message is in
/// ([`Phase::clean`]), and when there is one, [`Phase::run`] takes the
/// hops `decide` would have taken. The hop a run hands back is
/// `decide`'s, as every hop is under `None`.
pub(crate) fn drive_phased(
    view: &NetView,
    s: Coord,
    d: Coord,
    state: &mut HopState,
    mut decide: impl FnMut(&NetView, HopCtx<'_>) -> Decision,
    run: Option<(Alg, bool)>,
) -> RouteResult {
    let mut dirs = HopSeq::new();
    let mut u = s;
    let mut delivered = false;
    // One unit a decision, whoever makes it.
    let mut budget = hop_budget(view);
    while budget > 0 {
        budget -= 1;
        let ctx = HopCtx { src: s, dst: d, here: u, hops: dirs.len() as u32, state: &mut *state };
        match decide(view, ctx) {
            Decision::Deliver => {
                delivered = true;
                break;
            }
            Decision::Hop(dir) => {
                let v = u.step(dir);
                debug_assert!(view.mesh().contains(v), "hop {dir:?} from {u:?} leaves the mesh");
                state.prev = Some(u);
                u = v;
                dirs.push(dir);
                if let Some(phase) = run.and_then(|run| Phase::clean(view, state, (u, d), run)) {
                    phase.run(&mut u, d, state, &mut dirs, &mut budget);
                }
            }
            Decision::Replan => {}
            Decision::Blocked => break,
        }
    }
    RouteResult {
        src: s,
        dirs,
        delivered: delivered || u == d,
        replans: state.replans,
        fallbacks: state.fallbacks,
        detour_hops: state.detour_hops,
    }
}

/// The routing functions the workspace evaluates (offline engine,
/// traffic simulator, route service).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingKind {
    /// Dimension-order XY: minimal and deadlock-free, but fault-oblivious
    /// (packets whose row/column path hits a fault are unroutable). The
    /// sanity baseline.
    Xy,
    /// Fault-tolerant E-cube over rectangular fault blocks
    /// (Boppana & Chalasani).
    ECube,
    /// Algorithm 3 over the B1 information model.
    Rb1,
    /// Algorithm 5 over the B2 model (the paper's shortest-path routing).
    Rb2,
    /// Algorithm 7 over the B3 model.
    Rb3,
}

impl RoutingKind {
    /// All routing functions, in reporting order.
    pub const ALL: [RoutingKind; 5] =
        [RoutingKind::Xy, RoutingKind::ECube, RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            RoutingKind::Xy => "XY",
            RoutingKind::ECube => "E-cube",
            RoutingKind::Rb1 => "RB1",
            RoutingKind::Rb2 => "RB2",
            RoutingKind::Rb3 => "RB3",
        }
    }

    /// Instantiates the underlying router (default policies). The box
    /// is `Send + Sync`: every router is a stateless value type, so the
    /// same instance serves concurrent queries.
    pub fn router(self) -> Box<dyn Router + Send + Sync> {
        match self {
            RoutingKind::Xy => Box::new(XyRouter),
            RoutingKind::ECube => Box::new(crate::routers::ECube),
            RoutingKind::Rb1 => Box::new(crate::routers::Rb1::default()),
            RoutingKind::Rb2 => Box::new(crate::routers::Rb2::default()),
            RoutingKind::Rb3 => Box::new(crate::routers::Rb3::default()),
        }
    }
}

/// Deterministic dimension-order routing: correct X first, then Y.
///
/// Fault-oblivious: the walk stops (undeliverable) at the first faulty
/// node on the dimension-ordered path. In a fault-free mesh this is the
/// textbook minimal deadlock-free routing, which is why it serves as
/// the simulator's sanity baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct XyRouter;

impl Router for XyRouter {
    fn name(&self) -> &'static str {
        "XY"
    }

    fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
        if ctx.here == ctx.dst {
            return Decision::Deliver;
        }
        let dir = xy_next(ctx.here, ctx.dst);
        if view.faults().is_healthy(ctx.here.step(dir)) {
            Decision::Hop(dir)
        } else {
            Decision::Blocked
        }
    }
}

/// The dimension-order next hop from `here` towards `dst`: correct X
/// first, then Y, so every hop strictly decreases the lexicographic
/// potential `(|dx|, |dy|)`.
///
/// # Panics
/// Panics when `here == dst` (a delivered packet has no next hop).
#[inline]
pub(crate) fn xy_next(here: Coord, dst: Coord) -> Dir {
    if here.x != dst.x {
        if dst.x > here.x {
            Dir::PlusX
        } else {
            Dir::MinusX
        }
    } else if dst.y > here.y {
        Dir::PlusY
    } else {
        assert!(dst.y < here.y, "xy_next called at the destination");
        Dir::MinusY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routers::{Rb1, Rb2, Rb3};
    use crate::KnowledgeScope;
    use meshpath_info::ModelKind;
    use meshpath_mesh::{FaultSet, Mesh};

    #[test]
    fn xy_routes_dimension_ordered() {
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let res = XyRouter.route(&net, Coord::new(1, 1), Coord::new(4, 6));
        assert!(res.delivered);
        assert_eq!(res.hops(), 3 + 5);
        // X corrections strictly precede Y corrections.
        let dirs: Vec<Dir> = res.dirs.iter().collect();
        let first_y = dirs.iter().position(|d| d.axis() == meshpath_mesh::Axis::Y).unwrap();
        assert!(dirs[..first_y].iter().all(|d| d.axis() == meshpath_mesh::Axis::X));
        assert!(dirs[first_y..].iter().all(|d| d.axis() == meshpath_mesh::Axis::Y));
    }

    #[test]
    fn xy_blocks_on_faults() {
        let mesh = Mesh::square(8);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(3, 1)]));
        let res = XyRouter.route(&net, Coord::new(1, 1), Coord::new(6, 1));
        assert!(!res.delivered);
        // RB2 routes the same pair around the fault.
        let res2 = crate::routers::Rb2::default().route(&net, Coord::new(1, 1), Coord::new(6, 1));
        assert!(res2.delivered);
    }

    #[test]
    fn xy_next_decreases_dimension_order_distance() {
        let (s, d) = (Coord::new(7, 2), Coord::new(1, 6));
        let mut cur = s;
        while cur != d {
            let dir = xy_next(cur, d);
            let next = cur.step(dir);
            // X is corrected to completion before any Y move.
            if cur.x != d.x {
                assert_eq!(dir.axis(), meshpath_mesh::Axis::X);
                assert!((next.x - d.x).abs() < (cur.x - d.x).abs());
            } else {
                assert_eq!(dir.axis(), meshpath_mesh::Axis::Y);
                assert!((next.y - d.y).abs() < (cur.y - d.y).abs());
            }
            cur = next;
        }
    }

    #[test]
    fn decide_is_callable_through_a_shared_dyn_router() {
        // The concurrency contract: &self decide over a shared view,
        // per-message state outside the router.
        let net = NetView::build(FaultSet::none(Mesh::square(6)));
        let router: Box<dyn Router + Send + Sync> = RoutingKind::Rb2.router();
        let (s, d) = (Coord::new(0, 0), Coord::new(5, 5));
        let mut st = HopState::default();
        let mut here = s;
        for _ in 0..10 {
            match router.decide(&net, HopCtx { src: s, dst: d, here, hops: 0, state: &mut st }) {
                Decision::Hop(dir) => here = here.step(dir),
                Decision::Deliver => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(here, d);
    }

    #[test]
    fn route_with_reused_scratch_matches_fresh_state() {
        let mesh = Mesh::square(10);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(4, 4), Coord::new(5, 4)]));
        let pairs = [
            (Coord::new(0, 0), Coord::new(9, 9)),
            (Coord::new(4, 0), Coord::new(4, 9)), // detours around the wall
            (Coord::new(9, 2), Coord::new(0, 7)),
        ];
        for kind in RoutingKind::ALL {
            let router = kind.router();
            let mut state = HopState::default();
            for (s, d) in pairs {
                let reused = router.route_with(&net, s, d, &mut state);
                assert_eq!(reused, router.route(&net, s, d), "{} {s:?}->{d:?}", kind.name());
            }
        }
    }

    #[test]
    fn a_reused_state_never_serves_a_stale_critical_set() {
        // In `a`, (7,7) is X-critical for the wall on column 5, rows
        // 3..=7: the walk from (1,0), guarded and so Y-first where the Y
        // remainder is longer, must be kept out of those rows west of the
        // wall. In `b` nothing is critical for that target, and the walk
        // keeps dimension order. One state routes the same pair on `b`,
        // then on `a`: the key (orientation, target) is the same, so a
        // set that survived `reset` would carry `b`'s (empty) answer into
        // `a` and route it in dimension order. In `c` the same MCC id
        // guards the same target with a shadow one column longer: only a
        // kept *profile* tells `a` from `c`, and the walk would step into
        // (5,3), west of `c`'s wall.
        let mesh = Mesh::square(12);
        let wall = |x| FaultSet::from_coords(mesh, (3..=7).map(|y| Coord::new(x, y)));
        let a = NetView::build(wall(5));
        let b = NetView::build(FaultSet::from_coords(mesh, [Coord::new(9, 9)]));
        let c = NetView::build(wall(6));
        let (s, d) = (Coord::new(1, 0), Coord::new(7, 7));
        let scope = KnowledgeScope::Global;
        let routers: [&dyn Router; 3] = [&Rb1 { scope }, &Rb2 { scope }, &Rb3 { scope }];
        for router in routers {
            let mut state = HopState::default();
            for net in [&b, &a, &c, &a, &b, &c] {
                let reused = router.route_with(net, s, d, &mut state);
                assert_eq!(reused, router.route(net, s, d), "{}", router.name());
                assert_eq!(reused.hops(), s.manhattan(d), "{} left the rectangle", router.name());
            }
            // The walk left a key behind; `reset` forgets it.
            assert!(state.critical.is_keyed());
            state.reset();
            assert!(!state.critical.is_keyed());
        }

        // Broadly: messages alternating between two networks through one
        // state, same targets in both, every orientation.
        let a = NetView::build(FaultSet::from_coords(
            mesh,
            [Coord::new(5, 5), Coord::new(6, 5), Coord::new(2, 8)],
        ));
        let b = NetView::build(FaultSet::from_coords(
            mesh,
            [Coord::new(1, 1), Coord::new(5, 6), Coord::new(5, 7), Coord::new(9, 3)],
        ));
        let corners = [Coord::new(0, 0), Coord::new(11, 0), Coord::new(0, 11), Coord::new(11, 11)];
        for kind in [RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3] {
            let router = kind.router();
            let mut state = HopState::default();
            for d in [Coord::new(5, 9), Coord::new(6, 2), Coord::new(5, 4)] {
                for s in corners {
                    for net in [&a, &b] {
                        let reused = router.route_with(net, s, d, &mut state);
                        assert_eq!(reused, router.route(net, s, d), "{} {s:?}->{d:?}", kind.name());
                    }
                }
            }
        }
    }

    /// The goal of the walk in [`one_step_into_a_walk`].
    const GOAL: Coord = Coord::new(3, 1);

    /// A walker on a 5x5 mesh at (1,1), bound for [`GOAL`] and blocked by
    /// (2,1) on its way `+X`, one wall step into the walk around it:
    /// parked at (1,0). The walk began 2 hops from the goal.
    fn one_step_into_a_walk() -> (HopState, impl Fn(Coord) -> bool + Copy) {
        let mesh = Mesh::square(5);
        let free = move |c: Coord| mesh.contains(c) && c != Coord::new(2, 1);
        let start = Coord::new(1, 1);
        let mut st = HopState::default();
        assert_eq!(st.wall_step(start, None, Dir::PlusX, free, GOAL), Some(Coord::new(1, 0)));
        assert_eq!(st.detour.as_ref().map(|det| det.hit), Some(2));
        assert_eq!(st.detour_hops, 1);
        (st, free)
    }

    #[test]
    fn wall_step_refuses_when_every_side_is_blocked() {
        let u = Coord::new(1, 1);
        let mut st = HopState::default();
        assert_eq!(st.wall_step(u, None, Dir::PlusX, |_| false, GOAL), None);
        assert_eq!(st.detour_hops, 0);
    }

    #[test]
    fn wall_step_keeps_walking_past_a_want_that_is_not_closer() {
        let (mut st, free) = one_step_into_a_walk();
        // Back to the start: 2 hops from the goal, as far as where the
        // walk began, so the walk rounds the obstacle instead.
        let next = st.wall_step(Coord::new(1, 0), Some(Coord::new(1, 1)), Dir::PlusX, free, GOAL);
        assert_eq!(next, Some(Coord::new(2, 0)));
        assert!(st.detour.is_some());
        assert_eq!(st.detour_hops, 2);
    }

    #[test]
    fn wall_step_leaves_onto_a_strictly_closer_want() {
        let (mut st, free) = one_step_into_a_walk();
        assert_eq!(
            st.wall_step(Coord::new(1, 0), None, Dir::PlusX, free, GOAL),
            Some(Coord::new(2, 0))
        );
        // (3,0) is 1 hop from the goal: the walk ends there.
        let want = Coord::new(3, 0);
        assert_eq!(st.wall_step(Coord::new(2, 0), Some(want), Dir::PlusX, free, GOAL), Some(want));
        assert!(st.detour.is_none());
        assert_eq!(st.detour_hops, 2, "leaving is not a wall step");
    }

    #[test]
    fn all_kinds_instantiate_and_deliver() {
        let mesh = Mesh::square(10);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(4, 4)]));
        for kind in RoutingKind::ALL {
            let router = kind.router();
            let res = router.route(&net, Coord::new(0, 0), Coord::new(9, 9));
            assert!(res.delivered, "{} must route around one fault", kind.name());
            crate::engine::validate_path(&net, Coord::new(0, 0), Coord::new(9, 9), &res)
                .expect("valid path");
        }
    }

    // ---- A clean phase as one loop: held to per-hop `decide` ----

    /// Drives `decide` from `prepare`d scratch twice — every hop decided
    /// by it ([`drive`]), and with clean phases run as loops — asserts
    /// the two results equal field by field, and returns it with the
    /// nodes at which the looping engine asked `decide`.
    fn both_ways(
        net: &NetView,
        (s, d): (Coord, Coord),
        (alg, planned): (Alg, bool),
        prepare: impl Fn(&mut HopState),
        decide: impl Fn(&NetView, HopCtx<'_>) -> Decision,
    ) -> (RouteResult, Vec<Coord>) {
        let mut state = HopState::default();
        prepare(&mut state);
        let per_hop = drive(net, s, d, &mut state, &decide);
        let mut state = HopState::default();
        prepare(&mut state);
        let mut asked = Vec::new();
        let run = drive_phased(
            net,
            s,
            d,
            &mut state,
            |view, ctx| {
                asked.push(ctx.here);
                decide(view, ctx)
            },
            Some((alg, planned)),
        );
        assert_eq!(run, per_hop, "{s:?}->{d:?}");
        (run, asked)
    }

    fn rb2_both_ways(net: &NetView, s: Coord, d: Coord) -> (RouteResult, Vec<Coord>) {
        let rb2 = Rb2::default();
        let alg = (ModelKind::B2, rb2.scope);
        both_ways(net, (s, d), (alg, true), |_| (), |view, ctx| rb2.decide(view, ctx))
    }

    #[test]
    fn a_run_hands_back_where_the_frame_flips() {
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        // Nothing flips towards the north-east: the first hop, then one
        // run to the destination, where `decide` delivers.
        let (s, d) = (Coord::new(1, 1), Coord::new(6, 5));
        let (res, asked) = rb2_both_ways(&net, s, d);
        assert_eq!((res.hops(), asked), (9, vec![s, d]));
        // Towards the north-west the X flip drops on the destination's
        // column (`normalizing` resolves a tie to "no flip"): that hop is
        // `decide`'s, in the new frame, and a second run finishes.
        let (s, d) = (Coord::new(6, 1), Coord::new(1, 7));
        let (res, asked) = rb2_both_ways(&net, s, d);
        assert_eq!(res.hops(), 11);
        assert_eq!(asked.len(), 3, "{asked:?}");
        assert_eq!((asked[0], asked[1].x, asked[2]), (s, d.x, d));
    }

    #[test]
    fn a_mirrored_run_hands_back_on_the_targets_column() {
        // Towards the north-west, onto a destination walled in on its east
        // and north: the X-mirrored frame keeps a guard (the fault east of
        // (3,7)), so the walk takes the longer remainder, ties to X, and
        // meets the destination's column one hop short of its row. There
        // the frame flips back to the identity, where (3,7) is useless:
        // no Algorithm-2 step leads in, and RB1 enters it by its
        // wall-following detour. A run that missed the flip would step in.
        let faults = [Coord::new(4, 7), Coord::new(3, 8)];
        let net = NetView::build(FaultSet::from_coords(Mesh::square(10), faults));
        let (s, d) = (Coord::new(7, 3), Coord::new(3, 7));
        let rb1 = Rb1::default();
        let alg = (ModelKind::B1, rb1.scope);
        let decide = |view: &NetView, ctx: HopCtx<'_>| rb1.decide(view, ctx);
        let (res, asked) = both_ways(&net, (s, d), (alg, false), |_| (), decide);
        assert_eq!((res.hops(), res.detour_hops), (s.manhattan(d), 1));
        assert_eq!(asked, [s, Coord::new(3, 6), d]);
    }

    #[test]
    fn a_mirrored_run_follows_the_east_and_north_border() {
        // A wall one column in from the east border of a 7x13 mesh: from
        // the south-east corner to the north-west one, the walk climbs the
        // east border and turns west along the north border, in one run of
        // the X-mirrored frame — where the real node id moves by -1 a step
        // west while the oriented one moves by +1.
        let mesh = Mesh::new(7, 13);
        let net = NetView::build(FaultSet::from_coords(mesh, (0..12).map(|y| Coord::new(5, y))));
        let (s, d) = (Coord::new(6, 0), Coord::new(0, 12));
        let (res, asked) = rb2_both_ways(&net, s, d);
        assert!(res.delivered);
        let along = [&[Dir::PlusY; 12][..], &[Dir::MinusX; 6]].concat();
        assert_eq!(res.dirs.iter().collect::<Vec<_>>(), along);
        assert_eq!(asked, [s, d]);
    }

    #[test]
    fn a_run_hands_back_at_a_waypoint() {
        // Blocked due north by (5,5): the plan is one corner waypoint,
        // and the plan from there is `decide`'s to make.
        let net = NetView::build(FaultSet::from_coords(Mesh::square(10), [Coord::new(5, 5)]));
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 8));
        let (res, asked) = rb2_both_ways(&net, s, d);
        assert_eq!(res.hops(), s.manhattan(d) + 2);
        // The source, the frame flip on the waypoint's column (one hop
        // in: nothing is critical for the waypoint, so X goes first),
        // the waypoint (4,4), the destination.
        assert_eq!(asked, [s, Coord::new(4, 1), Coord::new(4, 4), d]);
    }

    #[test]
    fn a_run_hands_back_a_blocked_step() {
        // RB1 under local knowledge walks due north into the shadow of
        // (5,5) and is blocked under the fault: the walk around it starts
        // in `decide`.
        let net = NetView::build(FaultSet::from_coords(Mesh::square(10), [Coord::new(5, 5)]));
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 9));
        let rb1 = Rb1::default();
        let alg = (ModelKind::B1, rb1.scope);
        let decide = |view: &NetView, ctx: HopCtx<'_>| rb1.decide(view, ctx);
        let (res, asked) = both_ways(&net, (s, d), (alg, false), |_| (), decide);
        assert!(res.delivered && res.detour_hops > 0);
        assert_eq!(asked[..2], [s, Coord::new(5, 4)], "{asked:?}");
    }

    #[test]
    fn no_run_starts_with_the_preceding_node_ahead() {
        // A live plan, and a first hop that leads away from the
        // destination: at the node it reaches, the one to avoid
        // (Algorithm 3 step 1) is the neighbor ahead, which step 3 would
        // take. (6,6) is critical for the fault at (6,4), so step 3 takes
        // the longer remainder: X from (2,3), Y from (3,2). That decision
        // is not a run's to make.
        let net = NetView::build(FaultSet::from_coords(Mesh::square(8), [Coord::new(6, 4)]));
        let (s, d) = (Coord::new(3, 3), Coord::new(6, 6));
        let rb2 = Rb2::default();
        let alg = (ModelKind::B2, rb2.scope);
        for first in [Dir::MinusX, Dir::MinusY] {
            let decide = |view: &NetView, ctx: HopCtx<'_>| match ctx.hops {
                0 => Decision::Hop(first),
                _ => rb2.decide(view, ctx),
            };
            let planned = |state: &mut HopState| state.planned = true;
            let (res, asked) = both_ways(&net, (s, d), (alg, true), planned, decide);
            assert_eq!(res.hops(), 1 + s.step(first).manhattan(d), "never back through {s:?}");
            assert_eq!(asked[..2], [s, s.step(first)]);
            assert_eq!(asked.len(), 3, "one run from the second hop on: {asked:?}");
        }
    }

    #[test]
    fn a_run_hands_back_at_the_destination_short_of_its_target() {
        // A plan made elsewhere can leave the destination on the way to
        // the waypoint on top of the stack: `decide` delivers there.
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let (s, d, waypoint) = (Coord::new(0, 2), Coord::new(3, 2), Coord::new(6, 2));
        let rb2 = Rb2::default();
        let alg = (ModelKind::B2, rb2.scope);
        let planned = |state: &mut HopState| {
            state.planned = true;
            state.waypoints.push(waypoint);
        };
        let decide = |view: &NetView, ctx: HopCtx<'_>| rb2.decide(view, ctx);
        let (res, asked) = both_ways(&net, (s, d), (alg, true), planned, decide);
        assert_eq!((res.hops(), asked), (3, vec![s, d]));
    }

    #[test]
    fn a_cut_pair_is_refused() {
        // A wall cuts the mesh: RB1 and E-cube walk the west half's rim
        // once and refuse; RB2 and RB3 find no fallback path and refuse
        // where their phase is blocked. Either way a decision is a unit,
        // whether `decide` or a run made it.
        let mesh = Mesh::square(8);
        let net = NetView::build(FaultSet::from_coords(mesh, (0..8).map(|y| Coord::new(4, y))));
        let (s, d) = (Coord::new(0, 0), Coord::new(7, 7));
        for kind in RoutingKind::ALL {
            let router = kind.router();
            let run = router.route(&net, s, d);
            let per_hop =
                drive(&net, s, d, &mut HopState::default(), |v, ctx| router.decide(v, ctx));
            assert_eq!(run, per_hop, "{}", kind.name());
            assert!(!run.delivered && (run.hops() as usize) < 2 * mesh.len(), "{}", kind.name());
        }
    }

    /// At `MESHPATH_LOG=trace` RB2 prints one "at … target …" line a
    /// decision; the loop stands down so it keeps doing so. The level is
    /// read once a process, so the traced route runs in a child: this
    /// test, re-entered with the variable set.
    #[test]
    fn tracing_still_prints_a_line_a_hop() {
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let (s, d) = (Coord::new(6, 1), Coord::new(1, 7));
        if std::env::var_os("MESHPATH_TRACED_CHILD").is_some() {
            assert!(meshpath_obs::enabled(meshpath_obs::LogLevel::Trace));
            assert!(Rb2::default().route(&net, s, d).delivered);
            return;
        }
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "hop::tests::tracing_still_prints_a_line_a_hop", "--nocapture"])
            .env("MESHPATH_LOG", "trace")
            .env("MESHPATH_TRACED_CHILD", "1")
            .output()
            .expect("re-running the test binary");
        assert!(child.status.success(), "{child:?}");
        let stderr = String::from_utf8_lossy(&child.stderr);
        let lines = stderr.lines().filter(|l| l.starts_with("at (")).count();
        assert_eq!(lines as u32, s.manhattan(d), "{stderr}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// RB1/RB2/RB3 x `Local`/`Global` and E-cube route random pairs —
        /// cut ones included — over uniform faults overlaid with walls and
        /// pockets. Every route ends in a delivery or a refusal before the
        /// hop budget runs out; each wall walk begins strictly closer to
        /// the destination than the walk before it, and RB2/RB3 walk none;
        /// and a route is exactly what the per-hop engine takes over the
        /// same `decide`.
        #[test]
        fn every_walk_ends(
            ((w, h), density, seed) in ((6i32..25, 6i32..25), 0usize..31, 0u64..u64::MAX)
        ) {
            use rand::{Rng, SeedableRng};
            let mesh = Mesh::new(w as u32, h as u32);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let net = NetView::build(crate::oracle::tests::walled_faults(mesh, density, &mut rng));
            let healthy: Vec<Coord> = mesh.iter().filter(|&c| net.faults().is_healthy(c)).collect();
            let mut state = HopState::default();
            let (local, global) = (KnowledgeScope::Local, KnowledgeScope::Global);
            let routers: [&dyn Router; 7] = [
                &Rb1 { scope: local }, &Rb1 { scope: global }, &Rb2 { scope: local },
                &Rb2 { scope: global }, &Rb3 { scope: local }, &Rb3 { scope: global },
                &crate::routers::ECube,
            ];
            for _ in 0..12 {
                let s = healthy[rng.gen_range(0..healthy.len())];
                let d = healthy[rng.gen_range(0..healthy.len())];
                for router in routers {
                    let run = router.route_with(&net, s, d, &mut state);
                    let (mut decisions, mut starts) = (0, Vec::new());
                    let per_hop = drive(&net, s, d, &mut HopState::default(), |view, ctx| {
                        let HopCtx { src, dst, here, hops, state } = ctx;
                        let walking = state.detour.is_some();
                        decisions += 1;
                        let decision =
                            router.decide(view, HopCtx { src, dst, here, hops, state: &mut *state });
                        if let Some(det) = state.detour.as_ref().filter(|_| !walking) {
                            assert_eq!(det.hit, here.manhattan(dst), "a walk begins where it is");
                            starts.push(det.hit);
                        }
                        decision
                    });
                    let case = format!(
                        "{} {s:?}->{d:?} over {:?}",
                        router.name(),
                        net.faults().iter().collect::<Vec<_>>()
                    );
                    proptest::prop_assert!(decisions < hop_budget(&net), "budget ran out: {case}");
                    proptest::prop_assert!(
                        starts.windows(2).all(|w| w[1] < w[0]),
                        "walks began at {starts:?}: {case}"
                    );
                    if router.name().starts_with("RB2") || router.name().starts_with("RB3") {
                        proptest::prop_assert!(starts.is_empty(), "{case}");
                    }
                    proptest::prop_assert_eq!(run, per_hop, "{}", case);
                }
            }
        }
    }
}
