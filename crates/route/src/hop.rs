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
//! per-packet scratch (detour walls, visit counts, waypoint stacks — what
//! the paper carries in the message header) travels in the [`HopState`]
//! inside [`HopCtx`], so `decide` is `&self` and one router serves any
//! number of concurrent queries over a shared [`NetView`] snapshot.
//!
//! Algorithm 5 also plans once a *phase* and then only takes Algorithm-2
//! steps until the phase target, and a phase fixes most of what a
//! decision looks up. So the engine of RB1/RB2/RB3 (`drive_phased`) runs
//! a clean Manhattan phase as one loop, with the orientation, its MCC set
//! and model, the oriented target and the two real directions hoisted
//! (`routers::Phase`). The loop keeps `decide`'s tests that can change
//! mid-phase — destination or target reached, a ninth visit, the frame
//! flipping on the target's column or row, a blocked step — and hands the
//! hop back to `decide` when one fires; it does not start with a walk, a
//! forced path or a dead plan pending, with the preceding node ahead, or
//! under `MESHPATH_LOG=trace`. A hop is recorded in one place and costs
//! one unit of budget either way, and [`drive`] over the same `decide` is
//! the per-hop engine the tests hold the loop to.

use meshpath_mesh::{Coord, Dir, FaultSet, FxHashSet, HopSeq};

use crate::alg2::CriticalSet;
use crate::engine::{hop_budget, Detour, RouteResult, Visited};
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
/// in the message header — detour walls, visit counts, the multi-phase
/// waypoint stack, locally learned obstacles, the triples that can fire
/// for the current phase target. Opaque to callers; create one per
/// message with [`HopState::new`] and hand it to every
/// [`Router::decide`] call for that message,
/// all against the same snapshot.
#[derive(Debug)]
pub struct HopState {
    pub(crate) prev: Option<Coord>,
    pub(crate) visited: Visited,
    pub(crate) detour: Option<Detour>,
    pub(crate) detour_run: u32,
    pub(crate) detour_hops: u32,
    pub(crate) replans: u32,
    pub(crate) fallbacks: u32,
    pub(crate) learned: FxHashSet<Coord>,
    pub(crate) waypoints: Vec<Coord>,
    pub(crate) forced: Option<(Vec<Coord>, usize)>,
    pub(crate) planned: bool,
    pub(crate) healthy_mode: bool,
    /// Algorithm 2's target-keyed exclusion candidates (see
    /// [`CriticalSet`]): MCC ids of *this* message's snapshot.
    pub(crate) critical: CriticalSet,
    /// Labels and deque of the planner's fallback floods. Generation-
    /// stamped, so neither a new flood nor [`reset`](HopState::reset)
    /// clears it; sized to the mesh by the first flood that runs.
    pub(crate) flood: FloodScratch,
}

impl HopState {
    /// Fresh scratch for a message injected at `src`.
    pub fn new(src: Coord) -> Self {
        HopState {
            prev: None,
            visited: Visited::new(src),
            detour: None,
            detour_run: 0,
            detour_hops: 0,
            replans: 0,
            fallbacks: 0,
            learned: FxHashSet::default(),
            waypoints: Vec::new(),
            forced: None,
            planned: false,
            healthy_mode: false,
            critical: CriticalSet::default(),
            flood: FloodScratch::default(),
        }
    }

    /// Resets to fresh scratch for a new message injected at `src`,
    /// keeping the heap allocations (visited table, learned set, waypoint
    /// stack, critical set, flood labels) of the previous message. This
    /// is the reuse entry point: [`Router::route_with`] resets one
    /// `HopState` per query, so a caller that routes many messages — the
    /// route service's miss path, the traffic path table — pays the
    /// scratch allocations once instead of once per message.
    pub(crate) fn reset(&mut self, src: Coord) {
        self.prev = None;
        self.visited.reset(src);
        self.detour = None;
        self.detour_run = 0;
        self.detour_hops = 0;
        self.replans = 0;
        self.fallbacks = 0;
        self.learned.clear();
        self.waypoints.clear();
        self.forced = None;
        self.planned = false;
        self.healthy_mode = false;
        self.critical.clear();
    }

    /// Drops an exhausted wall-following detour (owner bookkeeping
    /// shared by every detouring router).
    pub(crate) fn clear_exhausted_detour(&mut self) -> bool {
        if self.detour.as_ref().is_some_and(|d| d.exhausted) {
            self.detour = None;
            self.detour_run = 0;
            true
        } else {
            false
        }
    }

    /// One step of the blocked-phase rule RB1/RB2/RB3 and E-cube share
    /// (Algorithm 3 step 3, "route around the MCC in clockwise
    /// direction"): the one place a [`Detour`] starts, continues or
    /// ends. `want` is the neighbor of `u` the router would step to,
    /// `None` when it is blocked. Outside a walk `want` is taken as it
    /// stands, and without one a walk starts around the obstacle met
    /// moving `toward`. Inside a walk the wall is followed until `want`
    /// is unvisited (leaving into a visited node invites a livelock)
    /// or `patience` wall steps have passed (a full orbit's worth:
    /// breaks rare starvation around big clusters). `None` when `free`
    /// blocks every side of `u`; a walk that cannot take its first step
    /// is not stored.
    #[inline]
    pub(crate) fn wall_step(
        &mut self,
        u: Coord,
        want: Option<Coord>,
        toward: Dir,
        free: impl Fn(Coord) -> bool,
        patience: u32,
    ) -> Option<Coord> {
        if let Some(v) = want {
            if self.detour.is_none() || !self.visited.contains(v) || self.detour_run >= patience {
                self.detour = None;
                self.detour_run = 0;
                return Some(v);
            }
        }
        let next = match &mut self.detour {
            Some(det) => det.step(u, free, &self.visited),
            None => {
                let mut det = Detour::around(toward);
                let first = det.step(u, free, &self.visited);
                self.detour = first.map(|_| det);
                first
            }
        }?;
        self.detour_hops += 1;
        self.detour_run += 1;
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
        self.route_with(view, s, d, &mut HopState::new(s))
    }

    /// [`route`](Router::route) reusing caller-provided scratch: the
    /// state is reset for `s` and driven to `d`,
    /// so batched callers amortize the per-message heap allocations
    /// across a whole batch.
    fn route_with(&self, view: &NetView, s: Coord, d: Coord, state: &mut HopState) -> RouteResult {
        state.reset(s);
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
/// ([`Phase::clean`]), and while there is one, [`Phase::run_step`] takes
/// the hops `decide` would have taken. The hop a run hands back is
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
    state.visited.begin(view.mesh());
    // The one place a hop is recorded.
    let hop = |state: &mut HopState, dirs: &mut HopSeq, u: &mut Coord, dir: Dir| {
        let v = u.step(dir);
        debug_assert!(view.mesh().contains(v), "hop {dir:?} from {u:?} leaves the mesh");
        state.prev = Some(*u);
        *u = v;
        state.visited.insert(v);
        dirs.push(dir);
    };
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
                hop(state, &mut dirs, &mut u, dir);
                if let Some(phase) = run.and_then(|run| Phase::clean(view, state, (u, d), run)) {
                    while budget > 0 {
                        let Some(dir) = phase.run_step(u, d, state) else { break };
                        budget -= 1;
                        hop(state, &mut dirs, &mut u, dir);
                    }
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
/// first, then Y. The traffic fabric's XY escape class routes
/// exclusively with this function, so every escape hop strictly
/// decreases the lexicographic potential `(|dx|, |dy|)` — the invariant
/// the escape property tests pin.
///
/// # Panics
/// Panics when `here == dst` (a delivered packet has no next hop).
#[inline]
pub fn xy_next(here: Coord, dst: Coord) -> Dir {
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

/// Whether the dimension-order XY walk from `here` to `dst` crosses
/// only healthy nodes — the escape-entry precondition of the traffic
/// fabric. `here == dst` is trivially clear.
pub fn xy_path_clear(faults: &FaultSet, here: Coord, dst: Coord) -> bool {
    let mut cur = here;
    while cur != dst {
        cur = cur.step(xy_next(cur, dst));
        if !faults.is_healthy(cur) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routers::{Rb1, Rb2, Rb3};
    use crate::{AdaptivePolicy, KnowledgeScope};
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
    fn xy_clear_matches_the_xy_router() {
        let mesh = Mesh::square(8);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(3, 1), Coord::new(5, 5)]));
        for (s, d) in [
            (Coord::new(1, 1), Coord::new(6, 1)), // crosses (3,1)
            (Coord::new(1, 1), Coord::new(1, 6)), // clear column
            (Coord::new(0, 5), Coord::new(7, 5)), // crosses (5,5)
            (Coord::new(2, 0), Coord::new(6, 7)), // clear L
        ] {
            let walked = XyRouter.route(&net, s, d).delivered;
            assert_eq!(xy_path_clear(net.faults(), s, d), walked, "{s:?}->{d:?}");
        }
    }

    #[test]
    fn decide_is_callable_through_a_shared_dyn_router() {
        // The concurrency contract: &self decide over a shared view,
        // per-message state outside the router.
        let net = NetView::build(FaultSet::none(Mesh::square(6)));
        let router: Box<dyn Router + Send + Sync> = RoutingKind::Rb2.router();
        let (s, d) = (Coord::new(0, 0), Coord::new(5, 5));
        let mut st = HopState::new(s);
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
            let mut state = HopState::new(pairs[0].0);
            for (s, d) in pairs {
                let reused = router.route_with(&net, s, d, &mut state);
                assert_eq!(reused, router.route(&net, s, d), "{} {s:?}->{d:?}", kind.name());
            }
        }
    }

    #[test]
    fn a_reused_state_never_serves_a_stale_critical_set() {
        // In `a`, (9,5) is X-critical for the MCC at (5,5): a +Y-first
        // walk from (0,3) must be kept out of row 5 west of the fault. In
        // `b` nothing is critical for that target. One state routes the
        // same pair on `b`, then on `a`: the key (orientation, target) is
        // the same, so a set that survived `reset` would carry `b`'s
        // (empty) answer into `a` and the walk would enter the shadow.
        // In `c` the same MCC id guards the same target with a shadow one
        // column longer: only a kept *profile* tells `a` from `c`, and
        // the walk would step into (5,5), west of `c`'s fault.
        let mesh = Mesh::square(12);
        let a = NetView::build(FaultSet::from_coords(mesh, [Coord::new(5, 5)]));
        let b = NetView::build(FaultSet::from_coords(mesh, [Coord::new(9, 9)]));
        let c = NetView::build(FaultSet::from_coords(mesh, [Coord::new(6, 5)]));
        let (s, d) = (Coord::new(0, 3), Coord::new(9, 5));
        let (policy, scope) = (AdaptivePolicy::PreferY, KnowledgeScope::Global);
        let routers: [&dyn Router; 3] =
            [&Rb1 { policy, scope }, &Rb2 { policy, scope }, &Rb3 { policy, scope }];
        for router in routers {
            let mut state = HopState::new(s);
            for net in [&b, &a, &c, &a, &b, &c] {
                let reused = router.route_with(net, s, d, &mut state);
                assert_eq!(reused, router.route(net, s, d), "{}", router.name());
                assert_eq!(reused.hops(), s.manhattan(d), "{} left the rectangle", router.name());
            }
            // The walk left a key behind; `reset` forgets it.
            assert!(state.critical.is_keyed());
            state.reset(s);
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
            let mut state = HopState::new(corners[0]);
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

    /// A walker on a 5x5 mesh at (1,1), blocked by (2,1) on its way
    /// `+X`, one wall step into the walk around it: parked at (1,0).
    fn one_step_into_a_walk() -> (HopState, impl Fn(Coord) -> bool + Copy) {
        let mesh = Mesh::square(5);
        let free = move |c: Coord| mesh.contains(c) && c != Coord::new(2, 1);
        let start = Coord::new(1, 1);
        let mut st = HopState::new(start);
        st.visited.begin(&mesh);
        assert_eq!(st.wall_step(start, None, Dir::PlusX, free, 2), Some(Coord::new(1, 0)));
        st.visited.insert(Coord::new(1, 0));
        assert!(st.detour.is_some());
        assert_eq!((st.detour_hops, st.detour_run), (1, 1));
        (st, free)
    }

    #[test]
    fn wall_step_does_not_store_a_walk_that_cannot_take_its_first_step() {
        let u = Coord::new(1, 1);
        let mut st = HopState::new(u);
        assert_eq!(st.wall_step(u, None, Dir::PlusX, |_| false, 2), None);
        assert!(st.detour.is_none(), "E-cube's least-visited fallback starts from no walk");
        assert_eq!((st.detour_hops, st.detour_run), (0, 0));
    }

    #[test]
    fn wall_step_leaves_the_walk_for_an_unvisited_want() {
        let (mut st, free) = one_step_into_a_walk();
        let want = Coord::new(0, 0);
        assert_eq!(st.wall_step(Coord::new(1, 0), Some(want), Dir::PlusX, free, 2), Some(want));
        assert!(st.detour.is_none());
        assert_eq!((st.detour_hops, st.detour_run), (1, 0), "leaving is not a wall step");
    }

    #[test]
    fn wall_step_refuses_a_visited_want_until_patience_runs_out() {
        let (mut st, free) = one_step_into_a_walk();
        // Back to the start: visited, and one wall step is not yet two.
        let next = st.wall_step(Coord::new(1, 0), Some(Coord::new(1, 1)), Dir::PlusX, free, 2);
        assert_eq!(next, Some(Coord::new(2, 0)), "the walk rounds the obstacle instead");
        st.visited.insert(Coord::new(2, 0));
        assert!(st.detour.is_some());
        assert_eq!((st.detour_hops, st.detour_run), (2, 2));
        // Two wall steps in, a visited node is as good as any.
        let back = Coord::new(1, 0);
        assert_eq!(st.wall_step(Coord::new(2, 0), Some(back), Dir::PlusX, free, 2), Some(back));
        assert!(st.detour.is_none());
        assert_eq!((st.detour_hops, st.detour_run), (2, 0));
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
        let mut state = HopState::new(s);
        prepare(&mut state);
        let per_hop = drive(net, s, d, &mut state, &decide);
        let mut state = HopState::new(s);
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
        let alg = (ModelKind::B2, rb2.scope, rb2.policy);
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
    fn a_run_hands_back_at_a_waypoint() {
        // Blocked due north by (5,5): the plan is one corner waypoint,
        // and the plan from there is `decide`'s to make.
        let net = NetView::build(FaultSet::from_coords(Mesh::square(10), [Coord::new(5, 5)]));
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 8));
        let (res, asked) = rb2_both_ways(&net, s, d);
        assert_eq!(res.hops(), s.manhattan(d) + 2);
        // The source, the frame flip on the waypoint's column, the
        // waypoint (4,4), the destination.
        assert_eq!(asked, [s, Coord::new(4, 3), Coord::new(4, 4), d]);
    }

    #[test]
    fn a_run_hands_back_on_the_ninth_visit() {
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let (s, d, busy) = (Coord::new(0, 3), Coord::new(7, 3), Coord::new(4, 3));
        let rb2 = Rb2::default();
        let alg = (ModelKind::B2, rb2.scope, rb2.policy);
        let mesh = *net.mesh();
        let visited_before = |times: usize| {
            move |state: &mut HopState| {
                state.visited.begin(&mesh);
                (0..times).for_each(|_| state.visited.insert(busy));
            }
        };
        let decide = |view: &NetView, ctx: HopCtx<'_>| rb2.decide(view, ctx);
        // The walk's own visit is the eighth: not thrashing yet.
        let (res, asked) = both_ways(&net, (s, d), (alg, true), visited_before(7), decide);
        assert_eq!((res.hops(), res.detour_hops, asked), (7, 0, vec![s, d]));
        // The ninth is: the thrash guard's exploration step is `decide`'s.
        let (res, asked) = both_ways(&net, (s, d), (alg, true), visited_before(8), decide);
        assert_eq!(res.detour_hops, 1);
        assert!(asked.contains(&busy), "{asked:?}");
    }

    #[test]
    fn a_run_hands_back_a_blocked_step() {
        // RB1 under local knowledge walks due north into the shadow of
        // (5,5) and is blocked under the fault: the walk around it starts
        // in `decide`.
        let net = NetView::build(FaultSet::from_coords(Mesh::square(10), [Coord::new(5, 5)]));
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 9));
        let rb1 = Rb1::default();
        let alg = (ModelKind::B1, rb1.scope, rb1.policy);
        let decide = |view: &NetView, ctx: HopCtx<'_>| rb1.decide(view, ctx);
        let (res, asked) = both_ways(&net, (s, d), (alg, false), |_| (), decide);
        assert!(res.delivered && res.detour_hops > 0);
        assert_eq!(asked[..2], [s, Coord::new(5, 4)], "{asked:?}");
    }

    #[test]
    fn no_run_starts_with_the_preceding_node_ahead() {
        // A live plan, and a first hop that leads away from the
        // destination: at the node it reaches, the one to avoid
        // (Algorithm 3 step 1) is the neighbor ahead, which the policy
        // would take. That decision is not a run's to make.
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let (s, d) = (Coord::new(3, 3), Coord::new(6, 6));
        for (first, policy) in
            [(Dir::MinusX, AdaptivePolicy::PreferX), (Dir::MinusY, AdaptivePolicy::PreferY)]
        {
            let rb2 = Rb2 { policy, scope: KnowledgeScope::Local };
            let alg = (ModelKind::B2, rb2.scope, policy);
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
        let alg = (ModelKind::B2, rb2.scope, rb2.policy);
        let planned = |state: &mut HopState| {
            state.planned = true;
            state.waypoints.push(waypoint);
        };
        let decide = |view: &NetView, ctx: HopCtx<'_>| rb2.decide(view, ctx);
        let (res, asked) = both_ways(&net, (s, d), (alg, true), planned, decide);
        assert_eq!((res.hops(), asked), (3, vec![s, d]));
    }

    #[test]
    fn an_exhausted_budget_is_spent_hop_for_hop() {
        // A wall cuts the mesh: the message wanders until the budget is
        // gone, a decision a unit whether `decide` or a run made it.
        let mesh = Mesh::square(8);
        let net = NetView::build(FaultSet::from_coords(mesh, (0..8).map(|y| Coord::new(4, y))));
        let (s, d) = (Coord::new(0, 0), Coord::new(7, 7));
        for kind in [RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3] {
            let router = kind.router();
            let run = router.route(&net, s, d);
            let per_hop = drive(&net, s, d, &mut HopState::new(s), |v, ctx| router.decide(v, ctx));
            assert_eq!(run, per_hop, "{}", kind.name());
            assert!(!run.delivered && run.hops() as usize > mesh.len(), "{}", kind.name());
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

        /// RB1/RB2/RB3 x `Local`/`Global` x every tie-break policy route
        /// random pairs — cut ones included, which exhaust the hop
        /// budget — exactly as the per-hop engine does over the same
        /// `decide`: uniform faults overlaid with walls and pockets, so
        /// runs end in every way they can.
        #[test]
        fn phase_runs_route_exactly_as_per_hop_decisions(
            ((w, h), density, seed) in ((6i32..25, 6i32..25), 0usize..31, 0u64..u64::MAX)
        ) {
            use rand::{Rng, SeedableRng};
            let mesh = Mesh::new(w as u32, h as u32);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let net = NetView::build(crate::oracle::tests::walled_faults(mesh, density, &mut rng));
            let healthy: Vec<Coord> = mesh.iter().filter(|&c| net.faults().is_healthy(c)).collect();
            let mut state = HopState::new(healthy[0]);
            for scope in [KnowledgeScope::Local, KnowledgeScope::Global] {
                for policy in
                    [AdaptivePolicy::LongerFirst, AdaptivePolicy::PreferX, AdaptivePolicy::PreferY]
                {
                    let routers: [&dyn Router; 3] =
                        [&Rb1 { policy, scope }, &Rb2 { policy, scope }, &Rb3 { policy, scope }];
                    for _ in 0..4 {
                        let s = healthy[rng.gen_range(0..healthy.len())];
                        let d = healthy[rng.gen_range(0..healthy.len())];
                        for router in routers {
                            let run = router.route_with(&net, s, d, &mut state);
                            let per_hop = drive(&net, s, d, &mut HopState::new(s), |view, ctx| {
                                router.decide(view, ctx)
                            });
                            proptest::prop_assert_eq!(
                                run, per_hop,
                                "{} {:?} {:?} {:?}->{:?} over {:?}",
                                router.name(), scope, policy, s, d,
                                net.faults().iter().collect::<Vec<_>>()
                            );
                        }
                    }
                }
            }
        }
    }
}
