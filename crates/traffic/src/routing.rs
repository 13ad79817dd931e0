//! Per-hop routing functions for the wormhole fabric: the [`HopRouter`]
//! trait and its one implementation, the Duato-style adaptive wrapper
//! over compiled routes with XY and spanning-tree escape classes.
//!
//! ## Architecture
//!
//! The paper's routers make per-hop local decisions (the unified
//! [`Router`] trait in `meshpath-route`). Re-running the full decision
//! procedure at every router every cycle would swamp the flit-level
//! simulation, so the adapters compile the hop sequence once per
//! distinct `(epoch, source, destination)` triple into a [`PathTable`]
//! (every router in this workspace is *deterministic* per snapshot, so
//! the walk is a pure function of the pair). The table is
//! **snapshot-keyed**: it owns [`NetView`] epochs instead of borrowing
//! one `&Network`, which is what lets a running simulation change its
//! fault set mid-flight (see [`crate::churn`]) — packets admitted at
//! epoch `e` replay epoch-`e` routes until a fresh fault strands them,
//! while new packets compile against the current epoch.
//!
//! The fabric asks a [`HopRouter`] for a fresh `(output port, VC
//! class)` decision whenever a head flit is parked at a router — every
//! cycle the head waits — so a decision is table reads, never a search
//! or a hash probe:
//!
//! * the **adaptive class** reads hop `head_hop` of the packet's
//!   compiled route through a [`RouteHandle`]: the route's index in the
//!   table's arena, resolved by the one `(epoch, s, d)` map probe a
//!   packet costs per table and kept by the fabric *beside* the
//!   traveling [`PacketState`] (a handle names a slot of one table, so
//!   it never crosses a shard edge: the next shard resolves its own);
//! * the **tree class** compares pre-order interval labels of the
//!   spanning forest ([`EscapeForest::next_hop`]): "is the destination
//!   in my subtree? then the child whose interval holds it, else my
//!   parent" — no ancestor climb, no memo;
//! * **XY clearance** (may a stalled head enter the XY class here?) is
//!   two differences of row/column prefix fault counts of the current
//!   fault set.
//!
//! [`EscapeHop`] follows the compiled route on the adaptive class; when
//! the head has been blocked for `patience` cycles it re-routes the
//! packet onto a reserved escape class and finishes the trip there. Two
//! escape classes exist, tried in order, each only when the fabric
//! reserves a channel for it (with `escape_vcs == 0` there is none, and
//! the router replays the compiled route unconditionally — the
//! source-routed fabric, deadlock detected rather than avoided):
//!
//! 1. the **XY escape class** ([`VcClass::EscapeXy`]): strict
//!    dimension-order XY, entered only when the XY walk from the
//!    current node to the destination crosses no faulty node (under
//!    the packet's epoch). Every XY hop strictly decreases the
//!    dimension-order distance, so the class's channel-dependency
//!    graph is acyclic (the classic DOR argument) and it drains under
//!    any load.
//! 2. the **tree escape class** ([`VcClass::EscapeTree`]): up*/down*
//!    routing on a BFS spanning forest ([`EscapeForest`]). Tree
//!    routes go child-to-root ("up") then root-to-child ("down");
//!    forbidding down-to-up transitions totally orders the tree
//!    channels, so this class is acyclic *regardless of the fault
//!    pattern*.
//!
//! Per Duato's methodology, a blocked head that always has an
//! eventual path onto a draining escape network cannot participate in
//! a wormhole interlock: the XY class serves the common case with
//! minimal paths, and the tree class closes the faulty-mesh hole
//! (XY runs blocked by faults) with a guaranteed — if possibly long —
//! last resort.
//!
//! Under **churn** (events published mid-run via
//! [`HopRouter::publish`], whether listed ahead of time or injected
//! live) the escape substrate tracks the *current* fault set: each
//! published event rebuilds the forest ([`EscapeForest::new`]) and the
//! prefix counts over the published fault set — whole, because below
//! the percolation threshold the healthy mesh is one giant component
//! and there is no smaller dirty part to rebuild
//! (`BENCH/pr19-forest-publish.json`). Repaired nodes regain the tree
//! class, and packets stranded by a fresh fault are replanned under the
//! new epoch (which re-keys their handle) or killed (the `churn_killed`
//! stat) instead of wedging.

use std::collections::hash_map::Entry;

use meshpath_mesh::{Coord, Dir, FaultSet, FxHashMap, HopSeq, NodeId};
use meshpath_route::oracle::{DistanceField, UNREACHABLE};
use meshpath_route::{xy_next, HopState, NetView, Router};

pub(crate) use meshpath_route::RoutingKind;

use crate::fabric::PacketState;

/// The virtual-channel classes of the fabric.
///
/// The fabric partitions each output port's `vcs` virtual channels into
/// `vcs - escape_vcs` *adaptive* channels (the low indices, usable by
/// any compiled route) and `escape_vcs` reserved *escape* channels (the
/// top indices). The topmost escape channel is the tree class; any
/// remaining escape channels form the XY class. Restricting each escape
/// class to one acyclic routing function (strict dimension-order XY,
/// up*/down* tree order) keeps its channel-dependency graph
/// cycle-free, which is what lets escape traffic drain under any load;
/// keeping the two classes on disjoint channels keeps their dependency
/// graphs from composing into a cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum VcClass {
    /// The unrestricted class: compiled (possibly detouring) routes.
    Adaptive,
    /// The reserved XY escape class: strict dimension-order XY only,
    /// entered only past a fault-free XY run.
    EscapeXy,
    /// The reserved tree escape class: up*/down* spanning-forest routes
    /// only — the always-available last resort.
    EscapeTree,
}

/// One output option for a parked head flit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct HopChoice {
    /// The output direction to request.
    pub dir: Dir,
    /// The VC class to allocate on that output.
    pub class: VcClass,
}

/// An ordered, fixed-capacity candidate list for one head flit: the
/// fabric tries the choices front to back and the first one with an
/// allocatable VC this cycle wins (committing the packet — wormhole).
///
/// Entries past `len` always hold one filler choice whose bytes are all
/// zero: the empty list is the all-zero value, and two lists compare
/// equal exactly when their pushed prefixes do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct HopCandidates {
    len: u8,
    arr: [HopChoice; 3],
}

impl Default for HopCandidates {
    fn default() -> Self {
        HopCandidates::new()
    }
}

impl HopCandidates {
    /// What an unused entry holds (discriminant 0 of both enums).
    const FILLER: HopChoice = HopChoice { dir: Dir::PlusX, class: VcClass::Adaptive };

    /// An empty candidate list (the head waits this cycle).
    pub(crate) const fn new() -> Self {
        HopCandidates { len: 0, arr: [HopCandidates::FILLER; 3] }
    }

    /// Appends a candidate (capacity 3: adaptive, XY escape, tree
    /// escape).
    ///
    /// # Panics
    /// Panics when the list is full.
    pub(crate) fn push(&mut self, c: HopChoice) {
        assert!((self.len as usize) < self.arr.len(), "candidate list full");
        self.arr[self.len as usize] = c;
        self.len += 1;
    }

    /// The candidates in preference order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = HopChoice> + '_ {
        self.arr[..self.len as usize].iter().copied()
    }
}

impl FromIterator<HopChoice> for HopCandidates {
    fn from_iter<T: IntoIterator<Item = HopChoice>>(iter: T) -> Self {
        let mut c = HopCandidates::new();
        for x in iter {
            c.push(x);
        }
        c
    }
}

/// A per-hop routing decision for one head flit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum HopDecision {
    /// The packet is at its destination: take the ejection port.
    Eject,
    /// Request an output link: candidates in preference order.
    Route(HopCandidates),
}

impl HopDecision {
    /// A single-candidate route decision.
    pub(crate) fn route1(c: HopChoice) -> Self {
        HopDecision::Route([c].into_iter().collect())
    }
}

/// The fabric-facing adapter over the unified [`Router`] trait: the
/// object the fabric consults for every parked head flit, adding the
/// VC-class dimension (adaptive vs escape) the offline engine does not
/// have. Implementations decide from *local* state — the packet's
/// endpoints and progress ([`PacketState`], including its admission
/// epoch) plus whatever the adapter knows about the network — mirroring
/// how the paper's distributed algorithms run on real NoC hardware.
pub(crate) trait HopRouter {
    /// Network-interface admission: the hop count of the compiled route
    /// for `(s, d)` under the **current epoch**, or `None` when the
    /// routing function does not deliver the pair (XY across a fault,
    /// disconnected endpoints). Called once per generated packet; the
    /// result backs the TTL check.
    fn admit(&mut self, s: Coord, d: Coord) -> Option<u32>;

    /// The decision for the head flit of `pk` parked at `here`. Called
    /// every cycle the head is unrouted, so it must be cheap: array
    /// reads plus a VC-class choice. Routes are resolved under the
    /// packet's admission epoch (`pk.epoch`). `route` is the caller's
    /// per-packet slot for this router's resolved route: it starts
    /// [`RouteHandle::UNRESOLVED`] wherever the packet's state enters a
    /// shard and must come back with the same packet's next call. The
    /// packet state is mutable so an online router can re-key a stranded
    /// packet onto the current epoch (replan, which re-keys `route`
    /// too) or mark it killed; any mutation must be idempotent, because
    /// the post-mortem re-asks on a copy.
    fn decide(&mut self, here: Coord, pk: &mut PacketState, route: &mut RouteHandle)
        -> HopDecision;

    /// Publishes a churn epoch: `view` (the network after the applied
    /// event) becomes the admission epoch — subsequent
    /// [`admit`](HopRouter::admit) calls compile against it — and
    /// escape structures are rebuilt over its fault set. The first
    /// publish switches the router into online mode: degradation checks
    /// (kill/replan around fresh faults) activate from that point on.
    /// Routers that cannot serve churn ignore the call.
    fn publish(&mut self, view: &NetView) {
        let _ = view;
    }
}

/// A compiled route: the hop sequence, or `None` for an undeliverable
/// pair, cached per `(epoch, source, destination)`.
type CachedRoute = Option<HopSeq>;

/// A packet's compiled route, resolved to its slot in one
/// [`PathTable`]'s arena: what lets [`HopRouter::decide`] read a hop
/// without hashing the `(epoch, source, destination)` key again. Valid
/// only against the table that resolved it and only until that table's
/// next [`reset_epochs`](PathTable::reset_epochs) — the fabric keeps one
/// beside every pooled [`PacketState`] and starts it unresolved wherever
/// a state enters a shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct RouteHandle(u32);

impl RouteHandle {
    /// Nothing resolved yet: the next adaptive-class decision probes
    /// the table (once) and stores what it finds.
    pub(crate) const UNRESOLVED: RouteHandle = RouteHandle(u32::MAX);
}

/// A memoizing compiled-route table for one routing function over a
/// **sequence of epoch snapshots**: the per-pair backing store of the
/// hop routers. Routes are keyed `(epoch, source, destination)`, so a
/// table serves mixed-epoch traffic during fault churn; without churn
/// it degenerates to the classic per-pair cache at epoch 0.
pub struct PathTable {
    kind: RoutingKind,
    router: Box<dyn Router + Send + Sync>,
    /// The published snapshots, epoch order (index 0 = the initial
    /// configuration); the last one is the admission epoch.
    views: Vec<NetView>,
    /// The compiled routes, in compile order: a [`RouteHandle`] is an
    /// index here.
    routes: Vec<CachedRoute>,
    /// `(epoch, source, destination)` → index into `routes`.
    index: FxHashMap<(u32, Coord, Coord), u32>,
    /// Router scratch of every compile, reset per pair.
    scratch: HopState,
    misses: u64,
    hits: u64,
}

impl PathTable {
    /// Creates an empty single-epoch table for `kind` over `view`.
    pub fn new(view: &NetView, kind: RoutingKind) -> Self {
        PathTable {
            kind,
            router: kind.router(),
            views: vec![view.clone()],
            routes: Vec::new(),
            index: FxHashMap::default(),
            scratch: HopState::new(Coord::new(0, 0)),
            misses: 0,
            hits: 0,
        }
    }

    /// The routing function this table compiles.
    pub(crate) fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// The snapshot of the current admission epoch.
    pub(crate) fn view(&self) -> &NetView {
        self.views.last().expect("epoch 0 always exists")
    }

    /// The current admission epoch: how many snapshots have been
    /// [`publish`](PathTable::publish)ed since the last reset.
    pub(crate) fn current_epoch(&self) -> u32 {
        (self.views.len() - 1) as u32
    }

    /// Drops every published epoch and returns to the initial snapshot
    /// (run start). Cached routes of epoch 0 survive — they stay valid
    /// across runs over the same network — later-epoch routes are
    /// dropped from the arena together with their keys, since the next
    /// run publishes its own epochs: a table reused across churn runs
    /// stays the size of its epoch-0 routes. Every [`RouteHandle`]
    /// resolved before the call is invalid after it.
    pub(crate) fn reset_epochs(&mut self) {
        if self.views.len() == 1 {
            // Nothing was published, so no later-epoch route exists.
            return;
        }
        self.views.truncate(1);
        let mut old = std::mem::take(&mut self.routes);
        let kept = &mut self.routes;
        self.index.retain(|&(epoch, _, _), at| {
            if epoch != 0 {
                return false;
            }
            kept.push(old[*at as usize].take());
            *at = (kept.len() - 1) as u32;
            true
        });
    }

    /// Publishes `view` as the next epoch and makes it the admission
    /// epoch. Every earlier epoch and cached route is kept: in-flight
    /// packets go on replaying the routes of the epoch they were
    /// admitted (or last replanned) under.
    pub(crate) fn publish(&mut self, view: &NetView) {
        self.views.push(view.clone());
    }

    /// The direction sequence from `s` to `d` under the current
    /// admission epoch, or `None` when the router does not deliver this
    /// pair (XY hitting a fault, disconnected endpoints, hop-budget
    /// exhaustion).
    pub fn path(&mut self, s: Coord, d: Coord) -> Option<&HopSeq> {
        self.path_at(self.current_epoch(), s, d)
    }

    /// The direction sequence from `s` to `d` under a specific epoch,
    /// read in place: one table probe when the pair is cached.
    pub(crate) fn path_at(&mut self, epoch: u32, s: Coord, d: Coord) -> Option<&HopSeq> {
        let handle = self.resolve(epoch, s, d);
        self.route(handle)
    }

    /// The one map probe of the table: the arena slot of the route from
    /// `s` to `d` under `epoch`, compiled first when the pair is new.
    fn resolve(&mut self, epoch: u32, s: Coord, d: Coord) -> RouteHandle {
        match self.index.entry((epoch, s, d)) {
            Entry::Occupied(cached) => {
                self.hits += 1;
                RouteHandle(*cached.get())
            }
            Entry::Vacant(slot) => {
                self.misses += 1;
                let view = &self.views[epoch as usize];
                let at = self.routes.len() as u32;
                assert!(at != RouteHandle::UNRESOLVED.0, "route arena outgrew its handles");
                self.routes.push(Self::compile(&*self.router, view, s, d, &mut self.scratch));
                RouteHandle(*slot.insert(at))
            }
        }
    }

    /// The route a resolved handle stands for (`None`: undeliverable).
    #[inline]
    fn route(&self, handle: RouteHandle) -> Option<&HopSeq> {
        self.routes[handle.0 as usize].as_ref()
    }

    /// Runs the routing function for one pair: the route it delivers,
    /// or `None`.
    fn compile(
        router: &dyn Router,
        view: &NetView,
        s: Coord,
        d: Coord,
        scratch: &mut HopState,
    ) -> CachedRoute {
        // Healthy endpoints in different healthy components: no router
        // delivers, and RB1/RB2/RB3 would burn their whole hop budget
        // finding that out.
        let cut =
            matches!((view.component_of(s), view.component_of(d)), (Some(a), Some(b)) if a != b);
        if cut {
            return None;
        }
        let res = router.route_with(view, s, d, scratch);
        res.delivered.then_some(res.dirs)
    }

    /// The next hop of `pk`'s compiled route — what a hop router asks
    /// for every parked adaptive-class head every cycle: one arena read
    /// plus a shift. An unresolved `route` is resolved first, by the
    /// one probe a packet costs this table.
    #[inline]
    fn next_dir(&mut self, pk: &PacketState, route: &mut RouteHandle) -> Dir {
        if *route == RouteHandle::UNRESOLVED {
            *route = self.resolve(pk.epoch, pk.src, pk.dst);
        }
        let path = self.route(*route).expect("admitted packets have compiled routes");
        path.get(pk.head_hop as usize)
    }

    /// Replans a packet whose compiled route runs into a fresh fault:
    /// re-keys `pk` and `route` onto the current epoch's route from
    /// `here` and returns its first hop, or `None` (nothing touched)
    /// when no such route exists. Idempotent — the re-keyed route
    /// avoids current faults, so asking again takes it as it stands.
    fn replan(
        &mut self,
        here: Coord,
        pk: &mut PacketState,
        route: &mut RouteHandle,
    ) -> Option<Dir> {
        let cur = self.current_epoch();
        let fresh = self.resolve(cur, here, pk.dst);
        let first = self.route(fresh)?.get(0);
        pk.src = here;
        pk.head_hop = 0;
        pk.epoch = cur;
        *route = fresh;
        Some(first)
    }

    /// What is settled before a hop router picks a class: a packet at
    /// its destination ejects, and `online` one that sits on, or heads
    /// to, a node that failed after its admission is killed — drained
    /// out of the fabric.
    #[inline]
    fn settled(&self, online: bool, here: Coord, pk: &mut PacketState) -> Option<HopDecision> {
        let faults = self.view().faults();
        if online && !(faults.is_healthy(here) && faults.is_healthy(pk.dst)) {
            pk.killed = true;
            return Some(HopDecision::Eject);
        }
        (here == pk.dst).then_some(HopDecision::Eject)
    }

    /// The adaptive-class direction of `pk` at `here`: the next hop of
    /// its compiled route, [`replan`](PathTable::replan)ned first when
    /// `online` and that hop is a fresh fault. `None` (nothing touched):
    /// the packet is stranded — no current-epoch route leads on either.
    #[inline]
    fn adaptive_dir(
        &mut self,
        online: bool,
        here: Coord,
        pk: &mut PacketState,
        route: &mut RouteHandle,
    ) -> Option<Dir> {
        let dir = self.next_dir(pk, route);
        if online && !self.view().faults().is_healthy(here.step(dir)) {
            return self.replan(here, pk, route);
        }
        Some(dir)
    }

    /// Routes held, deliverable or not, over every epoch.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        assert_eq!(
            self.routes.len(),
            self.index.len(),
            "a slot without a key, or a key without one"
        );
        self.routes.len()
    }

    /// `(map probes that found their route, routes compiled)` — a read
    /// through a [`RouteHandle`] is not a probe, and the second count is
    /// the number of full routing-algorithm executions performed.
    #[cfg(test)]
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The farthest reached node of a [`DistanceField`]'s distances by node
/// id (maximum distance, lowest id on ties — determinism) and its
/// distance.
fn farthest(mesh: &meshpath_mesh::Mesh, dist: &[u32]) -> (Coord, u32) {
    let mut best: Option<(u32, usize)> = None;
    for (i, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE && best.is_none_or(|(bd, _)| d > bd) {
            best = Some((d, i));
        }
    }
    let (d, i) = best.expect("BFS reaches at least its start");
    (mesh.coord(meshpath_mesh::NodeId(i as u32)), d)
}

/// The reached node minimizing the maximum distance over several BFS
/// witness fields (lowest id on ties).
fn argmin_witness(mesh: &meshpath_mesh::Mesh, witnesses: &[&[u32]]) -> Coord {
    let mut best: Option<(u32, usize)> = None;
    for i in 0..mesh.len() {
        let Some(score) = witnesses
            .iter()
            .map(|w| w[i])
            .try_fold(0u32, |m, d| (d != UNREACHABLE).then_some(m.max(d)))
        else {
            continue;
        };
        if best.is_none_or(|(bs, _)| score < bs) {
            best = Some((score, i));
        }
    }
    let (_, i) = best.expect("non-empty component");
    mesh.coord(meshpath_mesh::NodeId(i as u32))
}

/// A (near-)center of `start`'s connected component: the classic
/// double sweep (farthest node `u` from `start`, farthest node `v`
/// from `u`) plus one witness-refinement round — grids have many
/// diameter pairs, so minimizing over the `u`/`v` fields alone can
/// land on a boundary node; adding the first candidate's own farthest
/// point as a third witness pins the interior. Every candidate's true
/// eccentricity is then measured with a real BFS and the best (lowest
/// eccentricity, lowest id on ties) wins. O(component) — seven BFS
/// passes — and a pure function of the fault configuration.
fn component_center(faults: &FaultSet, start: Coord) -> Coord {
    let mesh = faults.mesh();
    let field = |s: Coord| DistanceField::healthy(faults, s);
    let d0 = field(start);
    let (u, ecc0) = farthest(mesh, d0.as_slice());
    let du = field(u);
    let (v, _) = farthest(mesh, du.as_slice());
    let dv = field(v);
    let c1 = argmin_witness(mesh, &[du.as_slice(), dv.as_slice()]);
    let dc1 = field(c1);
    let (w, ecc1) = farthest(mesh, dc1.as_slice());
    let dw = field(w);
    let c2 = argmin_witness(mesh, &[du.as_slice(), dv.as_slice(), dw.as_slice()]);
    let dc2 = field(c2);
    let (_, ecc2) = farthest(mesh, dc2.as_slice());
    let id = |c: Coord| mesh.id(c).index();
    [(ecc0, id(start), start), (ecc1, id(c1), c1), (ecc2, id(c2), c2)]
        .into_iter()
        .min_by_key(|&(ecc, i, _)| (ecc, i))
        .expect("three candidates")
        .2
}

/// A BFS spanning forest over the healthy nodes: the substrate of the
/// tree escape class.
///
/// Each connected component is rooted at (an approximation of) its
/// **BFS center** — the healthy node of minimum eccentricity within
/// the component, found by double sweep + witness refinement — rather
/// than at its lowest id: up*/down*
/// routes detour through the root's neighborhood, so a central root
/// halves the worst-case tree depth (radius instead of diameter — 16
/// instead of 30 on a fault-free 16x16) and spreads escape hot-spots
/// away from the mesh corner. BFS expands neighbors in [`Dir::ALL`]
/// order and all tie-breaks are lowest-id, so the forest remains a
/// pure function of the fault configuration (determinism). An
/// up*/down* route climbs from the source to the lowest common
/// ancestor and descends to the destination; since every route takes
/// all its "up" (child-to-parent) hops before any "down" hop, and
/// depth is strictly monotone within each phase, the tree channels
/// admit a total order that every route respects — no cyclic channel
/// dependency, for any fault pattern.
///
/// Every node also carries the **pre-order interval** of its subtree
/// (`Span`): `lo` is the node's own label and `[lo, hi)` holds
/// exactly the labels of its descendants, so "is `dst` below `here`?"
/// is two comparisons and [`next_hop`](EscapeForest::next_hop) climbs
/// nothing. A label is `tree << 32 | pre-order index`, `tree` being the
/// lowest node id of the component, which keeps the intervals of
/// different trees disjoint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EscapeForest {
    /// Parent direction per node id; `None` for faulty nodes and roots.
    parent: Vec<Option<Dir>>,
    /// Tree depth per node id (0 for faulty nodes and roots).
    depth: Vec<u32>,
    /// Pre-order interval per node id; [`NO_SPAN`] for faulty nodes.
    span: Vec<Span>,
}

/// The pre-order labels of one node's subtree: its own is `lo`, its
/// descendants' fill `(lo, hi)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Span {
    lo: u64,
    hi: u64,
}

/// What a faulty node holds: an empty interval at a label no tree
/// assigns, so it contains nothing and lies in no subtree.
const NO_SPAN: Span = Span { lo: u64::MAX, hi: u64::MAX };

impl EscapeForest {
    /// Builds the forest for a fault configuration.
    pub fn new(faults: &FaultSet) -> Self {
        let mesh = faults.mesh();
        let n = mesh.len();
        let mut forest =
            EscapeForest { parent: vec![None; n], depth: vec![0; n], span: vec![NO_SPAN; n] };
        for first in 0..n {
            // An unlabelled healthy node is the lowest id of a fresh
            // component.
            if forest.span[first] == NO_SPAN && faults.is_healthy(mesh.coord(NodeId(first as u32)))
            {
                forest.build_component(faults, first);
            }
        }
        forest
    }

    /// Builds the tree of the component whose lowest node id is `first`
    /// — the id [`EscapeForest::new`]'s discovery scan finds it by — and
    /// none of whose nodes holds a label yet. The component is rooted
    /// at its BFS center; one BFS sets parents and depths, and the
    /// interval labels fall out of its visiting order and the subtree
    /// sizes — two passes over that list, no second walk of the mesh.
    fn build_component(&mut self, faults: &FaultSet, first: usize) {
        let mesh = faults.mesh();
        let root = mesh.id(component_center(faults, mesh.coord(NodeId(first as u32)))).index();
        // A discovered node holds a placeholder whose `hi` counts its
        // subtree: itself so far.
        let discovered = Span { lo: 0, hi: 1 };
        // `(node, parent)` ids in visiting order (the root is its own).
        let mut order = vec![(root as u32, root as u32)];
        self.parent[root] = None;
        self.depth[root] = 0;
        self.span[root] = discovered;
        let mut next = 0;
        while let Some(&(ci, _)) = order.get(next) {
            next += 1;
            let c = mesh.coord(NodeId(ci));
            for dir in Dir::ALL {
                let nb = c.step(dir);
                if !faults.is_healthy(nb) {
                    continue;
                }
                let ni = mesh.id(nb).index();
                if self.span[ni] != NO_SPAN {
                    continue;
                }
                self.span[ni] = discovered;
                self.parent[ni] = Some(dir.opposite());
                self.depth[ni] = self.depth[ci as usize] + 1;
                order.push((ni as u32, ci));
            }
        }
        debug_assert!(self.span[first] != NO_SPAN, "center BFS must cover the discovering node");
        // Subtree sizes: in reverse BFS order every node is complete
        // before its parent.
        for &(i, p) in order[1..].iter().rev() {
            self.span[p as usize].hi += self.span[i as usize].hi;
        }
        // Labels, in BFS order: a labelled node's `hi` is the next free
        // label of its interval; each child takes its subtree's worth
        // from there, so `hi` ends at `lo + subtree size`.
        let base = (first as u64) << 32;
        self.span[root] = Span { lo: base, hi: base + 1 };
        for &(i, p) in &order[1..] {
            let size = self.span[i as usize].hi;
            let lo = self.span[p as usize].hi;
            self.span[p as usize].hi = lo + size;
            self.span[i as usize] = Span { lo, hi: lo + 1 };
        }
    }

    /// Tree depth of a node (0 for roots and faulty nodes).
    pub fn depth(&self, mesh: &meshpath_mesh::Mesh, c: Coord) -> u32 {
        self.depth[mesh.id(c).index()]
    }

    /// The next hop of the up*/down* route from `here` to `dst`, or
    /// `None` when the two are in different components (an unroutable
    /// pair — never admitted into the fabric): down to the child whose
    /// interval holds `dst`'s label when `dst` is below `here`, else up
    /// to the parent — which a root does not have.
    ///
    /// # Panics
    /// Panics when `here == dst`.
    pub fn next_hop(&self, mesh: &meshpath_mesh::Mesh, here: Coord, dst: Coord) -> Option<Dir> {
        assert!(here != dst, "tree next hop queried at the destination");
        let here_id = mesh.id(here).index();
        let at = self.span[here_id];
        let label = self.span[mesh.id(dst).index()].lo;
        if at.lo < label && label < at.hi {
            // Below `here`. A neighbor labelled inside `here`'s interval
            // is a child (a descendant one hop away sits one BFS level
            // down), and one child's interval holds the label.
            return Dir::ALL.into_iter().find(|&dir| {
                mesh.try_id(here.step(dir)).is_some_and(|nb| {
                    let child = self.span[nb.index()];
                    at.lo < child.lo && child.lo <= label && label < child.hi
                })
            });
        }
        self.parent[here_id]
    }

    /// The ancestor climb [`next_hop`](EscapeForest::next_hop) replaced
    /// — O(tree depth), reads no label: its reference.
    #[cfg(test)]
    fn next_hop_by_climb(
        &self,
        mesh: &meshpath_mesh::Mesh,
        here: Coord,
        dst: Coord,
    ) -> Option<Dir> {
        assert!(here != dst, "tree next hop queried at the destination");
        // Climb dst's ancestor chain to here's depth, remembering the
        // hop below; if the chain passes through `here`, descend.
        let hi = mesh.id(here).index();
        let mut c = dst;
        let mut below: Option<Coord> = None;
        while self.depth[mesh.id(c).index()] > self.depth[hi] {
            below = Some(c);
            c = c.step(self.parent[mesh.id(c).index()]?);
        }
        if c == here {
            let child = below.expect("depth(dst) > depth(here) when here is a proper ancestor");
            return here.dir_to(child);
        }
        // Not an ancestor of dst: go up. A root with no parent means
        // dst sits in a different component.
        self.parent[hi]
    }
}

/// Whether the dimension-order XY walk between two nodes crosses only
/// healthy nodes, answered from prefix fault counts of one fault set:
/// [`xy_path_clear`] as four array reads instead of a walk.
struct XyClearance {
    /// `row[y * row_stride + x]`: faults of row `y` at columns `< x`
    /// (`row_stride = width + 1`).
    row: Vec<u32>,
    row_stride: usize,
    /// `col[x * col_stride + y]`: faults of column `x` at rows `< y`
    /// (`col_stride = height + 1`).
    col: Vec<u32>,
    col_stride: usize,
}

impl XyClearance {
    fn new(faults: &FaultSet) -> Self {
        let mesh = faults.mesh();
        let (w, h) = (mesh.width() as usize, mesh.height() as usize);
        let (row_stride, col_stride) = (w + 1, h + 1);
        let mut row = vec![0u32; row_stride * h];
        let mut col = vec![0u32; col_stride * w];
        for c in mesh.iter() {
            let (x, y) = (c.x as usize, c.y as usize);
            let faulty = u32::from(faults.is_faulty(c));
            row[y * row_stride + x + 1] = row[y * row_stride + x] + faulty;
            col[x * col_stride + y + 1] = col[x * col_stride + y] + faulty;
        }
        XyClearance { row, row_stride, col, col_stride }
    }

    /// [`xy_path_clear`] for in-mesh `here` and `dst`: no fault on row
    /// `here.y` from past `here.x` through `dst.x`, nor on column
    /// `dst.x` from past `here.y` through `dst.y`.
    #[inline]
    fn clear(&self, here: Coord, dst: Coord) -> bool {
        // The half-open index range covering `(from, to]` in walk order.
        let run = |from: i32, to: i32| {
            if to >= from {
                (from as usize + 1, to as usize + 1)
            } else {
                (to as usize, from as usize)
            }
        };
        let (x0, x1) = run(here.x, dst.x);
        let (y0, y1) = run(here.y, dst.y);
        let r = here.y as usize * self.row_stride;
        let c = dst.x as usize * self.col_stride;
        self.row[r + x0] == self.row[r + x1] && self.col[c + y0] == self.col[c + y1]
    }
}

/// The Duato-style adaptive wrapper: compiled routes on the adaptive
/// class; once a head has been blocked `patience` consecutive cycles it
/// is offered the escape classes the fabric reserves a channel for —
/// dimension-order XY when the XY walk to the destination is fault-free
/// under the current fault set, and the up*/down* tree route as the
/// always-available last resort. With no reserved channel it offers the
/// compiled hop and nothing else, at any stall.
///
/// A packet that takes an escape channel is committed: it stays on that
/// escape class until delivery, so escape packets only ever wait on
/// channels of their own (acyclic) class and are guaranteed to drain.
///
/// Nothing here is memoized: every class's decision is a few array
/// reads (see the module docs), and [`publish`](HopRouter::publish)
/// rebuilds what they read — the forest and the prefix counts — for
/// the new fault set.
pub(crate) struct EscapeHop<'p> {
    paths: &'p mut PathTable,
    patience: u32,
    /// XY clearance under the current fault set — the only one ever
    /// asked about: offline a packet's admission epoch *is* the current
    /// one, online clearance must hold under the current faults (the
    /// admission epoch may predate them). `None` when the fabric has no
    /// XY escape class (`escape_vcs < 2`): with only the tree channel
    /// reserved, XY candidates could never allocate, so offering them
    /// would be pure waste.
    xy: Option<XyClearance>,
    /// The spanning forest over the current fault set's healthy nodes,
    /// rebuilt per published event. `None` when the fabric reserves no
    /// escape channel at all (`escape_vcs == 0`).
    forest: Option<EscapeForest>,
    /// Set by the first [`publish`](HopRouter::publish): faults may now
    /// postdate a packet's admission, so decide kills or replans
    /// packets stranded by them.
    online: bool,
}

impl<'p> EscapeHop<'p> {
    /// A router over `paths`' compiled routes for a fabric reserving
    /// `escape_vcs` channels per port: the tree class exists from one
    /// reserved channel, the XY class from two, and only what a class
    /// reads is built.
    pub(crate) fn new(paths: &'p mut PathTable, patience: u32, escape_vcs: usize) -> Self {
        let faults = paths.view().faults();
        let forest = (escape_vcs >= 1).then(|| EscapeForest::new(faults));
        let xy = (escape_vcs >= 2).then(|| XyClearance::new(faults));
        EscapeHop { paths, patience, xy, forest, online: false }
    }

    /// The spanning forest backing the tree escape class, if the fabric
    /// has one.
    #[cfg(test)]
    pub(crate) fn forest(&self) -> Option<&EscapeForest> {
        self.forest.as_ref()
    }

    /// The tree-class candidate, or `None` when there is no tree class
    /// or its forest cannot serve the pair — the latter possible only
    /// under churn: a fresh fault cut `here` off `dst`'s component (or
    /// took `here` itself).
    fn tree_choice(&self, here: Coord, dst: Coord) -> Option<HopChoice> {
        let dir = self.forest.as_ref()?.next_hop(self.paths.view().mesh(), here, dst)?;
        Some(HopChoice { dir, class: VcClass::EscapeTree })
    }
}

impl HopRouter for EscapeHop<'_> {
    fn admit(&mut self, s: Coord, d: Coord) -> Option<u32> {
        self.paths.path(s, d).map(|p| p.len() as u32)
    }

    fn decide(
        &mut self,
        here: Coord,
        pk: &mut PacketState,
        route: &mut RouteHandle,
    ) -> HopDecision {
        if let Some(done) = self.paths.settled(self.online, here, pk) {
            return done;
        }
        match pk.mode {
            // Committed to an escape network: ride it to the end.
            VcClass::EscapeXy => {
                let dir = xy_next(here, pk.dst);
                if self.online && !self.paths.view().faults().is_healthy(here.step(dir)) {
                    // A fresh fault landed on the committed XY run; the
                    // class cannot deviate, so drain the packet.
                    pk.killed = true;
                    return HopDecision::Eject;
                }
                HopDecision::route1(HopChoice { dir, class: VcClass::EscapeXy })
            }
            VcClass::EscapeTree => match self.tree_choice(here, pk.dst) {
                Some(c) => HopDecision::route1(c),
                None => {
                    // Only reachable online: a fresh fault cut the pair
                    // off the re-provisioned forest.
                    assert!(self.online, "tree commitment implies a forest route");
                    pk.killed = true;
                    HopDecision::Eject
                }
            },
            VcClass::Adaptive => {
                let Some(dir) = self.paths.adaptive_dir(self.online, here, pk, route) else {
                    // Stranded: fall back to the tree, or kill.
                    return match self.tree_choice(here, pk.dst) {
                        Some(tree) => HopDecision::route1(tree),
                        None => {
                            pk.killed = true;
                            HopDecision::Eject
                        }
                    };
                };
                let mut c = HopCandidates::new();
                c.push(HopChoice { dir, class: VcClass::Adaptive });
                if pk.stalled >= self.patience {
                    if self.xy.as_ref().is_some_and(|xy| xy.clear(here, pk.dst)) {
                        c.push(HopChoice { dir: xy_next(here, pk.dst), class: VcClass::EscapeXy });
                    }
                    if let Some(tree) = self.tree_choice(here, pk.dst) {
                        c.push(tree);
                    }
                }
                HopDecision::Route(c)
            }
        }
    }

    fn publish(&mut self, view: &NetView) {
        self.online = true;
        self.paths.publish(view);
        if let Some(forest) = &mut self.forest {
            *forest = EscapeForest::new(view.faults());
        }
        if let Some(xy) = &mut self.xy {
            *xy = XyClearance::new(view.faults());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChurnOp;
    use meshpath_mesh::{FaultSet, Mesh};
    use meshpath_route::{xy_path_clear, Rb2};

    #[test]
    fn candidate_lists_compare_by_their_pushed_prefix() {
        // Every list of up to three choices over an alphabet that
        // includes the filler value unused entries hold.
        let alphabet = [
            HopCandidates::FILLER,
            HopChoice { dir: Dir::MinusY, class: VcClass::EscapeXy },
            HopChoice { dir: Dir::PlusX, class: VcClass::EscapeTree },
        ];
        let mut lists: Vec<Vec<HopChoice>> = vec![Vec::new()];
        for len in 0..3 {
            for base in lists.clone().into_iter().filter(|l| l.len() == len) {
                lists.extend(alphabet.iter().map(|&c| [base.as_slice(), &[c]].concat()));
            }
        }
        assert_eq!(lists.len(), 1 + 3 + 9 + 27);
        for a in &lists {
            let ca: HopCandidates = a.iter().copied().collect();
            assert_eq!(ca.iter().collect::<Vec<_>>(), *a);
            for b in &lists {
                let cb: HopCandidates = b.iter().copied().collect();
                assert_eq!(ca == cb, a == b, "{a:?} vs {b:?}");
            }
        }
        assert_eq!(HopCandidates::new(), HopCandidates::default());
        assert_eq!(HopCandidates::new().iter().count(), 0);
    }

    #[test]
    fn a_resolved_handle_reads_the_cached_route_without_probing() {
        let faults = FaultSet::from_coords(Mesh::square(6), [Coord::new(2, 2)]);
        let view = NetView::build(faults);
        let mut t = PathTable::new(&view, RoutingKind::Rb2);
        let (s, d) = (Coord::new(0, 2), Coord::new(5, 2));
        let mut pk = PacketState::new(s, d, 0, 1);
        let mut route = RouteHandle::UNRESOLVED;
        let first = t.next_dir(&pk, &mut route);
        assert_ne!(route, RouteHandle::UNRESOLVED);
        assert_eq!(t.cache_stats(), (0, 1), "a cold read compiles");
        let path = t.path_at(0, s, d).expect("cached").clone();
        assert_eq!(t.cache_stats(), (1, 1), "a keyed read is a probe");
        assert_eq!(first, path.get(0));
        for (hop, dir) in path.iter().enumerate() {
            pk.head_hop = hop as u32;
            assert_eq!(t.next_dir(&pk, &mut route), dir);
        }
        assert_eq!(t.cache_stats(), (1, 1), "a read through the handle is not");
        // A second packet of the pair resolves to the same slot, by one
        // probe.
        let mut other = RouteHandle::UNRESOLVED;
        pk.head_hop = 0;
        assert_eq!(t.next_dir(&pk, &mut other), first);
        assert_eq!(other, route);
        assert_eq!(t.cache_stats(), (2, 1));
    }

    #[test]
    fn path_table_memoizes() {
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let mut t = PathTable::new(&net, RoutingKind::Rb2);
        let a = t.path(Coord::new(0, 0), Coord::new(5, 5)).expect("delivered").clone();
        let b = t.path(Coord::new(0, 0), Coord::new(5, 5)).expect("delivered");
        assert_eq!(&a, b);
        assert_eq!(a.len(), 10);
        assert_eq!(t.cache_stats(), (1, 1));
    }

    #[test]
    fn a_cut_pair_compiles_to_none_without_a_walk() {
        use meshpath_route::{Decision, HopCtx};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// RB2 that counts its per-hop decisions.
        struct Counting(Box<dyn Router + Send + Sync>, Arc<AtomicU64>);
        impl Router for Counting {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.decide(view, ctx)
            }
        }

        // (0,0) on 64x64 is healthy but walled in by its two neighbors:
        // compiling a route to it used to walk RB2's 8*4096-hop budget.
        let mesh = Mesh::square(64);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(1, 0), Coord::new(0, 1)]));
        let decisions = Arc::new(AtomicU64::new(0));
        let mut t = PathTable::new(&net, RoutingKind::Rb2);
        t.router = Box::new(Counting(RoutingKind::Rb2.router(), Arc::clone(&decisions)));
        let (pocket, far) = (Coord::new(0, 0), Coord::new(40, 40));
        assert_eq!(t.path(far, pocket), None);
        assert_eq!(t.path(pocket, far), None);
        assert_eq!(t.cache_stats(), (0, 2), "both pairs were compiled (as undeliverable)");
        assert_eq!(decisions.load(Ordering::Relaxed), 0, "a cut pair must not run the router");
        assert_eq!(t.path(far, pocket), None);
        assert_eq!(t.cache_stats(), (1, 2), "the verdict is cached like any route");
        // Connected pairs still compile by routing.
        let hops = t.path(Coord::new(2, 0), far).expect("connected").len();
        assert_eq!(hops as u32, Coord::new(2, 0).manhattan(far));
        assert!(decisions.load(Ordering::Relaxed) >= hops as u64);
    }

    #[test]
    fn all_kinds_instantiate_and_route() {
        let mesh = Mesh::square(10);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(4, 4)]));
        for kind in RoutingKind::ALL {
            let mut t = PathTable::new(&net, kind);
            let p = t.path(Coord::new(0, 0), Coord::new(9, 9));
            let p = p.unwrap_or_else(|| panic!("{} must route around one fault", kind.name()));
            // Replay the dirs: must land on the destination through
            // healthy nodes.
            let mut cur = Coord::new(0, 0);
            for d in p.iter() {
                cur = cur.step(d);
                assert!(net.faults().is_healthy(cur));
            }
            assert_eq!(cur, Coord::new(9, 9), "{}", kind.name());
        }
    }

    #[test]
    fn path_table_keys_routes_by_epoch() {
        // Epoch 0: clear row. Epoch 1: a fault on the row forces a
        // detour. The same (s, d) pair must resolve differently per
        // epoch, with old-epoch routes surviving the publication.
        let mesh = Mesh::square(8);
        let mut state = meshpath_route::NetState::new(FaultSet::none(mesh));
        let v0 = state.view();
        let v1 = state.add_fault(Coord::new(3, 1)).expect("valid");
        let mut t = PathTable::new(&v0, RoutingKind::Rb2);
        let (s, d) = (Coord::new(1, 1), Coord::new(6, 1));
        let p0 = t.path(s, d).expect("clear row");
        assert_eq!(p0.len(), 5, "epoch 0 routes straight");
        t.publish(&v1);
        assert_eq!(t.current_epoch(), 1, "a publication is adopted on arrival");
        let p1 = t.path(s, d).expect("detour exists");
        assert_eq!(p1.len(), 7, "epoch 1 routes around the fault");
        // Old-epoch lookups still replay the old route.
        assert_eq!(t.path_at(0, s, d).expect("cached").len(), 5);
        // A reset returns to epoch 0 and keeps only its routes.
        t.reset_epochs();
        assert_eq!(t.current_epoch(), 0);
        let (hits, misses) = t.cache_stats();
        assert_eq!(t.path(s, d).expect("cached").len(), 5);
        assert_eq!(t.cache_stats(), (hits + 1, misses), "epoch-0 routes survive the reset");
        t.publish(&v1);
        assert_eq!(t.path(s, d).expect("recompiled").len(), 7);
        assert_eq!(t.cache_stats(), (hits + 1, misses + 1), "later-epoch routes do not");
    }

    #[test]
    fn without_a_reserved_channel_the_compiled_route_is_followed_to_the_end() {
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let mut t = PathTable::new(&net, RoutingKind::Rb2);
        let (s, d) = (Coord::new(0, 0), Coord::new(3, 2));
        let mut hop = EscapeHop::new(&mut t, 4, 0);
        let hops = hop.admit(s, d).expect("routable");
        assert_eq!(hops, 5);
        let mut pk = PacketState::new(s, d, 0, 1);
        let mut route = RouteHandle::UNRESOLVED;
        let mut here = s;
        for _ in 0..hops {
            match hop.decide(here, &mut pk, &mut route) {
                HopDecision::Route(c) => {
                    assert_eq!(c.iter().count(), 1);
                    let first = c.iter().next().unwrap();
                    assert_eq!(first.class, VcClass::Adaptive);
                    here = here.step(first.dir);
                    pk.head_hop += 1;
                }
                HopDecision::Eject => panic!("ejected before the destination"),
            }
        }
        assert_eq!(here, d);
        assert_eq!(hop.decide(here, &mut pk, &mut route), HopDecision::Eject);
    }

    #[test]
    fn without_escape_builds_no_forest_and_offers_one_adaptive_candidate_at_any_stall() {
        let cfg = crate::SimConfig::default().without_escape();
        let mesh = Mesh::square(8);
        let mut state = meshpath_route::NetState::new(FaultSet::none(mesh));
        let v0 = state.view();
        let mut t = PathTable::new(&v0, RoutingKind::Rb2);
        let mut hop = EscapeHop::new(&mut t, cfg.patience, cfg.escape_vcs);
        let (s, d) = (Coord::new(1, 1), Coord::new(6, 1));
        hop.admit(s, d).expect("clear row");
        let offered = |hop: &mut EscapeHop<'_>, here: Coord, pk: &PacketState| {
            assert!(
                hop.forest().is_none() && hop.xy.is_none(),
                "built for a class with no channel"
            );
            for stalled in [0, cfg.patience, 10_000] {
                let mut pk = PacketState { stalled, ..*pk };
                let decision = hop.decide(here, &mut pk, &mut { RouteHandle::UNRESOLVED });
                assert_eq!(classes(decision), vec![VcClass::Adaptive], "stalled {stalled}");
            }
        };
        let pk = PacketState::new(s, d, 0, 1);
        offered(&mut hop, s, &pk);
        // Online a publication builds nothing either, and a head whose
        // next hop failed replans onto one adaptive candidate.
        hop.publish(&state.add_fault(Coord::new(3, 1)).expect("valid"));
        let parked = PacketState { head_hop: 1, ..pk };
        offered(&mut hop, Coord::new(2, 1), &parked);
        // One stranded for good — its destination walled in, so no
        // current route, and no tree to fall back on — is killed.
        for wall in [Coord::new(5, 1), Coord::new(7, 1), Coord::new(6, 0), Coord::new(6, 2)] {
            hop.publish(&state.add_fault(wall).expect("valid"));
        }
        let mut cut = parked;
        assert_eq!(
            hop.decide(Coord::new(2, 1), &mut cut, &mut { RouteHandle::UNRESOLVED }),
            HopDecision::Eject
        );
        assert!(cut.killed, "stranded packets drain instead of wedging");
    }

    /// The candidate classes of a `Route` decision, in order.
    fn classes(d: HopDecision) -> Vec<VcClass> {
        match d {
            HopDecision::Route(c) => c.iter().map(|x| x.class).collect(),
            HopDecision::Eject => panic!("expected a route decision"),
        }
    }

    #[test]
    fn escape_hop_offers_classes_by_patience_and_clearance() {
        let mesh = Mesh::square(8);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(5, 3)]));
        let mut t = PathTable::new(&net, RoutingKind::Rb2);
        let mut hop = EscapeHop::new(&mut t, 4, 2);
        // XY from (2,3) to (7,3) crosses the fault at (5,3).
        let (s, d) = (Coord::new(2, 3), Coord::new(7, 3));
        hop.admit(s, d).expect("RB2 routes around the fault");
        let mut fresh = PacketState::new(s, d, 0, 1);
        // Below patience: adaptive only.
        assert_eq!(
            classes(hop.decide(s, &mut fresh, &mut { RouteHandle::UNRESOLVED })),
            vec![VcClass::Adaptive]
        );
        // Past patience but XY blocked by (5,3): adaptive + tree, no XY.
        let mut stalled = fresh;
        stalled.stalled = 10;
        assert_eq!(
            classes(hop.decide(s, &mut stalled, &mut { RouteHandle::UNRESOLVED })),
            vec![VcClass::Adaptive, VcClass::EscapeTree],
            "blocked XY run must not be offered"
        );
        // Past patience with a clear XY run: all three, XY before tree.
        let (s2, d2) = (Coord::new(2, 0), Coord::new(2, 6));
        hop.admit(s2, d2).expect("clear pair");
        let mut stalled2 = PacketState::new(s2, d2, 0, 1);
        stalled2.stalled = 10;
        match hop.decide(s2, &mut stalled2, &mut { RouteHandle::UNRESOLVED }) {
            HopDecision::Route(c) => {
                let v: Vec<_> = c.iter().collect();
                assert_eq!(
                    v.iter().map(|x| x.class).collect::<Vec<_>>(),
                    vec![VcClass::Adaptive, VcClass::EscapeXy, VcClass::EscapeTree]
                );
                assert_eq!(v[1].dir, Dir::PlusY, "XY escape corrects Y on a clear column");
            }
            HopDecision::Eject => panic!("not at destination"),
        }
        // Once committed to XY escape: that class only, strict XY.
        let mut escaped = stalled2;
        escaped.mode = VcClass::EscapeXy;
        assert_eq!(
            classes(hop.decide(s2, &mut escaped, &mut { RouteHandle::UNRESOLVED })),
            vec![VcClass::EscapeXy]
        );
        // Once committed to the tree: that class only.
        let mut treed = stalled2;
        treed.mode = VcClass::EscapeTree;
        assert_eq!(
            classes(hop.decide(s2, &mut treed, &mut { RouteHandle::UNRESOLVED })),
            vec![VcClass::EscapeTree]
        );
    }

    #[test]
    fn escape_hop_without_xy_class_never_offers_xy() {
        // escape_vcs == 1 fabric: only the tree channel is reserved, so
        // the router must not offer (or evaluate clearance for) XY.
        let net = NetView::build(FaultSet::none(Mesh::square(8)));
        let mut t = PathTable::new(&net, RoutingKind::Rb2);
        let mut hop = EscapeHop::new(&mut t, 4, 1);
        let (s, d) = (Coord::new(1, 1), Coord::new(6, 6));
        hop.admit(s, d).expect("clear pair");
        let mut stalled = PacketState::new(s, d, 0, 1);
        stalled.stalled = 10;
        assert_eq!(
            classes(hop.decide(s, &mut stalled, &mut { RouteHandle::UNRESOLVED })),
            vec![VcClass::Adaptive, VcClass::EscapeTree],
            "XY candidate requires a reserved XY channel"
        );
    }

    #[test]
    fn escape_forest_roots_at_component_centers() {
        // Fault-free 16x16: the old lowest-id rule rooted the tree at
        // the corner (0,0), giving depth = diameter = 30; a BFS-center
        // root drops the worst-case depth to the grid radius, 16.
        let mesh = Mesh::square(16);
        let faults = FaultSet::none(mesh);
        let forest = EscapeForest::new(&faults);
        let max_depth = mesh.iter().map(|c| forest.depth(&mesh, c)).max().unwrap();
        assert_eq!(max_depth, 16, "tree depth must drop from the diameter to the radius");
        // Hand-verified refinement from (0,0): u=(15,15) at ecc 30,
        // v=(0,0), c1=(15,0), w=(0,15), c2=(7,8) with eccentricity 16 —
        // the winning candidate.
        assert_eq!(component_center(&faults, Coord::new(0, 0)), Coord::new(7, 8));
        assert_eq!(forest.depth(&mesh, Coord::new(7, 8)), 0);

        // Two components split by a fault wall: each gets its own
        // center — depth stays within the larger half's radius (the
        // 16x8 half has radius 8 + 4 = 12, far below the 22-hop depth
        // a corner root would give it).
        let wall: Vec<Coord> = (0..16).map(|x| Coord::new(x, 7)).collect();
        let split = FaultSet::from_coords(mesh, wall);
        let split_forest = EscapeForest::new(&split);
        let split_depth = mesh
            .iter()
            .filter(|&c| split.is_healthy(c))
            .map(|c| split_forest.depth(&mesh, c))
            .max()
            .unwrap();
        assert!(split_depth <= 12, "per-component centers, got depth {split_depth}");
    }

    /// Walks the tree route of every ordered pair of healthy nodes: a
    /// connected pair arrives, all its "up" (depth-decreasing) hops
    /// before any "down" hop; a cut pair climbs to its root and is
    /// refused there — a tree's labels fall in no other tree's
    /// intervals.
    fn assert_routes_up_then_down(forest: &EscapeForest, faults: &FaultSet) {
        let mesh = faults.mesh();
        let (component, _) = meshpath_mesh::components(faults);
        let healthy: Vec<Coord> = mesh.iter().filter(|&c| faults.is_healthy(c)).collect();
        for &s in &healthy {
            for &d in healthy.iter().filter(|&&d| d != s) {
                let mut cur = s;
                let mut went_down = false;
                let mut hops = 0;
                while cur != d {
                    let Some(dir) = forest.next_hop(mesh, cur, d) else {
                        assert_ne!(component[s], component[d], "{s:?}->{d:?}: connected");
                        assert!(!went_down, "{s:?}->{d:?}: refused below an ancestor");
                        assert_eq!(
                            forest.depth(mesh, cur),
                            0,
                            "{s:?}->{d:?}: gave up below the root"
                        );
                        break;
                    };
                    let next = cur.step(dir);
                    assert!(faults.is_healthy(next), "{s:?}->{d:?} steps onto a fault");
                    let (dc, dn) = (forest.depth(mesh, cur), forest.depth(mesh, next));
                    assert_eq!(dc.abs_diff(dn), 1, "tree hops move between tree levels");
                    if dn > dc {
                        went_down = true;
                    } else {
                        assert!(!went_down, "{s:?}->{d:?}: up hop after a down hop");
                    }
                    cur = next;
                    hops += 1;
                    assert!(hops <= 2 * mesh.len(), "{s:?}->{d:?}: tree walk too long");
                }
            }
        }
    }

    #[test]
    fn escape_forest_routes_every_connected_pair_up_then_down() {
        let faults = FaultSet::from_coords(
            Mesh::square(8),
            [Coord::new(3, 3), Coord::new(4, 3), Coord::new(3, 4), Coord::new(6, 1)],
        );
        assert!(meshpath_mesh::is_connected(&faults));
        assert_routes_up_then_down(&EscapeForest::new(&faults), &faults);
    }

    #[test]
    fn unified_router_and_path_table_agree() {
        // The compiled route IS the offline engine's route: one
        // decision substrate serving both consumers.
        let mesh = Mesh::square(10);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(5, 5)]));
        let mut t = PathTable::new(&net, RoutingKind::Rb2);
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 8));
        let compiled = t.path(s, d).expect("delivered");
        use meshpath_route::Router as _;
        let offline = Rb2::default().route(&net, s, d);
        assert_eq!(compiled, &offline.dirs);
    }

    /// Holds `next_hop` to the ancestor climb it replaced, for every
    /// ordered pair of healthy nodes.
    fn assert_next_hop_matches_the_climb(forest: &EscapeForest, faults: &FaultSet) {
        let mesh = faults.mesh();
        let healthy: Vec<Coord> = mesh.iter().filter(|&c| faults.is_healthy(c)).collect();
        for &here in &healthy {
            for &dst in healthy.iter().filter(|&&dst| dst != here) {
                assert_eq!(
                    forest.next_hop(mesh, here, dst),
                    forest.next_hop_by_climb(mesh, here, dst),
                    "{here:?} -> {dst:?} with faults {:?}",
                    faults.iter().collect::<Vec<_>>()
                );
            }
        }
    }

    /// A churn script on the fault-free 8x8 covering the interesting
    /// shapes: interior failures, a cut-off corner, a repair that merges
    /// it back, a wall that splits the mesh and a repair that merges
    /// the halves.
    fn churn_script() -> Vec<ChurnOp> {
        let mut script = vec![
            ChurnOp::Fail(Coord::new(4, 5)),
            ChurnOp::Fail(Coord::new(0, 1)),
            ChurnOp::Fail(Coord::new(1, 0)), // corner (0,0) split off
            ChurnOp::Fail(Coord::new(6, 6)), // the rest relabelled beside it
            ChurnOp::Repair(Coord::new(6, 6)),
            ChurnOp::Repair(Coord::new(0, 1)), // merge it back
            ChurnOp::Repair(Coord::new(4, 5)),
        ];
        script.extend((0..8).map(|x| ChurnOp::Fail(Coord::new(x, 3)))); // split into two halves
        script.push(ChurnOp::Repair(Coord::new(5, 3))); // merge the halves
        script
    }

    #[test]
    fn forest_of_every_scripted_fault_set_routes_by_interval_as_by_climb() {
        let mesh = Mesh::square(8);
        let mut faults = FaultSet::none(mesh);
        let mut cut_corners = 0;
        for op in churn_script() {
            match op {
                ChurnOp::Fail(c) => assert!(faults.inject(c)),
                ChurnOp::Repair(c) => assert!(faults.repair(c)),
            }
            let forest = EscapeForest::new(&faults);
            assert_next_hop_matches_the_climb(&forest, &faults);
            assert_routes_up_then_down(&forest, &faults);
            if [Coord::new(0, 1), Coord::new(1, 0)].iter().all(|&c| faults.is_faulty(c)) {
                cut_corners += 1;
                assert_eq!(forest.next_hop(&mesh, Coord::new(0, 0), Coord::new(7, 7)), None);
            }
        }
        assert_eq!(cut_corners, 3, "the script cuts the corner off for three events");
    }

    #[test]
    fn a_published_escape_hop_decides_as_one_built_over_the_published_view() {
        let mesh = Mesh::square(8);
        let patience = 4;
        let mut state = meshpath_route::NetState::new(FaultSet::none(mesh));
        let v0 = state.view();
        let mut table = PathTable::new(&v0, RoutingKind::Rb2);
        let mut hop = EscapeHop::new(&mut table, patience, 2);
        for (epoch, op) in (1..).zip(churn_script()) {
            let view = match op {
                ChurnOp::Fail(c) => state.add_fault(c),
                ChurnOp::Repair(c) => state.remove_fault(c),
            }
            .expect("a valid event");
            hop.publish(&view);
            let mut fresh_table = PathTable::new(&view, RoutingKind::Rb2);
            let mut fresh = EscapeHop::new(&mut fresh_table, patience, 2);
            assert_eq!(hop.forest(), fresh.forest(), "after {op:?}");
            for here in mesh.iter() {
                for dst in mesh.iter().filter(|&dst| dst != here) {
                    let faults = view.faults();
                    if !(faults.is_healthy(here) && faults.is_healthy(dst)) {
                        // Admitted before the fault landed: drained.
                        let mut stale = PacketState::new(here, dst, 0, 1);
                        assert_eq!(
                            hop.decide(here, &mut stale, &mut { RouteHandle::UNRESOLVED }),
                            HopDecision::Eject
                        );
                        assert!(stale.killed, "{here:?}->{dst:?} after {op:?}");
                        continue;
                    }
                    let admitted = fresh.admit(here, dst);
                    assert_eq!(hop.admit(here, dst), admitted, "{here:?}->{dst:?} after {op:?}");
                    if admitted.is_none() {
                        continue; // cut apart: never in the fabric
                    }
                    // Stalled past patience: the adaptive hop, the XY
                    // candidate when the run is clear, the tree hop.
                    let mut pk = PacketState::new(here, dst, 0, 1);
                    pk.stalled = patience;
                    let expected = fresh.decide(here, &mut pk, &mut { RouteHandle::UNRESOLVED });
                    pk.epoch = epoch;
                    let offered = hop.decide(here, &mut pk, &mut { RouteHandle::UNRESOLVED });
                    assert_eq!(offered, expected, "{here:?}->{dst:?} after {op:?}");
                    assert!(classes(offered).contains(&VcClass::EscapeTree));
                    assert_eq!((pk.epoch, pk.killed), (epoch, false));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The forest of the fault set every event of a random
        /// fail/repair sequence leaves routes every pair by interval as
        /// by climb, up then down.
        #[test]
        fn forest_routes_by_interval_as_by_climb_over_random_churn(
            draw in (5u32..9, proptest::collection::vec(0usize..1000, 1..40))
        ) {
            let (n, picks) = draw;
            let mesh = Mesh::square(n);
            let mut faults = FaultSet::none(mesh);
            for pick in picks {
                let c = mesh.coord(meshpath_mesh::NodeId((pick % mesh.len()) as u32));
                // Toggle: healthy nodes fail, faulty nodes repair —
                // every event is valid by construction.
                if !faults.is_healthy(c) {
                    faults.repair(c);
                } else if faults.healthy_count() > 1 {
                    faults.inject(c); // keeps at least one healthy node
                }
                let forest = EscapeForest::new(&faults);
                assert_next_hop_matches_the_climb(&forest, &faults);
                assert_routes_up_then_down(&forest, &faults);
            }
        }

        /// Interval labels answer exactly as the ancestor climb does, on
        /// non-square meshes cut into several components by fault walls
        /// (with and without a gap) over scattered faults.
        #[test]
        fn interval_next_hop_equals_the_ancestor_climb(
            draw in (
                (1u32..10, 1u32..8),
                proptest::collection::vec(0usize..1000, 0..12),
                proptest::collection::vec((0usize..1000, 0usize..1000), 0..3),
            )
        ) {
            let ((w, h), picks, walls) = draw;
            let mesh = Mesh::new(w, h);
            let mut faults = FaultSet::none(mesh);
            for pick in picks {
                faults.inject(mesh.coord(meshpath_mesh::NodeId((pick % mesh.len()) as u32)));
            }
            for (at, gap) in walls {
                // A row or a column: whole (even `gap`), or with one
                // node left open.
                let (len, across) = if at % 2 == 0 { (w, h) } else { (h, w) };
                let fixed = (at / 2 % across as usize) as i32;
                let open = (gap % 2 == 1).then_some((gap / 2 % len as usize) as i32);
                for k in (0..len as i32).filter(|&k| Some(k) != open) {
                    faults.inject(if at % 2 == 0 {
                        Coord::new(k, fixed)
                    } else {
                        Coord::new(fixed, k)
                    });
                }
            }
            assert_next_hop_matches_the_climb(&EscapeForest::new(&faults), &faults);
        }

        /// Prefix-count XY clearance is `xy_path_clear`, for every
        /// ordered pair of nodes, under the initial fault set and again
        /// under the one each publication leaves.
        #[test]
        fn prefix_count_xy_clearance_equals_the_walk(
            draw in (
                (1u32..8, 1u32..7),
                proptest::collection::vec(0usize..1000, 0..10),
                proptest::collection::vec(0usize..1000, 1..4),
            )
        ) {
            let ((w, h), picks, events) = draw;
            let mesh = Mesh::new(w, h);
            let node = |pick: usize| mesh.coord(meshpath_mesh::NodeId((pick % mesh.len()) as u32));
            let mut state = meshpath_route::NetState::new(FaultSet::from_coords(
                mesh,
                picks.into_iter().map(node),
            ));
            let view = state.view();
            let mut t = PathTable::new(&view, RoutingKind::Xy);
            let mut hop = EscapeHop::new(&mut t, 4, 2);
            let check = |hop: &EscapeHop<'_>, faults: &FaultSet| {
                let xy = hop.xy.as_ref().expect("the XY class is on");
                for here in mesh.iter() {
                    for dst in mesh.iter() {
                        assert_eq!(
                            xy.clear(here, dst),
                            xy_path_clear(faults, here, dst),
                            "{here:?} -> {dst:?} with faults {:?}",
                            faults.iter().collect::<Vec<_>>()
                        );
                    }
                }
            };
            check(&hop, view.faults());
            for pick in events {
                let c = node(pick);
                let next = if state.view().faults().is_healthy(c) {
                    state.add_fault(c)
                } else {
                    state.remove_fault(c)
                }
                .expect("a toggle is a valid event");
                hop.publish(&next);
                check(&hop, next.faults());
            }
        }
    }

    #[test]
    fn online_publish_reprovisions_forest_and_repair_restores_tree_class() {
        let mesh = Mesh::square(8);
        let mut state = meshpath_route::NetState::new(FaultSet::none(mesh));
        let v0 = state.view();
        let mut t = PathTable::new(&v0, RoutingKind::Rb2);
        let mut hop = EscapeHop::new(&mut t, 4, 2);
        let node = Coord::new(4, 4);
        assert!(hop.tree_choice(node, Coord::new(0, 0)).is_some(), "on the initial forest");

        let v1 = state.add_fault(node).expect("valid");
        hop.publish(&v1);
        assert!(
            hop.tree_choice(node, Coord::new(0, 0)).is_none(),
            "failed node leaves the substrate"
        );
        assert_eq!(hop.forest(), Some(&EscapeForest::new(v1.faults())));

        let v2 = state.remove_fault(node).expect("valid");
        hop.publish(&v2);
        // Re-provisioning per event restores the tree class.
        let choice = hop
            .tree_choice(node, Coord::new(0, 0))
            .expect("repaired node regains escape-tree membership");
        assert_eq!(choice.class, VcClass::EscapeTree);
        assert_eq!(hop.forest(), Some(&EscapeForest::new(v2.faults())));
    }

    #[test]
    fn online_decide_replans_around_fresh_faults_and_kills_stranded_packets() {
        let mesh = Mesh::square(8);
        let mut state = meshpath_route::NetState::new(FaultSet::none(mesh));
        let v0 = state.view();
        let mut t = PathTable::new(&v0, RoutingKind::Rb2);
        let mut hop = EscapeHop::new(&mut t, 4, 2);
        let (s, d) = (Coord::new(1, 1), Coord::new(6, 1));
        hop.admit(s, d).expect("clear row");
        let mut pk = PacketState::new(s, d, 0, 1);
        // The first decision, before any churn, resolves the handle to
        // the admitted route.
        let mut route = RouteHandle::UNRESOLVED;
        assert!(matches!(hop.decide(s, &mut pk, &mut route), HopDecision::Route(_)));
        let admitted = route;
        assert_ne!(admitted, RouteHandle::UNRESOLVED);

        // An unscheduled fault lands on the compiled row route.
        let blocker = Coord::new(3, 1);
        let v1 = state.add_fault(blocker).expect("valid");
        hop.publish(&v1);

        // Parked at (2,1), the old route's next step is the fresh
        // fault: the packet is re-keyed onto the current epoch and the
        // offered hop avoids the blocker.
        let here = Coord::new(2, 1);
        pk.head_hop = 1;
        match hop.decide(here, &mut pk, &mut route) {
            HopDecision::Route(c) => {
                let first = c.iter().next().expect("replanned route");
                assert_ne!(here.step(first.dir), blocker, "replan must avoid the fresh fault");
            }
            HopDecision::Eject => panic!("replannable packet must not be dropped"),
        }
        assert_eq!(pk.epoch, 1, "replan re-keys the packet onto the current epoch");
        assert_eq!(pk.src, here);
        assert_eq!(pk.head_hop, 0);
        assert!(!pk.killed);
        assert_ne!(route, admitted, "and its handle onto the replanned route");
        // Idempotent (a stalled head asks again every cycle), and from
        // here on through the re-keyed handle: no further probe.
        let probes = hop.paths.cache_stats();
        let again = hop.decide(here, &mut pk, &mut route);
        assert_eq!((pk.epoch, pk.src, pk.head_hop), (1, here, 0));
        assert!(matches!(again, HopDecision::Route(_)));
        assert_eq!(hop.paths.cache_stats(), probes);

        // The destination itself fails: the packet is killed (drained
        // out of the fabric), never wedged.
        let v2 = state.add_fault(d).expect("valid");
        hop.publish(&v2);
        assert_eq!(hop.decide(here, &mut pk, &mut route), HopDecision::Eject);
        assert!(pk.killed, "a packet to a failed destination is accounted as churn-killed");
    }
}
