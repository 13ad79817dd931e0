//! [`RouteService`]: the concurrent query facade over the
//! epoch-versioned network state, with a **lock-free read path**.
//!
//! ## RCU epoch publication
//!
//! The service keeps its writer state (a [`NetState`]) behind a plain
//! `Mutex` that only mutations touch. Every successful
//! [`add_fault`](RouteService::add_fault) /
//! [`remove_fault`](RouteService::remove_fault) publishes the new
//! epoch's [`NetView`] (plus a fresh per-epoch route cache) into a
//! publication slot, an `Arc` behind its own `Mutex` — readers are
//! never blocked by a mutation, and in-flight queries keep the snapshot
//! they started with.
//!
//! Resolving the snapshot takes no lock and, in steady state, writes
//! no shared memory: each thread keeps a thread-local clone of the
//! published snapshot tagged with its epoch and compares that tag with
//! the published epoch — one `Acquire` load of a read-mostly cache line
//! per query. Only the first query a thread issues after a publication
//! refreshes (a brief slot-mutex `Arc` clone). What follows the snapshot
//! is not write-free: a query the warm cache answers takes its pair's
//! stripe `RwLock` for reading — two atomic read-modify-writes on one
//! of 64 shared lock words. So a steady-state query costs zero shared
//! writes for the RCU load plus one stripe lock word when it is cached;
//! meshbench's `meshpath.read_scaling_t2` (qps at two reader threads
//! over one) is the number that shows what that word costs.
//!
//! The memory-ordering contract: epochs rise strictly under the writer
//! mutex, so the published epoch doubles as the slot's sequence counter.
//! A publication replaces the slot and then stores the new epoch
//! (`Release`) while holding the slot mutex. A reader `Acquire`-loads the
//! epoch on *every* query. If it matches the thread's tag, the thread's
//! own earlier clone answers — valid without synchronization because
//! the thread owns that `Arc` reference. If not, the reader takes the
//! slot mutex, whose acquisition orders its slot read after the slot
//! write, and re-tags with the epoch of the snapshot it got. A reader is
//! thus never more than one in-flight publication behind — ordinary RCU
//! staleness — every answered epoch is a published epoch, and one
//! thread's answered epochs never decrease.
//!
//! ## Batched queries
//!
//! [`route_many`](RouteService::route_many) answers a whole batch
//! against one snapshot resolution: the per-query epoch check is paid
//! once per batch.
//!
//! ## The miss path
//!
//! A query the cache cannot answer first compares the endpoints'
//! healthy-component labels (flooded once per epoch, on its first miss):
//! a cut pair is [`RouteError::Unreachable`] in O(1), without walking the
//! router's hop budget. Connected pairs run the router on one
//! thread-local [`HopState`] ([`Router::route_with`]), so neither a
//! single query nor a batch allocates router scratch.
//!
//! ## Per-epoch warm route cache
//!
//! Each published epoch carries a lazily filled outcome memo bounded by
//! an **entries budget** of [`DEFAULT_CACHE_ENTRIES`] (striped interior
//! mutability plus segmented-LRU eviction — see `crate::cache`):
//! repeated queries for a pair are answered with a copy of the stored
//! [`RouteResult`] instead of re-running the router, bit-identical to a
//! fresh computation. Because the bound is on memoized *pairs*, not mesh
//! size, hot pairs are served from the cache on arbitrarily large meshes
//! while cold pairs age out of the budget.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use meshpath_mesh::Coord;
use meshpath_obs::HitMiss;
use meshpath_route::{HopState, NetState, NetView, RouteResult, Router, RoutingKind, UpdateError};

use crate::cache::RouteCache;

/// Entries budget of the per-epoch warm route cache: up to this many
/// `(source, destination)` outcomes stay memoized per epoch,
/// independent of mesh size — the cache evicts cold generations instead
/// of refusing to memoize on large meshes.
pub const DEFAULT_CACHE_ENTRIES: usize = 1 << 16;

/// Why a route query failed. Every variant names the offending
/// coordinates, so callers can log or retry without re-deriving
/// context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// An endpoint lies outside the mesh.
    OffMesh(Coord),
    /// The source node is faulty (a faulty node cannot inject).
    SourceFaulty(Coord),
    /// The destination node is faulty (a faulty node cannot eject).
    DestinationFaulty(Coord),
    /// No healthy path connects the pair (the fault set cuts the mesh).
    Unreachable {
        /// The query's source.
        src: Coord,
        /// The query's destination.
        dst: Coord,
    },
    /// The routing function gave up on a connected pair (exhausted its
    /// hop budget). Not expected for the paper's routers; surfaced as
    /// an error rather than a silent truncated path.
    Undelivered {
        /// The query's source.
        src: Coord,
        /// The query's destination.
        dst: Coord,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::OffMesh(c) => write!(f, "endpoint {c:?} lies outside the mesh"),
            RouteError::SourceFaulty(c) => write!(f, "source {c:?} is faulty"),
            RouteError::DestinationFaulty(c) => write!(f, "destination {c:?} is faulty"),
            RouteError::Unreachable { src, dst } => {
                write!(f, "no healthy path connects {src:?} to {dst:?}")
            }
            RouteError::Undelivered { src, dst } => {
                write!(f, "router gave up routing {src:?} to {dst:?}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A successful route query: the engine's full [`RouteResult`] plus the
/// epoch of the snapshot it was answered against.
#[derive(Clone, Debug)]
pub struct RouteReply {
    /// The epoch of the snapshot that answered this query.
    pub epoch: u64,
    /// The route (path, hop count, re-planning statistics).
    pub result: RouteResult,
}

impl RouteReply {
    /// Path length in hops.
    pub fn hops(&self) -> u32 {
        self.result.hops()
    }
}

/// Route-cache counters of one [`RouteService`], recorded with relaxed
/// atomics so concurrent query threads never contend on them.
///
/// Opt-in: a service built with
/// [`with_metrics`](RouteService::with_metrics) records; the plain
/// constructors skip all instrumentation (with metrics off the cache's
/// stripe lock word is the only shared write on the query path).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    route_cache: HitMiss,
}

impl ServiceMetrics {
    /// Warm route-cache hits (queries answered from the stored outcome).
    pub fn cache_hits(&self) -> u64 {
        self.route_cache.hits()
    }

    /// Warm route-cache misses (queries that ran the router; the
    /// outcome was memoized for the rest of the epoch).
    pub fn cache_misses(&self) -> u64 {
        self.route_cache.misses()
    }
}

/// What one publication makes visible to readers, atomically: the
/// epoch's snapshot and its warm route cache.
#[derive(Debug)]
struct Served {
    view: NetView,
    cache: RouteCache,
}

impl Served {
    fn publish(view: NetView) -> Arc<Served> {
        Arc::new(Served { view, cache: RouteCache::new(DEFAULT_CACHE_ENTRIES) })
    }
}

/// Source of unique service ids for the thread-local snapshot caches
/// (ids, unlike addresses, are never reused by a later service).
static NEXT_SERVICE_ID: AtomicU64 = AtomicU64::new(0);

/// Per-thread snapshot caches: each entry is `(service id, epoch,
/// snapshot)`, a thread-local clone of one service's published
/// [`Served`] tagged with its epoch, so resolving the snapshot writes no
/// shared memory in steady state. Bounded: a thread routing against more
/// services than the cap evicts its oldest entry (correctness is
/// unaffected — eviction only costs the next query one refresh).
const THREAD_CACHE_CAP: usize = 8;

type ServedEntry = (u64, u64, Arc<Served>);

thread_local! {
    static SERVED_CACHE: RefCell<Vec<ServedEntry>> = const { RefCell::new(Vec::new()) };
    /// Router scratch of every miss this thread computes, reset per
    /// query: its allocations are paid once per thread.
    static SCRATCH: RefCell<HopState> = RefCell::new(HopState::new(Coord::new(0, 0)));
}

/// The query facade: answers concurrent route queries against the
/// current snapshot — lock-free, via RCU epoch publication — and
/// applies incremental fault updates on a writer-side mutex.
pub struct RouteService {
    /// Writer state; taken only by mutations, never by queries.
    writer: Mutex<NetState>,
    /// The publication slot: what readers refresh their thread-local
    /// clones from.
    current: Mutex<Arc<Served>>,
    /// The epoch of `current`, stored `Release` under its mutex after
    /// the slot changes: readers revalidate their clones against it.
    published: AtomicU64,
    /// Key for the thread-local snapshot caches.
    id: u64,
    router: Box<dyn Router + Send + Sync>,
    metrics: Option<ServiceMetrics>,
}

impl RouteService {
    /// A service over `faults`, routing with RB2 (the paper's
    /// shortest-path routing).
    pub fn new(faults: meshpath_mesh::FaultSet) -> Self {
        RouteService::from_state(NetState::new(faults), RoutingKind::Rb2)
    }

    /// A service adopting an existing snapshot (keeps its epoch).
    pub fn adopt(view: NetView, kind: RoutingKind) -> Self {
        RouteService::from_state(NetState::adopt(view), kind)
    }

    fn from_state(state: NetState, kind: RoutingKind) -> Self {
        let view = state.view();
        RouteService {
            published: AtomicU64::new(view.epoch()),
            current: Mutex::new(Served::publish(view)),
            writer: Mutex::new(state),
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            router: kind.router(),
            metrics: None,
        }
    }

    /// This service with [`ServiceMetrics`] recording enabled
    /// (builder): route-cache hits and misses are counted.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(ServiceMetrics::default());
        self
    }

    /// The recorded metrics, when
    /// [`with_metrics`](RouteService::with_metrics) enabled them.
    pub fn metrics(&self) -> Option<&ServiceMetrics> {
        self.metrics.as_ref()
    }

    /// The current snapshot (cheap clone of the published view; never
    /// blocks on mutations beyond the `Arc` bump).
    pub fn view(&self) -> NetView {
        self.with_served(|served| served.view.clone())
    }

    /// Runs `f` against the thread-locally cached publication,
    /// revalidated against the published epoch (one `Acquire` load when
    /// fresh). `f` must not re-enter the service (internal invariant:
    /// routing never calls back into `RouteService`).
    fn with_served<R>(&self, f: impl FnOnce(&Served) -> R) -> R {
        SERVED_CACHE.with(|tl| {
            let mut tl = tl.borrow_mut();
            let idx = match tl.iter().position(|(id, ..)| *id == self.id) {
                Some(i) => i,
                None => {
                    if tl.len() >= THREAD_CACHE_CAP {
                        tl.remove(0);
                    }
                    tl.push(self.refresh());
                    tl.len() - 1
                }
            };
            let entry = &mut tl[idx];
            if entry.1 != self.published.load(Ordering::Acquire) {
                *entry = self.refresh();
            }
            f(&entry.2)
        })
    }

    /// A thread-local cache entry for the current publication, tagged
    /// with its own epoch (which may be newer than the one that sent the
    /// reader here).
    #[cold]
    fn refresh(&self) -> ServedEntry {
        let served = Arc::clone(&self.current.lock().expect("route service slot poisoned"));
        (self.id, served.view.epoch(), served)
    }

    /// Routes one message on the current snapshot. Concurrent-safe and
    /// lock-free: the query runs entirely against the thread's
    /// revalidated snapshot clone, consulting the epoch's warm route
    /// cache when one exists.
    pub fn route(&self, src: Coord, dst: Coord) -> Result<RouteReply, RouteError> {
        self.with_served(|served| self.route_served(served, src, dst))
    }

    /// Routes a whole batch against **one** snapshot resolution: every
    /// reply carries the same epoch. Replies are returned in the order of
    /// `pairs`, each exactly what [`route`](RouteService::route) would
    /// have answered at this epoch.
    pub fn route_many(&self, pairs: &[(Coord, Coord)]) -> Vec<Result<RouteReply, RouteError>> {
        self.with_served(|served| {
            pairs.iter().map(|&(s, d)| self.route_served(served, s, d)).collect()
        })
    }

    /// One query against a resolved publication: validation, then the
    /// epoch's warm cache (when present), then the router.
    fn route_served(
        &self,
        served: &Served,
        src: Coord,
        dst: Coord,
    ) -> Result<RouteReply, RouteError> {
        let view = &served.view;
        self.validate(view, src, dst)?;
        let Some(outcome) = served.cache.lookup(view.mesh(), src, dst) else {
            return self.route_miss(served, src, dst);
        };
        if let Some(m) = &self.metrics {
            m.route_cache.hit();
        }
        outcome.map(|result| RouteReply { epoch: view.epoch(), result })
    }

    /// What the warm cache did not answer: compute, memoize, count. Kept
    /// out of line so the hit path in
    /// [`route_served`](RouteService::route_served) stays straight-line
    /// whatever the router code behind `compute` grows into.
    #[cold]
    #[inline(never)]
    fn route_miss(
        &self,
        served: &Served,
        src: Coord,
        dst: Coord,
    ) -> Result<RouteReply, RouteError> {
        let view = &served.view;
        let outcome = self.compute(view, src, dst);
        if let Some(m) = &self.metrics {
            m.route_cache.miss();
        }
        served.cache.fill(view.mesh(), src, dst, &outcome);
        outcome.map(|result| RouteReply { epoch: view.epoch(), result })
    }

    fn validate(&self, view: &NetView, src: Coord, dst: Coord) -> Result<(), RouteError> {
        let mesh = view.mesh();
        for c in [src, dst] {
            if !mesh.contains(c) {
                return Err(RouteError::OffMesh(c));
            }
        }
        if view.faults().is_faulty(src) {
            return Err(RouteError::SourceFaulty(src));
        }
        if view.faults().is_faulty(dst) {
            return Err(RouteError::DestinationFaulty(dst));
        }
        Ok(())
    }

    /// The miss path for validated (in-mesh, healthy) endpoints: a cut
    /// pair is answered from the epoch's component labels; a connected
    /// one runs the router on the thread's scratch.
    fn compute(&self, view: &NetView, src: Coord, dst: Coord) -> Result<RouteResult, RouteError> {
        if view.component_of(src) != view.component_of(dst) {
            return Err(RouteError::Unreachable { src, dst });
        }
        let result = SCRATCH
            .with(|scratch| self.router.route_with(view, src, dst, &mut scratch.borrow_mut()));
        if result.delivered {
            Ok(result)
        } else {
            // The router gave up on a connected pair.
            Err(RouteError::Undelivered { src, dst })
        }
    }

    /// Marks `c` faulty (incremental update; see
    /// [`NetState::add_fault`]), publishes the new epoch without
    /// blocking readers, and returns it.
    pub fn add_fault(&self, c: Coord) -> Result<u64, UpdateError> {
        self.update(|state| state.add_fault(c).map(|v| v.epoch()))
    }

    /// Repairs the fault at `c`, publishes the new epoch without
    /// blocking readers, and returns it.
    pub fn remove_fault(&self, c: Coord) -> Result<u64, UpdateError> {
        self.update(|state| state.remove_fault(c).map(|v| v.epoch()))
    }

    fn update(
        &self,
        f: impl FnOnce(&mut NetState) -> Result<u64, UpdateError>,
    ) -> Result<u64, UpdateError> {
        let mut state = self.writer.lock().expect("route service writer poisoned");
        let out = f(&mut state);
        if out.is_ok() {
            // Published while the writer mutex is held, so epochs enter
            // the slot in strictly increasing order; the epoch is stored
            // after the slot, under the slot mutex (see the module doc).
            let next = Served::publish(state.view());
            let epoch = next.view.epoch();
            let mut slot = self.current.lock().expect("route service slot poisoned");
            let old = std::mem::replace(&mut *slot, next);
            self.published.store(epoch, Ordering::Release);
            drop(slot);
            drop(old);
        }
        drop(state);
        out
    }
}

impl fmt::Debug for RouteService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteService")
            .field("router", &self.router.name())
            .field("view", &self.view())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{Coord, FaultSet, Mesh};
    use meshpath_route::oracle::DistanceField;
    use meshpath_route::{Decision, HopCtx};

    /// RB2 that counts its per-hop decisions: the "did the router walk?"
    /// probe of the unreachable-pair test.
    struct CountingRb2 {
        inner: Box<dyn Router + Send + Sync>,
        decisions: Arc<AtomicU64>,
    }

    impl Router for CountingRb2 {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn decide(&self, view: &NetView, ctx: HopCtx<'_>) -> Decision {
            self.decisions.fetch_add(1, Ordering::Relaxed);
            self.inner.decide(view, ctx)
        }
    }

    fn service() -> RouteService {
        let mesh = Mesh::square(12);
        RouteService::new(FaultSet::from_coords(mesh, [Coord::new(5, 5), Coord::new(6, 5)]))
    }

    #[test]
    fn routes_and_reports_epochs() {
        let svc = service();
        let reply = svc.route(Coord::new(5, 1), Coord::new(5, 9)).expect("routable");
        assert_eq!(reply.epoch, 0);
        let oracle = DistanceField::healthy(svc.view().faults(), Coord::new(5, 9));
        assert_eq!(reply.hops(), oracle.dist(Coord::new(5, 1)), "RB2 stays shortest-path");
        // Mutate: the next query sees the new epoch and detours further.
        assert_eq!(svc.add_fault(Coord::new(4, 5)).expect("valid"), 1);
        let after = svc.route(Coord::new(5, 1), Coord::new(5, 9)).expect("still routable");
        assert_eq!(after.epoch, 1);
        assert!(after.hops() >= reply.hops());
        // Repair returns to the original cost.
        assert_eq!(svc.remove_fault(Coord::new(4, 5)).expect("valid"), 2);
        let back = svc.route(Coord::new(5, 1), Coord::new(5, 9)).expect("routable");
        assert_eq!(back.hops(), reply.hops());
    }

    #[test]
    fn warm_cache_hits_are_bit_identical_and_counted() {
        assert!(service().metrics().is_none(), "instrumentation is opt-in");
        let svc = service().with_metrics();
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 9));
        let cold = svc.route(s, d).expect("routable");
        let warm = svc.route(s, d).expect("routable");
        assert_eq!(warm.epoch, cold.epoch);
        assert_eq!(warm.result, cold.result, "a cache hit copies the exact result");
        let m = svc.metrics().expect("enabled");
        assert_eq!((m.cache_hits(), m.cache_misses()), (1, 1));
        // A mutation publishes a fresh epoch with a fresh (empty) cache.
        svc.add_fault(Coord::new(1, 1)).expect("valid");
        svc.route(s, d).expect("routable");
        assert_eq!((m.cache_hits(), m.cache_misses()), (1, 2));
    }

    #[test]
    fn a_publication_from_another_thread_refreshes_the_next_query() {
        // The querying thread holds a thread-local clone tagged with
        // epoch e; a publication on another thread must make its very
        // next query answer at e+1 from the new epoch's snapshot.
        let svc = service().with_metrics();
        let (s, d) = (Coord::new(5, 1), Coord::new(5, 9));
        for e in 0..3 {
            assert_eq!(svc.route(s, d).expect("routable").epoch, e);
            let fault = Coord::new(1 + e as i32, 1);
            let published = std::thread::scope(|scope| {
                scope.spawn(|| svc.add_fault(fault).expect("valid")).join().expect("writer")
            });
            assert_eq!(published, e + 1);
            let next = svc.route(s, d).expect("routable");
            assert_eq!(next.epoch, e + 1, "the next query refreshes its clone");
            assert_eq!(svc.route(fault, d).err(), Some(RouteError::SourceFaulty(fault)));
        }
        let m = svc.metrics().expect("enabled");
        assert_eq!((m.cache_hits(), m.cache_misses()), (2, 4), "one miss per epoch's cache");
    }

    #[test]
    fn large_meshes_memoize_hot_pairs_within_the_entries_budget() {
        // 64x64 = 4096 nodes — far beyond the old all-or-nothing node
        // gate. The entries-budget LRU must still serve repeats warm.
        let mesh = Mesh::square(64);
        let svc =
            RouteService::new(FaultSet::from_coords(mesh, [Coord::new(30, 30)])).with_metrics();
        let (s, d) = (Coord::new(1, 2), Coord::new(60, 55));
        let cold = svc.route(s, d).expect("routable");
        let warm = svc.route(s, d).expect("routable");
        assert_eq!(warm.result, cold.result, "warm replies stay bit-identical on large meshes");
        let m = svc.metrics().expect("enabled");
        assert_eq!((m.cache_hits(), m.cache_misses()), (1, 1));
    }

    #[test]
    fn routes_past_the_inline_hop_capacity_serve_identically() {
        // 256x256: a corner-to-corner route is 510 hops, far past the
        // 128 a `HopSeq` holds inline, so the reply, the cache entry and
        // the hit's copy all live on the heap representation.
        let mesh = Mesh::square(256);
        let faults = FaultSet::from_coords(mesh, (100..140).map(|x| Coord::new(x, 128)));
        let svc = RouteService::new(faults).with_metrics();
        let view = svc.view();
        let pairs = [
            (Coord::new(0, 0), Coord::new(255, 255)),
            (Coord::new(120, 3), Coord::new(120, 250)), // detours the wall
            (Coord::new(255, 10), Coord::new(0, 139)),  // 129 + 255 hops
        ];
        for (s, d) in pairs {
            let miss = svc.route(s, d).expect("routable").result;
            let hit = svc.route(s, d).expect("routable").result;
            let bare = RoutingKind::Rb2.router().route(&view, s, d);
            assert!(miss.hops() > 128, "{s:?}->{d:?} must exceed the inline capacity");
            assert_eq!(miss, bare, "{s:?}->{d:?}: miss vs bare route");
            assert_eq!(hit, bare, "{s:?}->{d:?}: hit vs bare route");
            meshpath_route::validate_path(&view, s, d, &hit).expect("valid walk");
        }
        let m = svc.metrics().expect("enabled");
        assert_eq!((m.cache_hits(), m.cache_misses()), (3, 3));
    }

    #[test]
    fn route_many_matches_per_query_routing_in_order() {
        let (svc, single) = (service(), service());
        let pairs: Vec<(Coord, Coord)> = vec![
            (Coord::new(0, 0), Coord::new(11, 11)),
            (Coord::new(5, 5), Coord::new(1, 1)), // faulty source
            (Coord::new(5, 1), Coord::new(5, 9)), // detours the wall
            (Coord::new(-1, 0), Coord::new(1, 1)), // off-mesh
            (Coord::new(11, 0), Coord::new(0, 11)),
        ];
        let batch = svc.route_many(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for (&(s, d), reply) in pairs.iter().zip(&batch) {
            match (reply, single.route(s, d)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.epoch, b.epoch, "{s:?}->{d:?}");
                    assert_eq!(a.result, b.result, "{s:?}->{d:?}");
                }
                (Err(a), Err(b)) => assert_eq!(*a, b, "{s:?}->{d:?}"),
                (a, b) => panic!("{s:?}->{d:?}: batch {a:?} vs single {b:?}"),
            }
        }
    }

    #[test]
    fn typed_errors_cover_every_failure() {
        let svc = service();
        assert_eq!(
            svc.route(Coord::new(-1, 0), Coord::new(1, 1)).err(),
            Some(RouteError::OffMesh(Coord::new(-1, 0)))
        );
        assert_eq!(
            svc.route(Coord::new(5, 5), Coord::new(1, 1)).err(),
            Some(RouteError::SourceFaulty(Coord::new(5, 5)))
        );
        assert_eq!(
            svc.route(Coord::new(1, 1), Coord::new(6, 5)).err(),
            Some(RouteError::DestinationFaulty(Coord::new(6, 5)))
        );
        // A fault wall cuts the mesh: unreachable pairs are classified
        // (and the classification is itself memoized — ask twice).
        let mesh = Mesh::square(8);
        let wall = RouteService::new(FaultSet::from_coords(mesh, (0..8).map(|x| Coord::new(x, 4))));
        for _ in 0..2 {
            assert_eq!(
                wall.route(Coord::new(0, 0), Coord::new(0, 7)).err(),
                Some(RouteError::Unreachable { src: Coord::new(0, 0), dst: Coord::new(0, 7) })
            );
        }
    }

    #[test]
    fn a_walled_in_node_is_unreachable_without_a_walk() {
        // (0,0) on 64x64 is healthy but cut off by its two neighbors.
        // The reply used to cost RB2's whole 8*4096-hop budget plus a
        // classifying BFS; the component labels answer it with zero
        // router decisions, and connected pairs still route.
        let mesh = Mesh::square(64);
        let mut svc =
            RouteService::new(FaultSet::from_coords(mesh, [Coord::new(1, 0), Coord::new(0, 1)]))
                .with_metrics();
        let decisions = Arc::new(AtomicU64::new(0));
        svc.router = Box::new(CountingRb2 {
            inner: RoutingKind::Rb2.router(),
            decisions: Arc::clone(&decisions),
        });
        let (pocket, far) = (Coord::new(0, 0), Coord::new(40, 40));
        for (src, dst) in [(pocket, far), (far, pocket)] {
            assert_eq!(svc.route(src, dst).err(), Some(RouteError::Unreachable { src, dst }));
        }
        assert_eq!(decisions.load(Ordering::Relaxed), 0, "a cut pair must not run the router");
        let m = svc.metrics().expect("enabled");
        assert_eq!((m.cache_hits(), m.cache_misses()), (0, 2), "both were computed, not cached");
        // The verdict is memoized like any other outcome.
        assert!(svc.route(pocket, far).is_err());
        assert_eq!((m.cache_hits(), m.cache_misses()), (1, 2));
        // A connected pair is untouched: routed hop by hop, shortest.
        let reply = svc.route(Coord::new(2, 0), far).expect("connected");
        assert_eq!(reply.hops(), Coord::new(2, 0).manhattan(far));
        assert!(decisions.load(Ordering::Relaxed) >= u64::from(reply.hops()));
    }

    #[test]
    fn concurrent_queries_share_one_service() {
        let svc = service();
        let view = svc.view();
        let healthy: Vec<Coord> =
            view.mesh().iter().filter(|&c| view.faults().is_healthy(c)).collect();
        let total: usize = std::thread::scope(|scope| {
            (0..4)
                .map(|t| {
                    let svc = &svc;
                    let healthy = &healthy;
                    scope.spawn(move || {
                        let mut routed = 0;
                        for (i, &s) in healthy.iter().enumerate().skip(t).step_by(4) {
                            let d = healthy[(i * 7 + 3) % healthy.len()];
                            if s == d {
                                continue;
                            }
                            let reply = svc.route(s, d).expect("healthy pairs route");
                            assert!(reply.result.delivered);
                            routed += 1;
                        }
                        routed
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("query thread panicked"))
                .sum()
        });
        assert!(total > 100, "the fan-out must actually route ({total})");
    }

    #[test]
    fn mutations_race_queries_safely() {
        // Queries keep their snapshot while faults churn underneath.
        let svc = service();
        std::thread::scope(|scope| {
            let q = scope.spawn(|| {
                for _ in 0..200 {
                    match svc.route(Coord::new(0, 0), Coord::new(11, 11)) {
                        Ok(reply) => assert!(reply.result.delivered),
                        Err(e) => panic!("corner pair must stay routable: {e}"),
                    }
                }
            });
            let m = scope.spawn(|| {
                for _ in 0..20 {
                    svc.add_fault(Coord::new(2, 7)).expect("valid add");
                    svc.remove_fault(Coord::new(2, 7)).expect("valid remove");
                }
            });
            q.join().expect("query thread");
            m.join().expect("mutation thread");
        });
        assert_eq!(svc.view().epoch(), 40);
    }

    #[test]
    fn many_services_on_one_thread_stay_coherent() {
        // More services than the thread-local cache cap: eviction must
        // only cost refreshes, never answers from the wrong service.
        let services: Vec<RouteService> = (0..(THREAD_CACHE_CAP + 3))
            .map(|i| {
                let mesh = Mesh::square(8);
                RouteService::new(FaultSet::from_coords(mesh, [Coord::new(i as i32 % 8, 3)]))
            })
            .collect();
        for round in 0..2 {
            for (i, svc) in services.iter().enumerate() {
                let fault = Coord::new(i as i32 % 8, 3);
                assert_eq!(
                    svc.route(fault, Coord::new(7, 7)).err(),
                    Some(RouteError::SourceFaulty(fault)),
                    "service {i} round {round} answered with someone else's faults"
                );
            }
        }
    }
}
