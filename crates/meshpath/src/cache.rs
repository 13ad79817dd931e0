//! The per-epoch warm route cache: a striped, capacity-bounded memo of
//! full query outcomes, keyed by `(source, destination)` node ids.
//!
//! One [`RouteCache`] belongs to exactly one published epoch (the
//! service allocates a fresh, empty cache per publication), so entries
//! can never go stale: a fault mutation publishes a new epoch with a
//! new cache and readers that still hold the old snapshot keep the old
//! cache. This is the precomputed all-pairs serving pattern — warmed
//! lazily by real queries instead of an upfront Floyd–Warshall pass, so
//! a publication costs nothing and only the queried region of the pair
//! space is ever materialized.
//!
//! An entry *is* the service-level outcome, stored as computed: the
//! router's [`RouteResult`] (source, packed hop directions, engine
//! statistics — 64 bytes, inline up to 128 hops) or the typed routing
//! error. A hit is a `clone()` of that value under the stripe's read
//! lock — no conversion on fill, nothing rebuilt on lookup — so it is
//! trivially bit-identical to re-running the router on the epoch's
//! snapshot (the equivalence the service's stress tests pin).
//!
//! Interior mutability is striped: the pair key hashes to one of
//! [`STRIPES`] independent `RwLock`ed stripes, so concurrent readers
//! filling disjoint slots contend only when their pairs collide on a
//! stripe — there is no global lock.
//!
//! ## Eviction: segmented LRU generations
//!
//! The cache is bounded by an **entries budget** (not a mesh-size
//! gate), so arbitrarily large meshes still memoize their hot pairs.
//! Each stripe keeps two generations, `hot` and `cold`. Fills and
//! cold-hit promotions land in `hot`; when `hot` outgrows the stripe's
//! share of the budget, the whole generation rotates down (`cold` is
//! dropped, `hot` becomes the new `cold`). A pair queried at least once
//! per rotation keeps being re-promoted and never leaves the cache; a
//! pair untouched for two rotations is evicted. This is the classic
//! CLOCK/2Q approximation of LRU with O(1) bookkeeping per operation
//! and no recency list to maintain under the lock.

use std::sync::RwLock;

use meshpath_mesh::{Coord, FxHashMap, Mesh};
use meshpath_route::RouteResult;

use crate::service::RouteError;

/// Number of independently locked cache stripes. A power of two so the
/// stripe selector is a mask; 64 keeps reader collisions rare at any
/// plausible thread count while costing only 64 empty maps per epoch.
pub(crate) const STRIPES: usize = 64;

/// One memoized query outcome (everything after endpoint validation,
/// which is cheaper than the lookup and therefore never cached): the
/// delivered route, or the typed error the service classified for the
/// pair.
type Outcome = Result<RouteResult, RouteError>;

/// One lock's worth of cache: two disjoint LRU generations. Entries
/// enter (and re-enter) through `hot`; rotation demotes the whole hot
/// generation to `cold` and drops the previous cold one.
#[derive(Default)]
struct Stripe {
    hot: FxHashMap<u64, Outcome>,
    cold: FxHashMap<u64, Outcome>,
}

/// A lazily filled, striped, budget-bounded memo of query outcomes for
/// one epoch.
pub(crate) struct RouteCache {
    stripes: Box<[RwLock<Stripe>]>,
    /// Per-stripe hot-generation capacity. Each stripe holds at most
    /// `~2 * cap` entries (one hot + one cold generation), so the whole
    /// cache stays within the entries budget it was built with.
    cap: usize,
}

impl RouteCache {
    /// An empty cache bounded by `budget` total entries across all
    /// stripes (allocates only the stripe array). The budget is split
    /// evenly between stripes and halved for the two generations; it is
    /// rounded up so every stripe can hold at least one pair per
    /// generation.
    pub(crate) fn new(budget: usize) -> Self {
        let stripes = (0..STRIPES).map(|_| RwLock::new(Stripe::default())).collect();
        RouteCache { stripes, cap: (budget / STRIPES / 2).max(1) }
    }

    #[inline]
    fn key(mesh: &Mesh, s: Coord, d: Coord) -> u64 {
        ((mesh.id(s).0 as u64) << 32) | mesh.id(d).0 as u64
    }

    #[inline]
    fn stripe(key: u64) -> usize {
        // Source and destination ids both contribute, so row-major query
        // sweeps spread across stripes instead of marching through one.
        ((key ^ (key >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (STRIPES - 1)
    }

    /// Inserts into the hot generation, rotating the generations when
    /// hot outgrows the stripe's capacity. The two maps stay disjoint:
    /// every insertion path removes the key from `cold` first.
    fn insert_hot(stripe: &mut Stripe, key: u64, cached: Outcome, cap: usize) {
        stripe.cold.remove(&key);
        stripe.hot.insert(key, cached);
        if stripe.hot.len() > cap {
            stripe.cold = std::mem::take(&mut stripe.hot);
        }
    }

    /// A copy of the memoized outcome for `(s, d)`, or `None` on a miss.
    /// A hot-generation hit takes one stripe read lock; a
    /// cold-generation hit upgrades to the write lock to promote the
    /// entry back into `hot` (that recency signal is what keeps hot
    /// pairs resident across rotations).
    pub(crate) fn lookup(&self, mesh: &Mesh, s: Coord, d: Coord) -> Option<Outcome> {
        let key = Self::key(mesh, s, d);
        let lock = &self.stripes[Self::stripe(key)];
        {
            let stripe = lock.read().expect("route cache stripe poisoned");
            if let Some(cached) = stripe.hot.get(&key) {
                return Some(cached.clone());
            }
            if !stripe.cold.contains_key(&key) {
                return None;
            }
        }
        // Cold hit: re-take the lock writable and promote. Between the
        // two locks a racing promoter may have moved the entry to hot,
        // or a racing rotation may have evicted it — re-check both.
        let mut stripe = lock.write().expect("route cache stripe poisoned");
        if let Some(cached) = stripe.cold.remove(&key) {
            Self::insert_hot(&mut stripe, key, cached.clone(), self.cap);
            return Some(cached);
        }
        stripe.hot.get(&key).cloned()
    }

    /// Memoizes a freshly computed outcome for `(s, d)`. Takes one
    /// stripe write lock; concurrent fillers of the same pair insert
    /// identical values (the router is deterministic), so last-write
    /// ordering is immaterial.
    pub(crate) fn fill(&self, mesh: &Mesh, s: Coord, d: Coord, outcome: &Outcome) {
        match outcome {
            Ok(res) => {
                debug_assert!(res.delivered, "only delivered results are Ok at the service layer")
            }
            // Routing-level failures are worth memoizing (they cost a
            // full BFS classification); endpoint-validation errors never
            // reach the cache — the checks are cheaper than a lookup.
            Err(RouteError::Unreachable { .. } | RouteError::Undelivered { .. }) => {}
            Err(_) => return,
        }
        let key = Self::key(mesh, s, d);
        let mut stripe =
            self.stripes[Self::stripe(key)].write().expect("route cache stripe poisoned");
        Self::insert_hot(&mut stripe, key, outcome.clone(), self.cap);
    }

    /// Number of memoized pairs (test/diagnostic use; takes every
    /// stripe read lock in turn).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                let stripe = s.read().expect("route cache stripe poisoned");
                stripe.hot.len() + stripe.cold.len()
            })
            .sum()
    }
}

impl std::fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteCache")
            .field("stripes", &STRIPES)
            .field("cap_per_stripe", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{FaultSet, Mesh};
    use meshpath_route::{NetView, RoutingKind};

    /// A budget comfortably above anything these tests fill, so the
    /// pre-LRU tests keep exercising the unbounded-looking fast path.
    const ROOMY: usize = 1 << 16;

    #[test]
    fn roundtrip_is_bit_identical() {
        let mesh = Mesh::square(10);
        let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(4, 4), Coord::new(5, 4)]));
        let router = RoutingKind::Rb2.router();
        let cache = RouteCache::new(ROOMY);
        let pairs = [(Coord::new(0, 0), Coord::new(9, 9)), (Coord::new(4, 0), Coord::new(4, 9))];
        for (s, d) in pairs {
            let fresh = router.route(&net, s, d);
            assert!(fresh.delivered);
            cache.fill(net.mesh(), s, d, &Ok(fresh.clone()));
            let hit = cache.lookup(net.mesh(), s, d).expect("just filled").expect("delivered");
            assert_eq!(hit, fresh, "cache hits copy the exact result");
        }
        assert_eq!(cache.len(), pairs.len());
        assert!(cache.lookup(net.mesh(), Coord::new(1, 1), Coord::new(2, 2)).is_none());
    }

    #[test]
    fn routing_errors_are_memoized_but_validation_errors_are_not() {
        let mesh = Mesh::square(6);
        let cache = RouteCache::new(ROOMY);
        let (s, d) = (Coord::new(0, 0), Coord::new(5, 5));
        let unreachable = RouteError::Unreachable { src: s, dst: d };
        cache.fill(&mesh, s, d, &Err(unreachable));
        assert_eq!(cache.lookup(&mesh, s, d), Some(Err(unreachable)));
        let (s2, d2) = (Coord::new(1, 0), Coord::new(5, 5));
        cache.fill(&mesh, s2, d2, &Err(RouteError::SourceFaulty(s2)));
        assert!(cache.lookup(&mesh, s2, d2).is_none(), "validation errors skip the cache");
    }

    #[test]
    fn stripes_spread_row_major_sweeps() {
        let mesh = Mesh::square(16);
        let mut used = std::collections::HashSet::new();
        let d = Coord::new(15, 15);
        for s in mesh.iter().take(STRIPES) {
            used.insert(RouteCache::stripe(RouteCache::key(&mesh, s, d)));
        }
        assert!(used.len() > STRIPES / 4, "sweep collapsed onto {} stripes", used.len());
    }

    /// Pairs that all land on one stripe, so per-stripe eviction can be
    /// driven deterministically from a test.
    fn same_stripe_pairs(mesh: &Mesh, n: usize) -> Vec<(Coord, Coord)> {
        let d = Coord::new(0, 0);
        let target = RouteCache::stripe(RouteCache::key(mesh, Coord::new(1, 0), d));
        let mut out = vec![(Coord::new(1, 0), d)];
        for s in mesh.iter() {
            if out.len() == n {
                break;
            }
            if s != Coord::new(1, 0)
                && s != d
                && RouteCache::stripe(RouteCache::key(mesh, s, d)) == target
            {
                out.push((s, d));
            }
        }
        assert_eq!(out.len(), n, "mesh too small to find {n} same-stripe pairs");
        out
    }

    #[test]
    fn capacity_bounds_the_stripe_and_evicts_stale_generations() {
        let mesh = Mesh::square(64);
        // budget/STRIPES/2 = 1: each stripe holds one hot + one cold
        // generation of a single entry (≤ 2 resident pairs at rest).
        let cache = RouteCache::new(STRIPES * 2);
        let pairs = same_stripe_pairs(&mesh, 12);
        for &(s, d) in &pairs {
            let e = RouteError::Unreachable { src: s, dst: d };
            cache.fill(&mesh, s, d, &Err(e));
        }
        let (s0, d0) = pairs[0];
        assert!(
            cache.lookup(&mesh, s0, d0).is_none(),
            "the oldest untouched pair must have been evicted"
        );
        let (sn, dn) = *pairs.last().expect("nonempty");
        assert_eq!(
            cache.lookup(&mesh, sn, dn),
            Some(Err(RouteError::Unreachable { src: sn, dst: dn })),
            "the freshest pair stays resident"
        );
        assert!(cache.len() <= 2, "one stripe holds at most hot + cold = 2 entries at cap 1");
    }

    #[test]
    fn hot_pairs_survive_churn_that_evicts_cold_ones() {
        let mesh = Mesh::square(64);
        let cache = RouteCache::new(STRIPES * 2); // cap 1 per stripe
        let pairs = same_stripe_pairs(&mesh, 20);
        let (hot_s, hot_d) = pairs[0];
        let hot_err = RouteError::Unreachable { src: hot_s, dst: hot_d };
        cache.fill(&mesh, hot_s, hot_d, &Err(hot_err));
        // Churn far past capacity, but touch the hot pair after every
        // fill: the lookup promotes it out of the cold generation before
        // the next rotation can drop it.
        for &(s, d) in &pairs[1..] {
            cache.fill(&mesh, s, d, &Err(RouteError::Unreachable { src: s, dst: d }));
            assert_eq!(
                cache.lookup(&mesh, hot_s, hot_d),
                Some(Err(hot_err)),
                "a pair re-queried every rotation never leaves the cache"
            );
        }
        // The untouched churn pairs from early rounds are long gone.
        let (gone_s, gone_d) = pairs[1];
        assert!(cache.lookup(&mesh, gone_s, gone_d).is_none());
    }
}
