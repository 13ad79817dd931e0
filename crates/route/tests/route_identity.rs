//! Route-identity golden: one hash over everything a [`RouteResult`]
//! carries (`path`, `delivered`, `replans`, `fallbacks`, `detour_hops`)
//! for RB1/RB2/RB3 on seeded 24/32/64-wide networks at 5 % and 10 %
//! faults. The constant was generated at the commit *before* the
//! target-keyed Algorithm-2 exclusions and the early-exit planner BFS
//! landed, so it pins those — and every later route-layer speedup — to
//! bit-identical routes. A PR that changes routing behaviour on purpose
//! regenerates it (the failure message prints the new value) and says
//! so.

use meshpath_mesh::{components, Coord, FaultInjection, FaultSet, Mesh};
use meshpath_route::{NetView, RouteResult, RoutingKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: u64 = 0x0e8a_e76b_923e_6b0c;

const PAIRS_PER_NETWORK: usize = 240;

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &RouteResult) {
        self.word(r.path.len() as u64);
        for c in &r.path {
            self.word(((c.x as u32 as u64) << 32) | c.y as u32 as u64);
        }
        self.word(u64::from(r.delivered));
        self.word(u64::from(r.replans));
        self.word(u64::from(r.fallbacks));
        self.word(u64::from(r.detour_hops));
    }
}

#[test]
fn rb_routes_are_bit_identical_to_the_golden() {
    let mut hash = Fnv::new();
    let mut routed = 0u32;
    let mut detoured = 0u32;
    for (width, pct) in [(24u32, 5usize), (24, 10), (32, 5), (32, 10), (64, 5), (64, 10)] {
        let mesh = Mesh::square(width);
        let mut rng = StdRng::seed_from_u64(0x2007_0325 ^ u64::from(width) << 8 ^ pct as u64);
        let faults =
            FaultSet::random(mesh, mesh.len() * pct / 100, FaultInjection::Uniform, &mut rng);
        let (labels, _) = components(&faults);
        let net = NetView::build(faults);
        // Healthy pairs of one component: a cut pair only burns the hop
        // budget, which the service tests cover.
        let n = width as i32;
        let mut pairs = Vec::with_capacity(PAIRS_PER_NETWORK);
        while pairs.len() < PAIRS_PER_NETWORK {
            let s = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
            let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
            if s != d && labels[s] != u32::MAX && labels[s] == labels[d] {
                pairs.push((s, d));
            }
        }
        for kind in [RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3] {
            let router = kind.router();
            for &(s, d) in &pairs {
                let res = router.route(&net, s, d);
                routed += 1;
                detoured += u32::from(res.hops() > s.manhattan(d));
                hash.result(&res);
            }
        }
    }
    // The sample must exercise the blocked machinery, not only Manhattan walks.
    assert!(detoured * 20 > routed, "only {detoured} of {routed} routes left the rectangle");
    assert_eq!(
        hash.0, GOLDEN,
        "route identity changed: {routed} RB1/RB2/RB3 routes now hash to {:#018x}",
        hash.0
    );
}
