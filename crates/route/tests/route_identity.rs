//! Route-identity goldens: hashes over everything a [`RouteResult`]
//! carries (`path`, `delivered`, `replans`, `fallbacks`, `detour_hops`)
//! on seeded 24/32/64-wide networks at 5 % and 10 % faults, and on two
//! meshes whose rows span more than one 64-bit word (96x40 at 5 %,
//! 130x70 at 10 %), one pair of constants per router group: RB2 and RB3
//! together, RB1, E-cube. They pin every route-layer speedup to
//! bit-identical routes. A change of routing behaviour on purpose
//! regenerates the group it moves (the failure message prints the new
//! value) and says so. The RB2/RB3 and RB1 constants were split out of
//! one RB1/RB2/RB3 hash at the commit before wall walks got their bound;
//! the RB1 and E-cube ones were then re-pinned once, when a walk began
//! to leave its wall only closer to the goal than where it started and
//! a closed orbit became a refusal.

use meshpath_mesh::{components, Coord, FaultInjection, FaultSet, Mesh};
use meshpath_route::{NetView, RouteResult, RoutingKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN_RB2_RB3: u64 = 0xb23f_7a62_1790_b877;
const GOLDEN_RB2_RB3_WIDE: u64 = 0x0d65_aee9_f280_2589;
const GOLDEN_RB1: u64 = 0xc6d0_a5bf_7c44_41fc;
const GOLDEN_RB1_WIDE: u64 = 0xd18a_c941_7bc3_97a2;
const GOLDEN_ECUBE: u64 = 0x1163_9aed_591c_6f0c;
const GOLDEN_ECUBE_WIDE: u64 = 0xfbed_2b76_88ee_a065;

const NETS: [(u32, u32, usize); 6] =
    [(24, 24, 5), (24, 24, 10), (32, 32, 5), (32, 32, 10), (64, 64, 5), (64, 64, 10)];
const NETS_WIDE: [(u32, u32, usize); 2] = [(96, 40, 5), (130, 70, 10)];

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
        self.word(u64::from(r.hops()) + 1);
        for c in r.path() {
            self.word(((c.x as u32 as u64) << 32) | c.y as u32 as u64);
        }
        self.word(u64::from(r.delivered));
        self.word(u64::from(r.replans));
        self.word(u64::from(r.fallbacks));
        self.word(u64::from(r.detour_hops));
    }
}

/// Hashes `PAIRS_PER_NETWORK` seeded same-component pairs routed by
/// each of `kinds` on each `(width, height, fault %)` network.
fn identity_hash(nets: &[(u32, u32, usize)], kinds: &[RoutingKind]) -> u64 {
    let mut hash = Fnv::new();
    let mut routed = 0u32;
    let mut detoured = 0u32;
    for &(width, height, pct) in nets {
        let mesh = Mesh::new(width, height);
        let mut rng = StdRng::seed_from_u64(0x2007_0325 ^ u64::from(width) << 8 ^ pct as u64);
        let faults =
            FaultSet::random(mesh, mesh.len() * pct / 100, FaultInjection::Uniform, &mut rng);
        let (labels, _) = components(&faults);
        let net = NetView::build(faults);
        // Healthy pairs of one component: the service tests cover cut ones.
        let (w, h) = (width as i32, height as i32);
        let mut pairs = Vec::with_capacity(PAIRS_PER_NETWORK);
        while pairs.len() < PAIRS_PER_NETWORK {
            let s = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
            let d = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
            if s != d && labels[s] != u32::MAX && labels[s] == labels[d] {
                pairs.push((s, d));
            }
        }
        for &kind in kinds {
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
    hash.0
}

/// Asserts the hash of `kinds` over `nets` equals `golden`.
fn assert_golden(nets: &[(u32, u32, usize)], kinds: &[RoutingKind], golden: u64) {
    let hash = identity_hash(nets, kinds);
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    assert_eq!(
        hash, golden,
        "route identity changed: {names:?} on {nets:?} now hash to {hash:#018x}"
    );
}

#[test]
fn rb2_rb3_routes_are_bit_identical_to_the_golden() {
    assert_golden(&NETS, &[RoutingKind::Rb2, RoutingKind::Rb3], GOLDEN_RB2_RB3);
    assert_golden(&NETS_WIDE, &[RoutingKind::Rb2, RoutingKind::Rb3], GOLDEN_RB2_RB3_WIDE);
}

#[test]
fn rb1_routes_are_bit_identical_to_the_golden() {
    assert_golden(&NETS, &[RoutingKind::Rb1], GOLDEN_RB1);
    assert_golden(&NETS_WIDE, &[RoutingKind::Rb1], GOLDEN_RB1_WIDE);
}

#[test]
fn ecube_routes_are_bit_identical_to_the_golden() {
    assert_golden(&NETS, &[RoutingKind::ECube], GOLDEN_ECUBE);
    assert_golden(&NETS_WIDE, &[RoutingKind::ECube], GOLDEN_ECUBE_WIDE);
}
