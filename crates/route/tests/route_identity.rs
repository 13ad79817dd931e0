//! Route-identity golden: one hash over everything a [`RouteResult`]
//! carries (`path`, `delivered`, `replans`, `fallbacks`, `detour_hops`)
//! for RB1/RB2/RB3 on seeded 24/32/64-wide networks at 5 % and 10 %
//! faults. The constant was generated at the commit *before* the
//! target-keyed Algorithm-2 exclusions and the early-exit planner BFS
//! landed, so it pins those — and every later route-layer speedup — to
//! bit-identical routes. A second constant does the same for two meshes
//! whose rows span more than one 64-bit word. A PR that changes routing
//! behaviour on purpose regenerates them (the failure message prints the
//! new value) and says so: both were regenerated once when Algorithm 2's
//! step 3 became one tie-break (`+X` first unless a triple is critical for
//! the phase's target). Two more constants hash E-cube over the same nets
//! and pairs; they were generated at the commit *before* the routers'
//! wall-following moved into one `HopState::wall_step`.

use meshpath_mesh::{components, Coord, FaultInjection, FaultSet, Mesh};
use meshpath_route::{NetView, RouteResult, RoutingKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: u64 = 0xdff2_d21f_1b95_3f6d;

/// The same hash over two meshes wider than one 64-bit row word (96x40
/// at 5 %, 130x70 at 10 %), generated at the commit *before* the
/// word-parallel feasibility fill and the goal-directed fallback flood
/// landed: it pins the multi-word row path to the scalar planner's routes.
const GOLDEN_WIDE: u64 = 0x32d9_e888_ac06_95bc;

/// E-cube over the nets and pairs of [`GOLDEN`] / [`GOLDEN_WIDE`].
const GOLDEN_ECUBE: u64 = 0x2d54_304b_dade_40f8;
const GOLDEN_ECUBE_WIDE: u64 = 0x7754_40f2_6d4a_985c;

const NETS: [(u32, u32, usize); 6] =
    [(24, 24, 5), (24, 24, 10), (32, 32, 5), (32, 32, 10), (64, 64, 5), (64, 64, 10)];
const NETS_WIDE: [(u32, u32, usize); 2] = [(96, 40, 5), (130, 70, 10)];
const RB: [RoutingKind; 3] = [RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3];

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
        // Healthy pairs of one component: a cut pair only burns the hop
        // budget, which the service tests cover.
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

#[test]
fn rb_routes_are_bit_identical_to_the_golden() {
    let hash = identity_hash(&NETS, &RB);
    assert_eq!(hash, GOLDEN, "route identity changed: RB1/RB2/RB3 routes now hash to {hash:#018x}");
}

#[test]
fn rb_routes_on_meshes_wider_than_a_row_word_are_bit_identical_to_the_golden() {
    let hash = identity_hash(&NETS_WIDE, &RB);
    assert_eq!(
        hash, GOLDEN_WIDE,
        "route identity changed on the wide nets: RB1/RB2/RB3 routes now hash to {hash:#018x}"
    );
}

#[test]
fn ecube_routes_are_bit_identical_to_the_golden() {
    let hash = identity_hash(&NETS, &[RoutingKind::ECube]);
    assert_eq!(
        hash, GOLDEN_ECUBE,
        "route identity changed: E-cube routes now hash to {hash:#018x}"
    );
    let hash = identity_hash(&NETS_WIDE, &[RoutingKind::ECube]);
    assert_eq!(
        hash, GOLDEN_ECUBE_WIDE,
        "route identity changed on the wide nets: E-cube routes now hash to {hash:#018x}"
    );
}
