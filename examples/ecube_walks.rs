//! E-cube's route-length tail: `ECube.route` over the ordered pairs of
//! the largest healthy component, per seeded uniform fault draw.
//!
//! The draws are the load sweep's (`derive_seed(0x6e6f_6321, draw, 0)`),
//! so on 16x16 draw 0 at 8 faults and draw 1 at 25 are the nets of the
//! full `traffic_saturation` run. 64x64 keeps every 7th pair. Each row
//! gives the share of pairs longer than 4(w+h) hops, the longest route
//! and the pairs refused: E-cube is defined on the block model, and a
//! pair its walk cannot reach there is refused. Asserts that no route,
//! delivered or refused, reaches the hop budget (8 hops a node).
//!
//! Usage: `ecube_walks [--quick]` (`--quick`: the 16x16 rows only).

use std::cmp::Reverse;
use std::collections::BTreeMap;

use meshpath::mesh::derive_seed;
use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let mut nets = vec![(16u32, 8usize, 1usize), (16, 25, 1)];
    if !quick {
        nets.extend([(64, 100, 7), (64, 204, 7)]);
    }
    println!("mesh   faults draw  pairs    > 4(w+h)  max hops  refused");
    for (side, faults, stride) in nets {
        for draw in 0..2u64 {
            let mut frng = StdRng::seed_from_u64(derive_seed(0x6e6f_6321, draw, 0));
            let mesh = Mesh::square(side);
            let net =
                NetView::build(FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut frng));
            let (pairs, over, max, refused) = tail(&net, stride, 8 * side);
            println!(
                "{side}x{side} {faults:>6} {draw:>4} {pairs:>8} {:>7.2} % {max:>9} {refused:>8}",
                100.0 * over as f64 / pairs as f64
            );
        }
    }
}

/// E-cube over every `stride`-th ordered pair of `net`'s largest healthy
/// component: the pairs routed, those longer than `bound` hops, the
/// longest delivered route and the pairs refused.
///
/// # Panics
/// Panics when a route, delivered or refused, reaches the hop budget.
fn tail(net: &NetView, stride: usize, bound: u32) -> (u64, u64, u32, u64) {
    let healthy: Vec<Coord> = net.mesh().iter().filter(|&c| net.faults().is_healthy(c)).collect();
    let mut sizes = BTreeMap::new();
    for &c in &healthy {
        *sizes.entry(net.component_of(c)).or_insert(0usize) += 1;
    }
    let largest = sizes.iter().max_by_key(|&(&l, &n)| (n, Reverse(l))).expect("a healthy node");
    let comp: Vec<Coord> =
        healthy.into_iter().filter(|&c| net.component_of(c) == *largest.0).collect();
    let router = RoutingKind::ECube.router();
    let budget = 8 * net.mesh().len() as u32;
    let (mut pairs, mut over, mut max, mut refused) = (0, 0, 0, 0);
    let ordered = comp.iter().flat_map(|&s| comp.iter().map(move |&d| (s, d)));
    for (s, d) in ordered.filter(|(s, d)| s != d).step_by(stride) {
        pairs += 1;
        let r = router.route(net, s, d);
        assert!(r.hops() < budget, "{s:?}->{d:?} ran {} hops, the whole budget", r.hops());
        if !r.delivered {
            refused += 1;
        } else {
            max = max.max(r.hops());
            over += u64::from(r.hops() > bound);
        }
    }
    (pairs, over, max, refused)
}
