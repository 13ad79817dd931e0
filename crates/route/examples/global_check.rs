//! Verification run: RB2 with idealized global knowledge against the BFS
//! oracle at paper scale (100x100, high fault counts).

use meshpath_mesh::{Coord, FaultInjection, FaultSet, Mesh, Orientation};
use meshpath_route::{oracle::DistanceField, KnowledgeScope, NetView, Rb2, Router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 100;
    let mesh = Mesh::square(n as u32);
    let mut grand_total = 0u32;
    let mut grand_opt = 0u32;
    for faults in [1000usize, 2000, 3000] {
        let mut total = 0u32;
        let mut optimal = 0u32;
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7919 + faults as u64);
            let fs = FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng);
            let net = NetView::build(fs);
            let router = Rb2 { scope: KnowledgeScope::Global };
            let mut routed = 0;
            let mut attempts = 0;
            while routed < 40 && attempts < 40_000 {
                attempts += 1;
                let s = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
                let o = Orientation::normalizing(s, d);
                let lab = net.mccs(o).labeling();
                if s == d || lab.status_real(s).is_unsafe() || lab.status_real(d).is_unsafe() {
                    continue;
                }
                let field = DistanceField::healthy(net.faults(), d);
                if !field.reachable(s) {
                    continue;
                }
                routed += 1;
                total += 1;
                let res = router.route(&net, s, d);
                if res.delivered && res.hops() == field.dist(s) {
                    optimal += 1;
                }
            }
        }
        grand_total += total;
        grand_opt += optimal;
        println!(
            "faults={faults}: RB2(global) optimal {optimal}/{total} ({:.1}%)",
            100.0 * f64::from(optimal) / f64::from(total)
        );
    }
    println!(
        "overall: {grand_opt}/{grand_total} ({:.2}%)",
        100.0 * f64::from(grand_opt) / f64::from(grand_total)
    );
}
