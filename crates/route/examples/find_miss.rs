//! Development search harness: scans random configurations for routing
//! anomalies (suboptimal RB2-global or undelivered RB1) and prints the
//! smallest found grid for debugging.

use meshpath_mesh::{Coord, FaultInjection, FaultSet, Mesh, Orientation};
use meshpath_route::{oracle::DistanceField, KnowledgeScope, NetView, Rb1, Rb2, Router};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 14;
    let mesh = Mesh::square(n as u32);
    'outer: for seed in 0..3000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let faults = FaultSet::random(mesh, 36, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        let safe_for = |c: Coord, s: Coord, d: Coord| {
            let o = Orientation::normalizing(s, d);
            net.mccs(o).labeling().status_real(c).is_safe()
        };
        for sx in 0..n {
            for sy in 0..n {
                for dx in 0..n {
                    for dy in 0..n {
                        let s = Coord::new(sx, sy);
                        let d = Coord::new(dx, dy);
                        if s == d || !safe_for(s, s, d) || !safe_for(d, s, d) {
                            continue;
                        }
                        let field = DistanceField::healthy(net.faults(), d);
                        if !field.reachable(s) {
                            continue;
                        }
                        let rb1 = Rb1::default().route(&net, s, d);
                        let rb2g = Rb2 { scope: KnowledgeScope::Global }.route(&net, s, d);
                        let bad_rb1 = !rb1.delivered;
                        let bad_rb2 = !rb2g.delivered || rb2g.hops() != field.dist(s);
                        if bad_rb1 || bad_rb2 {
                            println!(
                    "seed={seed} s={s:?} d={d:?} rb1(del={} hops={}) rb2g(del={} hops={}) opt={}",
                    rb1.delivered, rb1.hops(), rb2g.delivered, rb2g.hops(), field.dist(s)
                );
                            let shown: Vec<Coord> =
                                if bad_rb1 { &rb1 } else { &rb2g }.path().collect();
                            for y in (0..n).rev() {
                                let mut row = String::new();
                                for x in 0..n {
                                    let c = Coord::new(x, y);
                                    let ch = if net.faults().is_faulty(c) {
                                        '#'
                                    } else if c == s {
                                        'S'
                                    } else if c == d {
                                        'D'
                                    } else if shown.contains(&c) {
                                        '*'
                                    } else {
                                        '.'
                                    };
                                    row.push(ch);
                                }
                                println!("{y:2} {row}");
                            }
                            println!(
                                "tail of path: {:?}",
                                &shown[shown.len().saturating_sub(30)..]
                            );
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    println!("search done");
}
