//! Stress check of Theorem 1 (RB2 finds the true shortest path) against
//! the BFS oracle, on random dense configurations.
//!
//! Pair filtering follows the paper's methodology reading: endpoints are
//! safe nodes and "the source has the path to the destination" (same
//! healthy component) — whole-mesh connectivity is hopeless at high fault
//! densities (isolated pockets are near-certain), so the per-pair filter
//! is the only reading under which the paper's 3000-fault sweep is
//! non-empty.

use meshpath_mesh::{Coord, FaultInjection, FaultSet, Mesh, Orientation};
use meshpath_route::{oracle::DistanceField, KnowledgeScope, NetView, Rb1, Rb2, Rb3, Router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn rb2_matches_bfs_on_random_meshes() {
    let n = 24;
    let mesh = Mesh::square(n as u32);
    let mut rng = StdRng::seed_from_u64(20070325);
    let mut total = 0u32;
    let mut rb2_opt = 0u32;
    let mut rb2_global_opt = 0u32;
    let mut rb3_opt = 0u32;
    let mut rb1_opt = 0u32;
    let mut rb1_delivered = 0u32;
    let mut examples: Vec<String> = Vec::new();

    for trial in 0..12 {
        // Sweep up to ~25% faults, mirroring the paper's 0..3000 on 100x100.
        let fault_count = 10 + trial * 12;
        let faults = FaultSet::random(mesh, fault_count, FaultInjection::Uniform, &mut rng);
        let net = NetView::build(faults);
        let safe_for = |c: Coord, s: Coord, d: Coord| {
            let o = Orientation::normalizing(s, d);
            net.mccs(o).labeling().status_real(c).is_safe()
        };
        let mut pairs = Vec::new();
        let mut attempts = 0;
        while pairs.len() < 30 && attempts < 20_000 {
            attempts += 1;
            let s = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
            let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
            if s != d && safe_for(s, s, d) && safe_for(d, s, d) {
                pairs.push((s, d));
            }
        }
        for (s, d) in pairs {
            let field = DistanceField::healthy(net.faults(), d);
            if !field.reachable(s) {
                continue; // source has no path to the destination
            }
            let opt = field.dist(s);
            total += 1;
            let rb2 = Rb2::default().route(&net, s, d);
            assert!(rb2.delivered, "RB2 undelivered {s:?}->{d:?} trial {trial}");
            if rb2.hops() == opt {
                rb2_opt += 1;
            } else if examples.len() < 8 {
                examples.push(format!(
                    "trial {trial} ({fault_count} faults) {s:?}->{d:?}: RB2 {} vs opt {opt} \
                     (replans {}, fallbacks {})",
                    rb2.hops(),
                    rb2.replans,
                    rb2.fallbacks
                ));
            }
            let rb2g = Rb2 { scope: KnowledgeScope::Global }.route(&net, s, d);
            if rb2g.delivered && rb2g.hops() == opt {
                rb2_global_opt += 1;
            } else if examples.len() < 8 {
                examples.push(format!(
                    "GLOBAL trial {trial} ({fault_count} faults) {s:?}->{d:?}: RB2g {} vs opt {opt}",
                    rb2g.hops(),
                ));
            }
            let rb3 = Rb3::default().route(&net, s, d);
            if rb3.delivered && rb3.hops() == opt {
                rb3_opt += 1;
            }
            let rb1 = Rb1::default().route(&net, s, d);
            if rb1.delivered {
                rb1_delivered += 1;
                if rb1.hops() == opt {
                    rb1_opt += 1;
                }
            }
        }
    }
    // Summary chatter is MESHPATH_LOG=info opt-in; the assertions
    // below are what the test is for.
    if meshpath_obs::enabled(meshpath_obs::LogLevel::Info) {
        eprintln!(
            "pairs={total} RB2 opt={rb2_opt} ({:.1}%) RB2-global opt={rb2_global_opt} ({:.1}%) \
             RB3 opt={rb3_opt} ({:.1}%) RB1 opt={rb1_opt} ({:.1}%) RB1 delivered={rb1_delivered}",
            100.0 * rb2_opt as f64 / total as f64,
            100.0 * rb2_global_opt as f64 / total as f64,
            100.0 * rb3_opt as f64 / total as f64,
            100.0 * rb1_opt as f64 / total as f64,
        );
        for e in &examples {
            eprintln!("  miss: {e}");
        }
    }
    assert!(total > 200, "pair filter too strict: only {total} pairs");
    // Paper's Fig. 5(d): RB2 = 100%, RB3 > 95%, RB1 > 75%.
    assert_eq!(rb2_global_opt, total, "RB2 with global knowledge must be optimal");
    assert!(
        rb2_opt as f64 >= 0.99 * total as f64,
        "local-knowledge RB2 must be (near-)optimal: {rb2_opt}/{total}"
    );
}
