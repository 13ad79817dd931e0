//! Ablation: shortest-path success of the planner variants.
//!
//! * `strict`  — the paper's literal Eq. 1-5 machinery only;
//! * `hybrid`  — Eq. 1-5 plus the BFS-over-known-faults refinement
//!   (the default);
//! * `global`  — hybrid with idealized global knowledge.
//!
//! Results are quoted in EXPERIMENTS.md.

use meshpath_info::ModelKind;
use meshpath_mesh::{Coord, FaultInjection, FaultSet, FxHashSet, Mesh, Orientation};
use meshpath_route::oracle::{DistanceField, FloodScratch};
use meshpath_route::seq::{Plan, Planner};
use meshpath_route::{KnowledgeScope, NetView, Rb2, Router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 40;
    let mesh = Mesh::square(n as u32);
    println!("faults  pairs  strict-plan-opt%  hybrid-walk-opt%  global-walk-opt%");
    for faults in [80usize, 160, 240, 320, 400] {
        let mut pairs_n = 0u32;
        let mut strict_opt = 0u32;
        let mut hybrid_opt = 0u32;
        let mut global_opt = 0u32;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed + faults as u64 * 31);
            let fs = FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng);
            let net = NetView::build(fs);
            let strict = Planner::new_strict(&net, ModelKind::B2, KnowledgeScope::Global);
            let mut flood = FloodScratch::default();
            let mut routed = 0;
            let mut attempts = 0;
            while routed < 20 && attempts < 20_000 {
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
                pairs_n += 1;
                let opt = u64::from(field.dist(s));
                // Strict: does the Eq.1-5 *estimate* equal the optimum?
                let (_, stats) = strict.plan(s, d, &FxHashSet::default(), &mut flood);
                let est = match strict.plan(s, d, &FxHashSet::default(), &mut flood).0 {
                    Plan::Direct => Some(u64::from(s.manhattan(d))),
                    _ => stats.estimate,
                };
                if est == Some(opt) {
                    strict_opt += 1;
                }
                let hy = Rb2::default().route(&net, s, d);
                if hy.delivered && u64::from(hy.hops()) == opt {
                    hybrid_opt += 1;
                }
                let gl =
                    Rb2 { scope: KnowledgeScope::Global, ..Default::default() }.route(&net, s, d);
                if gl.delivered && u64::from(gl.hops()) == opt {
                    global_opt += 1;
                }
            }
        }
        println!(
            "{faults:6}  {pairs_n:5}  {:16.1}  {:16.1}  {:16.1}",
            100.0 * f64::from(strict_opt) / f64::from(pairs_n),
            100.0 * f64::from(hybrid_opt) / f64::from(pairs_n),
            100.0 * f64::from(global_opt) / f64::from(pairs_n),
        );
    }
}
