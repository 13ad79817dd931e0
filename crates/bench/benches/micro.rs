//! Microbenchmarks of the hot primitives: labeling fixpoint, boundary
//! walks, one orientation of a 512x512 B2 build, oracle BFS, network
//! build (40x40 and the 64x64/204-fault service class, with its walks
//! and its B2 model apart), the three costs of a cold RB2 plan (feasible, blocked, fallback flood), the
//! two of an Algorithm-2 phase (re-keying the critical set, one decision
//! on it), and the whole cold route (direct pairs, blocked pairs, 1024
//! hops of the phase loop). CI runs this bench in `--test` smoke mode so
//! it cannot rot.

use criterion::{criterion_group, criterion_main, Criterion};
use meshpath::fault::{BorderPolicy, Labeling, MccSet};
use meshpath::info::{BoundarySet, ModelKind};
use meshpath::prelude::*;
use meshpath::route::alg2::{self, CriticalSet, PhaseCtx};
use meshpath::route::oracle::FloodScratch;
use meshpath::route::seq::{Plan, Planner};
use meshpath_bench::{fixture_faults, fixture_network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Plans (re-keys, decisions) per measured iteration of the `plan_*`,
/// `fallback_flood` and `alg2_*` rows.
const PLAN_BATCH: usize = 64;

/// The cold-path reference network of meshbench's `svc_cold` class
/// (64x64, 204 uniform faults), with [`PLAN_BATCH`]
/// healthy pairs whose RB2 plan is `Direct` and as many whose plan is not
/// (waypoints or a forced path).
fn cold_plan_fixture() -> (NetView, [Vec<(Coord, Coord)>; 2]) {
    let mesh = Mesh::square(64);
    let mut rng = StdRng::seed_from_u64(0xc01d);
    let faults = FaultSet::random(mesh, mesh.len() / 20, FaultInjection::Uniform, &mut rng);
    let net = NetView::build(faults);
    let healthy: Vec<Coord> = mesh.iter().filter(|&c| net.faults().is_healthy(c)).collect();
    let planner = Planner::new(&net, ModelKind::B2, KnowledgeScope::Local);
    let mut flood = FloodScratch::default();
    let (mut direct, mut blocked) = (Vec::new(), Vec::new());
    while direct.len() < PLAN_BATCH || blocked.len() < PLAN_BATCH {
        let s = healthy[rng.gen_range(0..healthy.len())];
        let d = healthy[rng.gen_range(0..healthy.len())];
        let class = match planner.plan(s, d, &Default::default(), &mut flood).0 {
            Plan::Direct => &mut direct,
            _ => &mut blocked,
        };
        if s != d && class.len() < PLAN_BATCH {
            class.push((s, d));
        }
    }
    (net, [direct, blocked])
}

fn bench(c: &mut Criterion) {
    let fs = fixture_faults(240, 8);

    c.bench_function("labeling_fixpoint_40x40_240f", |b| {
        b.iter(|| {
            let lab = Labeling::compute(black_box(&fs), Orientation::IDENTITY, BorderPolicy::Open);
            black_box(lab.unsafe_count())
        })
    });

    let set = MccSet::build(&fs, Orientation::IDENTITY, BorderPolicy::Open);
    c.bench_function("boundary_walks_40x40_240f", |b| {
        b.iter(|| {
            let bounds = BoundarySet::build(black_box(&set));
            black_box(bounds.iter().count())
        })
    });

    // One orientation of a large-mesh build (0.25 % faults): the boundary
    // walks and the B2 broadcast over 262 144 nodes.
    let big = {
        let mut rng = StdRng::seed_from_u64(1);
        let faults = FaultSet::random(Mesh::square(512), 655, FaultInjection::Uniform, &mut rng);
        MccSet::build(&faults, Orientation::IDENTITY, BorderPolicy::Open)
    };
    c.bench_function("info_b2_512x512_655f", |b| {
        b.iter(|| {
            let bounds = BoundarySet::build(black_box(&big));
            let model = InfoModel::build_with(&big, &bounds, ModelKind::B2);
            black_box(model.stats().involved_nodes)
        })
    });

    c.bench_function("oracle_bfs_40x40", |b| {
        b.iter(|| {
            let f = DistanceField::healthy(black_box(&fs), Coord::new(39, 39));
            black_box(f.dist(Coord::new(0, 0)))
        })
    });

    c.bench_function("network_build_40x40_240f", |b| {
        b.iter(|| {
            let net = NetView::build(black_box(fs.clone()));
            black_box(net.mccs(Orientation::IDENTITY).len())
        })
    });

    let net = fixture_network(240, 8);
    c.bench_function("rb2_route_40x40", |b| {
        b.iter(|| {
            let res = Rb2::default().route(black_box(&net), Coord::new(1, 1), Coord::new(38, 36));
            black_box(res.hops())
        })
    });

    let (cold, [direct, blocked]) = cold_plan_fixture();
    // The same two layers, and the whole build, on meshbench's `svc_cold`
    // net class (64x64, 204 faults): what a service publication pays.
    let cold_faults = cold.faults().clone();
    let cold_set = MccSet::build(&cold_faults, Orientation::IDENTITY, BorderPolicy::Open);
    let cold_bounds = BoundarySet::build(&cold_set);
    c.bench_function("boundary_walks_64x64_204f", |b| {
        b.iter(|| {
            let bounds = BoundarySet::build(black_box(&cold_set));
            black_box(bounds.iter().count())
        })
    });
    c.bench_function("info_b2_64x64_204f", |b| {
        b.iter(|| {
            let model = InfoModel::build_with(&cold_set, black_box(&cold_bounds), ModelKind::B2);
            black_box(model.stats().involved_nodes)
        })
    });
    c.bench_function("network_build_64x64_204f", |b| {
        b.iter(|| {
            let net = NetView::build(black_box(cold_faults.clone()));
            black_box(net.mccs(Orientation::IDENTITY).len())
        })
    });

    let mesh = cold.mesh();
    let planner = Planner::new(&cold, ModelKind::B2, KnowledgeScope::Local);
    let mut flood = FloodScratch::default();
    for (name, pairs) in
        [("plan_direct_64x64_204f", &direct), ("plan_blocked_64x64_204f", &blocked)]
    {
        c.bench_function(name, |b| {
            b.iter(|| {
                for &(s, d) in pairs {
                    black_box(planner.plan(s, d, &Default::default(), &mut flood));
                }
            })
        });
    }
    // The whole cold RB2 route over the same pairs, scratch reused as the
    // service's miss path reuses it.
    let rb2 = Rb2::default();
    let mut state = HopState::new(direct[0].0);
    for (name, pairs) in
        [("rb2_route_64x64_204f/direct", &direct), ("rb2_route_64x64_204f/blocked", &blocked)]
    {
        c.bench_function(name, |b| {
            b.iter(|| {
                for &(s, d) in pairs {
                    black_box(rb2.route_with(&cold, s, d, &mut state).hops());
                }
            })
        });
    }
    // In-phase hops: 16 routes of exactly 64 hops, each one or two clean
    // Manhattan phases, so an iteration is 1024 hops of the phase loop
    // plus 16 `Direct` plans and the routes' re-keys (~1.5 each).
    let long: Vec<(Coord, Coord)> = {
        let mut rng = StdRng::seed_from_u64(0x10c);
        let healthy: Vec<Coord> = mesh.iter().filter(|&c| cold.faults().is_healthy(c)).collect();
        std::iter::repeat_with(|| {
            (healthy[rng.gen_range(0..healthy.len())], healthy[rng.gen_range(0..healthy.len())])
        })
        .filter(|&(s, d)| {
            s.manhattan(d) == 64 && {
                let res = rb2.route(&cold, s, d);
                (res.hops(), res.replans, res.detour_hops) == (64, 0, 0)
            }
        })
        .take(16)
        .collect()
    };
    c.bench_function("phase_run_64x64_204f", |b| {
        b.iter(|| {
            for &(s, d) in &long {
                black_box(rb2.route_with(&cold, s, d, &mut state).hops());
            }
        })
    });
    c.bench_function("fallback_flood_64x64_204f", |b| {
        b.iter(|| {
            for &(s, d) in &blocked {
                let o = Orientation::normalizing(s, d);
                black_box(planner.fallback(s, d, o, &Default::default(), &mut flood));
            }
        })
    });

    // Algorithm 2 at the source of each `Direct` pair, as RB2's first
    // hop sees it: the phase context and the oriented endpoints.
    let phases: Vec<(PhaseCtx<'_>, Coord, Coord)> = direct
        .iter()
        .map(|&(s, d)| {
            let o = Orientation::normalizing(s, d);
            let (set, model) = (cold.mccs(o), cold.model(o, ModelKind::B2));
            let ctx = PhaseCtx { set, model, scope: KnowledgeScope::Local };
            (ctx, o.apply(mesh, s), o.apply(mesh, d))
        })
        .collect();
    let mut critical = CriticalSet::default();
    c.bench_function("alg2_retarget_64x64_204f", |b| {
        b.iter(|| {
            for (ctx, _, ot) in &phases {
                critical.clear();
                critical.retarget(ctx, *ot);
            }
            black_box(&critical);
        })
    });
    let mut keyed: Vec<CriticalSet> = phases
        .iter()
        .map(|(ctx, _, ot)| {
            let mut critical = CriticalSet::default();
            critical.retarget(ctx, *ot);
            critical
        })
        .collect();
    c.bench_function("alg2_step_64x64_204f", |b| {
        b.iter(|| {
            for ((ctx, ou, ot), critical) in phases.iter().zip(&mut keyed) {
                black_box(alg2::decide(ctx, *ou, *ot, AdaptivePolicy::default(), None, critical));
            }
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
