//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * hybrid vs strict Eq.-3 planning (quality-affecting; here we measure
//!   the planning-time cost),
//! * local vs global knowledge scope,
//! * adaptive tie-break policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meshpath::info::ModelKind;
use meshpath::prelude::*;
use meshpath::route::oracle::FloodScratch;
use meshpath::route::seq::Planner;
use meshpath_bench::{fixture_network, fixture_pairs};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let net = fixture_network(240, 9);
    let pairs = fixture_pairs(&net, 12, 10);

    let mut g = c.benchmark_group("planner_variants");
    g.sample_size(20);
    g.bench_function("hybrid", |b| {
        let p = Planner::new(&net, ModelKind::B2, KnowledgeScope::Local);
        let mut flood = FloodScratch::default();
        b.iter(|| {
            for &(s, d) in &pairs {
                black_box(p.plan(s, d, &Default::default(), &mut flood));
            }
        })
    });
    g.bench_function("strict_eq3", |b| {
        let p = Planner::new_strict(&net, ModelKind::B2, KnowledgeScope::Local);
        let mut flood = FloodScratch::default();
        b.iter(|| {
            for &(s, d) in &pairs {
                black_box(p.plan(s, d, &Default::default(), &mut flood));
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("knowledge_scope");
    g.sample_size(20);
    for (name, scope) in [("local", KnowledgeScope::Local), ("global", KnowledgeScope::Global)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &scope, |b, &scope| {
            let router = Rb2 { scope, ..Default::default() };
            b.iter(|| {
                for &(s, d) in &pairs {
                    black_box(router.route(&net, s, d).hops());
                }
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("adaptive_policy");
    g.sample_size(20);
    for (name, policy) in [
        ("longer_first", AdaptivePolicy::LongerFirst),
        ("prefer_x", AdaptivePolicy::PreferX),
        ("prefer_y", AdaptivePolicy::PreferY),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &policy, |b, &policy| {
            let router = Rb2 { policy, ..Default::default() };
            b.iter(|| {
                for &(s, d) in &pairs {
                    black_box(router.route(&net, s, d).hops());
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
