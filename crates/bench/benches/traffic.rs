//! Traffic-simulator hot loop: cycles of wormhole switching under load,
//! per routing function; the per-hop decision path (route-table lookup
//! + VC-class choice) in isolation; and the path-compilation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meshpath::prelude::*;
use meshpath::traffic::{
    run_traffic, EscapeHop, HopDecision, HopRouter, PacketState, PathTable, RouteHandle,
    RoutingKind, SimConfig, VcClass,
};
use meshpath_bench::fixture_network;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // A 16x16 mesh at ~3% faults: the example's operating point.
    let net = fixture_network_16(8, 21);

    let cfg =
        SimConfig { rate: 0.02, warmup: 50, measure: 300, drain: 600, ..SimConfig::default() };

    let mut g = c.benchmark_group("traffic_sim");
    g.sample_size(10);
    for kind in [RoutingKind::Xy, RoutingKind::Rb2] {
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &kind| {
            b.iter(|| {
                let stats = run_traffic(black_box(&net), kind, &cfg);
                black_box(stats.measured_delivered)
            })
        });
    }
    g.finish();

    // The per-hop decision path: what the fabric pays per parked head
    // per cycle. Every packet keeps its route handle across iterations,
    // as the fabric's state pool keeps it across the cycles a head
    // waits, so past the first pass a decision is array reads. Four
    // variants: no reserved escape channel (arena read + shift),
    // two reserved with a fresh head (adaptive candidate only), with
    // a stalled head (adds the prefix-count XY clearance and the tree
    // next hop), and committed to the tree class (interval labels only).
    let mut g = c.benchmark_group("hop_decision");
    let pairs: Vec<(Coord, Coord)> =
        (0..16).map(|i| (Coord::new(i % 4, i % 16), Coord::new(15 - i % 3, 15 - i % 5))).collect();
    let mk_packets = |router: &mut dyn HopRouter| -> Vec<(PacketState, RouteHandle)> {
        let faults = net.faults();
        pairs
            .iter()
            .filter(|&&(s, d)| {
                s != d
                    && faults.is_healthy(s)
                    && faults.is_healthy(d)
                    && router.admit(s, d).is_some()
            })
            .map(|&(s, d)| {
                let mut pk = PacketState::new(s, d, 0, 4);
                pk.head_hop = 1; // mid-route, as the allocator sees it
                (pk, RouteHandle::UNRESOLVED)
            })
            .collect()
    };
    let decide_all = |hop: &mut dyn HopRouter, packets: &mut [(PacketState, RouteHandle)]| {
        let mut acc = 0u32;
        for (pk, route) in packets {
            let here = pk.src; // head parked one hop in; src still routes
            let mut pk = *pk;
            acc ^= match hop.decide(black_box(here), black_box(&mut pk), route) {
                HopDecision::Route(c) => c.len() as u32,
                HopDecision::Eject => 0,
            };
        }
        acc
    };
    g.bench_function("replay", |b| {
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let mut hop = EscapeHop::new(&mut paths, 4, 0);
        let mut packets = mk_packets(&mut hop);
        b.iter(|| black_box(decide_all(&mut hop, &mut packets)))
    });
    for (name, stalled, mode) in [
        ("escape_fresh", 0u32, VcClass::Adaptive),
        ("escape_stalled", 100, VcClass::Adaptive),
        ("escape_tree", 0, VcClass::EscapeTree),
    ] {
        g.bench_function(name, |b| {
            let mut paths = PathTable::new(&net, RoutingKind::Rb2);
            let mut hop = EscapeHop::new(&mut paths, 4, 2);
            let mut packets = mk_packets(&mut hop);
            for (pk, _) in &mut packets {
                pk.stalled = stalled;
                pk.mode = mode;
            }
            b.iter(|| black_box(decide_all(&mut hop, &mut packets)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("path_compile");
    g.sample_size(10);
    let big = fixture_network(240, 9);
    for kind in [RoutingKind::ECube, RoutingKind::Rb2, RoutingKind::Rb3] {
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &kind| {
            b.iter(|| {
                let mut t = PathTable::new(black_box(&big), kind);
                let mut delivered = 0u32;
                for x in 0..8 {
                    let s = Coord::new(x, 0);
                    let d = Coord::new(39 - x, 39);
                    delivered += u32::from(t.path(s, d).is_some());
                }
                black_box(delivered)
            })
        });
    }
    g.finish();
}

/// A 16x16 network (the standard fixtures are 40x40).
fn fixture_network_16(faults: usize, seed: u64) -> NetView {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mesh = Mesh::square(16);
    let mut rng = StdRng::seed_from_u64(seed);
    NetView::build(FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng))
}

criterion_group!(benches, bench);
criterion_main!(benches);
