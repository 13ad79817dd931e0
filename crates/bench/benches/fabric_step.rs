//! The fabric stepping hot loop in isolation: cycles/second of
//! `Fabric::step` on a 16x16 mesh at three occupancy regimes —
//! near-idle (the paper-relevant ~2% injection, where the event-driven
//! worklist pays off most), mid-load, and saturated (worst case: every
//! router stays active, so the bitmask allocator carries the load) —
//! and at `loaded_64`, meshbench's `fabric_loaded_64` operating point
//! (64x64, 100 faults, RB2, rate 0.003, one thread: unsaturated but
//! contended, with a working set past the L2) — plus a 64x64 group
//! comparing sequential stepping against the sharded runner at 2 and 4
//! worker threads (`SimConfig::threads`), the single-run multi-core
//! scaling path.
//!
//! Each iteration is one full warmup/measure/drain run over a shared
//! pre-compiled path table, so the timing is stepping + injection, not
//! route compilation. A per-regime header line reports the cycle and
//! flit-hop count of one run; divide by the reported time per
//! iteration for cycles/sec and flit-hops/sec.

use criterion::{criterion_group, criterion_main, Criterion};
use meshpath::prelude::*;
use meshpath::traffic::{PathTable, RoutingKind, SimConfig, TrafficSim, TrafficStats};
use std::hint::black_box;

/// One full run over a reused path table.
fn run(paths: &mut PathTable, cfg: &SimConfig) -> TrafficStats {
    TrafficSim::new(paths, cfg.clone()).try_run_full(&mut ()).expect("no worker panicked").stats
}

fn bench(c: &mut Criterion) {
    // A 16x16 mesh at ~3% faults: the load sweep's operating point.
    let net = fixture_network(16, 8, 21);

    let mut g = c.benchmark_group("fabric_step");
    g.sample_size(10);
    // Injection rates spanning the occupancy regimes. 0.02 is the top
    // of the default low-load sweep; 0.30 is far past saturation, so
    // the fabric runs with every VC contended until the drain deadline.
    let small =
        |rate| SimConfig { rate, warmup: 100, measure: 400, drain: 500, ..SimConfig::default() };
    // meshbench's `fabric_loaded_64` network class, rate and windows.
    let loaded_net = fixture_network(64, 100, 21);
    let loaded = SimConfig {
        rate: 0.003,
        warmup: 100,
        measure: 500,
        drain: 1000,
        threads: 1,
        ..SimConfig::default()
    };
    for (name, net, cfg) in [
        ("low_2pct", &net, small(0.02)),
        ("mid_4pct", &net, small(0.04)),
        ("saturated_30pct", &net, small(0.30)),
        ("loaded_64", &loaded_net, loaded),
    ] {
        let mut paths = PathTable::new(net, RoutingKind::Rb2);
        let probe = run(&mut paths, &cfg);
        println!(
            "fabric_step/{name}: {} cycles, {} flit-hops per run{}",
            probe.cycles,
            probe.flits_moved,
            if probe.saturated || probe.deadlocked { " (saturated)" } else { "" },
        );
        g.bench_function(name, |b| {
            b.iter(|| {
                let stats = run(&mut paths, black_box(&cfg));
                black_box(stats.cycles)
            })
        });
    }
    g.finish();

    // 64x64 sharded vs sequential: the same seeded run at 1, 2 and 4
    // worker threads — bit-identical statistics (asserted below). The
    // time delta is stepping parallelism + per-cycle barrier overhead
    // + per-run route compilation (only the single-shard run reuses
    // `paths` across iterations; shard workers compile private tables
    // each run, so the threads > 1 bars include that setup — unlike
    // the 16x16 group above, this is not pure stepping).
    let net64 = fixture_network(64, 32, 21);
    let mut g = c.benchmark_group("fabric_step_64");
    g.sample_size(10);
    let base =
        SimConfig { rate: 0.02, warmup: 100, measure: 300, drain: 400, ..SimConfig::default() };
    let mut reference = None;
    for threads in [1usize, 2, 4] {
        let mut paths = PathTable::new(&net64, RoutingKind::Rb2);
        let cfg = SimConfig { threads, ..base.clone() };
        let probe = run(&mut paths, &cfg);
        println!(
            "fabric_step_64/threads_{threads}: {} cycles, {} flit-hops per run",
            probe.cycles, probe.flits_moved,
        );
        match &reference {
            None => reference = Some(probe),
            Some(r) => assert_eq!(r, &probe, "sharded stepping must be bit-identical"),
        }
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                let stats = run(&mut paths, black_box(&cfg));
                black_box(stats.cycles)
            })
        });
    }
    g.finish();
}

/// An `n`x`n` network (the standard fixtures are 40x40).
fn fixture_network(n: u32, faults: usize, seed: u64) -> NetView {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mesh = Mesh::square(n);
    let mut rng = StdRng::seed_from_u64(seed);
    NetView::build(FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng))
}

criterion_group!(benches, bench);
criterion_main!(benches);
