//! Golden-equivalence suite for the workload subsystem.
//!
//! Two properties, both proptest-pinned:
//!
//! * **Trace round-trip** — recording any seeded synthetic run and
//!   replaying the trace through [`TraceSource`] reproduces the
//!   original [`TrafficStats`] bit-identically, at every shard count,
//!   and re-recording the replay reproduces the trace itself.
//! * **DAG determinism** — a flow-DAG run (stats, per-flow completion
//!   cycles, critical path — the whole `WorkloadOutcome`) is
//!   bit-identical at 1/2/4 shards, even though the DAG scheduler's
//!   delivery feedback crosses the coordinator boundary every cycle.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use meshpath_mesh::{Coord, FaultInjection, FaultSet, Mesh};
use meshpath_route::NetView;
use meshpath_traffic::{
    PathTable, RoutingKind, RunOutput, SimConfig, TraceEntry, TrafficSim, WorkloadSource, NO_FLOW,
};
use meshpath_workload::{DagSpec, FlowDag, FlowSpec, TraceSource, WorkloadSpec};

fn base_cfg(seed: u64, rate: f64) -> SimConfig {
    SimConfig { rate, seed, warmup: 20, measure: 100, drain: 600, ..SimConfig::default() }
}

fn run_sim(
    net: &NetView,
    kind: RoutingKind,
    cfg: &SimConfig,
    source: Option<Box<dyn WorkloadSource>>,
) -> RunOutput {
    let mut paths = PathTable::new(net, kind);
    let mut sim = TrafficSim::new(&mut paths, cfg.clone());
    if let Some(source) = source {
        sim = sim.with_workload(source);
    }
    sim.try_run_full(&mut ()).expect("no worker panicked")
}

fn net_with_faults(side: u32, faults: usize, seed: u64) -> NetView {
    let mesh = Mesh::square(side);
    let mut rng = StdRng::seed_from_u64(seed);
    NetView::build(FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut rng))
}

/// A layered DAG over the mesh corners and edges: `layers` waves where
/// every flow depends on the two flows "above" it in the previous
/// layer — enough fan-in/fan-out to make release order and the
/// critical path non-trivial.
fn layered_dag(net: &NetView, layers: usize, width: usize, len: u32) -> DagSpec {
    let healthy: Vec<Coord> = net.mesh().iter().filter(|&c| net.faults().is_healthy(c)).collect();
    let n = healthy.len();
    let mut flows = Vec::new();
    for layer in 0..layers {
        for w in 0..width {
            let idx = flows.len();
            let src = healthy[(idx * 7 + layer) % n];
            let mut dst = healthy[(idx * 13 + w + n / 2) % n];
            if src == dst {
                dst = healthy[(idx * 13 + w + n / 2 + 1) % n];
            }
            let name = format!("f{layer}_{w}");
            let mut deps = Vec::new();
            if layer > 0 {
                deps.push(format!("f{}_{w}", layer - 1));
                deps.push(format!("f{}_{}", layer - 1, (w + 1) % width));
            }
            flows.push(FlowSpec { name, src, dst, len, deps, earliest: 0 });
        }
    }
    // Dedup deps that collapsed to the same name at width 1.
    for f in &mut flows {
        f.deps.dedup();
    }
    DagSpec { flows }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: record-trace of a seeded synthetic run, replayed
    /// through `TraceSource`, reproduces the identical `TrafficStats`
    /// at 1/2/4 shards — and re-recording the replay reproduces the
    /// trace bit-for-bit.
    #[test]
    fn recorded_traces_replay_bit_identically(
        (rate_ix, faults, seed) in (0usize..3, 0usize..5, 0u64..u64::MAX)
    ) {
        let rate = [0.05, 0.12, 0.25][rate_ix];
        let net = net_with_faults(8, faults, seed ^ 0xface);
        let cfg = base_cfg(seed, rate).with_record_trace();
        let recorded = run_sim(&net, RoutingKind::Rb2, &cfg, None);
        let trace: Vec<TraceEntry> = recorded.trace.clone().expect("record_trace was set");
        let horizon = cfg.warmup + cfg.measure;

        for threads in [1usize, 2, 4] {
            let replay_cfg = SimConfig { threads, record_trace: false, ..cfg.clone() };
            let spec = WorkloadSpec::Trace { entries: trace.clone(), horizon };
            let replayed = run_sim(&net, RoutingKind::Rb2, &replay_cfg, Some(spec.build(&net)));
            prop_assert_eq!(
                &replayed.stats, &recorded.stats,
                "replay diverged at {} threads", threads
            );
        }

        // Re-recording the replay reproduces the trace itself (flow
        // ids aside: synthetic packets record NO_FLOW, replays tag
        // entries with their trace index — so compare the fabric-
        // visible fields).
        let rerecord_cfg = SimConfig { threads: 2, ..cfg.clone() };
        let rerecorded = run_sim(
            &net,
            RoutingKind::Rb2,
            &rerecord_cfg,
            Some(Box::new(TraceSource::new(trace.clone(), horizon))),
        );
        let rerecorded_trace = rerecorded.trace.expect("record_trace was set");
        prop_assert_eq!(rerecorded_trace.len(), trace.len());
        for (a, b) in rerecorded_trace.iter().zip(&trace) {
            prop_assert_eq!(
                (a.cycle, a.src, a.dst, a.len, a.drop),
                (b.cycle, b.src, b.dst, b.len, b.drop)
            );
        }
    }

    /// Tentpole acceptance: a DAG run is deterministic at every shard
    /// count — stats AND the whole `WorkloadOutcome`
    /// (per-flow completion cycles, critical path, abort ledger).
    #[test]
    fn dag_runs_are_bit_identical_across_shard_counts(
        ((layers, width), (len, faults, seed)) in ((1usize..4, 1usize..4), (1u32..7, 0usize..5, 0u64..u64::MAX))
    ) {
        let net = net_with_faults(8, faults, seed);
        let spec = layered_dag(&net, layers, width, len);
        let cfg = base_cfg(seed, 0.0);

        let reference = run_sim(
            &net,
            RoutingKind::Rb2,
            &cfg,
            Some(Box::new(FlowDag::new(spec.clone()).expect("layered DAG is valid"))),
        );
        let ref_outcome = reference.workload.as_ref().expect("workload run");
        // Every flow resolves — delivered, or aborted (a random fault
        // draw can disconnect a corner) with its dependents cascaded.
        prop_assert_eq!(
            (ref_outcome.flows_delivered + ref_outcome.flows_aborted) as usize,
            spec.flows.len()
        );

        for threads in [2usize, 4] {
            let sharded_cfg = SimConfig { threads, ..cfg.clone() };
            let sharded = run_sim(
                &net,
                RoutingKind::Rb2,
                &sharded_cfg,
                Some(Box::new(FlowDag::new(spec.clone()).expect("layered DAG is valid"))),
            );
            prop_assert_eq!(&sharded.stats, &reference.stats,
                "stats diverged at threads={}", threads);
            prop_assert_eq!(sharded.workload.as_ref().expect("workload run"), ref_outcome,
                "outcome diverged at threads={}", threads);
        }
    }
}

/// The DAG completion metrics are self-consistent: completions are
/// (cycle, flow)-sorted, the critical path ends at the last delivery,
/// and the makespan spans first release to last delivery.
#[test]
fn dag_outcome_metrics_are_coherent() {
    let net = net_with_faults(8, 0, 11);
    let spec = layered_dag(&net, 3, 3, 4);
    let cfg = base_cfg(11, 0.0);
    let out = run_sim(
        &net,
        RoutingKind::Rb3,
        &cfg,
        Some(Box::new(FlowDag::new(spec.clone()).expect("valid"))),
    );
    let wl = out.workload.expect("workload run");
    assert_eq!(wl.flows_delivered as usize, spec.flows.len());
    assert_eq!(wl.flows_aborted, 0);
    assert!(wl
        .completions
        .windows(2)
        .all(|w| { (w[0].delivered_at, w[0].flow) <= (w[1].delivered_at, w[1].flow) }));
    let last = wl.completions.last().expect("flows completed");
    assert_eq!(
        wl.critical_path.last().copied(),
        Some(last.flow),
        "critical path ends at the last delivery"
    );
    assert!(wl.critical_path.len() >= 3, "layered DAG has a multi-flow critical path");
    let first_release = wl.completions.iter().map(|c| c.released_at).min().expect("nonempty");
    assert_eq!(wl.makespan, last.delivered_at - first_release);
    assert!(wl.flow_p50() <= wl.flow_p99());
}

/// A hand-built trace of mixed packet lengths (1 to 12 flits, where
/// synthetic traffic is fixed-length) replays with identical statistics
/// at 1, 2 and 4 shards.
#[test]
fn mixed_length_trace_replays_identically_across_shard_counts() {
    let net = net_with_faults(8, 3, 17);
    let healthy: Vec<Coord> = net.mesh().iter().filter(|&c| net.faults().is_healthy(c)).collect();
    let n = healthy.len();
    let entries: Vec<TraceEntry> = (0..120usize)
        .map(|k| {
            let src = healthy[(k * 7) % n];
            let mut dst = healthy[(k * 13 + n / 2) % n];
            if dst == src {
                dst = healthy[(k * 13 + n / 2 + 1) % n];
            }
            let len = 1 + (k % 12) as u32;
            TraceEntry { cycle: k as u64, src, dst, len, flow: NO_FLOW, drop: 0 }
        })
        .collect();
    let cfg = base_cfg(5, 0.0);
    let horizon = cfg.warmup + cfg.measure;
    let replay = |threads: usize| {
        let spec = WorkloadSpec::Trace { entries: entries.clone(), horizon };
        let cfg = SimConfig { threads, ..cfg.clone() };
        run_sim(&net, RoutingKind::Rb2, &cfg, Some(spec.build(&net))).stats
    };
    let reference = replay(1);
    assert_eq!(reference.generated, 120, "every entry is admitted");
    assert_eq!(reference.measured_delivered, reference.measured_generated);
    for threads in [2, 4] {
        assert_eq!(replay(threads), reference, "threads = {threads}");
    }
}
