//! Golden-equivalence suite: full [`TrafficSim`] runs on the
//! event-driven stepper (`Shard::allocate_active`) — at **every
//! shard/thread count** — must produce **bit-identical**
//! [`TrafficStats`] to runs on the retained scan-order reference
//! stepper (`Shard::allocate_reference`) on random draws of simulator
//! configuration, fault pattern, routing function, packet length,
//! injection rate, churn — a `fault_churn` list, a seeded *online*
//! chaos schedule, or both in one run, published mid-run through the
//! one epoch mechanism — and **window length** (1, 2, 8 and the
//! derived band-edge bound).
//!
//! Every run of this crate's tests also checks the fabric's
//! conservation invariants after every cycle of every shard
//! (`Shard::assert_masks_consistent`, called from the worker's commit
//! phase: flits on each in-band link, one pooled state per head, masks
//! and active set against ground truth) and that a shard left without
//! flits holds no pooled state — so each drawn configuration below is
//! checked for them at 1, 2 and 4 shards.
//!
//! The equality is over the *entire* statistics struct — cycle count,
//! per-cycle flit-hop totals, the full latency histogram, saturation
//! and deadlock verdicts — so any divergence in grant order,
//! round-robin fairness, VC selection, escape-patience aging or the
//! shard boundary-exchange protocol shows up as a failure, not as a
//! plausible-looking but different summary.

use meshpath_obs::ObsLevel;
use proptest::prelude::*;
use rand::rngs::StdRng;

use meshpath_mesh::{FaultInjection, FaultSet, Mesh};
use meshpath_route::NetView;

use crate::churn::{ChaosConfig, OnlineChurn};
use crate::config::SimConfig;
use crate::routing::{PathTable, RoutingKind};
use crate::sim::TrafficSim;
use crate::stats::TrafficStats;

/// Which stepper a [`run`] steps the fabric with.
#[derive(Clone, Copy)]
enum Stepper {
    /// The retained scan-order reference.
    Reference,
    /// The event-driven one, granted windows of this many cycles
    /// (`None`: the derived length).
    EventDriven(Option<u64>),
}

/// Runs one full simulation on the chosen stepper, optionally under a
/// seeded online-churn chaos schedule.
fn run(
    net: &NetView,
    kind: RoutingKind,
    cfg: &SimConfig,
    stepper: Stepper,
    chaos: Option<ChaosConfig>,
) -> TrafficStats {
    let mut paths = PathTable::new(net, kind);
    let mut sim = TrafficSim::new(&mut paths, cfg.clone());
    if let Some(chaos) = chaos {
        sim = sim.with_online_churn(OnlineChurn::chaos(chaos));
    }
    match stepper {
        Stepper::Reference => sim.set_reference_stepper(),
        Stepper::EventDriven(window) => sim.set_window(window),
    }
    sim.try_run_full(&mut ()).expect("no worker panicked").stats
}

/// Regression pin for the router-consultation schedule: under online
/// churn, `decide` has an observable side effect (a replan re-keys the
/// packet onto the *current* epoch), so both steppers must ask the
/// router on exactly the same cycles. The original reference stepper
/// skipped a parked head's `decide` whenever another VC on the same
/// input port had already won the crossbar that cycle; with a churn
/// publication landing in between, the deferred replan re-keyed the
/// packet one epoch late and `epoch_delivered` diverged. Under uniform
/// traffic this seed reproduces that: with the old per-output-port
/// reference scan (a fresh `decide` per output port, skipped once the
/// input port has won) restored, the two steppers' statistics differ.
#[test]
fn reference_stepper_plans_parked_heads_on_the_same_cycles() {
    use rand::SeedableRng;
    let seed = 2390247780u64;
    let mesh = Mesh::square(8);
    let mut frng = StdRng::seed_from_u64(seed);
    let net = NetView::build(FaultSet::random(mesh, 0, FaultInjection::Uniform, &mut frng));
    let chaos = Some(ChaosConfig {
        seed: seed ^ 0x9e37_79b9,
        fail_prob: 0.6,
        repair_prob: 0.5,
        start: 40,
        stop: 220,
        max_faults: 4,
    });
    let cfg = SimConfig {
        vcs: 5,
        vc_depth: 3,
        patience: u32::MAX,
        packet_len: 4,
        rate: 0.35,
        warmup: 30,
        measure: 150,
        drain: 400,
        seed,
        route_ttl: None,
        threads: 1,
        stats_window: 100,
        fault_churn: Vec::new(),
        obs: ObsLevel::Off,
        record_trace: false,
    };
    let kind = RoutingKind::ECube;
    let reference = run(&net, kind, &cfg, Stepper::Reference, chaos);
    let sharded = run(&net, kind, &cfg, Stepper::EventDriven(None), chaos);
    assert_eq!(sharded, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn event_driven_sharded_stepping_is_bit_identical_to_scan_order(
        draw in (
            (4u32..9, 0usize..5, 0usize..5, 0u64..0xffff_ffff),
            (2usize..5, 0usize..2, 1u32..7, 0usize..5),
            (1u32..5, 0usize..3, 0usize..2, 0usize..4),
        )
    ) {
        let (
            (mesh_n, faults, kind_ix, seed),
            (vcs, never_raw, patience, rate_ix),
            (packet_len, churn_ix, online_ix, window_ix),
        ) = draw;
        let mesh = Mesh::square(mesh_n);
        let mut frng = StdRng::seed_from_u64(seed);
        let net = NetView::build(FaultSet::random(mesh, faults, FaultInjection::Uniform, &mut frng));
        // Optional mid-run churn (1 = one failure, 2 = failure + later
        // repair of the same node), on a deterministically-chosen
        // healthy coordinate: the equivalence must hold across epoch
        // boundaries too.
        let churn_node = mesh.iter().filter(|&c| net.faults().is_healthy(c)).nth(seed as usize % 7);
        let fault_churn = match (churn_ix, churn_node) {
            (1, Some(c)) => vec![crate::config::ChurnEvent::fail(60, c)],
            (2, Some(c)) => vec![
                crate::config::ChurnEvent::fail(60, c),
                crate::config::ChurnEvent::repair(140, c),
            ],
            _ => Vec::new(),
        };
        // Optional *online* churn: a seeded chaos schedule applied at
        // quantum boundaries through the same epoch-publication path —
        // in the same run as the list above when both are drawn (a
        // listed event the chaos draw invalidated is rejected and
        // counted). The equivalence must hold for dynamically-published
        // epochs too.
        let chaos = (online_ix == 1).then_some(ChaosConfig {
            seed: seed ^ 0x9e37_79b9,
            fail_prob: 0.6,
            repair_prob: 0.5,
            start: 40,
            stop: 220,
            max_faults: 4,
        });
        let kind = RoutingKind::ALL[kind_ix];
        // A head that escapes after `patience` cycles, or one that never
        // does (the source-routed fabric), over as many adaptive VCs.
        let (vcs, patience) = if never_raw == 1 { (vcs + 1, u32::MAX) } else { (vcs, patience) };
        // Rates from near-idle through past saturation: the equivalence
        // must hold when the fabric is empty, contended and wedged.
        let rate = [0.02, 0.05, 0.1, 0.2, 0.35][rate_ix];
        let cfg = SimConfig {
            vcs,
            vc_depth: 3,
            patience,
            packet_len,
            rate,
            warmup: 30,
            measure: 150,
            drain: 400,
            seed,
            route_ttl: None,
            threads: 1,
            stats_window: 100,
            fault_churn,
            obs: ObsLevel::Off,
            record_trace: false,
        };
        // The window of the sharded runs (1, 2, 8, or the derived
        // band-edge bound): results must be bit-identical to the
        // window-1 single-shard reference at every drawn length.
        let stepper = Stepper::EventDriven([Some(1), Some(2), Some(8), None][window_ix]);
        let reference = run(&net, kind, &cfg, Stepper::Reference, chaos);
        // Shard counts 1, 2 and 4: the event-driven stepper must match
        // the scan-order reference bit for bit at every partitioning
        // (threads > 1 also exercises the worker threads, the
        // channel-based boundary exchange and the windowed coordinator
        // protocol).
        for threads in [1usize, 2, 4] {
            let sharded = run(&net, kind, &SimConfig { threads, ..cfg.clone() }, stepper, chaos);
            prop_assert_eq!(
                &sharded,
                &reference,
                "stepper diverged at {} threads: {:?} {} faults={} seed={:#x}",
                threads,
                cfg,
                kind.name(),
                faults,
                seed
            );
            // Observability must be provably non-perturbing: the fully
            // instrumented run (metrics + flight recorder) must stay
            // bit-identical to the bare reference at every shard count.
            let observed = run(
                &net,
                kind,
                &SimConfig { threads, obs: ObsLevel::Trace, ..cfg.clone() },
                stepper,
                chaos,
            );
            prop_assert_eq!(
                &observed,
                &reference,
                "tracing perturbed the run at {} threads: {:?} {} faults={} seed={:#x}",
                threads,
                cfg,
                kind.name(),
                faults,
                seed
            );
        }
    }
}
