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

use meshpath_mesh::{Coord, FaultInjection, FaultSet, Mesh};
use meshpath_route::NetView;

use crate::churn::{ChaosConfig, OnlineChurn};
use crate::config::{ChurnEvent, SimConfig};
use crate::routing::{PathTable, RoutingKind};
use crate::sim::TrafficSim;
use crate::source::{TraceSource, WorkloadMsg};
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
    let paths = PathTable::new(net, kind);
    let mut sim = TrafficSim::new(&paths, cfg.clone());
    if let Some(chaos) = chaos {
        sim = sim.with_online_churn(OnlineChurn::chaos(chaos));
    }
    match stepper {
        Stepper::Reference => sim.set_reference_stepper(),
        Stepper::EventDriven(window) => sim.set_window(window),
    }
    sim.try_run_full(&mut ()).expect("no worker panicked").stats
}

/// Hand-built pin for the router-consultation schedule: under churn,
/// `decide` has an observable side effect (it kills a packet whose
/// destination has failed, and re-keys one onto the current epoch), so
/// both steppers must ask every parked head on exactly the same
/// cycles. XY on a fault-free 8x8, three packets along row 0:
/// A (0,0)->(7,0) of 8 flits, C (2,0)->(7,0) of 4 flits injected at
/// (2,0), and B (1,0)->(5,3) of 2 flits. At (2,0), B's head waits on
/// the input port from (1,0), on the VC beside A's worm, while C and A
/// hold both adaptive VCs of the +x link. On cycle 5, C
/// won +x the cycle before, so A's slot comes first in the round robin:
/// A wins +x, and with it the input port. B's destination (5,3) fails
/// for exactly that cycle. Asking every parked head once per cycle
/// kills B (`churn_killed` 1). The original reference scan asked a
/// parked head per output port, skipping input ports that had already
/// won, so it asked B first on cycle 6, after the repair, and
/// delivered it.
#[test]
fn a_head_parked_behind_a_winning_vc_is_asked_on_the_cycle_its_destination_fails() {
    let net = NetView::build(FaultSet::none(Mesh::square(8)));
    let c = Coord::new;
    let d = c(5, 3);
    let entries = vec![
        WorkloadMsg { at: 0, flow: 0, src: c(0, 0), dst: c(7, 0), len: 8 },
        WorkloadMsg { at: 0, flow: 1, src: c(2, 0), dst: c(7, 0), len: 4 },
        WorkloadMsg { at: 1, flow: 2, src: c(1, 0), dst: d, len: 2 },
    ];
    let cfg = SimConfig {
        vcs: 3,
        vc_depth: 3,
        patience: u32::MAX,
        warmup: 0,
        measure: 1,
        drain: 200,
        threads: 1,
        stats_window: 0,
        fault_churn: vec![ChurnEvent::fail(5, d), ChurnEvent::repair(6, d)],
        ..SimConfig::default()
    };
    let run_trace = |reference: bool| {
        let paths = PathTable::new(&net, RoutingKind::Xy);
        let source = TraceSource::new(entries.clone(), 1);
        let mut sim = TrafficSim::new(&paths, cfg.clone()).with_workload(Box::new(source));
        if reference {
            sim.set_reference_stepper();
        } else {
            sim.set_window(None);
        }
        sim.try_run_full(&mut ()).expect("no worker panicked").stats
    };
    let reference = run_trace(true);
    assert_eq!(reference.churn_killed, 1, "B is asked, and killed, on cycle 5");
    assert_eq!(run_trace(false), reference);
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
            (1, Some(c)) => vec![ChurnEvent::fail(60, c)],
            (2, Some(c)) => vec![
                ChurnEvent::fail(60, c),
                ChurnEvent::repair(140, c),
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
