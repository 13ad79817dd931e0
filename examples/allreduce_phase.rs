//! Barrier-synchronised all-to-all phases on a 16x16 mesh: the
//! collective-workload path end to end, RB2 vs the XY baseline, with
//! and without faults.
//!
//! Each round every healthy node sends one packet to a shifted peer
//! and the next round is released only when the previous one fully
//! resolves (the workload's phase barrier). The run asserts both
//! routers finish every phase with zero deadlocks, that the
//! fault-tolerant RB2 delivers **every** flow even with faults in the
//! mesh, and prints the per-phase completion-time ratio XY / RB2 —
//! the cost of detouring around faults at the collective level.
//!
//! Usage: `allreduce_phase [--quick] [--json]`.
//!
//! `--json` emits one machine-readable document with a row per
//! `(fault count, router)` including the phase completion cycles (the
//! format CI records as the `BENCH/<sha>-workload.json` artifact);
//! the default prints a small table. The run asserts its own claims
//! either way (CI runs `--quick --json`).

use meshpath::analysis::jsonl::{document, JsonObject};
use meshpath::prelude::*;
use meshpath::traffic::{PathTable, TrafficSim};
use meshpath::workload::WorkloadSpec;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json = argv.iter().any(|a| a == "--json");

    let mesh = Mesh::square(16);
    let rounds: u32 = if quick { 2 } else { 4 };
    let len: u32 = 4;
    let spec = WorkloadSpec::AllToAll { rounds, len };
    let cfg = if quick { SimConfig::smoke() } else { SimConfig::default() };

    // A scattered fault population that keeps every healthy pair
    // RB2-routable; XY has no detours, so some of its flows abort.
    let fault_sets: [&[Coord]; 2] =
        [&[], &[Coord::new(4, 4), Coord::new(5, 4), Coord::new(11, 9), Coord::new(8, 12)]];

    let mut rows: Vec<JsonObject> = Vec::new();
    for faults in fault_sets {
        let net = NetView::build(FaultSet::from_coords(mesh, faults.iter().copied()));
        let mut phase_means = Vec::new();
        for kind in [RoutingKind::Rb2, RoutingKind::Xy] {
            let paths = PathTable::new(&net, kind);
            let out = TrafficSim::new(&paths, cfg.clone())
                .with_workload(spec.build(&net))
                .try_run_full(&mut ())
                .unwrap_or_else(|e| panic!("{}: collective run lost a worker: {e}", kind.name()));
            let wl = out.workload.expect("workload runs always report an outcome");

            // The claims this example exists to demonstrate: the phase
            // barrier resolves every round (no wedged collective), and
            // the fault-tolerant router loses nothing to the faults.
            assert!(!out.stats.deadlocked, "{}: collective run deadlocked", kind.name());
            assert_eq!(
                wl.phases.len(),
                rounds as usize,
                "{}: every phase must complete",
                kind.name()
            );
            assert!(
                wl.phases.iter().all(|p| p.completed_at >= p.released_at && p.delivered > 0),
                "{}: phases must resolve in order with deliveries: {:?}",
                kind.name(),
                wl.phases
            );
            if kind == RoutingKind::Rb2 || faults.is_empty() {
                assert_eq!(
                    wl.flows_aborted,
                    0,
                    "{}: no flow may abort ({} faults)",
                    kind.name(),
                    faults.len()
                );
            }

            let cycles = wl.phase_cycles();
            let mean = cycles.iter().sum::<u64>() as f64 / cycles.len() as f64;
            phase_means.push(mean);

            if json {
                let mut row = JsonObject::new();
                row.string("router", kind.name())
                    .field("faults", faults.len())
                    .field("released", wl.released)
                    .field("flows_delivered", wl.flows_delivered)
                    .field("flows_aborted", wl.flows_aborted)
                    .array_u64("phase_cycles", &cycles)
                    .float("phase_mean", mean, 2)
                    .field("flow_p50", wl.flow_p50())
                    .field("flow_p99", wl.flow_p99())
                    .field("makespan", wl.makespan)
                    .field("deadlocked", out.stats.deadlocked);
                rows.push(row);
            } else {
                println!(
                    "{:7}  faults {}  phases {:?}  delivered {}  aborted {}  p99 {} cycles",
                    kind.name(),
                    faults.len(),
                    cycles,
                    wl.flows_delivered,
                    wl.flows_aborted,
                    wl.flow_p99(),
                );
            }
        }
        let ratio = phase_means[1] / phase_means[0];
        if !json {
            println!("  -> phase completion ratio XY / RB2 = {ratio:.3} ({} faults)", faults.len());
        }
    }

    if json {
        let mut config = JsonObject::new();
        config
            .field("mesh", 16)
            .field("rounds", rounds)
            .field("packet_len", len)
            .string("workload", spec.name())
            .string("scenario", "allreduce_phase");
        print!("{}", document(&config, &rows));
    } else {
        println!("all-to-all collective survived: every phase resolved on both routers");
    }
}
