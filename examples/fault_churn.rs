//! Mid-run fault injection on a live wormhole fabric: the
//! `fault_churn` scenario end to end.
//!
//! A 16x16 mesh starts with a small fault population, and **two more
//! nodes fail while traffic is in flight** (plus, in the full mode, a
//! later repair). The events are listed ahead of time in
//! `SimConfig::fault_churn`; each fires at exactly its cycle and
//! advances the run to a new epoch snapshot — published by the
//! incremental `NetState` update path — and the run must finish with
//! **zero deadlocks**: a failed node forwards nothing, and a
//! publication re-plans packets in flight from where they stand or
//! drains and counts them (`churn_killed`), new packets route around
//! the failure, and the escape forest is re-provisioned per event so
//! the repaired node regains every VC class.
//!
//! Usage: `fault_churn [--quick] [--json]`.
//!
//! `--json` emits one machine-readable document with the per-epoch
//! delivered, dropped and killed counts per router; the default prints
//! a small table. The run asserts its own liveness claims either way
//! (CI runs `--quick --json`).

use meshpath::analysis::jsonl::{document, JsonObject};
use meshpath::prelude::*;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json = argv.iter().any(|a| a == "--json");

    let mesh = Mesh::square(16);
    let initial = [Coord::new(3, 11), Coord::new(12, 4)];
    let net = NetView::build(FaultSet::from_coords(mesh, initial));

    // Two failures mid-measurement; the full mode adds a repair during
    // the drain so all three epoch transitions are exercised.
    let mut churn =
        vec![ChurnEvent::fail(250, Coord::new(8, 8)), ChurnEvent::fail(450, Coord::new(6, 9))];
    if !quick {
        churn.push(ChurnEvent::repair(700, Coord::new(8, 8)));
    }
    let base = if quick { SimConfig::smoke() } else { SimConfig::default() };
    let cfg = base.with_rate(0.02).with_fault_churn(churn.clone());

    let routers =
        if quick { vec![RoutingKind::Rb2] } else { vec![RoutingKind::Rb2, RoutingKind::Rb3] };
    let mut rows: Vec<JsonObject> = Vec::new();
    for kind in &routers {
        let stats = run_traffic(&net, *kind, &cfg);

        // The liveness contract this example exists to demonstrate.
        assert!(!stats.deadlocked, "{}: churn run deadlocked: {stats:?}", kind.name());
        assert!(!stats.saturated, "{}: low-load churn run saturated: {stats:?}", kind.name());
        assert_eq!(stats.epoch_delivered.len(), churn.len() + 1);
        assert!(
            stats.epoch_delivered.iter().all(|&n| n > 0),
            "{}: every epoch must deliver: {:?}",
            kind.name(),
            stats.epoch_delivered
        );
        assert!(
            stats.measured_generated - stats.measured_delivered
                <= stats.churn_dropped + stats.churn_killed,
            "{}: undelivered measured packets must be churn drops or kills",
            kind.name()
        );

        if json {
            let mut row = JsonObject::new();
            row.string("router", kind.name())
                .field("epochs", stats.epoch_delivered.len())
                .array_u64("epoch_delivered", &stats.epoch_delivered)
                .field("churn_dropped", stats.churn_dropped)
                .field("churn_killed", stats.churn_killed)
                .field("generated", stats.generated)
                .field("measured_delivered", stats.measured_delivered)
                .float("mean_latency", stats.mean_latency(), 3)
                .field("cycles", stats.cycles)
                .field("deadlocked", stats.deadlocked)
                .field("saturated", stats.saturated);
            rows.push(row);
        } else {
            println!(
                "{:7}  epochs {:?}  dropped {}  killed {}  mean latency {:.1} cycles  ({} cycles simulated)",
                kind.name(),
                stats.epoch_delivered,
                stats.churn_dropped,
                stats.churn_killed,
                stats.mean_latency(),
                stats.cycles,
            );
        }
    }

    if json {
        let mut config = JsonObject::new();
        config
            .field("mesh", 16)
            .field("rate", cfg.rate)
            .field("churn_events", churn.len())
            .string("scenario", "fault_churn");
        print!("{}", document(&config, &rows));
    } else {
        println!("fault churn survived: zero deadlocks across {} epochs", churn.len() + 1);
    }
}
