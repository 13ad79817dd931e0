//! Online chaos soak: live fault/repair churn against a **running,
//! sharded** wormhole simulation.
//!
//! Unlike a `fault_churn` list (the same churn driver, loaded before
//! the run starts), every epoch here is invented while traffic is in
//! flight: a seeded [`ChaosConfig`] draws random failures and repairs at churn-quantum
//! boundaries, and a [`ChurnInjector`] handle pokes in two unscheduled
//! API events from a window observer mid-measurement. The coordinator
//! publishes each event to the shard workers through the epoch
//! mechanism — CI runs this under `MESHPATH_THREADS=3`, so the
//! publication path crosses real worker threads — and every worker
//! rebuilds its escape forest over the published fault set, so repaired
//! nodes rejoin the escape tree.
//!
//! The soak gates the robustness contract:
//!
//! * **zero deadlocks** — stranded traffic is replanned or killed
//!   (`churn_killed`), never wedged;
//! * **≥ 4 live epochs** — the chaos schedule really fired;
//! * **epoch accounting** — one `epoch_delivered` bucket per published
//!   epoch, and every generated packet is delivered or explained by a
//!   churn drop/kill (nothing leaks).
//!
//! Usage: `chaos_soak [--quick] [--json]` (CI runs `--quick --json`).

use meshpath::analysis::jsonl::{document, JsonObject};
use meshpath::prelude::*;
use meshpath::traffic::{PathTable, TrafficSim, WindowControl, WindowObserver, WindowSample};

/// Unscheduled mid-run events: the injector handle is poked from the
/// run's own window callback, so the events land while flits are in
/// flight — nothing about them is known at configuration time.
struct MidRunPokes {
    injector: ChurnInjector,
    at: Coord,
}

impl WindowObserver for MidRunPokes {
    fn on_window(&mut self, s: &WindowSample) -> WindowControl {
        if s.end == 250 {
            self.injector.fail(self.at);
        } else if s.end == 500 {
            self.injector.repair(self.at);
        }
        WindowControl::Continue
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json = argv.iter().any(|a| a == "--json");

    let mesh = Mesh::square(16);
    let net = NetView::build(FaultSet::from_coords(mesh, [Coord::new(3, 11), Coord::new(12, 4)]));

    let base = if quick { SimConfig::smoke() } else { SimConfig::default() };
    let cfg = base.with_rate(0.02);
    let chaos = ChaosConfig {
        seed: 0x50AC,
        fail_prob: 0.5,
        repair_prob: 0.35,
        start: 150,
        stop: if quick { 450 } else { 1200 },
        max_faults: 6,
    };

    let routers =
        if quick { vec![RoutingKind::Rb2] } else { vec![RoutingKind::Rb2, RoutingKind::Rb3] };
    let mut rows: Vec<JsonObject> = Vec::new();
    for kind in &routers {
        let injector = ChurnInjector::new();
        let churn = OnlineChurn { chaos: Some(chaos), ..OnlineChurn::new(injector.clone()) };
        let paths = PathTable::new(&net, *kind);
        let sim = TrafficSim::new(&paths, cfg.clone()).with_online_churn(churn);
        let mut obs = MidRunPokes { injector, at: Coord::new(8, 8) };
        let stats = match sim.try_run_full(&mut obs) {
            Ok(out) => out.stats,
            Err(e) => panic!("{}: chaos soak lost a worker: {e}", kind.name()),
        };

        // The robustness contract this soak exists to gate.
        assert!(!stats.deadlocked, "{}: chaos run deadlocked: {stats:?}", kind.name());
        assert!(
            stats.online_events.len() >= 4,
            "{}: the soak needs >= 4 live epochs, got {:?}",
            kind.name(),
            stats.online_events
        );
        assert_eq!(
            stats.epoch_delivered.len(),
            stats.online_events.len() + 1,
            "{}: one delivery bucket per published epoch",
            kind.name()
        );
        // Full-drain accounting: every generated packet either ejected
        // normally (some epoch's bucket) or is explained by churn — an
        // NI discard at a failure or a killed stranded worm. Nothing
        // vanishes, nothing is double-counted.
        let delivered: u64 = stats.epoch_delivered.iter().sum();
        assert_eq!(
            delivered + stats.churn_dropped + stats.churn_killed,
            stats.generated,
            "{}: epoch accounting must close: {stats:?}",
            kind.name()
        );

        if json {
            let mut row = JsonObject::new();
            row.string("router", kind.name())
                .field("live_epochs", stats.online_events.len())
                .array_u64("epoch_delivered", &stats.epoch_delivered)
                .field("churn_dropped", stats.churn_dropped)
                .field("churn_killed", stats.churn_killed)
                .field("churn_rejected", stats.churn_rejected)
                .field("generated", stats.generated)
                .field("measured_delivered", stats.measured_delivered)
                .float("mean_latency", stats.mean_latency(), 3)
                .field("cycles", stats.cycles)
                .field("deadlocked", stats.deadlocked);
            rows.push(row);
        } else {
            println!(
                "{:7}  {} live epochs  delivered {:?}  killed {}  dropped {}  ({} cycles)",
                kind.name(),
                stats.online_events.len(),
                stats.epoch_delivered,
                stats.churn_killed,
                stats.churn_dropped,
                stats.cycles,
            );
        }
    }

    if json {
        let mut config = JsonObject::new();
        config
            .field("mesh", 16)
            .field("rate", cfg.rate)
            .field("chaos_seed", chaos.seed)
            .string("scenario", "chaos_soak");
        print!("{}", document(&config, &rows));
    } else {
        println!("chaos soak survived: zero deadlocks under live churn");
    }
}
