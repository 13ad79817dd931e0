//! Latency-vs-injection-rate tables for XY, E-cube, RB1, RB2 and RB3 on
//! a 16x16 wormhole mesh at several fault densities, with Duato-style
//! escape VCs keeping the adaptive routers live past the old interlock
//! onset.
//!
//! Run with `cargo run --release --example traffic_saturation`; pass
//! `--quick` for the CI smoke configuration (8x8 mesh, short windows —
//! exercises the full sweep path in seconds).
//!
//! What to look for:
//!
//! * at **zero faults** every router is minimal, so low-load latency is
//!   identical and the curves only separate near saturation;
//! * **under faults**, XY starts dropping traffic (it is
//!   fault-oblivious — see the delivery table), E-cube pays detour hops
//!   around rectangular fault blocks, and RB2/RB3 stay at (or near) the
//!   shortest-path latency — the paper's Fig. 5(d)/(e) story retold in
//!   cycles instead of hops;
//! * past the saturation rate the mean latency is dominated by source
//!   queueing and the table reports `sat` instead of a misleading
//!   number — but never `dead`: the escape class (the up*/down*
//!   spanning tree) gives every blocked head a
//!   draining way out, where the source-routed fabric of PR 1 wedged
//!   at ~2% injection under 10% faults.

use meshpath::analysis::traffic::{run_load_sweep, LoadSweepConfig};
use meshpath::mesh::derive_seed;
use meshpath::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let cfg = if quick {
        // CI smoke: small mesh, short windows, all five routers.
        LoadSweepConfig {
            mesh: 8,
            fault_counts: vec![0, 5],
            rates: vec![0.005, 0.02, 0.04],
            routers: RoutingKind::ALL.to_vec(),
            sim: SimConfig::smoke(),
            // This example *is* the honest-saturation exhibit: the
            // post-saturation rows must be measured, not inferred from
            // the ladder, so the sweep's early exit stays off.
            early_exit: false,
            ..Default::default()
        }
    } else {
        LoadSweepConfig {
            mesh: 16,
            fault_counts: vec![8, 25],
            // 0.04+ is past the old interlock onset (~0.02): the point
            // of the escape class is that these rows say `sat`, not
            // `dead`.
            rates: vec![0.002, 0.005, 0.01, 0.02, 0.04, 0.05],
            routers: RoutingKind::ALL.to_vec(),
            sim: SimConfig { warmup: 300, measure: 1500, drain: 4000, ..SimConfig::default() },
            early_exit: false,
            ..Default::default()
        }
    };

    println!(
        "wormhole traffic on a {n}x{n} mesh — {vcs} VCs x {depth} flits (1 reserved for \
         escape), {len}-flit packets\n",
        n = cfg.mesh,
        vcs = cfg.sim.vcs,
        depth = cfg.sim.vc_depth,
        len = cfg.sim.packet_len,
    );

    let res = run_load_sweep(&cfg);
    for t in res.latency_tables() {
        println!("{}", t.to_text());
    }
    for t in res.throughput_tables() {
        println!("{}", t.to_text());
    }

    println!(
        "  sat  = measured packets still undelivered after the drain budget\n\
         \x20 dead = no flit moved for 1000+ cycles: a wormhole cyclic wait\n\
         \x20        (must never appear with escape VCs enabled)\n"
    );

    // Liveness acceptance: with escape VCs, no grid point may deadlock
    // — including the rates past the source-routed fabric's interlock
    // onset — and every blocked router must keep delivering.
    let mut escapes_seen = 0u64;
    for p in &res.points {
        assert!(
            !p.stats.deadlocked,
            "{} at rate {} / {} faults deadlocked despite escape VCs: {:?}",
            p.router.name(),
            p.rate,
            p.faults,
            p.stats
        );
        escapes_seen += p.stats.escape_packets;
    }
    let top_rate = *cfg.rates.last().expect("rates nonempty");
    println!(
        "check: zero deadlocks across {} grid points (escape packets total: {escapes_seen})",
        res.points.len()
    );
    if !quick {
        // Past saturation the within-window delivered fraction is
        // bounded by capacity/offered, so the liveness floor is on
        // *accepted throughput*: a wedged fabric accepts ~nothing
        // (<0.003 flits/node/cycle in the source-routed runs), a live
        // one keeps draining at its capacity.
        for &fc in &cfg.fault_counts {
            for r in [RoutingKind::Rb1, RoutingKind::Rb2, RoutingKind::Rb3] {
                let p = res.point(r, fc, top_rate).expect("swept");
                let acc = p.stats.accepted_flits_per_node_cycle();
                assert!(
                    acc >= 0.015,
                    "{} at rate {top_rate} / {fc} faults all but stopped \
                     (accepted {acc:.4} flits/node/cycle): {:?}",
                    r.name(),
                    p.stats
                );
            }
        }
        println!(
            "check: RB1/RB2/RB3 keep accepting >= 0.015 flits/node/cycle at rate \
             {top_rate:.3} (2.5x the old interlock onset) at every fault density\n"
        );
    }

    // Delivery rates at the highest swept load. `delivered` counts only
    // *generated* packets — XY additionally refuses pairs whose row/
    // column path crosses a fault (`unroutable`), so its 100% hides
    // traffic the others carry; both numbers are shown.
    for &fc in &cfg.fault_counts {
        print!("rate {top_rate:.3}, {fc} faults — delivered% (unroutable): ");
        for &r in &cfg.routers {
            let p = res.point(r, fc, top_rate).expect("swept");
            print!("{} {:.1}% ({})  ", r.name(), p.stats.delivered_pct(), p.stats.unroutable);
        }
        println!();
    }
    println!();

    if quick {
        return;
    }

    // The paper's claim, measured in cycles: at low load under faults,
    // shortest-path routing (RB2) is no slower than the E-cube baseline,
    // both routers carrying the identical generated workload (a long
    // drain lets E-cube's longest walks finish).
    let low_rate = cfg.rates[0];
    for (fi, &fc) in cfg.fault_counts.iter().enumerate() {
        let mut frng = StdRng::seed_from_u64(derive_seed(cfg.seed, fi as u64, 0));
        let net = NetView::build(FaultSet::random(
            Mesh::square(cfg.mesh),
            fc,
            FaultInjection::Uniform,
            &mut frng,
        ));
        let paired = SimConfig { rate: low_rate, drain: 8000, ..cfg.sim.clone() };
        let rb2 = run_traffic(&net, RoutingKind::Rb2, &paired);
        let ecube = run_traffic(&net, RoutingKind::ECube, &paired);
        let (l2, le) = (rb2.mean_latency(), ecube.mean_latency());
        println!(
            "check (paired): RB2 mean latency {l2:.1} <= E-cube {le:.1} at rate \
             {low_rate:.3}, {fc} faults: {}",
            if l2 <= le + 1e-9 { "OK" } else { "VIOLATED" }
        );
        assert!(l2 <= le + 1e-9, "RB2 must not be slower than E-cube at low load under faults");
    }
}
