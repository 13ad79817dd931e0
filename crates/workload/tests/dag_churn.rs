//! Satellite: a DAG under churn never wedges — a flow whose packet is
//! killed by a mid-run fault is aborted, its dependents are cascaded
//! into `flows_aborted`, and the run exits cleanly — whether the fault
//! comes from a live injector or a `fault_churn` list.

use meshpath_mesh::{Coord, FaultSet, Mesh};
use meshpath_route::NetView;
use meshpath_traffic::{
    ChurnEvent, ChurnInjector, OnlineChurn, PathTable, RoutingKind, SimConfig, TrafficSim,
};
use meshpath_workload::{DagSpec, FlowDag, FlowSpec};

/// Flow `a` crosses the mesh to (7,7); its destination fails at cycle
/// 8 — queued on an injector polled at quantum 8, or `listed` in
/// `fault_churn` — while the packet is in flight, so the fabric kills
/// it (`churn_killed`). Flow `b` depends on `a` and must be aborted by
/// cascade — never released, never wedging the run.
fn run_killed_dag(threads: usize, listed: bool) {
    let mesh = Mesh::square(8);
    let net = NetView::build(FaultSet::from_coords(mesh, []));
    let spec = DagSpec {
        flows: vec![
            // 14 hops away, 8 flits: alive well past the churn quantum.
            FlowSpec::root("a", Coord::new(0, 0), Coord::new(7, 7), 8),
            FlowSpec::after("b", Coord::new(7, 7), Coord::new(0, 0), 4, &["a"]),
        ],
    };
    let cfg = SimConfig {
        seed: 5,
        rate: 0.0,
        warmup: 20,
        measure: 100,
        drain: 600,
        threads,
        fault_churn: if listed { vec![ChurnEvent::fail(8, Coord::new(7, 7))] } else { Vec::new() },
        ..SimConfig::default()
    };
    let mut paths = PathTable::new(&net, RoutingKind::Rb2);
    let mut sim = TrafficSim::new(&mut paths, cfg)
        .with_workload(Box::new(FlowDag::new(spec).expect("valid DAG")));
    if !listed {
        let injector = ChurnInjector::new();
        injector.fail(Coord::new(7, 7));
        sim = sim.with_online_churn(OnlineChurn::new(injector).with_quantum(8));
    }
    let out = sim.try_run_full(&mut ()).expect("no worker panicked");

    assert_eq!(out.stats.churn_killed, 1, "a's packet was killed in flight ({threads} threads)");
    assert!(!out.stats.deadlocked);
    let wl = out.workload.expect("workload run");
    assert_eq!(wl.flows_delivered, 0);
    assert_eq!(wl.flows_aborted, 2, "a aborted, b cascaded ({threads} threads)");
    assert_eq!(wl.released, 1, "b was never released");
    assert!(wl.completions.is_empty());
    assert!(wl.critical_path.is_empty());
}

#[test]
fn killed_predecessor_cascades_and_never_wedges_in_process() {
    run_killed_dag(1, false);
    run_killed_dag(1, true);
}

#[test]
fn killed_predecessor_cascades_and_never_wedges_sharded() {
    run_killed_dag(4, false);
    run_killed_dag(4, true);
}
