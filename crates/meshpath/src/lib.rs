//! # meshpath
//!
//! Shortest-path fault-tolerant routing in 2-D meshes — a complete Rust
//! implementation of Jiang & Wu, *On Achieving the Shortest-Path Routing
//! in 2-D Meshes* (IPDPS 2007), grown into a routing *service*: the
//! paper's B1/B2/B3 fault-information machinery behind an
//! epoch-versioned snapshot API that serves concurrent route queries
//! while the fault set changes underneath.
//!
//! ## What this is
//!
//! In a 2-D mesh multicomputer with faulty nodes, Manhattan-distance
//! (monotone) paths may not exist. This library implements the paper's
//! **minimal connected component (MCC)** fault-information machinery so
//! that fully distributed, per-hop routing decisions still produce true
//! shortest paths:
//!
//! * the MCC labeling (`useless` / `can't-reach` fixpoint) and the
//!   rising-staircase component geometry ([`fault`]), with
//!   **incremental** per-fault updates that relabel only the affected
//!   nodes, as Section 2's distributed procedure does;
//! * the three fault-information models — B1 boundary lines, B2 forbidden
//!   region broadcast, B3 boundaries + relation records ([`info`]);
//! * the routings RB1 / RB2 / RB3 plus the classic fault-tolerant E-cube
//!   baseline, all phrased as one per-hop
//!   [`Router`](prelude::Router) trait over immutable
//!   [`NetView`](prelude::NetView) snapshots ([`route`]);
//! * the full Fig. 5 experiment harness ([`analysis`]);
//! * a flit-level wormhole traffic simulator evaluating the routers as
//!   NoC routing functions under load — including mid-run fault
//!   injection (`fault_churn`) over the same epoch snapshots
//!   ([`traffic`]).
//!
//! ## Quickstart: the query service
//!
//! [`RouteService`] is the front door: build it once, route from as
//! many threads as you like, and mutate the fault set incrementally —
//! every mutation publishes a new epoch without disturbing queries in
//! flight.
//!
//! ```
//! use meshpath::prelude::*;
//!
//! // A 16x16 mesh with a few faults, served by RB2 (the paper's
//! // shortest-path routing).
//! let mesh = Mesh::square(16);
//! let faults = FaultSet::from_coords(
//!     mesh,
//!     [Coord::new(8, 8), Coord::new(7, 9), Coord::new(8, 9)],
//! );
//! let service = RouteService::new(faults);
//!
//! // Route queries return the path plus the epoch that answered them.
//! let reply = service.route(Coord::new(2, 2), Coord::new(13, 13)).unwrap();
//! assert_eq!(reply.epoch, 0);
//!
//! // RB2 is shortest-path: compare against the BFS ground truth.
//! let view = service.view();
//! let oracle = DistanceField::healthy(view.faults(), Coord::new(13, 13));
//! assert_eq!(reply.hops(), oracle.dist(Coord::new(2, 2)));
//!
//! // Batches resolve the snapshot once: every reply is exactly what
//! // `route` would answer, in order.
//! let replies = service.route_many(&[
//!     (Coord::new(2, 2), Coord::new(13, 13)),
//!     (Coord::new(0, 15), Coord::new(15, 0)),
//! ]);
//! assert_eq!(replies[0].as_ref().unwrap().epoch, 0);
//!
//! // Failures are typed, not stringly.
//! assert_eq!(
//!     service.route(Coord::new(8, 8), Coord::new(0, 0)).err(),
//!     Some(RouteError::SourceFaulty(Coord::new(8, 8))),
//! );
//!
//! // Fault updates are incremental and epoch-versioned: the old view
//! // still answers at its epoch, new queries see the new epoch.
//! assert_eq!(service.add_fault(Coord::new(2, 7)).unwrap(), 1);
//! assert_eq!(service.route(Coord::new(2, 2), Coord::new(13, 13)).unwrap().epoch, 1);
//! assert_eq!(view.epoch(), 0);
//! ```
//!
//! ## The lock-free read path
//!
//! Queries never wait for a mutation. Mutations build the next epoch
//! on a writer-side [`NetState`](prelude::NetState) (under a mutex only
//! writers touch) and *publish* it RCU-style; each reader thread keeps
//! its own clone of the published snapshot and revalidates it with
//! **one `Acquire` load** of the published epoch per query — in steady
//! state resolving the snapshot performs **zero shared-memory writes**.
//! A query the warm cache answers then takes one stripe `RwLock` for
//! reading (two atomic read-modify-writes on one of 64 shared lock
//! words); how far that lets throughput scale with query threads is
//! what meshbench's `meshpath.read_scaling_t2` measures. Readers never
//! see a torn or unpublished snapshot (the memory-ordering contract is
//! in `service.rs`; `tests/service_rcu.rs` races threads to pin it).
//!
//! Three serving layers sit on that snapshot:
//!
//! * [`route`](RouteService::route) — one query, one epoch check;
//! * [`route_many`](RouteService::route_many) — a batch against one
//!   snapshot resolution (misses, batched or single, run the router on
//!   one thread-local scratch);
//! * the **per-epoch warm route cache** — up to
//!   [`DEFAULT_CACHE_ENTRIES`] memoized pairs of lazily filled query
//!   outcomes per epoch (striped segmented-LRU, no global lock), so
//!   repeated pairs are answered with a copy of the stored
//!   [`RouteResult`](prelude::RouteResult), bit-identical to
//!   re-running the router, on meshes of any size; cold pairs age
//!   out of the budget instead of gating the cache off.
//!
//! For direct, service-free use the same pieces compose by hand:
//! [`NetState`](prelude::NetState) owns the mutable state,
//! [`NetView`](prelude::NetView) is the cheap `Arc` snapshot every
//! consumer (offline engine, traffic fabric, analysis sweeps) routes
//! against, and any [`Router`](prelude::Router) answers per-hop
//! [`decide`](prelude::Router::decide) calls or whole
//! [`route`](prelude::Router::route) queries on it.
//!
//! ## Crate map
//!
//! | module | re-export of | contents |
//! |--------|--------------|----------|
//! | [`mesh`] | `meshpath-mesh` | coordinates, grids, fault sets, connectivity |
//! | [`fault`] | `meshpath-fault` | MCC labeling (incremental), components, fault blocks |
//! | [`info`] | `meshpath-info` | B1/B2/B3 information models, boundary walks |
//! | [`route`] | `meshpath-route` | `NetView`/`NetState` snapshots, the per-hop `Router` trait, RB1/RB2/RB3, E-cube, XY, oracles |
//! | [`traffic`] | `meshpath-traffic` | wormhole NoC traffic simulator, `fault_churn` |
//! | [`obs`] | `meshpath-obs` | metrics registry, packet-lifecycle tracing, deadlock post-mortems |
//! | [`analysis`] | `meshpath-analysis` | Fig. 5 harness + traffic load sweeps |
//! | (this crate) | — | [`RouteService`], [`RouteError`], [`RouteReply`], [`ServiceMetrics`] |
//!
//! ## Online churn
//!
//! Live fault/repair events reach a running simulation through
//! [`traffic::OnlineChurn`], the one churn driver a
//! `SimConfig::fault_churn` list also loads into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use meshpath_analysis as analysis;
pub use meshpath_fault as fault;
pub use meshpath_info as info;
pub use meshpath_mesh as mesh;
pub use meshpath_obs as obs;
pub use meshpath_route as route;
pub use meshpath_traffic as traffic;
pub use meshpath_workload as workload;

mod cache;
mod service;

pub use service::{RouteError, RouteReply, RouteService, ServiceMetrics, DEFAULT_CACHE_ENTRIES};

/// The items most programs need.
pub mod prelude {
    pub use meshpath_fault::{BorderPolicy, Labeling, Mcc, MccId, MccSet, NodeStatus};
    pub use meshpath_info::{InfoModel, ModelKind};
    pub use meshpath_mesh::render::GridRender;
    pub use meshpath_mesh::{
        Coord, Dir, FaultInjection, FaultSet, HopSeq, Mesh, NodeId, Orientation, Rect,
    };
    pub use meshpath_obs::{ObsLevel, ObsReport, Postmortem, StopKind};
    pub use meshpath_route::oracle::DistanceField;
    pub use meshpath_route::{
        validate_path, AdaptivePolicy, Decision, ECube, HopCtx, HopState, KnowledgeScope, NetState,
        NetView, Network, Rb1, Rb2, Rb3, RouteResult, Router, RoutingKind, UpdateError, XyRouter,
    };
    pub use meshpath_traffic::{
        run_traffic, ChaosConfig, ChurnEvent, ChurnInjector, ChurnOp, OnlineChurn, SimConfig,
        TrafficStats, PIPELINE_DEPTH,
    };

    pub use crate::service::{
        RouteError, RouteReply, RouteService, ServiceMetrics, DEFAULT_CACHE_ENTRIES,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_routes() {
        let mesh = Mesh::square(12);
        let faults = FaultSet::from_coords(mesh, [Coord::new(5, 5)]);
        let net = NetView::build(faults);
        for router in [&Rb1::default() as &dyn Router, &Rb2::default(), &Rb3::default(), &ECube] {
            let res = router.route(&net, Coord::new(0, 0), Coord::new(11, 11));
            assert!(res.delivered, "{}", router.name());
            validate_path(&net, Coord::new(0, 0), Coord::new(11, 11), &res).expect("valid");
        }
    }
}
