//! # meshpath-traffic
//!
//! A deterministic, flit-level, wormhole-switched traffic simulator for
//! 2-D meshes, layered on `meshpath-mesh` and `meshpath-route`.
//!
//! The paper evaluates RB1/RB2/RB3 as single-packet routing decisions;
//! this crate evaluates them as *network-on-chip routing functions
//! under load*: per-node routers with input-buffered virtual channels,
//! credit-based flow control, a per-cycle switch allocator and
//! unit-latency links (`fabric`), driven by one seeded synthetic
//! process (a Bernoulli trial per node per cycle at
//! [`SimConfig::rate`], a uniformly drawn healthy destination,
//! [`SimConfig::packet_len`] flits) or by a scheduled
//! [`WorkloadSource`], and measured with warmup/measure/drain
//! methodology ([`TrafficStats`]).
//!
//! ## Per-hop routing architecture
//!
//! The crate started life source-routed: the network interface compiled
//! a full route per packet and the fabric replayed it flit by flit.
//! That made the paper's distributed algorithms fast to simulate but
//! froze every routing decision at injection time — the fabric could
//! *detect* wormhole deadlock (cyclic channel waits wedged RB1/RB2/RB3
//! at ~2% injection under 10% faults on 16x16) but never avoid it,
//! because avoidance needs a packet to change course *after* it has
//! blocked.
//!
//! The fabric is now routed per hop: every parked head flit asks a
//! `HopRouter` for a fresh `(output port, VC class)` decision. The
//! paper's deterministic routers stay fast because their decisions are
//! still backed by a per-pair compiled route table ([`PathTable`] — one
//! full algorithm execution per distinct `(source, destination)` pair,
//! then a lookup per hop), and the per-hop indirection is what enables
//! Duato-style escape routing (`EscapeHop`): each output port
//! reserves `escape_vcs` virtual channels as *escape classes* whose
//! channel-dependency graphs are acyclic by construction — strict
//! dimension-order XY (entered only past a fault-free XY run) and
//! up*/down* routing on a spanning forest of the healthy nodes
//! ([`EscapeForest`], available from *every* node). A head blocked past
//! [`SimConfig::patience`] re-routes onto an escape class, escape traffic
//! is guaranteed to drain, and so — per Duato's argument — the fabric
//! cannot interlock: RB1/RB2/RB3 stay live at injection rates several
//! times past the old onset.
//!
//! ## Layers
//!
//! * `routing` — the `HopRouter` trait and its implementation
//!   `EscapeHop` (compiled-route replay on the adaptive class, plus
//!   the XY and tree escape classes the fabric reserves channels for);
//!   the [`PathTable`] compiling the workspace's [`Router`]s
//!   (RB1/RB2/RB3, fault-tolerant E-cube) and the dimension-order
//!   `XyRouter` baseline.
//! * `fabric` — the cycle-level wormhole router microarchitecture
//!   with class-aware virtual-channel allocation; stepping is
//!   event-driven (active-router worklist, occupancy/request/free-VC
//!   bitmasks) and spatially partitioned into row-band shards that
//!   exchange boundary messages at the staged cycle commit, yet
//!   bit-identical to a full sequential scan at every shard count —
//!   see the module docs and the golden-equivalence suite.
//! * [`sim`] — the run loop: seeded uniform injection, measurement windows,
//!   saturation detection, the deadlock liveness assertion, and one
//!   cycle driver for every band — band 0 on the caller's thread, one
//!   worker thread per further band ([`SimConfig::threads`]) — with
//!   bit-identical results at every band count.
//! * [`churn`] — **churn**: fault/repair events applied to a running
//!   simulation, fed by a [`SimConfig::fault_churn`] list (exact
//!   cycles), a [`ChurnInjector`] handle and a seedable [`ChaosConfig`]
//!   random schedule (churn-quantum boundaries) — one driver, one
//!   epoch mechanism, the escape forest rebuilt per published event;
//!   stranded in-flight packets are replanned or killed
//!   (`churn_killed`), never wedged.
//! * [`stats`] — latency histograms and accepted-throughput accounting.
//! * [`config`] — [`SimConfig`], including the `escape_vcs` partition
//!   (checked by [`SimConfig::validate`]) and the escape `patience`.
//!
//! ## Observability
//!
//! Setting [`SimConfig::obs`] to [`ObsLevel::Metrics`] or
//! [`ObsLevel::Trace`] instruments the run with the `meshpath-obs`
//! probe: per-link flit counters, escape-entry and stall/occupancy
//! histograms, per-shard phase timings, a packet-lifecycle flight
//! recorder (`Trace`), and — whenever a run wedges — a deadlock
//! post-mortem naming the cyclically-blocked packets from the VC
//! wait-for graph. The merged [`ObsReport`] comes back in
//! [`RunOutput::obs`] from [`TrafficSim::try_run_full`]. The
//! instrumentation is compile-time dispatched: at the default
//! [`ObsLevel::Off`] the hot path monomorphizes over the no-op probe
//! (zero added code), and at any level the recorded run is
//! bit-identical to the bare one (pinned by the golden suite).
//!
//! ## Example
//!
//! ```
//! use meshpath_mesh::{Coord, FaultSet, Mesh};
//! use meshpath_route::{NetView, RoutingKind};
//! use meshpath_traffic::{run_traffic, SimConfig};
//!
//! let net = NetView::build(FaultSet::from_coords(
//!     Mesh::square(8),
//!     [Coord::new(3, 3)],
//! ));
//! let cfg = SimConfig { rate: 0.01, ..SimConfig::smoke() };
//! let stats = run_traffic(&net, RoutingKind::Rb2, &cfg);
//! assert_eq!(stats.measured_delivered, stats.measured_generated);
//! ```
//!
//! ## Honesty notes
//!
//! * Routing decisions are compiled to per-pair routes once per
//!   `(source, destination)` pair — valid because every router in this
//!   workspace is deterministic per network — but they are consulted
//!   per hop, not replayed from the packet header; see `routing`.
//! * The XY escape class alone would not suffice on a faulty mesh: a
//!   head parked where the XY walk to its destination crosses a fault
//!   cannot use it, and cyclic waits among such heads deadlocked the
//!   fabric in testing (at ~2x the source-routed onset). The up*/down*
//!   tree class closes that hole — it reaches every destination a
//!   routable packet can have — at the cost of non-minimal escape
//!   paths. The deadlock detector is retained as a *liveness
//!   assertion* (`deadlocked` in [`TrafficStats`]): with escape
//!   enabled it firing would indicate a fabric bug, not an expected
//!   outcome.
//! * Escape traffic abandons the compiled (fault-aware, shortest-path)
//!   route, so heavy escape use shifts measured latency toward the XY
//!   baseline (or worse, tree detours); `escape_packets` in
//!   [`TrafficStats`] reports how much traffic did.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod config;
mod fabric;
#[cfg(test)]
mod golden;
mod routing;
pub mod sim;
pub mod source;
pub mod stats;

pub use churn::{ChaosConfig, ChurnInjector, OnlineChurn};
pub use config::{ChurnEvent, ChurnOp, ConfigError, SimConfig, PIPELINE_DEPTH};
pub use routing::{EscapeForest, PathTable};
pub use sim::{run_traffic, single_packet_latency, RunError, RunOutput, TrafficSim};
pub use source::{
    FlowCompletion, PhaseOutcome, TraceEntry, WorkloadMsg, WorkloadOutcome, WorkloadSource, NO_FLOW,
};
pub use stats::{
    DrainStallObserver, LatencyHistogram, TrafficStats, WindowControl, WindowObserver, WindowSample,
};

// The observability surface downstream code needs to configure
// recording and consume reports, re-exported from `meshpath-obs`.
pub use meshpath_obs::{
    BlockedWait, FlowEvent, FlowEventKind, LogHistogram, ObsLevel, ObsReport, PhaseProfile,
    Postmortem, ShardReport, StalledPacket, StopKind, TraceEvent, TraceEventKind, VcFront,
    WaitEdge,
};

// Re-exported so downstream code can name the substrate types the
// adapters build on without importing `meshpath-route` separately.
pub use meshpath_route::{NetState, NetView, Router, RoutingKind};
