//! # meshpath-obs
//!
//! Observability substrate for the meshpath workspace: a metrics
//! registry with per-shard lock-free accumulators, a packet-lifecycle
//! trace layer with a bounded flight recorder, a deadlock post-mortem
//! (VC wait-for graph), and a coarse phase profiler.
//!
//! The crate is deliberately **dependency-free** and speaks only in
//! primitives (`u32` node ids, `u8` directions and VC classes), so it
//! can sit *below* every simulator crate: `meshpath-traffic` threads a
//! [`FabricProbe`] through its allocator hot path, `meshpath`'s
//! `RouteService` counts cache hits in a [`HitMiss`], and
//! `meshpath-analysis` renders the merged
//! [`ObsReport`] as JSON.
//!
//! ## Zero cost when disabled
//!
//! Instrumentation is compile-time dispatched: the probe parameter is a
//! generic `P: FabricProbe` and the disabled implementation, [`NoProbe`],
//! has `ACTIVE = false` with empty inlineable methods, so the
//! monomorphized fast path contains no branches, no `Option` checks and
//! no timer reads. The enabled path is *non-perturbing by construction*
//! — probes only observe (no RNG draws, no control-flow feedback) — and
//! that claim is enforced by the golden-equivalence proptest in
//! `meshpath-traffic`, which asserts bit-identical `TrafficStats` with
//! observability on and off at 1, 2 and 4 shards.
//!
//! ## Determinism
//!
//! Per-shard accumulators are merged in shard-index order at run end;
//! every aggregate is a sum, max or shard-ordered concatenation, so the
//! merged report never depends on thread scheduling. The histogram
//! merge-order proptest in [`metrics`] pins this down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod postmortem;
pub mod probe;
pub mod profile;
pub mod report;
pub mod trace;

pub use log::{enabled, LogLevel};
pub use metrics::{HitMiss, LogHistogram};
pub use postmortem::{BlockedWait, Postmortem, StalledPacket, VcFront, WaitEdge};
pub use probe::{FabricProbe, GrantInfo, NoProbe, ShardObs};
pub use profile::{Phase, PhaseProfile};
pub use report::{ObsLevel, ObsReport, ShardReport};
pub use trace::{StopKind, TraceEvent, TraceEventKind};
