//! # meshpath-workload
//!
//! Application workloads for the `meshpath-traffic` wormhole simulator:
//! the three [`WorkloadSource`] implementations that replace the
//! synthetic injection process with *scheduled* traffic, plus the
//! [`WorkloadSpec`] descriptor the analysis CLI builds them from.
//!
//! * [`TraceSource`] — replays a recorded packet trace (every
//!   generation attempt, admitted again) bit-identically: same
//!   `TrafficStats`, same cycle count as the run that recorded it, at
//!   every shard count. Record any run with
//!   [`SimConfig::record_trace`], replay it here.
//! * [`FlowDag`] — dependency-driven flows: each named message is
//!   released only once all its predecessors have delivered. The
//!   scheduler lives coordinator-side (delivery feedback closes the
//!   loop each cycle), so the DAG schedule is deterministic at every
//!   shard count; aborted predecessors cascade so the run never
//!   wedges. Per-flow completion times and the critical path come back
//!   in the run's `WorkloadOutcome`.
//! * `CollectivePhases` — scheduled all-to-all and
//!   (l,k)-permutation rounds with a phase barrier: round `r + 1`
//!   starts only when every round-`r` flow has resolved. Per-phase
//!   completion times let RB1/RB2/RB3 be compared against XY/E-cube on
//!   collective traffic, with and without faults.
//!
//! The simulator-side substrate (the [`WorkloadSource`] trait, the
//! message/trace types and the trace replay source, the feedback
//! discipline and its determinism argument) lives in
//! `meshpath_traffic::source`, re-exported here; this crate is pure
//! scheduling policy on top of it.
//!
//! [`SimConfig::record_trace`]: meshpath_traffic::SimConfig::record_trace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
mod phases;
pub mod spec;

pub use dag::{DagError, DagSpec, FlowDag, FlowSpec};
pub use spec::WorkloadSpec;

// The substrate types a workload consumer needs, re-exported so
// downstream code can speak to this crate alone.
pub use meshpath_traffic::source::TraceSource;
pub use meshpath_traffic::{
    FlowCompletion, PhaseOutcome, WorkloadMsg, WorkloadOutcome, WorkloadSource, NO_FLOW,
};
