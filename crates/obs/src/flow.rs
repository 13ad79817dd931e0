//! Application-flow lifecycle events and completion accounting.
//!
//! Workload sources (trace replay, flow DAGs, collective phases — see
//! the `meshpath-workload` crate) identify packets by a `u32` flow id.
//! The run coordinator records one [`FlowEvent`] per lifecycle
//! transition into a [`FlowLog`]; the log stays deterministic under
//! sharding because events are sorted by `(cycle, kind, flow)` before
//! they are read — within one cycle the coordinator merges shard
//! reports in arrival order, which thread scheduling may permute.
//!
//! Like the rest of this crate the module speaks only in primitives,
//! so the simulator can depend on it without a layering inversion.

use crate::log::{enabled, LogLevel};

/// What happened to a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowEventKind {
    /// The flow's message was released to the fabric (injection
    /// scheduled at the event cycle).
    Released,
    /// The flow's packet completed delivery (tail ejected; the event
    /// cycle is the delivery cycle).
    Delivered,
    /// The flow was aborted: its packet was unroutable, dropped, or
    /// killed by churn — or a predecessor flow aborted and the
    /// scheduler cascaded the abort (a dependent flow can never become
    /// injectable once a predecessor is gone).
    Aborted,
}

impl FlowEventKind {
    /// Short lowercase name (log lines, JSON).
    pub(crate) fn name(self) -> &'static str {
        match self {
            FlowEventKind::Released => "released",
            FlowEventKind::Delivered => "delivered",
            FlowEventKind::Aborted => "aborted",
        }
    }
}

/// One flow lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEvent {
    /// Cycle at which the transition happened.
    pub cycle: u64,
    /// The flow id (workload-source scoped).
    pub flow: u32,
    /// The transition.
    pub kind: FlowEventKind,
}

/// An append-only flow lifecycle log with deterministic read order and
/// `MESHPATH_LOG=debug` echo.
#[derive(Clone, Debug, Default)]
pub struct FlowLog {
    events: Vec<FlowEvent>,
}

impl FlowLog {
    /// An empty log.
    pub fn new() -> Self {
        FlowLog::default()
    }

    /// Records one lifecycle event (echoed to stderr under
    /// `MESHPATH_LOG=debug`).
    pub fn record(&mut self, cycle: u64, flow: u32, kind: FlowEventKind) {
        if enabled(LogLevel::Debug) {
            eprintln!("[flow] cycle {cycle}: flow {flow} {}", kind.name());
        }
        self.events.push(FlowEvent { cycle, flow, kind });
    }

    /// Number of recorded events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// The events sorted by `(cycle, kind, flow)` — the canonical,
    /// shard-count-independent order (same-cycle events may have been
    /// recorded in shard-arrival order).
    pub fn into_sorted(mut self) -> Vec<FlowEvent> {
        self.events.sort_by_key(|e| (e.cycle, e.kind, e.flow));
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sort_canonically() {
        let mut log = FlowLog::new();
        log.record(5, 2, FlowEventKind::Delivered);
        log.record(1, 9, FlowEventKind::Released);
        log.record(5, 1, FlowEventKind::Delivered);
        log.record(5, 1, FlowEventKind::Released);
        assert_eq!(log.len(), 4);
        let sorted = log.into_sorted();
        assert_eq!(
            sorted,
            vec![
                FlowEvent { cycle: 1, flow: 9, kind: FlowEventKind::Released },
                FlowEvent { cycle: 5, flow: 1, kind: FlowEventKind::Released },
                FlowEvent { cycle: 5, flow: 1, kind: FlowEventKind::Delivered },
                FlowEvent { cycle: 5, flow: 2, kind: FlowEventKind::Delivered },
            ]
        );
    }

    #[test]
    fn empty_log_reads_empty() {
        let log = FlowLog::new();
        assert!(log.into_sorted().is_empty());
    }
}
