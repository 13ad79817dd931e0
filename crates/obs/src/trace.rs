//! Packet-lifecycle trace layer: typed events and the bounded
//! per-shard `FlightRecorder` that keeps them.
//!
//! Events are small `Copy` records keyed by `(cycle, packet, node)`;
//! the fabric emits one at each lifecycle transition (injection, switch
//! grant, VC allocation, escape commitment, stall aging, ejection,
//! drop). The flight recorder keeps the most recent `capacity` events
//! per shard so that when a run wedges, the post-mortem can show what
//! the fabric was doing *right before* it stopped — without unbounded
//! memory growth on healthy runs.

use std::collections::VecDeque;

/// Why a simulation run ended, as derived by the run loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopKind {
    /// Everything generated was delivered and the fabric drained.
    Clean,
    /// A window observer stopped the run while the drain phase was
    /// delivering nothing with packets still outstanding — the
    /// `DrainStallObserver` signature.
    DrainStall,
    /// A window observer stopped the run outside the drain-stall
    /// signature (e.g. a saturation detector during measurement).
    Observer,
    /// The fabric idled with flits in flight: wormhole deadlock.
    Deadlock,
    /// The cycle deadline expired with the fabric still live.
    Deadline,
}

impl StopKind {
    /// Stable lower-case name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StopKind::Clean => "clean",
            StopKind::DrainStall => "drain_stall",
            StopKind::Observer => "observer_stop",
            StopKind::Deadlock => "deadlock",
            StopKind::Deadline => "deadline",
        }
    }

    /// True for the reasons that warrant a deadlock post-mortem (the
    /// fabric stopped making progress with packets still inside).
    pub fn is_wedged(self) -> bool {
        matches!(self, StopKind::DrainStall | StopKind::Deadlock)
    }
}

/// What happened to a packet at one lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Head flit entered the fabric at its source node.
    Inject,
    /// A head flit won switch allocation toward `dir`.
    HopGranted {
        /// Output direction index (0..4, `Dir::ALL` order).
        dir: u8,
    },
    /// A head flit acquired a fresh downstream virtual channel.
    VcAllocated {
        /// Output direction index.
        dir: u8,
        /// Virtual-channel index within the output port.
        vc: u8,
        /// VC class discriminant (0 adaptive, 1 escape).
        class: u8,
    },
    /// The packet committed to the escape class (it will never return
    /// to the adaptive class).
    EscapeEntered,
    /// A parked head's stall clock reached a power of two (events are
    /// emitted at 1, 2, 4, ... parked cycles to bound trace volume).
    Stalled {
        /// Consecutive cycles parked without a grant.
        cycles: u32,
    },
    /// Tail flit ejected at the destination.
    Delivered,
    /// The packet was dropped at its source by fault churn.
    Dropped,
    /// The run loop stopped; emitted once per shard at shutdown.
    RunStopped {
        /// The derived stop classification.
        reason: StopKind,
    },
}

/// One typed packet-lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle the event occurred on.
    pub cycle: u64,
    /// Packet id (`u32::MAX` for events not tied to one packet).
    pub packet: u32,
    /// Flat node id where the event occurred.
    pub node: u32,
    /// The transition.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Sentinel packet id for events not tied to a packet.
    pub(crate) const NO_PACKET: u32 = u32::MAX;
}

/// A bounded ring buffer of the most recent trace events: the fabric
/// probe records every event here.
#[derive(Clone, Debug, Default)]
pub(crate) struct FlightRecorder {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    seen: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (0 disables
    /// retention but still counts).
    pub(crate) fn new(capacity: usize) -> Self {
        FlightRecorder { capacity, buf: VecDeque::with_capacity(capacity.min(1024)), seen: 0 }
    }

    /// Total events offered, including evicted ones.
    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }

    /// Events currently retained, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Accepts one event, evicting the oldest retained one when full.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent { cycle, packet: 7, node: 3, kind: TraceEventKind::Inject }
    }

    #[test]
    fn recorder_keeps_the_most_recent_events() {
        let mut r = FlightRecorder::new(3);
        for c in 0..5 {
            r.record(ev(c));
        }
        assert_eq!(r.seen(), 5);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1));
        assert_eq!(r.seen(), 1);
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn stop_kinds_classify_wedges() {
        assert!(StopKind::Deadlock.is_wedged());
        assert!(StopKind::DrainStall.is_wedged());
        assert!(!StopKind::Clean.is_wedged());
        assert!(!StopKind::Deadline.is_wedged());
        assert_eq!(StopKind::DrainStall.name(), "drain_stall");
    }
}
