//! The fabric instrumentation hook: [`FabricProbe`], its disabled
//! implementation [`NoProbe`], and the per-shard accumulator
//! [`ShardObs`].
//!
//! The simulator's allocator hot path is generic over `P: FabricProbe`.
//! [`NoProbe`] has `ACTIVE = false` and empty methods, so the
//! `P = NoProbe` monomorphization — the default for every plain
//! `run()` — contains no instrumentation code at all: no branches, no
//! `Option` checks, no clock reads. With [`ShardObs`] substituted, each
//! shard records into its own lock-free plain-`u64` accumulators (no
//! sharing, no atomics on the hot path); the coordinator collects the
//! probes at run end and merges them in shard-index order.
//!
//! Probe methods only **observe**: they draw no randomness, mutate no
//! simulator state and return nothing, which is what makes the
//! instrumented run bit-identical to the bare one.

use crate::metrics::LogHistogram;
use crate::postmortem::{BlockedWait, StalledPacket, VcFront, WaitEdge};
use crate::profile::{Phase, PhaseProfile};
use crate::report::ObsLevel;
use crate::trace::{FlightRecorder, StopKind, TraceEvent, TraceEventKind};

/// One head-flit switch grant, as seen by the probe.
#[derive(Clone, Copy, Debug)]
pub struct GrantInfo {
    /// Flat node id where the grant happened.
    pub node: u32,
    /// Packet id of the granted head.
    pub packet: u32,
    /// Output direction index (0..4).
    pub dir: u8,
    /// Downstream virtual-channel index.
    pub vc: u8,
    /// VC class discriminant of the downstream VC.
    pub class: u8,
    /// True when the grant allocated a fresh downstream VC (head
    /// entering a new worm hold), false when continuing an owned one.
    pub fresh_vc: bool,
    /// Consecutive cycles the head was parked before this grant.
    pub stalled: u32,
}

/// Compile-time-dispatched instrumentation hooks for the wormhole
/// fabric and shard worker.
///
/// Every method has an empty default; implementations override what
/// they record. `ACTIVE` lets call sites skip *preparation* work
/// (clock reads, occupancy walks) entirely when disabled.
pub trait FabricProbe {
    /// Whether this probe records anything at all.
    const ACTIVE: bool;

    /// A new simulation cycle begins (timestamp for later events).
    #[inline]
    fn cycle_start(&mut self, _cycle: u64) {}
    /// A packet's head flit entered the fabric at `node`.
    #[inline]
    fn inject(&mut self, _node: u32, _packet: u32) {}
    /// One flit crossed the link out of `node` toward `dir`.
    #[inline]
    fn link_flit(&mut self, _node: u32, _dir: u8) {}
    /// A head flit won switch allocation.
    #[inline]
    fn head_grant(&mut self, _grant: GrantInfo) {}
    /// A packet committed to the escape class at `node`.
    #[inline]
    fn escape_entered(&mut self, _node: u32, _packet: u32) {}
    /// A packet's tail flit ejected at `node`.
    #[inline]
    fn delivered(&mut self, _node: u32, _packet: u32) {}
    /// A queued packet was dropped at its source by fault churn.
    #[inline]
    fn dropped(&mut self, _node: u32, _packet: u32) {}
    /// A parked head aged to `cycles` consecutive stalled cycles.
    #[inline]
    fn head_stalled(&mut self, _node: u32, _packet: u32, _cycles: u32) {}
    /// Window-boundary sample: `occupied` input VCs are busy at `node`.
    #[inline]
    fn occupancy_sample(&mut self, _node: u32, _occupied: u32) {}
    /// Boundary messages sent to the neighbor shards this cycle.
    #[inline]
    fn boundary_out(&mut self, _to_prev: u64, _to_next: u64) {}
    /// One coordinator barrier reached: the worker was granted a
    /// window of `cycles` cycles (always 1 for an inline shard), so
    /// `barriers * window ~= cycles run`.
    #[inline]
    fn barrier(&mut self, _cycles: u64) {}
    /// Adds wall-clock nanoseconds to a worker phase.
    #[inline]
    fn phase_ns(&mut self, _phase: Phase, _ns: u64) {}
    /// The run stopped; emitted once per shard at shutdown.
    #[inline]
    fn run_stopped(&mut self, _cycle: u64, _reason: StopKind) {}
    /// Post-mortem: a parked head present at stop time.
    #[inline]
    fn stalled_packet(&mut self, _packet: StalledPacket) {}
    /// Post-mortem: one VC wait-for edge.
    #[inline]
    fn wait_edge(&mut self, _edge: WaitEdge) {}
    /// Post-mortem: a wait on an unowned but credit-starved VC, to be
    /// resolved against the downstream [`VcFront`] at assembly.
    #[inline]
    fn wait_blocked(&mut self, _blocked: BlockedWait) {}
    /// Post-mortem: the packet at the front of one occupied
    /// directional input VC.
    #[inline]
    fn vc_front(&mut self, _front: VcFront) {}
}

/// The disabled probe: `ACTIVE = false`, every hook a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl FabricProbe for NoProbe {
    const ACTIVE: bool = false;
}

/// Default flight-recorder capacity per shard.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 256;

/// Per-shard metrics and trace accumulator.
///
/// Owned exclusively by one shard worker for the whole run (lock-free
/// by construction); collected and merged by
/// [`ObsReport::assemble`](crate::report::ObsReport::assemble).
#[derive(Clone, Debug)]
pub struct ShardObs {
    pub(crate) shard: usize,
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) level: ObsLevel,
    pub(crate) cycle: u64,
    /// Flits sent per (local node, direction): `(node-start)*4 + dir`.
    pub(crate) link_flits: Vec<u64>,
    /// Escape-class entries per local node.
    pub(crate) escape_entries: Vec<u64>,
    pub(crate) stall_cycles: LogHistogram,
    pub(crate) vc_occupancy: LogHistogram,
    pub(crate) injected: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    pub(crate) boundary_to_prev: u64,
    pub(crate) boundary_to_next: u64,
    pub(crate) barriers: u64,
    pub(crate) phases: PhaseProfile,
    pub(crate) ring: FlightRecorder,
    pub(crate) stalled: Vec<StalledPacket>,
    pub(crate) wait_edges: Vec<WaitEdge>,
    pub(crate) blocked: Vec<BlockedWait>,
    pub(crate) fronts: Vec<VcFront>,
    pub(crate) stop: Option<StopKind>,
    pub(crate) stop_cycle: u64,
}

impl ShardObs {
    /// An accumulator for shard `shard` owning flat nodes
    /// `[start, end)`, recording at `level` (must not be
    /// [`ObsLevel::Off`]).
    pub fn new(shard: usize, start: u32, end: u32, level: ObsLevel) -> Self {
        assert!(level != ObsLevel::Off, "an off-level probe should be NoProbe");
        let nodes = (end - start) as usize;
        let ring_cap = if level == ObsLevel::Trace { DEFAULT_RING_CAPACITY } else { 0 };
        ShardObs {
            shard,
            start,
            end,
            level,
            cycle: 0,
            link_flits: vec![0; nodes * 4],
            escape_entries: vec![0; nodes],
            stall_cycles: LogHistogram::new(),
            vc_occupancy: LogHistogram::new(),
            injected: 0,
            delivered: 0,
            dropped: 0,
            boundary_to_prev: 0,
            boundary_to_next: 0,
            barriers: 0,
            phases: PhaseProfile::new(),
            ring: FlightRecorder::new(ring_cap),
            stalled: Vec::new(),
            wait_edges: Vec::new(),
            blocked: Vec::new(),
            fronts: Vec::new(),
            stop: None,
            stop_cycle: 0,
        }
    }

    #[inline]
    fn trace(&mut self, packet: u32, node: u32, kind: TraceEventKind) {
        if self.level == ObsLevel::Trace {
            self.ring.record(TraceEvent { cycle: self.cycle, packet, node, kind });
        }
    }

    #[inline]
    fn local(&self, node: u32) -> usize {
        debug_assert!(node >= self.start && node < self.end, "node {node} outside shard band");
        (node - self.start) as usize
    }
}

impl FabricProbe for ShardObs {
    const ACTIVE: bool = true;

    #[inline]
    fn cycle_start(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    #[inline]
    fn inject(&mut self, node: u32, packet: u32) {
        self.injected += 1;
        self.trace(packet, node, TraceEventKind::Inject);
    }

    #[inline]
    fn link_flit(&mut self, node: u32, dir: u8) {
        let i = self.local(node) * 4 + dir as usize;
        self.link_flits[i] += 1;
    }

    #[inline]
    fn head_grant(&mut self, g: GrantInfo) {
        self.stall_cycles.record(u64::from(g.stalled));
        self.trace(g.packet, g.node, TraceEventKind::HopGranted { dir: g.dir });
        if g.fresh_vc {
            self.trace(
                g.packet,
                g.node,
                TraceEventKind::VcAllocated { dir: g.dir, vc: g.vc, class: g.class },
            );
        }
    }

    #[inline]
    fn escape_entered(&mut self, node: u32, packet: u32) {
        let i = self.local(node);
        self.escape_entries[i] += 1;
        self.trace(packet, node, TraceEventKind::EscapeEntered);
    }

    #[inline]
    fn delivered(&mut self, node: u32, packet: u32) {
        self.delivered += 1;
        self.trace(packet, node, TraceEventKind::Delivered);
    }

    #[inline]
    fn dropped(&mut self, node: u32, packet: u32) {
        self.dropped += 1;
        self.trace(packet, node, TraceEventKind::Dropped);
    }

    #[inline]
    fn head_stalled(&mut self, node: u32, packet: u32, cycles: u32) {
        // Power-of-two backoff keeps long stalls from flooding the ring
        // while still marking that the stall is ongoing.
        if cycles.is_power_of_two() {
            self.trace(packet, node, TraceEventKind::Stalled { cycles });
        }
    }

    #[inline]
    fn occupancy_sample(&mut self, _node: u32, occupied: u32) {
        self.vc_occupancy.record(u64::from(occupied));
    }

    #[inline]
    fn boundary_out(&mut self, to_prev: u64, to_next: u64) {
        self.boundary_to_prev += to_prev;
        self.boundary_to_next += to_next;
    }

    #[inline]
    fn barrier(&mut self, _cycles: u64) {
        self.barriers += 1;
    }

    #[inline]
    fn phase_ns(&mut self, phase: Phase, ns: u64) {
        self.phases.add(phase, ns);
    }

    fn run_stopped(&mut self, cycle: u64, reason: StopKind) {
        self.cycle = cycle;
        self.stop = Some(reason);
        self.stop_cycle = cycle;
        self.trace(TraceEvent::NO_PACKET, self.start, TraceEventKind::RunStopped { reason });
    }

    fn stalled_packet(&mut self, packet: StalledPacket) {
        self.stalled.push(packet);
    }

    fn wait_edge(&mut self, edge: WaitEdge) {
        self.wait_edges.push(edge);
    }

    fn wait_blocked(&mut self, blocked: BlockedWait) {
        self.blocked.push(blocked);
    }

    fn vc_front(&mut self, front: VcFront) {
        self.fronts.push(front);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_obs_accumulates_and_traces() {
        let mut obs = ShardObs::new(0, 8, 16, ObsLevel::Trace);
        obs.cycle_start(5);
        obs.inject(9, 100);
        obs.link_flit(9, 2);
        obs.link_flit(9, 2);
        obs.head_grant(GrantInfo {
            node: 9,
            packet: 100,
            dir: 2,
            vc: 1,
            class: 0,
            fresh_vc: true,
            stalled: 3,
        });
        obs.escape_entered(10, 100);
        obs.delivered(12, 100);
        assert_eq!(obs.injected, 1);
        assert_eq!(obs.delivered, 1);
        let lnode = 9 - 8; // node 9 in a shard starting at 8
        assert_eq!(obs.link_flits[lnode * 4 + 2], 2);
        assert_eq!(obs.escape_entries[10 - 8], 1);
        assert_eq!(obs.stall_cycles.count(), 1);
        assert_eq!(obs.stall_cycles.max(), 3);
        // Inject + HopGranted + VcAllocated + EscapeEntered + Delivered.
        assert_eq!(obs.ring.seen(), 5);
        assert!(obs.ring.events().all(|e| e.cycle == 5));
    }

    #[test]
    fn metrics_level_counts_without_tracing() {
        let mut obs = ShardObs::new(0, 0, 4, ObsLevel::Metrics);
        obs.inject(1, 7);
        obs.head_stalled(1, 7, 4);
        assert_eq!(obs.injected, 1);
        assert_eq!(obs.ring.seen(), 0);
    }

    #[test]
    fn stall_trace_backs_off_to_powers_of_two() {
        let mut obs = ShardObs::new(0, 0, 4, ObsLevel::Trace);
        for c in 1..=9u32 {
            obs.head_stalled(0, 3, c);
        }
        // 1, 2, 4, 8.
        assert_eq!(obs.ring.seen(), 4);
    }
}
