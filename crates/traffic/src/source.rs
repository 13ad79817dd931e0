//! Application workloads: the [`WorkloadSource`] trait and the
//! coordinator-side `WorkloadDriver` (crate-internal) that feeds a
//! source's messages into the fabric and closes the delivery-feedback
//! loop.
//!
//! Synthetic traffic is a point process — every node draws
//! independently per cycle and the run can only report per-packet
//! latency. A workload source instead *schedules* messages: a trace
//! replays recorded `(cycle, src, dst, len)` entries, a flow DAG
//! releases a message once all its predecessors have delivered, a
//! collective phase releases round `r + 1` once round `r` completes.
//! All three drive the fabric through this one trait: [`TraceSource`]
//! lives here and replays the [`WorkloadMsg`]s a recording run writes;
//! the DAG and collective schedulers live in the `meshpath-workload`
//! crate.
//!
//! ## Determinism
//!
//! The source lives **coordinator-side**: it is polled once per cycle,
//! in cycle order, strictly after every delivery of the previous cycle
//! has been fed back — the same replay discipline the online-churn
//! driver uses. Released messages are broadcast to the shard workers
//! before the window covering their injection cycle is granted, so a
//! workload run is bit-identical at every shard count (the coordinator
//! cuts windows to one cycle while a workload is attached; see
//! [`crate::sim`]). Within one cycle
//! the delivery feedback arrives in shard-merge order, which thread
//! scheduling may permute — so a source's bookkeeping must be
//! order-insensitive over same-cycle events (readiness sets and counts
//! are; anything order-shaped is sorted before it is read).
//!
//! ## Never wedges
//!
//! A released message can die without a delivery: admission can fail
//! (unroutable pair, source node failed), a churn event can drop it
//! from the source queue or kill it in flight. Every such death is
//! reported back as an abort; the driver cascades it through
//! [`WorkloadSource::on_aborted`] so dependent flows are aborted too
//! (counted in [`WorkloadOutcome::flows_aborted`]) instead of waiting
//! forever.

use meshpath_mesh::Coord;

use crate::stats::LatencyHistogram;

/// The flow id carried by synthetic (non-workload) packets.
pub const NO_FLOW: u32 = u32::MAX;

/// Latencies above this resolve to the flow-completion histogram's
/// overflow bucket (same cap as the packet-latency histogram).
const FLOW_HISTOGRAM_CAP: usize = 4096;

/// One message a workload source wants injected — and one line of a
/// recorded packet trace (see `--record-trace` and the
/// `meshpath-analysis` trace I/O): a recording run writes every
/// generation attempt, refused ones included, in `(cycle, source node)`
/// order, and a replay runs each through admission again, so it
/// reproduces the original `TrafficStats` bit-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadMsg {
    /// Injection cycle. Sources are polled per cycle and must release
    /// each message at exactly its injection cycle (`at == cycle`).
    pub at: u64,
    /// Flow id ([`NO_FLOW`] for anonymous trace entries). Travels with
    /// the packet; deliveries and aborts are fed back under this id.
    pub flow: u32,
    /// Source node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// Packet length in flits (>= 1).
    pub len: u32,
}

/// Replays a recorded packet trace: every entry is released at exactly
/// its recorded cycle and admitted (or refused) again, and
/// [`exhausted`](WorkloadSource::exhausted)
/// holds until the recorded horizon so the replayed run terminates on
/// exactly the original's cycle — together that makes the replay
/// bit-identical (`TrafficStats` and all) to the recording run under
/// the same `SimConfig`, at every shard count.
pub struct TraceSource {
    /// Entries sorted by cycle (stable, so one node's same-cycle
    /// releases keep their recorded order).
    entries: Vec<WorkloadMsg>,
    idx: usize,
    /// The cycle the recording run stopped at: the replay must not
    /// report exhaustion before it, or the two runs' termination cycles
    /// — and with them the drained-delivery ledgers — would diverge.
    horizon: u64,
}

impl TraceSource {
    /// A replay source over `entries` with the recording run's stop
    /// cycle `horizon`. Entries may arrive in any order; they are
    /// stably sorted by cycle (per-node relative order is preserved,
    /// which is the only intra-cycle order the fabric can observe).
    pub fn new(mut entries: Vec<WorkloadMsg>, horizon: u64) -> Self {
        entries.sort_by_key(|e| e.at);
        TraceSource { entries, idx: 0, horizon }
    }

    /// Number of trace entries not yet released.
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> usize {
        self.entries.len() - self.idx
    }
}

impl WorkloadSource for TraceSource {
    fn release(&mut self, cycle: u64) -> Vec<WorkloadMsg> {
        debug_assert!(
            self.idx == self.entries.len() || self.entries[self.idx].at >= cycle,
            "trace entries in the past (release skipped a cycle?)"
        );
        let start = self.idx;
        while self.idx < self.entries.len() && self.entries[self.idx].at == cycle {
            self.idx += 1;
        }
        self.entries[start..self.idx].to_vec()
    }

    fn exhausted(&self, cycle: u64) -> bool {
        self.idx == self.entries.len() && cycle >= self.horizon
    }
}

/// A scheduled application workload: the message source the simulation
/// driver polls per cycle, with delivery/abort feedback closing the
/// loop. Implementations: [`TraceSource`] here; flow DAGs and
/// collective phases in the `meshpath-workload` crate.
///
/// While a source is attached the synthetic injection process is
/// disabled — the source *is* the traffic.
pub trait WorkloadSource {
    /// Messages to inject at exactly `cycle`. Called once per cycle in
    /// cycle order (cycle 0 included), strictly after every delivery
    /// completing at `cycle` has been fed back through
    /// [`on_delivered`](WorkloadSource::on_delivered) — so a flow whose
    /// last predecessor delivers at `cycle` may be released at `cycle`.
    /// Every returned message must have `at == cycle`.
    fn release(&mut self, cycle: u64) -> Vec<WorkloadMsg>;

    /// Feedback: the packet of `flow` completed delivery at `at`.
    /// Same-cycle calls arrive in shard-merge order; bookkeeping must
    /// not depend on it.
    fn on_delivered(&mut self, flow: u32, at: u64) {
        let _ = (flow, at);
    }

    /// Feedback: `flow` died without delivering (unroutable,
    /// churn-dropped, churn-killed). Returns every *dependent* flow
    /// this transitively aborts (each reported exactly once across all
    /// calls) so the scheduler never waits on a dead predecessor.
    fn on_aborted(&mut self, flow: u32) -> Vec<u32> {
        let _ = flow;
        Vec::new()
    }

    /// Whether the source will release nothing at or after `cycle` —
    /// the workload analogue of the synthetic run's "generation window
    /// is over" (`cycle >= warmup + measure`) termination gate. A trace
    /// replay additionally holds this false until the recorded horizon
    /// so replayed runs terminate on exactly the original's cycle.
    fn exhausted(&self, cycle: u64) -> bool;

    /// Completed collective phases (empty for phase-less sources).
    /// Read once, at the end of the run.
    fn phases(&self) -> Vec<PhaseOutcome> {
        Vec::new()
    }

    /// The critical path through the workload — the flow chain ending
    /// at the last delivery, each link the latest-delivering
    /// predecessor of the next (empty for dependency-free sources).
    /// Read once, at the end of the run.
    fn critical_path(&self) -> Vec<u32> {
        Vec::new()
    }
}

/// One completed flow: when its message was released and when its
/// packet delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowCompletion {
    /// Flow id.
    pub flow: u32,
    /// Release (= injection-schedule) cycle.
    pub released_at: u64,
    /// Delivery cycle (tail ejection + the ejection link).
    pub delivered_at: u64,
}

/// One collective phase's timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseOutcome {
    /// Phase index (round number).
    pub index: u32,
    /// Cycle the phase's messages were released.
    pub released_at: u64,
    /// Cycle the last of the phase's flows resolved (delivered or
    /// aborted).
    pub completed_at: u64,
    /// Flows delivered in this phase.
    pub delivered: u64,
    /// Flows aborted in this phase.
    pub aborted: u64,
}

impl PhaseOutcome {
    /// Phase completion time in cycles.
    pub fn cycles(&self) -> u64 {
        self.completed_at.saturating_sub(self.released_at)
    }
}

/// Everything a workload run measured beyond [`TrafficStats`]: flow
/// completions, the completion-time histogram behind `flow_p50` /
/// `flow_p99`, collective-phase timings and the abort ledger.
///
/// [`TrafficStats`]: crate::TrafficStats
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadOutcome {
    /// Messages released to the fabric (injected or aborted at
    /// admission).
    pub released: u64,
    /// Identified flows (`flow != NO_FLOW`) that completed delivery.
    pub flows_delivered: u64,
    /// Identified flows that died without delivering — admission
    /// failures, churn drops/kills, plus every dependent
    /// flow cascaded through [`WorkloadSource::on_aborted`].
    pub flows_aborted: u64,
    /// Per-flow completions, sorted by `(delivered_at, flow)`.
    pub completions: Vec<FlowCompletion>,
    /// Histogram of `delivered_at - released_at` over completed flows.
    pub completion: LatencyHistogram,
    /// End-to-end makespan: last delivery minus first release (0 when
    /// nothing delivered).
    pub makespan: u64,
    /// Collective-phase timings, in phase order.
    pub phases: Vec<PhaseOutcome>,
    /// The critical path (flow-id chain) for DAG sources.
    pub critical_path: Vec<u32>,
}

impl WorkloadOutcome {
    /// Median flow completion time in cycles.
    pub fn flow_p50(&self) -> u64 {
        self.completion.percentile(0.50)
    }

    /// 99th-percentile flow completion time in cycles.
    pub fn flow_p99(&self) -> u64 {
        self.completion.percentile(0.99)
    }

    /// Per-phase completion times in cycles, in phase order.
    pub fn phase_cycles(&self) -> Vec<u64> {
        self.phases.iter().map(|p| p.cycles()).collect()
    }
}

/// Coordinator-side workload driver: polls the source per cycle,
/// tracks injected-but-unresolved messages (the termination gate),
/// records per-flow completions, and cascades aborts. One instance per
/// run, regardless of band count.
pub(crate) struct WorkloadDriver {
    source: Box<dyn WorkloadSource>,
    /// Released messages not yet delivered or aborted.
    /// Purely a safety ledger — the fabric's own in-flight/backlog
    /// accounting covers injected packets; this covers the release →
    /// injection hand-off window.
    outstanding: u64,
    released: u64,
    flows_delivered: u64,
    flows_aborted: u64,
    /// `flow -> released_at` for identified flows (completion-time
    /// reference).
    released_at: std::collections::HashMap<u32, u64>,
    completions: Vec<FlowCompletion>,
    completion: LatencyHistogram,
    first_release: Option<u64>,
    last_delivery: u64,
}

impl WorkloadDriver {
    pub(crate) fn new(source: Box<dyn WorkloadSource>) -> Self {
        WorkloadDriver {
            source,
            outstanding: 0,
            released: 0,
            flows_delivered: 0,
            flows_aborted: 0,
            released_at: std::collections::HashMap::new(),
            completions: Vec::new(),
            completion: LatencyHistogram::new(FLOW_HISTOGRAM_CAP),
            first_release: None,
            last_delivery: 0,
        }
    }

    /// Polls the source for `cycle`'s messages (called exactly once per
    /// cycle, in cycle order, after the previous cycle's feedback).
    pub(crate) fn poll(&mut self, cycle: u64) -> Vec<WorkloadMsg> {
        let msgs = self.source.release(cycle);
        for m in &msgs {
            debug_assert_eq!(m.at, cycle, "workload messages release at their injection cycle");
            self.outstanding += 1;
            self.released += 1;
            self.first_release.get_or_insert(cycle);
            if m.flow != NO_FLOW {
                self.released_at.insert(m.flow, cycle);
            }
        }
        msgs
    }

    /// Feedback: a workload packet left the fabric at `at` — delivered,
    /// or killed by churn (`killed`).
    pub(crate) fn on_delivery(&mut self, flow: u32, at: u64, killed: bool) {
        debug_assert!(self.outstanding > 0, "delivery without a released message");
        self.outstanding -= 1;
        if killed {
            self.abort_flow(flow);
            return;
        }
        self.last_delivery = self.last_delivery.max(at);
        if flow != NO_FLOW {
            let released_at = *self.released_at.get(&flow).expect("delivered flows were released");
            self.flows_delivered += 1;
            self.completions.push(FlowCompletion { flow, released_at, delivered_at: at });
            self.completion.record(at - released_at);
        }
        self.source.on_delivered(flow, at);
    }

    /// Feedback: a released message died worker-side before or at
    /// injection (admission failure, churn queue drop).
    pub(crate) fn on_worker_abort(&mut self, flow: u32) {
        debug_assert!(self.outstanding > 0, "abort without a released message");
        self.outstanding -= 1;
        self.abort_flow(flow);
    }

    fn abort_flow(&mut self, flow: u32) {
        if flow == NO_FLOW {
            return;
        }
        // The flow itself, and every dependent the source aborts with it.
        self.flows_aborted += 1 + self.source.on_aborted(flow).len() as u64;
    }

    /// The clean-termination gate: the source has nothing left to
    /// release at or after `cycle`. (Released-but-uninjected messages
    /// never outlive this check: a message is injected at its release
    /// cycle, where it becomes visible to the fabric's own
    /// backlog/in-flight accounting.)
    pub(crate) fn exhausted(&self, cycle: u64) -> bool {
        self.source.exhausted(cycle)
    }

    /// Seals the outcome at the end of the run.
    pub(crate) fn into_outcome(self) -> WorkloadOutcome {
        let mut completions = self.completions;
        completions.sort_by_key(|c| (c.delivered_at, c.flow));
        let makespan = match self.first_release {
            Some(first) if self.last_delivery > 0 => self.last_delivery.saturating_sub(first),
            _ => 0,
        };
        WorkloadOutcome {
            released: self.released,
            flows_delivered: self.flows_delivered,
            flows_aborted: self.flows_aborted,
            completions,
            completion: self.completion,
            makespan,
            phases: self.source.phases(),
            critical_path: self.source.critical_path(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, x: i32, len: u32) -> WorkloadMsg {
        WorkloadMsg { at, src: Coord::new(x, 0), dst: Coord::new(x, 3), len, flow: NO_FLOW }
    }

    #[test]
    fn releases_at_recorded_cycles_in_stable_order() {
        let mut src = TraceSource::new(
            vec![entry(5, 2, 4), entry(1, 1, 4), entry(5, 2, 3), entry(5, 0, 1)],
            10,
        );
        assert!(src.release(0).is_empty());
        let c1 = src.release(1);
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].at, 1);
        for cycle in 2..5 {
            assert!(src.release(cycle).is_empty());
        }
        let c5 = src.release(5);
        assert_eq!(c5.len(), 3);
        // Stable: node 2's two releases keep their recorded order.
        assert_eq!((c5[0].src.x, c5[0].len), (2, 4));
        assert_eq!((c5[1].src.x, c5[1].len), (2, 3));
        assert_eq!((c5[2].src.x, c5[2].len), (0, 1));
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn exhaustion_waits_for_the_recorded_horizon() {
        let mut src = TraceSource::new(vec![entry(0, 1, 2)], 7);
        assert!(!src.exhausted(0));
        let _ = src.release(0);
        assert!(!src.exhausted(6), "all entries released, but the horizon is not reached");
        assert!(src.exhausted(7));
    }

    /// A two-message source: flow 1 at cycle 0, flow 2 released one
    /// cycle after flow 1 delivers.
    struct Chain {
        released: [bool; 2],
        delivered_1_at: Option<u64>,
        aborted: Vec<u32>,
    }

    impl WorkloadSource for Chain {
        fn release(&mut self, cycle: u64) -> Vec<WorkloadMsg> {
            let mut out = Vec::new();
            let msg = |flow: u32| WorkloadMsg {
                at: cycle,
                flow,
                src: Coord::new(0, 0),
                dst: Coord::new(1, 1),
                len: 1,
            };
            if cycle == 0 && !self.released[0] {
                self.released[0] = true;
                out.push(msg(1));
            }
            if let Some(at) = self.delivered_1_at {
                if cycle > at && !self.released[1] && !self.aborted.contains(&2) {
                    self.released[1] = true;
                    out.push(msg(2));
                }
            }
            out
        }

        fn on_delivered(&mut self, flow: u32, at: u64) {
            if flow == 1 {
                self.delivered_1_at = Some(at);
            }
        }

        fn on_aborted(&mut self, flow: u32) -> Vec<u32> {
            self.aborted.push(flow);
            if flow == 1 && !self.released[1] {
                self.aborted.push(2);
                vec![2]
            } else {
                Vec::new()
            }
        }

        fn exhausted(&self, _cycle: u64) -> bool {
            (self.released[0] || self.aborted.contains(&1))
                && (self.released[1] || self.aborted.contains(&2))
        }
    }

    #[test]
    fn driver_tracks_completions_and_makespan() {
        let mut drv = WorkloadDriver::new(Box::new(Chain {
            released: [false, false],
            delivered_1_at: None,
            aborted: Vec::new(),
        }));
        assert_eq!(drv.poll(0).len(), 1);
        assert!(!drv.exhausted(1));
        drv.on_delivery(1, 5, false);
        assert!(drv.poll(5).is_empty(), "successor releases after the delivery cycle");
        assert_eq!(drv.poll(6).len(), 1);
        assert!(drv.exhausted(7));
        drv.on_delivery(2, 11, false);
        let out = drv.into_outcome();
        assert_eq!(out.released, 2);
        assert_eq!(out.flows_delivered, 2);
        assert_eq!(out.flows_aborted, 0);
        assert_eq!(
            out.completions,
            vec![
                FlowCompletion { flow: 1, released_at: 0, delivered_at: 5 },
                FlowCompletion { flow: 2, released_at: 6, delivered_at: 11 },
            ]
        );
        assert_eq!(out.makespan, 11);
        assert_eq!(out.completion.count(), 2);
        assert_eq!(out.flow_p50(), 5);
    }

    #[test]
    fn aborts_cascade_to_dependents() {
        let mut drv = WorkloadDriver::new(Box::new(Chain {
            released: [false, false],
            delivered_1_at: None,
            aborted: Vec::new(),
        }));
        assert_eq!(drv.poll(0).len(), 1);
        drv.on_worker_abort(1);
        assert_eq!(drv.flows_aborted, 2, "the dependent flow cascades");
        assert!(drv.exhausted(4), "a cascaded abort never wedges the schedule");
        let out = drv.into_outcome();
        assert_eq!(out.flows_delivered, 0);
        assert_eq!(out.flows_aborted, 2);
        assert!(out.completions.is_empty());
        assert_eq!(out.makespan, 0);
    }
}
