//! The simulation driver: the synthetic injection process, the measurement
//! protocol, and the run loop — one coordinator loop and one cycle
//! function for every band, with bit-identical results at every band
//! count.
//!
//! ## Sharded execution: bands and windows
//!
//! [`SimConfig::threads`] resolves to `N` row-band shards (see the
//! boundary-exchange protocol in `crate::fabric`). Each band's
//! `ShardWorker` owns its shard, the injection state of its nodes
//! (per-node RNG streams, source queues) and an `EscapeHop` over a
//! [`PathTable`]. Band 0 runs on the caller's thread over the caller's
//! table; bands `1..N` run on one worker thread each, over a private
//! table (hop decisions are pure functions of the network, so private
//! route caches cannot diverge).
//!
//! The coordinator runs the same loop at every band count: do the work
//! that opens the cycle (churn publications, workload releases), grant
//! every worker the same **window** of cycles (`Go::Lease`), step band
//! 0 through that window itself, merge the workers' per-cycle deltas
//! (moved flits, deliveries, generation counters) into band 0's and
//! replay them in cycle order through `RunState`, which keeps the
//! global statistics and makes every termination and observer
//! decision. Every band runs a window through the same function
//! (`ShardWorker::run_window`): per cycle plan/grant, the exchange of
//! cycle-stamped boundary messages with the adjacent bands (which is
//! what keeps neighbors causally consistent; a lone band skips it),
//! then commit. The window only amortizes the coordinator round trip.
//! Its length is one number per run — 1 for a lone band, else the
//! bands' shortest side, clamped to `[1, 64]` — and it never spans a
//! cycle that opens with coordinator work. Every per-node computation
//! is identical to the sequential run — per-node RNGs are seeded by
//! node id, grants commute within a cycle, and all cross-shard effects
//! are staged — so `TrafficStats` is
//! **bit-identical at every thread count and window length** (pinned
//! by `crate::golden`). A stop decided mid-window discards the window's
//! tail from the statistics; only the observability probes may record
//! that bounded overshoot.
//!
//! ## Churn
//!
//! Fault/repair events reach a running simulation one way (see
//! [`crate::churn`]): a [`SimConfig::fault_churn`] list fires each
//! event at its listed cycle, and [`TrafficSim::with_online_churn`]
//! attaches the live [`ChurnInjector`](crate::ChurnInjector) /
//! [`ChaosConfig`](crate::ChaosConfig) sources, polled at quantum
//! multiples. At every such boundary the coordinator applies what is
//! due to its authoritative `NetState` (incremental rebuild with
//! full-rebuild fallback) and broadcasts each resulting [`NetView`]
//! epoch to every band — to band 0 directly, to the worker threads over
//! their control lanes (windows end at boundaries, so `Go::Publish`
//! precedes the window that starts there on each FIFO lane and every
//! band adopts the epoch before the boundary cycle runs). Bands rebuild
//! their hop routers' escape structures (`HopRouter::publish`) and
//! refresh source liveness and the destination sampler; packets stranded by a fresh fault are
//! replanned or killed (`churn_killed`), never wedged. Polling is
//! coordinator-side and deterministic, so churn runs stay
//! bit-identical at every thread count.
//!
//! ## Worker panic safety
//!
//! A panicking band must not hang the run: every band steps under
//! `catch_unwind`. A worker thread reports its panic over the shared
//! `done` lane and returns its channel ends (dropping them unblocks its
//! neighbors); after a band-0 panic the coordinator drops band 0's
//! boundary lanes before it joins the workers. Either way the failure
//! surfaces as a typed [`RunError`] from [`TrafficSim::try_run_full`],
//! at every band count; [`run_traffic`] re-panics with the band's
//! message.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Instant;

use meshpath_mesh::{derive_seed, Coord, FaultSet, Mesh, NodeId};
use meshpath_obs::{FabricProbe, NoProbe, ObsLevel, ObsReport, Phase, ShardObs, StopKind};
use meshpath_route::NetView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::churn::{OnlineChurn, OnlineDriver};
use crate::config::SimConfig;
use crate::fabric::{BoundaryMsg, Delivery, Flit, PacketState, Shard, StepReport};
use crate::routing::{EscapeHop, HopRouter, PathTable, RoutingKind};
use crate::source::{
    TraceEntry, TraceSource, WorkloadDriver, WorkloadMsg, WorkloadOutcome, WorkloadSource,
};
use crate::stats::{LatencyHistogram, TrafficStats, WindowControl, WindowObserver, WindowSample};

/// Latencies above this resolve to the histogram overflow bucket.
const HISTOGRAM_CAP: usize = 4096;

/// Per-shard packet-id namespace: shard `s` allocates ids
/// `s << ID_SHARD_SHIFT ..`. Ids are opaque tokens (never ordered or
/// persisted), so the namespace only has to be collision-free.
const ID_SHARD_SHIFT: u32 = 24;

/// Cycles of zero fabric movement (with flits in flight and nothing
/// injectable) before the run is declared deadlocked.
///
/// With escape VCs enabled this is a *liveness assertion*: Duato-style
/// escape routing is expected to keep the fabric moving, so a firing
/// detector indicates either an escape-starved fault pattern (every
/// member of a cyclic wait parked where its XY run crosses a fault) or
/// a fabric bug. Without escape VCs it is the expected failure mode of
/// adaptive wormhole routing under load.
const DEADLOCK_WINDOW: u64 = 1000;

/// Longest window of cycles the bands run between two coordinator
/// contacts, however deep the bands are: the first report of a run (and
/// a stop decision) is never more than this far away.
const MAX_WINDOW: u64 = 64;

/// Why a run failed instead of producing statistics.
///
/// Returned by [`TrafficSim::try_run_full`]. A band's panic is caught
/// where the band steps and surfaced here — the coordinator tears the
/// run down (dropping its lanes unblocks every worker) instead of
/// hanging on a dead channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A band panicked while stepping; `message` is its panic payload.
    WorkerPanicked {
        /// Index of the band that died.
        shard: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A worker disappeared (its channel ends dropped) without
    /// reporting a panic — a bug in the run loop rather than a band.
    WorkerLost,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::WorkerPanicked { shard, message } => {
                write!(f, "shard worker {shard} panicked: {message}")
            }
            RunError::WorkerLost => write!(f, "a shard worker died without reporting a panic"),
        }
    }
}

impl std::error::Error for RunError {}

/// Stringifies a caught panic payload (the two shapes `panic!` emits).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A generated packet waiting at its source network interface. The
/// traveling `PacketState` is handed to the fabric with the head
/// flit.
struct QueuedPacket {
    id: u32,
    state: PacketState,
    /// Flits not yet fed into the injection channel.
    remaining: u32,
}

/// Per-node injection state.
struct SourceNode {
    id: NodeId,
    coord: Coord,
    rng: StdRng,
    queue: VecDeque<QueuedPacket>,
    /// Whether the node is healthy under the *current* epoch (fault
    /// churn): a failed node stops generating (its RNG stream
    /// freezes) but keeps feeding a partially-injected worm.
    active: bool,
}

/// Uniform destinations over one epoch's healthy nodes.
struct DestSampler {
    healthy: Vec<Coord>,
}

impl DestSampler {
    fn new(faults: &FaultSet) -> Self {
        let mesh = faults.mesh();
        DestSampler { healthy: mesh.iter().filter(|&c| faults.is_healthy(c)).collect() }
    }

    /// A healthy node other than `src`, uniformly, or `None` when there
    /// is none (the packet is simply not generated).
    fn dest(&self, src: Coord, rng: &mut StdRng) -> Option<Coord> {
        if self.healthy.len() < 2 {
            return None;
        }
        // Rejection loop: terminates fast because at least half the
        // draws differ from `src` whenever 2+ healthy nodes exist.
        for _ in 0..64 {
            let d = self.healthy[rng.gen_range(0..self.healthy.len())];
            if d != src {
                return Some(d);
            }
        }
        None
    }
}

/// Generation-side statistics deltas of one shard over one cycle.
#[derive(Clone, Copy, Debug, Default)]
struct GenDelta {
    generated: u64,
    measured_generated: u64,
    unroutable: u64,
    ttl_dropped: u64,
    /// Packets discarded from source queues by a node failure.
    churn_dropped: u64,
    /// The subset of `churn_dropped` generated inside the measurement
    /// window (they release `measured_outstanding`).
    measured_dropped: u64,
}

/// Everything one shard contributes to one cycle, merged (commutative
/// sums) by the coordinator.
#[derive(Default)]
struct CycleDone {
    /// What plan/grant moved, ejected and committed to escape classes.
    step: StepReport,
    injected_any: bool,
    in_flight: u64,
    backlog: u64,
    gen: GenDelta,
    deliveries: Vec<Delivery>,
    /// Flow ids of workload messages that died worker-side this cycle
    /// (admission failure, TTL budget, churn queue drop) — the
    /// coordinator's workload driver cascades them so a dependent flow
    /// never waits on a dead predecessor. Empty unless a workload is
    /// attached.
    aborted: Vec<u32>,
    /// Generation attempts recorded this cycle (empty unless
    /// [`SimConfig::record_trace`] is set). The coordinator sorts each
    /// cycle's merged entries by source node, which is deterministic:
    /// one node's attempts stay on one shard, in release order.
    trace: Vec<TraceEntry>,
}

impl CycleDone {
    fn merge(&mut self, mut other: CycleDone) {
        self.step.moved += other.step.moved;
        self.step.flits_ejected += other.step.flits_ejected;
        self.step.escape_entries += other.step.escape_entries;
        self.injected_any |= other.injected_any;
        self.in_flight += other.in_flight;
        self.backlog += other.backlog;
        self.gen.generated += other.gen.generated;
        self.gen.measured_generated += other.gen.measured_generated;
        self.gen.unroutable += other.gen.unroutable;
        self.gen.ttl_dropped += other.gen.ttl_dropped;
        self.gen.churn_dropped += other.gen.churn_dropped;
        self.gen.measured_dropped += other.gen.measured_dropped;
        self.deliveries.append(&mut other.deliveries);
        self.aborted.append(&mut other.aborted);
        self.trace.append(&mut other.trace);
    }
}

/// Coordinator → worker control message.
#[derive(Clone)]
enum Go {
    /// Run the window of `len >= 1` cycles starting at `start` without
    /// further coordinator contact. The per-cycle neighbor boundary
    /// exchange still happens inside the window; only the coordinator
    /// round trip is amortized.
    Lease { start: u64, len: u64 },
    /// Adopt a churn epoch (the network after the applied operation):
    /// the coordinator sends one per applied event, always *before*
    /// the window that starts at the event's boundary cycle on the
    /// same FIFO lane.
    Publish(NetView),
    /// Enqueue the workload messages releasing at the next cycle (each
    /// worker keeps the ones whose source node it owns). Sent before
    /// the one-cycle window covering that cycle on the same FIFO lane —
    /// with a workload attached every cycle is a boundary, since the
    /// source can react to any delivery.
    Inject(Vec<WorkloadMsg>),
    /// The run is over (final cycle count and stop classification);
    /// finalize the probe and return it.
    Finish(u64, StopKind),
}

/// Worker → coordinator report: one window's per-cycle deltas (in
/// cycle order, for deterministic replay), or the worker's dying
/// word. Sharing the `done` lane means the coordinator learns of a
/// panic exactly where it would otherwise block forever.
enum WorkerReport {
    Cycles(Vec<CycleDone>),
    Panicked { shard: usize, message: String },
}

/// One neighbor lane's payload: the cycle it belongs to (the
/// neighbor's clock) and that cycle's boundary messages.
type BoundaryLane = (u64, Vec<BoundaryMsg>);

/// A band's boundary lanes: per adjacent band (`[before, after]`) one
/// lane out and one in (`None` at a mesh edge, so a lone band has none).
/// Every end is *moved* to its unique user, so a band that stops
/// stepping (a worker that returns or unwinds, band 0 after a caught
/// panic) disconnects its lanes and its neighbors' blocking `recv`s
/// error out instead of waiting forever.
#[derive(Default)]
struct BandLanes {
    to: [Option<Sender<BoundaryLane>>; 2],
    from: [Option<Receiver<BoundaryLane>>; 2],
}

/// The coordinator's end of the worker threads (bands `1..N`): one
/// control lane per worker and the shared report lane back. Empty for a
/// lone band, so a single-band run touches no channel.
struct Workers {
    go: Vec<Sender<Go>>,
    done: Receiver<WorkerReport>,
}

impl Workers {
    /// Hands a control message to every worker.
    fn control(&self, go: &Go) {
        for tx in &self.go {
            let _ = tx.send(go.clone());
        }
    }

    /// Merges every worker's report of the current window into `merged`
    /// (band 0's, cycle by cycle), or fails with the first dying word.
    fn collect(&self, merged: &mut [CycleDone]) -> Result<(), RunError> {
        for _ in 0..self.go.len() {
            match self.done.recv() {
                Ok(WorkerReport::Cycles(dones)) => {
                    merged.iter_mut().zip(dones).for_each(|(m, d)| m.merge(d));
                }
                Ok(WorkerReport::Panicked { shard, message }) => {
                    return Err(RunError::WorkerPanicked { shard, message });
                }
                Err(_) => return Err(RunError::WorkerLost),
            }
        }
        Ok(())
    }
}

/// One shard of the running simulation: the fabric band plus the
/// injection state, hop router and instrumentation probe of its rows.
/// Band 0 steps on the coordinator's thread, every other band on a
/// worker thread ([`ShardWorker::serve`]); all of them step through
/// [`ShardWorker::run_window`]. Monomorphized over the probe: with
/// [`NoProbe`] (the [`ObsLevel::Off`] default) no instrumentation code
/// exists on the hot path at all.
struct ShardWorker<'a, P: FabricProbe> {
    shard: Shard,
    probe: P,
    sources: Vec<SourceNode>,
    router: EscapeHop<'a>,
    mesh: Mesh,
    /// Destinations are drawn from the current epoch's healthy nodes.
    sampler: DestSampler,
    /// The current epoch: how many churn publications this worker has
    /// adopted. Identical across workers — every worker receives every
    /// publication ahead of the same boundary cycle.
    epoch: u32,
    /// Epochs adopted since the last cycle ran, whose source-liveness
    /// refresh is still due: it reports its queue drops into the first
    /// cycle of the epoch.
    adopted: Vec<NetView>,
    cfg: &'a SimConfig,
    ttl: u32,
    gen_until: u64,
    /// Packet ids allocated by this shard are `id_base + k`.
    id_base: u32,
    next_local: u32,
    /// Whether a workload source drives this run: the synthetic
    /// injection process is disabled and traffic comes exclusively
    /// from `Go::Inject` broadcasts (see [`crate::source`]).
    workload: bool,
    /// Workload messages awaiting their injection cycle (release
    /// order; with the one-cycle workload lease this never holds more
    /// than one cycle's worth).
    pending_workload: VecDeque<WorkloadMsg>,
    /// One bit per entry of `sources`, set while its queue is non-empty:
    /// the per-cycle feeder visits backlogged sources only.
    backlogged: Vec<u64>,
    /// Packets queued across `sources` (the coordinator's termination
    /// input), maintained at every push and pop.
    backlog: u64,
    /// Golden-equivalence hook: use the retained scan-order reference
    /// stepper instead of the event-driven one.
    #[cfg(test)]
    use_reference: bool,
    /// Fault-injection hook: panic at the start of this cycle's
    /// plan/grant phase (exercises the worker panic-safety path).
    #[cfg(test)]
    panic_at: Option<u64>,
}

impl<'a, P: FabricProbe> ShardWorker<'a, P> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shard: Shard,
        sources: Vec<SourceNode>,
        router: EscapeHop<'a>,
        base: &NetView,
        cfg: &'a SimConfig,
        ttl: u32,
        shard_index: usize,
        workload: bool,
        probe: P,
    ) -> Self {
        debug_assert!(
            sources.iter().enumerate().all(|(i, s)| shard.local_of(s.id.index()) == i),
            "a source's position is its local node index"
        );
        let backlogged = vec![0; sources.len().div_ceil(64)];
        ShardWorker {
            shard,
            probe,
            sources,
            router,
            mesh: *base.mesh(),
            sampler: DestSampler::new(base.faults()),
            epoch: 0,
            adopted: Vec::new(),
            cfg,
            ttl,
            gen_until: cfg.warmup + cfg.measure,
            id_base: (shard_index as u32) << ID_SHARD_SHIFT,
            next_local: 0,
            workload,
            pending_workload: VecDeque::new(),
            backlogged,
            backlog: 0,
            #[cfg(test)]
            use_reference: false,
            #[cfg(test)]
            panic_at: None,
        }
    }

    /// Arms the test hooks on the worker of shard `index`.
    #[cfg(test)]
    fn hook(&mut self, index: usize, reference: bool, panic_at: Option<(usize, u64)>) {
        self.use_reference = reference;
        self.panic_at = panic_at.and_then(|(s, at)| (s == index).then_some(at));
    }

    /// The one handler of the coordinator's non-lease control
    /// messages, for band 0 and the worker threads alike.
    fn control(&mut self, go: &Go) {
        match go {
            // Adopted on arrival — the publication precedes the first
            // cycle of its epoch on this worker's lane: re-provision
            // the hop router (escape forest and XY clearance rebuilt,
            // route cache for the new epoch) and redraw the sampler.
            Go::Publish(view) => {
                self.router.publish(view);
                self.sampler = DestSampler::new(view.faults());
                self.epoch += 1;
                self.adopted.push(view.clone());
            }
            // Broadcast filter: keep the messages whose source node
            // this shard owns (a message addressing an off-mesh source
            // is adopted by shard 0 so exactly one shard reports its
            // abort).
            Go::Inject(msgs) => {
                let mesh = self.mesh;
                self.pending_workload.extend(msgs.iter().copied().filter(|m| {
                    if mesh.contains(m.src) {
                        self.shard.contains_node(mesh.id(m.src).index())
                    } else {
                        self.id_base == 0
                    }
                }));
            }
            Go::Finish(cycle, reason) => self.finish_run(*cycle, *reason),
            Go::Lease { .. } => unreachable!("leases are run by `run_window`"),
        }
    }

    /// A worker thread's whole life: run each granted window and report
    /// it in one message, obey the other control messages, and return
    /// on `Go::Finish` or as soon as a lane dies (the run is being torn
    /// down).
    fn serve(&mut self, go: &Receiver<Go>, done: &Sender<WorkerReport>, lanes: &BandLanes) {
        loop {
            let t = P::ACTIVE.then(Instant::now);
            let msg = go.recv();
            if let Some(t) = t {
                self.probe.phase_ns(Phase::Fence, t.elapsed().as_nanos() as u64);
            }
            match msg {
                Ok(Go::Lease { start, len }) => match self.run_window(start, len, lanes) {
                    Some(dones) => {
                        let _ = done.send(WorkerReport::Cycles(dones));
                    }
                    None => return,
                },
                Ok(go) => {
                    self.control(&go);
                    if matches!(go, Go::Finish(..)) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }

    /// The one cycle driver: runs cycles `start..start + len` of this
    /// band — per cycle plan/grant, the boundary exchange with the
    /// adjacent bands (skipped when there is none), then commit — and
    /// returns their per-cycle reports in cycle order. `None` when a
    /// neighbor lane died mid-window (that neighbor panicked or exited).
    fn run_window(&mut self, start: u64, len: u64, lanes: &BandLanes) -> Option<Vec<CycleDone>> {
        if P::ACTIVE {
            self.probe.barrier(len);
        }
        let linked = lanes.to.iter().any(Option::is_some);
        let mut dones = Vec::with_capacity(len as usize);
        for cycle in start..start + len {
            let mut done = CycleDone::default();
            self.plan_and_grant(cycle, &mut done);
            if linked {
                if !self.exchange(cycle, lanes) {
                    return None;
                }
            } else {
                debug_assert!(
                    self.shard.take_outboxes().iter().all(Vec::is_empty),
                    "a lone band has no neighbor to exchange with"
                );
            }
            self.finish_cycle(&mut done);
            dones.push(done);
        }
        Some(dones)
    }

    /// The boundary exchange of `cycle`: send every outbox to its
    /// adjacent band, then land what the neighbors sent. `false` when a
    /// neighbor lane is dead — that neighbor panicked or exited, so the
    /// caller returns cleanly instead of panicking into the teardown.
    fn exchange(&mut self, cycle: u64, lanes: &BandLanes) -> bool {
        let t = P::ACTIVE.then(Instant::now);
        let boxes = self.shard.take_outboxes();
        if P::ACTIVE {
            self.probe.boundary_out(boxes[0].len() as u64, boxes[1].len() as u64);
        }
        for (d, msgs) in boxes.into_iter().enumerate() {
            match &lanes.to[d] {
                // Empty vectors are sent too: they are the neighbor's
                // cycle clock.
                Some(tx) => {
                    let _ = tx.send((cycle, msgs));
                }
                None => debug_assert!(msgs.is_empty(), "boundary messages stay on the mesh"),
            }
        }
        for rx in lanes.from.iter().flatten() {
            let Ok((c, msgs)) = rx.recv() else { return false };
            debug_assert_eq!(c, cycle, "neighbor lanes desynchronized");
            self.shard.apply_boundary(msgs);
        }
        if let Some(t) = t {
            self.probe.phase_ns(Phase::Boundary, t.elapsed().as_nanos() as u64);
        }
        true
    }

    /// Refreshes source liveness for every epoch adopted since the
    /// last cycle, discarding not-yet-injected packets queued at failed
    /// nodes (a partially injected worm keeps feeding — truncating it
    /// would wedge its VCs forever).
    fn refresh_sources(&mut self, done: &mut CycleDone) {
        for view in std::mem::take(&mut self.adopted) {
            let faults = view.faults();
            let workload = self.workload;
            for (i, s) in self.sources.iter_mut().enumerate() {
                let healthy = faults.is_healthy(s.coord);
                if s.active && !healthy {
                    // The failed node's NI discards its backlog. The
                    // head-of-line packet survives only when its worm is
                    // already partially in the fabric.
                    let keep =
                        usize::from(s.queue.front().is_some_and(|p| p.remaining < p.state.len));
                    self.backlog -= (s.queue.len() - keep) as u64;
                    if keep == 0 {
                        self.backlogged[i / 64] &= !(1 << (i % 64));
                    }
                    for dropped in s.queue.drain(keep..) {
                        done.gen.churn_dropped += 1;
                        let t = dropped.state.generated_at;
                        if t >= self.cfg.warmup && t < self.gen_until {
                            done.gen.measured_dropped += 1;
                        }
                        if workload {
                            // A discarded workload packet will never
                            // deliver: report the abort so the
                            // scheduler can cascade it.
                            done.aborted.push(dropped.state.flow);
                        }
                        if P::ACTIVE {
                            self.probe.dropped(s.id.0, dropped.id);
                        }
                    }
                }
                s.active = healthy;
            }
        }
    }

    /// The plan/grant half of one cycle: generation, injection-channel
    /// feeding and switch allocation + aging over this shard's active
    /// routers. Cross-shard effects land in the shard's outboxes;
    /// everything else accumulates into `done`.
    fn plan_and_grant(&mut self, cycle: u64, done: &mut CycleDone) {
        #[cfg(test)]
        if self.panic_at == Some(cycle) {
            panic!("injected test panic at cycle {cycle}");
        }
        if P::ACTIVE {
            self.probe.cycle_start(cycle);
        }
        let t = P::ACTIVE.then(Instant::now);
        if !self.adopted.is_empty() {
            self.refresh_sources(done);
        }
        if self.workload {
            self.release_workload(cycle, done);
        } else if cycle < self.gen_until {
            self.generate(cycle, done);
        }
        done.injected_any |= self.feed_injection_channels();
        self.allocate_and_age(&mut done.step, &mut done.deliveries);
        if P::ACTIVE {
            let window = self.cfg.stats_window;
            if window > 0 && (cycle + 1).is_multiple_of(window) {
                self.shard.sample_occupancy(&mut self.probe);
            }
            if let Some(t) = t {
                self.probe.phase_ns(Phase::Plan, t.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Switch allocation and stall aging over this shard's active
    /// routers (on the scan-order reference stepper when the golden
    /// hook asks for it).
    fn allocate_and_age(&mut self, report: &mut StepReport, deliveries: &mut Vec<Delivery>) {
        #[cfg(test)]
        if self.use_reference {
            self.shard.allocate_reference(&mut self.router, report, deliveries);
            self.shard.age_reference();
            return;
        }
        self.shard.allocate_active(&mut self.router, report, deliveries, &mut self.probe);
        self.shard.age_parked_heads(&mut self.probe);
    }

    /// The commit half of one cycle (after the boundary exchange):
    /// land arrivals and credits, then snapshot the occupancy figures
    /// the coordinator's termination logic needs.
    fn finish_cycle(&mut self, done: &mut CycleDone) {
        let t = P::ACTIVE.then(Instant::now);
        self.shard.commit_boundary();
        #[cfg(test)]
        self.shard.assert_masks_consistent();
        done.in_flight += self.shard.in_flight;
        done.backlog += self.backlog;
        if let Some(t) = t {
            self.probe.phase_ns(Phase::Commit, t.elapsed().as_nanos() as u64);
        }
    }

    /// Run-end hook: stamps the stop classification into the probe
    /// and, when the run wedged, walks the shard for the parked-head
    /// wait-for graph (the deadlock post-mortem's raw material).
    fn finish_run(&mut self, cycle: u64, reason: StopKind) {
        #[cfg(test)]
        self.shard.assert_pool_drained();
        if P::ACTIVE {
            self.probe.run_stopped(cycle, reason);
            if reason.is_wedged() {
                self.shard.collect_wait_graph(&mut self.router, &mut self.probe);
            }
        }
    }

    /// Generation at every healthy node of this shard: a Bernoulli
    /// trial at `rate`, then a uniform destination and `packet_len`
    /// flits.
    fn generate(&mut self, cycle: u64, done: &mut CycleDone) {
        for i in 0..self.sources.len() {
            let s = &mut self.sources[i];
            if !s.active || !s.rng.gen_bool(self.cfg.rate) {
                continue;
            }
            let src = s.coord;
            let Some(dst) = self.sampler.dest(src, &mut s.rng) else {
                continue;
            };
            let len = self.cfg.packet_len;
            self.admit(cycle, i, src, dst, crate::source::NO_FLOW, len, done);
        }
    }

    /// Releases this cycle's workload messages into the source queues
    /// (the workload-mode replacement for [`ShardWorker::generate`]):
    /// replayed rejection markers only bump the matching counter; live
    /// messages run the same admission as generated traffic, but a
    /// rejection is additionally reported on the abort lane — a
    /// workload message someone may depend on must never vanish
    /// silently.
    fn release_workload(&mut self, cycle: u64, done: &mut CycleDone) {
        while self.pending_workload.front().is_some_and(|m| m.at <= cycle) {
            let m = self.pending_workload.pop_front().expect("front checked");
            debug_assert_eq!(m.at, cycle, "workload messages release at their injection cycle");
            if m.drop != 0 {
                self.count_attempt(cycle, m.src, m.dst, m.flow, 0, m.drop, done);
                continue;
            }
            // An off-mesh endpoint or a failed source cannot inject;
            // the message dies like an unroutable pair.
            let slot = (self.mesh.contains(m.src) && self.mesh.contains(m.dst))
                .then(|| self.shard.local_of(self.mesh.id(m.src).index()))
                .filter(|&slot| self.sources[slot].active);
            let drop = match slot {
                Some(slot) => self.admit(cycle, slot, m.src, m.dst, m.flow, m.len.max(1), done),
                None => {
                    self.count_attempt(cycle, m.src, m.dst, m.flow, 0, 1, done);
                    1
                }
            };
            if drop != 0 {
                done.aborted.push(m.flow);
            }
        }
    }

    /// The one network-interface admission path: asks the hop router to
    /// *admit* the pair (is it routable, and how long is the compiled
    /// route, for the TTL check — the NI attaches no route; all
    /// forwarding decisions happen per hop in the fabric), and queues
    /// the packet of `len` flits at source `slot` when it passes.
    /// Returns the outcome (`0` queued, `1` unroutable, `2` over the
    /// TTL budget).
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        cycle: u64,
        slot: usize,
        src: Coord,
        dst: Coord,
        flow: u32,
        len: u32,
        done: &mut CycleDone,
    ) -> u8 {
        let drop = match self.router.admit(src, dst) {
            None => 1,
            Some(hops) if hops > self.ttl => 2,
            Some(_) => 0,
        };
        if drop == 0 {
            // Hard assert (one branch per generated packet, off the
            // hot path): wrapping would alias ids across shards and
            // silently corrupt ownership bookkeeping.
            assert!(self.next_local < 1 << ID_SHARD_SHIFT, "packet-id namespace exhausted");
            let id = self.id_base + self.next_local;
            self.next_local += 1;
            let mut state = PacketState::new(src, dst, cycle, len);
            state.epoch = self.epoch;
            state.flow = flow;
            self.enqueue(slot, QueuedPacket { id, state, remaining: len });
        }
        let len = if drop == 0 { len } else { 0 };
        self.count_attempt(cycle, src, dst, flow, len, drop, done);
        drop
    }

    /// Counts one generation attempt by outcome and, when recording,
    /// appends its trace entry. Rejections are recorded as drop
    /// markers (`len` 0): nothing was queued for them, so a replay
    /// must count — not inject — them.
    #[allow(clippy::too_many_arguments)]
    fn count_attempt(
        &self,
        cycle: u64,
        src: Coord,
        dst: Coord,
        flow: u32,
        len: u32,
        drop: u8,
        done: &mut CycleDone,
    ) {
        match drop {
            0 => {
                done.gen.generated += 1;
                if cycle >= self.cfg.warmup && cycle < self.gen_until {
                    done.gen.measured_generated += 1;
                }
            }
            1 => done.gen.unroutable += 1,
            _ => done.gen.ttl_dropped += 1,
        }
        if self.cfg.record_trace {
            done.trace.push(TraceEntry { cycle, src, dst, len, flow, drop });
        }
    }

    /// Queues a packet at source `i`, keeping the backlog bitmap and
    /// count in step.
    fn enqueue(&mut self, i: usize, packet: QueuedPacket) {
        self.sources[i].queue.push_back(packet);
        self.backlogged[i / 64] |= 1 << (i % 64);
        self.backlog += 1;
    }

    /// Feeds at most one flit per node per cycle from the head-of-line
    /// queued packet into the injection channel; the head flit carries
    /// the traveling packet state. Walks the backlogged sources in
    /// ascending index order — the order a scan of every source stages
    /// flits in.
    fn feed_injection_channels(&mut self) -> bool {
        let depth = self.cfg.vc_depth;
        let mut any = false;
        for w in 0..self.backlogged.len() {
            let mut bits = self.backlogged[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A source's position is its local node index.
                if self.shard.local_occupancy(i) >= depth {
                    continue;
                }
                let s = &mut self.sources[i];
                let front = s.queue.front_mut().expect("backlogged sources have a queued packet");
                let is_head = front.remaining == front.state.len;
                let flit = Flit { packet: front.id, is_head, is_tail: front.remaining == 1 };
                if P::ACTIVE && is_head {
                    self.probe.inject(s.id.0, front.id);
                }
                self.shard.inject(i, flit, is_head.then_some(front.state));
                front.remaining -= 1;
                if front.remaining == 0 {
                    s.queue.pop_front();
                    self.backlog -= 1;
                    if s.queue.is_empty() {
                        self.backlogged[w] &= !(1 << (i % 64));
                    }
                }
                any = true;
            }
        }
        any
    }
}

/// The coordinator's side of the run: global statistics, the
/// measurement windows, the churn and workload drivers, and the
/// termination decisions every shard obeys. One instance regardless
/// of band count.
struct RunState {
    warmup: u64,
    gen_until: u64,
    deadline: u64,
    window: u64,
    stats: TrafficStats,
    /// Why the run ended (valid once `end_of_cycle` returns `true`);
    /// the classification the observability post-mortem keys on.
    stop: StopKind,
    measured_outstanding: u64,
    idle_streak: u64,
    w_delivered: u64,
    w_lat_sum: u64,
    w_ejected: u64,
    w_moved: u64,
    /// Whether generation attempts are being recorded
    /// ([`SimConfig::record_trace`]).
    record_trace: bool,
    /// The recorded trace, appended per replayed cycle in canonical
    /// (source-node, release) order.
    trace: Vec<TraceEntry>,
    /// The churn sources (the `fault_churn` list and any live ones).
    churn: OnlineDriver,
    /// The attached workload's scheduler, if any.
    wl: Option<WorkloadDriver>,
}

impl RunState {
    fn new(cfg: &SimConfig, nodes: usize, churn: OnlineDriver, wl: Option<WorkloadDriver>) -> Self {
        let stats = TrafficStats {
            cycles: 0,
            nodes,
            measure_window: cfg.measure,
            generated: 0,
            measured_generated: 0,
            measured_delivered: 0,
            unroutable: 0,
            ttl_dropped: 0,
            escape_packets: 0,
            measured_flits_ejected: 0,
            flits_moved: 0,
            latency: LatencyHistogram::new(HISTOGRAM_CAP),
            saturated: false,
            deadlocked: false,
            epoch_delivered: vec![0],
            churn_dropped: 0,
            churn_killed: 0,
            churn_rejected: 0,
            online_events: Vec::new(),
        };
        RunState {
            warmup: cfg.warmup,
            gen_until: cfg.warmup + cfg.measure,
            deadline: cfg.warmup + cfg.measure + cfg.drain,
            window: cfg.stats_window,
            stats,
            stop: StopKind::Clean,
            measured_outstanding: 0,
            idle_streak: 0,
            w_delivered: 0,
            w_lat_sum: 0,
            w_ejected: 0,
            w_moved: 0,
            record_trace: cfg.record_trace,
            trace: Vec::new(),
            churn,
            wl,
        }
    }

    /// The first cycle at or after `from` that opens with coordinator
    /// work ([`RunState::boundary`]): every cycle under a workload (the
    /// source may react to any delivery), else the churn driver's next
    /// boundary. No window spans one.
    fn next_boundary(&self, from: u64) -> u64 {
        if self.wl.is_some() {
            from
        } else {
            self.churn.next_boundary(from)
        }
    }

    /// The coordinator work that opens `cycle`, handing each resulting
    /// control message to `send` (which must reach every worker before
    /// it runs `cycle`): the churn publications due, then the
    /// workload release — polled strictly after the previous cycle's
    /// feedback ([`RunState::end_of_cycle`]) and this cycle's
    /// publications.
    fn boundary(&mut self, cycle: u64, mut send: impl FnMut(Go)) {
        for view in self.churn.poll(cycle) {
            // Grow the per-epoch delivery ledger exactly when the epoch
            // is published — its length is part of the bit-identity
            // contract.
            self.stats.epoch_delivered.push(0);
            send(Go::Publish(view));
        }
        if let Some(wl) = self.wl.as_mut() {
            let msgs = wl.poll(cycle);
            if !msgs.is_empty() {
                send(Go::Inject(msgs));
            }
        }
    }

    /// Absorbs one cycle's merged shard reports and decides whether the
    /// run ends. `cycle` is the cycle just simulated (0-based). With a
    /// workload attached, deliveries and worker-side aborts are fed
    /// back to the scheduler here — strictly before the source is next
    /// polled — and the generation-window termination gate is replaced
    /// by the source's own exhaustion signal.
    fn end_of_cycle(
        &mut self,
        cycle: u64,
        mut agg: CycleDone,
        obs: &mut dyn WindowObserver,
    ) -> bool {
        let mut wl = self.wl.as_mut();
        let (warmup, gen_until) = (self.warmup, self.gen_until);
        let measured = |t: u64| t >= warmup && t < gen_until;
        if self.record_trace {
            // Stable by source node: one node's attempts live on one
            // shard in release order, so this is the canonical order
            // regardless of how the shard reports merged.
            agg.trace.sort_by_key(|e| (e.src.y, e.src.x));
            self.trace.append(&mut agg.trace);
        }
        if let Some(wl) = wl.as_deref_mut() {
            for flow in agg.aborted.drain(..) {
                wl.on_worker_abort(flow, cycle);
            }
        }
        self.stats.flits_moved += agg.step.moved;
        self.stats.escape_packets += agg.step.escape_entries;
        self.stats.generated += agg.gen.generated;
        self.stats.measured_generated += agg.gen.measured_generated;
        self.stats.unroutable += agg.gen.unroutable;
        self.stats.ttl_dropped += agg.gen.ttl_dropped;
        self.stats.churn_dropped += agg.gen.churn_dropped;
        self.measured_outstanding += agg.gen.measured_generated;
        // Packets a node failure discarded at their NI will never
        // deliver; release them so a churn run can still end cleanly.
        self.measured_outstanding -= agg.gen.measured_dropped;
        for d in agg.deliveries.drain(..) {
            // +1: the ejection link (see the fabric timing contract).
            let delivered_at = cycle + 1;
            let gen_at = d.state.generated_at;
            if d.state.killed {
                // A churn-killed worm drained through the ejection
                // port, but it was never delivered: it only releases
                // its measurement obligation.
                self.stats.churn_killed += 1;
                if measured(gen_at) {
                    self.measured_outstanding -= 1;
                }
                if let Some(wl) = wl.as_deref_mut() {
                    wl.on_delivery(d.state.flow, delivered_at, true);
                }
                continue;
            }
            self.stats.epoch_delivered[d.state.epoch as usize] += 1;
            self.w_delivered += 1;
            self.w_lat_sum += delivered_at - gen_at;
            if measured(gen_at) {
                self.stats.measured_delivered += 1;
                self.measured_outstanding -= 1;
                self.stats.latency.record(delivered_at - gen_at);
            }
            if let Some(wl) = wl.as_deref_mut() {
                wl.on_delivery(d.state.flow, delivered_at, false);
            }
        }
        if measured(cycle) {
            self.stats.measured_flits_ejected += agg.step.flits_ejected;
        }
        self.w_ejected += agg.step.flits_ejected;
        self.w_moved += agg.step.moved;

        // Progress & termination accounting.
        if agg.step.moved == 0 && !agg.injected_any {
            self.idle_streak += 1;
        } else {
            self.idle_streak = 0;
        }
        let cycle = cycle + 1;
        self.stats.cycles = cycle;

        if self.window > 0 && cycle.is_multiple_of(self.window) {
            let sample = WindowSample {
                start: cycle - self.window,
                end: cycle,
                delivered: self.w_delivered,
                mean_latency: if self.w_delivered == 0 {
                    0.0
                } else {
                    self.w_lat_sum as f64 / self.w_delivered as f64
                },
                ejected_flits: self.w_ejected,
                moved: self.w_moved,
                in_flight: agg.in_flight,
                backlog: agg.backlog,
                measured_outstanding: self.measured_outstanding,
                draining: cycle >= self.gen_until,
            };
            (self.w_delivered, self.w_lat_sum, self.w_ejected, self.w_moved) = (0, 0, 0, 0);
            if obs.on_window(&sample) == WindowControl::Stop {
                self.stats.saturated = self.measured_outstanding > 0;
                // A stop on a delivery-free drain window is the
                // drain-stall signature (what DrainStallObserver
                // fires on); any other observer stop is a plain
                // early exit.
                self.stop = if sample.draining
                    && sample.delivered == 0
                    && sample.measured_outstanding > 0
                {
                    StopKind::DrainStall
                } else {
                    StopKind::Observer
                };
                return true;
            }
        }

        let work_left = agg.in_flight > 0 || agg.backlog > 0;
        // The generation horizon: nothing more will enter the fabric.
        // Synthetic runs cross it at the end of the measurement window;
        // a workload run crosses it when its source reports exhaustion
        // (a trace replay pins that to the recorded horizon so the
        // replayed run stops on exactly the original's cycle; a DAG
        // holds it until every flow resolves).
        let horizon = match wl.as_deref() {
            Some(wl) => wl.exhausted(cycle),
            None => cycle >= self.gen_until,
        };
        // Successful end of run. `idle_streak == 0` matters even once
        // every measured packet is home: leftover warmup-era worms may
        // be wedged in a cyclic wait, and breaking here would report a
        // clean run — let the deadlock detector below classify them
        // first.
        if horizon && (!work_left || (self.measured_outstanding == 0 && self.idle_streak == 0)) {
            return true;
        }
        // Classification: a cyclic wait is a deadlock even when it
        // forms late in the drain window, so the deadline only declares
        // saturation while flits are still moving; an in-progress idle
        // streak is allowed to resolve (bounded by DEADLOCK_WINDOW
        // extra cycles).
        if self.idle_streak >= DEADLOCK_WINDOW && agg.in_flight > 0 {
            self.stats.deadlocked = true;
            self.stop = StopKind::Deadlock;
            return true;
        }
        if cycle >= self.deadline && (self.idle_streak == 0 || agg.in_flight == 0) {
            self.stats.saturated = self.measured_outstanding > 0;
            self.stop = StopKind::Deadline;
            return true;
        }
        false
    }

    /// Seals the run once every shard has stopped: the statistics
    /// (accumulated per replayed cycle, so a window's tail past the
    /// stop decision is already excluded) with the churn log, the workload outcome, and the recorded
    /// trace (`Some` exactly when recording was on, even if nothing
    /// generated). The observability report is assembled by the caller.
    fn seal(self) -> RunOutput {
        let mut stats = self.stats;
        (stats.online_events, stats.churn_rejected) = self.churn.into_outcome();
        RunOutput {
            stats,
            obs: None,
            workload: self.wl.map(WorkloadDriver::into_outcome),
            trace: self.record_trace.then_some(self.trace),
        }
    }
}

/// Everything a run can produce: the statistics, the optional merged
/// observability report, the workload outcome (when a
/// [`WorkloadSource`] was attached) and the recorded packet trace
/// (when [`SimConfig::record_trace`] was set).
///
/// Returned by [`TrafficSim::try_run_full`].
#[derive(Debug)]
pub struct RunOutput {
    /// The run statistics.
    pub stats: TrafficStats,
    /// The merged observability report ([`SimConfig::obs`] above
    /// [`ObsLevel::Off`]).
    pub obs: Option<ObsReport>,
    /// Flow/phase completion metrics of the attached workload.
    pub workload: Option<WorkloadOutcome>,
    /// The recorded generation trace, replayable through a trace
    /// workload source for a bit-identical rerun.
    pub trace: Option<Vec<TraceEntry>>,
}

/// One traffic simulation: a sharded fabric over a fault configuration,
/// driven by the seeded synthetic injection process, routed per hop by an
/// `EscapeHop` over one compiled routing function.
///
/// The path table is borrowed so runs over the same network can reuse
/// compiled routes (route compilation dominates the low-load setup
/// cost): it is reset to its initial snapshot at construction, keeping
/// the epoch-0 routes. Band 0 routes over it at every band count, so
/// every run reads and warms it; bands `1..N` compile their routes in
/// private tables built from the same snapshot.
pub struct TrafficSim<'p> {
    cfg: SimConfig,
    /// Effective route hop budget (see `SimConfig::route_ttl`).
    ttl: u32,
    kind: RoutingKind,
    /// The row bands of the fabric, band 0 first.
    shards: Vec<Shard>,
    /// The caller's table: what band 0 routes over.
    paths: &'p mut PathTable,
    /// The initial (epoch-0) network snapshot.
    base: NetView,
    sources: Vec<SourceNode>,
    /// Live churn sources, polled by the coordinator at every quantum
    /// boundary (see [`TrafficSim::with_online_churn`]).
    online: Option<OnlineChurn>,
    /// The attached workload source, if any: it replaces the synthetic
    /// injection process entirely (see [`TrafficSim::with_workload`]).
    workload: Option<Box<dyn WorkloadSource>>,
    /// Golden-equivalence hook: run on the retained scan-order
    /// reference stepper instead of the event-driven one.
    #[cfg(test)]
    use_reference: bool,
    /// Golden-equivalence hook: a window length to use instead of the
    /// derived one.
    #[cfg(test)]
    window: Option<u64>,
    /// Fault-injection hook: `(shard, cycle)` at which that band
    /// panics (exercises the panic-safety path).
    #[cfg(test)]
    panic_at: Option<(usize, u64)>,
}

impl<'p> TrafficSim<'p> {
    /// Builds a simulation driving `paths`' routing function over
    /// `paths`' network, per-hop, sharded into `cfg.threads` row bands
    /// (see [`SimConfig::threads`]). `paths` is reset to its initial
    /// snapshot first: a table reused across runs still carries the
    /// epochs the previous run published, and this run must start from
    /// epoch 0.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`](crate::ConfigError)'s message when
    /// [`SimConfig::validate`] rejects `cfg`.
    pub fn new(paths: &'p mut PathTable, cfg: SimConfig) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("{why}");
        }
        let kind = paths.kind();
        paths.reset_epochs();
        let base = paths.view().clone();

        let mesh = *base.mesh();
        let threads = cfg.resolved_threads(mesh.len());
        // Source state exists for *every* node: churn can repair a node
        // that starts out faulty, and it must be able to start
        // generating. Harmless otherwise — per-node RNG streams are
        // seeded by node id (so extra sources never perturb any other
        // node's stream) and an inactive source draws nothing, queues
        // nothing and counts nothing.
        let sources: Vec<SourceNode> = mesh
            .iter()
            .map(|c| {
                let id = mesh.id(c);
                let rng = StdRng::seed_from_u64(derive_seed(cfg.seed, u64::from(id.0), 0));
                let active = base.faults().is_healthy(c);
                SourceNode { id, coord: c, rng, queue: VecDeque::new(), active }
            })
            .collect();
        let shards = Shard::bands(mesh, cfg.vcs, cfg.vc_depth, cfg.escape_vcs, threads);
        // TTL default: E-cube's escape walk is the only route source
        // whose length is effectively unbounded; every other router is
        // within a small factor of shortest, and escape VCs now bound
        // blocking, so no budget is imposed on them.
        let ttl = cfg.route_ttl.unwrap_or(if kind == RoutingKind::ECube {
            4 * (mesh.width() + mesh.height())
        } else {
            u32::MAX
        });
        TrafficSim {
            cfg,
            ttl,
            kind,
            shards,
            paths,
            base,
            sources,
            online: None,
            workload: None,
            #[cfg(test)]
            use_reference: false,
            #[cfg(test)]
            window: None,
            #[cfg(test)]
            panic_at: None,
        }
    }

    /// Attaches the live churn sources: the coordinator polls the
    /// injector (and the optional chaos schedule) at every
    /// `churn.quantum`-cycle boundary and publishes the resulting
    /// epochs into the running workers, interleaved in cycle order with
    /// any [`fault_churn`](SimConfig::fault_churn) list the config
    /// carries. See [`crate::churn`].
    ///
    /// # Panics
    /// Panics when `churn.quantum` is zero.
    pub fn with_online_churn(mut self, churn: OnlineChurn) -> Self {
        assert!(churn.quantum >= 1, "churn quantum must be at least 1 cycle");
        self.online = Some(churn);
        self
    }

    /// Attaches a workload source: the synthetic injection process is
    /// disabled and every packet of the run comes from the source,
    /// released per cycle by the coordinator and broadcast to the
    /// owning shard workers. Delivery and abort feedback closes the
    /// loop each cycle, so dependency-driven sources (flow DAGs,
    /// collective phases) schedule deterministically at every shard
    /// count. Retrieve the flow/phase completion metrics with
    /// [`TrafficSim::try_run_full`].
    ///
    /// Composes with churn from either source: events still apply at
    /// their boundaries, and flows whose packets churn kills or drops
    /// are aborted (and cascaded), never wedged. A workload cuts every
    /// window to one cycle — the source may react to any delivery — so
    /// a threaded run pays the coordinator round trip per cycle.
    pub fn with_workload(mut self, source: Box<dyn WorkloadSource>) -> Self {
        self.workload = Some(source);
        self
    }

    /// Golden-equivalence hook: step the fabric with the retained
    /// scan-order reference stepper instead of the event-driven one.
    #[cfg(test)]
    pub(crate) fn set_reference_stepper(&mut self) {
        self.use_reference = true;
    }

    /// Golden-equivalence hook: grant windows of this many cycles
    /// (still clamped to `[1, MAX_WINDOW]`) instead of the derived
    /// length (`None`), at every band count. Results must not depend
    /// on it.
    #[cfg(test)]
    pub(crate) fn set_window(&mut self, cycles: Option<u64>) {
        self.window = cycles;
    }

    /// Fault-injection hook: make band `shard` panic at the start of
    /// `cycle` (exercises the panic-safety path).
    #[cfg(test)]
    pub(crate) fn set_panic_at(&mut self, shard: usize, cycle: u64) {
        self.panic_at = Some((shard, cycle));
    }

    /// Runs the full warmup / measure / drain protocol and returns
    /// everything the run produced — statistics, the observability
    /// report, the workload outcome and the recorded trace (see
    /// [`RunOutput`]). A band's panic surfaces as a typed [`RunError`]
    /// — the graceful-degradation contract for long-lived services
    /// driving the simulator.
    ///
    /// Every [`stats_window`](SimConfig::stats_window) cycles `obs`
    /// receives a [`WindowSample`]; pass `&mut ()` for none. The
    /// observer is read-only over the simulation except for one power:
    /// returning [`WindowControl::Stop`] ends the run at that window
    /// boundary, classified exactly as at the drain deadline
    /// (`saturated` when measured packets are outstanding). Recording
    /// ([`SimConfig::obs`]) never changes the statistics — the
    /// instrumented run is bit-identical to the bare one (pinned by
    /// `crate::golden`).
    pub fn try_run_full(self, obs: &mut dyn WindowObserver) -> Result<RunOutput, RunError> {
        let level = self.cfg.obs;
        if level == ObsLevel::Off {
            return Ok(self.run::<NoProbe, _>(obs, |_, _| NoProbe)?.0);
        }
        let mesh = *self.base.mesh();
        let (mut out, probes) = self.run(obs, move |i, s: &Shard| {
            let r = s.node_range();
            ShardObs::new(i, r.start as u32, r.end as u32, level)
        })?;
        out.obs = Some(ObsReport::assemble(mesh.width() as usize, mesh.height() as usize, probes));
        Ok(out)
    }

    /// Runs the simulation monomorphized over the probe `mk` builds for
    /// each band: band 0 on this thread over the caller's path table,
    /// bands `1..N` on one scoped worker thread each
    /// ([`ShardWorker::serve`]) over a private table, all coordinated
    /// by [`TrafficSim::coordinate`]. Returns the probes in band order.
    fn run<P, F>(self, obs: &mut dyn WindowObserver, mk: F) -> Result<(RunOutput, Vec<P>), RunError>
    where
        P: FabricProbe + Send,
        F: Fn(usize, &Shard) -> P,
    {
        #[cfg(test)]
        let (use_reference, panic_at, window) = (self.use_reference, self.panic_at, self.window);
        let TrafficSim {
            cfg, ttl, kind, shards, paths, base, mut sources, online, workload, ..
        } = self;
        let churn = OnlineDriver::new(cfg.fault_churn.clone(), online, base.clone());
        let wl = workload.map(WorkloadDriver::new);
        let run = RunState::new(&cfg, base.faults().healthy_count(), churn, wl);
        let workload = run.wl.is_some();
        let n = shards.len();
        assert!(n < (1 << (32 - ID_SHARD_SHIFT)), "shard count exceeds the packet-id namespace");
        // One window length for the whole run: 1 for a lone band (there
        // is no round trip to amortize, and the observer sees every
        // cycle as it happens), else the shortest side of any band.
        let derived = match n {
            1 => 1,
            _ => shards.iter().map(|s| s.short_edge() as u64).min().expect("at least two bands"),
        };
        #[cfg(test)]
        let derived = window.unwrap_or(derived);
        let window = derived.clamp(1, MAX_WINDOW);
        let (cfg, base) = (&cfg, &base);

        // One `Go` lane per worker, one shared report lane back, and a
        // boundary lane each way between every two adjacent bands.
        let (done_tx, done_rx) = mpsc::channel();
        let mut go_tx = Vec::with_capacity(n - 1);
        let mut lanes: Vec<BandLanes> = (0..n).map(|_| BandLanes::default()).collect();
        for after in 1..n {
            let (down, from_before) = mpsc::channel();
            let (up, from_after) = mpsc::channel();
            lanes[after - 1].to[1] = Some(down);
            lanes[after].from[0] = Some(from_before);
            lanes[after].to[0] = Some(up);
            lanes[after - 1].from[1] = Some(from_after);
        }
        // Sources are listed by node id and a band is a run of ids. The
        // bands after the first split theirs off the tail, so band 0
        // keeps the original buffer (a lone band copies nothing).
        let mut buckets: Vec<Vec<SourceNode>> =
            shards[1..].iter().rev().map(|s| sources.split_off(s.node_range().start)).collect();
        buckets.push(sources);
        buckets.reverse();
        let mut bands = shards.into_iter().zip(buckets).zip(lanes);
        let ((shard0, sources0), lanes0) = bands.next().expect("a fabric has at least one band");

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n - 1);
            for (w, ((shard, sources), lanes)) in (1..).zip(bands) {
                let probe = mk(w, &shard);
                let (tx, go) = mpsc::channel();
                go_tx.push(tx);
                let done = done_tx.clone();
                handles.push(scope.spawn(move || {
                    // The dying-word sender lives outside the unwind
                    // boundary: a caught panic is reported over the
                    // shared `done` lane, exactly where the coordinator
                    // would otherwise block forever.
                    let report_tx = done.clone();
                    let caught = catch_unwind(AssertUnwindSafe(move || {
                        let mut paths = PathTable::new(base, kind);
                        let router = EscapeHop::new(&mut paths, cfg.patience, cfg.escape_vcs);
                        let mut worker = ShardWorker::new(
                            shard, sources, router, base, cfg, ttl, w, workload, probe,
                        );
                        #[cfg(test)]
                        worker.hook(w, use_reference, panic_at);
                        worker.serve(&go, &done, &lanes);
                        worker.probe
                    }));
                    caught.map_err(|payload| {
                        let message = panic_message(payload.as_ref());
                        let _ = report_tx.send(WorkerReport::Panicked { shard: w, message });
                    })
                }));
            }
            // Only live workers hold a `done` sender from here on.
            drop(done_tx);

            let probe = mk(0, &shard0);
            let router = EscapeHop::new(paths, cfg.patience, cfg.escape_vcs);
            let mut band0 =
                ShardWorker::new(shard0, sources0, router, base, cfg, ttl, 0, workload, probe);
            #[cfg(test)]
            band0.hook(0, use_reference, panic_at);
            let workers = Workers { go: go_tx, done: done_rx };
            let outcome = Self::coordinate(run, window, &mut band0, &lanes0, &workers, obs);
            // Teardown: dropping band 0's boundary lanes and the
            // coordinator-held control senders disconnects them, so
            // after a failure every blocked worker observes the
            // disconnect — directly, or through the boundary lane of a
            // neighbor that already returned — and returns: the run
            // fails typed, it never hangs. (After `Go::Finish` every
            // worker returns anyway.)
            drop(lanes0);
            drop(workers.go);
            let mut probes = vec![band0.probe];
            probes.extend(handles.into_iter().filter_map(|h| h.join().ok()?.ok()));
            match outcome {
                Ok(run) if probes.len() == n => Ok((run.seal(), probes)),
                // A worker died unseen (while finishing, or its report
                // was still in flight when a lane disconnected): prefer
                // its dying word over a bare lane death.
                Ok(_) | Err(RunError::WorkerLost) => Err(workers
                    .done
                    .try_iter()
                    .find_map(|r| match r {
                        WorkerReport::Panicked { shard, message } => {
                            Some(RunError::WorkerPanicked { shard, message })
                        }
                        WorkerReport::Cycles(_) => None,
                    })
                    .unwrap_or(RunError::WorkerLost)),
                Err(err) => Err(err),
            }
        })
    }

    /// The one run loop. Each round opens with the coordinator work due
    /// at `cycle` ([`RunState::boundary`]), grants every band the same
    /// window — `window` cycles, cut short at the next cycle that opens
    /// with coordinator work — to the workers first, then steps band 0
    /// through it, merges the workers' reports into band 0's and
    /// replays them in cycle order through [`RunState::end_of_cycle`],
    /// so observer callbacks, stop classification and statistics see
    /// the same sequence of cycles at every window length and band
    /// count. A stop decided mid-window discards the window's tail;
    /// every band is idle at the same cycle when `Go::Finish` goes out.
    fn coordinate<P: FabricProbe>(
        mut run: RunState,
        window: u64,
        band0: &mut ShardWorker<'_, P>,
        lanes0: &BandLanes,
        workers: &Workers,
        obs: &mut dyn WindowObserver,
    ) -> Result<RunState, RunError> {
        let mut cycle = 0u64;
        'run: loop {
            let mut sent = Ok(());
            run.boundary(cycle, |go| {
                workers.control(&go);
                if sent.is_ok() {
                    sent = on_band0(|| band0.control(&go));
                }
            });
            sent?;
            let len = window.min(run.next_boundary(cycle + 1) - cycle);
            workers.control(&Go::Lease { start: cycle, len });
            // `None`: band 0's neighbor died; the workers' reports say why.
            let mut merged = on_band0(|| band0.run_window(cycle, len, lanes0))?.unwrap_or_default();
            workers.collect(&mut merged)?;
            if merged.len() as u64 != len {
                // Band 0 lost its neighbor mid-window, yet no worker
                // reported a panic.
                return Err(RunError::WorkerLost);
            }
            for agg in merged {
                let stop = run.end_of_cycle(cycle, agg, obs);
                cycle += 1;
                if stop {
                    break 'run;
                }
            }
        }
        let finish = Go::Finish(cycle, run.stop);
        workers.control(&finish);
        on_band0(|| band0.control(&finish))?;
        Ok(run)
    }
}

/// Runs `f`, a step of band 0 on the coordinator's thread, under
/// `catch_unwind`: a panic becomes [`RunError::WorkerPanicked`] for
/// shard 0, as a worker thread's does.
fn on_band0<T>(f: impl FnOnce() -> T) -> Result<T, RunError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| RunError::WorkerPanicked {
        shard: 0,
        message: panic_message(payload.as_ref()),
    })
}

/// The panicking convenience: build a fresh path table, run without an
/// observer, return the statistics. Everything else goes through
/// [`TrafficSim::try_run_full`].
///
/// # Panics
/// Re-panics with the worker's message when a shard worker panicked.
pub fn run_traffic(net: &NetView, kind: RoutingKind, cfg: &SimConfig) -> TrafficStats {
    let mut paths = PathTable::new(net, kind);
    match TrafficSim::new(&mut paths, cfg.clone()).try_run_full(&mut ()) {
        Ok(out) => out.stats,
        Err(e) => panic!("{e}"),
    }
}

/// Routes a single packet of `len` flits from `s` to `d` through an
/// otherwise idle fabric and returns its latency in cycles, or `None`
/// when the routing function does not deliver the pair.
///
/// At zero load this is exactly
/// `route_hops + PIPELINE_DEPTH + (len - 1)`, which the integration
/// tests pin against the BFS oracle. The packet is a one-entry trace
/// replayed through [`TrafficSim`] on one band of 2 VCs, 4 flits deep.
/// (An idle fabric never blocks a head, so the probe reserves no
/// escape channel.)
pub fn single_packet_latency(
    net: &NetView,
    kind: RoutingKind,
    s: Coord,
    d: Coord,
    len: u32,
) -> Option<u64> {
    assert!(len >= 1, "a packet has at least one flit");
    let cfg = SimConfig {
        vcs: 2,
        vc_depth: 4,
        escape_vcs: 0,
        patience: 0,
        route_ttl: Some(u32::MAX),
        threads: 1,
        warmup: 0,
        measure: 1,
        drain: 16 * (net.mesh().len() as u64) + 16 * u64::from(len),
        stats_window: 0,
        ..SimConfig::default()
    };
    let entry = TraceEntry { cycle: 0, src: s, dst: d, len, flow: 0, drop: 0 };
    let mut paths = PathTable::new(net, kind);
    let sim =
        TrafficSim::new(&mut paths, cfg).with_workload(Box::new(TraceSource::new(vec![entry], 1)));
    let out = sim.try_run_full(&mut ()).unwrap_or_else(|e| panic!("{e}"));
    let flow = *out.workload?.completions.first()?;
    Some(flow.delivered_at - flow.released_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChurnOp, PIPELINE_DEPTH};
    use meshpath_mesh::{FaultSet, Mesh};

    fn fault_free(n: u32) -> NetView {
        NetView::build(FaultSet::none(Mesh::square(n)))
    }

    /// Runs `cfg` over a reused table with an observer attached.
    fn run_reusing(
        paths: &mut PathTable,
        cfg: &SimConfig,
        obs: &mut dyn WindowObserver,
    ) -> RunOutput {
        run_windowed(paths, cfg, None, obs)
    }

    /// [`run_reusing`] with windows of `window` cycles (`None`: the
    /// derived length).
    fn run_windowed(
        paths: &mut PathTable,
        cfg: &SimConfig,
        window: Option<u64>,
        obs: &mut dyn WindowObserver,
    ) -> RunOutput {
        let mut sim = TrafficSim::new(paths, cfg.clone());
        sim.set_window(window);
        sim.try_run_full(obs).expect("no worker panicked")
    }

    /// [`run_reusing`] with live churn sources attached.
    fn run_reusing_with_churn(
        paths: &mut PathTable,
        cfg: &SimConfig,
        churn: crate::churn::OnlineChurn,
        obs: &mut dyn WindowObserver,
    ) -> TrafficStats {
        let sim = TrafficSim::new(paths, cfg.clone()).with_online_churn(churn);
        sim.try_run_full(obs).expect("no worker panicked").stats
    }

    #[test]
    fn zero_load_single_packets_match_the_model() {
        let net = fault_free(8);
        for kind in RoutingKind::ALL {
            let s = Coord::new(1, 2);
            let d = Coord::new(6, 5);
            let lat = single_packet_latency(&net, kind, s, d, 4).expect("delivered");
            assert_eq!(lat, u64::from(s.manhattan(d)) + PIPELINE_DEPTH + 3, "{}", kind.name());
        }
    }

    #[test]
    fn a_packet_longer_than_the_probe_buffers_streams_at_link_rate() {
        // 12 flits through 4-flit buffers: credits return in time, so
        // the worm never stalls and only serialization adds cycles.
        let net = fault_free(8);
        let (s, d) = (Coord::new(0, 1), Coord::new(7, 6));
        for kind in RoutingKind::ALL {
            let lat = single_packet_latency(&net, kind, s, d, 12).expect("delivered");
            assert_eq!(lat, u64::from(s.manhattan(d)) + PIPELINE_DEPTH + 11, "{}", kind.name());
        }
    }

    /// The synthetic destination stream, pinned: 1,000 draws on a
    /// faulted 8x8 at seed 1 hash to a fixed value, so any change to how
    /// a destination is drawn (and with it every seeded run) shows.
    #[test]
    fn uniform_destination_stream_is_pinned() {
        let faults = FaultSet::from_coords(
            Mesh::square(8),
            [Coord::new(2, 2), Coord::new(5, 3), Coord::new(1, 6), Coord::new(6, 6)],
        );
        let sampler = DestSampler::new(&faults);
        let healthy = &sampler.healthy;
        let mut rng = StdRng::seed_from_u64(1);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..1000 {
            let src = healthy[i % healthy.len()];
            let d = sampler.dest(src, &mut rng).expect("62 healthy nodes");
            assert!(d != src && faults.is_healthy(d));
            hash = (hash ^ (d.y * 8 + d.x) as u64).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(hash, 0xa2b2_2df5_db04_5d96);
        // Fewer than two healthy nodes: nowhere to send.
        let lone = FaultSet::from_coords(Mesh::new(2, 1), [Coord::new(1, 0)]);
        assert_eq!(DestSampler::new(&lone).dest(Coord::new(0, 0), &mut rng), None);
    }

    #[test]
    fn low_load_run_delivers_everything() {
        let net = fault_free(8);
        let cfg = SimConfig { rate: 0.005, ..SimConfig::smoke() };
        let stats = run_traffic(&net, RoutingKind::Xy, &cfg);
        assert!(stats.measured_generated > 0, "some packets must be generated");
        assert_eq!(stats.measured_delivered, stats.measured_generated);
        assert!(!stats.saturated);
        assert!(!stats.deadlocked);
        assert_eq!(stats.unroutable, 0);
        // Mean latency at near-zero load sits near the zero-load model:
        // average hop count of uniform traffic on an 8x8 mesh is ~5.3,
        // plus pipeline 2 plus serialization 3.
        let mean = stats.mean_latency();
        assert!(mean > 5.0 && mean < 20.0, "implausible zero-load mean {mean}");
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        let net = fault_free(6);
        let cfg = SimConfig { rate: 0.02, ..SimConfig::smoke() };
        let a = run_traffic(&net, RoutingKind::Rb2, &cfg);
        let b = run_traffic(&net, RoutingKind::Rb2, &cfg);
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        let c = run_traffic(&net, RoutingKind::Rb2, &SimConfig { seed: 7, ..cfg });
        assert_ne!(a.generated, c.generated, "different seeds, different workload");
    }

    #[test]
    fn sharded_run_is_bit_identical_to_sequential() {
        // The tentpole claim at the driver level: the same seeded
        // config produces the same statistics at every thread count,
        // across load regimes (the golden suite covers random draws).
        let mesh = Mesh::square(12);
        let net = NetView::build(FaultSet::from_coords(
            mesh,
            [Coord::new(4, 4), Coord::new(7, 2), Coord::new(2, 9)],
        ));
        for rate in [0.01, 0.08] {
            let base = SimConfig { rate, threads: 1, ..SimConfig::smoke() };
            let sequential = run_traffic(&net, RoutingKind::Rb2, &base);
            for threads in [2, 3, 4] {
                let sharded =
                    run_traffic(&net, RoutingKind::Rb2, &SimConfig { threads, ..base.clone() });
                assert_eq!(sequential, sharded, "threads = {threads}, rate = {rate}");
            }
        }
    }

    #[test]
    fn longer_windows_cut_coordinator_barriers_by_their_length() {
        // The point of the window: the per-shard barrier count (one per
        // granted window, recorded by the obs probe) must shrink by at
        // least the window length relative to lockstep — while the
        // statistics stay bit-identical.
        let net = fault_free(12);
        let cfg = SimConfig {
            rate: 0.01,
            threads: 2,
            obs: crate::ObsLevel::Metrics,
            ..SimConfig::smoke()
        };
        let barriers = |window: u64| -> (TrafficStats, u64) {
            let mut paths = PathTable::new(&net, RoutingKind::Xy);
            let out = run_windowed(&mut paths, &cfg, Some(window), &mut ());
            let report = out.obs.expect("metrics recording was on");
            (out.stats, report.shards.iter().map(|s| s.barriers).sum())
        };
        let (lockstep_stats, lockstep_barriers) = barriers(1);
        let (windowed_stats, windowed_barriers) = barriers(8);
        assert_eq!(windowed_stats, lockstep_stats, "the window must not change results");
        assert!(lockstep_barriers > 0 && windowed_barriers > 0);
        // Windows at churn-quantum boundaries and the drain tail are cut
        // short, so the realized factor lands a hair under the nominal
        // 8; 7x is the honest floor.
        assert!(
            lockstep_barriers >= 7 * windowed_barriers,
            "window 8 must amortize ~8x fewer barriers: lockstep {lockstep_barriers}, \
             windowed {windowed_barriers}"
        );
    }

    /// Records every window sample and stops the run at the one ending
    /// on cycle `.1`.
    struct StopAt(Vec<WindowSample>, u64);
    impl WindowObserver for StopAt {
        fn on_window(&mut self, s: &WindowSample) -> WindowControl {
            self.0.push(*s);
            if s.end == self.1 {
                WindowControl::Stop
            } else {
                WindowControl::Continue
            }
        }
    }

    #[test]
    fn the_observer_visible_sequence_is_window_and_shard_invariant() {
        use crate::config::ChurnEvent;
        let net = fault_free(12);
        // The failure at cycle 64 lands exactly on a window edge of
        // lengths 1, 8 and 64, and the stop after cycle 149 falls
        // inside a window of every length but 1 (8: 144..152, 64:
        // 128..192, the derived edges 6 and 3: 148..154 and 148..151),
        // whose tail is discarded.
        let base = SimConfig {
            rate: 0.03,
            stats_window: 50,
            fault_churn: vec![ChurnEvent::fail(64, Coord::new(5, 5))],
            ..SimConfig::smoke()
        };
        let observe = |window: Option<u64>, threads: usize| {
            let mut paths = PathTable::new(&net, RoutingKind::Rb2);
            let mut obs = StopAt(Vec::new(), 150);
            let cfg = SimConfig { threads, ..base.clone() };
            let stats = run_windowed(&mut paths, &cfg, window, &mut obs).stats;
            (obs.0, stats)
        };
        let (samples, stats) = observe(Some(1), 1);
        assert_eq!(samples.len(), 3);
        assert!(samples[2].in_flight > 0, "the stop must cut a busy run short");
        assert_eq!(stats.cycles, 150);
        assert_eq!(stats.online_events, base.fault_churn);
        for window in [Some(1), Some(8), Some(64), None] {
            for threads in [1, 2, 4] {
                let seen = observe(window, threads);
                assert_eq!(seen, (samples.clone(), stats.clone()), "{window:?} x {threads}");
            }
        }
    }

    #[test]
    fn every_shard_runs_the_same_windows_and_stops_on_the_same_cycle() {
        /// What the uniform-window protocol promises of each shard.
        #[derive(Debug, Default, PartialEq)]
        struct Windows {
            barriers: u64,
            cycles: u64,
            stopped: Option<(u64, StopKind)>,
        }
        impl FabricProbe for Windows {
            const ACTIVE: bool = true;
            fn barrier(&mut self, cycles: u64) {
                self.barriers += 1;
                self.cycles += cycles;
            }
            fn run_stopped(&mut self, cycle: u64, reason: StopKind) {
                self.stopped = Some((cycle, reason));
            }
        }
        let net = fault_free(12);
        // (`u64::MAX`: an absurd window is capped, not obeyed — uncapped,
        // every worker would try to run it out before its first report.)
        for (threads, window) in [(1, None), (2, Some(8)), (3, Some(u64::MAX)), (4, None)] {
            let cfg = SimConfig { rate: 0.03, stats_window: 50, threads, ..SimConfig::smoke() };
            let mut paths = PathTable::new(&net, RoutingKind::Rb2);
            let mut sim = TrafficSim::new(&mut paths, cfg.clone());
            sim.set_window(window);
            let (out, probes) = sim
                .run(&mut StopAt(Vec::new(), 150), |_, _| Windows::default())
                .expect("no worker panicked");
            assert_eq!(probes.len(), threads);
            assert!(probes.iter().all(|p| *p == probes[0]), "{probes:?}");
            assert_eq!(probes[0].stopped, Some((out.stats.cycles, StopKind::Observer)));
            assert!((150..150 + MAX_WINDOW).contains(&probes[0].cycles), "{probes:?}");
            // The same invariant as the metrics report shows it.
            let cfg = SimConfig { obs: ObsLevel::Metrics, ..cfg };
            let out = run_windowed(&mut paths, &cfg, window, &mut StopAt(Vec::new(), 150));
            let report = out.obs.expect("metrics recording was on");
            assert_eq!(report.stopped_at, out.stats.cycles);
            assert!(report.shards.iter().all(|s| s.barriers == probes[0].barriers));
        }
    }

    #[test]
    fn saturation_is_detected_at_absurd_load() {
        let net = fault_free(6);
        let cfg =
            SimConfig { rate: 0.9, warmup: 50, measure: 300, drain: 150, ..SimConfig::default() };
        let stats = run_traffic(&net, RoutingKind::Xy, &cfg);
        assert!(stats.saturated || stats.deadlocked, "rate 0.9 must exceed capacity: {stats:?}");
    }

    #[test]
    fn faulty_nodes_neither_send_nor_receive() {
        let mesh = Mesh::square(6);
        let bad = Coord::new(2, 2);
        let net = NetView::build(FaultSet::from_coords(mesh, [bad]));
        let cfg = SimConfig { rate: 0.05, ..SimConfig::smoke() };
        let stats = run_traffic(&net, RoutingKind::Rb2, &cfg);
        assert!(stats.measured_generated > 0);
        assert_eq!(stats.measured_delivered, stats.measured_generated);
    }

    #[test]
    fn window_samples_stream_and_cover_the_run() {
        struct Collect(Vec<crate::WindowSample>);
        impl crate::WindowObserver for Collect {
            fn on_window(&mut self, s: &crate::WindowSample) -> crate::WindowControl {
                self.0.push(*s);
                crate::WindowControl::Continue
            }
        }
        let net = fault_free(8);
        let cfg = SimConfig { rate: 0.02, stats_window: 100, ..SimConfig::smoke() };
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let mut obs = Collect(Vec::new());
        let stats = run_reusing(&mut paths, &cfg, &mut obs).stats;
        assert!(!obs.0.is_empty(), "windows must stream");
        // Windows tile the run contiguously and their totals reconcile
        // with the end-of-run statistics (the final partial window is
        // never emitted, hence >=).
        for (i, s) in obs.0.iter().enumerate() {
            assert_eq!(s.start, 100 * i as u64);
            assert_eq!(s.end, s.start + 100);
        }
        let windowed_moved: u64 = obs.0.iter().map(|s| s.moved).sum();
        assert!(windowed_moved <= stats.flits_moved);
        assert!(stats.flits_moved > 0);
        let delivered: u64 = obs.0.iter().map(|s| s.delivered).sum();
        assert!(delivered >= stats.measured_delivered);
        assert!(obs.0.iter().any(|s| s.draining), "the drain phase must be flagged");
        // Attaching an observer must not change the simulation.
        let plain = run_reusing(&mut paths, &cfg, &mut ()).stats;
        assert_eq!(plain, stats, "observers are read-only");
    }

    #[test]
    fn window_stop_ends_the_run_with_the_deadline_classification() {
        struct StopAfter(u32);
        impl crate::WindowObserver for StopAfter {
            fn on_window(&mut self, _s: &crate::WindowSample) -> crate::WindowControl {
                self.0 -= 1;
                if self.0 == 0 {
                    crate::WindowControl::Stop
                } else {
                    crate::WindowControl::Continue
                }
            }
        }
        // Absurd load, stopped mid-measure: measured packets are
        // certainly outstanding, so the run must classify saturated.
        let net = fault_free(6);
        let cfg = SimConfig {
            rate: 0.9,
            warmup: 50,
            measure: 300,
            drain: 150,
            stats_window: 100,
            ..SimConfig::default()
        };
        let mut paths = PathTable::new(&net, RoutingKind::Xy);
        let stats = run_reusing(&mut paths, &cfg, &mut StopAfter(2)).stats;
        assert_eq!(stats.cycles, 200, "stopped at the second window boundary");
        assert!(stats.saturated);
    }

    #[test]
    #[should_panic(expected = "escape_vcs = 4 must leave at least one adaptive channel of vcs = 4")]
    fn a_rejected_config_panics_with_the_typed_errors_message() {
        let net = fault_free(4);
        let cfg = SimConfig { escape_vcs: 4, ..SimConfig::smoke() };
        let mut paths = PathTable::new(&net, RoutingKind::Xy);
        let _ = TrafficSim::new(&mut paths, cfg);
    }

    #[test]
    fn injected_worker_panic_surfaces_as_typed_error() {
        let net = fault_free(12);
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        // A worker thread's band, then the coordinator's own band 0 —
        // alone and beside workers: each fails typed, and every run
        // returned instead of hanging.
        for (threads, shard) in [(3, 1), (3, 0), (1, 0)] {
            let cfg = SimConfig { rate: 0.02, threads, ..SimConfig::smoke() };
            let mut sim = TrafficSim::new(&mut paths, cfg);
            sim.set_panic_at(shard, 40);
            match sim.try_run_full(&mut ()) {
                Err(RunError::WorkerPanicked { shard: s, message }) => {
                    assert_eq!(s, shard, "threads = {threads}");
                    assert!(message.contains("injected test panic at cycle 40"), "{message}");
                }
                other => panic!("expected a typed worker panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn online_churn_kills_stranded_traffic_and_recovers_after_repair() {
        use crate::churn::{ChurnInjector, OnlineChurn};
        let net = fault_free(8);
        let center = Coord::new(4, 4);
        // Uniform traffic heavy enough that worms bound for the center
        // node are in flight when it fails.
        let cfg = SimConfig { rate: 0.1, stats_window: 50, ..SimConfig::smoke() };
        // Unscheduled events injected *mid-run* from the window
        // observer: fail the center node during the measure phase,
        // repair it a hundred cycles later.
        struct MidRun {
            injector: ChurnInjector,
            at: Coord,
        }
        impl crate::WindowObserver for MidRun {
            fn on_window(&mut self, s: &crate::WindowSample) -> crate::WindowControl {
                if s.end == 50 {
                    self.injector.fail(self.at);
                } else if s.end == 150 {
                    self.injector.repair(self.at);
                }
                crate::WindowControl::Continue
            }
        }
        let injector = ChurnInjector::new();
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let sim =
            TrafficSim::new(&mut paths, cfg).with_online_churn(OnlineChurn::new(injector.clone()));
        let mut obs = MidRun { injector, at: center };
        let stats = sim.try_run_full(&mut obs).expect("online churn must not fail the run").stats;
        assert!(!stats.deadlocked, "online churn must never wedge the fabric");
        assert_eq!(
            stats.online_events.iter().map(|e| e.op).collect::<Vec<_>>(),
            vec![ChurnOp::Fail(center), ChurnOp::Repair(center)],
            "both unscheduled events must apply: {:?}",
            stats.online_events
        );
        assert_eq!(stats.churn_rejected, 0);
        assert!(stats.churn_killed > 0, "worms bound for the failed node must be killed");
        assert_eq!(stats.epoch_delivered.len(), 3, "base epoch + two online epochs");
        assert!(stats.epoch_delivered[2] > 0, "traffic must flow again after the repair");
        assert!(stats.measured_delivered <= stats.measured_generated);
    }

    #[test]
    fn online_churn_is_bit_identical_at_every_shard_count() {
        use crate::churn::{ChaosConfig, OnlineChurn};
        let net = fault_free(12);
        let chaos = ChaosConfig {
            seed: 5,
            fail_prob: 0.6,
            repair_prob: 0.4,
            start: 40,
            stop: 300,
            max_faults: 5,
        };
        let mk = |threads| {
            let cfg = SimConfig { rate: 0.02, threads, ..SimConfig::smoke() };
            let mut paths = PathTable::new(&net, RoutingKind::Rb2);
            TrafficSim::new(&mut paths, cfg)
                .with_online_churn(OnlineChurn::chaos(chaos).with_quantum(16))
                .try_run_full(&mut ())
                .expect("chaos run must complete")
                .stats
        };
        let base = mk(1);
        assert!(!base.online_events.is_empty(), "chaos must fire inside its window");
        assert!(!base.deadlocked);
        assert_eq!(base.epoch_delivered.len(), base.online_events.len() + 1);
        for threads in [2, 4] {
            assert_eq!(base, mk(threads), "threads = {threads}");
        }
    }

    #[test]
    fn listed_and_live_churn_compose_deterministically() {
        use crate::churn::{ChaosConfig, OnlineChurn};
        use crate::config::ChurnEvent;
        let net = fault_free(10);
        let listed = ChurnEvent::fail(45, Coord::new(2, 2));
        let chaos = ChaosConfig { seed: 9, start: 32, stop: 200, ..ChaosConfig::default() };
        let mk = |threads| {
            let cfg =
                SimConfig { rate: 0.02, threads, fault_churn: vec![listed], ..SimConfig::smoke() };
            let mut paths = PathTable::new(&net, RoutingKind::Rb2);
            run_reusing_with_churn(&mut paths, &cfg, OnlineChurn::chaos(chaos), &mut ())
        };
        let base = mk(1);
        assert!(!base.deadlocked);
        // The listed event keeps its exact cycle between the chaos
        // draws at the quantum-16 multiples 32 and 48.
        let at = base.online_events.iter().position(|e| *e == listed).expect("listed event ran");
        assert!(base.online_events[..at].iter().all(|e| e.cycle <= 32));
        assert!(base.online_events[at + 1..].iter().all(|e| e.cycle >= 48));
        assert!(base.online_events.len() > 1, "chaos must fire beside the list");
        for threads in [2, 4] {
            assert_eq!(base, mk(threads), "threads = {threads}");
        }
    }

    #[test]
    fn a_table_reused_across_churn_runs_stays_the_size_of_its_epoch_zero_routes() {
        use crate::config::ChurnEvent;
        let net = fault_free(8);
        let events =
            vec![ChurnEvent::fail(60, Coord::new(4, 4)), ChurnEvent::fail(90, Coord::new(2, 5))];
        // Band 0 routes over the caller's table at every band count
        // (`MESHPATH_THREADS` picks it).
        let cfg = SimConfig { rate: 0.02, fault_churn: events, ..SimConfig::smoke() };
        // Two bands leave compiled routes in the caller's table too.
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        run_reusing(&mut paths, &SimConfig { threads: 2, ..cfg.clone() }, &mut ());
        assert!(paths.cache_stats().1 > 0, "band 0 compiled no route in the caller's table");
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let stats = run_reusing(&mut paths, &cfg, &mut ()).stats;
            let with_later_epochs = paths.held();
            paths.reset_epochs();
            assert!(paths.held() < with_later_epochs, "the run compiled no later-epoch route");
            seen.push((stats, paths.held()));
        }
        // Every run needs the same epoch-0 routes and leaves nothing
        // else behind.
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[0], seen[2]);
    }

    #[test]
    fn listed_churn_equals_the_same_events_injected_at_their_cycles() {
        use crate::churn::{ChurnInjector, OnlineChurn};
        use crate::config::ChurnEvent;
        // A `fault_churn` list is the churn driver loaded ahead of time:
        // the same two events queued on an injector just before the
        // quantum boundary at their cycle must give the same run.
        let net = fault_free(10);
        let node = Coord::new(5, 5);
        let events = vec![ChurnEvent::fail(64, node), ChurnEvent::repair(192, node)];
        /// Queues each event from the window callback that closes at
        /// its cycle — strictly before that boundary is polled.
        struct Script(ChurnInjector, Vec<ChurnEvent>);
        impl WindowObserver for Script {
            fn on_window(&mut self, s: &WindowSample) -> WindowControl {
                for e in self.1.iter().filter(|e| e.cycle == s.end) {
                    self.0.inject(e.op);
                }
                WindowControl::Continue
            }
        }
        for threads in [1, 2, 4] {
            let cfg = SimConfig { rate: 0.05, stats_window: 64, threads, ..SimConfig::smoke() };
            let mut paths = PathTable::new(&net, RoutingKind::Rb2);
            let listed_cfg = SimConfig { fault_churn: events.clone(), ..cfg.clone() };
            let listed = run_reusing(&mut paths, &listed_cfg, &mut ()).stats;
            let injector = ChurnInjector::new();
            let injected = run_reusing_with_churn(
                &mut paths,
                &cfg,
                OnlineChurn::new(injector.clone()).with_quantum(64),
                &mut Script(injector, events.clone()),
            );
            assert_eq!(listed, injected, "threads = {threads}");
            assert_eq!(listed.online_events, events);
            assert!(listed.churn_killed > 0, "a listed failure strands in-flight packets");
            assert!(listed.epoch_delivered[2] > 0, "traffic flows again after the repair");
        }
    }

    #[test]
    fn listed_events_keep_config_order_and_their_exact_cycle_in_both_transports() {
        use crate::config::ChurnEvent;
        let net = fault_free(8);
        let (a, b) = (Coord::new(2, 2), Coord::new(5, 5));
        // Two events at cycle 0 and three at cycle 37 (no quantum's
        // multiple); the cycle-37 triple is valid only in config order.
        let cfg = SimConfig {
            rate: 0.02,
            fault_churn: vec![
                ChurnEvent::repair(37, a),
                ChurnEvent::fail(0, a),
                ChurnEvent::fail(0, b),
                ChurnEvent::fail(37, a),
                ChurnEvent::repair(37, b),
            ],
            ..SimConfig::smoke()
        };
        let sequential = run_traffic(&net, RoutingKind::Rb2, &cfg);
        assert_eq!(
            sequential.online_events,
            vec![
                ChurnEvent::fail(0, a),
                ChurnEvent::fail(0, b),
                ChurnEvent::repair(37, a),
                ChurnEvent::fail(37, a),
                ChurnEvent::repair(37, b),
            ]
        );
        assert_eq!(sequential.churn_rejected, 0);
        assert_eq!(sequential.epoch_delivered.len(), 6, "one epoch per applied event");
        assert_eq!(sequential.epoch_delivered[0], 0, "epoch 0 ended before the first cycle");
        let threaded = run_traffic(&net, RoutingKind::Rb2, &SimConfig { threads: 3, ..cfg });
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn invalid_listed_events_are_rejected_and_counted_not_panics() {
        use crate::config::ChurnEvent;
        let net = fault_free(8);
        let c = Coord::new(3, 3);
        for threads in [1, 2] {
            let cfg = SimConfig {
                rate: 0.02,
                threads,
                fault_churn: vec![
                    ChurnEvent::fail(40, Coord::new(99, 99)), // off-mesh
                    ChurnEvent::fail(40, c),
                    ChurnEvent::fail(50, c), // already faulty
                    ChurnEvent::repair(60, Coord::new(1, 1)), // healthy
                ],
                ..SimConfig::smoke()
            };
            let stats = run_traffic(&net, RoutingKind::Rb2, &cfg);
            assert_eq!(stats.online_events, vec![ChurnEvent::fail(40, c)]);
            assert_eq!(stats.churn_rejected, 3);
            assert_eq!(stats.epoch_delivered.len(), 2);
            assert!(!stats.deadlocked);
        }
    }

    #[test]
    #[should_panic(expected = "churn quantum must be at least 1 cycle")]
    fn zero_churn_quantum_is_a_panic() {
        use crate::churn::OnlineChurn;
        let net = fault_free(4);
        let mut paths = PathTable::new(&net, RoutingKind::Xy);
        let _ = TrafficSim::new(&mut paths, SimConfig::smoke())
            .with_online_churn(OnlineChurn { quantum: 0, ..OnlineChurn::default() });
    }

    #[test]
    fn ttl_default_is_per_router() {
        // E-cube on a faulty 16x16 can emit very long escape walks; the
        // automatic TTL keeps dropping those. RB2 has no TTL by default
        // any more: nothing is dropped even on unlucky pairs.
        let mesh = Mesh::square(16);
        let net = NetView::build(FaultSet::from_coords(
            mesh,
            (4..12).map(|x| Coord::new(x, 8)).collect::<Vec<_>>(),
        ));
        let cfg = SimConfig { rate: 0.01, ..SimConfig::smoke() };
        let rb2 = run_traffic(&net, RoutingKind::Rb2, &cfg);
        assert_eq!(rb2.ttl_dropped, 0, "non-E-cube routers default to no TTL");
        assert_eq!(rb2.measured_delivered, rb2.measured_generated);
    }
}
