//! The simulation driver: injection processes, the measurement
//! protocol, and the run loop — sequential or sharded across worker
//! threads with bit-identical results.
//!
//! ## Sharded execution: tiles and leases
//!
//! When [`SimConfig::threads`] resolves to `N > 1`, the fabric is built
//! as a grid of rectangular tile shards (see the boundary-exchange
//! protocol in [`crate::fabric`]; [`SimConfig::tile_cols`] picks the
//! grid shape) and the run loop becomes one shard worker per tile: each
//! worker owns its shard, the injection state of its nodes (per-node
//! RNG streams, source queues) and a private [`HopRouter`] over its own
//! [`PathTable`] (hop decisions are pure functions of the network, so
//! private route caches cannot diverge). Workers step concurrently;
//! per cycle they exchange cycle-stamped boundary messages with their
//! tile neighbors, and they report aggregate deltas (moved flits,
//! deliveries, generation counters) to the coordinator, which keeps
//! the global statistics and makes the termination/observer decisions.
//!
//! The coordinator round trip is amortized by **free-running leases**
//! ([`SimConfig::lease`]): instead of gating every cycle, the
//! coordinator grants each worker a lease of up to N cycles
//! (`Go::Lease`), the worker runs them back-to-back — still exchanging
//! boundary messages with its neighbors every cycle, which is what
//! keeps adjacent tiles causally consistent — and reports the whole
//! window in one message. The coordinator *replays* the buffered
//! per-cycle deltas in cycle order through the same `RunState`
//! termination logic the lockstep transports use, so observer
//! callbacks, stop classification and statistics are computed on
//! exactly the same sequence of merged cycles. Lease renewal is
//! occupancy-aware in auto mode: leases stretch for idle tiles and
//! tighten for hot ones, computed only from the previous window's
//! committed flit counts — never wall clock — so the schedule is
//! deterministic. Every per-node computation is identical to the
//! sequential run — per-node RNGs are seeded by node id, grants
//! commute within a cycle, and all cross-shard effects are staged —
//! so `TrafficStats` is **bit-identical at every thread count, tile
//! shape and lease length** (pinned by `crate::golden`). After a stop
//! decision, cycles that workers already ran past the stop under a
//! granted lease are discarded from the statistics; only the
//! observability probes may record that bounded overshoot tail.
//!
//! ## Online churn
//!
//! [`TrafficSim::with_online_churn`] attaches a
//! [`ChurnInjector`](crate::ChurnInjector) /
//! [`ChaosConfig`](crate::ChaosConfig) event source to the run (see
//! [`crate::churn`]). The coordinator polls it at every churn-quantum
//! boundary, applies the events to its authoritative `NetState`
//! (incremental rebuild with full-rebuild fallback), and broadcasts
//! each resulting [`NetView`] epoch to the shard workers over the existing
//! control lanes (`Go::Publish` precedes the lease that starts at that
//! boundary on each FIFO lane — leases are clamped to quantum
//! boundaries, and a lease starting exactly on one is held back until
//! the replay cursor has polled it — so every worker adopts the epoch
//! at the same boundary). Workers re-provision their hop routers incrementally
//! ([`HopRouter::publish`]) and refresh source liveness/samplers;
//! packets stranded by a fresh fault are replanned or killed
//! (`churn_killed`), never wedged. Polling is coordinator-side and
//! deterministic, so online-churn runs stay bit-identical at every
//! thread count.
//!
//! ## Worker panic safety
//!
//! A panicking shard worker must not hang the run: each worker runs
//! under `catch_unwind`, reports the panic over the shared `done` lane,
//! and returns its channel ends (dropping them unblocks its
//! neighbors). The coordinator surfaces the failure as a typed
//! [`RunError`] from the `try_run*` entry points; the plain `run*`
//! entry points re-panic with the worker's message.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crossbeam::channel::{self, Receiver, Sender};
use meshpath_mesh::{derive_seed, Coord, NodeId};
use meshpath_obs::{FabricProbe, NoProbe, ObsLevel, ObsReport, Phase, ShardObs, StopKind};
use meshpath_route::{NetState, NetView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::churn::{OnlineChurn, OnlineDriver};
use crate::config::{ChurnOp, RoutePolicy, SimConfig};
use crate::fabric::{BoundaryMsg, Delivery, Fabric, Flit, PacketState, Shard, StepReport};
use crate::pattern::{DestSampler, InjectionProcess};
use crate::routing::{EscapeHop, HopRouter, PathTable, ReplayHop, RoutingKind};
use crate::source::{TraceEntry, WorkloadDriver, WorkloadMsg, WorkloadOutcome, WorkloadSource};
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

/// Why a sharded run failed instead of producing statistics.
///
/// Returned by the `try_run*` entry points. A worker panic is caught at
/// the worker boundary and surfaced here — the coordinator tears the
/// run down (dropping the control lanes unblocks every other worker)
/// instead of hanging on a dead channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A shard worker panicked; `message` is its panic payload.
    WorkerPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A worker disappeared (its channel ends dropped) without
    /// reporting a panic — a transport bug rather than a worker bug.
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
/// traveling [`PacketState`] is handed to the fabric with the head
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
    /// Markov-modulated on/off chain state (always `true` under
    /// Bernoulli injection).
    on: bool,
    /// Whether the node is healthy under the *current* epoch (fault
    /// churn): a decommissioned node stops generating (its RNG stream
    /// freezes) but keeps feeding a partially-injected worm.
    active: bool,
}

/// Generation-side statistics deltas of one shard over one cycle.
#[derive(Clone, Copy, Debug, Default)]
struct GenDelta {
    generated: u64,
    measured_generated: u64,
    unroutable: u64,
    ttl_dropped: u64,
    /// Packets discarded from source queues by a decommission event.
    churn_dropped: u64,
    /// The subset of `churn_dropped` generated inside the measurement
    /// window (they release `measured_outstanding`).
    measured_dropped: u64,
}

/// The epoch schedule of one run, shared by every shard worker: which
/// cycle each post-initial epoch starts at, the snapshot per epoch, and
/// the per-epoch destination samplers (destinations are drawn from the
/// current epoch's healthy nodes).
struct EpochEnv {
    /// `starts[k]` = the cycle at which epoch `k + 1` takes effect.
    starts: Vec<u64>,
    views: Vec<NetView>,
    samplers: Vec<DestSampler>,
}

/// Everything one shard contributes to one cycle, merged (commutative
/// sums) by the coordinator.
#[derive(Default)]
struct CycleDone {
    moved: u64,
    flits_ejected: u64,
    /// Escape-class commitments this cycle (per-cycle deltas, so a
    /// lease's overshoot past the stop decision never pollutes the
    /// run total).
    escape_entries: u64,
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
        self.moved += other.moved;
        self.flits_ejected += other.flits_ejected;
        self.escape_entries += other.escape_entries;
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
enum Go {
    /// Run `len` cycles starting at `start` without further
    /// coordinator contact (the free-running lease window). The
    /// per-cycle neighbor boundary exchange still happens inside the
    /// window; only the coordinator round trip is amortized.
    Lease {
        /// First cycle of the window.
        start: u64,
        /// Window length in cycles (>= 1).
        len: u64,
    },
    /// Adopt an online-churn epoch starting at the given cycle: the
    /// coordinator sends one per applied event, always *before* the
    /// lease that starts at that cycle on the same FIFO lane.
    Publish(u64, NetView, ChurnOp),
    /// Enqueue the workload messages releasing at the given cycle
    /// (each worker keeps the ones whose source node it owns). Sent
    /// before the one-cycle lease covering that cycle on the same FIFO
    /// lane — with a workload attached every lease is clamped to one
    /// cycle, since the source can react to any delivery.
    Inject(u64, Vec<WorkloadMsg>),
    /// The run is over (final cycle count and stop classification);
    /// finalize the probe and return the shard with it.
    Finish(u64, StopKind),
}

/// Worker → coordinator report: one lease window's per-cycle deltas
/// (in cycle order, for deterministic replay), or the worker's dying
/// word. Sharing the `done` lane means the coordinator learns of a
/// panic exactly where it would otherwise block forever.
enum WorkerReport {
    Cycles { shard: usize, start: u64, dones: Vec<CycleDone> },
    Panicked { shard: usize, message: String },
}

/// One shard of the running simulation: the fabric band plus the
/// injection state, hop router and instrumentation probe of its rows.
/// The unit both run-loop transports (in-process and worker-thread)
/// drive. Monomorphized over the probe: with [`NoProbe`] (the
/// [`ObsLevel::Off`] default) no instrumentation code exists on the
/// hot path at all.
struct ShardWorker<'a, P: FabricProbe> {
    shard: Shard,
    probe: P,
    sources: Vec<SourceNode>,
    router: Box<dyn HopRouter + 'a>,
    env: &'a EpochEnv,
    /// The current epoch index (advanced in lockstep by every worker at
    /// the scheduled cycles — a pure function of the cycle number, so
    /// sharding cannot skew it).
    cur_epoch: usize,
    cfg: &'a SimConfig,
    ttl: u32,
    gen_until: u64,
    /// Per-cycle injection probability while a source is *on*
    /// (`rate / duty`, capped at 1; equals `rate` under Bernoulli).
    burst_rate: f64,
    /// Packet ids allocated by this shard are `id_base + k`.
    id_base: u32,
    next_local: u32,
    /// Online-churn epochs published into this worker mid-run; they
    /// extend the prescheduled `env` epochs, so epoch index `k >=
    /// env.starts.len()` resolves into these parallel vectors at
    /// `k - env.starts.len()`. Identical across workers: every worker
    /// receives every publication at the same quantum boundary.
    online_starts: Vec<u64>,
    online_views: Vec<NetView>,
    online_samplers: Vec<DestSampler>,
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
        router: Box<dyn HopRouter + 'a>,
        env: &'a EpochEnv,
        cfg: &'a SimConfig,
        ttl: u32,
        shard_index: usize,
        probe: P,
    ) -> Self {
        let duty = cfg.injection.duty_cycle();
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
            env,
            cur_epoch: 0,
            cfg,
            ttl,
            gen_until: cfg.warmup + cfg.measure,
            burst_rate: (cfg.rate / duty).min(1.0),
            id_base: (shard_index as u32) << ID_SHARD_SHIFT,
            next_local: 0,
            online_starts: Vec::new(),
            online_views: Vec::new(),
            online_samplers: Vec::new(),
            workload: false,
            pending_workload: VecDeque::new(),
            backlogged,
            backlog: 0,
            #[cfg(test)]
            use_reference: false,
            #[cfg(test)]
            panic_at: None,
        }
    }

    /// Adopts an online-churn epoch starting at `start`: re-provisions
    /// the hop router (incremental escape-forest update, route cache
    /// for the new epoch) and installs the epoch's snapshot and
    /// destination sampler. `advance_epochs` flips the worker into the
    /// epoch at `start` like any prescheduled one.
    fn publish(&mut self, start: u64, view: NetView, op: ChurnOp) {
        self.router.publish(&view, op);
        self.online_samplers.push(DestSampler::new(
            self.cfg.pattern.clone(),
            view.faults(),
            self.cfg.seed,
        ));
        self.online_starts.push(start);
        self.online_views.push(view);
    }

    /// The cycle at which epoch `k + 1` takes effect, across the
    /// prescheduled and online schedules, or `None` past the last one.
    fn epoch_start(&self, k: usize) -> Option<u64> {
        let base = self.env.starts.len();
        if k < base {
            Some(self.env.starts[k])
        } else {
            self.online_starts.get(k - base).copied()
        }
    }

    /// Epoch `k`'s network snapshot (prescheduled or online).
    fn epoch_view(&self, k: usize) -> &NetView {
        let base = self.env.views.len();
        if k < base {
            &self.env.views[k]
        } else {
            &self.online_views[k - base]
        }
    }

    /// Applies every churn event scheduled at or before `cycle`:
    /// advances the admission epoch, refreshes source liveness, and
    /// discards not-yet-injected packets queued at decommissioned nodes
    /// (a partially injected worm keeps feeding — truncating it would
    /// wedge its VCs forever).
    fn advance_epochs(&mut self, cycle: u64, done: &mut CycleDone) {
        while self.epoch_start(self.cur_epoch).is_some_and(|start| cycle >= start) {
            self.cur_epoch += 1;
            self.router.advance_epoch();
            // Clone the epoch view (an `Arc` bump) so the fault borrow
            // does not alias the `sources` mutation below.
            let view = self.epoch_view(self.cur_epoch).clone();
            let faults = view.faults();
            let workload = self.workload;
            for (i, s) in self.sources.iter_mut().enumerate() {
                let healthy = faults.is_healthy(s.coord);
                if s.active && !healthy {
                    // Decommission: the NI discards its backlog. The
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
        self.advance_epochs(cycle, done);
        if self.workload {
            self.release_workload(cycle, done);
        } else if cycle < self.gen_until {
            self.generate(cycle, done);
        }
        done.injected_any |= self.feed_injection_channels();
        let mut report = StepReport::default();
        #[cfg(test)]
        if self.use_reference {
            self.shard.allocate_reference(&mut *self.router, &mut report, &mut done.deliveries);
            self.shard.age_reference();
        } else {
            self.shard.allocate_active(
                &mut *self.router,
                &mut report,
                &mut done.deliveries,
                &mut self.probe,
            );
            self.shard.age_parked_heads(&mut self.probe);
        }
        #[cfg(not(test))]
        {
            self.shard.allocate_active(
                &mut *self.router,
                &mut report,
                &mut done.deliveries,
                &mut self.probe,
            );
            self.shard.age_parked_heads(&mut self.probe);
        }
        done.moved += report.moved;
        done.flits_ejected += report.flits_ejected;
        done.escape_entries += report.escape_entries;
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

    /// Drains the shard's per-direction boundary outboxes, counting
    /// the messages into the probe on the way to the neighbor tiles
    /// (`-x`/`-y` count toward `prev`, `+x`/`+y` toward `next`,
    /// preserving the row-band reading of the two counters).
    fn take_outboxes(&mut self) -> [Vec<BoundaryMsg>; 4] {
        let boxes = self.shard.take_outboxes();
        if P::ACTIVE {
            self.probe.boundary_out(
                (boxes[1].len() + boxes[3].len()) as u64,
                (boxes[0].len() + boxes[2].len()) as u64,
            );
        }
        boxes
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
                self.shard.collect_wait_graph(&mut *self.router, &mut self.probe);
            }
        }
    }

    /// Generation at every healthy node of this shard, under the
    /// configured injection process and length distribution. The NI
    /// attaches no route — it only asks the hop router to *admit* the
    /// pair (is it routable, and how long is the compiled route, for
    /// the TTL check); all forwarding decisions happen per hop in the
    /// fabric.
    fn generate(&mut self, cycle: u64, done: &mut CycleDone) {
        let record = self.cfg.record_trace;
        let mean_len = self.cfg.packet_len;
        let measured = cycle >= self.cfg.warmup && cycle < self.gen_until;
        for i in 0..self.sources.len() {
            if !self.sources[i].active {
                continue;
            }
            let fire = {
                let s = &mut self.sources[i];
                match self.cfg.injection {
                    InjectionProcess::Bernoulli => s.rng.gen_bool(self.burst_rate),
                    InjectionProcess::MarkovOnOff { on_to_off, off_to_on } => {
                        if s.rng.gen_bool(if s.on { on_to_off } else { off_to_on }) {
                            s.on = !s.on;
                        }
                        s.on && s.rng.gen_bool(self.burst_rate)
                    }
                }
            };
            if !fire {
                continue;
            }
            let src = self.sources[i].coord;
            let sampler = if self.cur_epoch < self.env.samplers.len() {
                &self.env.samplers[self.cur_epoch]
            } else {
                &self.online_samplers[self.cur_epoch - self.env.samplers.len()]
            };
            let Some(dst) = sampler.dest(src, &mut self.sources[i].rng) else {
                continue;
            };
            let Some(hops) = self.router.admit(src, dst) else {
                done.gen.unroutable += 1;
                if record {
                    // Rejections are recorded as drop markers: the
                    // original run drew no packet length for them, so
                    // the replay must count — not inject — them.
                    done.trace.push(TraceEntry {
                        cycle,
                        src,
                        dst,
                        len: 0,
                        flow: crate::source::NO_FLOW,
                        drop: 1,
                    });
                }
                continue;
            };
            if hops > self.ttl {
                done.gen.ttl_dropped += 1;
                if record {
                    done.trace.push(TraceEntry {
                        cycle,
                        src,
                        dst,
                        len: 0,
                        flow: crate::source::NO_FLOW,
                        drop: 2,
                    });
                }
                continue;
            }
            let len = self.cfg.length.sample(mean_len, &mut self.sources[i].rng);
            // Hard assert (one branch per generated packet, off the
            // hot path): wrapping would alias ids across shards and
            // silently corrupt ownership bookkeeping.
            assert!(self.next_local < 1 << ID_SHARD_SHIFT, "packet-id namespace exhausted");
            let id = self.id_base + self.next_local;
            self.next_local += 1;
            done.gen.generated += 1;
            if measured {
                done.gen.measured_generated += 1;
            }
            let mut state = PacketState::new(src, dst, cycle, len);
            state.epoch = self.cur_epoch as u32;
            self.enqueue(i, QueuedPacket { id, state, remaining: len });
            if record {
                done.trace.push(TraceEntry {
                    cycle,
                    src,
                    dst,
                    len,
                    flow: crate::source::NO_FLOW,
                    drop: 0,
                });
            }
        }
    }

    /// Keeps the workload messages whose source node this shard owns
    /// (broadcast filter; a message addressing an off-mesh source is
    /// adopted by shard 0 so exactly one shard reports its abort).
    fn enqueue_workload(&mut self, msgs: &[WorkloadMsg]) {
        let mesh = *self.env.views[0].mesh();
        for m in msgs {
            let mine = if mesh.contains(m.src) {
                self.shard.contains_node(mesh.id(m.src).index())
            } else {
                self.id_base == 0
            };
            if mine {
                self.pending_workload.push_back(*m);
            }
        }
    }

    /// Releases this cycle's workload messages into the source queues
    /// (the workload-mode replacement for [`ShardWorker::generate`]).
    fn release_workload(&mut self, cycle: u64, done: &mut CycleDone) {
        while self.pending_workload.front().is_some_and(|m| m.at <= cycle) {
            let m = self.pending_workload.pop_front().expect("front checked");
            debug_assert_eq!(m.at, cycle, "workload messages release at their injection cycle");
            self.admit_workload(cycle, m, done);
        }
    }

    /// Admits one workload message: replayed rejection markers only
    /// bump the matching counter; live messages run the same admission
    /// gauntlet as generated traffic (routability, TTL), but a
    /// rejection is additionally reported on the abort lane — a
    /// workload message someone may depend on must never vanish
    /// silently.
    fn admit_workload(&mut self, cycle: u64, m: WorkloadMsg, done: &mut CycleDone) {
        let record = self.cfg.record_trace;
        let mesh = *self.env.views[0].mesh();
        if m.drop != 0 {
            if m.drop == 1 {
                done.gen.unroutable += 1;
            } else {
                done.gen.ttl_dropped += 1;
            }
            if record {
                done.trace.push(TraceEntry {
                    cycle,
                    src: m.src,
                    dst: m.dst,
                    len: 0,
                    flow: m.flow,
                    drop: m.drop,
                });
            }
            return;
        }
        let rejected: Option<u8> = if !mesh.contains(m.src) || !mesh.contains(m.dst) {
            Some(1)
        } else {
            let slot = self.shard.local_of(mesh.id(m.src).index());
            if !self.sources[slot].active {
                // A decommissioned source cannot inject; the message
                // dies like an unroutable pair.
                Some(1)
            } else {
                match self.router.admit(m.src, m.dst) {
                    None => Some(1),
                    Some(hops) if hops > self.ttl => Some(2),
                    Some(_) => None,
                }
            }
        };
        if let Some(drop) = rejected {
            if drop == 1 {
                done.gen.unroutable += 1;
            } else {
                done.gen.ttl_dropped += 1;
            }
            done.aborted.push(m.flow);
            if record {
                done.trace.push(TraceEntry {
                    cycle,
                    src: m.src,
                    dst: m.dst,
                    len: 0,
                    flow: m.flow,
                    drop,
                });
            }
            return;
        }
        let slot = self.shard.local_of(mesh.id(m.src).index());
        let len = m.len.max(1);
        assert!(self.next_local < 1 << ID_SHARD_SHIFT, "packet-id namespace exhausted");
        let id = self.id_base + self.next_local;
        self.next_local += 1;
        done.gen.generated += 1;
        if cycle >= self.cfg.warmup && cycle < self.gen_until {
            done.gen.measured_generated += 1;
        }
        let mut state = PacketState::new(m.src, m.dst, cycle, len);
        state.epoch = self.cur_epoch as u32;
        state.flow = m.flow;
        self.enqueue(slot, QueuedPacket { id, state, remaining: len });
        if record {
            done.trace.push(TraceEntry {
                cycle,
                src: m.src,
                dst: m.dst,
                len,
                flow: m.flow,
                drop: 0,
            });
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
/// measurement windows, and the termination decisions every shard
/// obeys. One instance regardless of transport.
struct RunState {
    warmup: u64,
    measure: u64,
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
}

impl RunState {
    fn new(cfg: &SimConfig, stats: TrafficStats) -> Self {
        RunState {
            warmup: cfg.warmup,
            measure: cfg.measure,
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
        }
    }

    fn measured_window_contains(&self, t: u64) -> bool {
        t >= self.warmup && t < self.warmup + self.measure
    }

    /// Absorbs one cycle's merged shard reports and decides whether the
    /// run ends. `cycle` is the cycle just simulated (0-based). With a
    /// workload attached (`wl`), deliveries and worker-side aborts are
    /// fed back to the scheduler here — strictly before the source is
    /// next polled — and the generation-window termination gate is
    /// replaced by the source's own exhaustion signal.
    fn end_of_cycle(
        &mut self,
        cycle: u64,
        mut agg: CycleDone,
        obs: &mut dyn WindowObserver,
        mut wl: Option<&mut WorkloadDriver>,
    ) -> bool {
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
        self.stats.flits_moved += agg.moved;
        self.stats.escape_packets += agg.escape_entries;
        self.stats.generated += agg.gen.generated;
        self.stats.measured_generated += agg.gen.measured_generated;
        self.stats.unroutable += agg.gen.unroutable;
        self.stats.ttl_dropped += agg.gen.ttl_dropped;
        self.stats.churn_dropped += agg.gen.churn_dropped;
        self.measured_outstanding += agg.gen.measured_generated;
        // Packets a decommission event discarded at their NI will never
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
                if self.measured_window_contains(gen_at) {
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
            if self.measured_window_contains(gen_at) {
                self.stats.measured_delivered += 1;
                self.measured_outstanding -= 1;
                self.stats.latency.record(delivered_at - gen_at);
            }
            if let Some(wl) = wl.as_deref_mut() {
                wl.on_delivery(d.state.flow, delivered_at, false);
            }
        }
        if self.measured_window_contains(cycle) {
            self.stats.measured_flits_ejected += agg.flits_ejected;
        }
        self.w_ejected += agg.flits_ejected;
        self.w_moved += agg.moved;

        // Progress & termination accounting.
        if agg.moved == 0 && !agg.injected_any {
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

    /// Takes the recorded trace out (`Some` exactly when recording was
    /// on, even if nothing generated).
    fn take_trace(&mut self) -> Option<Vec<TraceEntry>> {
        self.record_trace.then(|| std::mem::take(&mut self.trace))
    }

    /// Seals the statistics once every shard has stopped. Escape
    /// commitments were accumulated per replayed cycle, so lease
    /// overshoot past the stop decision is already excluded.
    fn finish(self) -> TrafficStats {
        self.stats
    }
}

/// Everything a run can produce: the statistics, the optional merged
/// observability report, the workload outcome (when a
/// [`WorkloadSource`] was attached) and the recorded packet trace
/// (when [`SimConfig::record_trace`] was set).
///
/// Returned by [`TrafficSim::try_run_full`]; the narrower entry points
/// are projections of this.
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

/// What the transports hand back before the observability report is
/// assembled.
struct CoreOutput {
    stats: TrafficStats,
    workload: Option<WorkloadOutcome>,
    trace: Option<Vec<TraceEntry>>,
}

/// One traffic simulation: a sharded fabric over a fault configuration,
/// driven by seeded injection processes, routed per hop by the policy's
/// [`HopRouter`] over one compiled routing function.
///
/// The path table is borrowed so sweeps can reuse compiled routes
/// across runs over the same network (route compilation dominates the
/// low-load setup cost; see [`run_traffic_reusing`]). Additional worker
/// shards compile their own tables. Under
/// [`fault_churn`](SimConfig::fault_churn) the table is loaded with the
/// full epoch schedule (each epoch published by the incremental
/// `NetState` update path) before the run starts.
pub struct TrafficSim<'p> {
    cfg: SimConfig,
    /// Effective route hop budget (see `SimConfig::route_ttl`).
    ttl: u32,
    kind: RoutingKind,
    fabric: Fabric,
    router: Box<dyn HopRouter + 'p>,
    env: EpochEnv,
    sources: Vec<SourceNode>,
    stats: TrafficStats,
    /// Online-churn event sources, polled by the coordinator at every
    /// quantum boundary (see [`TrafficSim::with_online_churn`]).
    online: Option<OnlineChurn>,
    /// The attached workload source, if any: it replaces the synthetic
    /// injection process entirely (see [`TrafficSim::with_workload`]).
    workload: Option<Box<dyn WorkloadSource>>,
    /// Golden-equivalence hook: run on the retained scan-order
    /// reference stepper instead of the event-driven one (forces the
    /// in-process transport).
    #[cfg(test)]
    use_reference: bool,
    /// Fault-injection hook: `(shard, cycle)` at which that shard's
    /// worker panics (exercises the panic-safety path).
    #[cfg(test)]
    panic_at: Option<(usize, u64)>,
}

/// Builds the policy's hop router over a path table (shared between the
/// driver's table and each worker shard's private table).
fn build_hop_router<'p>(paths: &'p mut PathTable, cfg: &SimConfig) -> Box<dyn HopRouter + 'p> {
    match cfg.policy {
        RoutePolicy::Deterministic => Box::new(ReplayHop::new(paths)),
        RoutePolicy::EscapeAdaptive { patience } => {
            // escape_vcs == 1 reserves only the tree channel; the XY
            // class needs a second reserved channel.
            Box::new(EscapeHop::new(paths, patience, cfg.escape_vcs >= 2))
        }
    }
}

/// A worker shard's private path table: same initial snapshot, same
/// epoch schedule.
fn worker_table(views: &[NetView], kind: RoutingKind) -> PathTable {
    let mut t = PathTable::new(&views[0], kind);
    t.set_schedule(views[1..].iter().cloned());
    t
}

impl<'p> TrafficSim<'p> {
    /// Builds a simulation driving `paths`' routing function over
    /// `paths`' network, per-hop, under `cfg.policy`, sharded into
    /// `cfg.threads` row bands (see [`SimConfig::threads`]). A
    /// non-empty [`fault_churn`](SimConfig::fault_churn) schedule is
    /// resolved into epoch snapshots here (incremental `NetState`
    /// updates) and installed into `paths`.
    ///
    /// # Panics
    /// Panics when [`SimConfig::validate`] does, a Markov injection
    /// probability is outside `(0, 1]`, or a churn event is invalid
    /// (failing an already-faulty node, repairing a healthy one,
    /// off-mesh coordinates).
    pub fn new(paths: &'p mut PathTable, cfg: SimConfig) -> Self {
        cfg.validate();
        // Validates the Markov parameters (duty_cycle panics on a chain
        // that cannot leave a state).
        let duty = cfg.injection.duty_cycle();
        debug_assert!(duty > 0.0);
        let kind = paths.kind();

        // Resolve the churn schedule into epoch snapshots (incremental
        // NetState updates) and install it into the table. Same-cycle
        // events keep their config order; each is its own epoch. The
        // table is reset to its initial snapshot *first*: a table
        // reused across runs (rate sweeps) still carries the previous
        // run's schedule and advanced epoch cursor, and the new
        // schedule must resolve from epoch 0, not from wherever the
        // last run stopped.
        let mut churn = cfg.fault_churn.clone();
        churn.sort_by_key(|e| e.cycle);
        paths.set_schedule([]);
        let mut views: Vec<NetView> = vec![paths.view().clone()];
        if !churn.is_empty() {
            let mut state = NetState::adopt(views[0].clone());
            for ev in &churn {
                let v = match ev.op {
                    ChurnOp::Fail(c) => state.add_fault(c),
                    ChurnOp::Repair(c) => state.remove_fault(c),
                };
                views.push(v.unwrap_or_else(|e| panic!("invalid fault_churn event {ev:?}: {e}")));
            }
            paths.set_schedule(views[1..].iter().cloned());
        }
        let starts: Vec<u64> = churn.iter().map(|e| e.cycle).collect();

        let mesh = *views[0].mesh();
        let threads = cfg.resolved_threads(mesh.len());
        let samplers: Vec<DestSampler> = views
            .iter()
            .map(|v| DestSampler::new(cfg.pattern.clone(), v.faults(), cfg.seed))
            .collect();
        let mmp = matches!(cfg.injection, InjectionProcess::MarkovOnOff { .. });
        // Source state exists for *every* node: online churn can repair
        // a node that was faulty in every prescheduled epoch, and it
        // must be able to start generating. Harmless otherwise —
        // per-node RNG streams are seeded by node id (so extra sources
        // never perturb any other node's stream) and an inactive source
        // draws nothing, queues nothing and counts nothing.
        let sources: Vec<SourceNode> = mesh
            .iter()
            .map(|c| {
                let id = mesh.id(c);
                let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, u64::from(id.0), 0));
                // The on/off chain starts in its stationary
                // distribution (drawn per node, so the decision is
                // independent of the shard count). Bernoulli sources
                // draw nothing here, keeping their streams unchanged.
                let on = !mmp || rng.gen_bool(duty);
                let active = views[0].faults().is_healthy(c);
                SourceNode { id, coord: c, rng, queue: VecDeque::new(), on, active }
            })
            .collect();
        let nodes = sources.iter().filter(|s| s.active).count();
        // Arrange the resolved worker count as a tile grid:
        // `tile_cols` columns (clamped to the thread count and mesh
        // width) by `threads / cols` rows. `tile_cols == 1` is the
        // classic row-band partition; the shard count is `cols * rows
        // <= threads` (`new_tiled` further clamps to the mesh dims).
        let cols = cfg.tile_cols.max(1).min(threads).min(mesh.width() as usize);
        let rows = (threads / cols).max(1);
        let fabric = Fabric::new_tiled(mesh, cfg.vcs, cfg.vc_depth, cfg.escape_vcs, cols, rows);
        let router = build_hop_router(paths, &cfg);
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
            epoch_delivered: vec![0; views.len()],
            churn_dropped: 0,
            churn_killed: 0,
            churn_rejected: 0,
            online_events: Vec::new(),
        };
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
            fabric,
            router,
            env: EpochEnv { starts, views, samplers },
            sources,
            stats,
            online: None,
            workload: None,
            #[cfg(test)]
            use_reference: false,
            #[cfg(test)]
            panic_at: None,
        }
    }

    /// Attaches online churn: the coordinator polls the injector (and
    /// the optional chaos schedule) at every `churn.quantum`-cycle
    /// boundary and publishes the resulting epochs into the running
    /// workers. See [`crate::churn`].
    ///
    /// # Panics
    /// Panics when the config also carries a prescheduled
    /// [`fault_churn`](SimConfig::fault_churn) (the two schedules would
    /// race for the epoch sequence) or `churn.quantum` is zero.
    pub fn with_online_churn(mut self, churn: OnlineChurn) -> Self {
        assert!(
            self.cfg.fault_churn.is_empty(),
            "online churn and a prescheduled fault_churn cannot mix in one run"
        );
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
    /// Composes with [`TrafficSim::with_online_churn`]: churn events
    /// still apply at their quantum boundaries, and flows whose
    /// packets churn kills or drops are aborted (and cascaded), never
    /// wedged. In the threaded transport a workload clamps every lease
    /// to one cycle — the source may react to any delivery — so
    /// expect lockstep-coordination cost.
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

    /// Fault-injection hook: make `shard`'s worker panic at the start
    /// of `cycle` (exercises the panic-safety path).
    #[cfg(test)]
    pub(crate) fn set_panic_at(&mut self, shard: usize, cycle: u64) {
        self.panic_at = Some((shard, cycle));
    }

    /// Runs the full warmup / measure / drain protocol and returns the
    /// collected statistics.
    ///
    /// # Panics
    /// Re-panics with the worker's message when a shard worker
    /// panicked; use [`TrafficSim::try_run`] to handle that as a typed
    /// error instead.
    pub fn run(self) -> TrafficStats {
        match self.try_run() {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`TrafficSim::run`], but streaming a [`WindowSample`] to
    /// `obs` every [`stats_window`](SimConfig::stats_window) cycles.
    /// The observer is read-only over the simulation except for one
    /// power: returning [`WindowControl::Stop`] ends the run at that
    /// window boundary, classified exactly as at the drain deadline
    /// (`saturated` when measured packets are outstanding).
    pub fn run_with(self, obs: &mut dyn WindowObserver) -> TrafficStats {
        match self.try_run_with(obs) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`TrafficSim::run_with`], but also returning the merged
    /// [`ObsReport`] when recording is enabled ([`SimConfig::obs`]);
    /// `None` at [`ObsLevel::Off`]. Recording never changes the
    /// statistics — the instrumented run is bit-identical to the bare
    /// one (pinned by `crate::golden`).
    pub fn run_observed(self, obs: &mut dyn WindowObserver) -> (TrafficStats, Option<ObsReport>) {
        match self.try_run_observed(obs) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`TrafficSim::run`] with worker failures surfaced as a typed
    /// [`RunError`] instead of a panic — the graceful-degradation entry
    /// point for long-lived services driving the simulator.
    pub fn try_run(self) -> Result<TrafficStats, RunError> {
        self.try_run_with(&mut ())
    }

    /// [`TrafficSim::run_with`] with worker failures surfaced as a
    /// typed [`RunError`].
    pub fn try_run_with(self, obs: &mut dyn WindowObserver) -> Result<TrafficStats, RunError> {
        Ok(self.try_run_observed(obs)?.0)
    }

    /// [`TrafficSim::run_observed`] with worker failures surfaced as a
    /// typed [`RunError`].
    pub fn try_run_observed(
        self,
        obs: &mut dyn WindowObserver,
    ) -> Result<(TrafficStats, Option<ObsReport>), RunError> {
        let out = self.try_run_full(obs)?;
        Ok((out.stats, out.obs))
    }

    /// The widest entry point: runs the protocol and returns
    /// everything the run produced — statistics, the observability
    /// report, the workload outcome and the recorded trace (see
    /// [`RunOutput`]). Worker failures surface as a typed
    /// [`RunError`].
    pub fn try_run_full(self, obs: &mut dyn WindowObserver) -> Result<RunOutput, RunError> {
        let level = self.cfg.obs;
        if level == ObsLevel::Off {
            let (core, _) = self.dispatch::<NoProbe, _>(obs, |_, _| NoProbe)?;
            return Ok(RunOutput {
                stats: core.stats,
                obs: None,
                workload: core.workload,
                trace: core.trace,
            });
        }
        let mesh = self.env.views[0].mesh();
        let (width, height) = (mesh.width() as usize, mesh.height() as usize);
        let (core, probes) = self.dispatch(obs, move |i, s: &Shard| {
            let r = s.node_range();
            ShardObs::new(i, r.start as u32, r.end as u32, level)
        })?;
        Ok(RunOutput {
            stats: core.stats,
            obs: Some(ObsReport::assemble(width, height, probes)),
            workload: core.workload,
            trace: core.trace,
        })
    }

    /// [`TrafficSim::try_run_full`], re-panicking on worker failure.
    pub fn run_full(self, obs: &mut dyn WindowObserver) -> RunOutput {
        match self.try_run_full(obs) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Routes a monomorphized run to the in-process or worker-thread
    /// transport; `mk` builds the probe of each shard. The in-process
    /// transport never fails (a panic there propagates inline on this
    /// thread — there is no hang to prevent).
    fn dispatch<P, F>(
        self,
        obs: &mut dyn WindowObserver,
        mk: F,
    ) -> Result<(CoreOutput, Vec<P>), RunError>
    where
        P: FabricProbe + Send,
        F: Fn(usize, &Shard) -> P,
    {
        let shards = self.fabric.num_shards();
        #[cfg(test)]
        let in_process = shards <= 1 || self.use_reference;
        #[cfg(not(test))]
        let in_process = shards <= 1;
        if in_process {
            Ok(self.run_in_process(obs, mk))
        } else {
            self.run_threaded(obs, mk)
        }
    }

    /// Splits the row-major source list into one bucket per shard
    /// tile (setup-only `O(nodes * shards)` scan; buckets keep the
    /// row-major order within each tile).
    fn partition_sources(sources: Vec<SourceNode>, shards: &[Shard]) -> Vec<Vec<SourceNode>> {
        let mut buckets: Vec<Vec<SourceNode>> = shards.iter().map(|_| Vec::new()).collect();
        for s in sources {
            let t = shards
                .iter()
                .position(|sh| sh.contains_node(s.id.index()))
                .expect("tiles partition the mesh");
            buckets[t].push(s);
        }
        buckets
    }

    /// The in-process transport: every shard stepped on this thread
    /// (the sequential path, and the reference-stepper path in tests).
    /// Boundary hand-off time is folded into the commit phase here —
    /// only the threaded transport has a distinct boundary-sync wait.
    fn run_in_process<P, F>(mut self, obs: &mut dyn WindowObserver, mk: F) -> (CoreOutput, Vec<P>)
    where
        P: FabricProbe,
        F: Fn(usize, &Shard) -> P,
    {
        let mut drv = self.online.take().map(|c| OnlineDriver::new(c, self.env.views[0].clone()));
        let mut wl = self.workload.take().map(WorkloadDriver::new);
        let shards = self.fabric.take_shards();
        let nbrs: Vec<[Option<usize>; 4]> = shards.iter().map(|s| s.neighbors()).collect();
        let mut buckets = Self::partition_sources(self.sources, &shards).into_iter();
        let env = &self.env;
        let mut tables: Vec<PathTable> =
            (1..shards.len()).map(|_| worker_table(&env.views, self.kind)).collect();
        let mut workers: Vec<ShardWorker<'_, P>> = Vec::with_capacity(shards.len());
        let mut shard_iter = shards.into_iter();
        let shard0 = shard_iter.next().expect("at least one shard");
        let probe0 = mk(0, &shard0);
        workers.push(ShardWorker::new(
            shard0,
            buckets.next().expect("one bucket per shard"),
            self.router,
            env,
            &self.cfg,
            self.ttl,
            0,
            probe0,
        ));
        for (i, (shard, table)) in shard_iter.zip(tables.iter_mut()).enumerate() {
            let probe = mk(i + 1, &shard);
            workers.push(ShardWorker::new(
                shard,
                buckets.next().expect("one bucket per shard"),
                build_hop_router(table, &self.cfg),
                env,
                &self.cfg,
                self.ttl,
                i + 1,
                probe,
            ));
        }
        if wl.is_some() {
            for w in &mut workers {
                w.workload = true;
            }
        }
        #[cfg(test)]
        {
            for w in &mut workers {
                w.use_reference = self.use_reference;
            }
            if let Some((shard, at)) = self.panic_at {
                if let Some(w) = workers.get_mut(shard) {
                    w.panic_at = Some(at);
                }
            }
        }

        let mut run = RunState::new(&self.cfg, self.stats);
        let mut cycle = 0u64;
        loop {
            if let Some(drv) = drv.as_mut() {
                for (view, op) in drv.poll(cycle) {
                    // Grow the per-epoch delivery ledger exactly when
                    // the epoch is published — its length is part of
                    // the bit-identity contract.
                    run.stats.epoch_delivered.push(0);
                    for w in &mut workers {
                        w.publish(cycle, view.clone(), op);
                    }
                }
            }
            if let Some(wl) = wl.as_mut() {
                // Poll the source strictly after the previous cycle's
                // feedback (`end_of_cycle` below) and any epoch
                // publication for this boundary.
                let msgs = wl.poll(cycle);
                if !msgs.is_empty() {
                    for w in &mut workers {
                        w.enqueue_workload(&msgs);
                    }
                }
            }
            let mut agg = CycleDone::default();
            for w in &mut workers {
                if P::ACTIVE {
                    // The in-process transport grants one cycle per
                    // barrier (the lease baseline).
                    w.probe.barrier(1);
                }
                w.plan_and_grant(cycle, &mut agg);
            }
            // Boundary exchange (in-process: direct hand-off between
            // neighboring tiles).
            for i in 0..workers.len() {
                let boxes = workers[i].take_outboxes();
                for (d, msgs) in boxes.into_iter().enumerate() {
                    if msgs.is_empty() {
                        continue;
                    }
                    let j = nbrs[i][d].expect("boundary messages stay on the mesh");
                    workers[j].shard.apply_boundary(msgs);
                }
            }
            for w in &mut workers {
                w.finish_cycle(&mut agg);
            }
            let stop = run.end_of_cycle(cycle, agg, obs, wl.as_mut());
            cycle += 1;
            if stop {
                break;
            }
        }
        let reason = run.stop;
        for w in &mut workers {
            w.finish_run(cycle, reason);
        }
        let trace = run.take_trace();
        let mut stats = run.finish();
        if let Some(drv) = drv {
            let (events, rejected) = drv.into_outcome();
            stats.online_events = events;
            stats.churn_rejected = rejected;
        }
        let core = CoreOutput { stats, workload: wl.map(WorkloadDriver::into_outcome), trace };
        (core, workers.into_iter().map(|w| w.probe).collect())
    }

    /// The worker-thread transport: one scoped thread per tile shard,
    /// with the coordinator on this thread granting lease windows and
    /// replaying the buffered per-cycle reports. Workers exchange
    /// cycle-stamped boundary messages directly with their tile
    /// neighbors over channels *every cycle* (which keeps adjacent
    /// tiles causally consistent); the coordinator round trip is
    /// amortized over the lease window, and every termination or
    /// observer decision is computed by replaying the merged per-cycle
    /// deltas in cycle order through the same `RunState` logic the
    /// in-process transport uses — so the decisions land on exactly
    /// the same cycle sequence, and cycles a worker ran past a stop
    /// decision under an already-granted lease are discarded.
    fn run_threaded<P, F>(
        mut self,
        obs: &mut dyn WindowObserver,
        mk: F,
    ) -> Result<(CoreOutput, Vec<P>), RunError>
    where
        P: FabricProbe + Send,
        F: Fn(usize, &Shard) -> P,
    {
        let mut drv = self.online.take().map(|c| OnlineDriver::new(c, self.env.views[0].clone()));
        let mut wl = self.workload.take().map(WorkloadDriver::new);
        let workload = wl.is_some();
        // A workload source may react to any delivery, so every cycle
        // is a coordination boundary: quantum 1 clamps every lease to
        // one cycle and gates it on the replay cursor, which puts the
        // cycle's `Go::Inject` ahead of its lease on every FIFO lane.
        // The churn driver still fires only at its own quantum's
        // multiples (it skips other cycles internally).
        let quantum = if workload { Some(1) } else { drv.as_ref().map(|d| d.quantum()) };
        #[cfg(test)]
        let panic_at = self.panic_at;
        let shards = self.fabric.take_shards();
        let n = shards.len();
        assert!(n < (1 << (32 - ID_SHARD_SHIFT)), "shard count exceeds the packet-id namespace");
        let nbrs: Vec<[Option<usize>; 4]> = shards.iter().map(|s| s.neighbors()).collect();
        let dims: Vec<(usize, usize)> = shards.iter().map(|s| s.tile_dims()).collect();
        let mut buckets = Self::partition_sources(self.sources, &shards);
        let cfg = self.cfg.clone();
        let ttl = self.ttl;
        let kind = self.kind;
        let env = &self.env;

        // Control channels: one `Go` lane per worker, one shared
        // report lane back. Boundary lanes form the tile adjacency
        // graph: one lane per (shard, direction with a neighbor),
        // whose receiver sits at the neighbor's opposite port (`Dir`
        // pairs +x/-x and +y/-y: xor 1). Every lane end is *moved* to
        // its unique user — the coordinator keeps only the ends it
        // reads/writes itself and drops its `done` sender after
        // spawning — so a worker panic disconnects its lanes: the
        // neighbors' blocking recvs error out instead of waiting
        // forever, they return into the join, and the coordinator
        // surfaces the failure rather than deadlocking the run.
        let mut go_tx: Vec<Sender<Go>> = Vec::with_capacity(n);
        let mut go_rx: Vec<Option<Receiver<Go>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (t, r) = channel::unbounded();
            go_tx.push(t);
            go_rx.push(Some(r));
        }
        type BoundaryLane = (u64, Vec<BoundaryMsg>);
        let mut btx: Vec<[Option<Sender<BoundaryLane>>; 4]> =
            (0..n).map(|_| [None, None, None, None]).collect();
        let mut brx: Vec<[Option<Receiver<BoundaryLane>>; 4]> =
            (0..n).map(|_| [None, None, None, None]).collect();
        for i in 0..n {
            for d in 0..4 {
                if let Some(j) = nbrs[i][d] {
                    let (t, r) = channel::unbounded();
                    btx[i][d] = Some(t);
                    brx[j][d ^ 1] = Some(r);
                }
            }
        }
        let (done_tx, done_rx) = channel::unbounded::<WorkerReport>();
        let mut done_tx = Some(done_tx);
        let run = RunState::new(&cfg, self.stats);

        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (w, shard) in shards.into_iter().enumerate() {
                let sources = std::mem::take(&mut buckets[w]);
                let go_rx = go_rx[w].take().expect("one worker per lane");
                let done_tx = done_tx.as_ref().expect("dropped only after spawning").clone();
                let btx = std::mem::take(&mut btx[w]);
                let brx = std::mem::take(&mut brx[w]);
                let cfg = &cfg;
                let probe = mk(w, &shard);
                handles.push(scope.spawn(move |_| {
                    // The dying-word sender lives outside the unwind
                    // boundary: a caught panic is reported over the
                    // shared `done` lane, exactly where the coordinator
                    // would otherwise block forever.
                    let report_tx = done_tx.clone();
                    let caught = catch_unwind(AssertUnwindSafe(move || {
                        let mut paths = worker_table(&env.views, kind);
                        let router = build_hop_router(&mut paths, cfg);
                        let mut worker =
                            ShardWorker::new(shard, sources, router, env, cfg, ttl, w, probe);
                        worker.workload = workload;
                        #[cfg(test)]
                        {
                            worker.panic_at = panic_at.and_then(|(s, at)| (s == w).then_some(at));
                        }
                        loop {
                            match go_rx.recv() {
                                Ok(Go::Lease { start, len }) => {
                                    if P::ACTIVE {
                                        worker.probe.barrier(len);
                                    }
                                    let mut dones = Vec::with_capacity(len as usize);
                                    for cycle in start..start + len {
                                        let mut done = CycleDone::default();
                                        worker.plan_and_grant(cycle, &mut done);
                                        let t = P::ACTIVE.then(Instant::now);
                                        let boxes = worker.take_outboxes();
                                        for (d, msgs) in boxes.into_iter().enumerate() {
                                            match &btx[d] {
                                                // Empty vectors are sent
                                                // too: they are the
                                                // neighbor's cycle clock.
                                                Some(tx) => {
                                                    let _ = tx.send((cycle, msgs));
                                                }
                                                None => debug_assert!(
                                                    msgs.is_empty(),
                                                    "boundary messages stay on the mesh"
                                                ),
                                            }
                                        }
                                        for rx in brx.iter().flatten() {
                                            // A dead neighbor lane means
                                            // the run is being torn down
                                            // (that neighbor panicked or
                                            // exited): return cleanly
                                            // instead of panicking into
                                            // the teardown.
                                            let Ok((c, msgs)) = rx.recv() else {
                                                return (worker.shard, worker.probe);
                                            };
                                            debug_assert_eq!(
                                                c, cycle,
                                                "neighbor lanes desynchronized"
                                            );
                                            worker.shard.apply_boundary(msgs);
                                        }
                                        if let Some(t) = t {
                                            worker.probe.phase_ns(
                                                Phase::Boundary,
                                                t.elapsed().as_nanos() as u64,
                                            );
                                        }
                                        worker.finish_cycle(&mut done);
                                        dones.push(done);
                                    }
                                    let _ = done_tx.send(WorkerReport::Cycles {
                                        shard: w,
                                        start,
                                        dones,
                                    });
                                }
                                Ok(Go::Publish(start, view, op)) => {
                                    worker.publish(start, view, op);
                                }
                                Ok(Go::Inject(at, msgs)) => {
                                    debug_assert!(
                                        msgs.iter().all(|m| m.at == at),
                                        "inject batch spans cycles"
                                    );
                                    worker.enqueue_workload(&msgs);
                                }
                                Ok(Go::Finish(cycle, reason)) => {
                                    worker.finish_run(cycle, reason);
                                    return (worker.shard, worker.probe);
                                }
                                Err(_) => return (worker.shard, worker.probe),
                            }
                        }
                    }));
                    match caught {
                        Ok(pair) => Some(pair),
                        Err(payload) => {
                            let _ = report_tx.send(WorkerReport::Panicked {
                                shard: w,
                                message: panic_message(payload.as_ref()),
                            });
                            None
                        }
                    }
                }));
            }
            // Only live workers hold a `done` sender now.
            done_tx = None;

            // Lease bookkeeping. `worker_end[w]` is the exclusive end
            // of w's granted window; `replay_next` is the next cycle
            // the coordinator replays; `buffer[k]` merges the deltas
            // of cycle `replay_next + k` together with how many shards
            // have reported it.
            let mut run = run;
            let mut worker_end = vec![0u64; n];
            let mut reported_through = vec![0u64; n];
            let mut last_moved = vec![0u64; n];
            let mut last_len = vec![0u64; n];
            let mut replay_next = 0u64;
            let mut buffer: VecDeque<(CycleDone, usize)> = VecDeque::new();
            // Workers whose next lease starts exactly on a churn
            // quantum boundary wait here until the replay cursor has
            // polled that boundary, so the boundary's `Go::Publish`
            // precedes the lease on their FIFO lane.
            let mut gated: Vec<usize> = Vec::new();
            let mut failure: Option<RunError> = None;
            let mut stopped = false;

            // The lease window for worker `w` starting at `start`:
            // the explicit config value, or the auto bound
            // `min(tile_w, tile_h)` — the tile edge distance, the
            // soonest a remote tile's effect can cross this tile —
            // clamped to [1, 64] and adapted by the previous window's
            // committed flit counts (deterministic: simulation state,
            // never wall clock). Under online churn every window is
            // clamped to the next quantum boundary so no lease ever
            // spans a publication.
            let lease_for = |w: usize, start: u64, last_moved: &[u64], last_len: &[u64]| -> u64 {
                let (tw, th) = dims[w];
                let len = if cfg.lease > 0 {
                    cfg.lease
                } else {
                    let base = (tw.min(th) as u64).clamp(1, 64);
                    if last_len[w] == 0 {
                        base
                    } else if last_moved[w] == 0 {
                        // Idle tile: stretch the window.
                        (base * 2).min(64)
                    } else if last_moved[w] > (tw * th) as u64 / 4 * last_len[w] {
                        // Hot tile: tighten the window so the
                        // coordinator can react (stop, publish,
                        // adapt) sooner.
                        (base / 2).max(1)
                    } else {
                        base
                    }
                };
                match quantum {
                    Some(q) => len.min((start / q + 1) * q - start).max(1),
                    None => len.max(1),
                }
            };
            // Cycle 0's workload release precedes the initial leases
            // on every FIFO lane (the churn driver never fires at
            // cycle 0).
            if let Some(wl) = wl.as_mut() {
                let msgs = wl.poll(0);
                if !msgs.is_empty() {
                    for tx in &go_tx {
                        let _ = tx.send(Go::Inject(0, msgs.clone()));
                    }
                }
            }
            for w in 0..n {
                let len = lease_for(w, 0, &last_moved, &last_len);
                let _ = go_tx[w].send(Go::Lease { start: 0, len });
                worker_end[w] = len;
            }

            while !stopped && failure.is_none() {
                match done_rx.recv() {
                    Ok(WorkerReport::Cycles { shard, start, dones }) => {
                        debug_assert_eq!(start, reported_through[shard], "report out of order");
                        reported_through[shard] = start + dones.len() as u64;
                        last_moved[shard] = dones.iter().map(|d| d.moved).sum();
                        last_len[shard] = dones.len() as u64;
                        // Merge the window into the replay buffer.
                        for (k, d) in dones.into_iter().enumerate() {
                            let idx = (start + k as u64 - replay_next) as usize;
                            if buffer.len() <= idx {
                                buffer.resize_with(idx + 1, Default::default);
                            }
                            let slot = &mut buffer[idx];
                            slot.0.merge(d);
                            slot.1 += 1;
                        }
                        // Replay every fully-merged cycle in order
                        // through the same termination logic the
                        // lockstep transports use.
                        while buffer.front().is_some_and(|&(_, count)| count == n) {
                            let (agg, _) = buffer.pop_front().expect("front checked");
                            if run.end_of_cycle(replay_next, agg, obs, wl.as_mut()) {
                                replay_next += 1;
                                stopped = true;
                                break;
                            }
                            replay_next += 1;
                            if let Some(q) = quantum {
                                if replay_next.is_multiple_of(q) {
                                    if let Some(drv) = drv.as_mut() {
                                        for (view, op) in drv.poll(replay_next) {
                                            // Grow the per-epoch delivery
                                            // ledger exactly when the epoch
                                            // is published — its length is
                                            // part of the bit-identity
                                            // contract.
                                            run.stats.epoch_delivered.push(0);
                                            for tx in &go_tx {
                                                let _ = tx.send(Go::Publish(
                                                    replay_next,
                                                    view.clone(),
                                                    op,
                                                ));
                                            }
                                        }
                                    }
                                    if let Some(wl) = wl.as_mut() {
                                        // Strictly after the cycle's
                                        // publications and the previous
                                        // cycle's feedback, strictly
                                        // before the leases gated on
                                        // this boundary.
                                        let msgs = wl.poll(replay_next);
                                        if !msgs.is_empty() {
                                            for tx in &go_tx {
                                                let _ =
                                                    tx.send(Go::Inject(replay_next, msgs.clone()));
                                            }
                                        }
                                    }
                                    // Release the leases gated on this
                                    // boundary, now strictly after its
                                    // publications on every FIFO lane.
                                    let mut i = 0;
                                    while i < gated.len() {
                                        if worker_end[gated[i]] == replay_next {
                                            let w = gated.swap_remove(i);
                                            let len =
                                                lease_for(w, replay_next, &last_moved, &last_len);
                                            let _ = go_tx[w]
                                                .send(Go::Lease { start: replay_next, len });
                                            worker_end[w] += len;
                                        } else {
                                            i += 1;
                                        }
                                    }
                                }
                            }
                        }
                        if stopped {
                            break;
                        }
                        // Prompt renewal: the worker is idle right now,
                        // and a stalled lease would stall its
                        // neighbors' per-cycle boundary recvs too.
                        let next = worker_end[shard];
                        let gate =
                            quantum.is_some_and(|q| next.is_multiple_of(q)) && replay_next < next;
                        if gate {
                            gated.push(shard);
                        } else {
                            let len = lease_for(shard, next, &last_moved, &last_len);
                            let _ = go_tx[shard].send(Go::Lease { start: next, len });
                            worker_end[shard] += len;
                        }
                    }
                    Ok(WorkerReport::Panicked { shard, message }) => {
                        failure = Some(RunError::WorkerPanicked { shard, message });
                    }
                    Err(_) => failure = Some(RunError::WorkerLost),
                }
            }

            if failure.is_none() {
                // Fence: workers may hold leases past the stop
                // decision. Top every worker up to the common fence —
                // gated workers included; their discarded cycles run
                // with a stale epoch, harmlessly — then drain the
                // reports (the statistics were sealed by the replay;
                // these cycles are overshoot) before the finish
                // broadcast, so every worker sees `Finish` only once
                // it is idle and every boundary lane is balanced.
                let fence = worker_end.iter().copied().max().unwrap_or(0);
                for w in 0..n {
                    if worker_end[w] < fence {
                        let _ = go_tx[w]
                            .send(Go::Lease { start: worker_end[w], len: fence - worker_end[w] });
                        worker_end[w] = fence;
                    }
                }
                while failure.is_none() && reported_through.iter().any(|&r| r < fence) {
                    match done_rx.recv() {
                        Ok(WorkerReport::Cycles { shard, start, dones }) => {
                            reported_through[shard] = start + dones.len() as u64;
                        }
                        Ok(WorkerReport::Panicked { shard, message }) => {
                            failure = Some(RunError::WorkerPanicked { shard, message });
                        }
                        Err(_) => failure = Some(RunError::WorkerLost),
                    }
                }
            }

            if let Some(mut err) = failure {
                // Teardown: dropping every coordinator-held sender
                // disconnects the control lanes, so every blocked
                // worker observes the disconnect — directly, or
                // through the boundary lane of a neighbor that already
                // returned — and returns: the run fails typed, it
                // never hangs.
                drop(go_tx);
                for h in handles {
                    let _ = h.join();
                }
                // Prefer a root-cause panic report over a bare lane
                // death: the report may still have been in flight when
                // the coordinator first noticed the disconnect.
                if err == RunError::WorkerLost {
                    while let Ok(r) = done_rx.try_recv() {
                        if let WorkerReport::Panicked { shard, message } = r {
                            err = RunError::WorkerPanicked { shard, message };
                            break;
                        }
                    }
                }
                return Err(err);
            }
            let reason = run.stop;
            for tx in &go_tx {
                let _ = tx.send(Go::Finish(replay_next, reason));
            }
            let mut probes = Vec::with_capacity(n);
            for h in handles {
                let Ok(Some((_shard, probe))) = h.join() else {
                    return Err(RunError::WorkerLost);
                };
                probes.push(probe);
            }
            let trace = run.take_trace();
            let mut stats = run.finish();
            if let Some(drv) = drv {
                let (events, rejected) = drv.into_outcome();
                stats.online_events = events;
                stats.churn_rejected = rejected;
            }
            let core = CoreOutput { stats, workload: wl.map(WorkloadDriver::into_outcome), trace };
            Ok((core, probes))
        })
        .expect("simulation coordinator panicked")
    }
}

/// Convenience wrapper: build, run, collect.
pub fn run_traffic(net: &NetView, kind: RoutingKind, cfg: &SimConfig) -> TrafficStats {
    let mut paths = PathTable::new(net, kind);
    TrafficSim::new(&mut paths, cfg.clone()).run()
}

/// Like [`run_traffic`], but reusing an existing path table so compiled
/// routes carry over between runs (e.g. an injection-rate sweep over
/// the same network and routing function).
pub fn run_traffic_reusing(paths: &mut PathTable, cfg: &SimConfig) -> TrafficStats {
    TrafficSim::new(paths, cfg.clone()).run()
}

/// [`run_traffic_reusing`] with a streaming [`WindowObserver`] attached
/// (see [`TrafficSim::run_with`]).
pub fn run_traffic_reusing_with(
    paths: &mut PathTable,
    cfg: &SimConfig,
    obs: &mut dyn WindowObserver,
) -> TrafficStats {
    TrafficSim::new(paths, cfg.clone()).run_with(obs)
}

/// [`run_traffic_reusing_with`] returning the merged [`ObsReport`]
/// alongside the statistics when `cfg.obs` enables recording (see
/// [`TrafficSim::run_observed`]).
pub fn run_traffic_observed(
    paths: &mut PathTable,
    cfg: &SimConfig,
    obs: &mut dyn WindowObserver,
) -> (TrafficStats, Option<ObsReport>) {
    TrafficSim::new(paths, cfg.clone()).run_observed(obs)
}

/// Routes a single packet of `len` flits from `s` to `d` through an
/// otherwise idle fabric and returns its latency in cycles, or `None`
/// when the routing function does not deliver the pair.
///
/// At zero load this is exactly
/// `route_hops + PIPELINE_DEPTH + (len - 1)`, which the integration
/// tests pin against the BFS oracle. (An idle fabric never blocks a
/// head, so the escape class is irrelevant here and the probe runs the
/// deterministic replay router.)
pub fn single_packet_latency(
    net: &NetView,
    kind: RoutingKind,
    s: Coord,
    d: Coord,
    len: u32,
) -> Option<u64> {
    assert!(len >= 1, "a packet has at least one flit");
    let mesh = *net.mesh();
    let mut paths = PathTable::new(net, kind);
    let mut probe = ReplayHop::new(&mut paths);
    probe.admit(s, d)?;
    // Probe fabric: the VC/depth pair is shared with the injection
    // check below — the injector must not stage past the buffer depth.
    const PROBE_VCS: usize = 2;
    const PROBE_DEPTH: usize = 4;
    let mut fabric = Fabric::new(mesh, PROBE_VCS, PROBE_DEPTH, 0);
    let id = fabric.register_packet(PacketState::new(s, d, 0, len));
    let src = mesh.id(s);
    let mut sent = 0u32;
    let mut ejected = Vec::new();
    let budget = 16 * (mesh.len() as u64) + 16 * u64::from(len);
    for cycle in 0..budget {
        if sent < len && fabric.local_occupancy(src) < PROBE_DEPTH {
            fabric.inject_flit(
                src,
                Flit { packet: id, is_head: sent == 0, is_tail: sent + 1 == len },
            );
            sent += 1;
        }
        fabric.step(&mut probe, &mut ejected);
        if !ejected.is_empty() {
            return Some(cycle + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PIPELINE_DEPTH;
    use crate::pattern::{LengthDist, TrafficPattern};
    use meshpath_mesh::{FaultSet, Mesh};

    fn fault_free(n: u32) -> NetView {
        NetView::build(FaultSet::none(Mesh::square(n)))
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
    fn lease_windows_cut_coordinator_barriers_by_the_lease_factor() {
        // The point of the free-running lease: the per-shard barrier
        // count (one per granted lease, recorded by the obs probe) must
        // shrink by at least the lease factor relative to lockstep —
        // while the statistics stay bit-identical.
        let net = fault_free(12);
        let base = SimConfig {
            rate: 0.01,
            threads: 2,
            obs: crate::ObsLevel::Metrics,
            ..SimConfig::smoke()
        };
        let barriers = |lease: u64| -> (TrafficStats, u64) {
            let mut paths = PathTable::new(&net, RoutingKind::Xy);
            let cfg = SimConfig { lease, ..base.clone() };
            let (stats, report) = run_traffic_observed(&mut paths, &cfg, &mut ());
            let report = report.expect("metrics recording was on");
            (stats, report.shards.iter().map(|s| s.barriers).sum())
        };
        let (lockstep_stats, lockstep_barriers) = barriers(1);
        let (leased_stats, leased_barriers) = barriers(8);
        assert_eq!(leased_stats, lockstep_stats, "lease windows must not change results");
        assert!(lockstep_barriers > 0 && leased_barriers > 0);
        // Fence windows at churn-quantum boundaries and the drain tail
        // are clamped short, so the realized factor lands a hair under
        // the nominal lease; 7x of a nominal 8 is the honest floor.
        assert!(
            lockstep_barriers >= 7 * leased_barriers,
            "lease 8 must amortize ~8x fewer barriers: lockstep {lockstep_barriers}, \
             leased {leased_barriers}"
        );
    }

    #[test]
    fn bursty_and_geometric_scenarios_run_and_shard_deterministically() {
        let net = fault_free(8);
        let cfg = SimConfig {
            rate: 0.01,
            injection: InjectionProcess::MarkovOnOff { on_to_off: 0.2, off_to_on: 0.05 },
            length: LengthDist::Geometric { max: 16 },
            ..SimConfig::smoke()
        };
        let a = run_traffic(&net, RoutingKind::Rb2, &cfg);
        assert!(a.measured_generated > 0, "the on/off process must generate");
        assert_eq!(a.measured_delivered, a.measured_generated, "low load must drain");
        assert_eq!(a, run_traffic(&net, RoutingKind::Rb2, &cfg), "must be deterministic");
        let sharded = run_traffic(&net, RoutingKind::Rb2, &SimConfig { threads: 2, ..cfg });
        assert_eq!(a, sharded, "bursty scenarios must shard bit-identically");
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
    fn patterns_drive_the_run_loop() {
        let net = fault_free(6);
        for pattern in [
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Permutation,
            TrafficPattern::Hotspot { targets: vec![Coord::new(3, 3)], fraction: 0.5 },
        ] {
            let cfg = SimConfig { rate: 0.01, pattern, ..SimConfig::smoke() };
            let stats = run_traffic(&net, RoutingKind::ECube, &cfg);
            assert_eq!(
                stats.measured_delivered, stats.measured_generated,
                "low load must drain for {:?}",
                cfg.pattern
            );
        }
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
        let stats = run_traffic_reusing_with(&mut paths, &cfg, &mut obs);
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
        let plain = run_traffic_reusing(&mut paths, &cfg);
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
        let stats = run_traffic_reusing_with(&mut paths, &cfg, &mut StopAfter(2));
        assert_eq!(stats.cycles, 200, "stopped at the second window boundary");
        assert!(stats.saturated);
    }

    #[test]
    #[should_panic(expected = "EscapeAdaptive policy needs a reserved escape channel")]
    fn escape_policy_requires_a_reserved_channel() {
        let net = fault_free(4);
        let cfg = SimConfig {
            escape_vcs: 0,
            policy: RoutePolicy::EscapeAdaptive { patience: 4 },
            ..SimConfig::smoke()
        };
        let mut paths = PathTable::new(&net, RoutingKind::Xy);
        let _ = TrafficSim::new(&mut paths, cfg);
    }

    #[test]
    fn injected_worker_panic_surfaces_as_typed_error() {
        let net = fault_free(12);
        let cfg = SimConfig { rate: 0.02, threads: 3, ..SimConfig::smoke() };
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let mut sim = TrafficSim::new(&mut paths, cfg.clone());
        sim.set_panic_at(1, 40);
        match sim.try_run() {
            Err(RunError::WorkerPanicked { shard, message }) => {
                assert_eq!(shard, 1);
                assert!(message.contains("injected test panic at cycle 40"), "{message}");
            }
            other => panic!("expected a typed worker panic, got {other:?}"),
        }
        // The coordinator's own band (shard 0) fails just as typed —
        // and in both cases the run returned instead of hanging.
        let mut sim = TrafficSim::new(&mut paths, cfg);
        sim.set_panic_at(0, 40);
        match sim.try_run() {
            Err(RunError::WorkerPanicked { shard, .. }) => assert_eq!(shard, 0),
            other => panic!("expected a typed worker panic, got {other:?}"),
        }
    }

    #[test]
    fn online_churn_kills_stranded_traffic_and_recovers_after_repair() {
        use crate::churn::{ChurnInjector, OnlineChurn};
        let net = fault_free(8);
        let hot = Coord::new(4, 4);
        let cfg = SimConfig {
            rate: 0.05,
            pattern: TrafficPattern::Hotspot { targets: vec![hot], fraction: 0.8 },
            stats_window: 50,
            ..SimConfig::smoke()
        };
        // Unscheduled events injected *mid-run* from the window
        // observer: fail the hotspot during the measure phase, repair
        // it a hundred cycles later.
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
        let mut obs = MidRun { injector, at: hot };
        let stats = sim.try_run_with(&mut obs).expect("online churn must not fail the run");
        assert!(!stats.deadlocked, "online churn must never wedge the fabric");
        assert_eq!(
            stats.online_events.iter().map(|e| e.op).collect::<Vec<_>>(),
            vec![ChurnOp::Fail(hot), ChurnOp::Repair(hot)],
            "both unscheduled events must apply: {:?}",
            stats.online_events
        );
        assert_eq!(stats.churn_rejected, 0);
        assert!(stats.churn_killed > 0, "hotspot-bound worms must be killed by the failure");
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
                .try_run()
                .expect("chaos run must complete")
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
    #[should_panic(expected = "cannot mix")]
    fn online_churn_and_prescheduled_churn_cannot_mix() {
        use crate::churn::{ChurnInjector, OnlineChurn};
        use crate::config::ChurnEvent;
        let net = fault_free(6);
        let cfg = SimConfig {
            fault_churn: vec![ChurnEvent::fail(40, Coord::new(2, 2))],
            ..SimConfig::smoke()
        };
        let mut paths = PathTable::new(&net, RoutingKind::Rb2);
        let _ = TrafficSim::new(&mut paths, cfg)
            .with_online_churn(OnlineChurn::new(ChurnInjector::new()));
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
