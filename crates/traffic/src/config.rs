//! Simulation parameters.

use std::fmt;

use meshpath_mesh::Coord;
use meshpath_obs::ObsLevel;

use crate::fabric::MAX_VC_DEPTH;

/// One mid-run fault mutation: at the start of `cycle`, the network
/// advances to the next epoch snapshot with `op` applied. Listed ahead
/// of time in [`SimConfig::fault_churn`], and logged — whichever source
/// fired it — in
/// [`TrafficStats::online_events`](crate::TrafficStats::online_events).
///
/// Semantics are **failure / repair**, as in the paper's fault model: a
/// failed node forwards nothing from the event cycle on. No new packet
/// is generated at, destined to, or routed through it (new routes
/// compile against the new epoch), its network interface discards its
/// queued packets (`churn_dropped`), and a packet already in flight
/// whose compiled route meets the failure replans from where it stands
/// or — when it sits on, heads to, or is cut off by the failed node —
/// is drained and counted in `churn_killed`. The escape forest is
/// re-provisioned per event, so a repaired node regains every VC class.
/// An invalid event (off-mesh coordinate, failing a faulty node,
/// repairing a healthy one) is rejected and counted in
/// `churn_rejected`, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Cycle at which the mutation takes effect (applied before that
    /// cycle's generation).
    pub cycle: u64,
    /// What happens to the network.
    pub op: ChurnOp,
}

/// The mutation a [`ChurnEvent`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// The node at this coordinate fails.
    Fail(Coord),
    /// The node at this coordinate is repaired.
    Repair(Coord),
}

impl ChurnEvent {
    /// A failure event.
    pub fn fail(cycle: u64, at: Coord) -> Self {
        ChurnEvent { cycle, op: ChurnOp::Fail(at) }
    }

    /// A repair event.
    pub fn repair(cycle: u64, at: Coord) -> Self {
        ChurnEvent { cycle, op: ChurnOp::Repair(at) }
    }
}

/// Cycles a flit spends outside the router pipeline proper: one on the
/// injection link (source NI -> source router) and one on the ejection
/// link (destination router -> destination NI).
///
/// At zero load a single-flit packet therefore has latency
/// `hops + PIPELINE_DEPTH`, and an `L`-flit packet
/// `hops + PIPELINE_DEPTH + (L - 1)` (tail serialization).
pub const PIPELINE_DEPTH: u64 = 2;

/// Why [`SimConfig::validate`] rejected a configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `packet_len` is zero: a packet has at least a head flit.
    EmptyPacket,
    /// `rate` is outside `[0, 1]`.
    Rate(f64),
    /// `vc_depth` is zero or exceeds 255 (the fabric's flit-ring
    /// cursors and credit counters are `u8`).
    VcDepth(usize),
    /// `escape_vcs` leaves no adaptive channel of `vcs`.
    EscapeVcs {
        /// The reserved channel count asked for.
        escape_vcs: usize,
        /// The channels per port it must stay below.
        vcs: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::EmptyPacket => write!(f, "packets need at least one flit"),
            ConfigError::Rate(rate) => {
                write!(f, "injection rate {rate} is not a per-cycle probability")
            }
            ConfigError::VcDepth(depth) => write!(
                f,
                "vc_depth = {depth} is outside 1..={MAX_VC_DEPTH} (the flit-ring cursor limit)"
            ),
            ConfigError::EscapeVcs { escape_vcs, vcs } => write!(
                f,
                "escape_vcs = {escape_vcs} must leave at least one adaptive channel of vcs = {vcs}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of one traffic simulation run.
///
/// Defaults model a small input-buffered wormhole router: 4 virtual
/// channels of 4 flits per input port — two reserved as the
/// Duato-style escape classes (one XY, one spanning-tree) — 4-flit
/// packets, and a warmup / measure / drain measurement protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Virtual channels per directional input port (the injection port
    /// has a single channel).
    pub vcs: usize,
    /// Flit buffer depth of each virtual channel, at most 255. Depths
    /// below 2 cannot stream at link rate (credit round-trip is 2
    /// cycles).
    pub vc_depth: usize,
    /// Channels (of `vcs`, top indices) reserved for the deadlock-free
    /// escape classes: the topmost reserved channel carries up*/down*
    /// spanning-tree traffic (always available), the rest carry strict
    /// dimension-order XY traffic (minimal, but only entered past a
    /// fault-free XY run). Must leave at least one adaptive channel;
    /// `1` reserves only the tree class, and `0` is the no-escape
    /// fabric: every head follows its compiled route unconditionally
    /// over all `vcs` channels (the original source-routed behavior),
    /// so wormhole cyclic waits are possible and only *detected*.
    pub escape_vcs: usize,
    /// Consecutive cycles a head stays parked on the adaptive class
    /// before the per-hop router also offers it the reserved escape
    /// classes — dimension-order XY when the XY run to its destination
    /// is fault-free, the up*/down* spanning-tree route otherwise —
    /// where it then stays until delivery. Small values drain
    /// congestion faster but divert more traffic off the compiled
    /// (fault-aware, shortest-path) routes. Unread when
    /// `escape_vcs == 0`.
    pub patience: u32,
    /// Flits per packet (head + body + tail; 1 = head-only packet).
    pub packet_len: u32,
    /// Injection rate in packets per node per cycle: every healthy node
    /// runs one Bernoulli trial per cycle, and a hit sends a packet to
    /// a uniformly drawn other healthy node. Any other traffic shape
    /// comes from a [`WorkloadSource`](crate::WorkloadSource).
    pub rate: f64,
    /// Warmup cycles: packets generated before this point are routed but
    /// excluded from the latency statistics.
    pub warmup: u64,
    /// Measurement window in cycles; the latency histogram covers
    /// packets *generated* inside the window (so source queueing time is
    /// included, which is where saturation shows up).
    pub measure: u64,
    /// Extra cycles allowed after the window for measured packets to
    /// complete before the run is declared saturated.
    pub drain: u64,
    /// Base RNG seed; per-node injection streams derive from it.
    pub seed: u64,
    /// Route hop budget at the network interface: packets whose compiled
    /// route exceeds this many hops are dropped at generation and
    /// counted (`ttl_dropped`), like an IP TTL.
    ///
    /// `None` selects the per-router default: **no budget** for every
    /// router except E-cube, which keeps the automatic budget
    /// `4 * (width + height)` because its last-resort escape walk can
    /// emit paths of hundreds of hops on unlucky pairs (see ROADMAP;
    /// the TTL retires once the detour bound is fixed). Now that escape
    /// VCs bound blocking, the other routers no longer need the cap.
    /// `Some(u32::MAX)` disables the cap for every router.
    pub route_ttl: Option<u32>,
    /// Worker threads (= fabric row-band shards) stepping a single
    /// simulation concurrently. Results are **bit-identical at every
    /// thread count** (see the sharding docs in `crate::fabric`).
    ///
    /// `0` selects the automatic default: the `MESHPATH_THREADS`
    /// environment variable when set, otherwise all available cores
    /// (capped at 8) for meshes of 64x64 nodes and up, and a single
    /// thread for smaller meshes (where per-cycle work is too small to
    /// amortize the cycle barrier). The count is always clamped to the
    /// mesh height — each shard is a band of at least one row.
    pub threads: usize,
    /// Streaming-statistics window length in cycles: every
    /// `stats_window` cycles, [`TrafficSim::try_run_full`] hands a
    /// [`WindowSample`] (window mean latency, accepted flits, in-flight
    /// and backlog) to its [`WindowObserver`]; `0` disables windowing.
    /// The window length never changes simulation results — observers
    /// can only *end* a run early, never steer it.
    ///
    /// [`TrafficSim::try_run_full`]: crate::TrafficSim::try_run_full
    /// [`WindowSample`]: crate::WindowSample
    /// [`WindowObserver`]: crate::WindowObserver
    pub stats_window: u64,
    /// Mid-run fault mutations known ahead of time (see [`ChurnEvent`]
    /// for the failure semantics): the churn driver is preloaded with
    /// the list, sorted by cycle (config order within a cycle), and
    /// applies each event at exactly its cycle — cycle 0 included —
    /// through the same publication path as live
    /// [`OnlineChurn`](crate::OnlineChurn) sources, with which it
    /// composes. Empty = no listed events (epoch 0 throughout, unless
    /// a live source publishes).
    pub fault_churn: Vec<ChurnEvent>,
    /// Observability level (see [`ObsLevel`]). At the default
    /// [`ObsLevel::Off`] the run loop is monomorphized over the no-op
    /// probe — zero instrumentation code on the hot path. `Metrics`
    /// records per-link/per-node counters and histograms; `Trace` adds
    /// the per-shard packet-lifecycle flight recorder. Recording never
    /// perturbs results: an instrumented run is bit-identical to a bare
    /// one (pinned by `crate::golden`). The merged report comes back in
    /// [`RunOutput::obs`](crate::RunOutput::obs).
    pub obs: ObsLevel,
    /// Record every generation attempt as a packet-trace entry
    /// (`cycle, src, dst, len`, with rejections as drop markers). The
    /// recorded trace comes back in
    /// [`RunOutput::trace`](crate::sim::RunOutput) and replays through
    /// a trace workload source
    /// ([`TrafficSim::with_workload`](crate::TrafficSim::with_workload))
    /// bit-identically — same `TrafficStats`, same cycle count — under
    /// the same config. Off by default (recording allocates per
    /// generated packet).
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vcs: 4,
            vc_depth: 4,
            escape_vcs: 2,
            patience: 4,
            packet_len: 4,
            rate: 0.01,
            warmup: 300,
            measure: 1500,
            drain: 3000,
            seed: 0x2007_0325,
            route_ttl: None,
            threads: 0,
            stats_window: 250,
            fault_churn: Vec::new(),
            obs: ObsLevel::Off,
            record_trace: false,
        }
    }
}

impl SimConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        SimConfig { warmup: 100, measure: 400, drain: 1000, ..Default::default() }
    }

    /// This config with a different injection rate (builder).
    pub fn with_rate(self, rate: f64) -> Self {
        SimConfig { rate, ..self }
    }

    /// This config with a different worker-thread count (builder; see
    /// [`threads`](SimConfig::threads)).
    pub fn with_threads(self, threads: usize) -> Self {
        SimConfig { threads, ..self }
    }

    /// This config with a mid-run fault-churn list (builder; see
    /// [`ChurnEvent`]).
    pub fn with_fault_churn(self, fault_churn: Vec<ChurnEvent>) -> Self {
        SimConfig { fault_churn, ..self }
    }

    /// This config with an observability level (builder; see
    /// [`obs`](SimConfig::obs)).
    pub fn with_obs(self, obs: ObsLevel) -> Self {
        SimConfig { obs, ..self }
    }

    /// This config with generation-trace recording switched on
    /// (builder; see [`record_trace`](SimConfig::record_trace)).
    pub fn with_record_trace(self) -> Self {
        SimConfig { record_trace: true, ..self }
    }

    /// Checks each field against the fabric's limits, before anything
    /// is built from it: `packet_len` is at least one flit, `rate` is a
    /// probability, `vc_depth` fits the `u8` ring cursors, and
    /// `escape_vcs` leaves an adaptive channel.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.packet_len < 1 {
            return Err(ConfigError::EmptyPacket);
        }
        if !(0.0..=1.0).contains(&self.rate) {
            return Err(ConfigError::Rate(self.rate));
        }
        if !(1..=MAX_VC_DEPTH).contains(&self.vc_depth) {
            return Err(ConfigError::VcDepth(self.vc_depth));
        }
        if self.escape_vcs >= self.vcs {
            return Err(ConfigError::EscapeVcs { escape_vcs: self.escape_vcs, vcs: self.vcs });
        }
        Ok(())
    }

    /// The effective shard/worker count for a mesh of `nodes` nodes
    /// (see [`SimConfig::threads`]): the explicit knob, else the
    /// `MESHPATH_THREADS` environment override, else the size-gated
    /// automatic default. The mesh-height clamp is applied later, at
    /// fabric construction.
    pub(crate) fn resolved_threads(&self, nodes: usize) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Some(n) =
            std::env::var("MESHPATH_THREADS").ok().and_then(|v| v.parse::<usize>().ok())
        {
            if n > 0 {
                return n;
            }
        }
        if nodes >= 64 * 64 {
            std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1)
        } else {
            1
        }
    }

    /// This config with per-hop escape routing disabled
    /// ([`escape_vcs`](SimConfig::escape_vcs) `= 0`). Builder, like the
    /// rest of the `with_*` family.
    pub fn without_escape(self) -> Self {
        SimConfig { escape_vcs: 0, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.vc_depth >= 2, "depth < 2 cannot stream at link rate");
        assert!(c.packet_len >= 1);
        assert!((0.0..=1.0).contains(&c.rate));
        assert!(c.escape_vcs < c.vcs, "escape class must leave adaptive channels");
        assert!(c.escape_vcs >= 1, "escape routing is on by default");
        assert!(c.stats_window > 0, "streaming windows should be on by default");
        assert_eq!(c.threads, 0, "thread count should default to auto");
        assert!(c.fault_churn.is_empty(), "no churn by default");
        assert_eq!(c.obs, ObsLevel::Off, "instrumentation is opt-in");
        let f = c.clone().with_rate(0.25);
        assert_eq!(f.rate, 0.25);
        assert_eq!(f.vcs, c.vcs);
    }

    #[test]
    fn validate_names_the_field_it_rejects() {
        let base = SimConfig::default;
        let rejected = [
            (SimConfig { packet_len: 0, ..base() }, ConfigError::EmptyPacket),
            (SimConfig { rate: 1.5, ..base() }, ConfigError::Rate(1.5)),
            (SimConfig { vc_depth: 0, ..base() }, ConfigError::VcDepth(0)),
            (SimConfig { vc_depth: 256, ..base() }, ConfigError::VcDepth(256)),
            (
                SimConfig { escape_vcs: 4, ..base() },
                ConfigError::EscapeVcs { escape_vcs: 4, vcs: 4 },
            ),
        ];
        for (cfg, why) in rejected {
            assert_eq!(cfg.validate(), Err(why));
        }
        assert_eq!(
            ConfigError::VcDepth(256).to_string(),
            "vc_depth = 256 is outside 1..=255 (the flit-ring cursor limit)"
        );
    }

    #[test]
    fn validate_accepts_the_defaults_the_deepest_ring_and_no_escape() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        assert_eq!(SimConfig::smoke().validate(), Ok(()));
        assert_eq!(SimConfig { vc_depth: 255, ..SimConfig::default() }.validate(), Ok(()));
        // No cross-field rule: any patience goes with any channel split.
        assert_eq!(SimConfig::default().without_escape().validate(), Ok(()));
        assert_eq!(SimConfig { patience: 0, ..SimConfig::default() }.validate(), Ok(()));
    }

    #[test]
    fn builders_are_uniformly_by_value() {
        let c = SimConfig::smoke()
            .with_rate(0.125)
            .with_threads(2)
            .with_fault_churn(vec![ChurnEvent::fail(50, Coord::new(1, 1))])
            .with_obs(ObsLevel::Metrics)
            .with_record_trace();
        assert_eq!(c.rate, 0.125);
        assert_eq!(c.threads, 2);
        assert_eq!(c.fault_churn.len(), 1);
        assert_eq!(c.obs, ObsLevel::Metrics);
        assert!(c.record_trace);
        let d = c.without_escape();
        assert_eq!(d.escape_vcs, 0);
        assert_eq!(d.rate, 0.125, "builders chain without losing fields");
    }

    #[test]
    fn threads_resolve_explicit_over_auto() {
        let c = SimConfig { threads: 3, ..SimConfig::default() };
        assert_eq!(c.resolved_threads(16 * 16), 3);
        // The auto default keeps small meshes sequential (the env-var
        // override path is exercised by CI's forced-shard test run).
        if std::env::var_os("MESHPATH_THREADS").is_none() {
            assert_eq!(SimConfig::default().resolved_threads(16 * 16), 1);
        }
    }

    #[test]
    fn without_escape_reserves_nothing_and_keeps_every_channel() {
        let c = SimConfig::default().without_escape();
        assert_eq!(c.escape_vcs, 0);
        assert_eq!(c.vcs, SimConfig::default().vcs, "channel count unchanged");
    }
}
