//! Latency histograms and run-level statistics.

use crate::config::ChurnEvent;

/// A latency histogram with 1-cycle-wide buckets and an overflow tail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// A histogram resolving latencies up to `cap` cycles exactly;
    /// larger samples land in the overflow tail (still counted in the
    /// mean and max).
    pub fn new(cap: usize) -> Self {
        LatencyHistogram { buckets: vec![0; cap], overflow: 0, count: 0, sum: 0, max: 0 }
    }

    /// Records one packet latency.
    pub(crate) fn record(&mut self, latency: u64) {
        match self.buckets.get_mut(latency as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in cycles (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile (e.g. `0.95`), resolved to bucket granularity.
    /// Samples in the overflow tail report the maximum.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub(crate) fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (lat, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return lat as u64;
            }
        }
        self.max
    }

    /// Merges another histogram (same cap) into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "histogram caps differ");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Everything measured over one traffic simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficStats {
    /// Cycles simulated in total (warmup + window + drain actually used).
    pub cycles: u64,
    /// Healthy (injecting/ejecting) nodes — the denominator of per-node
    /// rates, so throughput is comparable across fault densities
    /// (faulty routers neither offer nor accept traffic).
    pub nodes: usize,
    /// Length of the measurement window in cycles.
    pub measure_window: u64,
    /// Packets generated over the whole run.
    pub generated: u64,
    /// Packets generated during the measurement window.
    pub measured_generated: u64,
    /// Measured packets that completed delivery.
    pub measured_delivered: u64,
    /// Generation attempts whose routing function produced no path
    /// (counted, not queued — e.g. XY across a fault).
    pub unroutable: u64,
    /// Generation attempts dropped because the compiled route exceeded
    /// the configured hop budget ([`route_ttl`](crate::SimConfig)).
    pub ttl_dropped: u64,
    /// Packets that committed to an escape class (XY *or* spanning
    /// tree) mid-flight; always zero under the deterministic policy or
    /// with `escape_vcs = 0`. On a heavily faulted mesh most commits
    /// are tree-class (the non-minimal last resort), so a high count
    /// also signals latency drifting off the compiled routes.
    pub escape_packets: u64,
    /// Flits ejected during the measurement window (accepted traffic).
    pub measured_flits_ejected: u64,
    /// Flit-hops simulated over the whole run (switch traversals, the
    /// simulator's unit of work — `flits_moved / wall seconds` is the
    /// throughput figure the BENCH trajectory records).
    pub flits_moved: u64,
    /// Latency histogram over measured, delivered packets. Latency runs
    /// from *generation* (so it includes source queueing) to tail
    /// ejection.
    pub latency: LatencyHistogram,
    /// True when measured packets were still undelivered after the drain
    /// budget — the offered load exceeds what the network accepts.
    pub saturated: bool,
    /// True when the fabric stopped moving flits entirely while packets
    /// were in flight (wormhole cyclic dependency; see the crate docs on
    /// escape channels).
    pub deadlocked: bool,
    /// Packets delivered per admission epoch (index = epoch; a packet
    /// replanned around a fresh fault counts under the epoch it was
    /// re-keyed onto). One entry (every delivery) without churn, plus
    /// one per applied churn event — the per-epoch delivered series the
    /// `--json` rows report. Counts every delivery, warmup-era and
    /// measured alike.
    pub epoch_delivered: Vec<u64>,
    /// Packets dropped from source queues by a mid-run node failure
    /// (the failed node's NI discards not-yet-injected packets; a
    /// partially injected worm is always completed first). Always 0
    /// without churn.
    pub churn_dropped: u64,
    /// In-flight packets drained out of the fabric by churn: a fault
    /// landed on the packet's position, destination, or committed
    /// escape run and no replan existed. The graceful-degradation
    /// counterpart of a wedge — these packets are accounted, not
    /// deadlocked. Always 0 without churn.
    pub churn_killed: u64,
    /// Churn events refused at their boundary (failing an
    /// already-faulty node, repairing a healthy one, off-mesh targets),
    /// from any source. Always 0 without churn.
    pub churn_rejected: u64,
    /// The churn events actually applied, in publication order
    /// (`cycle` = the boundary cycle each took effect) — listed
    /// ([`SimConfig::fault_churn`](crate::SimConfig::fault_churn)),
    /// injected and chaos-drawn events alike. Empty without churn.
    pub online_events: Vec<ChurnEvent>,
}

impl TrafficStats {
    /// Accepted throughput in flits per healthy node per cycle over the
    /// measurement window.
    pub fn accepted_flits_per_node_cycle(&self) -> f64 {
        if self.measure_window == 0 || self.nodes == 0 {
            0.0
        } else {
            self.measured_flits_ejected as f64 / (self.nodes as f64 * self.measure_window as f64)
        }
    }

    /// Fraction of measured packets delivered, in percent.
    pub fn delivered_pct(&self) -> f64 {
        if self.measured_generated == 0 {
            100.0
        } else {
            100.0 * self.measured_delivered as f64 / self.measured_generated as f64
        }
    }

    /// Mean measured latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Median measured latency in cycles (exact: the histogram has
    /// 1-cycle-wide buckets up to its cap).
    pub fn p50_latency(&self) -> u64 {
        self.latency.percentile(0.50)
    }

    /// 95th-percentile measured latency in cycles.
    pub fn p95_latency(&self) -> u64 {
        self.latency.percentile(0.95)
    }

    /// 99th-percentile measured latency in cycles.
    pub fn p99_latency(&self) -> u64 {
        self.latency.percentile(0.99)
    }
}

/// One streaming statistics window emitted by
/// [`TrafficSim::try_run_full`](crate::TrafficSim::try_run_full): what the
/// fabric did over the last `stats_window` cycles
/// ([`SimConfig::stats_window`](crate::SimConfig)). Unlike
/// [`TrafficStats`], which is one summary at the end of the run, these
/// samples stream *during* it — the hook long sweeps use to watch
/// saturation develop (and, via [`WindowControl::Stop`], to cut a run
/// short once its verdict is certain).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSample {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// One past the last cycle of the window.
    pub end: u64,
    /// Packets delivered (tail ejected) during the window — warmup and
    /// measured traffic alike.
    pub delivered: u64,
    /// Mean generation-to-delivery latency of those packets (0 when
    /// none delivered).
    pub mean_latency: f64,
    /// Flits consumed by ejection ports during the window (accepted
    /// throughput; divide by `nodes * (end - start)` for the per-node
    /// rate).
    pub ejected_flits: u64,
    /// Flit-hops simulated during the window.
    pub moved: u64,
    /// Flits inside the fabric at the window boundary.
    pub in_flight: u64,
    /// Packets queued at source network interfaces at the boundary
    /// (the backlog that grows without bound past saturation).
    pub backlog: u64,
    /// Measured packets generated but not yet delivered.
    pub measured_outstanding: u64,
    /// Whether generation has stopped (the run is past
    /// `warmup + measure` and draining).
    pub draining: bool,
}

/// What the run loop should do after a window sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowControl {
    /// Keep simulating.
    Continue,
    /// End the run now. The run is classified exactly as at the drain
    /// deadline: `saturated` when measured packets are outstanding.
    Stop,
}

/// A streaming-statistics consumer for
/// [`TrafficSim::try_run_full`](crate::TrafficSim::try_run_full).
pub trait WindowObserver {
    /// Called at every `stats_window` boundary.
    fn on_window(&mut self, sample: &WindowSample) -> WindowControl;
}

/// The null observer: every run is [`WindowControl::Continue`].
impl WindowObserver for () {
    fn on_window(&mut self, _sample: &WindowSample) -> WindowControl {
        WindowControl::Continue
    }
}

/// Stops a run whose drain phase has visibly wedged: `limit`
/// consecutive windows with measured packets outstanding and **zero**
/// deliveries. The full drain budget could only change the verdict if
/// a fabric that delivered nothing for `limit * stats_window` cycles
/// (with injection long stopped) suddenly recovered — the same wager
/// the deadlock detector makes — so the saved cycles are effectively
/// free. Used by the load sweep's early-exit path; conservative by
/// construction (a single delivery resets the streak).
#[derive(Clone, Copy, Debug)]
pub struct DrainStallObserver {
    limit: u32,
    streak: u32,
}

impl DrainStallObserver {
    /// Stops after `limit` consecutive delivery-free drain windows.
    pub fn new(limit: u32) -> Self {
        DrainStallObserver { limit: limit.max(1), streak: 0 }
    }
}

impl WindowObserver for DrainStallObserver {
    fn on_window(&mut self, s: &WindowSample) -> WindowControl {
        if s.draining && s.measured_outstanding > 0 && s.delivered == 0 {
            self.streak += 1;
            if self.streak >= self.limit {
                return WindowControl::Stop;
            }
        } else {
            self.streak = 0;
        }
        WindowControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_percentile_max() {
        let mut h = LatencyHistogram::new(64);
        for lat in [10u64, 10, 20, 30] {
            h.record(lat);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 17.5);
        assert_eq!(h.max(), 30);
        assert_eq!(h.percentile(0.5), 10);
        assert_eq!(h.percentile(0.75), 20);
        assert_eq!(h.percentile(1.0), 30);
    }

    #[test]
    fn histogram_overflow_counts_in_mean() {
        let mut h = LatencyHistogram::new(8);
        h.record(100);
        h.record(4);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), 52.0);
        assert_eq!(h.percentile(1.0), 100, "overflow resolves to max");
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new(16);
        let mut b = LatencyHistogram::new(16);
        a.record(3);
        b.record(5);
        b.record(40);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 40);
    }

    #[test]
    fn stats_rates() {
        let s = TrafficStats {
            cycles: 100,
            nodes: 10,
            measure_window: 50,
            generated: 30,
            measured_generated: 20,
            measured_delivered: 18,
            unroutable: 1,
            ttl_dropped: 0,
            escape_packets: 0,
            measured_flits_ejected: 200,
            flits_moved: 1200,
            latency: LatencyHistogram::new(8),
            saturated: false,
            deadlocked: false,
            epoch_delivered: vec![18],
            churn_dropped: 0,
            churn_killed: 0,
            churn_rejected: 0,
            online_events: Vec::new(),
        };
        assert_eq!(s.accepted_flits_per_node_cycle(), 0.4);
        assert_eq!(s.delivered_pct(), 90.0);
    }

    #[test]
    fn stats_percentiles_read_the_latency_histogram() {
        let mut latency = LatencyHistogram::new(128);
        for lat in 1..=100u64 {
            latency.record(lat);
        }
        let s = TrafficStats {
            cycles: 100,
            nodes: 10,
            measure_window: 50,
            generated: 100,
            measured_generated: 100,
            measured_delivered: 100,
            unroutable: 0,
            ttl_dropped: 0,
            escape_packets: 0,
            measured_flits_ejected: 100,
            flits_moved: 100,
            latency,
            saturated: false,
            deadlocked: false,
            epoch_delivered: vec![100],
            churn_dropped: 0,
            churn_killed: 0,
            churn_rejected: 0,
            online_events: Vec::new(),
        };
        assert_eq!(s.p50_latency(), 50);
        assert_eq!(s.p95_latency(), 95);
        assert_eq!(s.p99_latency(), 99);
    }

    #[test]
    fn drain_stall_observer_needs_a_full_quiet_streak() {
        let mut obs = DrainStallObserver::new(3);
        let quiet = WindowSample {
            start: 0,
            end: 250,
            delivered: 0,
            mean_latency: 0.0,
            ejected_flits: 0,
            moved: 12, // may still be moving (circulating worms)
            in_flight: 40,
            backlog: 9,
            measured_outstanding: 10,
            draining: true,
        };
        assert_eq!(obs.on_window(&quiet), WindowControl::Continue);
        assert_eq!(obs.on_window(&quiet), WindowControl::Continue);
        // One delivery resets the streak...
        assert_eq!(obs.on_window(&WindowSample { delivered: 1, ..quiet }), WindowControl::Continue);
        assert_eq!(obs.on_window(&quiet), WindowControl::Continue);
        // ...and quiet windows before the drain never count.
        assert_eq!(
            obs.on_window(&WindowSample { draining: false, ..quiet }),
            WindowControl::Continue
        );
        assert_eq!(obs.on_window(&quiet), WindowControl::Continue);
        assert_eq!(obs.on_window(&quiet), WindowControl::Continue);
        assert_eq!(obs.on_window(&quiet), WindowControl::Stop);
    }
}
