//! Churn: fault/repair events applied to a *running* simulation.
//!
//! One mechanism, fed two ways. A [`SimConfig::fault_churn`] list is
//! known before the run starts and fires each event at exactly its
//! listed cycle; a [`ChurnInjector`] handle (an operator console, a
//! chaos harness, a service front-end) and a seedable [`ChaosConfig`]
//! schedule are *live* sources, polled every
//! [`quantum`](OnlineChurn::quantum) cycles while the run is in flight.
//! A run may use either or both.
//!
//! All of them feed the same coordinator-side driver: at every churn
//! boundary (a listed cycle, or a quantum multiple when a live source
//! is attached) the coordinator takes the listed events that are due,
//! drains the injector, draws the chaos schedule, applies each
//! mutation to a [`NetState`] (incremental rebuild with full-rebuild
//! fallback), and publishes the resulting [`NetView`] epochs into the
//! running shard workers. Applying through `NetState` means invalid
//! mutations (off-mesh coordinates, double faults, repairs of healthy
//! nodes) are *rejected and counted*, never panicking a live service —
//! whichever source they came from.
//!
//! Determinism: listed events apply in config order at their cycle, the
//! chaos schedule is a pure function of `(seed, cycle)` and the fault
//! set at the boundary, and injector events are applied in submission
//! order at the next quantum boundary — so a run with a given list,
//! injector script and chaos seed is bit-identical at every shard
//! count, which is what lets the golden tests pin all three sources in
//! one run.
//!
//! [`SimConfig::fault_churn`]: crate::SimConfig::fault_churn

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use meshpath_mesh::{derive_seed, Coord};
use meshpath_route::{NetState, NetView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ChurnEvent, ChurnOp};

/// A cloneable handle for injecting fault/repair events into a running
/// simulation.
///
/// Clones share one queue. Events are buffered in submission order and
/// applied at the next churn-quantum boundary the coordinator reaches;
/// an event targeting an invalid coordinate (off-mesh, already faulty,
/// not faulty) is rejected there and counted in
/// [`TrafficStats::churn_rejected`](crate::TrafficStats::churn_rejected)
/// rather than panicking the run.
#[derive(Clone, Debug, Default)]
pub struct ChurnInjector {
    queue: Arc<Mutex<Vec<ChurnOp>>>,
}

impl ChurnInjector {
    /// A fresh, empty injector.
    pub fn new() -> Self {
        ChurnInjector::default()
    }

    /// Queues a node failure.
    pub fn fail(&self, at: Coord) {
        self.inject(ChurnOp::Fail(at));
    }

    /// Queues a node repair.
    pub fn repair(&self, at: Coord) {
        self.inject(ChurnOp::Repair(at));
    }

    /// Queues an arbitrary churn operation.
    pub fn inject(&self, op: ChurnOp) {
        self.queue.lock().expect("churn injector lock poisoned").push(op);
    }

    /// How many events are queued but not yet applied.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.queue.lock().expect("churn injector lock poisoned").len()
    }

    /// Takes every queued event, in submission order. The run
    /// coordinator calls it at each quantum boundary; a caller draining
    /// by hand takes the events away from the simulation and must apply
    /// them itself.
    pub(crate) fn drain(&self) -> Vec<ChurnOp> {
        std::mem::take(&mut *self.queue.lock().expect("churn injector lock poisoned"))
    }
}

/// A seedable random churn schedule ("chaos monkey").
///
/// At each churn-quantum boundary inside the `[start, stop)` window the
/// driver draws at most one failure and one repair. The draw is a pure
/// function of `(seed, cycle)` and the current fault set, so chaos runs
/// are reproducible and shard-count independent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Stream seed; distinct from the traffic seed so chaos and load
    /// can be varied independently.
    pub seed: u64,
    /// Probability of drawing a failure at each boundary.
    pub fail_prob: f64,
    /// Probability of drawing a repair at each boundary.
    pub repair_prob: f64,
    /// First cycle (inclusive) at which chaos may fire.
    pub start: u64,
    /// Cycle at which chaos stops firing; `0` means never stop.
    pub stop: u64,
    /// Failures are suppressed while the fault count is at this cap.
    pub max_faults: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 7, fail_prob: 0.5, repair_prob: 0.5, start: 0, stop: 0, max_faults: 8 }
    }
}

impl ChaosConfig {
    /// Draws this boundary's operations against `view`'s fault set.
    ///
    /// Never draws a failure that would empty the mesh, and only draws
    /// repairs of nodes that were already faulty *before* this
    /// boundary (so a same-boundary fail is not immediately undone).
    pub(crate) fn draw(&self, cycle: u64, view: &NetView) -> Vec<ChurnOp> {
        if cycle < self.start || (self.stop > 0 && cycle >= self.stop) {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, cycle, 1));
        let faults = view.faults();
        let faulty: Vec<Coord> = faults.iter().collect();
        let mut ops = Vec::new();
        if rng.gen_bool(self.fail_prob)
            && faults.count() < self.max_faults
            && faults.healthy_count() > 1
        {
            // Pick the n-th healthy node in row-major order: stable
            // under any internal fault-set representation.
            let nth = rng.gen_range(0..faults.healthy_count());
            let pick = faults
                .mesh()
                .iter()
                .filter(|&c| faults.is_healthy(c))
                .nth(nth)
                .expect("healthy_count nodes are healthy");
            ops.push(ChurnOp::Fail(pick));
        }
        if rng.gen_bool(self.repair_prob) && !faulty.is_empty() {
            let pick = faulty[rng.gen_range(0..faulty.len())];
            ops.push(ChurnOp::Repair(pick));
        }
        ops
    }
}

/// The live churn sources of a [`TrafficSim`](crate::TrafficSim) run:
/// an injector handle, an optional chaos schedule, and the quantum at
/// which the coordinator polls both.
#[derive(Clone, Debug)]
pub struct OnlineChurn {
    /// Live injection handle; clone it and keep a copy to poke the run.
    pub injector: ChurnInjector,
    /// Optional random schedule drawn alongside injected events.
    pub chaos: Option<ChaosConfig>,
    /// Cycles between churn boundaries (>= 1). Smaller quanta react
    /// faster; larger quanta amortize epoch publication.
    pub quantum: u64,
}

impl Default for OnlineChurn {
    fn default() -> Self {
        OnlineChurn { injector: ChurnInjector::new(), chaos: None, quantum: 16 }
    }
}

impl OnlineChurn {
    /// Injector-only churn (no random schedule) at the default quantum.
    pub fn new(injector: ChurnInjector) -> Self {
        OnlineChurn { injector, ..OnlineChurn::default() }
    }

    /// Chaos-schedule churn at the default quantum (an injector handle
    /// is still available via the `injector` field).
    pub fn chaos(chaos: ChaosConfig) -> Self {
        OnlineChurn { chaos: Some(chaos), ..OnlineChurn::default() }
    }

    /// Sets the polling quantum.
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum >= 1, "churn quantum must be at least 1 cycle");
        self.quantum = quantum;
        self
    }
}

/// Coordinator-side churn driver: owns the authoritative [`NetState`]
/// and turns listed, injected and chaos events into published epochs.
pub(crate) struct OnlineDriver {
    /// The `fault_churn` events not yet due, cycle-sorted (config order
    /// within a cycle).
    listed: VecDeque<ChurnEvent>,
    live: Option<OnlineChurn>,
    state: NetState,
    applied: Vec<ChurnEvent>,
    rejected: u64,
}

impl OnlineDriver {
    pub(crate) fn new(
        mut listed: Vec<ChurnEvent>,
        live: Option<OnlineChurn>,
        base: NetView,
    ) -> Self {
        listed.sort_by_key(|e| e.cycle);
        OnlineDriver {
            listed: listed.into(),
            live,
            state: NetState::adopt(base),
            applied: Vec::new(),
            rejected: 0,
        }
    }

    /// The first cycle at or after `from` at which [`poll`] may apply
    /// something: the next listed cycle, or the next positive quantum
    /// multiple when a live source is attached (`u64::MAX` when neither
    /// remains). Coordinator windows end at these boundaries so
    /// publications stay ordered with replay.
    ///
    /// [`poll`]: OnlineDriver::poll
    pub(crate) fn next_boundary(&self, from: u64) -> u64 {
        let listed = self.listed.front().map_or(u64::MAX, |e| e.cycle.max(from));
        let live = self.live.as_ref().map_or(u64::MAX, |l| from.max(1).next_multiple_of(l.quantum));
        listed.min(live)
    }

    /// Applies what is due at `cycle` — listed events first, then the
    /// injector queue and the chaos draw when `cycle` is a positive
    /// quantum multiple — and returns the epoch publications to
    /// broadcast, one per applied operation.
    ///
    /// Invalid operations are counted in `rejected` and dropped — a
    /// bad list entry or a misbehaving injector client cannot wedge or
    /// panic the run.
    pub(crate) fn poll(&mut self, cycle: u64) -> Vec<NetView> {
        let mut ops = Vec::new();
        while self.listed.front().is_some_and(|e| e.cycle <= cycle) {
            ops.extend(self.listed.pop_front().map(|e| e.op));
        }
        if let Some(live) = &self.live {
            if cycle > 0 && cycle.is_multiple_of(live.quantum) {
                ops.extend(live.injector.drain());
                if let Some(chaos) = &live.chaos {
                    ops.extend(chaos.draw(cycle, &self.state.view()));
                }
            }
        }
        let mut out = Vec::new();
        for op in ops {
            let applied = match op {
                ChurnOp::Fail(c) => self.state.add_fault(c),
                ChurnOp::Repair(c) => self.state.remove_fault(c),
            };
            match applied {
                Ok(view) => {
                    self.applied.push(ChurnEvent { cycle, op });
                    out.push(view);
                }
                Err(e) => {
                    // Rejections are counted, not fatal — but an event
                    // targeting an invalid coordinate is worth a
                    // visible note, with the offending op, under
                    // `MESHPATH_LOG=info`.
                    if meshpath_obs::enabled(meshpath_obs::LogLevel::Info) {
                        eprintln!("[churn] cycle {cycle}: rejected {op:?}: {e}");
                    }
                    self.rejected += 1;
                }
            }
        }
        out
    }

    /// The applied-event log and rejection count, for
    /// [`TrafficStats`](crate::TrafficStats).
    pub(crate) fn into_outcome(self) -> (Vec<ChurnEvent>, u64) {
        (self.applied, self.rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshpath_mesh::{FaultSet, Mesh};

    fn view(side: u32, faulty: &[(i32, i32)]) -> NetView {
        let mesh = Mesh::square(side);
        let coords = faulty.iter().map(|&(x, y)| Coord::new(x, y));
        NetView::build(FaultSet::from_coords(mesh, coords))
    }

    /// The operations one poll applies, off the applied-event log.
    fn applied_by(drv: &mut OnlineDriver, cycle: u64) -> Vec<ChurnOp> {
        let before = drv.applied.len();
        let published = drv.poll(cycle).len();
        let ops: Vec<ChurnOp> = drv.applied[before..].iter().map(|e| e.op).collect();
        assert_eq!(ops.len(), published, "one publication per applied operation");
        ops
    }

    #[test]
    fn injector_queues_and_drains_in_order() {
        let inj = ChurnInjector::new();
        let other = inj.clone();
        inj.fail(Coord::new(1, 2));
        other.repair(Coord::new(3, 4));
        assert_eq!(inj.pending(), 2);
        assert_eq!(
            inj.drain(),
            vec![ChurnOp::Fail(Coord::new(1, 2)), ChurnOp::Repair(Coord::new(3, 4))]
        );
        assert_eq!(other.pending(), 0);
    }

    #[test]
    fn driver_applies_at_quantum_boundaries_only() {
        let inj = ChurnInjector::new();
        let live = OnlineChurn::new(inj.clone()).with_quantum(10);
        let mut drv = OnlineDriver::new(Vec::new(), Some(live), view(4, &[]));
        inj.fail(Coord::new(2, 2));
        assert!(drv.poll(0).is_empty(), "live sources are first polled at the first quantum");
        assert!(drv.poll(7).is_empty(), "off-boundary cycles do not poll");
        assert_eq!(inj.pending(), 1);
        assert_eq!(
            (drv.next_boundary(0), drv.next_boundary(10), drv.next_boundary(11)),
            (10, 10, 20)
        );
        let pubs = drv.poll(10);
        assert_eq!(pubs.len(), 1);
        let v = &pubs[0];
        assert_eq!(v.epoch(), 1);
        assert!(!v.faults().is_healthy(Coord::new(2, 2)));
        let (applied, rejected) = drv.into_outcome();
        assert_eq!(applied, vec![ChurnEvent::fail(10, Coord::new(2, 2))]);
        assert_eq!(rejected, 0);
    }

    #[test]
    fn driver_rejects_invalid_operations_without_panicking() {
        let inj = ChurnInjector::new();
        let live = OnlineChurn::new(inj.clone()).with_quantum(1);
        let mut drv = OnlineDriver::new(Vec::new(), Some(live), view(4, &[(1, 1)]));
        inj.fail(Coord::new(9, 9)); // off-mesh
        inj.fail(Coord::new(1, 1)); // already faulty
        inj.repair(Coord::new(2, 2)); // not faulty
        inj.repair(Coord::new(1, 1)); // valid
        assert_eq!(applied_by(&mut drv, 5), vec![ChurnOp::Repair(Coord::new(1, 1))]);
        let (applied, rejected) = drv.into_outcome();
        assert_eq!(applied.len(), 1);
        assert_eq!(rejected, 3);
    }

    #[test]
    fn listed_events_fire_at_their_cycle_in_config_order_ahead_of_live_sources() {
        let (a, b) = (Coord::new(1, 1), Coord::new(2, 2));
        let listed = vec![
            ChurnEvent::fail(25, b),
            ChurnEvent::fail(0, a),
            ChurnEvent::repair(20, a),
            ChurnEvent::fail(20, a),
            ChurnEvent::fail(20, Coord::new(7, 7)), // off-mesh: rejected, not fatal
        ];
        let inj = ChurnInjector::new();
        let live = OnlineChurn::new(inj.clone()).with_quantum(10);
        let mut drv = OnlineDriver::new(listed, Some(live), view(4, &[]));
        // Listed cycles are boundaries beside the quantum multiples —
        // cycle 0 included.
        assert_eq!(drv.next_boundary(0), 0);
        assert_eq!(applied_by(&mut drv, 0), vec![ChurnOp::Fail(a)]);
        assert_eq!((drv.next_boundary(1), drv.next_boundary(11)), (10, 20));
        // Same cycle: the list in config order, then the injector.
        inj.repair(a);
        assert_eq!(
            applied_by(&mut drv, 20),
            vec![ChurnOp::Repair(a), ChurnOp::Fail(a), ChurnOp::Repair(a)]
        );
        assert_eq!(drv.next_boundary(21), 25, "a listed cycle between quantum multiples");
        assert_eq!(applied_by(&mut drv, 25), vec![ChurnOp::Fail(b)]);
        assert_eq!(drv.next_boundary(26), 30, "the list is exhausted; the quantum remains");
        let (applied, rejected) = drv.into_outcome();
        assert_eq!(applied.iter().map(|e| e.cycle).collect::<Vec<_>>(), vec![0, 20, 20, 20, 25]);
        assert_eq!(rejected, 1);
        // A list-only driver has no boundary past its last event, so
        // leases run unclamped from there.
        let mut list_only = OnlineDriver::new(vec![ChurnEvent::fail(5, a)], None, view(4, &[]));
        assert_eq!(list_only.next_boundary(0), 5);
        assert_eq!(list_only.poll(5).len(), 1);
        assert_eq!(list_only.next_boundary(6), u64::MAX);
    }

    #[test]
    fn chaos_draw_is_deterministic_and_windowed() {
        let chaos = ChaosConfig {
            seed: 11,
            fail_prob: 1.0,
            repair_prob: 1.0,
            start: 20,
            stop: 50,
            max_faults: 4,
        };
        let v = view(6, &[(3, 3)]);
        assert!(chaos.draw(10, &v).is_empty(), "before the window");
        assert!(chaos.draw(50, &v).is_empty(), "stop is exclusive");
        let a = chaos.draw(30, &v);
        let b = chaos.draw(30, &v);
        assert_eq!(a, b, "same (seed, cycle, faults) must draw identically");
        assert_eq!(a.len(), 2, "prob-1.0 draws one fail and one repair");
        assert!(matches!(a[0], ChurnOp::Fail(c) if v.faults().is_healthy(c)));
        assert_eq!(a[1], ChurnOp::Repair(Coord::new(3, 3)));
        let other = chaos.draw(31, &v);
        assert_ne!(a, other, "distinct cycles draw distinct streams");
    }

    #[test]
    fn chaos_respects_fault_cap_and_never_empties_the_mesh() {
        let chaos = ChaosConfig {
            fail_prob: 1.0,
            repair_prob: 0.0,
            max_faults: 1,
            ..ChaosConfig::default()
        };
        let capped = view(4, &[(0, 0)]);
        assert!(chaos.draw(8, &capped).is_empty(), "at the cap: no failure drawn");

        let chaos = ChaosConfig { fail_prob: 1.0, repair_prob: 0.0, ..ChaosConfig::default() };
        let mesh = Mesh::square(2);
        let last = view(2, &[(0, 1), (1, 0), (1, 1)]);
        assert_eq!(last.faults().healthy_count(), 1);
        assert_eq!(mesh.len(), 4);
        assert!(chaos.draw(8, &last).is_empty(), "one healthy node left: no failure drawn");
    }
}
