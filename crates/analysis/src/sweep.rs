//! The fault-count sweep: workload generation and parallel execution.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use meshpath_fault::stats::{stats_of, FaultConfigStats};
use meshpath_info::{ModelKind, PropagationStats};
use meshpath_mesh::{Coord, FaultInjection, FaultSet, Mesh, Orientation};
use meshpath_route::oracle::DistanceField;
use meshpath_route::{ECube, HopState, NetView, Rb1, Rb2, Rb3, Router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one sweep (defaults reproduce the paper's setup at a
/// laptop-friendly number of repetitions).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Mesh side length (the paper: 100).
    pub mesh: u32,
    /// Fault counts to evaluate (the paper: 0..=3000), placed uniformly
    /// at random.
    pub fault_counts: Vec<usize>,
    /// Random fault configurations per fault count.
    pub configs_per_point: usize,
    /// Source/destination pairs routed per configuration.
    pub pairs_per_config: usize,
    /// Base RNG seed; every (fault count, configuration) derives its own
    /// stream, so results are reproducible and order-independent.
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            mesh: 100,
            fault_counts: (0..=3000).step_by(250).collect(),
            configs_per_point: 10,
            pairs_per_config: 50,
            seed: 0x2007_0325,
            threads: 0,
        }
    }
}

impl SweepConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        SweepConfig {
            mesh: 30,
            fault_counts: vec![0, 60, 120, 180],
            configs_per_point: 3,
            pairs_per_config: 12,
            ..Default::default()
        }
    }
}

/// Routing aggregate for one router over one configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RouterAgg {
    /// Pairs attempted.
    pub pairs: u32,
    /// Pairs delivered within budget.
    pub delivered: u32,
    /// Pairs delivered at exactly the BFS-optimal length.
    pub shortest: u32,
    /// Sum of achieved path lengths (delivered pairs).
    pub sum_len: u64,
    /// Sum of optimal lengths (delivered pairs).
    pub sum_opt: u64,
    /// Sum of per-pair relative errors `(len - opt) / opt`.
    pub sum_rel_err: f64,
    /// Total BFS-fallback plans used (RB2/RB3 instrumentation).
    pub fallbacks: u32,
}

impl RouterAgg {
    /// Percentage of pairs routed along a true shortest path.
    pub(crate) fn shortest_pct(&self) -> f64 {
        if self.pairs == 0 {
            100.0
        } else {
            100.0 * self.shortest as f64 / self.pairs as f64
        }
    }

    /// Mean relative error over delivered pairs; `None` without one.
    pub(crate) fn rel_err(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.sum_rel_err / self.delivered as f64)
    }

    /// Merges another aggregate into this one.
    pub(crate) fn merge(&mut self, other: &RouterAgg) {
        self.pairs += other.pairs;
        self.delivered += other.delivered;
        self.shortest += other.shortest;
        self.sum_len += other.sum_len;
        self.sum_opt += other.sum_opt;
        self.sum_rel_err += other.sum_rel_err;
        self.fallbacks += other.fallbacks;
    }
}

/// Everything measured on one fault configuration.
#[derive(Clone, Debug)]
pub struct ConfigRecord {
    /// Number of injected faults.
    pub faults: usize,
    /// Fig. 5(a)/(b) statistics (identity orientation).
    pub fault_stats: FaultConfigStats,
    /// Fig. 5(c): propagation cost per model, averaged over the four
    /// orientations (the model is built per routing quadrant).
    pub prop: [PropagationStats; 3],
    /// Fig. 5(d)/(e): routing aggregates for `[E-cube, RB1, RB2, RB3]`.
    pub routing: [RouterAgg; 4],
}

/// The full sweep outcome: one record per (fault count, configuration).
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The configuration that produced this result.
    pub config: SweepConfig,
    /// Records grouped by fault count (same order as
    /// `config.fault_counts`), one inner entry per configuration.
    pub records: Vec<Vec<ConfigRecord>>,
}

impl SweepResult {
    /// Iterator over `(fault_count, records-at-that-count)`.
    pub(crate) fn by_count(&self) -> impl Iterator<Item = (usize, &[ConfigRecord])> {
        self.config.fault_counts.iter().copied().zip(self.records.iter().map(|v| v.as_slice()))
    }
}

/// SplitMix64 per-task seed derivation (the workspace-wide canonical
/// mixer lives in `meshpath_mesh::derive_seed`).
pub(crate) use meshpath_mesh::derive_seed;

/// Runs one configuration: builds the network, measures fault and
/// propagation statistics, and routes `pairs` random pairs per router.
pub(crate) fn run_config(mesh: Mesh, faults: FaultSet, pairs: usize, seed: u64) -> ConfigRecord {
    let fault_count = faults.count();
    let net = NetView::build(faults);
    let fault_stats = stats_of(net.faults(), net.mccs(Orientation::IDENTITY));

    // Propagation cost per model, averaged over orientations.
    let mut prop = [PropagationStats::default(); 3];
    for (k, kind) in ModelKind::ALL.into_iter().enumerate() {
        let mut acc = PropagationStats::default();
        for o in Orientation::ALL {
            let s = net.model(o, kind).stats();
            acc.involved_nodes += s.involved_nodes;
            acc.safe_nodes += s.safe_nodes;
            acc.messages += s.messages;
            acc.per_mcc_max += s.per_mcc_max;
            acc.per_mcc_avg += s.per_mcc_avg;
        }
        prop[k] = PropagationStats {
            involved_nodes: acc.involved_nodes / 4,
            safe_nodes: acc.safe_nodes / 4,
            messages: acc.messages / 4,
            per_mcc_max: acc.per_mcc_max / 4,
            per_mcc_avg: acc.per_mcc_avg / 4.0,
        };
    }

    // Routing pairs.
    let mut rng = StdRng::seed_from_u64(seed);
    let routers: [&dyn Router; 4] = [&ECube, &Rb1::default(), &Rb2::default(), &Rb3::default()];
    let mut routing = [RouterAgg::default(); 4];

    let n = mesh.width() as i32;
    let safe_for = |c: Coord, s: Coord, d: Coord| {
        let o = Orientation::normalizing(s, d);
        net.mccs(o).labeling().status_real(c).is_safe()
    };

    let mut routed = 0usize;
    let mut attempts = 0usize;
    let max_attempts = pairs * 400;
    // One scratch for every route of the configuration: its tables are
    // sized to the mesh once.
    let mut scratch = HopState::default();
    while routed < pairs && attempts < max_attempts {
        attempts += 1;
        let s = Coord::new(rng.gen_range(0..n), rng.gen_range(0..mesh.height() as i32));
        let d = Coord::new(rng.gen_range(0..n), rng.gen_range(0..mesh.height() as i32));
        if s == d || !safe_for(s, s, d) || !safe_for(d, s, d) {
            continue;
        }
        let field = DistanceField::healthy(net.faults(), d);
        if !field.reachable(s) {
            continue; // the paper only routes connected pairs
        }
        let opt = field.dist(s);
        routed += 1;
        for (agg, router) in routing.iter_mut().zip(routers.iter()) {
            let res = router.route_with(&net, s, d, &mut scratch);
            agg.pairs += 1;
            agg.fallbacks += res.fallbacks;
            if res.delivered {
                agg.delivered += 1;
                agg.sum_len += u64::from(res.hops());
                agg.sum_opt += u64::from(opt);
                if res.hops() == opt {
                    agg.shortest += 1;
                }
                if opt > 0 {
                    agg.sum_rel_err += (f64::from(res.hops()) - f64::from(opt)) / f64::from(opt);
                }
            }
        }
    }

    ConfigRecord { faults: fault_count, fault_stats, prop, routing }
}

/// Runs `work` on every task over a scoped pool of `threads` workers
/// (0 = all available cores) and returns the results in task order.
/// Workers claim tasks by bumping a shared index into the list, so the
/// schedule never changes what a task computes.
pub(crate) fn pool_map<T: Sync, R: Send>(
    threads: usize,
    tasks: &[T],
    work: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4)
    } else {
        threads
    };
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break mine };
                        mine.push((i, work(task)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Executes the sweep: every (fault count, configuration) task runs on a
/// scoped worker pool; results are deterministic for a given seed.
pub fn run_sweep(config: &SweepConfig) -> SweepResult {
    let mesh = Mesh::square(config.mesh);
    // Task list: (point index, config index, fault count).
    let tasks: Vec<(usize, usize, usize)> = config
        .fault_counts
        .iter()
        .enumerate()
        .flat_map(|(pi, &fc)| (0..config.configs_per_point).map(move |ci| (pi, ci, fc)))
        .collect();
    let mut records = pool_map(config.threads, &tasks, |&(pi, ci, fc)| {
        let seed = derive_seed(config.seed, pi as u64, ci as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let faults = FaultSet::random(mesh, fc, FaultInjection::Uniform, &mut rng);
        run_config(mesh, faults, config.pairs_per_config, derive_seed(seed, 7, 13))
    })
    .into_iter();
    let records = config
        .fault_counts
        .iter()
        .map(|_| records.by_ref().take(config.configs_per_point).collect())
        .collect();
    SweepResult { config: config.clone(), records }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_deterministic_and_complete() {
        let cfg = SweepConfig { threads: 2, ..SweepConfig::smoke() };
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a.records.len(), cfg.fault_counts.len());
        for (i, row) in a.records.iter().enumerate() {
            assert_eq!(row.len(), cfg.configs_per_point);
            for (j, rec) in row.iter().enumerate() {
                assert_eq!(rec.faults, cfg.fault_counts[i]);
                // Determinism across runs (parallel scheduling must not
                // change results).
                assert_eq!(rec.fault_stats, b.records[i][j].fault_stats);
                assert_eq!(rec.routing, b.records[i][j].routing);
            }
        }
    }

    #[test]
    fn zero_fault_point_routes_perfectly() {
        let cfg = SweepConfig {
            mesh: 16,
            fault_counts: vec![0],
            configs_per_point: 1,
            pairs_per_config: 10,
            threads: 1,
            ..Default::default()
        };
        let res = run_sweep(&cfg);
        let rec = &res.records[0][0];
        assert_eq!(rec.fault_stats.disabled, 0);
        assert_eq!(rec.fault_stats.mcc_count, 0);
        for agg in &rec.routing {
            assert_eq!(agg.pairs, 10);
            assert_eq!(agg.shortest, 10);
            assert_eq!(agg.rel_err(), Some(0.0));
            assert_eq!(agg.shortest_pct(), 100.0);
        }
        for p in &rec.prop {
            assert_eq!(p.involved_nodes, 0);
        }
    }

    #[test]
    fn router_agg_merge() {
        let mut a = RouterAgg { pairs: 2, delivered: 2, shortest: 1, ..Default::default() };
        let b = RouterAgg { pairs: 3, delivered: 2, shortest: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.pairs, 5);
        assert_eq!(a.shortest, 3);
    }

    #[test]
    fn derive_seed_spreads() {
        let s = derive_seed(42, 1, 2);
        assert_ne!(s, derive_seed(42, 2, 1));
        assert_ne!(s, derive_seed(43, 1, 2));
        assert_eq!(s, derive_seed(42, 1, 2));
    }
}
