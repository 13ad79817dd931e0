//! What every workload shares: the run context, network set-up with its
//! layer breakdown, the oracle checks on returned paths, and the
//! outcome a workload hands back to `main`.

use std::collections::BTreeMap;

use meshpath::fault::{BlockSet, BorderPolicy, MccSet};
use meshpath::info::{BoundarySet, InfoModel, ModelKind};
use meshpath::prelude::*;

use crate::inputs::draw_faults;
use crate::json::Json;
use crate::span::{Layer, SpanId, Tracer};
use crate::stats::{median, percentile, sorted};

/// Networks per run, unless the workload says otherwise. A run cycles its
/// measured work over all of them, so one unlucky fault draw cannot own a
/// run's numbers.
pub const INSTANCES: usize = 3;

/// Set-ups timed per run: the instances' own before the measured work;
/// then one more every `1/SETUP_ROUNDS` of the run, between two slices
/// of measured work, as long as they have taken no more than
/// `SETUP_SHARE` of the run so far (`svc_warm`, whose set-up warms 16384
/// pairs for a second, gets one) — timed and dropped, so that they leave
/// nothing in the peak resident set; then more after it until there are
/// `MIN_SETUPS` and they have taken `SETUP_BUDGET_S` together. The host
/// is slow for tens of seconds at a time, so a handful of set-ups taken
/// back to back reads fast or slow as one; taken across the run, a
/// quarter of them meet the host quiet. `setup_s` is their lower
/// quartile (see [`quiet_setup_s`]).
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_ROUNDS: f64 = 40.0;
const SETUP_SHARE: f64 = 0.05;

/// One run's parameters and recorders.
pub struct Ctx {
    pub seed: u64,
    /// Measured duration (`--seconds`).
    pub seconds: f64,
    pub traced: bool,
    /// `--check`: toy sizes, names only — the numbers mean nothing.
    pub toy: bool,
    pub tracer: Tracer,
    /// Set-up breakdown per instance (traced runs only).
    pub breakdowns: Vec<Breakdown>,
    /// Peak resident set at the workload's fixed-work mark.
    pub rss_mark_mb: Option<f64>,
}

impl Ctx {
    /// Reads the peak resident set, the first time it is called. Each
    /// workload calls it after a *fixed amount of work* (one pass or
    /// repetition per instance, 30 cold turns): a time-bounded loop
    /// allocates with every operation, so its peak at the end would grow
    /// with the host's speed.
    pub fn mark_rss(&mut self) {
        self.rss_mark_mb.get_or_insert_with(peak_rss_mb);
    }

    /// Whether a set-up is to be timed now, `elapsed_s` into the measured
    /// work (and once the peak resident set has been read): one is due
    /// every `1/SETUP_ROUNDS` of the run, while those timed inside the run
    /// and this one keep within `SETUP_SHARE` of it.
    pub fn setup_due(&self, setup_s: &[f64], instances: usize, elapsed_s: f64) -> bool {
        let in_run = &setup_s[instances.min(setup_s.len())..];
        let spent: f64 = in_run.iter().sum();
        !self.toy
            && self.rss_mark_mb.is_some()
            && (in_run.len() as f64) < elapsed_s * SETUP_ROUNDS / self.seconds
            && spent + median(setup_s) <= SETUP_SHARE * elapsed_s
    }

    /// Whether another set-up is to be timed after the measured work,
    /// given the times so far.
    pub fn more_setups(&self, setup_s: &[f64]) -> bool {
        let n = setup_s.len();
        n < MIN_SETUPS
            || (!self.toy && n < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    }

    /// `full` normally, `toy` under `--check`.
    pub fn size(&self, full: usize, toy: usize) -> usize {
        if self.toy {
            toy
        } else {
            full
        }
    }
}

/// `NetView::build` split into its `fault` and `info` children by
/// replaying them on the identical fault set (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    pub fault_draw_s: f64,
    pub net_build_s: f64,
    pub mcc_s: f64,
    pub blocks_s: f64,
    pub bounds_s: f64,
    pub model_s: [f64; 3],
    pub mcc_count: usize,
    pub involved_pct_b2: f64,
}

impl Breakdown {
    pub fn fault_s(&self) -> f64 {
        self.mcc_s + self.blocks_s
    }

    pub fn info_s(&self) -> f64 {
        self.bounds_s + self.model_s.iter().sum::<f64>()
    }
}

/// Draws `n_faults` uniform faults from `fault_seed` (see
/// [`connected_fault_seed`](crate::inputs::connected_fault_seed)) and analyses them,
/// as spans under `root`. A traced run then replays `NetView::build`'s
/// children — `MccSet::build`, `BoundarySet::build`,
/// `InfoModel::build_with`, `BlockSet::build` — on the same fault set,
/// because their nesting is invisible from outside. Returns the view
/// and the seconds the two set-up calls took.
pub fn build_net(
    ctx: &mut Ctx,
    root: SpanId,
    op: u64,
    mesh: Mesh,
    n_faults: usize,
    fault_seed: u64,
) -> (NetView, f64) {
    let t = &mut ctx.tracer;
    let (faults, fault_draw_s) = t
        .time("mesh.fault_draw", Layer::Mesh, root, op, || draw_faults(mesh, n_faults, fault_seed));
    let copy = faults.clone();
    let (view, net_build_s) =
        t.time("route.net_build", Layer::Route, root, op, || NetView::build(copy));
    let stack_s = fault_draw_s + net_build_s;
    if !ctx.traced {
        return (view, stack_s);
    }
    let mut b = Breakdown { fault_draw_s, net_build_s, ..Breakdown::default() };
    for o in Orientation::ALL {
        let (set, s) = t.time_replay("fault.mcc_build", Layer::Fault, root, op, || {
            MccSet::build(&faults, o, BorderPolicy::Open)
        });
        b.mcc_s += s;
        b.mcc_count += set.len();
        let (bounds, s) =
            t.time_replay("info.bounds_build", Layer::Info, root, op, || BoundarySet::build(&set));
        b.bounds_s += s;
        for (k, kind) in ModelKind::ALL.into_iter().enumerate() {
            let name = ["info.model_build.b1", "info.model_build.b2", "info.model_build.b3"][k];
            let (model, s) = t.time_replay(name, Layer::Info, root, op, || {
                InfoModel::build_with(&set, &bounds, kind)
            });
            b.model_s[k] += s;
            if kind == ModelKind::B2 {
                b.involved_pct_b2 += model.stats().involved_pct() / 4.0;
            }
        }
    }
    let (_, s) =
        t.time_replay("fault.blocks_build", Layer::Fault, root, op, || BlockSet::build(&faults));
    b.blocks_s = s;
    ctx.breakdowns.push(b);
    (view, stack_s)
}

/// The set-up metrics of a traced run: medians over the instances.
pub fn breakdown_metrics(bs: &[Breakdown], out: &mut BTreeMap<&'static str, f64>) {
    let med = |f: &dyn Fn(&Breakdown) -> f64| median(&bs.iter().map(f).collect::<Vec<_>>());
    out.insert("mesh.fault_draw_ms", med(&|b| b.fault_draw_s * 1e3));
    out.insert("fault.mcc_build_ms", med(&|b| b.mcc_s * 1e3));
    out.insert("fault.blocks_build_ms", med(&|b| b.blocks_s * 1e3));
    out.insert("fault.mcc_count", med(&|b| b.mcc_count as f64));
    out.insert("info.bounds_build_ms", med(&|b| b.bounds_s * 1e3));
    out.insert("info.model_build_ms.b1", med(&|b| b.model_s[0] * 1e3));
    out.insert("info.model_build_ms.b2", med(&|b| b.model_s[1] * 1e3));
    out.insert("info.model_build_ms.b3", med(&|b| b.model_s[2] * 1e3));
    out.insert("info.build_share_pct", med(&|b| 100.0 * b.info_s() / b.net_build_s));
    out.insert("info.involved_pct.b2", med(&|b| b.involved_pct_b2));
    out.insert("route.net_build_ms", med(&|b| b.net_build_s * 1e3));
    out.insert(
        "route.net_build_self_ms",
        med(&|b| (b.net_build_s - b.fault_s() - b.info_s()).max(0.0) * 1e3),
    );
}

/// The `(from, to, seconds)` transfers that move the replayed `fault`
/// and `info` time out of the opaque `NetView::build` calls.
pub fn breakdown_transfers(bs: &[Breakdown]) -> Vec<(Layer, Layer, f64)> {
    bs.iter()
        .flat_map(|b| {
            [(Layer::Route, Layer::Fault, b.fault_s()), (Layer::Route, Layer::Info, b.info_s())]
        })
        .collect()
}

/// Operations attempted and failed, and correctness violations.
///
/// A *failure* is a legal shortfall — a refused query, an undelivered
/// measured packet, an aborted flow — and is only counted. A
/// *violation* is a wrong output (an invalid path, a cached reply that
/// differs from the router, simulated statistics that do not repeat);
/// any violation fails the command.
#[derive(Default, Debug)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Verdict {
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }

    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation(what());
        }
    }
}

/// What a workload measured.
pub struct Outcome {
    pub verdict: Verdict,
    /// One set-up time per instance (seconds).
    pub setup_s: Vec<f64>,
    /// Completed units of work per host second, one value per slice of
    /// the run (see [`quiet_rate`]).
    pub throughput_slices: Vec<Slice>,
    /// Median host time of the workload's operation within each slice
    /// (µs; see [`quiet_latency`]).
    pub latency_slices_us: Vec<Slice>,
    /// Every host-time sample of the operation (µs), for the output
    /// document's median / tail percentile / sample count.
    pub latency_us: Vec<f64>,
    /// Host-independent cost of the work done (repeats exactly per seed).
    pub model_cost: f64,
    /// Repetitions (sims) or measured slices (services) completed.
    pub repetitions: u64,
    /// The workload-specific per-layer metrics of a traced run.
    pub layer: BTreeMap<&'static str, f64>,
    /// Replay transfers for the span attribution (traced runs).
    pub transfers: Vec<(Layer, Layer, f64)>,
    /// The workload's full configuration, for the manifest.
    pub config: Json,
    /// Anything else worth keeping in the output document.
    pub detail: Json,
}

/// One slice of a run: the instance (fault draw) it ran on and its
/// value — a rate, or a median latency.
pub type Slice = (usize, f64);

/// Per instance, the `pct`-th percentile of its slices; then the mean
/// over the instances.
fn per_instance(slices: &[Slice], pct: f64) -> f64 {
    let mut by_instance: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(instance, value) in slices {
        by_instance.entry(instance).or_default().push(value);
    }
    let quiet: Vec<f64> = by_instance.into_values().map(|v| percentile(&sorted(v), pct)).collect();
    quiet.iter().sum::<f64>() / quiet.len().max(1) as f64
}

/// The run's throughput from its slices: per instance the upper decile,
/// then the mean over instances.
///
/// Noise on a shared host comes in stretches — for seconds to tens of
/// seconds everything runs 1.3-1.8x slower, a fifth to a half of the time
/// — so a run's plain mean or median flips between two modes from one
/// run to the next (spreads of 30-60 % on an unchanged program). A run is
/// therefore cut into slices far shorter than a stretch, its instances
/// take their slices in turn from its first second to its last, and an
/// instance's rate is the one the quietest tenth of its slices reach or
/// exceed: steady as long as a tenth of the run is undisturbed. (With
/// fewer than ten slices — simulation repetitions — that is the best
/// slice.) Instances differ by their fault draw, so they are summarised
/// apart and averaged; pooling them would report the luckiest draw.
pub fn quiet_rate(slices: &[Slice]) -> f64 {
    per_instance(slices, 90.0)
}

/// The run's latency from its slices' medians: per instance the lower
/// decile — the median operation of the quietest tenth of the run, see
/// [`quiet_rate`] — then the mean over instances.
pub fn quiet_latency(slice_medians: &[Slice]) -> f64 {
    per_instance(slice_medians, 10.0)
}

/// The run's set-up time from its timed set-ups: their lower quartile,
/// the time a set-up takes while the host is quiet (the median of the
/// quieter half). The set-ups are spread across the run, so this holds
/// as long as a quarter of the run is undisturbed.
pub fn quiet_setup_s(setup_s: &[f64]) -> f64 {
    percentile(&sorted(setup_s.to_vec()), 25.0)
}

/// Checks a sample of routes against the oracles: each must be a valid
/// walk, delivered, no shorter than the BFS distance, and — when the
/// reply came from a `RouteService` — equal to a bare `Router::route` on
/// the same snapshot. `route` returns `None` for a legally refused
/// query, which the caller has already counted.
pub fn check_routes(
    verdict: &mut Verdict,
    what: &str,
    view: &NetView,
    kind: RoutingKind,
    sample: &[(Coord, Coord)],
    mut route: impl FnMut(Coord, Coord) -> Option<RouteResult>,
) {
    let router = kind.router();
    for &(s, d) in sample {
        let Some(got) = route(s, d) else { continue };
        if let Err(why) = validate_path(view, s, d, &got) {
            verdict.violation(format!("{what}: {s:?}->{d:?} invalid path: {why}"));
        }
        let bare = router.route(view, s, d);
        verdict.require(got == bare, || {
            format!("{what}: {s:?}->{d:?} differs from a bare {} route", kind.name())
        });
        if got.delivered {
            let best = DistanceField::healthy(view.faults(), d).dist(s);
            verdict.require(got.hops() >= best, || {
                format!("{what}: {s:?}->{d:?} took {} hops, BFS needs {best}", got.hops())
            });
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    // Never report 0: fall back to a page so a missing /proc shows as
    // an implausible value rather than dividing a bound by zero.
    kb.map_or(4.0 / 1024.0, |kb| kb / 1024.0)
}
