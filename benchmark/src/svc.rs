//! The three `RouteService` workloads. All share one network class —
//! 64x64, 204 uniform faults (5 %), RB2, the default route cache — and
//! differ in how much work queries share:
//!
//! * `svc_warm`: a pre-warmed hot set, so the cache/RCU read path does
//!   all the work and `route`/`info`/`fault` do none;
//! * `svc_cold`: every pair is new and the stream outgrows the cache,
//!   so `route` + `info` lookups do nearly all the work;
//! * `svc_churn`: a hot set read beside an open-loop writer, so
//!   per-epoch invalidation, publish cost and the `fault` -> `info`
//!   rebuild all show, on both the reader's and the writer's side.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use meshpath::fault::BorderPolicy;
use meshpath::info::{InfoModel, ModelKind};
use meshpath::prelude::*;

use crate::common::{
    breakdown_transfers, build_net, check_routes, quiet_rate, Ctx, Outcome, Slice, Verdict,
    INSTANCES,
};
use crate::inputs::{connected_fault_seed, main_component, pairs, rng, stream, toggle_nodes};
use crate::json::Json;
use crate::manifest::host_cores;
use crate::span::{Layer, SpanId, NO_PARENT};
use crate::stats::{median, Timing};

const SIDE: u32 = 64;
const FAULTS: usize = 204;
const KIND: RoutingKind = RoutingKind::Rb2;
/// Pairs checked against the oracles after the measured loop.
const CHECK_SAMPLE: usize = 512;
/// Pairs per instance replayed on a bare `Router::route` to split a
/// service miss (the mean of a heavy-tailed cost: with fewer than some ten
/// thousand in all, the replay misses the calls it splits by more than
/// the 10 % the attribution allows).
const REPLAY_SAMPLE: usize = 4096;

/// svc_warm: hot-set size and calls per latency sample (a cache hit is
/// ~150 ns, below what one clock read can resolve).
const WARM_PAIRS: usize = 16384;
const WARM_BATCH: usize = 256;
/// svc_cold: networks per run and calls per turn. The cost of a cold
/// route moves ~17 % from one fault draw to the next — a slow stretch of
/// the host moves a run by 3 % — so twenty-four draws take turns. Each
/// turn's pairs are drawn as it starts: uniform over ~15 M ordered pairs,
/// so a repeat (a hit) is one call in a thousand. A traced run replays
/// `COLD_REPLAY` further pairs per instance on the bare router.
const COLD_INSTANCES: usize = 24;
const COLD_TURN: usize = 1024;
const COLD_REPLAY: usize = 512;
/// svc_cold reads its peak memory after this many turns: the caches grow
/// with every call, so the peak at the *end* would measure the host's
/// speed.
const COLD_RSS_TURNS: u64 = 30;
/// svc_churn: hot-set size, reader calls per latency sample, the
/// writer's open-loop period (10 updates/s) and its toggle nodes. Every
/// publish empties the cache, so the reader re-serves the hot set cold
/// (~35 ms of each 100 ms period today) and reads hits for the rest: a
/// third misses, two thirds hits by time. A hot set the reader cannot
/// re-warm within a period would make this svc_cold with a writer.
const CHURN_PAIRS: usize = 512;
const CHURN_BATCH: usize = 128;
const CHURN_PERIOD_MS: usize = 100;
const CHURN_TOGGLES: usize = 16;
/// Updates per round. The instances take rounds in turn for as long as
/// the run lasts, so that a stretch of host noise — they last tens of
/// seconds — falls on every instance alike and each keeps quiet rounds
/// from elsewhere in the run. Even, so a round ends on the fault set it
/// began with.
const ROUND_UPDATES: usize = 10;
/// Consecutive updates whose median is one latency slice.
const UPDATES_PER_SLICE: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Warm,
    Cold,
    Churn,
}

struct Instance {
    view: NetView,
    service: RouteService,
    component: Vec<Coord>,
    /// The hot set (svc_cold: the pairs a traced run replays; its measured
    /// pairs come from `stream`).
    pairs: Vec<(Coord, Coord)>,
    /// svc_cold: where the turns' pairs come from.
    stream: StdRng,
    /// svc_churn: the nodes the writer fails and repairs.
    toggles: Vec<Coord>,
}

/// Sets one instance up: fault draw, `NetView::build`, service
/// construction, input generation and (warm, churn) the warm-up pass.
/// Returns the instance and the time the *stack* spent — input
/// generation is the harness's own and is not set-up time.
fn set_up(
    ctx: &mut Ctx,
    mode: Mode,
    index: usize,
    n_pairs: usize,
    parent: SpanId,
) -> (Instance, f64) {
    let op = index as u64;
    let root = ctx.tracer.open("setup", Layer::Harness, parent, op);
    let fault_seed = connected_fault_seed(Mesh::square(SIDE), FAULTS, ctx.seed, op);
    let (view, mut stack_s) = build_net(ctx, root, op, Mesh::square(SIDE), FAULTS, fault_seed);
    let traced = ctx.traced;
    let t = &mut ctx.tracer;
    let (service, adopt_s) = t.time("meshpath.adopt", Layer::Meshpath, root, op, || {
        let s = RouteService::adopt(view.clone(), KIND);
        if traced {
            s.with_metrics()
        } else {
            s
        }
    });
    stack_s += adopt_s;
    let ((component, pairs, toggles), _) =
        t.time("harness.inputs", Layer::Harness, root, op, || {
            let component = main_component(view.faults());
            let ps = pairs(
                &component,
                n_pairs,
                mode != Mode::Cold,
                &mut rng(ctx.seed, stream::PAIRS, op),
            );
            let toggles = if mode == Mode::Churn {
                let mut trng = rng(ctx.seed, stream::TOGGLES, op);
                toggle_nodes(view.faults(), &component, &ps, CHURN_TOGGLES, &mut trng)
            } else {
                Vec::new()
            };
            (component, ps, toggles)
        });
    if mode != Mode::Cold {
        let start = Instant::now();
        for &(s, d) in &pairs {
            black_box(service.route(s, d).is_ok());
        }
        let end = Instant::now();
        t.record("meshpath.warmup", Layer::Meshpath, root, op, pairs.len() as u64, start, end);
        stack_s += (end - start).as_secs_f64();
    }
    t.close(root);
    let stream = rng(ctx.seed, stream::COLD, op);
    (Instance { view, service, component, pairs, stream, toggles }, stack_s)
}

/// What one measured loop accumulates.
#[derive(Default)]
struct Tally {
    calls: u64,
    failed: u64,
    hops: u64,
    /// Per-call host time of each batch (µs).
    batch_us: Vec<f64>,
    /// Calls per second, and the median batch latency, of each slice (a
    /// pass, a turn, a writer period): see `common::quiet_rate`.
    slice_qps: Vec<Slice>,
    slice_p50_us: Vec<Slice>,
    /// Where the open slice's batches start in `batch_us`.
    slice_from: usize,
}

impl Tally {
    /// Routes `chunk` as one timed batch.
    #[inline]
    fn batch(&mut self, service: &RouteService, chunk: &[(Coord, Coord)]) -> (Instant, Instant) {
        let start = Instant::now();
        for &(s, d) in chunk {
            match black_box(service.route(s, d)) {
                Ok(reply) => self.hops += u64::from(reply.hops()),
                Err(_) => self.failed += 1,
            }
        }
        let end = Instant::now();
        self.calls += chunk.len() as u64;
        self.batch_us.push((end - start).as_secs_f64() * 1e6 / chunk.len() as f64);
        (start, end)
    }

    /// Closes a slice of `calls` calls: its rate, and the median of the
    /// batches timed since the last slice closed.
    fn slice(&mut self, instance: usize, calls: usize, start: Instant, end: Instant) {
        self.slice_qps.push((instance, calls as f64 / (end - start).as_secs_f64()));
        if self.slice_from < self.batch_us.len() {
            self.slice_p50_us.push((instance, median(&self.batch_us[self.slice_from..])));
        }
        self.slice_from = self.batch_us.len();
    }
}

/// Mean seconds of one bare `Router::route` over a sample of `pairs` on
/// `view`: the `route`-layer child of a service miss, replayed.
fn replay_bare_route(ctx: &mut Ctx, view: &NetView, pairs: &[(Coord, Coord)], op: u64) -> f64 {
    let router = KIND.router();
    let sample = &pairs[..pairs.len().min(ctx.size(REPLAY_SAMPLE, 64))];
    let (_, s) = ctx.tracer.time_replay("route.route", Layer::Route, NO_PARENT, op, || {
        for &(s, d) in sample {
            black_box(router.route(view, s, d).delivered);
        }
    });
    s / sample.len() as f64
}

pub fn run(ctx: &mut Ctx, mode: Mode) -> Outcome {
    let n_pairs = match mode {
        Mode::Warm => ctx.size(WARM_PAIRS, 1024),
        Mode::Cold => ctx.size(COLD_REPLAY, 64),
        Mode::Churn => ctx.size(CHURN_PAIRS, 128),
    };
    let n_instances =
        if mode == Mode::Cold { ctx.size(COLD_INSTANCES, INSTANCES) } else { INSTANCES };
    let mut instances = Vec::new();
    let mut setup_s = Vec::new();
    for i in 0..n_instances {
        let (inst, s) = set_up(ctx, mode, i, n_pairs, NO_PARENT);
        instances.push(inst);
        setup_s.push(s);
    }

    let mut verdict = Verdict::default();
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut detail = Json::obj();
    let root = ctx.tracer.open("measure", Layer::Harness, NO_PARENT, 0);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut tally = Tally::default();
    let repetitions: u64;
    let mut churn: Option<ChurnLog> = None;

    match mode {
        Mode::Warm => {
            // Closed loop, one thread: pass after pass over each
            // instance's hot set until the time is up.
            let mut passes = 0u64;
            'run: loop {
                for (i, inst) in instances.iter().enumerate() {
                    let pass_start = Instant::now();
                    for chunk in inst.pairs.chunks(WARM_BATCH) {
                        tally.batch(&inst.service, chunk);
                    }
                    let pass_end = Instant::now();
                    tally.slice(i, inst.pairs.len(), pass_start, pass_end);
                    ctx.tracer.record(
                        "meshpath.route",
                        Layer::Meshpath,
                        root,
                        passes,
                        inst.pairs.len() as u64,
                        pass_start,
                        pass_end,
                    );
                    passes += 1;
                    if passes == n_instances as u64 {
                        ctx.mark_rss();
                    }
                    if started.elapsed() >= budget {
                        break 'run;
                    }
                }
                if ctx.setup_due(&setup_s, n_instances, started.elapsed().as_secs_f64()) {
                    setup_s.push(set_up(ctx, mode, setup_s.len(), n_pairs, root).1);
                }
            }
            repetitions = passes;
        }
        Mode::Cold => {
            // Closed loop, one thread, every call timed on its own
            // (~60 µs each, far above the clock's cost); instances take
            // turns so no single fault draw owns the run.
            let turn = ctx.size(COLD_TURN, 64);
            let mut turns = 0u64;
            'run: loop {
                for (i, inst) in instances.iter_mut().enumerate() {
                    let fresh = pairs(&inst.component, turn, false, &mut inst.stream);
                    let turn_start = Instant::now();
                    for pair in fresh.chunks(1) {
                        tally.batch(&inst.service, pair);
                    }
                    let turn_end = Instant::now();
                    tally.slice(i, turn, turn_start, turn_end);
                    ctx.tracer.record(
                        "meshpath.route",
                        Layer::Meshpath,
                        root,
                        turns,
                        turn as u64,
                        turn_start,
                        turn_end,
                    );
                    turns += 1;
                    if turns == COLD_RSS_TURNS {
                        ctx.mark_rss();
                    }
                    if started.elapsed() >= budget {
                        break 'run;
                    }
                }
                if ctx.setup_due(&setup_s, n_instances, started.elapsed().as_secs_f64()) {
                    setup_s.push(set_up(ctx, mode, setup_s.len(), n_pairs, root).1);
                }
            }
            repetitions = turns;
        }
        Mode::Churn => {
            // Round after round, the instances in turn: a closed-loop
            // reader thread beside the open-loop writer on this thread.
            let mut log = ChurnLog::default();
            let mut rounds = 0u64;
            'run: loop {
                for (i, inst) in instances.iter().enumerate() {
                    churn_round(ctx, inst, i as u64, root, &mut tally, &mut log);
                    rounds += 1;
                    if rounds == n_instances as u64 {
                        ctx.mark_rss();
                    }
                    if started.elapsed() >= budget {
                        break 'run;
                    }
                }
                if ctx.setup_due(&setup_s, n_instances, started.elapsed().as_secs_f64()) {
                    setup_s.push(set_up(ctx, mode, setup_s.len(), n_pairs, root).1);
                }
            }
            repetitions = rounds;
            churn = Some(log);
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    ctx.tracer.close(root);
    while ctx.more_setups(&setup_s) {
        setup_s.push(set_up(ctx, mode, setup_s.len(), n_pairs, NO_PARENT).1);
    }
    verdict.attempted = tally.calls;
    verdict.failed = tally.failed;
    // (A toy run can be too short for a single churn period.)
    if tally.slice_qps.is_empty() {
        tally.slice_qps.push((0, tally.calls as f64 / measured_s));
    }
    let throughput_slices = std::mem::take(&mut tally.slice_qps);
    // The latency is the route call's — except under churn, where it is
    // the writer's: each update from the instant it was due.
    let (mut latency_us, mut latency_slices_us) = match &mut churn {
        None => (std::mem::take(&mut tally.batch_us), std::mem::take(&mut tally.slice_p50_us)),
        Some(log) => {
            verdict.attempted += log.updates;
            verdict.failed += log.update_errors;
            detail.set("updates", log.updates);
            detail.set("update_lateness", Timing::of(log.late_us.clone()).to_json("us"));
            detail
                .set("reader_batch_latency", Timing::of(tally.batch_us.clone()).to_json("us/call"));
            (std::mem::take(&mut log.update_us), std::mem::take(&mut log.update_slices_us))
        }
    };
    // (A run too short for a single update still reports.)
    if latency_slices_us.is_empty() {
        latency_us.push(measured_s * 1e6);
        latency_slices_us.push((0, measured_s * 1e6));
    }
    let model_cost = tally.hops as f64 / (tally.calls - tally.failed).max(1) as f64;

    let mut transfers = Vec::new();
    if ctx.traced {
        transfers = breakdown_transfers(&ctx.breakdowns);
        // Every cache miss ran the router once; a replay of bare
        // `Router::route` on the same pairs prices that child.
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, inst) in instances.iter().enumerate() {
            let m = inst.service.metrics().expect("traced services record metrics");
            hits += m.cache_hits();
            misses += m.cache_misses();
            let bare_s = replay_bare_route(ctx, &inst.view, &inst.pairs, i as u64);
            transfers.push((Layer::Meshpath, Layer::Route, m.cache_misses() as f64 * bare_s));
        }
        if let Some(log) = &churn {
            // Under churn only: the all-hit lead-in would swamp the rate.
            (hits, misses) = (log.hits, log.misses);
        }
        layer.insert("meshpath.cache_hit_pct", 100.0 * hits as f64 / (hits + misses).max(1) as f64);
        layer.insert("obs.traced_throughput_per_s", quiet_rate(&throughput_slices));
        if let Some(log) = &churn {
            let reader = Timing::of(tally.batch_us.clone());
            layer.insert("meshpath.reader_hi_over_p50", reader.hi / reader.p50);
            let late = log.late_us.iter().sum::<f64>() / log.late_us.len().max(1) as f64;
            layer.insert(
                "meshpath.update_late_pct",
                100.0 * late / (ctx.size(CHURN_PERIOD_MS, 10) as f64 * 1e3),
            );
            layer.insert(
                "meshpath.updates_incremental_pct",
                100.0 * log.incremental as f64 / log.replayed.max(1) as f64,
            );
            transfers.extend(log.transfers.iter().copied());
        }
    }

    // Output checks, after the clock has stopped.
    let n_check = ctx.size(CHECK_SAMPLE, 32);
    for (i, inst) in instances.iter().enumerate() {
        let mut srng = rng(ctx.seed, stream::SAMPLE, i as u64);
        let sample = pairs(&inst.component, n_check / n_instances + 1, false, &mut srng);
        // After churn the fault set is back to the drawn one, so the
        // service must answer as a from-scratch analysis of it does.
        let fresh;
        let view = if mode == Mode::Churn {
            let now = inst.service.view();
            verdict.require(now.faults() == inst.view.faults(), || {
                format!("instance {i}: the update schedule did not restore the fault set")
            });
            fresh = NetView::build(inst.view.faults().clone());
            &fresh
        } else {
            &inst.view
        };
        let hot = &inst.pairs[..inst.pairs.len().min(sample.len())];
        for set in [&sample[..], hot] {
            check_routes(&mut verdict, "service reply", view, KIND, set, |s, d| {
                inst.service.route(s, d).ok().map(|r| r.result)
            });
        }
    }

    let config = Json::obj()
        .with("mesh", format!("{SIDE}x{SIDE}"))
        .with("faults", FAULTS)
        .with("router", KIND.name())
        .with("cache_entries", meshpath::DEFAULT_CACHE_ENTRIES)
        .with("instances", n_instances)
        .with("hot_pairs_per_instance", n_pairs)
        .with(
            "loop",
            match mode {
                Mode::Warm => "closed, 1 thread, pre-warmed hot set, 256-call latency samples",
                Mode::Cold => "closed, 1 thread, every pair drawn fresh, per-call latency",
                Mode::Churn => {
                    "closed 1-thread reader beside an open-loop writer, 10 updates/s, \
                     latency from the due instant"
                }
            },
        );
    Outcome {
        verdict,
        setup_s,
        throughput_slices,
        latency_slices_us,
        latency_us,
        model_cost,
        repetitions,
        layer,
        transfers,
        config,
        detail,
    }
}

/// The open-loop generator's wait. With a core to itself the writer
/// spins: a sleeping thread wakes on a core that has gone idle (or on the
/// reader's), and the first update after each wake-up then takes up to
/// twice as long for as many minutes as the host stays in that mood —
/// the generator's artefact, not the service's cost. On a single core
/// it sleeps, so as not to starve the reader.
fn wait_until(due: Instant) {
    if host_cores() >= 2 {
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    }
}

/// What the writer side of `svc_churn` records.
#[derive(Default)]
struct ChurnLog {
    updates: u64,
    update_errors: u64,
    /// Due-to-published latency of each update (µs), and the medians of
    /// each few consecutive ones.
    update_us: Vec<f64>,
    update_slices_us: Vec<Slice>,
    /// How late the generator started each update (µs).
    late_us: Vec<f64>,
    /// Cache hits and misses between the first update coming due and the
    /// end of the last period (traced runs).
    hits: u64,
    misses: u64,
    /// Replayed updates, and how many took the incremental path.
    replayed: u64,
    incremental: u64,
    transfers: Vec<(Layer, Layer, f64)>,
}

/// One round of `svc_churn` on one instance: the reader cycles the hot
/// set on its own thread while this thread publishes add/repair of
/// harmless nodes on a fixed 10/s schedule, each update timed from the
/// instant it was due. A round is `ROUND_UPDATES` periods between an
/// all-hit lead-in period and a last period of reading; its schedule is
/// even, so the fault set ends as it began.
fn churn_round(
    ctx: &mut Ctx,
    inst: &Instance,
    op: u64,
    root: SpanId,
    tally: &mut Tally,
    log: &mut ChurnLog,
) {
    let period = Duration::from_millis(ctx.size(CHURN_PERIOD_MS, 10) as u64);
    assert_eq!(inst.pairs.len() % CHURN_BATCH, 0, "the hot set is whole batches");
    let n_updates = ROUND_UPDATES;
    // An instance's rounds walk on through its toggle nodes.
    let round = log.updates as usize / (ROUND_UPDATES * INSTANCES);
    let first_toggle = round * (ROUND_UPDATES / 2);
    let stop = AtomicBool::new(false);
    let mut applied: Vec<(Coord, bool)> = Vec::new();
    let mut update_spans = Vec::new();
    let t0 = Instant::now();
    let reader = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            // The reader's batches fall into the writer's periods:
            // period k starts as update k comes due. Each period is one
            // throughput slice (and one span); the lead-in before the
            // first update is all hits and is no slice.
            let mut mine = Tally::default();
            let mut periods: Vec<(u64, Instant, Instant)> = Vec::new();
            'read: loop {
                for chunk in inst.pairs.chunks(CHURN_BATCH) {
                    let (start, end) = mine.batch(&inst.service, chunk);
                    let k = ((start - t0).as_nanos() / period.as_nanos()) as usize;
                    if (1..=n_updates).contains(&k) {
                        if periods.len() < k {
                            periods.resize(k, (0, start, start));
                        }
                        periods[k - 1].0 += chunk.len() as u64;
                        periods[k - 1].2 = end;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break 'read;
                    }
                }
            }
            periods.retain(|p| p.0 > 0);
            (mine, periods)
        });
        let counters =
            || inst.service.metrics().map_or((0, 0), |m| (m.cache_hits(), m.cache_misses()));
        let mut lead_in = (0, 0);
        for k in 0..n_updates {
            let due = t0 + period * (k as u32 + 1);
            wait_until(due);
            if k == 0 {
                lead_in = counters();
            }
            let start = Instant::now();
            let node = inst.toggles[(first_toggle + k / 2) % inst.toggles.len()];
            let add = k % 2 == 0;
            let result =
                if add { inst.service.add_fault(node) } else { inst.service.remove_fault(node) };
            let end = Instant::now();
            log.updates += 1;
            log.update_errors += u64::from(result.is_err());
            log.update_us.push((end - due).as_secs_f64() * 1e6);
            log.late_us.push((start - due).as_secs_f64() * 1e6);
            applied.push((node, add));
            update_spans.push((start, end));
        }
        // One more period, so the last update is followed by as much
        // reading as every other.
        wait_until(t0 + period * (n_updates as u32 + 1));
        stop.store(true, Ordering::Relaxed);
        let total = counters();
        log.hits += total.0 - lead_in.0;
        log.misses += total.1 - lead_in.1;
        handle.join().expect("the reader thread does not panic")
    });
    let (mine, periods) = reader;
    let mine_from = log.update_us.len() - applied.len();
    log.update_slices_us.extend(
        log.update_us[mine_from..].chunks(UPDATES_PER_SLICE).map(|c| (op as usize, median(c))),
    );
    tally.calls += mine.calls;
    tally.failed += mine.failed;
    tally.hops += mine.hops;
    tally.batch_us.extend(mine.batch_us);
    for &(calls, start, end) in &periods {
        tally.slice(op as usize, calls as usize, start, end);
    }
    if !ctx.traced {
        return;
    }

    for (k, &(start, end)) in update_spans.iter().enumerate() {
        ctx.tracer.record(
            "meshpath.update",
            Layer::Meshpath,
            root,
            op << 32 | (log.updates as usize - update_spans.len() + k) as u64,
            1,
            start,
            end,
        );
    }
    for &(calls, start, end) in &periods {
        ctx.tracer.record("meshpath.route", Layer::Meshpath, NO_PARENT, op, calls, start, end);
        ctx.tracer.tag_thread(1, 1);
    }

    // Replay the applied schedule on a bare `NetState` to split each
    // `RouteService` update: `route` = the whole `NetState` update, of
    // which `fault` = the four relabelings and `info` = the twelve model
    // rebuilds the incremental path makes (its boundary reuse is not
    // reachable from outside and stays with `route`).
    let mut state = NetState::adopt(inst.view.clone());
    let (mut net_s, mut fault_s, mut info_s) = (0.0, 0.0, 0.0);
    for &(node, add) in &applied {
        let before = state.view();
        let (after, s) =
            ctx.tracer.time_replay("route.update", Layer::Route, NO_PARENT, op, || {
                if add { state.add_fault(node) } else { state.remove_fault(node) }
                    .expect("the schedule replays as it ran")
            });
        net_s += s;
        log.replayed += 1;
        log.incremental += u64::from(state.last_update_was_incremental());
        for o in Orientation::ALL {
            if add {
                let labeling = before.mccs(o).labeling();
                let (_, s) =
                    ctx.tracer.time_replay("fault.relabel", Layer::Fault, NO_PARENT, op, || {
                        black_box(labeling.with_fault_added(after.faults(), node))
                    });
                fault_s += s;
            }
            let set = after.mccs(o);
            debug_assert_eq!(set.labeling().border_policy(), BorderPolicy::Open);
            let bounds = meshpath::info::BoundarySet::build(set);
            let (_, s) =
                ctx.tracer.time_replay("info.model_build", Layer::Info, NO_PARENT, op, || {
                    for kind in ModelKind::ALL {
                        black_box(InfoModel::build_with(set, &bounds, kind));
                    }
                });
            info_s += s;
        }
    }
    log.transfers.push((Layer::Meshpath, Layer::Route, net_s));
    log.transfers.push((Layer::Route, Layer::Fault, fault_s));
    log.transfers.push((Layer::Route, Layer::Info, info_s));
}
