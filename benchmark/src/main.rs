//! `meshbench`: one six-workload, layer-attributed benchmark of the
//! whole meshpath stack. `BENCHMARK.json` at the repository root is its
//! contract; `README.md` beside this package explains every workload
//! and metric.
//!
//! ```text
//! meshbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of standard output is
//!     {"correct", "attempted", "failed", "metrics"}
//! meshbench [--seed N] [--seconds S] [--traced]
//!     every workload, each in its own child process
//! meshbench --repeat K [--seed N] [--seconds S]
//!     K seeds per workload; spread of every end-to-end metric against
//!     its bound in BENCHMARK.json; exits non-zero outside it
//! meshbench --check
//!     every workload at toy size, traced and untraced; verifies the
//!     emitted metric names are exactly those BENCHMARK.json declares
//! ```

mod common;
mod fabric;
mod inputs;
mod json;
mod manifest;
mod probes;
mod span;
mod spec;
mod stats;
mod svc;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use common::{
    breakdown_metrics, peak_rss_mb, quiet_latency, quiet_rate, quiet_setup_s, Ctx, Outcome,
};
use json::Json;
use span::{Layer, Tracer};
use stats::{median, relative_spread, Timing};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    toy: bool,
    repeat: Option<usize>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        toy: false,
        repeat: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--toy" => args.toy = true,
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 sets".to_string());
                }
                args.repeat = Some(k);
            }
            "--check" => args.check = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {:?}", spec::WORKLOADS));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("meshbench: {why}");
            }
            eprintln!(
                "usage: meshbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | \
                 --traced] [--repeat K] [--check]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = if args.check {
        check()
    } else if let Some(k) = args.repeat {
        repeat(&args, k)
    } else if let Some(workload) = &args.workload {
        run_one(workload, &args)
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of one workload in this process.
fn run_one(workload: &str, args: &Args) -> bool {
    let started = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        toy: args.toy,
        tracer: Tracer::new(args.traced),
        breakdowns: Vec::new(),
        rss_mark_mb: None,
    };
    let mut outcome = match workload {
        "svc_warm" => svc::run(&mut ctx, svc::Mode::Warm),
        "svc_cold" => svc::run(&mut ctx, svc::Mode::Cold),
        "svc_churn" => svc::run(&mut ctx, svc::Mode::Churn),
        "fabric_loaded_64" => fabric::run(&mut ctx, fabric::Kind::Loaded64),
        "fabric_sparse_256" => fabric::run(&mut ctx, fabric::Kind::Sparse256),
        "collective_64" => fabric::run(&mut ctx, fabric::Kind::Collective64),
        other => unreachable!("parse_args admitted {other:?}"),
    };
    // At the workload's fixed-work mark (a run too short to reach it
    // reads the peak now, before the probes).
    let rss_mb = ctx.rss_mark_mb.unwrap_or_else(peak_rss_mb);
    let latency = Timing::of(std::mem::take(&mut outcome.latency_us));

    let table = if args.traced { spec::PER_LAYER } else { spec::END_TO_END };
    let values = if args.traced {
        per_layer(&mut ctx, &outcome, &latency)
    } else {
        BTreeMap::from([
            ("throughput_per_s", quiet_rate(&outcome.throughput_slices)),
            ("latency_us", quiet_latency(&outcome.latency_slices_us)),
            ("model_cost", outcome.model_cost),
            ("peak_rss_mb", rss_mb),
            ("setup_s", quiet_setup_s(&outcome.setup_s)),
        ])
    };

    // The document under out/: manifest, every metric, the supporting
    // detail (percentiles with their sample counts, violations).
    let manifest = manifest::manifest(
        workload,
        &ctx,
        std::mem::replace(&mut outcome.config, Json::Null),
        outcome.repetitions,
        started.elapsed().as_secs_f64(),
    );
    let mut metrics = Json::obj();
    for &(name, unit) in table {
        // Every declared metric is printed; one the run did not produce
        // is 0 (a workload that never enters that layer).
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("{name:<36} {value:>16.6} {unit}");
        metrics.set(name, Json::obj().with("value", value).with("unit", unit));
    }
    let verdict = &mut outcome.verdict;
    let correct = verdict.violations.is_empty();
    for v in &verdict.violations {
        eprintln!("meshbench: VIOLATION: {v}");
    }
    let doc = Json::obj()
        .with("manifest", manifest.clone())
        .with("correct", correct)
        .with("attempted", verdict.attempted)
        .with("failed", verdict.failed)
        .with("ops_failed_pct", 100.0 * verdict.failed as f64 / verdict.attempted.max(1) as f64)
        .with(
            "violations",
            verdict.violations.iter().map(|v| Json::from(v.as_str())).collect::<Vec<_>>(),
        )
        .with("latency", latency.to_json("us"))
        .with("slices", outcome.throughput_slices.len())
        .with("throughput_slices", slices_json(&outcome.throughput_slices))
        .with("latency_slices_us", slices_json(&outcome.latency_slices_us))
        .with("setup_s", outcome.setup_s.iter().map(|&s| Json::from(s)).collect::<Vec<_>>())
        .with("metrics", metrics.clone())
        .with("detail", std::mem::replace(&mut outcome.detail, Json::Null));
    let out = spec::out_dir();
    let trace_tag = u8::from(args.traced);
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(out.join(format!("{workload}.trace{trace_tag}.json")), doc.pretty())
        })
        .and_then(|()| {
            if args.traced {
                std::fs::write(
                    out.join(format!("trace-{workload}.jsonl")),
                    ctx.tracer.to_jsonl(&manifest),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("meshbench: cannot write under {out:?}: {e}");
        return false;
    }

    // The contract's result line, last on standard output.
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", verdict.attempted.max(1))
        .with("failed", verdict.failed)
        .with("metrics", metrics);
    println!("{}", result.render());
    correct
}

/// A run's slices for the output document: their plain median and
/// deciles, and — when few enough to read — each `[instance, value]`.
fn slices_json(slices: &[common::Slice]) -> Json {
    let values = stats::sorted(slices.iter().map(|s| s.1).collect());
    let mut doc = Json::obj()
        .with("p10", stats::percentile(&values, 10.0))
        .with("median", median(&values))
        .with("p90", stats::percentile(&values, 90.0));
    if slices.len() <= 64 {
        let each = slices.iter().map(|&(i, v)| Json::from(vec![Json::from(i), Json::from(v)]));
        doc.set("each", each.collect::<Vec<_>>());
    }
    doc
}

/// The per-layer metrics of a traced run: set-up breakdown, the
/// workload's own counters and layer shares, and the fixed probes.
fn per_layer(ctx: &mut Ctx, outcome: &Outcome, latency: &Timing) -> BTreeMap<&'static str, f64> {
    let mut values = outcome.layer.clone();
    breakdown_metrics(&ctx.breakdowns, &mut values);

    let split = ctx.tracer.attribution(&outcome.transfers);
    let wall = split.wall_s();
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Mesh => "share_pct.mesh",
            Layer::Fault => "share_pct.fault",
            Layer::Info => "share_pct.info",
            Layer::Route => "share_pct.route",
            Layer::Meshpath => "share_pct.meshpath",
            Layer::Traffic => "share_pct.traffic",
            Layer::Workload => "share_pct.workload",
            Layer::Harness => "share_pct.harness",
        };
        values.insert(name, 100.0 * split.self_s[layer as usize] / wall);
    }
    // What the replays claimed beyond the calls they split: the check
    // that the layers' self times add up to the traced wall.
    values.insert("share_pct.unattributed", 100.0 * split.overshoot_s / wall);

    values.insert("tail.samples", latency.samples as f64);
    values.insert("tail.hi_pct", latency.hi_pct);
    values.insert("tail.hi_over_p50", latency.hi / latency.p50);

    probes::run(ctx, &mut values);
    values
}

/// A child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process and parses its last line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    toy: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if toy {
        cmd.arg("--toy");
    }
    // `output` waits for the child, so none outlives this process.
    let out = cmd.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or_else(|| format!("{workload} printed nothing"))?;
    let doc = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{workload}: result has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            (name.clone(), value, unit)
        })
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && out.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
    })
}

/// Every workload, each in its own child process; untraced, then traced
/// when asked.
fn run_all(args: &Args) -> bool {
    let started = Instant::now();
    let mut ok = true;
    let passes: &[bool] = if args.traced { &[false, true] } else { &[false] };
    for &traced in passes {
        for workload in spec::WORKLOADS {
            println!("== {workload} (seed {}, trace {}) ==", args.seed, u8::from(traced));
            match child(workload, args.seed, args.seconds, traced, args.toy) {
                Ok(r) => {
                    for (name, value, unit) in &r.metrics {
                        println!("{name:<36} {value:>16.6} {unit}");
                    }
                    println!(
                        "{:<36} {:>16.6} %   ({} of {})",
                        "ops_failed_pct",
                        100.0 * r.failed / r.attempted.max(1.0),
                        r.failed,
                        r.attempted
                    );
                    if !r.correct {
                        println!("OUTPUT CHECKS FAILED (see standard error)");
                    }
                    ok &= r.correct;
                }
                Err(why) => {
                    eprintln!("meshbench: {why}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "documents and span files: {:?}; whole run {:.1} s",
        spec::out_dir(),
        started.elapsed().as_secs_f64()
    );
    ok
}

/// `--repeat K`: K runs per workload on seeds `seed .. seed+K`, then the
/// spread of every end-to-end metric — the distance between the first
/// and third quartile as a share of the median, as the driver takes it —
/// against the metric's bound in `BENCHMARK.json`.
fn repeat(args: &Args, k: usize) -> bool {
    let doc = match spec::read_benchmark_json() {
        Ok(d) => d,
        Err(why) => {
            eprintln!("meshbench: {why}");
            return false;
        }
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for workload in spec::DRIVEN {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..k {
            match child(workload, args.seed + i as u64, args.seconds, false, args.toy) {
                Ok(r) => {
                    ok &= r.correct;
                    for (name, value, _) in r.metrics {
                        series.entry(name).or_default().push(value);
                    }
                }
                Err(why) => {
                    eprintln!("meshbench: {why}");
                    ok = false;
                }
            }
        }
        for &(name, unit) in spec::END_TO_END {
            let Some(values) = series.get(name).filter(|v| v.len() >= 2) else {
                ok = false;
                continue;
            };
            let spread = relative_spread(values);
            let bound = spec::declared_bound(&doc, name).unwrap_or(0.0);
            // setup_s is held to its bound on the median's drift only.
            let within = spread <= bound || name == "setup_s";
            ok &= within;
            println!(
                "{workload:<18} {name:<18} median {:>16.6} {unit:<6} spread {:>6.2} % of bound \
                 {:>5.1} % {}",
                median(values),
                100.0 * spread,
                100.0 * bound,
                if within { "ok" } else { "OUTSIDE" }
            );
            summary.push(
                Json::obj()
                    .with("workload", workload)
                    .with("metric", name)
                    .with("unit", unit)
                    .with("median", median(values))
                    .with("spread", spread)
                    .with("bound", bound)
                    .with("values", values.iter().map(|&v| Json::from(v)).collect::<Vec<_>>()),
            );
        }
    }
    let out = spec::out_dir().join(format!("repeat-seed{}-k{k}.json", args.seed));
    let doc = Json::obj()
        .with("seed", args.seed)
        .with("sets", k)
        .with("seconds", args.seconds)
        .with("nproc", manifest::host_cores())
        .with("rows", summary);
    if let Err(e) = std::fs::write(&out, doc.pretty()) {
        eprintln!("meshbench: cannot write {out:?}: {e}");
    }
    ok
}

/// `--check`: every workload at toy size, both passes; the names each
/// pass emits must be exactly the names `BENCHMARK.json` declares, which
/// must be exactly the names this program knows.
fn check() -> bool {
    let doc = match spec::read_benchmark_json() {
        Ok(d) => d,
        Err(why) => {
            eprintln!("meshbench: {why}");
            return false;
        }
    };
    let mut ok = true;
    let mut expect = |what: &str, declared: Vec<String>, known: Vec<&str>| {
        if declared != known {
            eprintln!("meshbench: BENCHMARK.json {what} {declared:?} != the program's {known:?}");
            ok = false;
        }
    };
    expect("workloads", spec::declared_names(&doc, "workloads"), spec::DRIVEN.to_vec());
    let names = |t: &[(&'static str, &str)]| t.iter().map(|m| m.0).collect::<Vec<_>>();
    expect("end_to_end", spec::declared_names(&doc, "end_to_end"), names(spec::END_TO_END));
    expect("per_layer", spec::declared_names(&doc, "per_layer"), names(spec::PER_LAYER));
    if doc.get("run_seconds").and_then(Json::as_f64) != Some(spec::RUN_SECONDS) {
        eprintln!("meshbench: BENCHMARK.json run_seconds is not {}", spec::RUN_SECONDS);
        ok = false;
    }
    for workload in spec::WORKLOADS {
        for (traced, table) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
            match child(workload, 1, 0.2, traced, true) {
                Ok(r) => {
                    let emitted: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
                    let units_match =
                        r.metrics.iter().zip(table).all(|(m, d)| m.2 == d.1 && m.1.is_finite());
                    if emitted != names(table) || !units_match || !r.correct {
                        eprintln!(
                            "meshbench: {workload} trace {}: emitted metrics do not match",
                            u8::from(traced)
                        );
                        ok = false;
                    }
                }
                Err(why) => {
                    eprintln!("meshbench: {why}");
                    ok = false;
                }
            }
        }
    }
    println!("check {}", if ok { "passed" } else { "FAILED" });
    ok
}
