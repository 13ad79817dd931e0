//! Traffic load sweep: latency-vs-injection-rate curves per router and
//! fault density.
//!
//! Usage: `traffic_sweep [--quick] [--json] [--obs] [--trace]
//! [--mesh N] [--faults A,B,..] [--rates A,B,..] [--seed N]
//! [--threads N] [--sim-threads N] [--out DIR] [--no-early-exit]
//! [--workload SPEC] [--record-trace FILE]`.
//!
//! `--workload SPEC` replaces the synthetic injection process with a
//! scheduled workload (see `meshpath-workload`); `rate` is then
//! ignored, so sweep a single rate. SPEC is one of:
//!
//! * `trace:FILE` — replay a recorded packet trace (the format
//!   `--record-trace` writes);
//! * `dag:FILE` — a dependency-driven flow DAG file;
//! * `alltoall[:ROUNDS]` — barrier-synchronised all-to-all rounds
//!   (default 4) of `packet_len`-flit messages;
//! * `perm:L,K[,ROUNDS]` — (L,K)-permutation rounds (default 4),
//!   seeded from `--seed`.
//!
//! `--record-trace FILE` records the packet trace of the sweep's
//! single grid point (it refuses multi-point grids) and writes it to
//! FILE, replayable bit-identically with `--workload trace:FILE`.
//!
//! `--faults` and `--rates` override the sweep axes (comma-separated),
//! the knobs the large-mesh bench ladders use to bound their point
//! budget: a 256x256 `--quick` run keeps the smoke windows but sweeps
//! only the low rates that such a mesh can accept (uniform-traffic
//! bisection capacity shrinks as `4*side/nodes`, so the 16x16 smoke
//! rates would all saturate).
//!
//! `--obs` instruments every simulated point with the `meshpath-obs`
//! metrics probe (link counters, stall/occupancy histograms, phase
//! timings) and adds an `obs_report` section to the `--json` document;
//! `--trace` additionally records the packet-lifecycle flight recorder.
//! Either level leaves the simulation statistics bit-identical (pinned
//! by the golden suite).
//!
//! `--threads` sizes the sweep-level pool (simulations run in
//! parallel, one per point); `--sim-threads` shards each *single*
//! simulation across worker threads with bit-identical results — the
//! right knob for large meshes (64x64+), where one run should use all
//! cores. The two multiply, so set `--threads 1` when forcing
//! `--sim-threads` past 1.
//!
//! `--no-early-exit` disables the rate-ladder early exit (post-
//! saturation rates marked `sat` without simulating, wedged drains cut
//! short) when the full post-saturation curves are wanted. A `--json`
//! row of a point that was not simulated says `"simulated": false` and
//! carries `null` for everything it did not measure (latencies,
//! `delivered_pct`, accepted throughput, `mflits_per_sec`).
//!
//! By default the sweep prints aligned text tables (and CSV next to
//! `--out`). With `--json` it instead emits one machine-readable JSON
//! document of flat sweep rows on stdout — the format meant for
//! recording `BENCH_*.json` trajectories across commits — and, when
//! `--out DIR` is given, also writes it to `DIR/traffic_sweep.json`.

use meshpath_analysis::cli::{check_mesh_holds, emit};
use meshpath_analysis::traffic::{run_load_sweep, LoadSweepConfig};
use meshpath_analysis::workload_io::{read_dag, read_trace, write_trace};
use meshpath_route::RoutingKind;
use meshpath_traffic::{ObsLevel, SimConfig};
use meshpath_workload::WorkloadSpec;

/// Parses a `--workload` SPEC (see the module docs). `len` and `seed`
/// come from the sweep configuration.
fn parse_workload(spec: &str, len: u32, seed: u64) -> Result<WorkloadSpec, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    match kind {
        "trace" => {
            let (entries, horizon) = read_trace(&read(rest)?).map_err(|e| e.to_string())?;
            Ok(WorkloadSpec::Trace { entries, horizon })
        }
        "dag" => Ok(WorkloadSpec::Dag(read_dag(&read(rest)?).map_err(|e| e.to_string())?)),
        "alltoall" => {
            let rounds = if rest.is_empty() {
                4
            } else {
                rest.parse().map_err(|_| format!("alltoall rounds: {rest:?}"))?
            };
            Ok(WorkloadSpec::AllToAll { rounds, len })
        }
        "perm" => {
            let parts: Vec<&str> = rest.split(',').collect();
            let num = |s: &str| s.trim().parse::<u32>().map_err(|_| format!("perm spec: {rest:?}"));
            match parts.as_slice() {
                [l, k] => {
                    Ok(WorkloadSpec::Permutation { l: num(l)?, k: num(k)?, rounds: 4, len, seed })
                }
                [l, k, rounds] => Ok(WorkloadSpec::Permutation {
                    l: num(l)?,
                    k: num(k)?,
                    rounds: num(rounds)?,
                    len,
                    seed,
                }),
                _ => Err(format!("perm spec wants L,K[,ROUNDS]: {rest:?}")),
            }
        }
        other => Err(format!(
            "unknown workload {other:?} (trace:FILE | dag:FILE | alltoall[:R] | perm:L,K[,R])"
        )),
    }
}

/// Parses a `--rates` list, each rate checked by
/// [`SimConfig::validate`] against the sweep's `sim` config.
fn parse_rates(arg: &str, sim: &SimConfig) -> Result<Vec<f64>, String> {
    arg.split(',')
        .map(|v| {
            let rate = v.trim().parse().map_err(|_| format!("--rates: {v:?} is not a number"))?;
            sim.clone().with_rate(rate).validate().map_err(|e| format!("--rates: {e}"))?;
            Ok(rate)
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `--quick` selects the base configuration; every other flag is an
    // override applied afterwards, so argument order never matters.
    let mut cfg = if argv.iter().any(|a| a == "--quick") {
        LoadSweepConfig::smoke()
    } else {
        LoadSweepConfig::default()
    };
    let mut out: Option<String> = None;
    let mut json = false;
    let mut workload_arg: Option<String> = None;
    let mut record_trace: Option<String> = None;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => {}
            "--json" => json = true,
            "--obs" => cfg.sim.obs = ObsLevel::Metrics,
            "--trace" => cfg.sim.obs = ObsLevel::Trace,
            "--no-early-exit" => cfg.early_exit = false,
            "--mesh" => cfg.mesh = take("--mesh").parse().unwrap_or(0),
            "--faults" => {
                cfg.fault_counts = take("--faults")
                    .split(',')
                    .map(|v| v.trim().parse().expect("--faults: comma-separated integers"))
                    .collect();
            }
            "--rates" => {
                cfg.rates = parse_rates(&take("--rates"), &cfg.sim).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--routers" => {
                cfg.routers = take("--routers")
                    .split(',')
                    .map(|v| match v.trim().to_ascii_lowercase().as_str() {
                        "xy" => RoutingKind::Xy,
                        "ecube" | "e-cube" => RoutingKind::ECube,
                        "rb1" => RoutingKind::Rb1,
                        "rb2" => RoutingKind::Rb2,
                        "rb3" => RoutingKind::Rb3,
                        other => {
                            eprintln!("--routers: unknown router {other:?}");
                            std::process::exit(2);
                        }
                    })
                    .collect();
            }
            "--seed" => cfg.seed = take("--seed").parse().expect("--seed: integer"),
            "--threads" => cfg.threads = take("--threads").parse().expect("--threads: integer"),
            "--sim-threads" => {
                cfg.sim.threads = take("--sim-threads").parse().expect("--sim-threads: integer");
            }
            "--out" => out = Some(take("--out")),
            "--workload" => workload_arg = Some(take("--workload")),
            "--record-trace" => record_trace = Some(take("--record-trace")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: traffic_sweep [--quick] [--json] [--obs] [--trace] [--mesh N] \
                     [--faults A,B,..] [--rates A,B,..] [--seed N] [--threads N] \
                     [--sim-threads N] [--out DIR] [--no-early-exit] [--routers A,B,..] \
                     [--workload trace:FILE|dag:FILE|alltoall[:R]|perm:L,K[,R]] \
                     [--record-trace FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let worst = cfg.fault_counts.iter().max().copied().unwrap_or(0);
    if let Err(e) = check_mesh_holds(cfg.mesh, worst) {
        eprintln!("{e}");
        std::process::exit(2);
    }

    if let Some(spec) = &workload_arg {
        match parse_workload(spec, cfg.sim.packet_len, cfg.seed) {
            Ok(w) => cfg.workload = Some(w),
            Err(e) => {
                eprintln!("--workload: {e}");
                std::process::exit(2);
            }
        }
    }
    let grid_points = cfg.fault_counts.len() * cfg.rates.len() * cfg.routers.len();
    if record_trace.is_some() {
        if grid_points != 1 {
            eprintln!(
                "--record-trace wants exactly one grid point (one fault count, one rate, one \
                 router), this sweep has {grid_points}"
            );
            std::process::exit(2);
        }
        cfg.sim.record_trace = true;
    }

    let res = run_load_sweep(&cfg);
    if let Some(path) = &record_trace {
        let entries = res.points[0].trace.as_deref().unwrap_or(&[]);
        let horizon = cfg.sim.warmup + cfg.sim.measure;
        if let Err(e) = std::fs::write(path, write_trace(entries, horizon)) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        } else if meshpath_obs::enabled(meshpath_obs::LogLevel::Info) {
            eprintln!("recorded {} trace entries to {path}", entries.len());
        }
    }
    if json {
        let doc = res.to_json();
        print!("{doc}");
        if let Some(dir) = &out {
            let path = std::path::Path::new(dir).join("traffic_sweep.json");
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &doc))
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else if meshpath_obs::enabled(meshpath_obs::LogLevel::Info) {
                eprintln!("wrote {}", path.display());
            }
        }
        return;
    }
    for (i, t) in res.latency_tables().iter().enumerate() {
        emit(t, &out, &format!("traffic_latency_{}", res.config.fault_counts[i]));
    }
    for (i, t) in res.throughput_tables().iter().enumerate() {
        emit(t, &out, &format!("traffic_throughput_{}", res.config.fault_counts[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_outside_a_probability_are_rejected() {
        let sim = SimConfig::smoke();
        assert_eq!(parse_rates("0.01, 0.5", &sim), Ok(vec![0.01, 0.5]));
        for bad in ["2", "-1", "0.01,1.5", "x"] {
            assert!(parse_rates(bad, &sim).is_err(), "{bad}");
        }
        assert_eq!(
            parse_rates("2", &sim),
            Err("--rates: injection rate 2 is not a per-cycle probability".into())
        );
    }
}
