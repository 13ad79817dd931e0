//! The run manifest carried by every output document and span file:
//! enough to say what was measured, on what, from which commit.

use std::process::Command;

use crate::common::Ctx;
use crate::json::Json;

/// First line of a command's standard output, or `None` when it cannot
/// run (the driver's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let here = crate::spec::bench_dir();
    // Git must not look for a repository above the checkout.
    let above = std::fs::canonicalize(here.join("../..")).ok()?;
    let out = Command::new(program)
        .args(args)
        .current_dir(here)
        .env("GIT_CEILING_DIRECTORIES", above)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_string)
}

/// Host cores as the standard library reports them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `{commit, nproc, rustc, seed, seconds, trace, toy, workload, config,
/// repetitions, wall_s}`; `config` is the workload's full configuration.
pub fn manifest(workload: &str, ctx: &Ctx, config: Json, repetitions: u64, wall_s: f64) -> Json {
    Json::obj()
        .with("benchmark", "meshbench")
        .with(
            "commit",
            first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
        )
        .with("nproc", host_cores())
        .with("rustc", first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()))
        .with("workload", workload)
        .with("seed", ctx.seed)
        .with("seconds", ctx.seconds)
        .with("trace", ctx.traced)
        .with("toy", ctx.toy)
        .with("config", config)
        .with("repetitions", repetitions)
        .with("wall_s", wall_s)
}
