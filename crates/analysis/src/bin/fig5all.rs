//! Regenerates every Fig. 5 series (panels a–e plus diagnostics) from a
//! single sweep.

use meshpath_analysis::cli::{emit, parse_args};
use meshpath_analysis::fig5::diagnostics;
use meshpath_analysis::{run_sweep, Fig5Data};

fn main() {
    let (cfg, out) = match parse_args(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if meshpath_obs::enabled(meshpath_obs::LogLevel::Info) {
        eprintln!(
            "sweep: {}x{} mesh, {} fault levels x {} configs x {} pairs",
            cfg.mesh,
            cfg.mesh,
            cfg.fault_counts.len(),
            cfg.configs_per_point,
            cfg.pairs_per_config
        );
    }
    let res = run_sweep(&cfg);
    let figs = Fig5Data::from_sweep(&res);
    emit(&figs.a, &out, "fig5a");
    emit(&figs.b, &out, "fig5b");
    emit(&figs.c, &out, "fig5c");
    emit(&figs.d, &out, "fig5d");
    emit(&figs.e, &out, "fig5e");
    emit(&diagnostics(&res), &out, "diagnostics");
}
