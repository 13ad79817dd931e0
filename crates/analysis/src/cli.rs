//! A dependency-free argument parser shared by the `fig5*` binaries.

use crate::sweep::SweepConfig;

/// Parses `--key value` style arguments into a [`SweepConfig`] plus an
/// optional `--out` directory for the CSV files.
///
/// Supported keys: `--mesh`, `--configs`, `--pairs`, `--seed`,
/// `--max-faults`, `--step`, `--threads`, `--out`, `--quick`.
pub fn parse_args(
    args: impl Iterator<Item = String>,
) -> Result<(SweepConfig, Option<String>), String> {
    let mut cfg = SweepConfig::default();
    let mut out = None;
    let mut max_faults = 3000usize;
    let mut step = 250usize;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--mesh" => cfg.mesh = take("--mesh")?.parse().map_err(|e| format!("--mesh: {e}"))?,
            "--configs" => {
                cfg.configs_per_point =
                    take("--configs")?.parse().map_err(|e| format!("--configs: {e}"))?
            }
            "--pairs" => {
                cfg.pairs_per_config =
                    take("--pairs")?.parse().map_err(|e| format!("--pairs: {e}"))?
            }
            "--seed" => cfg.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--max-faults" => {
                max_faults =
                    take("--max-faults")?.parse().map_err(|e| format!("--max-faults: {e}"))?
            }
            "--step" => step = take("--step")?.parse().map_err(|e| format!("--step: {e}"))?,
            "--threads" => {
                cfg.threads = take("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => out = Some(take("--out")?),
            "--quick" => {
                cfg.mesh = 40;
                cfg.configs_per_point = 4;
                cfg.pairs_per_config = 20;
                max_faults = 480;
                step = 60;
            }
            "--help" | "-h" => {
                return Err("usage: fig5x [--mesh N] [--configs N] [--pairs N] [--seed N] \
                            [--max-faults N] [--step N] [--threads N] [--out DIR] [--quick]"
                    .into())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if step == 0 {
        return Err("--step must be positive".into());
    }
    cfg.fault_counts = (0..=max_faults).step_by(step).collect();
    check_mesh_holds(cfg.mesh, cfg.fault_counts.last().copied().unwrap_or(0))?;
    Ok((cfg, out))
}

/// Checks that an `N`x`N` mesh (`--mesh N`) is non-empty and holds a
/// sweep's `worst_faults` with a healthy node to spare.
pub fn check_mesh_holds(mesh: u32, worst_faults: usize) -> Result<(), String> {
    let nodes = u64::from(mesh) * u64::from(mesh);
    if mesh == 0 {
        Err("--mesh must be a positive integer".into())
    } else if worst_faults as u64 >= nodes {
        Err(format!(
            "--mesh {mesh} gives {nodes} nodes, fewer than the sweep's {worst_faults} faults; \
             use a larger mesh"
        ))
    } else {
        Ok(())
    }
}

/// Prints a table and optionally writes its CSV next to `out`.
/// The "wrote file" notice is `MESHPATH_LOG=info` chatter; write
/// *failures* stay unconditional.
pub fn emit(table: &crate::table::Table, out: &Option<String>, name: &str) {
    println!("{}", table.to_text());
    if let Some(dir) = out {
        let path = std::path::Path::new(dir).join(format!("{name}.csv"));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| table.write_csv(&path)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else if meshpath_obs::enabled(meshpath_obs::LogLevel::Info) {
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs<'a>(v: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        v.iter().map(|s| s.to_string())
    }

    #[test]
    fn default_parse() {
        let (cfg, out) = parse_args(strs(&[])).expect("ok");
        assert_eq!(cfg.mesh, 100);
        assert_eq!(cfg.fault_counts.last(), Some(&3000));
        assert!(out.is_none());
    }

    #[test]
    fn custom_parse() {
        let (cfg, out) = parse_args(strs(&[
            "--mesh",
            "40",
            "--configs",
            "5",
            "--pairs",
            "7",
            "--max-faults",
            "100",
            "--step",
            "50",
            "--out",
            "/tmp/x",
        ]))
        .expect("ok");
        assert_eq!(cfg.mesh, 40);
        assert_eq!(cfg.configs_per_point, 5);
        assert_eq!(cfg.pairs_per_config, 7);
        assert_eq!(cfg.fault_counts, vec![0, 50, 100]);
        assert_eq!(out.as_deref(), Some("/tmp/x"));
    }

    #[test]
    fn quick_profile() {
        let (cfg, _) = parse_args(strs(&["--quick"])).expect("ok");
        assert_eq!(cfg.mesh, 40);
        assert_eq!(cfg.fault_counts.last(), Some(&480));
    }

    #[test]
    fn rejects_axes_the_mesh_cannot_hold() {
        let err = |v: &[&str]| parse_args(strs(v)).expect_err("rejected");
        assert_eq!(err(&["--mesh", "0"]), "--mesh must be a positive integer");
        assert_eq!(
            err(&["--mesh", "1"]),
            "--mesh 1 gives 1 nodes, fewer than the sweep's 3000 faults; use a larger mesh"
        );
        assert!(err(&["--quick", "--max-faults", "100000"]).contains("use a larger mesh"));
        assert!(parse_args(strs(&["--mesh", "2", "--max-faults", "3", "--step", "1"])).is_ok());
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse_args(strs(&["--bogus"])).is_err());
        assert!(parse_args(strs(&["--mesh"])).is_err());
    }
}
