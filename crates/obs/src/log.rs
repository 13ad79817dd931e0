//! `MESHPATH_LOG` gating for ad-hoc diagnostic output.
//!
//! Progress and "wrote file" chatter across the workspace's binaries
//! and stress tests goes through [`enabled`] so that test and CI output
//! stays clean by default. Set `MESHPATH_LOG=info` (or `debug`,
//! `trace`; numbers `1`–`3` work too) to turn it on:
//!
//! ```sh
//! MESHPATH_LOG=info cargo run --release --bin traffic_sweep -- --quick
//! ```
//!
//! The level is read from the environment once and cached for the
//! process lifetime.

use std::sync::OnceLock;

/// Diagnostic verbosity, ordered: `Off < Info < Debug < Trace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No diagnostic output (the default).
    Off,
    /// Progress lines and output-file notices.
    Info,
    /// Per-phase details.
    Debug,
    /// Everything.
    Trace,
}

fn parse(raw: &str) -> LogLevel {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "none" => LogLevel::Off,
        "1" | "info" => LogLevel::Info,
        "2" | "debug" => LogLevel::Debug,
        "3" | "trace" => LogLevel::Trace,
        // An unrecognized value means the user wants *something*.
        _ => LogLevel::Info,
    }
}

/// The process-wide level from `MESHPATH_LOG`, cached on first use.
/// Inlined with [`enabled`] so a gate on a hot path (a router's per-hop
/// trace line) costs one load and a compare when logging is off, not a
/// cross-crate call.
#[inline]
pub fn level() -> LogLevel {
    static LEVEL: OnceLock<LogLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("MESHPATH_LOG") {
        Ok(v) => parse(&v),
        Err(_) => LogLevel::Off,
    })
}

/// True when output at `at` should be emitted.
///
/// ```
/// if meshpath_obs::enabled(meshpath_obs::LogLevel::Info) {
///     eprintln!("wrote report.json");
/// }
/// ```
#[inline]
pub fn enabled(at: LogLevel) -> bool {
    at <= level()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(parse("off"), LogLevel::Off);
        assert_eq!(parse("0"), LogLevel::Off);
        assert_eq!(parse(""), LogLevel::Off);
        assert_eq!(parse("info"), LogLevel::Info);
        assert_eq!(parse("2"), LogLevel::Debug);
        assert_eq!(parse("TRACE"), LogLevel::Trace);
        assert_eq!(parse("yes"), LogLevel::Info);
        assert!(LogLevel::Off < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        assert!(LogLevel::Debug < LogLevel::Trace);
    }
}
