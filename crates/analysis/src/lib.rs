//! # meshpath-analysis
//!
//! The experiment harness reproducing the paper's evaluation (Fig. 5).
//!
//! The paper's simulator runs on a 100x100 mesh with randomly generated
//! fault counts swept from 0 to 3000 and reports, per fault count:
//!
//! * **(a)** percentage of disabled area (MAX / AVG over configurations),
//! * **(b)** number of MCCs (MAX / AVG),
//! * **(c)** percentage of safe nodes involved in information propagation
//!   for B1 / B2 / B3 (Maximum / Average),
//! * **(d)** percentage of routings that found a true shortest path for
//!   RB1 / RB2 / RB3,
//! * **(e)** relative error of the achieved path length to the optimum
//!   for E-cube / RB1 / RB2 / RB3.
//!
//! [`sweep::run_sweep`] executes the whole grid in parallel (one fault
//! configuration per task, scoped threads) and the `fig5*`
//! binaries render each figure as an aligned table plus CSV.
//!
//! Beyond the paper, [`traffic::run_load_sweep`] drives the wormhole
//! traffic simulator (`meshpath-traffic`) over a
//! `(router, fault density, injection rate)` grid, producing the
//! latency-vs-load and accepted-throughput curves the NoC literature
//! evaluates routing functions with (`traffic_sweep` binary).
//!
//! Methodology notes: endpoints are drawn uniformly
//! among nodes that are healthy *and* safe for the pair's orientation,
//! and a pair is kept when the source can reach the destination (the
//! paper's "we assume that the source has the path to the destination";
//! whole-mesh connectivity would leave the high-fault sweep empty).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fig5;
pub mod jsonl;
pub mod sweep;
pub mod table;
pub mod traffic;
pub mod workload_io;

pub use fig5::{fig5a, fig5b, fig5c, fig5d, fig5e, Fig5Data};
pub use sweep::{run_sweep, ConfigRecord, RouterAgg, SweepConfig, SweepResult};
pub use table::Table;
pub use traffic::{run_load_sweep, LoadPoint, LoadSweepConfig, LoadSweepResult};
