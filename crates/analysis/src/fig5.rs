//! Per-figure aggregation: turns a [`SweepResult`] into the five tables
//! of the paper's Fig. 5.

use crate::sweep::{RouterAgg, SweepResult};
use crate::table::{f1, f3, Table};

/// All five figures derived from one sweep.
#[derive(Clone, Debug)]
pub struct Fig5Data {
    /// Fig. 5(a): percentage of disabled area.
    pub a: Table,
    /// Fig. 5(b): number of MCCs.
    pub b: Table,
    /// Fig. 5(c): propagation cost.
    pub c: Table,
    /// Fig. 5(d): shortest-path success rate.
    pub d: Table,
    /// Fig. 5(e): relative error.
    pub e: Table,
}

impl Fig5Data {
    /// Builds every figure from a sweep result.
    pub fn from_sweep(res: &SweepResult) -> Self {
        Fig5Data { a: fig5a(res), b: fig5b(res), c: fig5c(res), d: fig5d(res), e: fig5e(res) }
    }
}

fn max_avg(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let mut max = f64::MIN;
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        max = max.max(v);
        sum += v;
        n += 1;
    }
    if n == 0 {
        (0.0, 0.0)
    } else {
        (max, sum / n as f64)
    }
}

/// Fig. 5(a): percentage of disabled area to the total area (MAX, AVG).
pub fn fig5a(res: &SweepResult) -> Table {
    let mut t = Table::new(
        "Fig 5(a) - percentage of disabled area to the total area",
        &["faults", "max_pct", "avg_pct"],
    );
    for (fc, recs) in res.by_count() {
        let (max, avg) = max_avg(recs.iter().map(|r| r.fault_stats.disabled_pct()));
        t.push_row(vec![fc.to_string(), f1(max), f1(avg)]);
    }
    t
}

/// Fig. 5(b): number of MCCs (MAX, AVG).
pub fn fig5b(res: &SweepResult) -> Table {
    let mut t = Table::new("Fig 5(b) - number of MCCs", &["faults", "max", "avg"]);
    for (fc, recs) in res.by_count() {
        let (max, avg) = max_avg(recs.iter().map(|r| r.fault_stats.mcc_count as f64));
        t.push_row(vec![fc.to_string(), f1(max), f1(avg)]);
    }
    t
}

/// Fig. 5(c): percentage of nodes involved in information propagation to
/// the total safe nodes, per model.
///
/// Two readings are reported: the **union** columns count every node that
/// carried *any* triple (the system-wide cost), the **1mcc** columns the
/// carriers of a single MCC's triple (max over MCCs, then max/avg over
/// configurations) — the reading under which the paper's "broadcast to
/// 20% of the safe nodes" remark is consistent.
pub fn fig5c(res: &SweepResult) -> Table {
    let mut t = Table::new(
        "Fig 5(c) - percentage of nodes involved in information propagation",
        &[
            "faults",
            "union_B1",
            "union_B2",
            "union_B3",
            "max1mcc_B1",
            "avg1mcc_B1",
            "max1mcc_B2",
            "avg1mcc_B2",
            "max1mcc_B3",
            "avg1mcc_B3",
        ],
    );
    for (fc, recs) in res.by_count() {
        let mut row = vec![fc.to_string()];
        for k in 0..3 {
            let (_, avg) = max_avg(recs.iter().map(|r| r.prop[k].involved_pct()));
            row.push(f1(avg));
        }
        for k in 0..3 {
            let (max, _) = max_avg(recs.iter().map(|r| r.prop[k].per_mcc_max_pct()));
            let (_, avg) = max_avg(recs.iter().map(|r| r.prop[k].per_mcc_avg_pct()));
            row.push(f1(max));
            row.push(f1(avg));
        }
        t.push_row(row);
    }
    t
}

/// Merges router aggregates across all configurations at one fault count.
fn merged_router(recs: &[crate::sweep::ConfigRecord], idx: usize) -> RouterAgg {
    let mut acc = RouterAgg::default();
    for r in recs {
        acc.merge(&r.routing[idx]);
    }
    acc
}

/// Fig. 5(d): percentage of success in finding the shortest path, for
/// RB1 / RB2 / RB3 (E-cube is not plotted in the paper's 5(d)).
pub fn fig5d(res: &SweepResult) -> Table {
    let mut t = Table::new(
        "Fig 5(d) - percentage of success in finding the shortest path",
        &["faults", "RB1", "RB2", "RB3"],
    );
    for (fc, recs) in res.by_count() {
        let mut row = vec![fc.to_string()];
        for idx in 1..4 {
            row.push(f1(merged_router(recs, idx).shortest_pct()));
        }
        t.push_row(row);
    }
    t
}

/// Fig. 5(e): relative error of the achieved routing path length to the
/// shortest-path length, for E-cube / RB1 / RB2 / RB3, over the pairs
/// each router delivered (the diagnostics' `*_del` columns); `-` where it
/// delivered none.
pub fn fig5e(res: &SweepResult) -> Table {
    let mut t = Table::new(
        "Fig 5(e) - relative error of routing path to the shortest path",
        &["faults", "E-cube", "RB1", "RB2", "RB3"],
    );
    for (fc, recs) in res.by_count() {
        let mut row = vec![fc.to_string()];
        for idx in 0..4 {
            row.push(merged_router(recs, idx).rel_err().map_or_else(|| "-".into(), f3));
        }
        t.push_row(row);
    }
    t
}

/// Extra (not in the paper): delivery rate and fallback counters, the
/// reproduction's internals.
pub fn diagnostics(res: &SweepResult) -> Table {
    let mut t = Table::new(
        "Diagnostics - delivery and planner internals",
        &[
            "faults",
            "pairs",
            "ecube_del",
            "rb1_del",
            "rb2_del",
            "rb3_del",
            "rb2_fallbacks",
            "rb3_fallbacks",
        ],
    );
    for (fc, recs) in res.by_count() {
        let m: Vec<RouterAgg> = (0..4).map(|i| merged_router(recs, i)).collect();
        t.push_row(vec![
            fc.to_string(),
            m[0].pairs.to_string(),
            m[0].delivered.to_string(),
            m[1].delivered.to_string(),
            m[2].delivered.to_string(),
            m[3].delivered.to_string(),
            m[2].fallbacks.to_string(),
            m[3].fallbacks.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepConfig};

    #[test]
    fn figures_from_smoke_sweep() {
        let cfg = SweepConfig { threads: 2, ..SweepConfig::smoke() };
        let res = run_sweep(&cfg);
        let figs = Fig5Data::from_sweep(&res);
        assert_eq!(figs.a.len(), cfg.fault_counts.len());
        assert_eq!(figs.b.len(), cfg.fault_counts.len());
        assert_eq!(figs.c.len(), cfg.fault_counts.len());
        assert_eq!(figs.d.len(), cfg.fault_counts.len());
        assert_eq!(figs.e.len(), cfg.fault_counts.len());
        // Zero-fault row: no disabled area, 100% success, zero error.
        let a_csv = figs.a.to_csv();
        let a0: Vec<&str> = a_csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(a0[1], "0.0");
        let d_csv = figs.d.to_csv();
        let d0: Vec<&str> = d_csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(d0[1], "100.0");
        assert_eq!(d0[2], "100.0");
        let e_csv = figs.e.to_csv();
        let e0: Vec<&str> = e_csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(e0[1], "0.000");
    }

    #[test]
    fn a_router_that_delivered_no_pair_reads_as_a_dash() {
        let cfg = SweepConfig {
            mesh: 8,
            fault_counts: vec![0],
            configs_per_point: 1,
            pairs_per_config: 2,
            threads: 1,
            ..Default::default()
        };
        let mut res = run_sweep(&cfg);
        // E-cube refused every pair: no error to average, not a perfect router.
        res.records[0][0].routing[0] = RouterAgg { pairs: 2, ..RouterAgg::default() };
        let e_csv = fig5e(&res).to_csv();
        assert_eq!(e_csv.lines().nth(1), Some("0,-,0.000,0.000,0.000"));
    }

    #[test]
    fn diagnostics_table_shape() {
        let cfg = SweepConfig { threads: 2, ..SweepConfig::smoke() };
        let res = run_sweep(&cfg);
        let diag = diagnostics(&res);
        assert_eq!(diag.len(), cfg.fault_counts.len());
    }
}
