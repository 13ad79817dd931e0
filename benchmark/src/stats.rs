//! Order statistics with the benchmark's percentile discipline.

use crate::json::Json;

/// Sorts ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A timing summarised as the benchmark reports timings: the median,
/// the highest percentile that still has at least ten samples beyond
/// it, and the sample count beside them — so 78 updates ship with a
/// p87, not a fictional p99.
#[derive(Clone, Debug)]
pub struct Timing {
    pub samples: usize,
    pub p50: f64,
    /// The supported tail percentile (50.0 when fewer than 20 samples).
    pub hi_pct: f64,
    pub hi: f64,
}

impl Timing {
    pub fn of(values: Vec<f64>) -> Timing {
        let s = sorted(values);
        let n = s.len();
        assert!(n > 0, "timing summary of an empty sample");
        // The largest whole percentile p (capped at 99.9) with
        // n * (1 - p/100) >= 10 samples beyond it.
        let hi_pct = if n < 20 {
            50.0
        } else {
            let beyond = 10.0 / n as f64;
            let p = 100.0 * (1.0 - beyond);
            if p >= 99.9 {
                99.9
            } else {
                p.floor().max(50.0)
            }
        };
        let p50 = median(&s);
        let hi = if hi_pct > 50.0 { percentile(&s, hi_pct) } else { p50 };
        Timing { samples: n, p50, hi_pct, hi }
    }

    /// `{samples, p50, hi_pct, hi}` with a unit label.
    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj()
            .with("unit", unit)
            .with("samples", self.samples)
            .with("p50", self.p50)
            .with("hi_pct", self.hi_pct)
            .with("hi", self.hi)
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them; needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let t = Timing::of((0..78).map(f64::from).collect());
        assert_eq!(t.hi_pct, 87.0);
        assert_eq!(Timing::of(vec![1.0; 5]).hi_pct, 50.0);
        assert_eq!(Timing::of(vec![1.0; 1000]).hi_pct, 99.0);
        assert_eq!(Timing::of(vec![1.0; 100_000]).hi_pct, 99.9);
    }
}
