//! Log-bucketed histograms: the workhorse accumulator of the metrics
//! registry.
//!
//! A [`LogHistogram`] buckets `u64` samples by bit length — bucket 0
//! holds the value 0, bucket `b >= 1` holds values in
//! `[2^(b-1), 2^b)` — so it covers the full `u64` range in 65 fixed
//! buckets with O(1) recording and a commutative, associative
//! [`merge`](LogHistogram::merge). That merge law is what makes
//! per-shard accumulation deterministic: shards record independently
//! and the coordinator folds them in shard-index order, but *any*
//! order would report the same totals (pinned by a proptest below).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per `u64` bit length.
pub(crate) const LOG_BUCKETS: usize = 65;

/// Bucket index for a sample: 0 for 0, else the sample's bit length.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the largest value it can hold).
#[inline]
pub(crate) fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A fixed-size power-of-two-bucketed histogram with exact count, sum
/// and max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; LOG_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LogHistogram { buckets: [0; LOG_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-quantile (`p` in `[0, 1]`): the
    /// inclusive upper edge of the bucket holding the `ceil(count*p)`-th
    /// smallest sample, clamped to the exact recorded maximum.
    ///
    /// Bucketing makes this a bound, not an exact order statistic; the
    /// error is under 2x by construction (power-of-two buckets).
    ///
    /// # Panics
    ///
    /// If `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one. Commutative and
    /// associative: any merge order yields identical contents.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A relaxed-atomic hit/miss counter pair — the standard cache
/// instrument (route-cache hits in `meshpath`'s `RouteService`, or any
/// other memoized fast path). Concurrent writers never contend beyond
/// the two cache lines; readers snapshot with ordinary loads.
#[derive(Debug, Default)]
pub struct HitMiss {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl HitMiss {
    /// A zeroed counter pair.
    pub fn new() -> Self {
        HitMiss::default()
    }

    /// Records one hit.
    #[inline]
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one miss.
    #[inline]
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_miss_counts() {
        let hm = HitMiss::new();
        hm.hit();
        hm.miss();
        hm.hit();
        assert_eq!(hm.hits(), 2);
        assert_eq!(hm.misses(), 1);
    }

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(3), 7);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 5, 127, 128, 129, 1 << 40, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper(b));
            if b > 0 {
                assert!(v > bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn count_sum_max_mean_and_percentiles() {
        let mut h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
        // 5 samples: p=0.2 targets the 1st (value 0, bucket 0).
        assert_eq!(h.percentile(0.2), 0);
        // p=1.0 is clamped to the exact max, not the bucket edge (127).
        assert_eq!(h.percentile(1.0), 100);
        // The median sample is 2 (bucket [2,3], upper edge 3).
        assert_eq!(h.percentile(0.5), 3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_out_of_range() {
        LogHistogram::new().percentile(1.5);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in [5u64, 9, 1000] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 70_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    proptest! {
        // The deterministic-merge claim: folding per-shard histograms
        // in any order yields byte-identical contents.
        #[test]
        fn merge_order_never_changes_the_result(
            draw in (
                collection::vec(collection::vec(0u64..1_000_000, 0..32), 1..6),
                0usize..6,
            )
        ) {
            let (shards, rotate) = draw;
            let parts: Vec<LogHistogram> = shards
                .iter()
                .map(|vals| {
                    let mut h = LogHistogram::new();
                    for &v in vals {
                        h.record(v);
                    }
                    h
                })
                .collect();
            let fold = |order: &[usize]| {
                let mut acc = LogHistogram::new();
                for &i in order {
                    acc.merge(&parts[i]);
                }
                acc
            };
            let forward: Vec<usize> = (0..parts.len()).collect();
            let mut rotated = forward.clone();
            rotated.rotate_left(rotate % parts.len());
            let mut reversed = forward.clone();
            reversed.reverse();
            let base = fold(&forward);
            prop_assert_eq!(&fold(&rotated), &base);
            prop_assert_eq!(&fold(&reversed), &base);
        }
    }
}
