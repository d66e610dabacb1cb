//! Streaming statistics for simulation measurement.
//!
//! Simulations in this workspace produce millions of latency samples; these
//! collectors keep O(1)–O(log) state per sample: Welford mean/variance
//! ([`OnlineStats`]) and a log-bucketed latency histogram with percentile
//! queries ([`Histogram`]).

use serde::{Deserialize, Serialize};

/// Welford online mean / variance / extrema accumulator.
///
/// # Examples
///
/// ```
/// use nvhsm_sim::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] { s.add(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-bucketed histogram over non-negative values with percentile queries.
///
/// Buckets grow geometrically from `min_value` with `BUCKETS_PER_DECADE`
/// buckets per decade, giving ~2.9 % relative resolution — plenty for latency
/// distribution shape and tail percentiles.
///
/// # Examples
///
/// ```
/// use nvhsm_sim::Histogram;
/// let mut h = Histogram::new();
/// for i in 1..=1000 { h.add(i as f64); }
/// let p50 = h.percentile(50.0);
/// assert!((400.0..600.0).contains(&p50));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    stats: OnlineStats,
}

impl Histogram {
    const MIN_VALUE: f64 = 1.0;
    const BUCKETS_PER_DECADE: f64 = 80.0;
    const NUM_BUCKETS: usize = 1040; // 13 decades

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; Self::NUM_BUCKETS],
            underflow: 0,
            total: 0,
            stats: OnlineStats::new(),
        }
    }

    fn bucket_of(value: f64) -> Option<usize> {
        if value < Self::MIN_VALUE {
            return None;
        }
        let idx = (value / Self::MIN_VALUE).log10() * Self::BUCKETS_PER_DECADE;
        Some((idx as usize).min(Self::NUM_BUCKETS - 1))
    }

    fn bucket_value(idx: usize) -> f64 {
        Self::MIN_VALUE * 10f64.powf((idx as f64 + 0.5) / Self::BUCKETS_PER_DECADE)
    }

    /// Adds one non-negative sample. Negative samples are clamped to zero.
    pub fn add(&mut self, value: f64) {
        let value = value.max(0.0);
        self.total += 1;
        self.stats.add(value);
        match Self::bucket_of(value) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Largest sample seen.
    pub fn max(&self) -> Option<f64> {
        self.stats.max()
    }

    /// Approximate value at percentile `p` in `[0, 100]`; 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        debug_assert!((0.0..=100.0).contains(&p));
        if self.total == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return 0.0;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i);
            }
        }
        self.stats.max().unwrap_or(0.0)
    }

    /// Median latency (`percentile(50.0)`).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile (`percentile(95.0)`).
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile (`percentile(99.0)`).
    ///
    /// Every p99 the workspace reports is this one definition — harnesses
    /// must not re-derive tail percentiles from raw sample sorts.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
        self.stats.merge(&other.stats);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.add(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let empty = OnlineStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn histogram_percentiles_roughly_correct() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.add(i as f64);
        }
        for (p, expect) in [(50.0, 5_000.0), (90.0, 9_000.0), (99.0, 9_900.0)] {
            let got = h.percentile(p);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "p{p}: got {got}, expect {expect}");
        }
    }

    #[test]
    fn histogram_handles_small_and_zero() {
        let mut h = Histogram::new();
        h.add(0.0);
        h.add(0.5);
        h.add(-3.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(50.0), 0.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.add(10.0);
        b.add(1_000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(99.0) > 500.0);
    }

    proptest! {
        /// Welford mean matches a direct sum within floating tolerance.
        #[test]
        fn prop_mean_matches_direct(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let mut s = OnlineStats::new();
            for &x in &xs {
                s.add(x);
            }
            let direct = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((s.mean() - direct).abs() < 1e-6 * (1.0 + direct.abs()));
        }

        /// Percentile is monotone in p.
        #[test]
        fn prop_percentile_monotone(xs in proptest::collection::vec(1.0f64..1e6, 1..300)) {
            let mut h = Histogram::new();
            for &x in &xs {
                h.add(x);
            }
            let mut last = 0.0;
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
                let v = h.percentile(p);
                prop_assert!(v >= last, "p{p} gave {v} < {last}");
                last = v;
            }
        }
    }
}
