//! Statistics collection.
//!
//! Architectural models accumulate counts, maxima, ratios and small
//! histograms during simulation; the experiment harness reads them out at
//! the end of a run. All types here are plain accumulators — cheap to update
//! on hot paths and trivially mergeable across runs.

use std::fmt;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Folds another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.0 += other.0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Tracks the maximum of a stream of observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxTracker(u64);

impl MaxTracker {
    /// A tracker with maximum zero.
    pub fn new() -> Self {
        MaxTracker(0)
    }

    /// Observes a value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if v > self.0 {
            self.0 = v;
        }
    }

    /// The largest value observed so far (zero if none).
    #[inline]
    pub fn max(&self) -> u64 {
        self.0
    }

    /// Folds another tracker into this one.
    pub fn merge(&mut self, other: &MaxTracker) {
        self.observe(other.0);
    }
}

/// An online mean: a sum of observations and their count.
///
/// Used for per-request averages such as "validation-unit cycles per
/// metadata access" (Fig. 13) or "stalled requests per address" (Fig. 16).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RatioStat {
    sum: f64,
    n: u64,
}

impl RatioStat {
    /// An empty ratio.
    pub fn new() -> Self {
        RatioStat::default()
    }

    /// Observes one sample.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// The mean of all samples, or 0.0 if none were observed.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Folds another ratio into this one.
    pub fn merge(&mut self, other: &RatioStat) {
        self.sum += other.sum;
        self.n += other.n;
    }
}

/// A log-2-bucketed latency histogram.
///
/// Bucket 0 holds the value 0; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Observation is a branch and an increment, so the type
/// is safe on hot paths; percentiles come out as the *upper bound* of the
/// bucket containing the requested rank (an "at most" answer, the usual
/// reading for log-bucketed latency data). The exact sum and maximum are
/// tracked alongside the buckets, so `mean` and `max` stay precise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    n: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// The bucket index `v` falls into.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// The `[low, high]` inclusive value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.n += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of all observations (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Exact largest observed value (None if empty).
    pub fn max(&self) -> Option<u64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// The upper bound of the bucket containing the `p`-th percentile
    /// (`0.0 < p <= 1.0`), clamped to the exact maximum. Returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`LogHistogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (see [`LogHistogram::percentile`]).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (see [`LogHistogram::percentile`]).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Iterates `(bucket_low, bucket_high, count)` over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }

    /// Raw per-bucket counts, lowest bucket first (for serialization).
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from serialized parts. Trailing zero buckets are
    /// trimmed so equal data compares equal regardless of provenance.
    pub fn from_parts(mut buckets: Vec<u64>, sum: u64, max: u64) -> Self {
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let n = buckets.iter().sum();
        LogHistogram {
            buckets,
            n,
            sum,
            max,
        }
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += c;
        }
        self.n += other.n;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// A windowed time-series probe: a gauge sampled over fixed windows of
/// simulated time, keeping the *maximum* sample per window.
///
/// Queue depths and buffer occupancies are bursty; the per-window maximum
/// is what shows a backup that a mean would smear away. Windows nobody
/// sampled read as 0.0.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window: u64,
    points: Vec<f64>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(1024)
    }
}

impl TimeSeries {
    /// A series with `window` cycles per sample.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "time-series window must be positive");
        TimeSeries {
            window,
            points: Vec::new(),
        }
    }

    /// Cycles per sample window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Records a gauge sample at simulated time `cycle`.
    #[inline]
    pub fn record(&mut self, cycle: u64, value: f64) {
        let idx = (cycle / self.window) as usize;
        if idx >= self.points.len() {
            self.points.resize(idx + 1, 0.0);
        }
        if value > self.points[idx] {
            self.points[idx] = value;
        }
    }

    /// One point per window (maximum sample seen in that window).
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Largest point across all windows (0.0 if empty).
    pub fn peak(&self) -> f64 {
        self.points.iter().copied().fold(0.0, f64::max)
    }
}

/// Geometric mean of a slice of positive values; 0.0 for an empty slice.
///
/// Used for the "GMEAN" column of the paper's figures. Non-positive inputs
/// are skipped (they would otherwise poison the logarithm).
pub fn gmean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut d = Counter::new();
        d.add(10);
        c.merge(&d);
        assert_eq!(c.get(), 15);
        assert_eq!(c.to_string(), "15");
    }

    #[test]
    fn max_tracker() {
        let mut m = MaxTracker::new();
        assert_eq!(m.max(), 0);
        m.observe(3);
        m.observe(1);
        assert_eq!(m.max(), 3);
        let mut n = MaxTracker::new();
        n.observe(9);
        m.merge(&n);
        assert_eq!(m.max(), 9);
    }

    #[test]
    fn ratio_stat_mean() {
        let mut r = RatioStat::new();
        assert_eq!(r.mean(), 0.0);
        r.observe(1.0);
        r.observe(3.0);
        assert_eq!(r.mean(), 2.0);
        assert_eq!(r.count(), 2);
        let mut s = RatioStat::new();
        s.observe(8.0);
        r.merge(&s);
        assert_eq!(r.count(), 3);
        assert_eq!(r.mean(), 4.0);
    }

    #[test]
    fn log_histogram_bucket_boundaries() {
        // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i).
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(7), 3);
        assert_eq!(LogHistogram::bucket_of(8), 4);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_bounds(0), (0, 0));
        assert_eq!(LogHistogram::bucket_bounds(1), (1, 1));
        assert_eq!(LogHistogram::bucket_bounds(4), (8, 15));
        // Every power of two starts a fresh bucket.
        for i in 1..63 {
            let v = 1u64 << i;
            assert_eq!(
                LogHistogram::bucket_of(v),
                LogHistogram::bucket_of(v - 1) + 1
            );
            assert_eq!(LogHistogram::bucket_bounds(LogHistogram::bucket_of(v)).0, v);
        }
    }

    #[test]
    fn log_histogram_percentiles_and_mean() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), None);
        for _ in 0..98 {
            h.observe(1);
        }
        h.observe(20);
        h.observe(100);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p95(), 1);
        // 99th rank lands in bucket [16,31].
        assert_eq!(h.p99(), 31);
        assert_eq!(h.max(), Some(100));
        // Percentile never exceeds the exact max even at the top bucket.
        assert_eq!(h.percentile(1.0), 100);
        assert!((h.mean() - (98.0 + 20.0 + 100.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_merge_and_round_trip() {
        let mut a = LogHistogram::new();
        a.observe(0);
        a.observe(3);
        let mut b = LogHistogram::new();
        b.observe(3);
        b.observe(500);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 506);
        assert_eq!(a.max(), Some(500));
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![(0, 0, 1), (2, 3, 2), (256, 511, 1)]
        );
        // Serialization round trip through raw parts is lossless.
        let back =
            LogHistogram::from_parts(a.raw_buckets().to_vec(), a.sum(), a.max().unwrap_or(0));
        assert_eq!(back, a);
    }

    #[test]
    fn time_series_windows_keep_max() {
        let mut t = TimeSeries::new(100);
        t.record(5, 1.0);
        t.record(99, 3.0);
        t.record(50, 2.0);
        t.record(250, 7.0);
        assert_eq!(t.points(), &[3.0, 0.0, 7.0]);
        assert_eq!(t.peak(), 7.0);
        assert_eq!(t.window(), 100);
    }

    #[test]
    fn gmean_values() {
        assert_eq!(gmean(&[]), 0.0);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // zeros and negatives are skipped
        assert!((gmean(&[2.0, 8.0, 0.0, -1.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
