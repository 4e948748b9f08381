//! Statistics used across the reproduction:
//!
//! * [`RunningStats`] — streaming min/max/mean/std (Welford), the format of
//!   Table II (syscall-overhead measurements);
//! * [`percentile`] / [`PercentileEstimator`] — high-percentile threshold
//!   learning for the anomaly detector (§IV.C: thresholds are the
//!   99.8–99.9th percentile of instant velocities over 600 fault-free runs);
//! * [`TopTail`] — the same percentiles from only the top values of a
//!   stream, so training over many runs keeps `O(T)` values, not every one;
//! * [`ConfusionMatrix`] — ACC/TPR/FPR/precision/F1, the metrics of Table IV.

use serde::{Deserialize, Serialize};

/// Streaming summary statistics over a sequence of samples.
///
/// Uses Welford's algorithm, so it is numerically stable over millions of
/// samples (Table II aggregates 50,000 syscall timings per configuration).
///
/// # Example
///
/// ```
/// use raven_math::stats::RunningStats;
///
/// let stats: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(stats.mean(), 5.0);
/// assert!((stats.population_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
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

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; `-∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population standard deviation (divides by `n`); `0.0` for fewer than
    /// two samples.
    pub fn population_std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Sample standard deviation (divides by `n - 1`); `0.0` for fewer than
    /// two samples.
    pub fn sample_std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl std::fmt::Display for RunningStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.3} max={:.3} mean={:.3} std={:.3}",
            self.count,
            self.min(),
            self.max(),
            self.mean(),
            self.sample_std()
        )
    }
}

/// Linear-interpolation percentile of a sample set.
///
/// `p` is in percent, e.g. `99.8`. The samples need not be sorted.
///
/// Returns `None` when `samples` is empty or `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// use raven_math::stats::percentile;
///
/// let v: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(percentile(&v, 50.0), Some(50.5));
/// assert_eq!(percentile(&v, 100.0), Some(100.0));
/// ```
#[expect(
    clippy::expect_used,
    reason = "percentile inputs are residuals and latencies already checked finite upstream; \
              a NaN here is corrupted detector state and must fail loudly, not be ordered"
)]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_sorted(&sorted, p))
}

/// Percentile of an already-sorted (ascending) sample set.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    interpolate(sorted.len(), p, |rank| sorted[rank])
}

/// [`percentile_sorted`]'s interpolation over `n ≥ 1` ascending samples,
/// reading the value of rank `r` (0 = smallest) as `at(r)`.
fn interpolate(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 1 {
        return at(0);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    at(lo) + (at(hi.min(n - 1)) - at(lo)) * frac
}

/// Accumulates samples and answers percentile queries; a detector's
/// per-session threshold learner keeps one per feature.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PercentileEstimator {
    samples: Vec<f64>,
}

impl PercentileEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample. Non-finite samples are ignored (sensor glitches must
    /// not poison the learned threshold).
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
        }
    }

    /// Number of accepted samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been accepted.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile, or `None` when empty or `p ∉ [0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.samples, p)
    }

    /// Midpoint of the band `[p_lo, p_hi]` — the paper picks thresholds
    /// "between the 99.8–99.9th percentiles" (§IV.C).
    pub fn percentile_band(&self, p_lo: f64, p_hi: f64) -> Option<f64> {
        Some(0.5 * (self.percentile(p_lo)? + self.percentile(p_hi)?))
    }

    /// The accepted samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The largest values of a sample stream: exactly the ones every
/// percentile at or above `p_min` reads, for a stream of at most `max_len`
/// samples.
///
/// The `p`-th percentile of `n` samples reads ranks `⌊p/100·(n−1)⌋` and
/// up, so it needs the top `T(n) = n − ⌊p/100·(n−1)⌋` values. `T` never
/// decreases as `n` grows (the floor rises by at most one per sample), so
/// the top `T(max_len)` cover `p_min` — and any `p ≥ p_min` — at every
/// `n ≤ max_len`. A tail keeps at least those values and drops the rest as
/// they arrive; memory is `O(T)`, not `O(n)`. The kept values sit at
/// their ranks of the whole stream, so a band read from the tail is
/// [`PercentileEstimator::percentile_band`] of the whole stream, bit for
/// bit — except that the tail ranks `-0.0` below `+0.0`, where the
/// estimator keeps their arrival order.
///
/// # Example
///
/// ```
/// use raven_math::stats::{PercentileEstimator, TopTail};
///
/// let stream: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1009)).collect();
/// let mut tail = TopTail::new(99.0, stream.len());
/// tail.extend(stream.iter().copied());
/// let all: PercentileEstimator = stream.iter().copied().collect();
/// assert_eq!(tail.percentile_band(99.0, 99.5), all.percentile_band(99.0, 99.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopTail {
    /// The largest values seen, in no order: at least the top `capacity`
    /// (all of them while fewer have arrived), at most twice that.
    kept: Vec<f64>,
    /// `T(max_len)`.
    capacity: usize,
    /// The smallest kept value after the last trim: a later value at or
    /// below it cannot enter the top `capacity`.
    floor: f64,
    /// Finite samples accepted: the `n` the percentile ranks count.
    len: usize,
}

impl TopTail {
    /// A tail for percentiles at or above `p_min` of at most `max_len`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is zero or `p_min ∉ [0, 100]`.
    pub fn new(p_min: f64, max_len: usize) -> Self {
        assert!(max_len > 0, "a tail needs room for one sample");
        assert!((0.0..=100.0).contains(&p_min), "percentile {p_min} outside [0, 100]");
        // The lowest rank `p_min` reads at `max_len` samples, as in `interpolate`.
        let capacity = max_len - (p_min / 100.0 * (max_len - 1) as f64).floor() as usize;
        TopTail { kept: Vec::new(), capacity, floor: f64::NEG_INFINITY, len: 0 }
    }

    /// Adds one sample. Non-finite samples are ignored, as by
    /// [`PercentileEstimator::push`].
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.len += 1;
        if x <= self.floor {
            return;
        }
        self.kept.push(x);
        if self.kept.len() == 2 * self.capacity {
            // Keep the top `capacity`, largest first.
            let last = self.capacity - 1;
            self.kept.select_nth_unstable_by(last, |a, b| b.total_cmp(a));
            self.kept.truncate(self.capacity);
            self.floor = self.kept[last];
        }
    }

    /// Midpoint of the band `[p_lo, p_hi]` of every accepted sample, as
    /// [`PercentileEstimator::percentile_band`] computes it; `None` when
    /// empty or either end leaves `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics when the band reads below the kept values: an end is under
    /// the tail's `p_min`, or more than `max_len` samples arrived.
    pub fn percentile_band(&self, p_lo: f64, p_hi: f64) -> Option<f64> {
        let valid = |p: f64| (0.0..=100.0).contains(&p);
        if self.len == 0 || !valid(p_lo) || !valid(p_hi) {
            return None;
        }
        let mut top = self.kept.clone();
        top.sort_unstable_by(f64::total_cmp);
        let offset = self.len - top.len();
        let at = |rank: usize| {
            assert!(
                rank >= offset,
                "percentile reads rank {rank} of {}, but only the top {} values are kept",
                self.len,
                top.len()
            );
            top[rank - offset]
        };
        Some(0.5 * (interpolate(self.len, p_lo, at) + interpolate(self.len, p_hi, at)))
    }
}

impl Extend<f64> for TopTail {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl Extend<f64> for PercentileEstimator {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for PercentileEstimator {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut e = PercentileEstimator::new();
        e.extend(iter);
        e
    }
}

/// Binary-classification confusion matrix and derived metrics, as reported in
/// Table IV of the paper (ACC, TPR, FPR, F1; all in percent there).
///
/// # Example
///
/// ```
/// use raven_math::stats::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::default();
/// cm.record(true, true);   // detected attack: TP
/// cm.record(true, false);  // missed attack:  FN
/// cm.record(false, false); // quiet run:      TN
/// cm.record(false, true);  // false alarm:    FP
/// assert_eq!(cm.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// True positives: attack present and alarm raised.
    pub tp: u64,
    /// False negatives: attack present, no alarm.
    pub fn_: u64,
    /// False positives: no attack, alarm raised.
    pub fp: u64,
    /// True negatives: no attack, no alarm.
    pub tn: u64,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one labeled outcome.
    pub fn record(&mut self, attack_present: bool, alarm_raised: bool) {
        match (attack_present, alarm_raised) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Total outcomes recorded.
    pub fn total(&self) -> u64 {
        self.tp + self.fn_ + self.fp + self.tn
    }

    /// Accuracy `(TP + TN) / total`, or `0.0` when empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// True-positive rate (recall) `TP / (TP + FN)`, or `0.0` when no
    /// positives were recorded.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False-positive rate `FP / (FP + TN)`, or `0.0` when no negatives were
    /// recorded.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Precision `TP / (TP + FP)`, or `0.0` when no alarms were raised.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// F1 score (harmonic mean of precision and recall), or `0.0` when
    /// undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.tpr();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fn_ += other.fn_;
        self.fp += other.fp;
        self.tn += other.tn;
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ACC={:.1}% TPR={:.1}% FPR={:.1}% F1={:.1}% (tp={} fn={} fp={} tn={})",
            self.accuracy() * 100.0,
            self.tpr() * 100.0,
            self.fpr() * 100.0,
            self.f1() * 100.0,
            self.tp,
            self.fn_,
            self.fp,
            self.tn
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean absolute error between two equal-length series.
///
/// Returns `None` when the series lengths differ or are zero.
pub fn mean_absolute_error(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.is_empty() {
        return None;
    }
    Some(a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_known_values() {
        let s: RunningStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.population_std() - (1.25_f64).sqrt()).abs() < 1e-12);
        assert!((s.sample_std() - (5.0_f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_std(), 0.0);
        let mut s = RunningStats::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.sample_std(), 0.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let all: RunningStats = xs.iter().copied().collect();
        let mut a: RunningStats = xs[..37].iter().copied().collect();
        let b: RunningStats = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_std() - all.sample_std()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 50.0), Some(25.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 101.0), None);
        assert_eq!(percentile(&v, -1.0), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&v, 50.0), Some(25.0));
    }

    #[test]
    fn percentile_estimator_ignores_non_finite() {
        let mut e = PercentileEstimator::new();
        e.extend([1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.percentile(100.0), Some(3.0));
    }

    #[test]
    fn percentile_band_is_midpoint() {
        let e: PercentileEstimator = (1..=1000).map(f64::from).collect();
        let band = e.percentile_band(99.8, 99.9).unwrap();
        let lo = e.percentile(99.8).unwrap();
        let hi = e.percentile(99.9).unwrap();
        assert!((band - 0.5 * (lo + hi)).abs() < 1e-12);
        assert!(band > lo && band < hi);
    }

    #[test]
    fn percentile_monotone_in_p() {
        let e: PercentileEstimator = (0..500).map(|i| ((i * 7919) % 503) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = e.percentile(p).unwrap();
            assert!(v >= last, "percentile not monotone at p={p}");
            last = v;
        }
    }

    #[test]
    fn top_tail_matches_the_whole_stream() {
        let stream: Vec<f64> = (0..5_000).map(|i| f64::from((i * 7919) % 503)).collect();
        for (p_min, max_len) in [(99.8, 5_000), (95.0, 5_000), (99.8, 20_000), (0.0, 5_000)] {
            let mut tail = TopTail::new(p_min, max_len);
            for (n, &x) in stream.iter().enumerate() {
                tail.push(x);
                assert_eq!(tail.len, n + 1);
                assert!(tail.kept.len() < 2 * tail.capacity);
            }
            for p in [p_min, 0.5 * (p_min + 100.0), 100.0] {
                let want = percentile(&stream, p).unwrap();
                assert_eq!(tail.percentile_band(p, p).unwrap().to_bits(), want.to_bits(), "p={p}");
            }
            let band = PercentileEstimator::from_iter(stream.iter().copied())
                .percentile_band(p_min, 100.0)
                .unwrap();
            assert_eq!(tail.percentile_band(p_min, 100.0).unwrap().to_bits(), band.to_bits());
        }
    }

    #[test]
    fn top_tail_capacity_is_the_top_ranks_of_max_len() {
        // 5 000 − ⌊0.998 · 4 999⌋ = 5 000 − 4 989.
        assert_eq!(TopTail::new(99.8, 5_000).capacity, 11);
        assert_eq!(TopTail::new(100.0, 5_000).capacity, 1);
        assert_eq!(TopTail::new(0.0, 5_000).capacity, 5_000);
        assert_eq!(TopTail::new(50.0, 1).capacity, 1);
    }

    #[test]
    fn top_tail_edges() {
        let mut tail = TopTail::new(99.0, 10);
        assert_eq!(tail.percentile_band(99.0, 99.0), None);
        tail.extend([f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(tail.len, 1);
        assert_eq!(tail.percentile_band(99.0, 100.0), Some(3.0));
        assert_eq!(tail.percentile_band(99.0, 101.0), None);
        assert_eq!(tail.percentile_band(99.0, -1.0), None);
    }

    #[test]
    #[should_panic(expected = "only the top")]
    fn top_tail_refuses_a_rank_it_dropped() {
        let mut tail = TopTail::new(99.0, 1_000);
        tail.extend((0..1_000).map(f64::from));
        let _ = tail.percentile_band(50.0, 99.0);
    }

    #[test]
    fn confusion_matrix_metrics() {
        let cm = ConfusionMatrix { tp: 90, fn_: 10, fp: 20, tn: 80 };
        assert!((cm.accuracy() - 0.85).abs() < 1e-12);
        assert!((cm.tpr() - 0.9).abs() < 1e-12);
        assert!((cm.fpr() - 0.2).abs() < 1e-12);
        assert!((cm.precision() - 90.0 / 110.0).abs() < 1e-12);
        let p = 90.0 / 110.0;
        let r = 0.9;
        assert!((cm.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrix_degenerate_cases() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.tpr(), 0.0);
        assert_eq!(cm.fpr(), 0.0);
        assert_eq!(cm.f1(), 0.0);
        // Only negatives: TPR undefined -> 0, FPR well-defined.
        let mut cm = ConfusionMatrix::new();
        cm.record(false, true);
        cm.record(false, false);
        assert_eq!(cm.fpr(), 0.5);
        assert_eq!(cm.tpr(), 0.0);
    }

    #[test]
    fn confusion_matrix_merge() {
        let mut a = ConfusionMatrix { tp: 1, fn_: 2, fp: 3, tn: 4 };
        a.merge(&ConfusionMatrix { tp: 10, fn_: 20, fp: 30, tn: 40 });
        assert_eq!(a, ConfusionMatrix { tp: 11, fn_: 22, fp: 33, tn: 44 });
    }

    #[test]
    fn mae_basics() {
        assert_eq!(mean_absolute_error(&[1.0, 2.0], &[2.0, 4.0]), Some(1.5));
        assert_eq!(mean_absolute_error(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(mean_absolute_error(&[], &[]), None);
    }
}
