//! Statistical machinery for the veracity metrics of Section 5.1.
//!
//! The paper proposes two families of veracity metrics — raw-data vs fitted
//! model, and raw data vs synthetic data — and names Kullback–Leibler
//! divergence as the comparison statistic for distributions. This module
//! provides KL and its symmetric, bounded cousin Jensen–Shannon, plus the
//! chi-square and Kolmogorov–Smirnov statistics used for table-column
//! comparisons, and a running [`Summary`] for scalar series.

/// Kullback–Leibler divergence `D(p ‖ q)` in nats.
///
/// Zero-probability buckets in `q` with non-zero `p` would be infinite, so
/// both distributions are smoothed with a small epsilon mass and
/// renormalised — the standard remedy when comparing empirical histograms.
///
/// # Panics
/// Panics when the slices have different lengths or are empty.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    assert!(!p.is_empty(), "empty distributions");
    const EPS: f64 = 1e-10;
    let ps: f64 = p.iter().sum::<f64>() + EPS * p.len() as f64;
    let qs: f64 = q.iter().sum::<f64>() + EPS * q.len() as f64;
    let mut d = 0.0;
    for (&pi, &qi) in p.iter().zip(q.iter()) {
        let pp = (pi + EPS) / ps;
        let qq = (qi + EPS) / qs;
        d += pp * (pp / qq).ln();
    }
    d.max(0.0)
}

/// Jensen–Shannon divergence: symmetric, bounded by `ln 2`.
///
/// Preferred for reporting veracity scores because it is comparable across
/// data types (a JS of 0.01 means "very close" whether the distributions
/// are word frequencies or vertex degrees).
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let m: Vec<f64> = p.iter().zip(q.iter()).map(|(a, b)| 0.5 * (a + b)).collect();
    0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m)
}

/// Share of `samples` in each of `n` equal-width buckets over `[lo, hi)`.
///
/// Out-of-range samples are clamped into the first/last bucket (the
/// float-to-`usize` cast saturates), so the shares sum to 1 (all zeros for
/// an empty sample). This is the input shape for the KL/JS divergence
/// veracity metrics: bucket the raw and the synthetic data over identical
/// bounds, then compare the two pmfs.
///
/// # Panics
/// Panics when the range is empty or `n == 0`.
pub fn bucket_pmf(samples: &[f64], lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo < hi && n > 0, "bad bucket shape");
    let mut pmf = vec![0.0; n];
    for &x in samples {
        pmf[((((x - lo) / (hi - lo)) * n as f64) as usize).min(n - 1)] += 1.0;
    }
    let count = samples.len() as f64;
    pmf.iter_mut().for_each(|c| *c /= count.max(1.0));
    pmf
}

/// Pearson chi-square statistic of observed counts against expected counts.
///
/// Buckets with zero expectation are skipped (they contribute no evidence).
///
/// # Panics
/// Panics when lengths differ.
pub fn chi_square_statistic(observed: &[f64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len(), "length mismatch");
    observed
        .iter()
        .zip(expected.iter())
        .filter(|(_, &e)| e > 0.0)
        .map(|(&o, &e)| (o - e) * (o - e) / e)
        .sum()
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum distance between
/// the empirical CDFs of two scalar samples.
///
/// Returns 0 when either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut xa = a.to_vec();
    let mut xb = b.to_vec();
    xa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    xb.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xa.len() && j < xb.len() {
        let x = xa[i].min(xb[j]);
        while i < xa.len() && xa[i] <= x {
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

/// Two-sided 95% critical value of Student's t-distribution with `df`
/// degrees of freedom.
///
/// Exact table values for `df <= 30`, the usual coarse steps up to 120,
/// and the normal limit 1.96 beyond — the repeated-sampling bench takes
/// 5–100 samples per hot path, so the table region is the hot region.
/// `df == 0` (a single sample carries no spread information) returns
/// infinity: a one-sample confidence interval is unbounded.
pub fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df as usize - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// Median of a sample (averages the two central order statistics for
/// even sizes). Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median absolute deviation: the median of `|x - median(xs)|`.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&devs)
}

/// MAD-based outlier classification: `true` marks an outlier.
///
/// A sample is an outlier when its absolute deviation from the median
/// exceeds `k` scaled MADs (the MAD is scaled by 1.4826 so `k` reads as
/// "standard deviations under normality"; `k = 3.5` is the conventional
/// conservative cut). Two guards keep the classifier honest on the small
/// samples a bench run produces:
///
/// * a degenerate spread (MAD ≈ 0, e.g. all samples equal) classifies
///   nothing — with no spread estimate every deviation would be infinite
///   sigmas out;
/// * at most `floor((n-1)/2)` samples are ever classified out (the worst
///   deviations win), so the classifier never drops half the sample or
///   more.
pub fn classify_outliers(xs: &[f64], k: f64) -> Vec<bool> {
    let n = xs.len();
    let mut flags = vec![false; n];
    if n < 3 {
        return flags;
    }
    let m = median(xs);
    let scaled_mad = 1.4826 * mad(xs);
    if scaled_mad <= 1e-12_f64.max(1e-9 * m.abs()) {
        return flags;
    }
    let threshold = k * scaled_mad;
    let mut candidates: Vec<(usize, f64)> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| (i, (x - m).abs()))
        .filter(|(_, d)| *d > threshold)
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (i, _) in candidates.into_iter().take((n - 1) / 2) {
        flags[i] = true;
    }
    flags
}

/// Summary statistics of one repeated-measurement sample, with a
/// t-distribution 95% confidence interval on the mean.
///
/// Unlike [`Summary`] (population moments for streaming series), this is
/// the inferential view the bench ledger stores: the *sample* standard
/// deviation (n−1 denominator) and `mean ± t₀.₉₅(n−1) · s/√n` bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Lower 95% confidence bound on the mean.
    pub ci_lo: f64,
    /// Upper 95% confidence bound on the mean.
    pub ci_hi: f64,
}

impl SampleStats {
    /// Compute the statistics of a non-empty sample.
    ///
    /// A single observation has no spread estimate: its interval
    /// degenerates to the point itself (`ci_lo == ci_hi == mean`), which
    /// keeps single-shot legacy ledgers comparable — significance then
    /// rests entirely on the other run's interval and the effect floor.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "empty sample");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if n < 2 {
            return Self { n: 1, mean, stddev: 0.0, min, max, ci_lo: mean, ci_hi: mean };
        }
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        let stddev = var.sqrt();
        let half_width = t_critical_95(n as u64 - 1) * stddev / (n as f64).sqrt();
        Self {
            n: n as u64,
            mean,
            stddev,
            min,
            max,
            ci_lo: mean - half_width,
            ci_hi: mean + half_width,
        }
    }

    /// Width of the 95% confidence interval.
    pub fn ci_width(&self) -> f64 {
        self.ci_hi - self.ci_lo
    }
}

/// Running summary statistics (Welford's online algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Build a summary from a slice.
    pub fn of(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.record(x);
        }
        s
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another summary (parallel collection).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_of_identical_distributions_is_near_zero() {
        let p = vec![0.25, 0.25, 0.25, 0.25];
        let d = kl_divergence(&p, &p);
        assert!(d < 1e-9, "kl {d}");
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = vec![0.9, 0.1];
        let q = vec![0.1, 0.9];
        assert!(kl_divergence(&p, &q) > 0.5);
    }

    #[test]
    fn kl_is_asymmetric() {
        let p = vec![0.8, 0.15, 0.05];
        let q = vec![0.4, 0.4, 0.2];
        let d1 = kl_divergence(&p, &q);
        let d2 = kl_divergence(&q, &p);
        assert!((d1 - d2).abs() > 1e-6);
    }

    #[test]
    fn kl_handles_zero_buckets() {
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 1.0];
        let d = kl_divergence(&p, &q);
        assert!(d.is_finite() && d > 1.0);
    }

    #[test]
    fn js_is_symmetric_and_bounded() {
        let p = vec![1.0, 0.0, 0.0];
        let q = vec![0.0, 0.0, 1.0];
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        assert!((d1 - d2).abs() < 1e-9);
        assert!(d1 <= 2f64.ln() + 1e-6, "js {d1}");
        assert!(js_divergence(&p, &p) < 1e-9);
    }

    #[test]
    fn bucket_pmf_normalises() {
        let pmf = bucket_pmf(&[0.5, 0.6, 2.5], 0.0, 4.0, 4);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pmf[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(bucket_pmf(&[], 0.0, 4.0, 4), vec![0.0; 4]);
    }

    #[test]
    fn bucket_pmf_clamps_out_of_range() {
        let pmf = bucket_pmf(&[-5.0, 99.0], 0.0, 1.0, 4);
        assert_eq!(pmf, vec![0.5, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn chi_square_zero_for_exact_match() {
        let o = vec![10.0, 20.0, 30.0];
        assert_eq!(chi_square_statistic(&o, &o), 0.0);
        assert!(chi_square_statistic(&[15.0, 25.0, 20.0], &o) > 0.0);
    }

    #[test]
    fn chi_square_skips_zero_expectation() {
        let stat = chi_square_statistic(&[5.0, 1.0], &[5.0, 0.0]);
        assert_eq!(stat, 0.0);
    }

    #[test]
    fn ks_identical_samples_zero() {
        let a = vec![1.0, 2.0, 3.0];
        assert_eq!(ks_statistic(&a, &a), 0.0);
    }

    #[test]
    fn ks_disjoint_samples_one() {
        let a = vec![1.0, 2.0];
        let b = vec![10.0, 20.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_empty_sample_zero() {
        assert_eq!(ks_statistic(&[], &[1.0]), 0.0);
    }

    #[test]
    fn summary_moments() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_merge_matches_bulk() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let bulk = Summary::of(&xs);
        let mut a = Summary::of(&xs[..37]);
        let b = Summary::of(&xs[37..]);
        a.merge(&b);
        assert_eq!(a.count(), bulk.count());
        assert!((a.mean() - bulk.mean()).abs() < 1e-9);
        assert!((a.variance() - bulk.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        let b = Summary::of(&[5.0]);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 5.0);
        let mut c = Summary::of(&[5.0]);
        c.merge(&Summary::new());
        assert_eq!(c.count(), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn kl_rejects_length_mismatch() {
        let _ = kl_divergence(&[0.5, 0.5], &[1.0]);
    }

    #[test]
    fn t_critical_decreases_toward_normal_limit() {
        assert!(t_critical_95(0).is_infinite());
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(4) - 2.776).abs() < 1e-9);
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t must be non-increasing in df");
            prev = t;
        }
        assert_eq!(t_critical_95(10_000), 1.960);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mad(&[1.0, 1.0, 1.0]), 0.0);
        // median 2, deviations {1, 0, 1} -> MAD 1
        assert_eq!(mad(&[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn outlier_classification_flags_the_spike() {
        let xs = [10.0, 10.1, 9.9, 10.05, 100.0];
        let flags = classify_outliers(&xs, 3.5);
        assert_eq!(flags, vec![false, false, false, false, true]);
    }

    #[test]
    fn outlier_classification_degenerate_spread_flags_nothing() {
        // MAD is 0 (majority identical): without a spread estimate,
        // nothing is classified out, even the far point.
        let xs = [5.0, 5.0, 5.0, 5.0, 50.0];
        assert!(classify_outliers(&xs, 3.5).iter().all(|&f| !f));
        assert!(classify_outliers(&[1.0, 2.0], 3.5).iter().all(|&f| !f));
    }

    #[test]
    fn outlier_classification_never_drops_half() {
        // Three far points in a sample of five, but only (5-1)/2 = 2 may go.
        let xs = [10.0, 10.1, 9.9, 1000.0, 2000.0, 3000.0];
        let dropped = classify_outliers(&xs, 3.5).iter().filter(|&&f| f).count();
        assert!(dropped <= (xs.len() - 1) / 2, "dropped {dropped}");
    }

    #[test]
    fn sample_stats_ci_contains_mean() {
        let s = SampleStats::from_samples(&[10.0, 11.0, 9.0, 10.5, 9.5]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 10.0).abs() < 1e-9);
        assert!(s.ci_lo <= s.mean && s.mean <= s.ci_hi);
        assert!(s.min <= s.ci_lo || s.stddev > 0.0);
        assert!(s.stddev > 0.0);
    }

    #[test]
    fn sample_stats_single_observation_is_a_point() {
        let s = SampleStats::from_samples(&[42.0]);
        assert_eq!((s.ci_lo, s.ci_hi, s.stddev), (42.0, 42.0, 0.0));
    }

    #[test]
    fn sample_stats_ci_width_shrinks_with_n() {
        // Same spread pattern at two sample sizes: the t/sqrt(n) factor
        // must tighten the interval.
        let small: Vec<f64> = (0..5).map(|i| 100.0 + (i as f64).sin() * 5.0).collect();
        let large: Vec<f64> = (0..50).map(|i| 100.0 + (i as f64).sin() * 5.0).collect();
        let ws = SampleStats::from_samples(&small).ci_width();
        let wl = SampleStats::from_samples(&large).ci_width();
        assert!(wl < ws, "width(50)={wl} must be < width(5)={ws}");
    }
}
