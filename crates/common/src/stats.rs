//! Statistical machinery for the veracity metrics of Section 5.1.
//!
//! The paper proposes two families of veracity metrics — raw-data vs fitted
//! model, and raw data vs synthetic data — and names Kullback–Leibler
//! divergence as the comparison statistic for distributions. This module
//! provides KL and its symmetric, bounded cousin Jensen–Shannon, plus the
//! Kolmogorov–Smirnov statistic used for table-column comparisons, and a
//! running [`Summary`] for scalar series.

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
}
