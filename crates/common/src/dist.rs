//! Statistical distributions used by the 4V data generators.
//!
//! The paper's survey (Table 1) observes that most suites generate data from
//! "traditional synthetic distributions such as a Gaussian distribution"
//! (TPC-DS/MUDD) while veracity-aware suites fit models to real data. Both
//! styles need a common sampler vocabulary, provided here:
//!
//! * [`Zipf`] — the skewed key-popularity law used by YCSB and LinkBench.
//! * [`Gaussian`], [`LogNormal`], [`Exponential`], [`Gamma`] — MUDD-style
//!   column and arrival-process distributions.
//! * [`Categorical`] / [`Alias`] — empirical discrete distributions fitted
//!   from real data (the veracity-preserving path of Figure 3).
//!
//! All samplers implement [`Distribution`] and draw from `&mut dyn Rng`, so
//! they compose with any seeded stream from [`crate::rng`].

use crate::rng::Rng;

/// A sampler producing values of type `T` from a source of random bits.
pub trait Distribution<T> {
    /// Draw one sample.
    fn sample(&self, rng: &mut dyn Rng) -> T;

    /// Draw `n` samples into a vector.
    fn sample_n(&self, rng: &mut dyn Rng, n: usize) -> Vec<T> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Zipfian distribution over ranks `0..n`, P(k) ∝ 1/(k+1)^s.
///
/// This is the workhorse of OLTP benchmarking: YCSB draws record keys
/// Zipf(0.99) so a small set of records is hot. Sampling uses the
/// rejection-inversion method of Hörmann & Derflinger, which is O(1) per
/// draw and exact for any exponent `s > 0`, so generating billions of keys
/// is cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion (Hörmann & Derflinger):
    // H(1.5) - 1, H(n + 0.5), and the acceptance shortcut threshold.
    h_x1: f64,
    h_n: f64,
    dividing: f64,
}

/// `ln(1 + x) / x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x / 2.0 + x * x / 3.0
    }
}

/// `(exp(x) - 1) / x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x / 2.0 + x * x / 6.0
    }
}

impl Zipf {
    /// A Zipf distribution over `n` items with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s > 0.0 && s.is_finite(), "Zipf exponent must be positive");
        let mut z = Self { n, s, h_x1: 0.0, h_n: 0.0, dividing: 0.0 };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(n as f64 + 0.5);
        z.dividing = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// `H(x) = (x^(1-s) - 1) / (1-s)`, with the `s = 1` limit `ln x`.
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.s) * log_x) * log_x
    }

    /// The density proxy `h(x) = x^(-s)`.
    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    /// Inverse of `h_integral`.
    fn h_integral_inv(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.s)).max(-1.0);
        (helper1(t) * x).exp()
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }
}

impl Distribution<u64> for Zipf {
    fn sample(&self, rng: &mut dyn Rng) -> u64 {
        // Rejection-inversion over ranks 1..=n, returned 0-based.
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.dividing || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64 - 1;
            }
        }
    }
}

/// Normal distribution via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// A normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev < 0` or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(std_dev >= 0.0 && mean.is_finite() && std_dev.is_finite());
        Self { mean, std_dev }
    }
}

impl Distribution<f64> for Gaussian {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        // Marsaglia polar method; discards the second variate for
        // statelessness (samplers are immutable and shared across threads).
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std_dev * u * factor;
            }
        }
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Used for document lengths and session durations, which are heavy-tailed
/// in real web data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Gaussian,
}

impl LogNormal {
    /// Log-normal with location `mu` and scale `sigma` of the underlying
    /// normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        Self { norm: Gaussian::new(mu, sigma) }
    }
}

impl Distribution<f64> for LogNormal {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// The inter-arrival law of a Poisson process; drives the stream data
/// generator's arrival timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// An exponential distribution with rate `lambda > 0`.
    ///
    /// # Panics
    /// Panics if `lambda <= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite());
        Self { lambda }
    }
}

impl Distribution<f64> for Exponential {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        // Inversion: -ln(1-U)/lambda; 1-U avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
}

/// Gamma distribution (shape `k`, scale 1) via Marsaglia–Tsang.
///
/// Used to sample Dirichlet vectors for the LDA text generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
}

impl Gamma {
    /// A Gamma(shape, 1) distribution.
    ///
    /// # Panics
    /// Panics if `shape <= 0`.
    pub fn new(shape: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite());
        Self { shape }
    }
}

impl Distribution<f64> for Gamma {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        if self.shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
            let g = Gamma::new(self.shape + 1.0).sample(rng);
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            return g * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let normal = Gaussian::new(0.0, 1.0);
        loop {
            let x = normal.sample(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.next_f64();
            if u < 1.0 - 0.0331 * x.powi(4)
                || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln())
            {
                return d * v;
            }
        }
    }
}

/// Draw a probability vector from a symmetric Dirichlet(alpha) of dimension
/// `dim` — the document-topic prior used when generating LDA documents.
pub fn sample_dirichlet(rng: &mut dyn Rng, alpha: f64, dim: usize) -> Vec<f64> {
    assert!(dim > 0 && alpha > 0.0);
    let g = Gamma::new(alpha);
    let mut xs: Vec<f64> = (0..dim).map(|_| g.sample(rng).max(1e-300)).collect();
    let total: f64 = xs.iter().sum();
    for x in &mut xs {
        *x /= total;
    }
    xs
}

/// An empirical categorical distribution sampled by linear CDF walk.
///
/// Fine for small supports (enum columns); for large supports use [`Alias`].
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Build from (possibly unnormalised) non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative value, or sums to 0.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty categorical");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "categorical weights must sum > 0");
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0, "negative categorical weight");
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there are no categories (never constructible; kept for API
    /// symmetry with `len`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

impl Distribution<usize> for Categorical {
    fn sample(&self, rng: &mut dyn Rng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Walker's alias method: O(1) sampling from an arbitrary discrete
/// distribution after O(n) setup.
///
/// The LDA text generator samples word ids from topic-word distributions
/// with vocabularies of tens of thousands of entries, which makes the alias
/// method essential for generation throughput (the *velocity* axis).
#[derive(Debug, Clone, PartialEq)]
pub struct Alias {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl Alias {
    /// Build an alias table from (possibly unnormalised) weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative value, or sums to 0.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty alias table");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias weights must sum > 0");
        let mut scaled: Vec<f64> = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0, "negative alias weight");
                w * n as f64 / total
            })
            .collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Always false: an alias table has at least one category.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

impl Distribution<usize> for Alias {
    fn sample(&self, rng: &mut dyn Rng) -> usize {
        let i = rng.next_bounded(self.prob.len() as u64) as usize;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn rng() -> Xoshiro256 {
        Xoshiro256::new(0xBEEF)
    }

    fn mean_of(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let d = Zipf::new(1000, 1.0);
        let mut g = rng();
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[d.sample(&mut g) as usize] += 1;
        }
        // Rank 0 should be the most frequent and roughly twice rank 1.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[3]);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.6..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zipf_covers_only_valid_ranks() {
        let d = Zipf::new(5, 0.99);
        let mut g = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut g) < 5);
        }
    }

    #[test]
    fn zipf_handles_exponent_one_exactly() {
        let d = Zipf::new(100, 1.0);
        let mut g = rng();
        let xs: Vec<u64> = (0..1000).map(|_| d.sample(&mut g)).collect();
        assert!(xs.iter().all(|&x| x < 100));
    }

    #[test]
    fn gaussian_moments() {
        let d = Gaussian::new(5.0, 2.0);
        let mut g = rng();
        let xs = d.sample_n(&mut g, 200_000);
        let m = mean_of(&xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((m - 5.0).abs() < 0.02, "mean {m}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(4.0);
        let mut g = rng();
        let xs = d.sample_n(&mut g, 200_000);
        assert!((mean_of(&xs) - 0.25).abs() < 0.01);
    }

    #[test]
    fn lognormal_is_positive() {
        let d = LogNormal::new(0.0, 1.0);
        let mut g = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut g) > 0.0);
        }
    }

    #[test]
    fn categorical_tracks_weights() {
        let d = Categorical::new(&[1.0, 3.0]);
        let mut g = rng();
        let ones = (0..100_000).filter(|_| d.sample(&mut g) == 1).count();
        let frac = ones as f64 / 100_000.0;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn categorical_zero_weight_category_never_sampled() {
        let d = Categorical::new(&[1.0, 0.0, 1.0]);
        let mut g = rng();
        for _ in 0..50_000 {
            assert_ne!(d.sample(&mut g), 1);
        }
    }

    #[test]
    fn alias_matches_categorical_frequencies() {
        let weights = [0.1, 0.2, 0.3, 0.4];
        let d = Alias::new(&weights);
        let mut g = rng();
        let mut counts = [0usize; 4];
        let n = 400_000;
        for _ in 0..n {
            counts[d.sample(&mut g)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let frac = counts[i] as f64 / n as f64;
            assert!((frac - w).abs() < 0.01, "cat {i}: {frac} vs {w}");
        }
    }

    #[test]
    fn alias_single_category() {
        let d = Alias::new(&[7.0]);
        let mut g = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut g), 0);
        }
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let d = Gamma::new(4.0);
        let mut g = rng();
        let xs = d.sample_n(&mut g, 100_000);
        assert!((mean_of(&xs) - 4.0).abs() < 0.05);
    }

    #[test]
    fn gamma_small_shape_is_positive() {
        let d = Gamma::new(0.3);
        let mut g = rng();
        let xs = d.sample_n(&mut g, 50_000);
        assert!(xs.iter().all(|&x| x >= 0.0));
        assert!((mean_of(&xs) - 0.3).abs() < 0.02);
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut g = rng();
        let v = sample_dirichlet(&mut g, 0.5, 8);
        assert_eq!(v.len(), 8);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn dirichlet_low_alpha_is_sparse() {
        // With alpha << 1 most mass concentrates on few components.
        let mut g = rng();
        let mut max_sum = 0.0;
        for _ in 0..100 {
            let v = sample_dirichlet(&mut g, 0.05, 10);
            max_sum += v.iter().cloned().fold(0.0, f64::max);
        }
        assert!(max_sum / 100.0 > 0.7, "mean max {}", max_sum / 100.0);
    }

    #[test]
    #[should_panic(expected = "empty categorical")]
    fn categorical_rejects_empty() {
        let _ = Categorical::new(&[]);
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_zero_items() {
        let _ = Zipf::new(0, 1.0);
    }
}
