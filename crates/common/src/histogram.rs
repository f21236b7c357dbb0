//! The latency histogram: [`LogHistogram`] with exponentially growing
//! buckets (latencies span nanoseconds to seconds; the metrics layer
//! reports p50/p95/p99 from it). Fixed-width bucketing for distribution
//! comparisons is [`crate::stats::bucket_pmf`].

/// A log-bucketed histogram for non-negative samples (latencies in ns).
///
/// Bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 also catches 0), giving
/// ~constant relative error across nine orders of magnitude with 64 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one non-negative sample (e.g. nanoseconds).
    pub fn record(&mut self, x: u64) {
        let idx = 63u32.saturating_sub(x.leading_zeros()).min(63) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile: the arithmetic midpoint of the power-of-two
    /// bucket holding the q-th sample, clamped to the recorded
    /// `[min, max]` so it never reads outside the samples (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return (lo + (hi - lo) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_orders_quantiles() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(h.min() == 1000);
        assert!(h.max() == 1_000_000);
        assert!((h.mean() - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn log_histogram_zero_sample() {
        let mut h = LogHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 0); // midpoint of [0,2), clamped to max
    }

    #[test]
    fn quantile_stays_within_the_samples() {
        // 1000 samples of 100 sit in [64, 128), whose midpoint 96 is below
        // every sample; a lone 1000 sits in [512, 1024), midpoint 768.
        let mut h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(100);
        }
        assert_eq!(h.quantile(0.5), 100);
        let mut lone = LogHistogram::new();
        lone.record(1000);
        assert_eq!(lone.quantile(0.5), 1000);
        // Mixed samples: every quantile lies in [min, max].
        let mut mixed = LogHistogram::new();
        for x in [70, 100, 130, 5000, 9000] {
            mixed.record(x);
        }
        for q in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let v = mixed.quantile(q);
            assert!((70..=9000).contains(&v), "q={q} -> {v}");
        }
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        let h = LogHistogram::new();
        let _ = h.quantile(1.5);
    }
}
