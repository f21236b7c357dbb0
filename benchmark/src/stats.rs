//! Order statistics for the benchmark's reports.
//!
//! Two estimators, each used for one job: [`nearest_rank`] picks an
//! *observed* latency for a percentile (no interpolation, so a reported
//! p99 is a value some operation actually took), and [`quantile`]
//! interpolates linearly between order statistics for the median and
//! quartiles printed beside every metric.

/// The `p`-th percentile (`0 < p <= 1`) of an ascending slice by the
/// nearest-rank rule: the smallest element with at least `p·n` elements
/// at or below it.
///
/// # Panics
/// Panics on an empty slice: a percentile of nothing is a bug in the caller.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile (`0 <= q <= 1`) of an ascending slice, interpolating
/// linearly between the two nearest order statistics.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&ascending(values), 0.5)
}

/// What is printed beside every metric: the median with its sample
/// count, quartiles and range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise an unsorted, non-empty sample.
    pub fn of(values: &[f64]) -> Self {
        let v = ascending(values);
        Self {
            n: v.len(),
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// A summary of one exact value (counts, ratios of medians).
    pub fn single(value: f64) -> Self {
        Self::of(&[value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: count elements at or below each candidate.
    fn nearest_rank_reference(sorted: &[u64], p: f64) -> u64 {
        let need = p * sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&x| sorted.iter().filter(|&&y| y <= x).count() as f64 >= need)
            .unwrap()
    }

    #[test]
    fn nearest_rank_matches_the_counting_definition() {
        let sorted: Vec<u64> = (1..=1000).map(|i| i * 3).collect();
        for p in [0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                nearest_rank(&sorted, p),
                nearest_rank_reference(&sorted, p),
                "p={p}"
            );
        }
        assert_eq!(nearest_rank(&sorted, 0.99), 990 * 3);
        assert_eq!(nearest_rank(&[7u64], 0.99), 7);
        // Two samples: the median is the lower one, p99 the upper.
        assert_eq!(nearest_rank(&[1u64, 9], 0.5), 1);
        assert_eq!(nearest_rank(&[1u64, 9], 0.99), 9);
    }

    #[test]
    fn median_and_quartiles_match_sorted_vector_references() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0]), 2.0);
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (5, 1.0, 3.0, 5.0, 7.0, 9.0)
        );
        // Interpolated quartiles on an even-sized sample.
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_a_caller_bug() {
        nearest_rank::<u64>(&[], 0.5);
    }
}
