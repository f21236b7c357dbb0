//! Property tests for the statistical foundations everything rests on:
//! divergence axioms, sampler bounds, and summary-statistics identities.

use bdbench::common::dist::{Categorical, Distribution, Zipf};
use bdbench::common::rng::{Rng, Xoshiro256};
use bdbench::common::stats::{js_divergence, kl_divergence, ks_statistic, Summary};
use proptest::prelude::*;

fn arb_pmf(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, n..=n).prop_filter_map("non-zero mass", |w| {
        let total: f64 = w.iter().sum();
        (total > 1e-6).then(|| w.iter().map(|x| x / total).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kl_is_non_negative_and_zero_on_identity(p in arb_pmf(16)) {
        prop_assert!(kl_divergence(&p, &p) < 1e-9);
        let q: Vec<f64> = p.iter().rev().cloned().collect();
        prop_assert!(kl_divergence(&p, &q) >= 0.0);
    }

    #[test]
    fn js_is_symmetric_and_bounded(p in arb_pmf(16), q in arb_pmf(16)) {
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= 0.0);
        prop_assert!(d1 <= std::f64::consts::LN_2 + 1e-6);
    }

    #[test]
    fn ks_is_a_bounded_pseudometric(
        a in prop::collection::vec(-1e6f64..1e6, 1..100),
        b in prop::collection::vec(-1e6f64..1e6, 1..100),
    ) {
        let d = ks_statistic(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((ks_statistic(&b, &a) - d).abs() < 1e-12);
        prop_assert_eq!(ks_statistic(&a, &a), 0.0);
    }

    #[test]
    fn zipf_samples_stay_in_range_for_any_params(
        n in 1u64..10_000,
        s in 0.05f64..3.0,
        seed in any::<u64>(),
    ) {
        let z = Zipf::new(n, s);
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn categorical_never_picks_zero_weight(
        mask in prop::collection::vec(any::<bool>(), 2..12),
        seed in any::<u64>(),
    ) {
        // At least one live category.
        let mut weights: Vec<f64> = mask.iter().map(|&m| if m { 1.0 } else { 0.0 }).collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[0] = 1.0;
        }
        let d = Categorical::new(&weights);
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..200 {
            let i = d.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "picked zero-weight category {}", i);
        }
    }

    #[test]
    fn summary_merge_is_order_independent(
        xs in prop::collection::vec(-1e3f64..1e3, 1..60),
        split in 1usize..59,
    ) {
        let split = split.min(xs.len().saturating_sub(1)).max(1);
        if xs.len() < 2 { return Ok(()); }
        let bulk = Summary::of(&xs);
        let mut ab = Summary::of(&xs[..split]);
        ab.merge(&Summary::of(&xs[split..]));
        let mut ba = Summary::of(&xs[split..]);
        ba.merge(&Summary::of(&xs[..split]));
        for merged in [ab, ba] {
            prop_assert_eq!(merged.count(), bulk.count());
            prop_assert!((merged.mean() - bulk.mean()).abs() < 1e-6);
            prop_assert!((merged.variance() - bulk.variance()).abs() < 1e-4);
            prop_assert_eq!(merged.min(), bulk.min());
            prop_assert_eq!(merged.max(), bulk.max());
        }
    }

    #[test]
    fn bounded_rng_draws_are_uniform_enough(seed in any::<u64>(), bound in 2u64..16) {
        // Chi-square-ish sanity: no bucket should be empty over 64*bound
        // draws (p(empty) is astronomically small for a uniform source).
        let mut rng = Xoshiro256::new(seed);
        let mut counts = vec![0u32; bound as usize];
        for _ in 0..(64 * bound) {
            counts[rng.next_bounded(bound) as usize] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }
}

// LogHistogram::merge must behave exactly like recording the union of
// the two sample streams into one histogram, however the stream is split.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_histogram_merge_equals_bulk_recording(
        xs in prop::collection::vec(0u64..1_000_000_000, 2..200),
        split in 1usize..199,
    ) {
        use bdbench::common::histogram::LogHistogram;
        let split = split.min(xs.len() - 1).max(1);
        let mut bulk = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for &x in &xs {
            bulk.record(x);
        }
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &bulk);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            prop_assert_eq!(a.quantile(q), bulk.quantile(q));
        }
    }
}
