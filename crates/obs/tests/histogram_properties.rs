//! Property tests pinning the histogram against a sorted-vec oracle:
//! quantiles must bracket the true order statistic within one bucket.

use proptest::collection::vec;
use proptest::prelude::*;

use pwcet_obs::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};

/// The true order statistic the histogram's `quantile(q)` approximates:
/// the sample of rank `ceil(q * n)` (1-based) in sorted order.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sample_strategy() -> impl Strategy<Value = Vec<u64>> {
    // Mix magnitudes: latencies live at every scale from sub-micro to
    // minutes; also exercise 0 and huge outliers.
    vec(
        prop_oneof![
            Just(0u64),
            1u64..32,
            32u64..4096,
            4096u64..5_000_000,
            5_000_000u64..u64::MAX / 2,
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantiles_bracket_the_oracle_within_one_bucket(samples in sample_strategy()) {
        let hist = Histogram::new();
        for &v in &samples {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        // Atomic adds wrap on overflow; mirror that in the oracle.
        prop_assert_eq!(snap.sum, samples.iter().fold(0u64, |a, &b| a.wrapping_add(b)));

        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let truth = oracle_quantile(&sorted, q);
            let est = snap.quantile(q);
            // Never underestimates, and overestimates by at most the
            // width of the bucket holding the true sample.
            let (_, hi) = bucket_bounds(bucket_index(truth));
            prop_assert!(est >= truth, "q={} est={} truth={}", q, est, truth);
            prop_assert!(est <= hi.min(snap.max), "q={} est={} bucket hi={}", q, est, hi);
        }
    }

    #[test]
    fn every_sample_lands_in_its_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < NUM_BUCKETS);
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi);
    }
}

#[test]
fn empty_histogram_is_all_zero() {
    let snap = Histogram::new().snapshot();
    assert_eq!(snap, HistogramSnapshot::default());
    assert_eq!(snap.quantile(0.5), 0);
    assert_eq!(snap.mean(), 0);
}
