//! Property-based tests for the probability substrate.

use proptest::prelude::*;
use pwcet_prob::{binomial_pmf, reference, ConvolutionParams, DiscreteDistribution, FaultModel};

/// Strategy: a small well-formed distribution (mass exactly 1, ≤ 6 points).
fn arb_distribution() -> impl Strategy<Value = DiscreteDistribution> {
    (
        proptest::collection::vec(0u64..10_000, 1..6),
        proptest::collection::vec(1u32..100, 1..6),
    )
        .prop_map(|(values, weights)| {
            let n = values.len().min(weights.len());
            let total: u32 = weights[..n].iter().sum();
            let points: Vec<(u64, f64)> = values[..n]
                .iter()
                .zip(&weights[..n])
                .map(|(&v, &w)| (v, f64::from(w) / f64::from(total)))
                .collect();
            DiscreteDistribution::from_points(points).expect("valid by construction")
        })
}

proptest! {
    #[test]
    fn mass_is_conserved_by_convolution(a in arb_distribution(), b in arb_distribution()) {
        let c = a.convolve(&b);
        prop_assert!((c.total_mass() - a.total_mass() * b.total_mass()).abs() < 1e-9);
    }

    #[test]
    fn convolution_commutes(a in arb_distribution(), b in arb_distribution()) {
        let ab = a.convolve(&b);
        let ba = b.convolve(&a);
        prop_assert_eq!(ab.points().len(), ba.points().len());
        for (&(va, pa), &(vb, pb)) in ab.points().iter().zip(ba.points()) {
            prop_assert_eq!(va, vb);
            prop_assert!((pa - pb).abs() < 1e-12);
        }
    }

    #[test]
    fn convolution_max_is_sum_of_maxes(a in arb_distribution(), b in arb_distribution()) {
        let c = a.convolve(&b);
        prop_assert_eq!(
            c.max_value(),
            Some(a.max_value().unwrap() + b.max_value().unwrap())
        );
    }

    #[test]
    fn exceedance_is_monotone_nonincreasing(d in arb_distribution()) {
        let mut last = 1.0_f64;
        for &(v, _) in d.points() {
            let e = d.exceedance(v);
            prop_assert!(e <= last + 1e-12);
            last = e;
        }
    }

    #[test]
    fn quantile_inverts_exceedance(d in arb_distribution(), p in 0.0f64..1.0) {
        if let Some(q) = d.quantile(p) {
            // Definition: q is the smallest v with exceedance(v) <= p.
            prop_assert!(d.exceedance(q) <= p + 1e-12);
            if let Some(&(first, _)) = d.points().first() {
                if q > first {
                    // Some support value strictly below q must violate the bound.
                    let below: Vec<u64> = d
                        .points()
                        .iter()
                        .map(|&(v, _)| v)
                        .filter(|&v| v < q)
                        .collect();
                    let worst = below.into_iter().max().unwrap();
                    prop_assert!(d.exceedance(worst) > p);
                }
            }
        }
    }

    #[test]
    fn pruning_never_lowers_exceedance(
        a in arb_distribution(),
        b in arb_distribution(),
        eps in 1e-12f64..1e-2,
        max_support in 2usize..32,
    ) {
        let exact = a.convolve(&b);
        let pruned = a.convolve_with(&b, &ConvolutionParams { prune_epsilon: eps, max_support });
        for &(v, _) in exact.points() {
            prop_assert!(
                pruned.exceedance(v) >= exact.exceedance(v) - 1e-12,
                "pruned exceedance at {} dropped below exact", v
            );
        }
    }

    #[test]
    fn cut_products_never_lower_exceedance_below_the_oracle(
        a in arb_distribution(),
        b in arb_distribution(),
        eps in 1e-4f64..1e-1,
    ) {
        // Production cuts every product below ε; the frozen kernel prunes
        // only merged points below ε, so it never moves more mass up.
        let params = ConvolutionParams { prune_epsilon: eps, ..ConvolutionParams::default() };
        let got = a.convolve_with(&b, &params);
        let oracle = reference::convolve_with(&a, &b, &params);
        prop_assert!((got.total_mass() - oracle.total_mass()).abs() < 1e-12);
        for &(v, _) in got.points().iter().chain(oracle.points()) {
            prop_assert!(
                got.exceedance(v) >= oracle.exceedance(v) * (1.0 - 1e-12),
                "exceedance at {} fell below the oracle's", v
            );
        }
    }

    #[test]
    fn mean_of_convolution_adds(a in arb_distribution(), b in arb_distribution()) {
        let c = a.convolve(&b);
        prop_assert!((c.finite_mean() - (a.finite_mean() + b.finite_mean())).abs() < 1e-6);
    }

    #[test]
    fn binomial_pmf_is_a_distribution(n in 0u32..16, p in 0.0f64..1.0) {
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fault_model_pbf_within_bounds(pfail in 0.0f64..1.0, bits in 0u32..4096) {
        let model = FaultModel::new(pfail).unwrap();
        let pbf = model.block_failure_probability(bits);
        prop_assert!((0.0..=1.0).contains(&pbf));
        // Union bound: pbf <= bits * pfail.
        prop_assert!(pbf <= f64::from(bits) * pfail + 1e-12);
    }

    #[test]
    fn reliable_way_removes_top_point(pfail in 1e-6f64..0.5, ways in 1u32..8) {
        let model = FaultModel::new(pfail).unwrap();
        let pbf = model.block_failure_probability(128);
        let base = model.way_fault_distribution(ways, pbf);
        let rw = model.reliable_way_fault_distribution(ways, pbf);
        prop_assert_eq!(base.len(), ways as usize + 1);
        prop_assert_eq!(rw.len(), ways as usize);
        // Both sum to one; RW redistributes the all-faulty mass.
        prop_assert!((base.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((rw.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
