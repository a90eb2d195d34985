//! The frozen convolution oracle.
//!
//! Production [`DiscreteDistribution::convolve_with`] never forms a
//! product below [`ConvolutionParams::prune_epsilon`]. This module keeps
//! the algorithm it replaced as the oracle the soundness suites compare
//! it against: every pairwise product, a stable sort by value, a merge of
//! equal sums, a fold of every merged point below ε into the tail in
//! ascending value order, then support compaction. Nothing in the
//! analysis pipeline calls it.

use crate::distribution::{merge_equal_values, ConvolutionParams, DiscreteDistribution};

/// [`DiscreteDistribution::convolve_with`] by the frozen algorithm: a
/// merged point is pruned, not a product.
#[must_use]
pub fn convolve_with(
    a: &DiscreteDistribution,
    b: &DiscreteDistribution,
    params: &ConvolutionParams,
) -> DiscreteDistribution {
    let finite_a: f64 = a.points().iter().map(|&(_, p)| p).sum();
    let finite_b: f64 = b.points().iter().map(|&(_, p)| p).sum();
    let mut tail = a.tail_mass() * (finite_b + b.tail_mass()) + b.tail_mass() * finite_a;
    let mut sums: Vec<(u64, f64)> = Vec::with_capacity(a.support_len() * b.support_len());
    for &(va, pa) in a.points() {
        for &(vb, pb) in b.points() {
            sums.push((va.saturating_add(vb), pa * pb));
        }
    }
    sums.sort_by_key(|&(v, _)| v);
    merge_equal_values(&mut sums);
    let mut kept = Vec::with_capacity(sums.len());
    for (value, prob) in sums {
        if prob < params.prune_epsilon {
            tail += prob;
        } else {
            kept.push((value, prob));
        }
    }
    DiscreteDistribution::from_merged(kept, tail, params)
}

/// [`DiscreteDistribution::convolve_all`] by the frozen pairwise
/// algorithm: the same balanced tree over [`convolve_with`].
#[must_use]
pub fn convolve_all(
    parts: &[DiscreteDistribution],
    params: &ConvolutionParams,
) -> DiscreteDistribution {
    DiscreteDistribution::reduce_tree(parts, |a, b| convolve_with(a, b, params))
}

/// The quadratic left fold of [`convolve_with`] over `parts`: the
/// reference the balanced tree of [`DiscreteDistribution::convolve_all`]
/// is checked against.
#[must_use]
pub fn convolve_all_sequential(
    parts: &[DiscreteDistribution],
    params: &ConvolutionParams,
) -> DiscreteDistribution {
    let mut acc = DiscreteDistribution::zero();
    for part in parts {
        acc = convolve_with(&acc, part, params);
    }
    acc
}
