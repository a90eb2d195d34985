//! Sparse, integer-supported discrete probability distributions.
//!
//! The pWCET analysis manipulates distributions of *penalties* (non-negative
//! integer cycle or miss counts): one small distribution per cache set, which
//! are then combined across independent sets by convolution (§II-C of the
//! paper, Figure 1.b). The distributions here are designed so that every
//! operation preserves *conservatism*: probability mass is never dropped, and
//! any mass whose exact penalty is forgotten (pruning, support compaction) is
//! moved to a *higher* penalty — either the next larger support point or the
//! unbounded [`tail`](DiscreteDistribution::tail_mass). Exceedance values
//! computed from the result are therefore sound upper bounds of the true
//! exceedance.

use std::fmt;

use crate::error::{check_probability, ProbError};

/// Tolerance applied when checking that total probability mass does not
/// exceed one. Convolving 16+ distributions accumulates rounding error of
/// this order.
const MASS_TOLERANCE: f64 = 1e-9;

/// Tuning parameters for [`DiscreteDistribution::convolve_with`].
///
/// Both parameters trade memory/time for tightness, never soundness:
/// pruned/compacted mass is moved to *larger* penalties.
///
/// # Example
///
/// ```
/// let params = pwcet_prob::ConvolutionParams::default();
/// assert!(params.prune_epsilon > 0.0);
/// assert!(params.max_support >= 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvolutionParams {
    /// Points with probability below this threshold are folded into the
    /// unbounded tail. The default (`1e-30`) is fifteen orders of magnitude
    /// below the smallest target exceedance probability used in the paper
    /// (`10⁻¹⁵`), so pruning is invisible at any probability of interest.
    pub prune_epsilon: f64,
    /// Maximum number of support points kept after a convolution. When the
    /// exact support is larger, adjacent points are merged by moving mass
    /// *upward* to the larger penalty of each merged run.
    pub max_support: usize,
}

impl Default for ConvolutionParams {
    fn default() -> Self {
        Self {
            prune_epsilon: 1e-30,
            max_support: 1 << 20,
        }
    }
}

/// One point of a complementary cumulative distribution function.
///
/// `exceedance` is `P(X > value)`: the probability that the penalty (or the
/// pWCET) strictly exceeds `value`. This matches the exceedance curves of
/// Figure 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExceedancePoint {
    /// Penalty (or execution-time) value in the distribution's unit.
    pub value: u64,
    /// Probability that the random variable strictly exceeds `value`.
    pub exceedance: f64,
}

/// A sparse probability distribution over non-negative integer values, with
/// an optional *unbounded tail*.
///
/// The tail holds probability mass whose penalty is conservatively treated
/// as "larger than every finite support point" (effectively `+∞`). Fresh
/// distributions have zero tail; tails appear only through explicit pruning
/// during convolution and remain below [`ConvolutionParams::prune_epsilon`]
/// times the number of merged points.
///
/// # Example
///
/// ```
/// use pwcet_prob::DiscreteDistribution;
///
/// # fn main() -> Result<(), pwcet_prob::ProbError> {
/// let d = DiscreteDistribution::from_points([(0, 0.9), (100, 0.1)])?;
/// assert_eq!(d.exceedance(0), 0.1);
/// assert_eq!(d.exceedance(100), 0.0);
/// assert_eq!(d.quantile(0.05), Some(100));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDistribution {
    /// Sorted by value, strictly increasing, probabilities all `> 0`.
    points: Vec<(u64, f64)>,
    /// Probability mass at the unbounded (`+∞`) penalty.
    tail: f64,
}

impl DiscreteDistribution {
    /// The distribution that is always exactly `value` (a point mass).
    ///
    /// # Example
    ///
    /// ```
    /// let d = pwcet_prob::DiscreteDistribution::point_mass(42);
    /// assert_eq!(d.exceedance(41), 1.0);
    /// assert_eq!(d.exceedance(42), 0.0);
    /// ```
    pub fn point_mass(value: u64) -> Self {
        Self {
            points: vec![(value, 1.0)],
            tail: 0.0,
        }
    }

    /// The distribution that is always zero — the identity element of
    /// [`convolve`](Self::convolve).
    pub fn zero() -> Self {
        Self::point_mass(0)
    }

    /// Builds a distribution from `(value, probability)` pairs.
    ///
    /// Duplicate values are merged by summing their probabilities; zero
    /// probabilities are dropped. The pairs need not be sorted.
    ///
    /// # Errors
    ///
    /// * [`ProbError::InvalidProbability`] if any probability is not a
    ///   finite value in `[0, 1]`.
    /// * [`ProbError::MassExceedsOne`] if the probabilities sum to more
    ///   than one (beyond a small tolerance).
    /// * [`ProbError::EmptySupport`] if no pair has positive probability.
    pub fn from_points<I>(points: I) -> Result<Self, ProbError>
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        let mut collected: Vec<(u64, f64)> = Vec::new();
        for (value, prob) in points {
            check_probability(prob)?;
            if prob > 0.0 {
                collected.push((value, prob));
            }
        }
        if collected.is_empty() {
            return Err(ProbError::EmptySupport);
        }
        collected.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(u64, f64)> = Vec::with_capacity(collected.len());
        for (value, prob) in collected {
            match merged.last_mut() {
                Some((last_value, last_prob)) if *last_value == value => *last_prob += prob,
                _ => merged.push((value, prob)),
            }
        }
        let total: f64 = merged.iter().map(|&(_, p)| p).sum();
        if total > 1.0 + MASS_TOLERANCE {
            return Err(ProbError::MassExceedsOne(total));
        }
        Ok(Self {
            points: merged,
            tail: 0.0,
        })
    }

    /// The finite support points as `(value, probability)` pairs, sorted by
    /// strictly increasing value.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of finite support points.
    pub fn support_len(&self) -> usize {
        self.points.len()
    }

    /// Probability mass held at the unbounded (`+∞`) penalty.
    pub fn tail_mass(&self) -> f64 {
        self.tail
    }

    /// Total probability mass (finite points plus tail). Close to one for
    /// complete distributions; kept explicit so callers can audit drift.
    pub fn total_mass(&self) -> f64 {
        self.points.iter().map(|&(_, p)| p).sum::<f64>() + self.tail
    }

    /// Largest finite support value, or `None` for an all-tail distribution.
    pub fn max_value(&self) -> Option<u64> {
        self.points.last().map(|&(v, _)| v)
    }

    /// Mean of the finite part of the distribution. The tail is excluded
    /// (it has no finite value); with the default pruning threshold the
    /// tail's contribution is below `1e-24` of any realistic penalty.
    pub fn finite_mean(&self) -> f64 {
        self.points.iter().map(|&(v, p)| v as f64 * p).sum()
    }

    /// `P(X > value)` — the exceedance (complementary CDF) at `value`.
    ///
    /// The unbounded tail always counts as exceeding.
    pub fn exceedance(&self, value: u64) -> f64 {
        let above: f64 = self
            .points
            .iter()
            .rev()
            .take_while(|&&(v, _)| v > value)
            .map(|&(_, p)| p)
            .sum();
        above + self.tail
    }

    /// Smallest value `v` such that `P(X > v) ≤ p`, i.e. the value that is
    /// exceeded with probability at most `p`.
    ///
    /// Returns `None` when no finite value satisfies the query — only
    /// possible when the tail mass itself exceeds `p`, in which case the
    /// distribution cannot bound the quantile (the caller should lower the
    /// pruning threshold).
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.tail > p {
            return None;
        }
        // Walk from the largest value downwards, accumulating exceedance.
        let mut exceed = self.tail;
        let mut answer = None;
        for &(value, prob) in self.points.iter().rev() {
            // Exceedance *at* `value` uses mass strictly above it, so the
            // candidate is tested before accumulating its own mass.
            if exceed <= p {
                answer = Some(value);
            } else {
                break;
            }
            exceed += prob;
        }
        // All mass may sit above p; then even value 0 fails... except the
        // smallest support point always satisfies "exceedance ≤ p" only if
        // exceed without it is ≤ p. If nothing matched, no finite quantile.
        if answer.is_none() && exceed <= p {
            answer = self.points.first().map(|&(v, _)| v);
        }
        answer
    }

    /// Multiplies every support value by `factor` (e.g. converting a
    /// miss-count distribution into a cycle-penalty distribution).
    ///
    /// Values saturate at `u64::MAX`, which is conservative: saturation can
    /// only raise penalties.
    #[must_use]
    pub fn scale_values(&self, factor: u64) -> Self {
        let points = self
            .points
            .iter()
            .map(|&(v, p)| (v.saturating_mul(factor), p))
            .collect();
        let mut scaled = Self {
            points,
            tail: self.tail,
        };
        scaled.merge_duplicates();
        scaled
    }

    /// Convolution (distribution of the sum of two independent variables)
    /// with [`ConvolutionParams::default`].
    #[must_use]
    pub fn convolve(&self, other: &Self) -> Self {
        self.convolve_with(other, &ConvolutionParams::default())
    }

    /// Convolution with explicit pruning/compaction parameters.
    ///
    /// Independence is assumed, which holds for per-set penalty
    /// distributions because cache sets fail and are analyzed independently
    /// (§II-C). Tails combine as "either addend is unbounded". Finite sums
    /// saturate at `u64::MAX` (conservatively high).
    #[must_use]
    pub fn convolve_with(&self, other: &Self, params: &ConvolutionParams) -> Self {
        let finite_a: f64 = self.points.iter().map(|&(_, p)| p).sum();
        let finite_b: f64 = other.points.iter().map(|&(_, p)| p).sum();
        // P(result unbounded) = P(A unbounded) + P(B unbounded) − both, plus
        // cross terms with the finite parts; equivalently:
        let tail = self.tail * (finite_b + other.tail) + other.tail * finite_a;

        let mut result = Self {
            points: Vec::new(),
            tail,
        };
        if let Some(points) = self.dense_products(other, params, &mut result.tail) {
            result.points = points;
        } else {
            let mut sums: Vec<(u64, f64)> =
                Vec::with_capacity(self.points.len() * other.points.len());
            for &(va, pa) in &self.points {
                for &(vb, pb) in &other.points {
                    sums.push((va.saturating_add(vb), pa * pb));
                }
            }
            sums.sort_by_key(|&(v, _)| v);
            result.points = sums;
            result.merge_duplicates();
            result.prune_epsilon(params);
        }
        result.compact(params);
        result
    }

    /// All pairwise sums of two supports, sorted with equal sums merged
    /// and ε-pruned — computed through a dense accumulator array when the
    /// sum span is compact, instead of materializing and sorting every
    /// product.
    ///
    /// **Bit-identical** to the sort, merge and [`prune_epsilon`] path:
    /// the stable sort keeps equal sums in (left index, right index)
    /// lexicographic generation order, and the dense accumulation adds
    /// each slot's products in that exact order. The slot scan prunes as
    /// it goes: a slot below `prune_epsilon` is added to `tail` in
    /// ascending value order, exactly as [`prune_epsilon`] folds it, so
    /// only the survivors are ever collected. Returns `None` when the span
    /// is too wide relative to the product count (sorting is cheaper),
    /// when a sum overflows (the sparse path saturates), or when
    /// `prune_epsilon` is zero — an exact-zero product (possible only by
    /// underflow) is dropped by the dense scan but kept as an explicit
    /// point by the sparse path, and only a positive pruning threshold
    /// makes those two agree (both fold it into the tail).
    ///
    /// [`prune_epsilon`]: Self::prune_epsilon
    fn dense_products(
        &self,
        other: &Self,
        params: &ConvolutionParams,
        tail: &mut f64,
    ) -> Option<Vec<(u64, f64)>> {
        if params.prune_epsilon <= 0.0 {
            return None;
        }
        let (&(a_lo, _), &(a_hi, _)) = (self.points.first()?, self.points.last()?);
        let (&(b_lo, _), &(b_hi, _)) = (other.points.first()?, other.points.last()?);
        let base = a_lo.checked_add(b_lo)?;
        let top = a_hi.checked_add(b_hi)?;
        let span = usize::try_from(top - base).ok()?;
        let products = self.points.len().saturating_mul(other.points.len());
        // Zeroing + scanning `span + 1` slots must not dwarf the
        // `products · log(products)` sort it replaces; past 16× (or a hard
        // cap on transient memory) fall back.
        if span > products.saturating_mul(16).max(4096) || span >= (1 << 22) {
            return None;
        }
        let mut acc = vec![0.0f64; span + 1];
        for &(va, pa) in &self.points {
            for &(vb, pb) in &other.points {
                // In-range by construction: `va + vb ≤ top` and `top`
                // did not overflow.
                acc[(va + vb - base) as usize] += pa * pb;
            }
        }
        let mut kept = Vec::new();
        for (i, &p) in acc.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            if p < params.prune_epsilon {
                *tail += p;
            } else {
                kept.push((base + i as u64, p));
            }
        }
        Some(kept)
    }

    /// Convolves a sequence of independent distributions with a balanced
    /// reduction tree.
    ///
    /// The left fold convolves an ever-growing accumulator against each
    /// small per-set distribution — quadratic support growth over the
    /// sequence. The balanced tree pairs neighbors level by level, so
    /// every intermediate support stays as small as possible:
    /// `O(n log n)` total work for bounded per-part supports.
    ///
    /// Conservatism is identical to [`convolve_with`](Self::convolve_with)
    /// — every pairwise step moves pruned/compacted mass to *larger*
    /// penalties, and the composition of conservative steps is
    /// conservative. Up to that pruning (and floating-point association)
    /// the result equals the left fold
    /// ([`convolve_all_sequential`](Self::convolve_all_sequential), kept
    /// as the reference for the property tests).
    ///
    /// # Example
    ///
    /// ```
    /// use pwcet_prob::{ConvolutionParams, DiscreteDistribution};
    ///
    /// # fn main() -> Result<(), pwcet_prob::ProbError> {
    /// let per_set = DiscreteDistribution::from_points([(0, 0.99), (10, 0.01)])?;
    /// let sets = vec![per_set.clone(), per_set.clone(), per_set];
    /// let total = DiscreteDistribution::convolve_all(&sets, &ConvolutionParams::default());
    /// assert_eq!(total.max_value(), Some(30));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn convolve_all(parts: &[Self], params: &ConvolutionParams) -> Self {
        // One tree level: convolve neighbor pairs, carry an odd leftover.
        fn reduce_level(
            level: &[DiscreteDistribution],
            params: &ConvolutionParams,
        ) -> Vec<DiscreteDistribution> {
            level
                .chunks(2)
                .map(|chunk| match chunk {
                    [a, b] => a.convolve_with(b, params),
                    [odd] => odd.clone(),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                })
                .collect()
        }

        match parts {
            [] => Self::zero(),
            // Match the fold semantics: a single part is still pruned.
            [only] => Self::zero().convolve_with(only, params),
            _ => {
                // The first level borrows `parts` directly — no upfront
                // clone of the whole input.
                let mut level = reduce_level(parts, params);
                while level.len() > 1 {
                    level = reduce_level(&level, params);
                }
                level.pop().expect("non-empty input leaves one root")
            }
        }
    }

    /// The quadratic left-fold reference implementation of
    /// [`convolve_all`](Self::convolve_all) (kept for the equivalence
    /// property tests).
    #[must_use]
    pub fn convolve_all_sequential(parts: &[Self], params: &ConvolutionParams) -> Self {
        let mut acc = Self::zero();
        for part in parts {
            acc = acc.convolve_with(part, params);
        }
        acc
    }

    /// The full complementary cumulative distribution as a step function:
    /// one [`ExceedancePoint`] per support value, in increasing value order.
    ///
    /// Exceedances are computed as *suffix sums* (small probabilities
    /// accumulated upward from the tail) rather than by subtracting from
    /// one, so deep-tail values around the 10⁻¹⁵ target keep full
    /// precision instead of drowning in cancellation error.
    pub fn ccdf(&self) -> Vec<ExceedancePoint> {
        let mut result: Vec<ExceedancePoint> = Vec::with_capacity(self.points.len());
        let mut above = self.tail;
        for &(value, prob) in self.points.iter().rev() {
            result.push(ExceedancePoint {
                value,
                exceedance: above,
            });
            above += prob;
        }
        result.reverse();
        result
    }

    /// Merges equal adjacent values (requires `points` sorted by value).
    fn merge_duplicates(&mut self) {
        let mut merged: Vec<(u64, f64)> = Vec::with_capacity(self.points.len());
        for &(value, prob) in &self.points {
            match merged.last_mut() {
                Some((last_value, last_prob)) if *last_value == value => *last_prob += prob,
                _ => merged.push((value, prob)),
            }
        }
        self.points = merged;
    }

    /// Step 1 of the conservative pruning strategy described in
    /// [`ConvolutionParams`]: folds sub-epsilon probabilities into the
    /// unbounded tail, in ascending value order.
    fn prune_epsilon(&mut self, params: &ConvolutionParams) {
        if params.prune_epsilon > 0.0 {
            let mut kept = Vec::with_capacity(self.points.len());
            for &(value, prob) in &self.points {
                if prob < params.prune_epsilon {
                    self.tail += prob;
                } else {
                    kept.push((value, prob));
                }
            }
            self.points = kept;
        }
    }

    /// Step 2 of the pruning strategy: compacts an oversized support by
    /// merging runs of adjacent points; each run's mass moves to the
    /// run's *largest* value.
    fn compact(&mut self, params: &ConvolutionParams) {
        let len = self.points.len();
        let max = params.max_support.max(2);
        if len > max {
            let run = len.div_ceil(max);
            let mut compacted: Vec<(u64, f64)> = Vec::with_capacity(max);
            for chunk in self.points.chunks(run) {
                let mass: f64 = chunk.iter().map(|&(_, p)| p).sum();
                let top = chunk.last().expect("chunks are non-empty").0;
                compacted.push((top, mass));
            }
            self.points = compacted;
        }
    }
}

impl Default for DiscreteDistribution {
    /// The [`zero`](Self::zero) distribution.
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Display for DiscreteDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, &(v, p)) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}: {p:.3e}")?;
        }
        if self.tail > 0.0 {
            if !self.points.is_empty() {
                write!(f, ", ")?;
            }
            write!(f, "∞: {:.3e}", self.tail)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(points: &[(u64, f64)]) -> DiscreteDistribution {
        DiscreteDistribution::from_points(points.iter().copied()).unwrap()
    }

    #[test]
    fn from_points_sorts_and_merges() {
        let d = dist(&[(10, 0.25), (0, 0.5), (10, 0.25)]);
        assert_eq!(d.points(), &[(0, 0.5), (10, 0.5)]);
    }

    #[test]
    fn from_points_drops_zero_probability() {
        let d = dist(&[(0, 1.0), (99, 0.0)]);
        assert_eq!(d.support_len(), 1);
    }

    #[test]
    fn from_points_rejects_invalid() {
        assert_eq!(
            DiscreteDistribution::from_points([(0u64, -0.5)]),
            Err(ProbError::InvalidProbability(-0.5))
        );
        assert!(matches!(
            DiscreteDistribution::from_points([(0u64, 0.8), (1, 0.8)]),
            Err(ProbError::MassExceedsOne(_))
        ));
        assert_eq!(
            DiscreteDistribution::from_points(std::iter::empty::<(u64, f64)>()),
            Err(ProbError::EmptySupport)
        );
    }

    #[test]
    fn exceedance_steps() {
        let d = dist(&[(0, 0.9), (10, 0.06), (130, 0.04)]);
        assert!((d.exceedance(0) - 0.10).abs() < 1e-12);
        assert!((d.exceedance(9) - 0.10).abs() < 1e-12);
        assert!((d.exceedance(10) - 0.04).abs() < 1e-12);
        assert_eq!(d.exceedance(130), 0.0);
        assert_eq!(d.exceedance(1_000_000), 0.0);
    }

    #[test]
    fn quantile_matches_exceedance() {
        let d = dist(&[(0, 0.9), (10, 0.06), (130, 0.04)]);
        assert_eq!(d.quantile(1.0), Some(0));
        assert_eq!(d.quantile(0.2), Some(0));
        assert_eq!(d.quantile(0.05), Some(10));
        assert_eq!(d.quantile(0.01), Some(130));
        assert_eq!(d.quantile(0.0), Some(130));
    }

    #[test]
    fn quantile_none_when_tail_dominates() {
        let mut d = dist(&[(0, 1.0)]);
        d.tail = 0.5;
        d.points[0].1 = 0.5;
        assert_eq!(d.quantile(0.25), None);
        assert_eq!(d.quantile(0.75), Some(0));
    }

    #[test]
    fn point_mass_convolution_shifts() {
        let d = dist(&[(0, 0.5), (7, 0.5)]);
        let shifted = d.convolve(&DiscreteDistribution::point_mass(100));
        assert_eq!(shifted.points(), &[(100, 0.5), (107, 0.5)]);
    }

    #[test]
    fn zero_is_identity() {
        let d = dist(&[(3, 0.25), (8, 0.75)]);
        assert_eq!(d.convolve(&DiscreteDistribution::zero()), d);
        assert_eq!(DiscreteDistribution::zero().convolve(&d), d);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = dist(&[(0, 0.7), (10, 0.3)]);
        let b = dist(&[(0, 0.4), (5, 0.35), (100, 0.25)]);
        assert_eq!(a.convolve(&b), b.convolve(&a));
    }

    #[test]
    fn convolution_preserves_mass() {
        let a = dist(&[(0, 0.7), (10, 0.3)]);
        let b = dist(&[(0, 0.4), (5, 0.35), (100, 0.25)]);
        let c = a.convolve(&b);
        assert!((c.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn convolution_of_binomial_points_matches_hand_computation() {
        // Figure 1.b: set 0 has penalties {0, 10, 130}, set 1 {0, 14, 164}.
        let p = [0.95, 0.04, 0.01];
        let set0 = dist(&[(0, p[0]), (10, p[1]), (130, p[2])]);
        let set1 = dist(&[(0, p[0]), (14, p[1]), (164, p[2])]);
        let both = set0.convolve(&set1);
        // P(total = 0) = 0.95² …
        let prob_at = |v: u64| -> f64 {
            both.points()
                .iter()
                .find(|&&(x, _)| x == v)
                .map_or(0.0, |&(_, p)| p)
        };
        assert!((prob_at(0) - 0.95 * 0.95).abs() < 1e-12);
        assert!((prob_at(24) - 0.04 * 0.04).abs() < 1e-12);
        assert!((prob_at(294) - 0.01 * 0.01).abs() < 1e-12);
        // P(total = 144) = P(130)·P(14) = 0.01·0.04.
        assert!((prob_at(144) - 0.01 * 0.04).abs() < 1e-12);
        assert_eq!(both.support_len(), 9);
    }

    #[test]
    fn pruning_moves_mass_to_tail_never_drops_it() {
        let a = dist(&[(0, 1.0 - 1e-12), (1000, 1e-12)]);
        let params = ConvolutionParams {
            prune_epsilon: 1e-6,
            max_support: 1 << 20,
        };
        let c = a.convolve_with(&a, &params);
        // The 1e-12 and 1e-24 cross terms fall below epsilon: tail-folded.
        assert!(c.tail_mass() > 0.0);
        assert!((c.total_mass() - 1.0).abs() < 1e-9);
        // Exceedance with tail is conservative: >= exact exceedance.
        let exact = a.convolve(&a);
        for v in [0u64, 999, 1000, 1999, 2000] {
            assert!(c.exceedance(v) >= exact.exceedance(v) - 1e-15);
        }
    }

    #[test]
    fn support_compaction_is_conservative() {
        let points: Vec<(u64, f64)> = (0..100).map(|i| (i * 3, 0.01)).collect();
        let d = dist(&points);
        let params = ConvolutionParams {
            prune_epsilon: 0.0,
            max_support: 10,
        };
        let compact = d.convolve_with(&DiscreteDistribution::zero(), &params);
        assert!(compact.support_len() <= 10);
        assert!((compact.total_mass() - 1.0).abs() < 1e-12);
        for v in (0..300).step_by(7) {
            assert!(
                compact.exceedance(v) >= d.exceedance(v) - 1e-12,
                "exceedance at {v} must not shrink"
            );
        }
    }

    #[test]
    fn scale_values_multiplies_support() {
        let d = dist(&[(0, 0.5), (3, 0.5)]);
        let scaled = d.scale_values(100);
        assert_eq!(scaled.points(), &[(0, 0.5), (300, 0.5)]);
    }

    #[test]
    fn scale_values_saturates() {
        let d = dist(&[(u64::MAX / 2, 1.0)]);
        let scaled = d.scale_values(4);
        assert_eq!(scaled.max_value(), Some(u64::MAX));
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing() {
        let d = dist(&[(0, 0.6), (5, 0.3), (20, 0.1)]);
        let ccdf = d.ccdf();
        assert_eq!(ccdf.len(), 3);
        for pair in ccdf.windows(2) {
            assert!(pair[0].exceedance >= pair[1].exceedance);
            assert!(pair[0].value < pair[1].value);
        }
        assert_eq!(ccdf.last().unwrap().exceedance, 0.0);
    }

    #[test]
    fn display_renders_points_and_tail() {
        let d = dist(&[(0, 0.5), (10, 0.5)]);
        let s = d.to_string();
        assert!(s.contains("0:"));
        assert!(s.contains("10:"));
    }

    #[test]
    fn convolve_all_folds() {
        let part = dist(&[(0, 0.9), (1, 0.1)]);
        let parts = vec![part; 4];
        let total = DiscreteDistribution::convolve_all(&parts, &ConvolutionParams::default());
        // Sum of 4 Bernoulli(0.1): P(total = 4) = 1e-4.
        let last = *total.points().last().unwrap();
        assert_eq!(last.0, 4);
        assert!((last.1 - 1e-4).abs() < 1e-15);
    }

    #[test]
    fn tree_matches_left_fold_without_pruning() {
        let params = ConvolutionParams {
            prune_epsilon: 0.0,
            max_support: usize::MAX,
        };
        let parts: Vec<DiscreteDistribution> = (1..=7u64)
            .map(|s| dist(&[(0, 0.9), (3 * s, 0.06), (10 * s, 0.04)]))
            .collect();
        let tree = DiscreteDistribution::convolve_all(&parts, &params);
        let fold = DiscreteDistribution::convolve_all_sequential(&parts, &params);
        assert_eq!(tree.support_len(), fold.support_len());
        assert!((tree.total_mass() - fold.total_mass()).abs() < 1e-12);
        for (&(vt, pt), &(vf, pf)) in tree.points().iter().zip(fold.points()) {
            assert_eq!(vt, vf);
            assert!((pt - pf).abs() < 1e-12, "probability at {vt} diverged");
        }
    }

    /// The sort-and-merge reference `convolve_with` (the pre-dense-path
    /// algorithm, reproduced verbatim) — the dense accumulator, with its
    /// fused ε-prune, must match it bit for bit in points and tail
    /// whenever it engages.
    fn reference_convolve(
        a: &DiscreteDistribution,
        b: &DiscreteDistribution,
        params: &ConvolutionParams,
    ) -> (Vec<(u64, f64)>, f64) {
        let finite_a: f64 = a.points().iter().map(|&(_, p)| p).sum();
        let finite_b: f64 = b.points().iter().map(|&(_, p)| p).sum();
        let mut tail = a.tail_mass() * (finite_b + b.tail_mass()) + b.tail_mass() * finite_a;
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for &(va, pa) in a.points() {
            for &(vb, pb) in b.points() {
                sums.push((va.saturating_add(vb), pa * pb));
            }
        }
        sums.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(u64, f64)> = Vec::new();
        for (value, prob) in sums {
            match merged.last_mut() {
                Some((lv, lp)) if *lv == value => *lp += prob,
                _ => merged.push((value, prob)),
            }
        }
        // Mirror pruning step 1, folding in ascending value order (no
        // compaction: supports stay tiny here).
        let mut kept = Vec::new();
        for (value, prob) in merged {
            if prob < params.prune_epsilon {
                tail += prob;
            } else {
                kept.push((value, prob));
            }
        }
        (kept, tail)
    }

    #[test]
    fn dense_accumulation_is_bit_identical_to_sorted_merge() {
        let params = ConvolutionParams::default();
        // Mixed shapes: overlapping sums (exercises per-slot accumulation
        // order), tiny probabilities (exercises epsilon pruning), strided
        // values (exercises sparse slot skipping). The last two put dense
        // slots below `prune_epsilon` (1e-40 and 1e-34 products, several
        // per product set, some sharing a slot), so the fused scan folds
        // them into the tail in slot order; one carries a tail already.
        let mut tailed = dist(&[(0, 0.5), (3, 0.25), (5, 0.25 - 1e-20)]);
        tailed.tail = 1e-20;
        let cases = [
            dist(&[(0, 0.9), (7, 0.06), (164, 0.04)]),
            dist(&[(0, 0.5), (1, 0.25), (2, 0.125), (3, 0.125)]),
            dist(&[(10, 0.3), (157, 0.3), (164, 0.4)]),
            dist(&[(0, 1.0 - 1e-12), (1000, 1e-12)]),
            dist(&[(0, 1.0 - 3e-20), (2, 1e-20), (3, 1e-20), (9, 1e-20)]),
            tailed,
        ];
        let mut pruned_tails = 0;
        for a in &cases {
            for b in &cases {
                let got = a.convolve_with(b, &params);
                let (points, tail) = reference_convolve(a, b, &params);
                assert_eq!(got.points(), &points[..], "diverged for {a} x {b}");
                assert_eq!(
                    got.tail_mass().to_bits(),
                    tail.to_bits(),
                    "tail of {a} x {b}"
                );
                if tail > 0.0 {
                    pruned_tails += 1;
                }
            }
        }
        assert!(pruned_tails > 0, "some products fell below prune_epsilon");
        // A span too wide for the dense path must still be correct (falls
        // back to the sort) and identical to the reference.
        let wide = dist(&[(0, 0.5), (u64::MAX / 2, 0.5)]);
        let got = wide.convolve_with(&cases[0], &params);
        let (points, tail) = reference_convolve(&wide, &cases[0], &params);
        assert_eq!(got.points(), &points[..]);
        assert_eq!(got.tail_mass().to_bits(), tail.to_bits());
    }

    #[test]
    fn convolve_all_edge_cases_match_fold() {
        let params = ConvolutionParams::default();
        let empty: [DiscreteDistribution; 0] = [];
        assert_eq!(
            DiscreteDistribution::convolve_all(&empty, &params),
            DiscreteDistribution::zero()
        );
        let single = [dist(&[(5, 0.5), (9, 0.5)])];
        assert_eq!(
            DiscreteDistribution::convolve_all(&single, &params),
            DiscreteDistribution::convolve_all_sequential(&single, &params)
        );
    }
}
