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

use std::borrow::Cow;
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
    /// Pairwise products with probability below this threshold are never
    /// formed: their mass is folded into the unbounded tail. The default
    /// (`1e-30`) is fifteen orders of magnitude below the smallest target
    /// exceedance probability used in the paper (`10⁻¹⁵`), so pruning is
    /// invisible at any probability of interest. Zero (or less) prunes
    /// nothing.
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
/// times the number of pruned products.
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
        merge_equal_values(&mut collected);
        let total: f64 = collected.iter().map(|&(_, p)| p).sum();
        if total > 1.0 + MASS_TOLERANCE {
            return Err(ProbError::MassExceedsOne(total));
        }
        Ok(Self {
            points: collected,
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
        answer
    }

    /// Multiplies every support value by `factor` (e.g. converting a
    /// miss-count distribution into a cycle-penalty distribution).
    ///
    /// Values saturate at `u64::MAX`, which is conservative: saturation can
    /// only raise penalties.
    #[must_use]
    pub fn scale_values(&self, factor: u64) -> Self {
        let mut points: Vec<(u64, f64)> = self
            .points
            .iter()
            .map(|&(v, p)| (v.saturating_mul(factor), p))
            .collect();
        merge_equal_values(&mut points);
        Self {
            points,
            tail: self.tail,
        }
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
    ///
    /// No product below [`ConvolutionParams::prune_epsilon`] is formed:
    /// each left point meets the right operand's points in descending
    /// probability order, multiplies only while the product clears ε, and
    /// adds its probability times the right operand's remaining mass to
    /// the tail. The surviving products are summed per value in a dense
    /// accumulator when they fill enough of their value range, and sorted
    /// and merged otherwise; both paths add each value's products in the
    /// same order, so the choice never changes a bit of the result.
    #[must_use]
    pub fn convolve_with(&self, other: &Self, params: &ConvolutionParams) -> Self {
        let products = Products::new(self, other, params.prune_epsilon);
        // Zeroing and scanning the range must not dwarf the
        // `count · log(count)` sort it replaces.
        let points = match products.span() {
            Some((base, slots)) if slots <= products.count.saturating_mul(16).max(4096) => {
                products.accumulate_dense(base, slots)
            }
            _ => products.sort_and_merge(),
        };
        Self::from_merged(points, products.tail, params)
    }

    /// A distribution over value-sorted, merged `points` and `tail`, with
    /// an oversized support compacted to `params.max_support` points.
    pub(crate) fn from_merged(
        points: Vec<(u64, f64)>,
        tail: f64,
        params: &ConvolutionParams,
    ) -> Self {
        let mut result = Self { points, tail };
        result.compact(params);
        result
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
    /// ([`reference::convolve_all_sequential`](crate::reference::convolve_all_sequential),
    /// kept as the reference for the property tests).
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
        Self::reduce_tree(parts, |a, b| a.convolve_with(b, params))
    }

    /// The balanced reduction tree of [`convolve_all`](Self::convolve_all)
    /// over any pairwise convolution `pair`.
    pub(crate) fn reduce_tree(parts: &[Self], pair: impl Fn(&Self, &Self) -> Self) -> Self {
        // One tree level: convolve neighbor pairs, carry an odd leftover.
        let reduce_level = |level: &[Self]| -> Vec<Self> {
            level
                .chunks(2)
                .map(|chunk| match chunk {
                    [a, b] => pair(a, b),
                    [odd] => odd.clone(),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                })
                .collect()
        };

        match parts {
            [] => Self::zero(),
            // Match the fold semantics: a single part is still pruned.
            [only] => pair(&Self::zero(), only),
            _ => {
                // The first level borrows `parts` directly — no upfront
                // clone of the whole input.
                let mut level = reduce_level(parts);
                while level.len() > 1 {
                    level = reduce_level(&level);
                }
                level.pop().expect("non-empty input leaves one root")
            }
        }
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

    /// The second step of the pruning strategy (after the ε cut of
    /// [`convolve_with`](Self::convolve_with)): compacts an oversized
    /// support by merging runs of adjacent points; each run's mass moves
    /// to the run's *largest* value.
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

/// Merges runs of equal values in a value-sorted list in place, adding
/// each run's probabilities in list order.
pub(crate) fn merge_equal_values(points: &mut Vec<(u64, f64)>) {
    points.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// The products of one pairwise convolution that clear ε, generated left
/// point by left point, each left point's row in the right operand's
/// order, and the result's tail. Both accumulation paths consume this one
/// sequence.
struct Products<'a> {
    left: &'a [(u64, f64)],
    /// The right operand: in value order when every product clears ε,
    /// else in descending probability order (equal probabilities in value
    /// order).
    right: Cow<'a, [(u64, f64)]>,
    /// Per left point, how many leading right points it multiplies; `None`
    /// when every product clears ε.
    cuts: Option<Vec<usize>>,
    /// How many products clear ε.
    count: usize,
    /// The smallest and largest sum among them; `None` when there are
    /// none or a sum overflows.
    range: Option<(u64, u64)>,
    /// The result's tail: the operands' tails combined, plus the mass of
    /// every cut product.
    tail: f64,
}

impl<'a> Products<'a> {
    /// Cuts each left point's row where its products fall below
    /// `epsilon`. A non-positive (or NaN) `epsilon` cuts nothing.
    fn new(a: &'a DiscreteDistribution, b: &'a DiscreteDistribution, epsilon: f64) -> Self {
        let epsilon = epsilon.max(0.0);
        let (left, right) = (&a.points[..], &b.points[..]);
        let finite = |points: &[(u64, f64)]| points.iter().map(|&(_, p)| p).sum::<f64>();
        // P(result unbounded) = P(A unbounded) + P(B unbounded) − both, plus
        // cross terms with the finite parts; equivalently:
        let mut tail = a.tail * (finite(right) + b.tail) + b.tail * finite(left);
        let smallest =
            |points: &[(u64, f64)]| points.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        // When even the smallest product clears ε there is nothing to cut:
        // skip the ordering, the suffix masses and the per-point search.
        if smallest(left) * smallest(right) >= epsilon {
            let range = match (left.first(), left.last(), right.first(), right.last()) {
                (Some(&(a_lo, _)), Some(&(a_hi, _)), Some(&(b_lo, _)), Some(&(b_hi, _))) => {
                    a_lo.checked_add(b_lo).zip(a_hi.checked_add(b_hi))
                }
                _ => None,
            };
            return Self {
                left,
                right: Cow::Borrowed(right),
                cuts: None,
                count: left.len() * right.len(),
                range,
                tail,
            };
        }

        // Values are distinct, so the order is total and an unstable sort
        // is deterministic.
        let mut order = right.to_vec();
        order.sort_unstable_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        // `rest[j]`: the mass of `order[j..]`, summed from the smallest, and
        // the smallest and largest value in `order[..j]`.
        let mut rest = vec![(0.0, u64::MAX, 0); order.len() + 1];
        for (j, &(v, _)) in order.iter().enumerate() {
            let (_, lo, hi) = rest[j];
            rest[j + 1] = (0.0, lo.min(v), hi.max(v));
        }
        for j in (0..order.len()).rev() {
            rest[j].0 = rest[j + 1].0 + order[j].1;
        }
        let mut cuts = Vec::with_capacity(left.len());
        let mut count = 0;
        let mut range = Some((u64::MAX, 0));
        for &(va, pa) in left {
            // `pa · pb` falls monotonically along `order`.
            let cut = order.partition_point(|&(_, pb)| pa * pb >= epsilon);
            let (mass, lo, hi) = rest[cut];
            tail += pa * mass;
            if cut > 0 {
                range = range.and_then(|(min, max)| {
                    Some((min.min(va.checked_add(lo)?), max.max(va.checked_add(hi)?)))
                });
            }
            cuts.push(cut);
            count += cut;
        }
        Self {
            left,
            right: Cow::Owned(order),
            cuts: Some(cuts),
            count,
            range: range.filter(|_| count > 0),
            tail,
        }
    }

    /// Calls `emit(sum, product)` for every product that clears ε, in
    /// generation order.
    fn for_each(&self, mut emit: impl FnMut(u64, f64)) {
        for (i, &(va, pa)) in self.left.iter().enumerate() {
            let cut = self.cuts.as_ref().map_or(self.right.len(), |cuts| cuts[i]);
            for &(vb, pb) in &self.right[..cut] {
                emit(va.saturating_add(vb), pa * pb);
            }
        }
    }

    /// The dense accumulator's base value and slot count: `None` when no
    /// product survives, a sum overflows, or the range is too wide to
    /// allocate.
    fn span(&self) -> Option<(u64, usize)> {
        let (lo, hi) = self.range?;
        let slots = usize::try_from(hi - lo).ok()?.checked_add(1)?;
        (slots <= 1 << 22).then_some((lo, slots))
    }

    /// Sums the products per value in `slots` dense slots from `base`
    /// (taken from [`span`](Self::span)). A slot left at zero is no point.
    fn accumulate_dense(&self, base: u64, slots: usize) -> Vec<(u64, f64)> {
        let mut acc = vec![0.0f64; slots];
        // In range by construction: every sum lies in `range`, so it
        // neither saturated nor falls outside the slots.
        self.for_each(|v, p| acc[(v - base) as usize] += p);
        let mut points: Vec<(u64, f64)> = acc
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(i, &p)| (base + i as u64, p))
            .collect();
        points.shrink_to_fit();
        points
    }

    /// Sorts the products by value and merges equal sums in place. The
    /// sort is stable, so each value adds its products in generation order
    /// — the dense path's order.
    fn sort_and_merge(&self) -> Vec<(u64, f64)> {
        let mut sums = Vec::with_capacity(self.count);
        self.for_each(|v, p| sums.push((v, p)));
        sums.sort_by_key(|&(v, _)| v);
        merge_equal_values(&mut sums);
        // An exact-zero product (possible only by underflow when nothing is
        // cut) leaves no point, as in the dense path.
        sums.retain(|&(_, p)| p > 0.0);
        sums.shrink_to_fit();
        sums
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
        let fold = crate::reference::convolve_all_sequential(&parts, &params);
        assert_eq!(tree.support_len(), fold.support_len());
        assert!((tree.total_mass() - fold.total_mass()).abs() < 1e-12);
        for (&(vt, pt), &(vf, pf)) in tree.points().iter().zip(fold.points()) {
            assert_eq!(vt, vf);
            assert!((pt - pf).abs() < 1e-12, "probability at {vt} diverged");
        }
    }

    #[test]
    fn dense_accumulation_is_bit_identical_to_sorted_merge() {
        // Mixed shapes: overlapping sums (exercises per-slot accumulation
        // order), tiny probabilities (exercises the ε cut), strided values
        // (exercises sparse slot skipping). The last two cut rows (1e-40
        // and 1e-34 products, several per row, some sharing a value) and
        // one carries a tail already. Each pair runs at the default ε and
        // at ε = 0, which cuts nothing.
        let mut tailed = dist(&[(0, 0.5), (3, 0.25), (5, 0.25 - 1e-20)]);
        tailed.tail = 1e-20;
        // Its square underflows to exact-zero products when nothing is cut.
        let underflow = dist(&[(0, 1.0 - 1e-200), (5, 1e-200)]);
        let cases = [
            dist(&[(0, 0.9), (7, 0.06), (164, 0.04)]),
            dist(&[(0, 0.5), (1, 0.25), (2, 0.125), (3, 0.125)]),
            dist(&[(10, 0.3), (157, 0.3), (164, 0.4)]),
            dist(&[(0, 1.0 - 1e-12), (1000, 1e-12)]),
            dist(&[(0, 1.0 - 3e-20), (2, 1e-20), (3, 1e-20), (9, 1e-20)]),
            tailed,
        ];
        let uncut = ConvolutionParams {
            prune_epsilon: 0.0,
            ..ConvolutionParams::default()
        };
        let (mut cut_calls, mut uncut_calls) = (0, 0);
        let pairs = cases
            .iter()
            .flat_map(|a| cases.iter().map(move |b| (a, b)))
            .chain([(&underflow, &underflow)]);
        for (a, b) in pairs {
            for params in [ConvolutionParams::default(), uncut] {
                let products = Products::new(a, b, params.prune_epsilon);
                let (base, slots) = products.span().expect("small spans fit");
                let dense = DiscreteDistribution::from_merged(
                    products.accumulate_dense(base, slots),
                    products.tail,
                    &params,
                );
                let sorted = DiscreteDistribution::from_merged(
                    products.sort_and_merge(),
                    products.tail,
                    &params,
                );
                let bits = |d: &DiscreteDistribution| {
                    let points: Vec<(u64, u64)> =
                        d.points().iter().map(|&(v, p)| (v, p.to_bits())).collect();
                    (points, d.tail_mass().to_bits())
                };
                assert_eq!(bits(&dense), bits(&sorted), "diverged for {a} x {b}");
                assert_eq!(a.convolve_with(b, &params), dense, "{a} x {b}");
                if products.cuts.is_some() {
                    cut_calls += 1;
                } else {
                    uncut_calls += 1;
                }
            }
        }
        assert!(
            cut_calls > 0 && uncut_calls > 0,
            "both generation orders ran"
        );
        assert_eq!(
            underflow.convolve_with(&underflow, &uncut).support_len(),
            2,
            "exact-zero products leave no point"
        );
        // A span too wide for the dense path sorts; nothing is cut, so it
        // forms the oracle's products in the oracle's order.
        let wide = dist(&[(0, 0.5), (u64::MAX / 2, 0.5)]);
        let params = ConvolutionParams::default();
        assert_eq!(Products::new(&wide, &cases[0], 1e-30).span(), None);
        let got = wide.convolve_with(&cases[0], &params);
        let oracle = crate::reference::convolve_with(&wide, &cases[0], &params);
        assert_eq!(got.points(), oracle.points());
        assert_eq!(got.tail_mass().to_bits(), oracle.tail_mass().to_bits());
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
            crate::reference::convolve_all_sequential(&single, &params)
        );
    }
}
