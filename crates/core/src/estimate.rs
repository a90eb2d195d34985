//! Protection levels and pWCET estimates.

use std::fmt;
use std::sync::Arc;

use pwcet_prob::{DiscreteDistribution, ExceedancePoint};

/// The reliability mechanism protecting the instruction cache (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// No protection: faulty ways are disabled, fully faulty sets cache
    /// nothing (the baseline of \[1\]).
    None,
    /// Reliable Way: way 0 of every set is hardened (§III-A1).
    ReliableWay,
    /// Shared Reliable Buffer: one hardened block-sized buffer serving
    /// fully faulty sets (§III-A2).
    SharedReliableBuffer,
}

impl Protection {
    /// All protection levels, baseline first.
    pub fn all() -> [Protection; 3] {
        [
            Protection::None,
            Protection::SharedReliableBuffer,
            Protection::ReliableWay,
        ]
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protection::None => write!(f, "no protection"),
            Protection::ReliableWay => write!(f, "RW"),
            Protection::SharedReliableBuffer => write!(f, "SRB"),
        }
    }
}

/// A probabilistic WCET estimate: the fault-free WCET plus a distribution
/// of fault-induced penalties.
///
/// The estimate answers exceedance queries ("which value is exceeded with
/// probability at most `p`?" — the pWCET at `p`) and exports the full
/// complementary cumulative distribution (Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PwcetEstimate {
    protection: Protection,
    fault_free_wcet: u64,
    /// Penalty distribution in cycles, shared with the context's penalty
    /// memo when the distribution was retained there.
    penalty: Arc<DiscreteDistribution>,
}

impl PwcetEstimate {
    pub(crate) fn new(
        protection: Protection,
        fault_free_wcet: u64,
        penalty: Arc<DiscreteDistribution>,
    ) -> Self {
        Self {
            protection,
            fault_free_wcet,
            penalty,
        }
    }

    /// The protection level this estimate was computed for.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// The fault-free (deterministic) WCET in cycles.
    pub fn fault_free_wcet(&self) -> u64 {
        self.fault_free_wcet
    }

    /// The fault-penalty distribution in cycles (0 = no penalty).
    pub fn penalty_distribution(&self) -> &DiscreteDistribution {
        &self.penalty
    }

    /// The pWCET at target exceedance probability `p`: the smallest value
    /// the execution time exceeds with probability at most `p` among the
    /// chip population.
    ///
    /// # Panics
    ///
    /// Panics if the distribution cannot bound the quantile, which only
    /// happens when the convolution pruning tail exceeds `p` (with default
    /// parameters the tail is ≤ 10⁻³⁰ per pruned point — far below any
    /// practical target). Use [`try_pwcet_at`](Self::try_pwcet_at) to
    /// handle that case explicitly.
    pub fn pwcet_at(&self, p: f64) -> u64 {
        self.try_pwcet_at(p)
            .expect("pruning tail exceeds the target probability")
    }

    /// As [`pwcet_at`](Self::pwcet_at), returning `None` when the pruning
    /// tail exceeds `p`.
    pub fn try_pwcet_at(&self, p: f64) -> Option<u64> {
        Some(self.fault_free_wcet + self.penalty.quantile(p)?)
    }

    /// The exceedance curve over absolute execution-time values — the
    /// complementary cumulative distribution of Figure 3.
    pub fn exceedance_curve(&self) -> Vec<ExceedancePoint> {
        self.penalty
            .ccdf()
            .into_iter()
            .map(|point| ExceedancePoint {
                value: self.fault_free_wcet + point.value,
                exceedance: point.exceedance,
            })
            .collect()
    }

    /// The probability that execution time exceeds `value` cycles.
    pub fn exceedance_of(&self, value: u64) -> f64 {
        if value < self.fault_free_wcet {
            return 1.0;
        }
        self.penalty.exceedance(value - self.fault_free_wcet)
    }

    /// Mean pWCET over the chip population (fault-free WCET plus the mean
    /// penalty).
    pub fn mean(&self) -> f64 {
        self.fault_free_wcet as f64 + self.penalty.finite_mean()
    }

    /// Relative pWCET gain of this estimate over `baseline` at probability
    /// `p`: `1 − pWCET_self(p) / pWCET_baseline(p)` (the paper's Figure 4
    /// metric).
    pub fn gain_over(&self, baseline: &PwcetEstimate, p: f64) -> f64 {
        let own = self.pwcet_at(p) as f64;
        let base = baseline.pwcet_at(p) as f64;
        1.0 - own / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(wcet: u64, points: &[(u64, f64)]) -> PwcetEstimate {
        PwcetEstimate::new(
            Protection::None,
            wcet,
            Arc::new(DiscreteDistribution::from_points(points.iter().copied()).unwrap()),
        )
    }

    #[test]
    fn pwcet_at_adds_quantile() {
        let e = estimate(1000, &[(0, 0.9), (100, 0.09), (500, 0.01)]);
        assert_eq!(e.pwcet_at(1.0), 1000);
        assert_eq!(e.pwcet_at(0.05), 1100);
        assert_eq!(e.pwcet_at(0.001), 1500);
        assert_eq!(e.fault_free_wcet(), 1000);
    }

    #[test]
    fn exceedance_curve_is_shifted() {
        let e = estimate(1000, &[(0, 0.9), (100, 0.1)]);
        let curve = e.exceedance_curve();
        assert_eq!(curve[0].value, 1000);
        assert!((curve[0].exceedance - 0.1).abs() < 1e-12);
        assert_eq!(curve[1].value, 1100);
        assert_eq!(curve[1].exceedance, 0.0);
    }

    #[test]
    fn exceedance_of_values() {
        let e = estimate(1000, &[(0, 0.9), (100, 0.1)]);
        assert_eq!(e.exceedance_of(500), 1.0);
        assert!((e.exceedance_of(1000) - 0.1).abs() < 1e-12);
        assert_eq!(e.exceedance_of(1100), 0.0);
    }

    #[test]
    fn gain_metric() {
        let baseline = estimate(1000, &[(0, 0.5), (1000, 0.5)]);
        let better = estimate(1000, &[(0, 0.5), (500, 0.5)]);
        // At p = 0.1: baseline pWCET 2000, better 1500 → gain 25%.
        assert!((better.gain_over(&baseline, 0.1) - 0.25).abs() < 1e-12);
        assert_eq!(baseline.gain_over(&baseline, 0.1), 0.0);
    }

    #[test]
    fn mean_adds_penalty_mean() {
        let e = estimate(100, &[(0, 0.75), (40, 0.25)]);
        assert!((e.mean() - 110.0).abs() < 1e-12);
    }

    #[test]
    fn protection_display() {
        assert_eq!(Protection::None.to_string(), "no protection");
        assert_eq!(Protection::ReliableWay.to_string(), "RW");
        assert_eq!(Protection::SharedReliableBuffer.to_string(), "SRB");
        assert_eq!(Protection::all().len(), 3);
    }
}
