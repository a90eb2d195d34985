//! Probability substrate for fault-aware probabilistic WCET estimation.
//!
//! This crate provides the two probabilistic ingredients of the analysis of
//! Hardy et al. (DATE 2016):
//!
//! * [`FaultModel`] — the permanent-fault model of §II-A: per-bit failure
//!   probability `pfail`, per-block failure probability `pbf` (Eq. 1) and the
//!   binomial distribution of the number of faulty ways per set (Eq. 2),
//!   including the Reliable-Way variant over `W − 1` ways (Eq. 3).
//! * [`DiscreteDistribution`] — sparse, integer-supported probability
//!   distributions used for per-set fault penalties, combined across
//!   independent sets by [`DiscreteDistribution::convolve`]. Convolution
//!   never *drops* probability mass: it forms no pairwise product below the
//!   pruning threshold and folds the mass of those products into an
//!   unbounded tail bucket, so every exceedance value computed from the
//!   result is a sound upper bound of the true exceedance.
//! * [`reference`] — the frozen convolution oracle (every product formed,
//!   merged points pruned) the soundness suites compare the production
//!   kernel against.
//!
//! # Example
//!
//! ```
//! use pwcet_prob::{DiscreteDistribution, FaultModel};
//!
//! # fn main() -> Result<(), pwcet_prob::ProbError> {
//! let model = FaultModel::new(1e-4)?;
//! let pbf = model.block_failure_probability(128); // 16-byte blocks
//! let pwf = model.way_fault_distribution(4, pbf);
//! // A set with penalties 0/10/130/400/900 cycles for 0..=4 faulty ways:
//! let set = DiscreteDistribution::from_points(
//!     [(0, pwf[0]), (10, pwf[1]), (130, pwf[2]), (400, pwf[3]), (900, pwf[4])],
//! )?;
//! let two_sets = set.convolve(&set);
//! assert!(two_sets.exceedance(0) >= set.exceedance(0));
//! # Ok(())
//! # }
//! ```

mod binomial;
mod distribution;
mod error;
mod model;
pub mod reference;

pub use binomial::{binomial_coefficient, binomial_pmf};
pub use distribution::{ConvolutionParams, DiscreteDistribution, ExceedancePoint};
pub use error::ProbError;
pub use model::FaultModel;
