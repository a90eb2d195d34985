//! Analysis configuration.

use pwcet_analysis::ClassificationMode;
use pwcet_cache::{CacheGeometry, CacheTiming};
use pwcet_par::Parallelism;
use pwcet_prob::FaultModel;

/// All parameters of a pWCET analysis run.
///
/// [`paper_default`](Self::paper_default) reproduces §IV-A of the paper:
/// a 1 KB 4-way 16-byte-line cache, 1-cycle hits, 100-cycle memory,
/// `pfail = 10⁻⁴`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Cache shape (S sets × W ways × K-bit blocks).
    pub geometry: CacheGeometry,
    /// Fetch latencies.
    pub timing: CacheTiming,
    /// Permanent-fault model (per-bit failure probability).
    pub fault_model: FaultModel,
    /// Base address programs are compiled at.
    pub code_base: u32,
    /// How fan-out stages (classification levels, per-`(set, fault)` ILP
    /// solves, batched programs) are scheduled. The sequential and
    /// parallel modes produce bit-identical results.
    pub parallelism: Parallelism,
    /// How the CHMC levels of a context are computed: `Incremental`
    /// warm-starts each level from the adjacent one (the default);
    /// `Cold` runs every fixpoint from scratch (the reference mode). The
    /// two produce bit-identical classifications.
    pub classification: ClassificationMode,
}

impl AnalysisConfig {
    /// The experimental setup of the paper (§IV-A).
    pub fn paper_default() -> Self {
        Self {
            geometry: CacheGeometry::paper_default(),
            timing: CacheTiming::paper_default(),
            fault_model: FaultModel::new(1e-4).expect("1e-4 is a valid probability"),
            code_base: 0x0040_0000,
            parallelism: Parallelism::Auto,
            classification: ClassificationMode::Incremental,
        }
    }

    /// The same setup with a different per-bit failure probability.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`pwcet_prob::ProbError`] if `pfail` is not
    /// a probability.
    pub fn with_pfail(mut self, pfail: f64) -> Result<Self, pwcet_prob::ProbError> {
        self.fault_model = FaultModel::new(pfail)?;
        Ok(self)
    }

    /// The same setup with a different fan-out scheduling mode.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The same setup with a different classification mode.
    #[must_use]
    pub fn with_classification(mut self, mode: ClassificationMode) -> Self {
        self.classification = mode;
        self
    }
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv_a() {
        let c = AnalysisConfig::paper_default();
        assert_eq!(c.geometry.capacity_bytes(), 1024);
        assert_eq!(c.geometry.ways(), 4);
        assert_eq!(c.geometry.block_bytes(), 16);
        assert_eq!(c.timing.hit_cycles(), 1);
        assert_eq!(c.timing.miss_penalty_cycles(), 100);
        assert_eq!(c.fault_model.pfail(), 1e-4);
    }

    #[test]
    fn with_pfail_replaces_model() {
        let c = AnalysisConfig::paper_default().with_pfail(1e-3).unwrap();
        assert_eq!(c.fault_model.pfail(), 1e-3);
        assert!(AnalysisConfig::paper_default().with_pfail(2.0).is_err());
    }
}
