//! Fault-aware probabilistic WCET estimation — the paper's contribution.
//!
//! This crate assembles the full pipeline of *"Probabilistic WCET
//! estimation in presence of hardware for mitigating the impact of
//! permanent faults"* (Hardy, Puaut, Sazeides — DATE 2016):
//!
//! 1. **Fault-free WCET** (§II-B): abstract-interpretation cache analysis
//!    (`pwcet-analysis`) plus IPET path analysis (`pwcet-ipet`).
//! 2. **Fault Miss Map** (§II-C, Figure 1a): for every cache set `s` and
//!    every number of faulty ways `f`, an ILP-computed upper bound
//!    [`FaultMissMap`] on the *additional* misses any path can suffer,
//!    obtained by re-classifying references at effective associativity
//!    `W − f` and maximizing the classification deltas.
//! 3. **Penalty distributions** (§II-C, Figure 1b): per set, the discrete
//!    distribution over `f` with binomial weights (Eqs. 1–2); sets are
//!    independent and are combined by convolution.
//! 4. **Protection mechanisms** (§III): the Reliable Way truncates the
//!    binomial at `W − 1` faulty ways (Eq. 3) and drops the catastrophic
//!    all-faulty column; the Shared Reliable Buffer recomputes that column
//!    after removing references that provably hit in the SRB (§III-B2).
//! 5. **pWCET**: `pWCET(p) = WCET_ff + penalty quantile at p`, exposed as
//!    quantiles and full exceedance curves ([`PwcetEstimate`]).
//!
//! # Staged, shared-context pipeline
//!
//! The stages run over one immutable [`AnalysisContext`] per program:
//! the expanded CFG is built once, every CHMC classification level
//! (`0..=W`) is memoized — and, under the default
//! [`ClassificationMode::Incremental`], warm-started from the adjacent
//! level so only the full-associativity fixpoint ever runs cold — and
//! the per-`(set, fault)` delta ILP solves fan out across worker threads
//! according to [`AnalysisConfig::parallelism`]. The sequential mode
//! ([`Parallelism::Sequential`]) produces bit-identical results — see
//! `crates/core/tests/parallel_equivalence.rs`.
//!
//! Every context comes from a [`ReusePlane`] — a content-addressed
//! memory tier of contexts plus optional disk, derivation and network
//! tiers — through [`ReusePlane::get_or_build_traced`]. A
//! [`PwcetAnalyzer`] without an attached plane makes a private in-memory
//! one; attach one with [`PwcetAnalyzer::with_reuse_plane`] to share
//! contexts across analyzers, programs, sweeps and processes, and use
//! [`PwcetAnalyzer::analyze_with_context`] to reuse a context across
//! fault-model sweeps.
//!
//! # Example
//!
//! ```
//! use pwcet_core::{AnalysisConfig, Protection, PwcetAnalyzer};
//! use pwcet_progen::{stmt, Program};
//!
//! # fn main() -> Result<(), pwcet_core::CoreError> {
//! let program = Program::new("demo")
//!     .with_function("main", stmt::loop_(100, stmt::compute(24)));
//! let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());
//! let analysis = analyzer.analyze(&program)?;
//! let unprotected = analysis.estimate(Protection::None);
//! let rw = analysis.estimate(Protection::ReliableWay);
//! assert!(rw.pwcet_at(1e-15) <= unprotected.pwcet_at(1e-15));
//! assert!(rw.pwcet_at(1e-15) >= analysis.fault_free_wcet());
//! # Ok(())
//! # }
//! ```

mod codec;
mod config;
mod context;
mod context_cache;
mod error;
mod estimate;
mod fmm;
pub mod frame;
mod pipeline;
mod reuse_plane;

pub use codec::{entry_checksum, fnv1a_checksum};
pub use config::AnalysisConfig;
pub use context::AnalysisContext;
pub use context_cache::{ContextCache, ContextCacheStats, DEFAULT_CONTEXT_CAPACITY};
pub use error::CoreError;
pub use estimate::{Protection, PwcetEstimate};
pub use fmm::FaultMissMap;
pub use pipeline::{delta_cost_model, expand_compiled, ProgramAnalysis, PwcetAnalyzer};
pub use pwcet_analysis::{ClassificationMode, KernelStats};
pub use pwcet_ilp::SolveStats;
pub use pwcet_ipet::IpetTemplate;
pub use pwcet_par::Parallelism;
pub use reuse_plane::{
    NetworkTier, ReusePlane, ReusePlaneStats, ReuseTier, DEFAULT_DISK_CAPACITY_BYTES,
};
