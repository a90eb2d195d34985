//! # fault-aware-pwcet
//!
//! Reproduction of *"Probabilistic WCET estimation in presence of hardware
//! for mitigating the impact of permanent faults"* (Hardy, Puaut, Sazeides —
//! DATE 2016).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`prob`] — discrete penalty distributions, fault model (Eqs. 1–3).
//! * [`mips`] — MIPS-I subset ISA (encode/decode/assemble).
//! * [`progen`] — structured program DSL compiled to MIPS machine code.
//! * [`cfg`](mod@cfg) — binary → control-flow graph reconstruction, loops, contexts.
//! * [`cache`] — concrete LRU cache machines (unprotected / RW / SRB).
//! * [`analysis`] — abstract-interpretation cache analysis (Must / May /
//!   Persistence) and CHMC classification.
//! * [`ilp`] — simplex + branch-and-bound ILP solver.
//! * [`ipet`] — IPET and tree-based worst-case path engines.
//! * [`core`] — the paper's contribution: fault miss maps, per-set penalty
//!   distributions, pWCET estimation under the three protection levels.
//! * [`benchsuite`] — the 25 modelled Mälardalen benchmarks.
//! * [`sim`] — functional MIPS simulator and Monte-Carlo validation.
//! * [`serve`] — the sharded analysis service: `PWCQ` wire protocol,
//!   bounded work-queue shards over a shared reuse plane, TCP server
//!   (`pwcet-serve`) and client (`pwcet-client`).
//! * [`obs`] — the hand-rolled telemetry plane: RAII stage spans under
//!   wire-propagated trace IDs, and a lock-free metrics registry with
//!   log-bucketed latency histograms (exact p50/p95/p99 exposition).
//!
//! ## Quickstart
//!
//! ```
//! use fault_aware_pwcet::benchsuite;
//! use fault_aware_pwcet::core::{AnalysisConfig, Protection, PwcetAnalyzer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = benchsuite::by_name("matmult").expect("benchmark exists");
//! let config = AnalysisConfig::paper_default();
//! let analyzer = PwcetAnalyzer::new(config);
//! let estimate = analyzer.analyze(&bench.program)?.estimate(Protection::ReliableWay);
//! let pwcet = estimate.pwcet_at(1e-15);
//! assert!(pwcet >= estimate.fault_free_wcet());
//! # Ok(())
//! # }
//! ```

pub use pwcet_analysis as analysis;
pub use pwcet_benchsuite as benchsuite;
pub use pwcet_cache as cache;
pub use pwcet_cfg as cfg;
pub use pwcet_core as core;
pub use pwcet_ilp as ilp;
pub use pwcet_ipet as ipet;
pub use pwcet_mips as mips;
pub use pwcet_obs as obs;
pub use pwcet_prob as prob;
pub use pwcet_progen as progen;
pub use pwcet_serve as serve;
pub use pwcet_sim as sim;
