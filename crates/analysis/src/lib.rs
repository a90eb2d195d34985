//! Static instruction-cache analysis by abstract interpretation.
//!
//! Implements the cache analyses the paper builds on (§II-B1):
//!
//! * **Must** analysis — a reference is *always-hit* when its block is
//!   guaranteed in the cache (maximum possible LRU age < associativity);
//! * **May** analysis — a reference is *always-miss* when its block cannot
//!   be in the cache (not in the May state);
//! * **Persistence** — a reference is *first-miss* in the outermost scope
//!   (loop or whole program) where its block, once loaded, can never be
//!   evicted. This implementation uses *conflict-set* persistence: a set's
//!   blocks are persistent in a scope when the scope references at most
//!   `associativity` distinct blocks mapping to that set — a criterion that
//!   avoids the known unsoundness of the original persistence domain.
//!
//! All analyses take the **effective associativity** as a parameter. Cache
//! sets evolve independently under LRU, so the classification of references
//! to one set with `f` disabled ways equals the per-set readout of a whole-
//! cache analysis at associativity `W − f` — exactly what the Fault Miss
//! Map computation of `pwcet-core` needs (§II-C).
//!
//! The **SRB analysis** of §III-B2 is the Must analysis run on a pseudo-
//! geometry with a single one-way set (the shared reliable buffer),
//! conservatively routing *every* reference through the buffer.
//!
//! The fixpoints run on a bit-packed word-parallel domain. The original
//! set-based domain ([`Acs`]) stays as the oracle: [`reference`](mod@reference) holds
//! the classification entry points built on it, which the equivalence
//! suites compare the packed kernel against.
//!
//! # Example
//!
//! ```
//! use pwcet_analysis::{classify, Chmc};
//! use pwcet_cache::CacheGeometry;
//! use pwcet_cfg::{ExpandedCfg, FunctionExtent};
//! use pwcet_progen::{stmt, Program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiled = Program::new("p")
//!     .with_function("main", stmt::loop_(10, stmt::compute(2)))
//!     .compile(0x0040_0000)?;
//! let extents: Vec<FunctionExtent> = compiled.functions().iter()
//!     .map(|f| FunctionExtent::new(f.name(), f.entry(), f.end())).collect();
//! let bounds: Vec<(u32, u32)> = compiled.loop_bounds().iter()
//!     .map(|lb| (lb.header, lb.bound)).collect();
//! let cfg = ExpandedCfg::build(compiled.image(), &extents, &bounds)?;
//! let chmc = classify(&cfg, &CacheGeometry::paper_default(), 4);
//! // The tiny loop fits: after the cold start everything hits or is a
//! // first miss.
//! assert!(chmc.stats().always_miss <= chmc.stats().total());
//! # Ok(())
//! # }
//! ```

mod acs;
mod chmc;
mod classify;
mod fixpoint;
mod packed;
mod persistence;
pub mod reference;

pub use acs::{Acs, AnalysisKind};
pub use chmc::{Chmc, ChmcMap, ChmcStats, Scope};
pub use classify::{
    classify, classify_level, classify_level_from, classify_level_from_with, classify_level_with,
    classify_srb, classify_srb_with, ClassificationMode, ClassifiedLevel, SrbMap,
};
pub use fixpoint::{analyze, analyze_seeded};
pub use packed::{
    analyze_packed, analyze_packed_seeded, BlockInterner, KernelStats, KernelStatsCell, PackedAcs,
};
pub use persistence::persistent_scopes;
