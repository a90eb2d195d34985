//! Worst-case path analysis: IPET and the structural tree engine.
//!
//! Both engines maximize a per-reference **cost assignment**
//! ([`CostModel`]) over all structurally feasible paths of a program:
//!
//! * [`ipet_bound`] — the Implicit Path Enumeration Technique of §II-B2:
//!   an integer linear program over node/edge execution counts with
//!   structural (Kirchhoff) constraints and loop-bound constraints,
//!   solved by `pwcet-ilp`. First-miss references get dedicated variables
//!   bounded by their persistence scope's entry count. This is the
//!   engine the paper uses, both for WCETs and for the fault-miss-map
//!   objectives ("an ILP system close to IPET", §II-C).
//!   [`ipet_bound_reference`] solves the identical model on the frozen
//!   dense tableau, the oracle the equivalence suites compare against.
//! * [`tree_bound`] — Heptane's original bottom-up timing-schema engine
//!   \[14\] over the structure tree emitted by `pwcet-progen`. It serves
//!   as an independent oracle: on the structured programs of this
//!   workspace both engines must produce identical unit-cost bounds, and
//!   the tree bound always dominates the IPET bound.
//!
//! Costs are unit-agnostic (`u64`): cycles for WCETs, *extra misses* for
//! fault-miss-map entries.
//!
//! # Example
//!
//! ```
//! use pwcet_analysis::classify;
//! use pwcet_cache::{CacheGeometry, CacheTiming};
//! use pwcet_cfg::{ExpandedCfg, FunctionExtent};
//! use pwcet_ipet::{ipet_bound, tree_bound, CostModel};
//! use pwcet_progen::{stmt, Program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiled = Program::new("p")
//!     .with_function("main", stmt::loop_(10, stmt::compute(6)))
//!     .compile(0x0040_0000)?;
//! let extents: Vec<FunctionExtent> = compiled.functions().iter()
//!     .map(|f| FunctionExtent::new(f.name(), f.entry(), f.end())).collect();
//! let bounds: Vec<(u32, u32)> = compiled.loop_bounds().iter()
//!     .map(|lb| (lb.header, lb.bound)).collect();
//! let cfg = ExpandedCfg::build(compiled.image(), &extents, &bounds)?;
//!
//! let geometry = CacheGeometry::paper_default();
//! let chmc = classify(&cfg, &geometry, geometry.ways());
//! let costs = CostModel::from_chmc(&cfg, &chmc, &CacheTiming::paper_default());
//! let wcet_ilp = ipet_bound(&cfg, &costs)?;
//! let wcet_tree = tree_bound(&compiled, &cfg, &costs);
//! assert!(wcet_ilp <= wcet_tree);
//! # Ok(())
//! # }
//! ```

mod cost;
mod ilp_engine;
mod template;
mod tree_engine;

pub use cost::{CostModel, RefCost};
pub use ilp_engine::{ipet_bound, ipet_bound_reference};
pub use template::IpetTemplate;
pub use tree_engine::tree_bound;
