//! Linear and integer linear programming.
//!
//! The paper solves its IPET and fault-miss-map systems with CPLEX 12.5
//! (§IV-A). This crate is the self-contained substitute, structured as a
//! production solver plus a frozen oracle:
//!
//! * **`sparse` (default)** — a sparse-matrix bounded-variable revised
//!   simplex. Variable bounds are handled in the ratio test (a bound is
//!   two `f64`s, never a constraint row), nonbasic variables rest at
//!   either bound, and an [`LpWorkspace`] keeps the factored basis
//!   between solves so repeated structurally-identical instances are
//!   warm-started: objective-only variants re-optimize with primal
//!   iterations from the previous optimum, and branch-and-bound children
//!   re-solve by dual-simplex steps after each bound tightening.
//!   [`Model::solve_ilp`] runs a clone-free branch and bound over it —
//!   nodes are `(variable, bound)` delta lists replayed onto an evolving
//!   workspace, optionally explored by parallel workers sharing one
//!   atomic incumbent bound ([`BranchAndBoundOptions::workers`]).
//! * **[`reference`](mod@reference)** — the original dense two-phase tableau (bounds
//!   materialized as rows) and clone-per-node branch and bound, frozen
//!   as the equivalence oracle ([`Model::solve_lp_reference`],
//!   [`Model::solve_ilp_reference`]). The property suite in
//!   `tests/properties.rs` pins the two solvers to identical objectives
//!   and feasibility classes on random instances.
//!
//! IPET instances are small network-flow-like problems whose LP relaxations
//! are usually integral, so branch and bound rarely branches; it exists to
//! *guarantee* integral optima. For maximization problems the LP relaxation
//! optimum is itself a sound (if looser) upper bound — the property the
//! random-instance suite pins — but the WCET pipeline always solves the
//! integral program.
//!
//! # Example
//!
//! ```
//! use pwcet_ilp::{ConstraintOp, Model};
//!
//! # fn main() -> Result<(), pwcet_ilp::IlpError> {
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2.5, integers.
//! let mut m = Model::new();
//! let x = m.add_var("x", 3.0);
//! let y = m.add_var("y", 2.0);
//! m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
//! m.add_constraint([(x, 1.0)], ConstraintOp::Le, 2.5);
//! m.mark_integer(x);
//! m.mark_integer(y);
//! let solution = m.solve_ilp()?;
//! assert_eq!(solution.objective.round() as i64, 10); // x = 2, y = 2
//! # Ok(())
//! # }
//! ```
//!
//! Warm-started objective variants over one factored basis:
//!
//! ```
//! use pwcet_ilp::{ConstraintOp, LpWorkspace, Model};
//!
//! # fn main() -> Result<(), pwcet_ilp::IlpError> {
//! let mut m = Model::new();
//! let x = m.add_var("x", 0.0);
//! let y = m.add_var("y", 0.0);
//! m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
//! let mut ws = LpWorkspace::new();
//! let (a, _) = m.solve_lp_in(Some(&[1.0, 0.0]), &mut ws)?;
//! let (b, stats) = m.solve_lp_in(Some(&[0.0, 1.0]), &mut ws)?; // warm
//! assert_eq!(a.objective, 4.0);
//! assert_eq!(b.objective, 4.0);
//! assert_eq!(stats.warm_starts, 1);
//! # Ok(())
//! # }
//! ```

mod error;
mod model;
pub mod reference;
mod sparse;

pub use error::IlpError;
pub use model::{
    BranchAndBoundOptions, ConstraintOp, Model, Solution, SolveStats, SolveStatsCell, VarId,
};
pub use sparse::LpWorkspace;

/// Solves the LP relaxation of `model` with the default (sparse) solver,
/// ignoring integrality marks.
///
/// # Errors
///
/// [`IlpError::Infeasible`], [`IlpError::Unbounded`], or
/// [`IlpError::IterationLimit`] on numerical cycling.
pub fn solve_lp(model: &Model) -> Result<Solution, IlpError> {
    model.solve_lp()
}
