//! Problem construction and branch-and-bound.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pwcet_obs::{Counter, Registry};
use pwcet_par::{par_drain, Parallelism};

use crate::error::IlpError;
use crate::sparse::{self, LpWorkspace};

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

impl VarId {
    /// Index into [`Solution::values`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `≤ rhs`
    Le,
    /// `= rhs`
    Eq,
    /// `≥ rhs`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) coeffs: Vec<(VarId, f64)>,
    pub(crate) op: ConstraintOp,
    pub(crate) rhs: f64,
}

/// An optimal (or best-found) assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The objective value at `values`.
    pub objective: f64,
    /// One value per variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
}

impl Solution {
    /// The value of `var`.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }
}

/// Counters describing how a solve (or a batch of solves) behaved.
///
/// Returned by the workspace entry points and aggregated by
/// [`SolveStatsCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Primal simplex pivots (phase 1 and 2, all branch-and-bound
    /// nodes).
    pub pivots: u64,
    /// Dual simplex pivots (bound-change re-solves).
    pub dual_pivots: u64,
    /// Pivotless nonbasic bound flips of the bounded-variable ratio
    /// test.
    pub bound_flips: u64,
    /// Branch-and-bound nodes whose relaxation was solved (root
    /// included; 1 for a pure LP).
    pub bb_nodes: u64,
    /// Solves (and branch-and-bound child re-solves) answered from an
    /// existing factored basis instead of a cold phase-1 start.
    pub warm_starts: u64,
    /// Solves that built solver state from scratch because no usable
    /// factored basis was available (pool empty, fingerprint mismatch,
    /// or numerically failed warm start). Deliberate integrality probes
    /// are counted in [`cold_probes`](Self::cold_probes) instead, so a
    /// fully warm-started run reports zero here.
    pub cold_starts: u64,
    /// Throwaway cold two-phase probes of fractional branch-and-bound
    /// nodes (see the root probe in `solve_ilp_with`): algorithmic, run
    /// even when every solve warm-starts.
    pub cold_probes: u64,
    /// Branch-and-bound children pruned as trivially infeasible (bound
    /// crossover) without paying an LP solve.
    pub trivial_prunes: u64,
}

impl SolveStats {
    /// Adds `other` into `self`, field by field.
    pub fn merge(&mut self, other: &SolveStats) {
        self.pivots += other.pivots;
        self.dual_pivots += other.dual_pivots;
        self.bound_flips += other.bound_flips;
        self.bb_nodes += other.bb_nodes;
        self.warm_starts += other.warm_starts;
        self.cold_starts += other.cold_starts;
        self.cold_probes += other.cold_probes;
        self.trivial_prunes += other.trivial_prunes;
    }
}

/// Thread-safe accumulator of [`SolveStats`] (plain relaxed counters —
/// solver workers record concurrently, readers snapshot). A
/// [`registered`](Self::registered) cell counts straight into a metrics
/// registry's rows. A clone shares the original's counters.
#[derive(Debug, Default, Clone)]
pub struct SolveStatsCell {
    pivots: Arc<Counter>,
    dual_pivots: Arc<Counter>,
    bound_flips: Arc<Counter>,
    bb_nodes: Arc<Counter>,
    warm_starts: Arc<Counter>,
    cold_starts: Arc<Counter>,
    cold_probes: Arc<Counter>,
    trivial_prunes: Arc<Counter>,
}

impl SolveStatsCell {
    /// A cell whose counters are `metrics`' `ilp_*` rows, one per
    /// [`SolveStats`] field.
    pub fn registered(metrics: &Registry) -> Self {
        Self {
            pivots: metrics.register_counter("ilp_pivots"),
            dual_pivots: metrics.register_counter("ilp_dual_pivots"),
            bound_flips: metrics.register_counter("ilp_bound_flips"),
            bb_nodes: metrics.register_counter("ilp_bb_nodes"),
            warm_starts: metrics.register_counter("ilp_warm_starts"),
            cold_starts: metrics.register_counter("ilp_cold_starts"),
            cold_probes: metrics.register_counter("ilp_cold_probes"),
            trivial_prunes: metrics.register_counter("ilp_trivial_prunes"),
        }
    }

    /// Adds one solve's counters.
    pub fn record(&self, stats: &SolveStats) {
        self.pivots.add(stats.pivots);
        self.dual_pivots.add(stats.dual_pivots);
        self.bound_flips.add(stats.bound_flips);
        self.bb_nodes.add(stats.bb_nodes);
        self.warm_starts.add(stats.warm_starts);
        self.cold_starts.add(stats.cold_starts);
        self.cold_probes.add(stats.cold_probes);
        self.trivial_prunes.add(stats.trivial_prunes);
    }

    /// The accumulated totals.
    pub fn snapshot(&self) -> SolveStats {
        SolveStats {
            pivots: self.pivots.get(),
            dual_pivots: self.dual_pivots.get(),
            bound_flips: self.bound_flips.get(),
            bb_nodes: self.bb_nodes.get(),
            warm_starts: self.warm_starts.get(),
            cold_starts: self.cold_starts.get(),
            cold_probes: self.cold_probes.get(),
            trivial_prunes: self.trivial_prunes.get(),
        }
    }
}

/// Limits for [`Model::solve_ilp_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchAndBoundOptions {
    /// Maximum explored nodes before giving up.
    pub max_nodes: usize,
    /// Values within this distance of an integer count as integral.
    pub integrality_tolerance: f64,
    /// Worker threads exploring branch-and-bound subtrees (1 = the
    /// calling thread only). Workers pull nodes from a shared pool and
    /// prune against one shared incumbent behind an atomic bound; the
    /// optimal objective is identical in every mode, though tie-broken
    /// vertices and node counts may differ under races.
    pub workers: usize,
    /// The caller guarantees the objective is integer-valued at every
    /// feasible *integral* point (true whenever all objective
    /// coefficients are integers and every variable with a nonzero
    /// coefficient is integer-marked). Nodes then prune against
    /// `⌊relaxation⌋` instead of the raw relaxation, which collapses the
    /// fractional-tie trees of objective-sparse instances (an IPET
    /// delta model bounded at 10 can discard a 10.33 relaxation
    /// outright). Off by default: unsound for continuous objectives.
    pub integral_objective: bool,
}

impl Default for BranchAndBoundOptions {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            integrality_tolerance: 1e-6,
            workers: 1,
            integral_objective: false,
        }
    }
}

/// One bound tightening of a branch-and-bound node, relative to the
/// root model.
#[derive(Debug, Clone, Copy)]
enum BoundDelta {
    Lower(f64),
    Upper(f64),
}

/// One branching decision: the fractional variable, its relaxation
/// value, and whether the up branch is explored first.
#[derive(Debug, Clone, Copy)]
struct Branching {
    var: usize,
    value: f64,
    up_first: bool,
}

/// A branch-and-bound node: the accumulated bound tightenings from the
/// root. No model clone, no constraint copies — at most two `(var,
/// bound)` pairs per branched-on variable (deeper tightenings of the
/// same side replace the old entry, so a deep dive on one variable
/// stays O(1) per node, not O(depth)).
#[derive(Debug, Clone)]
struct BbNode {
    deltas: Vec<(usize, BoundDelta)>,
}

/// Installs `candidate` as the shared incumbent if it improves on the
/// current one (the atomic bound mirrors the mutex-held objective for
/// cheap pruning reads).
fn offer_incumbent(
    incumbent: &Mutex<Option<Solution>>,
    incumbent_bound: &AtomicU64,
    candidate: Solution,
) {
    let mut best = incumbent.lock().expect("incumbent lock");
    let better = best
        .as_ref()
        .is_none_or(|b| candidate.objective > b.objective + 1e-9);
    if better {
        incumbent_bound.store(candidate.objective.to_bits(), Ordering::Relaxed);
        *best = Some(candidate);
    }
}

/// Replaces the same-side delta of `var` or appends a new one. The new
/// value is always at least as tight (children tighten monotonically),
/// so a plain overwrite is exact.
fn upsert_delta(deltas: &mut Vec<(usize, BoundDelta)>, var: usize, delta: BoundDelta) {
    for (v, d) in deltas.iter_mut() {
        if *v == var && std::mem::discriminant(d) == std::mem::discriminant(&delta) {
            *d = delta;
            return;
        }
    }
    deltas.push((var, delta));
}

/// A maximization problem over non-negative variables.
///
/// All variables have lower bound 0 (adjustable via
/// [`set_lower`](Model::set_lower)) and optional upper bounds. Constraints are linear.
/// Variables marked integer are enforced by branch and bound in
/// [`solve_ilp`](Model::solve_ilp).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct Model {
    names: Vec<String>,
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<Option<f64>>,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with the given objective coefficient; returns its
    /// handle. The name is kept for debugging output only.
    pub fn add_var(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.names.push(name.into());
        self.objective.push(objective);
        self.lower.push(0.0);
        self.upper.push(None);
        self.integer.push(false);
        VarId(self.names.len() - 1)
    }

    /// Overwrites the objective coefficient of `var`.
    pub fn set_objective(&mut self, var: VarId, coeff: f64) {
        self.objective[var.index()] = coeff;
    }

    /// Overwrites the whole objective vector (one coefficient per
    /// variable, [`VarId::index`] order).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_objective_vector(&mut self, objective: &[f64]) {
        assert_eq!(
            objective.len(),
            self.objective.len(),
            "objective vector must cover every variable"
        );
        self.objective.copy_from_slice(objective);
    }

    /// Sets an (inclusive) upper bound.
    pub fn set_upper(&mut self, var: VarId, ub: f64) {
        self.upper[var.index()] = Some(ub);
    }

    /// Sets an (inclusive) lower bound (default 0).
    pub fn set_lower(&mut self, var: VarId, lb: f64) {
        self.lower[var.index()] = lb;
    }

    /// Marks `var` as integral for [`solve_ilp`](Model::solve_ilp).
    pub fn mark_integer(&mut self, var: VarId) {
        self.integer[var.index()] = true;
    }

    /// Adds the constraint `Σ coeff·var  op  rhs`.
    pub fn add_constraint(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, f64)>,
        op: ConstraintOp,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            coeffs: coeffs.into_iter().collect(),
            op,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints (excluding variable bounds).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    pub(crate) fn objective(&self) -> &[f64] {
        &self.objective
    }

    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    pub(crate) fn upper_bounds(&self) -> &[Option<f64>] {
        &self.upper
    }

    pub(crate) fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    pub(crate) fn integer_marks(&self) -> &[bool] {
        &self.integer
    }

    pub(crate) fn set_upper_raw(&mut self, var: usize, ub: Option<f64>) {
        self.upper[var] = ub;
    }

    pub(crate) fn set_lower_raw(&mut self, var: usize, lb: f64) {
        self.lower[var] = lb;
    }

    /// Solves the LP relaxation with the sparse bounded-variable
    /// simplex.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`], [`IlpError::Unbounded`], or
    /// [`IlpError::IterationLimit`] on numerical cycling.
    pub fn solve_lp(&self) -> Result<Solution, IlpError> {
        self.solve_lp_in(None, &mut LpWorkspace::new())
            .map(|(solution, _)| solution)
    }

    /// Solves the LP relaxation with the dense reference simplex (the
    /// frozen oracle of [`crate::reference`]).
    ///
    /// # Errors
    ///
    /// As for [`solve_lp`](Model::solve_lp).
    pub fn solve_lp_reference(&self) -> Result<Solution, IlpError> {
        crate::reference::solve_lp_dense(self)
    }

    /// As [`solve_lp`](Model::solve_lp) through a reusable
    /// [`LpWorkspace`], optionally overriding the objective vector (one
    /// coefficient per variable, [`VarId::index`] order).
    ///
    /// Passing the workspace of a previous solve of the **same
    /// constraint matrix** warm-starts from its factored basis: an
    /// objective-only change re-optimizes with primal iterations alone
    /// (no phase 1), which is how `IpetTemplate` fans hundreds of
    /// objective variants off one factored basis.
    ///
    /// # Errors
    ///
    /// As for [`solve_lp`](Model::solve_lp).
    ///
    /// # Panics
    ///
    /// Panics when `objective` is given with the wrong length.
    pub fn solve_lp_in(
        &self,
        objective: Option<&[f64]>,
        ws: &mut LpWorkspace,
    ) -> Result<(Solution, SolveStats), IlpError> {
        let objective = self.checked_objective(objective);
        let mut stats = SolveStats::default();
        sparse::prepare(self, ws, &mut stats)?;
        let state = ws.state.as_mut().expect("prepare retains state");
        state.set_objective(objective);
        state.optimize(&mut stats)?;
        stats.bb_nodes += 1;
        Ok((state.solution(), stats))
    }

    /// Solves the integer program with default options.
    ///
    /// # Errors
    ///
    /// [`IlpError`] variants from the relaxations, or
    /// [`IlpError::NodeLimit`] if optimality could not be proven.
    pub fn solve_ilp(&self) -> Result<Solution, IlpError> {
        self.solve_ilp_with(&BranchAndBoundOptions::default())
    }

    /// Solves the integer program with the original clone-per-node
    /// reference branch and bound over the dense simplex.
    ///
    /// # Errors
    ///
    /// As for [`solve_ilp`](Model::solve_ilp).
    pub fn solve_ilp_reference(&self) -> Result<Solution, IlpError> {
        crate::reference::solve_ilp_dense(self, &BranchAndBoundOptions::default())
    }

    /// Solves the integer program by clone-free depth-first branch and
    /// bound: nodes carry only their bound tightenings, child
    /// relaxations are re-solved by dual-simplex warm starts from the
    /// evolving factored basis, and (with `options.workers > 1`)
    /// subtrees are explored by parallel workers sharing one incumbent.
    ///
    /// # Errors
    ///
    /// As for [`solve_ilp`](Model::solve_ilp).
    pub fn solve_ilp_with(&self, options: &BranchAndBoundOptions) -> Result<Solution, IlpError> {
        self.solve_ilp_in(None, &mut LpWorkspace::new(), options)
            .map(|(solution, _)| solution)
    }

    /// As [`solve_ilp_with`](Model::solve_ilp_with) through a reusable
    /// [`LpWorkspace`] and an optional objective override (see
    /// [`solve_lp_in`](Model::solve_lp_in)). On success the workspace
    /// retains the **root-relaxation** basis — primal feasible at the
    /// model's own bounds — as the warm-start seed of the next solve.
    ///
    /// # Errors
    ///
    /// As for [`solve_ilp`](Model::solve_ilp).
    ///
    /// # Panics
    ///
    /// Panics when `objective` is given with the wrong length.
    pub fn solve_ilp_in(
        &self,
        objective: Option<&[f64]>,
        ws: &mut LpWorkspace,
        options: &BranchAndBoundOptions,
    ) -> Result<(Solution, SolveStats), IlpError> {
        let objective = self.checked_objective(objective);
        let tol = options.integrality_tolerance;
        let mut stats = SolveStats::default();

        // Root relaxation (warm-started when the workspace allows).
        sparse::prepare(self, ws, &mut stats)?;
        let root = ws.state.as_mut().expect("prepare retains state");
        root.set_objective(objective);
        root.optimize(&mut stats)?;
        stats.bb_nodes += 1;
        if options.max_nodes == 0 {
            return Err(IlpError::NodeLimit);
        }
        let root = ws.state.as_ref().expect("prepare retains state");
        let mut root_branch = self.most_fractional(&root.values(), tol);
        let mut cold_root = None;
        if root_branch.is_some() {
            // A fractional (possibly warm-started) root: probe it cold
            // once. Tie-degenerate warm bases can sit on fractional-
            // circulation vertices of the optimal face; the cold
            // two-phase vertex (the dense reference's behavior) is very
            // often integral, turning a would-be search tree into a
            // single extra solve.
            if let Ok(cold) = sparse::solve_cold(self, objective, |_| {}, &mut stats) {
                root_branch = self.most_fractional(&cold.values(), tol);
                cold_root = Some(cold);
            }
        }
        // The workspace keeps its root state; the search below only
        // reads it (each worker clones its own).
        let root_state = cold_root.as_ref().unwrap_or(root);
        let Some((var, value)) = root_branch else {
            return Ok((self.rounded(root_state.solution()), stats));
        };

        // Branching needed: seed the two root children. Workers clone
        // the root-optimal state — basis and factored inverse, never
        // the model — and replay each node's bound deltas onto it.
        let shared_stats = SolveStatsCell::default();
        let incumbent: Mutex<Option<Solution>> = Mutex::new(None);
        let incumbent_bound = AtomicU64::new(f64::NEG_INFINITY.to_bits());
        let nodes = AtomicUsize::new(1);
        let mut seed = Vec::new();
        push_children(
            root_state,
            &BbNode { deltas: Vec::new() },
            Branching {
                var,
                value,
                up_first: objective[var] != 0.0,
            },
            tol,
            &mut seed,
            &shared_stats,
        );

        let outcome = par_drain(
            Parallelism::threads(options.workers),
            seed,
            || root_state.clone(),
            |state, node: BbNode, out| -> Result<(), IlpError> {
                let visited = nodes.fetch_add(1, Ordering::Relaxed) + 1;
                if visited > options.max_nodes {
                    return Err(IlpError::NodeLimit);
                }
                let mut local = SolveStats::default();
                local.bb_nodes += 1;
                local.warm_starts += 1;
                state.reset_bounds_to_root();
                for &(v, delta) in &node.deltas {
                    match delta {
                        BoundDelta::Lower(lb) => state.tighten_lower(v, lb),
                        BoundDelta::Upper(ub) => state.tighten_upper(v, ub),
                    }
                }
                state.normalize_statuses();
                state.recompute_xb();
                match state.optimize(&mut local) {
                    Ok(()) => {}
                    Err(IlpError::Infeasible) => {
                        shared_stats.record(&local);
                        return Ok(()); // Pruned: empty subtree.
                    }
                    Err(e) => return Err(e),
                }
                shared_stats.record(&local);
                let objective_value = state.objective_value();
                // With an integral objective a fractional relaxation
                // only proves what its floor proves (the +tol guards
                // against 10.999999 flooring to 10).
                let proven = if options.integral_objective {
                    (objective_value + tol).floor()
                } else {
                    objective_value
                };
                let bound = f64::from_bits(incumbent_bound.load(Ordering::Relaxed));
                if proven <= bound + 1e-9 {
                    return Ok(()); // Bounded by the incumbent.
                }
                match self.most_fractional(&state.values(), tol) {
                    None => {
                        offer_incumbent(
                            &incumbent,
                            &incumbent_bound,
                            self.rounded(state.solution()),
                        );
                    }
                    Some((v, value)) => {
                        // The warm dual re-solve would branch: probe the
                        // node cold first (see the root probe above).
                        // The worker's evolving state is untouched — the
                        // probe is a throwaway — so children still
                        // warm-start from the dual path.
                        let mut probe_stats = SolveStats::default();
                        let probe = sparse::solve_cold(
                            self,
                            objective,
                            |s| {
                                for &(pv, delta) in &node.deltas {
                                    match delta {
                                        BoundDelta::Lower(lb) => s.tighten_lower(pv, lb),
                                        BoundDelta::Upper(ub) => s.tighten_upper(pv, ub),
                                    }
                                }
                            },
                            &mut probe_stats,
                        );
                        shared_stats.record(&probe_stats);
                        match probe {
                            Ok(probe_state) => {
                                match self.most_fractional(&probe_state.values(), tol) {
                                    None => offer_incumbent(
                                        &incumbent,
                                        &incumbent_bound,
                                        self.rounded(probe_state.solution()),
                                    ),
                                    Some((pv, pvalue)) => push_children(
                                        &probe_state,
                                        &node,
                                        Branching {
                                            var: pv,
                                            value: pvalue,
                                            up_first: objective[pv] != 0.0,
                                        },
                                        tol,
                                        out,
                                        &shared_stats,
                                    ),
                                }
                            }
                            // A cold probe that fails numerically falls
                            // back to branching on the warm vertex.
                            Err(_) => push_children(
                                state,
                                &node,
                                Branching {
                                    var: v,
                                    value,
                                    up_first: objective[v] != 0.0,
                                },
                                tol,
                                out,
                                &shared_stats,
                            ),
                        }
                    }
                }
                Ok(())
            },
        );
        stats.merge(&shared_stats.snapshot());
        outcome?;
        let best = incumbent
            .into_inner()
            .expect("incumbent lock")
            .ok_or(IlpError::Infeasible)?;
        Ok((best, stats))
    }

    /// Resolves (and length-checks) the objective vector of a solve.
    fn checked_objective<'a>(&'a self, objective: Option<&'a [f64]>) -> &'a [f64] {
        let objective = objective.unwrap_or(&self.objective);
        assert_eq!(
            objective.len(),
            self.num_vars(),
            "objective override must cover every variable"
        );
        objective
    }

    /// The most fractional integer-marked variable, if any exceeds the
    /// tolerance.
    fn most_fractional(&self, values: &[f64], tol: f64) -> Option<(usize, f64)> {
        let mut branch: Option<(usize, f64)> = None;
        let mut best_frac = tol;
        for (i, &is_int) in self.integer.iter().enumerate() {
            if !is_int {
                continue;
            }
            let v = values[i];
            let frac = (v - v.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch = Some((i, v));
            }
        }
        branch
    }

    /// Rounds integer-marked values of an integral-within-tolerance
    /// solution.
    fn rounded(&self, mut solution: Solution) -> Solution {
        for (i, &is_int) in self.integer.iter().enumerate() {
            if is_int {
                solution.values[i] = solution.values[i].round();
            }
        }
        solution
    }
}

/// Pushes the down/up children of a branching decision, pruning children
/// whose tightened bound crosses the node's opposite bound — trivially
/// infeasible, so no LP solve is spent on them (they are counted in
/// [`SolveStats::trivial_prunes`] instead).
///
/// Exploration order (LIFO pops the later push first): when the
/// branching variable carries objective weight (`up_first`), the up
/// branch is explored first — for WCET maximization it usually holds
/// the optimum. A zero-weight variable is a tie artifact (e.g. a
/// fractional circulation on costless flow edges); diving up just grows
/// the circulation, so its *down* branch is explored first, which
/// clamps the circulation toward an integral point.
fn push_children(
    state: &sparse::State,
    node: &BbNode,
    branch: Branching,
    tol: f64,
    out: &mut Vec<BbNode>,
    stats: &SolveStatsCell,
) {
    let Branching {
        var,
        value,
        up_first,
    } = branch;
    let floor = value.floor();
    let mut trivial = SolveStats::default();

    let push_down = |out: &mut Vec<BbNode>, trivial: &mut SolveStats| {
        let down_ub = state.upper_of(var).min(floor);
        if down_ub < state.lower_of(var) - tol {
            trivial.trivial_prunes += 1;
        } else {
            let mut deltas = node.deltas.clone();
            upsert_delta(&mut deltas, var, BoundDelta::Upper(down_ub));
            out.push(BbNode { deltas });
        }
    };
    let push_up = |out: &mut Vec<BbNode>, trivial: &mut SolveStats| {
        let up_lb = state.lower_of(var).max(floor + 1.0);
        if up_lb > state.upper_of(var) + tol {
            trivial.trivial_prunes += 1;
        } else {
            let mut deltas = node.deltas.clone();
            upsert_delta(&mut deltas, var, BoundDelta::Lower(up_lb));
            out.push(BbNode { deltas });
        }
    };
    if up_first {
        push_down(out, &mut trivial);
        push_up(out, &mut trivial);
    } else {
        push_up(out, &mut trivial);
        push_down(out, &mut trivial);
    }

    if trivial.trivial_prunes > 0 {
        stats.record(&trivial);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilp_rounds_down_fractional_lp() {
        // LP optimum x = 2.5; ILP optimum x = 2.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.add_constraint([(x, 2.0)], ConstraintOp::Le, 5.0);
        m.mark_integer(x);
        let lp = m.solve_lp().unwrap();
        assert!((lp.objective - 2.5).abs() < 1e-6);
        let ilp = m.solve_ilp().unwrap();
        assert!((ilp.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c  s.t.  a + b + c <= 2 (integers, 0/1 via ub).
        let mut m = Model::new();
        let a = m.add_var("a", 10.0);
        let b = m.add_var("b", 6.0);
        let c = m.add_var("c", 4.0);
        for v in [a, b, c] {
            m.set_upper(v, 1.0);
            m.mark_integer(v);
        }
        m.add_constraint([(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Le, 2.0);
        let s = m.solve_ilp().unwrap();
        assert!((s.objective - 16.0).abs() < 1e-9);
        assert!((s.value(a) - 1.0).abs() < 1e-9);
        assert!((s.value(b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_vertex_requires_branching() {
        // max x + y  s.t.  2x + y <= 2, x + 2y <= 2 → LP vertex
        // (2/3, 2/3), ILP optimum 1 at (1,0)/(0,1).
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint([(x, 2.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        m.add_constraint([(x, 1.0), (y, 2.0)], ConstraintOp::Le, 2.0);
        m.mark_integer(x);
        m.mark_integer(y);
        let lp = m.solve_lp().unwrap();
        assert!(lp.objective > 1.3); // fractional vertex (2/3, 2/3)
        let ilp = m.solve_ilp().unwrap();
        assert!((ilp.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_ilp_reported() {
        // 2x = 1 has no integral solution (x integer).
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.add_constraint([(x, 2.0)], ConstraintOp::Eq, 1.0);
        m.mark_integer(x);
        assert_eq!(m.solve_ilp(), Err(IlpError::Infeasible));
    }

    #[test]
    fn mixed_integer_keeps_continuous_vars() {
        // x integer, y continuous: max x + y, x + y <= 2.5, x <= 1.9.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.5);
        m.add_constraint([(x, 1.0)], ConstraintOp::Le, 1.9);
        m.mark_integer(x);
        let s = m.solve_ilp().unwrap();
        assert!((s.objective - 2.5).abs() < 1e-6);
        assert!((s.value(x) - 1.0).abs() < 1e-9);
        assert!((s.value(y) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn solution_value_accessor() {
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.set_upper(x, 3.0);
        let s = m.solve_lp().unwrap();
        assert!((s.value(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn node_limit_reported() {
        // A problem that needs more than one node with max_nodes = 1.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.add_constraint([(x, 2.0)], ConstraintOp::Le, 5.0);
        m.mark_integer(x);
        let options = BranchAndBoundOptions {
            max_nodes: 1,
            ..Default::default()
        };
        assert_eq!(m.solve_ilp_with(&options), Err(IlpError::NodeLimit));
    }

    #[test]
    fn reference_backend_agrees_on_the_basics() {
        let mut m = Model::new();
        let x = m.add_var("x", 3.0);
        let y = m.add_var("y", 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint([(x, 1.0)], ConstraintOp::Le, 2.5);
        m.mark_integer(x);
        m.mark_integer(y);
        let sparse = m.solve_ilp().unwrap();
        let dense = m.solve_ilp_reference().unwrap();
        assert!((sparse.objective - dense.objective).abs() < 1e-6);
        let lp_sparse = m.solve_lp().unwrap();
        let lp_dense = m.solve_lp_reference().unwrap();
        assert!((lp_sparse.objective - lp_dense.objective).abs() < 1e-6);
    }

    #[test]
    fn workspace_warm_start_reuses_the_factored_basis() {
        // Same constraint matrix, three objective variants: only the
        // first solve may build cold.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0);
        let y = m.add_var("y", 0.0);
        m.add_constraint([(x, 1.0), (y, 2.0)], ConstraintOp::Le, 10.0);
        m.add_constraint([(x, 3.0), (y, 1.0)], ConstraintOp::Le, 15.0);
        m.mark_integer(x);
        m.mark_integer(y);

        let mut ws = LpWorkspace::new();
        let mut total = SolveStats::default();
        for (objective, expected) in [
            (vec![1.0, 0.0], 5.0),
            (vec![0.0, 1.0], 5.0),
            (vec![1.0, 1.0], 7.0),
        ] {
            let (solution, stats) = m
                .solve_ilp_in(Some(&objective), &mut ws, &BranchAndBoundOptions::default())
                .unwrap();
            assert!(
                (solution.objective - expected).abs() < 1e-6,
                "objective {objective:?}"
            );
            total.merge(&stats);
        }
        assert_eq!(total.cold_starts, 1, "only the first solve is cold");
        assert!(total.warm_starts >= 2, "later solves reuse the basis");
        // Fresh single-shot solves agree.
        for (objective, expected) in [(vec![1.0, 0.0], 5.0), (vec![1.0, 1.0], 7.0)] {
            let mut one = m.clone();
            one.set_objective(x, objective[0]);
            one.set_objective(y, objective[1]);
            let s = one.solve_ilp().unwrap();
            assert!((s.objective - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn up_branch_crossing_the_upper_bound_is_pruned_without_a_solve() {
        // x ∈ [0.6, 1.4] integral, maximize x: the root relaxation is
        // x = 1.4, so the up child demands x ≥ 2 — past the upper
        // bound. It must be pruned for free; only the down child (x ≤
        // 1) pays an LP solve.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.set_lower(x, 0.6);
        m.set_upper(x, 1.4);
        m.mark_integer(x);
        let (s, stats) = m
            .solve_ilp_in(
                None,
                &mut LpWorkspace::new(),
                &BranchAndBoundOptions::default(),
            )
            .unwrap();
        assert!((s.objective - 1.0).abs() < 1e-9);
        assert_eq!(stats.trivial_prunes, 1, "up child pruned for free");
        assert_eq!(stats.bb_nodes, 2, "root + down child only");
    }

    #[test]
    fn down_branch_crossing_the_lower_bound_is_pruned_without_a_solve() {
        // The satellite bugfix: x ∈ [0.6, 1.4] integral, *minimize* x
        // (maximize −x): the root relaxation is x = 0.6, so the down
        // child demands x ≤ 0 — below the node's lower bound. Before
        // the fix that child paid a full LP solve to learn it is
        // infeasible.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        m.set_lower(x, 0.6);
        m.set_upper(x, 1.4);
        m.mark_integer(x);
        let (s, stats) = m
            .solve_ilp_in(
                None,
                &mut LpWorkspace::new(),
                &BranchAndBoundOptions::default(),
            )
            .unwrap();
        assert!((s.objective + 1.0).abs() < 1e-9, "minimum integral x is 1");
        assert_eq!(stats.trivial_prunes, 1, "down child pruned for free");
        assert_eq!(stats.bb_nodes, 2, "root + up child only");
    }

    #[test]
    fn parallel_workers_find_the_same_objective() {
        // A knapsack with enough branching to occupy several workers.
        let weights = [7.0, 9.0, 11.0, 6.0, 13.0, 5.0, 8.0, 10.0];
        let values = [9.0, 12.0, 14.0, 8.0, 17.0, 6.0, 10.0, 13.0];
        let mut m = Model::new();
        let vars: Vec<VarId> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| m.add_var(format!("x{i}"), v))
            .collect();
        for &v in &vars {
            m.set_upper(v, 1.0);
            m.mark_integer(v);
        }
        m.add_constraint(
            vars.iter().zip(weights).map(|(&v, w)| (v, w)),
            ConstraintOp::Le,
            30.0,
        );
        let sequential = m.solve_ilp().unwrap();
        let parallel = m
            .solve_ilp_with(&BranchAndBoundOptions {
                workers: 4,
                ..Default::default()
            })
            .unwrap();
        assert!(
            (sequential.objective - parallel.objective).abs() < 1e-9,
            "sequential {} vs parallel {}",
            sequential.objective,
            parallel.objective
        );
        let reference = m.solve_ilp_reference().unwrap();
        assert!((sequential.objective - reference.objective).abs() < 1e-6);
    }

    /// Worker threads of the pipeline fan-out build and solve models
    /// concurrently (immutable model, per-worker solver scratch); keep
    /// the solver state `Send + Sync` by construction.
    #[test]
    fn solver_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Model>();
        assert_send_sync::<Solution>();
        assert_send_sync::<BranchAndBoundOptions>();
        assert_send_sync::<LpWorkspace>();
        assert_send_sync::<SolveStats>();
        assert_send_sync::<SolveStatsCell>();
    }
}
