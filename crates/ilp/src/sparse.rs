//! Sparse bounded-variable revised simplex with reusable warm-start
//! state.
//!
//! This is the production solver behind [`Model::solve_lp`] and the
//! clone-free branch and bound. It differs from the dense
//! [`reference`](crate::reference) tableau in three structural ways:
//!
//! * **Bounds live in the ratio test.** A variable bound never
//!   materializes as a matrix row: nonbasic variables rest *at* their
//!   lower or upper bound, the ratio test limits steps by the bounds of
//!   the basic variables, and a step capped by the entering variable's
//!   own opposite bound is a pivotless *bound flip*. The dense solver
//!   pays one full tableau row per `set_upper`/`set_lower`; here they
//!   are two `f64`s.
//! * **The constraint matrix is sparse.** Columns are `(row, coeff)`
//!   lists; only the `m × m` basis inverse is dense, and `m` counts real
//!   constraints only. Its pivot update and the basic-value recompute
//!   skip the terms whose factor is an exact zero, so their cost follows
//!   the nonzeros they touch and their results are the dense loops' bits.
//! * **State survives across solves.** An [`LpWorkspace`] keeps the
//!   factored basis between calls. Re-solving the same constraint matrix
//!   under a new objective starts primal iterations from the previous
//!   optimum (no phase 1); re-solving after a bound tightening runs the
//!   dual simplex from the previous basis (the branch-and-bound child
//!   re-solve). Any inconsistency — shape mismatch, invalid status,
//!   numerical trouble — degrades to a counted cold rebuild, never to a
//!   wrong answer.

use crate::error::IlpError;
use crate::model::{ConstraintOp, Model, Solution, SolveStats};

const EPS: f64 = 1e-9;
/// Tolerance on primal bound violations (matches the dense reference's
/// phase-1 acceptance threshold).
const FEAS_EPS: f64 = 1e-7;
const INF: f64 = f64::INFINITY;

/// Where a nonbasic variable rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Basic,
    AtLower,
    AtUpper,
}

/// A compact, numerics-free serialization of a factored basis: the basic
/// column of every row plus the resting bound of every nonbasic
/// structural and slack column. The dense `m × m` inverse is *not*
/// carried — [`LpWorkspace::hydrate`] refactors it from the receiving
/// model's own constraint matrix, so a snapshot can never smuggle stale
/// numerics across processes; only the combinatorial basis travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisSnapshot {
    /// Structural variable count of the model the basis belongs to.
    pub n_struct: u32,
    /// Constraint (row) count of the model the basis belongs to.
    pub m: u32,
    /// One tag per structural and slack column, in column order:
    /// 0 = basic, 1 = resting at lower bound, 2 = resting at upper
    /// bound.
    pub statuses: Vec<u8>,
    /// Basic column index of each row. [`Self::ARTIFICIAL`] marks a row
    /// whose basic column is a retired phase-1 artificial (a redundant
    /// row — e.g. the rank-deficient flow-conservation system of an
    /// IPET instance keeps one): the artificial is fixed at `[0, 0]`,
    /// so hydration reconstructs it exactly as a fresh unit column.
    pub basis: Vec<u32>,
}

impl BasisSnapshot {
    /// Sentinel basis entry: the row's basic column is a retired
    /// (zero-fixed) phase-1 artificial, reconstructed on hydration.
    pub const ARTIFICIAL: u32 = u32::MAX;
}

/// Reusable solver state: the standard-form instance plus the factored
/// basis of the last solve.
///
/// A workspace is bound to one model's constraint matrix on first use
/// (fingerprinted); passing it back with the same model warm-starts the
/// next solve from the retained basis. Passing a structurally different
/// model is detected and handled by a cold rebuild.
#[derive(Debug, Clone, Default)]
pub struct LpWorkspace {
    pub(crate) state: Option<State>,
}

impl LpWorkspace {
    /// An empty workspace; the first solve through it builds (and
    /// retains) solver state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exports the retained basis as a [`BasisSnapshot`], or `None`
    /// when the workspace is cold. Rows whose basic column is a retired
    /// phase-1 artificial (redundant rows) are exported as
    /// [`BasisSnapshot::ARTIFICIAL`] — the artificial is fixed at
    /// `[0, 0]`, so it carries no numerical content to lose.
    pub fn snapshot(&self) -> Option<BasisSnapshot> {
        let state = self.state.as_ref()?;
        let n_plus_m = state.n_struct + state.m;
        let statuses = state.status[..n_plus_m]
            .iter()
            .map(|s| match s {
                Status::Basic => 0u8,
                Status::AtLower => 1,
                Status::AtUpper => 2,
            })
            .collect();
        Some(BasisSnapshot {
            n_struct: state.n_struct as u32,
            m: state.m as u32,
            statuses,
            basis: state
                .basis
                .iter()
                .map(|&b| {
                    if b >= n_plus_m {
                        BasisSnapshot::ARTIFICIAL
                    } else {
                        b as u32
                    }
                })
                .collect(),
        })
    }

    /// Rebuilds solver state for `model` from a serialized basis:
    /// validates the snapshot exhaustively against the model's shape,
    /// refactors the `m × m` inverse from the model's own constraint
    /// matrix, and installs the result as this workspace's warm state.
    ///
    /// Returns `false` — leaving the workspace cold — on *any*
    /// inconsistency: shape mismatch, invalid or duplicated basis
    /// entries, a nonbasic column resting at an infinite bound, or a
    /// singular basis matrix. A rejected snapshot can therefore never
    /// produce a wrong answer, only a counted cold factorization.
    pub fn hydrate(&mut self, model: &Model, snapshot: &BasisSnapshot) -> bool {
        self.state = None;
        let n = model.num_vars();
        let m = model.num_constraints();
        if snapshot.n_struct as usize != n
            || snapshot.m as usize != m
            || snapshot.statuses.len() != n + m
            || snapshot.basis.len() != m
        {
            return false;
        }
        let mut state = State::build(model, fingerprint(model));
        let mut basic_count = 0usize;
        for (j, &tag) in snapshot.statuses.iter().enumerate() {
            state.status[j] = match tag {
                0 => {
                    basic_count += 1;
                    Status::Basic
                }
                1 => Status::AtLower,
                2 => Status::AtUpper,
                _ => return false,
            };
        }
        let artificial_rows = snapshot
            .basis
            .iter()
            .filter(|&&b| b == BasisSnapshot::ARTIFICIAL)
            .count();
        if basic_count + artificial_rows != m {
            return false;
        }
        // The basic tags and the non-artificial row entries must form a
        // bijection: every entry in range, distinct, and tagged basic.
        // Artificial rows get a fresh zero-fixed unit column each.
        let mut seen = vec![false; n + m];
        for (i, &b) in snapshot.basis.iter().enumerate() {
            if b == BasisSnapshot::ARTIFICIAL {
                let art = state.cols.len();
                state.cols.push(vec![(i, 1.0)]);
                state.lower.push(0.0);
                state.upper.push(0.0);
                state.root_lower.push(0.0);
                state.root_upper.push(0.0);
                state.obj.push(0.0);
                state.status.push(Status::Basic);
                state.basis[i] = art;
                continue;
            }
            let b = b as usize;
            if b >= n + m || seen[b] || state.status[b] != Status::Basic {
                return false;
            }
            seen[b] = true;
            state.basis[i] = b;
        }
        for j in 0..n + m {
            let position = match state.status[j] {
                Status::Basic => continue,
                Status::AtLower => state.lower[j],
                Status::AtUpper => state.upper[j],
            };
            if !position.is_finite() {
                return false;
            }
        }
        if !state.refactor() {
            return false;
        }
        state.recompute_xb();
        self.state = Some(state);
        true
    }
}

/// The standard-form instance: `max c·x  s.t.  Ax + s = b`, `l ≤ x ≤ u`,
/// with one slack column per row and (after a cold phase 1) possibly
/// retired artificial columns fixed at zero.
#[derive(Debug, Clone)]
pub(crate) struct State {
    fingerprint: u64,
    m: usize,
    n_struct: usize,
    /// Sparse columns: `n_struct` structural, then `m` slacks, then any
    /// phase-1 artificials (fixed to `[0, 0]` once phase 1 ends).
    cols: Vec<Vec<(usize, f64)>>,
    /// Current bounds (root bounds plus branch-and-bound tightenings).
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// The model's own bounds, restored by
    /// [`reset_bounds_to_root`](Self::reset_bounds_to_root).
    root_lower: Vec<f64>,
    root_upper: Vec<f64>,
    rhs: Vec<f64>,
    /// Full-length objective (slack and artificial entries are zero).
    obj: Vec<f64>,
    status: Vec<Status>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Dense row-major `m × m` basis inverse.
    binv: Vec<f64>,
    /// Values of the basic variables, row-aligned with `basis`.
    xb: Vec<f64>,
}

/// A structural fingerprint of the model's constraint matrix (not its
/// objective or bounds): FNV-1a over shapes, coefficients, and operators.
fn fingerprint(model: &Model) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(model.num_vars() as u64);
    eat(model.num_constraints() as u64);
    for c in model.constraints() {
        for &(v, a) in &c.coeffs {
            eat(v.index() as u64);
            eat(a.to_bits());
        }
        eat(match c.op {
            ConstraintOp::Le => 0,
            ConstraintOp::Eq => 1,
            ConstraintOp::Ge => 2,
        });
        eat(c.rhs.to_bits());
    }
    h
}

/// Binds `ws` to `model`, warm-starting from retained state when
/// possible. On return the workspace holds a primal-feasible basis at
/// the model's own bounds (objective untouched — set it next).
///
/// # Errors
///
/// [`IlpError::Infeasible`] when no point satisfies constraints and
/// bounds; [`IlpError::IterationLimit`] on numerical cycling.
pub(crate) fn prepare(
    model: &Model,
    ws: &mut LpWorkspace,
    stats: &mut SolveStats,
) -> Result<(), IlpError> {
    let fp = fingerprint(model);
    // Bound crossover is infeasible before any simplex work.
    for (lb, ub) in model.lower_bounds().iter().zip(model.upper_bounds()) {
        if ub.is_some_and(|u| *lb > u + EPS) {
            return Err(IlpError::Infeasible);
        }
    }
    if let Some(state) = ws.state.as_mut() {
        if state.fingerprint == fp && state.reload_bounds(model) {
            state.recompute_xb();
            // The retained basis is dual-feasible for the objective it
            // was optimized under; if reloaded bounds broke primal
            // feasibility the dual simplex repairs it. Numerical failure
            // (or an apparent infeasibility, which a warm basis cannot
            // prove) falls through to an authoritative cold build.
            if state.max_violation() <= FEAS_EPS || state.dual(stats).is_ok() {
                stats.warm_starts += 1;
                return Ok(());
            }
        }
        ws.state = None;
    }
    stats.cold_starts += 1;
    let mut state = State::build(model, fp);
    state.recompute_xb();
    state.phase1(stats)?;
    ws.state = Some(state);
    Ok(())
}

/// Builds and solves a fresh cold state of `model` — slack basis, phase
/// 1, primal — with `configure` applied to the bounds first (the
/// branch-and-bound cold probe: tie-degenerate warm re-solves can land
/// on fractional-circulation vertices of the optimal face, while a cold
/// two-phase solve of the same node tends to land on an integral one,
/// exactly like the dense reference does at every node).
///
/// # Errors
///
/// As for a cold [`prepare`] + optimize.
pub(crate) fn solve_cold(
    model: &Model,
    objective: &[f64],
    configure: impl FnOnce(&mut State),
    stats: &mut SolveStats,
) -> Result<State, IlpError> {
    stats.cold_probes += 1;
    let mut state = State::build(model, 0);
    configure(&mut state);
    state.normalize_statuses();
    state.set_objective(objective);
    state.recompute_xb();
    state.phase1(stats)?;
    state.optimize(stats)?;
    Ok(state)
}

impl State {
    fn build(model: &Model, fingerprint: u64) -> Self {
        let n = model.num_vars();
        let m = model.num_constraints();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n + m];
        let mut rhs = Vec::with_capacity(m);
        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        for (lb, ub) in model.lower_bounds().iter().zip(model.upper_bounds()) {
            lower.push(*lb);
            upper.push(ub.unwrap_or(INF));
        }
        for (row, c) in model.constraints().iter().enumerate() {
            // Accumulate duplicate variable mentions like the dense
            // tableau does.
            for &(v, a) in &c.coeffs {
                let col = &mut cols[v.index()];
                match col.iter_mut().find(|(r, _)| *r == row) {
                    Some((_, sum)) => *sum += a,
                    None => col.push((row, a)),
                }
            }
            cols[n + row].push((row, 1.0));
            let (slo, shi) = match c.op {
                ConstraintOp::Le => (0.0, INF),
                ConstraintOp::Ge => (-INF, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            lower.push(slo);
            upper.push(shi);
            rhs.push(c.rhs);
        }
        // Drop exact-zero coefficients so pricing skips them entirely.
        for col in &mut cols {
            col.retain(|&(_, a)| a != 0.0);
        }
        let mut status = vec![Status::AtLower; n];
        // A structural variable could in principle carry an infinite
        // lower bound through future API growth; rest it at whichever
        // bound is finite.
        for (j, s) in status.iter_mut().enumerate() {
            if lower[j] == -INF {
                *s = Status::AtUpper;
            }
        }
        status.extend(std::iter::repeat_n(Status::Basic, m));
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        Self {
            fingerprint,
            m,
            n_struct: n,
            cols,
            root_lower: lower.clone(),
            root_upper: upper.clone(),
            lower,
            upper,
            rhs,
            obj: vec![0.0; n + m],
            status,
            basis: (n..n + m).collect(),
            binv,
            xb: vec![0.0; m],
        }
    }

    /// Refreshes the root (and current) structural bounds from the
    /// model. Returns `false` when a retained status became meaningless
    /// (e.g. resting at an upper bound that is now infinite), in which
    /// case the caller rebuilds cold.
    fn reload_bounds(&mut self, model: &Model) -> bool {
        for (j, (lb, ub)) in model
            .lower_bounds()
            .iter()
            .zip(model.upper_bounds())
            .enumerate()
        {
            self.root_lower[j] = *lb;
            self.root_upper[j] = ub.unwrap_or(INF);
        }
        self.lower.copy_from_slice(&self.root_lower);
        self.upper.copy_from_slice(&self.root_upper);
        for (j, s) in self.status.iter().enumerate() {
            let position = match s {
                Status::Basic => continue,
                Status::AtLower => self.lower[j],
                Status::AtUpper => self.upper[j],
            };
            if !position.is_finite() {
                return false;
            }
        }
        true
    }

    /// Overwrites the structural objective (slack/artificial entries
    /// stay zero).
    pub(crate) fn set_objective(&mut self, objective: &[f64]) {
        debug_assert_eq!(objective.len(), self.n_struct);
        self.obj[..self.n_struct].copy_from_slice(objective);
    }

    /// Restores the model's own bounds (undoes branch-and-bound
    /// tightenings).
    pub(crate) fn reset_bounds_to_root(&mut self) {
        self.lower.copy_from_slice(&self.root_lower);
        self.upper.copy_from_slice(&self.root_upper);
    }

    /// Tightens the current upper bound of structural variable `var`.
    pub(crate) fn tighten_upper(&mut self, var: usize, ub: f64) {
        debug_assert!(var < self.n_struct);
        if ub < self.upper[var] {
            self.upper[var] = ub;
        }
    }

    /// Tightens the current lower bound of structural variable `var`.
    pub(crate) fn tighten_lower(&mut self, var: usize, lb: f64) {
        debug_assert!(var < self.n_struct);
        if lb > self.lower[var] {
            self.lower[var] = lb;
        }
    }

    /// Re-anchors nonbasic columns whose resting bound became infinite
    /// after a bound switch (one branch-and-bound node to another): a
    /// variable cannot rest at ±∞, so it moves to its other, finite
    /// bound. The move can break dual feasibility for that column —
    /// harmless, the next primal pass re-enters it — but never
    /// invalidates the dual simplex's infeasibility test, which depends
    /// only on pivot-column signs.
    pub(crate) fn normalize_statuses(&mut self) {
        for j in 0..self.cols.len() {
            match self.status[j] {
                Status::Basic => {}
                Status::AtLower if self.lower[j] == -INF => {
                    debug_assert!(
                        self.upper[j].is_finite(),
                        "a nonbasic column needs one finite bound"
                    );
                    self.status[j] = Status::AtUpper;
                }
                Status::AtUpper if self.upper[j] == INF => {
                    debug_assert!(
                        self.lower[j].is_finite(),
                        "a nonbasic column needs one finite bound"
                    );
                    self.status[j] = Status::AtLower;
                }
                _ => {}
            }
        }
    }

    pub(crate) fn lower_of(&self, var: usize) -> f64 {
        self.lower[var]
    }

    pub(crate) fn upper_of(&self, var: usize) -> f64 {
        self.upper[var]
    }

    fn is_fixed(&self, j: usize) -> bool {
        self.lower[j] >= self.upper[j] - EPS && self.lower[j].is_finite()
    }

    /// The resting position of nonbasic column `j`.
    fn position(&self, j: usize) -> f64 {
        match self.status[j] {
            Status::Basic => unreachable!("basic columns have no resting position"),
            Status::AtLower => self.lower[j],
            Status::AtUpper => self.upper[j],
        }
    }

    /// Rebuilds the dense basis inverse from the current `basis` by
    /// Gauss–Jordan elimination with partial pivoting (the hydration
    /// path: a deserialized basis arrives without its inverse). Returns
    /// `false` when the selected columns are numerically singular, in
    /// which case the caller discards the basis and factors cold.
    fn refactor(&mut self) -> bool {
        let m = self.m;
        // Dense B: column i is the constraint column of `basis[i]`.
        let mut b = vec![0.0; m * m];
        for (i, &col) in self.basis.iter().enumerate() {
            for &(r, a) in &self.cols[col] {
                b[r * m + i] = a;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        // Reduce [B | I] to [I | B⁻¹], swapping rows of both halves.
        for col in 0..m {
            let pivot_row = (col..m)
                .max_by(|&x, &y| b[x * m + col].abs().total_cmp(&b[y * m + col].abs()))
                .unwrap_or(col);
            if b[pivot_row * m + col].abs() <= EPS {
                return false;
            }
            if pivot_row != col {
                for j in 0..m {
                    b.swap(pivot_row * m + j, col * m + j);
                    inv.swap(pivot_row * m + j, col * m + j);
                }
            }
            let pivot = b[col * m + col];
            for j in 0..m {
                b[col * m + j] /= pivot;
                inv[col * m + j] /= pivot;
            }
            for row in 0..m {
                if row == col {
                    continue;
                }
                let factor = b[row * m + col];
                if factor != 0.0 {
                    for j in 0..m {
                        b[row * m + j] -= factor * b[col * m + j];
                        inv[row * m + j] -= factor * inv[col * m + j];
                    }
                }
            }
        }
        self.binv = inv;
        true
    }

    /// Recomputes every basic value from the basis inverse:
    /// `x_B = B⁻¹ (b − N x_N)`. Each sum runs over the nonzeros of
    /// `b − N x_N` only, in ascending column order: a skipped term is an
    /// exact zero, which leaves any nonzero partial sum as it was.
    pub(crate) fn recompute_xb(&mut self) {
        let m = self.m;
        let mut effective = self.rhs.clone();
        for (j, s) in self.status.iter().enumerate() {
            if *s == Status::Basic {
                continue;
            }
            let position = self.position(j);
            if position != 0.0 {
                for &(r, a) in &self.cols[j] {
                    effective[r] -= a * position;
                }
            }
        }
        let support: Vec<(usize, f64)> = effective
            .into_iter()
            .enumerate()
            .filter(|&(_, e)| e != 0.0)
            .collect();
        for i in 0..m {
            let row = &self.binv[i * m..(i + 1) * m];
            self.xb[i] = support.iter().map(|&(k, e)| row[k] * e).sum::<f64>();
        }
    }

    /// The largest bound violation over the basic variables.
    fn max_violation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, &b) in self.basis.iter().enumerate() {
            worst = worst.max(self.lower[b] - self.xb[i]);
            worst = worst.max(self.xb[i] - self.upper[b]);
        }
        worst
    }

    /// Dual prices `y = c_B B⁻¹`.
    fn dual_prices(&self) -> Vec<f64> {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (i, &b) in self.basis.iter().enumerate() {
            let c = self.obj[b];
            if c != 0.0 {
                let row = &self.binv[i * m..(i + 1) * m];
                for (yk, &bk) in y.iter_mut().zip(row) {
                    *yk += c * bk;
                }
            }
        }
        y
    }

    /// `B⁻¹ a_j` for one sparse column.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let m = self.m;
        let mut w = vec![0.0; m];
        for &(r, a) in &self.cols[j] {
            for (i, w_i) in w.iter_mut().enumerate() {
                *w_i += self.binv[i * m + r] * a;
            }
        }
        w
    }

    /// Sparse dot of a dense row vector with column `j`.
    fn row_dot(&self, dense: &[f64], j: usize) -> f64 {
        self.cols[j].iter().map(|&(r, a)| dense[r] * a).sum()
    }

    /// Product-form update of the basis inverse after column `q` (with
    /// `ftran` result `w`) replaces the basic column of row `r`. A row
    /// with `w_i ≠ 0` is updated only at the nonzero columns of the
    /// scaled pivot row: elsewhere the update subtracts an exact zero,
    /// which leaves a nonzero entry as it was.
    fn pivot_binv(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let pivot = w[r];
        debug_assert!(pivot.abs() > EPS, "pivot on a zero element");
        let (before, rest) = self.binv.split_at_mut(r * m);
        let (pivot_row, after) = rest.split_at_mut(m);
        let mut support = Vec::new();
        for (j, v) in pivot_row.iter_mut().enumerate() {
            *v /= pivot;
            if *v != 0.0 {
                support.push((j, *v));
            }
        }
        let scale_rows = |rows: &mut [f64], base: usize| {
            for (chunk_index, chunk) in rows.chunks_exact_mut(m).enumerate() {
                let factor = w[base + chunk_index];
                if factor != 0.0 {
                    for &(j, p) in &support {
                        chunk[j] -= factor * p;
                    }
                }
            }
        };
        scale_rows(before, 0);
        scale_rows(after, r + 1);
    }

    /// Primal bounded simplex: maximizes the current objective from a
    /// primal-feasible basis.
    ///
    /// # Errors
    ///
    /// [`IlpError::Unbounded`] or [`IlpError::IterationLimit`].
    fn primal(&mut self, stats: &mut SolveStats) -> Result<(), IlpError> {
        let limit = 200 + 20 * (self.m + self.cols.len());
        for iteration in 0..limit {
            let use_bland = iteration > limit / 2;
            let y = self.dual_prices();
            // Pricing: a variable at its lower bound improves by
            // increasing (positive reduced cost), one at its upper bound
            // by decreasing (negative reduced cost).
            let mut entering: Option<usize> = None;
            let mut best = EPS;
            for j in 0..self.cols.len() {
                if self.status[j] == Status::Basic || self.is_fixed(j) {
                    continue;
                }
                let d = self.obj[j] - self.row_dot(&y, j);
                let improving = match self.status[j] {
                    Status::AtLower => d > EPS,
                    Status::AtUpper => d < -EPS,
                    Status::Basic => false,
                };
                if !improving {
                    continue;
                }
                if use_bland {
                    entering = Some(j);
                    break;
                }
                if d.abs() > best {
                    best = d.abs();
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                return Ok(());
            };
            let sigma = if self.status[q] == Status::AtLower {
                1.0
            } else {
                -1.0
            };
            let w = self.ftran(q);

            // Ratio test. `t` starts at the entering variable's own
            // travel budget (a bound flip if nothing beats it).
            let mut t = self.upper[q] - self.lower[q];
            let mut leaving: Option<(usize, bool)> = None;
            for i in 0..self.m {
                let delta = -sigma * w[i];
                let b = self.basis[i];
                let (ratio, to_upper) = if delta < -EPS {
                    if self.lower[b] == -INF {
                        continue;
                    }
                    (((self.xb[i] - self.lower[b]) / -delta).max(0.0), false)
                } else if delta > EPS {
                    if self.upper[b] == INF {
                        continue;
                    }
                    (((self.upper[b] - self.xb[i]) / delta).max(0.0), true)
                } else {
                    continue;
                };
                let replace = ratio < t - EPS
                    || (ratio < t + EPS
                        && leaving.is_some_and(|(l, _)| {
                            if use_bland {
                                b < self.basis[l]
                            } else {
                                w[i].abs() > w[l].abs()
                            }
                        }));
                if replace {
                    t = t.min(ratio);
                    leaving = Some((i, to_upper));
                }
            }
            if t == INF {
                return Err(IlpError::Unbounded);
            }
            match leaving {
                None => {
                    // The entering variable travels to its other bound:
                    // no basis change.
                    stats.bound_flips += 1;
                    for (xb_i, &w_i) in self.xb.iter_mut().zip(&w) {
                        *xb_i += -sigma * w_i * t;
                    }
                    self.status[q] = if sigma > 0.0 {
                        Status::AtUpper
                    } else {
                        Status::AtLower
                    };
                }
                Some((r, to_upper)) => {
                    stats.pivots += 1;
                    let entering_value = self.position(q) + sigma * t;
                    for (i, (xb_i, &w_i)) in self.xb.iter_mut().zip(&w).enumerate() {
                        if i != r {
                            *xb_i += -sigma * w_i * t;
                        }
                    }
                    let leave_col = self.basis[r];
                    self.status[leave_col] = if to_upper {
                        Status::AtUpper
                    } else {
                        Status::AtLower
                    };
                    self.pivot_binv(r, &w);
                    self.basis[r] = q;
                    self.status[q] = Status::Basic;
                    self.xb[r] = entering_value;
                }
            }
        }
        Err(IlpError::IterationLimit)
    }

    /// Dual bounded simplex: restores primal feasibility from a
    /// dual-feasible basis (the branch-and-bound child re-solve).
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when no entering column exists (dual
    /// unbounded ⇒ primal infeasible) or [`IlpError::IterationLimit`].
    fn dual(&mut self, stats: &mut SolveStats) -> Result<(), IlpError> {
        let limit = 200 + 20 * (self.m + self.cols.len());
        for iteration in 0..limit {
            let use_bland = iteration > limit / 2;
            // Leaving row: the worst bound violation (Bland: the lowest
            // basic column index among the violated).
            let mut leaving: Option<(usize, bool)> = None;
            let mut worst = FEAS_EPS;
            for (i, &b) in self.basis.iter().enumerate() {
                let below = self.lower[b] - self.xb[i];
                let above = self.xb[i] - self.upper[b];
                let (violation, is_above) = if above > below {
                    (above, true)
                } else {
                    (below, false)
                };
                if violation > worst {
                    worst = violation;
                    leaving = Some((i, is_above));
                    if use_bland {
                        break;
                    }
                }
            }
            let Some((r, above)) = leaving else {
                return Ok(());
            };
            let y = self.dual_prices();
            let rho = self.binv[r * self.m..(r + 1) * self.m].to_vec();
            // Entering: minimum dual ratio |d_j / α_j| over the columns
            // whose pivot sign moves the leaving variable back toward
            // its violated bound without breaking dual feasibility.
            let mut entering: Option<(usize, f64)> = None;
            let mut best_ratio = INF;
            for j in 0..self.cols.len() {
                if self.status[j] == Status::Basic || self.is_fixed(j) {
                    continue;
                }
                let alpha = self.row_dot(&rho, j);
                let admissible = match (above, self.status[j]) {
                    (true, Status::AtLower) => alpha > EPS,
                    (true, Status::AtUpper) => alpha < -EPS,
                    (false, Status::AtLower) => alpha < -EPS,
                    (false, Status::AtUpper) => alpha > EPS,
                    (_, Status::Basic) => false,
                };
                if !admissible {
                    continue;
                }
                let d = self.obj[j] - self.row_dot(&y, j);
                let ratio = (d / alpha).abs();
                let replace = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && entering.is_some_and(|(e, alpha_e)| {
                            if use_bland {
                                j < e
                            } else {
                                alpha.abs() > alpha_e.abs()
                            }
                        }));
                if replace || entering.is_none() {
                    best_ratio = best_ratio.min(ratio);
                    entering = Some((j, alpha));
                }
            }
            let Some((q, _)) = entering else {
                return Err(IlpError::Infeasible);
            };
            stats.dual_pivots += 1;
            let w = self.ftran(q);
            let leave_col = self.basis[r];
            self.status[leave_col] = if above {
                Status::AtUpper
            } else {
                Status::AtLower
            };
            self.pivot_binv(r, &w);
            self.basis[r] = q;
            self.status[q] = Status::Basic;
            // Dual pivots are rare; a full recompute keeps the values
            // exact without tracking the incremental update cases.
            self.recompute_xb();
        }
        Err(IlpError::IterationLimit)
    }

    /// Cold-start feasibility: one artificial column per violated row
    /// (the basis is the slack identity here), minimize their sum, then
    /// retire them at `[0, 0]`.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when the artificial sum cannot reach
    /// zero; [`IlpError::IterationLimit`] on cycling.
    fn phase1(&mut self, stats: &mut SolveStats) -> Result<(), IlpError> {
        if self.max_violation() <= FEAS_EPS {
            return Ok(());
        }
        let artificial_start = self.cols.len();
        for i in 0..self.m {
            let b = self.basis[i];
            debug_assert!(b >= self.n_struct, "phase 1 starts from the slack basis");
            let value = self.xb[i];
            if value >= self.lower[b] - FEAS_EPS && value <= self.upper[b] + FEAS_EPS {
                continue;
            }
            // Every slack has 0 as its violated-side bound (Le: lower 0,
            // Ge: upper 0, Eq: both), so the displaced slack rests at 0
            // and the artificial absorbs the full residual.
            let direction = if value > 0.0 { 1.0 } else { -1.0 };
            let art = self.cols.len();
            self.cols.push(vec![(i, direction)]);
            self.lower.push(0.0);
            self.upper.push(INF);
            self.root_lower.push(0.0);
            self.root_upper.push(INF);
            self.obj.push(0.0);
            self.status.push(Status::Basic);
            self.status[b] = if self.upper[b] == 0.0 && value > 0.0 {
                Status::AtUpper
            } else {
                Status::AtLower
            };
            self.basis[i] = art;
            // B was the ±1 identity; swapping in a ±1 artificial keeps
            // it diagonal.
            self.binv[i * self.m + i] = direction;
            self.xb[i] = value * direction;
        }
        if self.cols.len() == artificial_start {
            // Violations under FEAS_EPS only; nothing to repair.
            return Ok(());
        }
        // Phase-1 objective: maximize −Σ artificials.
        let saved_objective: Vec<f64> = std::mem::take(&mut self.obj);
        self.obj = vec![0.0; self.cols.len()];
        for o in &mut self.obj[artificial_start..] {
            *o = -1.0;
        }
        let outcome = self.primal(stats);
        self.obj = saved_objective;
        self.obj.resize(self.cols.len(), 0.0);
        outcome?;

        let infeasibility: f64 = (artificial_start..self.cols.len())
            .map(|j| match self.status[j] {
                Status::Basic => {
                    let row = self.basis.iter().position(|&b| b == j).expect("basic row");
                    self.xb[row]
                }
                _ => 0.0,
            })
            .sum();
        if infeasibility > FEAS_EPS {
            return Err(IlpError::Infeasible);
        }
        // Pivot lingering (degenerate, zero-valued) artificials out
        // where a usable column exists; rows without one are redundant
        // and keep their fixed artificial harmlessly.
        for r in 0..self.m {
            if self.basis[r] < artificial_start {
                continue;
            }
            let rho = self.binv[r * self.m..(r + 1) * self.m].to_vec();
            let candidate = (0..artificial_start).find(|&j| {
                self.status[j] != Status::Basic
                    && !self.is_fixed(j)
                    && self.row_dot(&rho, j).abs() > EPS
            });
            if let Some(q) = candidate {
                stats.pivots += 1;
                let w = self.ftran(q);
                let art = self.basis[r];
                self.status[art] = Status::AtLower;
                self.pivot_binv(r, &w);
                self.basis[r] = q;
                self.status[q] = Status::Basic;
            }
        }
        // Retire every artificial: fixed at zero, never to re-enter.
        for j in artificial_start..self.cols.len() {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
            self.root_lower[j] = 0.0;
            self.root_upper[j] = 0.0;
        }
        self.recompute_xb();
        if self.max_violation() > FEAS_EPS * 10.0 {
            // Numerical residue beyond tolerance: let the dual clean up.
            self.dual(stats)?;
        }
        Ok(())
    }

    /// Re-optimizes from the current basis: dual simplex if a bound
    /// edit broke primal feasibility, then primal iterations for the
    /// current objective, with one verification pass.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] (dual unbounded), [`IlpError::Unbounded`],
    /// or [`IlpError::IterationLimit`].
    pub(crate) fn optimize(&mut self, stats: &mut SolveStats) -> Result<(), IlpError> {
        for _ in 0..3 {
            if self.max_violation() > FEAS_EPS {
                self.dual(stats)?;
            }
            self.primal(stats)?;
            self.recompute_xb();
            if self.max_violation() <= FEAS_EPS {
                return Ok(());
            }
        }
        Err(IlpError::IterationLimit)
    }

    /// The structural variable values at the current basis.
    pub(crate) fn values(&self) -> Vec<f64> {
        let mut values = vec![0.0; self.n_struct];
        for (j, value) in values.iter_mut().enumerate() {
            if self.status[j] != Status::Basic {
                *value = self.position(j);
            }
        }
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                values[b] = self.xb[i];
            }
        }
        values
    }

    /// The objective value at the current basis (computed directly from
    /// the values — immune to iterative drift).
    pub(crate) fn objective_value(&self) -> f64 {
        self.values()
            .iter()
            .zip(&self.obj)
            .map(|(&x, &c)| x * c)
            .sum()
    }

    /// Packages the current basis as a [`Solution`].
    pub(crate) fn solution(&self) -> Solution {
        let values = self.values();
        let objective = values.iter().zip(&self.obj).map(|(&x, &c)| x * c).sum();
        Solution { objective, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VarId;

    /// splitmix64: the test's only randomness, replayable from its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random bounded LP: sparse small-integer rows under all three
    /// operators, nonzero lower bounds, finite and infinite upper ones.
    fn random_model(rng: &mut Rng, n: usize, m: usize) -> Model {
        let mut model = Model::new();
        let vars: Vec<VarId> = (0..n)
            .map(|j| model.add_var(format!("x{j}"), rng.below(7) as f64 - 3.0))
            .collect();
        for &v in &vars {
            let lower = rng.below(3) as f64;
            model.set_lower(v, lower);
            if rng.below(3) != 0 {
                model.set_upper(v, lower + 1.0 + rng.below(5) as f64);
            }
        }
        for _ in 0..m {
            let mut coeffs: Vec<(VarId, f64)> = Vec::new();
            for &v in &vars {
                if rng.below(4) == 0 {
                    coeffs.push((v, rng.below(9) as f64 - 4.0));
                }
            }
            let op = [ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq][rng.below(3)];
            model.add_constraint(coeffs, op, rng.below(20) as f64);
        }
        model
    }

    /// The product-form update over all `m` columns of every row with
    /// `w_i ≠ 0`.
    fn dense_pivot(binv: &mut [f64], m: usize, r: usize, w: &[f64]) {
        for j in 0..m {
            binv[r * m + j] /= w[r];
        }
        for i in (0..m).filter(|&i| i != r && w[i] != 0.0) {
            for j in 0..m {
                binv[i * m + j] -= w[i] * binv[r * m + j];
            }
        }
    }

    /// `B⁻¹ (b − N x_N)`, each row summed over all `m` columns.
    fn dense_xb(state: &State) -> Vec<f64> {
        let m = state.m;
        let mut effective = state.rhs.clone();
        for j in (0..state.cols.len()).filter(|&j| state.status[j] != Status::Basic) {
            let position = state.position(j);
            if position != 0.0 {
                for &(r, a) in &state.cols[j] {
                    effective[r] -= a * position;
                }
            }
        }
        (0..m)
            .map(|i| (0..m).map(|k| state.binv[i * m + k] * effective[k]).sum())
            .collect()
    }

    /// Every nonzero equal by its bits, every zero a zero.
    fn assert_same(what: &str, actual: &[f64], expected: &[f64]) {
        assert_eq!(actual.len(), expected.len());
        for (k, (&a, &e)) in actual.iter().zip(expected).enumerate() {
            if e == 0.0 {
                assert_eq!(a, 0.0, "{what}[{k}]: {a} where the dense loop reads zero");
            } else {
                assert_eq!(a.to_bits(), e.to_bits(), "{what}[{k}]: {a} vs {e}");
            }
        }
    }

    #[test]
    fn sparse_kernels_match_the_dense_loops_bit_for_bit() {
        let mut rng = Rng(0x5eed_0027);
        let mut pivots = 0;
        for _ in 0..6 {
            let (n, m) = (6 + rng.below(20), 4 + rng.below(16));
            let model = random_model(&mut rng, n, m);
            let mut state = State::build(&model, 0);
            state.recompute_xb();
            for _ in 0..4 * m {
                let nonbasic: Vec<usize> = (0..state.cols.len())
                    .filter(|&j| state.status[j] != Status::Basic)
                    .collect();
                let q = nonbasic[rng.below(nonbasic.len())];
                let w = state.ftran(q);
                let r = (0..m)
                    .max_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs()))
                    .expect("m > 0");
                if w[r].abs() <= EPS {
                    continue;
                }
                let mut expected = state.binv.clone();
                dense_pivot(&mut expected, m, r, &w);
                state.pivot_binv(r, &w);
                assert_same("B⁻¹", &state.binv, &expected);

                // The leaving column rests at one of its finite bounds.
                let leaving = state.basis[r];
                let (lower, upper) = (state.lower[leaving], state.upper[leaving]);
                state.status[leaving] =
                    if !lower.is_finite() || (upper.is_finite() && rng.below(2) == 0) {
                        Status::AtUpper
                    } else {
                        Status::AtLower
                    };
                state.basis[r] = q;
                state.status[q] = Status::Basic;
                let expected = dense_xb(&state);
                state.recompute_xb();
                assert_same("x_B", &state.xb, &expected);
                pivots += 1;
            }
        }
        assert!(pivots >= 100, "only {pivots} pivots were driven");
    }
}
