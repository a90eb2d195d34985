//! The dense reference solver: two-phase primal simplex over a fully
//! materialized tableau, plus the original clone-per-node branch and
//! bound.
//!
//! This module is deliberately frozen. It is the *reference
//! implementation* the equivalence suites compare the sparse
//! warm-started solver ([`Model::solve_ilp`](crate::Model::solve_ilp)) against: variable bounds are
//! materialized as full tableau rows, every branch-and-bound node deep-
//! clones the model, and nothing is ever warm-started. Slow, simple,
//! and trusted — exactly what an oracle should be.

use crate::error::IlpError;
use crate::model::{BranchAndBoundOptions, ConstraintOp, Model, Solution};

const EPS: f64 = 1e-9;

/// Solves the LP relaxation of `model` with the dense reference simplex
/// (ignoring integrality marks).
///
/// # Errors
///
/// [`IlpError::Infeasible`], [`IlpError::Unbounded`], or
/// [`IlpError::IterationLimit`] on numerical cycling.
pub fn solve_lp_dense(model: &Model) -> Result<Solution, IlpError> {
    Tableau::from_model(model)?.solve(model)
}

/// Solves the integer program by the original depth-first branch and
/// bound: every node clones the whole model and re-solves its relaxation
/// from scratch with [`solve_lp_dense`].
///
/// # Errors
///
/// As for [`Model::solve_ilp`].
pub fn solve_ilp_dense(
    model: &Model,
    options: &BranchAndBoundOptions,
) -> Result<Solution, IlpError> {
    let tol = options.integrality_tolerance;
    let mut incumbent: Option<Solution> = None;
    // Each node is a full model copy with tightened variable bounds.
    let mut stack: Vec<Model> = vec![model.clone()];
    let mut nodes = 0usize;

    while let Some(node) = stack.pop() {
        nodes += 1;
        if nodes > options.max_nodes {
            return Err(IlpError::NodeLimit);
        }
        let relaxed = match solve_lp_dense(&node) {
            Ok(s) => s,
            Err(IlpError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        if let Some(best) = &incumbent {
            if relaxed.objective <= best.objective + 1e-9 {
                continue; // Bounded by the incumbent.
            }
        }
        // Find the most fractional integer variable.
        let mut branch: Option<(usize, f64)> = None;
        let mut best_frac = tol;
        for (i, &is_int) in model.integer_marks().iter().enumerate() {
            if !is_int {
                continue;
            }
            let v = relaxed.values[i];
            let frac = (v - v.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch = Some((i, v));
            }
        }
        match branch {
            None => {
                // Integral (within tolerance): candidate incumbent.
                let mut rounded = relaxed.clone();
                for (i, &is_int) in model.integer_marks().iter().enumerate() {
                    if is_int {
                        rounded.values[i] = rounded.values[i].round();
                    }
                }
                let better = incumbent
                    .as_ref()
                    .is_none_or(|b| rounded.objective > b.objective + 1e-9);
                if better {
                    incumbent = Some(rounded);
                }
            }
            Some((var, value)) => {
                let floor = value.floor();
                // Explore the "round up" child first (DFS): for WCET
                // maximization the up branch usually holds the optimum.
                let mut down = node.clone();
                let current_ub = down.upper_bounds()[var];
                let new_ub = current_ub.map_or(floor, |u| u.min(floor));
                down.set_upper_raw(var, Some(new_ub));
                stack.push(down);

                let mut up = node;
                let raised = up.lower_bounds()[var].max(floor + 1.0);
                up.set_lower_raw(var, raised);
                stack.push(up);
            }
        }
    }
    incumbent.ok_or(IlpError::Infeasible)
}

/// The simplex tableau in equality standard form.
///
/// Columns: `n` structural variables, then slack/surplus variables, then
/// artificial variables, then the right-hand side.
struct Tableau {
    rows: Vec<Vec<f64>>,
    /// Basis: column index of the basic variable of each row.
    basis: Vec<usize>,
    n_structural: usize,
    n_total: usize,
    artificial_start: usize,
}

impl Tableau {
    fn from_model(model: &Model) -> Result<Self, IlpError> {
        let n = model.num_vars();
        // Materialize constraints, including variable upper bounds, with
        // non-negative right-hand sides.
        struct Row {
            coeffs: Vec<f64>,
            op: ConstraintOp,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::new();
        for c in model.constraints() {
            let mut coeffs = vec![0.0; n];
            for &(v, a) in &c.coeffs {
                coeffs[v.index()] += a;
            }
            rows.push(Row {
                coeffs,
                op: c.op,
                rhs: c.rhs,
            });
        }
        for (i, ub) in model.upper_bounds().iter().enumerate() {
            if let Some(ub) = ub {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                rows.push(Row {
                    coeffs,
                    op: ConstraintOp::Le,
                    rhs: *ub,
                });
            }
        }
        for (i, lb) in model.lower_bounds().iter().enumerate() {
            if *lb > 0.0 {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                rows.push(Row {
                    coeffs,
                    op: ConstraintOp::Ge,
                    rhs: *lb,
                });
            }
        }
        for row in &mut rows {
            if row.rhs < 0.0 {
                row.rhs = -row.rhs;
                row.coeffs.iter_mut().for_each(|c| *c = -*c);
                row.op = match row.op {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Eq => ConstraintOp::Eq,
                    ConstraintOp::Ge => ConstraintOp::Le,
                };
            }
        }

        let m = rows.len();
        // One slack/surplus column per inequality; one artificial per Ge/Eq.
        let n_slack = rows.iter().filter(|r| r.op != ConstraintOp::Eq).count();
        let n_artificial = rows.iter().filter(|r| r.op != ConstraintOp::Le).count();
        let n_total = n + n_slack + n_artificial;
        let artificial_start = n + n_slack;

        let mut tableau = vec![vec![0.0; n_total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut slack_cursor = n;
        let mut artificial_cursor = artificial_start;
        for (i, row) in rows.iter().enumerate() {
            tableau[i][..n].copy_from_slice(&row.coeffs);
            tableau[i][n_total] = row.rhs;
            match row.op {
                ConstraintOp::Le => {
                    tableau[i][slack_cursor] = 1.0;
                    basis[i] = slack_cursor;
                    slack_cursor += 1;
                }
                ConstraintOp::Ge => {
                    tableau[i][slack_cursor] = -1.0;
                    slack_cursor += 1;
                    tableau[i][artificial_cursor] = 1.0;
                    basis[i] = artificial_cursor;
                    artificial_cursor += 1;
                }
                ConstraintOp::Eq => {
                    tableau[i][artificial_cursor] = 1.0;
                    basis[i] = artificial_cursor;
                    artificial_cursor += 1;
                }
            }
        }

        Ok(Self {
            rows: tableau,
            basis,
            n_structural: n,
            n_total,
            artificial_start,
        })
    }

    fn solve(mut self, model: &Model) -> Result<Solution, IlpError> {
        let m = self.rows.len();
        let iteration_limit = 200 + 20 * (m + self.n_total);

        // Phase 1: minimize the sum of artificial variables.
        if self.artificial_start < self.n_total {
            let mut objective = vec![0.0; self.n_total];
            for coeff in &mut objective[self.artificial_start..] {
                *coeff = -1.0;
            }
            let phase1 = self.run(&objective, iteration_limit)?;
            if phase1 < -1e-7 {
                return Err(IlpError::Infeasible);
            }
            // Pivot any lingering artificial out of the basis if possible;
            // rows where it is impossible are redundant (all-zero).
            for row in 0..m {
                if self.basis[row] >= self.artificial_start {
                    if let Some(col) =
                        (0..self.artificial_start).find(|&c| self.rows[row][c].abs() > EPS)
                    {
                        self.pivot(row, col);
                    }
                }
            }
        }

        // Phase 2: the real objective over structural columns.
        let mut objective = vec![0.0; self.n_total];
        objective[..self.n_structural].copy_from_slice(model.objective());
        // Forbid artificials from re-entering.
        let objective_value = self.run_phase2(&objective, iteration_limit)?;

        let mut values = vec![0.0; self.n_structural];
        for (row, &basic_col) in self.basis.iter().enumerate() {
            if basic_col < self.n_structural {
                values[basic_col] = self.rows[row][self.n_total];
            }
        }
        Ok(Solution {
            objective: objective_value,
            values,
        })
    }

    /// Runs simplex iterations maximizing `objective`; returns the optimum.
    fn run(&mut self, objective: &[f64], limit: usize) -> Result<f64, IlpError> {
        self.run_inner(objective, limit, self.n_total)
    }

    fn run_phase2(&mut self, objective: &[f64], limit: usize) -> Result<f64, IlpError> {
        // Artificial columns are excluded from entering.
        self.run_inner(objective, limit, self.artificial_start)
    }

    fn run_inner(
        &mut self,
        objective: &[f64],
        limit: usize,
        enterable_cols: usize,
    ) -> Result<f64, IlpError> {
        let m = self.rows.len();
        let rhs_col = self.n_total;
        // Maintain the reduced-cost row z = z_j − c_j explicitly and update
        // it with every pivot (an extra tableau row), so choosing the
        // entering column is a single scan.
        let mut z = vec![0.0; self.n_total + 1];
        for (col, z_val) in z.iter_mut().enumerate().take(self.n_total) {
            *z_val = -objective.get(col).copied().unwrap_or(0.0);
        }
        for row in 0..m {
            let cb = objective.get(self.basis[row]).copied().unwrap_or(0.0);
            if cb != 0.0 {
                for (z_val, &tableau) in z.iter_mut().zip(&self.rows[row]) {
                    *z_val += cb * tableau;
                }
            }
        }
        // Basic columns must read exactly zero in the z-row.
        for &basic in &self.basis {
            z[basic] = 0.0;
        }

        for iteration in 0..limit {
            // Entering column: most negative reduced cost (Dantzig), or
            // the first negative one (Bland) once cycling is suspected.
            let use_bland = iteration > limit / 2;
            let mut entering: Option<usize> = None;
            let mut best = -EPS;
            for (col, &z_val) in z.iter().enumerate().take(enterable_cols) {
                if z_val < best {
                    entering = Some(col);
                    best = z_val;
                    if use_bland {
                        break;
                    }
                }
            }
            let Some(entering) = entering else {
                return Ok(z[rhs_col]);
            };

            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for row in 0..m {
                let a = self.rows[row][entering];
                if a > EPS {
                    let ratio = self.rows[row][rhs_col] / a;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leaving.is_some_and(|l| self.basis[row] < self.basis[l]))
                    {
                        best_ratio = ratio;
                        leaving = Some(row);
                    }
                }
            }
            let Some(leaving) = leaving else {
                return Err(IlpError::Unbounded);
            };
            self.pivot(leaving, entering);
            // Update the z-row exactly like a tableau row.
            let scale = z[entering];
            if scale.abs() > EPS {
                for (z_val, &tableau) in z.iter_mut().zip(&self.rows[leaving]) {
                    *z_val -= scale * tableau;
                }
            }
            z[entering] = 0.0;
        }
        Err(IlpError::IterationLimit)
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let m = self.rows.len();
        let width = self.n_total + 1;
        let factor = self.rows[pivot_row][pivot_col];
        debug_assert!(factor.abs() > EPS, "pivot on a zero element");
        for col in 0..width {
            self.rows[pivot_row][col] /= factor;
        }
        for row in 0..m {
            if row == pivot_row {
                continue;
            }
            let scale = self.rows[row][pivot_col];
            if scale.abs() > EPS {
                for col in 0..width {
                    let delta = scale * self.rows[pivot_row][col];
                    self.rows[row][col] -= delta;
                }
            } else {
                self.rows[row][pivot_col] = 0.0;
            }
        }
        self.basis[pivot_row] = pivot_col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut m = Model::new();
        let x = m.add_var("x", 3.0);
        let y = m.add_var("y", 5.0);
        m.add_constraint([(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint([(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint([(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let s = solve_lp_dense(&m).unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((s.values[y.index()] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // max x + y  s.t.  x + y = 5, x - y = 1  →  x = 3, y = 2.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let s = solve_lp_dense(&m).unwrap();
        assert!((s.objective - 5.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_and_negative_rhs() {
        // max -x  s.t.  x >= 3  →  x = 3.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        m.add_constraint([(x, 1.0)], ConstraintOp::Ge, 3.0);
        let s = solve_lp_dense(&m).unwrap();
        assert!((s.objective + 3.0).abs() < 1e-6);
        // Same via a negative right-hand side: -x <= -3.
        let mut m2 = Model::new();
        let x2 = m2.add_var("x", -1.0);
        m2.add_constraint([(x2, -1.0)], ConstraintOp::Le, -3.0);
        let s2 = solve_lp_dense(&m2).unwrap();
        assert!((s2.objective + 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.add_constraint([(x, 1.0)], ConstraintOp::Le, 1.0);
        m.add_constraint([(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve_lp_dense(&m), Err(IlpError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 0.0);
        m.add_constraint([(y, 1.0)], ConstraintOp::Le, 1.0);
        let _ = x;
        assert_eq!(solve_lp_dense(&m), Err(IlpError::Unbounded));
    }

    #[test]
    fn variable_bounds_participate() {
        // max x + y  s.t.  x <= 2 (ub), y <= 3 (ub), x + y >= 1.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.set_upper(x, 2.0);
        m.set_upper(y, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        let s = solve_lp_dense(&m).unwrap();
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn lower_bounds_respected() {
        // min x (max -x) with x >= 1.5 via lower bound.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        m.set_lower(x, 1.5);
        let s = solve_lp_dense(&m).unwrap();
        assert!((s.values[x.index()] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn zero_objective_is_feasibility_check() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0);
        m.add_constraint([(x, 1.0)], ConstraintOp::Eq, 7.0);
        let s = solve_lp_dense(&m).unwrap();
        assert_eq!(s.objective, 0.0);
        assert!((s.values[x.index()] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        for _ in 0..6 {
            m.add_constraint([(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        }
        m.add_constraint([(x, 1.0)], ConstraintOp::Le, 2.0);
        m.add_constraint([(y, 1.0)], ConstraintOp::Le, 2.0);
        let s = solve_lp_dense(&m).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
    }
}
