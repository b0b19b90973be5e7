use std::error::Error;
use std::fmt;

use crate::basis::Basis;
use crate::sparse;
use crate::SolveStats;

/// Index of a decision variable in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Constructs a variable id from its dense index.
    ///
    /// Ids are assigned densely from zero in [`Problem::add_var`] order, so
    /// callers that track insertion order can reconstruct ids. Out-of-range
    /// ids are rejected when used in [`Problem::add_constraint`].
    pub fn new(index: usize) -> Self {
        VarId(index)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) coeffs: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// Errors from building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// No assignment of the variables satisfies every constraint.
    Infeasible,
    /// The objective decreases without bound over the feasible region.
    Unbounded,
    /// A coefficient, cost, or right-hand side was not finite.
    NonFiniteInput {
        /// What the offending number was supplied as.
        what: &'static str,
    },
    /// A constraint referenced a variable id that does not exist.
    UnknownVariable {
        /// The out-of-range variable.
        var: VarId,
        /// Number of variables actually present.
        num_vars: usize,
    },
    /// The pivot count exceeded the safety limit (numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::NonFiniteInput { what } => write!(f, "{what} must be finite"),
            LpError::UnknownVariable { var, num_vars } => {
                write!(
                    f,
                    "constraint references {var} but only {num_vars} variables exist"
                )
            }
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl Error for LpError {}

/// A linear program: minimize `c·x` subject to linear constraints, `x ≥ 0`.
///
/// Build with [`Problem::minimize`] (or [`Problem::maximize`]), add variables
/// and constraints, then call [`Problem::solve`]. See the crate docs for a
/// complete example.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    costs: Vec<f64>,
    constraints: Vec<Constraint>,
    maximize: bool,
}

impl Problem {
    /// A minimization problem.
    pub fn minimize() -> Self {
        Problem::default()
    }

    /// A maximization problem (costs are negated internally).
    pub fn maximize() -> Self {
        Problem {
            maximize: true,
            ..Problem::default()
        }
    }

    /// Adds a non-negative variable with objective coefficient `cost` and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is not finite.
    pub fn add_var(&mut self, cost: f64) -> VarId {
        assert!(cost.is_finite(), "variable cost must be finite");
        let id = VarId(self.costs.len());
        self.costs.push(cost);
        id
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds the constraint `Σ coeffs ⟨relation⟩ rhs`.
    ///
    /// Repeated variables in `coeffs` are summed. A constraint with no
    /// coefficients is accepted (it is trivially checked against `rhs`).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::UnknownVariable`] for out-of-range ids and
    /// [`LpError::NonFiniteInput`] for non-finite numbers.
    pub fn add_constraint(
        &mut self,
        coeffs: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteInput {
                what: "right-hand side",
            });
        }
        let mut dense: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for &(var, a) in coeffs {
            if var.0 >= self.costs.len() {
                return Err(LpError::UnknownVariable {
                    var,
                    num_vars: self.costs.len(),
                });
            }
            if !a.is_finite() {
                return Err(LpError::NonFiniteInput {
                    what: "coefficient",
                });
            }
            *dense.entry(var.0).or_insert(0.0) += a;
        }
        self.constraints.push(Constraint {
            coeffs: dense.into_iter().collect(),
            relation,
            rhs,
        });
        Ok(())
    }

    /// Solves the program with the sparse revised simplex, cold.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::IterationLimit`] (pathological numerics).
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with_stats().map(|(s, _)| s)
    }

    /// Solves the program and reports solver work counters alongside the
    /// solution — same algorithm and result as [`Problem::solve`], plus a
    /// [`SolveStats`] of pivot/pricing activity for observability.
    ///
    /// # Errors
    ///
    /// As [`Problem::solve`]. Counters reflect the work done up to the
    /// failure, but are only returned on success.
    pub fn solve_with_stats(&self) -> Result<(Solution, SolveStats), LpError> {
        let mut stats = SolveStats::default();
        let out = sparse::solve(&self.min_costs(), &self.constraints, None, &mut stats)?;
        Ok((self.finish(out.values), stats))
    }

    /// Solves the program with the dense tableau reference engine.
    #[cfg(test)]
    pub(crate) fn solve_dense(&self) -> Result<Solution, LpError> {
        let mut stats = SolveStats::default();
        let values = crate::simplex::solve(&self.min_costs(), &self.constraints, &mut stats)?;
        Ok(self.finish(values))
    }

    /// Solves with the sparse engine, optionally warm-starting from the
    /// optimal basis of a previous solve, and returns the new optimal basis
    /// for the next one.
    ///
    /// The warm basis must come from a *structurally identical* problem —
    /// same variables, same constraint rows in the same order with the same
    /// relations; only right-hand sides and coefficients may differ. When
    /// the old vertex is still primal feasible, phase 1 is skipped outright
    /// (a `warm_hits` count in the stats); otherwise the solve falls back
    /// to a cold start (`warm_misses`) — a stale or mismatched basis can
    /// cost time but never correctness, because optimality is re-proven by
    /// pricing either way. The returned basis is `None` when a redundant
    /// row left an artificial variable basic.
    ///
    /// # Errors
    ///
    /// As [`Problem::solve`].
    pub fn solve_warm(
        &self,
        warm: Option<&Basis>,
    ) -> Result<(Solution, Option<Basis>, SolveStats), LpError> {
        let costs = self.min_costs();
        let mut stats = SolveStats::default();
        let warm_cols = warm
            .filter(|b| b.matches_shape(self.costs.len(), self.constraints.len()))
            .map(|b| b.cols.as_slice());
        if warm.is_some() && warm_cols.is_none() {
            stats.warm_misses += 1;
        }
        let out = sparse::solve(&costs, &self.constraints, warm_cols, &mut stats)?;
        let basis = out.basis.map(|cols| Basis {
            cols,
            num_vars: self.costs.len(),
        });
        Ok((self.finish(out.values), basis, stats))
    }

    /// Solves the program and recovers row-level diagnostics — the dual
    /// value and binding flag of every constraint — instead of discarding
    /// them with the tableau.
    ///
    /// On a feasible program the diagnostics carry the duals `y = Bᵀ⁻¹ c_B`
    /// at the optimal basis (in the *minimization* sense — negate for
    /// maximization problems) and mark the rows that are tight at the
    /// optimum within `tol`. On an infeasible program no [`LpError`] is
    /// returned; instead [`DiagnosedOutcome::Infeasible`] carries the
    /// phase-1 duals, a **Farkas certificate** whose nonzero-weight rows
    /// form a mutually incompatible set — exactly the rows an explainer
    /// should name.
    ///
    /// Always runs the sparse engine, cold (no warm-start dependence), so
    /// diagnostic re-solves are deterministic for a given problem.
    ///
    /// # Errors
    ///
    /// [`LpError::Unbounded`] or [`LpError::IterationLimit`];
    /// infeasibility is a diagnosed outcome, not an error.
    pub fn solve_diagnosed(&self, tol: f64) -> Result<DiagnosedOutcome, LpError> {
        let costs = self.min_costs();
        let mut stats = SolveStats::default();
        match sparse::solve_diagnosed(&costs, &self.constraints, &mut stats)? {
            sparse::DiagnosedSolve::Optimal { values, duals } => {
                let binding = self
                    .constraints
                    .iter()
                    .map(|c| {
                        let lhs: f64 = c.coeffs.iter().map(|&(i, a)| a * values[i]).sum();
                        (lhs - c.rhs).abs() <= tol
                    })
                    .collect();
                Ok(DiagnosedOutcome::Optimal {
                    solution: self.finish(values),
                    diagnostics: LpDiagnostics {
                        duals,
                        binding,
                        infeasible: false,
                    },
                })
            }
            sparse::DiagnosedSolve::Infeasible { certificate } => {
                let binding = certificate.iter().map(|&y| y.abs() > tol).collect();
                Ok(DiagnosedOutcome::Infeasible(LpDiagnostics {
                    duals: certificate,
                    binding,
                    infeasible: true,
                }))
            }
        }
    }

    /// Costs in minimization sense (negated for maximization problems).
    fn min_costs(&self) -> Vec<f64> {
        if self.maximize {
            self.costs.iter().map(|c| -c).collect()
        } else {
            self.costs.clone()
        }
    }

    /// Wraps raw variable values into a [`Solution`] with the objective in
    /// the problem's original sense.
    fn finish(&self, values: Vec<f64>) -> Solution {
        let mut objective: f64 = values.iter().zip(&self.costs).map(|(x, c)| x * c).sum();
        // Normalize -0.0.
        if objective == 0.0 {
            objective = 0.0;
        }
        Solution { values, objective }
    }

    /// Checks whether `values` satisfies every constraint within `tol`.
    ///
    /// Useful for validating solutions produced elsewhere (or by
    /// [`Problem::solve`] itself, in tests).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.costs.len() {
            return false;
        }
        if values.iter().any(|&v| v < -tol || !v.is_finite()) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|&(i, a)| a * values[i]).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

/// Row-level diagnostics from [`Problem::solve_diagnosed`].
///
/// Both vectors are indexed by constraint row, in [`Problem::add_constraint`]
/// order — callers that track their row layout can map entries straight back
/// to whatever the rows model.
#[derive(Debug, Clone, PartialEq)]
pub struct LpDiagnostics {
    /// Per-row dual value: the optimal duals on a feasible program, the
    /// phase-1 Farkas certificate weights on an infeasible one.
    pub duals: Vec<f64>,
    /// Per-row activity flag: tight at the optimum (feasible), or carrying
    /// nonzero certificate weight (infeasible).
    pub binding: Vec<bool>,
    /// Whether `duals` is a Farkas certificate rather than optimal duals.
    pub infeasible: bool,
}

/// Outcome of [`Problem::solve_diagnosed`].
#[derive(Debug, Clone, PartialEq)]
pub enum DiagnosedOutcome {
    /// Solved to optimality.
    Optimal {
        /// The optimal solution, as [`Problem::solve`] would return it.
        solution: Solution,
        /// Duals and binding rows at the optimum.
        diagnostics: LpDiagnostics,
    },
    /// No feasible point exists; the diagnostics carry the certificate.
    Infeasible(LpDiagnostics),
}

/// An optimal solution to a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
}

impl Solution {
    /// The optimal objective value (in the problem's original sense).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// All variable values, indexable by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_minimize() {
        let mut p = Problem::minimize();
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 6.0).unwrap();
        let s = p.solve().unwrap();
        // x = 6, y = 4 -> 18 + 20 = 38.
        assert!((s.objective() - 38.0).abs() < 1e-8, "got {}", s.objective());
        assert!(p.is_feasible(s.values(), 1e-8));
    }

    #[test]
    fn simple_maximize() {
        // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
        let mut p = Problem::maximize();
        let x = p.add_var(3.0);
        let y = p.add_var(2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 6.0)
            .unwrap();
        let s = p.solve().unwrap();
        assert!((s.objective() - 12.0).abs() < 1e-8);
        assert!((s.value(x) - 4.0).abs() < 1e-8);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y s.t. x + 2y = 4, x - y = 1 -> x=2, y=1, obj=3.
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0)
            .unwrap();
        let s = p.solve().unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-8);
        assert!((s.value(y) - 1.0).abs() < 1e-8);
        assert!((s.objective() - 3.0).abs() < 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 5.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 3.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::minimize();
        let x = p.add_var(-1.0); // minimize -x with x unbounded above
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_handled() {
        // x >= -3 is vacuous for x >= 0; minimize x -> 0.
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, -3.0).unwrap();
        let s = p.solve().unwrap();
        assert!(s.objective().abs() < 1e-9);

        // -x >= 2 i.e. x <= -2: infeasible for x >= 0.
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        p.add_constraint(&[(x, -1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn repeated_vars_are_summed() {
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        p.add_constraint(&[(x, 1.0), (x, 1.0)], Relation::Ge, 4.0)
            .unwrap();
        let s = p.solve().unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn unknown_variable_rejected() {
        let mut p = Problem::minimize();
        let _ = p.add_var(1.0);
        let err = p
            .add_constraint(&[(VarId(9), 1.0)], Relation::Le, 1.0)
            .unwrap_err();
        assert!(matches!(err, LpError::UnknownVariable { .. }));
    }

    #[test]
    fn non_finite_rejected() {
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        assert!(p
            .add_constraint(&[(x, f64::NAN)], Relation::Le, 1.0)
            .is_err());
        assert!(p
            .add_constraint(&[(x, 1.0)], Relation::Le, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = Problem::minimize();
        let s = p.solve().unwrap();
        assert_eq!(s.objective(), 0.0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classic degenerate example (Beale-like); Bland's rule must
        // terminate.
        let mut p = Problem::minimize();
        let x1 = p.add_var(-0.75);
        let x2 = p.add_var(150.0);
        let x3 = p.add_var(-0.02);
        let x4 = p.add_var(6.0);
        p.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        )
        .unwrap();
        p.add_constraint(&[(x3, 1.0)], Relation::Le, 1.0).unwrap();
        let s = p.solve().unwrap();
        assert!(
            (s.objective() - (-0.05)).abs() < 1e-6,
            "got {}",
            s.objective()
        );
    }

    #[test]
    fn solve_with_stats_matches_solve() {
        let mut p = Problem::minimize();
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 6.0).unwrap();
        let plain = p.solve().unwrap();
        let (s, stats) = p.solve_with_stats().unwrap();
        assert_eq!(s, plain);
        assert!(stats.pivots > 0, "{stats:?}");
        assert!(stats.price_recomputes > 0, "{stats:?}");
    }

    #[test]
    fn diagnosed_optimal_reports_duals_and_binding_rows() {
        // minimize 3x + 5y  s.t.  x + y >= 10,  x <= 6  ->  x=6, y=4.
        let mut p = Problem::minimize();
        let x = p.add_var(3.0);
        let y = p.add_var(5.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 6.0).unwrap();
        let out = p.solve_diagnosed(1e-7).unwrap();
        let DiagnosedOutcome::Optimal {
            solution,
            diagnostics,
        } = out
        else {
            panic!("feasible program diagnosed infeasible");
        };
        assert!((solution.objective() - 38.0).abs() < 1e-8);
        assert!(!diagnostics.infeasible);
        // Both constraints are tight at the optimum; strong duality:
        // y·b = objective (both rows in >=-canonical sense here).
        assert_eq!(diagnostics.binding, vec![true, true]);
        let dual_obj = diagnostics.duals[0] * 10.0 + diagnostics.duals[1] * 6.0;
        assert!(
            (dual_obj - 38.0).abs() < 1e-6,
            "duals {:?}",
            diagnostics.duals
        );
    }

    #[test]
    fn diagnosed_infeasible_yields_farkas_certificate() {
        // x >= 5 and x <= 3 cannot both hold; y <= 1 is innocent.
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Ge, 5.0).unwrap();
        p.add_constraint(&[(x, 1.0)], Relation::Le, 3.0).unwrap();
        p.add_constraint(&[(y, 1.0)], Relation::Le, 1.0).unwrap();
        let out = p.solve_diagnosed(1e-7).unwrap();
        let DiagnosedOutcome::Infeasible(d) = out else {
            panic!("infeasible program diagnosed optimal");
        };
        assert!(d.infeasible);
        // The certificate names the incompatible pair and spares row 2.
        assert!(d.binding[0] && d.binding[1], "duals {:?}", d.duals);
        assert!(!d.binding[2], "duals {:?}", d.duals);
        // Certificate validity: yᵀA ≤ 0 on every variable while yᵀb > 0
        // (duals carry the sign convention: ≥ rows weight positively,
        // ≤ rows negatively), so Σ y_r·row_r is unsatisfiable for x ≥ 0.
        let combined_coeff = d.duals[0] + d.duals[1];
        let combined_rhs = d.duals[0] * 5.0 + d.duals[1] * 3.0;
        assert!(combined_coeff <= 1e-7, "duals {:?}", d.duals);
        assert!(combined_rhs > 1e-7, "duals {:?}", d.duals);
    }

    #[test]
    fn feasibility_checker_rejects_bad_points() {
        let mut p = Problem::minimize();
        let x = p.add_var(1.0);
        p.add_constraint(&[(x, 1.0)], Relation::Le, 3.0).unwrap();
        assert!(p.is_feasible(&[2.0], 1e-9));
        assert!(!p.is_feasible(&[4.0], 1e-9));
        assert!(!p.is_feasible(&[-1.0], 1e-9));
        assert!(!p.is_feasible(&[2.0, 2.0], 1e-9)); // wrong arity
    }
}
