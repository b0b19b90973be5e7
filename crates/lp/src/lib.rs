//! A sparse revised simplex LP solver.
//!
//! Scheduled routing needs two optimization substrates (paper §5.2–5.3):
//! the **message–interval allocation** feasibility system (constraints
//! (3),(4)) and the **interval scheduling** problem (minimize the total
//! transmission time of *link-feasible sets*, after \[BDW86\]). Both are
//! linear programs over non-negative continuous variables — preemptive
//! scheduling makes the fractional relaxation exact — so this crate provides
//! a small, dependency-free LP solver:
//!
//! * variables are non-negative reals with linear costs;
//! * constraints are `≤`, `≥`, or `=` with arbitrary coefficients;
//! * the objective is minimized (maximize by negating costs);
//! * the engine is a two-phase primal revised simplex over a
//!   column-compressed matrix, with the basis kept as a product-form
//!   (eta-file) factorization that is refactored as it grows: the
//!   scheduling LPs carry a handful of nonzeros per column, and a pivot
//!   touches only those;
//! * phase 1 drives artificial variables to zero (detecting infeasibility),
//!   phase 2 optimizes the true objective; Dantzig pricing falls back to
//!   Bland's rule after a run of degenerate pivots, so no phase cycles;
//! * [`Problem::solve_warm`] restarts from a previous optimal [`Basis`] and
//!   skips phase 1 when that vertex is still feasible;
//! * [`Problem::solve_diagnosed`] returns the row duals, or a Farkas
//!   certificate for an infeasible program.
//!
//! # Examples
//!
//! ```
//! use sr_lp::{Problem, Relation};
//!
//! # fn main() -> Result<(), sr_lp::LpError> {
//! // minimize x + 2y  s.t.  x + y >= 4,  y <= 3
//! let mut p = Problem::minimize();
//! let x = p.add_var(1.0);
//! let y = p.add_var(2.0);
//! p.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0)?;
//! p.add_constraint(&[(y, 1.0)], Relation::Le, 3.0)?;
//! let sol = p.solve()?;
//! assert!((sol.objective() - 4.0).abs() < 1e-9); // x = 4, y = 0
//! assert!((sol.value(x) - 4.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod problem;
#[cfg(test)]
mod simplex;
mod sparse;
mod stats;

pub use basis::Basis;
pub use problem::{DiagnosedOutcome, LpDiagnostics, LpError, Problem, Relation, Solution, VarId};
pub use stats::SolveStats;
