//! Simplex bases as reusable warm-start handles.
//!
//! The sparse revised engine ([`crate::sparse`]) identifies a vertex by the
//! set of basic columns in the standard-form column space
//! `[structural | slack | artificial]`. A [`Basis`] captures that set at
//! optimality so a *structurally identical* problem — same variables, same
//! constraint rows in the same order with the same relations, only different
//! right-hand sides or capacities — can resume from the old vertex instead
//! of re-running phase 1 from scratch.
//!
//! Reuse is validated defensively (`m`/`n` signature, index range,
//! distinctness, no artificials) but the *semantic* part of the contract —
//! that column `j` means the same thing in both problems — is the caller's:
//! the scheduled-routing compiler only reuses bases down the capacity-scale
//! ladder of one pinned re-allocation (fault repair, serve admission), where
//! the constraint matrix is bit-identical and only the right-hand side
//! moves.

/// An optimal simplex basis, returned by [`crate::Problem::solve_warm`] and
/// accepted back as its warm-start seed.
///
/// Opaque outside the crate: the contained column indices only make sense
/// for problems with the exact constraint structure this basis came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column per constraint row (row-indexed), in the standard-form
    /// column space `[structural | slack | artificial]`.
    pub(crate) cols: Vec<usize>,
    /// Structural variable count of the originating problem.
    pub(crate) num_vars: usize,
}

impl Basis {
    /// Number of constraint rows the basis covers.
    pub fn num_rows(&self) -> usize {
        self.cols.len()
    }

    /// `true` when the basis shape matches a problem with `num_vars`
    /// variables and `num_rows` constraints.
    ///
    /// This is the cheap structural gate; [`crate::Problem::solve_warm`]
    /// additionally range-checks every column, rejects duplicates and
    /// artificial columns, and falls back to a cold start when the basis is
    /// singular or infeasible for the new right-hand side — so handing a
    /// stale basis to a compatible-shaped problem degrades to a cold solve,
    /// never to a wrong answer.
    pub fn matches_shape(&self, num_vars: usize, num_rows: usize) -> bool {
        self.num_vars == num_vars && self.cols.len() == num_rows
    }
}
