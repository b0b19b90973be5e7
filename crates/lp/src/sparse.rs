//! Sparse revised simplex with an eta-file basis factorization.
//!
//! The allocation and interval-scheduling LPs are structurally sparse: each
//! variable appears in one equality row plus a handful of capacity rows, so
//! a dense tableau pays `O(m·width)` per pivot for arithmetic that touches a
//! few dozen nonzeros. This engine stores the constraint matrix
//! column-compressed and keeps the basis as a product-form factorization —
//! a sequence of *eta* vectors `E_1 … E_K` with `B⁻¹ = E_K⁻¹ ⋯ E_1⁻¹` —
//! refreshed by refactorization when the file grows past
//! `max(16, m/4)` update etas. Pivot *rules* deliberately mirror the dense
//! tableau the unit tests keep as a reference (Dantzig pricing with
//! ascending-index tie-break, Bland fallback after the same stall limit,
//! ratio-test ties to the smallest basic index, identical
//! `PIVOT_EPS`/`FEAS_EPS`), so on non-degenerate instances both engines
//! walk the same vertex sequence and agree to rounding error.
//!
//! Pricing recomputes `y = Bᵀ⁻¹ c_B` fresh every iteration (a sparse BTRAN
//! over the eta file), so there is no incremental-cache drift and apparent
//! optimality needs no confirmation pass.
//!
//! Warm starts ([`crate::Problem::solve_warm`]) factor a caller-supplied
//! basis and skip phase 1 entirely when `B⁻¹b ≥ 0`; any structurally valid
//! basis yields a *correct* start (optimality is re-proven by pricing), so a
//! stale basis degrades to a cold solve, never a wrong answer.

use crate::problem::{Constraint, LpError, Relation};
use crate::SolveStats;

/// Pivot tolerance, identical to the dense engine.
const PIVOT_EPS: f64 = 1e-9;
/// Feasibility tolerance, identical to the dense engine.
const FEAS_EPS: f64 = 1e-7;

/// Consecutive degenerate pivots tolerated under Dantzig pricing before
/// falling back to Bland's rule (same policy as the dense engine).
fn stall_limit(m: usize) -> usize {
    2 * m + 16
}

/// Column-compressed matrix: the standard-form constraint matrix
/// `[structural | slack | artificial]`, `m` rows.
struct Csc {
    m: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl Csc {
    #[inline]
    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.vals[s..e])
    }

    fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Scatters column `j` into the dense vector `v` (assumed zeroed).
    fn scatter(&self, j: usize, v: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &a) in rows.iter().zip(vals) {
            v[r] = a;
        }
    }

    /// Sparse dot `v · a_j`.
    fn dot_col(&self, j: usize, v: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &a)| v[r] * a).sum()
    }
}

/// One elementary transformation of the product-form inverse: identity with
/// column `p` replaced by `w` (`pivot = w_p`, `idx/vals` the other nonzeros).
struct Eta {
    p: usize,
    pivot: f64,
    idx: Vec<usize>,
    vals: Vec<f64>,
}

/// FTRAN: applies `E_K⁻¹ ⋯ E_1⁻¹` to `v` in place (solves `Bv' = v`).
fn ftran(etas: &[Eta], v: &mut [f64]) {
    for e in etas {
        let vp = v[e.p];
        if vp != 0.0 {
            let t = vp / e.pivot;
            v[e.p] = t;
            for (&i, &w) in e.idx.iter().zip(&e.vals) {
                v[i] -= w * t;
            }
        }
    }
}

/// BTRAN: applies the transposed inverse in reverse order (solves
/// `Bᵀv' = v`).
fn btran(etas: &[Eta], v: &mut [f64]) {
    for e in etas.iter().rev() {
        let mut t = v[e.p];
        for (&i, &w) in e.idx.iter().zip(&e.vals) {
            t -= w * v[i];
        }
        v[e.p] = t / e.pivot;
    }
}

/// The problem in standard form, mirroring the dense engine's construction:
/// rows normalized to `rhs ≥ 0` (flipping relations), slack/surplus columns
/// after the structural ones, artificials last.
struct StandardForm {
    art_start: usize,
    total: usize,
    mat: Csc,
    rhs: Vec<f64>,
    /// Initial basic column per row: slack for `≤`, artificial otherwise —
    /// all unit columns, so the initial basis is the identity (empty eta
    /// file) and `x_B = b ≥ 0`.
    init_basis: Vec<usize>,
}

fn build_standard_form(n: usize, constraints: &[Constraint]) -> StandardForm {
    let m = constraints.len();
    let mut n_slack = 0;
    let mut n_art = 0;
    for c in constraints {
        let flip = c.rhs < 0.0;
        let relation = match (c.relation, flip) {
            (Relation::Le, true) | (Relation::Ge, false) => Relation::Ge,
            (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
            (Relation::Eq, _) => Relation::Eq,
        };
        match relation {
            Relation::Le => n_slack += 1,
            Relation::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => n_art += 1,
        }
    }
    let art_start = n + n_slack;
    let total = art_start + n_art;

    // Assemble CSC by counting-sort over columns; triplets are generated
    // row-major with ascending columns inside each row, so rows land in
    // ascending order within every column.
    let mut counts = vec![0usize; total];
    for (r, c) in constraints.iter().enumerate() {
        let _ = r;
        for &(j, _) in &c.coeffs {
            counts[j] += 1;
        }
    }
    // One slack/surplus or artificial singleton per row as computed above.
    // Column ids are assigned in row order, matching the dense layout.
    let mut slack_of = vec![usize::MAX; m];
    let mut art_of = vec![usize::MAX; m];
    {
        let mut slack_idx = n;
        let mut art_idx = art_start;
        for (r, c) in constraints.iter().enumerate() {
            let flip = c.rhs < 0.0;
            let relation = match (c.relation, flip) {
                (Relation::Le, true) | (Relation::Ge, false) => Relation::Ge,
                (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
                (Relation::Eq, _) => Relation::Eq,
            };
            match relation {
                Relation::Le => {
                    slack_of[r] = slack_idx;
                    counts[slack_idx] += 1;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    slack_of[r] = slack_idx;
                    counts[slack_idx] += 1;
                    slack_idx += 1;
                    art_of[r] = art_idx;
                    counts[art_idx] += 1;
                    art_idx += 1;
                }
                Relation::Eq => {
                    art_of[r] = art_idx;
                    counts[art_idx] += 1;
                    art_idx += 1;
                }
            }
        }
    }
    let mut col_ptr = vec![0usize; total + 1];
    for j in 0..total {
        col_ptr[j + 1] = col_ptr[j] + counts[j];
    }
    let nnz = col_ptr[total];
    let mut row_idx = vec![0usize; nnz];
    let mut vals = vec![0.0f64; nnz];
    let mut cursor = col_ptr.clone();
    let mut rhs = vec![0.0f64; m];
    let mut init_basis = vec![0usize; m];
    for (r, c) in constraints.iter().enumerate() {
        let flip = c.rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        rhs[r] = sign * c.rhs;
        let relation = match (c.relation, flip) {
            (Relation::Le, true) | (Relation::Ge, false) => Relation::Ge,
            (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
            (Relation::Eq, _) => Relation::Eq,
        };
        for &(j, a) in &c.coeffs {
            let k = cursor[j];
            row_idx[k] = r;
            vals[k] = sign * a;
            cursor[j] += 1;
        }
        match relation {
            Relation::Le => {
                let j = slack_of[r];
                let k = cursor[j];
                row_idx[k] = r;
                vals[k] = 1.0;
                cursor[j] += 1;
                init_basis[r] = j;
            }
            Relation::Ge => {
                let j = slack_of[r];
                let k = cursor[j];
                row_idx[k] = r;
                vals[k] = -1.0;
                cursor[j] += 1;
                let ja = art_of[r];
                let ka = cursor[ja];
                row_idx[ka] = r;
                vals[ka] = 1.0;
                cursor[ja] += 1;
                init_basis[r] = ja;
            }
            Relation::Eq => {
                let ja = art_of[r];
                let ka = cursor[ja];
                row_idx[ka] = r;
                vals[ka] = 1.0;
                cursor[ja] += 1;
                init_basis[r] = ja;
            }
        }
    }

    StandardForm {
        art_start,
        total,
        mat: Csc {
            m,
            col_ptr,
            row_idx,
            vals,
        },
        rhs,
        init_basis,
    }
}

/// Factors the basis given by `cols` (one column per row, any order) into a
/// fresh eta file, returning the file and the pivot-row → column map.
///
/// Columns are processed sparsest-first (ties by column index) so the unit
/// slack/artificial columns peel off with single-entry etas and fill
/// concentrates in the small non-trivial core; the pivot row is the largest
/// remaining `|w|` (partial pivoting), ties to the lowest row.
fn factor(
    sf: &StandardForm,
    cols: &[usize],
    stats: &mut SolveStats,
) -> Result<(Vec<Eta>, Vec<usize>), ()> {
    let m = sf.mat.m;
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&k| (sf.mat.col_nnz(cols[k]), cols[k]));
    let mut etas: Vec<Eta> = Vec::with_capacity(m);
    let mut row_basis = vec![usize::MAX; m];
    let mut taken = vec![false; m];
    let mut w = vec![0.0f64; m];
    for &k in &order {
        let j = cols[k];
        w.iter_mut().for_each(|x| *x = 0.0);
        sf.mat.scatter(j, &mut w);
        ftran(&etas, &mut w);
        let mut p = usize::MAX;
        let mut best = PIVOT_EPS;
        for (i, &wi) in w.iter().enumerate() {
            if !taken[i] && wi.abs() > best {
                best = wi.abs();
                p = i;
            }
        }
        if p == usize::MAX {
            return Err(());
        }
        taken[p] = true;
        row_basis[p] = j;
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            if i != p && wi != 0.0 {
                idx.push(i);
                vals.push(wi);
            }
        }
        stats.eta_vectors += 1;
        stats.eta_nonzeros += (idx.len() + 1) as u64;
        etas.push(Eta {
            p,
            pivot: w[p],
            idx,
            vals,
        });
    }
    stats.factorizations += 1;
    Ok((etas, row_basis))
}

/// Mutable solver state threaded through the phases.
struct State {
    etas: Vec<Eta>,
    /// Basic column per pivot row.
    row_basis: Vec<usize>,
    /// Current basic values, row-indexed (`x_B = B⁻¹ b`).
    xb: Vec<f64>,
    /// Update etas appended since the last (re)factorization.
    updates: usize,
}

impl State {
    /// Appends the update eta for a pivot at `row` with FTRANed column `w`,
    /// and updates `x_B` by the same transformation.
    fn pivot(&mut self, row: usize, col: usize, w: &[f64], stats: &mut SolveStats) {
        let t = self.xb[row] / w[row];
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            if i != row && wi != 0.0 {
                self.xb[i] -= wi * t;
                idx.push(i);
                vals.push(wi);
            }
        }
        self.xb[row] = t;
        stats.eta_vectors += 1;
        stats.eta_nonzeros += (idx.len() + 1) as u64;
        self.etas.push(Eta {
            p: row,
            pivot: w[row],
            idx,
            vals,
        });
        self.row_basis[row] = col;
        self.updates += 1;
        stats.pivots += 1;
    }

    /// Refactors from scratch when the eta file has grown past the limit;
    /// on a (numerically) singular refactorization the old file is kept —
    /// it is still a correct representation, just longer.
    fn maybe_refactor(&mut self, sf: &StandardForm, stats: &mut SolveStats) {
        let m = sf.mat.m;
        if self.updates < (m / 4).max(16) {
            return;
        }
        if let Ok((etas, row_basis)) = factor(sf, &self.row_basis, stats) {
            let mut xb = sf.rhs.clone();
            ftran(&etas, &mut xb);
            self.etas = etas;
            self.row_basis = row_basis;
            self.xb = xb;
            stats.refactorizations += 1;
        }
        self.updates = 0;
    }
}

/// Runs one simplex phase minimizing `costs` (length `total`), entering only
/// columns `< allowed`. Returns the objective at optimality.
fn run_phase(
    sf: &StandardForm,
    st: &mut State,
    costs: &[f64],
    allowed: usize,
    iter_limit: usize,
    stats: &mut SolveStats,
) -> Result<f64, LpError> {
    let m = sf.mat.m;
    let mut y = vec![0.0f64; m];
    let mut w = vec![0.0f64; m];
    let mut degenerate_run = 0usize;
    let mut bland = false;

    for _ in 0..iter_limit {
        // --- Pricing: y = Bᵀ⁻¹ c_B, then d_j = y·a_j − c_j -------------
        for (r, v) in y.iter_mut().enumerate() {
            *v = costs[st.row_basis[r]];
        }
        btran(&st.etas, &mut y);
        stats.price_recomputes += 1;
        let entering = if bland {
            (0..allowed).find(|&j| sf.mat.dot_col(j, &y) - costs[j] > FEAS_EPS)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for (j, &cj) in costs.iter().enumerate().take(allowed) {
                let d = sf.mat.dot_col(j, &y) - cj;
                if d > FEAS_EPS && best.is_none_or(|(_, bv)| d > bv) {
                    best = Some((j, d));
                }
            }
            best.map(|(j, _)| j)
        };
        let Some(col) = entering else {
            // Pricing is exact every iteration, so apparent optimality is
            // real optimality — no confirmation pass needed.
            let obj = (0..m).map(|r| costs[st.row_basis[r]] * st.xb[r]).sum();
            return Ok(obj);
        };

        // --- FTRAN the entering column and run the ratio test ----------
        w.iter_mut().for_each(|x| *x = 0.0);
        sf.mat.scatter(col, &mut w);
        ftran(&st.etas, &mut w);
        let mut leaving: Option<(usize, f64)> = None;
        for (r, &a) in w.iter().enumerate() {
            if a > PIVOT_EPS {
                let ratio = st.xb[r] / a;
                match leaving {
                    None => leaving = Some((r, ratio)),
                    Some((lr, lratio)) => {
                        if ratio < lratio - PIVOT_EPS
                            || ((ratio - lratio).abs() <= PIVOT_EPS
                                && st.row_basis[r] < st.row_basis[lr])
                        {
                            leaving = Some((r, ratio));
                        }
                    }
                }
            }
        }
        let Some((row, ratio)) = leaving else {
            return Err(LpError::Unbounded);
        };

        st.pivot(row, col, &w, stats);
        st.maybe_refactor(sf, stats);

        // --- Stall bookkeeping (same policy as the dense engine) -------
        if ratio <= PIVOT_EPS {
            degenerate_run += 1;
            stats.degenerate_pivots += 1;
            if !bland && degenerate_run >= stall_limit(m) {
                bland = true;
                stats.bland_switches += 1;
            }
        } else {
            degenerate_run = 0;
            bland = false;
        }
    }
    Err(LpError::IterationLimit)
}

/// Result of a sparse solve: variable values plus the optimal basis (one
/// column per row), `None` when an artificial remained basic (redundant
/// row) — such a basis is not reusable for warm starts.
pub(crate) struct SparseOutcome {
    pub(crate) values: Vec<f64>,
    pub(crate) basis: Option<Vec<usize>>,
}

/// Solves `minimize c·x  s.t.  constraints, x ≥ 0` with the revised engine,
/// optionally warm-starting from `warm` (basic column per row of a
/// structurally identical problem).
pub(crate) fn solve(
    costs: &[f64],
    constraints: &[Constraint],
    warm: Option<&[usize]>,
    stats: &mut SolveStats,
) -> Result<SparseOutcome, LpError> {
    let n = costs.len();
    let m = constraints.len();
    if m == 0 {
        if costs.iter().any(|&c| c < -PIVOT_EPS) {
            return Err(LpError::Unbounded);
        }
        return Ok(SparseOutcome {
            values: vec![0.0; n],
            basis: Some(Vec::new()),
        });
    }

    let sf = build_standard_form(n, constraints);
    let iter_limit = 20_000 + 100 * (m + sf.total);

    // --- Warm start: factor the supplied basis; if B⁻¹b ≥ 0 the old
    // vertex is primal feasible here and phase 1 is skipped entirely. Any
    // failure (shape, singular, infeasible) falls back to a cold start.
    let mut st: Option<State> = None;
    if let Some(cols) = warm {
        let mut ok = cols.len() == m && cols.iter().all(|&j| j < sf.art_start);
        if ok {
            let mut seen = vec![false; sf.art_start];
            for &j in cols {
                if seen[j] {
                    ok = false;
                    break;
                }
                seen[j] = true;
            }
        }
        if ok {
            if let Ok((etas, row_basis)) = factor(&sf, cols, stats) {
                let mut xb = sf.rhs.clone();
                ftran(&etas, &mut xb);
                if xb.iter().all(|&x| x >= -FEAS_EPS) {
                    stats.warm_hits += 1;
                    st = Some(State {
                        etas,
                        row_basis,
                        xb,
                        updates: 0,
                    });
                }
            }
        }
        if st.is_none() {
            stats.warm_misses += 1;
        }
    }

    let mut st = match st {
        Some(st) => st,
        None => {
            // Cold start from the identity basis (slack for ≤, artificial
            // otherwise); phase 1 drives the artificials out.
            let mut st = State {
                etas: Vec::new(),
                row_basis: sf.init_basis.clone(),
                xb: sf.rhs.clone(),
                updates: 0,
            };
            if sf.total > sf.art_start {
                let mut c1 = vec![0.0; sf.total];
                c1[sf.art_start..].fill(1.0);
                let obj = run_phase(&sf, &mut st, &c1, sf.total, iter_limit, stats)?;
                stats.phase1_pivots = stats.pivots;
                if obj > FEAS_EPS {
                    return Err(LpError::Infeasible);
                }
                pivot_out_artificials(&sf, &mut st, stats);
            }
            st
        }
    };

    // --- Phase 2 -----------------------------------------------------------
    let mut c2 = vec![0.0; sf.total];
    c2[..n].copy_from_slice(costs);
    run_phase(&sf, &mut st, &c2, sf.art_start, iter_limit, stats)?;

    let mut values = vec![0.0; n];
    for (r, &b) in st.row_basis.iter().enumerate() {
        if b < n {
            values[b] = st.xb[r].max(0.0);
        }
    }
    let basis = if st.row_basis.iter().all(|&b| b < sf.art_start) {
        Some(st.row_basis)
    } else {
        None
    };
    Ok(SparseOutcome { values, basis })
}

/// Outcome of [`solve_diagnosed`]: the terminal vertex plus the row duals
/// the pricing loop normally discards, in the caller's original row order
/// and sign convention.
pub(crate) enum DiagnosedSolve {
    /// Solved to optimality: variable values plus the dual value `y_r` of
    /// every constraint row (`y = Bᵀ⁻¹ c_B` at the optimal basis).
    Optimal {
        /// Structural variable values.
        values: Vec<f64>,
        /// Per-row duals.
        duals: Vec<f64>,
    },
    /// Phase 1 terminated with artificials at a positive level. The phase-1
    /// duals form a Farkas certificate of infeasibility: rows with nonzero
    /// weight are a mutually incompatible set (`Σ y_r · row_r` is a valid
    /// inequality no `x ≥ 0` can satisfy).
    Infeasible {
        /// Per-row certificate weights.
        certificate: Vec<f64>,
    },
}

/// Cold solve that also recovers the row duals at termination — one extra
/// BTRAN per phase over [`solve`]'s work. Used on diagnostic paths only;
/// warm starts are deliberately unsupported (diagnosis re-solves are rare
/// and must not depend on cached bases).
pub(crate) fn solve_diagnosed(
    costs: &[f64],
    constraints: &[Constraint],
    stats: &mut SolveStats,
) -> Result<DiagnosedSolve, LpError> {
    let n = costs.len();
    let m = constraints.len();
    if m == 0 {
        if costs.iter().any(|&c| c < -PIVOT_EPS) {
            return Err(LpError::Unbounded);
        }
        return Ok(DiagnosedSolve::Optimal {
            values: vec![0.0; n],
            duals: Vec::new(),
        });
    }

    let sf = build_standard_form(n, constraints);
    let iter_limit = 20_000 + 100 * (m + sf.total);
    let mut st = State {
        etas: Vec::new(),
        row_basis: sf.init_basis.clone(),
        xb: sf.rhs.clone(),
        updates: 0,
    };
    if sf.total > sf.art_start {
        let mut c1 = vec![0.0; sf.total];
        c1[sf.art_start..].fill(1.0);
        let obj = run_phase(&sf, &mut st, &c1, sf.total, iter_limit, stats)?;
        stats.phase1_pivots = stats.pivots;
        if obj > FEAS_EPS {
            return Ok(DiagnosedSolve::Infeasible {
                certificate: row_duals(&sf, &st, &c1, constraints),
            });
        }
        pivot_out_artificials(&sf, &mut st, stats);
    }

    let mut c2 = vec![0.0; sf.total];
    c2[..n].copy_from_slice(costs);
    run_phase(&sf, &mut st, &c2, sf.art_start, iter_limit, stats)?;

    let mut values = vec![0.0; n];
    for (r, &b) in st.row_basis.iter().enumerate() {
        if b < n {
            values[b] = st.xb[r].max(0.0);
        }
    }
    let duals = row_duals(&sf, &st, &c2, constraints);
    Ok(DiagnosedSolve::Optimal { values, duals })
}

/// Recovers the row duals `y = Bᵀ⁻¹ c_B` for the current basis and maps them
/// back to the caller's convention: [`build_standard_form`] negates rows
/// with `rhs < 0`, so those rows' duals are negated back here.
fn row_duals(sf: &StandardForm, st: &State, costs: &[f64], constraints: &[Constraint]) -> Vec<f64> {
    let m = sf.mat.m;
    let mut y = vec![0.0f64; m];
    for (r, v) in y.iter_mut().enumerate() {
        *v = costs[st.row_basis[r]];
    }
    btran(&st.etas, &mut y);
    for (r, c) in constraints.iter().enumerate() {
        if c.rhs < 0.0 {
            y[r] = -y[r];
        }
    }
    y
}

/// Pivots any artificial still basic after phase 1 out on the first
/// structural/slack column with a nonzero entry in its row (the row of
/// `B⁻¹A` is probed via `ρ = Bᵀ⁻¹ e_r`); an all-zero row is redundant and
/// the artificial stays basic at zero, exactly as in the dense engine.
fn pivot_out_artificials(sf: &StandardForm, st: &mut State, stats: &mut SolveStats) {
    let m = sf.mat.m;
    for r in 0..m {
        if st.row_basis[r] < sf.art_start {
            continue;
        }
        let mut rho = vec![0.0f64; m];
        rho[r] = 1.0;
        btran(&st.etas, &mut rho);
        if let Some(j) = (0..sf.art_start).find(|&j| sf.mat.dot_col(j, &rho).abs() > PIVOT_EPS) {
            let mut w = vec![0.0f64; m];
            sf.mat.scatter(j, &mut w);
            ftran(&st.etas, &mut w);
            st.pivot(r, j, &w, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(coeffs: Vec<(usize, f64)>, relation: Relation, rhs: f64) -> Constraint {
        Constraint {
            coeffs,
            relation,
            rhs,
        }
    }

    fn solve_cold(costs: &[f64], cons: &[Constraint]) -> Result<Vec<f64>, LpError> {
        super::solve(costs, cons, None, &mut SolveStats::default()).map(|o| o.values)
    }

    #[test]
    fn matches_dense_on_transportation() {
        let cons = vec![
            c(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 3.0),
            c(vec![(2, 1.0), (3, 1.0)], Relation::Eq, 4.0),
            c(vec![(0, 1.0), (2, 1.0)], Relation::Eq, 5.0),
            c(vec![(1, 1.0), (3, 1.0)], Relation::Eq, 2.0),
        ];
        let costs = [1.0, 4.0, 2.0, 1.0];
        let v = solve_cold(&costs, &cons).unwrap();
        let obj: f64 = v.iter().zip(costs).map(|(x, c)| x * c).sum();
        assert!((obj - 9.0).abs() < 1e-6, "obj={obj} v={v:?}");
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let cons = vec![
            c(vec![(0, 1.0)], Relation::Ge, 5.0),
            c(vec![(0, 1.0)], Relation::Le, 3.0),
        ];
        assert_eq!(solve_cold(&[1.0], &cons).unwrap_err(), LpError::Infeasible);
        let cons = vec![c(vec![(0, 1.0)], Relation::Ge, 0.0)];
        assert_eq!(solve_cold(&[-1.0], &cons).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn beale_degenerate_terminates() {
        let cons = vec![
            c(
                vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                Relation::Le,
                0.0,
            ),
            c(
                vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                Relation::Le,
                0.0,
            ),
            c(vec![(2, 1.0)], Relation::Le, 1.0),
        ];
        let v = solve_cold(&[-0.75, 150.0, -0.02, 6.0], &cons).unwrap();
        let obj = -0.75 * v[0] + 150.0 * v[1] - 0.02 * v[2] + 6.0 * v[3];
        assert!((obj - (-0.05)).abs() < 1e-6, "obj={obj} v={v:?}");
    }

    #[test]
    fn warm_start_skips_phase_one() {
        // A feasibility system: solve cold, then re-solve with a tightened
        // rhs from the old basis — the warm solve must report a hit and
        // zero phase-1 pivots.
        let cons = vec![
            c(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 4.0),
            c(vec![(0, 1.0)], Relation::Le, 3.0),
        ];
        let mut s1 = SolveStats::default();
        let out = super::solve(&[0.0, 0.0], &cons, None, &mut s1).unwrap();
        let basis = out.basis.expect("artificial-free optimum");
        let cons2 = vec![
            c(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 4.0),
            c(vec![(0, 1.0)], Relation::Le, 2.5),
        ];
        let mut s2 = SolveStats::default();
        let out2 = super::solve(&[0.0, 0.0], &cons2, Some(&basis), &mut s2).unwrap();
        // Whether the old vertex is still feasible depends on which basis
        // the cold solve ended on; either way the answer must be feasible
        // and the stats must classify the attempt.
        assert!(out2.values[0] <= 2.5 + 1e-9);
        assert!((out2.values[0] + out2.values[1] - 4.0).abs() < 1e-7);
        assert_eq!(s2.warm_hits + s2.warm_misses, 1, "{s2:?}");
        if s2.warm_hits == 1 {
            assert_eq!(s2.phase1_pivots, 0, "{s2:?}");
        }
    }

    #[test]
    fn warm_start_rejects_bad_shapes() {
        let cons = vec![c(vec![(0, 1.0)], Relation::Le, 3.0)];
        // Wrong length and out-of-range columns must fall back cleanly.
        for bad in [vec![], vec![9usize], vec![0, 1]] {
            let mut s = SolveStats::default();
            let out = super::solve(&[1.0], &cons, Some(&bad), &mut s).unwrap();
            assert!(out.values[0].abs() < 1e-9);
            assert_eq!(s.warm_misses, 1, "{s:?}");
        }
    }

    #[test]
    fn refactorization_triggers_on_long_runs() {
        // A covering LP big enough to exceed the update-eta limit.
        let n = 40;
        let costs: Vec<f64> = (0..n).map(|j| 1.0 + (j % 7) as f64).collect();
        let mut cons = Vec::new();
        for r in 0..n {
            let coeffs: Vec<(usize, f64)> = (0..n)
                .map(|j| (j, 1.0 + ((r * 5 + j * 3) % 13) as f64 / 13.0))
                .collect();
            cons.push(c(coeffs, Relation::Ge, 3.0));
        }
        let mut stats = SolveStats::default();
        let out = super::solve(&costs, &cons, None, &mut stats).unwrap();
        assert!(stats.factorizations > 0, "{stats:?}");
        assert!(stats.eta_vectors > 0, "{stats:?}");
        assert!(out.values.iter().all(|&x| x >= 0.0));
    }
}
