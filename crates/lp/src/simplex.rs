//! The dense two-phase tableau simplex: the differential reference the
//! sparse revised engine ([`crate::sparse`]) is tested against. It shares
//! the sparse engine's pivot rules and tolerances, so on every test
//! instance the two must agree on status and objective; it is compiled
//! into test builds only.
//!
//! The tableau is a single contiguous row-major buffer ([`Tableau`]) so the
//! pivot inner loops stream linearly through memory, and each phase keeps a
//! cached reduced-cost row updated incrementally per pivot (Gauss–Jordan on
//! the objective row). Pricing is Dantzig's rule — most positive reduced
//! cost — which converges in far fewer pivots than Bland's on dense
//! instances; a run of degenerate pivots switches to Bland's rule (with
//! freshly recomputed reduced costs) until progress resumes, restoring the
//! anti-cycling guarantee. Apparent optimality is always confirmed against
//! exactly recomputed reduced costs, so cache drift cannot terminate a
//! phase early.

use crate::problem::{Constraint, LpError, Relation};
use crate::SolveStats;

/// Pivot tolerance: entries smaller than this are treated as zero.
const PIVOT_EPS: f64 = 1e-9;
/// Phase-1 objective values below this count as feasible.
const FEAS_EPS: f64 = 1e-7;

/// Dense row-major tableau: `m` rows of `width` columns in one allocation.
struct Tableau {
    width: usize,
    a: Vec<f64>,
}

impl Tableau {
    fn zeroed(m: usize, width: usize) -> Self {
        Tableau {
            width,
            a: vec![0.0; m * width],
        }
    }

    fn rows(&self) -> usize {
        self.a.len() / self.width
    }

    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.a[r * self.width..(r + 1) * self.width]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.a[r * self.width..(r + 1) * self.width]
    }

    #[inline]
    fn get(&self, r: usize, j: usize) -> f64 {
        self.a[r * self.width + j]
    }

    /// Gauss–Jordan pivot at `(row, col)`, fused: the pivot row is copied
    /// once into `scratch` and every elimination streams `row -= factor ·
    /// scratch/p` in a single pass, with the pivot row itself normalized
    /// from the same scratch copy (one read of the cold row instead of
    /// two).
    fn pivot(&mut self, row: usize, col: usize, scratch: &mut Vec<f64>) {
        let p = self.get(row, col);
        debug_assert!(p.abs() > PIVOT_EPS, "pivot on (near-)zero element");
        let inv_p = 1.0 / p;
        scratch.clear();
        scratch.extend_from_slice(self.row(row));
        for r in 0..self.rows() {
            if r == row {
                continue;
            }
            let factor = self.get(r, col) * inv_p;
            if factor != 0.0 {
                let dst = self.row_mut(r);
                for (d, &s) in dst.iter_mut().zip(scratch.iter()) {
                    *d -= factor * s;
                }
                dst[col] = 0.0;
            }
        }
        let dst = self.row_mut(row);
        for (d, &s) in dst.iter_mut().zip(scratch.iter()) {
            *d = s * inv_p;
        }
        dst[col] = 1.0; // kill rounding residue
    }
}

/// Solves `minimize c·x  s.t.  constraints, x ≥ 0`; returns variable values
/// and accumulates work counters into `stats`.
pub(crate) fn solve(
    costs: &[f64],
    constraints: &[Constraint],
    stats: &mut SolveStats,
) -> Result<Vec<f64>, LpError> {
    let n = costs.len();
    let m = constraints.len();
    if m == 0 {
        // With x ≥ 0 and minimization, any negative cost is unbounded;
        // otherwise the optimum is the origin.
        if costs.iter().any(|&c| c < -PIVOT_EPS) {
            return Err(LpError::Unbounded);
        }
        return Ok(vec![0.0; n]);
    }

    // --- Build the tableau -------------------------------------------------
    // Normalize every row to rhs >= 0, then append slack/surplus and
    // artificial columns. Column layout: [structural | slack | artificial].
    let mut n_slack = 0;
    let mut n_art = 0;
    let mut rows: Vec<(Vec<f64>, Relation, f64)> = Vec::with_capacity(m);
    for c in constraints {
        let mut dense = vec![0.0; n];
        for &(i, a) in &c.coeffs {
            dense[i] += a;
        }
        let (dense, relation, rhs) = if c.rhs < 0.0 {
            let flipped = match c.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            (dense.iter().map(|a| -a).collect(), flipped, -c.rhs)
        } else {
            (dense, c.relation, c.rhs)
        };
        match relation {
            Relation::Le => n_slack += 1,
            Relation::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => n_art += 1,
        }
        rows.push((dense, relation, rhs));
    }

    let total = n + n_slack + n_art;
    let width = total + 1; // + rhs column
    let mut tab = Tableau::zeroed(m, width);
    let mut basis = vec![0usize; m];
    let art_start = n + n_slack;
    let mut slack_idx = n;
    let mut art_idx = art_start;

    for (r, (dense, relation, rhs)) in rows.into_iter().enumerate() {
        let row = tab.row_mut(r);
        row[..n].copy_from_slice(&dense);
        row[total] = rhs;
        match relation {
            Relation::Le => {
                row[slack_idx] = 1.0;
                basis[r] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                row[slack_idx] = -1.0;
                slack_idx += 1;
                row[art_idx] = 1.0;
                basis[r] = art_idx;
                art_idx += 1;
            }
            Relation::Eq => {
                row[art_idx] = 1.0;
                basis[r] = art_idx;
                art_idx += 1;
            }
        }
    }

    let iter_limit = 20_000 + 100 * (m + total);
    let mut scratch = Vec::with_capacity(width);

    // --- Phase 1: minimize the sum of artificials ---------------------------
    if n_art > 0 {
        let mut c1 = vec![0.0; total];
        c1[art_start..total].fill(1.0);
        let obj = run_phase(
            &mut tab,
            &mut basis,
            &c1,
            total,
            total,
            iter_limit,
            &mut scratch,
            stats,
        )?;
        stats.phase1_pivots = stats.pivots;
        if obj > FEAS_EPS {
            return Err(LpError::Infeasible);
        }
        // Pivot any artificial still in the basis out on a structural/slack
        // column; an all-zero row is redundant and can stay (its rhs is 0).
        for (r, b) in basis.iter_mut().enumerate() {
            if *b < art_start {
                continue;
            }
            if let Some(j) = (0..art_start).find(|&j| tab.get(r, j).abs() > PIVOT_EPS) {
                tab.pivot(r, j, &mut scratch);
                stats.pivots += 1;
                *b = j;
            }
        }
    }

    // --- Phase 2: minimize the true objective ------------------------------
    // Artificial columns are frozen by restricting the entering-candidate
    // range to the first `art_start` columns.
    let mut c2 = vec![0.0; total];
    c2[..n].copy_from_slice(costs);
    run_phase(
        &mut tab,
        &mut basis,
        &c2,
        art_start,
        total,
        iter_limit,
        &mut scratch,
        stats,
    )?;

    let mut values = vec![0.0; n];
    for r in 0..m {
        if basis[r] < n {
            values[basis[r]] = tab.get(r, total).max(0.0);
        }
    }
    Ok(values)
}

/// Consecutive degenerate pivots tolerated under Dantzig pricing before
/// falling back to Bland's rule.
fn stall_limit(m: usize) -> usize {
    2 * m + 16
}

/// Exact reduced costs `z_j − c_j` for columns `0..allowed`.
fn reduced_costs(tab: &Tableau, basis: &[usize], costs: &[f64], allowed: usize, red: &mut [f64]) {
    red[..allowed].copy_from_slice(&costs[..allowed]);
    for v in red[..allowed].iter_mut() {
        *v = -*v;
    }
    for (r, &b) in basis.iter().enumerate() {
        let cb = costs[b];
        if cb != 0.0 {
            let row = tab.row(r);
            for (v, &a) in red[..allowed].iter_mut().zip(row[..allowed].iter()) {
                *v += cb * a;
            }
        }
    }
}

/// Runs one simplex phase minimizing `costs` over the current tableau.
///
/// Pricing is Dantzig's rule over a reduced-cost row that is updated
/// incrementally with each pivot; a degenerate stall switches to Bland's
/// rule on exact reduced costs until an improving pivot lands. Only columns
/// `< allowed` may enter the basis. Returns the objective value at
/// optimality (recomputed exactly, not from the incremental cache).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    tab: &mut Tableau,
    basis: &mut [usize],
    costs: &[f64],
    allowed: usize,
    total: usize,
    iter_limit: usize,
    scratch: &mut Vec<f64>,
    stats: &mut SolveStats,
) -> Result<f64, LpError> {
    let m = basis.len();
    let mut red = vec![0.0; allowed];
    reduced_costs(tab, basis, costs, allowed, &mut red);
    stats.price_recomputes += 1;
    let mut degenerate_run = 0usize;
    let mut bland = false;

    for _ in 0..iter_limit {
        // --- Pricing ---------------------------------------------------
        let entering = if bland {
            // Bland: smallest index with positive reduced cost.
            red[..allowed].iter().position(|&v| v > FEAS_EPS)
        } else {
            // Dantzig: most positive reduced cost.
            let mut best: Option<(usize, f64)> = None;
            for (j, &v) in red[..allowed].iter().enumerate() {
                if v > FEAS_EPS && best.is_none_or(|(_, bv)| v > bv) {
                    best = Some((j, v));
                }
            }
            best.map(|(j, _)| j)
        };
        let Some(col) = entering else {
            // Apparent optimality: confirm against exact reduced costs so
            // incremental-cache drift can never end the phase early.
            reduced_costs(tab, basis, costs, allowed, &mut red);
            stats.price_recomputes += 1;
            if red[..allowed].iter().any(|&v| v > FEAS_EPS) {
                continue;
            }
            let obj = (0..m).map(|r| costs[basis[r]] * tab.get(r, total)).sum();
            return Ok(obj);
        };

        // --- Ratio test; ties broken by smallest basic index (Bland) ---
        let mut leaving: Option<(usize, f64)> = None;
        for r in 0..m {
            let a = tab.get(r, col);
            if a > PIVOT_EPS {
                let ratio = tab.get(r, total) / a;
                match leaving {
                    None => leaving = Some((r, ratio)),
                    Some((lr, lratio)) => {
                        if ratio < lratio - PIVOT_EPS
                            || ((ratio - lratio).abs() <= PIVOT_EPS && basis[r] < basis[lr])
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

        tab.pivot(row, col, scratch);
        stats.pivots += 1;
        basis[row] = col;

        // Incremental objective-row update: eliminating `col` from the
        // reduced-cost row is the same Gauss–Jordan step the tableau rows
        // received (the pivot row is normalized now).
        let rc = red[col];
        if rc != 0.0 {
            let prow = tab.row(row);
            for (v, &a) in red[..allowed].iter_mut().zip(prow[..allowed].iter()) {
                *v -= rc * a;
            }
        }
        red[col] = 0.0;

        // --- Stall bookkeeping -----------------------------------------
        if ratio <= PIVOT_EPS {
            degenerate_run += 1;
            stats.degenerate_pivots += 1;
            if !bland && degenerate_run >= stall_limit(m) {
                // Cycling risk: restart pricing on exact reduced costs
                // under Bland's rule, which terminates by construction.
                bland = true;
                stats.bland_switches += 1;
                reduced_costs(tab, basis, costs, allowed, &mut red);
                stats.price_recomputes += 1;
            }
        } else {
            degenerate_run = 0;
            bland = false;
        }
    }
    Err(LpError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, VarId};
    use proptest::prelude::*;

    /// Shadows the crate-level `solve` for tests that don't care about
    /// stats (explicit items take precedence over the glob import).
    fn solve(costs: &[f64], constraints: &[Constraint]) -> Result<Vec<f64>, LpError> {
        super::solve(costs, constraints, &mut SolveStats::default())
    }

    fn c(coeffs: Vec<(usize, f64)>, relation: Relation, rhs: f64) -> Constraint {
        Constraint {
            coeffs,
            relation,
            rhs,
        }
    }

    #[test]
    fn no_constraints_origin_optimal() {
        let v = solve(&[1.0, 2.0], &[]).unwrap();
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn no_constraints_negative_cost_unbounded() {
        assert_eq!(solve(&[-1.0], &[]).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn klee_minty_small_terminates() {
        // 3-dimensional Klee–Minty cube: worst case for Dantzig pivot
        // counts, but still terminating (and tiny here).
        // maximize 4x1 + 2x2 + x3 == minimize negative.
        let cons = vec![
            c(vec![(0, 1.0)], Relation::Le, 5.0),
            c(vec![(0, 4.0), (1, 1.0)], Relation::Le, 25.0),
            c(vec![(0, 8.0), (1, 4.0), (2, 1.0)], Relation::Le, 125.0),
        ];
        let v = solve(&[-4.0, -2.0, -1.0], &cons).unwrap();
        let obj = -4.0 * v[0] - 2.0 * v[1] - v[2];
        assert!((obj - (-125.0)).abs() < 1e-6, "obj={obj}, v={v:?}");
    }

    #[test]
    fn transportation_like_equalities() {
        // Two supplies (3, 4), two demands (5, 2); minimize cost with
        // x[i][j] flattened as vars 0..4, costs [1, 4, 2, 1].
        let cons = vec![
            c(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 3.0),
            c(vec![(2, 1.0), (3, 1.0)], Relation::Eq, 4.0),
            c(vec![(0, 1.0), (2, 1.0)], Relation::Eq, 5.0),
            c(vec![(1, 1.0), (3, 1.0)], Relation::Eq, 2.0),
        ];
        let v = solve(&[1.0, 4.0, 2.0, 1.0], &cons).unwrap();
        let obj: f64 = v.iter().zip([1.0, 4.0, 2.0, 1.0]).map(|(x, c)| x * c).sum();
        // Optimal: x00=3, x10=2, x11=2 -> 3 + 4 + 2 = 9.
        assert!((obj - 9.0).abs() < 1e-6, "obj={obj} v={v:?}");
    }

    #[test]
    fn redundant_rows_tolerated() {
        let cons = vec![
            c(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 2.0),
            c(vec![(0, 2.0), (1, 2.0)], Relation::Eq, 4.0), // same plane
        ];
        let v = solve(&[1.0, 1.0], &cons).unwrap();
        assert!((v[0] + v[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn beale_cycling_instance_terminates() {
        // Beale's classic degenerate LP — cycles forever under naive
        // Dantzig pricing with a fixed tie-break; the Bland fallback must
        // terminate it at the optimum (objective −1/20).
        // minimize −3/4·x1 + 150·x2 − 1/50·x3 + 6·x4
        let cons = vec![
            c(
                vec![(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0)],
                Relation::Le,
                0.0,
            ),
            c(
                vec![(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0)],
                Relation::Le,
                0.0,
            ),
            c(vec![(2, 1.0)], Relation::Le, 1.0),
        ];
        let mut stats = SolveStats::default();
        let v = super::solve(&[-0.75, 150.0, -0.02, 6.0], &cons, &mut stats).unwrap();
        let obj = -0.75 * v[0] + 150.0 * v[1] - 0.02 * v[2] + 6.0 * v[3];
        assert!((obj - (-0.05)).abs() < 1e-6, "obj={obj}, v={v:?}");
        // The instance is degenerate by construction; the counters must
        // have seen the pivots and at least one Bland fallback.
        assert!(stats.pivots > 0);
        assert!(stats.degenerate_pivots > 0, "{stats:?}");
        assert!(stats.bland_switches >= 1, "{stats:?}");
        assert!(stats.price_recomputes >= 2, "{stats:?}");
    }

    #[test]
    fn stats_count_phase1_and_merge() {
        // An equality system forces artificials, so phase 1 must pivot.
        let cons = vec![
            c(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 3.0),
            c(vec![(0, 1.0), (1, -1.0)], Relation::Eq, 1.0),
        ];
        let mut stats = SolveStats::default();
        super::solve(&[1.0, 1.0], &cons, &mut stats).unwrap();
        assert!(stats.phase1_pivots > 0, "{stats:?}");
        assert!(stats.pivots >= stats.phase1_pivots);

        let mut total = SolveStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.pivots, 2 * stats.pivots);
        assert_eq!(total.price_recomputes, 2 * stats.price_recomputes);
    }

    #[test]
    fn dense_instance_matches_upper_bound_structure() {
        // A moderately sized dense covering LP whose optimum is easy to
        // sanity-check: all constraints can be met at x_j = 1, so the
        // optimum is ≤ Σc, and feasibility forces a positive objective.
        let n = 24;
        let costs: Vec<f64> = (0..n).map(|j| 1.0 + (j % 5) as f64).collect();
        let mut cons = Vec::new();
        for r in 0..n / 2 {
            let coeffs: Vec<(usize, f64)> = (0..n)
                .map(|j| (j, 1.0 + ((r * 7 + j * 3) % 11) as f64 / 11.0))
                .collect();
            cons.push(c(coeffs, Relation::Ge, 4.0));
        }
        for j in 0..n {
            cons.push(c(vec![(j, 1.0)], Relation::Le, 1.0));
        }
        let v = solve(&costs, &cons).unwrap();
        let obj: f64 = v.iter().zip(&costs).map(|(x, c)| x * c).sum();
        assert!(obj > 0.0 && obj <= costs.iter().sum::<f64>() + 1e-9);
        // All upper bounds respected.
        assert!(v.iter().all(|&x| x <= 1.0 + 1e-7));
    }

    /// A boxed program built around a known feasible point: every row holds
    /// at the point (with a random margin), so neither engine may report it
    /// infeasible or unbounded.
    fn known_feasible() -> impl Strategy<Value = Problem> {
        (1usize..5).prop_flat_map(|n| {
            let costs = prop::collection::vec(-5.0f64..5.0, n);
            let point = prop::collection::vec(0.0f64..10.0, n);
            let rows = prop::collection::vec(
                (
                    prop::collection::vec(-3.0f64..3.0, n),
                    prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
                    0.0f64..4.0,
                ),
                1..6,
            );
            (costs, point, rows).prop_map(|(costs, point, rows)| {
                let mut p = Problem::minimize();
                let vars: Vec<VarId> = costs.iter().map(|&c| p.add_var(c)).collect();
                for (coeffs, rel, margin) in rows {
                    let lhs: f64 = coeffs.iter().zip(&point).map(|(a, x)| a * x).sum();
                    let rhs = match rel {
                        Relation::Le => lhs + margin,
                        Relation::Ge => lhs - margin,
                        Relation::Eq => lhs,
                    };
                    let terms: Vec<(VarId, f64)> = vars.iter().copied().zip(coeffs).collect();
                    p.add_constraint(&terms, rel, rhs).expect("valid row");
                }
                for &v in &vars {
                    p.add_constraint(&[(v, 1.0)], Relation::Le, 10.0)
                        .expect("valid bound");
                }
                p
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The dense tableau and the sparse revised engine share their pivot
        /// rules, so they must agree on feasibility status, produce feasible
        /// points, and reach objectives equal to within accumulated rounding
        /// (the 1e-9 differential-oracle contract).
        #[test]
        fn dense_and_sparse_engines_agree(p in known_feasible()) {
            match (p.solve_dense(), p.solve()) {
                (Ok(d), Ok(s)) => {
                    prop_assert!(p.is_feasible(d.values(), 1e-5),
                        "dense point infeasible: {:?}", d.values());
                    prop_assert!(p.is_feasible(s.values(), 1e-5),
                        "sparse point infeasible: {:?}", s.values());
                    let tol = 1e-9 * (1.0 + d.objective().abs());
                    prop_assert!((d.objective() - s.objective()).abs() <= tol,
                        "objectives diverged: dense {} vs sparse {}",
                        d.objective(), s.objective());
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                (a, b) => prop_assert!(false, "engine status diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
