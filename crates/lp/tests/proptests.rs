//! Property-based tests for the simplex solver.
//!
//! Strategy: generate LPs with a *known feasible point* by construction, so
//! solver claims can be validated against ground truth:
//!
//! * if the solver returns a solution, it must satisfy every constraint;
//! * the solver must never report `Infeasible` for a program built around a
//!   known feasible point;
//! * adding a redundant constraint never changes feasibility;
//! * the reported objective must never exceed the known point's objective
//!   (minimization).

use proptest::prelude::*;
use sr_lp::{LpError, Problem, Relation, VarId};

#[derive(Debug, Clone)]
struct KnownFeasible {
    costs: Vec<f64>,
    point: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

fn known_feasible() -> impl Strategy<Value = KnownFeasible> {
    let dims = 1usize..5;
    dims.prop_flat_map(|n| {
        let costs = prop::collection::vec(-5.0f64..5.0, n);
        let point = prop::collection::vec(0.0f64..10.0, n);
        let rows = prop::collection::vec(
            (
                prop::collection::vec(-3.0f64..3.0, n),
                prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
                0.0f64..4.0, // slack margin
            ),
            1..6,
        );
        (costs, point, rows).prop_map(|(costs, point, rows)| {
            let rows = rows
                .into_iter()
                .map(|(coeffs, rel, margin)| {
                    let lhs: f64 = coeffs.iter().zip(&point).map(|(a, x)| a * x).sum();
                    let rhs = match rel {
                        Relation::Le => lhs + margin,
                        Relation::Ge => lhs - margin,
                        Relation::Eq => lhs,
                    };
                    (coeffs, rel, rhs)
                })
                .collect();
            KnownFeasible { costs, point, rows }
        })
    })
}

fn build(kf: &KnownFeasible, extra_bound: bool) -> Problem {
    let mut p = Problem::minimize();
    let vars: Vec<VarId> = kf.costs.iter().map(|&c| p.add_var(c)).collect();
    for (coeffs, rel, rhs) in &kf.rows {
        let terms: Vec<(VarId, f64)> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        p.add_constraint(&terms, *rel, *rhs)
            .expect("valid constraint");
    }
    if extra_bound {
        // Box the region so the program cannot be unbounded; the known point
        // (each coordinate < 10) stays feasible.
        for &v in &vars {
            p.add_constraint(&[(v, 1.0)], Relation::Le, 10.0)
                .expect("valid bound");
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solutions_are_feasible_and_no_worse_than_witness(kf in known_feasible()) {
        let p = build(&kf, true);
        match p.solve() {
            Ok(sol) => {
                prop_assert!(p.is_feasible(sol.values(), 1e-5),
                    "solver returned infeasible point {:?}", sol.values());
                let witness_obj: f64 =
                    kf.costs.iter().zip(&kf.point).map(|(c, x)| c * x).sum();
                prop_assert!(sol.objective() <= witness_obj + 1e-5,
                    "objective {} worse than witness {witness_obj}", sol.objective());
            }
            Err(LpError::Infeasible) => {
                prop_assert!(false, "reported infeasible despite witness {:?}", kf.point);
            }
            Err(LpError::Unbounded) => {
                prop_assert!(false, "boxed program reported unbounded");
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn unboxed_never_reports_infeasible(kf in known_feasible()) {
        let p = build(&kf, false);
        match p.solve() {
            Ok(sol) => prop_assert!(p.is_feasible(sol.values(), 1e-5)),
            Err(LpError::Unbounded) => {} // legitimately unbounded without the box
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// A warm start from any structurally valid basis must degrade to a
    /// correct solve, never a wrong answer: same status as cold, feasible
    /// point, same objective to within rounding.
    #[test]
    fn warm_start_agrees_with_cold(kf in known_feasible()) {
        let p = build(&kf, true);
        let Ok((cold_sol, cold_basis, _)) = p.solve_warm(None) else { return Ok(()); };
        let Some(basis) = cold_basis else { return Ok(()); };
        let (warm_sol, _, warm_stats) = p.solve_warm(Some(&basis)).expect("cold-solvable");
        prop_assert!(p.is_feasible(warm_sol.values(), 1e-5));
        let tol = 1e-9 * (1.0 + cold_sol.objective().abs());
        prop_assert!((warm_sol.objective() - cold_sol.objective()).abs() <= tol,
            "warm objective {} vs cold {}", warm_sol.objective(), cold_sol.objective());
        prop_assert_eq!(warm_stats.warm_hits + warm_stats.warm_misses, 1);
    }

    #[test]
    fn duplicate_constraints_preserve_result(kf in known_feasible()) {
        let p1 = build(&kf, true);
        let mut p2 = build(&kf, true);
        // Re-add the first row verbatim: redundant, must not change status.
        let (coeffs, rel, rhs) = &kf.rows[0];
        let terms: Vec<(VarId, f64)> = coeffs
            .iter()
            .enumerate()
            .map(|(i, &a)| (VarId::new(i), a))
            .collect();
        p2.add_constraint(&terms, *rel, *rhs).expect("valid");
        match (p1.solve(), p2.solve()) {
            (Ok(a), Ok(b)) => prop_assert!((a.objective() - b.objective()).abs() < 1e-5),
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            (a, b) => prop_assert!(false, "status diverged: {a:?} vs {b:?}"),
        }
    }
}
