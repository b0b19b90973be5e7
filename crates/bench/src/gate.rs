//! The CI metrics gate: golden `metrics_json` baselines with declared drift
//! tolerances.
//!
//! The compile pipeline's counters (LP pivots, reroutes, subset sizes …) and
//! the WR/SR output-interval statistics are deterministic for a fixed
//! workload, so CI can pin them: [`flatten_json`] turns a metrics document
//! into `path → number` pairs, and [`compare_metrics`] diffs a current
//! document against a checked-in baseline — **exactly** for counter-like
//! paths, within [`FLOAT_TOL`] for float-valued statistics (which pass
//! through summary arithmetic). Structural drift (a path appearing or
//! disappearing) always fails. The `metrics_gate` binary wires this to
//! `results/metrics_baseline_*.json`.

use std::collections::BTreeMap;

use sr::obs::json::{self, Json, JsonError};

/// Absolute tolerance for float-valued metrics (µs quantities and summary
/// statistics). Counters compare exactly regardless.
pub const FLOAT_TOL: f64 = 1e-6;

/// Flattens a JSON document into dot-separated `path → numeric leaf` pairs:
/// `{"counters":{"lp.pivots":3}}` → `{".counters.lp.pivots": 3.0}`.
/// Non-numeric leaves (strings, booleans, nulls) are ignored — the gate
/// pins numbers only. Array elements get their index as a path component.
///
/// # Errors
///
/// The reader's [`JsonError`] (message and byte offset) on malformed or
/// truncated input — a baseline that does not parse is a gate failure the
/// caller reports, not a panic.
pub fn flatten_json(text: &str) -> Result<BTreeMap<String, f64>, JsonError> {
    fn walk(v: &Json, path: String, out: &mut BTreeMap<String, f64>) {
        match v {
            Json::Num(n) => {
                out.insert(path, *n);
            }
            Json::Obj(m) => m
                .iter()
                .for_each(|(k, v)| walk(v, format!("{path}.{k}"), out)),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .for_each(|(i, v)| walk(v, format!("{path}.{i}"), out)),
            Json::Null | Json::Bool(_) | Json::Str(_) => {}
        }
    }
    let mut out = BTreeMap::new();
    walk(&json::parse(text.as_bytes())?, String::new(), &mut out);
    Ok(out)
}

/// One gate violation, human-readable.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Dot-separated path of the offending metric.
    pub path: String,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.reason)
    }
}

/// Returns `true` when `path` must match exactly: counters, and any
/// integer-valued statistic (counts of outputs, stalls, events).
fn is_exact(path: &str) -> bool {
    path.contains(".counters.")
        || path.ends_with(".count")
        || path.ends_with("outputs")
        || path.ends_with("stalls")
}

/// Diffs `current` against `baseline` under the declared tolerances and
/// returns every violation (empty = gate passes). Counter-like paths
/// (`.counters.` components, `.count`/`outputs`/`stalls` suffixes) must
/// match exactly; everything else within `float_tol`;
/// paths present on one side only are violations.
pub fn compare_metrics(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    float_tol: f64,
) -> Vec<Violation> {
    let mut v = Vec::new();
    for (path, &want) in baseline {
        match current.get(path) {
            None => v.push(Violation {
                path: path.clone(),
                reason: "missing from current metrics".into(),
            }),
            Some(&got) => {
                let ok = if is_exact(path) {
                    got == want
                } else {
                    (got - want).abs() <= float_tol
                };
                if !ok {
                    v.push(Violation {
                        path: path.clone(),
                        reason: format!(
                            "baseline {want} vs current {got} ({})",
                            if is_exact(path) {
                                "exact match required".to_string()
                            } else {
                                format!("tolerance {float_tol}")
                            }
                        ),
                    });
                }
            }
        }
    }
    for path in current.keys() {
        if !baseline.contains_key(path) {
            v.push(Violation {
                path: path.clone(),
                reason: "not in baseline (regenerate with --write)".into(),
            });
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
      "counters": {"lp.pivots": 42, "reroutes": 3},
      "oi": {"wr": {"max_deviation_us": 109.18, "outputs": 120}},
      "note": "ignored",
      "flag": true,
      "nothing": null
    }"#;

    #[test]
    fn flatten_reaches_every_numeric_leaf() {
        let m = flatten_json(DOC).unwrap();
        assert_eq!(m[".counters.lp.pivots"], 42.0);
        assert_eq!(m[".counters.reroutes"], 3.0);
        assert_eq!(m[".oi.wr.max_deviation_us"], 109.18);
        assert_eq!(m[".oi.wr.outputs"], 120.0);
        assert_eq!(m.len(), 4, "non-numeric leaves must be ignored: {m:?}");
    }

    #[test]
    fn flatten_handles_arrays_and_empties() {
        let m = flatten_json(r#"{"a": [1, 2.5], "b": {}, "c": []}"#).unwrap();
        assert_eq!(m[".a.0"], 1.0);
        assert_eq!(m[".a.1"], 2.5);
        assert_eq!(m.len(), 2);
    }

    /// A damaged baseline is an `Err` with an offset inside the input,
    /// wherever the damage is.
    #[test]
    fn truncated_baselines_are_errors_at_every_offset() {
        let baseline = include_str!("../../../results/metrics_baseline_torus4x4_dvb.json");
        for doc in [DOC, baseline.trim_end()] {
            assert!(flatten_json(doc).is_ok());
            for cut in 0..doc.len() {
                let e = flatten_json(&doc[..cut]).expect_err("a strict prefix is no document");
                assert!(e.offset <= cut, "{e} past a {cut}-byte input");
            }
        }
    }

    #[test]
    fn identical_documents_pass() {
        let m = flatten_json(DOC).unwrap();
        assert!(compare_metrics(&m, &m, FLOAT_TOL).is_empty());
    }

    #[test]
    fn counter_drift_of_one_fails() {
        let base = flatten_json(DOC).unwrap();
        let mut cur = base.clone();
        *cur.get_mut(".counters.lp.pivots").unwrap() += 1.0;
        let v = compare_metrics(&base, &cur, FLOAT_TOL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].path, ".counters.lp.pivots");
        assert!(v[0].reason.contains("exact"), "{}", v[0]);
    }

    #[test]
    fn float_drift_respects_tolerance() {
        let base = flatten_json(DOC).unwrap();
        let mut cur = base.clone();
        *cur.get_mut(".oi.wr.max_deviation_us").unwrap() += FLOAT_TOL / 2.0;
        assert!(compare_metrics(&base, &cur, FLOAT_TOL).is_empty());
        *cur.get_mut(".oi.wr.max_deviation_us").unwrap() += 1e-3;
        let v = compare_metrics(&base, &cur, FLOAT_TOL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].reason.contains("tolerance"), "{}", v[0]);
    }

    #[test]
    fn integer_statistics_are_exact_even_outside_counters() {
        let base = flatten_json(DOC).unwrap();
        let mut cur = base.clone();
        *cur.get_mut(".oi.wr.outputs").unwrap() -= 1.0;
        let v = compare_metrics(&base, &cur, FLOAT_TOL);
        assert_eq!(v.len(), 1);
        assert!(v[0].reason.contains("exact"), "{}", v[0]);
    }

    #[test]
    fn structural_drift_fails_both_ways() {
        let base = flatten_json(DOC).unwrap();
        let mut cur = base.clone();
        cur.remove(".counters.reroutes");
        cur.insert(".counters.brand_new".into(), 1.0);
        let v = compare_metrics(&base, &cur, FLOAT_TOL);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.reason.contains("missing")));
        assert!(v.iter().any(|x| x.reason.contains("not in baseline")));
    }
}
