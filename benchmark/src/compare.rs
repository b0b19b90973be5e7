//! `sysbench --compare A.json B.json`: for every end-to-end metric on every
//! workload, how far B is from A in the worse direction, against the
//! metric's bound.
//!
//! A file is what `--all --out` writes; it may hold several timed runs of a
//! workload (concatenate the `runs` of repeated invocations), in which case
//! the medians are compared and the quartile spread of each side is shown.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::util::{median, quantile};
use sr::serve::Json;
use std::path::Path;

/// Distance between the quartiles as a share of the median.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 || median(values) == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values).abs()
}

struct Judgement {
    /// Share of A's median by which B's median is worse; negative = better.
    worse_by: f64,
    /// The wider of the two sides' spreads.
    spread: f64,
    verdict: &'static str,
}

/// B's runs of one metric against A's (neither empty, A's median not 0).
fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Judgement {
    let lower = better == "lower";
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower { mb - ma } else { ma - mb } / ma;
    let spread = spread(a).max(spread(b));
    let all_b_better = b
        .iter()
        .all(|&vb| a.iter().all(|&va| if lower { vb < va } else { vb > va }));
    let verdict = if worse_by > bound {
        "worse"
    } else if spread > bound && !all_b_better {
        // The runs of one side disagree by more than the bound, so a
        // difference within it cannot be told from noise.
        "unresolved"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    };
    Judgement {
        worse_by,
        spread,
        verdict,
    }
}

fn timed_runs<'a>(doc: &'a Json, workload: &str) -> Vec<&'a Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(false)
        })
        .collect()
}

/// Values of one metric over the timed runs of one workload.
fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_num())
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    sr::serve::parse(&text).map_err(|e| format!("{}: {}", path.display(), e.message))
}

/// Prints the table; `Ok(false)` when anything is `worse`, `unresolved`, or
/// a deterministic field differs.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<12} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound", "spread"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        let (ra, rb) = (timed_runs(&a, w.name), timed_runs(&b, w.name));
        for m in &END_TO_END {
            let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
            if va.is_empty() || vb.is_empty() || median(&va) == 0.0 {
                println!(
                    "{:<12} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8}  unresolved (missing)",
                    w.name, m.name, "-", "-", "-", m.bound, "-"
                );
                clean = false;
                continue;
            }
            let j = judge(&va, &vb, m.better, m.bound);
            clean &= matches!(j.verdict, "same" | "better");
            println!(
                "{:<12} {:<15} {:>14.6} {:>14.6} {:>+8.2}% {:>7} {:>7.2}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                j.worse_by * 100.0,
                m.bound,
                j.spread * 100.0,
                j.verdict
            );
        }
        // What must be bit-equal between two runs of one seed.
        for field in ["fingerprint", "outcomes"] {
            let of = |runs: &[&Json]| -> Vec<String> {
                runs.iter()
                    .filter_map(|r| r.get(field)?.as_str().map(str::to_string))
                    .collect()
            };
            let (fa, fb) = (of(&ra), of(&rb));
            let same_seed =
                a.get("seed").and_then(Json::as_num) == b.get("seed").and_then(Json::as_num);
            if same_seed && fa.iter().chain(&fb).any(|v| Some(v) != fa.first()) {
                println!("{:<12} {field}: DIFFERS between runs of one seed", w.name);
                clean = false;
            }
        }
        let failed: f64 = ra
            .iter()
            .chain(&rb)
            .filter_map(|r| r.get("failed")?.as_num())
            .sum();
        if failed > 0.0 {
            println!("{:<12} failed checks: {failed}", w.name);
            clean = false;
        }
    }
    println!(
        "{}",
        if clean {
            "no metric is worse or unresolved"
        } else {
            "NOT CLEAN: see above"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::judge;

    #[test]
    fn within_the_bound_is_same_in_either_direction() {
        assert_eq!(judge(&[100.0], &[109.0], "lower", 0.10).verdict, "same");
        assert_eq!(judge(&[100.0], &[91.0], "lower", 0.10).verdict, "same");
        assert_eq!(judge(&[100.0], &[91.0], "higher", 0.10).verdict, "same");
    }

    #[test]
    fn beyond_the_bound_follows_the_metric_direction() {
        assert_eq!(judge(&[100.0], &[111.0], "lower", 0.10).verdict, "worse");
        assert_eq!(judge(&[100.0], &[111.0], "higher", 0.10).verdict, "better");
        assert_eq!(judge(&[100.0], &[89.0], "higher", 0.10).verdict, "worse");
        assert_eq!(judge(&[100.0], &[89.0], "lower", 0.10).verdict, "better");
        let j = judge(&[100.0], &[89.0], "higher", 0.10);
        assert!((j.worse_by - 0.11).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // Quartiles 85 and 115 around a median of 100: spread 0.30.
        let a = [70.0, 100.0, 130.0];
        let j = judge(&a, &[95.0, 100.0, 105.0], "lower", 0.10);
        assert!((j.spread - 0.30).abs() < 1e-12);
        assert_eq!(j.verdict, "unresolved");
        // ... unless every run of B beats every run of A,
        assert_eq!(judge(&a, &[60.0, 65.0], "lower", 0.10).verdict, "better");
        // ... and a median beyond the bound is worse whatever the spread.
        assert_eq!(judge(&a, &[140.0, 150.0], "lower", 0.10).verdict, "worse");
    }

    #[test]
    fn a_lost_point_exceeds_the_feasible_share_bound() {
        let bound = crate::metrics::END_TO_END
            .iter()
            .find(|m| m.name == "feasible_share")
            .expect("registered")
            .bound;
        // One op of repair64's 1,539 per round, the finest share any
        // workload has.
        let (a, b) = (1369.0 / 1539.0, 1368.0 / 1539.0);
        assert_eq!(judge(&[a], &[b], "higher", bound).verdict, "worse");
        assert_eq!(judge(&[a], &[a], "higher", bound).verdict, "same");
    }
}
