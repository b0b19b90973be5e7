//! Decision-level diagnostics: *why* a compile failed (or where a feasible
//! schedule is tight), as structured data instead of a bare error.
//!
//! The compile pipeline rejects a load with a single [`CompileError`], which
//! names the failing stage but discards everything the solvers learned on
//! the way down: which links saturated, which intervals were contested,
//! which subset of messages is mutually incompatible, and how far down the
//! `(seed, capacity-scale)` ladder each candidate got. This module keeps
//! that evidence:
//!
//! * [`Diagnosis`] — the full record of one diagnosed compile: one
//!   [`CandidateRecord`] per `(seed, scale)` candidate the deterministic
//!   walk consumed, an optional [`SubsetDiagnosis`] when a candidate died
//!   of allocation infeasibility, and the top [`Bottleneck`] rows when the
//!   compile succeeded anyway.
//! * [`diagnose_infeasible_subset`] — re-builds the failing subset's
//!   allocation LP (identical row layout) and runs
//!   [`sr_lp::Problem::solve_diagnosed`]: the phase-1 Farkas certificate's
//!   support names the **blocking messages** (equality rows) and the
//!   **saturated (link, interval) capacity rows** behind the verdict. The
//!   flow engine accepts and rejects exactly the same instances as the
//!   simplex engine, so its failures are diagnosed through the same LP.
//!
//! Diagnostics run only on the explain path ([`crate::compile_diagnosed`])
//! — a plain [`crate::compile`] never builds them, so the hot path pays
//! nothing.

use std::fmt::Write as _;

use sr_lp::DiagnosedOutcome;
use sr_tfg::{MessageId, TaskFlowGraph, TimeBounds};
use sr_topology::{LinkId, Topology};

use crate::allocation_lp::build_subset_lp;
use crate::{
    ActivityMatrix, BoundFloor, Intervals, PathAssignment, PeakCertificate, Schedule, EPS,
};

/// How one consumed `(seed, scale)` candidate of the compile walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// The candidate produced the winning schedule.
    Scheduled,
    /// The seed's path assignment exceeded the utilization gate; its
    /// capacity-scale ladder was never entered.
    UtilizationExceeded,
    /// Allocation succeeded but some interval could not be packed into
    /// link-feasible sets; the walk descended to the next capacity rung.
    IntervalUnschedulable,
    /// The message–interval allocation LP (or flow network) was infeasible
    /// at this rung — terminal for the seed.
    AllocInfeasible,
    /// A non-schedulability error (solver trouble) aborted the walk.
    HardError,
    /// Compilation failed before any candidate ran (bad time bounds,
    /// overloaded node, arity mismatch).
    PrecheckFailed,
}

impl CandidateOutcome {
    /// Stable lowercase label, used by the text rendering.
    pub fn label(self) -> &'static str {
        match self {
            CandidateOutcome::Scheduled => "scheduled",
            CandidateOutcome::UtilizationExceeded => "utilization exceeded",
            CandidateOutcome::IntervalUnschedulable => "interval unschedulable",
            CandidateOutcome::AllocInfeasible => "allocation infeasible",
            CandidateOutcome::HardError => "hard error",
            CandidateOutcome::PrecheckFailed => "precheck failed",
        }
    }
}

/// One consumed candidate of the `(seed, scale)` walk: at which capacity
/// rung it died (or won), and why.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRecord {
    /// Path-assignment retry index (seed-major walk order).
    pub seed: usize,
    /// Nominal capacity scale of the rung; `None` for per-seed failures
    /// that precede the ladder (utilization gate, prechecks).
    pub scale: Option<f64>,
    /// How the candidate ended.
    pub outcome: CandidateOutcome,
    /// Human-readable detail (the error's display form, or the winning
    /// candidate's rank).
    pub detail: String,
}

/// One saturated capacity row of an infeasible subset LP: constraint (4)
/// for `(link, interval)`, carrying nonzero Farkas-certificate weight.
#[derive(Debug, Clone)]
pub struct SaturatedRow {
    /// The saturated link.
    pub link: LinkId,
    /// The contested interval index.
    pub interval: usize,
    /// The capacity the LP offered, µs (already scaled by the failing
    /// rung's effective capacity scale).
    pub capacity: f64,
    /// The row's certificate weight (magnitude orders rows by how hard
    /// they bind).
    pub dual: f64,
    /// Subset members routed over the link and active in the interval.
    pub contenders: Vec<MessageId>,
}

/// Structured explanation of one infeasible message–interval allocation
/// subset, derived from the phase-1 Farkas certificate of the subset LP.
#[derive(Debug, Clone)]
pub struct SubsetDiagnosis {
    /// Path-assignment seed whose candidate died here.
    pub seed: usize,
    /// Effective capacity scale the LP ran at (nominal rung scale times
    /// `1 − spare_capacity`).
    pub capacity_scale: f64,
    /// The failing maximal related subset.
    pub subset: Vec<MessageId>,
    /// Members whose demand rows (constraint (3)) carry certificate
    /// weight — the blocking message subset.
    pub blocking: Vec<MessageId>,
    /// Saturated capacity rows in ascending (link, interval) order.
    pub saturated: Vec<SaturatedRow>,
}

/// One tight capacity row of a *feasible* schedule: how close
/// `(link, interval)` came to its allocation bound.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    /// The link.
    pub link: LinkId,
    /// The interval index.
    pub interval: usize,
    /// Time allocated across all messages on the link in the interval, µs.
    pub used: f64,
    /// The capacity the winning rung offered, µs.
    pub capacity: f64,
    /// Messages contributing allocation to the row.
    pub messages: Vec<MessageId>,
}

/// Everything [`crate::compile_diagnosed`] learned about one compile.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The input period `τ_in`, µs.
    pub period: f64,
    /// Consumed candidates in deterministic walk order.
    pub candidates: Vec<CandidateRecord>,
    /// Set when a seed died at the utilization gate *and* the lower bound
    /// on peak utilization is itself above 1: the seed, and the link and
    /// messages proving that no path assignment over the enumerated
    /// alternatives fits — so reseeding cannot help. Unlike `subset`'s
    /// Farkas certificate this says nothing about allocation; the load
    /// fails before it.
    pub path_certificate: Option<(usize, PeakCertificate)>,
    /// Allocation-infeasibility explanation for the first candidate that
    /// died of it (the walk's reported subset).
    pub subset: Option<SubsetDiagnosis>,
    /// On success: the tightest capacity rows of the winning schedule,
    /// most-utilized first.
    pub bottlenecks: Vec<Bottleneck>,
}

impl Diagnosis {
    pub(crate) fn new(period: f64) -> Self {
        Diagnosis {
            period,
            candidates: Vec::new(),
            path_certificate: None,
            subset: None,
            bottlenecks: Vec::new(),
        }
    }

    /// Whether the diagnosed compile produced a schedule.
    pub fn scheduled(&self) -> bool {
        self.candidates
            .iter()
            .any(|c| c.outcome == CandidateOutcome::Scheduled)
    }

    /// Renders the diagnosis as stable, human-readable text (the `explain`
    /// subcommand's output; structure is golden-tested).
    pub fn render_text(&self, topo: &dyn Topology, tfg: &TaskFlowGraph) -> String {
        let name = |m: MessageId| tfg.message(m).name().to_string();
        let names = |ms: &[MessageId]| ms.iter().map(|&m| name(m)).collect::<Vec<_>>().join(", ");
        let link_label = |l: LinkId| {
            let (a, b) = topo.link_endpoints(l);
            format!("{l} ({a}-{b})")
        };
        let mut out = String::new();
        let _ = writeln!(out, "explain: period {:.3} µs", self.period);
        let verdict = self
            .candidates
            .iter()
            .find(|c| c.outcome == CandidateOutcome::Scheduled)
            .map(|c| format!("scheduled — {}", c.detail))
            .unwrap_or_else(|| {
                self.candidates
                    .last()
                    .map(|c| format!("infeasible — {}", c.detail))
                    .unwrap_or_else(|| "infeasible — no candidate ran".to_string())
            });
        let _ = writeln!(out, "verdict: {verdict}");

        let _ = writeln!(out, "\ncandidate walk (seed-major, scale-minor):");
        for c in &self.candidates {
            let scale = c
                .scale
                .map(|s| format!("scale {s:.3}"))
                .unwrap_or_else(|| "pre-ladder".to_string());
            let _ = writeln!(
                out,
                "  seed {}  {}  {}: {}",
                c.seed,
                scale,
                c.outcome.label(),
                c.detail
            );
        }

        if let Some((seed, c)) = &self.path_certificate {
            let _ = writeln!(
                out,
                "\npath-assignment certificate (seed {seed}): no path assignment over these \
                 alternatives can bring U below 1"
            );
            let what = match c.floor {
                BoundFloor::FixedLink => "cannot be reached by any message that may move",
                BoundFloor::ForcedGroup => "is crossed by every alternative of a group of messages",
                BoundFloor::ForcedSpot => "is crossed by every alternative of no-slack messages",
                BoundFloor::Solo => {
                    "carries a message whose window is shorter than its transmission"
                }
            };
            let place = match c.link {
                Some(l) => format!("link {}", link_label(l)),
                None => "whichever link".to_string(),
            };
            let _ = writeln!(
                out,
                "  {}: U ≥ {:.3} — {place} {what}",
                c.floor.label(),
                c.bound
            );
            let _ = writeln!(
                out,
                "  messages that cannot leave ({}): {}",
                c.messages.len(),
                names(&c.messages)
            );
        }

        if let Some(d) = &self.subset {
            let _ = writeln!(
                out,
                "\nallocation infeasibility (seed {}, effective capacity scale {:.3}):",
                d.seed, d.capacity_scale
            );
            let _ = writeln!(
                out,
                "  subset ({} messages): {}",
                d.subset.len(),
                names(&d.subset)
            );
            let _ = writeln!(out, "  blocking demand rows: {}", names(&d.blocking));
            let _ = writeln!(out, "  saturated links (Farkas certificate support):");
            // Group rows by link so the binding interval set reads as one
            // line per saturated link.
            let mut by_link: Vec<(LinkId, Vec<&SaturatedRow>)> = Vec::new();
            for row in &d.saturated {
                match by_link.last_mut() {
                    Some((l, rows)) if *l == row.link => rows.push(row),
                    _ => by_link.push((row.link, vec![row])),
                }
            }
            for (link, rows) in &by_link {
                let ks: Vec<String> = rows.iter().map(|r| r.interval.to_string()).collect();
                let _ = writeln!(
                    out,
                    "    saturated link {}: binding intervals {{{}}}",
                    link_label(*link),
                    ks.join(", ")
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "      interval {}: capacity {:.3} µs, weight {:.3}, contenders: {}",
                        r.interval,
                        r.capacity,
                        r.dual.abs(),
                        names(&r.contenders)
                    );
                }
            }
        }

        if !self.bottlenecks.is_empty() {
            let _ = writeln!(out, "\nbottlenecks (tightest capacity rows of the winner):");
            for b in &self.bottlenecks {
                let pct = if b.capacity > 0.0 {
                    100.0 * b.used / b.capacity
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  link {} interval {}: {:.1}% of {:.3} µs ({})",
                    link_label(b.link),
                    b.interval,
                    pct,
                    b.capacity,
                    names(&b.messages)
                );
            }
        }
        out
    }
}

/// Re-solves one failing subset's allocation LP with
/// [`sr_lp::Problem::solve_diagnosed`] and maps the Farkas certificate back
/// to schedule objects: equality-row support → blocking messages, capacity-
/// row support → saturated `(link, interval)` pairs with their contenders.
///
/// `capacity_scale` must be the *effective* scale the failing solve used
/// (nominal rung scale times `1 − spare_capacity`); the rebuilt LP is
/// row-for-row identical to the one [`crate::allocate_intervals`] solved
/// (`build_subset_lp` is the single construction site).
///
/// Returns `None` when the subset turns out feasible (not the failing
/// subset, or a solver error) — diagnosis is best-effort by design.
pub fn diagnose_infeasible_subset(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subset: &[MessageId],
    capacity_scale: f64,
) -> Option<SubsetDiagnosis> {
    let built = build_subset_lp(assignment, bounds, activity, subset, |_, k| {
        capacity_scale * intervals.length(k)
    });
    let DiagnosedOutcome::Infeasible(cert) = built.lp.solve_diagnosed(EPS).ok()? else {
        return None;
    };
    let blocking: Vec<MessageId> = subset
        .iter()
        .enumerate()
        .filter(|&(mi, _)| cert.binding[mi])
        .map(|(_, &m)| m)
        .collect();
    let mut saturated = Vec::new();
    for (ri, &(link, k)) in built.cap_rows.iter().enumerate() {
        let row = subset.len() + ri;
        if !cert.binding[row] {
            continue;
        }
        let contenders: Vec<MessageId> = subset
            .iter()
            .enumerate()
            .filter(|&(mi, &m)| {
                built.actives[mi].contains(&k) && assignment.links(m).contains(&link)
            })
            .map(|(_, &m)| m)
            .collect();
        saturated.push(SaturatedRow {
            link,
            interval: k,
            capacity: capacity_scale * intervals.length(k),
            dual: cert.duals[row],
            contenders,
        });
    }
    Some(SubsetDiagnosis {
        seed: 0,
        capacity_scale,
        subset: subset.to_vec(),
        blocking,
        saturated,
    })
}

/// The tightest `(link, interval)` capacity rows of a feasible schedule:
/// per-row utilization of the allocation bound the winning rung ran under
/// (`capacity_scale · (1 − spare) · |A_k|`), most-utilized first, ties
/// broken by ascending (link, interval).
pub fn bottlenecks(sched: &Schedule, spare_capacity: f64, top: usize) -> Vec<Bottleneck> {
    let intervals = sched.intervals();
    let alloc = sched.allocation();
    let mut used: std::collections::BTreeMap<LinkId, Vec<f64>> = std::collections::BTreeMap::new();
    for i in 0..alloc.num_messages() {
        let m = MessageId(i);
        for &l in sched.assignment().links(m) {
            let row = used.entry(l).or_insert_with(|| vec![0.0; intervals.len()]);
            for (k, u) in row.iter_mut().enumerate() {
                *u += alloc.allocated(m, k);
            }
        }
    }
    let mut rows: Vec<Bottleneck> = Vec::new();
    for (&link, row) in &used {
        for (k, &u) in row.iter().enumerate() {
            if u <= EPS {
                continue;
            }
            let capacity = sched.capacity_scale() * (1.0 - spare_capacity) * intervals.length(k);
            let messages: Vec<MessageId> = (0..alloc.num_messages())
                .map(MessageId)
                .filter(|&m| {
                    alloc.allocated(m, k) > EPS && sched.assignment().links(m).contains(&link)
                })
                .collect();
            rows.push(Bottleneck {
                link,
                interval: k,
                used: u,
                capacity,
                messages,
            });
        }
    }
    rows.sort_by(|a, b| {
        let ua = if a.capacity > 0.0 {
            a.used / a.capacity
        } else {
            0.0
        };
        let ub = if b.capacity > 0.0 {
            b.used / b.capacity
        } else {
            0.0
        };
        ub.total_cmp(&ua)
            .then(a.link.cmp(&b.link))
            .then(a.interval.cmp(&b.interval))
    });
    rows.truncate(top);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, compile_diagnosed, CompileConfig, CompileError};
    use sr_tfg::Timing;

    fn dvb_torus() -> (
        sr_topology::Torus,
        TaskFlowGraph,
        sr_mapping::Allocation,
        Timing,
        f64,
    ) {
        let topo = sr_topology::Torus::new(&[4, 4]).unwrap();
        let tfg = sr_tfg::dvb_uniform(4);
        let timing = Timing::calibrated_dvb(64.0);
        let alloc = sr_mapping::random_distinct(&tfg, &topo, 7).unwrap();
        let period = timing.longest_task(&tfg) * 2.0;
        (topo, tfg, alloc, timing, period)
    }

    /// The acceptance demo: DVB on a 4×4 torus at B=64 with the capacity
    /// scale pinned to 0.5 is allocation-infeasible, and the diagnosis
    /// names at least one saturated link with its binding interval set.
    #[test]
    fn infeasible_dvb_names_saturated_link_and_binding_intervals() {
        let (topo, tfg, alloc, timing, period) = dvb_torus();
        let config = CompileConfig {
            feedback_scales: vec![0.5],
            parallelism: 1,
            ..Default::default()
        };
        let (res, diag) =
            compile_diagnosed(&topo, &tfg, &alloc, &timing, period, &config, &sr_obs::NOOP);
        let err = res.expect_err("pinned half-capacity DVB load is infeasible");
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
        assert!(!diag.scheduled());
        assert!(!diag.candidates.is_empty());
        assert!(diag
            .candidates
            .iter()
            .all(|c| c.outcome == CandidateOutcome::AllocInfeasible));

        let d = diag.subset.as_ref().expect("subset diagnosis present");
        assert_eq!(d.seed, 0);
        assert!((d.capacity_scale - 0.5).abs() < 1e-12);
        assert!(!d.blocking.is_empty(), "blocking demand rows named");
        assert!(!d.saturated.is_empty(), "at least one saturated link");
        for row in &d.saturated {
            assert!(!row.contenders.is_empty());
            assert!(row.capacity > 0.0);
            assert!(row.dual.abs() > 0.0);
            // Contenders are subset members by construction.
            for m in &row.contenders {
                assert!(d.subset.contains(m));
            }
        }
        for m in &d.blocking {
            assert!(d.subset.contains(m));
        }

        let text = diag.render_text(&topo, &tfg);
        assert!(text.contains("verdict: infeasible"));
        assert!(text.contains("saturated link "));
        assert!(text.contains("binding intervals {"));
        assert!(text.contains("blocking demand rows:"));
    }

    /// On a feasible load the diagnosis records the winner and the tight
    /// capacity rows, the returned schedule is identical to [`compile`]'s,
    /// and the candidate records are parallelism-invariant.
    #[test]
    fn feasible_dvb_reports_winner_and_bottlenecks() {
        let (topo, tfg, alloc, timing, period) = dvb_torus();
        let config = CompileConfig {
            parallelism: 1,
            ..Default::default()
        };
        let (res, diag) =
            compile_diagnosed(&topo, &tfg, &alloc, &timing, period, &config, &sr_obs::NOOP);
        let sched = res.expect("full-capacity DVB load compiles");
        assert!(diag.scheduled());
        assert!(!diag.bottlenecks.is_empty());
        // Bottlenecks are most-utilized-first and within the bound.
        let util = |b: &Bottleneck| b.used / b.capacity;
        for pair in diag.bottlenecks.windows(2) {
            assert!(util(&pair[0]) >= util(&pair[1]) - 1e-9);
        }
        for b in &diag.bottlenecks {
            assert!(b.used <= b.capacity + 1e-6);
            assert!(!b.messages.is_empty());
        }
        let text = diag.render_text(&topo, &tfg);
        assert!(text.contains("verdict: scheduled"));
        assert!(text.contains("bottlenecks (tightest capacity rows"));

        // Diagnosis only observes: same schedule as a plain compile, and
        // the records don't depend on the thread count.
        let plain = compile(&topo, &tfg, &alloc, &timing, period, &config).unwrap();
        assert_eq!(plain.capacity_scale(), sched.capacity_scale());
        assert_eq!(plain.assignment(), sched.assignment());
        let par = CompileConfig {
            parallelism: 4,
            ..config
        };
        let (_, diag_par) =
            compile_diagnosed(&topo, &tfg, &alloc, &timing, period, &par, &sr_obs::NOOP);
        assert_eq!(diag.candidates, diag_par.candidates);
    }

    /// A pre-walk rejection still yields a non-empty diagnosis.
    #[test]
    fn precheck_failure_yields_synthetic_record() {
        let (topo, tfg, alloc, timing, _) = dvb_torus();
        let config = CompileConfig {
            parallelism: 1,
            ..Default::default()
        };
        // Period shorter than the longest task: time-bound assignment fails.
        let (res, diag) =
            compile_diagnosed(&topo, &tfg, &alloc, &timing, 1.0, &config, &sr_obs::NOOP);
        assert!(res.is_err());
        assert_eq!(diag.candidates.len(), 1);
        assert_eq!(diag.candidates[0].outcome, CandidateOutcome::PrecheckFailed);
        let text = diag.render_text(&topo, &tfg);
        assert!(text.contains("precheck failed"));
    }
}
