use std::collections::{BTreeMap, BTreeSet};

use sr_core::{
    admit_best_effort, analyze_damage, assign_paths_partial, reallocate_pinned, AllocBasisCache,
    AllocEngine, AssignPathsConfig, BestEffortGrant, DamageReport, FlowWorkspace,
    ReallocAttemptOutcome, Schedule, EPS,
};
use sr_obs::{span_with, Recorder, NOOP};
use sr_tfg::{MessageId, TaskFlowGraph, Timing};
use sr_topology::{FaultSet, MaskedTopology, Path, Topology};

/// Tuning knobs for incremental schedule repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Path-assignment knobs for the partial `AssignPaths` run over the
    /// masked topology.
    pub assign_paths: AssignPathsConfig,
    /// Capacity scales tried for the pinned re-allocation, analogous to
    /// [`sr_core::CompileConfig::feedback_scales`]: when the re-routed
    /// traffic cannot be packed into the surviving idle time, a tighter
    /// scale spreads it across more intervals.
    pub feedback_scales: Vec<f64>,
    /// Per-message criticality (`critical[m]`): critical messages must stay
    /// on the real-time schedule for a repair to count, non-critical ones
    /// may be demoted to best-effort when full repair fails. `None` (the
    /// default) treats every message as critical.
    pub critical: Option<Vec<bool>>,
    /// Shortest-path cap for best-effort admission of demoted messages.
    pub best_effort_path_cap: usize,
    /// Backend for the pinned re-allocation rows, analogous to
    /// [`sr_core::CompileConfig::alloc_engine`]: the simplex LP (default,
    /// bit-identical to the historical repair), or the min-cost-flow
    /// kernel for large fabrics.
    pub alloc_engine: AllocEngine,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            assign_paths: AssignPathsConfig::default(),
            feedback_scales: vec![1.0, 0.9, 0.8],
            critical: None,
            best_effort_path_cap: 16,
            alloc_engine: AllocEngine::Simplex,
        }
    }
}

/// How a repair attempt ended, from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairVerdict {
    /// The fault set touches no scheduled path; the schedule stands as-is.
    Unchanged,
    /// Every affected message was re-routed onto surviving resources; no
    /// message was demoted or dropped.
    Repaired,
    /// A valid schedule was produced, but some messages were demoted to
    /// best-effort or dropped with a failed endpoint.
    Degraded,
    /// No valid schedule exists within the degradation ladder: a critical
    /// message is unroutable, or the surviving capacity cannot carry the
    /// critical traffic.
    Infeasible,
}

impl std::fmt::Display for RepairVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RepairVerdict::Unchanged => "unchanged",
            RepairVerdict::Repaired => "repaired",
            RepairVerdict::Degraded => "degraded",
            RepairVerdict::Infeasible => "infeasible",
        })
    }
}

/// How one step of the diagnosed repair ladder ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStepOutcome {
    /// The rung produced a valid repaired schedule at this scale.
    Succeeded,
    /// The partial re-route's peak utilization exceeded link capacity; the
    /// rung's scale ladder was never entered.
    UtilizationExceeded,
    /// The pinned re-allocation was infeasible at this scale.
    AllocInfeasible,
    /// Allocation succeeded but the re-routed traffic did not fit into the
    /// surviving idle time at this scale.
    PackFailed,
    /// A critical message is unroutable (dead endpoint or disconnected);
    /// the ladder aborted before any rung ran.
    CriticalUnroutable,
}

impl RepairStepOutcome {
    /// Stable lowercase label, used by the text rendering.
    pub fn label(self) -> &'static str {
        match self {
            RepairStepOutcome::Succeeded => "succeeded",
            RepairStepOutcome::UtilizationExceeded => "utilization exceeded",
            RepairStepOutcome::AllocInfeasible => "allocation infeasible",
            RepairStepOutcome::PackFailed => "idle-time packing failed",
            RepairStepOutcome::CriticalUnroutable => "critical message unroutable",
        }
    }
}

/// One consumed step of the diagnosed repair ladder: which rung, at which
/// capacity scale, and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairStep {
    /// Degradation-ladder rung: 1 = full re-route, 2 = shed non-critical
    /// messages to best-effort; 0 for pre-ladder aborts.
    pub rung: usize,
    /// Capacity scale of the pinned re-allocation attempt; `None` for
    /// per-rung failures that precede the scale ladder.
    pub scale: Option<f64>,
    /// How the step ended.
    pub outcome: RepairStepOutcome,
    /// Human-readable detail (peak utilization, failing subset size, …).
    pub detail: String,
}

/// Everything [`repair_diagnosed`] learned about one repair attempt: the
/// degradation ladder's steps in walk order, ending with the verdict.
#[derive(Debug, Clone)]
pub struct RepairDiagnosis {
    /// Consumed ladder steps in order (empty for
    /// [`RepairVerdict::Unchanged`]).
    pub steps: Vec<RepairStep>,
    /// The final verdict, mirrored from the [`RepairOutcome`].
    pub verdict: RepairVerdict,
}

impl RepairDiagnosis {
    /// Renders the diagnosis as stable, human-readable text (appended to
    /// the CLI's `faults --repair` output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "repair ladder (verdict: {}):", self.verdict);
        if self.steps.is_empty() {
            let _ = writeln!(out, "  no rung ran (fault set touches no scheduled path)");
        }
        for s in &self.steps {
            let rung = match s.rung {
                1 => "rung 1 (full re-route)".to_string(),
                2 => "rung 2 (shed non-critical)".to_string(),
                r => format!("rung {r}"),
            };
            let scale = s
                .scale
                .map(|v| format!("scale {v:.3}"))
                .unwrap_or_else(|| "pre-ladder".to_string());
            let _ = writeln!(
                out,
                "  {rung}  {scale}  {}: {}",
                s.outcome.label(),
                s.detail
            );
        }
        out
    }
}

/// The result of [`repair`].
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// How the degradation ladder ended.
    pub verdict: RepairVerdict,
    /// The repaired schedule (`None` only for
    /// [`RepairVerdict::Infeasible`]). Check it with
    /// [`sr_core::verify_with_faults`].
    pub schedule: Option<Schedule>,
    /// The damage partition the repair started from.
    pub report: DamageReport,
    /// Messages re-routed onto surviving paths.
    pub rerouted: Vec<MessageId>,
    /// Messages demoted off the real-time schedule, with the best-effort
    /// grant found for each (`None` when the repaired schedule has no idle
    /// window wide enough this frame).
    pub demoted: Vec<(MessageId, Option<BestEffortGrant>)>,
    /// Messages dropped entirely: an endpoint failed, or no surviving route
    /// exists between their endpoints.
    pub dropped: Vec<MessageId>,
}

/// Incrementally repairs a compiled schedule after `faults`, touching only
/// affected messages.
///
/// The pipeline: damage analysis → partial `AssignPaths` over the masked
/// topology (unaffected paths frozen) → pinned message–interval
/// re-allocation (unaffected rows bit-identical, surviving capacity
/// reduced by their usage) → idle-time packing of the re-routed traffic
/// (retained slices never move) → Ω rebuild via [`Schedule::patched`].
/// When full repair fails, the degradation ladder demotes non-critical
/// messages to best-effort and retries with the critical subset only.
///
/// `topo` is the healthy topology the schedule was compiled for.
///
/// # Panics
///
/// Panics if [`RepairConfig::critical`] is set with the wrong length, or
/// if `schedule` does not belong to `tfg`.
pub fn repair(
    schedule: &Schedule,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    timing: &Timing,
    faults: &FaultSet,
    config: &RepairConfig,
) -> RepairOutcome {
    repair_with_recorder(schedule, topo, tfg, timing, faults, config, &NOOP)
}

/// [`repair`] with an [`sr_obs::Recorder`] observing the attempt: a
/// `repair` span annotated with the damage size, plus counters for the
/// partition (`repair.affected`, `repair.lost`, `repair.unreachable`), the
/// resolution (`repair.rerouted`, `repair.demoted`, `repair.dropped`), and
/// the outcome (`repair.outcome.*`).
pub fn repair_with_recorder(
    schedule: &Schedule,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    timing: &Timing,
    faults: &FaultSet,
    config: &RepairConfig,
    rec: &dyn Recorder,
) -> RepairOutcome {
    repair_inner(schedule, topo, tfg, timing, faults, config, rec, None)
}

/// [`repair_with_recorder`] plus a [`RepairDiagnosis`]: the same
/// degradation ladder, additionally recording every consumed step — which
/// rung ran, at which capacity scale each pinned re-allocation died
/// (utilization gate, infeasible allocation, or failed idle-time packing)
/// and which step finally succeeded. The outcome returned is **identical**
/// to [`repair`]'s for the same inputs; diagnosis only observes the walk.
pub fn repair_diagnosed(
    schedule: &Schedule,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    timing: &Timing,
    faults: &FaultSet,
    config: &RepairConfig,
    rec: &dyn Recorder,
) -> (RepairOutcome, RepairDiagnosis) {
    let mut diag = RepairDiagnosis {
        steps: Vec::new(),
        verdict: RepairVerdict::Unchanged,
    };
    let outcome = repair_inner(
        schedule,
        topo,
        tfg,
        timing,
        faults,
        config,
        rec,
        Some(&mut diag),
    );
    diag.verdict = outcome.verdict;
    rec.add("diag.repair_steps", diag.steps.len() as u64);
    (outcome, diag)
}

#[allow(clippy::too_many_arguments)]
fn repair_inner(
    schedule: &Schedule,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    timing: &Timing,
    faults: &FaultSet,
    config: &RepairConfig,
    rec: &dyn Recorder,
    mut diag: Option<&mut RepairDiagnosis>,
) -> RepairOutcome {
    assert_eq!(
        schedule.assignment().len(),
        tfg.num_messages(),
        "schedule does not belong to this TFG"
    );
    if let Some(critical) = &config.critical {
        assert_eq!(
            critical.len(),
            tfg.num_messages(),
            "criticality vector does not cover every message"
        );
    }
    let span = span_with(rec, "repair", || faults.to_string());
    let report = analyze_damage(schedule, faults);
    span.annotate("affected", report.affected.len() as f64);
    rec.add("repair.affected", report.affected.len() as u64);
    rec.add("repair.lost", report.lost.len() as u64);

    if report.is_clean() {
        rec.add("repair.outcome.unchanged", 1);
        return RepairOutcome {
            verdict: RepairVerdict::Unchanged,
            schedule: Some(schedule.clone()),
            report,
            rerouted: Vec::new(),
            demoted: Vec::new(),
            dropped: Vec::new(),
        };
    }

    let masked = MaskedTopology::new(topo, faults.clone());
    let is_critical = |m: MessageId| config.critical.as_ref().is_none_or(|v| v[m.index()]);

    // Messages that cannot be carried at all: endpoints dead, or endpoints
    // disconnected by the mask.
    let unreachable: Vec<MessageId> = report
        .affected
        .iter()
        .copied()
        .filter(|&m| {
            let p = schedule.assignment().path(m);
            !masked.connects(p.source(), p.destination())
        })
        .collect();
    rec.add("repair.unreachable", unreachable.len() as u64);
    let dropped: Vec<MessageId> = {
        let mut v = report.lost.clone();
        v.extend(unreachable.iter().copied());
        v.sort_unstable();
        v
    };
    if dropped.iter().any(|&m| is_critical(m)) {
        rec.add("repair.outcome.infeasible", 1);
        rec.add("repair.dropped", dropped.len() as u64);
        if let Some(d) = diag.as_deref_mut() {
            let victims = dropped.iter().filter(|&&m| is_critical(m)).count();
            d.steps.push(RepairStep {
                rung: 0,
                scale: None,
                outcome: RepairStepOutcome::CriticalUnroutable,
                detail: format!("{victims} critical message(s) lost or unreachable"),
            });
        }
        return RepairOutcome {
            verdict: RepairVerdict::Infeasible,
            schedule: None,
            report,
            rerouted: Vec::new(),
            demoted: Vec::new(),
            dropped,
        };
    }

    let reroutable: Vec<MessageId> = report
        .affected
        .iter()
        .copied()
        .filter(|m| !unreachable.contains(m))
        .collect();

    // Rung 1: re-route every reachable affected message.
    let excluded: BTreeSet<MessageId> = dropped.iter().copied().collect();
    if let Some(repaired) = try_repair(
        schedule,
        &masked,
        &excluded,
        &reroutable,
        config,
        rec,
        1,
        diag.as_deref_mut(),
    ) {
        let verdict = if dropped.is_empty() {
            RepairVerdict::Repaired
        } else {
            RepairVerdict::Degraded
        };
        rec.add(
            match verdict {
                RepairVerdict::Repaired => "repair.outcome.repaired",
                _ => "repair.outcome.degraded",
            },
            1,
        );
        rec.add("repair.rerouted", reroutable.len() as u64);
        rec.add("repair.dropped", dropped.len() as u64);
        return RepairOutcome {
            verdict,
            schedule: Some(repaired),
            report,
            rerouted: reroutable,
            demoted: Vec::new(),
            dropped,
        };
    }

    // Rung 2: shed non-critical affected messages to best-effort and
    // repair the critical rest.
    let (critical_reroute, demotable): (Vec<MessageId>, Vec<MessageId>) =
        reroutable.iter().copied().partition(|&m| is_critical(m));
    if !demotable.is_empty() {
        let mut excluded2 = excluded.clone();
        excluded2.extend(demotable.iter().copied());
        if let Some(repaired) = try_repair(
            schedule,
            &masked,
            &excluded2,
            &critical_reroute,
            config,
            rec,
            2,
            diag,
        ) {
            let demoted: Vec<(MessageId, Option<BestEffortGrant>)> = demotable
                .iter()
                .map(|&m| {
                    let p = schedule.assignment().path(m);
                    let grant = admit_best_effort(
                        &repaired,
                        &masked,
                        timing,
                        p.source(),
                        p.destination(),
                        tfg.message(m).bytes(),
                        config.best_effort_path_cap,
                    );
                    (m, grant)
                })
                .collect();
            rec.add("repair.outcome.degraded", 1);
            rec.add("repair.rerouted", critical_reroute.len() as u64);
            rec.add("repair.demoted", demoted.len() as u64);
            rec.add("repair.dropped", dropped.len() as u64);
            return RepairOutcome {
                verdict: RepairVerdict::Degraded,
                schedule: Some(repaired),
                report,
                rerouted: critical_reroute,
                demoted,
                dropped,
            };
        }
    }

    rec.add("repair.outcome.infeasible", 1);
    RepairOutcome {
        verdict: RepairVerdict::Infeasible,
        schedule: None,
        report,
        rerouted: Vec::new(),
        demoted: Vec::new(),
        dropped,
    }
}

/// One rung of the ladder: re-route `reroute` over the mask with everything
/// else frozen (and `excluded` reset to trivial paths), re-allocate their
/// rows against the pinned capacity, and pack them into the surviving idle
/// time. `None` when no feedback scale yields a packable allocation.
#[allow(clippy::too_many_arguments)]
fn try_repair(
    schedule: &Schedule,
    masked: &MaskedTopology<'_>,
    excluded: &BTreeSet<MessageId>,
    reroute: &[MessageId],
    config: &RepairConfig,
    rec: &dyn Recorder,
    rung: usize,
    mut diag: Option<&mut RepairDiagnosis>,
) -> Option<Schedule> {
    let mut base = schedule.assignment().clone();
    for &m in excluded {
        let at = base.path(m).source();
        base.set_path(m, Path::trivial(at), masked);
    }

    let outcome = assign_paths_partial(
        masked,
        schedule.bounds(),
        schedule.intervals(),
        schedule.activity(),
        &base,
        reroute,
        &config.assign_paths,
    );
    rec.add("repair.assign_paths.restarts", outcome.restarts as u64);
    rec.add("repair.assign_paths.trials", outcome.trials);
    rec.add(
        "repair.assign_paths.link_recomputes",
        outcome.link_recomputes,
    );
    let peak = outcome.utilization.effective_peak();
    if peak > 1.0 + EPS {
        rec.add("repair.utilization_exceeded", 1);
        if let Some(d) = diag.as_deref_mut() {
            d.steps.push(RepairStep {
                rung,
                scale: None,
                outcome: RepairStepOutcome::UtilizationExceeded,
                detail: format!("peak utilization {peak:.3} over the masked topology"),
            });
        }
        return None;
    }

    // The shared ladder ([`sr_core::reallocate_pinned`]) warm-starts each
    // rung from the previous rung's optimal bases. The first rung's cache
    // is empty, keeping it bit-identical to a cold solve — which is what
    // the pinning contract tests observe. Repair has no external traffic,
    // so the busy ledger is empty and the behaviour matches the historical
    // repair-only code exactly.
    let mut cache = AllocBasisCache::new();
    let mut flow_ws = FlowWorkspace::new();
    let mut attempts = Vec::new();
    let repacked = reallocate_pinned(
        schedule,
        &outcome.assignment,
        reroute,
        excluded,
        &BTreeMap::new(),
        &config.feedback_scales,
        config.alloc_engine,
        &mut cache,
        &mut flow_ws,
        "repair",
        rec,
        &mut attempts,
    );
    if let Some(d) = diag {
        for a in &attempts {
            let (outcome, detail) = match &a.outcome {
                ReallocAttemptOutcome::Succeeded => (
                    RepairStepOutcome::Succeeded,
                    format!("{} message(s) re-routed", reroute.len()),
                ),
                ReallocAttemptOutcome::AllocInfeasible(e) => {
                    (RepairStepOutcome::AllocInfeasible, e.to_string())
                }
                ReallocAttemptOutcome::PackFailed => (
                    RepairStepOutcome::PackFailed,
                    "re-routed traffic does not fit the surviving idle time".to_string(),
                ),
            };
            d.steps.push(RepairStep {
                rung,
                scale: Some(a.scale),
                outcome,
                detail,
            });
        }
    }
    repacked.map(|r| schedule.patched(outcome.assignment.clone(), r.allocation, r.segments, masked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_core::{compile, verify_with_faults, CompileConfig};
    use sr_tfg::{generators, Timing};
    use sr_topology::GeneralizedHypercube;

    fn compiled() -> (GeneralizedHypercube, TaskFlowGraph, Timing, Schedule) {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::diamond(3, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            75.0,
            &CompileConfig::default(),
        )
        .expect("diamond compiles");
        (topo, tfg, timing, sched)
    }

    #[test]
    fn no_faults_is_unchanged() {
        let (topo, tfg, timing, sched) = compiled();
        let out = repair(
            &sched,
            &topo,
            &tfg,
            &timing,
            &FaultSet::new(),
            &RepairConfig::default(),
        );
        assert_eq!(out.verdict, RepairVerdict::Unchanged);
        let repaired = out.schedule.unwrap();
        assert_eq!(repaired.segments(), sched.segments());
    }

    #[test]
    fn single_dead_link_repairs_and_pins_the_rest() {
        let (topo, tfg, timing, sched) = compiled();
        let victim = sched.segments()[0].message;
        let dead = sched.assignment().links(victim)[0];
        let faults = FaultSet::new().fail_link(dead);

        let rec = sr_obs::MetricsRecorder::new();
        let out = repair_with_recorder(
            &sched,
            &topo,
            &tfg,
            &timing,
            &faults,
            &RepairConfig::default(),
            &rec,
        );
        assert_eq!(
            out.verdict,
            RepairVerdict::Repaired,
            "report: {:?}",
            out.report
        );
        let repaired = out.schedule.expect("repaired schedule");
        verify_with_faults(&repaired, &topo, &tfg, &faults).expect("verifier-clean repair");

        // Pinning rule: unaffected messages keep allocation rows and
        // segments bit-identical.
        for &m in &out.report.unaffected {
            assert_eq!(
                repaired.allocation().row(m),
                sched.allocation().row(m),
                "allocation moved for unaffected {m}"
            );
            assert_eq!(repaired.assignment().path(m), sched.assignment().path(m));
            let before: Vec<_> = sched.segments().iter().filter(|s| s.message == m).collect();
            let after: Vec<_> = repaired
                .segments()
                .iter()
                .filter(|s| s.message == m)
                .collect();
            assert_eq!(before, after, "segments moved for unaffected {m}");
        }
        // Affected messages avoid the dead link.
        for &m in &out.rerouted {
            assert!(!repaired.assignment().links(m).contains(&dead));
        }
        assert_eq!(rec.counters()["repair.outcome.repaired"], 1);
        assert!(rec.counters()["repair.affected"] >= 1);
    }

    #[test]
    fn diagnosed_repair_records_ladder_and_matches_plain_repair() {
        let (topo, tfg, timing, sched) = compiled();
        let victim = sched.segments()[0].message;
        let dead = sched.assignment().links(victim)[0];
        let faults = FaultSet::new().fail_link(dead);
        let config = RepairConfig::default();

        let (out, diag) = repair_diagnosed(&sched, &topo, &tfg, &timing, &faults, &config, &NOOP);
        let plain = repair(&sched, &topo, &tfg, &timing, &faults, &config);
        // Diagnosis only observes the ladder.
        assert_eq!(out.verdict, plain.verdict);
        assert_eq!(out.rerouted, plain.rerouted);
        assert_eq!(diag.verdict, out.verdict);
        // The successful rung is the last recorded step.
        let last = diag.steps.last().expect("at least one step");
        assert_eq!(last.outcome, RepairStepOutcome::Succeeded);
        assert_eq!(last.rung, 1);
        assert_eq!(last.scale, Some(config.feedback_scales[0]));
        let text = diag.render_text();
        assert!(text.contains("repair ladder (verdict: repaired)"));
        assert!(text.contains("rung 1 (full re-route)"));
    }

    #[test]
    fn diagnosed_repair_names_the_unroutable_critical_message() {
        let (topo, tfg, timing, sched) = compiled();
        let victim = sched.segments()[0].message;
        let src = sched.assignment().path(victim).source();
        let faults = FaultSet::new().fail_node(src);
        let (out, diag) = repair_diagnosed(
            &sched,
            &topo,
            &tfg,
            &timing,
            &faults,
            &RepairConfig::default(),
            &NOOP,
        );
        assert_eq!(out.verdict, RepairVerdict::Infeasible);
        assert_eq!(diag.steps.len(), 1);
        assert_eq!(diag.steps[0].outcome, RepairStepOutcome::CriticalUnroutable);
        assert!(diag.render_text().contains("critical message unroutable"));
    }

    #[test]
    fn dead_endpoint_is_infeasible_when_critical() {
        let (topo, tfg, timing, sched) = compiled();
        let victim = sched.segments()[0].message;
        let src = sched.assignment().path(victim).source();
        let faults = FaultSet::new().fail_node(src);
        let out = repair(
            &sched,
            &topo,
            &tfg,
            &timing,
            &faults,
            &RepairConfig::default(),
        );
        assert_eq!(out.verdict, RepairVerdict::Infeasible);
        assert!(out.schedule.is_none());
        assert!(out.dropped.contains(&victim));
    }

    #[test]
    fn dead_endpoint_degrades_when_not_critical() {
        let (topo, tfg, timing, sched) = compiled();
        let victim = sched.segments()[0].message;
        let src = sched.assignment().path(victim).source();
        let faults = FaultSet::new().fail_node(src);
        // Nothing is critical: dropping the dead-endpoint messages is fine.
        let config = RepairConfig {
            critical: Some(vec![false; tfg.num_messages()]),
            ..RepairConfig::default()
        };
        let out = repair(&sched, &topo, &tfg, &timing, &faults, &config);
        assert_eq!(out.verdict, RepairVerdict::Degraded);
        let repaired = out.schedule.expect("degraded schedule");
        verify_with_faults(&repaired, &topo, &tfg, &faults).expect("clean degraded schedule");
        // Dropped messages carry no network traffic in the repaired schedule.
        for &m in &out.dropped {
            assert!(repaired.assignment().links(m).is_empty());
            assert!(repaired.segments().iter().all(|s| s.message != m));
        }
    }
}
