use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sr_mapping::Allocation;
use sr_obs::{span_with, Recorder, NOOP};
use sr_tfg::{MessageId, TaskFlowGraph, TimeBounds, Timing, WindowPolicy};
use sr_topology::{NodeId, Topology};

use crate::diagnosis::{CandidateOutcome, CandidateRecord, Diagnosis};
use crate::interval_sched::schedule_intervals_guarded_stats;
use crate::{
    allocate_intervals_flow, allocate_intervals_partitioned, allocate_intervals_stats,
    assign_paths_pooled, node_schedules_of, related_subsets, segments_of, ActivityMatrix,
    AllocationStats, AssignPathsConfig, CompileError, FlowAllocStats, FlowWorkspace,
    IntervalAllocation, IntervalSchedStats, IntervalSchedule, Intervals, NodeSchedule,
    PathAssignment, PathPool, PeakCertificate, Segment, UtilizationMap,
};

/// Backend for the message–interval allocation stage.
///
/// Both engines accept and reject exactly the same instances and every
/// emitted schedule satisfies constraints (3) and (4); they differ in the
/// machinery (and therefore the work counters) used per maximal related
/// subset. The simplex engine is the reference: the flow engine falls back
/// to it, and the tests hold the flow engine's verdicts against it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AllocEngine {
    /// One LP per subset, solved by the sparse revised simplex. The
    /// default.
    #[default]
    Simplex,
    /// One time-expanded min-cost-flow network per subset, solved by
    /// successive shortest paths; the rare subset where the relaxation is
    /// loose falls back to the simplex
    /// ([`crate::allocate_intervals_flow`]).
    Flow,
}

/// Configuration of the end-to-end scheduled-routing compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileConfig {
    /// Message window policy (paper default: one longest-task length).
    pub window_policy: WindowPolicy,
    /// Path-assignment heuristic knobs.
    pub assign_paths: AssignPathsConfig,
    /// Cap on link-feasible sets enumerated per interval.
    pub max_feasible_sets: usize,
    /// Slack allowed on the `U ≤ 1` schedulability test.
    pub utilization_tolerance: f64,
    /// Capacity scales tried for message–interval allocation. The first
    /// entry should be 1.0; later (smaller) entries implement the paper's
    /// suggested *feedback*: if interval scheduling fails, re-allocate with
    /// tighter per-interval link capacities, which spreads messages across
    /// more intervals and usually makes the intervals schedulable.
    pub feedback_scales: Vec<f64>,
    /// Additional `AssignPaths` seeds tried when allocation or interval
    /// scheduling fails (a second feedback loop from §7: the path
    /// assignment constrains everything downstream, so a different
    /// same-peak assignment often compiles).
    pub path_retry_seeds: usize,
    /// Clock-skew guard time (µs) reserved before every transmission slice
    /// — the paper's §7 margin for CP synchronization ("twice the maximum
    /// difference between two clocks"). Zero assumes perfectly synchronized
    /// communication processors.
    pub guard_time: f64,
    /// Worker threads for the feedback search over `(path seed, capacity
    /// scale)` candidates: `0` = one worker per hardware thread, `1` =
    /// fully serial, `n` = at most `n` workers. Any setting returns the
    /// exact schedule the serial search would: candidates are ranked by
    /// `(seed, scale)` and the lowest-ranked success wins.
    pub parallelism: usize,
    /// Fraction `ε ∈ [0, 1)` of link capacity held back at compile time as
    /// repair headroom: the schedulability test tightens to `U ≤ 1 − ε`
    /// and every capacity scale is multiplied by `1 − ε` during
    /// message–interval allocation. A schedule compiled with spare capacity
    /// leaves every link at most `(1 − ε)`-full in every interval, so
    /// incremental repair after a fault is more likely to find room for the
    /// re-routed messages. Zero (the default) reproduces the paper's
    /// pipeline exactly.
    pub spare_capacity: f64,
    /// Message–interval allocation backend (see [`AllocEngine`]). The flow
    /// engine sidesteps the subset LPs entirely on large fabrics.
    pub alloc_engine: AllocEngine,
    /// Partition the platform into this many contiguous node bands
    /// ([`crate::band_partition`]) and compile hierarchically: `AssignPaths`
    /// hill-climbs each band's interior traffic in parallel and stitches
    /// boundary messages afterwards
    /// ([`crate::assign_paths_partitioned`]), and the simplex allocation
    /// solves interior subsets concurrently with a pinned-row boundary pass
    /// ([`crate::allocate_intervals_partitioned`]). `0` or `1` (the
    /// default) keeps the flat pipeline. Partitioned compiles remain
    /// deterministic for a fixed config — including across
    /// [`CompileConfig::parallelism`] settings — but trade assignment
    /// quality for wall-clock scaling, so leave this off below a few
    /// thousand nodes.
    pub partition: usize,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            window_policy: WindowPolicy::LongestTask,
            assign_paths: AssignPathsConfig::default(),
            max_feasible_sets: 50_000,
            utilization_tolerance: 1e-6,
            feedback_scales: vec![1.0, 0.9, 0.8, 0.7],
            path_retry_seeds: 3,
            guard_time: 0.0,
            parallelism: 0,
            spare_capacity: 0.0,
            alloc_engine: AllocEngine::default(),
            partition: 0,
        }
    }
}

/// A compiled communication schedule and every artifact that produced it.
///
/// The schedule's timeline is its message segments, the only one it
/// stores. The interval scheduling slices they were cut from live only
/// inside [`compile`] and [`crate::pack_affected`]; the node switching
/// schedules `Ω` that ship to the communication processors are a pure
/// function of the segments and the path assignment, derived on each call
/// to [`Schedule::node_schedules`]; each link's busy rows are derived by
/// [`Schedule::busy_spans`].
///
/// Produced by [`compile`]; replayable/checkable with [`crate::verify`].
/// When compilation succeeds, the multicomputer sustains exactly one TFG
/// invocation per period — constant throughput with latency
/// [`Schedule::latency`] — with zero run-time flow-control.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub(crate) period: f64,
    pub(crate) bounds: TimeBounds,
    pub(crate) assignment: PathAssignment,
    pub(crate) intervals: Intervals,
    pub(crate) activity: ActivityMatrix,
    pub(crate) allocation: IntervalAllocation,
    pub(crate) segments: Vec<Segment>,
    pub(crate) num_nodes: usize,
    pub(crate) peak_utilization: f64,
    pub(crate) baseline_peak: f64,
    pub(crate) peak_lower_bound: f64,
    pub(crate) capacity_scale: f64,
    pub(crate) guard_time: f64,
}

impl Schedule {
    /// The invocation period `τ_in` the schedule sustains, in µs.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Invocation latency implied by the time bounds, in µs (the paper's
    /// "critical path length obtained after assigning time bounds").
    pub fn latency(&self) -> f64 {
        self.bounds.latency()
    }

    /// Peak utilization `U` of the final path assignment.
    pub fn peak_utilization(&self) -> f64 {
        self.peak_utilization
    }

    /// Peak utilization of the LSD-to-MSD baseline assignment (what Figs.
    /// 5–6 compare against).
    pub fn baseline_peak_utilization(&self) -> f64 {
        self.baseline_peak
    }

    /// A lower bound on the peak utilization of *every* path assignment
    /// over the alternatives the compile considered
    /// ([`crate::AssignPathsOutcome::lower_bound`]):
    /// `peak_utilization / peak_lower_bound − 1` is the most a better
    /// heuristic could still gain. 0 — no bound known — for a
    /// [`Schedule::patched`] schedule, whose routes come from another
    /// candidate set.
    pub fn peak_lower_bound(&self) -> f64 {
        self.peak_lower_bound
    }

    /// The message time bounds.
    pub fn bounds(&self) -> &TimeBounds {
        &self.bounds
    }

    /// The final path assignment.
    pub fn assignment(&self) -> &PathAssignment {
        &self.assignment
    }

    /// The interval partition of the period frame.
    pub fn intervals(&self) -> &Intervals {
        &self.intervals
    }

    /// The message activity matrix.
    pub fn activity(&self) -> &ActivityMatrix {
        &self.activity
    }

    /// The message–interval allocation matrix `P`.
    pub fn allocation(&self) -> &IntervalAllocation {
        &self.allocation
    }

    /// Every message transmission segment, sorted by start time.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The node switching schedules `Ω`, derived from the segments and the
    /// path assignment on each call ([`crate::node_schedules_of`]): one per
    /// node of the fabric, idle nodes included, indexable by node, each
    /// node's commands sorted by start and then message.
    pub fn node_schedules(&self) -> Vec<NodeSchedule> {
        node_schedules_of(&self.segments, &self.assignment, self.num_nodes)
    }

    /// The message–interval allocation capacity scale that succeeded (1.0
    /// unless the feedback loop had to tighten).
    pub fn capacity_scale(&self) -> f64 {
        self.capacity_scale
    }

    /// The clock-skew guard time the schedule was compiled with, µs.
    pub fn guard_time(&self) -> f64 {
        self.guard_time
    }

    /// Rebuilds a schedule around replacement routing artifacts, carrying
    /// over this schedule's period, time bounds, intervals, activity,
    /// capacity scale, and guard time.
    ///
    /// This is the assembly step of incremental repair: after the affected
    /// messages have been re-routed (`assignment`), re-allocated
    /// (`allocation`), and re-packed (`segments`, the new timeline from
    /// [`crate::pack_affected`], sorted by start and then message), the
    /// peak utilization is recomputed.
    /// Segments that were kept verbatim keep the `Ω` entries of unaffected
    /// messages, derived from them on demand, bit-identical.
    ///
    /// The caller is responsible for the artifacts' mutual consistency;
    /// run [`crate::verify`] (or [`crate::verify_with_faults`]) on the
    /// result.
    pub fn patched(
        &self,
        assignment: PathAssignment,
        allocation: IntervalAllocation,
        segments: Vec<Segment>,
        topo: &dyn Topology,
    ) -> Schedule {
        let peak_utilization = UtilizationMap::compute(
            &assignment,
            &self.bounds,
            &self.activity,
            &self.intervals,
            topo.num_links(),
        )
        .effective_peak();
        Schedule {
            period: self.period,
            bounds: self.bounds.clone(),
            assignment,
            intervals: self.intervals.clone(),
            activity: self.activity.clone(),
            allocation,
            segments,
            num_nodes: self.num_nodes,
            peak_utilization,
            baseline_peak: self.baseline_peak,
            peak_lower_bound: 0.0,
            capacity_scale: self.capacity_scale,
            guard_time: self.guard_time,
        }
    }
}

/// Compiles a scheduled-routing communication schedule `Ω` for pipelining
/// `tfg` on `topo` with input period `period` (µs) — the full Fig. 3
/// pipeline (see the crate docs for the stage list).
///
/// # Errors
///
/// Every stage's failure is reported as the corresponding
/// [`CompileError`] variant: bad time bounds, peak utilization above 1,
/// infeasible message–interval allocation, or an unschedulable interval
/// (after exhausting the feedback scales).
pub fn compile(
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    config: &CompileConfig,
) -> Result<Schedule, CompileError> {
    compile_with_recorder(topo, tfg, alloc, timing, period, config, &NOOP)
}

/// [`compile`] with an [`sr_obs::Recorder`] observing the pipeline: nested
/// spans around the four Fig. 3 phases and every `(seed, scale)` candidate,
/// plus work counters (LP pivots, feasible sets, path-pool traffic, …).
///
/// Counters outside the `par.` namespace are emitted only from the
/// deterministic candidate walk, so they are identical for any
/// [`CompileConfig::parallelism`] setting; `par.`-prefixed counters and all
/// span timings depend on thread scheduling. Passing [`sr_obs::NOOP`]
/// reduces this to [`compile`] — the instrumentation then costs one
/// non-inlined boolean query per span site and never allocates.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with_recorder(
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    config: &CompileConfig,
    rec: &dyn Recorder,
) -> Result<Schedule, CompileError> {
    compile_inner(topo, tfg, alloc, timing, period, config, rec, None)
}

/// [`compile_with_recorder`] plus a [`Diagnosis`]: the same deterministic
/// search, additionally recording why every consumed `(seed, scale)`
/// candidate died — and, for allocation-infeasible candidates, re-solving
/// the failing subset LP for its Farkas certificate
/// ([`crate::diagnose_infeasible_subset`]). On success the diagnosis
/// instead carries the winner's tightest capacity rows
/// ([`crate::bottlenecks`]).
///
/// The schedule (or error) returned is **identical** to [`compile`]'s for
/// the same inputs; diagnosis only observes the walk. The extra work (one
/// diagnosed LP solve per reported infeasibility, plus record keeping on
/// the serial walk) is only spent here — [`compile`] never builds a
/// diagnosis. Counters under `diag.` are emitted by this entry point only.
pub fn compile_diagnosed(
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    config: &CompileConfig,
    rec: &dyn Recorder,
) -> (Result<Schedule, CompileError>, Diagnosis) {
    let sink = Mutex::new(Diagnosis::new(period));
    let result = compile_inner(topo, tfg, alloc, timing, period, config, rec, Some(&sink));
    let mut diag = sink.into_inner().unwrap_or_else(|p| p.into_inner());
    match &result {
        Ok(sched) => {
            diag.bottlenecks = crate::diagnosis::bottlenecks(sched, config.spare_capacity, 10);
        }
        Err(e) => {
            // Pre-walk rejections (bad time bounds, overloaded node, arity
            // mismatch) never reach the candidate walk; synthesize one
            // record so the diagnosis is never silently empty.
            if diag.candidates.is_empty() {
                diag.candidates.push(CandidateRecord {
                    seed: 0,
                    scale: None,
                    outcome: CandidateOutcome::PrecheckFailed,
                    detail: e.to_string(),
                });
            }
        }
    }
    rec.add("diag.candidates", diag.candidates.len() as u64);
    rec.add("diag.bottlenecks", diag.bottlenecks.len() as u64);
    if let Some(s) = &diag.subset {
        rec.add("diag.blocking_messages", s.blocking.len() as u64);
        rec.add("diag.saturated_rows", s.saturated.len() as u64);
    }
    (result, diag)
}

#[allow(clippy::too_many_arguments)]
fn compile_inner(
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    config: &CompileConfig,
    rec: &dyn Recorder,
    diag: Option<&Mutex<Diagnosis>>,
) -> Result<Schedule, CompileError> {
    let root = span_with(rec, "compile", || {
        format!("period={period} messages={}", tfg.num_messages())
    });
    if alloc.placement().len() != tfg.num_tasks() {
        return Err(CompileError::AllocationMismatch {
            alloc_tasks: alloc.placement().len(),
            tfg_tasks: tfg.num_tasks(),
        });
    }
    let phase = sr_obs::span(rec, "phase.time_bounds");
    let bounds = sr_tfg::assign_time_bounds(tfg, timing, period, config.window_policy)?;
    // Application-processor capacity: co-located tasks share one AP, so
    // their total execution demand must fit the period (the paper assumes
    // one task per processor; this check makes the assumption explicit).
    // Dense per-node accumulation so the reported node is always the
    // lowest-indexed offender (a HashMap here made the error message
    // depend on iteration order).
    {
        let mut demand = vec![0.0f64; topo.num_nodes()];
        for (id, task) in tfg.iter_tasks() {
            demand[alloc.node_of(id).index()] += timing.exec_time(task);
        }
        for (node, &d) in demand.iter().enumerate() {
            if d > period + 1e-9 {
                return Err(CompileError::NodeOverloaded {
                    node: NodeId(node),
                    demand: d,
                    period,
                });
            }
        }
    }
    let intervals = Intervals::from_bounds(&bounds);
    let activity = ActivityMatrix::new(&bounds, &intervals);
    drop(phase);
    rec.add("compile.messages", tfg.num_messages() as u64);
    rec.add("compile.intervals", intervals.len() as u64);

    let ctx = SearchCtx {
        topo,
        tfg,
        alloc,
        bounds: &bounds,
        intervals: &intervals,
        activity: &activity,
        config,
        period,
        scales: if config.feedback_scales.is_empty() {
            vec![1.0]
        } else {
            config.feedback_scales.clone()
        },
        // Shared across every seed retry (and worker thread): candidate
        // paths depend on endpoints only, so each pair is enumerated once
        // per compile instead of once per retry. Seeded with exactly the
        // message endpoint pairs — the only pairs the search ever asks
        // for — so pool memory scales with the workload, not with
        // num_nodes² (a dense pool on a 16,384-node torus would cost
        // gigabytes before the first enumeration).
        pool: PathPool::seeded(
            topo,
            config.assign_paths.path_cap,
            tfg.messages()
                .iter()
                .map(|m| (alloc.node_of(m.src()), alloc.node_of(m.dst()))),
        ),
        rec,
        diag,
    };
    let result = ctx.search(sr_par::effective_threads(config.parallelism));
    drop(root);
    result
}

/// One seed's path-assignment stage: either the assignment is viable
/// (peak utilization within capacity) or the seed fails outright. Either
/// way the heuristic's work counters ride along so the deterministic walk
/// — not the (possibly parallel) evaluation — reports them.
enum SeedOutcome {
    Viable(SeedEval),
    Utilization {
        err: CompileError,
        work: ClimbWork,
        /// Set when the lower bound itself is above capacity: reseeding
        /// cannot help, and this is why.
        certificate: Option<PeakCertificate>,
    },
}

/// The `assign_paths.*` work counters of one seed's heuristic run.
#[derive(Clone, Copy)]
struct ClimbWork {
    restarts: u64,
    trials: u64,
    link_recomputes: u64,
    climbs: u64,
    certified_climbs: u64,
    skipped_restarts: u64,
}

impl ClimbWork {
    fn of(outcome: &crate::AssignPathsOutcome) -> Self {
        ClimbWork {
            restarts: outcome.restarts as u64,
            trials: outcome.trials,
            link_recomputes: outcome.link_recomputes,
            climbs: outcome.climbs as u64,
            certified_climbs: outcome.certified_climbs as u64,
            skipped_restarts: outcome.skipped_restarts as u64,
        }
    }

    fn report(&self, rec: &dyn Recorder) {
        rec.add("assign_paths.restarts", self.restarts);
        rec.add("assign_paths.trials", self.trials);
        rec.add("assign_paths.link_recomputes", self.link_recomputes);
        rec.add("assign_paths.climbs", self.climbs);
        rec.add("assign_paths.certified_climbs", self.certified_climbs);
        rec.add("assign_paths.skipped_restarts", self.skipped_restarts);
    }
}

/// The artifacts every `(seed, scale)` candidate of one seed shares.
struct SeedEval {
    peak: f64,
    baseline_peak: f64,
    lower_bound: f64,
    assignment: PathAssignment,
    subsets: Vec<Vec<MessageId>>,
    work: ClimbWork,
}

/// One `(seed, scale)` candidate's allocate-then-schedule stage.
enum ScaleOutcome {
    Scheduled {
        allocation: IntervalAllocation,
        interval_schedules: Vec<IntervalSchedule>,
    },
    Unschedulable(CompileError),
    AllocInfeasible(CompileError),
    Hard(CompileError),
}

/// Work counters of one `(seed, scale)` candidate, carried beside its
/// [`ScaleOutcome`] so only the deterministic walk turns them into recorder
/// counters (a speculatively evaluated candidate the walk never consumes is
/// never reported).
#[derive(Clone, Copy, Default)]
struct ScaleStats {
    alloc: AllocationStats,
    flow: FlowAllocStats,
    isched: IntervalSchedStats,
}

/// One seed's full evaluation: the path-assignment stage plus however much
/// of its capacity-scale ladder [`SearchCtx::eval_ladder`] walked. A rung is
/// only worth evaluating when every rung before it was unschedulable, so a
/// seed's ladder is one job that walks its rungs in order and stops at the
/// first terminal one.
struct SeedResult {
    seed_out: SeedOutcome,
    ladder: Vec<(ScaleOutcome, ScaleStats)>,
}

/// `candidate`-span outcome codes (the `outcome` arg in a Chrome trace).
const OUTCOME_SCHEDULED: f64 = 0.0;
const OUTCOME_UNSCHEDULABLE: f64 = 1.0;
const OUTCOME_ALLOC_INFEASIBLE: f64 = 2.0;
const OUTCOME_HARD_ERROR: f64 = 3.0;

/// Reports one merged [`sr_lp::SolveStats`] under `prefix.` counter names.
fn add_lp_counters(rec: &dyn Recorder, prefix: &str, lp: &sr_lp::SolveStats) {
    rec.add(&format!("{prefix}.pivots"), lp.pivots);
    rec.add(&format!("{prefix}.phase1_pivots"), lp.phase1_pivots);
    rec.add(&format!("{prefix}.degenerate_pivots"), lp.degenerate_pivots);
    rec.add(&format!("{prefix}.bland_switches"), lp.bland_switches);
    rec.add(&format!("{prefix}.price_recomputes"), lp.price_recomputes);
    rec.add(&format!("{prefix}.factorizations"), lp.factorizations);
    rec.add(&format!("{prefix}.refactorizations"), lp.refactorizations);
    rec.add(&format!("{prefix}.eta_vectors"), lp.eta_vectors);
    rec.add(&format!("{prefix}.eta_nonzeros"), lp.eta_nonzeros);
    rec.add(&format!("{prefix}.warm_hits"), lp.warm_hits);
    rec.add(&format!("{prefix}.warm_misses"), lp.warm_misses);
}

/// Shared inputs of the feedback search over `(seed, scale)` candidates.
struct SearchCtx<'a> {
    topo: &'a dyn Topology,
    tfg: &'a TaskFlowGraph,
    alloc: &'a Allocation,
    bounds: &'a TimeBounds,
    intervals: &'a Intervals,
    activity: &'a ActivityMatrix,
    config: &'a CompileConfig,
    period: f64,
    scales: Vec<f64>,
    pool: PathPool<'a>,
    rec: &'a dyn Recorder,
    /// Diagnosis sink ([`compile_diagnosed`] only). Behind a `Mutex` to
    /// keep `SearchCtx: Sync` for the speculative fill, but only the
    /// serial replay walk ever locks it, so recorded candidates are in
    /// deterministic walk order at any parallelism.
    diag: Option<&'a Mutex<Diagnosis>>,
}

impl SearchCtx<'_> {
    /// Runs `AssignPaths` for retry index `sidx` and prepares the
    /// downstream artifacts. Deterministic per `sidx`.
    fn eval_seed(&self, sidx: usize) -> SeedOutcome {
        let span = span_with(self.rec, "phase.assign_paths", || format!("seed={sidx}"));
        let ap_config = AssignPathsConfig {
            seed: self.config.assign_paths.seed.wrapping_add(sidx as u64),
            ..self.config.assign_paths
        };
        let outcome = if self.config.partition > 1 {
            crate::assign_paths_partitioned(
                self.tfg,
                self.topo,
                self.alloc,
                self.bounds,
                self.intervals,
                self.activity,
                &ap_config,
                &self.pool,
                &crate::band_partition_topo(self.topo, self.config.partition),
                sr_par::effective_threads(self.config.parallelism),
            )
        } else {
            assign_paths_pooled(
                self.tfg,
                self.topo,
                self.alloc,
                self.bounds,
                self.intervals,
                self.activity,
                &ap_config,
                &self.pool,
            )
        };
        let peak = outcome.utilization.effective_peak();
        span.annotate("peak_utilization", peak);
        span.annotate("restarts", outcome.restarts as f64);
        span.annotate("lower_bound", outcome.lower_bound);
        if peak > 1.0 - self.config.spare_capacity + self.config.utilization_tolerance {
            // The heuristic is deterministic-per-seed but the peak won't
            // drop below capacity by reseeding alone once it converged;
            // other seeds are still tried, keeping the first report.
            return SeedOutcome::Utilization {
                err: CompileError::UtilizationExceeded { utilization: peak },
                work: ClimbWork::of(&outcome),
                certificate: outcome.overload,
            };
        }
        let subsets = related_subsets(&outcome.assignment, self.activity);
        SeedOutcome::Viable(SeedEval {
            peak,
            baseline_peak: outcome.baseline_peak,
            lower_bound: outcome.lower_bound,
            work: ClimbWork::of(&outcome),
            assignment: outcome.assignment,
            subsets,
        })
    }

    /// Allocates message–interval shares at `scale` capacity and schedules
    /// the intervals. Deterministic per `(seed artifacts, scale)`; the
    /// returned [`ScaleStats`] are likewise deterministic and left to the
    /// walk to report.
    fn eval_scale(
        &self,
        ev: &SeedEval,
        sidx: usize,
        si: usize,
        flow_ws: &mut FlowWorkspace,
    ) -> (ScaleOutcome, ScaleStats) {
        let scale = self.scales[si];
        let mut stats = ScaleStats::default();
        let candidate = span_with(self.rec, "candidate", || {
            format!("seed={sidx} scale={scale}")
        });

        let alloc_span = sr_obs::span(self.rec, "phase.allocate_intervals");
        // Spare capacity shrinks what the allocation may hand out; the
        // stored `capacity_scale` stays the nominal ladder value.
        let effective = scale * (1.0 - self.config.spare_capacity);
        let allocated = match self.config.alloc_engine {
            AllocEngine::Flow => allocate_intervals_flow(
                &ev.assignment,
                self.bounds,
                self.activity,
                self.intervals,
                &ev.subsets,
                effective,
                flow_ws,
                &mut stats.flow,
                &mut stats.alloc,
            ),
            AllocEngine::Simplex if self.config.partition > 1 => allocate_intervals_partitioned(
                &ev.assignment,
                self.bounds,
                self.activity,
                self.intervals,
                &ev.subsets,
                effective,
                &crate::band_partition_topo(self.topo, self.config.partition),
                sr_par::effective_threads(self.config.parallelism),
                &mut stats.alloc,
            ),
            AllocEngine::Simplex => allocate_intervals_stats(
                &ev.assignment,
                self.bounds,
                self.activity,
                self.intervals,
                &ev.subsets,
                effective,
                &mut stats.alloc,
            ),
        };
        alloc_span.annotate("lp_pivots", stats.alloc.lp.pivots as f64);
        drop(alloc_span);
        let allocation = match allocated {
            Ok(a) => a,
            Err(e @ CompileError::AllocationInfeasible { .. }) => {
                candidate.annotate("outcome", OUTCOME_ALLOC_INFEASIBLE);
                return (ScaleOutcome::AllocInfeasible(e), stats);
            }
            Err(e) => {
                candidate.annotate("outcome", OUTCOME_HARD_ERROR);
                return (ScaleOutcome::Hard(e), stats);
            }
        };

        let sched_span = sr_obs::span(self.rec, "phase.schedule_intervals");
        let scheduled = schedule_intervals_guarded_stats(
            &ev.assignment,
            &allocation,
            self.intervals,
            &ev.subsets,
            self.config.max_feasible_sets,
            self.config.guard_time,
            &mut stats.isched,
        );
        sched_span.annotate("lp_pivots", stats.isched.lp.pivots as f64);
        drop(sched_span);
        let (outcome, code) = match scheduled {
            Ok(interval_schedules) => (
                ScaleOutcome::Scheduled {
                    allocation,
                    interval_schedules,
                },
                OUTCOME_SCHEDULED,
            ),
            Err(e @ CompileError::IntervalUnschedulable { .. }) => {
                (ScaleOutcome::Unschedulable(e), OUTCOME_UNSCHEDULABLE)
            }
            Err(e) => (ScaleOutcome::Hard(e), OUTCOME_HARD_ERROR),
        };
        candidate.annotate("outcome", code);
        (outcome, stats)
    }

    /// Walks one viable seed's capacity-scale ladder in rank order. Stops
    /// at the first terminal rung (scheduled, allocation-infeasible, or
    /// hard error) or when the `best` watermark proves no remaining rung can
    /// win.
    fn eval_ladder(
        &self,
        ev: &SeedEval,
        sidx: usize,
        best: &AtomicUsize,
    ) -> Vec<(ScaleOutcome, ScaleStats)> {
        let num_scales = self.scales.len();
        // The flow kernel's scratch, reused across this ladder's rungs and
        // their per-subset solves; it carries no state between solves.
        let mut flow_ws = FlowWorkspace::new();
        let mut ladder = Vec::new();
        for si in 0..num_scales {
            if sidx * num_scales + si > best.load(Ordering::Relaxed) {
                break;
            }
            let (out, stats) = self.eval_scale(ev, sidx, si, &mut flow_ws);
            if matches!(out, ScaleOutcome::Scheduled { .. }) {
                best.fetch_min(sidx * num_scales + si, Ordering::Relaxed);
            }
            let stop = !matches!(out, ScaleOutcome::Unschedulable(_));
            ladder.push((out, stats));
            if stop {
                break;
            }
        }
        ladder
    }

    /// [`Self::eval_seed`] plus [`Self::eval_ladder`]: everything one seed
    /// contributes to the search, computed as a single deterministic job.
    fn eval_seed_full(&self, sidx: usize, best: &AtomicUsize) -> SeedResult {
        let seed_out = self.eval_seed(sidx);
        let ladder = match &seed_out {
            SeedOutcome::Viable(ev) => self.eval_ladder(ev, sidx, best),
            SeedOutcome::Utilization { .. } => Vec::new(),
        };
        SeedResult { seed_out, ladder }
    }

    /// The feedback search over the `(seed, scale)` candidate grid.
    ///
    /// Selection is a serial replay of the paper's feedback loops over
    /// candidate ranks `(seed-major, scale-minor)`; any seed the walk
    /// needs that has no precomputed result is evaluated on the spot. With
    /// `threads > 1` the seeds are speculatively evaluated first by a
    /// worker pool — each job runs one seed's path assignment and then its
    /// capacity-scale ladder — with an atomic rank watermark cancelling
    /// seeds and ladder tails that can no longer win. Either way the walk — and hence
    /// the returned schedule or error — is identical to a fully serial
    /// search, because every seed's result is a deterministic function of
    /// its inputs.
    fn search(&self, threads: usize) -> Result<Schedule, CompileError> {
        let result = self.search_walk(threads);
        // Path-pool traffic is inherently thread-dependent (see
        // [`PathPool::stats`]), hence the `par.` namespace; reported on
        // success and failure alike.
        let (hits, misses) = self.pool.stats();
        self.rec.add("par.pathpool.hits", hits);
        self.rec.add("par.pathpool.misses", misses);
        result
    }

    fn search_walk(&self, threads: usize) -> Result<Schedule, CompileError> {
        let num_seeds = self.config.path_retry_seeds + 1;
        let num_scales = self.scales.len();

        let mut results: Vec<Option<SeedResult>> = (0..num_seeds).map(|_| None).collect();

        if threads > 1 {
            // Speculative parallel fill, one job per seed. `best` is the
            // lowest candidate rank known to have scheduled; a seed whose
            // lowest possible rank exceeds it is skipped outright, and a
            // running ladder stops extending past it. The walk below never
            // consumes a skipped/truncated entry while a better winner
            // exists, and re-evaluates lazily in the rare case one still
            // matters.
            let best = AtomicUsize::new(usize::MAX);
            let jobs: Vec<usize> = (0..num_seeds).collect();
            let fill = sr_par::par_map(&jobs, threads, |&sidx| {
                if sidx * num_scales > best.load(Ordering::Relaxed) {
                    return None;
                }
                Some(self.eval_seed_full(sidx, &best))
            });
            let mut seed_evals = 0u64;
            let mut scale_evals = 0u64;
            for (slot, filled) in results.iter_mut().zip(fill) {
                if let Some(r) = filled {
                    seed_evals += 1;
                    scale_evals += r.ladder.len() as u64;
                    *slot = Some(r);
                }
            }
            // How much the speculative fill actually computed — depends on
            // worker timing, hence `par.`.
            self.rec.add("par.speculative.seed_evals", seed_evals);
            self.rec.add("par.speculative.scale_evals", scale_evals);
        }

        // Deterministic selection: replay the serial feedback loops. All
        // non-`par.` counters are emitted here, from the consumed outcomes
        // only, so their values are independent of the thread count.
        let rec = self.rec;
        let unbounded = AtomicUsize::new(usize::MAX);
        let mut first_err: Option<CompileError> = None;
        for (sidx, slot) in results.iter_mut().enumerate() {
            let seed_result = slot
                .take()
                .unwrap_or_else(|| self.eval_seed_full(sidx, &unbounded));
            rec.add("search.seeds_walked", 1);
            let ev = match seed_result.seed_out {
                SeedOutcome::Viable(ev) => ev,
                SeedOutcome::Utilization {
                    err,
                    work,
                    certificate,
                } => {
                    work.report(rec);
                    rec.add("search.outcome.utilization_exceeded", 1);
                    self.record_path_certificate(sidx, certificate);
                    self.record_candidate(
                        sidx,
                        None,
                        CandidateOutcome::UtilizationExceeded,
                        err.to_string(),
                    );
                    first_err.get_or_insert(err);
                    continue;
                }
            };
            ev.work.report(rec);
            // A speculative ladder may have been truncated by the rank
            // watermark. The walk only reaches such a seed when every
            // lower-ranked candidate failed — in which case the watermark
            // that truncated it has since been proven stale — so re-derive
            // the ladder.
            let terminal = seed_result
                .ladder
                .last()
                .is_some_and(|(out, _)| !matches!(out, ScaleOutcome::Unschedulable(_)));
            let ladder = if terminal || seed_result.ladder.len() == num_scales {
                seed_result.ladder
            } else {
                self.eval_ladder(&ev, sidx, &unbounded)
            };
            let mut last_err: Option<CompileError> = None;
            let mut seed_err: Option<CompileError> = None;
            for (si, (out, stats)) in ladder.into_iter().enumerate() {
                let rank = sidx * num_scales + si;
                rec.add("search.candidates_walked", 1);
                self.report_scale_stats(&stats);
                match out {
                    ScaleOutcome::Scheduled {
                        allocation,
                        interval_schedules,
                    } => {
                        rec.add("search.outcome.scheduled", 1);
                        rec.add("search.winner.rank", rank as u64);
                        rec.add("search.winner.seed", sidx as u64);
                        rec.add(
                            "search.winner.scale_permille",
                            (self.scales[si] * 1000.0).round() as u64,
                        );
                        rec.add(
                            "interval_sched.scheduled_intervals",
                            interval_schedules.len() as u64,
                        );
                        rec.add(
                            "interval_sched.slices",
                            interval_schedules
                                .iter()
                                .map(|is| is.slices.len() as u64)
                                .sum(),
                        );
                        self.record_candidate(
                            sidx,
                            Some(self.scales[si]),
                            CandidateOutcome::Scheduled,
                            format!("winner at rank {rank}, peak utilization {:.3}", ev.peak),
                        );
                        let span = sr_obs::span(rec, "phase.build_node_schedules");
                        let segments = segments_of(&interval_schedules);
                        drop(span);
                        return Ok(Schedule {
                            period: self.period,
                            peak_utilization: ev.peak,
                            baseline_peak: ev.baseline_peak,
                            peak_lower_bound: ev.lower_bound,
                            bounds: self.bounds.clone(),
                            assignment: ev.assignment,
                            intervals: self.intervals.clone(),
                            activity: self.activity.clone(),
                            allocation,
                            segments,
                            num_nodes: self.topo.num_nodes(),
                            capacity_scale: self.scales[si],
                            guard_time: self.config.guard_time,
                        });
                    }
                    ScaleOutcome::Unschedulable(e) => {
                        rec.add("search.outcome.interval_unschedulable", 1);
                        self.record_candidate(
                            sidx,
                            Some(self.scales[si]),
                            CandidateOutcome::IntervalUnschedulable,
                            e.to_string(),
                        );
                        last_err = Some(e);
                    }
                    ScaleOutcome::AllocInfeasible(e) => {
                        rec.add("search.outcome.alloc_infeasible", 1);
                        self.record_candidate(
                            sidx,
                            Some(self.scales[si]),
                            CandidateOutcome::AllocInfeasible,
                            e.to_string(),
                        );
                        self.record_infeasible_subset(sidx, si, &e, &ev);
                        // At full capacity the subset itself is infeasible:
                        // that is this seed's report. Deeper in the scale
                        // ladder, the tightened capacities caused it —
                        // report the interval-scheduling failure that sent
                        // us down the ladder instead.
                        seed_err = Some(if si == 0 {
                            e
                        } else {
                            last_err.take().expect("a scale ran before the break")
                        });
                        break;
                    }
                    ScaleOutcome::Hard(e) => {
                        rec.add("search.outcome.hard_error", 1);
                        self.record_candidate(
                            sidx,
                            Some(self.scales[si]),
                            CandidateOutcome::HardError,
                            e.to_string(),
                        );
                        return Err(e);
                    }
                }
            }
            let e = seed_err
                .or(last_err)
                .expect("at least one scale candidate ran");
            first_err.get_or_insert(e);
        }
        Err(first_err.expect("at least one seed ran"))
    }

    /// Appends one candidate record to the diagnosis sink (no-op unless
    /// compiled via [`compile_diagnosed`]). Called from the serial walk
    /// only, so record order is deterministic.
    fn record_candidate(
        &self,
        seed: usize,
        scale: Option<f64>,
        outcome: CandidateOutcome,
        detail: String,
    ) {
        if let Some(d) = self.diag {
            let mut d = d.lock().unwrap_or_else(|p| p.into_inner());
            d.candidates.push(CandidateRecord {
                seed,
                scale,
                outcome,
                detail,
            });
        }
    }

    /// Stores the first seed's proof that no path assignment fits in the
    /// diagnosis sink (the alternatives are the same for every seed, so the
    /// later ones would only repeat it).
    fn record_path_certificate(&self, sidx: usize, certificate: Option<PeakCertificate>) {
        let (Some(d), Some(certificate)) = (self.diag, certificate) else {
            return;
        };
        let mut d = d.lock().unwrap_or_else(|p| p.into_inner());
        d.path_certificate.get_or_insert((sidx, certificate));
    }

    /// On an allocation-infeasible candidate, re-solves the failing subset
    /// LP for its Farkas certificate and stores the first explanation in
    /// the diagnosis sink (later candidates dying of the same cause don't
    /// overwrite it — the walk's report is the first one, too).
    fn record_infeasible_subset(&self, sidx: usize, si: usize, e: &CompileError, ev: &SeedEval) {
        let Some(d) = self.diag else { return };
        let CompileError::AllocationInfeasible { subset } = e else {
            return;
        };
        if d.lock().unwrap_or_else(|p| p.into_inner()).subset.is_some() {
            return;
        }
        let effective = self.scales[si] * (1.0 - self.config.spare_capacity);
        if let Some(mut sd) = crate::diagnosis::diagnose_infeasible_subset(
            &ev.assignment,
            self.bounds,
            self.activity,
            self.intervals,
            subset,
            effective,
        ) {
            sd.seed = sidx;
            let mut g = d.lock().unwrap_or_else(|p| p.into_inner());
            if g.subset.is_none() {
                g.subset = Some(sd);
            }
        }
    }

    /// Turns one consumed candidate's [`ScaleStats`] into counters.
    fn report_scale_stats(&self, stats: &ScaleStats) {
        let rec = self.rec;
        if !rec.enabled() {
            return;
        }
        rec.add("alloc_lp.solves", stats.alloc.lp_solves);
        rec.add("alloc_lp.vars", stats.alloc.vars);
        rec.add("alloc_lp.constraints", stats.alloc.constraints);
        add_lp_counters(rec, "alloc_lp", &stats.alloc.lp);
        // Flow-engine work; under the simplex engine the namespace is
        // absent entirely so the default counter set is unchanged.
        if self.config.alloc_engine == AllocEngine::Flow {
            rec.add("alloc_flow.solves", stats.flow.solves);
            rec.add("alloc_flow.nodes", stats.flow.nodes);
            rec.add("alloc_flow.arcs", stats.flow.arcs);
            rec.add("alloc_flow.augmentations", stats.flow.augmentations);
            rec.add("alloc_flow.dijkstra_pops", stats.flow.dijkstra_pops);
            rec.add(
                "alloc_flow.potential_reuse_hits",
                stats.flow.potential_reuse_hits,
            );
            rec.add("alloc_flow.fallbacks", stats.flow.fallbacks);
        }
        rec.add("sched_lp.solves", stats.isched.lp_solves);
        add_lp_counters(rec, "sched_lp", &stats.isched.lp);
        rec.add("interval_sched.feasible_sets", stats.isched.feasible_sets);
        rec.add("interval_sched.arena_cells", stats.isched.arena_cells);
        rec.add(
            "interval_sched.singleton_fast_paths",
            stats.isched.singleton_fast_paths,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_mapping::Allocation;
    use sr_tfg::{generators, TfgBuilder};
    use sr_topology::GeneralizedHypercube;

    #[test]
    fn compiles_simple_chain() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(4, 500, 640);
        let timing = Timing::new(64.0, 10.0); // exec 50, tx 10
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            60.0,
            &CompileConfig::default(),
        )
        .expect("chain compiles");
        assert_eq!(sched.period(), 60.0);
        assert!(sched.peak_utilization() <= 1.0 + 1e-6);
        assert!(sched.latency() >= timing.critical_path(&tfg) - 1e-9);
        assert_eq!(sched.capacity_scale(), 1.0);
        assert!(!sched.segments().is_empty());
        // Every message's segments add to its duration.
        for (i, w) in sched.bounds().windows().iter().enumerate() {
            if sched.assignment().links(sr_tfg::MessageId(i)).is_empty() {
                continue;
            }
            let total: f64 = sched
                .segments()
                .iter()
                .filter(|s| s.message == sr_tfg::MessageId(i))
                .map(|s| s.duration())
                .sum();
            assert!((total - w.duration()).abs() < 1e-5, "message {i}: {total}");
        }
    }

    #[test]
    fn recorder_observes_phases_and_counters() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(4, 500, 640);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let rec = sr_obs::MetricsRecorder::new();
        let sched = compile_with_recorder(
            &topo,
            &tfg,
            &alloc,
            &timing,
            60.0,
            &CompileConfig::default(),
            &rec,
        )
        .expect("chain compiles under a recorder");
        // Identical to the uninstrumented compile (bit-identical artifacts).
        let plain = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            60.0,
            &CompileConfig::default(),
        )
        .unwrap();
        assert_eq!(sched.assignment(), plain.assignment());
        assert_eq!(sched.capacity_scale(), plain.capacity_scale());

        let counters = rec.counters();
        assert_eq!(counters["compile.messages"], tfg.num_messages() as u64);
        assert_eq!(counters["search.outcome.scheduled"], 1);
        assert_eq!(counters["search.seeds_walked"], 1);
        assert!(counters["alloc_lp.solves"] > 0);
        assert!(counters["alloc_lp.pivots"] > 0);
        let names: Vec<String> = rec.spans().into_iter().map(|s| s.name).collect();
        for phase in [
            "compile",
            "phase.time_bounds",
            "phase.assign_paths",
            "candidate",
            "phase.allocate_intervals",
            "phase.schedule_intervals",
            "phase.build_node_schedules",
        ] {
            assert!(names.iter().any(|n| n == phase), "missing span {phase}");
        }
    }

    #[test]
    fn rejects_overloaded_network() {
        // One link, two fat messages that cannot fit in the frame.
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 200); // exec 20: AP demand stays feasible
        let t1 = b.task("t1", 200);
        let t2 = b.task("t2", 200);
        b.message("m0", t0, t1, 1920).unwrap(); // 30 µs
        b.message("m1", t1, t2, 1920).unwrap(); // 30 µs
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0); // τ_c = 20
        let alloc = Allocation::new(
            vec![
                sr_topology::NodeId(0),
                sr_topology::NodeId(1),
                sr_topology::NodeId(0),
            ],
            &tfg,
            &topo,
        )
        .unwrap();
        // 60 µs of traffic must cross the single link every 50 µs period.
        let err = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            50.0,
            &CompileConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, CompileError::UtilizationExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn rejects_period_below_longest_task() {
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let tfg = generators::chain(2, 500, 64);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let err = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            10.0,
            &CompileConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::TimeBounds(_)));
    }

    #[test]
    fn colocated_overload_rejected() {
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let tfg = generators::chain(3, 500, 64); // exec 50 each
        let timing = Timing::new(64.0, 10.0);
        // All three tasks on one node: 150 µs of work per 60 µs period.
        let alloc = Allocation::new(vec![sr_topology::NodeId(1); 3], &tfg, &topo).unwrap();
        let err = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            60.0,
            &CompileConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, CompileError::NodeOverloaded { .. }),
            "got {err:?}"
        );
        // A long-enough period admits the same placement.
        assert!(compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            160.0,
            &CompileConfig::default()
        )
        .is_ok());
    }

    #[test]
    fn allocation_arity_checked() {
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let tfg = generators::chain(2, 500, 64);
        let other = generators::chain(3, 500, 64);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&other, &topo);
        let err = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            60.0,
            &CompileConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::AllocationMismatch { .. }));
    }

    #[test]
    fn guard_time_separates_and_costs_feasibility() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::diamond(3, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);

        // Moderate guard: compiles; every pair of segments on a shared link
        // is separated by >= guard.
        let config = CompileConfig {
            guard_time: 2.0,
            ..CompileConfig::default()
        };
        let sched =
            compile(&topo, &tfg, &alloc, &timing, 75.0, &config).expect("compiles with 2 µs guard");
        crate::verify(&sched, &topo, &tfg).expect("verifies with guard check");
        assert_eq!(sched.guard_time(), 2.0);
        // Directly inspect separations per link.
        for l in 0..sr_topology::Topology::num_links(&topo) {
            let link = sr_topology::LinkId(l);
            let mut spans: Vec<(f64, f64, sr_tfg::MessageId)> = sched
                .segments()
                .iter()
                .filter(|s| sched.assignment().links(s.message).contains(&link))
                .map(|s| (s.start, s.end, s.message))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                if w[0].2 != w[1].2 {
                    assert!(
                        w[1].0 - w[0].1 >= 2.0 - 1e-6,
                        "guard violated on {link}: {w:?}"
                    );
                }
            }
        }

        // Absurd guard: scheduling must fail, typed.
        let config = CompileConfig {
            guard_time: 100.0,
            ..CompileConfig::default()
        };
        let err = compile(&topo, &tfg, &alloc, &timing, 75.0, &config).unwrap_err();
        assert!(
            matches!(err, CompileError::IntervalUnschedulable { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn spare_capacity_tightens_both_gates() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::diamond(3, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);

        // Moderate headroom: still compiles, and every link stays at most
        // (1-ε)-full in every interval.
        let eps = 0.2;
        let config = CompileConfig {
            spare_capacity: eps,
            ..CompileConfig::default()
        };
        let sched =
            compile(&topo, &tfg, &alloc, &timing, 75.0, &config).expect("compiles with ε=0.2");
        assert!(sched.peak_utilization() <= 1.0 - eps + 1e-6);
        crate::verify(&sched, &topo, &tfg).expect("spare-capacity schedule verifies");
        for k in 0..sched.intervals().len() {
            let cap = (1.0 - eps) * sched.intervals().length(k);
            for l in 0..sr_topology::Topology::num_links(&topo) {
                let used: f64 = (0..tfg.num_messages())
                    .map(sr_tfg::MessageId)
                    .filter(|&m| sched.assignment().uses(m, sr_topology::LinkId(l)))
                    .map(|m| sched.allocation().allocated(m, k))
                    .sum();
                assert!(
                    used <= cap * sched.capacity_scale() + 1e-6,
                    "interval {k} link {l}: {used} > {cap}"
                );
            }
        }

        // Absurd headroom: the schedulability gate rejects the workload.
        let config = CompileConfig {
            spare_capacity: 0.95,
            ..CompileConfig::default()
        };
        let err = compile(&topo, &tfg, &alloc, &timing, 75.0, &config).unwrap_err();
        assert!(
            matches!(err, CompileError::UtilizationExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn patched_with_identical_artifacts_reproduces_the_schedule() {
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
        .unwrap();
        let patched = sched.patched(
            sched.assignment.clone(),
            sched.allocation.clone(),
            sched.segments.clone(),
            &topo,
        );
        assert_eq!(patched.segments, sched.segments);
        assert_eq!(patched.node_schedules(), sched.node_schedules());
        assert_eq!(patched.peak_utilization, sched.peak_utilization);
        assert_eq!(patched.period, sched.period);
        crate::verify(&patched, &topo, &tfg).expect("patched identity verifies");
    }

    #[test]
    fn flow_engine_agrees_with_simplex_oracle() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let timing = Timing::new(64.0, 10.0);
        for (tfg, period) in [
            (generators::chain(4, 500, 640), 60.0),
            (generators::diamond(3, 500, 1280), 75.0),
        ] {
            let alloc = sr_mapping::greedy(&tfg, &topo);
            let simplex = compile(
                &topo,
                &tfg,
                &alloc,
                &timing,
                period,
                &CompileConfig::default(),
            );
            let flow = compile(
                &topo,
                &tfg,
                &alloc,
                &timing,
                period,
                &CompileConfig {
                    alloc_engine: AllocEngine::Flow,
                    ..CompileConfig::default()
                },
            );
            // Same verdict; both schedules verify; same winning candidate.
            let (simplex, flow) = (simplex.unwrap(), flow.unwrap());
            crate::verify(&flow, &topo, &tfg).expect("flow schedule verifies");
            assert_eq!(flow.capacity_scale(), simplex.capacity_scale());
            assert_eq!(flow.assignment(), simplex.assignment());
            assert_eq!(flow.peak_utilization(), simplex.peak_utilization());
        }
    }

    #[test]
    fn flow_engine_rejects_what_simplex_rejects() {
        // The overloaded single-link workload from rejects_overloaded_network
        // trips the utilization gate before allocation; shrink it so the
        // allocation stage itself must produce the verdict.
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 200);
        let t1 = b.task("t1", 200);
        let t2 = b.task("t2", 200);
        b.message("m0", t0, t1, 1280).unwrap(); // 20 µs
        b.message("m1", t1, t2, 1280).unwrap(); // 20 µs
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(
            vec![
                sr_topology::NodeId(0),
                sr_topology::NodeId(1),
                sr_topology::NodeId(0),
            ],
            &tfg,
            &topo,
        )
        .unwrap();
        for engine in [AllocEngine::Simplex, AllocEngine::Flow] {
            let config = CompileConfig {
                alloc_engine: engine,
                ..CompileConfig::default()
            };
            assert!(
                compile(&topo, &tfg, &alloc, &timing, 41.0, &config).is_err(),
                "{engine:?} must reject the overloaded link"
            );
            assert!(
                compile(&topo, &tfg, &alloc, &timing, 80.0, &config).is_ok(),
                "{engine:?} must accept the relaxed period"
            );
        }
    }

    #[test]
    fn flow_engine_reports_its_counter_namespace() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(4, 500, 640);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let rec = sr_obs::MetricsRecorder::new();
        compile_with_recorder(
            &topo,
            &tfg,
            &alloc,
            &timing,
            60.0,
            &CompileConfig {
                alloc_engine: AllocEngine::Flow,
                ..CompileConfig::default()
            },
            &rec,
        )
        .expect("flow compile succeeds");
        let counters = rec.counters();
        assert!(counters["alloc_flow.solves"] > 0);
        assert!(counters["alloc_flow.arcs"] > 0);
        assert_eq!(counters["alloc_flow.fallbacks"], 0);
        // The subset LPs were never touched.
        assert_eq!(counters["alloc_lp.solves"], 0);
    }

    #[test]
    fn partitioned_compile_verifies_and_is_parallelism_invariant() {
        let topo = sr_topology::Torus::new(&[4, 4]).unwrap();
        let tfg = sr_tfg::dvb_uniform(4);
        let timing = Timing::calibrated_dvb(128.0);
        let alloc = sr_mapping::random_distinct(&tfg, &topo, 7).unwrap();
        let period = timing.longest_task(&tfg) * 2.0;
        let serial = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            period,
            &CompileConfig {
                partition: 4,
                parallelism: 1,
                ..Default::default()
            },
        )
        .expect("partitioned compile succeeds");
        crate::verify(&serial, &topo, &tfg).expect("partitioned schedule verifies");
        let parallel = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            period,
            &CompileConfig {
                partition: 4,
                parallelism: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.assignment(), parallel.assignment());
        assert_eq!(serial.capacity_scale(), parallel.capacity_scale());
        assert_eq!(serial.peak_utilization(), parallel.peak_utilization());
    }

    #[test]
    fn compiles_dvb_on_cube_at_max_rate() {
        let topo = GeneralizedHypercube::binary(6).unwrap();
        let tfg = sr_tfg::dvb_uniform(6);
        let timing = Timing::calibrated_dvb(128.0); // lighter network load
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            50.0,
            &CompileConfig::default(),
        )
        .expect("DVB at B=128 compiles at max rate");
        assert!(sched.peak_utilization() <= 1.0 + 1e-6);
        crate::verify(&sched, &topo, &tfg).expect("schedule verifies");
    }
}
