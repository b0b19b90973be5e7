//! **Scheduled routing**: compile-time, contention-free communication
//! schedules for task-level pipelining.
//!
//! This crate implements the primary contribution of Shukla & Agrawal
//! (ISCA '91). Instead of resolving link contention obliviously at run time
//! (wormhole routing's FCFS hardware, which breaks the constant-throughput
//! requirement of real-time pipelines), scheduled routing integrates the
//! task-flow graph's communication requirements into flow control: every
//! communication processor independently executes a **switching schedule**
//! computed at compile time, so every message finds a completely clear
//! source→destination path inside its release/deadline window. The result is
//! deadlock-free, contention-free, buffers nothing at intermediate nodes,
//! and exploits the multiple equivalent shortest paths of the topology.
//!
//! Compilation follows the paper's Fig. 3 pipeline:
//!
//! 1. **Time bounds** — [`sr_tfg::assign_time_bounds`] folds every message's
//!    release/deadline into one period frame `[0, τ_in)`.
//! 2. **Intervals & activity** — the distinct window endpoints partition the
//!    frame into intervals ([`Intervals`]); the activity matrix `A` says
//!    which message may transmit in which interval.
//! 3. **Path assignment** — [`assign_paths`] (the Fig. 4 heuristic)
//!    iteratively reroutes messages over alternative shortest paths to
//!    minimize the peak link/spot utilization `U` ([`UtilizationMap`]);
//!    `U ≤ 1` is the necessary condition for a feasible schedule.
//! 4. **Message–interval allocation** — an LP per *maximal related subset*
//!    ([`related_subsets`]) splits each message's transmission time across
//!    its active intervals without exceeding any link's capacity in any
//!    interval (constraints (3),(4)) — [`allocate_intervals`].
//! 5. **Interval scheduling** — inside each interval, messages needing
//!    several links *simultaneously* are packed into **link-feasible sets**
//!    (independent sets of the link-conflict graph) whose total time is
//!    LP-minimized after \[BDW86\] — [`schedule_intervals`].
//! 6. **Switching schedules** — the timed slices become message segments
//!    ([`segments_of`]), which a [`Schedule`] keeps. The per-node crossbar
//!    command lists `ω_i` ([`NodeSchedule`]), collectively the communication
//!    schedule `Ω`, are derived from the segments and paths where they are
//!    read ([`Schedule::node_schedules`], [`node_schedules_of`]), never
//!    stored; [`verify`] replays the segments and the `Ω` derived from them
//!    to prove contention-freedom, window compliance, and completeness.
//!
//! The one-call entry point is [`compile`].
//!
//! # Examples
//!
//! ```
//! use sr_core::{compile, CompileConfig};
//! use sr_tfg::Timing;
//! use sr_topology::GeneralizedHypercube;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cube = GeneralizedHypercube::binary(6)?;
//! let tfg = sr_tfg::dvb_uniform(6);
//! let alloc = sr_mapping::greedy(&tfg, &cube);
//! let timing = Timing::calibrated_dvb(64.0);
//!
//! let sched = compile(&cube, &tfg, &alloc, &timing, 100.0, &CompileConfig::default())?;
//! assert!(sched.peak_utilization() <= 1.0 + 1e-6);
//! sr_core::verify(&sched, &cube, &tfg)?; // contention-free, deadline-safe
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation_flow;
mod allocation_lp;
mod assign_paths;
mod assignment;
mod besteffort;
mod buckets;
mod compile;
mod damage;
mod diagnosis;
mod error;
mod execute;
mod export;
mod interval_sched;
mod intervals;
mod optimize;
mod peak_bound;
mod render;
mod repack;
mod replay;
mod subsets;
mod summary;
mod switching;
#[cfg(test)]
mod testkit;
mod utilization;
mod verify;

pub use allocation_flow::{
    allocate_intervals_flow, allocate_intervals_pinned_reserved_flow, FlowAllocStats, FlowWorkspace,
};
pub use allocation_lp::{
    allocate_intervals, allocate_intervals_partitioned, allocate_intervals_pinned_reserved,
    allocate_intervals_stats, AllocBasisCache, AllocationStats, IntervalAllocation,
};
pub use assign_paths::{
    assign_paths, assign_paths_partial, assign_paths_partitioned, assign_paths_pooled,
    band_partition, band_partition_topo, AssignPathsConfig, AssignPathsOutcome, PathPool,
};
pub use assignment::PathAssignment;
pub use besteffort::{admit_best_effort, BestEffortGrant};
pub use compile::{
    compile, compile_diagnosed, compile_with_recorder, AllocEngine, CompileConfig, Schedule,
};
pub use damage::{analyze_damage, DamageReport};
pub use diagnosis::{
    bottlenecks, diagnose_infeasible_subset, Bottleneck, CandidateOutcome, CandidateRecord,
    Diagnosis, SaturatedRow, SubsetDiagnosis,
};
pub use error::{CompileError, VerifyError};
pub use execute::{execute, ExecuteError, ExecutedInvocation, Execution};
pub use interval_sched::{
    schedule_intervals, schedule_intervals_guarded, schedule_intervals_guarded_stats,
    IntervalSchedStats, IntervalSchedule, Slice,
};
pub use intervals::{ActivityMatrix, Intervals};
pub use optimize::{co_design, find_min_period, CoDesignResult, MinPeriodResult};
pub use peak_bound::{BoundFloor, PeakCertificate};
pub use repack::{
    cmp_span, coalesce, free_within, intersect, pack_affected, reallocate_pinned, ReallocAttempt,
    ReallocAttemptOutcome, Repacked,
};
pub use replay::replay_events;
pub use subsets::related_subsets;
pub use summary::ScheduleSummary;
pub use switching::{
    build_node_schedules, node_schedules_of, segments_of, Command, Connection, NodeSchedule, Port,
    Segment,
};
pub use utilization::{Hotspot, UtilizationMap};
pub use verify::{verify, verify_with_faults};

/// Comparison tolerance for schedule times, in µs.
///
/// Coarser than the TFG-level tolerance because values pass through the LP
/// solver.
pub const EPS: f64 = 1e-6;
