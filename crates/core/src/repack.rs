//! Shared **pinned re-allocation + idle-time packing** ladder.
//!
//! Two callers re-derive a few messages' rows against an otherwise frozen
//! schedule: `sr-fault::repair` (links disappeared, affected messages
//! re-routed) and `sr-serve` admission (messages arrived, every admitted
//! tenant's traffic frozen). Both walk the same capacity-scale ladder —
//! pinned allocation LP, then earliest-fit packing of the re-derived rows
//! into the idle time the frozen traffic leaves — so the ladder lives here,
//! in one place, and the callers cannot drift.
//!
//! The generalization over the original repair-only code is the
//! `external_busy` parameter: per-link spans occupied by traffic that is
//! *not* part of this allocation problem at all (other tenants' schedules).
//! Repair passes an empty map and gets the PR-3 behaviour bit-identically;
//! admission passes the daemon's link ledger.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sr_obs::Recorder;
use sr_tfg::MessageId;
use sr_topology::LinkId;

use crate::{
    allocate_intervals_pinned_reserved, allocate_intervals_pinned_reserved_flow, related_subsets,
    AllocBasisCache, AllocEngine, AllocationStats, CompileError, FlowAllocStats, FlowWorkspace,
    IntervalAllocation, PathAssignment, Schedule, Segment, EPS,
};

/// How one scale rung of [`reallocate_pinned`] ended.
#[derive(Debug, Clone)]
pub enum ReallocAttemptOutcome {
    /// The pinned allocation solved and the affected traffic packed.
    Succeeded,
    /// The pinned allocation LP was infeasible at this scale.
    AllocInfeasible(CompileError),
    /// Allocation succeeded but the affected traffic did not fit into the
    /// available idle time at this scale.
    PackFailed,
}

/// One consumed rung of the [`reallocate_pinned`] scale ladder.
#[derive(Debug, Clone)]
pub struct ReallocAttempt {
    /// Capacity scale of this attempt.
    pub scale: f64,
    /// How the attempt ended.
    pub outcome: ReallocAttemptOutcome,
}

/// A successful [`reallocate_pinned`] result.
#[derive(Debug, Clone)]
pub struct Repacked {
    /// The full allocation matrix: pinned rows bit-identical, affected rows
    /// re-derived.
    pub allocation: IntervalAllocation,
    /// The new timeline ([`pack_affected`]): the retained segments as they
    /// were and the affected traffic packed into idle time, sorted by start
    /// and then message.
    pub segments: Vec<Segment>,
    /// The capacity scale that succeeded.
    pub scale: f64,
}

/// Walks the capacity-scale ladder for an incremental re-allocation: at
/// each scale, re-solve the `affected` messages' rows with every other row
/// of `schedule` pinned ([`allocate_intervals_pinned_reserved`]), then pack
/// the re-derived rows into the idle time left by the retained segments and
/// `external_busy` ([`pack_affected`]). The first packable scale wins.
///
/// `assignment` is the (possibly re-routed) path assignment the new rows
/// are derived for; `excluded` messages contribute neither retained
/// segments nor new traffic (dropped/demoted messages with trivial paths).
/// `external_busy` spans additionally reduce both the LP capacities (by
/// interval overlap) and the packable free time; an empty map reproduces
/// the fault-repair behaviour exactly.
///
/// Every attempt is appended to `attempts` (for diagnosis rendering), and
/// counters are emitted under `prefix`: `<prefix>.candidates` per rung,
/// `<prefix>.alloc_lp.{solves,pivots,warm_hits,warm_misses}`, and
/// `<prefix>.alloc_flow.{solves,augmentations,dijkstra_pops,`
/// `potential_reuse_hits,fallbacks}` (always emitted — zero under the
/// simplex engine — so the namespace is pinned for the metrics gates),
/// plus `<prefix>.alloc_infeasible`, `<prefix>.pack_failed`.
///
/// `engine` selects the pinned-allocation backend. Under
/// [`AllocEngine::Simplex`] the subset LPs warm-start from `cache` down
/// the ladder (structurally identical LPs, shrinking capacities), and
/// across calls when the assignment and subsets are unchanged — the serve
/// daemon's repeat-admission fast path. Under [`AllocEngine::Flow`] the
/// rows come from [`allocate_intervals_pinned_reserved_flow`] and
/// `flow_ws` is the workspace reused across rungs and calls (the flow-side
/// mirror of `cache`; `cache` then only serves fallback solves).
///
/// Returns `None` when no scale yields a packable allocation. An empty
/// `scales` tries `1.0` alone.
#[allow(clippy::too_many_arguments)]
pub fn reallocate_pinned(
    schedule: &Schedule,
    assignment: &PathAssignment,
    affected: &[MessageId],
    excluded: &BTreeSet<MessageId>,
    external_busy: &BTreeMap<LinkId, Vec<(f64, f64)>>,
    scales: &[f64],
    engine: AllocEngine,
    cache: &mut AllocBasisCache,
    flow_ws: &mut FlowWorkspace,
    prefix: &str,
    rec: &dyn Recorder,
    attempts: &mut Vec<ReallocAttempt>,
) -> Option<Repacked> {
    let intervals = schedule.intervals();
    let subsets = related_subsets(assignment, schedule.activity());
    let scales: &[f64] = if scales.is_empty() { &[1.0] } else { scales };

    // External spans folded onto this problem's interval grid: the overlap
    // of each span with each interval is capacity the LP must not hand out.
    // No guard is added here — the LP reservation is guidance, the packing
    // stage is the authoritative (guard-aware) feasibility check, and the
    // scale ladder absorbs the difference.
    let reserved: HashMap<LinkId, Vec<f64>> = external_busy
        .iter()
        .map(|(&l, spans)| {
            let row: Vec<f64> = (0..intervals.len())
                .map(|k| {
                    let (a, b) = intervals.bounds(k);
                    spans
                        .iter()
                        .map(|&(s, e)| (e.min(b) - s.max(a)).max(0.0))
                        .sum()
                })
                .collect();
            (l, row)
        })
        .collect();

    for &scale in scales {
        rec.add(&format!("{prefix}.candidates"), 1);
        let mut alloc_stats = AllocationStats::default();
        let mut flow_stats = FlowAllocStats::default();
        let allocated = match engine {
            AllocEngine::Simplex => allocate_intervals_pinned_reserved(
                assignment,
                schedule.bounds(),
                schedule.activity(),
                intervals,
                &subsets,
                affected,
                schedule.allocation(),
                &reserved,
                scale,
                Some(cache),
                &mut alloc_stats,
            ),
            AllocEngine::Flow => allocate_intervals_pinned_reserved_flow(
                assignment,
                schedule.bounds(),
                schedule.activity(),
                intervals,
                &subsets,
                affected,
                schedule.allocation(),
                &reserved,
                scale,
                flow_ws,
                &mut flow_stats,
                &mut alloc_stats,
            ),
        };
        rec.add(&format!("{prefix}.alloc_lp.solves"), alloc_stats.lp_solves);
        rec.add(&format!("{prefix}.alloc_lp.pivots"), alloc_stats.lp.pivots);
        rec.add(
            &format!("{prefix}.alloc_lp.warm_hits"),
            alloc_stats.lp.warm_hits,
        );
        rec.add(
            &format!("{prefix}.alloc_lp.warm_misses"),
            alloc_stats.lp.warm_misses,
        );
        // Flow-kernel work, emitted unconditionally (zeros under the
        // simplex engine) so the counter namespace is engine-independent
        // and the metrics gates pin it either way.
        rec.add(&format!("{prefix}.alloc_flow.solves"), flow_stats.solves);
        rec.add(
            &format!("{prefix}.alloc_flow.augmentations"),
            flow_stats.augmentations,
        );
        rec.add(
            &format!("{prefix}.alloc_flow.dijkstra_pops"),
            flow_stats.dijkstra_pops,
        );
        rec.add(
            &format!("{prefix}.alloc_flow.potential_reuse_hits"),
            flow_stats.potential_reuse_hits,
        );
        rec.add(
            &format!("{prefix}.alloc_flow.fallbacks"),
            flow_stats.fallbacks,
        );
        let allocation = match allocated {
            Ok(a) => a,
            Err(e) => {
                rec.add(&format!("{prefix}.alloc_infeasible"), 1);
                attempts.push(ReallocAttempt {
                    scale,
                    outcome: ReallocAttemptOutcome::AllocInfeasible(e),
                });
                continue;
            }
        };
        if let Some(segments) = pack_affected(
            schedule,
            assignment,
            &allocation,
            affected,
            excluded,
            external_busy,
        ) {
            attempts.push(ReallocAttempt {
                scale,
                outcome: ReallocAttemptOutcome::Succeeded,
            });
            return Some(Repacked {
                allocation,
                segments,
                scale,
            });
        }
        rec.add(&format!("{prefix}.pack_failed"), 1);
        attempts.push(ReallocAttempt {
            scale,
            outcome: ReallocAttemptOutcome::PackFailed,
        });
    }
    None
}

/// Packs the affected messages' allocations into the idle time the
/// retained segments and `external_busy` leave on their links, earliest-fit
/// with preemption, and returns the new timeline.
///
/// Every segment of the original schedule whose message is neither affected
/// nor excluded survives as it is (so retained messages' segments are
/// bit-identical); the affected traffic is placed into per-link free spans
/// separated from existing traffic by the schedule's guard time, one
/// segment per placed chunk — the one-message slices of this packing,
/// which live only here. The result is sorted by start and then message,
/// as [`crate::segments_of`] sorts. `None` when some message's
/// allocation does not fit — the caller then tightens the allocation
/// scale.
pub fn pack_affected(
    schedule: &Schedule,
    assignment: &PathAssignment,
    allocation: &IntervalAllocation,
    affected: &[MessageId],
    excluded: &BTreeSet<MessageId>,
    external_busy: &BTreeMap<LinkId, Vec<(f64, f64)>>,
) -> Option<Vec<Segment>> {
    let intervals = schedule.intervals();
    let guard = schedule.guard_time();
    let moved: BTreeSet<MessageId> = affected
        .iter()
        .copied()
        .chain(excluded.iter().copied())
        .collect();

    // Retained segments, moved messages filtered out.
    let mut segments: Vec<Segment> = schedule
        .segments()
        .iter()
        .filter(|seg| !moved.contains(&seg.message))
        .copied()
        .collect();

    // Busy spans per link: the external ledger, plus the retained segments.
    let mut busy: HashMap<LinkId, Vec<(f64, f64)>> = external_busy
        .iter()
        .map(|(&l, spans)| (l, spans.clone()))
        .collect();
    for seg in &segments {
        for &l in assignment.links(seg.message) {
            busy.entry(l).or_default().push((seg.start, seg.end));
        }
    }

    let mut ordered = affected.to_vec();
    ordered.sort_unstable();
    for &m in &ordered {
        let links = assignment.links(m);
        for k in 0..intervals.len() {
            let mut need = allocation.allocated(m, k);
            if need <= EPS {
                continue;
            }
            let (a, b) = intervals.bounds(k);
            let mut free = vec![(a, b)];
            for &l in links {
                let spans = busy.entry(l).or_default();
                free = intersect(&free, &free_within(spans, a, b, guard));
                if free.is_empty() {
                    break;
                }
            }
            let placed_from = segments.len();
            for &(s, e) in &free {
                if need <= EPS {
                    break;
                }
                let chunk = (e - s).min(need);
                if chunk <= EPS {
                    continue;
                }
                segments.push(Segment {
                    message: m,
                    start: s,
                    end: s + chunk,
                });
                need -= chunk;
            }
            if need > EPS {
                return None; // does not fit at this allocation scale
            }
            for seg in &segments[placed_from..] {
                for &l in links {
                    busy.entry(l).or_default().push((seg.start, seg.end));
                }
            }
        }
    }

    segments.sort_by(|x, y| {
        x.start
            .total_cmp(&y.start)
            .then_with(|| x.message.cmp(&y.message))
    });
    Some(segments)
}

/// The sub-spans of `[a, b]` at least `guard` away from every busy span.
/// Sorts `busy` in place (by start) as a side effect.
pub fn free_within(busy: &mut [(f64, f64)], a: f64, b: f64, guard: f64) -> Vec<(f64, f64)> {
    busy.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out = Vec::new();
    let mut cursor = a;
    for &(s, e) in busy.iter() {
        let (s, e) = (s - guard, e + guard);
        if e <= cursor + EPS {
            continue;
        }
        if s >= b - EPS {
            break;
        }
        if s - cursor > EPS {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
        if cursor >= b - EPS {
            break;
        }
    }
    if b - cursor > EPS {
        out.push((cursor, b));
    }
    out
}

/// The order of a busy row: by start, then end, bit-exact.
pub fn cmp_span(a: &(f64, f64), b: &(f64, f64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
}

/// Merges overlapping or abutting (to within `EPS`) spans of a list sorted
/// by start, in place.
pub fn coalesce(spans: &mut Vec<(f64, f64)>) {
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for &(s, e) in spans.iter() {
        match out.last_mut() {
            Some(last) if s <= last.1 + EPS => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    *spans = out;
}

/// Intersects two ascending disjoint span lists.
pub fn intersect(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e - s > EPS {
            out.push((s, e));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_within_respects_guard() {
        let mut busy = vec![(40.0, 50.0), (10.0, 20.0)];
        let free = free_within(&mut busy, 0.0, 100.0, 2.0);
        assert_eq!(free, vec![(0.0, 8.0), (22.0, 38.0), (52.0, 100.0)]);
    }

    #[test]
    fn free_within_empty_busy_is_whole_window() {
        let free = free_within(&mut [], 5.0, 30.0, 1.0);
        assert_eq!(free, vec![(5.0, 30.0)]);
    }

    #[test]
    fn intersect_two_pointer_walk() {
        let a = [(0.0, 10.0), (20.0, 30.0)];
        let b = [(5.0, 25.0)];
        assert_eq!(intersect(&a, &b), vec![(5.0, 10.0), (20.0, 25.0)]);
    }
}
