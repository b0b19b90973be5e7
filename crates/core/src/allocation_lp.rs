use sr_lp::{Basis, LpError, Problem, Relation, SolveStats, VarId};
use sr_tfg::{MessageId, TimeBounds};
use sr_topology::LinkId;

use crate::{ActivityMatrix, CompileError, Intervals, PathAssignment, EPS};

/// Work statistics from one [`allocate_intervals_stats`] pass: how much
/// LP machinery the message–interval allocation stage ground through.
///
/// Exact operation counts — deterministic for fixed inputs, so the compile
/// pipeline can report them independently of its thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocationStats {
    /// Simplex work summed over every subset LP.
    pub lp: SolveStats,
    /// Subset LPs solved (one per maximal related subset).
    pub lp_solves: u64,
    /// LP variables created across all subset LPs.
    pub vars: u64,
    /// LP constraints created across all subset LPs.
    pub constraints: u64,
}

/// Warm-start bases for the allocation subset LPs, keyed by subset
/// position.
///
/// Each maximal related subset solves one LP; along a candidate's
/// capacity-scale ladder the subset LPs are *structurally identical* — the
/// assignment, activity, intervals, and subsets are fixed, only the
/// capacity right-hand sides shrink — so the optimal basis of the previous
/// scale is a legal warm start for the next one ([`sr_lp::Problem::solve_warm`]).
/// The cache must be discarded whenever the assignment or subsets change
/// (i.e. across seeds); reusing it would still be *correct* (a mismatched
/// basis degrades to a cold solve) but would churn on misses.
#[derive(Debug, Clone, Default)]
pub struct AllocBasisCache {
    bases: Vec<Option<Basis>>,
}

impl AllocBasisCache {
    /// An empty cache (every subset LP starts cold).
    pub fn new() -> Self {
        AllocBasisCache::default()
    }

    /// Number of subset slots currently holding a reusable basis.
    pub fn warm_slots(&self) -> usize {
        self.bases.iter().filter(|b| b.is_some()).count()
    }

    fn slot(&mut self, si: usize) -> &mut Option<Basis> {
        if self.bases.len() <= si {
            self.bases.resize(si + 1, None);
        }
        &mut self.bases[si]
    }
}

/// The message–interval allocation matrix `P = [p_ik]` (paper §5.2):
/// `p_ik` is the time message `M_i` transmits during interval `A_k`.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalAllocation {
    /// `p[message][interval]`, µs.
    p: Vec<Vec<f64>>,
}

impl IntervalAllocation {
    /// Crate-internal constructor from an explicit matrix (tests, ablations).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn from_matrix(p: Vec<Vec<f64>>) -> Self {
        IntervalAllocation { p }
    }

    /// Time allocated to `m` in interval `k`, µs.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn allocated(&self, m: MessageId, k: usize) -> f64 {
        self.p[m.index()][k]
    }

    /// The allocation row of one message.
    pub fn row(&self, m: MessageId) -> &[f64] {
        &self.p[m.index()]
    }

    /// Total time allocated to `m` across all intervals, µs.
    pub fn total(&self, m: MessageId) -> f64 {
        self.p[m.index()].iter().sum()
    }

    /// Messages with a positive allocation in interval `k`.
    pub fn messages_in(&self, k: usize) -> Vec<MessageId> {
        (0..self.p.len())
            .filter(|&i| self.p[i][k] > EPS)
            .map(MessageId)
            .collect()
    }

    /// Number of message rows.
    pub fn num_messages(&self) -> usize {
        self.p.len()
    }
}

/// Solves the **message–interval allocation** problem (paper §5.2,
/// constraints (3) and (4)), one LP per maximal related subset.
///
/// For every message `M_i` of a subset and every interval `A_k` it is active
/// in, a variable `x_ik ≥ 0` gives its transmission time in that interval:
///
/// * constraint (3): `Σ_k x_ik = duration(M_i)` — the whole message is sent;
/// * constraint (4): for every link and interval,
///   `Σ_{messages on the link} x_ik ≤ capacity_scale · |A_k|` — no link is
///   oversubscribed in any interval.
///
/// `capacity_scale` is normally 1; the compile pipeline lowers it as
/// *feedback* (the paper's §7 suggestion) when interval scheduling
/// subsequently fails, trading slack for schedulability.
///
/// # Errors
///
/// [`CompileError::AllocationInfeasible`] when a subset has no feasible
/// split; [`CompileError::Lp`] on solver trouble.
pub fn allocate_intervals(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    capacity_scale: f64,
) -> Result<IntervalAllocation, CompileError> {
    allocate_intervals_stats(
        assignment,
        bounds,
        activity,
        intervals,
        subsets,
        capacity_scale,
        &mut AllocationStats::default(),
    )
}

/// [`allocate_intervals`] that also accumulates LP work counters into
/// `stats` (identical allocation either way).
///
/// # Errors
///
/// As [`allocate_intervals`]. `stats` reflects the work done up to a
/// failure too.
#[allow(clippy::too_many_arguments)]
pub fn allocate_intervals_stats(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    capacity_scale: f64,
    stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    let mut p = vec![vec![0.0; intervals.len()]; assignment.len()];

    for subset in subsets {
        solve_subset_capacities(
            assignment,
            bounds,
            activity,
            subset,
            |_, k| capacity_scale * intervals.length(k),
            &mut p,
            None,
            stats,
        )?;
    }
    Ok(IntervalAllocation { p })
}

/// [`allocate_intervals_stats`] with warm-started subset LPs.
///
/// Each subset LP warm-starts from the basis stored in `cache` at its
/// subset position and deposits its own optimal basis back, so a caller
/// walking a capacity-scale ladder (same assignment and subsets, shrinking
/// capacities) skips phase 1 whenever the previous scale's split still fits
/// — for these zero-objective feasibility systems that is the entire solve.
///
/// The *feasibility verdict* is identical to the cold path (it is a
/// property of the LP, not the start point), but a warm solve may land on a
/// different optimal vertex than a cold one, so the allocation matrix can
/// differ. Callers that promise cold-identical output (the compile walk's
/// accepted candidate) must re-derive it cold — see
/// `CompileConfig::warm_start`.
///
/// # Errors
///
/// As [`allocate_intervals`].
#[allow(clippy::too_many_arguments)]
pub fn allocate_intervals_warm(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    capacity_scale: f64,
    cache: &mut AllocBasisCache,
    stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    let mut p = vec![vec![0.0; intervals.len()]; assignment.len()];

    for (si, subset) in subsets.iter().enumerate() {
        solve_subset_capacities(
            assignment,
            bounds,
            activity,
            subset,
            |_, k| capacity_scale * intervals.length(k),
            &mut p,
            Some(cache.slot(si)),
            stats,
        )?;
    }
    Ok(IntervalAllocation { p })
}

/// Re-solves the message–interval allocation for `affected` messages only,
/// treating every other message's existing allocation as **pinned**: their
/// rows are copied from `pinned` bit-identically, and their per-link
/// per-interval usage is subtracted from the capacity available to the LP
/// (constraint (4) becomes `Σ x_ik ≤ capacity_scale·|A_k| − reserved_lk`).
///
/// This is the allocation stage of incremental repair and of multi-tenant
/// admission: after `AssignPaths` re-routes the affected messages, only
/// their rows are re-derived — the unaffected traffic keeps its exact
/// split, so downstream slices and Ω entries for it never move.
///
/// On top of the capacity consumed by the pinned rows, `reserved[link][k]`
/// µs of interval `k` on `link` are unavailable to the LP (clamped at
/// zero): **external reservations** describe traffic that lives *outside*
/// this allocation problem entirely (other tenants' schedules folded onto
/// this tenant's interval grid), where the pinned path describes rows of
/// the *same* matrix. Entries of `reserved` must have one value per
/// interval; links absent from the map reserve nothing.
///
/// Rows of messages whose (possibly updated) path assignment has no links —
/// local messages, and dropped/demoted messages encoded with trivial paths —
/// are zeroed rather than pinned: they carry no network traffic.
///
/// `subsets` must be the maximal related subsets of the *new* `assignment`;
/// subsets containing no affected message are skipped (their members are
/// pinned anyway). `cache` is optional: a ladder that walks the same
/// affected-message allocation across shrinking capacity scales passes
/// `Some`, and the previous rung's bases warm-start the next — same
/// verdicts as the cold path; the affected rows' split may sit on a
/// different optimal vertex.
///
/// # Errors
///
/// [`CompileError::AllocationInfeasible`] when some affected message cannot
/// fit in the capacity left by the pinned traffic; [`CompileError::Lp`] on
/// solver trouble.
///
/// # Panics
///
/// Panics if `pinned` has a different message count than `assignment`, or
/// if a `reserved` row's length is not `intervals.len()`.
#[allow(clippy::too_many_arguments)]
pub fn allocate_intervals_pinned_reserved(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    affected: &[MessageId],
    pinned: &IntervalAllocation,
    reserved: &std::collections::HashMap<LinkId, Vec<f64>>,
    capacity_scale: f64,
    cache: Option<&mut AllocBasisCache>,
    stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    for row in reserved.values() {
        assert_eq!(
            row.len(),
            intervals.len(),
            "external reservation row does not cover every interval"
        );
    }
    allocate_intervals_pinned_impl(
        assignment,
        bounds,
        activity,
        intervals,
        subsets,
        affected,
        pinned,
        Some(reserved),
        capacity_scale,
        cache,
        stats,
    )
}

/// Partitioned message–interval allocation for large fabrics: subsets whose
/// members' paths stay inside one node partition (`part_of[node] = part`)
/// are solved concurrently via [`sr_par::par_map`], then the remaining
/// **boundary** subsets are solved serially with every interior row pinned
/// ([`allocate_intervals_pinned_reserved`]'s residual-capacity pass).
///
/// Maximal related subsets never couple through a `(link, interval)` pair,
/// so the parallel interior solves and the pinned boundary pass produce the
/// same rows — and the same feasibility verdict — as the serial
/// [`allocate_intervals`]; only the wall-clock changes. The result and the
/// `stats` counters are deterministic and independent of `threads` (each
/// subset's LP is solved exactly once, and counters are folded in subset
/// order).
///
/// # Errors
///
/// As [`allocate_intervals`]. With several infeasible subsets the smallest
/// *interior* subset index wins (boundary subsets are only reached when
/// every interior one is feasible), which can differ from the serial
/// walk's report; the feasibility verdict itself is always identical.
///
/// # Panics
///
/// Panics if `part_of` does not cover every node on some member's path.
#[allow(clippy::too_many_arguments)]
pub fn allocate_intervals_partitioned(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    capacity_scale: f64,
    part_of: &[usize],
    threads: usize,
    stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    // A subset is interior when every node of every member's path sits in
    // one part; anything else is boundary traffic.
    let subset_part = |subset: &[MessageId]| -> Option<usize> {
        let first = subset.first()?;
        let home = part_of[assignment.path(*first).source().index()];
        subset
            .iter()
            .all(|&m| {
                assignment
                    .path(m)
                    .nodes()
                    .iter()
                    .all(|n| part_of[n.index()] == home)
            })
            .then_some(home)
    };
    let interior: Vec<usize> = (0..subsets.len())
        .filter(|&si| subset_part(&subsets[si]).is_some())
        .collect();

    let mut p = vec![vec![0.0; intervals.len()]; assignment.len()];
    let solved = sr_par::par_map(&interior, threads, |&si| {
        let mut local = vec![vec![0.0; intervals.len()]; assignment.len()];
        let mut local_stats = AllocationStats::default();
        solve_subset_capacities(
            assignment,
            bounds,
            activity,
            &subsets[si],
            |_, k| capacity_scale * intervals.length(k),
            &mut local,
            None,
            &mut local_stats,
        )
        .map(|()| {
            let rows: Vec<(usize, Vec<f64>)> = subsets[si]
                .iter()
                .map(|&m| (m.index(), std::mem::take(&mut local[m.index()])))
                .collect();
            (rows, local_stats)
        })
    });
    for result in solved {
        let (rows, local_stats) = result?;
        for (mi, row) in rows {
            p[mi] = row;
        }
        stats.lp.merge(&local_stats.lp);
        stats.lp_solves += local_stats.lp_solves;
        stats.vars += local_stats.vars;
        stats.constraints += local_stats.constraints;
    }

    let boundary: Vec<MessageId> = (0..subsets.len())
        .filter(|&si| subset_part(&subsets[si]).is_none())
        .flat_map(|si| subsets[si].iter().copied())
        .collect();
    if boundary.is_empty() {
        return Ok(IntervalAllocation { p });
    }
    allocate_intervals_pinned_impl(
        assignment,
        bounds,
        activity,
        intervals,
        subsets,
        &boundary,
        &IntervalAllocation { p },
        None,
        capacity_scale,
        None,
        stats,
    )
}

#[allow(clippy::too_many_arguments)]
fn allocate_intervals_pinned_impl(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    affected: &[MessageId],
    pinned: &IntervalAllocation,
    external: Option<&std::collections::HashMap<LinkId, Vec<f64>>>,
    capacity_scale: f64,
    mut cache: Option<&mut AllocBasisCache>,
    stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    assert_eq!(
        pinned.num_messages(),
        assignment.len(),
        "pinned allocation does not match the assignment"
    );
    let is_affected: Vec<bool> = {
        let mut v = vec![false; assignment.len()];
        for &m in affected {
            v[m.index()] = true;
        }
        v
    };

    // Start from the pinned matrix; blank what must be re-derived (affected
    // rows) or cannot carry traffic (link-less rows).
    let mut p = vec![vec![0.0; intervals.len()]; assignment.len()];
    for i in 0..assignment.len() {
        if !is_affected[i] && !assignment.links(MessageId(i)).is_empty() {
            p[i].clone_from_slice(pinned.row(MessageId(i)));
        }
    }

    // Capacity already consumed by pinned traffic, per link per interval.
    let mut reserved: std::collections::HashMap<LinkId, Vec<f64>> =
        std::collections::HashMap::new();
    for i in 0..assignment.len() {
        let m = MessageId(i);
        if is_affected[i] {
            continue;
        }
        for &l in assignment.links(m) {
            let row = reserved
                .entry(l)
                .or_insert_with(|| vec![0.0; intervals.len()]);
            for (k, r) in row.iter_mut().enumerate() {
                *r += p[i][k];
            }
        }
    }

    for (si, subset) in subsets.iter().enumerate() {
        let members: Vec<MessageId> = subset
            .iter()
            .copied()
            .filter(|m| is_affected[m.index()])
            .collect();
        if members.is_empty() {
            continue;
        }
        solve_subset_capacities(
            assignment,
            bounds,
            activity,
            &members,
            |link, k| {
                let used = reserved.get(&link).map_or(0.0, |r| r[k])
                    + external.and_then(|e| e.get(&link)).map_or(0.0, |r| r[k]);
                (capacity_scale * intervals.length(k) - used).max(0.0)
            },
            &mut p,
            cache.as_deref_mut().map(|c| c.slot(si)),
            stats,
        )?;
    }
    Ok(IntervalAllocation { p })
}

/// One subset LP built in a fixed row layout: the `subset.len()` equality
/// rows of constraint (3) in subset order, then the capacity rows of
/// constraint (4) in ascending (link, interval) order — `cap_rows[i]` names
/// the `(link, interval)` behind equality-row-count + `i`. The explainer
/// ([`crate::diagnose_infeasible_subset`]) relies on this layout to map LP
/// row diagnostics back to schedule objects, so it is built here, next to
/// the solver that consumes it, and nowhere else.
pub(crate) struct SubsetLp {
    pub(crate) lp: Problem,
    pub(crate) actives: Vec<Vec<usize>>,
    pub(crate) var_of: std::collections::HashMap<(usize, usize), VarId>,
    pub(crate) cap_rows: Vec<(LinkId, usize)>,
}

pub(crate) fn build_subset_lp<C>(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    subset: &[MessageId],
    capacity: C,
) -> SubsetLp
where
    C: Fn(LinkId, usize) -> f64,
{
    let mut lp = Problem::minimize();
    // Per-member active-interval lists, computed once (`active_intervals`
    // walks the whole activity row, so repeated calls are O(K) each).
    let actives: Vec<Vec<usize>> = subset
        .iter()
        .map(|&m| activity.active_intervals(m))
        .collect();
    // var_of[(message position in subset, interval)] -> LP variable.
    let mut var_of: std::collections::HashMap<(usize, usize), VarId> =
        std::collections::HashMap::new();

    for (mi, ks) in actives.iter().enumerate() {
        for &k in ks {
            // Zero objective: this is a feasibility system.
            var_of.insert((mi, k), lp.add_var(0.0));
        }
    }

    // (3): total allocation equals the transmission time.
    for (mi, &m) in subset.iter().enumerate() {
        let terms: Vec<(VarId, f64)> = actives[mi]
            .iter()
            .map(|&k| (var_of[&(mi, k)], 1.0))
            .collect();
        lp.add_constraint(&terms, Relation::Eq, bounds.window(m).duration())
            .expect("variables are registered");
    }

    // (4): per-link per-interval capacity, built from sparse per-link
    // interval maps: only the links this subset's paths touch carry state,
    // and each link visits only the intervals where one of its messages is
    // active. The constraints emitted — and their ascending link-then-
    // interval order — are identical to a dense links × K scan, which only
    // ever produced empty rows elsewhere.
    let mut on_link: std::collections::BTreeMap<LinkId, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (mi, &m) in subset.iter().enumerate() {
        for &l in assignment.links(m) {
            on_link.entry(l).or_default().push(mi);
        }
    }
    let mut cap_rows: Vec<(LinkId, usize)> = Vec::new();
    let mut link_ks: Vec<usize> = Vec::new();
    for (&link, members) in &on_link {
        link_ks.clear();
        for &mi in members {
            link_ks.extend_from_slice(&actives[mi]);
        }
        link_ks.sort_unstable();
        link_ks.dedup();
        for &k in &link_ks {
            let terms: Vec<(VarId, f64)> = members
                .iter()
                .filter_map(|&mi| var_of.get(&(mi, k)).map(|&v| (v, 1.0)))
                .collect();
            lp.add_constraint(&terms, Relation::Le, capacity(link, k))
                .expect("variables are registered");
            cap_rows.push((link, k));
        }
    }
    SubsetLp {
        lp,
        actives,
        var_of,
        cap_rows,
    }
}

/// One subset LP with an arbitrary per-link per-interval capacity function
/// (full scaled interval length for a fresh compile, residual capacity
/// after pinned traffic for incremental repair).
///
/// When `warm` is supplied the LP warm-starts from the slot's basis and the
/// new optimal basis is stored back into it; `None` keeps the cold path
/// (bit-identical to the pre-warm-start implementation).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_subset_capacities<C>(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    subset: &[MessageId],
    capacity: C,
    p: &mut [Vec<f64>],
    warm: Option<&mut Option<Basis>>,
    stats: &mut AllocationStats,
) -> Result<(), CompileError>
where
    C: Fn(LinkId, usize) -> f64,
{
    let SubsetLp {
        lp,
        actives,
        var_of,
        cap_rows: _,
    } = build_subset_lp(assignment, bounds, activity, subset, capacity);

    stats.lp_solves += 1;
    stats.vars += lp.num_vars() as u64;
    stats.constraints += lp.num_constraints() as u64;
    let solved = match warm {
        Some(slot) => lp.solve_warm(slot.as_ref()).map(|(s, basis, st)| {
            *slot = basis;
            (s, st)
        }),
        None => lp.solve_with_stats(),
    };
    let sol = match solved {
        Ok((s, solve_stats)) => {
            stats.lp.merge(&solve_stats);
            s
        }
        Err(LpError::Infeasible) => {
            return Err(CompileError::AllocationInfeasible {
                subset: subset.to_vec(),
            })
        }
        Err(e) => return Err(CompileError::Lp(e)),
    };

    for (mi, &m) in subset.iter().enumerate() {
        for &k in &actives[mi] {
            let v = sol.value(var_of[&(mi, k)]);
            if v > EPS {
                p[m.index()][k] = v;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::related_subsets;
    use sr_mapping::Allocation;
    use sr_tfg::{assign_time_bounds, TfgBuilder, Timing, WindowPolicy};
    use sr_topology::{GeneralizedHypercube, NodeId};

    struct Fixture {
        assignment: PathAssignment,
        bounds: TimeBounds,
        activity: ActivityMatrix,
        intervals: Intervals,
        subsets: Vec<Vec<MessageId>>,
    }

    /// Two 10 µs messages sharing the single link of a 2-node cube, both
    /// active over the whole 50 µs frame.
    fn shared_link(period: f64, bytes: u64) -> Fixture {
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 500);
        let t1 = b.task("t1", 500);
        let t2 = b.task("t2", 500);
        b.message("m0", t0, t1, bytes).unwrap();
        b.message("m1", t1, t2, bytes).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(vec![NodeId(0), NodeId(1), NodeId(0)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let assignment = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let subsets = related_subsets(&assignment, &activity);
        Fixture {
            assignment,
            bounds,
            activity,
            intervals,
            subsets,
        }
    }

    fn check_constraints(f: &Fixture, alloc: &IntervalAllocation, scale: f64) {
        // (3)
        for m in 0..f.assignment.len() {
            let m = MessageId(m);
            if f.assignment.links(m).is_empty() {
                continue;
            }
            assert!(
                (alloc.total(m) - f.bounds.window(m).duration()).abs() < 1e-6,
                "(3) violated for {m}: {} vs {}",
                alloc.total(m),
                f.bounds.window(m).duration()
            );
            // Allocation only where active.
            for k in 0..f.intervals.len() {
                if alloc.allocated(m, k) > EPS {
                    assert!(f.activity.is_active(m, k), "inactive allocation {m}@{k}");
                }
            }
        }
        // (4) for the single link 0.
        for k in 0..f.intervals.len() {
            let sum: f64 = (0..f.assignment.len())
                .filter(|&i| !f.assignment.links(MessageId(i)).is_empty())
                .map(|i| alloc.allocated(MessageId(i), k))
                .sum();
            assert!(
                sum <= scale * f.intervals.length(k) + 1e-6,
                "(4) violated in interval {k}: {sum}"
            );
        }
    }

    #[test]
    fn feasible_shared_link_allocation() {
        let f = shared_link(50.0, 640); // 10 µs each in a 50 µs frame
        let alloc = allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0,
        )
        .unwrap();
        check_constraints(&f, &alloc, 1.0);
    }

    #[test]
    fn infeasible_when_demand_exceeds_frame() {
        // Two 30 µs messages on one link active over a 50 µs frame: 60 > 50.
        let f = shared_link(50.0, 1920);
        let err = allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
    }

    #[test]
    fn capacity_scale_tightens() {
        // 20+20 µs over 50 µs fits at scale 1.0 but not at scale 0.5.
        let f = shared_link(50.0, 1280);
        assert!(allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0
        )
        .is_ok());
        let err = allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            0.5,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
    }

    #[test]
    fn multi_interval_split_respects_windows() {
        // Period 120 -> windows [50,100] and [110->fold 0? no: 110 fold
        // 110, window 50 wraps to [110,120]∪[0,40]].
        let f = shared_link(120.0, 640);
        let alloc = allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0,
        )
        .unwrap();
        check_constraints(&f, &alloc, 1.0);
    }

    #[test]
    fn pinned_reallocation_keeps_unaffected_rows_bit_identical() {
        let f = shared_link(50.0, 1280); // 20+20 µs: tight but feasible
        let full = allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0,
        )
        .unwrap();
        // Re-derive only message 1, pinning message 0.
        let repaired = allocate_intervals_pinned_reserved(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            &[MessageId(1)],
            &full,
            &std::collections::HashMap::new(),
            1.0,
            None,
            &mut AllocationStats::default(),
        )
        .unwrap();
        assert_eq!(repaired.row(MessageId(0)), full.row(MessageId(0)));
        check_constraints(&f, &repaired, 1.0);
    }

    #[test]
    fn pinned_reallocation_is_infeasible_when_residual_capacity_runs_out() {
        // 20+20 µs over a 50 µs frame fits; but squeeze the affected
        // message into capacity scale 0.5 while message 0 stays pinned at
        // its full-scale split: 25-20=5 µs of residual cannot carry 20 µs.
        let f = shared_link(50.0, 1280);
        let full = allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0,
        )
        .unwrap();
        let err = allocate_intervals_pinned_reserved(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            &[MessageId(1)],
            &full,
            &std::collections::HashMap::new(),
            0.5,
            None,
            &mut AllocationStats::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
    }

    #[test]
    fn local_messages_get_no_allocation() {
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 500);
        let t1 = b.task("t1", 500);
        b.message("m", t0, t1, 640).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(vec![NodeId(0), NodeId(0)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 60.0, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let pa = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let subsets = related_subsets(&pa, &activity);
        assert!(subsets.is_empty());
        let ia = allocate_intervals(&pa, &bounds, &activity, &intervals, &subsets, 1.0).unwrap();
        assert_eq!(ia.total(MessageId(0)), 0.0);
    }

    #[test]
    fn partitioned_allocation_matches_flat() {
        // A scattered DVB workload on a 4x4 torus yields several related
        // subsets, some confined to one node band and some crossing bands.
        let topo = sr_topology::Torus::new(&[4, 4]).unwrap();
        let tfg = sr_tfg::dvb_uniform(4);
        let timing = Timing::calibrated_dvb(128.0);
        let alloc = sr_mapping::random_distinct(&tfg, &topo, 7).unwrap();
        let period = timing.longest_task(&tfg) * 2.0;
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let assignment = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let subsets = related_subsets(&assignment, &activity);
        assert!(subsets.len() > 1, "fixture should have multiple subsets");

        let flat =
            allocate_intervals(&assignment, &bounds, &activity, &intervals, &subsets, 1.0).unwrap();
        let part_of = crate::band_partition(sr_topology::Topology::num_nodes(&topo), 4);
        for threads in [1, 4] {
            let mut stats = AllocationStats::default();
            let part = allocate_intervals_partitioned(
                &assignment,
                &bounds,
                &activity,
                &intervals,
                &subsets,
                1.0,
                &part_of,
                threads,
                &mut stats,
            )
            .unwrap();
            assert!(stats.lp_solves > 0);
            for m in 0..assignment.len() {
                let m = MessageId(m);
                assert_eq!(part.row(m), flat.row(m), "{m} differs at threads={threads}");
            }
        }
    }
}
