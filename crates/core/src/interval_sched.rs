use sr_lp::{Problem, Relation, SolveStats, VarId};
use sr_tfg::MessageId;

use crate::{CompileError, IntervalAllocation, Intervals, PathAssignment, EPS};

/// Work counters for one interval-scheduling pass (paper §5.3), aggregated
/// over every (interval, related-subset) LP the pass solved. Deterministic
/// for a fixed problem: independent of thread count and wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalSchedStats {
    /// Merged simplex counters across all subset-interval LPs.
    pub lp: SolveStats,
    /// Number of subset-interval LPs solved (singleton fast paths excluded).
    pub lp_solves: u64,
    /// Link-feasible sets enumerated across all LPs (LP variables).
    pub feasible_sets: u64,
    /// Flat-arena cells written by the independent-set enumeration
    /// (`set_data` traffic): total membership entries across all sets.
    pub arena_cells: u64,
    /// Subset-intervals with exactly one active message, scheduled without
    /// enumeration or an LP.
    pub singleton_fast_paths: u64,
}

/// A timed transmission of one **link-feasible set**: every listed message
/// transmits simultaneously for `[start, start + duration]` (paper Def. 5.5
/// — no two members share a link, so all paths are simultaneously clear).
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// The link-feasible set, ascending message ids.
    pub messages: Vec<MessageId>,
    /// Absolute start within the period frame, µs.
    pub start: f64,
    /// Transmission time, µs.
    pub duration: f64,
}

impl Slice {
    /// Absolute end of the slice, µs.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// The schedule of one interval: slices laid end to end from the interval
/// start (per related subset; slices of link-disjoint subsets may overlap in
/// time).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSchedule {
    /// Interval index into [`Intervals`].
    pub interval: usize,
    /// Timed link-feasible-set transmissions.
    pub slices: Vec<Slice>,
}

/// Solves **interval scheduling** (paper §5.3) for every interval: preemptive
/// scheduling of messages that each require *all* their links simultaneously,
/// following the \[BDW86\] formulation.
///
/// Per interval and related subset, the messages with positive allocation
/// form a conflict graph (edge = shared link). Every independent set is a
/// *link-feasible set* `Q^f_j`; a variable `y_j` gives the time the whole
/// set transmits simultaneously, and the LP minimizes `Σ y_j` subject to
/// each message receiving exactly its allocated time. If the minimum exceeds
/// the interval length the interval is unschedulable.
///
/// # Errors
///
/// * [`CompileError::IntervalUnschedulable`] — minimal schedule longer than
///   the interval;
/// * [`CompileError::TooManyFeasibleSets`] — independent-set enumeration
///   exceeded `max_sets`;
/// * [`CompileError::Lp`] — solver trouble.
pub fn schedule_intervals(
    assignment: &PathAssignment,
    allocation: &IntervalAllocation,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    max_sets: usize,
) -> Result<Vec<IntervalSchedule>, CompileError> {
    schedule_intervals_guarded(assignment, allocation, intervals, subsets, max_sets, 0.0)
}

/// [`schedule_intervals`] with a **guard time** before every slice: the
/// paper's §7 clock-skew margin ("a time interval equal to or greater than
/// twice the maximum difference between two clocks could be allowed to
/// elapse before starting transmission"). Each slice is preceded by
/// `guard` µs of reserved idle time on its links so every CP along the path
/// has provably switched before data flows.
///
/// # Errors
///
/// As [`schedule_intervals`]; guards count toward the interval-length
/// budget, so a positive guard can make an otherwise schedulable interval
/// fail.
pub fn schedule_intervals_guarded(
    assignment: &PathAssignment,
    allocation: &IntervalAllocation,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    max_sets: usize,
    guard: f64,
) -> Result<Vec<IntervalSchedule>, CompileError> {
    let mut stats = IntervalSchedStats::default();
    schedule_intervals_guarded_stats(
        assignment, allocation, intervals, subsets, max_sets, guard, &mut stats,
    )
}

/// [`schedule_intervals_guarded`] that additionally accumulates work
/// counters into `stats`. On error, `stats` reflects the work done up to
/// the failure.
///
/// # Errors
///
/// As [`schedule_intervals_guarded`].
#[allow(clippy::too_many_arguments)]
pub fn schedule_intervals_guarded_stats(
    assignment: &PathAssignment,
    allocation: &IntervalAllocation,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    max_sets: usize,
    guard: f64,
    stats: &mut IntervalSchedStats,
) -> Result<Vec<IntervalSchedule>, CompileError> {
    // The conflict structure of a subset depends only on the path
    // assignment, so densify each subset's link-conflict matrix once here
    // instead of per (interval, subset) pair.
    let conflicts: Vec<ConflictMatrix> = subsets
        .iter()
        .map(|s| ConflictMatrix::new(assignment, s))
        .collect();
    let mut scratch = SubsetScratch::default();

    // One row-major sweep over the allocation replaces the dense
    // K × subsets × members probing: collect, per interval, the active
    // positions of each subset. Allocation rows are zero outside a
    // message's few active intervals, so the per-interval lists stay
    // sparse, and (interval, subset) pairs without traffic are never
    // visited below. Subset and position order within each interval match
    // the dense scan's ascending iteration exactly.
    let mut active_at: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); intervals.len()];
    for (si, subset) in subsets.iter().enumerate() {
        for (p, &m) in subset.iter().enumerate() {
            for (k, &a) in allocation.row(m).iter().enumerate() {
                if a > EPS {
                    match active_at[k].last_mut() {
                        Some((s, positions)) if *s == si => positions.push(p),
                        _ => active_at[k].push((si, vec![p])),
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    for (k, active_subsets) in active_at.iter().enumerate() {
        let mut slices = Vec::new();
        for (si, positions) in active_subsets {
            scratch.active.clear();
            scratch.active.extend_from_slice(positions);
            schedule_subset_interval(
                allocation,
                intervals,
                &subsets[*si],
                &conflicts[*si],
                &mut scratch,
                k,
                max_sets,
                guard,
                &mut slices,
                stats,
            )?;
        }
        if !slices.is_empty() {
            slices.sort_by(|a, b| {
                a.start
                    .total_cmp(&b.start)
                    .then_with(|| a.messages.cmp(&b.messages))
            });
            out.push(IntervalSchedule {
                interval: k,
                slices,
            });
        }
    }
    Ok(out)
}

/// Pairwise link-conflict matrix over one related subset's positions,
/// stored as packed `u64` bitset rows: bit `j` of row `i` is set when
/// messages `i` and `j` share a link. The row layout lets the independent-
/// set DFS keep one *forbidden* mask per depth (the union of the stack
/// members' rows) and test a candidate with a single bit probe instead of
/// scanning the stack.
struct ConflictMatrix {
    /// `u64` words per row (`⌈n/64⌉`).
    words: usize,
    rows: Vec<u64>,
}

impl ConflictMatrix {
    fn new(assignment: &PathAssignment, subset: &[MessageId]) -> Self {
        let n = subset.len();
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for i in 0..n {
            for j in i + 1..n {
                let clash = assignment
                    .links(subset[i])
                    .iter()
                    .any(|l| assignment.links(subset[j]).contains(l));
                if clash {
                    rows[i * words + j / 64] |= 1u64 << (j % 64);
                    rows[j * words + i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        ConflictMatrix { words, rows }
    }

    /// Bitset row of position `i`.
    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }
}

/// Reusable buffers for one subset-interval scheduling call: the active
/// position list, the DFS stack, the flat set arena (member positions +
/// per-set end offsets — one growing allocation instead of a `Vec` clone
/// per enumerated set), and the per-message set-membership lists the LP
/// constraints are built from.
#[derive(Default)]
struct SubsetScratch {
    /// Subset positions with positive allocation in the current interval.
    active: Vec<usize>,
    stack: Vec<usize>,
    /// Per-depth forbidden masks for the DFS: level `d` holds the union of
    /// the conflict rows of the first `d` stack members, `words` `u64`s per
    /// level.
    forbidden: Vec<u64>,
    set_data: Vec<usize>,
    set_ends: Vec<usize>,
    member_sets: Vec<Vec<usize>>,
}

impl SubsetScratch {
    fn clear_sets(&mut self) {
        self.stack.clear();
        self.set_data.clear();
        self.set_ends.clear();
        for m in &mut self.member_sets {
            m.clear();
        }
    }

    fn num_sets(&self) -> usize {
        self.set_ends.len()
    }

    /// Members (as `active` indices) of set `j`.
    fn set(&self, j: usize) -> &[usize] {
        let start = if j == 0 { 0 } else { self.set_ends[j - 1] };
        &self.set_data[start..self.set_ends[j]]
    }
}

#[allow(clippy::too_many_arguments)]
fn schedule_subset_interval(
    allocation: &IntervalAllocation,
    intervals: &Intervals,
    subset: &[MessageId],
    conflict: &ConflictMatrix,
    scratch: &mut SubsetScratch,
    k: usize,
    max_sets: usize,
    guard: f64,
    slices: &mut Vec<Slice>,
    stats: &mut IntervalSchedStats,
) -> Result<(), CompileError> {
    let (start, _) = intervals.bounds(k);
    let available = intervals.length(k);
    let n = scratch.active.len();

    // Fast path: one message.
    if n == 1 {
        stats.singleton_fast_paths += 1;
        let m = subset[scratch.active[0]];
        let need = allocation.allocated(m, k) + guard;
        if need > available + EPS {
            return Err(CompileError::IntervalUnschedulable {
                interval: k,
                required: need,
                available,
            });
        }
        slices.push(Slice {
            messages: vec![m],
            start: start + guard,
            duration: need - guard,
        });
        return Ok(());
    }

    // Enumerate all non-empty independent sets (the link-feasible sets)
    // into the flat arena, recording set membership per message as we go.
    scratch.clear_sets();
    if scratch.member_sets.len() < n {
        scratch.member_sets.resize_with(n, Vec::new);
    }
    let full = enumerate_independent(conflict, scratch, max_sets);
    if !full {
        return Err(CompileError::TooManyFeasibleSets {
            interval: k,
            cap: max_sets,
        });
    }

    // LP: minimize Σ y_j with per-message coverage equalities.
    let num_sets = scratch.num_sets();
    stats.feasible_sets += num_sets as u64;
    stats.arena_cells += scratch.set_data.len() as u64;
    let mut lp = Problem::minimize();
    let ys: Vec<VarId> = (0..num_sets).map(|_| lp.add_var(1.0)).collect();
    let mut terms: Vec<(VarId, f64)> = Vec::new();
    for (ai, &pos) in scratch.active.iter().enumerate() {
        terms.clear();
        terms.extend(scratch.member_sets[ai].iter().map(|&j| (ys[j], 1.0)));
        lp.add_constraint(&terms, Relation::Eq, allocation.allocated(subset[pos], k))
            .expect("variables are registered");
    }
    stats.lp_solves += 1;
    let sol = {
        let (sol, solve_stats) = lp.solve_with_stats().map_err(CompileError::Lp)?;
        stats.lp.merge(&solve_stats);
        sol
    };
    let used_slices = (0..num_sets).filter(|&j| sol.value(ys[j]) > EPS).count();
    let required = sol.objective() + guard * used_slices as f64;
    if required > available + EPS {
        return Err(CompileError::IntervalUnschedulable {
            interval: k,
            required,
            available,
        });
    }

    // Materialize slices back-to-back from the interval start, each
    // preceded by its guard gap.
    let mut cursor = start;
    for (j, &yv) in ys.iter().enumerate() {
        let y = sol.value(yv);
        if y > EPS {
            cursor += guard;
            slices.push(Slice {
                messages: scratch
                    .set(j)
                    .iter()
                    .map(|&ai| subset[scratch.active[ai]])
                    .collect(),
                start: cursor,
                duration: y,
            });
            cursor += y;
        }
    }
    Ok(())
}

/// Depth-first enumeration of the independent sets of the active messages,
/// in lexicographic order of member positions, into the flat arena in
/// `scratch` (no per-set allocation). Returns `false` as soon as the set
/// count reaches `cap` — the enumeration aborts immediately rather than
/// unwinding through every level.
fn enumerate_independent(
    conflict: &ConflictMatrix,
    scratch: &mut SubsetScratch,
    cap: usize,
) -> bool {
    let words = conflict.words;
    scratch.forbidden.clear();
    scratch
        .forbidden
        .resize((scratch.active.len() + 1) * words, 0);
    enumerate_rec(conflict, scratch, 0, cap)
}

fn enumerate_rec(
    conflict: &ConflictMatrix,
    scratch: &mut SubsetScratch,
    from: usize,
    cap: usize,
) -> bool {
    let words = conflict.words;
    let depth = scratch.stack.len();
    for vi in from..scratch.active.len() {
        let v = scratch.active[vi];
        if scratch.forbidden[depth * words + v / 64] >> (v % 64) & 1 != 0 {
            continue;
        }
        // Extend the forbidden mask into the next level: everything the
        // stack forbids plus everything `v` conflicts with.
        let (cur_levels, next_level) = scratch.forbidden.split_at_mut((depth + 1) * words);
        let cur = &cur_levels[depth * words..];
        let row = conflict.row(v);
        for w in 0..words {
            next_level[w] = cur[w] | row[w];
        }
        scratch.stack.push(vi);
        let set_id = scratch.set_ends.len();
        for si in 0..scratch.stack.len() {
            let ai = scratch.stack[si];
            scratch.set_data.push(ai);
            scratch.member_sets[ai].push(set_id);
        }
        scratch.set_ends.push(scratch.set_data.len());
        if scratch.num_sets() >= cap || !enumerate_rec(conflict, scratch, vi + 1, cap) {
            return false;
        }
        scratch.stack.pop();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_topology::{NodeId, Path};

    /// Builds a PathAssignment over a 4-node ring with hand-picked paths.
    fn ring_assignment(paths: Vec<Vec<usize>>) -> (sr_topology::Torus, PathAssignment) {
        let topo = sr_topology::Torus::new(&[4]).unwrap();
        let paths = paths
            .into_iter()
            .map(|ns| Path::new(ns.into_iter().map(NodeId).collect()))
            .collect();
        let pa = PathAssignment::new(paths, &topo);
        (topo, pa)
    }

    fn uniform_alloc(n: usize, k_count: usize, k: usize, amount: f64) -> IntervalAllocation {
        let mut p = vec![vec![0.0; k_count]; n];
        for row in &mut p {
            row[k] = amount;
        }
        IntervalAllocation::from_matrix(p)
    }

    fn one_interval(len: f64) -> Intervals {
        // A single interval [0, len].
        Intervals::from_endpoints(vec![0.0, len])
    }

    #[test]
    fn conflicting_messages_serialize() {
        // Two messages over the same link 0-1.
        let (_topo, pa) = ring_assignment(vec![vec![0, 1], vec![1, 0]]);
        let intervals = one_interval(10.0);
        let alloc = uniform_alloc(2, 1, 0, 4.0);
        let subsets = vec![vec![MessageId(0), MessageId(1)]];
        let scheds = schedule_intervals(&pa, &alloc, &intervals, &subsets, 10_000).unwrap();
        assert_eq!(scheds.len(), 1);
        let slices = &scheds[0].slices;
        // Total time 8 (serialized), no slice containing both.
        let total: f64 = slices.iter().map(|s| s.duration).sum();
        assert!((total - 8.0).abs() < 1e-6, "slices {slices:?}");
        assert!(slices.iter().all(|s| s.messages.len() == 1));
        // Slices are disjoint in time.
        for w in slices.windows(2) {
            assert!(w[1].start >= w[0].end() - 1e-9);
        }
    }

    #[test]
    fn disjoint_messages_overlap() {
        // Messages on opposite sides of the ring: links 0-1 and 2-3.
        let (_topo, pa) = ring_assignment(vec![vec![0, 1], vec![2, 3]]);
        let intervals = one_interval(10.0);
        let alloc = uniform_alloc(2, 1, 0, 6.0);
        let subsets = vec![vec![MessageId(0), MessageId(1)]];
        let scheds = schedule_intervals(&pa, &alloc, &intervals, &subsets, 10_000).unwrap();
        let slices = &scheds[0].slices;
        // 6+6 fits in 10 only by transmitting together: minimal length 6.
        let makespan = slices.iter().map(Slice::end).fold(0.0f64, f64::max);
        assert!(makespan <= 6.0 + 1e-6, "slices {slices:?}");
        assert!(slices.iter().any(|s| s.messages.len() == 2));
    }

    #[test]
    fn unschedulable_interval_detected() {
        let (_topo, pa) = ring_assignment(vec![vec![0, 1], vec![1, 2]]);
        // Both messages share node 1?? Links 0-1 and 1-2 are different
        // links; conflict only when sharing a LINK. Use same link instead.
        let (_topo, pa2) = ring_assignment(vec![vec![0, 1], vec![0, 1]]);
        let _ = pa;
        let intervals = one_interval(10.0);
        let alloc = uniform_alloc(2, 1, 0, 6.0); // 12 serialized > 10
        let subsets = vec![vec![MessageId(0), MessageId(1)]];
        let err = schedule_intervals(&pa2, &alloc, &intervals, &subsets, 10_000).unwrap_err();
        match err {
            CompileError::IntervalUnschedulable {
                required,
                available,
                ..
            } => {
                assert!((required - 12.0).abs() < 1e-6);
                assert!((available - 10.0).abs() < 1e-6);
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn three_messages_pairwise_structure() {
        // m0 uses links {0-1}, m1 uses {1-2}, m2 uses {0-1, 1-2}: m0 and m1
        // are compatible; m2 conflicts with both.
        let (_topo, pa) = ring_assignment(vec![vec![0, 1], vec![1, 2], vec![0, 1, 2]]);
        let intervals = one_interval(10.0);
        let alloc = uniform_alloc(3, 1, 0, 4.0);
        let subsets = vec![vec![MessageId(0), MessageId(1), MessageId(2)]];
        let scheds = schedule_intervals(&pa, &alloc, &intervals, &subsets, 10_000).unwrap();
        let slices = &scheds[0].slices;
        // Optimal: {m0,m1} together 4, then m2 alone 4 -> makespan 8.
        let makespan = slices.iter().map(Slice::end).fold(0.0f64, f64::max);
        assert!(makespan <= 8.0 + 1e-6, "slices {slices:?}");
        // m2 never scheduled with m0 or m1.
        for s in slices {
            if s.messages.contains(&MessageId(2)) {
                assert_eq!(s.messages.len(), 1);
            }
        }
    }

    #[test]
    fn set_cap_triggers_error() {
        let (_topo, pa) = ring_assignment(vec![vec![0, 1], vec![2, 3], vec![1, 2]]);
        let intervals = one_interval(10.0);
        let alloc = uniform_alloc(3, 1, 0, 1.0);
        let subsets = vec![vec![MessageId(0), MessageId(1), MessageId(2)]];
        let err = schedule_intervals(&pa, &alloc, &intervals, &subsets, 3).unwrap_err();
        assert!(matches!(err, CompileError::TooManyFeasibleSets { .. }));
    }

    #[test]
    fn stats_count_sets_and_fast_paths() {
        // Two conflicting messages -> one LP over 2 singleton feasible sets;
        // plus one lone message in its own subset -> singleton fast path.
        let (_topo, pa) = ring_assignment(vec![vec![0, 1], vec![1, 0], vec![2, 3]]);
        let intervals = one_interval(10.0);
        let alloc = uniform_alloc(3, 1, 0, 2.0);
        let subsets = vec![vec![MessageId(0), MessageId(1)], vec![MessageId(2)]];
        let mut stats = IntervalSchedStats::default();
        let scheds = schedule_intervals_guarded_stats(
            &pa, &alloc, &intervals, &subsets, 10_000, 0.0, &mut stats,
        )
        .unwrap();
        assert_eq!(scheds.len(), 1);
        assert_eq!(stats.singleton_fast_paths, 1);
        assert_eq!(stats.lp_solves, 1);
        // Sets over {m0, m1} (mutually conflicting): {m0}, {m1}.
        assert_eq!(stats.feasible_sets, 2);
        assert_eq!(stats.arena_cells, 2);
        assert!(stats.lp.pivots > 0);
    }

    #[test]
    fn empty_allocation_produces_no_schedules() {
        let (_topo, pa) = ring_assignment(vec![vec![0, 1]]);
        let intervals = one_interval(10.0);
        let alloc = uniform_alloc(1, 1, 0, 0.0);
        let subsets = vec![vec![MessageId(0)]];
        let scheds = schedule_intervals(&pa, &alloc, &intervals, &subsets, 100).unwrap();
        assert!(scheds.is_empty());
    }
}
