use sr_tfg::{MessageId, TimeBounds};
use sr_topology::LinkId;

use crate::assignment::Route;
use crate::{ActivityMatrix, Intervals, PathAssignment};

/// Where the peak utilization sits: an overloaded link over the whole frame,
/// or a *hot-spot* — a (link, interval) pair crowded by no-slack messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hotspot {
    /// Peak is a link's net utilization `U^l_j` (paper Def. 5.1).
    Link(LinkId),
    /// Peak is a spot utilization `U^s_jk` (paper Def. 5.2).
    Spot(LinkId, usize),
    /// Peak is a Hall-bound group overload on a link (see
    /// [`UtilizationMap::hall_peak`]).
    Group(LinkId),
}

/// Link and spot utilizations for one path assignment (paper §5.1).
///
/// * **Link utilization** `U^l_j`: total transmission time of messages
///   routed over `L_j`, divided by the total length of intervals in which at
///   least one of them is active. `U^l_j ≤ 1` is necessary for the link to
///   carry its traffic.
/// * **Spot utilization** `U^s_jk`: the number of *no-slack* messages using
///   `L_j` during `A_k`. Two no-slack messages on one link in one interval
///   is an unresolvable hot-spot, so `U^s_jk ≤ 1` is also necessary.
///
/// The **peak** `U` is the maximum over both families; `AssignPaths`
/// minimizes it, and scheduled routing can only be attempted when `U ≤ 1`.
#[derive(Debug, Clone)]
pub struct UtilizationMap {
    link_util: Vec<f64>,
    /// `(link, interval) -> no-slack count`, only entries > 0.
    spots: Vec<(LinkId, usize, usize)>,
    peak_value: f64,
    peak_at: Option<Hotspot>,
    hall_peak: f64,
    hall_at: Option<LinkId>,
}

/// Per-link by-products of [`UtilizationMap::compute_with`] that the map
/// itself does not keep: what a climb's lower bound reads of its start
/// assignment, dropped when the climbs are done.
pub(crate) struct LinkDetail {
    /// `max(U^l, spot row maximum, Hall bound)` per link — what the link
    /// alone contributes to [`UtilizationMap::effective_peak`], which is
    /// the maximum of these.
    effective: Vec<f64>,
    msgs: LinkLists,
}

impl LinkDetail {
    /// Number of links covered.
    pub(crate) fn num_links(&self) -> usize {
        self.effective.len()
    }

    /// `max(U^l, spot row maximum, Hall bound)` of link `l`.
    pub(crate) fn effective(&self, l: usize) -> f64 {
        self.effective[l]
    }

    /// The messages routed over link `l`, ascending.
    pub(crate) fn messages_on(&self, l: usize) -> &[usize] {
        self.msgs.on(l)
    }
}

/// Per-message inputs of the utilization computation, gathered once per
/// `assign_paths_*` call so the per-link passes (full and incremental
/// alike) and the climbs' lower bounds read plain arrays.
pub(crate) struct MsgInputs {
    durations: Vec<f64>,
    no_slack: Vec<bool>,
    actives: Vec<Vec<usize>>,
    /// Activity signatures as interval bitmasks — populated only when the
    /// frame has at most 64 intervals (the common case), enabling the
    /// word-parallel Hall-bound path.
    masks: Option<Vec<u64>>,
    /// `duration / active time` per message: the figure of a link the
    /// message has to itself, and a floor on the effective figure of any
    /// link it shares (the Hall bound tries its signature alone).
    solo: Vec<f64>,
}

impl MsgInputs {
    pub(crate) fn new(
        n: usize,
        bounds: &TimeBounds,
        activity: &ActivityMatrix,
        intervals: &Intervals,
    ) -> Self {
        let k_count = intervals.len();
        let mut durations = Vec::with_capacity(n);
        let mut no_slack = Vec::with_capacity(n);
        let mut actives: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut solo = Vec::with_capacity(n);
        for i in 0..n {
            let m = MessageId(i);
            let w = bounds.window(m);
            let ks = activity.active_intervals(m);
            let at: f64 = ks.iter().map(|&k| intervals.length(k)).sum();
            solo.push(if at > 0.0 {
                w.duration() / at
            } else {
                f64::INFINITY
            });
            durations.push(w.duration());
            no_slack.push(w.is_no_slack());
            actives.push(ks);
        }
        let masks = (k_count <= 64).then(|| {
            actives
                .iter()
                .map(|ks| ks.iter().fold(0u64, |acc, &k| acc | (1u64 << k)))
                .collect()
        });
        MsgInputs {
            durations,
            no_slack,
            actives,
            masks,
            solo,
        }
    }

    /// `duration / active time` of message `i` (`∞` for a message that is
    /// never active).
    pub(crate) fn solo(&self, i: usize) -> f64 {
        self.solo[i]
    }
}

/// Reusable per-link work buffers.
pub(crate) struct LinkScratch {
    /// List path only (frames with more than 64 intervals): which intervals
    /// the current link has marked, and the marked ones. Both are left
    /// clear between calls, so one link costs O(its active entries), not
    /// O(K).
    used: Vec<bool>,
    marked: Vec<usize>,
    /// No-slack message count per interval; all zero between calls.
    counts: Vec<usize>,
    /// Distinct activity signatures of the word-parallel Hall bound.
    sigs: Vec<u64>,
    /// The last link's spot utilizations `(interval, no-slack count)`,
    /// ascending by interval, entries with a count of 0 left out —
    /// [`link_figures`]' second result.
    spots: Vec<(usize, usize)>,
}

impl LinkScratch {
    pub(crate) fn new(k_count: usize) -> Self {
        LinkScratch {
            used: vec![false; k_count],
            marked: Vec::new(),
            counts: vec![0; k_count],
            sigs: Vec::new(),
            spots: Vec::new(),
        }
    }

    /// The last link's largest spot count and the first interval holding
    /// it (`(0, 0)` for an empty row). The row is ascending by interval, so
    /// the strict `>` lands where a dense scan's running maximum does.
    fn spot_max(&self) -> (usize, usize) {
        let mut best = (0usize, 0usize);
        for &(k, c) in &self.spots {
            if c > best.0 {
                best = (c, k);
            }
        }
        best
    }
}

/// One link's derived quantities. Its spot counts are left in the caller's
/// scratch ([`LinkScratch::spots`]).
struct LinkFigures {
    tx: f64,
    util: f64,
    hall: f64,
}

/// Total length of the intervals in `set`, summed in ascending interval
/// order — the order a sorted interval list is summed in, so both give the
/// same bits.
fn mask_length(set: u64, intervals: &Intervals) -> f64 {
    let mut len = 0.0f64;
    let mut rest = set;
    while rest != 0 {
        len += intervals.length(rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
    len
}

/// Computes one link's utilization figures from its (ascending) message
/// list. This is the single source of truth for per-link arithmetic: the
/// full [`UtilizationMap::compute`] and the incremental [`UtilEval`] both
/// call it, so their floating-point results are bitwise identical by
/// construction (contributions always accumulate in ascending message
/// order).
///
/// When the frame has at most 64 intervals ([`MsgInputs::masks`]) the
/// active-interval union is an OR of the messages' masks and only no-slack
/// messages walk their interval lists; otherwise every message marks its
/// intervals in `scratch`. Either way the union's length is summed by
/// ascending interval, so the two paths agree bitwise.
///
/// Inlined into each of its three callers: with the third the compiler
/// stopped doing so on its own (≈ 2 % of a 2,048-link flat climb).
#[inline(always)]
fn link_figures(
    msgs: &[usize],
    inputs: &MsgInputs,
    intervals: &Intervals,
    scratch: &mut LinkScratch,
) -> LinkFigures {
    scratch.spots.clear();
    let mut tx = 0.0f64;
    let active_len = if let Some(masks) = &inputs.masks {
        let mut active = 0u64;
        let mut tight = 0u64;
        for &i in msgs {
            tx += inputs.durations[i];
            active |= masks[i];
            if inputs.no_slack[i] {
                tight |= masks[i];
                for &k in &inputs.actives[i] {
                    scratch.counts[k] += 1;
                }
            }
        }
        while tight != 0 {
            let k = tight.trailing_zeros() as usize;
            scratch
                .spots
                .push((k, std::mem::take(&mut scratch.counts[k])));
            tight &= tight - 1;
        }
        mask_length(active, intervals)
    } else {
        for &i in msgs {
            tx += inputs.durations[i];
            let no_slack = inputs.no_slack[i];
            for &k in &inputs.actives[i] {
                if !scratch.used[k] {
                    scratch.used[k] = true;
                    scratch.marked.push(k);
                }
                if no_slack {
                    scratch.counts[k] += 1;
                }
            }
        }
        scratch.marked.sort_unstable();
        let mut len = 0.0f64;
        for k in scratch.marked.drain(..) {
            len += intervals.length(k);
            scratch.used[k] = false;
            let c = std::mem::take(&mut scratch.counts[k]);
            if c > 0 {
                scratch.spots.push((k, c));
            }
        }
        len
    };
    let util = if tx <= 0.0 {
        0.0
    } else if active_len > 0.0 {
        tx / active_len
    } else {
        f64::INFINITY
    };
    LinkFigures {
        tx,
        util,
        hall: hall_bound(msgs, inputs, intervals, &mut scratch.sigs),
    }
}

/// Hall-type group bound for one link: for small unions `S` of the distinct
/// activity signatures found on it, the messages active only inside `S`
/// demand at most `|S|` of link time. Def. 5.1's union denominator cannot
/// see such sub-window overloads (the paper notes its conditions are only
/// necessary); this bound catches the common case of same-release messages
/// funneling into one link.
fn hall_bound(
    msgs: &[usize],
    inputs: &MsgInputs,
    intervals: &Intervals,
    sigs: &mut Vec<u64>,
) -> f64 {
    if msgs.len() < 2 {
        return 0.0;
    }
    if let Some(masks) = &inputs.masks {
        return hall_bound_masked(msgs, inputs, masks, intervals, sigs);
    }
    let sigs: Vec<Vec<usize>> = {
        let mut s: Vec<Vec<usize>> = msgs.iter().map(|&i| inputs.actives[i].clone()).collect();
        s.sort();
        s.dedup();
        s
    };
    let mut candidates: Vec<Vec<usize>> = sigs.clone();
    for a in 0..sigs.len() {
        for b in (a + 1)..sigs.len() {
            let mut u = sigs[a].clone();
            u.extend_from_slice(&sigs[b]);
            u.sort_unstable();
            u.dedup();
            candidates.push(u);
        }
    }
    let mut hall = 0.0f64;
    for s in candidates {
        let len: f64 = s.iter().map(|&k| intervals.length(k)).sum();
        if len <= 0.0 {
            continue;
        }
        let demand: f64 = msgs
            .iter()
            .filter(|&&i| inputs.actives[i].iter().all(|k| s.contains(k)))
            .map(|&i| inputs.durations[i])
            .sum();
        let ratio = demand / len;
        if ratio > hall {
            hall = ratio;
        }
    }
    hall
}

/// Word-parallel [`hall_bound`] for frames with at most 64 intervals. The
/// candidate set (distinct signatures plus pairwise unions) is identical to
/// the list path's, and each candidate's length and demand are summed in
/// ascending interval / ascending message order, so the returned maximum is
/// bitwise identical — only the order candidates are *visited* in differs,
/// which a max over identical values cannot observe. `sigs` is scratch.
fn hall_bound_masked(
    msgs: &[usize],
    inputs: &MsgInputs,
    masks: &[u64],
    intervals: &Intervals,
    sigs: &mut Vec<u64>,
) -> f64 {
    sigs.clear();
    sigs.extend(msgs.iter().map(|&i| masks[i]));
    sigs.sort_unstable();
    sigs.dedup();
    let mut hall = 0.0f64;
    let mut consider = |s: u64| {
        let len = mask_length(s, intervals);
        if len <= 0.0 {
            return;
        }
        let demand: f64 = msgs
            .iter()
            .filter(|&&i| masks[i] & !s == 0)
            .map(|&i| inputs.durations[i])
            .sum();
        let ratio = demand / len;
        if ratio > hall {
            hall = ratio;
        }
    };
    for &s in sigs.iter() {
        consider(s);
    }
    for a in 0..sigs.len() {
        for b in (a + 1)..sigs.len() {
            consider(sigs[a] | sigs[b]);
        }
    }
    hall
}

/// The ascending message list of every link, back to back in one arena.
struct LinkLists {
    /// `offsets[l]..offsets[l + 1]` is link `l`'s slice of `msgs`.
    offsets: Vec<usize>,
    msgs: Vec<usize>,
}

impl LinkLists {
    fn of(assignment: &PathAssignment, num_links: usize) -> Self {
        let mut offsets = vec![0usize; num_links + 1];
        for i in 0..assignment.len() {
            for &l in assignment.links(MessageId(i)) {
                offsets[l.index() + 1] += 1;
            }
        }
        for l in 0..num_links {
            offsets[l + 1] += offsets[l];
        }
        let mut next = offsets.clone();
        let mut msgs = vec![0usize; offsets[num_links]];
        for i in 0..assignment.len() {
            for &l in assignment.links(MessageId(i)) {
                msgs[next[l.index()]] = i;
                next[l.index()] += 1;
            }
        }
        LinkLists { offsets, msgs }
    }

    fn on(&self, l: usize) -> &[usize] {
        &self.msgs[self.offsets[l]..self.offsets[l + 1]]
    }
}

/// What a message list **forces** on its link however many more messages
/// join it — the floors a climb's lower bound may use.
///
/// Only the monotone figures qualify. The Hall bound of a sub-list never
/// exceeds the full list's (every signature union the sub-list tries, the
/// full list tries too, and with at least as much demand inside it), and a
/// spot count only grows. `U^l` does **not** qualify: `tx / |union of
/// windows|` falls when a short message with a long window joins the link
/// (9/10 becomes 10/100), so it is deliberately not returned.
pub(crate) struct ForcedFloor {
    /// A list of one: the message's own `duration / active time`, exact for
    /// a link it has to itself and below the Hall bound of any list it is
    /// part of. Two or more: the list's Hall bound.
    pub(crate) group: f64,
    /// The largest no-slack count of any interval (0 for a list that carries
    /// no transmission time, whose spots the peak ignores).
    pub(crate) spot: usize,
}

pub(crate) fn forced_floor(
    msgs: &[usize],
    inputs: &MsgInputs,
    intervals: &Intervals,
    scratch: &mut LinkScratch,
) -> ForcedFloor {
    let fig = link_figures(msgs, inputs, intervals, scratch);
    let carries = fig.tx > 0.0;
    ForcedFloor {
        group: match msgs {
            [] => 0.0,
            [_] if carries => fig.util,
            [_] => 0.0,
            _ => fig.hall,
        },
        spot: if carries { scratch.spot_max().0 } else { 0 },
    }
}

impl UtilizationMap {
    /// Computes all utilizations for `assignment` under the given time
    /// bounds.
    pub fn compute(
        assignment: &PathAssignment,
        bounds: &TimeBounds,
        activity: &ActivityMatrix,
        intervals: &Intervals,
        num_links: usize,
    ) -> Self {
        let inputs = MsgInputs::new(assignment.len(), bounds, activity, intervals);
        Self::compute_with(assignment, &inputs, intervals, num_links).0
    }

    /// [`UtilizationMap::compute`] over per-message inputs the caller
    /// already gathered, together with the per-link detail the computation
    /// derives on the way.
    pub(crate) fn compute_with(
        assignment: &PathAssignment,
        inputs: &MsgInputs,
        intervals: &Intervals,
        num_links: usize,
    ) -> (Self, LinkDetail) {
        let link_msgs = LinkLists::of(assignment, num_links);
        let mut scratch = LinkScratch::new(intervals.len());

        let mut link_util = vec![0.0f64; num_links];
        let mut link_effective = vec![0.0f64; num_links];
        let mut peak_value = 0.0f64;
        let mut peak_at = None;
        let mut spots = Vec::new();
        let mut hall_peak = 0.0f64;
        let mut hall_at = None;

        for l in 0..num_links {
            let fig = link_figures(link_msgs.on(l), inputs, intervals, &mut scratch);
            let mut effective = fig.hall;
            if fig.tx > 0.0 {
                link_util[l] = fig.util;
                effective = effective.max(fig.util);
                if fig.util > peak_value {
                    peak_value = fig.util;
                    peak_at = Some(Hotspot::Link(LinkId(l)));
                }
                for &(k, c) in &scratch.spots {
                    spots.push((LinkId(l), k, c));
                    effective = effective.max(c as f64);
                    if c as f64 > peak_value {
                        peak_value = c as f64;
                        peak_at = Some(Hotspot::Spot(LinkId(l), k));
                    }
                }
            }
            link_effective[l] = effective;
            if fig.hall > hall_peak {
                hall_peak = fig.hall;
                hall_at = Some(LinkId(l));
            }
        }

        let map = UtilizationMap {
            link_util,
            spots,
            peak_value,
            peak_at,
            hall_peak,
            hall_at,
        };
        let detail = LinkDetail {
            effective: link_effective,
            msgs: link_msgs,
        };
        (map, detail)
    }

    /// The link [`UtilizationMap::effective_location`] names.
    pub(crate) fn effective_link(&self) -> Option<LinkId> {
        let (Hotspot::Link(l) | Hotspot::Spot(l, _) | Hotspot::Group(l)) =
            self.effective_location()?;
        Some(l)
    }

    /// The sharpest Hall-type group bound found (≥ every `U^l_j`): the
    /// maximum, over links and small unions `S` of activity signatures, of
    /// the demand of messages confined to `S` divided by `|S|`.
    ///
    /// A value above 1 proves message–interval allocation will fail even
    /// when the paper's `U ≤ 1`; `AssignPaths` therefore minimizes
    /// [`UtilizationMap::effective_peak`] while figures report the paper's
    /// [`UtilizationMap::peak`].
    pub fn hall_peak(&self) -> f64 {
        self.hall_peak
    }

    /// `max(peak, hall_peak)` — the quantity the path-assignment heuristic
    /// actually minimizes.
    pub fn effective_peak(&self) -> f64 {
        self.peak_value.max(self.hall_peak)
    }

    /// Where the effective peak occurs.
    pub fn effective_location(&self) -> Option<Hotspot> {
        if self.hall_peak > self.peak_value {
            self.hall_at.map(Hotspot::Group)
        } else {
            self.peak_at
        }
    }

    /// `U^l_j` for a link (0 for unused links).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link(&self, link: LinkId) -> f64 {
        self.link_util[link.index()]
    }

    /// `U^s_jk` for a (link, interval) pair.
    pub fn spot(&self, link: LinkId, k: usize) -> usize {
        self.spots
            .iter()
            .find(|&&(l, kk, _)| l == link && kk == k)
            .map(|&(_, _, c)| c)
            .unwrap_or(0)
    }

    /// All hot-spot entries `(link, interval, no-slack count)` with count
    /// ≥ 1.
    pub fn spots(&self) -> &[(LinkId, usize, usize)] {
        &self.spots
    }

    /// The peak utilization `U` (0 when no message uses any link).
    pub fn peak(&self) -> f64 {
        self.peak_value
    }

    /// Where the peak occurs (`None` when the network is unused).
    pub fn peak_location(&self) -> Option<Hotspot> {
        self.peak_at
    }

    /// `true` when scheduled routing may be attempted (`U ≤ 1 + tol`).
    pub fn is_schedulable(&self, tol: f64) -> bool {
        self.peak_value <= 1.0 + tol
    }
}

/// A max-tournament tree over per-link keys answering the **leftmost**
/// argmax in O(1) and absorbing a key update in O(log L).
///
/// "Leftmost" is the point: an ascending scan with a strict `>` (what
/// [`UtilizationMap::compute`] does) settles on the first link attaining
/// the maximum, and every internal node here keeps its left child's winner
/// on a tie, so the root names exactly that link.
struct MaxTree {
    /// Leaf count, a power of two; leaves past the real links hold `-∞`
    /// and never win against a real link's key (which is ≥ 0).
    size: usize,
    keys: Vec<f64>,
    /// `winner[n]` is the leaf index winning the subtree under heap node
    /// `n` (root 1, children `2n` / `2n + 1`, leaves at `size + i`).
    winner: Vec<u32>,
}

impl MaxTree {
    /// A tree over `len` links, all keys 0.
    fn new(len: usize) -> Self {
        let size = len.max(1).next_power_of_two();
        assert!(
            size <= u32::MAX as usize,
            "link ids must fit the tree's u32 slots"
        );
        let mut keys = vec![f64::NEG_INFINITY; size];
        keys[..len].fill(0.0);
        let mut winner = vec![0u32; 2 * size];
        for i in 0..size {
            winner[size + i] = i as u32;
        }
        let mut tree = MaxTree { size, keys, winner };
        for n in (1..size).rev() {
            tree.replay(n);
        }
        tree
    }

    fn replay(&mut self, n: usize) {
        let (l, r) = (self.winner[2 * n], self.winner[2 * n + 1]);
        self.winner[n] = if self.keys[l as usize] >= self.keys[r as usize] {
            l
        } else {
            r
        };
    }

    fn set(&mut self, i: usize, key: f64) {
        if self.keys[i].to_bits() == key.to_bits() {
            return;
        }
        self.keys[i] = key;
        let mut n = (self.size + i) / 2;
        while n >= 1 {
            let before = self.winner[n];
            self.replay(n);
            // A subtree that some other leaf won before and still wins
            // looks the same from above: same winner, same key.
            if self.winner[n] == before && before as usize != i {
                break;
            }
            n /= 2;
        }
    }

    /// The maximum key and the leftmost link holding it, or `None` while
    /// every key is 0 (the scan's initial `0.0` is never beaten).
    fn top(&self) -> Option<(usize, f64)> {
        let i = self.winner[1] as usize;
        let key = self.keys[i];
        (key > 0.0).then_some((i, key))
    }
}

/// Incrementally maintained effective-peak evaluator for the `AssignPaths`
/// hill climb, and the climb's working assignment: it holds one [`Route`]
/// per message, by reference.
///
/// [`UtilizationMap::compute`] is a pure per-link reduction, and a link's
/// figures are a function of its message list alone. So rerouting a message
/// can only change the links on exactly one of its old and new rows: a link
/// on both keeps its list, hence its figures. On [`UtilEval::set_paths`]
/// this evaluator updates the lists of that **symmetric difference** and
/// recomputes just those links (via the same [`link_figures`] the full
/// computation uses, over the same ascending-message lists), feeding each
/// into two [`MaxTree`]s — one keyed by `max(U^l, spot row maximum)`, one by
/// the Hall bound — whose roots are the peak. The result is **bitwise
/// identical** to a fresh `UtilizationMap::compute` of the updated
/// assignment — same peak, same location, same tie-breaks — while a reroute
/// trial costs `O(changed links · log L)` instead of `O(messages × links)`,
/// copies no path and derives no link list.
///
/// Undo is just another `set_path`: every cached figure is a pure function
/// of the assignment, so restoring a route restores the evaluator's state
/// exactly.
pub(crate) struct UtilEval<'a> {
    intervals: &'a Intervals,
    inputs: &'a MsgInputs,
    routes: Vec<Route<'a>>,
    per_link_msgs: Vec<Vec<usize>>,
    link_util: Vec<f64>,
    /// Per link: the row maximum of the no-slack spot counts and the first
    /// interval achieving it. The full computation's running `c > peak`
    /// scan always lands on the first occurrence of the row maximum, so
    /// this pair is enough to reproduce its selection exactly.
    spot_max: Vec<usize>,
    spot_arg: Vec<usize>,
    /// Keyed `max(link_util, spot_max)` for links carrying traffic, else 0.
    peak_tree: MaxTree,
    /// Keyed by each link's Hall bound.
    hall_tree: MaxTree,
    scratch: LinkScratch,
    touched: Vec<usize>,
    link_recomputes: u64,
}

impl<'a> UtilEval<'a> {
    /// An evaluator of the assignment that gives message `i` the route
    /// `routes[i]`.
    pub(crate) fn new(
        routes: Vec<Route<'a>>,
        inputs: &'a MsgInputs,
        intervals: &'a Intervals,
        num_links: usize,
    ) -> Self {
        let mut per_link_msgs: Vec<Vec<usize>> = vec![Vec::new(); num_links];
        for (i, route) in routes.iter().enumerate() {
            for &l in route.links {
                per_link_msgs[l as usize].push(i);
            }
        }
        let mut eval = UtilEval {
            intervals,
            inputs,
            routes,
            per_link_msgs,
            link_util: vec![0.0; num_links],
            spot_max: vec![0; num_links],
            spot_arg: vec![0; num_links],
            peak_tree: MaxTree::new(num_links),
            hall_tree: MaxTree::new(num_links),
            scratch: LinkScratch::new(intervals.len()),
            touched: Vec::new(),
            link_recomputes: 0,
        };
        // Idle links already sit at their all-zero figures.
        for l in 0..num_links {
            if !eval.per_link_msgs[l].is_empty() {
                eval.recompute_link(l);
            }
        }
        eval
    }

    /// The route message `m` currently has.
    pub(crate) fn route(&self, m: MessageId) -> Route<'a> {
        self.routes[m.index()]
    }

    /// The current assignment as an owned [`PathAssignment`].
    pub(crate) fn assignment(&self) -> PathAssignment {
        PathAssignment::from_routes(&self.routes)
    }

    /// Moves message `m` onto `route`.
    pub(crate) fn set_path(&mut self, m: MessageId, route: Route<'a>) {
        self.set_paths([(m, route)]);
    }

    /// Applies a batch of reroutes as one update: every link whose message
    /// list some reroute changed is recomputed once, after all the lists
    /// have settled. A reroute onto the route a message already has changes
    /// nothing.
    pub(crate) fn set_paths(&mut self, reroutes: impl IntoIterator<Item = (MessageId, Route<'a>)>) {
        self.touched.clear();
        for (m, route) in reroutes {
            let i = m.index();
            let old = std::mem::replace(&mut self.routes[i], route).links;
            let new = route.links;
            for &l in old.iter().filter(|l| !new.contains(l)) {
                let v = &mut self.per_link_msgs[l as usize];
                if let Ok(pos) = v.binary_search(&i) {
                    v.remove(pos);
                }
                self.touched.push(l as usize);
            }
            for &l in new.iter().filter(|l| !old.contains(l)) {
                let v = &mut self.per_link_msgs[l as usize];
                if let Err(pos) = v.binary_search(&i) {
                    v.insert(pos, i);
                }
                self.touched.push(l as usize);
            }
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        let touched = std::mem::take(&mut self.touched);
        for &l in &touched {
            self.recompute_link(l);
        }
        self.touched = touched;
    }

    /// The messages routed over `link`, ascending.
    pub(crate) fn messages_on(&self, link: LinkId) -> &[usize] {
        &self.per_link_msgs[link.index()]
    }

    /// Per-link figure recomputations performed so far, the constructor's
    /// included — the evaluator's deterministic unit of work.
    pub(crate) fn link_recomputes(&self) -> u64 {
        self.link_recomputes
    }

    fn peak_value(&self) -> f64 {
        self.peak_tree.top().map_or(0.0, |(_, key)| key)
    }

    fn hall_peak(&self) -> f64 {
        self.hall_tree.top().map_or(0.0, |(_, key)| key)
    }

    /// `max(peak, hall_peak)`, equal to
    /// [`UtilizationMap::effective_peak`] of the current assignment.
    pub(crate) fn effective_peak(&self) -> f64 {
        self.peak_value().max(self.hall_peak())
    }

    /// Where the effective peak occurs, equal to
    /// [`UtilizationMap::effective_location`] of the current assignment.
    pub(crate) fn effective_location(&self) -> Option<Hotspot> {
        if self.hall_peak() > self.peak_value() {
            self.hall_tree.top().map(|(l, _)| Hotspot::Group(LinkId(l)))
        } else {
            // Within the winning link the scan tries `U^l` before the spot
            // counts, strict `>` both times: the spot only takes the peak
            // when it exceeds the link's own utilization.
            self.peak_tree.top().map(|(l, key)| {
                if self.link_util[l] == key {
                    Hotspot::Link(LinkId(l))
                } else {
                    Hotspot::Spot(LinkId(l), self.spot_arg[l])
                }
            })
        }
    }

    fn recompute_link(&mut self, l: usize) {
        self.link_recomputes += 1;
        let fig = link_figures(
            &self.per_link_msgs[l],
            self.inputs,
            self.intervals,
            &mut self.scratch,
        );
        let (smax, sarg) = self.scratch.spot_max();
        self.spot_max[l] = smax;
        self.spot_arg[l] = sarg;
        let util = if fig.tx > 0.0 { fig.util } else { 0.0 };
        self.link_util[l] = util;
        let key = if fig.tx > 0.0 {
            util.max(smax as f64)
        } else {
            0.0
        };
        self.peak_tree.set(l, key);
        self.hall_tree.set(l, fig.hall);
    }

    /// The linear peak selection the trees replaced, kept as their oracle:
    /// one pass over the cached per-link figures in the exact order of
    /// [`UtilizationMap::compute`] (links ascending, each link's net
    /// utilization before its spot counts, strict `>` everywhere). Returns
    /// `(effective peak, location)`.
    #[cfg(test)]
    fn rescan_oracle(&self) -> (f64, Option<Hotspot>) {
        let mut peak_value = 0.0f64;
        let mut peak_at = None;
        let mut hall_peak = 0.0f64;
        let mut hall_at = None;
        for l in 0..self.link_util.len() {
            // `link_util` is positive exactly when the link carries
            // transmission time.
            let u = self.link_util[l];
            if u > 0.0 {
                if u > peak_value {
                    peak_value = u;
                    peak_at = Some(Hotspot::Link(LinkId(l)));
                }
                let c = self.spot_max[l];
                if c > 0 && c as f64 > peak_value {
                    peak_value = c as f64;
                    peak_at = Some(Hotspot::Spot(LinkId(l), self.spot_arg[l]));
                }
            }
            let h = self.hall_tree.keys[l];
            if h > hall_peak {
                hall_peak = h;
                hall_at = Some(LinkId(l));
            }
        }
        if hall_peak > peak_value {
            (hall_peak, hall_at.map(Hotspot::Group))
        } else {
            (peak_value, peak_at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_mapping::Allocation;
    use sr_tfg::{assign_time_bounds, Timing, WindowPolicy};
    use sr_topology::{GeneralizedHypercube, NodeId, Topology};

    use crate::assign_paths::Routes;

    /// Two messages forced over the same single link.
    fn shared_link_setup(
        period: f64,
        policy: WindowPolicy,
    ) -> (GeneralizedHypercube, UtilizationMap, Intervals) {
        let topo = GeneralizedHypercube::binary(1).unwrap(); // 2 nodes, 1 link
        let mut b = sr_tfg::TfgBuilder::new();
        let t0 = b.task("a", 500);
        let t1 = b.task("b", 500);
        let t2 = b.task("c", 500);
        b.message("m0", t0, t1, 640).unwrap(); // 10 µs at B=64
        b.message("m1", t1, t2, 640).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0); // exec 50 = τ_c
        let alloc = Allocation::new(vec![NodeId(0), NodeId(1), NodeId(0)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, period, policy).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let pa = crate::PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let u = UtilizationMap::compute(&pa, &bounds, &activity, &intervals, topo.num_links());
        (topo, u, intervals)
    }

    #[test]
    fn max_load_shared_link_utilization() {
        // Period 50 = τ_c: both windows cover the frame; the one link carries
        // 20 µs of traffic over a 50 µs frame -> U = 0.4.
        let (_, u, _) = shared_link_setup(50.0, WindowPolicy::LongestTask);
        assert!(
            (u.link(LinkId(0)) - 0.4).abs() < 1e-9,
            "got {}",
            u.link(LinkId(0))
        );
        assert!((u.peak() - 0.4).abs() < 1e-9);
        assert_eq!(u.peak_location(), Some(Hotspot::Link(LinkId(0))));
        assert!(u.is_schedulable(0.0));
    }

    #[test]
    fn tight_windows_create_hotspots() {
        // Tight policy: windows have zero slack. With period 100, the two
        // messages' windows are [50,60] and [110->10, 20]; they do not
        // overlap, so each spot has exactly one no-slack message.
        let (_, u, _) = shared_link_setup(100.0, WindowPolicy::Tight);
        assert!(!u.spots().is_empty());
        assert!(u.spots().iter().all(|&(_, _, c)| c == 1));
        assert!((u.peak() - 1.0).abs() < 1e-9);
        assert!(u.is_schedulable(1e-9));
    }

    #[test]
    fn overlapping_no_slack_messages_exceed_capacity() {
        // Force both tight windows to overlap by pinning the period so the
        // second release folds onto the first window: releases at 50 and
        // 110; period 60 folds them to 50 and 50.
        let (_, u, _) = shared_link_setup(60.0, WindowPolicy::Tight);
        // Both no-slack windows are [50,60]: spot count 2, and the link
        // ratio over that 10 µs interval is also 20/10 = 2 -> unschedulable
        // whichever location is reported.
        assert!(u.peak() >= 2.0 - 1e-9, "peak {}", u.peak());
        assert!(u.peak_location().is_some());
        assert_eq!(u.spot(LinkId(0), u.spots()[0].1), 2);
        assert!(!u.is_schedulable(1e-6));
    }

    /// A path assignment plus everything needed to reroute it and to
    /// recompute its utilizations from scratch.
    struct Walk {
        topo: Box<dyn Topology>,
        candidates: Vec<Routes>,
        pa: PathAssignment,
        bounds: sr_tfg::TimeBounds,
        intervals: Intervals,
        activity: ActivityMatrix,
    }

    impl Walk {
        fn new(
            topo: Box<dyn Topology>,
            tfg: &sr_tfg::TaskFlowGraph,
            alloc: &Allocation,
            bounds: sr_tfg::TimeBounds,
        ) -> Self {
            let candidates = tfg
                .messages()
                .iter()
                .map(|m| {
                    let (s, d) = (alloc.node_of(m.src()), alloc.node_of(m.dst()));
                    Routes::derive(topo.shortest_paths(s, d, 64), topo.as_ref())
                })
                .collect();
            let intervals = Intervals::from_bounds(&bounds);
            let activity = ActivityMatrix::new(&bounds, &intervals);
            let pa = PathAssignment::lsd_to_msd(tfg, topo.as_ref(), alloc);
            Walk {
                topo,
                candidates,
                pa,
                bounds,
                intervals,
                activity,
            }
        }

        fn inputs(&self) -> MsgInputs {
            MsgInputs::new(self.pa.len(), &self.bounds, &self.activity, &self.intervals)
        }

        fn full(&self) -> UtilizationMap {
            UtilizationMap::compute(
                &self.pa,
                &self.bounds,
                &self.activity,
                &self.intervals,
                self.topo.num_links(),
            )
        }

        /// Drives `steps` random updates through one evaluator — single
        /// reroutes, batches of up to 24, batches that reroute one message
        /// twice, and reroutes onto the route a message already has —
        /// checking it against a fresh full computation (of an assignment
        /// kept by `PathAssignment::set_path`, link rows derived through
        /// the topology) and the linear-scan oracle after each.
        fn check_random_walk(&mut self, seed: u64, steps: usize) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};

            let mut rng = StdRng::seed_from_u64(seed);
            let rows = self.pa.link_rows();
            let start = self.pa.clone();
            let inputs = self.inputs();
            let mut eval = UtilEval::new(
                start.routes(&rows),
                &inputs,
                &self.intervals,
                self.topo.num_links(),
            );
            let candidates = &self.candidates;
            let draw = |rng: &mut StdRng| {
                let i = rng.gen_range(0..candidates.len());
                let alts = &candidates[i];
                (MessageId(i), alts.get(rng.gen_range(0..alts.len())))
            };
            for step in 0..steps {
                let kind = rng.gen_range(0..6);
                let mut reroutes: Vec<(MessageId, Route<'_>)> = match kind {
                    0 | 1 => (0..rng.gen_range(2..=24)).map(|_| draw(&mut rng)).collect(),
                    _ => vec![draw(&mut rng)],
                };
                if kind == 1 {
                    // The batch's first message moves again at its end.
                    let m = reroutes[0].0;
                    let alts = &candidates[m.index()];
                    reroutes.push((m, alts.get(rng.gen_range(0..alts.len()))));
                }
                if kind == 2 {
                    // Onto the route it already has: nothing may change,
                    // nothing may be recomputed.
                    let m = reroutes[0].0;
                    let Some(same) = (0..candidates[m.index()].len())
                        .map(|j| candidates[m.index()].get(j))
                        .find(|r| r.path == eval.route(m).path)
                    else {
                        continue;
                    };
                    let before = eval.link_recomputes();
                    eval.set_path(m, same);
                    assert_eq!(eval.link_recomputes(), before, "seed {seed} step {step}");
                } else {
                    for &(m, route) in &reroutes {
                        self.pa.set_path(m, route.path.clone(), self.topo.as_ref());
                    }
                    eval.set_paths(reroutes);
                }
                assert_eq!(eval.assignment(), self.pa, "seed {seed} step {step}");

                let full = self.full();
                let got = (eval.effective_peak(), eval.effective_location());
                assert_eq!(
                    (got.0.to_bits(), got.1),
                    (full.effective_peak().to_bits(), full.effective_location()),
                    "seed {seed} step {step} (kind {kind}): evaluator {got:?} vs full compute"
                );
                let oracle = eval.rescan_oracle();
                assert_eq!(
                    (got.0.to_bits(), got.1),
                    (oracle.0.to_bits(), oracle.1),
                    "seed {seed} step {step} (kind {kind}): trees {got:?} vs linear scan"
                );
            }
        }
    }

    fn tiled_farm_16x16() -> Walk {
        let (topo, tfg, alloc, bounds) = crate::testkit::tiled_farm_16x16(7);
        Walk::new(Box::new(topo), &tfg, &alloc, bounds)
    }

    /// Four no-slack messages of different lengths leaving one node at the
    /// same instant: the shared first link's spot count (how many of them
    /// overlap) exceeds its net utilization, so the peak is a `Spot`.
    fn tight_fanout() -> Walk {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let mut b = sr_tfg::TfgBuilder::new();
        let s = b.task("s", 500);
        for (i, bytes) in [640u64, 1280, 1920, 2560].into_iter().enumerate() {
            let d = b.task(format!("d{i}"), 500);
            b.message(format!("m{i}"), s, d, bytes).unwrap();
        }
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let nodes = [0usize, 0b011, 0b101, 0b111, 0b110];
        let alloc =
            Allocation::new(nodes.iter().map(|&n| NodeId(n)).collect(), &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 200.0, WindowPolicy::Tight).unwrap();
        Walk::new(Box::new(topo), &tfg, &alloc, bounds)
    }

    /// Eight messages between antipodal corners of the binary 6-cube, the
    /// sources clustered around node 0: each has 64 (capped) of its 720
    /// six-hop routes, enumerated lexicographically, so alternatives share
    /// prefixes, suffixes or both — the rows whose symmetric difference is
    /// neither empty nor everything.
    fn antipodal_6cube(policy: WindowPolicy) -> Walk {
        let topo = GeneralizedHypercube::binary(6).unwrap();
        let mut b = sr_tfg::TfgBuilder::new();
        let mut placement = Vec::new();
        for (i, src) in [0usize, 1, 2, 3, 4, 8, 16, 32].into_iter().enumerate() {
            // Awkward sizes: interval lengths that are not dyadic, so a sum
            // taken in another order rounds differently.
            let s = b.task(format!("s{i}"), 403 + 57 * i as u64);
            let d = b.task(format!("d{i}"), 500);
            b.message(format!("m{i}"), s, d, 641 * (1 + i as u64 % 3))
                .unwrap();
            placement.extend([NodeId(src), NodeId(src ^ 0b11_1111)]);
        }
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(placement, &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 123.4, policy).unwrap();
        Walk::new(Box::new(topo), &tfg, &alloc, bounds)
    }

    /// A 48-task chain with pairwise different task lengths under tight
    /// windows: well over 64 distinct window endpoints, so `MsgInputs` has
    /// no masks and every figure comes from the list path.
    fn long_frame_chain() -> Walk {
        let topo = GeneralizedHypercube::binary(6).unwrap();
        let mut b = sr_tfg::TfgBuilder::new();
        let tasks: Vec<_> = (0..48u64)
            .map(|i| b.task(format!("t{i}"), 300 + 37 * i))
            .collect();
        for (i, w) in tasks.windows(2).enumerate() {
            b.message(format!("m{i}"), w[0], w[1], 640 + 64 * (i as u64 % 5))
                .unwrap();
        }
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::random_distinct(&tfg, &topo, 11).unwrap();
        let period = timing.longest_task(&tfg) * 1.5;
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::Tight).unwrap();
        Walk::new(Box::new(topo), &tfg, &alloc, bounds)
    }

    #[test]
    fn antipodal_alternatives_share_prefixes_and_suffixes() {
        let walk = antipodal_6cube(WindowPolicy::LongestTask);
        let alts = &walk.candidates[0];
        assert_eq!(alts.len(), 64);
        let (a, b) = (alts.get(0).links, alts.get(1).links);
        assert_eq!(a[..4], b[..4], "consecutive alternatives share a prefix");
        assert_ne!(a, b);
        assert!(
            (2..alts.len()).any(|j| {
                let c = alts.get(j).links;
                c[0] == a[0] && c[5] == a[5] && c[3] != a[3]
            }),
            "some alternative shares both ends and differs in the middle"
        );
    }

    #[test]
    fn long_frame_takes_the_list_path() {
        let walk = long_frame_chain();
        assert!(
            walk.intervals.len() > 64,
            "{} intervals",
            walk.intervals.len()
        );
        assert!(walk.inputs().masks.is_none());
    }

    /// The word-parallel figures are the list path's, bit for bit: same
    /// transmission time, utilization, Hall bound and spot row for every
    /// link of every workload that fits 64 intervals.
    #[test]
    fn word_parallel_link_figures_equal_the_list_path_bitwise() {
        let walks = [
            tiled_farm_16x16(),
            tight_fanout(),
            antipodal_6cube(WindowPolicy::LongestTask),
            antipodal_6cube(WindowPolicy::Tight),
        ];
        let mut spot_rows = 0;
        for (w, walk) in walks.iter().enumerate() {
            let k_count = walk.intervals.len();
            let mut inputs = walk.inputs();
            assert!(inputs.masks.is_some(), "walk {w} has {k_count} intervals");
            let per_link = LinkLists::of(&walk.pa, walk.topo.num_links());
            let mut scratch = LinkScratch::new(k_count);
            let mut figures = |inputs: &MsgInputs| -> Vec<_> {
                (0..walk.topo.num_links())
                    .map(|l| {
                        let f = link_figures(per_link.on(l), inputs, &walk.intervals, &mut scratch);
                        let bits = [f.tx.to_bits(), f.util.to_bits(), f.hall.to_bits()];
                        (bits, scratch.spots.clone())
                    })
                    .collect()
            };
            let word = figures(&inputs);
            inputs.masks = None;
            let list = figures(&inputs);
            assert_eq!(word, list, "walk {w}");
            assert!(
                word.iter().any(|(bits, _)| bits[0] != 0),
                "walk {w} carries no traffic"
            );
            spot_rows += word.iter().filter(|(_, spots)| !spots.is_empty()).count();
        }
        assert!(spot_rows > 0, "no walk has a no-slack message on a link");
    }

    /// The incremental evaluator's contract is *bitwise* agreement with a
    /// fresh full computation after any sequence of reroutes — that is what
    /// lets the hill climb swap one in for the other without changing a
    /// single accept/reject decision.
    #[test]
    fn incremental_eval_matches_full_compute_bitwise() {
        for policy in [WindowPolicy::LongestTask, WindowPolicy::Tight] {
            let topo = GeneralizedHypercube::binary(3).unwrap();
            let tfg = sr_tfg::generators::diamond(3, 500, 1280);
            let timing = Timing::new(64.0, 10.0);
            let alloc = sr_mapping::greedy(&tfg, &topo);
            let bounds = assign_time_bounds(&tfg, &timing, 100.0, policy).unwrap();
            Walk::new(Box::new(topo), &tfg, &alloc, bounds).check_random_walk(7, 200);
        }
    }

    #[test]
    fn tiled_farm_peak_is_tied_across_tiles() {
        // The leftmost tie-break is the whole risk of the tournament
        // trees; make sure the farm really exercises it.
        let walk = tiled_farm_16x16();
        let full = walk.full();
        assert_eq!(full.effective_peak(), 0.72);
        let tied = (0..walk.topo.num_links())
            .filter(|&l| full.link(LinkId(l)) == full.effective_peak())
            .count();
        assert!(
            tied >= 8,
            "only {tied} links tie at the peak — expected one per tile"
        );
    }

    #[test]
    fn tight_fanout_peak_is_a_spot_above_its_links_utilization() {
        let walk = tight_fanout();
        let full = walk.full();
        let Some(Hotspot::Spot(l, _)) = full.effective_location() else {
            panic!("expected a spot peak, got {:?}", full.effective_location());
        };
        assert!(full.effective_peak() > full.link(l));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn tournament_eval_matches_full_compute_on_tied_farm(seed in proptest::prelude::any::<u64>()) {
            tiled_farm_16x16().check_random_walk(seed, 40);
        }

        #[test]
        fn tournament_eval_matches_full_compute_on_spot_peaks(seed in proptest::prelude::any::<u64>()) {
            tight_fanout().check_random_walk(seed, 60);
        }

        #[test]
        fn tournament_eval_matches_full_compute_on_shared_prefixes(seed in proptest::prelude::any::<u64>()) {
            antipodal_6cube(WindowPolicy::LongestTask).check_random_walk(seed, 60);
            antipodal_6cube(WindowPolicy::Tight).check_random_walk(seed, 60);
        }

        #[test]
        fn tournament_eval_matches_full_compute_on_long_frames(seed in proptest::prelude::any::<u64>()) {
            long_frame_chain().check_random_walk(seed, 40);
        }
    }

    #[test]
    fn unused_network_has_zero_peak() {
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let mut b = sr_tfg::TfgBuilder::new();
        let t0 = b.task("a", 100);
        let t1 = b.task("b", 100);
        b.message("m", t0, t1, 64).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        // Co-located: message never enters the network.
        let alloc = Allocation::new(vec![NodeId(3), NodeId(3)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 20.0, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let pa = crate::PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let u = UtilizationMap::compute(&pa, &bounds, &activity, &intervals, topo.num_links());
        assert_eq!(u.peak(), 0.0);
        assert_eq!(u.peak_location(), None);
        assert!(u.is_schedulable(0.0));
    }
}
