use sr_tfg::{MessageId, TaskFlowGraph};
use sr_topology::{FaultSet, LinkId, NodeId, Topology};

use crate::buckets::{compact, Buckets};
use crate::switching::{hop_connection, Omega};
use crate::{Command, Connection, Port, Schedule, VerifyError, EPS};

/// Replays a compiled schedule and checks every property scheduled routing
/// promises:
///
/// 1. **Completeness** — each network-borne message's segments sum to its
///    transmission time (nothing is dropped or short-changed);
/// 2. **Window compliance** — every segment lies inside the message's
///    release/deadline spans, so the pipeline's precedence constraints hold
///    across invocations;
/// 3. **Contention-freedom** — no message overlaps itself, and no link
///    carries two messages at overlapping times (the property wormhole
///    routing resolves with FCFS hardware and scheduled routing resolves at
///    compile time);
/// 4. **Switching consistency** — every message's link row is the link
///    sequence of its node path in `topo`; in the node switching schedules
///    `Ω`, derived from the segments by [`Schedule::node_schedules`] as they
///    ship, every segment is backed by the right crossbar command at every
///    node of that path, and no node's commands require a link port to be
///    in two states at once.
///
/// Every pass is linear in what it reads, up to sorting the few spans that
/// share one link or one port, so the check costs the same per message at
/// every fabric size.
///
/// Because all messages repeat identically every period and every segment
/// lies inside `[0, τ_in]`, checking one frame proves all invocations — the
/// same single-frame argument the paper uses (§4).
///
/// # Errors
///
/// The first violation found, as a [`VerifyError`].
pub fn verify(
    schedule: &Schedule,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
) -> Result<(), VerifyError> {
    // The path check goes first: contention and commands are judged in
    // link-id space, which means nothing until the rows are known to name
    // the links the node paths cross.
    check_paths(schedule, topo)?;
    check_completeness(schedule, tfg)?;
    check_windows(schedule)?;
    check_self_overlap(schedule)?;
    check_link_contention(schedule, topo.num_links())?;
    let omega = Omega::derive(&schedule.segments, &schedule.assignment, schedule.num_nodes);
    let nodes = (0..schedule.num_nodes).map(|n| (NodeId(n), omega.commands(n)));
    check_commands(schedule, nodes)
}

/// [`verify`] under a fault set: all four replay checks, plus a fifth —
/// no scheduled message's path touches a failed link or node.
///
/// This is the acceptance check for incrementally repaired schedules:
/// `topo` is the *healthy* topology (the id space the schedule is indexed
/// by), and `faults` marks what has since died. Messages whose path
/// assignment is trivial (zero hops) carry no network traffic and are
/// exempt, which is how the repair engine encodes dropped/demoted
/// messages.
///
/// # Errors
///
/// The first violation found; [`VerifyError::UsesFailedResource`] for the
/// fault check.
pub fn verify_with_faults(
    schedule: &Schedule,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    faults: &FaultSet,
) -> Result<(), VerifyError> {
    verify(schedule, topo, tfg)?;
    for i in 0..tfg.num_messages() {
        let m = MessageId(i);
        let links = schedule.assignment.links(m);
        if links.is_empty() {
            continue;
        }
        let nodes_ok = schedule
            .assignment
            .path(m)
            .nodes()
            .iter()
            .all(|&v| !faults.is_node_failed(v));
        let links_ok = links.iter().all(|&l| !faults.is_link_failed(l));
        if !nodes_ok || !links_ok {
            return Err(VerifyError::UsesFailedResource { message: m });
        }
    }
    Ok(())
}

fn check_paths(schedule: &Schedule, topo: &dyn Topology) -> Result<(), VerifyError> {
    for i in 0..schedule.assignment.len() {
        let message = MessageId(i);
        let nodes = schedule.assignment.path(message).nodes();
        let links = schedule.assignment.links(message);
        let mut hops = nodes.windows(2).zip(links);
        if links.len() != nodes.len() - 1
            || !hops.all(|(hop, &link)| topo.link_between(hop[0], hop[1]) == Some(link))
        {
            return Err(VerifyError::WrongPath { message });
        }
    }
    Ok(())
}

fn check_completeness(schedule: &Schedule, tfg: &TaskFlowGraph) -> Result<(), VerifyError> {
    // Each message's segments are summed in segment order from the value an
    // empty sum has, so a total is bit for bit the one a pass over that
    // message's segments alone would give.
    let nothing: f64 = std::iter::empty::<f64>().sum();
    let mut scheduled = vec![nothing; tfg.num_messages()];
    for seg in &schedule.segments {
        if let Some(total) = scheduled.get_mut(seg.message.index()) {
            *total += seg.duration();
        }
    }
    for (i, &scheduled) in scheduled.iter().enumerate() {
        let m = MessageId(i);
        if schedule.assignment.links(m).is_empty() {
            continue; // local message: no network time needed
        }
        let required = schedule.bounds.window(m).duration();
        if (scheduled - required).abs() > EPS * required.max(1.0) {
            return Err(VerifyError::IncompleteTransmission {
                message: m,
                scheduled,
                required,
            });
        }
    }
    Ok(())
}

fn check_windows(schedule: &Schedule) -> Result<(), VerifyError> {
    for seg in &schedule.segments {
        let w = schedule.bounds.window(seg.message);
        let inside = w
            .spans()
            .iter()
            .any(|&(s, e)| seg.start >= s - EPS && seg.end <= e + EPS);
        if !inside {
            return Err(VerifyError::OutsideWindow {
                message: seg.message,
                start: seg.start,
                end: seg.end,
            });
        }
    }
    Ok(())
}

/// No message overlaps itself: among one message's segments in start order,
/// none is shorter than `EPS` and none starts more than `EPS` before its
/// predecessor ends. A touching continuation (one segment ending where the
/// next begins) passes. Without this a message could be complete by
/// counting the same time twice, and a sub-`EPS` segment could hide a
/// guard violation from the link sweep.
fn check_self_overlap(schedule: &Schedule) -> Result<(), VerifyError> {
    let segments = &schedule.segments;
    let of_message = segments
        .iter()
        .enumerate()
        .map(|(si, seg)| (seg.message.index(), compact(si)));
    let mut own = Buckets::group(schedule.assignment.len(), of_message);
    let span = |si: u32| &segments[si as usize];
    for message in 0..schedule.assignment.len() {
        let range = own.range(message);
        let mine = &mut own.items[range];
        mine.sort_by(|&a, &b| span(a).start.total_cmp(&span(b).start));
        if let Some(&si) = mine.iter().find(|&&si| span(si).duration() < EPS) {
            let seg = span(si);
            return Err(VerifyError::ShortSegment {
                message: seg.message,
                start: seg.start,
                end: seg.end,
            });
        }
        let overlap = |w: &&[u32]| span(w[1]).start < span(w[0]).end - EPS;
        if let Some(w) = mine.windows(2).find(overlap) {
            return Err(VerifyError::SelfOverlap {
                message: MessageId(message),
                at: span(w[1]).start,
            });
        }
    }
    Ok(())
}

/// Sweeps every link's timeline, lowest link id first and within a link in
/// start order, so a schedule broken in several places always reports the
/// same one. `check_paths` has passed: every link id is below `num_links`.
///
/// Comparing start-order neighbours only is sound once `check_self_overlap`
/// has passed. Let `x` and `y` clash, of different messages, `x` first in
/// start order, and let `z` follow `x` directly; `z` starts no later than
/// `y`. If `z`'s message is not `x`'s, `x` and `z` clash at least as much,
/// and they are neighbours. If it is, `z` starts no more than `EPS` before
/// `x` ends, and `y` no earlier than `z`. Without a guard, `y` then clears
/// `x`: there was no clash. With one, the argument needs `z` to end no
/// earlier than `x`, which holds because `check_self_overlap` has rejected
/// every segment shorter than `EPS`; then `z` and `y` clash at least as
/// much, and the argument repeats from `z`, one step nearer `y`.
fn check_link_contention(schedule: &Schedule, num_links: usize) -> Result<(), VerifyError> {
    let segments = &schedule.segments;
    // Expand segments onto their links: a link's bucket is its timeline.
    let on_links = segments.iter().enumerate().flat_map(|(si, seg)| {
        let links = schedule.assignment.links(seg.message).iter();
        links.map(move |l| (l.index(), compact(si)))
    });
    let mut timelines = Buckets::group(num_links, on_links);
    // With a positive guard time, transmissions on a shared link must also
    // be separated by at least the guard (the CP-synchronization margin).
    let min_gap = if schedule.guard_time > 0.0 {
        schedule.guard_time - EPS
    } else {
        -EPS
    };
    let span = |si: u32| &segments[si as usize];
    for link in 0..num_links {
        let range = timelines.range(link);
        let timeline = &mut timelines.items[range];
        timeline.sort_by(|&a, &b| span(a).start.total_cmp(&span(b).start));
        for w in timeline.windows(2) {
            let (earlier, later) = (span(w[0]), span(w[1]));
            if later.start - earlier.end < min_gap && earlier.message != later.message {
                return Err(VerifyError::LinkContention {
                    link: LinkId(link),
                    messages: (earlier.message, later.message),
                    at: later.start,
                });
            }
        }
    }
    Ok(())
}

/// Judges the node switching schedules `omega` against the segments.
fn check_commands(
    schedule: &Schedule,
    omega: impl Iterator<Item = (NodeId, impl Iterator<Item = Command>)>,
) -> Result<(), VerifyError> {
    // One pass over the nodes serves both halves of the check.
    let mut backing = Backing::new(schedule);
    let mut conflict = None;
    let (mut commands, mut holders) = (Vec::new(), Vec::new());
    for (node, node_commands) in omega {
        commands.clear();
        commands.extend(node_commands);
        backing.mark(node, &commands);
        if conflict.is_none() {
            // Commands follow the segments, which `compile` and `patched`
            // leave in start order; only segments or commands edited by
            // hand can be out of it.
            if !commands.is_sorted_by(|a, b| a.start <= b.start) {
                commands.sort_by(|a, b| a.start.total_cmp(&b.start));
            }
            conflict = port_conflict(node, &commands, &mut holders);
        }
    }
    // An unbacked segment outranks a conflict, whichever node either was
    // found at.
    if let Some(message) = backing.first_unbacked() {
        return Err(VerifyError::WrongPath { message });
    }
    conflict.map_or(Ok(()), Err)
}

/// 4a: every segment is backed by the correct command at every hop — one
/// mark per segment and node of its path, set when that node's schedule
/// holds the command. A command names its message, so what it could back is
/// found from the command; there is no index of commands.
struct Backing<'a> {
    schedule: &'a Schedule,
    /// Each message's segments, as positions in `schedule.segments`.
    by_message: Buckets<u32>,
    /// Segment `si`'s marks are `backed[marks_of[si]..marks_of[si + 1]]`, in
    /// path order.
    marks_of: Vec<usize>,
    backed: Vec<bool>,
}

impl<'a> Backing<'a> {
    fn new(schedule: &'a Schedule) -> Self {
        let segments = schedule.segments.iter();
        let of_message = segments
            .enumerate()
            .map(|(si, seg)| (seg.message.index(), compact(si)));
        let by_message = Buckets::group(schedule.assignment.len(), of_message);
        let mut marks_of = Vec::with_capacity(schedule.segments.len() + 1);
        let mut marks = 0;
        for seg in &schedule.segments {
            marks_of.push(marks);
            marks += schedule.assignment.path(seg.message).nodes().len();
        }
        marks_of.push(marks);
        Backing {
            schedule,
            by_message,
            marks_of,
            backed: vec![false; marks],
        }
    }

    /// Sets the marks the `commands` of `node` earn. A command naming a
    /// message the assignment does not have backs nothing.
    fn mark(&mut self, node: NodeId, commands: &[Command]) {
        let assignment = &self.schedule.assignment;
        let known = |c: &&Command| c.message.index() < assignment.len();
        for c in commands.iter().filter(known) {
            let nodes = assignment.path(c.message).nodes();
            let links = assignment.links(c.message);
            for (i, _) in nodes.iter().enumerate().filter(|&(_, &n)| n == node) {
                if c.connection != hop_connection(links, i) {
                    continue;
                }
                for &si in &self.by_message.items[self.by_message.range(c.message.index())] {
                    let seg = &self.schedule.segments[si as usize];
                    if (c.start - seg.start).abs() <= EPS && (c.end - seg.end).abs() <= EPS {
                        self.backed[self.marks_of[si as usize] + i] = true;
                    }
                }
            }
        }
    }

    /// The message of the first segment, in segment order, that some node
    /// of its path does not back.
    fn first_unbacked(&self) -> Option<MessageId> {
        let marks = |si: usize| &self.backed[self.marks_of[si]..self.marks_of[si + 1]];
        let segments = self.schedule.segments.iter().enumerate();
        let mut unbacked = segments.filter(|&(si, _)| marks(si).contains(&false));
        unbacked.next().map(|(_, seg)| seg.message)
    }
}

/// 4b: no node needs a link port in two states at once. The node's commands,
/// `cmds` in start order, are swept once, and each link port keeps the
/// command that, of those begun on it so far, ends last. That one — not the
/// port's previous command — is the witness: if the latest-ending command
/// carries the same message as the command at hand, any other that overlaps
/// the command at hand overlaps the latest-ending one too, and that pair was
/// met earlier in the sweep. `holders` is scratch.
fn port_conflict(
    node: NodeId,
    cmds: &[Command],
    holders: &mut Vec<(LinkId, usize)>,
) -> Option<VerifyError> {
    holders.clear();
    for (ci, c) in cmds.iter().enumerate() {
        let Connection { from, to } = c.connection;
        for port in [Some(from), Some(to).filter(|&to| to != from)] {
            let Some(Port::Link(link)) = port else {
                continue;
            };
            let Some((_, held)) = holders.iter_mut().find(|(l, _)| *l == link) else {
                holders.push((link, ci));
                continue;
            };
            let h = &cmds[*held];
            if h.message != c.message && c.start < h.end.min(c.end) - EPS {
                return Some(VerifyError::ConflictingCommands { node, at: c.start });
            }
            if c.end > h.end {
                *held = ci;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileConfig, NodeSchedule, PathAssignment, Segment};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use sr_tfg::generators::{self, layered_random, LayeredParams};
    use sr_tfg::{TfgBuilder, Timing};
    use sr_topology::{GeneralizedHypercube, Path, Torus};

    fn compiled() -> (GeneralizedHypercube, TaskFlowGraph, Schedule) {
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
        (topo, tfg, sched)
    }

    /// A five-stage chain shuttling between node 0 and two neighbours: M0 and
    /// M1 share one link, M2 and M3 another.
    fn shuttle() -> (GeneralizedHypercube, TaskFlowGraph, Schedule) {
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let tfg = generators::chain(5, 500, 640);
        let placement = [0, 1, 0, 2, 0].map(NodeId).to_vec();
        let alloc = sr_mapping::Allocation::new(placement, &tfg, &topo).unwrap();
        let timing = Timing::new(64.0, 10.0);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            200.0,
            &CompileConfig::default(),
        )
        .expect("shuttle compiles");
        (topo, tfg, sched)
    }

    /// A hand-held `omega` as [`check_commands`] reads it.
    fn held(
        omega: &[NodeSchedule],
    ) -> impl Iterator<Item = (NodeId, impl Iterator<Item = Command> + '_)> + '_ {
        omega
            .iter()
            .map(|ns| (ns.node(), ns.commands().iter().copied()))
    }

    /// [`verify`]'s checks in its order, judging the hand-held `omega`
    /// instead of the `Ω` it derives from the segments.
    fn verify_holding(
        schedule: &Schedule,
        topo: &dyn Topology,
        tfg: &TaskFlowGraph,
        omega: &[NodeSchedule],
    ) -> Result<(), VerifyError> {
        check_paths(schedule, topo)?;
        check_completeness(schedule, tfg)?;
        check_windows(schedule)?;
        check_self_overlap(schedule)?;
        check_link_contention(schedule, topo.num_links())?;
        check_commands(schedule, held(omega))
    }

    #[test]
    fn valid_schedule_verifies() {
        let (topo, tfg, sched) = compiled();
        verify(&sched, &topo, &tfg).expect("clean schedule");
    }

    #[test]
    fn catches_deleted_segment() {
        let (topo, tfg, mut sched) = compiled();
        // Drop the first segment: its message is now short-changed.
        sched.segments.remove(0);
        let err = verify(&sched, &topo, &tfg).unwrap_err();
        assert!(matches!(err, VerifyError::IncompleteTransmission { .. }));
    }

    #[test]
    fn catches_contention_injection() {
        let (topo, tfg, mut sched) = compiled();
        // Duplicate a segment shifted to overlap itself on the same links
        // under a different message id with the same path? Simpler: take two
        // segments of different messages that share a link and force them to
        // overlap by stretching one across the other's span.
        // Fabricate: copy segment 0 and relabel it as a message that shares
        // a link if possible; otherwise stretch a segment.
        let seg0 = sched.segments[0];
        // Find another message sharing a link with seg0's message.
        let links0 = sched.assignment.links(seg0.message).to_vec();
        let other = (0..tfg.num_messages()).map(MessageId).find(|&m| {
            m != seg0.message && sched.assignment.links(m).iter().any(|l| links0.contains(l))
        });
        if let Some(other) = other {
            // Give `other` an extra segment exactly overlapping seg0. This
            // breaks completeness too, so check contention is reported by
            // bypassing the earlier check: lengthen instead. We simply
            // verify that *some* error is raised.
            sched.segments.push(Segment {
                message: other,
                start: seg0.start,
                end: seg0.end,
            });
            assert!(verify(&sched, &topo, &tfg).is_err());
        }
    }

    #[test]
    fn catches_out_of_window_segment() {
        let (topo, tfg, mut sched) = compiled();
        // Move a segment far outside its window (and fix nothing else).
        let m = sched.segments[0].message;
        let w = sched.bounds.window(m);
        // Find a time not inside any span.
        let gap = {
            let spans = w.spans();
            if spans.len() == 1 && w.covers_period() {
                None // cannot leave the window: skip
            } else {
                let (s0, _e0) = spans[spans.len() - 1];
                if s0 > 1.0 {
                    Some((s0 - 1.0, s0 - 0.5))
                } else {
                    None
                }
            }
        };
        if let Some((a, b)) = gap {
            sched.segments[0].start = a;
            sched.segments[0].end = b;
            let err = verify(&sched, &topo, &tfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    VerifyError::OutsideWindow { .. }
                        | VerifyError::IncompleteTransmission { .. }
                        | VerifyError::WrongPath { .. }
                ),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn fault_check_flags_scheduled_path_over_dead_link() {
        let (topo, tfg, sched) = compiled();
        // No faults: identical to plain verify.
        verify_with_faults(&sched, &topo, &tfg, &FaultSet::new()).expect("clean without faults");
        // Fail a link some message actually uses.
        let used = sched.assignment.links(sched.segments[0].message)[0];
        let err = verify_with_faults(&sched, &topo, &tfg, &FaultSet::new().fail_link(used))
            .expect_err("dead link under a scheduled path");
        assert!(matches!(err, VerifyError::UsesFailedResource { .. }));
        // Fail a node on some message's path.
        let mid = sched.assignment.path(sched.segments[0].message).nodes()[0];
        let err = verify_with_faults(&sched, &topo, &tfg, &FaultSet::new().fail_node(mid))
            .expect_err("dead node under a scheduled path");
        assert!(matches!(err, VerifyError::UsesFailedResource { .. }));
    }

    #[test]
    fn catches_missing_commands() {
        let (topo, tfg, sched) = compiled();
        // Blank out every node schedule: segments lose their backing.
        let blank: Vec<NodeSchedule> = (sched.node_schedules().iter())
            .map(|ns| NodeSchedule::new(ns.node(), Vec::new()))
            .collect();
        let err = verify_holding(&sched, &topo, &tfg, &blank).unwrap_err();
        assert!(matches!(err, VerifyError::WrongPath { .. }));
    }

    /// The four checks as they stood before the bucketed passes, verbatim:
    /// a scan of every segment per message, hashed per-link and per-message
    /// tables, and an all-pairs loop over each node's commands. Slow and —
    /// in which link a doubly-broken schedule reports — unordered, but the
    /// definition the fast passes are held to.
    mod reference {
        use super::super::*;
        use crate::{NodeSchedule, Segment};
        use std::collections::HashMap;

        pub(crate) fn verify(
            schedule: &Schedule,
            omega: &[NodeSchedule],
            tfg: &TaskFlowGraph,
        ) -> Result<(), VerifyError> {
            check_completeness(schedule, tfg)?;
            check_windows(schedule)?;
            check_self_overlap(schedule)?;
            check_link_contention(schedule)?;
            check_commands(schedule, omega)?;
            Ok(())
        }

        fn check_completeness(schedule: &Schedule, tfg: &TaskFlowGraph) -> Result<(), VerifyError> {
            for i in 0..tfg.num_messages() {
                let m = MessageId(i);
                if schedule.assignment.links(m).is_empty() {
                    continue; // local message: no network time needed
                }
                let required = schedule.bounds.window(m).duration();
                let scheduled: f64 = schedule
                    .segments
                    .iter()
                    .filter(|s| s.message == m)
                    .map(Segment::duration)
                    .sum();
                if (scheduled - required).abs() > EPS * required.max(1.0) {
                    return Err(VerifyError::IncompleteTransmission {
                        message: m,
                        scheduled,
                        required,
                    });
                }
            }
            Ok(())
        }

        fn check_windows(schedule: &Schedule) -> Result<(), VerifyError> {
            for seg in &schedule.segments {
                let w = schedule.bounds.window(seg.message);
                let inside = w
                    .spans()
                    .iter()
                    .any(|&(s, e)| seg.start >= s - EPS && seg.end <= e + EPS);
                if !inside {
                    return Err(VerifyError::OutsideWindow {
                        message: seg.message,
                        start: seg.start,
                        end: seg.end,
                    });
                }
            }
            Ok(())
        }

        /// Every one of a message's segments for its length, then every
        /// pair, the later in start order against each before it.
        fn check_self_overlap(schedule: &Schedule) -> Result<(), VerifyError> {
            for i in 0..schedule.assignment.len() {
                let m = MessageId(i);
                let mut own: Vec<&Segment> = schedule
                    .segments
                    .iter()
                    .filter(|s| s.message == m)
                    .collect();
                own.sort_by(|a, b| a.start.total_cmp(&b.start));
                if let Some(short) = own.iter().find(|s| s.end - s.start < EPS) {
                    return Err(VerifyError::ShortSegment {
                        message: m,
                        start: short.start,
                        end: short.end,
                    });
                }
                for (j, later) in own.iter().enumerate() {
                    if own[..j]
                        .iter()
                        .any(|earlier| later.start < earlier.end - EPS)
                    {
                        return Err(VerifyError::SelfOverlap {
                            message: m,
                            at: later.start,
                        });
                    }
                }
            }
            Ok(())
        }

        pub(crate) fn check_link_contention(schedule: &Schedule) -> Result<(), VerifyError> {
            // Expand segments onto their links and sweep each link's timeline.
            let mut per_link: HashMap<LinkId, Vec<(f64, f64, MessageId)>> = HashMap::new();
            for seg in &schedule.segments {
                for &l in schedule.assignment.links(seg.message) {
                    per_link
                        .entry(l)
                        .or_default()
                        .push((seg.start, seg.end, seg.message));
                }
            }
            // With a positive guard time, transmissions on a shared link must also
            // be separated by at least the guard (the CP-synchronization margin).
            let min_gap = if schedule.guard_time > 0.0 {
                schedule.guard_time - EPS
            } else {
                -EPS
            };
            for (link, mut spans) in per_link {
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in spans.windows(2) {
                    let (s0, e0, m0) = w[0];
                    let (s1, _e1, m1) = w[1];
                    let _ = s0;
                    if s1 - e0 < min_gap && m0 != m1 {
                        return Err(VerifyError::LinkContention {
                            link,
                            messages: (m0, m1),
                            at: s1,
                        });
                    }
                }
            }
            Ok(())
        }

        pub(crate) fn check_commands(
            schedule: &Schedule,
            omega: &[NodeSchedule],
        ) -> Result<(), VerifyError> {
            // Index all commands by message for the per-segment path check.
            let mut by_message: HashMap<MessageId, Vec<(usize, Command)>> = HashMap::new();
            for ns in omega {
                for &c in ns.commands() {
                    by_message
                        .entry(c.message)
                        .or_default()
                        .push((ns.node().index(), c));
                }
            }

            // 4a: every segment is backed by the correct command at every hop.
            for seg in &schedule.segments {
                let path = schedule.assignment.path(seg.message);
                let nodes = path.nodes();
                let links = schedule.assignment.links(seg.message);
                let cmds = by_message.get(&seg.message).cloned().unwrap_or_default();
                for (i, &node) in nodes.iter().enumerate() {
                    let want = Connection {
                        from: if i == 0 {
                            Port::Processor
                        } else {
                            Port::Link(links[i - 1])
                        },
                        to: if i == nodes.len() - 1 {
                            Port::Processor
                        } else {
                            Port::Link(links[i])
                        },
                    };
                    let found = cmds.iter().any(|(n, c)| {
                        *n == node.index()
                            && c.connection == want
                            && (c.start - seg.start).abs() <= EPS
                            && (c.end - seg.end).abs() <= EPS
                    });
                    if !found {
                        return Err(VerifyError::WrongPath {
                            message: seg.message,
                        });
                    }
                }
            }

            // 4b: no node needs a link port in two states at once.
            for ns in omega {
                let cmds = ns.commands();
                for i in 0..cmds.len() {
                    for j in (i + 1)..cmds.len() {
                        let (a, b) = (&cmds[i], &cmds[j]);
                        let overlap = a.start.max(b.start) < a.end.min(b.end) - EPS;
                        if !overlap {
                            continue;
                        }
                        let ports = |c: &Command| {
                            [c.connection.from, c.connection.to]
                                .into_iter()
                                .filter(|p| matches!(p, Port::Link(_)))
                                .collect::<Vec<_>>()
                        };
                        let shares_link = ports(a).iter().any(|p| ports(b).contains(p));
                        if shares_link && a.message != b.message {
                            return Err(VerifyError::ConflictingCommands {
                                node: ns.node(),
                                at: a.start.max(b.start),
                            });
                        }
                    }
                }
            }
            Ok(())
        }
    }

    /// What two verdicts must agree on: everything — a short-changed
    /// message's total to the bit — except which of several contended links
    /// is reported (the reference yields whichever its hash map holds first)
    /// and the instant of a command conflict (it depends on which pair of a
    /// node's conflicting commands is met first).
    fn verdict(result: &Result<(), VerifyError>) -> String {
        match result {
            Ok(()) => "ok".to_string(),
            Err(VerifyError::LinkContention { .. }) => "link contention".to_string(),
            Err(VerifyError::IncompleteTransmission {
                message,
                scheduled,
                required,
            }) => format!(
                "incomplete {message} {:#x} of {:#x}",
                scheduled.to_bits(),
                required.to_bits()
            ),
            Err(VerifyError::ConflictingCommands { node, .. }) => format!("conflict at {node}"),
            Err(other) => format!("{other:?}"),
        }
    }

    /// A seeded compiled schedule: a random layered graph, randomly placed
    /// (tasks may share a node, so some messages are local) on one of four
    /// small fabrics, with or without a guard time. `None` when the draw is
    /// not schedulable.
    fn seeded_schedule(seed: u64) -> Option<(Box<dyn Topology>, TaskFlowGraph, Schedule)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo: Box<dyn Topology> = match seed % 4 {
            0 => Box::new(GeneralizedHypercube::binary(3).unwrap()),
            1 => Box::new(Torus::new(&[4, 4]).unwrap()),
            2 => Box::new(GeneralizedHypercube::new(&[3, 3]).unwrap()),
            _ => Box::new(Torus::new(&[3, 5]).unwrap()),
        };
        let params = LayeredParams {
            layers: rng.gen_range(2..5),
            width: rng.gen_range(1..5),
            edge_probability: rng.gen_range(0.3..0.9),
            ops: (500, 2000),
            bytes: (64, 2048),
        };
        let tfg = layered_random(rng.next_u64(), &params);
        let timing = Timing::new(64.0, 20.0);
        let alloc = sr_mapping::random(&tfg, topo.as_ref(), rng.next_u64());
        let period = timing.longest_task(&tfg) / rng.gen_range(0.2..0.8);
        let config = CompileConfig {
            guard_time: if seed.is_multiple_of(2) { 1.5 } else { 0.0 },
            parallelism: 1,
            ..CompileConfig::default()
        };
        let schedule = compile(topo.as_ref(), &tfg, &alloc, &timing, period, &config).ok()?;
        Some((topo, tfg, schedule))
    }

    /// One seeded corruption of a schedule's segments or of a hand-held
    /// `omega`; returns its name. The assignment is never touched.
    fn mutate(
        schedule: &mut Schedule,
        omega: &mut [NodeSchedule],
        rng: &mut StdRng,
    ) -> &'static str {
        let messages = schedule.assignment.len();
        let busy: Vec<usize> = (0..omega.len()).filter(|&n| !omega[n].is_idle()).collect();
        if schedule.segments.is_empty() || busy.is_empty() {
            return "nothing to corrupt";
        }
        let si = rng.gen_range(0..schedule.segments.len());
        let ni = busy[rng.gen_range(0..busy.len())];
        let node = omega[ni].node();
        let mut cmds = omega[ni].commands().to_vec();
        let ci = rng.gen_range(0..cmds.len());
        // Small steps straddle EPS and the guard; large ones cross spans.
        let step: f64 = [1e-7, 1e-5, 0.5, 3.0, 40.0][rng.gen_range(0..5usize)];
        let step = if rng.gen_bool(0.5) { step } else { -step };
        let what = match rng.gen_range(0..10) {
            0 => {
                schedule.segments.remove(si);
                "delete a segment"
            }
            1 => {
                schedule.segments[si].start += step;
                schedule.segments[si].end += step;
                "shift a segment"
            }
            2 => {
                schedule.segments[si].end += step;
                "stretch a segment"
            }
            3 => {
                let copy = schedule.segments[si];
                schedule.segments.push(copy);
                "duplicate a segment"
            }
            4 => {
                schedule.segments[si].message = MessageId(rng.gen_range(0..messages));
                "relabel a segment"
            }
            5 => {
                cmds.remove(ci);
                "drop a command"
            }
            6 => {
                cmds[ci].end += step;
                "stretch a command"
            }
            7 => {
                cmds[ci].start += step;
                "move a command's start"
            }
            8 => {
                cmds[ci].message = MessageId(rng.gen_range(0..messages));
                "retarget a command"
            }
            _ => {
                let mut copy = cmds[ci];
                copy.message = MessageId(rng.gen_range(0..messages));
                copy.start += step;
                cmds.push(copy);
                "add a command"
            }
        };
        omega[ni] = NodeSchedule::new(node, cmds);
        what
    }

    /// The bucketed passes give the reference's verdict — on every clean
    /// compiled schedule and on every seeded corruption of one, down to the
    /// message or node the error names. Commands are corrupted in a
    /// hand-held `Ω`, derived from the clean schedule, which the command
    /// check judges in place of the one `verify` derives; `verify` itself
    /// is held to the reference on the `Ω` it derives from the corrupted
    /// segments.
    #[test]
    fn verdicts_equal_the_reference_on_mutated_schedules() {
        let (mut schedules, mut guarded, mut local) = (0, 0, 0);
        let mut verdicts = std::collections::BTreeMap::<String, usize>::new();
        for seed in 0..360 {
            let Some((topo, tfg, schedule)) = seeded_schedule(seed) else {
                continue;
            };
            schedules += 1;
            guarded += usize::from(schedule.guard_time > 0.0);
            let is_local = |m: usize| schedule.assignment.links(MessageId(m)).is_empty();
            local += usize::from((0..tfg.num_messages()).any(is_local));
            assert_eq!(
                verify(&schedule, topo.as_ref(), &tfg),
                Ok(()),
                "seed {seed}"
            );
            let omega = schedule.node_schedules();
            assert_eq!(
                reference::verify(&schedule, &omega, &tfg),
                Ok(()),
                "seed {seed}"
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for round in 0..12 {
                let (mut broken, mut hand) = (schedule.clone(), omega.clone());
                // One corruption, or two on top of each other.
                let mut what = vec![mutate(&mut broken, &mut hand, &mut rng)];
                if round % 3 == 2 {
                    what.push(mutate(&mut broken, &mut hand, &mut rng));
                }
                let got = verdict(&verify_holding(&broken, topo.as_ref(), &tfg, &hand));
                let want = verdict(&reference::verify(&broken, &hand, &tfg));
                assert_eq!(got, want, "seed {seed} round {round}: {what:?}");
                let derived = verdict(&verify(&broken, topo.as_ref(), &tfg));
                let want = reference::verify(&broken, &broken.node_schedules(), &tfg);
                assert_eq!(
                    derived,
                    verdict(&want),
                    "seed {seed} round {round}: {what:?}"
                );
                // The later checks too, which an earlier error hides above.
                let links = check_link_contention(&broken, topo.num_links());
                let want = reference::check_link_contention(&broken);
                assert_eq!(verdict(&links), verdict(&want), "seed {seed} round {round}");
                let commands = verdict(&check_commands(&broken, held(&hand)));
                let want = verdict(&reference::check_commands(&broken, &hand));
                assert_eq!(commands, want, "seed {seed} round {round}: {what:?}");
                for reached in [got, verdict(&links), commands] {
                    let variant = reached.split(' ').next().unwrap_or_default().to_string();
                    *verdicts.entry(variant).or_default() += 1;
                }
            }
        }
        assert!(schedules >= 200, "{schedules} schedules");
        assert!(
            guarded >= 50 && local >= 20,
            "{guarded} guarded, {local} with local messages"
        );
        // Every kind of verdict was reached, a surviving schedule included
        // (a sub-EPS nudge breaks nothing). A self-overlap needs a segment
        // shifted onto another of its message's and still in its window,
        // which few draws give.
        for (variant, at_least) in [
            ("ok", 50),
            ("incomplete", 50),
            ("OutsideWindow", 50),
            ("SelfOverlap", 10),
            ("link", 50),
            ("WrongPath", 50),
            ("conflict", 50),
        ] {
            assert!(
                verdicts.get(variant).is_some_and(|&n| n >= at_least),
                "{verdicts:?}"
            );
        }
    }

    /// A schedule with nothing to transmit and an `Ω` holding only the
    /// given commands at one node, so the port sweep is all that can
    /// object.
    fn commands_only(commands: Vec<Command>) -> (Schedule, Vec<NodeSchedule>) {
        let (_, _, mut sched) = compiled();
        sched.segments.clear();
        (sched, vec![NodeSchedule::new(NodeId(2), commands)])
    }

    fn through(message: usize, from: usize, to: usize, start: f64, end: f64) -> Command {
        let connection = Connection {
            from: Port::Link(LinkId(from)),
            to: Port::Link(LinkId(to)),
        };
        Command {
            start,
            end,
            connection,
            message: MessageId(message),
        }
    }

    /// The trap a neighbours-only sweep falls into: on link 4's port, M0
    /// holds [0, 10], its own second command [1, 2] sits between, and M1's
    /// [5, 6] overlaps only the first — not its neighbour in start order.
    #[test]
    fn port_sweep_sees_an_overlap_hidden_behind_a_same_message_neighbour() {
        let (sched, hidden) = commands_only(vec![
            through(0, 4, 7, 0.0, 10.0),
            through(0, 4, 8, 1.0, 2.0),
            through(1, 9, 4, 5.0, 6.0),
        ]);
        let expected = Err(VerifyError::ConflictingCommands {
            node: NodeId(2),
            at: 5.0,
        });
        assert_eq!(check_commands(&sched, held(&hidden)), expected);
        assert_eq!(reference::check_commands(&sched, &hidden), expected);
        // Without the shared port, or ending where the long one begins,
        // there is nothing to see.
        let (sched, apart) = commands_only(vec![
            through(0, 4, 7, 0.0, 10.0),
            through(0, 4, 8, 1.0, 2.0),
            through(1, 9, 3, 5.0, 6.0),
            through(2, 5, 4, 10.0, 12.0),
        ]);
        assert_eq!(check_commands(&sched, held(&apart)), Ok(()));
        assert_eq!(reference::check_commands(&sched, &apart), Ok(()));
    }

    /// The shuttle's M0 and M1, which share a link, transmitting `gap` apart.
    fn two_on_a_link(gap: f64, guard_time: f64) -> Schedule {
        let (_, _, mut sched) = shuttle();
        sched.guard_time = guard_time;
        let segment = |message, start, end| Segment {
            message: MessageId(message),
            start,
            end,
        };
        sched.segments = vec![segment(0, 0.0, 4.0), segment(1, 4.0 + gap, 9.0)];
        sched
    }

    /// The guard is a lower bound on the gap between two messages on one
    /// link, with `EPS` of slack and no more: a gap short of it by `2·EPS`
    /// is a contention, short by half an `EPS` is not.
    #[test]
    fn guard_gap_is_enforced_to_within_eps() {
        let guard = 1.5;
        for (gap, clean) in [
            (guard, true),
            (guard - 0.5 * EPS, true),
            (guard - 2.0 * EPS, false),
            (0.0, false),
        ] {
            let sched = two_on_a_link(gap, guard);
            let got = check_link_contention(&sched, 4);
            assert_eq!(got.is_ok(), clean, "gap {gap}: {got:?}");
            assert_eq!(reference::check_link_contention(&sched).is_ok(), clean);
        }
        // Without a guard, touching is fine and only a real overlap is not.
        assert!(check_link_contention(&two_on_a_link(0.0, 0.0), 4).is_ok());
        assert!(check_link_contention(&two_on_a_link(-0.5 * EPS, 0.0), 4).is_ok());
        assert!(check_link_contention(&two_on_a_link(-2.0 * EPS, 0.0), 4).is_err());
    }

    /// Every hop of a segment needs its command: with the one at a single
    /// node gone — first, last or any in between — the segment is unbacked.
    #[test]
    fn segment_backed_at_every_hop_but_one_is_a_wrong_path() {
        let (topo, tfg, sched) = compiled();
        let seg = *sched
            .segments
            .iter()
            .max_by_key(|s| sched.assignment.links(s.message).len())
            .unwrap();
        let nodes = sched.assignment.path(seg.message).nodes().to_vec();
        assert!(nodes.len() >= 3, "need a segment with an intermediate node");
        for &unbacked in &nodes {
            let mut broken = sched.node_schedules();
            let ns = &mut broken[unbacked.index()];
            let backs = |c: &Command| c.message == seg.message && c.start == seg.start;
            let kept: Vec<Command> = ns
                .commands()
                .iter()
                .copied()
                .filter(|c| !backs(c))
                .collect();
            assert_eq!(kept.len() + 1, ns.commands().len());
            *ns = NodeSchedule::new(unbacked, kept);
            let expected = Err(VerifyError::WrongPath {
                message: seg.message,
            });
            assert_eq!(verify_holding(&sched, &topo, &tfg, &broken), expected);
            assert_eq!(reference::verify(&sched, &broken, &tfg), expected);
        }
    }

    /// The half-message trap: segment 0 shortened to its first half and that
    /// half booked twice at the same instant. The message is counted
    /// complete, no other message shares its time, and the `Ω` derived from
    /// the segments backs both halves — only the self-overlap check sees
    /// that half the bytes never leave.
    #[test]
    fn a_message_counted_twice_over_the_same_time_is_a_self_overlap() {
        let (topo, tfg, mut sched) = compiled();
        let seg = sched.segments[0];
        let half = Segment {
            end: (seg.start + seg.end) / 2.0,
            ..seg
        };
        sched.segments[0] = half;
        sched.segments.insert(1, half);
        let derived = sched.node_schedules();
        assert_eq!(check_completeness(&sched, &tfg), Ok(()));
        assert_eq!(check_link_contention(&sched, topo.num_links()), Ok(()));
        assert_eq!(check_commands(&sched, held(&derived)), Ok(()));
        let expected = Err(VerifyError::SelfOverlap {
            message: seg.message,
            at: seg.start,
        });
        assert_eq!(verify(&sched, &topo, &tfg), expected);
        assert_eq!(reference::verify(&sched, &derived, &tfg), expected);
    }

    /// Two messages over the one link of a two-node fabric, both released
    /// when `t0` ends: M0 from `t0` to `t1`, M1 from `t0` to `t2`, each
    /// 10 µs on the wire.
    fn twin_link() -> (GeneralizedHypercube, TaskFlowGraph, Schedule) {
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 200);
        let t1 = b.task("t1", 200);
        let t2 = b.task("t2", 200);
        b.message("m0", t0, t1, 640).unwrap();
        b.message("m1", t0, t2, 640).unwrap();
        let tfg = b.build().unwrap();
        let placement = [0, 1, 1].map(NodeId).to_vec();
        let alloc = sr_mapping::Allocation::new(placement, &tfg, &topo).unwrap();
        let timing = Timing::new(64.0, 10.0);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .expect("two messages fit one link");
        (topo, tfg, sched)
    }

    /// The hidden-neighbour trap: on the one link, M0 holds `[w, w + 9]` and
    /// `[w + 2, w + 3]`, and M1's `[w + 5, w + 15]` clashes with the first
    /// but is the start-order neighbour only of the second. Both messages
    /// are complete and in their windows, and the neighbour sweep sees no
    /// clash; the self-overlap check stops the schedule before it.
    #[test]
    fn a_clash_hidden_behind_a_same_message_neighbour_is_a_self_overlap() {
        let (topo, tfg, mut sched) = twin_link();
        verify(&sched, &topo, &tfg).expect("compiled twin verifies");
        let w = sched.bounds.window(MessageId(0)).spans()[0].0;
        assert_eq!(sched.bounds.window(MessageId(1)).spans()[0].0, w);
        let segment = |message, start: f64, end: f64| Segment {
            message: MessageId(message),
            start: w + start,
            end: w + end,
        };
        sched.segments = vec![
            segment(0, 0.0, 9.0),
            segment(0, 2.0, 3.0),
            segment(1, 5.0, 15.0),
        ];
        assert_eq!(check_completeness(&sched, &tfg), Ok(()));
        assert_eq!(check_windows(&sched), Ok(()));
        assert_eq!(check_link_contention(&sched, topo.num_links()), Ok(()));
        let expected = Err(VerifyError::SelfOverlap {
            message: MessageId(0),
            at: w + 2.0,
        });
        assert_eq!(verify(&sched, &topo, &tfg), expected);
        let derived = sched.node_schedules();
        assert_eq!(reference::verify(&sched, &derived, &tfg), expected);
        // M0's second piece after the first, touching it: a continuation,
        // and the clash is now between neighbours.
        sched.segments[1] = segment(0, 9.0, 10.0);
        sched.segments.swap(1, 2);
        assert!(matches!(
            verify(&sched, &topo, &tfg),
            Err(VerifyError::LinkContention { .. })
        ));
    }

    /// The sub-`EPS` trap: with a 1 µs guard on the one link, M0 holds
    /// `[w, w + 10]` and a sliver ending just before it does, and M1 starts
    /// 1.3 ns short of a guard after `w + 10` — a guard violation, but M1's
    /// start-order neighbour is the sliver, which it clears. Every other
    /// check passes it (as the whole of `verify` did while nothing bounded
    /// a segment's length); the self-overlap check refuses the sliver.
    #[test]
    fn a_guard_clash_hidden_behind_a_sub_eps_neighbour_is_a_short_segment() {
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 200);
        let t1 = b.task("t1", 200);
        let t2 = b.task("t2", 200);
        b.message("m0", t0, t1, 640).unwrap();
        b.message("m1", t0, t2, 320).unwrap();
        let tfg = b.build().unwrap();
        let placement = [0, 1, 1].map(NodeId).to_vec();
        let alloc = sr_mapping::Allocation::new(placement, &tfg, &topo).unwrap();
        let config = CompileConfig {
            guard_time: 1.0,
            ..CompileConfig::default()
        };
        let timing = Timing::new(64.0, 10.0);
        let mut sched = compile(&topo, &tfg, &alloc, &timing, 100.0, &config)
            .expect("10 + 5 µs and two guards fit the 20 µs windows");
        let w = sched.bounds.window(MessageId(0)).spans()[0].0;
        assert_eq!(sched.bounds.window(MessageId(1)).spans()[0].0, w);
        let segment = |message, start: f64, end: f64| Segment {
            message: MessageId(message),
            start: w + start,
            end: w + end,
        };
        let sliver = segment(0, 10.0 - 0.9e-6, 10.0 - 0.5e-6);
        sched.segments = vec![
            segment(0, 0.0, 10.0),
            sliver,
            segment(1, 11.0 - 1.3e-6, 16.0 - 1.3e-6),
        ];
        let derived = sched.node_schedules();
        assert_eq!(check_paths(&sched, &topo), Ok(()));
        assert_eq!(check_completeness(&sched, &tfg), Ok(()));
        assert_eq!(check_windows(&sched), Ok(()));
        assert_eq!(check_link_contention(&sched, topo.num_links()), Ok(()));
        assert_eq!(reference::check_link_contention(&sched), Ok(()));
        assert_eq!(check_commands(&sched, held(&derived)), Ok(()));
        let expected = Err(VerifyError::ShortSegment {
            message: MessageId(0),
            start: sliver.start,
            end: sliver.end,
        });
        assert_eq!(verify(&sched, &topo, &tfg), expected);
        assert_eq!(reference::verify(&sched, &derived, &tfg), expected);
        // Without the sliver the clash is between neighbours.
        sched.segments.remove(1);
        assert!(matches!(
            verify(&sched, &topo, &tfg),
            Err(VerifyError::LinkContention { .. })
        ));
    }

    /// A message between two tasks on one node has a one-node path, no link
    /// row, no segments and no commands — and nothing to answer for, even
    /// when a stray segment is booked under its id. The `Ω` derived from
    /// the stray segment holds its processor-to-processor command; a
    /// hand-held `Ω` without it leaves the segment unbacked.
    #[test]
    fn local_message_needs_no_network_time() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 500, 640);
        let placement = vec![NodeId(0), NodeId(0), NodeId(5)];
        let alloc = sr_mapping::Allocation::new(placement, &tfg, &topo).unwrap();
        let timing = Timing::new(64.0, 10.0);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            150.0,
            &CompileConfig::default(),
        )
        .expect("chain compiles");
        assert_eq!(sched.assignment.path(MessageId(0)).hops(), 0);
        assert!(sched.segments.iter().all(|s| s.message == MessageId(1)));
        verify(&sched, &topo, &tfg).expect("local message is exempt");
        let mut stray = sched.clone();
        let window = stray.bounds.window(MessageId(0)).spans()[0];
        stray.segments.push(Segment {
            message: MessageId(0),
            start: window.0,
            end: window.0 + 1.0,
        });
        assert_eq!(verify(&stray, &topo, &tfg), Ok(()));
        let derived = stray.node_schedules();
        assert_eq!(reference::verify(&stray, &derived, &tfg), Ok(()));
        let without = sched.node_schedules();
        let expected = Err(VerifyError::WrongPath {
            message: MessageId(0),
        });
        assert_eq!(verify_holding(&stray, &topo, &tfg, &without), expected);
        assert_eq!(reference::verify(&stray, &without, &tfg), expected);
    }

    /// Builds the schedule a path assignment leads to — allocation, interval
    /// schedules and segments all derived from `assignment`, link rows
    /// included, as `compile` derives them.
    fn scheduled_from(assignment: PathAssignment, clean: &Schedule) -> Schedule {
        let subsets = crate::related_subsets(&assignment, &clean.activity);
        let allocation = crate::allocate_intervals(
            &assignment,
            &clean.bounds,
            &clean.activity,
            &clean.intervals,
            &subsets,
            1.0,
        )
        .expect("allocates");
        let interval_schedules =
            crate::schedule_intervals(&assignment, &allocation, &clean.intervals, &subsets, 10_000)
                .expect("schedules");
        Schedule {
            segments: crate::segments_of(&interval_schedules),
            assignment,
            allocation,
            ..clean.clone()
        }
    }

    /// The hole the path check closes: a link row that is not the link
    /// sequence of its node path. Everything downstream reads the row, so
    /// the schedule is complete, in window, contention-free *in link-id
    /// space* and consistently switched — the four replay checks pass it —
    /// while the crossbars it drives would send the message over a link
    /// that is not on its route.
    #[test]
    fn link_row_off_its_node_path_is_a_wrong_path() {
        let (topo, tfg, clean) = compiled();
        let rows = clean.assignment.link_rows();
        let routes = clean.assignment.routes(&rows);
        let used: std::collections::HashSet<u32> = rows.iter().copied().collect();
        let idle = (0..topo.num_links() as u32)
            .find(|l| !used.contains(l))
            .expect("the diamond leaves a link of the 3-cube idle");
        // Give the first routed message a row whose first link is the idle
        // one; its node path stays.
        let victim = routes.iter().position(|r| !r.links.is_empty()).unwrap();
        let mut wrong_row = routes[victim].links.to_vec();
        wrong_row[0] = idle;
        let mut wrong_routes = routes.clone();
        wrong_routes[victim].links = &wrong_row;

        let faithful = scheduled_from(PathAssignment::from_routes(&routes), &clean);
        verify(&faithful, &topo, &tfg).expect("rebuilt from the true rows");
        let wrong = scheduled_from(PathAssignment::from_routes(&wrong_routes), &clean);
        assert_eq!(
            reference::verify(&wrong, &wrong.node_schedules(), &tfg),
            Ok(())
        );
        let expected = Err(VerifyError::WrongPath {
            message: MessageId(victim),
        });
        assert_eq!(verify(&wrong, &topo, &tfg), expected);
        assert_eq!(
            verify_with_faults(&wrong, &topo, &tfg, &FaultSet::new()),
            expected
        );

        // A row of the wrong length, and a path that is no walk at all.
        let mut short = clean.clone();
        let far = Path::new(vec![NodeId(0), NodeId(7)]);
        short.assignment = PathAssignment::from_routes(
            &[crate::assignment::Route {
                path: &far,
                links: &[],
            }]
            .repeat(tfg.num_messages()),
        );
        assert!(matches!(
            verify(&short, &topo, &tfg),
            Err(VerifyError::WrongPath { message }) if message == MessageId(0)
        ));
    }

    /// A schedule broken on two links reports the lower link, and within it
    /// the earlier clash — every time, not whichever a hash map yields.
    #[test]
    fn doubly_broken_schedule_reports_one_contention() {
        let (topo, tfg, clean) = shuttle();
        // Two messages with disjoint routes, each given a squatter: a copy
        // of its first segment under another message's id that crosses one
        // of its links.
        let mut broken = clean.clone();
        let mut squatted: Vec<LinkId> = Vec::new();
        for seg in clean.segments.clone() {
            let links = clean.assignment.links(seg.message);
            if links.iter().any(|l| squatted.contains(l)) {
                continue;
            }
            let other = (0..tfg.num_messages()).map(MessageId).find(|&m| {
                m != seg.message && clean.assignment.links(m).iter().any(|l| links.contains(l))
            });
            if let Some(other) = other {
                broken.segments.push(Segment {
                    message: other,
                    ..seg
                });
                squatted.extend(links);
            }
        }
        assert!(
            squatted.len() >= 2,
            "two contended links needed: {squatted:?}"
        );
        let first = check_link_contention(&broken, topo.num_links()).unwrap_err();
        let VerifyError::LinkContention { link, at, .. } = first.clone() else {
            panic!("not a contention: {first:?}");
        };
        // The lowest contended link, at its earliest clash.
        let mut clashes: Vec<(LinkId, f64)> = Vec::new();
        for l in (0..topo.num_links()).map(LinkId) {
            let mut on: Vec<&Segment> = broken
                .segments
                .iter()
                .filter(|s| broken.assignment.links(s.message).contains(&l))
                .collect();
            on.sort_by(|a, b| a.start.total_cmp(&b.start));
            let clash = on
                .windows(2)
                .find(|w| w[1].start - w[0].end < -EPS && w[0].message != w[1].message);
            clashes.extend(clash.map(|w| (l, w[1].start)));
        }
        assert!(clashes.len() >= 2, "{clashes:?}");
        assert_eq!((link, at), clashes[0]);
        for _ in 0..20 {
            assert_eq!(
                check_link_contention(&broken, topo.num_links()),
                Err(first.clone())
            );
        }
    }
}
