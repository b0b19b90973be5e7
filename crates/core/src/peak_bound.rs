//! A sound lower bound on the effective peak utilization over every
//! assignment an `AssignPaths` climb can reach — the certificate that lets a
//! climb stop (or never start) once it provably cannot win.
//!
//! A climb holds every **frozen** message to its start route and moves each
//! **movable** message among its start route and its alternatives. Over all
//! those assignments no link's figure can fall below the largest of four
//! floors (DESIGN.md §6d has the arguments):
//!
//! * **fixed link** — a link on no route a movable message can take (its
//!   start list is all frozen, no alternative crosses it) keeps its message
//!   list for the whole climb, so its start figure is exact;
//! * **forced group** — the messages *forced* onto a reachable link (frozen
//!   ones routed over it, movable ones whose every route crosses it) are
//!   there in every assignment, and the Hall bound is monotone in the list;
//! * **forced spot** — so is the per-interval count of no-slack messages;
//! * **solo** — a message that crosses the network at all owns
//!   `duration / active time` of whichever links it ends up on.
//!
//! `U^l` of a forced list is **not** a floor ([`crate::utilization::ForcedFloor`]).

use sr_tfg::MessageId;
use sr_topology::LinkId;

use crate::assign_paths::{Movable, Start};
use crate::assignment::compact_link;
use crate::utilization::{forced_floor, LinkScratch, MsgInputs};
use crate::{Intervals, PathAssignment};

/// Which of the four floors a lower bound rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundFloor {
    /// A link no movable message can reach: its figure cannot change.
    FixedLink,
    /// The Hall bound of the messages forced onto a reachable link.
    ForcedGroup,
    /// No-slack messages forced onto one link in one interval.
    ForcedSpot,
    /// One message's `duration / active time`.
    Solo,
}

impl BoundFloor {
    /// Stable lowercase label, used by the `explain` rendering.
    pub fn label(self) -> &'static str {
        match self {
            BoundFloor::FixedLink => "fixed link",
            BoundFloor::ForcedGroup => "forced group",
            BoundFloor::ForcedSpot => "forced spot",
            BoundFloor::Solo => "solo message",
        }
    }
}

/// The witness of a lower bound above capacity: no path assignment over the
/// alternatives considered can bring the peak utilization below `bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakCertificate {
    /// The lower bound on the effective peak utilization.
    pub bound: f64,
    /// The floor it rests on.
    pub floor: BoundFloor,
    /// The link that cannot be relieved (`None` for [`BoundFloor::Solo`]:
    /// the message overloads whichever link carries it).
    pub link: Option<LinkId>,
    /// The messages that cannot leave it, ascending.
    pub messages: Vec<MessageId>,
}

/// Where a [`PeakBound`] was found.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Witness {
    Link(BoundFloor, usize),
    Solo(usize),
}

/// A lower bound on the effective peak of every assignment a climb can
/// reach, and where it was found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PeakBound {
    pub(crate) value: f64,
    witness: Option<Witness>,
}

impl PeakBound {
    fn raise(&mut self, value: f64, witness: Witness) {
        if value > self.value {
            *self = PeakBound {
                value,
                witness: Some(witness),
            };
        }
    }
}

/// Marks a message without alternatives in [`Moves::slot`].
const FROZEN: u32 = u32::MAX;

/// What one climb may do to each message.
struct Moves<'a> {
    start: &'a PathAssignment,
    movable: &'a [Movable<'a>],
    /// Per message: its position in `movable`, or [`FROZEN`].
    slot: Vec<u32>,
}

impl<'a> Moves<'a> {
    fn of(start: &'a PathAssignment, movable: &'a [Movable<'a>]) -> Self {
        let mut slot = vec![FROZEN; start.len()];
        for (pos, &(m, _)) in movable.iter().enumerate() {
            slot[m.index()] = pos as u32;
        }
        Moves {
            start,
            movable,
            slot,
        }
    }

    /// Whether no message of `on` (a link's start list) can leave.
    fn all_frozen(&self, on: &[usize]) -> bool {
        on.iter().all(|&i| self.slot[i] == FROZEN)
    }

    /// Marks every link some movable message's alternatives cross. A start
    /// route that is not among them needs no mark: its links have the
    /// message on their start lists, so they are never taken for fixed.
    fn reach(&self, num_links: usize) -> Vec<bool> {
        let mut marked = vec![false; num_links];
        for (_, alts) in self.movable {
            alts.each_link(|l| marked[l as usize] = true);
        }
        marked
    }

    /// Every movable message's **forced row**: the links of its start route
    /// that all its alternatives cross too — the links it is on in every
    /// reachable assignment.
    fn forced_rows(&self) -> ForcedRows<'_> {
        let mut offsets = Vec::with_capacity(self.movable.len() + 1);
        let mut rows = Vec::new();
        let mut shared = Vec::new();
        offsets.push(0);
        for &(m, alts) in self.movable {
            alts.shared_links(&mut shared);
            let row = self.start.links(m).iter().map(|&l| compact_link(l));
            rows.extend(row.filter(|l| shared.contains(l)));
            offsets.push(rows.len());
        }
        ForcedRows {
            slot: &self.slot,
            offsets,
            rows,
        }
    }
}

/// The forced rows of a climb's movable messages, back to back in `movable`
/// order.
struct ForcedRows<'m> {
    slot: &'m [u32],
    offsets: Vec<usize>,
    rows: Vec<u32>,
}

impl ForcedRows<'_> {
    /// Replaces `out` with the messages of `on` (a link's ascending start
    /// list) that stay on `link` in every reachable assignment: the frozen
    /// ones, and the movable ones whose forced row holds the link. A
    /// movable message that is not on the link at the start is not forced
    /// onto it.
    fn forced_on(&self, link: usize, on: &[usize], out: &mut Vec<usize>) {
        out.clear();
        out.extend(on.iter().copied().filter(|&i| match self.slot[i] {
            FROZEN => true,
            pos => {
                let pos = pos as usize;
                self.rows[self.offsets[pos]..self.offsets[pos + 1]].contains(&(link as u32))
            }
        }));
    }
}

/// The largest of the four floors over the assignments reachable from
/// `start` by moving each message of `movable` among its start route and
/// its alternatives.
///
/// A link is **fixed** when every message on its start list is frozen and
/// no alternative of a movable message crosses it. Only the second half
/// costs a walk over the alternatives' rows, and only a link that passes
/// the first asks for it — a climb that may move every message never does.
/// When the link holding the start peak is fixed, the bound is the start
/// peak itself and nothing else is computed; otherwise every link is
/// visited once.
pub(crate) fn lower_bound(
    start: &Start,
    movable: &[Movable<'_>],
    inputs: &MsgInputs,
    intervals: &Intervals,
) -> PeakBound {
    let links = &start.links;
    let moves = Moves::of(&start.assignment, movable);
    let mut reach: Option<Vec<bool>> = None;
    let mut fixed = |l: usize| {
        moves.all_frozen(links.messages_on(l))
            && !reach.get_or_insert_with(|| moves.reach(links.num_links()))[l]
    };
    if let Some(l) = start.util.effective_link() {
        if fixed(l.index()) {
            return PeakBound {
                value: start.util.effective_peak(),
                witness: Some(Witness::Link(BoundFloor::FixedLink, l.index())),
            };
        }
    }

    let mut bound = PeakBound {
        value: 0.0,
        witness: None,
    };
    // Frozen messages need no solo term of their own: each sits on a fixed
    // link or in a forced list, whose figures are at least its solo figure.
    for &(m, alts) in movable {
        if alts.len() > 0 && alts.hops() > 0 {
            bound.raise(inputs.solo(m.index()), Witness::Solo(m.index()));
        }
    }
    let forced_rows = moves.forced_rows();
    let mut forced = Vec::new();
    let mut scratch = LinkScratch::new(intervals.len());
    for l in 0..links.num_links() {
        let on = links.messages_on(l);
        if on.is_empty() {
            continue;
        }
        if fixed(l) {
            let fixed = Witness::Link(BoundFloor::FixedLink, l);
            bound.raise(links.effective(l), fixed);
            continue;
        }
        forced_rows.forced_on(l, on, &mut forced);
        if forced.is_empty() {
            continue;
        }
        let floor = forced_floor(&forced, inputs, intervals, &mut scratch);
        bound.raise(floor.group, Witness::Link(BoundFloor::ForcedGroup, l));
        bound.raise(floor.spot as f64, Witness::Link(BoundFloor::ForcedSpot, l));
    }
    bound
}

/// Spells `bound` out for a reader: the link, the floor and the messages
/// that cannot leave. `start` and `movable` must be the ones
/// [`lower_bound`] derived it from.
pub(crate) fn certificate(
    bound: &PeakBound,
    start: &Start,
    movable: &[Movable<'_>],
) -> Option<PeakCertificate> {
    let links = &start.links;
    let (floor, link, messages) = match bound.witness? {
        Witness::Solo(i) => (BoundFloor::Solo, None, vec![i]),
        Witness::Link(BoundFloor::FixedLink, l) => (
            BoundFloor::FixedLink,
            Some(l),
            links.messages_on(l).to_vec(),
        ),
        Witness::Link(floor, l) => {
            let mut forced = Vec::new();
            Moves::of(&start.assignment, movable)
                .forced_rows()
                .forced_on(l, links.messages_on(l), &mut forced);
            (floor, Some(l), forced)
        }
    };
    Some(PeakCertificate {
        bound: bound.value,
        floor,
        link: link.map(LinkId),
        messages: messages.into_iter().map(MessageId).collect(),
    })
}
