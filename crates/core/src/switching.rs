use sr_tfg::MessageId;
use sr_topology::{LinkId, NodeId, Topology};

use crate::buckets::{compact, Buckets};
use crate::{IntervalSchedule, PathAssignment};

/// One uninterrupted transmission of (part of) a message: during
/// `[start, end]` the message's whole path is clear and carries it.
///
/// Messages split across several interval slices get several segments; the
/// verifier checks that the segment lengths add up to the transmission time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The transmitted message.
    pub message: MessageId,
    /// Absolute start within the period frame, µs.
    pub start: f64,
    /// Absolute end within the period frame, µs.
    pub end: f64,
}

impl Segment {
    /// Segment length, µs.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A crossbar endpoint inside a communication processor: a network link or
/// the local application processor's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// One of the node's half-duplex network links.
    Link(LinkId),
    /// The node's application processor (its input/output buffers).
    Processor,
}

/// A crossbar connection: route data arriving on `from` out through `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Connection {
    /// Where the data enters the CP.
    pub from: Port,
    /// Where the data leaves the CP.
    pub to: Port,
}

/// A timed switching command in a node schedule `ω_i` (paper §4.1): hold
/// `connection` during `[start, end]` to carry `message`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Command {
    /// Absolute start within the period frame, µs.
    pub start: f64,
    /// Absolute end within the period frame, µs.
    pub end: f64,
    /// The crossbar setting.
    pub connection: Connection,
    /// The message being carried (for tracing/verification).
    pub message: MessageId,
}

/// The switching schedule `ω_i` of one communication processor: the timed
/// crossbar commands it executes, independently of every other node, once
/// per period frame.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSchedule {
    node: NodeId,
    commands: Vec<Command>,
}

impl NodeSchedule {
    /// Crate-internal constructor (the derivation, and hand-held `Ω` in
    /// tests).
    pub(crate) fn new(node: NodeId, commands: Vec<Command>) -> Self {
        NodeSchedule { node, commands }
    }

    /// The node this schedule drives.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Commands sorted by start time.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// `true` when the node never switches (carries no traffic).
    pub fn is_idle(&self) -> bool {
        self.commands.is_empty()
    }
}

/// The message [`Segment`]s of the interval schedules: one per slice and
/// member message, sorted by start and then message (paper §5.4).
pub fn segments_of(interval_schedules: &[IntervalSchedule]) -> Vec<Segment> {
    let mut segments = Vec::new();
    for slice in interval_schedules.iter().flat_map(|is| &is.slices) {
        let (start, end) = (slice.start, slice.start + slice.duration);
        let to_segment = |&message| Segment {
            message,
            start,
            end,
        };
        segments.extend(slice.messages.iter().map(to_segment));
    }
    segments.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then_with(|| a.message.cmp(&b.message))
    });
    segments
}

/// The node switching schedules `Ω = {ω_i}` of `num_nodes` communication
/// processors (paper §5.4). `Ω` is never stored: it is a pure function of
/// the segments and their paths, derived where it is read.
///
/// Each segment gives every node on its message's path one command for the
/// segment's span: processor buffers to first link at the source, link to
/// link in between, last link to processor buffers at the destination.
/// Every node gets a schedule, an idle one an empty one. Commands keep the
/// order of `segments`, so [`segments_of`]'s order gives commands sorted by
/// start and then message.
pub fn node_schedules_of(
    segments: &[Segment],
    assignment: &PathAssignment,
    num_nodes: usize,
) -> Vec<NodeSchedule> {
    let omega = Omega::derive(segments, assignment, num_nodes);
    let to_schedule = |n| NodeSchedule::new(NodeId(n), omega.commands(n).collect());
    (0..num_nodes).map(to_schedule).collect()
}

/// Derives the segments and node switching schedules `Ω` from the interval
/// schedules in one call: [`segments_of`], then [`node_schedules_of`] over
/// every node of `topo`. Compilation stops at the segments; `Ω` is derived
/// only where it is read.
pub fn build_node_schedules(
    assignment: &PathAssignment,
    interval_schedules: &[IntervalSchedule],
    topo: &dyn Topology,
) -> (Vec<Segment>, Vec<NodeSchedule>) {
    let segments = segments_of(interval_schedules);
    let node_schedules = node_schedules_of(&segments, assignment, topo.num_nodes());
    (segments, node_schedules)
}

/// The crossbar setting at hop `i` of a path whose link row is `links`.
pub(crate) fn hop_connection(links: &[LinkId], i: usize) -> Connection {
    Connection {
        from: i
            .checked_sub(1)
            .map_or(Port::Processor, |l| Port::Link(links[l])),
        to: links.get(i).map_or(Port::Processor, |&l| Port::Link(l)),
    }
}

/// `Ω` as an index over the segments, for readers that walk it node by
/// node without keeping it: node `n`'s bucket holds the `(segment, hop)`
/// positions its commands are made from, in segment order.
pub(crate) struct Omega<'a> {
    segments: &'a [Segment],
    assignment: &'a PathAssignment,
    hops: Buckets<(u32, u32)>,
}

impl<'a> Omega<'a> {
    pub(crate) fn derive(
        segments: &'a [Segment],
        assignment: &'a PathAssignment,
        num_nodes: usize,
    ) -> Self {
        let hops = segments.iter().enumerate().flat_map(|(si, seg)| {
            let nodes = assignment.path(seg.message).nodes().iter().enumerate();
            nodes.map(move |(i, node)| (node.index(), (compact(si), compact(i))))
        });
        let hops = Buckets::group(num_nodes, hops);
        Omega {
            segments,
            assignment,
            hops,
        }
    }

    /// The commands of node `n`.
    pub(crate) fn commands(&self, n: usize) -> impl ExactSizeIterator<Item = Command> + '_ {
        let hops = &self.hops.items[self.hops.range(n)];
        hops.iter().map(|&(si, i)| {
            let seg = self.segments[si as usize];
            let connection = hop_connection(self.assignment.links(seg.message), i as usize);
            Command {
                start: seg.start,
                end: seg.end,
                connection,
                message: seg.message,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Slice;
    use sr_topology::{Path, Topology};

    fn setup() -> (
        sr_topology::GeneralizedHypercube,
        PathAssignment,
        Vec<IntervalSchedule>,
    ) {
        let topo = sr_topology::GeneralizedHypercube::binary(2).unwrap();
        // One message over two hops: 0 -> 1 -> 3.
        let pa = PathAssignment::new(
            vec![Path::new(vec![NodeId(0), NodeId(1), NodeId(3)])],
            &topo,
        );
        let schedules = vec![IntervalSchedule {
            interval: 0,
            slices: vec![Slice {
                messages: vec![MessageId(0)],
                start: 2.0,
                duration: 5.0,
            }],
        }];
        (topo, pa, schedules)
    }

    #[test]
    fn commands_cover_whole_path() {
        let (topo, pa, scheds) = setup();
        let (segments, nodes) = build_node_schedules(&pa, &scheds, &topo);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].duration(), 5.0);
        assert_eq!(nodes.len(), 4);

        let l01 = topo.link_between(NodeId(0), NodeId(1)).unwrap();
        let l13 = topo.link_between(NodeId(1), NodeId(3)).unwrap();

        // Source: processor -> first link.
        let src = &nodes[0];
        assert_eq!(src.commands().len(), 1);
        assert_eq!(
            src.commands()[0].connection,
            Connection {
                from: Port::Processor,
                to: Port::Link(l01)
            }
        );
        // Intermediate: link -> link.
        let mid = &nodes[1];
        assert_eq!(
            mid.commands()[0].connection,
            Connection {
                from: Port::Link(l01),
                to: Port::Link(l13)
            }
        );
        // Destination: last link -> processor.
        let dst = &nodes[3];
        assert_eq!(
            dst.commands()[0].connection,
            Connection {
                from: Port::Link(l13),
                to: Port::Processor
            }
        );
        // Uninvolved node is idle.
        assert!(nodes[2].is_idle());
        // All commands share the slice's span.
        for ns in &nodes {
            for c in ns.commands() {
                assert_eq!((c.start, c.end), (2.0, 7.0));
                assert_eq!(c.message, MessageId(0));
            }
        }
    }

    #[test]
    fn multiple_slices_produce_multiple_segments() {
        let (topo, pa, _) = setup();
        let scheds = vec![
            IntervalSchedule {
                interval: 0,
                slices: vec![Slice {
                    messages: vec![MessageId(0)],
                    start: 0.0,
                    duration: 3.0,
                }],
            },
            IntervalSchedule {
                interval: 1,
                slices: vec![Slice {
                    messages: vec![MessageId(0)],
                    start: 10.0,
                    duration: 2.0,
                }],
            },
        ];
        let (segments, nodes) = build_node_schedules(&pa, &scheds, &topo);
        assert_eq!(segments.len(), 2);
        let total: f64 = segments.iter().map(Segment::duration).sum();
        assert!((total - 5.0).abs() < 1e-12);
        assert_eq!(nodes[0].commands().len(), 2);
        // Sorted by start.
        assert!(nodes[0].commands()[0].start < nodes[0].commands()[1].start);
    }
}
