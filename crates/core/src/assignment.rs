use sr_mapping::Allocation;
use sr_tfg::{MessageId, TaskFlowGraph};
use sr_topology::{LinkId, Path, Topology};

/// A path assignment `B = [b_ij]`: one route per message (paper §5.1).
///
/// Messages between co-located tasks get the trivial (zero-hop) path and
/// never touch the network. The assignment stores both the node path and the
/// derived link set, since the utilization machinery works on links.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAssignment {
    paths: Vec<Path>,
    links: Vec<Vec<LinkId>>,
}

/// One route a message can take, by reference: the node path and its link
/// row (the links traversed, in hop order, as compact `u32` ids). The
/// `AssignPaths` climb moves these around instead of cloning paths, so a
/// reroute trial never derives a link list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route<'a> {
    pub(crate) path: &'a Path,
    pub(crate) links: &'a [u32],
}

/// A link id as the `u32` the link rows store.
///
/// # Panics
///
/// Panics if the id does not fit (a fabric with more than `u32::MAX` links).
pub(crate) fn compact_link(link: LinkId) -> u32 {
    u32::try_from(link.index()).expect("link ids must fit a u32 link row")
}

impl PathAssignment {
    /// Builds an assignment from explicit per-message paths.
    ///
    /// # Panics
    ///
    /// Panics if a path is not a valid walk in `topo` (use validated paths
    /// from the topology's routing functions).
    pub fn new(paths: Vec<Path>, topo: &dyn Topology) -> Self {
        let links = paths.iter().map(|p| p.links(topo)).collect();
        PathAssignment { paths, links }
    }

    /// The deterministic LSD-to-MSD baseline: every message follows the
    /// dimension-order path between its allocated endpoints.
    ///
    /// This is both the paper's wormhole routing function and the starting
    /// point its Figs. 5–6 compare `AssignPaths` against.
    pub fn lsd_to_msd(tfg: &TaskFlowGraph, topo: &dyn Topology, alloc: &Allocation) -> Self {
        let paths: Vec<Path> = tfg
            .messages()
            .iter()
            .map(|m| topo.dimension_order_path(alloc.node_of(m.src()), alloc.node_of(m.dst())))
            .collect();
        Self::new(paths, topo)
    }

    /// The assignment giving message `i` the route `routes[i]` — the link
    /// rows are taken as given, not derived again.
    pub(crate) fn from_routes(routes: &[Route<'_>]) -> Self {
        PathAssignment {
            paths: routes.iter().map(|r| r.path.clone()).collect(),
            links: routes
                .iter()
                .map(|r| r.links.iter().map(|&l| LinkId(l as usize)).collect())
                .collect(),
        }
    }

    /// Every message's link row as `u32` ids, back to back in message order
    /// — the arena a climb's starting [`Route`]s borrow.
    pub(crate) fn link_rows(&self) -> Vec<u32> {
        let rows = self.links.iter().flatten();
        rows.map(|&l| compact_link(l)).collect()
    }

    /// One [`Route`] per message, borrowing the paths from `self` and the
    /// link rows from `rows` (which must be `self.link_rows()`).
    pub(crate) fn routes<'a>(&'a self, mut rows: &'a [u32]) -> Vec<Route<'a>> {
        let routes = self.paths.iter().zip(&self.links).map(|(path, row)| {
            let (links, rest) = rows.split_at(row.len());
            rows = rest;
            Route { path, links }
        });
        routes.collect()
    }

    /// Number of messages covered.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` when there are no messages.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The path of a message.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn path(&self, m: MessageId) -> &Path {
        &self.paths[m.index()]
    }

    /// All paths, indexable by [`MessageId`].
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The links of a message's path (`b_ij = 1` entries of row `i`).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn links(&self, m: MessageId) -> &[LinkId] {
        &self.links[m.index()]
    }

    /// `true` iff `m`'s path uses `link`.
    pub fn uses(&self, m: MessageId, link: LinkId) -> bool {
        self.links[m.index()].contains(&link)
    }

    /// Replaces the path of message `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range or the path is invalid in `topo`.
    pub fn set_path(&mut self, m: MessageId, path: Path, topo: &dyn Topology) {
        self.links[m.index()] = path.links(topo);
        self.paths[m.index()] = path;
    }

    /// Messages whose assigned path uses `link`, ascending.
    pub fn messages_on(&self, link: LinkId) -> Vec<MessageId> {
        (0..self.links.len())
            .filter(|&i| self.links[i].contains(&link))
            .map(MessageId)
            .collect()
    }

    /// Total hop count across all messages (a crude balance metric).
    pub fn total_hops(&self) -> usize {
        self.links.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_mapping::Allocation;
    use sr_tfg::generators;
    use sr_topology::{GeneralizedHypercube, NodeId};

    fn setup() -> (GeneralizedHypercube, TaskFlowGraph, Allocation) {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 100, 64);
        let alloc = Allocation::new(vec![NodeId(0), NodeId(3), NodeId(3)], &tfg, &topo).unwrap();
        (topo, tfg, alloc)
    }

    #[test]
    fn lsd_to_msd_matches_dimension_order() {
        let (topo, tfg, alloc) = setup();
        let pa = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        assert_eq!(pa.len(), 2);
        assert_eq!(
            pa.path(MessageId(0)),
            &topo.dimension_order_path(NodeId(0), NodeId(3))
        );
        // Second message is local: trivial path, no links.
        assert_eq!(pa.links(MessageId(1)), &[] as &[LinkId]);
        assert!(!pa.is_empty());
    }

    #[test]
    fn uses_and_messages_on_agree() {
        let (topo, tfg, alloc) = setup();
        let pa = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        for l in 0..topo.num_links() {
            let on = pa.messages_on(LinkId(l));
            for m in 0..pa.len() {
                assert_eq!(on.contains(&MessageId(m)), pa.uses(MessageId(m), LinkId(l)));
            }
        }
    }

    #[test]
    fn set_path_reroutes() {
        let (topo, tfg, alloc) = setup();
        let mut pa = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let before = pa.links(MessageId(0)).to_vec();
        let alts = topo.shortest_paths(NodeId(0), NodeId(3), 10);
        let alt = alts.iter().find(|p| p.links(&topo) != before).unwrap();
        pa.set_path(MessageId(0), alt.clone(), &topo);
        assert_ne!(pa.links(MessageId(0)), &before[..]);
        assert_eq!(pa.total_hops(), 2);
    }
}
