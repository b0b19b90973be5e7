use crate::{LinkId, NodeId, Topology};

/// A route through the network, stored as the visited node sequence.
///
/// A path with `k` hops visits `k + 1` nodes; a zero-hop path (source equals
/// destination) holds a single node. Paths are simple (no repeated nodes)
/// when produced by this crate's routing functions; [`Path::is_simple`]
/// checks the property for externally constructed paths.
///
/// # Examples
///
/// ```
/// use sr_topology::{GeneralizedHypercube, NodeId, Topology};
///
/// # fn main() -> Result<(), sr_topology::TopologyError> {
/// let cube = GeneralizedHypercube::binary(3)?;
/// let p = cube.dimension_order_path(NodeId(0), NodeId(5));
/// assert_eq!(p.hops(), 2);
/// assert_eq!(p.source(), NodeId(0));
/// assert_eq!(p.destination(), NodeId(5));
/// assert_eq!(p.links(&cube).len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Creates a path from a node sequence.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a path must visit at least one node");
        Path { nodes }
    }

    /// A zero-hop path at `node`.
    pub fn trivial(node: NodeId) -> Self {
        Path { nodes: vec![node] }
    }

    /// The visited nodes, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of hops (links traversed).
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The first node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The last node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path is non-empty")
    }

    /// `true` when no node repeats.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().all(|n| seen.insert(*n))
    }

    /// The links traversed, in hop order.
    ///
    /// # Panics
    ///
    /// Panics if consecutive nodes are not adjacent in `topo`; use
    /// [`Path::validate`] for a non-panicking check.
    pub fn links(&self, topo: &dyn Topology) -> Vec<LinkId> {
        self.links_from(0, topo).collect()
    }

    /// [`Path::links`] from hop `first` on — for a caller that already
    /// holds the links of the first `first` hops (a path sharing that prefix
    /// crosses the same ones).
    ///
    /// # Panics
    ///
    /// Like [`Path::links`], as the iterator reaches the offending hop; and
    /// if `first` is beyond the last node.
    pub fn links_from<'a>(
        &'a self,
        first: usize,
        topo: &'a dyn Topology,
    ) -> impl Iterator<Item = LinkId> + 'a {
        self.nodes[first..].windows(2).map(move |w| {
            topo.link_between(w[0], w[1]).unwrap_or_else(|| {
                panic!(
                    "path hop {} -> {} is not a link in {}",
                    w[0],
                    w[1],
                    topo.name()
                )
            })
        })
    }

    /// Checks that every consecutive node pair is adjacent in `topo`.
    pub fn validate(&self, topo: &dyn Topology) -> bool {
        self.nodes
            .windows(2)
            .all(|w| topo.link_between(w[0], w[1]).is_some())
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for n in &self.nodes {
            if !first {
                write!(f, "->")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Enumerates routes as interleavings of per-dimension unit moves.
///
/// Both topology families route by applying, in some order, a fixed multiset
/// of single-hop "moves" (digit corrections in a GHC, ±1 steps in a torus).
/// The moves of one dimension are always made in the same order, so each is
/// a fixed change of the node id: `steps[d][k]` is what the `k`-th move of
/// dimension `d` adds to it, and a route is the source plus a running sum —
/// no address is decoded while enumerating. Routes are appended to `out`
/// until it holds `cap` paths. Enumeration is deterministic and depth-first:
/// dimension order is tried ascending at every step, so the all-LSD-first
/// path comes out first and consecutive paths share the longest prefix the
/// order allows.
pub(crate) fn enumerate_interleavings(
    src: NodeId,
    steps: &[Vec<isize>],
    cap: usize,
    out: &mut Vec<Path>,
) {
    let mut taken = vec![0; steps.len()];
    let left = steps.iter().map(Vec::len).sum();
    let mut prefix = Vec::with_capacity(left + 1);
    prefix.push(src);
    recurse(steps, &mut taken, left, &mut prefix, cap, out);
}

/// `node` with its id moved by `by`, one move's fixed offset.
pub(crate) fn shifted(node: NodeId, by: isize) -> NodeId {
    let id = node.0.checked_add_signed(by);
    NodeId(id.expect("a move stays inside the fabric"))
}

fn recurse(
    steps: &[Vec<isize>],
    taken: &mut [usize],
    left: usize,
    prefix: &mut Vec<NodeId>,
    cap: usize,
    out: &mut Vec<Path>,
) {
    if out.len() >= cap {
        return;
    }
    if left == 0 {
        out.push(Path::new(prefix.clone()));
        return;
    }
    let here = *prefix.last().expect("prefix is non-empty");
    for dim in 0..steps.len() {
        let Some(&step) = steps[dim].get(taken[dim]) else {
            continue;
        };
        taken[dim] += 1;
        prefix.push(shifted(here, step));
        recurse(steps, taken, left - 1, prefix, cap, out);
        prefix.pop();
        taken[dim] -= 1;
        if out.len() >= cap {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId(3));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), p.destination());
        assert!(p.is_simple());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_path_panics() {
        let _ = Path::new(vec![]);
    }

    #[test]
    fn simple_detection() {
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(0)]);
        assert!(!p.is_simple());
    }

    #[test]
    fn display_format() {
        let p = Path::new(vec![NodeId(0), NodeId(2)]);
        assert_eq!(p.to_string(), "N0->N2");
    }

    #[test]
    fn links_follow_the_walk_and_validate_rejects_what_is_none() {
        let t = crate::Torus::new(&[4, 4]).unwrap();
        let walk = Path::new(vec![NodeId(0), NodeId(1), NodeId(5), NodeId(4)]);
        assert!(walk.validate(&t));
        let links = walk.links(&t);
        let hop = |a, b| t.link_between(NodeId(a), NodeId(b)).unwrap();
        assert_eq!(links, [hop(0, 1), hop(1, 5), hop(5, 4)]);
        for first in 0..=3 {
            assert_eq!(
                walk.links_from(first, &t).collect::<Vec<_>>(),
                links[first..]
            );
        }
        // Not adjacent, and a node the fabric does not have: `false`, no panic.
        assert!(!Path::new(vec![NodeId(0), NodeId(5)]).validate(&t));
        assert!(!Path::new(vec![NodeId(0), NodeId(16)]).validate(&t));
        assert!(Path::trivial(NodeId(3)).links(&t).is_empty());
    }

    #[test]
    #[should_panic(expected = "path hop N1 -> N6 is not a link in Torus(4,4)")]
    fn links_panics_at_a_hop_that_is_no_link() {
        let t = crate::Torus::new(&[4, 4]).unwrap();
        Path::new(vec![NodeId(0), NodeId(1), NodeId(6)]).links(&t);
    }

    #[test]
    fn interleavings_multinomial_count() {
        // Two dims with 1 move each -> 2 orders; with (2,1) -> 3 orders.
        let enumerate = |src, steps: &[Vec<isize>], cap| {
            let mut paths = Vec::new();
            enumerate_interleavings(NodeId(src), steps, cap, &mut paths);
            paths
        };
        let paths = enumerate(0, &[vec![10], vec![20]], usize::MAX);
        assert_eq!(paths.len(), 2);
        let paths = enumerate(0, &[vec![10, 10], vec![20]], usize::MAX);
        assert_eq!(paths.len(), 3);
        // Depth first, lowest dimension first; a step may go down.
        let ids = |p: &Path| p.nodes().iter().map(|n| n.0).collect::<Vec<_>>();
        assert_eq!(ids(&paths[0]), [0, 10, 20, 40]);
        assert_eq!(ids(&paths[1]), [0, 10, 30, 40]);
        assert_eq!(ids(&paths[2]), [0, 20, 30, 40]);
        let paths = enumerate(7, &[vec![-3], vec![1]], usize::MAX);
        assert_eq!(ids(&paths[0]), [7, 4, 5]);
    }

    #[test]
    fn interleavings_respect_cap() {
        let steps = [vec![1; 3], vec![8; 3]];
        let mut paths = Vec::new();
        enumerate_interleavings(NodeId(0), &steps, 5, &mut paths);
        assert_eq!(paths.len(), 5);
        // The cap counts what `out` already holds.
        enumerate_interleavings(NodeId(0), &steps, 5, &mut paths);
        assert_eq!(paths.len(), 5);
        enumerate_interleavings(NodeId(0), &steps, 7, &mut paths);
        assert_eq!(paths.len(), 7);
        assert_eq!(paths[5], paths[0]);
    }

    #[test]
    fn interleavings_zero_moves_gives_trivial() {
        let mut paths = Vec::new();
        enumerate_interleavings(NodeId(4), &[vec![], vec![]], 10, &mut paths);
        assert_eq!(paths, vec![Path::trivial(NodeId(4))]);
    }
}
