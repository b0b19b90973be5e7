use crate::{LinkId, NodeId};

/// Precomputed adjacency structure shared by the concrete topologies.
///
/// Built once at construction from a neighbor function; provides dense link
/// ids (one per unordered adjacent pair) and link lookup by a binary search
/// of one node's sorted neighbor list — `O(log degree)`, no hashing.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    /// Node `n`'s neighbors, ascending, are
    /// `neighbors[starts[n]..starts[n + 1]]`.
    starts: Vec<usize>,
    neighbors: Vec<NodeId>,
    /// `neighbor_links[i]` is the link to `neighbors[i]`.
    neighbor_links: Vec<LinkId>,
    links: Vec<(NodeId, NodeId)>,
}

impl Adjacency {
    /// Builds the structure for `num_nodes` nodes using `neighbors_of`.
    ///
    /// The neighbor function may report duplicates (e.g. a radix-2 torus
    /// dimension where +1 and -1 reach the same node); they are deduplicated
    /// here. Link ids are assigned in ascending `(min, max)` endpoint order
    /// of first discovery, scanning nodes in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the neighbor function is not symmetric.
    pub(crate) fn build<F>(num_nodes: usize, mut neighbors_of: F) -> Self
    where
        F: FnMut(NodeId) -> Vec<NodeId>,
    {
        let mut starts = Vec::with_capacity(num_nodes + 1);
        let mut neighbors = Vec::new();
        for n in 0..num_nodes {
            let mut nb = neighbors_of(NodeId(n));
            nb.sort_unstable();
            nb.dedup();
            debug_assert!(nb.iter().all(|m| m.0 < num_nodes && m.0 != n));
            starts.push(neighbors.len());
            neighbors.append(&mut nb);
        }
        starts.push(neighbors.len());
        let mut adj = Adjacency {
            starts,
            neighbor_links: Vec::with_capacity(neighbors.len()),
            neighbors,
            links: Vec::new(),
        };
        for n in 0..num_nodes {
            for i in adj.starts[n]..adj.starts[n + 1] {
                let m = adj.neighbors[i];
                // The lower endpoint names the link; the upper one reads the
                // id back from the lower one's finished entries.
                let id = if m.0 > n {
                    adj.links.push((NodeId(n), m));
                    LinkId(adj.links.len() - 1)
                } else {
                    adj.link_between(m, NodeId(n))
                        .expect("adjacency must be symmetric")
                };
                adj.neighbor_links.push(id);
            }
        }
        adj
    }

    pub(crate) fn num_links(&self) -> usize {
        self.links.len()
    }

    pub(crate) fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        self.links[link.0]
    }

    /// The link joining `a` and `b`; `None` when they are not adjacent or
    /// either id is out of range.
    pub(crate) fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let range = *self.starts.get(a.0)?..*self.starts.get(a.0.checked_add(1)?)?;
        let at = self.neighbors[range.clone()].binary_search(&b).ok()?;
        Some(self.neighbor_links[range.start + at])
    }

    pub(crate) fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[self.starts[node.0]..self.starts[node.0 + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Adjacency {
        Adjacency::build(n, |v| {
            vec![NodeId((v.0 + 1) % n), NodeId((v.0 + n - 1) % n)]
        })
    }

    #[test]
    fn ring_link_count() {
        let a = ring(5);
        assert_eq!(a.num_links(), 5);
    }

    #[test]
    fn two_node_ring_dedups_parallel_links() {
        // +1 and -1 from node 0 both reach node 1: one link, not two.
        let a = ring(2);
        assert_eq!(a.num_links(), 1);
        assert_eq!(a.neighbors(NodeId(0)), &[NodeId(1)]);
    }

    #[test]
    fn link_between_is_symmetric() {
        let a = ring(4);
        assert_eq!(
            a.link_between(NodeId(0), NodeId(1)),
            a.link_between(NodeId(1), NodeId(0))
        );
        assert!(a.link_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn endpoints_are_ordered() {
        let a = ring(4);
        for l in 0..a.num_links() {
            let (x, y) = a.link_endpoints(LinkId(l));
            assert!(x < y);
        }
    }
}
