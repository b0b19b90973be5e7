use crate::adjacency::Adjacency;
use crate::path::enumerate_interleavings;
use crate::{MixedRadix, NodeId, Path, Topology, TopologyError};

/// A mixed-radix **generalized hypercube** (GHC) \[Agr86\].
///
/// Nodes carry mixed-radix addresses; two nodes are adjacent iff their
/// addresses differ in exactly **one** digit (by any amount). With radices
/// `(r_0, …, r_{d-1})` each node has degree `Σ (r_i − 1)`:
///
/// * `GHC(2,2,2,2,2,2)` — the paper's **binary 6-cube**: 64 nodes, degree 6,
///   192 links;
/// * `GHC(4,4,4)` — 64 nodes, degree 9, 288 links.
///
/// A shortest path corrects each differing digit once, in some order, so the
/// number of shortest paths between nodes at Hamming distance `h` is `h!`.
///
/// # Examples
///
/// ```
/// use sr_topology::{GeneralizedHypercube, NodeId, Topology};
///
/// # fn main() -> Result<(), sr_topology::TopologyError> {
/// let ghc = GeneralizedHypercube::new(&[4, 4, 4])?;
/// assert_eq!(ghc.num_nodes(), 64);
/// assert_eq!(ghc.degree(), 9);
/// assert_eq!(ghc.num_links(), 288);
///
/// // Distance is Hamming distance over digits.
/// assert_eq!(ghc.distance(NodeId(0), NodeId(63)), 3);
/// assert_eq!(ghc.shortest_paths(NodeId(0), NodeId(63), 100).len(), 6); // 3!
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeneralizedHypercube {
    radix: MixedRadix,
    adj: Adjacency,
}

impl GeneralizedHypercube {
    /// Creates a generalized hypercube with the given per-dimension radices.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] for an empty radix list, radices below 2,
    /// or an excessive node count.
    pub fn new(radices: &[usize]) -> Result<Self, TopologyError> {
        let radix = MixedRadix::new(radices)?;
        let mr = radix.clone();
        let adj = Adjacency::build(radix.num_nodes(), move |node| {
            let digits = mr.digits(node);
            let mut nb = Vec::new();
            for (dim, &r) in mr.radices().iter().enumerate() {
                for v in 0..r {
                    if v != digits[dim] {
                        nb.push(mr.with_digit(node, dim, v));
                    }
                }
            }
            nb
        });
        Ok(GeneralizedHypercube { radix, adj })
    }

    /// The binary hypercube of the given dimension (`radix 2` everywhere).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoDimensions`] when `dimensions == 0` and
    /// [`TopologyError::TooManyNodes`] for very large dimension counts.
    pub fn binary(dimensions: usize) -> Result<Self, TopologyError> {
        Self::new(&vec![2; dimensions])
    }

    /// The address codec of this hypercube.
    pub fn mixed_radix(&self) -> &MixedRadix {
        &self.radix
    }

    /// Dimensions in which `a` and `b` differ, ascending (LSD first).
    fn differing_dims(&self, a: NodeId, b: NodeId) -> Vec<usize> {
        (0..self.radix.dimensions())
            .filter(|&d| self.radix.digit(a, d) != self.radix.digit(b, d))
            .collect()
    }
}

impl Topology for GeneralizedHypercube {
    fn name(&self) -> String {
        let radices: Vec<String> = self.radix.radices().iter().map(|r| r.to_string()).collect();
        format!("GHC({})", radices.join(","))
    }

    fn mixed_radix_hint(&self) -> Option<&MixedRadix> {
        Some(self.mixed_radix())
    }

    fn num_nodes(&self) -> usize {
        self.radix.num_nodes()
    }

    fn num_links(&self) -> usize {
        self.adj.num_links()
    }

    fn link_endpoints(&self, link: crate::LinkId) -> (NodeId, NodeId) {
        self.adj.link_endpoints(link)
    }

    fn link_between(&self, a: NodeId, b: NodeId) -> Option<crate::LinkId> {
        self.adj.link_between(a, b)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.adj.neighbors(node)
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        self.radix.hamming(a, b)
    }

    fn dimension_order_path(&self, src: NodeId, dst: NodeId) -> Path {
        let mut nodes = vec![src];
        let mut here = src;
        for dim in 0..self.radix.dimensions() {
            let want = self.radix.digit(dst, dim);
            if self.radix.digit(here, dim) != want {
                here = self.radix.with_digit(here, dim, want);
                nodes.push(here);
            }
        }
        Path::new(nodes)
    }

    fn shortest_paths(&self, src: NodeId, dst: NodeId, cap: usize) -> Vec<Path> {
        // One move per differing dimension: the digit goes straight to the
        // destination's.
        let radix = &self.radix;
        let dims = self.differing_dims(src, dst).into_iter();
        let steps: Vec<Vec<isize>> = dims
            .map(|d| {
                let delta = radix.digit(dst, d) as isize - radix.digit(src, d) as isize;
                vec![delta * radix.weight(d)]
            })
            .collect();
        let mut out = Vec::new();
        enumerate_interleavings(src, &steps, cap, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkId;

    #[test]
    fn binary_6_cube_dimensions() {
        let c = GeneralizedHypercube::binary(6).unwrap();
        assert_eq!(c.num_nodes(), 64);
        assert_eq!(c.degree(), 6);
        assert_eq!(c.num_links(), 64 * 6 / 2);
        assert_eq!(c.name(), "GHC(2,2,2,2,2,2)");
    }

    #[test]
    fn ghc_444_dimensions() {
        let g = GeneralizedHypercube::new(&[4, 4, 4]).unwrap();
        assert_eq!(g.num_nodes(), 64);
        assert_eq!(g.degree(), 9);
        assert_eq!(g.num_links(), 64 * 9 / 2);
    }

    #[test]
    fn adjacency_is_single_digit_difference() {
        let g = GeneralizedHypercube::new(&[3, 3]).unwrap();
        for n in 0..9 {
            for &m in g.neighbors(NodeId(n)) {
                assert_eq!(g.mixed_radix().hamming(NodeId(n), m), 1);
            }
        }
    }

    #[test]
    fn dimension_order_path_corrects_lsd_first() {
        let c = GeneralizedHypercube::binary(3).unwrap();
        let p = c.dimension_order_path(NodeId(0), NodeId(0b101));
        // LSD first: 000 -> 001 -> 101.
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(5)]);
    }

    #[test]
    fn dimension_order_path_is_shortest_and_valid() {
        let g = GeneralizedHypercube::new(&[4, 2, 3]).unwrap();
        for a in 0..g.num_nodes() {
            for b in 0..g.num_nodes() {
                let p = g.dimension_order_path(NodeId(a), NodeId(b));
                assert!(p.validate(&g));
                assert_eq!(p.hops(), g.distance(NodeId(a), NodeId(b)));
                assert_eq!(p.source(), NodeId(a));
                assert_eq!(p.destination(), NodeId(b));
            }
        }
    }

    #[test]
    fn shortest_paths_count_is_factorial_of_distance() {
        let c = GeneralizedHypercube::binary(4).unwrap();
        let paths = c.shortest_paths(NodeId(0), NodeId(0b1111), usize::MAX);
        assert_eq!(paths.len(), 24); // 4!
        for p in &paths {
            assert!(p.validate(&c));
            assert_eq!(p.hops(), 4);
            assert!(p.is_simple());
        }
        // All distinct.
        let set: std::collections::HashSet<_> = paths.iter().collect();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn shortest_paths_first_is_dimension_order() {
        let g = GeneralizedHypercube::new(&[4, 4, 4]).unwrap();
        for (a, b) in [(0usize, 63usize), (5, 40), (17, 17), (1, 2)] {
            let paths = g.shortest_paths(NodeId(a), NodeId(b), 10);
            assert_eq!(paths[0], g.dimension_order_path(NodeId(a), NodeId(b)));
        }
    }

    #[test]
    fn same_node_trivial_path() {
        let c = GeneralizedHypercube::binary(3).unwrap();
        let paths = c.shortest_paths(NodeId(2), NodeId(2), 5);
        assert_eq!(paths, vec![Path::trivial(NodeId(2))]);
    }

    #[test]
    fn link_endpoints_consistent_with_link_between() {
        let g = GeneralizedHypercube::new(&[3, 2]).unwrap();
        for l in 0..g.num_links() {
            let (a, b) = g.link_endpoints(LinkId(l));
            assert_eq!(g.link_between(a, b), Some(LinkId(l)));
        }
    }
}
