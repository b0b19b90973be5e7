use crate::adjacency::Adjacency;
use crate::path::enumerate_interleavings;
use crate::{MixedRadix, NodeId, Path, Topology, TopologyError};

/// A k-ary n-dimensional **mesh** (a torus without wraparound links).
///
/// Meshes matter for the wormhole baseline: dimension-order routing on a
/// mesh is provably deadlock-free under hold-while-blocked channel capture
/// (link acquisition follows a strict dimension ordering with no cycles),
/// whereas torus wraparound rings can deadlock without virtual channels.
/// The mesh is therefore the natural control platform when studying the
/// simulator's deadlock reports.
///
/// # Examples
///
/// ```
/// use sr_topology::{Mesh, NodeId, Topology};
///
/// # fn main() -> Result<(), sr_topology::TopologyError> {
/// let m = Mesh::new(&[8, 8])?;
/// assert_eq!(m.num_nodes(), 64);
/// assert_eq!(m.num_links(), 2 * 7 * 8); // 112: no wraparound
/// assert_eq!(m.distance(NodeId(0), NodeId(7)), 7); // no shortcut
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    radix: MixedRadix,
    adj: Adjacency,
}

impl Mesh {
    /// Creates a mesh with the given per-dimension extents.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError`] for an empty extent list, extents below
    /// 2, or an excessive node count.
    pub fn new(extents: &[usize]) -> Result<Self, TopologyError> {
        let radix = MixedRadix::new(extents)?;
        let mr = radix.clone();
        let adj = Adjacency::build(radix.num_nodes(), move |node| {
            let mut nb = Vec::new();
            for (dim, &k) in mr.radices().iter().enumerate() {
                let d = mr.digit(node, dim);
                if d + 1 < k {
                    nb.push(mr.with_digit(node, dim, d + 1));
                }
                if d > 0 {
                    nb.push(mr.with_digit(node, dim, d - 1));
                }
            }
            nb
        });
        Ok(Mesh { radix, adj })
    }

    /// The address codec of this mesh.
    pub fn mixed_radix(&self) -> &MixedRadix {
        &self.radix
    }

    /// Per-dimension signed offsets from `a` to `b`.
    fn offsets(&self, a: NodeId, b: NodeId) -> Vec<isize> {
        (0..self.radix.dimensions())
            .map(|d| self.radix.digit(b, d) as isize - self.radix.digit(a, d) as isize)
            .collect()
    }
}

impl Topology for Mesh {
    fn name(&self) -> String {
        let extents: Vec<String> = self.radix.radices().iter().map(|r| r.to_string()).collect();
        format!("Mesh({})", extents.join(","))
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
        self.offsets(a, b).iter().map(|d| d.unsigned_abs()).sum()
    }

    fn dimension_order_path(&self, src: NodeId, dst: NodeId) -> Path {
        let offsets = self.offsets(src, dst);
        let mut nodes = vec![src];
        let mut here = src;
        for (dim, &off) in offsets.iter().enumerate() {
            let step = off.signum();
            for _ in 0..off.unsigned_abs() {
                let d = self.radix.digit(here, dim) as isize + step;
                here = self.radix.with_digit(here, dim, d as usize);
                nodes.push(here);
            }
        }
        Path::new(nodes)
    }

    fn shortest_paths(&self, src: NodeId, dst: NodeId, cap: usize) -> Vec<Path> {
        let offsets = self.offsets(src, dst);
        if offsets.iter().all(|&o| o == 0) {
            return vec![Path::trivial(src)];
        }
        // No wraparound: every step of a dimension moves the id by the same
        // signed weight.
        let steps: Vec<Vec<isize>> = offsets
            .iter()
            .enumerate()
            .map(|(d, &o)| vec![o.signum() * self.radix.weight(d); o.unsigned_abs()])
            .collect();
        let mut out = Vec::new();
        enumerate_interleavings(src, &steps, cap, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_link_count() {
        let m = Mesh::new(&[4, 4, 4]).unwrap();
        assert_eq!(m.num_nodes(), 64);
        // Per dimension: 3 links per row, 16 rows -> 48; x3 dims = 144.
        assert_eq!(m.num_links(), 144);
        assert_eq!(m.name(), "Mesh(4,4,4)");
        // Corner degree 3, center degree 6.
        assert_eq!(m.neighbors(NodeId(0)).len(), 3);
        let center = m.mixed_radix().encode(&[1, 1, 1]);
        assert_eq!(m.neighbors(center).len(), 6);
    }

    #[test]
    fn no_wraparound() {
        let m = Mesh::new(&[8]).unwrap();
        assert_eq!(m.distance(NodeId(0), NodeId(7)), 7);
        assert!(m.link_between(NodeId(0), NodeId(7)).is_none());
        assert_eq!(m.num_links(), 7);
    }

    #[test]
    fn dimension_order_path_valid_and_shortest() {
        let m = Mesh::new(&[3, 3]).unwrap();
        for a in 0..9 {
            for b in 0..9 {
                let p = m.dimension_order_path(NodeId(a), NodeId(b));
                assert!(p.validate(&m));
                assert_eq!(p.hops(), m.distance(NodeId(a), NodeId(b)));
            }
        }
    }

    #[test]
    fn shortest_path_count_is_multinomial() {
        let m = Mesh::new(&[4, 4]).unwrap();
        let a = m.mixed_radix().encode(&[0, 0]);
        let b = m.mixed_radix().encode(&[2, 2]);
        let paths = m.shortest_paths(a, b, usize::MAX);
        assert_eq!(paths.len(), 6); // C(4,2)
        for p in &paths {
            assert!(p.validate(&m));
            assert_eq!(p.hops(), 4);
        }
        assert_eq!(paths[0], m.dimension_order_path(a, b));
    }

    #[test]
    fn trivial_path_for_same_node() {
        let m = Mesh::new(&[2, 2]).unwrap();
        assert_eq!(
            m.shortest_paths(NodeId(3), NodeId(3), 5),
            vec![Path::trivial(NodeId(3))]
        );
    }
}
