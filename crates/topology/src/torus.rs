use crate::adjacency::Adjacency;
use crate::path::{enumerate_interleavings, shifted};
use crate::{MixedRadix, NodeId, Path, Topology, TopologyError};

/// A k-ary n-dimensional **torus** (wraparound mesh).
///
/// Nodes carry mixed-radix addresses; two nodes are adjacent iff their
/// addresses differ by ±1 (mod `k_i`) in exactly one dimension. The paper
/// evaluates the 64-node `8×8` and `4×4×4` tori.
///
/// A shortest path takes, per dimension, the minimal number of unit steps in
/// the shorter ring direction; shortest paths are all interleavings of those
/// steps (and, when an extent is even and the offset is exactly half of it,
/// both ring directions are shortest and are both enumerated). Tori have far
/// fewer alternative shortest paths than generalized hypercubes of the same
/// size, which is why the paper finds path assignment harder on them.
///
/// # Examples
///
/// ```
/// use sr_topology::{NodeId, Topology, Torus};
///
/// # fn main() -> Result<(), sr_topology::TopologyError> {
/// let t = Torus::new(&[8, 8])?;
/// assert_eq!(t.num_nodes(), 64);
/// assert_eq!(t.degree(), 4);
/// assert_eq!(t.num_links(), 128);
/// assert_eq!(t.distance(NodeId(0), NodeId(7)), 1); // wraparound
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Torus {
    radix: MixedRadix,
    adj: Adjacency,
}

/// A signed unit move along one torus dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Move {
    dim: usize,
    dir: isize, // +1 or -1
    count: usize,
}

impl Torus {
    /// Creates a torus with the given per-dimension extents.
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
                nb.push(mr.with_digit(node, dim, (d + 1) % k));
                nb.push(mr.with_digit(node, dim, (d + k - 1) % k));
            }
            nb
        });
        Ok(Torus { radix, adj })
    }

    /// The address codec of this torus.
    pub fn mixed_radix(&self) -> &MixedRadix {
        &self.radix
    }

    /// What each unit step of `m`, made from `from` on, adds to the node id:
    /// ±one weight of the dimension, or a jump back across the ring where
    /// the digit wraps. Decodes the address once, not once per step.
    fn step_offsets(&self, from: NodeId, m: &Move) -> Vec<isize> {
        let k = self.radix.radices()[m.dim] as isize;
        let w = self.radix.weight(m.dim);
        let mut d = self.radix.digit(from, m.dim) as isize;
        let offsets = (0..m.count).map(|_| {
            let next = match d + m.dir {
                -1 => k - 1,
                n if n == k => 0,
                n => n,
            };
            let offset = (next - d) * w;
            d = next;
            offset
        });
        offsets.collect()
    }

    /// Per-dimension minimal moves from `a` to `b`.
    ///
    /// For each dimension returns the step count in the shorter direction;
    /// `tie` marks dimensions where both directions are equally short
    /// (extent even, offset exactly half, extent > 2).
    fn moves(&self, a: NodeId, b: NodeId) -> (Vec<Move>, Vec<usize>) {
        let mut moves = Vec::new();
        let mut ties = Vec::new();
        for (dim, &k) in self.radix.radices().iter().enumerate() {
            let da = self.radix.digit(a, dim) as isize;
            let db = self.radix.digit(b, dim) as isize;
            let forward = (db - da).rem_euclid(k as isize) as usize;
            if forward == 0 {
                continue;
            }
            let backward = k - forward;
            let (count, dir) = if forward <= backward {
                (forward, 1)
            } else {
                (backward, -1)
            };
            if forward == backward && k > 2 {
                ties.push(moves.len());
            }
            moves.push(Move { dim, dir, count });
        }
        (moves, ties)
    }
}

impl Topology for Torus {
    fn name(&self) -> String {
        let extents: Vec<String> = self.radix.radices().iter().map(|r| r.to_string()).collect();
        format!("Torus({})", extents.join(","))
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
        let (moves, _) = self.moves(a, b);
        moves.iter().map(|m| m.count).sum()
    }

    fn dimension_order_path(&self, src: NodeId, dst: NodeId) -> Path {
        let (moves, _) = self.moves(src, dst);
        let mut nodes = vec![src];
        let mut here = src;
        for m in &moves {
            for offset in self.step_offsets(src, m) {
                here = shifted(here, offset);
                nodes.push(here);
            }
        }
        Path::new(nodes)
    }

    fn shortest_paths(&self, src: NodeId, dst: NodeId, cap: usize) -> Vec<Path> {
        let (base_moves, ties) = self.moves(src, dst);
        if base_moves.is_empty() {
            return vec![Path::trivial(src)];
        }
        let mut out: Vec<Path> = Vec::new();
        // Branch over direction choices for tied dimensions (positive first,
        // matching the dimension-order path), then interleave unit steps.
        let combos = 1usize << ties.len();
        for combo in 0..combos {
            if out.len() >= cap {
                break;
            }
            let mut moves = base_moves.clone();
            for (bit, &mi) in ties.iter().enumerate() {
                if combo & (1 << bit) != 0 {
                    moves[mi].dir = -moves[mi].dir;
                }
            }
            let steps: Vec<Vec<isize>> = moves.iter().map(|m| self.step_offsets(src, m)).collect();
            enumerate_interleavings(src, &steps, cap, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_8x8_shape() {
        let t = Torus::new(&[8, 8]).unwrap();
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.degree(), 4);
        assert_eq!(t.num_links(), 128);
        assert_eq!(t.name(), "Torus(8,8)");
    }

    #[test]
    fn torus_444_shape() {
        let t = Torus::new(&[4, 4, 4]).unwrap();
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.degree(), 6);
        assert_eq!(t.num_links(), 192);
    }

    #[test]
    fn radix2_dimension_has_single_link() {
        // A 2x2 torus is a 4-cycle... actually each dim contributes 1 link
        // per node pair (deduplicated), so it is the complete graph K4 minus
        // nothing: nodes (0,0),(1,0),(0,1),(1,1); each node has 2 neighbors.
        let t = Torus::new(&[2, 2]).unwrap();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.degree(), 2);
        assert_eq!(t.num_links(), 4);
    }

    #[test]
    fn wraparound_distance() {
        let t = Torus::new(&[8]).unwrap();
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 1);
        assert_eq!(t.distance(NodeId(0), NodeId(4)), 4);
        assert_eq!(t.distance(NodeId(1), NodeId(6)), 3);
    }

    #[test]
    fn dimension_order_path_valid_and_shortest() {
        let t = Torus::new(&[4, 4, 4]).unwrap();
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                let p = t.dimension_order_path(NodeId(a), NodeId(b));
                assert!(p.validate(&t), "invalid path {p}");
                assert_eq!(p.hops(), t.distance(NodeId(a), NodeId(b)));
            }
        }
    }

    #[test]
    fn shortest_paths_interleaving_count() {
        let t = Torus::new(&[8, 8]).unwrap();
        // Offset (2, 3): C(5, 2) = 10 interleavings, no ties.
        let a = t.mixed_radix().encode(&[0, 0]);
        let b = t.mixed_radix().encode(&[2, 3]);
        let paths = t.shortest_paths(a, b, usize::MAX);
        assert_eq!(paths.len(), 10);
        for p in &paths {
            assert_eq!(p.hops(), 5);
            assert!(p.validate(&t));
            assert!(p.is_simple());
        }
        let distinct: std::collections::HashSet<_> = paths.iter().collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn tie_directions_both_enumerated() {
        let t = Torus::new(&[8]).unwrap();
        // Offset 4 in an 8-ring: both directions are shortest.
        let paths = t.shortest_paths(NodeId(0), NodeId(4), usize::MAX);
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0], paths[1]);
        for p in &paths {
            assert_eq!(p.hops(), 4);
            assert!(p.validate(&t));
        }
    }

    #[test]
    fn no_tie_on_radix_2() {
        let t = Torus::new(&[2, 2]).unwrap();
        let paths = t.shortest_paths(NodeId(0), NodeId(1), usize::MAX);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn first_path_is_dimension_order() {
        let t = Torus::new(&[4, 4]).unwrap();
        for (a, b) in [(0usize, 15usize), (3, 12), (5, 5), (1, 9)] {
            let paths = t.shortest_paths(NodeId(a), NodeId(b), 50);
            assert_eq!(paths[0], t.dimension_order_path(NodeId(a), NodeId(b)));
        }
    }

    #[test]
    fn cap_respected_with_ties() {
        let t = Torus::new(&[8, 8]).unwrap();
        let a = t.mixed_radix().encode(&[0, 0]);
        let b = t.mixed_radix().encode(&[4, 4]); // ties in both dims
        let all = t.shortest_paths(a, b, usize::MAX);
        // C(8,4) = 70 interleavings x 4 direction combos.
        assert_eq!(all.len(), 280);
        let capped = t.shortest_paths(a, b, 100);
        assert_eq!(capped.len(), 100);
        assert_eq!(&all[..100], &capped[..]);
    }
}
