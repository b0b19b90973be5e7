use crate::{NodeId, TopologyError};

/// Mixed-radix address codec shared by generalized hypercubes and tori.
///
/// A node's address is a digit vector `(a_0, a_1, …, a_{d-1})` with
/// `0 <= a_i < radix_i`; digit 0 is the **least significant digit** (LSD).
/// The dense [`NodeId`] encoding is
/// `a_0 + a_1·r_0 + a_2·r_0·r_1 + …`.
///
/// # Examples
///
/// ```
/// use sr_topology::{MixedRadix, NodeId};
///
/// # fn main() -> Result<(), sr_topology::TopologyError> {
/// let mr = MixedRadix::new(&[4, 4, 4])?;
/// let digits = mr.digits(NodeId(27));
/// assert_eq!(digits, vec![3, 2, 1]); // 3 + 2·4 + 1·16 = 27
/// assert_eq!(mr.encode(&digits), NodeId(27));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedRadix {
    radices: Vec<usize>,
    /// `weights[i]` = product of radices of dimensions `< i`.
    weights: Vec<usize>,
    num_nodes: usize,
}

/// Upper bound on node counts; keeps utilization matrices laptop-sized.
const MAX_NODES: usize = 1 << 20;

impl MixedRadix {
    /// Creates a codec for the given per-dimension radices.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoDimensions`] for an empty radix list,
    /// [`TopologyError::RadixTooSmall`] if any radix is below 2, and
    /// [`TopologyError::TooManyNodes`] if the product of radices exceeds the
    /// supported maximum.
    pub fn new(radices: &[usize]) -> Result<Self, TopologyError> {
        if radices.is_empty() {
            return Err(TopologyError::NoDimensions);
        }
        for (dimension, &radix) in radices.iter().enumerate() {
            if radix < 2 {
                return Err(TopologyError::RadixTooSmall { dimension, radix });
            }
        }
        let product: u128 = radices.iter().map(|&r| r as u128).product();
        if product > MAX_NODES as u128 {
            return Err(TopologyError::TooManyNodes {
                requested: product,
                max: MAX_NODES,
            });
        }
        let mut weights = Vec::with_capacity(radices.len());
        let mut w = 1usize;
        for &r in radices {
            weights.push(w);
            w *= r;
        }
        Ok(MixedRadix {
            radices: radices.to_vec(),
            weights,
            num_nodes: w,
        })
    }

    /// Number of dimensions.
    pub fn dimensions(&self) -> usize {
        self.radices.len()
    }

    /// Per-dimension radices.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// What one unit of dimension `dim`'s digit adds to a node id (the
    /// product of the radices below it).
    pub(crate) fn weight(&self, dim: usize) -> isize {
        self.weights[dim] as isize
    }

    /// Total number of addresses (`Π radices`).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Decodes a node id into its digit vector (LSD first).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn digits(&self, node: NodeId) -> Vec<usize> {
        assert!(
            node.0 < self.num_nodes,
            "node {node} out of range for {} nodes",
            self.num_nodes
        );
        let mut rest = node.0;
        self.radices
            .iter()
            .map(|&r| {
                let d = rest % r;
                rest /= r;
                d
            })
            .collect()
    }

    /// Encodes a digit vector (LSD first) into a node id.
    ///
    /// # Panics
    ///
    /// Panics if the digit count does not match [`Self::dimensions`] or any
    /// digit is out of range for its radix.
    pub fn encode(&self, digits: &[usize]) -> NodeId {
        assert_eq!(
            digits.len(),
            self.radices.len(),
            "digit count {} does not match dimension count {}",
            digits.len(),
            self.radices.len()
        );
        let mut id = 0usize;
        for (i, (&d, &r)) in digits.iter().zip(&self.radices).enumerate() {
            assert!(
                d < r,
                "digit {d} out of range for radix {r} in dimension {i}"
            );
            id += d * self.weights[i];
        }
        NodeId(id)
    }

    /// Returns `node` with dimension `dim` replaced by `digit`.
    ///
    /// This is the single-hop "digit correction" move of a generalized
    /// hypercube.
    ///
    /// # Panics
    ///
    /// Panics if `node`, `dim`, or `digit` is out of range.
    pub fn with_digit(&self, node: NodeId, dim: usize, digit: usize) -> NodeId {
        assert!(dim < self.radices.len(), "dimension {dim} out of range");
        assert!(
            digit < self.radices[dim],
            "digit {digit} out of range for radix {}",
            self.radices[dim]
        );
        let current = self.digit(node, dim);
        let delta = (digit as isize - current as isize) * self.weights[dim] as isize;
        NodeId((node.0 as isize + delta) as usize)
    }

    /// Extracts the digit of `node` in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `dim` is out of range.
    pub fn digit(&self, node: NodeId, dim: usize) -> usize {
        assert!(node.0 < self.num_nodes, "node {node} out of range");
        assert!(dim < self.radices.len(), "dimension {dim} out of range");
        (node.0 / self.weights[dim]) % self.radices[dim]
    }

    /// Hamming distance between two addresses (number of differing digits).
    pub fn hamming(&self, a: NodeId, b: NodeId) -> usize {
        let da = self.digits(a);
        let db = self.digits(b);
        da.iter().zip(&db).filter(|(x, y)| x != y).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(MixedRadix::new(&[]), Err(TopologyError::NoDimensions));
    }

    #[test]
    fn rejects_radix_one() {
        assert_eq!(
            MixedRadix::new(&[2, 1]),
            Err(TopologyError::RadixTooSmall {
                dimension: 1,
                radix: 1
            })
        );
    }

    #[test]
    fn rejects_huge() {
        assert!(matches!(
            MixedRadix::new(&[1 << 11, 1 << 11]),
            Err(TopologyError::TooManyNodes { .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip_all() {
        let mr = MixedRadix::new(&[3, 4, 2]).unwrap();
        assert_eq!(mr.num_nodes(), 24);
        for n in 0..24 {
            let d = mr.digits(NodeId(n));
            assert_eq!(mr.encode(&d), NodeId(n));
        }
    }

    #[test]
    fn digit_matches_digits() {
        let mr = MixedRadix::new(&[4, 4, 4]).unwrap();
        for n in 0..64 {
            let all = mr.digits(NodeId(n));
            #[allow(clippy::needless_range_loop)] // `dim` is also the query argument
            for dim in 0..3 {
                assert_eq!(mr.digit(NodeId(n), dim), all[dim]);
            }
        }
    }

    #[test]
    fn with_digit_replaces_only_that_dimension() {
        let mr = MixedRadix::new(&[4, 4]).unwrap();
        let n = mr.encode(&[1, 2]);
        let m = mr.with_digit(n, 0, 3);
        assert_eq!(mr.digits(m), vec![3, 2]);
    }

    #[test]
    fn hamming_distance() {
        let mr = MixedRadix::new(&[2, 2, 2]).unwrap();
        assert_eq!(mr.hamming(NodeId(0), NodeId(7)), 3);
        assert_eq!(mr.hamming(NodeId(5), NodeId(5)), 0);
        assert_eq!(mr.hamming(NodeId(0), NodeId(4)), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digits_panics_out_of_range() {
        let mr = MixedRadix::new(&[2, 2]).unwrap();
        mr.digits(NodeId(4));
    }
}
