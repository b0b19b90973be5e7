//! Property-based tests over both topology families.

use proptest::prelude::*;
use sr_topology::{
    FaultSet, GeneralizedHypercube, LinkId, MaskedTopology, Mesh, NodeId, Topology, Torus,
};

/// Strategy generating small-but-nontrivial GHC radix vectors.
fn ghc_radices() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..5, 1..4)
}

/// Strategy generating small torus extent vectors.
fn torus_extents() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..7, 1..4)
}

fn check_symmetry(topo: &dyn Topology) {
    for n in 0..topo.num_nodes() {
        for &m in topo.neighbors(NodeId(n)) {
            assert!(
                topo.neighbors(m).contains(&NodeId(n)),
                "asymmetric adjacency {n} vs {m} in {}",
                topo.name()
            );
            assert!(topo.link_between(NodeId(n), m).is_some());
        }
    }
}

fn check_handshake(topo: &dyn Topology) {
    let degree_sum: usize = (0..topo.num_nodes())
        .map(|n| topo.neighbors(NodeId(n)).len())
        .sum();
    assert_eq!(degree_sum, 2 * topo.num_links(), "handshake lemma violated");
}

fn check_paths(topo: &dyn Topology, a: usize, b: usize) {
    let a = NodeId(a % topo.num_nodes());
    let b = NodeId(b % topo.num_nodes());
    let d = topo.distance(a, b);
    assert_eq!(d, topo.distance(b, a), "distance asymmetric");

    let dop = topo.dimension_order_path(a, b);
    assert!(dop.validate(topo));
    assert_eq!(dop.hops(), d);
    assert!(dop.is_simple());

    let paths = topo.shortest_paths(a, b, 64);
    assert!(!paths.is_empty());
    assert_eq!(
        paths[0], dop,
        "first enumerated path must be dimension-order"
    );
    let distinct: std::collections::HashSet<_> = paths.iter().collect();
    assert_eq!(distinct.len(), paths.len(), "duplicate shortest paths");
    for p in &paths {
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), b);
        assert_eq!(p.hops(), d, "non-shortest path enumerated");
        assert!(p.validate(topo));
        assert!(p.is_simple());
    }
}

/// Triangle inequality via one intermediate node.
fn check_triangle(topo: &dyn Topology, a: usize, b: usize, c: usize) {
    let n = topo.num_nodes();
    let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
    assert!(topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ghc_adjacency_symmetric(radices in ghc_radices()) {
        let g = GeneralizedHypercube::new(&radices).unwrap();
        check_symmetry(&g);
        check_handshake(&g);
    }

    #[test]
    fn torus_adjacency_symmetric(extents in torus_extents()) {
        let t = Torus::new(&extents).unwrap();
        check_symmetry(&t);
        check_handshake(&t);
    }

    #[test]
    fn mesh_adjacency_symmetric(extents in torus_extents()) {
        let m = Mesh::new(&extents).unwrap();
        check_symmetry(&m);
        check_handshake(&m);
    }

    #[test]
    fn mesh_paths_are_shortest_and_valid(
        extents in torus_extents(),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let m = Mesh::new(&extents).unwrap();
        check_paths(&m, a, b);
    }

    #[test]
    fn mesh_distance_matches_bfs(extents in torus_extents(), a in any::<usize>()) {
        let m = Mesh::new(&extents).unwrap();
        let src = NodeId(a % m.num_nodes());
        let bfs = bfs_distances(&m, src);
        #[allow(clippy::needless_range_loop)] // `n` is also the NodeId value
        for n in 0..m.num_nodes() {
            prop_assert_eq!(m.distance(src, NodeId(n)), bfs[n]);
        }
    }

    #[test]
    fn mesh_dominates_torus_distance(extents in torus_extents(), a in any::<usize>(), b in any::<usize>()) {
        // Removing wraparound can only lengthen shortest paths.
        let m = Mesh::new(&extents).unwrap();
        let t = Torus::new(&extents).unwrap();
        let a = NodeId(a % m.num_nodes());
        let b = NodeId(b % m.num_nodes());
        prop_assert!(m.distance(a, b) >= t.distance(a, b));
    }

    #[test]
    fn ghc_paths_are_shortest_and_valid(
        radices in ghc_radices(),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let g = GeneralizedHypercube::new(&radices).unwrap();
        check_paths(&g, a, b);
    }

    #[test]
    fn torus_paths_are_shortest_and_valid(
        extents in torus_extents(),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let t = Torus::new(&extents).unwrap();
        check_paths(&t, a, b);
    }

    #[test]
    fn ghc_triangle_inequality(
        radices in ghc_radices(),
        a in any::<usize>(),
        b in any::<usize>(),
        c in any::<usize>(),
    ) {
        let g = GeneralizedHypercube::new(&radices).unwrap();
        check_triangle(&g, a, b, c);
    }

    #[test]
    fn torus_triangle_inequality(
        extents in torus_extents(),
        a in any::<usize>(),
        b in any::<usize>(),
        c in any::<usize>(),
    ) {
        let t = Torus::new(&extents).unwrap();
        check_triangle(&t, a, b, c);
    }

    #[test]
    fn ghc_distance_matches_bfs(radices in ghc_radices(), a in any::<usize>()) {
        let g = GeneralizedHypercube::new(&radices).unwrap();
        let src = NodeId(a % g.num_nodes());
        let bfs = bfs_distances(&g, src);
        #[allow(clippy::needless_range_loop)] // `n` is also the NodeId value
        for n in 0..g.num_nodes() {
            prop_assert_eq!(g.distance(src, NodeId(n)), bfs[n]);
        }
    }

    #[test]
    fn torus_distance_matches_bfs(extents in torus_extents(), a in any::<usize>()) {
        let t = Torus::new(&extents).unwrap();
        let src = NodeId(a % t.num_nodes());
        let bfs = bfs_distances(&t, src);
        #[allow(clippy::needless_range_loop)] // `n` is also the NodeId value
        for n in 0..t.num_nodes() {
            prop_assert_eq!(t.distance(src, NodeId(n)), bfs[n]);
        }
    }
}

fn bfs_distances(topo: &dyn Topology, src: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; topo.num_nodes()];
    dist[src.0] = 0;
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        for &w in topo.neighbors(v) {
            if dist[w.0] == usize::MAX {
                dist[w.0] = dist[v.0] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

// ------------------------------------------------------- fabric identity

/// Every fabric the identity tests walk: the paper's 64-node platforms (the
/// first five — the nine `paper64` platforms are these, four of them at two
/// bandwidths), the 64×64 torus, the radix-2 torus (where +1 and −1 reach
/// the same neighbour), a small GHC and a mesh.
fn identity_fabrics() -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(GeneralizedHypercube::binary(6).unwrap()),
        Box::new(GeneralizedHypercube::new(&[4, 4, 4]).unwrap()),
        Box::new(Torus::new(&[8, 8]).unwrap()),
        Box::new(Torus::new(&[4, 4, 4]).unwrap()),
        Box::new(Torus::new(&[4, 4]).unwrap()),
        Box::new(Torus::new(&[64, 64]).unwrap()),
        Box::new(Torus::new(&[2, 2]).unwrap()),
        Box::new(GeneralizedHypercube::new(&[3, 3]).unwrap()),
        Box::new(Mesh::new(&[5, 4]).unwrap()),
    ]
}

/// `link_between` against the definition: the id whose `link_endpoints` are
/// the two nodes, in either argument order; `None` for a pair that is not
/// adjacent and for node ids the fabric does not have.
fn check_link_lookup(topo: &dyn Topology, reference: &dyn Topology) {
    let n = topo.num_nodes();
    let endpoints: Vec<(NodeId, NodeId)> = (0..reference.num_links())
        .map(|l| reference.link_endpoints(LinkId(l)))
        .collect();
    let brute = |a: NodeId, b: NodeId| {
        let key = (a.min(b), a.max(b));
        endpoints.iter().position(|&e| e == key).map(LinkId)
    };
    // Every adjacent pair, on small fabrics every pair at all; on large
    // ones each node against a stride of the others.
    let stride = (n / 64).max(1);
    for a in (0..n).map(NodeId) {
        for &b in reference.neighbors(a) {
            let expected = brute(a, b).filter(|_| topo.neighbors(a).contains(&b));
            assert_eq!(topo.link_between(a, b), expected, "{} {a} {b}", topo.name());
            assert_eq!(topo.link_between(b, a), expected, "{} {b} {a}", topo.name());
        }
        for b in (a.0 % stride..n).step_by(stride).map(NodeId) {
            if !topo.neighbors(a).contains(&b) {
                assert_eq!(topo.link_between(a, b), None, "{} {a} {b}", topo.name());
                assert_eq!(topo.link_between(b, a), None, "{} {b} {a}", topo.name());
            }
        }
        for beyond in [n, n + 1, usize::MAX] {
            assert_eq!(topo.link_between(a, NodeId(beyond)), None);
            assert_eq!(topo.link_between(NodeId(beyond), a), None);
        }
    }
    assert_eq!(topo.link_between(NodeId(n), NodeId(n + 1)), None);
}

#[test]
fn link_between_is_the_endpoint_table_on_every_fabric() {
    for topo in identity_fabrics() {
        let topo = topo.as_ref();
        check_link_lookup(topo, topo);
        // The same fabric with links and a node failed: surviving pairs keep
        // their ids, everything touching a fault is `None`.
        let faults = FaultSet::random_links(topo, topo.num_links() / 8, 11).fail_node(NodeId(1));
        let masked = MaskedTopology::new(topo, faults.clone());
        check_link_lookup(&masked, topo);
        for l in (0..topo.num_links()).map(LinkId) {
            let (a, b) = topo.link_endpoints(l);
            let alive = !faults.link_masked(l, topo);
            assert_eq!(masked.link_between(a, b), alive.then_some(l));
            assert_eq!(masked.neighbors(a).contains(&b), alive);
        }
    }
}

/// FNV-1a over a sequence of ids.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, v: usize) {
        for byte in (v as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of a fabric's `(link id → endpoints)` table and every neighbour
/// list.
fn fabric_hash(topo: &dyn Topology) -> u64 {
    let mut h = Fnv::new();
    h.put(topo.num_nodes());
    h.put(topo.num_links());
    for l in 0..topo.num_links() {
        let (a, b) = topo.link_endpoints(LinkId(l));
        h.put(a.0);
        h.put(b.0);
    }
    for n in 0..topo.num_nodes() {
        let nb = topo.neighbors(NodeId(n));
        h.put(nb.len());
        nb.iter().for_each(|m| h.put(m.0));
    }
    h.0
}

/// Hash of up to 16 shortest paths of every ordered node pair (a lattice of
/// some 5,000 pairs on the large torus), in enumeration order.
fn enumeration_hash(topo: &dyn Topology) -> u64 {
    let mut h = Fnv::new();
    let n = topo.num_nodes();
    let (src_stride, dst_stride) = if n > 64 { (53, 61) } else { (1, 1) };
    for src in (0..n).step_by(src_stride) {
        for dst in (src % dst_stride..n).step_by(dst_stride) {
            let paths = topo.shortest_paths(NodeId(src), NodeId(dst), 16);
            h.put(paths.len());
            for p in &paths {
                p.nodes().iter().for_each(|v| h.put(v.0));
            }
        }
    }
    h.0
}

/// Link ids, neighbour order and the order shortest paths are enumerated in
/// are what every golden, journal and pinned outcome vector is indexed by.
/// The hashes were computed with the hashed `(min, max) → id` index and the
/// address-decoding enumeration this code replaced.
#[test]
fn link_ids_neighbour_order_and_path_order_are_pinned() {
    let fabrics = identity_fabrics();
    let hashes: Vec<String> = fabrics
        .iter()
        .map(|t| {
            let (fabric, paths) = (fabric_hash(t.as_ref()), enumeration_hash(t.as_ref()));
            format!("{} {fabric:#018x} {paths:#018x}", t.name())
        })
        .collect();
    assert_eq!(
        hashes,
        [
            "GHC(2,2,2,2,2,2) 0x7b51f49ae614a8e5 0xdc823b3ac9d1f025",
            "GHC(4,4,4) 0xd99997081dbff1ea 0xef5433d81d883525",
            "Torus(8,8) 0x2330ce07201ed165 0x2c63ac2ed02fc725",
            "Torus(4,4,4) 0xeee482c2dd3bce65 0x0ab7de21aaed5f25",
            "Torus(4,4) 0x30fbaede0711cc15 0x56000723f1148725",
            "Torus(64,64) 0xdf0a5d05a051e7c5 0x7c2aba8ac47c56df",
            "Torus(2,2) 0xb12bfc666b2463c5 0x0068e97bf00ac525",
            "GHC(3,3) 0x4906a43329d8be3a 0x53ea1d814d15e7ac",
            "Mesh(5,4) 0x0fb66fb61fb84e4e 0x9b6969c82f5a562d",
        ]
    );
}
