//! Synthetic task-flow graph generators.
//!
//! These produce the auxiliary workloads used in tests and examples:
//! deterministic shapes (chains, diamonds, fan-out) and seeded random
//! layered DAGs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{TaskFlowGraph, TfgBuilder};

/// A linear pipeline of `stages` tasks joined by `stages − 1` messages.
///
/// # Panics
///
/// Panics if `stages == 0` or (when `stages > 1`) `bytes == 0`.
///
/// # Examples
///
/// ```
/// let g = sr_tfg::generators::chain(4, 1000, 256);
/// assert_eq!(g.num_tasks(), 4);
/// assert_eq!(g.num_messages(), 3);
/// ```
pub fn chain(stages: usize, ops: u64, bytes: u64) -> TaskFlowGraph {
    assert!(stages > 0, "a chain needs at least one stage");
    let mut b = TfgBuilder::new();
    let ids: Vec<_> = (0..stages).map(|i| b.task(format!("s{i}"), ops)).collect();
    for w in ids.windows(2) {
        b.message(format!("{}->{}", w[0], w[1]), w[0], w[1], bytes)
            .expect("valid chain message");
    }
    b.build().expect("chains are acyclic")
}

/// The §3 *Claim* scenario: a 4-task chain whose first and last messages are
/// large (and will contend for a link under wormhole routing) with a small
/// coupling message in the middle.
///
/// `M1 = T0→T1` and `M2 = T2→T3` satisfy the Claim's premise
/// (`T1 ⪯ T2`, all four tasks on the critical path); map them so their
/// paths share a link and wormhole routing exhibits output inconsistency.
pub fn claim_chain(ops: u64, big_bytes: u64, small_bytes: u64) -> TaskFlowGraph {
    let mut b = TfgBuilder::new();
    let t0 = b.task("T1s", ops);
    let t1 = b.task("T1d", ops);
    let t2 = b.task("T2s", ops);
    let t3 = b.task("T2d", ops);
    b.message("M1", t0, t1, big_bytes).expect("valid");
    b.message("link", t1, t2, small_bytes).expect("valid");
    b.message("M2", t2, t3, big_bytes).expect("valid");
    b.build().expect("claim chain is acyclic")
}

/// A fan-out/fan-in diamond: one source, `width` parallel branches, one sink.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn diamond(width: usize, ops: u64, bytes: u64) -> TaskFlowGraph {
    assert!(width > 0, "diamond needs at least one branch");
    let mut b = TfgBuilder::new();
    let src = b.task("src", ops);
    let sink = b.task("sink", ops);
    for i in 0..width {
        let mid = b.task(format!("mid{i}"), ops);
        b.message(format!("out{i}"), src, mid, bytes)
            .expect("valid");
        b.message(format!("in{i}"), mid, sink, bytes)
            .expect("valid");
    }
    b.build().expect("diamonds are acyclic")
}

/// An image-pyramid reduction: `levels` layers halving in width, every
/// task feeding its parent — the fan-in shape of multiresolution vision
/// kernels (the application domain the paper motivates with).
///
/// Level 0 has `2^(levels-1)` leaf tasks (inputs); each non-leaf combines
/// two children. Message sizes halve level by level from `base_bytes`.
///
/// # Panics
///
/// Panics if `levels == 0` or `base_bytes == 0`.
///
/// # Examples
///
/// ```
/// let g = sr_tfg::generators::pyramid(3, 1000, 4096);
/// assert_eq!(g.num_tasks(), 7);      // 4 + 2 + 1
/// assert_eq!(g.num_messages(), 6);
/// assert_eq!(g.inputs().len(), 4);
/// assert_eq!(g.outputs().len(), 1);
/// ```
pub fn pyramid(levels: usize, ops: u64, base_bytes: u64) -> TaskFlowGraph {
    assert!(levels > 0, "pyramid needs at least one level");
    assert!(base_bytes > 0, "pyramid messages need payload");
    let mut b = TfgBuilder::new();
    let leaves = 1usize << (levels - 1);
    let mut prev: Vec<crate::TaskId> = (0..leaves)
        .map(|i| b.task(format!("l0_{i}"), ops))
        .collect();
    let mut bytes = base_bytes;
    for level in 1..levels {
        let width = prev.len() / 2;
        let mut cur = Vec::with_capacity(width);
        for i in 0..width {
            let t = b.task(format!("l{level}_{i}"), ops);
            b.message(format!("m{level}_{i}a"), prev[2 * i], t, bytes)
                .expect("valid pyramid edge");
            b.message(format!("m{level}_{i}b"), prev[2 * i + 1], t, bytes)
                .expect("valid pyramid edge");
            cur.push(t);
        }
        prev = cur;
        bytes = (bytes / 2).max(1);
    }
    b.build().expect("pyramids are acyclic")
}

/// `count` independent copies of a `stages`-long pipeline sharing nothing —
/// the multiprogrammed workload for interference studies (each pipeline
/// should be schedulable independently; any coupling comes from the
/// network).
///
/// # Panics
///
/// Panics if `count == 0` or `stages == 0`.
pub fn parallel_chains(count: usize, stages: usize, ops: u64, bytes: u64) -> TaskFlowGraph {
    assert!(count > 0 && stages > 0, "degenerate shape");
    let mut b = TfgBuilder::new();
    for c in 0..count {
        let ids: Vec<_> = (0..stages)
            .map(|i| b.task(format!("p{c}_s{i}"), ops))
            .collect();
        for (i, w) in ids.windows(2).enumerate() {
            b.message(format!("p{c}_m{i}"), w[0], w[1], bytes)
                .expect("valid chain edge");
        }
    }
    b.build().expect("chains are acyclic")
}

/// Parameters for [`layered_random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayeredParams {
    /// Number of layers (≥ 1).
    pub layers: usize,
    /// Tasks per layer (≥ 1).
    pub width: usize,
    /// Probability of a message between tasks in adjacent layers.
    pub edge_probability: f64,
    /// Inclusive range of task operation counts.
    pub ops: (u64, u64),
    /// Inclusive range of message payload sizes (min ≥ 1).
    pub bytes: (u64, u64),
}

impl Default for LayeredParams {
    fn default() -> Self {
        LayeredParams {
            layers: 4,
            width: 4,
            edge_probability: 0.4,
            ops: (200, 2000),
            bytes: (64, 4096),
        }
    }
}

/// A random layered DAG: tasks arranged in layers, messages only between
/// adjacent layers, every non-first-layer task guaranteed at least one
/// predecessor (so the precedence structure is connected enough to pipeline).
///
/// Deterministic for a fixed `seed`.
///
/// # Panics
///
/// Panics if `layers == 0`, `width == 0`, `bytes.0 == 0`, or a range is
/// inverted.
///
/// # Examples
///
/// ```
/// use sr_tfg::generators::{layered_random, LayeredParams};
///
/// let g = layered_random(42, &LayeredParams::default());
/// let h = layered_random(42, &LayeredParams::default());
/// assert_eq!(g.num_messages(), h.num_messages()); // reproducible
/// ```
pub fn layered_random(seed: u64, params: &LayeredParams) -> TaskFlowGraph {
    assert!(params.layers > 0 && params.width > 0, "degenerate shape");
    assert!(params.ops.0 <= params.ops.1, "inverted ops range");
    assert!(
        params.bytes.0 >= 1 && params.bytes.0 <= params.bytes.1,
        "invalid bytes range"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TfgBuilder::new();
    let mut layers: Vec<Vec<crate::TaskId>> = Vec::with_capacity(params.layers);
    for l in 0..params.layers {
        let layer: Vec<_> = (0..params.width)
            .map(|i| {
                let ops = rng.gen_range(params.ops.0..=params.ops.1);
                b.task(format!("t{l}_{i}"), ops)
            })
            .collect();
        layers.push(layer);
    }
    for l in 1..params.layers {
        for (i, &dst) in layers[l].clone().iter().enumerate() {
            let mut has_pred = false;
            for (j, &src) in layers[l - 1].clone().iter().enumerate() {
                if rng.gen_bool(params.edge_probability.clamp(0.0, 1.0)) {
                    let bytes = rng.gen_range(params.bytes.0..=params.bytes.1);
                    b.message(format!("m{l}_{j}_{i}"), src, dst, bytes)
                        .expect("valid edge");
                    has_pred = true;
                }
            }
            if !has_pred {
                let j = rng.gen_range(0..params.width);
                let src = layers[l - 1][j];
                let bytes = rng.gen_range(params.bytes.0..=params.bytes.1);
                b.message(format!("f{l}_{j}_{i}"), src, dst, bytes)
                    .expect("valid fallback edge");
            }
        }
    }
    b.build().expect("layered graphs are acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let g = chain(5, 100, 32);
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.num_messages(), 4);
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn single_stage_chain_has_no_messages() {
        let g = chain(1, 100, 32);
        assert_eq!(g.num_messages(), 0);
    }

    #[test]
    fn claim_chain_precedence() {
        let g = claim_chain(1000, 3200, 64);
        // M1's destination precedes M2's source (the Claim's premise).
        let m1 = g.message(crate::MessageId(0));
        let m2 = g.message(crate::MessageId(2));
        assert!(g.precedes(m1.dst(), m2.src()) || m1.dst() == m2.src());
    }

    #[test]
    fn diamond_shape() {
        let g = diamond(3, 10, 10);
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.num_messages(), 6);
        assert_eq!(g.inputs().len(), 1);
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn pyramid_shape() {
        let g = pyramid(4, 100, 4096);
        assert_eq!(g.num_tasks(), 8 + 4 + 2 + 1);
        assert_eq!(g.num_messages(), 14);
        assert_eq!(g.inputs().len(), 8);
        assert_eq!(g.outputs().len(), 1);
        // Byte sizes halve per level.
        let max = g.messages().iter().map(|m| m.bytes()).max().unwrap();
        let min = g.messages().iter().map(|m| m.bytes()).min().unwrap();
        assert_eq!(max, 4096);
        assert_eq!(min, 1024);
    }

    #[test]
    fn pyramid_single_level_is_one_task() {
        let g = pyramid(1, 100, 64);
        assert_eq!(g.num_tasks(), 1);
        assert_eq!(g.num_messages(), 0);
    }

    #[test]
    fn parallel_chains_are_disjoint() {
        let g = parallel_chains(3, 4, 100, 64);
        assert_eq!(g.num_tasks(), 12);
        assert_eq!(g.num_messages(), 9);
        assert_eq!(g.inputs().len(), 3);
        assert_eq!(g.outputs().len(), 3);
        // No path between different pipelines.
        assert!(!g.precedes(crate::TaskId(0), crate::TaskId(4)));
    }

    #[test]
    fn layered_random_is_reproducible() {
        let p = LayeredParams::default();
        let a = layered_random(7, &p);
        let b = layered_random(7, &p);
        assert_eq!(a.num_tasks(), b.num_tasks());
        assert_eq!(a.num_messages(), b.num_messages());
        for (x, y) in a.messages().iter().zip(b.messages()) {
            assert_eq!(x.bytes(), y.bytes());
            assert_eq!(x.src(), y.src());
            assert_eq!(x.dst(), y.dst());
        }
    }

    #[test]
    fn layered_random_every_later_task_has_predecessor() {
        let p = LayeredParams {
            layers: 5,
            width: 3,
            edge_probability: 0.05, // force the fallback path to kick in
            ..LayeredParams::default()
        };
        let g = layered_random(123, &p);
        // Only the first layer (3 tasks) may be inputs.
        assert_eq!(g.inputs().len(), 3);
    }

    #[test]
    fn different_seeds_differ() {
        let p = LayeredParams::default();
        let a = layered_random(1, &p);
        let b = layered_random(2, &p);
        // With overwhelming probability the byte multiset differs.
        let sa: u64 = a.total_bytes();
        let sb: u64 = b.total_bytes();
        assert_ne!(sa, sb);
    }
}
