//! Flow-based backend for the message–interval allocation stage.
//!
//! The allocation LP of `allocation_lp` (paper §5.2, constraints (3),(4))
//! is structurally a packing of message time into per-(link, interval)
//! capacities. This module reformulates each maximal related subset as a
//! **time-expanded min-cost-flow network** and solves it with successive
//! shortest paths — std-only, no simplex involved — which scales to
//! instances whose LPs would carry thousands of columns:
//!
//! * a source arc per message carrying its transmission time,
//! * one *chain* of arcs per (message, active interval): the message's
//!   flow for interval `A_k` traverses a capacity arc for every link on
//!   its path, charged against `capacity_scale · |A_k|` shared with every
//!   other message on that link,
//! * entry arcs cost the interval index (earlier intervals are cheaper),
//!   every other arc costs zero, so the min-cost solution is a
//!   deterministic early-packed split.
//!
//! # Kernel
//!
//! The augmenting search is successive shortest paths with **node
//! potentials**: a binary-heap Dijkstra over Johnson-reduced costs,
//! potentials initialized to zero once per subset network (every initial
//! residual cost is a non-negative interval index, so zero potentials are
//! valid — no warm-up Bellman–Ford) and *updated* after each augmentation
//! (`π[v] += min(dist[v], dist[t])`, which keeps every residual reduced
//! cost non-negative) instead of recomputed. The heap key is
//! `(distance bits, node id)`, so tie-breaking is deterministic and the
//! work counters are bit-stable at any `--parallelism`. All arc costs are
//! small integers, so distances, potentials, and reduced costs are
//! exactly-representable f64 integers — shortest-path identities below
//! hold under *exact* float equality, with no epsilon.
//!
//! The classical kernel — one full Bellman–Ford relaxation per
//! augmentation — is kept as [`FlowKernel::BellmanFordOracle`], the
//! differential oracle (exactly like dense-vs-sparse simplex). Both
//! kernels compute exact shortest distances and then feed one shared
//! **canonical predecessor extraction**: a BFS from the source over
//! *tight* residual arcs (`dist[u] + cost == dist[v]`, exact equality),
//! first visit in adjacency order wins. Tightness in reduced costs is
//! algebraically identical to tightness in raw costs, so both kernels
//! select the same augmenting path, push the same bottleneck, and leave
//! bit-identical residual networks — the extracted allocations are
//! bit-identical, not merely equal in objective (proptested in
//! `tests/proptests.rs`).
//!
//! Scratch memory (arc pool, adjacency, distance/potential arrays, heap)
//! lives in a [`FlowWorkspace`] reused across the per-subset solves of one
//! compile and across `repair()`/`sr-serve` admission ladders, mirroring
//! `AllocBasisCache` on the simplex side. The workspace carries no
//! semantic state between solves, so reuse is allocation-only and cannot
//! perturb results.
//!
//! # Exactness contract
//!
//! Any LP-feasible allocation routes along its own chains, so the network
//! always admits a full-value flow when the LP is feasible — a max flow
//! short of total demand is therefore an **exact** infeasibility verdict.
//! The converse direction is a relaxation: at a shared capacity node,
//! flow conservation lets flow *jump* from one message's chain to
//! another's, so a full-value flow can imply an extracted split that
//! oversubscribes a link the jump bypassed. The extracted matrix is
//! therefore re-checked against constraint (4) exactly; the rare subset
//! that fails the check falls back to the simplex oracle (counted in
//! [`FlowAllocStats::fallbacks`]). Chains of length one — the dominant
//! conflict pattern — cannot jump and never fall back.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use sr_tfg::{MessageId, TimeBounds};
use sr_topology::LinkId;

use crate::allocation_lp::{solve_subset_capacities, AllocationStats};
use crate::{ActivityMatrix, CompileError, IntervalAllocation, Intervals, PathAssignment, EPS};

/// Residual-capacity tolerance for the augmenting search, far below the
/// schedule-level [`EPS`].
const FLOW_EPS: f64 = 1e-9;

/// Every subset network's first two nodes.
const SOURCE: usize = 0;
const SINK: usize = 1;

/// Which augmenting-search kernel drives the min-cost-flow solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlowKernel {
    /// Dijkstra over reduced costs with carried node potentials — the
    /// production kernel.
    #[default]
    SspDijkstra,
    /// Full Bellman–Ford relaxation per augmentation — the differential
    /// oracle. Bit-identical allocations to [`FlowKernel::SspDijkstra`]
    /// (shared canonical predecessor extraction), O(V·E) per augmentation.
    BellmanFordOracle,
}

/// Work counters for one flow-allocation pass, deterministic for fixed
/// inputs (the network build order, the heap tie-break, and the canonical
/// predecessor extraction are all input-ordered).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowAllocStats {
    /// Subset networks solved.
    pub solves: u64,
    /// Network nodes built across all subsets.
    pub nodes: u64,
    /// Forward arcs built across all subsets.
    pub arcs: u64,
    /// Shortest-path augmentations performed.
    pub augmentations: u64,
    /// Binary-heap pops across all Dijkstra runs (stale lazy-deletion
    /// entries included). Zero under [`FlowKernel::BellmanFordOracle`].
    pub dijkstra_pops: u64,
    /// Dijkstra runs that reused potentials carried from a previous
    /// augmentation of the same subset network instead of recomputing
    /// them from scratch — every augmentation after a solve's first.
    /// Zero under [`FlowKernel::BellmanFordOracle`].
    pub potential_reuse_hits: u64,
    /// Subsets whose extracted split violated constraint (4) (chain
    /// jumping) and were re-solved by the simplex oracle.
    pub fallbacks: u64,
}

/// One forward arc of the residual network; its reverse twin sits at
/// `index ^ 1`.
#[derive(Debug)]
struct Arc {
    to: usize,
    cap: f64,
    cost: f64,
}

/// Reusable scratch for the flow allocation: the residual network with its
/// kernel buffers (arc pool, adjacency lists, distance/potential/predecessor
/// arrays, the Dijkstra heap, the extraction queue) and the link index each
/// subset network is built from. Create one per compile ladder (or hold one
/// per tenant/repair session) and pass it to every flow allocation — buffers
/// are recycled across subset solves, so steady-state solves allocate
/// nothing. The workspace carries no semantic state between solves
/// (potentials are re-initialized per subset network); reuse is purely an
/// allocation cache and cannot change any result bit.
#[derive(Debug, Default)]
pub struct FlowWorkspace {
    net: FlowNet,
    local: LocalLinks,
}

impl FlowWorkspace {
    /// An empty workspace; buffers grow to the largest subset network
    /// solved through it and are then reused.
    pub fn new() -> Self {
        FlowWorkspace::default()
    }

    /// Builds the time-expanded network of `subset` and returns each
    /// member's entry arcs, one per active interval. Nodes: source, sink,
    /// one per member, then the `(in, out)` capacity pairs in ascending
    /// (link, interval) order; the order nodes and arcs are created in
    /// fixes the adjacency order the kernel's tie-breaks read, so it is
    /// part of the result.
    fn build<C>(
        &mut self,
        assignment: &PathAssignment,
        subset: &[MessageId],
        actives: &[Vec<usize>],
        durations: &[f64],
        capacity: &C,
    ) -> Vec<Vec<usize>>
    where
        C: Fn(LinkId, usize) -> f64,
    {
        let FlowWorkspace { net, local } = self;
        let total: f64 = durations.iter().sum();
        net.reset_net(2 + subset.len());
        let member_node = |mi: usize| 2 + mi;

        local.index(assignment, subset, actives);
        for li in 0..local.len() {
            local.first_node.push(net.nodes);
            for &k in local.intervals(li) {
                let input = net.add_node();
                let output = net.add_node();
                net.add_arc(input, output, capacity(local.link(li), k), 0.0);
            }
        }

        // Source and chain arcs, member-major then interval-major. Transfer
        // and exit arcs are deduplicated — messages sharing consecutive
        // links share them. Only those arcs leave a capacity pair's out
        // node, so its adjacency list is the record of which exist.
        let mut entry_arcs: Vec<Vec<usize>> = vec![Vec::new(); subset.len()];
        for (mi, &m) in subset.iter().enumerate() {
            net.add_arc(SOURCE, member_node(mi), durations[mi], 0.0);
            let links = assignment.links(m);
            local.start_chain(links);
            for &k in &actives[mi] {
                let (first_in, mut out) = local.capacity_pair(0, k);
                let entry = net.add_arc(member_node(mi), first_in, durations[mi], k as f64);
                entry_arcs[mi].push(entry);
                for hop in 1..links.len() {
                    let (next_in, next_out) = local.capacity_pair(hop, k);
                    if !net.has_arc(out, next_in) {
                        net.add_arc(out, next_in, total, 0.0);
                    }
                    out = next_out;
                }
                if !net.has_arc(out, SINK) {
                    net.add_arc(out, SINK, total, 0.0);
                }
            }
        }
        entry_arcs
    }
}

/// The residual network of one subset and the min-cost-flow kernel's
/// buffers over it.
#[derive(Debug, Default)]
struct FlowNet {
    arcs: Vec<Arc>,
    /// Adjacency lists; only the first `nodes` entries are live. Entries
    /// beyond the live prefix are empty (cleared on reset), so growing
    /// into them is safe.
    adj: Vec<Vec<usize>>,
    nodes: usize,
    dist: Vec<f64>,
    pot: Vec<f64>,
    prev: Vec<usize>,
    seen: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    queue: VecDeque<usize>,
}

/// The links one subset's members cross, numbered locally in ascending
/// link order, each with its members, the intervals any of them is active
/// in, and the capacity nodes built for those. Rebuilt per subset network;
/// every list is sorted, so a lookup is an index, a binary search or a
/// cursor that only moves forward — never a hash.
#[derive(Debug, Default)]
struct LocalLinks {
    /// `(link, member index)` for every hop of every member, ascending —
    /// a link's members sit together, in member order.
    incidences: Vec<(LinkId, usize)>,
    /// Local link `li` owns `incidences[spans[li].0..spans[li + 1].0]` and
    /// the intervals `ks[spans[li].1..spans[li + 1].1]`, the ascending
    /// union of its members' active intervals; one sentinel entry closes
    /// the last link.
    spans: Vec<(usize, usize)>,
    ks: Vec<usize>,
    /// Network node of local link `li`'s first capacity pair: its `i`-th
    /// interval enters at `first_node[li] + 2·i` and leaves one above.
    first_node: Vec<usize>,
    /// One member's chain while its arcs are added: the local link of each
    /// hop, and how far into that link's intervals the member's have come.
    hop_link: Vec<usize>,
    hop_cursor: Vec<usize>,
}

impl LocalLinks {
    /// Indexes the links of `subset`'s members.
    fn index(&mut self, assignment: &PathAssignment, subset: &[MessageId], actives: &[Vec<usize>]) {
        let LocalLinks {
            incidences,
            spans,
            ks,
            first_node,
            ..
        } = self;
        incidences.clear();
        for (mi, &m) in subset.iter().enumerate() {
            incidences.extend(assignment.links(m).iter().map(|&l| (l, mi)));
        }
        incidences.sort_unstable();
        spans.clear();
        ks.clear();
        first_node.clear();
        let mut at = 0;
        let mut union = Vec::new();
        for on_link in incidences.chunk_by(|a, b| a.0 == b.0) {
            spans.push((at, ks.len()));
            at += on_link.len();
            union.clear();
            for &(_, mi) in on_link {
                union.extend_from_slice(&actives[mi]);
            }
            union.sort_unstable();
            union.dedup();
            ks.extend_from_slice(&union);
        }
        spans.push((at, ks.len()));
    }

    /// Number of distinct links.
    fn len(&self) -> usize {
        self.spans.len() - 1
    }

    fn link(&self, li: usize) -> LinkId {
        self.incidences[self.spans[li].0].0
    }

    /// Member indices on local link `li`, ascending.
    fn members(&self, li: usize) -> impl Iterator<Item = usize> + '_ {
        let on_link = &self.incidences[self.spans[li].0..self.spans[li + 1].0];
        on_link.iter().map(|&(_, mi)| mi)
    }

    /// The intervals in which any member on local link `li` is active.
    fn intervals(&self, li: usize) -> &[usize] {
        &self.ks[self.spans[li].1..self.spans[li + 1].1]
    }

    /// Starts the chain of a member crossing `links`.
    fn start_chain(&mut self, links: &[LinkId]) {
        self.hop_link.clear();
        for &link in links {
            let firsts = &self.spans[..self.len()];
            let li = firsts.partition_point(|&(at, _)| self.incidences[at].0 < link);
            self.hop_link.push(li);
        }
        self.hop_cursor.clear();
        self.hop_cursor.resize(links.len(), 0);
    }

    /// The capacity pair `(in, out)` of the current chain's hop `hop` in
    /// interval `k`. A chain asks for its intervals in ascending order.
    fn capacity_pair(&mut self, hop: usize, k: usize) -> (usize, usize) {
        let li = self.hop_link[hop];
        let ks = &self.ks[self.spans[li].1..];
        let cursor = &mut self.hop_cursor[hop];
        while ks[*cursor] != k {
            *cursor += 1;
        }
        let input = self.first_node[li] + 2 * *cursor;
        (input, input + 1)
    }
}

impl FlowNet {
    /// Clears the network back to `nodes` isolated nodes, keeping every
    /// buffer's capacity.
    fn reset_net(&mut self, nodes: usize) {
        self.arcs.clear();
        for a in &mut self.adj[..self.nodes] {
            a.clear();
        }
        if self.adj.len() < nodes {
            self.adj.resize_with(nodes, Vec::new);
        }
        self.nodes = nodes;
    }

    fn add_node(&mut self) -> usize {
        let id = self.nodes;
        if self.adj.len() == id {
            self.adj.push(Vec::new());
        }
        self.nodes = id + 1;
        id
    }

    fn add_arc(&mut self, from: usize, to: usize, cap: f64, cost: f64) -> usize {
        let i = self.arcs.len();
        self.arcs.push(Arc { to, cap, cost });
        self.arcs.push(Arc {
            to: from,
            cap: 0.0,
            cost: -cost,
        });
        self.adj[from].push(i);
        self.adj[to].push(i + 1);
        i
    }

    /// `true` when a forward arc `from → to` has been added.
    fn has_arc(&self, from: usize, to: usize) -> bool {
        let mut out = self.adj[from].iter();
        out.any(|&ai| ai % 2 == 0 && self.arcs[ai].to == to)
    }

    /// Flow carried by forward arc `ai` (its reverse twin's residual).
    fn flow(&self, ai: usize) -> f64 {
        self.arcs[ai ^ 1].cap
    }

    /// Successive-shortest-paths max flow from `s` to `t`; returns the
    /// value pushed. Both kernels compute exact distances and share the
    /// canonical predecessor extraction, so the augmentation sequence —
    /// and the final residual network — is kernel-independent.
    fn max_flow_min_cost(
        &mut self,
        s: usize,
        t: usize,
        kernel: FlowKernel,
        stats: &mut FlowAllocStats,
    ) -> f64 {
        let n = self.nodes;
        if self.dist.len() < n {
            self.dist.resize(n, 0.0);
            self.pot.resize(n, 0.0);
            self.prev.resize(n, usize::MAX);
            self.seen.resize(n, false);
        }
        // Potentials are initialized once per subset network: every
        // initial residual cost is a non-negative interval index, so zero
        // potentials are already valid (no warm-up Bellman–Ford needed).
        self.pot[..n].fill(0.0);
        let mut pushed = 0.0f64;
        let mut first = true;
        loop {
            match kernel {
                FlowKernel::SspDijkstra => {
                    if !first {
                        stats.potential_reuse_hits += 1;
                    }
                    self.dijkstra(s, stats);
                }
                FlowKernel::BellmanFordOracle => self.bellman_ford(s),
            }
            first = false;
            if self.dist[t].is_infinite() {
                return pushed;
            }
            self.extract_predecessors(s, t, kernel);

            // Bottleneck along the canonical path, then augment.
            let mut bottleneck = f64::INFINITY;
            let mut v = t;
            while v != s {
                let ai = self.prev[v];
                bottleneck = bottleneck.min(self.arcs[ai].cap);
                v = self.arcs[ai ^ 1].to;
            }
            let mut v = t;
            while v != s {
                let ai = self.prev[v];
                self.arcs[ai].cap -= bottleneck;
                self.arcs[ai ^ 1].cap += bottleneck;
                v = self.arcs[ai ^ 1].to;
            }

            if kernel == FlowKernel::SspDijkstra {
                // π[v] += min(dist[v], dist[t]) keeps every residual arc's
                // reduced cost non-negative: unreachable tails shift by
                // the full dist[t] (their residual arcs can only point at
                // nodes shifted by at most that much), and reachable
                // pairs inherit the triangle inequality. Augmenting-path
                // arcs land at reduced cost exactly zero, so their new
                // reverse twins are valid too.
                let dt = self.dist[t];
                for v in 0..n {
                    let dv = self.dist[v];
                    self.pot[v] += if dv < dt { dv } else { dt };
                }
            }
            stats.augmentations += 1;
            pushed += bottleneck;
        }
    }

    /// Binary-heap Dijkstra over reduced costs. Runs to heap exhaustion
    /// (no early exit at `t`): every reachable node's distance must be
    /// exact for the canonical tight-arc extraction to match the oracle's.
    /// The heap key is `(distance bits, node id)` — for non-negative
    /// floats the bit pattern orders like the value, and the id breaks
    /// ties deterministically.
    fn dijkstra(&mut self, s: usize, stats: &mut FlowAllocStats) {
        let FlowNet {
            arcs,
            adj,
            nodes,
            dist,
            pot,
            heap,
            ..
        } = self;
        let n = *nodes;
        dist[..n].fill(f64::INFINITY);
        dist[s] = 0.0;
        heap.clear();
        heap.push(Reverse((0.0f64.to_bits(), s)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            stats.dijkstra_pops += 1;
            let d = f64::from_bits(bits);
            if d > dist[u] {
                continue; // stale lazy-deletion entry
            }
            for &ai in &adj[u] {
                let a = &arcs[ai];
                if a.cap <= FLOW_EPS {
                    continue;
                }
                let rc = a.cost + pot[u] - pot[a.to];
                debug_assert!(rc >= 0.0, "negative reduced cost {rc} on arc {ai}");
                let nd = d + rc;
                if nd < dist[a.to] {
                    dist[a.to] = nd;
                    heap.push(Reverse((nd.to_bits(), a.to)));
                }
            }
        }
    }

    /// The oracle kernel's distance pass: Bellman–Ford over raw residual
    /// costs, relaxing arcs in build order until a fixed point. Costs are
    /// exact integers, so strict improvement needs no epsilon and the
    /// fixed point is the exact distance vector.
    fn bellman_ford(&mut self, s: usize) {
        let FlowNet {
            arcs,
            adj,
            nodes,
            dist,
            ..
        } = self;
        let n = *nodes;
        dist[..n].fill(f64::INFINITY);
        dist[s] = 0.0;
        for _ in 0..n {
            let mut improved = false;
            for u in 0..n {
                if dist[u].is_infinite() {
                    continue;
                }
                for &ai in &adj[u] {
                    let a = &arcs[ai];
                    if a.cap > FLOW_EPS && dist[u] + a.cost < dist[a.to] {
                        dist[a.to] = dist[u] + a.cost;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Canonical predecessor extraction, shared by both kernels: BFS from
    /// `s` over *tight* residual arcs (`dist[u] + cost == dist[v]`, exact
    /// float equality on exactly-representable integers), first visit in
    /// adjacency order wins. Raw-cost tightness and reduced-cost
    /// tightness pick out the same arc set (the potential terms cancel
    /// along any comparison of true distances), so the BFS tree — and the
    /// augmenting path it yields — is identical under either kernel.
    fn extract_predecessors(&mut self, s: usize, t: usize, kernel: FlowKernel) {
        let FlowNet {
            arcs,
            adj,
            nodes,
            dist,
            pot,
            prev,
            seen,
            queue,
            ..
        } = self;
        let n = *nodes;
        prev[..n].fill(usize::MAX);
        seen[..n].fill(false);
        queue.clear();
        seen[s] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            if u == t {
                break;
            }
            for &ai in &adj[u] {
                let a = &arcs[ai];
                if a.cap <= FLOW_EPS || seen[a.to] {
                    continue;
                }
                let c = match kernel {
                    FlowKernel::SspDijkstra => a.cost + pot[u] - pot[a.to],
                    FlowKernel::BellmanFordOracle => a.cost,
                };
                if dist[u] + c == dist[a.to] {
                    seen[a.to] = true;
                    prev[a.to] = ai;
                    queue.push_back(a.to);
                }
            }
        }
        debug_assert!(
            seen[t],
            "t has a finite distance but no tight path reached it"
        );
    }
}

/// Solves the message–interval allocation with the flow backend: same
/// inputs, same feasibility verdict, and the same constraint guarantees as
/// [`crate::allocate_intervals`], but each subset is solved as a
/// min-cost-flow network instead of an LP (falling back to the simplex for
/// the rare subset where the relaxation is loose — see the module docs).
///
/// `ws` is the reusable kernel scratch — pass the same workspace across
/// the solves of one compile ladder to amortize its buffers. `lp_stats`
/// accumulates the work of any fallback solves so the compile pipeline's
/// `alloc_lp.*` counters stay meaningful under this engine.
///
/// # Errors
///
/// [`CompileError::AllocationInfeasible`] when a subset has no feasible
/// split (the flow verdict is exact); [`CompileError::Lp`] on fallback
/// solver trouble.
#[allow(clippy::too_many_arguments)]
pub fn allocate_intervals_flow(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    capacity_scale: f64,
    ws: &mut FlowWorkspace,
    stats: &mut FlowAllocStats,
    lp_stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    allocate_intervals_flow_with_kernel(
        assignment,
        bounds,
        activity,
        intervals,
        subsets,
        capacity_scale,
        FlowKernel::SspDijkstra,
        ws,
        stats,
        lp_stats,
    )
}

/// [`allocate_intervals_flow`] with an explicit kernel choice — the entry
/// point the differential tests use to pit the production Dijkstra kernel
/// against the Bellman–Ford oracle on identical inputs.
///
/// # Errors
///
/// As [`allocate_intervals_flow`].
#[allow(clippy::too_many_arguments)]
pub fn allocate_intervals_flow_with_kernel(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    capacity_scale: f64,
    kernel: FlowKernel,
    ws: &mut FlowWorkspace,
    stats: &mut FlowAllocStats,
    lp_stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    let mut p = vec![vec![0.0; intervals.len()]; assignment.len()];
    for subset in subsets {
        solve_subset_flow(
            assignment,
            bounds,
            activity,
            subset,
            |_, k| capacity_scale * intervals.length(k),
            kernel,
            ws,
            &mut p,
            stats,
            lp_stats,
        )?;
    }
    Ok(IntervalAllocation::from_matrix(p))
}

/// Flow-backend counterpart of
/// [`crate::allocation_lp::allocate_intervals_pinned_reserved`]: re-derives
/// only the `affected` rows, with every other row pinned bit-identically
/// and charged — together with the `reserved` external capacity — against
/// each (link, interval) budget. This is the allocation step of the
/// repack/admission ladders under `AllocEngine::Flow`; `ws` should be the
/// session-held workspace so repeated repairs/admissions reuse its
/// buffers.
///
/// # Errors
///
/// As [`allocate_intervals_flow`].
///
/// # Panics
///
/// If `pinned` does not match the assignment, or a `reserved` row's length
/// is not `intervals.len()`.
#[allow(clippy::too_many_arguments)]
pub fn allocate_intervals_pinned_reserved_flow(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    intervals: &Intervals,
    subsets: &[Vec<MessageId>],
    affected: &[MessageId],
    pinned: &IntervalAllocation,
    reserved: &std::collections::HashMap<LinkId, Vec<f64>>,
    capacity_scale: f64,
    ws: &mut FlowWorkspace,
    stats: &mut FlowAllocStats,
    lp_stats: &mut AllocationStats,
) -> Result<IntervalAllocation, CompileError> {
    assert_eq!(
        pinned.num_messages(),
        assignment.len(),
        "pinned allocation does not match the assignment"
    );
    for row in reserved.values() {
        assert_eq!(
            row.len(),
            intervals.len(),
            "external reservation row does not cover every interval"
        );
    }
    let is_affected: Vec<bool> = {
        let mut v = vec![false; assignment.len()];
        for &m in affected {
            v[m.index()] = true;
        }
        v
    };

    // Start from the pinned matrix; blank what must be re-derived
    // (affected rows) or cannot carry traffic (link-less rows).
    let mut p = vec![vec![0.0; intervals.len()]; assignment.len()];
    for i in 0..assignment.len() {
        if !is_affected[i] && !assignment.links(MessageId(i)).is_empty() {
            p[i].clone_from_slice(pinned.row(MessageId(i)));
        }
    }

    // Capacity already consumed by pinned traffic, per link per interval.
    let mut pinned_used: std::collections::HashMap<LinkId, Vec<f64>> =
        std::collections::HashMap::new();
    for i in 0..assignment.len() {
        let m = MessageId(i);
        if is_affected[i] {
            continue;
        }
        for &l in assignment.links(m) {
            let row = pinned_used
                .entry(l)
                .or_insert_with(|| vec![0.0; intervals.len()]);
            for (k, r) in row.iter_mut().enumerate() {
                *r += p[i][k];
            }
        }
    }

    for subset in subsets {
        let members: Vec<MessageId> = subset
            .iter()
            .copied()
            .filter(|m| is_affected[m.index()])
            .collect();
        if members.is_empty() {
            continue;
        }
        solve_subset_flow(
            assignment,
            bounds,
            activity,
            &members,
            |link, k| {
                let used = pinned_used.get(&link).map_or(0.0, |r| r[k])
                    + reserved.get(&link).map_or(0.0, |r| r[k]);
                (capacity_scale * intervals.length(k) - used).max(0.0)
            },
            FlowKernel::SspDijkstra,
            ws,
            &mut p,
            stats,
            lp_stats,
        )?;
    }
    Ok(IntervalAllocation::from_matrix(p))
}

#[allow(clippy::too_many_arguments)]
fn solve_subset_flow<C>(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    subset: &[MessageId],
    capacity: C,
    kernel: FlowKernel,
    ws: &mut FlowWorkspace,
    p: &mut [Vec<f64>],
    stats: &mut FlowAllocStats,
    lp_stats: &mut AllocationStats,
) -> Result<(), CompileError>
where
    C: Fn(LinkId, usize) -> f64,
{
    // A member without links cannot be expressed as a chain; related
    // subsets never contain one, but stay safe and defer to the LP.
    if subset.iter().any(|&m| assignment.links(m).is_empty()) {
        return solve_fallback(
            assignment, bounds, activity, subset, &capacity, p, stats, lp_stats,
        );
    }

    let actives: Vec<Vec<usize>> = subset
        .iter()
        .map(|&m| activity.active_intervals(m))
        .collect();
    let durations: Vec<f64> = subset
        .iter()
        .map(|&m| bounds.window(m).duration())
        .collect();
    let total: f64 = durations.iter().sum();

    let entry_arcs = ws.build(assignment, subset, &actives, &durations, &capacity);
    let FlowWorkspace { net, local } = ws;

    stats.solves += 1;
    stats.nodes += net.nodes as u64;
    stats.arcs += (net.arcs.len() / 2) as u64;
    let value = net.max_flow_min_cost(SOURCE, SINK, kernel, stats);
    if value < total - EPS {
        // Exact verdict: an LP-feasible split always induces a full flow.
        return Err(CompileError::AllocationInfeasible {
            subset: subset.to_vec(),
        });
    }

    // Extract the split from the entry arcs; conservation at the member
    // node makes each row sum to its duration (up to augmentation
    // rounding, absorbed into the largest entry).
    let mut x: Vec<Vec<f64>> = Vec::with_capacity(subset.len());
    for (mi, ks) in actives.iter().enumerate() {
        let mut row: Vec<f64> = ks
            .iter()
            .zip(&entry_arcs[mi])
            .map(|(_, &ai)| net.flow(ai))
            .collect();
        let shortfall = durations[mi] - row.iter().sum::<f64>();
        if shortfall.abs() > FLOW_EPS {
            if let Some(big) = (0..row.len()).max_by(|&a, &b| row[a].total_cmp(&row[b])) {
                row[big] += shortfall;
            }
        }
        x.push(row);
    }

    // Exact constraint-(4) re-check: chain jumping can undercharge a link.
    let exact = (0..local.len()).all(|li| {
        local.intervals(li).iter().all(|&k| {
            let used: f64 = local
                .members(li)
                .filter_map(|mi| {
                    actives[mi]
                        .iter()
                        .position(|&ak| ak == k)
                        .map(|pos| x[mi][pos])
                })
                .sum();
            used <= capacity(local.link(li), k) + EPS
        })
    });
    if !exact {
        return solve_fallback(
            assignment, bounds, activity, subset, &capacity, p, stats, lp_stats,
        );
    }

    for (mi, &m) in subset.iter().enumerate() {
        for (pos, &k) in actives[mi].iter().enumerate() {
            if x[mi][pos] > EPS {
                p[m.index()][k] = x[mi][pos];
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn solve_fallback<C>(
    assignment: &PathAssignment,
    bounds: &TimeBounds,
    activity: &ActivityMatrix,
    subset: &[MessageId],
    capacity: &C,
    p: &mut [Vec<f64>],
    stats: &mut FlowAllocStats,
    lp_stats: &mut AllocationStats,
) -> Result<(), CompileError>
where
    C: Fn(LinkId, usize) -> f64,
{
    stats.fallbacks += 1;
    solve_subset_capacities(
        assignment, bounds, activity, subset, capacity, p, None, lp_stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allocate_intervals, related_subsets};
    use sr_mapping::Allocation;
    use sr_tfg::{assign_time_bounds, TfgBuilder, Timing, WindowPolicy};
    use sr_topology::{GeneralizedHypercube, NodeId};

    struct Fixture {
        assignment: PathAssignment,
        bounds: TimeBounds,
        activity: ActivityMatrix,
        intervals: Intervals,
        subsets: Vec<Vec<MessageId>>,
    }

    fn shared_link(period: f64, bytes: u64) -> Fixture {
        let topo = GeneralizedHypercube::binary(1).unwrap();
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 500);
        let t1 = b.task("t1", 500);
        let t2 = b.task("t2", 500);
        b.message("m0", t0, t1, bytes).unwrap();
        b.message("m1", t1, t2, bytes).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(vec![NodeId(0), NodeId(1), NodeId(0)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let assignment = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let subsets = related_subsets(&assignment, &activity);
        Fixture {
            assignment,
            bounds,
            activity,
            intervals,
            subsets,
        }
    }

    fn flow_alloc(f: &Fixture, scale: f64) -> Result<IntervalAllocation, CompileError> {
        allocate_intervals_flow(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            scale,
            &mut FlowWorkspace::new(),
            &mut FlowAllocStats::default(),
            &mut AllocationStats::default(),
        )
    }

    fn kernel_alloc(
        f: &Fixture,
        scale: f64,
        kernel: FlowKernel,
        ws: &mut FlowWorkspace,
        stats: &mut FlowAllocStats,
    ) -> Result<IntervalAllocation, CompileError> {
        allocate_intervals_flow_with_kernel(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            scale,
            kernel,
            ws,
            stats,
            &mut AllocationStats::default(),
        )
    }

    fn check_constraints(f: &Fixture, alloc: &IntervalAllocation, scale: f64) {
        for m in 0..f.assignment.len() {
            let m = MessageId(m);
            if f.assignment.links(m).is_empty() {
                continue;
            }
            assert!(
                (alloc.total(m) - f.bounds.window(m).duration()).abs() < 1e-6,
                "(3) violated for {m}"
            );
            for k in 0..f.intervals.len() {
                if alloc.allocated(m, k) > EPS {
                    assert!(f.activity.is_active(m, k), "inactive allocation {m}@{k}");
                }
            }
        }
        for k in 0..f.intervals.len() {
            let sum: f64 = (0..f.assignment.len())
                .filter(|&i| !f.assignment.links(MessageId(i)).is_empty())
                .map(|i| alloc.allocated(MessageId(i), k))
                .sum();
            assert!(
                sum <= scale * f.intervals.length(k) + 1e-6,
                "(4) violated in interval {k}: {sum}"
            );
        }
    }

    #[test]
    fn flow_matches_simplex_verdict_feasible() {
        let f = shared_link(50.0, 640);
        let flow = flow_alloc(&f, 1.0).unwrap();
        check_constraints(&f, &flow, 1.0);
        // Simplex agrees on feasibility.
        assert!(allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0
        )
        .is_ok());
    }

    #[test]
    fn flow_matches_simplex_verdict_infeasible() {
        let f = shared_link(50.0, 1920); // 30+30 µs over a 50 µs frame
        let err = flow_alloc(&f, 1.0).unwrap_err();
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
        assert!(allocate_intervals(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0
        )
        .is_err());
    }

    #[test]
    fn flow_respects_capacity_scale() {
        let f = shared_link(50.0, 1280); // 20+20 µs: fits at 1.0, not at 0.5
        assert!(flow_alloc(&f, 1.0).is_ok());
        let err = flow_alloc(&f, 0.5).unwrap_err();
        assert!(matches!(err, CompileError::AllocationInfeasible { .. }));
    }

    #[test]
    fn multi_interval_split_is_valid() {
        let f = shared_link(120.0, 640);
        let alloc = flow_alloc(&f, 1.0).unwrap();
        check_constraints(&f, &alloc, 1.0);
    }

    #[test]
    fn stats_count_network_work() {
        let f = shared_link(50.0, 640);
        let mut stats = FlowAllocStats::default();
        allocate_intervals_flow(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            1.0,
            &mut FlowWorkspace::new(),
            &mut stats,
            &mut AllocationStats::default(),
        )
        .unwrap();
        assert!(stats.solves >= 1);
        assert!(stats.arcs > 0);
        assert!(stats.augmentations > 0);
        assert!(stats.dijkstra_pops > 0);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn dijkstra_matches_bellman_ford_oracle_bitwise() {
        for (period, bytes) in [(50.0, 640), (120.0, 640), (50.0, 1280), (90.0, 960)] {
            let f = shared_link(period, bytes);
            let mut dk = FlowAllocStats::default();
            let mut bf = FlowAllocStats::default();
            let a = kernel_alloc(
                &f,
                1.0,
                FlowKernel::SspDijkstra,
                &mut FlowWorkspace::new(),
                &mut dk,
            )
            .unwrap();
            let b = kernel_alloc(
                &f,
                1.0,
                FlowKernel::BellmanFordOracle,
                &mut FlowWorkspace::new(),
                &mut bf,
            )
            .unwrap();
            for m in 0..f.assignment.len() {
                for k in 0..f.intervals.len() {
                    let (x, y) = (a.allocated(MessageId(m), k), b.allocated(MessageId(m), k));
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "kernel divergence at ({m},{k}): {x} vs {y}"
                    );
                }
            }
            // Same augmentation sequence, but only Dijkstra pays the heap.
            assert_eq!(dk.augmentations, bf.augmentations);
            assert!(dk.dijkstra_pops > 0);
            assert_eq!(bf.dijkstra_pops, 0);
            assert_eq!(bf.potential_reuse_hits, 0);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_stable() {
        // Same workspace across repeated solves (the ladder pattern) must
        // give the same bits as a fresh workspace each time.
        let f = shared_link(120.0, 640);
        let mut shared = FlowWorkspace::new();
        let mut stats = FlowAllocStats::default();
        let fresh = kernel_alloc(
            &f,
            1.0,
            FlowKernel::SspDijkstra,
            &mut FlowWorkspace::new(),
            &mut FlowAllocStats::default(),
        )
        .unwrap();
        for _ in 0..3 {
            let again =
                kernel_alloc(&f, 1.0, FlowKernel::SspDijkstra, &mut shared, &mut stats).unwrap();
            for m in 0..f.assignment.len() {
                for k in 0..f.intervals.len() {
                    assert_eq!(
                        again.allocated(MessageId(m), k).to_bits(),
                        fresh.allocated(MessageId(m), k).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn pinned_reserved_flow_matches_simplex_pinned() {
        use crate::allocation_lp::allocate_intervals_pinned_reserved;
        let f = shared_link(120.0, 640);
        let full = flow_alloc(&f, 1.0).unwrap();
        // Re-derive only m1 with m0 pinned; both backends must agree the
        // residual problem is feasible and respect the pinned rows.
        let affected = vec![MessageId(1)];
        let reserved = std::collections::HashMap::new();
        let by_flow = allocate_intervals_pinned_reserved_flow(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            &affected,
            &full,
            &reserved,
            1.0,
            &mut FlowWorkspace::new(),
            &mut FlowAllocStats::default(),
            &mut AllocationStats::default(),
        )
        .unwrap();
        let by_lp = allocate_intervals_pinned_reserved(
            &f.assignment,
            &f.bounds,
            &f.activity,
            &f.intervals,
            &f.subsets,
            &affected,
            &full,
            &reserved,
            1.0,
            None,
            &mut AllocationStats::default(),
        )
        .unwrap();
        check_constraints(&f, &by_flow, 1.0);
        // Pinned rows survive bit-identically under both backends.
        for k in 0..f.intervals.len() {
            assert_eq!(
                by_flow.allocated(MessageId(0), k).to_bits(),
                full.allocated(MessageId(0), k).to_bits()
            );
            assert_eq!(
                by_lp.allocated(MessageId(0), k).to_bits(),
                full.allocated(MessageId(0), k).to_bits()
            );
        }
    }

    /// The network as the keyed containers built it — a `BTreeMap` of
    /// links, a hashed `(link, interval) → capacity arc` table and a hashed
    /// set of transfer arcs — as `(from, to, cap, cost)` per forward arc.
    fn keyed_build(
        assignment: &PathAssignment,
        subset: &[MessageId],
        actives: &[Vec<usize>],
        durations: &[f64],
        capacity: impl Fn(LinkId, usize) -> f64,
    ) -> (usize, Vec<(usize, usize, f64, f64)>) {
        use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
        let total: f64 = durations.iter().sum();
        let mut nodes = 2 + subset.len();
        let mut arcs = Vec::new();
        let mut on_link: BTreeMap<LinkId, Vec<usize>> = BTreeMap::new();
        for (mi, &m) in subset.iter().enumerate() {
            for &l in assignment.links(m) {
                on_link.entry(l).or_default().push(mi);
            }
        }
        let mut pair: HashMap<(LinkId, usize), (usize, usize)> = HashMap::new();
        for (&link, members) in &on_link {
            let ks: BTreeSet<usize> = members
                .iter()
                .flat_map(|&mi| &actives[mi])
                .copied()
                .collect();
            for k in ks {
                arcs.push((nodes, nodes + 1, capacity(link, k), 0.0));
                pair.insert((link, k), (nodes, nodes + 1));
                nodes += 2;
            }
        }
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for (mi, &m) in subset.iter().enumerate() {
            arcs.push((SOURCE, 2 + mi, durations[mi], 0.0));
            let links = assignment.links(m);
            for &k in &actives[mi] {
                arcs.push((2 + mi, pair[&(links[0], k)].0, durations[mi], k as f64));
                for w in links.windows(2) {
                    let hop = (pair[&(w[0], k)].1, pair[&(w[1], k)].0);
                    if seen.insert(hop) {
                        arcs.push((hop.0, hop.1, total, 0.0));
                    }
                }
                let exit = (pair[&(links[links.len() - 1], k)].1, SINK);
                if seen.insert(exit) {
                    arcs.push((exit.0, exit.1, total, 0.0));
                }
            }
        }
        (nodes, arcs)
    }

    /// The sorted link list creates every node and arc the keyed containers
    /// created, in their order — on multi-hop chains that share consecutive
    /// links, through one reused workspace.
    #[test]
    fn network_build_matches_the_keyed_containers_arc_for_arc() {
        let (topo, tfg, alloc, bounds) = crate::testkit::tiled_farm_16x16(7);
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let assignment = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let mut subsets = related_subsets(&assignment, &activity);
        // One network over every network-borne message too: long shared
        // chains, many links per member.
        let routed = |m: &MessageId| !assignment.links(*m).is_empty();
        subsets.push(
            (0..assignment.len())
                .map(MessageId)
                .filter(routed)
                .collect(),
        );
        let capacity = |link: LinkId, k: usize| intervals.length(k) + link.index() as f64;
        let mut ws = FlowWorkspace::new();
        let (mut multi_hop, mut shared_hops) = (0, 0);
        for subset in &subsets {
            let actives: Vec<Vec<usize>> = subset
                .iter()
                .map(|&m| activity.active_intervals(m))
                .collect();
            let durations: Vec<f64> = subset
                .iter()
                .map(|&m| bounds.window(m).duration())
                .collect();
            let (nodes, arcs) = keyed_build(&assignment, subset, &actives, &durations, capacity);
            let entry_arcs = ws.build(&assignment, subset, &actives, &durations, &capacity);
            assert_eq!(ws.net.nodes, nodes);
            let built: Vec<(usize, usize, f64, f64)> = ws
                .net
                .arcs
                .chunks_exact(2)
                .map(|pair| (pair[1].to, pair[0].to, pair[0].cap, pair[0].cost))
                .collect();
            assert_eq!(built, arcs);
            for (mi, entries) in entry_arcs.iter().enumerate() {
                assert_eq!(entries.len(), actives[mi].len());
                for (&ai, &k) in entries.iter().zip(&actives[mi]) {
                    assert_eq!((ai % 2, ws.net.arcs[ai].cost), (0, k as f64));
                    assert_eq!(ws.net.arcs[ai ^ 1].to, 2 + mi);
                }
            }
            // One arc per capacity pair and member, and per member and
            // interval an entry, a transfer per further hop and an exit —
            // fewer when chains shared a transfer or an exit.
            let chains = actives.iter().zip(subset);
            let chain_arcs = chains.map(|(ks, &m)| ks.len() * (assignment.links(m).len() + 1));
            let undeduplicated = ws.local.ks.len() + subset.len() + chain_arcs.sum::<usize>();
            shared_hops += usize::from(arcs.len() < undeduplicated);
            multi_hop += usize::from(subset.iter().any(|&m| assignment.links(m).len() > 1));
        }
        assert!(
            multi_hop > 0 && shared_hops > 0,
            "{multi_hop} {shared_hops}"
        );
    }
}
