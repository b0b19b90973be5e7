use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sr_mapping::Allocation;
use sr_tfg::{MessageId, TaskFlowGraph, TimeBounds};
use sr_topology::{NodeId, Path, Topology};

use crate::assignment::{compact_link, Route};
use crate::peak_bound::{certificate, lower_bound, PeakBound, PeakCertificate};
use crate::utilization::{LinkDetail, MsgInputs, UtilEval};
use crate::{ActivityMatrix, Hotspot, Intervals, PathAssignment, UtilizationMap, EPS};

/// The shortest paths of one `(source, destination)` pair together with
/// their link rows, derived once: row `j` is `paths[j].links(topo)` as `u32`
/// ids. All shortest paths of a pair have the same hop count, so the rows
/// sit back to back in one arena, followed — for a pair with several
/// routes — by the links every one of them crosses, which a climb's lower
/// bound asks for once per message.
pub(crate) struct Routes {
    paths: Vec<Path>,
    rows: Vec<u32>,
    hops: usize,
}

impl Routes {
    pub(crate) fn derive(paths: Vec<Path>, topo: &dyn Topology) -> Self {
        let hops = paths.first().map_or(0, Path::hops);
        let mut rows = Vec::with_capacity(paths.len() * hops);
        let mut previous: &[NodeId] = &[];
        for path in &paths {
            assert_eq!(path.hops(), hops, "shortest paths differ in length");
            // A hop's link depends on its two nodes alone, so the hops this
            // path shares with the one before it — enumeration is depth
            // first, so usually most of them — are copied from that row.
            let nodes = path.nodes();
            let same = nodes.iter().zip(previous).take_while(|(a, b)| a == b);
            let shared = same.count().saturating_sub(1);
            let above = rows.len().saturating_sub(hops);
            rows.extend_from_within(above..above + shared);
            rows.extend(path.links_from(shared, topo).map(compact_link));
            previous = nodes;
        }
        if paths.len() > 1 {
            // Most pairs with a choice of routes share no link at all, and
            // the second row usually says so.
            let all_rows = rows.len();
            for i in 0..hops {
                let l = rows[i];
                let mut others = rows[hops..all_rows].chunks_exact(hops);
                if others.all(|row| row.contains(&l)) {
                    rows.push(l);
                }
            }
        }
        Routes { paths, rows, hops }
    }

    pub(crate) fn len(&self) -> usize {
        self.paths.len()
    }

    pub(crate) fn get(&self, j: usize) -> Route<'_> {
        Route {
            path: &self.paths[j],
            links: &self.rows[j * self.hops..(j + 1) * self.hops],
        }
    }

    /// Every route's links, row after row.
    fn all_links(&self) -> &[u32] {
        &self.rows[..self.paths.len() * self.hops]
    }

    /// The links on every route (for a single route, its row).
    fn shared(&self) -> &[u32] {
        match self.paths.len() {
            0 | 1 => &self.rows,
            n => &self.rows[n * self.hops..],
        }
    }
}

/// The routes one message may move between during a climb: a pair's
/// [`Routes`], or the subset of them an index list picks.
#[derive(Clone, Copy)]
pub(crate) struct Alternatives<'a> {
    routes: &'a Routes,
    only: Option<&'a [u32]>,
}

impl<'a> Alternatives<'a> {
    pub(crate) fn len(&self) -> usize {
        self.only.map_or(self.routes.len(), <[u32]>::len)
    }

    /// Hop count of every route.
    pub(crate) fn hops(&self) -> usize {
        self.routes.hops
    }

    fn get(&self, j: usize) -> Route<'a> {
        self.routes
            .get(self.only.map_or(j, |only| only[j] as usize))
    }

    fn iter(self) -> impl Iterator<Item = Route<'a>> {
        (0..self.len()).map(move |j| self.get(j))
    }

    /// Calls `f` with every link on at least one of these routes (a link
    /// may come up more than once). Routes an index list leaves out do not
    /// count: the message cannot take them.
    pub(crate) fn each_link(&self, mut f: impl FnMut(u32)) {
        match self.only {
            None => self.routes.all_links().iter().for_each(|&l| f(l)),
            Some(_) => self.iter().for_each(|r| r.links.iter().for_each(|&l| f(l))),
        }
    }

    /// Replaces `out` with the links every one of these routes crosses.
    pub(crate) fn shared_links(&self, out: &mut Vec<u32>) {
        out.clear();
        match self.only {
            None => out.extend_from_slice(self.routes.shared()),
            Some(_) => {
                let mut rows = self.iter().map(|r| r.links);
                out.extend_from_slice(rows.next().unwrap_or(&[]));
                rows.for_each(|row| out.retain(|l| row.contains(l)));
            }
        }
    }
}

/// A message a climb may move, with the routes it may move among.
pub(crate) type Movable<'a> = (MessageId, Alternatives<'a>);

/// Memoized shortest-path enumeration, keyed by `(source, destination)`.
///
/// The alternative paths of a message depend only on its endpoint nodes
/// and the enumeration cap — not on the heuristic seed — so the compile
/// feedback search shares one pool across all its `AssignPaths` retries
/// (and across worker threads: cells are [`OnceLock`]s, so each pair is
/// enumerated exactly once no matter how many threads ask). Each pair's
/// link rows are derived at the same moment and cached next to its paths,
/// which is what lets a reroute trial run without touching the topology.
pub struct PathPool<'a> {
    topo: &'a dyn Topology,
    cap: usize,
    cells: PoolCells,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cell storage for [`PathPool`]: dense `n × n` for small fabrics, or a
/// map seeded with exactly the pairs that will be asked for. Both are
/// structurally frozen after construction — only the [`OnceLock`] payloads
/// are ever written — so shared `&self` lookups stay safe.
enum PoolCells {
    Dense(Vec<OnceLock<Routes>>),
    Seeded(std::collections::HashMap<(usize, usize), OnceLock<Routes>>),
}

impl<'a> PathPool<'a> {
    /// An empty pool enumerating up to `cap` shortest paths per pair, with
    /// a dense cell per node pair. Memory is `O(num_nodes²)` — use
    /// [`PathPool::seeded`] for large fabrics where the set of endpoint
    /// pairs is known up front.
    pub fn new(topo: &'a dyn Topology, cap: usize) -> Self {
        let n = topo.num_nodes();
        PathPool {
            topo,
            cap: cap.max(1),
            cells: PoolCells::Dense((0..n * n).map(|_| OnceLock::new()).collect()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A pool holding one cell per *seeded* `(src, dst)` pair instead of a
    /// dense `n × n` array: memory is proportional to the number of
    /// distinct pairs, which is what lets a 16,384-node fabric share one
    /// pool (dense cells there would cost gigabytes before the first
    /// enumeration). Lookup behavior — including the hit/miss counters —
    /// is identical to a dense pool for seeded pairs; asking for an
    /// unseeded pair panics.
    pub fn seeded<I>(topo: &'a dyn Topology, cap: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let cells = pairs
            .into_iter()
            .map(|(s, d)| ((s.index(), d.index()), OnceLock::new()))
            .collect();
        PathPool {
            topo,
            cap: cap.max(1),
            cells: PoolCells::Seeded(cells),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The per-pair enumeration cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The shortest paths `src → dst` (index 0 = dimension order),
    /// enumerating and caching them on first request.
    ///
    /// # Panics
    ///
    /// Panics if the pool was built with [`PathPool::seeded`] and this
    /// pair was not seeded.
    pub fn paths(&self, src: NodeId, dst: NodeId) -> &[Path] {
        &self.routes(src, dst).paths
    }

    /// [`PathPool::paths`] with the link row of each path — one counted
    /// lookup, like `paths`.
    fn routes(&self, src: NodeId, dst: NodeId) -> &Routes {
        let cell = match &self.cells {
            PoolCells::Dense(cells) => &cells[src.index() * self.topo.num_nodes() + dst.index()],
            PoolCells::Seeded(map) => map
                .get(&(src.index(), dst.index()))
                .unwrap_or_else(|| panic!("path pool was not seeded with pair {src}→{dst}")),
        };
        if let Some(cached) = cell.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        cell.get_or_init(|| Routes::derive(self.topo.shortest_paths(src, dst, self.cap), self.topo))
    }

    /// One lookup per message of `tfg`, in message order: each message
    /// with its alternative routes between its allocated endpoints.
    fn alternatives(&self, tfg: &TaskFlowGraph, alloc: &Allocation) -> Vec<Movable<'_>> {
        let alts = tfg.messages().iter().map(|m| Alternatives {
            routes: self.routes(alloc.node_of(m.src()), alloc.node_of(m.dst())),
            only: None,
        });
        alts.enumerate().map(|(i, a)| (MessageId(i), a)).collect()
    }

    /// Lookup counters `(hits, misses)` since construction. A "miss" is a
    /// lookup that found its cell empty — under concurrent first lookups of
    /// the same pair several threads can each count a miss even though the
    /// enumeration runs once, so hit/miss totals depend on thread timing
    /// (report them as parallelism-dependent metrics only).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Tuning knobs for the [`assign_paths`] heuristic (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignPathsConfig {
    /// Maximum alternative shortest paths enumerated per message.
    pub path_cap: usize,
    /// Random restarts after the iterative improvement converges
    /// ("helps the algorithm slide out of any local minima").
    pub max_restarts: usize,
    /// Safety cap on improvement/reposition steps per restart.
    pub max_inner: usize,
    /// RNG seed (the heuristic is deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for AssignPathsConfig {
    fn default() -> Self {
        AssignPathsConfig {
            path_cap: 64,
            max_restarts: 6,
            max_inner: 200,
            seed: 0x5eed,
        }
    }
}

/// The result of running [`assign_paths`].
#[derive(Debug, Clone)]
pub struct AssignPathsOutcome {
    /// The best path assignment found.
    pub assignment: PathAssignment,
    /// Utilizations of that assignment.
    pub utilization: UtilizationMap,
    /// Effective peak utilization (Def. 5.1/5.2 sharpened with the Hall
    /// group bound) of the LSD-to-MSD baseline, for comparison — the
    /// quantity Figs. 5–6 plot against the final value.
    pub baseline_peak: f64,
    /// A lower bound on the effective peak of **every** assignment over the
    /// call's alternatives — each message on any of its candidate routes,
    /// the messages without candidates on the routes they have. For
    /// [`assign_paths_partitioned`] this is the bound of the flat problem,
    /// not of a part. `utilization.effective_peak() / lower_bound − 1` is
    /// the most the heuristic can have left on the table.
    pub lower_bound: f64,
    /// Set when `lower_bound` exceeds 1: the link and the messages proving
    /// that no path assignment over these alternatives fits.
    pub overload: Option<PeakCertificate>,
    /// Restarts actually performed, summed over the call's climbs. May be
    /// 0: the start was certified optimal.
    pub restarts: usize,
    /// Reroute trials evaluated (one per alternative path tried on a
    /// message crossing the peak) — with `link_recomputes`, the
    /// heuristic's deterministic work counters.
    pub trials: u64,
    /// Per-link utilization recomputations performed by the climbs'
    /// incremental evaluators, their initial builds included.
    pub link_recomputes: u64,
    /// Hill climbs the call ran: one, or one per part plus the stitch.
    pub climbs: usize,
    /// Climbs that ended because their best peak met their lower bound —
    /// nothing they could still reach was better.
    pub certified_climbs: usize,
    /// Restarts those climbs had left in their budget.
    pub skipped_restarts: usize,
}

/// The `AssignPaths` heuristic (paper Fig. 4): minimize the peak link/spot
/// utilization `U` by iteratively rerouting messages over alternative
/// shortest paths.
///
/// Each round finds the peak's location, tries every alternative path of
/// every message crossing it, applies the reroute with the largest peak
/// *reduction* (or, failing that, one that *repositions* the same peak so a
/// later reroute can attack it), and — once stuck — restarts from a fresh
/// random assignment, keeping the best result seen.
///
/// The output's peak utilization is never worse than the LSD-to-MSD
/// baseline's.
pub fn assign_paths(
    tfg: &TaskFlowGraph,
    topo: &dyn Topology,
    alloc: &Allocation,
    bounds: &TimeBounds,
    intervals: &Intervals,
    activity: &ActivityMatrix,
    config: &AssignPathsConfig,
) -> AssignPathsOutcome {
    let pool = PathPool::new(topo, config.path_cap);
    assign_paths_pooled(tfg, topo, alloc, bounds, intervals, activity, config, &pool)
}

/// [`assign_paths`] drawing its candidate paths from a shared [`PathPool`]
/// instead of enumerating per call. The pool's cap takes the place of
/// [`AssignPathsConfig::path_cap`]; results are identical to
/// [`assign_paths`] when the caps agree.
#[allow(clippy::too_many_arguments)]
pub fn assign_paths_pooled(
    tfg: &TaskFlowGraph,
    topo: &dyn Topology,
    alloc: &Allocation,
    bounds: &TimeBounds,
    intervals: &Intervals,
    activity: &ActivityMatrix,
    config: &AssignPathsConfig,
    pool: &PathPool<'_>,
) -> AssignPathsOutcome {
    let inputs = MsgInputs::new(tfg.num_messages(), bounds, activity, intervals);
    let ctx = ClimbCtx::new(&inputs, intervals, topo, config);

    // Alternative shortest paths per message (index 0 = dimension order).
    let movable = pool.alternatives(tfg, alloc);
    let baseline = PathAssignment::lsd_to_msd(tfg, topo, alloc);
    single_climb(baseline, &movable, &ctx)
}

/// Re-runs the Fig. 4 heuristic for `affected` messages only, holding every
/// other message to its path in `base` — the path-assignment stage of
/// incremental repair.
///
/// Frozen messages have no alternatives, so the improvement loop and random
/// restarts leave them untouched by construction; each affected message's
/// candidates are the masked topology's surviving shortest paths between
/// its original endpoints (at least one is enumerated, whatever
/// `config.path_cap` says — the clamp [`PathPool`] applies). The
/// returned outcome's `baseline_peak` is the peak of the starting
/// assignment (frozen paths + first candidate for each affected message).
///
/// `topo` should be the masked topology so candidate enumeration sees only
/// surviving edges; every frozen path must itself survive (guaranteed when
/// `affected` is taken from [`crate::analyze_damage`] and dead messages
/// were reset to trivial paths first).
///
/// # Panics
///
/// Panics if an affected message has no surviving route — check
/// reachability (e.g. `MaskedTopology::connects`) before calling.
pub fn assign_paths_partial(
    topo: &dyn Topology,
    bounds: &TimeBounds,
    intervals: &Intervals,
    activity: &ActivityMatrix,
    base: &PathAssignment,
    affected: &[MessageId],
    config: &AssignPathsConfig,
) -> AssignPathsOutcome {
    let inputs = MsgInputs::new(base.len(), bounds, activity, intervals);
    let ctx = ClimbCtx::new(&inputs, intervals, topo, config);

    let path_cap = config.path_cap.max(1);
    let rerouted: Vec<Routes> = affected
        .iter()
        .map(|&m| {
            let p = base.path(m);
            let alts = topo.shortest_paths(p.source(), p.destination(), path_cap);
            assert!(
                !alts.is_empty(),
                "affected message {m} has no surviving route {} -> {}",
                p.source(),
                p.destination()
            );
            Routes::derive(alts, topo)
        })
        .collect();
    let mut start = base.clone();
    let mut movable: Vec<Movable<'_>> = Vec::with_capacity(affected.len());
    for (&m, routes) in affected.iter().zip(&rerouted) {
        movable.push((m, Alternatives { routes, only: None }));
        start.set_path(m, routes.paths[0].clone(), topo);
    }
    single_climb(start, &movable, &ctx)
}

/// The whole of a flat or a partial call: one climb from `start`, seeded
/// with the call's seed, and its outcome.
fn single_climb(
    start: PathAssignment,
    movable: &[Movable<'_>],
    ctx: &ClimbCtx<'_>,
) -> AssignPathsOutcome {
    let start = ctx.start(start);
    let start_peak = start.util.effective_peak();
    let climb = hill_climb(&start, movable, ctx, ctx.config.seed);
    let bound = climb.bound;
    let overload = overload(&bound, &start, movable);
    let mut tally = Tally::default();
    let best = tally.absorb(climb, ctx);
    tally.outcome(best, start, start_peak, bound.value, overload, ctx)
}

/// Maps each node to one of `parts` contiguous index bands, as equal in
/// size as possible. On a row-major torus or mesh a band is a sub-grid of
/// whole rows (a sub-torus), which is the tiling
/// [`assign_paths_partitioned`] expects: nodes of one band are adjacent
/// only to their own band and its index neighbors.
///
/// `parts` is clamped to `[1, num_nodes]`.
pub fn band_partition(num_nodes: usize, parts: usize) -> Vec<usize> {
    let parts = parts.clamp(1, num_nodes.max(1));
    (0..num_nodes)
        .map(|n| (n * parts / num_nodes.max(1)).min(parts - 1))
        .collect()
}

/// Topology-generic band partitioner: maps each node to one of `parts`
/// bands that are contiguous *in the fabric*, not merely in index space.
///
/// For topologies with a mixed-radix coordinate system
/// ([`Topology::mixed_radix_hint`] — tori, meshes, generalized
/// hypercubes), the fabric is cut along the most significant dimension
/// that still yields at least `parts` hyperplane slabs, and bands are
/// unions of whole consecutive slabs: on a `N×N` torus a band is a block
/// of whole rows (identical to [`band_partition`] whenever `parts`
/// divides `N`, so existing partitioned workloads keep their exact
/// counters), and on `GHC(16,16,16)` with `parts = 16` each band is one
/// complete `GHC(16,16)` sub-cube.
///
/// Topologies without a coordinate hint fall back to a BFS-layer
/// decomposition from node 0: nodes are ordered by (hop depth, id) and
/// split into `parts` equal contiguous runs, which keeps each band
/// connected-ish on arbitrary fabrics.
///
/// `parts` is clamped to `[1, num_nodes]`.
pub fn band_partition_topo(topo: &dyn Topology, parts: usize) -> Vec<usize> {
    let n = topo.num_nodes();
    let parts = parts.clamp(1, n.max(1));
    if parts == 1 || n == 0 {
        return vec![0; n];
    }

    if let Some(radix) = topo.mixed_radix_hint() {
        // The slab at cut-weight `w` is `node / w` (the node's digits at
        // and above the cut dimension); equal slabs are contiguous index
        // ranges of size `w`. Pick the coarsest cut that still covers
        // `parts` slabs so bands keep whole hyperplanes together.
        let mut best: Option<(usize, usize)> = None;
        let mut weight = 1usize;
        for &r in radix.radices() {
            let slices = n / weight;
            if slices >= parts {
                best = Some((weight, slices));
            }
            weight *= r;
        }
        if let Some((w, slices)) = best {
            return (0..n)
                .map(|node| ((node / w) * parts / slices).min(parts - 1))
                .collect();
        }
    }

    // BFS layering from node 0 (unreachable nodes sort last), then equal
    // contiguous runs over the (depth, id) order.
    let mut depth = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    depth[0] = 0;
    queue.push_back(NodeId(0));
    while let Some(u) = queue.pop_front() {
        for &v in topo.neighbors(u) {
            if depth[v.index()] == usize::MAX {
                depth[v.index()] = depth[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (depth[v], v));
    let mut part_of = vec![0usize; n];
    for (rank, &v) in order.iter().enumerate() {
        part_of[v] = (rank * parts / n).min(parts - 1);
    }
    part_of
}

/// Hierarchical `AssignPaths` for large fabrics: partition the nodes
/// (`part_of[node] = part id`), hill-climb each part's **interior**
/// messages independently — in parallel via [`sr_par::par_map`] — with
/// candidates restricted to paths that stay inside the part, then stitch
/// the **boundary** traffic (messages crossing parts, plus interiors with
/// no in-part route) with a final serial climb over the merged assignment.
///
/// Because each part only moves its own interior messages and only onto
/// its own links, merging the parts' reroutes cannot raise any link above
/// the load the owning part already accepted, so the merged peak — and the
/// final outcome — is never worse than the LSD-to-MSD baseline (the same
/// guarantee [`assign_paths`] gives). The result is deterministic for a
/// fixed `(config.seed, part_of)` and independent of `threads`.
///
/// This trades assignment quality for wall-clock scaling: each part's
/// climb only attacks the global peak where its own messages can move, so
/// tightly coupled workloads may end with a higher peak than a flat
/// [`assign_paths`] run. Use flat assignment when it is affordable.
///
/// # Panics
///
/// Panics if `part_of.len() != topo.num_nodes()`.
#[allow(clippy::too_many_arguments)]
pub fn assign_paths_partitioned(
    tfg: &TaskFlowGraph,
    topo: &dyn Topology,
    alloc: &Allocation,
    bounds: &TimeBounds,
    intervals: &Intervals,
    activity: &ActivityMatrix,
    config: &AssignPathsConfig,
    pool: &PathPool<'_>,
    part_of: &[usize],
    threads: usize,
) -> AssignPathsOutcome {
    assert_eq!(
        part_of.len(),
        topo.num_nodes(),
        "partition does not cover the topology"
    );
    let inputs = MsgInputs::new(tfg.num_messages(), bounds, activity, intervals);
    let ctx = ClimbCtx::new(&inputs, intervals, topo, config);

    let candidates = pool.alternatives(tfg, alloc);
    let baseline = ctx.start(PathAssignment::lsd_to_msd(tfg, topo, alloc));
    let baseline_peak = baseline.util.effective_peak();
    // The reported bound is the flat problem's: every message on any of
    // its pooled routes, wherever the parts confine it.
    let flat_bound = lower_bound(&baseline, &candidates, &inputs, intervals);
    let overload = overload(&flat_bound, &baseline, &candidates);

    // A message is interior to part `p` when both endpoints live in `p`
    // AND it has at least two candidate paths confined to `p` (otherwise
    // there is nothing the part-local climb could do with it, and the
    // stitch pass handles it with the full candidate set instead). Its
    // part-local candidates are kept as indices into the pool's list.
    let in_part = |path: &Path, p: usize| path.nodes().iter().all(|n| part_of[n.index()] == p);
    let mut home: Vec<Option<usize>> = vec![None; candidates.len()];
    let mut confined: Vec<Vec<u32>> = vec![Vec::new(); candidates.len()];
    for (i, m) in tfg.messages().iter().enumerate() {
        let s = part_of[alloc.node_of(m.src()).index()];
        let d = part_of[alloc.node_of(m.dst()).index()];
        if s != d {
            continue;
        }
        let inside = candidates[i].1.routes.paths.iter().enumerate();
        let inside: Vec<u32> = inside
            .filter(|(_, path)| in_part(path, s))
            .map(|(j, _)| j as u32)
            .collect();
        if inside.len() > 1 {
            home[i] = Some(s);
            confined[i] = inside;
        }
    }

    // Part-local problems: a part's interior messages keep their in-part
    // candidates, everything else is frozen at baseline (the frozen load is
    // exactly what the other parts see too). The stitch moves the rest.
    let num_parts = part_of.iter().copied().max().map_or(1, |m| m + 1);
    let mut interiors: Vec<Vec<Movable<'_>>> = vec![Vec::new(); num_parts];
    let mut boundary: Vec<Movable<'_>> = Vec::new();
    for (&(m, alts), h) in candidates.iter().zip(&home) {
        match *h {
            Some(p) => interiors[p].push((
                m,
                Alternatives {
                    routes: alts.routes,
                    only: Some(&confined[m.index()]),
                },
            )),
            None => boundary.push((m, alts)),
        }
    }
    let part_ids: Vec<usize> = (0..num_parts)
        .filter(|&p| !interiors[p].is_empty())
        .collect();
    let optimized = sr_par::par_map(&part_ids, threads, |&pid| {
        let seed = config
            .seed
            .wrapping_add((pid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        hill_climb(&baseline, &interiors[pid], &ctx, seed)
    });

    // Merge: each part contributes the paths of its own interior messages
    // (a part that found nothing better than the baseline contributes
    // none). Parts only reroute onto links they own, so no link ends up
    // above the load its owning part accepted.
    let mut tally = Tally::default();
    let mut merged: Option<PathAssignment> = None;
    for (&pid, part) in part_ids.iter().zip(optimized) {
        let Some(part_best) = tally.absorb(part, &ctx) else {
            continue;
        };
        let merged = merged.get_or_insert_with(|| baseline.assignment.clone());
        for &(m, _) in &interiors[pid] {
            merged.set_path(m, part_best.path(m).clone(), topo);
        }
    }
    // Defensive: the merge argument above holds exactly; guard against EPS
    // pathologies so the baseline guarantee is unconditional. When no part
    // moved anything the merge *is* the baseline, figures included.
    let stitch_start = merged
        .map(|merged| ctx.start(merged))
        .filter(|merged| merged.util.effective_peak() <= baseline_peak + EPS)
        .unwrap_or(baseline);

    // Boundary stitch: only messages without a home part may move, now
    // with their full candidate sets; every interior message is frozen at
    // its merged path.
    let stitch = hill_climb(&stitch_start, &boundary, &ctx, config.seed);
    let best = tally.absorb(stitch, &ctx);
    tally.outcome(
        best,
        stitch_start,
        baseline_peak,
        flat_bound.value,
        overload,
        &ctx,
    )
}

/// A climb's starting point with the figures computed for it.
pub(crate) struct Start {
    pub(crate) assignment: PathAssignment,
    pub(crate) util: UtilizationMap,
    /// What only the lower bound reads; not part of any outcome.
    pub(crate) links: LinkDetail,
}

/// What every climb of one `assign_paths_*` call shares.
struct ClimbCtx<'a> {
    /// Gathered once per call: every climb's evaluator, lower bound and
    /// full recomputation reads the same arrays.
    inputs: &'a MsgInputs,
    intervals: &'a Intervals,
    num_links: usize,
    config: &'a AssignPathsConfig,
}

impl<'a> ClimbCtx<'a> {
    fn new(
        inputs: &'a MsgInputs,
        intervals: &'a Intervals,
        topo: &dyn Topology,
        config: &'a AssignPathsConfig,
    ) -> Self {
        ClimbCtx {
            inputs,
            intervals,
            num_links: topo.num_links(),
            config,
        }
    }

    fn compute(&self, assignment: &PathAssignment) -> (UtilizationMap, LinkDetail) {
        UtilizationMap::compute_with(assignment, self.inputs, self.intervals, self.num_links)
    }

    fn start(&self, assignment: PathAssignment) -> Start {
        let (util, links) = self.compute(&assignment);
        Start {
            assignment,
            util,
            links,
        }
    }

    fn restart_budget(&self) -> usize {
        self.config.max_restarts.max(1)
    }
}

/// What one [`hill_climb`] found and what it cost.
struct Climb {
    /// The best assignment seen, or `None` when nothing beat the start.
    best: Option<PathAssignment>,
    restarts: usize,
    trials: u64,
    link_recomputes: u64,
    /// The climb's lower bound on everything it could reach.
    bound: PeakBound,
    /// The climb ended because its best peak met `bound`.
    certified: bool,
}

/// The work of a call's climbs, summed.
#[derive(Default)]
struct Tally {
    restarts: usize,
    trials: u64,
    link_recomputes: u64,
    climbs: usize,
    certified_climbs: usize,
    skipped_restarts: usize,
}

impl Tally {
    /// Counts one climb in; hands back what it found.
    fn absorb(&mut self, climb: Climb, ctx: &ClimbCtx<'_>) -> Option<PathAssignment> {
        self.restarts += climb.restarts;
        self.trials += climb.trials;
        self.link_recomputes += climb.link_recomputes;
        self.climbs += 1;
        if climb.certified {
            self.certified_climbs += 1;
            self.skipped_restarts += ctx.restart_budget() - climb.restarts;
        }
        climb.best
    }

    /// The call's outcome: `best` with freshly computed figures, or — when
    /// the last climb found nothing — `start` with the figures it already
    /// has.
    fn outcome(
        self,
        best: Option<PathAssignment>,
        start: Start,
        baseline_peak: f64,
        lower_bound: f64,
        overload: Option<PeakCertificate>,
        ctx: &ClimbCtx<'_>,
    ) -> AssignPathsOutcome {
        let (assignment, utilization) = match best {
            Some(best) => {
                let utilization = ctx.compute(&best).0;
                (best, utilization)
            }
            None => (start.assignment, start.util),
        };
        AssignPathsOutcome {
            assignment,
            utilization,
            baseline_peak,
            lower_bound,
            overload,
            restarts: self.restarts,
            trials: self.trials,
            link_recomputes: self.link_recomputes,
            climbs: self.climbs,
            certified_climbs: self.certified_climbs,
            skipped_restarts: self.skipped_restarts,
        }
    }
}

/// The witness of a bound above capacity, spelled out; `None` below it.
fn overload(bound: &PeakBound, start: &Start, movable: &[Movable<'_>]) -> Option<PeakCertificate> {
    (bound.value > 1.0 + EPS)
        .then(|| certificate(bound, start, movable))
        .flatten()
}

#[cfg(test)]
thread_local! {
    /// Test oracle: climbs on this thread run with no lower bound at all,
    /// so every one polishes its start and spends its whole restart budget.
    static UNCERTIFIED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The restart loop shared by [`assign_paths_pooled`],
/// [`assign_paths_partial`] and [`assign_paths_partitioned`]: polish `start`
/// with [`improve`], then explore random restarts, keeping the best peak
/// seen. `movable` lists the messages that may
/// move and their routes; every other message is frozen at its `start`
/// path.
///
/// The climb minimises the effective peak, and `best` only moves on a
/// strict improvement (`peak < best_peak − EPS`). So once the best peak is
/// within `EPS` of a [`lower_bound`] on everything reachable, nothing the
/// climb could still do changes what it returns, and it stops — before the
/// first `improve` if the start already is that good, in which case it
/// builds no evaluator, derives no link rows and draws nothing.
///
/// Otherwise one [`UtilEval`] serves the whole climb and is its working
/// assignment: `improve` runs its trials against it, the converged peak is
/// read from it, a restart moves it to the freshly drawn assignment (a draw
/// equal to the route a message already has changes nothing), and an owned
/// [`PathAssignment`] is built from it only when the climb records a new
/// best.
fn hill_climb(start: &Start, movable: &[Movable<'_>], ctx: &ClimbCtx<'_>, seed: u64) -> Climb {
    let bound = lower_bound(start, movable, ctx.inputs, ctx.intervals);
    let floor = bound.value;
    #[cfg(test)]
    let floor = if UNCERTIFIED.get() {
        f64::NEG_INFINITY
    } else {
        floor
    };

    // Start from the deterministic start point (so we can never end up
    // worse), then explore random restarts.
    let mut climb = Climb {
        best: None,
        restarts: 0,
        trials: 0,
        link_recomputes: 0,
        bound,
        certified: true,
    };
    let mut best_peak = start.util.effective_peak();
    if best_peak <= floor + EPS {
        return climb;
    }

    let start = &start.assignment;
    let mut candidates = vec![None; start.len()];
    for &(m, alts) in movable {
        candidates[m.index()] = Some(alts);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let start_rows = start.link_rows();
    let mut eval = UtilEval::new(
        start.routes(&start_rows),
        ctx.inputs,
        ctx.intervals,
        ctx.num_links,
    );
    loop {
        climb.trials += improve(&mut eval, &candidates, ctx.config.max_inner);
        let peak = eval.effective_peak();
        debug_assert_eq!(
            peak.to_bits(),
            ctx.compute(&eval.assignment()).0.effective_peak().to_bits(),
            "incremental evaluator drifted from a full recomputation"
        );
        debug_assert!(
            bound.value <= peak + EPS,
            "lower bound {} above a reachable peak {peak}",
            bound.value
        );
        if peak < best_peak - EPS {
            climb.best = Some(eval.assignment());
            best_peak = peak;
        }
        climb.restarts += 1;
        climb.certified = best_peak <= floor + EPS;
        if climb.restarts >= ctx.restart_budget() || climb.certified {
            break;
        }
        // One draw per message, in message order, whether or not it can
        // move — the RNG stream is part of the heuristic's identity.
        eval.set_paths(candidates.iter().enumerate().filter_map(|(i, alts)| {
            let Some(alts) = alts else {
                rng.gen_range(0..1);
                return None;
            };
            Some((MessageId(i), alts.get(rng.gen_range(0..alts.len()))))
        }));
    }
    climb.link_recomputes = eval.link_recomputes();
    climb
}

/// The inner do-while of Fig. 4: repeatedly attack the peak with the best
/// reducing reroute, falling back to peak-repositioning reroutes, until no
/// reroute changes anything (or the step cap is hit). Returns the number of
/// reroute trials evaluated.
///
/// Trials run against the climb's incrementally maintained [`UtilEval`] —
/// apply the candidate route, read the peak, apply the original route back —
/// instead of cloning the assignment and recomputing every link per trial;
/// a route is a pair of references into the pool, so a trial copies no path
/// and allocates nothing. The evaluator's figures are bitwise identical to a
/// full [`UtilizationMap::compute`], so every accept/reposition decision
/// (and hence the heuristic's output) is unchanged.
fn improve<'a>(
    eval: &mut UtilEval<'a>,
    candidates: &[Option<Alternatives<'a>>],
    max_inner: usize,
) -> u64 {
    let mut trials = 0;
    let mut seen_positions: Vec<(u64, Option<Hotspot>)> = Vec::new();
    let mut reroutable: Vec<(MessageId, Alternatives<'a>)> = Vec::new();
    for _ in 0..max_inner {
        let peak = eval.effective_peak();
        if peak <= EPS {
            break; // nothing on the network
        }
        let Some(location) = eval.effective_location() else {
            break;
        };
        // Cycle guard for reposition-only progress.
        let key = (peak.to_bits(), Some(location));
        if seen_positions.contains(&key) {
            break;
        }
        seen_positions.push(key);

        // Messages crossing the peak link (restricted to the hot interval
        // for a spot peak).
        let (Hotspot::Link(l) | Hotspot::Spot(l, _) | Hotspot::Group(l)) = location;
        reroutable.clear();
        reroutable.extend(eval.messages_on(l).iter().filter_map(|&i| {
            let alts = candidates[i].filter(|alts| alts.len() > 1)?;
            Some((MessageId(i), alts))
        }));

        let mut best_reduce: Option<(MessageId, Route<'a>, f64)> = None;
        let mut reposition: Option<(MessageId, Route<'a>)> = None;
        for &(m, alts) in &reroutable {
            let original = eval.route(m);
            let mut moved = false;
            for alt in alts.iter() {
                if alt.path == original.path {
                    continue;
                }
                // Chain trials without undoing in between: the evaluator's
                // state is a pure function of the assignment, so applying
                // alt_i+1 over alt_i equals undo-then-apply, at half the
                // link recomputations.
                eval.set_path(m, alt);
                trials += 1;
                moved = true;
                let tp = eval.effective_peak();
                if tp < peak - EPS {
                    if best_reduce.is_none_or(|(_, _, bp)| tp < bp - EPS) {
                        best_reduce = Some((m, alt, tp));
                    }
                } else if reposition.is_none()
                    && (tp - peak).abs() <= EPS
                    && eval.effective_location() != Some(location)
                {
                    reposition = Some((m, alt));
                }
            }
            if moved {
                eval.set_path(m, original);
            }
        }

        if let Some((m, route, _)) = best_reduce {
            eval.set_path(m, route);
        } else if let Some((m, route)) = reposition {
            eval.set_path(m, route);
        } else {
            break; // converged: no reroute changes the peak at all
        }
    }
    trials
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_mapping::Allocation;
    use sr_tfg::{assign_time_bounds, TfgBuilder, Timing, WindowPolicy};
    use sr_topology::{GeneralizedHypercube, LinkId, NodeId};

    struct Setup {
        topo: GeneralizedHypercube,
        tfg: TaskFlowGraph,
        alloc: Allocation,
        bounds: TimeBounds,
        intervals: Intervals,
        activity: ActivityMatrix,
    }

    /// Two messages between antipodal corners that dimension-order routing
    /// funnels over the same first link.
    fn contended_setup() -> Setup {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let mut b = TfgBuilder::new();
        let s = b.task("s", 500);
        let a = b.task("a", 500);
        let c = b.task("c", 500);
        b.message("m0", s, a, 1280).unwrap(); // 20 µs
        b.message("m1", s, c, 1280).unwrap(); // 20 µs
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0); // exec 50
                                              // Both destinations reachable from N0 with LSD-first hop N0->N1.
        let alloc =
            Allocation::new(vec![NodeId(0), NodeId(0b011), NodeId(0b101)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 50.0, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        Setup {
            topo,
            tfg,
            alloc,
            bounds,
            intervals,
            activity,
        }
    }

    #[test]
    fn beats_lsd_baseline_on_funnel() {
        let s = contended_setup();
        let out = assign_paths(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &AssignPathsConfig::default(),
        );
        // Baseline: both 20 µs messages share link N0-N1 active over the
        // whole 50 µs frame -> U = 0.8. Disjoint paths give 0.4.
        assert!(
            (out.baseline_peak - 0.8).abs() < 1e-6,
            "baseline {}",
            out.baseline_peak
        );
        assert!(
            out.utilization.peak() <= 0.4 + 1e-6,
            "expected disjoint paths, got U={}",
            out.utilization.peak()
        );
        // Paths are still valid shortest paths.
        for (i, m) in s.tfg.messages().iter().enumerate() {
            let p = out.assignment.path(MessageId(i));
            assert_eq!(p.source(), s.alloc.node_of(m.src()));
            assert_eq!(p.destination(), s.alloc.node_of(m.dst()));
            assert_eq!(
                p.hops(),
                s.topo.distance(p.source(), p.destination()),
                "non-shortest path assigned"
            );
        }
    }

    #[test]
    fn never_worse_than_baseline() {
        let s = contended_setup();
        for seed in [0u64, 1, 2, 99] {
            let out = assign_paths(
                &s.tfg,
                &s.topo,
                &s.alloc,
                &s.bounds,
                &s.intervals,
                &s.activity,
                &AssignPathsConfig {
                    seed,
                    max_restarts: 2,
                    ..AssignPathsConfig::default()
                },
            );
            assert!(out.utilization.peak() <= out.baseline_peak + 1e-9);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = contended_setup();
        let cfg = AssignPathsConfig::default();
        let a = assign_paths(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &cfg,
        );
        let b = assign_paths(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &cfg,
        );
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.restarts, b.restarts);
    }

    #[test]
    fn pool_matches_direct_enumeration_and_pooled_run_is_identical() {
        let s = contended_setup();
        let cfg = AssignPathsConfig::default();
        let pool = PathPool::new(&s.topo, cfg.path_cap);
        for src in 0..s.topo.num_nodes() {
            for dst in [0usize, 3, 5] {
                let direct = s
                    .topo
                    .shortest_paths(NodeId(src), NodeId(dst), cfg.path_cap);
                assert_eq!(pool.paths(NodeId(src), NodeId(dst)), &direct[..]);
                // Second lookup hits the cache and agrees.
                assert_eq!(pool.paths(NodeId(src), NodeId(dst)), &direct[..]);
            }
        }
        // Each pair was looked up twice: one miss then one hit.
        let (hits, misses) = pool.stats();
        assert_eq!(misses, (s.topo.num_nodes() * 3) as u64);
        assert_eq!(hits, misses);
        let direct = assign_paths(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &cfg,
        );
        let pooled = assign_paths_pooled(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &cfg,
            &pool,
        );
        assert_eq!(direct.assignment, pooled.assignment);
        assert_eq!(direct.restarts, pooled.restarts);
    }

    /// A pooled link row is its path's `Path::links`, hop for hop, on every
    /// topology family and on masked fabrics — the climb never derives a
    /// row again, so this is where the two are tied together. A row copies
    /// the hops its path shares with the one enumerated before it; the caps
    /// below cut enumerations short inside and between the direction combos
    /// of tied torus dimensions, where that shared prefix shrinks to nothing
    /// from one path to the next, and the masked fabrics enumerate through
    /// a BFS DAG instead of by dimension. The cached shared links are the
    /// rows' intersection.
    #[test]
    fn pooled_link_rows_equal_path_links_on_every_topology() {
        let torus = sr_topology::Torus::new(&[4, 5]).unwrap();
        let ghc = GeneralizedHypercube::new(&[4, 3, 2]).unwrap();
        let mesh = sr_topology::Mesh::new(&[3, 4]).unwrap();
        let faults = sr_topology::FaultSet::random_links(&torus, 6, 3).fail_node(NodeId(7));
        let masked = sr_topology::MaskedTopology::new(&torus, faults);
        let tied = sr_topology::Torus::new(&[8, 8]).unwrap();
        let tied3 = sr_topology::Torus::new(&[4, 4, 4]).unwrap();
        let faults = sr_topology::FaultSet::random_links(&tied, 9, 5);
        let masked_tied = sr_topology::MaskedTopology::new(&tied, faults);
        let topos: [(&dyn Topology, usize); 8] = [
            (&torus, 16),
            (&ghc, 16),
            (&mesh, 16),
            (&masked, 16),
            (&tied, 5),
            (&tied, 72),
            (&tied3, 7),
            (&masked_tied, 6),
        ];
        for (topo, cap) in topos {
            let pool = PathPool::new(topo, cap);
            let mut rows = 0;
            for src in (0..topo.num_nodes()).map(NodeId) {
                for dst in (0..topo.num_nodes()).map(NodeId) {
                    let routes = pool.routes(src, dst);
                    assert_eq!(routes.paths, topo.shortest_paths(src, dst, cap));
                    assert_eq!(pool.paths(src, dst), &routes.paths[..]);
                    let on_all =
                        |l: &u32| (0..routes.len()).all(|j| routes.get(j).links.contains(l));
                    let mut shared: Vec<u32> =
                        routes.all_links().iter().copied().filter(on_all).collect();
                    shared.sort_unstable();
                    shared.dedup();
                    let mut cached = routes.shared().to_vec();
                    cached.sort_unstable();
                    assert_eq!(cached, shared, "{} {src}→{dst}", topo.name());
                    for j in 0..routes.len() {
                        let route = routes.get(j);
                        assert!(std::ptr::eq(route.path, &routes.paths[j]));
                        let derived: Vec<u32> = route
                            .path
                            .links(topo)
                            .into_iter()
                            .map(compact_link)
                            .collect();
                        assert_eq!(route.links, &derived[..], "{} {}", topo.name(), route.path);
                        rows += 1;
                    }
                }
            }
            assert!(
                rows > topo.num_nodes() * topo.num_nodes(),
                "{}",
                topo.name()
            );
        }
    }

    #[test]
    fn each_assign_paths_call_looks_every_message_up_once() {
        let s = contended_setup();
        let cfg = AssignPathsConfig::default();
        let pool = PathPool::new(&s.topo, cfg.path_cap);
        let messages = s.tfg.messages().len() as u64;
        assign_paths_pooled(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &cfg,
            &pool,
        );
        assert_eq!(pool.stats(), (0, messages));
        let part_of = band_partition(s.topo.num_nodes(), 2);
        assign_paths_partitioned(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &cfg,
            &pool,
            &part_of,
            1,
        );
        assert_eq!(pool.stats(), (messages, messages));
    }

    /// `path_cap = 0` means "at least the one route", as it does for the
    /// pool — it used to leave every affected message without candidates and
    /// panic with "has no surviving route".
    #[test]
    fn partial_reroute_clamps_a_zero_path_cap_like_the_pool() {
        let s = contended_setup();
        let base = PathAssignment::lsd_to_msd(&s.tfg, &s.topo, &s.alloc);
        let run = |path_cap| {
            assign_paths_partial(
                &s.topo,
                &s.bounds,
                &s.intervals,
                &s.activity,
                &base,
                &[MessageId(0), MessageId(1)],
                &AssignPathsConfig {
                    path_cap,
                    ..AssignPathsConfig::default()
                },
            )
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero.assignment, one.assignment);
        assert_eq!(zero.assignment, base);
        assert_eq!(PathPool::new(&s.topo, 0).cap(), 1);
    }

    #[test]
    fn band_partition_covers_and_balances() {
        let p = band_partition(16, 4);
        assert_eq!(p.len(), 16);
        assert!(
            p.windows(2).all(|w| w[1] >= w[0]),
            "bands must be contiguous"
        );
        for part in 0..4 {
            assert_eq!(p.iter().filter(|&&x| x == part).count(), 4);
        }
        assert_eq!(band_partition(5, 0), vec![0; 5]); // clamped up to 1 part
        assert_eq!(band_partition(3, 7), vec![0, 1, 2]); // clamped down to n
        assert!(band_partition(0, 4).is_empty());
    }

    /// Forwards everything but hides the coordinate hint, forcing
    /// [`band_partition_topo`] onto its BFS-layer fallback.
    struct NoHint<T: Topology>(T);

    impl<T: Topology> Topology for NoHint<T> {
        fn name(&self) -> String {
            self.0.name()
        }
        fn num_nodes(&self) -> usize {
            self.0.num_nodes()
        }
        fn num_links(&self) -> usize {
            self.0.num_links()
        }
        fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
            self.0.link_endpoints(link)
        }
        fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
            self.0.link_between(a, b)
        }
        fn neighbors(&self, node: NodeId) -> &[NodeId] {
            self.0.neighbors(node)
        }
        fn distance(&self, a: NodeId, b: NodeId) -> usize {
            self.0.distance(a, b)
        }
        fn dimension_order_path(&self, src: NodeId, dst: NodeId) -> sr_topology::Path {
            self.0.dimension_order_path(src, dst)
        }
        fn shortest_paths(&self, src: NodeId, dst: NodeId, cap: usize) -> Vec<sr_topology::Path> {
            self.0.shortest_paths(src, dst, cap)
        }
    }

    #[test]
    fn band_partition_topo_matches_index_bands_on_torus() {
        // On an N×N torus with parts | N both partitioners cut along whole
        // rows, so the generic path must reproduce the historical index
        // bands exactly (this keeps gated scale workloads bit-stable).
        for (n, parts) in [(8usize, 2usize), (8, 4), (12, 3)] {
            let topo = sr_topology::Torus::new(&[n, n]).unwrap();
            assert_eq!(
                band_partition_topo(&topo, parts),
                band_partition(n * n, parts),
                "torus {n}×{n}, {parts} parts"
            );
        }
    }

    #[test]
    fn band_partition_topo_cuts_ghc_msd_slabs() {
        // GHC(4,4,4) with 4 parts: the coarsest cut with ≥ 4 slices is the
        // most significant digit (weight 16), so each band is one GHC(4,4)
        // sub-cube.
        let topo = GeneralizedHypercube::new(&[4, 4, 4]).unwrap();
        let bands = band_partition_topo(&topo, 4);
        for (node, &band) in bands.iter().enumerate() {
            assert_eq!(band, node / 16, "node {node}");
        }
        // 8 parts: the coarsest qualifying cut is weight 4 (16 slices), so
        // bands pair up adjacent middle-digit slabs within an MSD slab.
        let bands = band_partition_topo(&topo, 8);
        for (node, &band) in bands.iter().enumerate() {
            assert_eq!(band, (node / 4) * 8 / 16, "node {node}");
        }
    }

    #[test]
    fn band_partition_topo_bfs_fallback_covers_and_balances() {
        let topo = NoHint(sr_topology::Torus::new(&[4, 4]).unwrap());
        let bands = band_partition_topo(&topo, 4);
        assert_eq!(bands.len(), 16);
        for part in 0..4 {
            assert_eq!(bands.iter().filter(|&&x| x == part).count(), 4);
        }
        // Deterministic: same input, same cut.
        assert_eq!(bands, band_partition_topo(&topo, 4));
        // Node 0's BFS layer 0 is node 0 itself; it always lands in band 0.
        assert_eq!(bands[0], 0);
    }

    #[test]
    fn partitioned_never_worse_than_baseline_and_thread_independent() {
        let topo = sr_topology::Torus::new(&[4, 4]).unwrap();
        let tfg = sr_tfg::dvb_uniform(4);
        let timing = Timing::calibrated_dvb(128.0);
        let alloc = sr_mapping::random_distinct(&tfg, &topo, 7).unwrap();
        let period = timing.longest_task(&tfg) * 2.0;
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let cfg = AssignPathsConfig::default();
        let pool = PathPool::new(&topo, cfg.path_cap);
        let part_of = band_partition(sr_topology::Topology::num_nodes(&topo), 4);

        let serial = assign_paths_partitioned(
            &tfg, &topo, &alloc, &bounds, &intervals, &activity, &cfg, &pool, &part_of, 1,
        );
        assert!(serial.utilization.effective_peak() <= serial.baseline_peak + 1e-9);
        let parallel = assign_paths_partitioned(
            &tfg, &topo, &alloc, &bounds, &intervals, &activity, &cfg, &pool, &part_of, 4,
        );
        assert_eq!(serial.assignment, parallel.assignment);
        assert_eq!(serial.restarts, parallel.restarts);
    }

    #[test]
    fn single_path_messages_are_left_alone() {
        // Adjacent nodes: only one shortest path; heuristic must keep it.
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let mut b = TfgBuilder::new();
        let s = b.task("s", 500);
        let d = b.task("d", 500);
        b.message("m", s, d, 640).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(vec![NodeId(0), NodeId(1)], &tfg, &topo).unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 50.0, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let out = assign_paths(
            &tfg,
            &topo,
            &alloc,
            &bounds,
            &intervals,
            &activity,
            &AssignPathsConfig::default(),
        );
        assert_eq!(out.assignment.path(MessageId(0)).hops(), 1);
        assert!((out.utilization.peak() - out.baseline_peak).abs() < 1e-9);
    }

    // ---- the lower bound and the climbs it certifies -------------------

    /// A workload on any topology, with everything a climb needs.
    struct Fixture {
        topo: Box<dyn Topology>,
        tfg: TaskFlowGraph,
        alloc: Allocation,
        bounds: TimeBounds,
        intervals: Intervals,
        activity: ActivityMatrix,
    }

    impl Fixture {
        fn new(
            topo: Box<dyn Topology>,
            tfg: TaskFlowGraph,
            alloc: Allocation,
            bounds: TimeBounds,
        ) -> Self {
            let intervals = Intervals::from_bounds(&bounds);
            let activity = ActivityMatrix::new(&bounds, &intervals);
            Fixture {
                topo,
                tfg,
                alloc,
                bounds,
                intervals,
                activity,
            }
        }

        /// One message per `(source node, destination node, release µs,
        /// duration µs)`, in that order, every one open for `window` µs
        /// from its release in a frame of `period` µs. Each message gets a
        /// source task of its own that runs from 0 to `release`.
        fn windows(
            topo: Box<dyn Topology>,
            msgs: &[(usize, usize, u64, u64)],
            window: f64,
            period: f64,
        ) -> Self {
            let mut b = TfgBuilder::new();
            let mut placement = Vec::new();
            for (i, &(src, dst, release, duration)) in msgs.iter().enumerate() {
                let s = b.task(format!("s{i}"), release);
                let d = b.task(format!("d{i}"), 1);
                b.message(format!("m{i}"), s, d, duration).unwrap();
                placement.extend([NodeId(src), NodeId(dst)]);
            }
            let tfg = b.build().unwrap();
            let timing = Timing::new(1.0, 1.0);
            let alloc = Allocation::new(placement, &tfg, topo.as_ref()).unwrap();
            let bounds =
                assign_time_bounds(&tfg, &timing, period, WindowPolicy::Fixed(window)).unwrap();
            Self::new(topo, tfg, alloc, bounds)
        }

        /// A random layered TFG, randomly placed, at a random load.
        fn random(topo: Box<dyn Topology>, seed: u64) -> Self {
            use sr_tfg::generators::{layered_random, LayeredParams};
            let mut rng = StdRng::seed_from_u64(seed);
            let params = LayeredParams {
                layers: rng.gen_range(2..5),
                width: rng.gen_range(2..5),
                edge_probability: 0.6,
                ops: (500, 2000),
                bytes: (64, 4096),
            };
            let tfg = layered_random(rng.gen_range(0..u64::MAX), &params);
            let timing = Timing::new(64.0, 20.0);
            let alloc = sr_mapping::random(&tfg, topo.as_ref(), rng.gen_range(0..u64::MAX));
            let longest = timing.longest_task(&tfg).max(timing.longest_message(&tfg));
            let period = longest * rng.gen_range(1.0..2.0);
            let policy = [WindowPolicy::LongestTask, WindowPolicy::Tight][rng.gen_range(0..2usize)];
            let bounds = assign_time_bounds(&tfg, &timing, period, policy).unwrap();
            Self::new(topo, tfg, alloc, bounds)
        }

        fn topo(&self) -> &dyn Topology {
            self.topo.as_ref()
        }

        fn inputs(&self) -> MsgInputs {
            MsgInputs::new(
                self.tfg.num_messages(),
                &self.bounds,
                &self.activity,
                &self.intervals,
            )
        }

        fn link(&self, a: usize, b: usize) -> LinkId {
            self.topo.link_between(NodeId(a), NodeId(b)).unwrap()
        }

        fn flat(&self, cfg: &AssignPathsConfig) -> AssignPathsOutcome {
            assign_paths(
                &self.tfg,
                self.topo(),
                &self.alloc,
                &self.bounds,
                &self.intervals,
                &self.activity,
                cfg,
            )
        }

        fn partitioned(&self, cfg: &AssignPathsConfig, parts: usize) -> AssignPathsOutcome {
            let pool = PathPool::new(self.topo(), cfg.path_cap);
            assign_paths_partitioned(
                &self.tfg,
                self.topo(),
                &self.alloc,
                &self.bounds,
                &self.intervals,
                &self.activity,
                cfg,
                &pool,
                &band_partition_topo(self.topo(), parts),
                1,
            )
        }

        fn partial(&self, cfg: &AssignPathsConfig, affected: &[MessageId]) -> AssignPathsOutcome {
            let base = PathAssignment::lsd_to_msd(&self.tfg, self.topo(), &self.alloc);
            assign_paths_partial(
                self.topo(),
                &self.bounds,
                &self.intervals,
                &self.activity,
                &base,
                affected,
                cfg,
            )
        }

        fn peak_of(&self, pa: &PathAssignment) -> f64 {
            let num_links = self.topo.num_links();
            UtilizationMap::compute(pa, &self.bounds, &self.activity, &self.intervals, num_links)
                .effective_peak()
        }

        /// The smallest effective peak over **every** assignment that keeps
        /// each message of `movable` on its `start` route or one of its
        /// alternatives, by enumeration.
        fn reachable_optimum(&self, start: &PathAssignment, movable: &[Movable<'_>]) -> f64 {
            let mut best = f64::INFINITY;
            let mut choice = vec![0usize; movable.len()];
            loop {
                let mut pa = start.clone();
                for (&(m, alts), &c) in movable.iter().zip(&choice) {
                    if c > 0 {
                        pa.set_path(m, alts.get(c - 1).path.clone(), self.topo());
                    }
                }
                best = best.min(self.peak_of(&pa));
                let Some(pos) = (0..movable.len()).find(|&p| choice[p] < movable[p].1.len()) else {
                    return best;
                };
                choice[pos] += 1;
                choice[..pos].fill(0);
            }
        }

        /// The flat problem's optimum over the routes `cap` enumerates.
        fn flat_optimum(&self, cap: usize) -> f64 {
            let pool = PathPool::new(self.topo(), cap);
            let start = PathAssignment::lsd_to_msd(&self.tfg, self.topo(), &self.alloc);
            self.reachable_optimum(&start, &pool.alternatives(&self.tfg, &self.alloc))
        }
    }

    fn cube(dim: usize) -> Box<dyn Topology> {
        Box::new(GeneralizedHypercube::binary(dim).unwrap())
    }

    /// Runs `f` with every climb on this thread ignoring its lower bound.
    fn uncertified<T>(f: impl FnOnce() -> T) -> T {
        UNCERTIFIED.set(true);
        let out = f();
        UNCERTIFIED.set(false);
        out
    }

    /// Four 12 µs messages whose 20 µs windows open 10 µs apart, all from
    /// node `a` to its neighbor `b`: the link between them reads
    /// `U^l = 48/50 = 0.96`, while no signature or pair of signatures holds
    /// more than `36/40 = 0.9` — the Hall bound is the smaller figure.
    fn staggered_four(a: usize, b: usize) -> [(usize, usize, u64, u64); 4] {
        [10, 20, 30, 40].map(|release| (a, b, release, 12))
    }

    /// **The trap.** `U^l` of the messages forced onto a link is not a
    /// floor: a short message with a window elsewhere in the frame *lowers*
    /// it. Here the forced four read 0.96 on their own, the optimum puts the
    /// fifth message on the same link and reads 0.9 — and so does the bound,
    /// which rests on the forced group's Hall figure.
    #[test]
    fn forced_link_utilization_is_not_a_floor_dilution() {
        let mut msgs = staggered_four(0, 1).to_vec();
        msgs.push((0, 3, 70, 1));
        let f = Fixture::windows(cube(2), &msgs, 20.0, 100.0);
        let crowded = f.link(0, 1);

        let mut apart = PathAssignment::lsd_to_msd(&f.tfg, f.topo(), &f.alloc);
        assert!(apart.uses(MessageId(4), crowded), "baseline goes 0-1-3");
        let together = f.peak_of(&apart);
        let detour = Path::new(vec![NodeId(0), NodeId(2), NodeId(3)]);
        apart.set_path(MessageId(4), detour, f.topo());
        let forced_alone = UtilizationMap::compute(
            &apart,
            &f.bounds,
            &f.activity,
            &f.intervals,
            f.topo.num_links(),
        );
        assert!((forced_alone.link(crowded) - 0.96).abs() < 1e-12);
        assert!((forced_alone.hall_peak() - 0.9).abs() < 1e-12);
        assert!((together - 0.9).abs() < 1e-12, "diluted: {together}");

        let optimum = f.flat_optimum(64);
        assert_eq!(optimum, together);
        let out = f.flat(&AssignPathsConfig::default());
        assert!(
            out.lower_bound <= optimum,
            "bound {} above the optimum {optimum}",
            out.lower_bound
        );
        assert_eq!(out.lower_bound, optimum, "the forced group's Hall figure");
        assert!(forced_alone.link(crowded) > optimum);
        assert_eq!((out.restarts, out.certified_climbs), (0, 1));
    }

    /// A message's start route need not be one of its alternatives (a part
    /// confines them; the baseline may leave the part). The links of that
    /// route are still links the message can *leave*, so they are reachable
    /// — counting one as fixed would put its start figure under every
    /// assignment, including the ones that relieve it.
    #[test]
    fn start_route_outside_the_alternatives_is_reachable() {
        // m0 (0→1) is frozen on link 0-1; m1 (0→3) starts on 0-1-3 and may
        // move to 0-2-3 only.
        let f = Fixture::windows(cube(2), &[(0, 1, 10, 8), (0, 3, 10, 6)], 20.0, 40.0);
        let start = PathAssignment::lsd_to_msd(&f.tfg, f.topo(), &f.alloc);
        assert!(start.uses(MessageId(1), f.link(0, 1)));
        let routes = Routes::derive(f.topo.shortest_paths(NodeId(0), NodeId(3), 8), f.topo());
        let detour: Vec<u32> = (0..routes.len() as u32)
            .filter(|&j| routes.paths[j as usize] != *start.path(MessageId(1)))
            .collect();
        assert_eq!(detour.len(), 1);
        let alts = Alternatives {
            routes: &routes,
            only: Some(&detour),
        };
        let movable = [(MessageId(1), alts)];

        let inputs = f.inputs();
        let cfg = AssignPathsConfig::default();
        let ctx = ClimbCtx::new(&inputs, &f.intervals, f.topo(), &cfg);
        let start = ctx.start(start);
        assert!((start.util.effective_peak() - 0.7).abs() < 1e-12);
        let bound = lower_bound(&start, &movable, &inputs, &f.intervals);
        let optimum = f.reachable_optimum(&start.assignment, &movable);
        assert!((optimum - 0.4).abs() < 1e-12, "m1 off the shared link");
        assert!(bound.value <= optimum, "{} > {optimum}", bound.value);
        assert_eq!(bound.value, optimum);

        let climb = hill_climb(&start, &movable, &ctx, cfg.seed);
        let best = climb.best.expect("the detour is better");
        assert_eq!(f.peak_of(&best), optimum);
    }

    /// Only the routes a confined message may take count — both ways. A
    /// link that only its *excluded* routes cross is fixed (its exact figure
    /// is a floor, here the `U^l` the forced floors must not use), and a
    /// link that all its *confined* routes cross holds it for good even
    /// when some excluded route avoids it.
    #[test]
    fn confined_alternatives_reach_and_force_only_their_own_links() {
        // m4 (0→7) has six routes in the 3-cube. The staggered four sit on
        // link 3-7, m5 on link 5-7.
        let mut msgs = staggered_four(3, 7).to_vec();
        msgs.extend([(0, 7, 70, 4), (5, 7, 70, 10)]);
        let f = Fixture::windows(cube(3), &msgs, 20.0, 100.0);
        let routes = Routes::derive(f.topo.shortest_paths(NodeId(0), NodeId(7), 8), f.topo());
        assert_eq!(routes.len(), 6);
        let avoiding = |l: LinkId| -> Vec<u32> {
            (0..6u32)
                .filter(|&j| !routes.get(j as usize).links.contains(&compact_link(l)))
                .collect()
        };
        let crossing = |l: LinkId| -> Vec<u32> {
            (0..6u32)
                .filter(|&j| routes.get(j as usize).links.contains(&compact_link(l)))
                .collect()
        };
        let inputs = f.inputs();
        let cfg = AssignPathsConfig::default();
        let ctx = ClimbCtx::new(&inputs, &f.intervals, f.topo(), &cfg);
        let check = |only: &[u32]| {
            let mut start = PathAssignment::lsd_to_msd(&f.tfg, f.topo(), &f.alloc);
            let first = routes.paths[only[0] as usize].clone();
            start.set_path(MessageId(4), first, f.topo());
            let alts = Alternatives {
                routes: &routes,
                only: Some(only),
            };
            let movable = [(MessageId(4), alts)];
            let start = ctx.start(start);
            let bound = lower_bound(&start, &movable, &inputs, &f.intervals);
            let optimum = f.reachable_optimum(&start.assignment, &movable);
            assert!(bound.value <= optimum, "{} > {optimum}", bound.value);
            (bound.value, optimum, start.util.effective_peak())
        };

        // Kept off link 3-7: the four are out of reach, their 0.96 stands.
        let off = avoiding(f.link(3, 7));
        assert_eq!(off.len(), 4);
        let (bound, optimum, start_peak) = check(&off);
        assert!((start_peak - 0.96).abs() < 1e-12);
        assert_eq!((bound, optimum), (start_peak, start_peak));

        // Kept on link 5-7, away from the four: m4 and m5 share it in every
        // assignment, 14/20 — but the fixed 0.96 still dominates, so look
        // at the forced figure through a fixture without the four.
        let f = Fixture::windows(cube(3), &msgs[4..], 20.0, 100.0);
        let inputs = f.inputs();
        let ctx = ClimbCtx::new(&inputs, &f.intervals, f.topo(), &cfg);
        let on = crossing(f.link(5, 7));
        assert_eq!(on.len(), 2);
        let mut start = PathAssignment::lsd_to_msd(&f.tfg, f.topo(), &f.alloc);
        start.set_path(MessageId(0), routes.paths[on[0] as usize].clone(), f.topo());
        let alts = Alternatives {
            routes: &routes,
            only: Some(&on),
        };
        let movable = [(MessageId(0), alts)];
        let start = ctx.start(start);
        let bound = lower_bound(&start, &movable, &inputs, &f.intervals);
        let optimum = f.reachable_optimum(&start.assignment, &movable);
        assert!((optimum - 0.7).abs() < 1e-12);
        assert_eq!(bound.value, optimum, "both forced onto link 5-7");
    }

    /// The stop rule is `peak ≤ bound + EPS`, the same tolerance `best`
    /// moves by: a start half an `EPS` above its bound cannot be improved
    /// on by anything the climb would record, so the climb never starts.
    #[test]
    fn a_start_within_eps_of_its_bound_is_certified() {
        // Link 0-1 holds m0 for good at 0.6. m2 (2→1) starts on 2-3-1 with
        // m1: 0.6000005 — and moving it next to m0 would read 0.9.
        let w = 10_000_000;
        let msgs = [
            (0, 1, w, 6_000_000),
            (3, 1, w, 3_000_000),
            (2, 1, w, 3_000_005),
        ];
        let f = Fixture::windows(cube(2), &msgs, w as f64, 3.0 * w as f64);
        let cfg = AssignPathsConfig::default();
        let out = f.flat(&cfg);
        let peak = out.utilization.effective_peak();
        assert!((out.lower_bound - 0.6).abs() < 1e-12);
        assert!(peak > out.lower_bound && peak <= out.lower_bound + EPS);
        assert_eq!(f.flat_optimum(8), peak);
        assert_eq!(
            (out.restarts, out.certified_climbs, out.skipped_restarts),
            (0, 1, cfg.max_restarts)
        );
        assert_eq!(uncertified(|| f.flat(&cfg)).assignment, out.assignment);
    }

    #[test]
    fn bound_meets_the_optimum_on_the_funnel() {
        let s = contended_setup();
        let cfg = AssignPathsConfig::default();
        let out = assign_paths(
            &s.tfg,
            &s.topo,
            &s.alloc,
            &s.bounds,
            &s.intervals,
            &s.activity,
            &cfg,
        );
        // 20 µs in a 50 µs window wherever it goes; disjoint paths get there.
        assert_eq!(out.lower_bound, 0.4);
        assert_eq!(out.utilization.effective_peak(), 0.4);
        assert!(out.overload.is_none());
        // Not certified at the start (0.8), certified after the first
        // `improve`: one restart, the rest of the budget skipped.
        assert_eq!((out.restarts, out.climbs, out.certified_climbs), (1, 1, 1));
        assert_eq!(out.skipped_restarts, cfg.max_restarts - 1);
    }

    /// A bound above 1 comes with its witness: the link and the messages
    /// that cannot leave it.
    #[test]
    fn overloaded_forced_group_is_named() {
        // Three 8 µs messages with the same 20 µs window, all 0→1.
        let msgs = [(0, 1, 10, 8), (0, 1, 10, 8), (0, 1, 10, 8), (0, 3, 10, 2)];
        let f = Fixture::windows(cube(2), &msgs, 20.0, 40.0);
        let out = f.flat(&AssignPathsConfig::default());
        assert!((out.lower_bound - 1.2).abs() < 1e-12);
        let witness = out.overload.expect("bound above 1");
        assert_eq!(witness.floor, crate::BoundFloor::ForcedGroup);
        assert_eq!(witness.link, Some(f.link(0, 1)));
        assert_eq!(witness.messages, [0, 1, 2].map(MessageId));
        assert_eq!(witness.bound, out.lower_bound);
    }

    /// The identity the certificate rests on, checked against an oracle: the
    /// same call with every climb's bound ignored (so each polishes its
    /// start and spends its whole restart budget) returns the same
    /// assignment — paths, not just peak.
    fn assert_same_as_uncertified(
        what: &str,
        run: impl Fn() -> AssignPathsOutcome,
    ) -> AssignPathsOutcome {
        let certified = run();
        let oracle = uncertified(&run);
        assert_eq!(certified.assignment, oracle.assignment, "{what}");
        assert_eq!(
            certified.utilization.effective_peak().to_bits(),
            oracle.utilization.effective_peak().to_bits(),
            "{what}"
        );
        assert!(
            certified.lower_bound <= certified.utilization.effective_peak() + 1e-12,
            "{what}: bound {} above the peak",
            certified.lower_bound
        );
        assert!(certified.restarts <= oracle.restarts, "{what}");
        assert_eq!(oracle.certified_climbs, 0, "{what}");
        certified
    }

    fn random_fixture(seed: u64) -> Fixture {
        let topo: Box<dyn Topology> = match seed % 3 {
            0 => cube(4),
            1 => Box::new(sr_topology::Torus::new(&[4, 4]).unwrap()),
            _ => Box::new(GeneralizedHypercube::new(&[4, 4]).unwrap()),
        };
        Fixture::random(topo, seed)
    }

    #[test]
    fn certified_flat_climbs_return_what_uncertified_ones_do() {
        let cfg = AssignPathsConfig::default();
        let (mut at_start, mut later, mut never) = (0, 0, 0);
        for seed in 0..200u64 {
            let f = random_fixture(seed);
            let out = assert_same_as_uncertified(&format!("seed {seed}"), || f.flat(&cfg));
            match (out.certified_climbs, out.restarts) {
                (1, 0) => at_start += 1,
                (1, _) => later += 1,
                _ => never += 1,
            }
        }
        assert!(
            at_start >= 10 && later >= 10 && never >= 10,
            "{at_start} certified at the start, {later} later, {never} never"
        );
    }

    #[test]
    fn certified_partial_climbs_return_what_uncertified_ones_do() {
        let cfg = AssignPathsConfig::default();
        let (mut certified, mut not) = (0, 0);
        for seed in 0..200u64 {
            let f = random_fixture(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let affected: Vec<MessageId> = (0..f.tfg.num_messages())
                .filter(|_| rng.gen_range(0..3) == 0)
                .map(MessageId)
                .collect();
            let out =
                assert_same_as_uncertified(&format!("seed {seed}"), || f.partial(&cfg, &affected));
            if out.certified_climbs == 1 {
                certified += 1;
            } else {
                not += 1;
            }
        }
        assert!(certified >= 10 && not >= 10, "{certified} / {not}");
    }

    #[test]
    fn certified_partitioned_climbs_return_what_uncertified_ones_do() {
        let cfg = AssignPathsConfig::default();
        let (mut all, mut some, mut none) = (0, 0, 0);
        for seed in 0..200u64 {
            let f = random_fixture(seed);
            let parts = 2 + (seed % 2) as usize * 2;
            let out =
                assert_same_as_uncertified(&format!("seed {seed}"), || f.partitioned(&cfg, parts));
            match out.certified_climbs {
                0 => none += 1,
                c if c == out.climbs => all += 1,
                _ => some += 1,
            }
        }
        assert!(all >= 10 && some + none >= 10, "{all} / {some} / {none}");
    }

    /// The tiled farm at 16×16, four bands: the LSD-to-MSD baseline is
    /// already at the bound of every part and of the stitch, so no climb
    /// runs at all — and running them all anyway changes nothing.
    #[test]
    fn every_climb_of_the_tiled_farm_is_certified_at_its_start() {
        let cfg = AssignPathsConfig::default();
        for seed in [7, 13, 21] {
            let (topo, tfg, alloc, bounds) = crate::testkit::tiled_farm_16x16(seed);
            let f = Fixture::new(Box::new(topo), tfg, alloc, bounds);
            let out =
                assert_same_as_uncertified(&format!("farm {seed}"), || f.partitioned(&cfg, 4));
            assert_eq!(out.climbs, 5, "four bands and the stitch");
            assert_eq!(out.certified_climbs, out.climbs, "farm {seed}");
            assert_eq!((out.restarts, out.trials, out.link_recomputes), (0, 0, 0));
            assert_eq!(out.skipped_restarts, 5 * cfg.max_restarts);
            assert_eq!(out.utilization.effective_peak(), out.baseline_peak);
        }
    }

    /// A scattered placement on the 8×8 torus: the peak sits where the
    /// movable messages can get at it and above anything they are forced
    /// into. The flat climb is never certified and spends its whole budget;
    /// of the partitioned climbs the stitch — which owns the peak — does.
    #[test]
    fn scattered_placement_leaves_the_peak_uncertified() {
        let topo = sr_topology::Torus::new(&[8, 8]).unwrap();
        let tfg = sr_tfg::dvb_uniform(10);
        let alloc = sr_mapping::random_distinct(&tfg, &topo, 3).unwrap();
        let timing = Timing::calibrated_dvb(128.0);
        let period = timing.longest_task(&tfg) * 2.0;
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).unwrap();
        let f = Fixture::new(Box::new(topo), tfg, alloc, bounds);
        let cfg = AssignPathsConfig::default();
        let flat = assert_same_as_uncertified("scattered, flat", || f.flat(&cfg));
        assert_eq!((flat.certified_climbs, flat.skipped_restarts), (0, 0));
        assert_eq!(flat.restarts, cfg.max_restarts);
        assert!(flat.lower_bound < flat.utilization.effective_peak());
        let parted = assert_same_as_uncertified("scattered, 2 parts", || f.partitioned(&cfg, 2));
        assert!(parted.certified_climbs < parted.climbs);
        assert!(parted.restarts >= cfg.max_restarts);
        assert_eq!(parted.lower_bound, flat.lower_bound, "the flat bound");
    }
}
