use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sr_mapping::Allocation;
use sr_tfg::{MessageId, TaskFlowGraph, TimeBounds};
use sr_topology::{NodeId, Path, Topology};

use crate::assignment::{compact_link, Route};
use crate::utilization::UtilEval;
use crate::{ActivityMatrix, Hotspot, Intervals, PathAssignment, UtilizationMap, EPS};

/// The shortest paths of one `(source, destination)` pair together with
/// their link rows, derived once: row `j` is `paths[j].links(topo)` as `u32`
/// ids. All shortest paths of a pair have the same hop count, so the rows
/// sit back to back in one arena.
pub(crate) struct Routes {
    paths: Vec<Path>,
    rows: Vec<u32>,
    hops: usize,
}

impl Routes {
    pub(crate) fn derive(paths: Vec<Path>, topo: &dyn Topology) -> Self {
        let hops = paths.first().map_or(0, Path::hops);
        let mut rows = Vec::with_capacity(paths.len() * hops);
        for path in &paths {
            assert_eq!(path.hops(), hops, "shortest paths differ in length");
            rows.extend(path.links(topo).into_iter().map(compact_link));
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
}

/// The routes one message may move between during a climb: a pair's
/// [`Routes`], or the subset of them an index list picks.
#[derive(Clone, Copy)]
struct Alternatives<'a> {
    routes: &'a Routes,
    only: Option<&'a [u32]>,
}

impl<'a> Alternatives<'a> {
    fn len(&self) -> usize {
        self.only.map_or(self.routes.len(), <[u32]>::len)
    }

    fn get(&self, j: usize) -> Route<'a> {
        self.routes
            .get(self.only.map_or(j, |only| only[j] as usize))
    }

    fn iter(self) -> impl Iterator<Item = Route<'a>> {
        (0..self.len()).map(move |j| self.get(j))
    }
}

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

    /// One lookup per message of `tfg`, in message order: each message's
    /// alternative routes between its allocated endpoints.
    fn alternatives(&self, tfg: &TaskFlowGraph, alloc: &Allocation) -> Vec<Alternatives<'_>> {
        tfg.messages()
            .iter()
            .map(|m| Alternatives {
                routes: self.routes(alloc.node_of(m.src()), alloc.node_of(m.dst())),
                only: None,
            })
            .collect()
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
    /// Restarts actually performed.
    pub restarts: usize,
    /// Reroute trials evaluated (one per alternative path tried on a
    /// message crossing the peak) — with `link_recomputes`, the
    /// heuristic's deterministic work counters.
    pub trials: u64,
    /// Per-link utilization recomputations performed by the climbs'
    /// incremental evaluators, their initial builds included.
    pub link_recomputes: u64,
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
    let mut rng = StdRng::seed_from_u64(config.seed);
    let num_links = topo.num_links();
    let compute =
        |pa: &PathAssignment| UtilizationMap::compute(pa, bounds, activity, intervals, num_links);

    // Alternative shortest paths per message (index 0 = dimension order).
    let candidates: Vec<_> = pool
        .alternatives(tfg, alloc)
        .into_iter()
        .map(Some)
        .collect();

    let baseline = PathAssignment::lsd_to_msd(tfg, topo, alloc);
    let baseline_effective = compute(&baseline).effective_peak();

    let climb = hill_climb(
        &baseline,
        baseline_effective,
        &candidates,
        num_links,
        bounds,
        intervals,
        activity,
        config,
        &mut rng,
    );

    let best = climb.best.unwrap_or(baseline);
    let utilization = compute(&best);
    AssignPathsOutcome {
        assignment: best,
        utilization,
        baseline_peak: baseline_effective,
        restarts: climb.restarts,
        trials: climb.trials,
        link_recomputes: climb.link_recomputes,
    }
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
    let mut rng = StdRng::seed_from_u64(config.seed);
    let num_links = topo.num_links();
    let compute =
        |pa: &PathAssignment| UtilizationMap::compute(pa, bounds, activity, intervals, num_links);

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
    let mut candidates = vec![None; base.len()];
    let mut start = base.clone();
    for (&m, routes) in affected.iter().zip(&rerouted) {
        candidates[m.index()] = Some(Alternatives { routes, only: None });
        start.set_path(m, routes.paths[0].clone(), topo);
    }
    let start_peak = compute(&start).effective_peak();

    let climb = hill_climb(
        &start,
        start_peak,
        &candidates,
        num_links,
        bounds,
        intervals,
        activity,
        config,
        &mut rng,
    );

    let best = climb.best.unwrap_or(start);
    let utilization = compute(&best);
    AssignPathsOutcome {
        assignment: best,
        utilization,
        baseline_peak: start_peak,
        restarts: climb.restarts,
        trials: climb.trials,
        link_recomputes: climb.link_recomputes,
    }
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
    let num_links = topo.num_links();
    let compute =
        |pa: &PathAssignment| UtilizationMap::compute(pa, bounds, activity, intervals, num_links);

    let candidates = pool.alternatives(tfg, alloc);
    let baseline = PathAssignment::lsd_to_msd(tfg, topo, alloc);
    let baseline_effective = compute(&baseline).effective_peak();

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
        let inside = candidates[i].routes.paths.iter().enumerate();
        let inside: Vec<u32> = inside
            .filter(|(_, path)| in_part(path, s))
            .map(|(j, _)| j as u32)
            .collect();
        if inside.len() > 1 {
            home[i] = Some(s);
            confined[i] = inside;
        }
    }

    let num_parts = part_of.iter().copied().max().map_or(1, |m| m + 1);
    let part_ids: Vec<usize> = (0..num_parts)
        .filter(|&p| home.contains(&Some(p)))
        .collect();
    let optimized = sr_par::par_map(&part_ids, threads, |&pid| {
        // Part-local problem: this part's interior messages keep their
        // in-part candidates, everything else is frozen at baseline (the
        // frozen load is exactly what the other parts see too).
        let cand: Vec<_> = (0..candidates.len())
            .map(|i| {
                (home[i] == Some(pid)).then(|| Alternatives {
                    routes: candidates[i].routes,
                    only: Some(&confined[i]),
                })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_add((pid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        hill_climb(
            &baseline,
            baseline_effective,
            &cand,
            num_links,
            bounds,
            intervals,
            activity,
            config,
            &mut rng,
        )
    });

    // Merge: each part contributes the paths of its own interior messages
    // (a part that found nothing better than the baseline contributes
    // none). Parts only reroute onto links they own, so no link ends up
    // above the load its owning part accepted.
    let mut merged = baseline.clone();
    let mut restarts = 0;
    let mut trials = 0;
    let mut link_recomputes = 0;
    for (&pid, part) in part_ids.iter().zip(optimized) {
        restarts += part.restarts;
        trials += part.trials;
        link_recomputes += part.link_recomputes;
        let Some(part_best) = part.best else { continue };
        for (i, h) in home.iter().enumerate() {
            if *h == Some(pid) {
                let m = MessageId(i);
                merged.set_path(m, part_best.path(m).clone(), topo);
            }
        }
    }
    // Defensive: the merge argument above holds exactly; guard against EPS
    // pathologies so the baseline guarantee is unconditional.
    let merged_peak = compute(&merged).effective_peak();
    let (stitch_start, stitch_peak) = if merged_peak <= baseline_effective + EPS {
        (merged, merged_peak)
    } else {
        (baseline, baseline_effective)
    };

    // Boundary stitch: only messages without a home part may move, now
    // with their full candidate sets; every interior message is frozen at
    // its merged path.
    let cand: Vec<_> = candidates
        .iter()
        .zip(&home)
        .map(|(&alts, h)| h.is_none().then_some(alts))
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let stitch = hill_climb(
        &stitch_start,
        stitch_peak,
        &cand,
        num_links,
        bounds,
        intervals,
        activity,
        config,
        &mut rng,
    );

    let best = stitch.best.unwrap_or(stitch_start);
    let utilization = compute(&best);
    AssignPathsOutcome {
        assignment: best,
        utilization,
        baseline_peak: baseline_effective,
        restarts: restarts + stitch.restarts,
        trials: trials + stitch.trials,
        link_recomputes: link_recomputes + stitch.link_recomputes,
    }
}

/// What one [`hill_climb`] found and what it cost.
struct Climb {
    /// The best assignment seen, or `None` when nothing beat the start.
    best: Option<PathAssignment>,
    restarts: usize,
    trials: u64,
    link_recomputes: u64,
}

/// The restart loop shared by [`assign_paths_pooled`],
/// [`assign_paths_partial`] and [`assign_paths_partitioned`]: polish `start`
/// with [`improve`], then explore random restarts over `candidates`,
/// keeping the best peak seen. `candidates[i]` is `None` for a message
/// frozen at its `start` path.
///
/// One [`UtilEval`] serves the whole climb and is its working assignment:
/// `improve` runs its trials against it, the converged peak is read from
/// it, a restart moves it to the freshly drawn assignment (a draw equal to
/// the route a message already has changes nothing), and an owned
/// [`PathAssignment`] is built from it only when the climb records a new
/// best.
#[allow(clippy::too_many_arguments)]
fn hill_climb(
    start: &PathAssignment,
    start_peak: f64,
    candidates: &[Option<Alternatives<'_>>],
    num_links: usize,
    bounds: &TimeBounds,
    intervals: &Intervals,
    activity: &ActivityMatrix,
    config: &AssignPathsConfig,
    rng: &mut StdRng,
) -> Climb {
    // A peak below this is impossible: each message needs at least
    // duration/active-time of whichever links it ends up on.
    let lower_bound = (0..candidates.len())
        .filter(|&i| match candidates[i] {
            Some(alts) => alts.len() > 0 && alts.routes.hops > 0,
            None => start.path(MessageId(i)).hops() > 0,
        })
        .map(|i| {
            let m = MessageId(i);
            let at = activity.active_time(m, intervals);
            if at > 0.0 {
                bounds.window(m).duration() / at
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0f64, f64::max);

    // Start from the deterministic start point (so we can never end up
    // worse), then explore random restarts.
    let mut best = None;
    let mut best_peak = start_peak;
    let mut restarts = 0;
    let mut trials = 0;

    let start_rows = start.link_rows();
    let mut eval = UtilEval::new(
        start.routes(&start_rows),
        bounds,
        activity,
        intervals,
        num_links,
    );
    loop {
        trials += improve(&mut eval, candidates, config.max_inner);
        let peak = eval.effective_peak();
        debug_assert_eq!(
            peak.to_bits(),
            UtilizationMap::compute(&eval.assignment(), bounds, activity, intervals, num_links)
                .effective_peak()
                .to_bits(),
            "incremental evaluator drifted from a full recomputation"
        );
        if peak < best_peak - EPS {
            best = Some(eval.assignment());
            best_peak = peak;
        }
        restarts += 1;
        if restarts >= config.max_restarts.max(1) || best_peak <= lower_bound + EPS {
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

    Climb {
        best,
        restarts,
        trials,
        link_recomputes: eval.link_recomputes(),
    }
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
    /// topology family and on a masked fabric — the climb never derives a
    /// row again, so this is where the two are tied together.
    #[test]
    fn pooled_link_rows_equal_path_links_on_every_topology() {
        let torus = sr_topology::Torus::new(&[4, 5]).unwrap();
        let ghc = GeneralizedHypercube::new(&[4, 3, 2]).unwrap();
        let mesh = sr_topology::Mesh::new(&[3, 4]).unwrap();
        let faults = sr_topology::FaultSet::random_links(&torus, 6, 3).fail_node(NodeId(7));
        let masked = sr_topology::MaskedTopology::new(&torus, faults);
        let topos: [&dyn Topology; 4] = [&torus, &ghc, &mesh, &masked];
        for topo in topos {
            let pool = PathPool::new(topo, 16);
            let mut rows = 0;
            for src in (0..topo.num_nodes()).map(NodeId) {
                for dst in (0..topo.num_nodes()).map(NodeId) {
                    let routes = pool.routes(src, dst);
                    assert_eq!(routes.paths, topo.shortest_paths(src, dst, 16));
                    assert_eq!(pool.paths(src, dst), &routes.paths[..]);
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
}
