//! The resident admission engine: a topology, a tenant table, and a
//! deterministic online-admission ladder built on the incremental-repair
//! primitives in `sr-core`.
//!
//! # Model
//!
//! Every tenant shares the daemon's frame: one period and one [`Timing`]
//! model. A tenant's canonical state is its **standalone compile** — the
//! schedule its TFG would get on an empty network — plus the absolute
//! link-time spans that schedule occupies. The daemon's only allocator
//! state is the **ledger**: the union of admitted tenants' spans per link.
//! Its *specification* is a pure function of the tenant table
//! ([`Engine::ledger`]); its *implementation* is a set of maintained rows
//! ([`Engine::maintained_ledger`]) that an install extends and an eviction
//! shrinks by exactly the moving tenant's spans, equal to the recompute at
//! all times. Admission is the fault-repair generalization from "links
//! disappeared" to "messages arrived": the new tenant's rows are
//! (re-)derived against reserved capacity, and **no admitted tenant's
//! schedule is ever touched** — their rows stay pinned bit-identically by
//! construction, and the install check verifies (rather than assumes) it
//! before every commit: residents are immutable and already satisfy the
//! contract, so checking the arriving tenant against its neighbours on each
//! row is as strong as [`Engine::check_invariants`] over the whole table.
//! Debug builds and `serve-replay` run the whole-table check and the
//! recompute after every mutation anyway.
//!
//! # Admission ladder
//!
//! 1. **fast** — the memoized standalone schedule's spans fit the ledger's
//!    idle time (guard-separated) verbatim: admit it untouched. This is
//!    the warm path: no LP, no routing, sub-millisecond.
//! 2. **adapted** — same paths, new placement:
//!    [`sr_core::reallocate_pinned`] re-derives the tenant's rows with the
//!    ledger folded in as reserved capacity, warm-starting from the
//!    tenant's [`AllocBasisCache`], and packs them into ledger idle time.
//! 3. **rerouted** — links whose ledger occupancy exceeds the busy
//!    threshold are masked ([`MaskedTopology`], exactly like dead links in
//!    repair) and [`sr_core::assign_paths_partial`] re-routes the tenant
//!    around the hot spots, then rung 2's allocation ladder runs on the
//!    new paths.
//! 4. **best-effort** — no real-time guarantee: each message gets one
//!    contiguous guard-separated span on all links of its standalone path,
//!    earliest-fit, all-or-nothing.
//! 5. **reject** — with a [`sr_core::Diagnosis`]-rendered explanation when
//!    the standalone compile itself failed, and the tenant-path ledger
//!    saturation otherwise.
//!
//! Eviction removes the tenant from the table and exactly its spans from
//! the maintained rows, so the allocator state is bit-identical to never
//! having admitted the tenant. Per-tenant memos (standalone compile,
//! simplex bases, last admission result) survive eviction — they are
//! caches, not allocator state, and make evict-then-readmit reproduce the
//! original admission exactly when the ledger is unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::audit::{row_digest, spans_hash};
use sr_core::{
    assign_paths_partial, cmp_span, coalesce, compile_diagnosed, free_within, intersect,
    reallocate_pinned, AllocBasisCache, CompileConfig, FlowWorkspace, Schedule, EPS,
};
use sr_mapping::Allocation;
use sr_obs::{span_with, Recorder};
use sr_tfg::{from_text, MessageId, TaskFlowGraph, Timing};
use sr_topology::{FaultSet, LinkId, MaskedTopology, NodeId, Topology};

/// Per-link busy spans in absolute frame time, sorted and coalesced.
type Spans = BTreeMap<LinkId, Vec<(f64, f64)>>;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The shared frame period, µs. Every tenant compiles against it.
    pub period: f64,
    /// The shared platform timing model.
    pub timing: Timing,
    /// Standalone-compile configuration (window policy, guard time,
    /// feedback scales, parallelism, …). The guard time also separates
    /// tenants from each other on the ledger.
    pub compile: CompileConfig,
    /// Capacity scales for the adapt/re-route allocation ladder (rungs 2
    /// and 3). Empty means `[1.0]`.
    pub feedback_scales: Vec<f64>,
    /// A link is masked in the re-route rung when its ledger occupancy
    /// exceeds this fraction of the period.
    pub reroute_busy_threshold: f64,
    /// Per-tenant memo capacity (standalone compiles + simplex bases kept
    /// across evictions). Least-recently-used entries are dropped.
    /// `srsched serve` has no flag for it and runs with the default; set it
    /// on the config when embedding an [`Engine`].
    pub memo_capacity: usize,
    /// Worker threads for batch-admission standalone compiles (`0` = one
    /// per hardware thread, `1` = serial).
    pub batch_threads: usize,
    /// Verify the pinning contract at install (cross-tenant overlap
    /// freedom + span/schedule consistency of the arriving tenant). Admits
    /// that would violate pinning are refused before anything is committed
    /// and reported as internal errors instead of corrupting the ledger.
    pub paranoid: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            period: 100.0,
            timing: Timing::new(64.0, 10.0),
            compile: CompileConfig::default(),
            feedback_scales: vec![1.0, 0.9, 0.8],
            reroute_busy_threshold: 0.5,
            memo_capacity: 64,
            batch_threads: 1,
            paranoid: true,
        }
    }
}

/// Where a tenant may be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Explicit node id per task, in task order.
    Nodes(Vec<usize>),
    /// A strategy name: `greedy`, `roundrobin`, or `scatter:<seed>`.
    Strategy(String),
}

/// One admission request: a named TFG (text format) plus placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Unique tenant name.
    pub name: String,
    /// The traffic-flow graph, in `sr_tfg::from_text` format.
    pub tfg_text: String,
    /// Task placement.
    pub placement: Placement,
    /// Allow the best-effort rung when real-time admission fails.
    pub best_effort: bool,
}

/// Which ladder rung admitted a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitRung {
    /// Standalone schedule admitted verbatim.
    Fast,
    /// Same paths, rows re-derived against the ledger.
    Adapted,
    /// Re-routed around hot links, then re-derived.
    Rerouted,
    /// Best-effort grants only; no real-time guarantee.
    BestEffort,
}

impl AdmitRung {
    /// Stable lowercase label (wire format).
    pub fn label(self) -> &'static str {
        match self {
            AdmitRung::Fast => "fast",
            AdmitRung::Adapted => "adapted",
            AdmitRung::Rerouted => "rerouted",
            AdmitRung::BestEffort => "best_effort",
        }
    }
}

/// One best-effort grant: the message and its single transmission span.
#[derive(Debug, Clone, PartialEq)]
pub struct Grant {
    /// The granted message.
    pub message: MessageId,
    /// Span start, µs (equal to `end` for link-less messages).
    pub start: f64,
    /// Span end, µs.
    pub end: f64,
}

/// An admitted tenant.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Tenant name.
    pub name: String,
    /// Admission sequence number (monotonic across the engine's life).
    pub seq: u64,
    /// The tenant's TFG.
    pub tfg: TaskFlowGraph,
    /// Task placement, node per task.
    pub placement: Vec<NodeId>,
    /// The tenant's real-time schedule (`None` for best-effort tenants),
    /// shared with the memo it came from: a schedule is never mutated once
    /// built, so sharing it is the same as copying it.
    pub schedule: Option<Arc<Schedule>>,
    /// Best-effort grants (empty for real-time tenants).
    pub grants: Vec<Grant>,
    /// This tenant's link-time occupancy: sorted, coalesced spans per link.
    pub spans: BTreeMap<LinkId, Vec<(f64, f64)>>,
    /// Which rung admitted it.
    pub rung: AdmitRung,
    /// Capacity scale the admission succeeded at (1.0 for fast/best-effort).
    pub scale: f64,
}

/// What [`Engine::admit`] reports on success.
#[derive(Debug, Clone)]
pub struct AdmitReport {
    /// Tenant name.
    pub name: String,
    /// Which rung admitted it.
    pub rung: AdmitRung,
    /// Capacity scale of the successful allocation.
    pub scale: f64,
    /// Whether the standalone compile came from the per-tenant memo.
    pub memo_hit: bool,
    /// Whether the whole admission replayed a memoized result (identical
    /// spec against an identical ledger).
    pub replayed: bool,
    /// Messages in the tenant's TFG.
    pub messages: usize,
    /// Links the tenant occupies.
    pub links_used: usize,
    /// Ladder rungs attempted (0 for a replayed admission: the ladder
    /// never ran).
    pub rungs_tried: usize,
    /// Wall-clock admission latency, µs. 0 when the recorder is disabled —
    /// the no-op path takes no timestamps at all.
    pub latency_us: f64,
    /// Per-stage wall-clock breakdown in ladder order, µs (empty when the
    /// recorder is disabled). Never rendered on the wire — responses stay
    /// byte-deterministic; this feeds the audit journal and histograms.
    pub ladder_us: Vec<(&'static str, f64)>,
}

/// Why [`Engine::admit`] failed.
#[derive(Debug, Clone)]
pub enum AdmitError {
    /// A tenant with this name is already admitted.
    Duplicate(String),
    /// The spec does not parse or place.
    InvalidSpec(String),
    /// The ladder was exhausted.
    Infeasible(Rejection),
    /// The install check refused the tenant; nothing was committed.
    Internal(String),
}

/// Why [`Engine::evict`] failed. Either way the table, the ledger and the
/// memos are as they were.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictError {
    /// No tenant with this name is admitted.
    UnknownTenant(String),
    /// A span of the departing tenant is not in the maintained ledger — a
    /// bug in this program, surfaced instead of half-applied.
    Internal(String),
}

impl std::fmt::Display for EvictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictError::UnknownTenant(name) => write!(f, "no tenant named \"{name}\""),
            EvictError::Internal(detail) => f.write_str(detail),
        }
    }
}

/// Structured rejection detail for the `infeasible` error response.
#[derive(Debug, Clone, Default)]
pub struct Rejection {
    /// Human-readable summary.
    pub detail: String,
    /// Rendered [`sr_core::Diagnosis`] when the standalone compile itself
    /// failed (the PR-7 explainer's output).
    pub diagnosis: Option<String>,
    /// Ledger saturation on the tenant's path links: `(link, busy µs)`,
    /// busiest first.
    pub saturated: Vec<(LinkId, f64)>,
    /// Ladder rungs consumed before rejecting.
    pub rungs_tried: usize,
    /// Wall-clock latency of the rejected admission, µs (0 when the
    /// recorder is disabled).
    pub latency_us: f64,
    /// Per-stage wall-clock breakdown in ladder order, µs (empty when the
    /// recorder is disabled).
    pub ladder_us: Vec<(&'static str, f64)>,
}

/// Wall-clock per-stage lap timer for the admission ladder. Inert (no
/// timestamps taken) unless constructed enabled, so the no-op recorder
/// path stays free.
struct LadderTimer {
    last: Option<std::time::Instant>,
    laps: Vec<(&'static str, f64)>,
}

impl LadderTimer {
    fn new(enabled: bool) -> LadderTimer {
        LadderTimer {
            last: enabled.then(std::time::Instant::now),
            laps: Vec::new(),
        }
    }

    /// Records the time since the previous checkpoint under `label`.
    fn lap(&mut self, label: &'static str) {
        if let Some(t) = self.last {
            self.laps.push((label, t.elapsed().as_secs_f64() * 1e6));
            self.last = Some(std::time::Instant::now());
        }
    }
}

/// A memoized admission result, replayed verbatim when the same spec is
/// admitted against a bit-identical ledger. `fingerprint` is the ledger's
/// fingerprint at the time, a fast reject only: a replay is granted on
/// `ledger` equality, never on the hash.
#[derive(Debug, Clone)]
struct LastResult {
    ledger: FrozenLedger,
    fingerprint: u64,
    tenant: Tenant,
    rung: AdmitRung,
    scale: f64,
}

/// A copy of the ledger as two flat arrays — each row's link and length,
/// then every span in link order — so that taking one costs two
/// allocations rather than one per row.
#[derive(Debug, Clone)]
struct FrozenLedger {
    rows: Vec<(LinkId, usize)>,
    spans: Vec<(f64, f64)>,
}

impl FrozenLedger {
    fn of(ledger: &Spans) -> FrozenLedger {
        let mut frozen = FrozenLedger {
            rows: Vec::with_capacity(ledger.len()),
            spans: Vec::with_capacity(ledger.values().map(Vec::len).sum()),
        };
        for (&l, row) in ledger {
            frozen.rows.push((l, row.len()));
            frozen.spans.extend_from_slice(row);
        }
        frozen
    }

    /// Whether `ledger` holds exactly these rows: the verdict of `==`
    /// between the ledger this was taken from and `ledger`.
    fn equals(&self, ledger: &Spans) -> bool {
        let mut at = 0;
        self.rows.len() == ledger.len()
            && self.rows.iter().zip(ledger).all(|(&(l, len), (&k, row))| {
                let mine = &self.spans[at..at + len];
                at += len;
                l == k && mine == row.as_slice()
            })
    }
}

/// Per-tenant memo: the standalone compile, warm simplex bases, and the
/// last admission result. Survives eviction (it is a cache, not allocator
/// state). It is keyed by the spec's TFG text and its placement, node for
/// node.
#[derive(Debug)]
struct MemoEntry {
    tfg_text: String,
    tfg: TaskFlowGraph,
    placement: Vec<NodeId>,
    schedule: Option<Arc<Schedule>>,
    diagnosis: Option<String>,
    cache: AllocBasisCache,
    /// Flow-kernel workspace, the [`cache`](MemoEntry::cache) mirror for
    /// `AllocEngine::Flow` adapt rungs: buffers reused across this
    /// tenant's admissions.
    flow_ws: FlowWorkspace,
    last: Option<LastResult>,
    age: u64,
}

impl MemoEntry {
    /// Whether this entry memoizes `tfg_text` placed on `nodes`, node for
    /// node.
    fn holds(&self, tfg_text: &str, nodes: impl IntoIterator<Item = usize>) -> bool {
        self.tfg_text == tfg_text && self.placement.iter().map(|n| n.0).eq(nodes)
    }
}

/// The resident admission engine. See the module docs for the model.
pub struct Engine {
    topo: Box<dyn Topology>,
    cfg: ServeConfig,
    tenants: BTreeMap<String, Tenant>,
    /// The maintained ledger: `== self.ledger()` after every mutation.
    live: Spans,
    /// `spans_hash(&self.live)`, kept row by row as rows change.
    fingerprint: u64,
    memo: BTreeMap<String, MemoEntry>,
    admit_seq: u64,
    memo_clock: u64,
}

impl Engine {
    /// A fresh engine owning `topo` with no tenants admitted.
    pub fn new(topo: Box<dyn Topology>, cfg: ServeConfig) -> Engine {
        Engine {
            topo,
            cfg,
            tenants: BTreeMap::new(),
            live: Spans::new(),
            fingerprint: spans_hash(&Spans::new()),
            memo: BTreeMap::new(),
            admit_seq: 0,
            memo_clock: 0,
        }
    }

    /// The engine's topology.
    pub fn topo(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The admitted tenant with this name, if any.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.get(name)
    }

    /// All admitted tenants, in name order.
    pub fn tenants(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.values()
    }

    /// The ledger recomputed: every admitted tenant's occupancy merged,
    /// per link, sorted by span start. A pure function of the tenant table
    /// — the *specification* of the allocator state, which is what makes
    /// eviction restore it bit-identically to never having admitted the
    /// tenant. The hot path reads [`Engine::maintained_ledger`]; this is
    /// what debug builds, tests and `serve-replay` hold it to.
    pub fn ledger(&self) -> BTreeMap<LinkId, Vec<(f64, f64)>> {
        let mut out: BTreeMap<LinkId, Vec<(f64, f64)>> = BTreeMap::new();
        for t in self.tenants.values() {
            for (&l, spans) in &t.spans {
                out.entry(l).or_default().extend(spans.iter().copied());
            }
        }
        for spans in out.values_mut() {
            spans.sort_by(cmp_span);
        }
        out
    }

    /// The ledger as maintained state: the rows `install` extends and
    /// `evict` shrinks, equal to [`Engine::ledger`] after every mutation.
    pub fn maintained_ledger(&self) -> &BTreeMap<LinkId, Vec<(f64, f64)>> {
        &self.live
    }

    /// The maintained ledger's fingerprint, kept as rows change (read it
    /// through [`crate::audit::ledger_hash`]).
    pub(crate) fn kept_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Replaces the maintained row of `link` with what `edit` leaves of it,
    /// keeping the fingerprint: the row's old digest leaves the sum, its new
    /// one joins it, and a row left empty is dropped and contributes
    /// nothing.
    fn edit_row(&mut self, link: LinkId, edit: impl FnOnce(&mut Vec<(f64, f64)>)) {
        let row = self.live.entry(link).or_default();
        let old = if row.is_empty() {
            0
        } else {
            row_digest(link, row)
        };
        edit(row);
        let new = if row.is_empty() {
            self.live.remove(&link);
            0
        } else {
            row_digest(link, row)
        };
        self.fingerprint = self.fingerprint.wrapping_sub(old).wrapping_add(new);
    }

    /// Debug builds hold the maintained rows and their kept fingerprint to
    /// the specification after every mutation; release builds leave that
    /// to `serve-replay`.
    fn debug_check(&self) {
        debug_assert_eq!(self.live, self.ledger(), "maintained ledger diverged");
        debug_assert_eq!(
            self.fingerprint,
            spans_hash(&self.ledger()),
            "kept fingerprint diverged"
        );
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Admits one tenant through the degradation ladder.
    ///
    /// When the recorder is enabled, the resolution latency lands in a
    /// per-outcome histogram (`serve.admit_latency.{replay,fast,adapted,
    /// rerouted,best_effort,reject}`) and the report/rejection carries the
    /// wall-clock total plus a per-stage ladder breakdown. The no-op
    /// recorder path takes no timestamps.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] — duplicate name, invalid spec, ladder exhausted, or
    /// an install the pinning check refused.
    pub fn admit(
        &mut self,
        spec: &TenantSpec,
        rec: &dyn Recorder,
    ) -> Result<AdmitReport, AdmitError> {
        let t0 = rec.enabled().then(std::time::Instant::now);
        let mut timer = LadderTimer::new(t0.is_some());
        let mut result = self.admit_inner(spec, rec, &mut timer);
        if let Some(t0) = t0 {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let metric = match &result {
                Ok(r) if r.replayed => Some("serve.admit_latency.replay"),
                Ok(r) => Some(match r.rung {
                    AdmitRung::Fast => "serve.admit_latency.fast",
                    AdmitRung::Adapted => "serve.admit_latency.adapted",
                    AdmitRung::Rerouted => "serve.admit_latency.rerouted",
                    AdmitRung::BestEffort => "serve.admit_latency.best_effort",
                }),
                Err(AdmitError::Infeasible(_)) => Some("serve.admit_latency.reject"),
                Err(_) => None,
            };
            if let Some(m) = metric {
                rec.observe(m, us);
            }
            match &mut result {
                Ok(r) => {
                    r.latency_us = us;
                    r.ladder_us = std::mem::take(&mut timer.laps);
                }
                Err(AdmitError::Infeasible(rej)) => {
                    rej.latency_us = us;
                    rej.ladder_us = std::mem::take(&mut timer.laps);
                }
                Err(_) => {}
            }
        }
        result
    }

    /// The admission ladder body; `admit` wraps it with outcome timing.
    fn admit_inner(
        &mut self,
        spec: &TenantSpec,
        rec: &dyn Recorder,
        timer: &mut LadderTimer,
    ) -> Result<AdmitReport, AdmitError> {
        let span = span_with(rec, "serve.admit", || spec.name.clone());
        rec.add("serve.admit", 1);
        if spec.name.is_empty() {
            return Err(AdmitError::InvalidSpec("tenant name is empty".into()));
        }
        if self.tenants.contains_key(&spec.name) {
            return Err(AdmitError::Duplicate(spec.name.clone()));
        }
        let memo_hit = self.memoize(spec, rec)?;
        rec.add(
            if memo_hit {
                "serve.admit.memo_hits"
            } else {
                "serve.admit.memo_misses"
            },
            1,
        );
        timer.lap("compile");
        let ledger = &self.live;
        let guard = self.cfg.compile.guard_time;

        // Replay: identical spec against a bit-identical ledger reproduces
        // the previous admission exactly (the evict-then-readmit
        // determinism guarantee). The kept fingerprint rejects a changed
        // ledger in O(1); only the rows themselves grant a replay.
        let entry = self.memo.get(&spec.name).expect("memoized above");
        if let Some(last) = &entry.last {
            if last.fingerprint == self.fingerprint && last.ledger.equals(ledger) {
                rec.add("serve.admit.replayed", 1);
                let mut tenant = last.tenant.clone();
                let (rung, scale) = (last.rung, last.scale);
                tenant.seq = self.admit_seq;
                span.annotate("rung", 0.0);
                timer.lap("replay");
                return self.install(tenant, rung, scale, memo_hit, true, rec);
            }
        }

        // Rung 1: fast path — the standalone schedule fits verbatim.
        if let Some(sched) = entry.schedule.clone() {
            let spans = sched.busy_spans();
            let fits_verbatim = fits(&spans, ledger, guard);
            timer.lap("fast");
            if fits_verbatim {
                rec.add("serve.admit.fast", 1);
                let tenant = Tenant {
                    name: spec.name.clone(),
                    seq: self.admit_seq,
                    tfg: entry.tfg.clone(),
                    placement: entry.placement.clone(),
                    schedule: Some(sched),
                    grants: Vec::new(),
                    spans,
                    rung: AdmitRung::Fast,
                    scale: 1.0,
                };
                return self.install(tenant, AdmitRung::Fast, 1.0, memo_hit, false, rec);
            }

            // Rung 2: adapt — same paths, rows re-derived against the
            // ledger's reserved capacity, packed into its idle time.
            rec.add("serve.admit.adapt_attempts", 1);
            let affected = linked_messages(&sched);
            let scales = self.cfg.feedback_scales.clone();
            let mut attempts = Vec::new();
            let entry = self.memo.get_mut(&spec.name).expect("memoized above");
            let adapted = reallocate_pinned(
                &sched,
                sched.assignment(),
                &affected,
                &BTreeSet::new(),
                ledger,
                &scales,
                self.cfg.compile.alloc_engine,
                &mut entry.cache,
                &mut entry.flow_ws,
                "serve",
                rec,
                &mut attempts,
            );
            timer.lap("adapt");
            if let Some(rp) = adapted {
                rec.add("serve.admit.adapted", 1);
                let patched = sched.patched(
                    sched.assignment().clone(),
                    rp.allocation,
                    rp.segments,
                    self.topo.as_ref(),
                );
                let spans = patched.busy_spans();
                let tenant = Tenant {
                    name: spec.name.clone(),
                    seq: self.admit_seq,
                    tfg: entry.tfg.clone(),
                    placement: entry.placement.clone(),
                    schedule: Some(Arc::new(patched)),
                    grants: Vec::new(),
                    spans,
                    rung: AdmitRung::Adapted,
                    scale: rp.scale,
                };
                return self.install(tenant, AdmitRung::Adapted, rp.scale, memo_hit, false, rec);
            }

            // Rung 3: re-route around hot links, then re-derive.
            let rerouted = self.try_reroute(&sched, ledger, rec);
            timer.lap("reroute");
            if let Some((rerouted, scale)) = rerouted {
                rec.add("serve.admit.rerouted", 1);
                let spans = rerouted.busy_spans();
                let entry = self.memo.get(&spec.name).expect("memoized above");
                let tenant = Tenant {
                    name: spec.name.clone(),
                    seq: self.admit_seq,
                    tfg: entry.tfg.clone(),
                    placement: entry.placement.clone(),
                    schedule: Some(Arc::new(rerouted)),
                    grants: Vec::new(),
                    spans,
                    rung: AdmitRung::Rerouted,
                    scale,
                };
                return self.install(tenant, AdmitRung::Rerouted, scale, memo_hit, false, rec);
            }
        }

        // Rung 4: best-effort (single guard-separated span per message on
        // the standalone paths, no real-time guarantee).
        let entry = self.memo.get(&spec.name).expect("memoized above");
        if spec.best_effort {
            if let Some(sched) = &entry.schedule {
                let grants = self.try_best_effort(sched, ledger);
                timer.lap("best_effort");
                if let Some((grants, spans)) = grants {
                    rec.add("serve.admit.best_effort", 1);
                    let tenant = Tenant {
                        name: spec.name.clone(),
                        seq: self.admit_seq,
                        tfg: entry.tfg.clone(),
                        placement: entry.placement.clone(),
                        schedule: None,
                        grants,
                        spans,
                        rung: AdmitRung::BestEffort,
                        scale: 1.0,
                    };
                    return self.install(tenant, AdmitRung::BestEffort, 1.0, memo_hit, false, rec);
                }
            }
        }

        // Rung 5: reject, with the best explanation available.
        timer.lap("reject");
        rec.add("serve.admit.rejected", 1);
        let entry = self.memo.get(&spec.name).expect("memoized above");
        let mut rejection = Rejection::default();
        if let Some(diag) = &entry.diagnosis {
            rejection.detail = format!(
                "tenant \"{}\" does not compile standalone at period {}",
                spec.name, self.cfg.period
            );
            rejection.diagnosis = Some(diag.clone());
            rejection.rungs_tried = 1;
        } else {
            rejection.detail = format!(
                "tenant \"{}\" cannot be admitted against the current ledger",
                spec.name
            );
            rejection.rungs_tried = if spec.best_effort { 4 } else { 3 };
            if let Some(sched) = &entry.schedule {
                rejection.saturated = self.saturation(sched, ledger);
            }
        }
        Err(AdmitError::Infeasible(rejection))
    }

    /// Admits a batch: standalone compiles for memo misses run through the
    /// `sr-par` pool concurrently (they are pure), then the admissions
    /// themselves run serially in request order — so the outcome is
    /// deterministic and identical to admitting one by one.
    pub fn admit_batch(
        &mut self,
        specs: &[TenantSpec],
        rec: &dyn Recorder,
    ) -> Vec<Result<AdmitReport, AdmitError>> {
        rec.add("serve.batch", 1);
        rec.add("serve.batch.tenants", specs.len() as u64);
        // Precompile memo misses in parallel. Duplicate names within the
        // batch are resolved by the serial pass below.
        let mut misses: Vec<(&TenantSpec, TaskFlowGraph, Allocation)> = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for spec in specs {
            if !seen.insert(spec.name.clone()) || self.tenants.contains_key(&spec.name) {
                continue;
            }
            // A spec that does not parse is reported by the serial pass.
            if let Ok(Some((tfg, alloc))) = self.memo_miss(spec) {
                misses.push((spec, tfg, alloc));
            }
        }
        let topo = self.topo.as_ref();
        let cfg = &self.cfg;
        let compiled = sr_par::par_map(&misses, cfg.batch_threads, |(_, tfg, alloc)| {
            let (result, diag) =
                compile_diagnosed(topo, tfg, alloc, &cfg.timing, cfg.period, &cfg.compile, rec);
            match result {
                Ok(s) => (Some(Arc::new(s)), None),
                Err(_) => (None, Some(diag.render_text(topo, tfg))),
            }
        });
        let clock = self.memo_clock;
        for ((spec, tfg, alloc), (schedule, diagnosis)) in misses.into_iter().zip(compiled) {
            let placement = alloc.placement().to_vec();
            self.memo.insert(
                spec.name.clone(),
                MemoEntry {
                    tfg_text: spec.tfg_text.clone(),
                    tfg,
                    placement,
                    schedule,
                    diagnosis,
                    cache: AllocBasisCache::new(),
                    flow_ws: FlowWorkspace::new(),
                    last: None,
                    age: clock,
                },
            );
        }
        self.trim_memo(None);
        specs.iter().map(|s| self.admit(s, rec)).collect()
    }

    /// Evicts a tenant, restoring the ledger to a state bit-identical to
    /// never having admitted it: exactly the tenant's spans leave the
    /// maintained rows, and a row left empty is dropped. All-or-nothing —
    /// every departing span is located before anything is removed. The
    /// tenant's memos survive for cheap re-admission.
    ///
    /// # Errors
    ///
    /// [`EvictError`] — no such tenant, or a span of it missing from the
    /// ledger; either way nothing was changed.
    pub fn evict(&mut self, name: &str, rec: &dyn Recorder) -> Result<(), EvictError> {
        let t0 = rec.enabled().then(std::time::Instant::now);
        let _span = span_with(rec, "serve.evict", || name.to_string());
        let Some(tenant) = self.tenants.get(name) else {
            return Err(EvictError::UnknownTenant(name.to_string()));
        };
        let mut departing: Vec<(LinkId, Vec<usize>)> = Vec::with_capacity(tenant.spans.len());
        for (&l, spans) in &tenant.spans {
            let found = self.live.get(&l).and_then(|row| locate(row, spans));
            let Some(at) = found else {
                // Unreachable unless the ledger was corrupted; surface
                // loudly but do not panic (protocol contract).
                rec.add("serve.invariant_violations", 1);
                return Err(EvictError::Internal(format!(
                    "eviction of \"{name}\" refused: its spans on link {l} are not in the ledger"
                )));
            };
            departing.push((l, at));
        }
        let mut moved = 0;
        for (l, at) in &departing {
            self.edit_row(*l, |row| {
                for &i in at.iter().rev() {
                    row.remove(i);
                }
            });
            moved += at.len();
        }
        self.tenants.remove(name);
        rec.add("serve.evict", 1);
        rec.add("serve.ledger.spans_moved", moved as u64);
        rec.add("serve.ledger.rows_touched", departing.len() as u64);
        self.debug_check();
        if let Some(t0) = t0 {
            rec.observe("serve.evict_latency", t0.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    }

    /// Verifies the pinning contract over the whole table: every tenant's
    /// stored spans match its stored schedule/grants exactly, and no two
    /// tenants' spans overlap on any link. `Err` describes the first
    /// violation found.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Spans must be derivable from the stored schedule — if a stored
        // schedule had been perturbed by a later admission, this is where
        // it would surface. (Best-effort tenants carry spans in their
        // grants; the cross-tenant sweep below still covers them.)
        for t in self.tenants.values() {
            if let Some(s) = &t.schedule {
                if s.busy_spans() != t.spans {
                    return Err(format!(
                        "tenant \"{}\" spans diverge from its schedule",
                        t.name
                    ));
                }
            }
        }
        // Cross-tenant overlap freedom per link.
        let mut per_link: BTreeMap<LinkId, Vec<(f64, f64, &str)>> = BTreeMap::new();
        for t in self.tenants.values() {
            for (&l, spans) in &t.spans {
                let e = per_link.entry(l).or_default();
                for &(s, end) in spans {
                    e.push((s, end, t.name.as_str()));
                }
            }
        }
        // Sweep by start, keeping the latest end seen and its owner plus the
        // latest end of any *other* owner: each span is held to the latest
        // end of an owner not its own. Comparing start-order neighbours
        // instead would let a tenant whose own spans overlap hide a third
        // tenant's clash behind them.
        for (l, spans) in per_link.iter_mut() {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            // (end, owner): the latest end, and the latest of another owner.
            let mut latest: Option<(f64, &str)> = None;
            let mut other: Option<(f64, &str)> = None;
            for &(s1, e1, n1) in spans.iter() {
                let rival = if latest.is_some_and(|(_, n)| n == n1) {
                    other
                } else {
                    latest
                };
                if let Some((e0, n0)) = rival.filter(|&(e0, _)| s1 < e0 - EPS) {
                    return Err(format!(
                        "tenants \"{n0}\" and \"{n1}\" overlap on link {l} ({s1:.3} < {e0:.3})"
                    ));
                }
                match latest {
                    Some((e, n)) if n == n1 => latest = Some((e.max(e1), n)),
                    Some((e, _)) if e1 <= e => {
                        if other.is_none_or(|(o, _)| e1 > o) {
                            other = Some((e1, n1));
                        }
                    }
                    _ => {
                        other = latest;
                        latest = Some((e1, n1));
                    }
                }
            }
        }
        Ok(())
    }

    /// Parses and places a spec (no compile).
    fn parse_spec(&self, spec: &TenantSpec) -> Result<(TaskFlowGraph, Allocation), String> {
        let tfg = from_text(&spec.tfg_text).map_err(|e| format!("tfg: {e}"))?;
        let alloc = match &spec.placement {
            Placement::Nodes(nodes) => {
                let placement: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
                Allocation::new(placement, &tfg, self.topo.as_ref())
                    .map_err(|e| format!("placement: {e}"))?
            }
            Placement::Strategy(s) => match s.as_str() {
                "greedy" => sr_mapping::greedy(&tfg, self.topo.as_ref()),
                "roundrobin" => sr_mapping::round_robin(&tfg, self.topo.as_ref()),
                other => match other.strip_prefix("scatter:").map(str::parse::<u64>) {
                    Some(Ok(seed)) => sr_mapping::random_distinct(&tfg, self.topo.as_ref(), seed)
                        .map_err(|e| format!("placement: {e}"))?,
                    _ => {
                        return Err(format!(
                            "unknown placement strategy \"{other}\" \
                             (expected greedy, roundrobin, or scatter:<seed>)"
                        ))
                    }
                },
            },
        };
        Ok((tfg, alloc))
    }

    /// `None` when the memo holds this spec's standalone compile, the
    /// parsed spec when it does not. A spec placed by node list is compared
    /// as given — an entry exists only for a spec that parsed and placed,
    /// so a hit needs no parse; a strategy has to be parsed and run to know
    /// its nodes.
    fn memo_miss(&self, spec: &TenantSpec) -> Result<Option<(TaskFlowGraph, Allocation)>, String> {
        let entry = self.memo.get(&spec.name);
        if let Placement::Nodes(nodes) = &spec.placement {
            if entry.is_some_and(|e| e.holds(&spec.tfg_text, nodes.iter().copied())) {
                return Ok(None);
            }
        }
        let (tfg, alloc) = self.parse_spec(spec)?;
        let placed = alloc.placement().iter().map(|n| n.0);
        let held = entry.is_some_and(|e| e.holds(&spec.tfg_text, placed));
        Ok((!held).then_some((tfg, alloc)))
    }

    /// Ensures the per-tenant memo holds this spec's standalone compile.
    /// Returns whether it was already there (memo hit).
    fn memoize(&mut self, spec: &TenantSpec, rec: &dyn Recorder) -> Result<bool, AdmitError> {
        let miss = self.memo_miss(spec).map_err(AdmitError::InvalidSpec)?;
        self.memo_clock += 1;
        let Some((tfg, alloc)) = miss else {
            self.memo.get_mut(&spec.name).expect("held above").age = self.memo_clock;
            return Ok(true);
        };
        let _span = span_with(rec, "serve.compile_standalone", || spec.name.clone());
        let (result, diag) = compile_diagnosed(
            self.topo.as_ref(),
            &tfg,
            &alloc,
            &self.cfg.timing,
            self.cfg.period,
            &self.cfg.compile,
            rec,
        );
        let (schedule, diagnosis) = match result {
            Ok(s) => (Some(Arc::new(s)), None),
            Err(_) => (None, Some(diag.render_text(self.topo.as_ref(), &tfg))),
        };
        let placement = alloc.placement().to_vec();
        self.memo.insert(
            spec.name.clone(),
            MemoEntry {
                tfg_text: spec.tfg_text.clone(),
                tfg,
                placement,
                schedule,
                diagnosis,
                cache: AllocBasisCache::new(),
                flow_ws: FlowWorkspace::new(),
                last: None,
                age: self.memo_clock,
            },
        );
        self.trim_memo(Some(&spec.name));
        Ok(false)
    }

    /// Drops least-recently-used memo entries beyond the configured
    /// capacity. Entries of currently admitted tenants are kept, and so is
    /// `keep` — the entry an admission in flight is about to read — so the
    /// memo exceeds its capacity while residents pin it.
    fn trim_memo(&mut self, keep: Option<&str>) {
        while self.memo.len() > self.cfg.memo_capacity.max(1) {
            let victim = self
                .memo
                .iter()
                .filter(|(name, _)| {
                    !self.tenants.contains_key(*name) && keep != Some(name.as_str())
                })
                .min_by_key(|(_, e)| e.age)
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.memo.remove(&name);
                }
                None => break,
            }
        }
    }

    /// The pinning contract for one arriving tenant, checked against the
    /// maintained rows before anything is committed: its spans are the
    /// spans of its schedule, and each clears the resident span before and
    /// after it on its link. Residents cannot change behind `&Tenant`, the
    /// empty table satisfies [`Engine::check_invariants`] and eviction only
    /// removes, so by induction this refuses exactly what the whole-table
    /// check would refuse after the insert.
    ///
    /// That argument is unchanged by the whole-table check holding each
    /// span to the latest end of any other owner rather than to its
    /// start-order neighbour: the two differ only on a tenant whose own
    /// spans on a link overlap, and every tenant the engine installs has
    /// coalesced rows ([`Schedule::busy_spans`] and the best-effort rung
    /// both coalesce), so every maintained row stays sorted with each span
    /// clearing the next.
    fn check_arrival(&self, tenant: &Tenant) -> Result<(), String> {
        if let Some(s) = &tenant.schedule {
            if s.busy_spans() != tenant.spans {
                return Err(format!(
                    "tenant \"{}\" spans diverge from its schedule",
                    tenant.name
                ));
            }
        }
        for (l, mine) in &tenant.spans {
            let Some(row) = self.live.get(l) else {
                continue;
            };
            for span in mine {
                let at = row.partition_point(|r| cmp_span(r, span).is_lt());
                // (end of the earlier span, start of the later one) for the
                // resident on either side of the arriving span's place.
                let neighbours = [
                    at.checked_sub(1).map(|i| (row[i].1, span.0)),
                    row.get(at).map(|next| (span.1, next.0)),
                ];
                for (e0, s1) in neighbours.into_iter().flatten() {
                    if s1 < e0 - EPS {
                        return Err(format!(
                            "tenant \"{}\" overlaps a resident on link {l} ({s1:.3} < {e0:.3})",
                            tenant.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Commits an admission: verifies the pinning contract (refusing on
    /// violation, nothing touched), memoizes a ladder result for replay,
    /// merges the tenant's spans into the maintained rows, stores the
    /// tenant, and builds the report.
    fn install(
        &mut self,
        tenant: Tenant,
        rung: AdmitRung,
        scale: f64,
        memo_hit: bool,
        replayed: bool,
        rec: &dyn Recorder,
    ) -> Result<AdmitReport, AdmitError> {
        if self.cfg.paranoid {
            if let Err(e) = self.check_arrival(&tenant) {
                rec.add("serve.invariant_violations", 1);
                return Err(AdmitError::Internal(format!(
                    "admission of \"{}\" would violate the pinning contract and was refused: {e}",
                    tenant.name
                )));
            }
        }
        let rungs_tried = if replayed {
            0
        } else {
            match rung {
                AdmitRung::Fast => 1,
                AdmitRung::Adapted => 2,
                AdmitRung::Rerouted => 3,
                AdmitRung::BestEffort => 4,
            }
        };
        let report = AdmitReport {
            name: tenant.name.clone(),
            rung,
            scale,
            memo_hit,
            replayed,
            messages: tenant.tfg.num_messages(),
            links_used: tenant.spans.len(),
            rungs_tried,
            latency_us: 0.0,
            ladder_us: Vec::new(),
        };
        // A replayed admission leaves the memoized result as it found it:
        // same ledger, same tenant.
        if !replayed {
            if let Some(entry) = self.memo.get_mut(&tenant.name) {
                entry.last = Some(LastResult {
                    ledger: FrozenLedger::of(&self.live),
                    fingerprint: self.fingerprint,
                    tenant: tenant.clone(),
                    rung,
                    scale,
                });
            }
        }
        let mut moved = 0;
        for (&l, spans) in &tenant.spans {
            self.edit_row(l, |row| {
                row.extend_from_slice(spans);
                row.sort_by(cmp_span);
            });
            moved += spans.len();
        }
        rec.add("serve.ledger.spans_moved", moved as u64);
        rec.add("serve.ledger.rows_touched", tenant.spans.len() as u64);
        self.tenants.insert(tenant.name.clone(), tenant);
        self.admit_seq += 1;
        self.debug_check();
        Ok(report)
    }

    /// The re-route rung: mask links whose ledger occupancy exceeds the
    /// busy threshold, re-route the tenant around them with
    /// `assign_paths_partial` (standalone paths as the frozen base), then
    /// run the reserved allocation ladder on the new paths.
    fn try_reroute(
        &self,
        sched: &Schedule,
        ledger: &BTreeMap<LinkId, Vec<(f64, f64)>>,
        rec: &dyn Recorder,
    ) -> Option<(Schedule, f64)> {
        rec.add("serve.admit.reroute_attempts", 1);
        let period = self.cfg.period;
        let mut faults = FaultSet::new();
        let mut masked_any = false;
        for (&l, spans) in ledger {
            let busy: f64 = spans.iter().map(|&(s, e)| e - s).sum();
            if busy / period >= self.cfg.reroute_busy_threshold {
                faults = faults.fail_link(l);
                masked_any = true;
            }
        }
        if !masked_any {
            return None; // nothing to route around
        }
        let masked = MaskedTopology::new(self.topo.as_ref(), faults);
        let affected = linked_messages(sched);
        // Panic-freedom precheck (protocol contract): partial assignment
        // requires a route for every affected message.
        for &m in &affected {
            let p = sched.assignment().path(m);
            if !masked.connects(p.source(), p.destination()) {
                rec.add("serve.admit.reroute_disconnected", 1);
                return None;
            }
        }
        let outcome = assign_paths_partial(
            &masked,
            sched.bounds(),
            sched.intervals(),
            sched.activity(),
            sched.assignment(),
            &affected,
            &self.cfg.compile.assign_paths,
        );
        rec.add("serve.assign_paths.restarts", outcome.restarts as u64);
        rec.add("serve.assign_paths.trials", outcome.trials);
        rec.add(
            "serve.assign_paths.link_recomputes",
            outcome.link_recomputes,
        );
        if outcome.utilization.effective_peak() > 1.0 + EPS {
            rec.add("serve.utilization_exceeded", 1);
            return None;
        }
        let scales = self.cfg.feedback_scales.clone();
        // Fresh cache: the re-routed assignment has different subsets than
        // the standalone one the per-tenant cache was built for.
        let mut cache = AllocBasisCache::new();
        let mut flow_ws = FlowWorkspace::new();
        let mut attempts = Vec::new();
        let rp = reallocate_pinned(
            sched,
            &outcome.assignment,
            &affected,
            &BTreeSet::new(),
            ledger,
            &scales,
            self.cfg.compile.alloc_engine,
            &mut cache,
            &mut flow_ws,
            "serve",
            rec,
            &mut attempts,
        )?;
        Some((
            sched.patched(
                outcome.assignment.clone(),
                rp.allocation,
                rp.segments,
                self.topo.as_ref(),
            ),
            rp.scale,
        ))
    }

    /// The best-effort rung: one contiguous guard-separated span per
    /// message on all links of its standalone path, earliest-fit into the
    /// ledger's idle time, all-or-nothing.
    fn try_best_effort(&self, sched: &Schedule, ledger: &Spans) -> Option<(Vec<Grant>, Spans)> {
        let guard = self.cfg.compile.guard_time;
        let period = self.cfg.period;
        let mut busy: BTreeMap<LinkId, Vec<(f64, f64)>> = ledger.clone();
        let mut grants = Vec::new();
        let mut spans: BTreeMap<LinkId, Vec<(f64, f64)>> = BTreeMap::new();
        for i in 0..sched.assignment().len() {
            let m = MessageId(i);
            let links = sched.assignment().links(m).to_vec();
            let need = sched.bounds().window(m).duration();
            if links.is_empty() {
                grants.push(Grant {
                    message: m,
                    start: 0.0,
                    end: 0.0,
                });
                continue;
            }
            let mut free = vec![(0.0, period)];
            for &l in &links {
                let lb = busy.entry(l).or_default();
                free = intersect(&free, &free_within(lb, 0.0, period, guard));
                if free.is_empty() {
                    break;
                }
            }
            let slot = free.iter().find(|&&(s, e)| e - s >= need - EPS)?;
            let s = slot.0;
            grants.push(Grant {
                message: m,
                start: s,
                end: s + need,
            });
            for &l in &links {
                busy.entry(l).or_default().push((s, s + need));
                spans.entry(l).or_default().push((s, s + need));
            }
        }
        for s in spans.values_mut() {
            s.sort_by(|a, b| a.0.total_cmp(&b.0));
            coalesce(s);
        }
        Some((grants, spans))
    }

    /// Ledger saturation on the tenant's path links, busiest first — the
    /// rejection response's bottleneck list.
    fn saturation(
        &self,
        sched: &Schedule,
        ledger: &BTreeMap<LinkId, Vec<(f64, f64)>>,
    ) -> Vec<(LinkId, f64)> {
        let mut links: BTreeSet<LinkId> = BTreeSet::new();
        for i in 0..sched.assignment().len() {
            links.extend(sched.assignment().links(MessageId(i)).iter().copied());
        }
        let mut out: Vec<(LinkId, f64)> = links
            .into_iter()
            .map(|l| {
                let busy: f64 = ledger
                    .get(&l)
                    .map(|spans| spans.iter().map(|&(s, e)| e - s).sum())
                    .unwrap_or(0.0);
                (l, busy)
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(10);
        out
    }
}

/// Where each of `spans` (ascending) sits in `row`, bit-exact and each at
/// its own index; `None` when one is missing.
fn locate(row: &[(f64, f64)], spans: &[(f64, f64)]) -> Option<Vec<usize>> {
    let mut at = Vec::with_capacity(spans.len());
    let mut from = 0;
    for span in spans {
        let i = from + row[from..].partition_point(|r| cmp_span(r, span).is_lt());
        if cmp_span(row.get(i)?, span).is_ne() {
            return None;
        }
        at.push(i);
        from = i + 1;
    }
    Some(at)
}

/// Messages that actually traverse links (trivial/local ones carry no
/// network traffic and take no allocation row).
fn linked_messages(sched: &Schedule) -> Vec<MessageId> {
    (0..sched.assignment().len())
        .map(MessageId)
        .filter(|&m| !sched.assignment().links(m).is_empty())
        .collect()
}

/// Whether `spans` fit into the idle time `ledger` leaves, every span at
/// least `guard` away from every ledger span on the same link.
///
/// Ledger rows are sorted by start and consecutive spans overlap by at most
/// `EPS` (the pinning contract), so a span longer than `2 * EPS` (one `EPS`
/// of rounding room) ends after every span before it. The spans starting
/// early enough to collide are a prefix of the row, and of those only the
/// last — and the run of shorter ones it may end — can end late enough to.
fn fits(spans: &Spans, ledger: &Spans, guard: f64) -> bool {
    for (l, mine) in spans {
        let Some(theirs) = ledger.get(l) else {
            continue;
        };
        for &(s, e) in mine {
            let early = theirs.partition_point(|&(bs, _)| e > bs - guard + EPS);
            for &(bs, be) in theirs[..early].iter().rev() {
                if s < be + guard - EPS {
                    return false;
                }
                if be - bs > 2.0 * EPS {
                    break;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sr_obs::NOOP;
    use sr_topology::Torus;

    /// The scan `fits` replaced: every candidate span against every
    /// resident span of its link.
    fn fits_by_scan(spans: &Spans, ledger: &Spans, guard: f64) -> bool {
        for (l, mine) in spans {
            let Some(theirs) = ledger.get(l) else {
                continue;
            };
            for &(s, e) in mine {
                for &(bs, be) in theirs {
                    if s < be + guard - EPS && e > bs - guard + EPS {
                        return false;
                    }
                }
            }
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On rows that satisfy the pinning contract — including abutting
        /// spans, overlaps of exactly `EPS` and spans shorter than `EPS` —
        /// the neighbour test and the full scan give the same verdict.
        /// Everything sits on a half-`EPS` grid, and each candidate starts
        /// within a few steps of a resident's end, so the boundaries are hit.
        #[test]
        fn fits_agrees_with_the_full_scan(
            row in prop::collection::vec((-2i32..6, 0i32..8), 1..10),
            mine in prop::collection::vec((0usize..10, -8i32..8, 0i32..12), 1..4),
            guard in 0i32..5,
        ) {
            let unit = EPS / 2.0;
            let mut theirs: Vec<(f64, f64)> = Vec::new();
            for (gap, len) in row {
                let start = theirs
                    .last()
                    .map_or(1.0, |&(s, e)| (e + f64::from(gap) * unit).max(s));
                theirs.push((start, start + f64::from(len) * unit));
            }
            theirs.sort_by(cmp_span);
            let mine: Vec<(f64, f64)> = mine
                .into_iter()
                .map(|(near, off, len)| {
                    let s = theirs[near % theirs.len()].1 + f64::from(off) * unit;
                    (s, s + f64::from(len) * unit)
                })
                .collect();
            let (spans, ledger) = (
                Spans::from([(LinkId(0), mine)]),
                Spans::from([(LinkId(0), theirs)]),
            );
            let guard = f64::from(guard) * unit;
            prop_assert_eq!(
                fits(&spans, &ledger, guard),
                fits_by_scan(&spans, &ledger, guard)
            );
        }

        /// A frozen ledger equals exactly what the ledger it was taken from
        /// equals, over small tables that often differ by one link, one row
        /// length or one span.
        #[test]
        fn a_frozen_ledger_equals_what_its_original_equals(
            a in prop::collection::vec((0usize..3, prop::collection::vec((0i32..3, 0i32..3), 0..3)), 0..3),
            b in prop::collection::vec((0usize..3, prop::collection::vec((0i32..3, 0i32..3), 0..3)), 0..3),
        ) {
            let table = |rows: Vec<(usize, Vec<(i32, i32)>)>| -> Spans {
                rows.into_iter()
                    .map(|(l, row)| {
                        let row = row.into_iter().map(|(s, e)| (f64::from(s), f64::from(e)));
                        (LinkId(l), row.collect())
                    })
                    .collect()
            };
            let (a, b) = (table(a), table(b));
            prop_assert!(FrozenLedger::of(&a).equals(&a));
            prop_assert_eq!(FrozenLedger::of(&a).equals(&b), a == b);
        }
    }

    fn engine() -> Engine {
        let topo = Torus::new(&[4, 4]).expect("torus");
        Engine::new(Box::new(topo), ServeConfig::default())
    }

    fn chain_spec(name: &str, nodes: &[usize]) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            tfg_text: "task a 100\ntask b 100\ntask c 100\n\
                       msg m0 a -> b 256\nmsg m1 b -> c 256\n"
                .to_string(),
            placement: Placement::Nodes(nodes.to_vec()),
            best_effort: false,
        }
    }

    #[test]
    fn admit_evict_roundtrip_restores_the_ledger() {
        let mut eng = engine();
        let empty = eng.ledger();
        let report = eng
            .admit(&chain_spec("t1", &[0, 1, 2]), &NOOP)
            .expect("admits");
        assert_eq!(report.rung, AdmitRung::Fast);
        assert!(!eng.ledger().is_empty());
        eng.evict("t1", &NOOP).expect("evicts");
        assert_eq!(eng.ledger(), empty);
        assert!(eng.tenant("t1").is_none());
    }

    #[test]
    fn duplicate_and_unknown_are_typed() {
        let mut eng = engine();
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP)
            .expect("admits");
        assert!(matches!(
            eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP),
            Err(AdmitError::Duplicate(_))
        ));
        assert!(eng.evict("nope", &NOOP).is_err());
    }

    #[test]
    fn invalid_spec_is_typed_not_a_panic() {
        let mut eng = engine();
        let mut bad = chain_spec("t", &[0, 1, 2]);
        bad.tfg_text = "task only-nonsense".into();
        assert!(matches!(
            eng.admit(&bad, &NOOP),
            Err(AdmitError::InvalidSpec(_))
        ));
        let mut bad2 = chain_spec("t", &[0, 1]);
        bad2.placement = Placement::Nodes(vec![0, 1]); // wrong length
        assert!(matches!(
            eng.admit(&bad2, &NOOP),
            Err(AdmitError::InvalidSpec(_))
        ));
        let mut bad3 = chain_spec("t", &[0, 1, 2]);
        bad3.placement = Placement::Strategy("voodoo".into());
        assert!(matches!(
            eng.admit(&bad3, &NOOP),
            Err(AdmitError::InvalidSpec(_))
        ));
    }

    #[test]
    fn fast_path_rows_match_standalone_compile() {
        let mut eng = engine();
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        eng.admit(&chain_spec("t2", &[5, 6, 7]), &NOOP).expect("t2");
        // Each tenant's stored schedule is its standalone compile verbatim
        // (fast path), so rows must match a fresh engine's single admit.
        let mut fresh = engine();
        fresh
            .admit(&chain_spec("t2", &[5, 6, 7]), &NOOP)
            .expect("standalone");
        let served = eng.tenant("t2").unwrap().schedule.as_ref().unwrap().clone();
        let standalone = fresh
            .tenant("t2")
            .unwrap()
            .schedule
            .as_ref()
            .unwrap()
            .clone();
        assert_eq!(served.segments(), standalone.segments());
        for i in 0..served.assignment().len() {
            let m = MessageId(i);
            assert_eq!(served.allocation().row(m), standalone.allocation().row(m));
        }
    }

    #[test]
    fn evict_then_readmit_replays_exactly() {
        let mut eng = engine();
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        eng.admit(&chain_spec("t2", &[5, 6, 7]), &NOOP).expect("t2");
        let before = eng.tenant("t2").unwrap().clone();
        eng.evict("t2", &NOOP).expect("evict");
        let rec = sr_obs::MetricsRecorder::new();
        let report = eng
            .admit(&chain_spec("t2", &[5, 6, 7]), &rec)
            .expect("readmit");
        assert!(report.replayed);
        assert_eq!(rec.counters()["serve.admit.replayed"], 1);
        let after = eng.tenant("t2").unwrap();
        assert_eq!(before.spans, after.spans);
        assert_eq!(
            before.schedule.as_ref().unwrap().segments(),
            after.schedule.as_ref().unwrap().segments()
        );
    }

    #[test]
    fn batch_matches_serial_admission() {
        let specs = vec![
            chain_spec("a", &[0, 1, 2]),
            chain_spec("b", &[4, 5, 6]),
            chain_spec("c", &[8, 9, 10]),
        ];
        let mut batch = engine();
        let cfg = ServeConfig {
            batch_threads: 4,
            ..ServeConfig::default()
        };
        let topo = Torus::new(&[4, 4]).expect("torus");
        let mut batch_par = Engine::new(Box::new(topo), cfg);
        let results = batch_par.admit_batch(&specs, &NOOP);
        assert!(results.iter().all(Result::is_ok));
        for spec in &specs {
            batch.admit(spec, &NOOP).expect("serial admits");
        }
        for spec in &specs {
            let a = batch.tenant(&spec.name).unwrap();
            let b = batch_par.tenant(&spec.name).unwrap();
            assert_eq!(a.spans, b.spans, "batch direction changed {}", spec.name);
            assert_eq!(
                a.schedule.as_ref().unwrap().segments(),
                b.schedule.as_ref().unwrap().segments()
            );
        }
    }

    #[test]
    fn admission_latency_lands_in_per_rung_histograms() {
        let mut eng = engine();
        let rec = sr_obs::MetricsRecorder::new();
        let report = eng.admit(&chain_spec("t1", &[0, 1, 2]), &rec).expect("t1");
        assert_eq!(report.rungs_tried, 1);
        assert!(report.latency_us > 0.0);
        assert!(
            report.ladder_us.iter().any(|(s, _)| *s == "fast"),
            "ladder breakdown names the winning stage: {:?}",
            report.ladder_us
        );
        let fast = rec
            .histogram_summary("serve.admit_latency.fast")
            .expect("fast histogram recorded");
        assert_eq!(fast.count, 1);
        // Evict then readmit: the replay outcome gets its own histogram,
        // and rungs_tried reports 0 (the ladder never ran).
        eng.evict("t1", &rec).expect("evict");
        assert_eq!(
            rec.histogram_summary("serve.evict_latency").unwrap().count,
            1
        );
        let replay = eng
            .admit(&chain_spec("t1", &[0, 1, 2]), &rec)
            .expect("replay");
        assert!(replay.replayed);
        assert_eq!(replay.rungs_tried, 0);
        assert_eq!(
            rec.histogram_summary("serve.admit_latency.replay")
                .unwrap()
                .count,
            1
        );
        // A rejection lands in the reject histogram and carries timing.
        let mut hog = chain_spec("big", &[0, 1, 2]);
        hog.tfg_text = "task a 100\ntask b 100\nmsg m a -> b 2000000\n".into();
        hog.placement = Placement::Nodes(vec![0, 1]);
        match eng.admit(&hog, &rec) {
            Err(AdmitError::Infeasible(rej)) => {
                assert!(rej.latency_us > 0.0);
                assert!(!rej.ladder_us.is_empty());
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
        assert_eq!(
            rec.histogram_summary("serve.admit_latency.reject")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn noop_recorder_path_takes_no_timestamps() {
        let mut eng = engine();
        let report = eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        assert_eq!(report.latency_us, 0.0);
        assert!(report.ladder_us.is_empty());
        assert_eq!(report.rungs_tried, 1);
    }

    #[test]
    fn contended_link_forces_a_non_fast_rung_and_pins_the_rest() {
        // Two tenants with identical placement share every path link; the
        // second cannot take the fast path yet must not perturb the first.
        let mut eng = engine();
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        let t1_before = eng.tenant("t1").unwrap().clone();
        let second = eng
            .admit(&chain_spec("t2", &[0, 1, 2]), &NOOP)
            .expect("t2 admits");
        assert_ne!(second.rung, AdmitRung::Fast);
        let t1_after = eng.tenant("t1").unwrap();
        assert_eq!(t1_before.spans, t1_after.spans);
        assert_eq!(
            t1_before.schedule.as_ref().unwrap().segments(),
            t1_after.schedule.as_ref().unwrap().segments()
        );
        eng.check_invariants().expect("clean ledger");
    }
    /// What the whole-table check says of the table with `t` in it — the
    /// verdict `install` has to reach without inserting.
    fn whole_table_verdict(eng: &mut Engine, t: &Tenant) -> Result<(), String> {
        eng.tenants.insert(t.name.clone(), t.clone());
        let verdict = eng.check_invariants();
        eng.tenants.remove(&t.name);
        verdict
    }

    /// Installs `t` and asserts the delta check agreed with the whole-table
    /// check; a refusal must leave table, ledger and sequence untouched.
    /// Returns whether `t` was refused.
    fn install_agrees_with_the_whole_table_check(eng: &mut Engine, t: Tenant) -> bool {
        let want = whole_table_verdict(eng, &t);
        let before = (eng.live.clone(), eng.tenants.len(), eng.admit_seq);
        let rec = sr_obs::MetricsRecorder::new();
        let (name, rung, scale) = (t.name.clone(), t.rung, t.scale);
        let got = eng.install(t, rung, scale, false, false, &rec);
        assert_eq!(got.is_err(), want.is_err(), "{name}: {got:?} vs {want:?}");
        if got.is_err() {
            assert!(matches!(got, Err(AdmitError::Internal(_))));
            assert_eq!(rec.counter("serve.invariant_violations"), 1);
            assert_eq!(before, (eng.live.clone(), eng.tenants.len(), eng.admit_seq));
            assert!(eng.tenant(&name).is_none());
        } else {
            eng.evict(&name, &NOOP).expect("evicts");
            assert_eq!(before.0, eng.live);
        }
        assert_eq!(eng.live, eng.ledger());
        eng.check_invariants().expect("residents stay clean");
        got.is_err()
    }

    /// `base`'s spans moved by `shift` µs, with no schedule to answer to.
    fn shifted(base: &Tenant, name: &str, shift: f64) -> Tenant {
        let mut t = base.clone();
        t.name = name.to_string();
        t.schedule = None;
        for row in t.spans.values_mut() {
            for span in row {
                *span = (span.0 + shift, span.1 + shift);
            }
        }
        t
    }

    #[test]
    fn install_refuses_what_the_whole_table_check_refuses() {
        let cfg = ServeConfig::default();
        let guarded = ServeConfig {
            compile: CompileConfig {
                guard_time: 1.0,
                ..cfg.compile.clone()
            },
            ..cfg
        };
        let mut eng = Engine::new(Box::new(Torus::new(&[4, 4]).expect("torus")), guarded);
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        let t1 = eng.tenant("t1").unwrap().clone();
        let len = t1
            .spans
            .values()
            .flatten()
            .map(|s| s.1 - s.0)
            .fold(0.0, f64::max);

        // Spans shifted onto a resident: t1's own schedule and spans under
        // another name.
        let mut twin = t1.clone();
        twin.name = "twin".into();
        assert!(install_agrees_with_the_whole_table_check(&mut eng, twin));

        // Spans that are not the spans of the tenant's schedule, on links
        // nobody else uses.
        let mut other = engine();
        other
            .admit(&chain_spec("t2", &[5, 6, 7]), &NOOP)
            .expect("t2");
        let mut forged = other.tenant("t2").unwrap().clone();
        forged.spans.values_mut().next().unwrap()[0].1 += 0.5;
        assert!(install_agrees_with_the_whole_table_check(&mut eng, forged));

        // Abutting a resident inside the guard: the ladder would not place
        // it there (`fits` keeps the guard), but the pinning contract is
        // overlap freedom, and both checks agree it holds.
        let abutting = shifted(&t1, "abutting", len);
        assert!(!fits(&abutting.spans, &eng.live, 1.0));
        assert!(!install_agrees_with_the_whole_table_check(
            &mut eng, abutting
        ));

        // Every offset around the overlap boundary, on both sides.
        let mut refused = 0;
        for side in [-1.0, 1.0] {
            for k in -4..=4 {
                let shift = side * (len + f64::from(k) * EPS / 2.0);
                let t = shifted(&t1, "near", shift);
                refused += usize::from(install_agrees_with_the_whole_table_check(&mut eng, t));
            }
        }
        assert!(refused > 0 && refused < 18, "{refused} of 18 refused");
    }

    #[test]
    fn eviction_is_all_or_nothing() {
        let mut eng = engine();
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        eng.admit(&chain_spec("t2", &[5, 6, 7]), &NOOP).expect("t2");
        // Corrupt the *last* row the eviction would reach, so a removal
        // that went row by row would have taken the earlier ones already.
        let (&last_link, row) = eng.tenant("t1").unwrap().spans.iter().next_back().unwrap();
        assert!(eng.tenant("t1").unwrap().spans.len() > 1);
        let victim = row[0];
        let clean = eng.live.clone();
        for corrupt in [
            |row: &mut Vec<(f64, f64)>, _: (f64, f64)| row.clear(),
            |row: &mut Vec<(f64, f64)>, v: (f64, f64)| {
                let at = row.iter().position(|&s| s == v).unwrap();
                row[at].1 += 0.25;
            },
        ] {
            eng.live = clean.clone();
            corrupt(eng.live.get_mut(&last_link).unwrap(), victim);
            let corrupted = eng.live.clone();
            let rec = sr_obs::MetricsRecorder::new();
            let err = eng.evict("t1", &rec).expect_err("refused");
            assert!(matches!(err, EvictError::Internal(_)), "{err}");
            assert!(
                err.to_string().contains(&format!("link {last_link}")),
                "{err}"
            );
            assert_eq!(rec.counter("serve.invariant_violations"), 1);
            assert_eq!(rec.counter("serve.evict"), 0);
            assert_eq!(eng.live, corrupted);
            assert!(eng.tenant("t1").is_some() && eng.tenant("t2").is_some());
            assert!(eng.memo["t1"].last.is_some());
        }
        assert_eq!(
            eng.evict("nobody", &NOOP),
            Err(EvictError::UnknownTenant("nobody".into()))
        );
        // With the ledger as the engine left it, the same eviction lands.
        eng.live = clean;
        eng.evict("t1", &NOOP).expect("evicts");
        assert_eq!(eng.live, eng.ledger());
    }

    /// The kept fingerprint equals the recompute's after an install into a
    /// row another tenant holds, an eviction that leaves that row to the
    /// other tenant, and evictions that empty rows.
    #[test]
    fn kept_fingerprint_follows_install_and_evict() {
        let mut eng = engine();
        let agrees = |eng: &Engine| {
            assert_eq!(eng.kept_fingerprint(), spans_hash(&eng.ledger()));
        };
        agrees(&eng);
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        agrees(&eng);
        eng.admit(&chain_spec("t2", &[0, 1, 2]), &NOOP).expect("t2");
        agrees(&eng);
        let shared = |eng: &Engine| {
            let t2 = eng.tenant("t2").unwrap();
            eng.live
                .iter()
                .any(|(l, row)| row.len() > t2.spans.get(l).map_or(0, Vec::len))
        };
        assert!(shared(&eng), "t2 was installed into rows t1 holds");
        eng.evict("t1", &NOOP).expect("evicts t1");
        agrees(&eng);
        assert!(!eng.live.is_empty(), "t2's rows stay");
        eng.evict("t2", &NOOP).expect("evicts t2");
        agrees(&eng);
        assert_eq!(eng.kept_fingerprint(), 0);
    }

    /// A spec placed by node list hits the memo only with the very nodes
    /// it was stored under; a prefix either way is a different spec (here
    /// one that does not place).
    #[test]
    fn memo_hit_needs_the_whole_node_list() {
        let mut eng = engine();
        eng.admit(&chain_spec("t", &[0, 1, 2]), &NOOP).expect("t");
        eng.evict("t", &NOOP).expect("evicts");
        for nodes in [&[0, 1][..], &[0, 1, 2, 3]] {
            let rec = sr_obs::MetricsRecorder::new();
            assert!(matches!(
                eng.admit(&chain_spec("t", nodes), &rec),
                Err(AdmitError::InvalidSpec(_))
            ));
            assert_eq!(rec.counter("serve.admit.memo_hits"), 0, "{nodes:?}");
        }
        let rec = sr_obs::MetricsRecorder::new();
        let report = eng.admit(&chain_spec("t", &[0, 1, 2]), &rec).expect("t");
        assert!(report.memo_hit && report.replayed);
        assert_eq!(rec.counter("serve.admit.memo_hits"), 1);
    }

    /// A tenant with spans on link 0 only and no schedule to answer to.
    fn on_link(base: &Tenant, name: &str, spans: &[(f64, f64)]) -> Tenant {
        Tenant {
            name: name.to_string(),
            schedule: None,
            spans: Spans::from([(LinkId(0), spans.to_vec())]),
            ..base.clone()
        }
    }

    /// Tenant `a`'s own spans overlap; `b` clashes with the longer of them
    /// but not with its start-order neighbour, which a neighbours-only
    /// sweep would compare it with (and pass).
    #[test]
    fn a_tenant_overlapping_itself_cannot_hide_a_clash() {
        let mut eng = engine();
        eng.admit(&chain_spec("base", &[0, 1, 2]), &NOOP)
            .expect("admits");
        let base = eng.tenant("base").unwrap().clone();
        eng.evict("base", &NOOP).expect("evicts");
        for t in [
            on_link(&base, "a", &[(0.0, 10.0), (1.0, 2.0)]),
            on_link(&base, "b", &[(5.0, 6.0)]),
        ] {
            eng.tenants.insert(t.name.clone(), t);
        }
        let err = eng.check_invariants().expect_err("b clashes with a");
        assert!(err.contains("\"a\" and \"b\" overlap on link"), "{err}");
        // Past a's latest end there is nothing to clash with, and a's own
        // overlap is none of the whole-table check's business.
        let clear = on_link(&base, "b", &[(10.0, 11.0)]);
        eng.tenants.insert("b".into(), clear);
        assert_eq!(eng.check_invariants(), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep's verdict equals the all-pairs one: in start order
        /// (ties in table order), no span starts more than `EPS` before the
        /// end of an earlier span of another tenant.
        #[test]
        fn the_overlap_sweep_agrees_with_all_pairs(
            spans in prop::collection::vec((0usize..3, 0i32..24, 0i32..8), 1..10),
        ) {
            let mut eng = engine();
            eng.admit(&chain_spec("base", &[0, 1, 2]), &NOOP).expect("admits");
            let base = eng.tenant("base").unwrap().clone();
            eng.evict("base", &NOOP).expect("evicts");
            let unit = EPS / 2.0;
            let mut rows: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
            for &(owner, start, len) in &spans {
                let s = f64::from(start) * unit;
                rows.entry(owner).or_default().push((s, s + f64::from(len) * unit));
            }
            let mut all: Vec<(f64, f64, usize)> = Vec::new();
            for (&owner, row) in &rows {
                let name = format!("o{owner}");
                eng.tenants.insert(name.clone(), on_link(&base, &name, row));
                all.extend(row.iter().map(|&(s, e)| (s, e, owner)));
            }
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            let clash = (0..all.len()).any(|j| {
                (0..j).any(|i| all[i].2 != all[j].2 && all[j].0 < all[i].1 - EPS)
            });
            prop_assert_eq!(eng.check_invariants().is_err(), clash);
        }
    }

    #[test]
    fn ledger_counters_follow_the_delta() {
        let mut eng = engine();
        eng.admit(&chain_spec("t1", &[0, 1, 2]), &NOOP).expect("t1");
        let rec = sr_obs::MetricsRecorder::new();
        eng.admit(&chain_spec("t2", &[5, 6, 7]), &rec).expect("t2");
        let t2 = eng.tenant("t2").unwrap();
        let (rows, spans) = (
            t2.spans.len() as u64,
            t2.spans.values().map(Vec::len).sum::<usize>() as u64,
        );
        assert_eq!(rec.counter("serve.ledger.rows_touched"), rows);
        assert_eq!(rec.counter("serve.ledger.spans_moved"), spans);
        eng.evict("t2", &rec).expect("evicts");
        assert_eq!(rec.counter("serve.ledger.rows_touched"), 2 * rows);
        assert_eq!(rec.counter("serve.ledger.spans_moved"), 2 * spans);
    }
}
