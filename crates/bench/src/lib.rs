//! Experiment harness regenerating every evaluation figure of the paper
//! (Figs. 5–10) plus the §3 Claim demonstration.
//!
//! The paper's axes are all normalized, which is what makes reproduction
//! meaningful on a simulator:
//!
//! * **normalized load** = `τ_c / τ_in` (1.0 = inputs arrive as fast as the
//!   longest task can drain them);
//! * **normalized throughput** = `τ_in / τ_out` (1.0 = one output per input;
//!   wormhole-routing runs are drawn as min/mid/max *spikes* across
//!   invocations — a spread is output inconsistency);
//! * **normalized latency** = `λ / Λ` (invocation latency over critical-path
//!   length).
//!
//! [`figure_utilization`] regenerates Figs. 5–6 (peak utilization, LSD-to-MSD
//! vs `AssignPaths`); [`figure_performance`] regenerates Figs. 7–10
//! (throughput/latency, wormhole vs scheduled). The `figures` binary prints
//! the series as Markdown/CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sr::core::{assign_paths, ActivityMatrix, AssignPathsConfig, Intervals};
use sr::obs::escape_json;
use sr::prelude::*;

pub mod gate;

/// The standard sweep: 12 input periods from `τ_c` to `5·τ_c`, as in the
/// paper ("twelve different values of the input period are selected between
/// its minimum value of τ_c and 5·τ_c").
pub const LOAD_POINTS: usize = 12;

/// Workload scale: number of DVB object models. Chosen so the TFG populates
/// a 64-node machine the way the paper's full benchmark does (n + 4 tasks,
/// 2n + 4 messages).
pub const DVB_MODELS: usize = 10;

/// Returns the swept input periods (µs), longest first (lowest load first).
pub fn sweep_periods(tau_c: f64) -> Vec<f64> {
    // Evenly spaced in load = τ_c/τ_in over [0.2, 1.0], like the paper's
    // x-axes.
    (0..LOAD_POINTS)
        .map(|i| {
            let load = 0.2 + 0.8 * (i as f64) / (LOAD_POINTS - 1) as f64;
            tau_c / load
        })
        .collect()
}

/// One point of a Fig. 5/6 utilization series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationPoint {
    /// Normalized load `τ_c / τ_in`.
    pub load: f64,
    /// Peak utilization of the LSD-to-MSD (dimension-order) assignment.
    pub lsd_peak: f64,
    /// Peak utilization after `AssignPaths`.
    pub final_peak: f64,
    /// Lower bound on the peak utilization of *any* path assignment over
    /// the enumerated alternatives ([`sr::core::AssignPathsOutcome`]).
    pub lower_bound: f64,
}

impl UtilizationPoint {
    /// `U / lower_bound − 1`: the most a better heuristic could still gain.
    pub fn gap(&self) -> f64 {
        optimality_gap(self.final_peak, self.lower_bound)
    }
}

/// `peak / lower_bound − 1`, and 0 for an idle network (both 0).
pub fn optimality_gap(peak: f64, lower_bound: f64) -> f64 {
    if lower_bound > 0.0 {
        peak / lower_bound - 1.0
    } else {
        0.0
    }
}

/// One min/mid/max spike, as the paper draws for wormhole routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// Smallest observed value.
    pub min: f64,
    /// Average observed value.
    pub mid: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Spike {
    /// Whether the spike is visibly spread (output inconsistency).
    pub fn is_spread(&self, tol: f64) -> bool {
        self.max - self.min > tol
    }
}

/// One point of a Fig. 7–10 performance series.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformancePoint {
    /// Normalized load `τ_c / τ_in`.
    pub load: f64,
    /// Input period, µs.
    pub period: f64,
    /// Wormhole normalized throughput spike (`τ_in / τ_out`).
    pub wr_throughput: Spike,
    /// Wormhole normalized latency spike (`λ / Λ`).
    pub wr_latency: Spike,
    /// Whether the wormhole run shows output inconsistency.
    pub wr_oi: bool,
    /// Whether the wormhole run deadlocked.
    pub wr_deadlock: bool,
    /// Scheduled routing: normalized throughput (always exactly 1 when a
    /// schedule exists) and normalized latency, or the failure stage.
    pub sr: Result<SrPoint, String>,
}

/// The scheduled-routing result at one load point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrPoint {
    /// Normalized throughput (1.0 by construction).
    pub throughput: f64,
    /// Normalized latency `λ / Λ`.
    pub latency: f64,
    /// Peak utilization of the compiled assignment.
    pub utilization: f64,
}

/// The experiment platform: a topology with its evaluation bandwidth.
pub struct Platform {
    /// Display name used in figure outputs.
    pub name: String,
    /// The interconnect.
    pub topo: Box<dyn Topology>,
    /// Link bandwidth, bytes/µs.
    pub bandwidth: f64,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Platform({}, B={})", self.name, self.bandwidth)
    }
}

impl Platform {
    /// The paper's binary 6-cube.
    pub fn cube6(bandwidth: f64) -> Self {
        Platform {
            name: format!("binary 6-cube, B={bandwidth}"),
            topo: Box::new(GeneralizedHypercube::binary(6).expect("valid")),
            bandwidth,
        }
    }

    /// The paper's 4×4×4 generalized hypercube.
    pub fn ghc444(bandwidth: f64) -> Self {
        Platform {
            name: format!("GHC(4,4,4), B={bandwidth}"),
            topo: Box::new(GeneralizedHypercube::new(&[4, 4, 4]).expect("valid")),
            bandwidth,
        }
    }

    /// The paper's 8×8 torus.
    pub fn torus8x8(bandwidth: f64) -> Self {
        Platform::torus_nxn(8, bandwidth)
    }

    /// A 16-node 4×4 torus — the smallest platform that fits the standard
    /// DVB workload, and the one whose feedback search descends the
    /// capacity ladder most often (the metrics gate's workload).
    pub fn torus4x4(bandwidth: f64) -> Self {
        Platform::torus_nxn(4, bandwidth)
    }

    /// An N×N torus at any extent — the scaling-sweep fabric family
    /// (8→64 nodes, 16→256, 32→1024, 64→4096).
    ///
    /// The display name carries the node count (`8x8 torus 64n`) so figure
    /// CSV files for multi-digit extents sort and diff cleanly next to the
    /// paper's 64-node platforms.
    pub fn torus_nxn(n: usize, bandwidth: f64) -> Self {
        Platform {
            name: format!("{n}x{n} torus {}n, B={bandwidth}", n * n),
            topo: Box::new(Torus::new(&[n, n]).expect("valid")),
            bandwidth,
        }
    }

    /// The paper's 4×4×4 torus.
    pub fn torus444(bandwidth: f64) -> Self {
        Platform {
            name: format!("4x4x4 torus 64n, B={bandwidth}"),
            topo: Box::new(Torus::new(&[4, 4, 4]).expect("valid")),
            bandwidth,
        }
    }
}

/// Allocation seed for the standard workload (see [`standard_workload`]).
pub const ALLOC_SEED: u64 = 7;

/// The standard workload: uniform-task DVB, seeded one-task-per-node
/// scatter allocation, calibrated timing (`τ_c = 50 µs`; `τ_m/τ_c` = 1 at
/// B=64, 0.5 at B=128).
///
/// The paper does not specify its task allocation (it is an input produced
/// by a separate mapping step) but its evaluation implicitly assumes one
/// task per processor; we use a seeded random *distinct* placement as the
/// neutral choice.
pub fn standard_workload(platform: &Platform) -> (TaskFlowGraph, Allocation, Timing) {
    let tfg = dvb_uniform(DVB_MODELS);
    let alloc = sr::mapping::random_distinct(&tfg, platform.topo.as_ref(), ALLOC_SEED)
        .expect("64 nodes fit the DVB task count");
    let timing = Timing::calibrated_dvb(platform.bandwidth);
    (tfg, alloc, timing)
}

/// Regenerates one Fig. 5/6 series: peak utilization vs load, LSD-to-MSD vs
/// `AssignPaths`, on the given platform.
pub fn figure_utilization(platform: &Platform, seed: u64) -> Vec<UtilizationPoint> {
    let (tfg, alloc, timing) = standard_workload(platform);
    let tau_c = timing.longest_task(&tfg);
    let topo = platform.topo.as_ref();
    // Load points are independent; sweep them across all cores (order is
    // preserved, each point is deterministic, so the series is identical
    // to a serial sweep).
    sr_par::par_map(&sweep_periods(tau_c), 0, |&period| {
        let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask)
            .expect("period ≥ τ_c by construction");
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let outcome = assign_paths(
            &tfg,
            topo,
            &alloc,
            &bounds,
            &intervals,
            &activity,
            &AssignPathsConfig {
                seed,
                ..AssignPathsConfig::default()
            },
        );
        UtilizationPoint {
            load: tau_c / period,
            lsd_peak: outcome.baseline_peak,
            final_peak: outcome.utilization.effective_peak(),
            lower_bound: outcome.lower_bound,
        }
    })
}

/// Regenerates one Fig. 7–10 series: wormhole vs scheduled routing
/// throughput and latency across the load sweep.
pub fn figure_performance(platform: &Platform, sim: &SimConfig) -> Vec<PerformancePoint> {
    let (tfg, alloc, timing) = standard_workload(platform);
    let tau_c = timing.longest_task(&tfg);
    let critical_path = timing.critical_path(&tfg);
    let topo = platform.topo.as_ref();

    // Per-load points are independent: simulate and compile them across
    // all cores. The inner compile is pinned serial — the sweep already
    // saturates the machine, and nesting pools would oversubscribe it.
    sr_par::par_map(&sweep_periods(tau_c), 0, |&period| {
        let load = tau_c / period;

        // --- Wormhole routing (simulated) ---
        let wr = WormholeSim::new(topo, &tfg, &alloc, &timing).expect("workload matches platform");
        let res = wr.run(period, sim).expect("valid run parameters");
        let (wr_throughput, wr_latency, wr_oi, wr_deadlock) =
            if res.records().len() >= sim.warmup + 2 {
                let ints = res.interval_stats();
                let lats = res.latency_stats();
                (
                    Spike {
                        // τ_in/τ_out: the *max* throughput comes from the
                        // *min* interval.
                        min: period / ints.max,
                        mid: period / ints.mean,
                        max: period / ints.min.max(f64::MIN_POSITIVE),
                    },
                    Spike {
                        min: lats.min / critical_path,
                        mid: lats.mean / critical_path,
                        max: lats.max / critical_path,
                    },
                    res.has_output_inconsistency(1e-6),
                    res.deadlocked(),
                )
            } else {
                (
                    Spike {
                        min: 0.0,
                        mid: 0.0,
                        max: 0.0,
                    },
                    Spike {
                        min: 0.0,
                        mid: 0.0,
                        max: 0.0,
                    },
                    true,
                    res.deadlocked(),
                )
            };

        // --- Scheduled routing (compiled) ---
        let sr = compile(
            topo,
            &tfg,
            &alloc,
            &timing,
            period,
            &CompileConfig {
                parallelism: 1,
                ..CompileConfig::default()
            },
        )
        .map(|sched| {
            verify(&sched, topo, &tfg).expect("compiled schedules verify");
            SrPoint {
                throughput: 1.0,
                latency: sched.latency() / critical_path,
                utilization: sched.peak_utilization(),
            }
        })
        .map_err(|e| failure_stage(&e));

        PerformancePoint {
            load,
            period,
            wr_throughput,
            wr_latency,
            wr_oi,
            wr_deadlock,
            sr,
        }
    })
}

fn failure_stage(e: &CompileError) -> String {
    match e {
        CompileError::UtilizationExceeded { utilization } => {
            format!("U={utilization:.2}>1")
        }
        CompileError::AllocationInfeasible { .. } => "alloc-infeasible".into(),
        CompileError::IntervalUnschedulable { .. } => "interval-unsched".into(),
        other => format!("{other}"),
    }
}

/// Renders a utilization series as a Markdown table (Figs. 5–6 rows).
pub fn utilization_markdown(name: &str, points: &[UtilizationPoint]) -> String {
    let mut s = format!(
        "### {name}\n\n| load | U (LSD-to-MSD) | U (AssignPaths) | lower bound | gap |\n\
         |---|---|---|---|---|\n"
    );
    for p in points {
        s.push_str(&format!(
            "| {:.3} | {:.3} | {:.3} | {:.3} | {:.1}% |\n",
            p.load,
            p.lsd_peak,
            p.final_peak,
            p.lower_bound,
            100.0 * p.gap()
        ));
    }
    s
}

/// Renders a performance series as a Markdown table (Figs. 7–10 rows).
pub fn performance_markdown(name: &str, points: &[PerformancePoint]) -> String {
    let mut s = format!(
        "### {name}\n\n| load | WR thr (min/mid/max) | WR lat (min/mid/max) | WR OI | SR thr | SR lat | SR status |\n|---|---|---|---|---|---|---|\n"
    );
    for p in points {
        let (sr_thr, sr_lat, sr_status) = match &p.sr {
            Ok(sp) => (
                format!("{:.3}", sp.throughput),
                format!("{:.3}", sp.latency),
                format!("ok (U={:.2})", sp.utilization),
            ),
            Err(stage) => ("—".into(), "—".into(), stage.clone()),
        };
        s.push_str(&format!(
            "| {:.3} | {:.3}/{:.3}/{:.3} | {:.3}/{:.3}/{:.3} | {} | {} | {} | {} |\n",
            p.load,
            p.wr_throughput.min,
            p.wr_throughput.mid,
            p.wr_throughput.max,
            p.wr_latency.min,
            p.wr_latency.mid,
            p.wr_latency.max,
            if p.wr_deadlock {
                "deadlock"
            } else if p.wr_oi {
                "yes"
            } else {
                "no"
            },
            sr_thr,
            sr_lat,
            sr_status,
        ));
    }
    s
}

/// Renders a performance series as CSV.
pub fn performance_csv(points: &[PerformancePoint]) -> String {
    let mut s = String::from(
        "load,period_us,wr_thr_min,wr_thr_mid,wr_thr_max,wr_lat_min,wr_lat_mid,wr_lat_max,wr_oi,sr_ok,sr_latency,sr_status\n",
    );
    for p in points {
        let (ok, lat, status) = match &p.sr {
            Ok(sp) => (1, format!("{:.6}", sp.latency), "ok".to_string()),
            Err(stage) => (0, String::new(), stage.clone()),
        };
        s.push_str(&format!(
            "{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{},{}\n",
            p.load,
            p.period,
            p.wr_throughput.min,
            p.wr_throughput.mid,
            p.wr_throughput.max,
            p.wr_latency.min,
            p.wr_latency.mid,
            p.wr_latency.max,
            u8::from(p.wr_oi),
            ok,
            lat,
            status
        ));
    }
    s
}

/// Renders a utilization series as CSV.
pub fn utilization_csv(points: &[UtilizationPoint]) -> String {
    let mut s = String::from("load,u_lsd,u_assignpaths,lower_bound,gap\n");
    for p in points {
        s.push_str(&format!(
            "{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            p.load,
            p.lsd_peak,
            p.final_peak,
            p.lower_bound,
            p.gap()
        ));
    }
    s
}

/// One point of the compile-time scaling sweep (ROADMAP item 2: 64 → 1024
/// → 4096-node fabrics).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Platform display name.
    pub platform: String,
    /// Fabric size in nodes.
    pub nodes: usize,
    /// Tasks in the tiled workload.
    pub tasks: usize,
    /// Messages in the tiled workload.
    pub messages: usize,
    /// Allocation engine used (`simplex` or `flow`).
    pub engine: String,
    /// Partition count handed to the compiler (1 = flat).
    pub partition: usize,
    /// Wall-clock compile time, ms.
    pub compile_ms: f64,
    /// Wall-clock verify time, ms (0 when the compile failed).
    pub verify_ms: f64,
    /// Compile outcome: peak utilization, or the error string.
    pub outcome: Result<f64, String>,
    /// Lower bound on the peak utilization of any path assignment over the
    /// pooled alternatives (0 when the compile failed).
    pub lower_bound: f64,
    /// `AssignPaths` climbs the compile ran (parts + stitch, per seed).
    pub climbs: u64,
    /// Climbs that ended at their lower bound.
    pub certified_climbs: u64,
    /// Restarts the climbs performed.
    pub restarts: u64,
}

/// Number of 4-row bands the N×N scaling fabric is partitioned into (the
/// `CompileConfig::partition` count). 1 when the extent is not a multiple
/// of 4 — then bands would not align with whole rows.
pub fn scale_bands(n: usize) -> usize {
    if n >= 8 && n.is_multiple_of(4) {
        n / 4
    } else {
        1
    }
}

/// The scaling workload on the N×N torus: a farm of uniform-ops DVB
/// pipelines ([`sr::tfg::dvb_tiled`]), one per 4-row × 8-column slot, every
/// slot using the *same* seeded placement pattern.
///
/// Geometry drives feasibility here. Message windows follow
/// `WindowPolicy::LongestTask`, so the effective peak utilization is
/// window-relative and does *not* fall as the input period grows — the
/// levers are path locality and link bandwidth. Three deliberate choices:
///
/// * **4×8 slots** keep every pipeline's routes short (the `select` fan-in
///   is the paper's hub node); slots have disjoint bounding boxes, so
///   shortest paths of different pipelines can never meet on a link.
/// * **One pattern, replicated.** Independently scattering each pipeline
///   makes the fabric-wide peak the *maximum over tiles* of a random
///   draw, so U grows with fabric size purely through sampling variance;
///   replicating a single 14-cell pattern makes the farm regular —
///   translation-invariant dimension-order baselines give every tile the
///   same U, and the trajectory measures compile time, not placement luck.
/// * **Whole-row bands** align with [`sr::core::band_partition`]
///   (`scale_bands` 4-row bands, row distance ≤ 3 never wraps), so the
///   partitioned compiler sees every pipeline as interior to one band.
///
/// A single hub-fanout DVB pipeline cannot be scaled instead: every extra
/// model funnels another message through the `select` hub's four links and
/// U grows without bound — scaling the fabric means scaling the *farm*.
///
/// # Panics
///
/// Panics unless `n` is a multiple of 8 (the slot grid must tile the torus).
pub fn scale_workload(
    n: usize,
    bandwidth: f64,
    seed: u64,
) -> (Platform, TaskFlowGraph, Allocation, Timing) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    assert!(
        n >= 8 && n.is_multiple_of(8),
        "scaling fabric needs 8 | N, got {n}"
    );
    let platform = Platform::torus_nxn(n, bandwidth);
    let bands = scale_bands(n);
    let col_slots = n / 8;
    let tfg = dvb_tiled(bands * col_slots, DVB_MODELS);
    let per_tile = tfg.num_tasks() / (bands * col_slots);

    // One Fisher–Yates draw of `per_tile` distinct cells in the 4×8 slot.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<(usize, usize)> = (0..4).flat_map(|r| (0..8).map(move |c| (r, c))).collect();
    for i in 0..per_tile {
        let j = rng.gen_range(i..cells.len());
        cells.swap(i, j);
    }

    let mut placement = Vec::with_capacity(tfg.num_tasks());
    for band in 0..bands {
        for slot in 0..col_slots {
            for &(dr, dc) in &cells[..per_tile] {
                placement.push(NodeId((band * 4 + dr) * n + slot * 8 + dc));
            }
        }
    }
    let alloc = Allocation::new(placement, &tfg, platform.topo.as_ref())
        .expect("placement is in range by construction");
    (platform, tfg, alloc, Timing::calibrated_dvb(bandwidth))
}

/// Compiles and verifies the scaling workload on the N×N torus, recording
/// wall-clock times. A schedule that compiles but fails [`verify`] panics —
/// the sweep is also a correctness oracle at sizes the unit tests never
/// reach.
pub fn scale_point(
    n: usize,
    bandwidth: f64,
    engine: AllocEngine,
    partitioned: bool,
    load: f64,
    seed: u64,
) -> ScalePoint {
    let (platform, tfg, alloc, timing) = scale_workload(n, bandwidth, seed);
    let config = CompileConfig {
        alloc_engine: engine,
        partition: if partitioned { scale_bands(n) } else { 0 },
        ..CompileConfig::default()
    };
    let config = &config;
    let period = timing.longest_task(&tfg) / load;
    let rec = sr::obs::MetricsRecorder::new();
    let t0 = std::time::Instant::now();
    let compiled = compile_with_recorder(
        platform.topo.as_ref(),
        &tfg,
        &alloc,
        &timing,
        period,
        config,
        &rec,
    );
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (verify_ms, outcome, lower_bound) = match compiled {
        Ok(s) => {
            let t1 = std::time::Instant::now();
            verify(&s, platform.topo.as_ref(), &tfg).expect("scale schedule verifies");
            let verify_ms = t1.elapsed().as_secs_f64() * 1e3;
            (verify_ms, Ok(s.peak_utilization()), s.peak_lower_bound())
        }
        Err(e) => (0.0, Err(e.to_string()), 0.0),
    };
    let counters = rec.counters();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    ScalePoint {
        platform: platform.name.clone(),
        nodes: platform.topo.num_nodes(),
        tasks: tfg.num_tasks(),
        messages: tfg.num_messages(),
        engine: match config.alloc_engine {
            AllocEngine::Simplex => "simplex".to_string(),
            AllocEngine::Flow => "flow".to_string(),
        },
        partition: config.partition.max(1),
        compile_ms,
        verify_ms,
        outcome,
        lower_bound,
        climbs: counter("assign_paths.climbs"),
        certified_climbs: counter("assign_paths.certified_climbs"),
        restarts: counter("assign_paths.restarts"),
    }
}

/// Renders the scale sweep as a Markdown table.
pub fn scale_markdown(points: &[ScalePoint]) -> String {
    let mut out = String::from(
        "| platform | nodes | messages | engine | parts | compile (ms) | verify (ms) \
         | verify µs/message | U | lower bound | gap | climbs | certified | restarts |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for p in points {
        let u = match &p.outcome {
            Ok(u) => format!(
                "{u:.3} | {:.3} | {:.1}%",
                p.lower_bound,
                100.0 * optimality_gap(*u, p.lower_bound)
            ),
            Err(e) => format!("{e} | – | –"),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.1} | {:.1} | {:.2} | {u} | {} | {} | {} |\n",
            p.platform,
            p.nodes,
            p.messages,
            p.engine,
            p.partition,
            p.compile_ms,
            p.verify_ms,
            1e3 * p.verify_ms / p.messages.max(1) as f64,
            p.climbs,
            p.certified_climbs,
            p.restarts
        ));
    }
    out
}

/// Renders the scale sweep as the `BENCH_scale.json` artifact (one document,
/// a format string like the metrics baseline — no serde in the workspace).
pub fn scale_json(points: &[ScalePoint]) -> String {
    let mut out = String::from("{\n\"workload\": \"tiled_dvb\",\n\"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let tail = match &p.outcome {
            Ok(u) => format!(
                "\"ok\": true, \"peak_utilization\": {u}, \"lower_bound\": {}, \"gap\": {}",
                p.lower_bound,
                optimality_gap(*u, p.lower_bound)
            ),
            Err(e) => format!("\"ok\": false, \"error\": \"{}\"", escape_json(e)),
        };
        out.push_str(&format!(
            "{}{{\"platform\": \"{}\", \"nodes\": {}, \"tasks\": {}, \"messages\": {}, \
             \"engine\": \"{}\", \"partition\": {}, \"compile_ms\": {}, \"verify_ms\": {}, \
             \"climbs\": {}, \"certified_climbs\": {}, \"restarts\": {}, {tail}}}",
            if i == 0 { "" } else { ",\n" },
            escape_json(&p.platform),
            p.nodes,
            p.tasks,
            p.messages,
            p.engine,
            p.partition,
            p.compile_ms,
            p.verify_ms,
            p.climbs,
            p.certified_climbs,
            p.restarts,
        ));
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_spans_the_load_axis() {
        let periods = sweep_periods(50.0);
        assert_eq!(periods.len(), LOAD_POINTS);
        assert!((periods[0] - 250.0).abs() < 1e-9); // load 0.2
        assert!((periods[LOAD_POINTS - 1] - 50.0).abs() < 1e-9); // load 1.0
        assert!(periods.windows(2).all(|w| w[1] < w[0]));
    }

    /// An error string is arbitrary text: whatever it holds, the artifact
    /// must still parse and give the text back.
    #[test]
    fn scale_json_round_trips_error_text_with_control_characters() {
        let error = "infeasible:\n\tlink \"7\" over \\ capacity";
        let row = ScalePoint {
            platform: "16x16 torus".to_string(),
            nodes: 256,
            tasks: 112,
            messages: 192,
            engine: "flow".to_string(),
            partition: 4,
            compile_ms: 9.5,
            verify_ms: 0.0,
            outcome: Err(error.to_string()),
            lower_bound: 0.0,
            climbs: 5,
            certified_climbs: 5,
            restarts: 0,
        };
        let doc = sr::obs::json::parse(scale_json(&[row]).as_bytes()).expect("artifact parses");
        let point = &doc.get("points").and_then(|p| p.as_arr()).expect("points")[0];
        assert_eq!(point.get("error").and_then(|e| e.as_str()), Some(error));
        assert_eq!(point.get("ok").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn platforms_have_64_nodes() {
        for p in [
            Platform::cube6(64.0),
            Platform::ghc444(64.0),
            Platform::torus8x8(64.0),
            Platform::torus444(64.0),
        ] {
            assert_eq!(p.topo.num_nodes(), 64, "{}", p.name);
        }
    }

    /// `verify()`-as-oracle on a 16×16 torus: `scale_point` panics if the
    /// compiled schedule fails verification, so reaching the assertions
    /// means the end-to-end schedule is conflict-free at 256 nodes — a size
    /// the paper-figure tests never touch. Both engines must also land on
    /// the same peak utilization for the same (flat) configuration.
    #[test]
    fn scale_point_16x16_verifies_under_both_engines() {
        let simplex = scale_point(16, 256.0, AllocEngine::Simplex, false, 0.5, 7);
        let flow = scale_point(16, 256.0, AllocEngine::Flow, false, 0.5, 7);
        assert_eq!(simplex.nodes, 256);
        assert_eq!(simplex.tasks, 8 * 14);
        let u_simplex = simplex.outcome.expect("simplex compiles the 16x16 farm");
        let u_flow = flow.outcome.clone().expect("flow compiles the 16x16 farm");
        assert_eq!(
            u_simplex.to_bits(),
            u_flow.to_bits(),
            "{u_simplex} vs {u_flow}"
        );
        assert!(u_simplex <= 1.0, "workload must be feasible: U={u_simplex}");

        // The partitioned path trades assignment quality for locality; it
        // must still verify (the oracle), not match the flat U.
        let part = scale_point(16, 256.0, AllocEngine::Flow, true, 0.5, 7);
        assert_eq!(part.partition, scale_bands(16));
        let u_part = part
            .outcome
            .clone()
            .expect("partitioned flow compiles the 16x16 farm");
        assert!(
            u_part <= 1.0,
            "partitioned farm must stay feasible: U={u_part}"
        );
        // Four bands and the stitch, every one certified before it starts:
        // no *part-local* move can beat the baseline. The reported bound is
        // the flat problem's, which the combinatorial floors leave loose.
        assert_eq!(
            (part.climbs, part.certified_climbs, part.restarts),
            (5, 5, 0)
        );
        assert!(part.lower_bound > 0.0 && part.lower_bound <= u_part);
        assert_eq!(part.lower_bound, flow.lower_bound);
        assert!(scale_markdown(&[part]).contains("% | 5 | 5 | 0 |"));
    }

    #[test]
    fn markdown_emitters_include_all_rows() {
        let pts = vec![UtilizationPoint {
            load: 0.5,
            lsd_peak: 1.2,
            final_peak: 0.9,
            lower_bound: 0.75,
        }];
        let md = utilization_markdown("test", &pts);
        assert!(md.contains("0.500") && md.contains("1.200") && md.contains("0.900"));
        assert!(md.contains("| 0.750 | 20.0% |"), "{md}");
        let csv = utilization_csv(&pts);
        assert_eq!(csv.lines().count(), 2);
    }
}
