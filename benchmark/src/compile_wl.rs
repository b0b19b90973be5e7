//! `scale64` and `paper64`: the compile path, end to end (`compile` +
//! `verify`) in the timed run and stage by stage in the traced one.

use crate::gen::{self, Platform};
use crate::harness::{Round, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;
use crate::util::{ms_since, Fnv64, Rng};
use sr::core::{
    allocate_intervals_flow, allocate_intervals_stats, assign_paths_partitioned,
    assign_paths_pooled, band_partition_topo, build_node_schedules, related_subsets,
    schedule_intervals_guarded_stats, ActivityMatrix, AllocationStats, AssignPathsConfig,
    FlowAllocStats, FlowWorkspace, IntervalSchedStats, Intervals, PathPool,
};
use sr::obs::{EventSink, MetricsRecorder, SimEvent};
use sr::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One compile op: a platform at an input period.
struct Point {
    platform: usize,
    period: f64,
}

/// What the timed part of one op saw.
struct OpResult {
    schedule: Option<Schedule>,
    verified: bool,
    op_ms: f64,
    compile_ms: f64,
    verify_ms: f64,
}

fn compile_and_verify(
    p: &Platform,
    period: f64,
    config: &CompileConfig,
    tracer: Option<&Tracer>,
) -> OpResult {
    let _op = tracer.map(|t| t.span("bench.op"));
    let t0 = Instant::now();
    let compiled = {
        let _g = tracer.map(|t| t.span("core.compile"));
        compile(p.topo.as_ref(), &p.tfg, &p.alloc, &p.timing, period, config)
    };
    let t1 = Instant::now();
    let verified = match &compiled {
        Ok(s) => {
            let _g = tracer.map(|t| t.span("core.verify"));
            verify(s, p.topo.as_ref(), &p.tfg).is_ok()
        }
        // An infeasible verdict is a valid outcome with nothing to verify.
        Err(_) => true,
    };
    OpResult {
        schedule: compiled.ok(),
        verified,
        op_ms: ms_since(t0),
        compile_ms: (t1 - t0).as_secs_f64() * 1e3,
        verify_ms: ms_since(t1),
    }
}

/// Calls the public phase functions in `compile`'s order for the first
/// candidate (path seed 0, capacity scale 1.0), each in a span named after
/// its layer. Returns the segments it ends with, or `None` when the first
/// candidate dies on the way (then `compile` went on to other candidates).
fn staged_first_candidate(
    p: &Platform,
    period: f64,
    config: &CompileConfig,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Option<Vec<sr::core::Segment>> {
    let topo = p.topo.as_ref();
    let bounds = tracer
        .time("tfg.time_bounds", || {
            assign_time_bounds(&p.tfg, &p.timing, period, config.window_policy)
        })
        .ok()?;
    let (intervals, activity) = tracer.time("core.intervals", || {
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        (intervals, activity)
    });
    let endpoints = |m: &sr::tfg::Message| (p.alloc.node_of(m.src()), p.alloc.node_of(m.dst()));
    // `compile` enumerates shortest paths lazily inside path assignment;
    // enumerating them up front splits the topology's share from the
    // hill-climb's.
    let pool = tracer.time("topology.shortest_paths", || {
        let pool = PathPool::seeded(
            topo,
            config.assign_paths.path_cap,
            p.tfg.messages().iter().map(endpoints),
        );
        for m in p.tfg.messages() {
            let (s, d) = endpoints(m);
            pool.paths(s, d);
        }
        pool
    });
    let ap_config = AssignPathsConfig {
        ..config.assign_paths
    };
    let outcome = tracer.time("core.assign_paths", || {
        if config.partition > 1 {
            assign_paths_partitioned(
                &p.tfg,
                topo,
                &p.alloc,
                &bounds,
                &intervals,
                &activity,
                &ap_config,
                &pool,
                &band_partition_topo(topo, config.partition),
                1,
            )
        } else {
            assign_paths_pooled(
                &p.tfg, topo, &p.alloc, &bounds, &intervals, &activity, &ap_config, &pool,
            )
        }
    });
    if outcome.utilization.effective_peak() > 1.0 + config.utilization_tolerance {
        return None;
    }
    let subsets = tracer.time("core.subsets", || {
        related_subsets(&outcome.assignment, &activity)
    });
    layers.add("core.allocation.subsets", subsets.len() as f64);
    let mut alloc_stats = AllocationStats::default();
    let allocation = tracer
        .time("core.allocation", || match config.alloc_engine {
            AllocEngine::Flow => allocate_intervals_flow(
                &outcome.assignment,
                &bounds,
                &activity,
                &intervals,
                &subsets,
                1.0,
                &mut FlowWorkspace::new(),
                &mut FlowAllocStats::default(),
                &mut alloc_stats,
            ),
            AllocEngine::Simplex => allocate_intervals_stats(
                &outcome.assignment,
                &bounds,
                &activity,
                &intervals,
                &subsets,
                1.0,
                &mut alloc_stats,
            ),
        })
        .ok()?;
    let interval_schedules = tracer
        .time("core.interval_sched", || {
            schedule_intervals_guarded_stats(
                &outcome.assignment,
                &allocation,
                &intervals,
                &subsets,
                config.max_feasible_sets,
                config.guard_time,
                &mut IntervalSchedStats::default(),
            )
        })
        .ok()?;
    let (segments, _nodes) = tracer.time("core.switching", || {
        build_node_schedules(&outcome.assignment, &interval_schedules, topo)
    });
    Some(segments)
}

const STAGES: [(&str, &str); 8] = [
    ("tfg.time_bounds", "tfg.time_bounds_ms"),
    ("core.intervals", "core.intervals_ms"),
    ("topology.shortest_paths", "topology.shortest_paths_ms"),
    ("core.assign_paths", "core.assign_paths_ms"),
    ("core.subsets", "core.subsets_ms"),
    ("core.allocation", "core.allocation_ms"),
    ("core.interval_sched", "core.interval_sched_ms"),
    ("core.switching", "core.switching_ms"),
];

/// One pass over `points` that measures every compile-path layer: the real
/// `compile` + `verify` under spans, the same compile again under a
/// `MetricsRecorder` for the product's own work counters, and the staged
/// first candidate. Sets the compile-path per-layer metrics as totals of the
/// pass.
fn probe_compile_layers(
    platforms: &[Platform],
    points: &[Point],
    config: &CompileConfig,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mark = tracer.len();
    let rec = MetricsRecorder::new();
    // Over ops whose first candidate won: compile time and the part of it
    // the stages account for.
    let (mut first_compile_ms, mut first_stage_ms) = (0.0, 0.0);
    let (mut feasible, mut peak, mut baseline_peak, mut commands) = (0usize, 0.0, 0.0, 0usize);
    for pt in points {
        let p = &platforms[pt.platform];
        let real = compile_and_verify(p, pt.period, config, Some(tracer));
        let walked_before = rec.counter("search.candidates_walked");
        let recorded = sr::core::compile_with_recorder(
            p.topo.as_ref(),
            &p.tfg,
            &p.alloc,
            &p.timing,
            pt.period,
            config,
            &rec,
        );
        let first_won =
            recorded.is_ok() && rec.counter("search.candidates_walked") - walked_before == 1;
        let stage_mark = tracer.len();
        let staged = staged_first_candidate(p, pt.period, config, tracer, layers);
        if let Some(s) = &real.schedule {
            feasible += 1;
            peak += s.peak_utilization();
            baseline_peak += s.baseline_peak_utilization();
            commands += s
                .node_schedules()
                .iter()
                .map(|n| n.commands().len())
                .sum::<usize>();
            if first_won {
                first_compile_ms += real.compile_ms;
                first_stage_ms += tracer
                    .totals_since(stage_mark)
                    .values()
                    .map(|t| t.total_ms)
                    .sum::<f64>();
                if staged.as_deref() != Some(s.segments()) {
                    failures.push(format!(
                        "{} at period {}: the staged pipeline does not reproduce compile's segments",
                        p.name, pt.period
                    ));
                }
            }
        }
    }
    let totals = tracer.totals_since(mark);
    let total_ms = |span: &str| totals.get(span).map_or(0.0, |t| t.total_ms);
    for (span, metric) in STAGES {
        layers.set(metric, total_ms(span));
    }
    layers.set("core.compile_ms", total_ms("core.compile"));
    layers.set("core.verify_ms", total_ms("core.verify"));
    let c = |name: &str| rec.counter(name) as f64;
    layers.set("core.assign_paths.restarts", c("assign_paths.restarts"));
    layers.set("core.assign_paths.pool_hits", c("par.pathpool.hits"));
    layers.set("core.assign_paths.pool_misses", c("par.pathpool.misses"));
    layers.set("lp.solves", c("alloc_lp.solves") + c("sched_lp.solves"));
    layers.set("lp.pivots", c("alloc_lp.pivots") + c("sched_lp.pivots"));
    layers.set(
        "lp.warm_hits",
        c("alloc_lp.warm_hits") + c("sched_lp.warm_hits"),
    );
    layers.set(
        "core.allocation_flow.dijkstra_pops",
        c("alloc_flow.dijkstra_pops"),
    );
    layers.set(
        "core.allocation_flow.augmentations",
        c("alloc_flow.augmentations"),
    );
    layers.set("core.allocation_flow.fallbacks", c("alloc_flow.fallbacks"));
    layers.set(
        "core.interval_sched.feasible_sets",
        c("interval_sched.feasible_sets"),
    );
    layers.set("core.interval_sched.slices", c("interval_sched.slices"));
    layers.set(
        "core.compile.candidates_walked",
        c("search.candidates_walked"),
    );
    layers.set("core.switching.commands", commands as f64);
    if feasible > 0 {
        layers.set("core.assign_paths.peak_util", peak / feasible as f64);
        layers.set(
            "core.assign_paths.baseline_peak_util",
            baseline_peak / feasible as f64,
        );
    }
    if c("search.candidates_walked") > 0.0 {
        layers.set(
            "core.compile.wasted_candidate_share",
            1.0 - c("search.outcome.scheduled") / c("search.candidates_walked"),
        );
    }
    if first_compile_ms > 0.0 {
        layers.set(
            "core.compile.unattributed_share",
            1.0 - first_stage_ms / first_compile_ms,
        );
    }
    failures
}

// ---------------------------------------------------------------- scale64

pub struct Scale64 {
    /// One platform and one point, as slices for the shared layer probe.
    platforms: Vec<Platform>,
    points: Vec<Point>,
    config: CompileConfig,
    fingerprint: u64,
}

impl Scale64 {
    pub fn new(seed: u64) -> Scale64 {
        let platform = gen::farm(64, 256.0, seed);
        let period = platform.tau_c() / 0.5;
        let mut h = Fnv64::new();
        platform.fingerprint(&mut h);
        h.write_f64(period);
        Scale64 {
            points: vec![Point {
                platform: 0,
                period,
            }],
            platforms: vec![platform],
            config: CompileConfig {
                parallelism: 1,
                alloc_engine: AllocEngine::Flow,
                partition: 16,
                ..CompileConfig::default()
            },
            fingerprint: h.finish(),
        }
    }
}

impl Workload for Scale64 {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        let t0 = Instant::now();
        let op = compile_and_verify(
            &self.platforms[0],
            self.points[0].period,
            &self.config,
            tracer,
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        let peak = op.schedule.as_ref().map(Schedule::peak_utilization);
        if !op.verified {
            failures.push("scale64: the compiled schedule fails verify".to_string());
        }
        // The farm is built so that every tile peaks at U = 0.720 at B=256,
        // load 0.5; anything else means the inputs or AssignPaths moved.
        if !peak.is_some_and(|u| (u - 0.72).abs() < 5e-4) {
            failures.push(format!("scale64: peak U is {peak:?}, not 0.720"));
        }
        Round {
            op_ms: vec![op.op_ms],
            read_ms: vec![op.verify_ms],
            ops: 1,
            wall_s,
            feasible: usize::from(op.schedule.is_some() && op.verified),
            failures,
            outcomes: format!("U={:.3}", peak.unwrap_or(f64::NAN)),
        }
    }

    fn probe_layers(&mut self, tracer: &Tracer, layers: &mut Layers) -> Vec<String> {
        probe_compile_layers(&self.platforms, &self.points, &self.config, tracer, layers)
    }
}

// ---------------------------------------------------------------- paper64

/// Counts simulator events without storing them.
struct CountingSink(AtomicU64);

impl EventSink for CountingSink {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&self, _event: SimEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

pub struct Paper64 {
    /// Platform-major, translation-minor.
    platforms: Vec<Platform>,
    /// Every platform at every load, in the order the round runs them
    /// (seeded shuffle).
    points: Vec<Point>,
    /// Position of each point in platform, translation, load order, for the
    /// outcome vector.
    canonical: Vec<usize>,
    /// For the points on an untranslated platform, which the wormhole
    /// baseline runs too, their position in platform, load order.
    wormhole_slot: Vec<Option<usize>>,
    config: CompileConfig,
    sim: SimConfig,
    /// Simulator events of one pass over the baseline's points.
    sim_events: u64,
    fingerprint: u64,
}

impl Paper64 {
    pub fn new(seed: u64) -> Paper64 {
        let platforms: Vec<Platform> = gen::PAPER_PLATFORMS
            .iter()
            .flat_map(|&(spec, bandwidth)| {
                (0..gen::TRANSLATIONS).map(move |t| gen::paper_platform(spec, bandwidth, t))
            })
            .collect();
        let mut order: Vec<((usize, Option<usize>), Point)> = Vec::new();
        for (pi, p) in platforms.iter().enumerate() {
            for (li, load) in gen::sweep_loads().into_iter().enumerate() {
                let untranslated = pi.is_multiple_of(gen::TRANSLATIONS);
                let wormhole_slot =
                    untranslated.then_some(pi / gen::TRANSLATIONS * gen::LOAD_POINTS + li);
                order.push((
                    (order.len(), wormhole_slot),
                    Point {
                        platform: pi,
                        period: p.tau_c() / load,
                    },
                ));
            }
        }
        Rng::stream(seed, "paper.point_order").shuffle(&mut order);
        let (slots, points): (Vec<(usize, Option<usize>)>, Vec<Point>) = order.into_iter().unzip();
        let (canonical, wormhole_slot) = slots.into_iter().unzip();
        let mut h = Fnv64::new();
        for p in &platforms {
            p.fingerprint(&mut h);
        }
        for pt in &points {
            h.write_u64(pt.platform as u64);
            h.write_f64(pt.period);
        }
        let mut w = Paper64 {
            platforms,
            points,
            canonical,
            wormhole_slot,
            config: CompileConfig {
                parallelism: 1,
                ..CompileConfig::default()
            },
            sim: SimConfig::default(),
            sim_events: 0,
            fingerprint: h.finish(),
        };
        let sink = CountingSink(AtomicU64::new(0));
        for (pt, _) in w.wormhole_points() {
            let p = &w.platforms[pt.platform];
            let sim = WormholeSim::new(p.topo.as_ref(), &p.tfg, &p.alloc, &p.timing)
                .expect("workload matches platform");
            sim.run_with_events(pt.period, &w.sim, &sink)
                .expect("valid run parameters");
        }
        w.sim_events = sink.0.load(Ordering::Relaxed);
        w
    }

    /// The points the wormhole baseline runs, each with its slot in the
    /// outcome vector.
    fn wormhole_points(&self) -> impl Iterator<Item = (&Point, usize)> {
        self.points
            .iter()
            .zip(&self.wormhole_slot)
            .filter_map(|(pt, slot)| Some((pt, (*slot)?)))
    }

    /// The wormhole baseline of every untranslated point, as one timed block.
    /// Returns the block's wall in ms and one letter per point in canonical
    /// order: `d` deadlock, `i` output inconsistency, `c` constant output
    /// interval.
    fn sim_block(&self, tracer: Option<&Tracer>) -> (f64, String) {
        let t0 = Instant::now();
        let mut letters = vec![b'?'; gen::PAPER_PLATFORMS.len() * gen::LOAD_POINTS];
        for (pt, slot) in self.wormhole_points() {
            let p = &self.platforms[pt.platform];
            let _g = tracer.map(|t| t.span("wormhole.run"));
            let sim = WormholeSim::new(p.topo.as_ref(), &p.tfg, &p.alloc, &p.timing)
                .expect("workload matches platform");
            let res = sim.run(pt.period, &self.sim).expect("valid run parameters");
            letters[slot] = if res.deadlocked() {
                b'd'
            } else if res.has_output_inconsistency(1e-6) {
                b'i'
            } else {
                b'c'
            };
        }
        (ms_since(t0), String::from_utf8(letters).expect("ascii"))
    }
}

impl Workload for Paper64 {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        let mut round = Round::default();
        let mut verdicts = vec![b'?'; self.points.len()];
        let t0 = Instant::now();
        for (pt, &slot) in self.points.iter().zip(&self.canonical) {
            let p = &self.platforms[pt.platform];
            let op = compile_and_verify(p, pt.period, &self.config, tracer);
            round.op_ms.push(op.op_ms);
            if !op.verified {
                round.failures.push(format!(
                    "{} at period {}: schedule fails verify",
                    p.name, pt.period
                ));
            }
            if op.schedule.is_some() {
                round.read_ms.push(op.verify_ms);
                round.feasible += usize::from(op.verified);
            }
            verdicts[slot] = if op.schedule.is_some() { b'1' } else { b'0' };
        }
        let (_sim_ms, wr) = self.sim_block(tracer);
        round.wall_s = t0.elapsed().as_secs_f64();
        // The wormhole runs count toward the rate as reads do on the serve
        // workloads; their own speed is the per-layer `wormhole.events_per_s`.
        round.ops = self.points.len() + wr.len();
        round.outcomes = format!("sr={} wr={wr}", String::from_utf8(verdicts).expect("ascii"));
        round
    }

    fn probe_layers(&mut self, tracer: &Tracer, layers: &mut Layers) -> Vec<String> {
        let failures =
            probe_compile_layers(&self.platforms, &self.points, &self.config, tracer, layers);
        // Three timed passes of the simulator block; the median sets the rate.
        let mut block_ms: Vec<f64> = (0..3).map(|_| self.sim_block(Some(tracer)).0).collect();
        block_ms.sort_by(f64::total_cmp);
        layers.set("wormhole.run_ms", block_ms[1]);
        layers.set("wormhole.events", self.sim_events as f64);
        layers.set(
            "wormhole.events_per_s",
            self.sim_events as f64 / (block_ms[1] / 1e3),
        );
        failures
    }
}
