//! Specification parsing and command logic behind the `srsched` binary.
//!
//! The CLI lets a user describe a platform and workload as short spec
//! strings and run the scheduled-routing compiler or the wormhole simulator
//! against them:
//!
//! ```text
//! srsched compile --topo cube:6 --tfg dvb:8 --bandwidth 64 --period 100
//! srsched simulate --topo torus:8x8 --tfg dvb:8 --bandwidth 128 --period 62.5
//! srsched sweep --topo ghc:4x4x4 --tfg dvb:8 --bandwidth 64
//! srsched info --topo mesh:8x8 --tfg chain:5
//! ```
//!
//! Spec grammar:
//!
//! * topology: `cube:<dims>`, `ghc:<r1>x<r2>x…`, `torus:<k1>x<k2>x…`,
//!   `mesh:<k1>x<k2>x…`
//! * TFG: `dvb:<models>` (uniform task sizes), `dvb-raw:<models>`,
//!   `chain:<stages>`, `diamond:<width>`, `random:<seed>`
//! * allocation: `greedy`, `random:<seed>`, `roundrobin`, `search:<seed>`

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use sr::prelude::*;
use sr::tfg::generators;

pub mod report;

/// Errors from parsing spec strings or command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for SpecError {}

/// Parses a topology spec like `cube:6`, `ghc:4x4x4`, `torus:8x8`,
/// `mesh:4x4`.
///
/// # Errors
///
/// Returns [`SpecError`] for unknown families, malformed extents, or
/// topologies the constructor rejects.
pub fn parse_topology(spec: &str) -> Result<Box<dyn Topology>, SpecError> {
    let (family, rest) = spec
        .split_once(':')
        .ok_or_else(|| SpecError::new(format!("topology spec '{spec}' needs 'family:params'")))?;
    let dims = |s: &str| -> Result<Vec<usize>, SpecError> {
        s.split('x')
            .map(|p| {
                p.parse::<usize>()
                    .map_err(|_| SpecError::new(format!("bad extent '{p}' in '{spec}'")))
            })
            .collect()
    };
    let err = |e: sr::topology::TopologyError| SpecError::new(format!("{spec}: {e}"));
    match family {
        "cube" => {
            let d: usize = rest
                .parse()
                .map_err(|_| SpecError::new(format!("bad dimension count '{rest}'")))?;
            Ok(Box::new(GeneralizedHypercube::binary(d).map_err(err)?))
        }
        "ghc" => Ok(Box::new(
            GeneralizedHypercube::new(&dims(rest)?).map_err(err)?,
        )),
        "torus" => Ok(Box::new(Torus::new(&dims(rest)?).map_err(err)?)),
        "mesh" => Ok(Box::new(
            sr::topology::Mesh::new(&dims(rest)?).map_err(err)?,
        )),
        other => Err(SpecError::new(format!(
            "unknown topology family '{other}' (expected cube|ghc|torus|mesh)"
        ))),
    }
}

/// Parses a TFG spec like `dvb:8`, `dvb-raw:8`, `chain:5`, `diamond:4`,
/// `random:42`, or `file:path.tfg` (the `sr_tfg::from_text` format).
///
/// # Errors
///
/// Returns [`SpecError`] for unknown kinds or malformed parameters.
pub fn parse_tfg(spec: &str) -> Result<TaskFlowGraph, SpecError> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| SpecError::new(format!("tfg spec '{spec}' needs 'kind:param'")))?;
    if kind == "file" {
        let text = std::fs::read_to_string(rest)
            .map_err(|e| SpecError::new(format!("cannot read '{rest}': {e}")))?;
        return sr::tfg::from_text(&text).map_err(|e| SpecError::new(format!("{rest}: {e}")));
    }
    let n: u64 = rest
        .parse()
        .map_err(|_| SpecError::new(format!("bad parameter '{rest}' in '{spec}'")))?;
    match kind {
        "dvb" => {
            if n == 0 {
                return Err(SpecError::new("dvb needs at least 1 model"));
            }
            Ok(dvb_uniform(n as usize))
        }
        "dvb-raw" => {
            if n == 0 {
                return Err(SpecError::new("dvb-raw needs at least 1 model"));
            }
            Ok(dvb(n as usize))
        }
        "chain" => {
            if n == 0 {
                return Err(SpecError::new("chain needs at least 1 stage"));
            }
            Ok(generators::chain(n as usize, 1925, 1536))
        }
        "diamond" => {
            if n == 0 {
                return Err(SpecError::new("diamond needs at least 1 branch"));
            }
            Ok(generators::diamond(n as usize, 1925, 1536))
        }
        "random" => Ok(generators::layered_random(
            n,
            &generators::LayeredParams::default(),
        )),
        other => Err(SpecError::new(format!(
            "unknown tfg kind '{other}' (expected dvb|dvb-raw|chain|diamond|random|file)"
        ))),
    }
}

/// Parses an allocation spec like `greedy`, `scatter:7` (one task per
/// node), `random:7` (may co-locate), `roundrobin`, `search:3`.
///
/// # Errors
///
/// Returns [`SpecError`] for unknown strategies or malformed seeds.
pub fn parse_allocation(
    spec: &str,
    tfg: &TaskFlowGraph,
    topo: &dyn Topology,
) -> Result<Allocation, SpecError> {
    let (kind, seed) = match spec.split_once(':') {
        Some((k, s)) => {
            let seed: u64 = s
                .parse()
                .map_err(|_| SpecError::new(format!("bad seed '{s}' in '{spec}'")))?;
            (k, seed)
        }
        None => (spec, 0),
    };
    match kind {
        "greedy" => Ok(sr::mapping::greedy(tfg, topo)),
        "scatter" => sr::mapping::random_distinct(tfg, topo, seed)
            .map_err(|e| SpecError::new(format!("{spec}: {e}"))),
        "random" => Ok(sr::mapping::random(tfg, topo, seed)),
        "roundrobin" => Ok(sr::mapping::round_robin(tfg, topo)),
        "search" => Ok(sr::mapping::local_search(tfg, topo, seed, 500)),
        "codesign" => {
            // Schedulability-driven co-design (paper §7): expensive but the
            // placements it finds are chosen for compilable utilization.
            let timing = sr::tfg::Timing::calibrated_dvb(64.0);
            let period = timing.longest_task(tfg) * 2.0;
            let start = sr::mapping::random_distinct(tfg, topo, seed)
                .unwrap_or_else(|_| sr::mapping::random(tfg, topo, seed));
            Ok(sr::core::co_design(
                topo,
                tfg,
                &timing,
                period,
                start,
                40,
                seed,
                &sr::core::CompileConfig::default(),
            )
            .allocation)
        }
        other => Err(SpecError::new(format!(
            "unknown allocation '{other}' (expected greedy|scatter:<seed>|random:<seed>|roundrobin|search:<seed>|codesign:<seed>)"
        ))),
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand: `compile`, `simulate`, `sweep`, or `info`.
    pub command: String,
    /// Topology spec (default `cube:6`).
    pub topo: String,
    /// TFG spec (default `dvb:8`).
    pub tfg: String,
    /// Allocation spec (default `scatter:7`).
    pub alloc: String,
    /// Link bandwidth, bytes/µs (default 64).
    pub bandwidth: f64,
    /// Input period, µs (default `τ_c / 0.5`).
    pub period: Option<f64>,
    /// Clock-skew guard time, µs.
    pub guard: f64,
    /// Worker threads for the compile feedback search (0 = auto).
    pub parallelism: usize,
    /// Message–interval allocation backend (`--alloc-engine simplex|flow`).
    pub alloc_engine: AllocEngine,
    /// Fabric bands for partitioned path search/allocation (0/1 = flat).
    pub partition: usize,
    /// Virtual channels for simulation.
    pub virtual_channels: usize,
    /// Adaptive-routing path cap for simulation (1 = deterministic).
    pub adaptive: usize,
    /// Dump full node switching schedules after compiling.
    pub dump: bool,
    /// Render per-link ASCII timelines after compiling.
    pub timeline: bool,
    /// Write the compiled schedule as JSON to this path.
    pub json: Option<String>,
    /// Write a Chrome-tracing JSON of the run to this path
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    pub trace_out: Option<String>,
    /// Print the collected counters/histograms/span totals to stderr.
    pub metrics: bool,
    /// Append a JSONL flight-recorder journal (meta, counters, spans,
    /// events) to this path, with bounded rotation.
    pub journal: Option<String>,
    /// Write the Prometheus text exposition of the metrics to this path.
    pub prom: Option<String>,
    /// For `report`: replay the wormhole event stream from this journal
    /// instead of running the simulator.
    pub from_journal: Option<String>,
    /// Pin the compiler's capacity-scale ladder to this single scale
    /// (diagnostics: forces the allocation to answer at one rung).
    pub cap_scale: Option<f64>,
    /// Spare-capacity reservation ε for the compiler (headroom for repair).
    pub spare: f64,
    /// Link ids to fail (`faults --fail-links 3,17`).
    pub fail_links: Vec<usize>,
    /// Node ids to fail (`faults --fail-nodes 5`).
    pub fail_nodes: Vec<usize>,
    /// Attempt incremental repair after injecting the faults.
    pub repair: bool,
    /// Sweep random link failures up to this count (`faults --sweep 3`).
    pub sweep_k: Option<usize>,
    /// Output path for the `report` subcommand's HTML.
    pub out: String,
    /// For `serve`: bind a Unix socket at this path.
    pub socket: Option<String>,
    /// For `serve`: speak the framed protocol on stdin/stdout.
    pub stdio: bool,
    /// For `serve`: bind the HTTP exposition listener (`/metrics`,
    /// `/healthz`, `/tenants`) at this address (e.g. `127.0.0.1:9464`).
    pub http: Option<String>,
    /// Positional input file (the `serve-replay` audit journal).
    pub input: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: String::new(),
            topo: "cube:6".into(),
            tfg: "dvb:8".into(),
            alloc: "scatter:7".into(),
            bandwidth: 64.0,
            period: None,
            guard: 0.0,
            parallelism: 0,
            alloc_engine: AllocEngine::Simplex,
            partition: 0,
            virtual_channels: 1,
            adaptive: 1,
            dump: false,
            timeline: false,
            json: None,
            trace_out: None,
            metrics: false,
            journal: None,
            prom: None,
            from_journal: None,
            cap_scale: None,
            spare: 0.0,
            fail_links: Vec::new(),
            fail_nodes: Vec::new(),
            repair: false,
            sweep_k: None,
            out: "report.html".into(),
            socket: None,
            stdio: false,
            http: None,
            input: None,
        }
    }
}

/// Parses `srsched` arguments (without the program name).
///
/// # Errors
///
/// Returns [`SpecError`] for unknown flags/commands or unparsable values.
pub fn parse_args(args: &[String]) -> Result<Options, SpecError> {
    let mut opts = Options::default();
    let mut it = args.iter();
    opts.command = it.next().ok_or_else(|| SpecError::new(USAGE))?.to_string();
    if !matches!(
        opts.command.as_str(),
        "compile"
            | "simulate"
            | "sweep"
            | "info"
            | "minperiod"
            | "faults"
            | "report"
            | "explain"
            | "serve"
            | "serve-replay"
    ) {
        return Err(SpecError::new(format!(
            "unknown command '{}'\n{USAGE}",
            opts.command
        )));
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, SpecError> {
            it.next()
                .map(String::from)
                .ok_or_else(|| SpecError::new(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--topo" => opts.topo = value("--topo")?,
            "--tfg" => opts.tfg = value("--tfg")?,
            "--alloc" => opts.alloc = value("--alloc")?,
            "--bandwidth" => {
                opts.bandwidth = value("--bandwidth")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --bandwidth"))?
            }
            "--period" => {
                opts.period = Some(
                    value("--period")?
                        .parse()
                        .map_err(|_| SpecError::new("bad --period"))?,
                )
            }
            "--guard" => {
                opts.guard = value("--guard")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --guard"))?
            }
            "--parallelism" => {
                opts.parallelism = value("--parallelism")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --parallelism"))?
            }
            "--alloc-engine" => {
                opts.alloc_engine = match value("--alloc-engine")?.as_str() {
                    "simplex" => AllocEngine::Simplex,
                    "flow" => AllocEngine::Flow,
                    other => {
                        return Err(SpecError::new(format!(
                            "bad --alloc-engine '{other}' (expected simplex|flow)"
                        )))
                    }
                }
            }
            "--partition" => {
                opts.partition = value("--partition")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --partition"))?
            }
            "--vc" => {
                opts.virtual_channels = value("--vc")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --vc"))?
            }
            "--adaptive" => {
                opts.adaptive = value("--adaptive")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --adaptive"))?
            }
            "--spare" => {
                opts.spare = value("--spare")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --spare"))?;
                if !(0.0..1.0).contains(&opts.spare) {
                    return Err(SpecError::new("--spare must be in [0, 1)"));
                }
            }
            "--fail-links" => opts.fail_links = parse_id_list(&value("--fail-links")?)?,
            "--fail-nodes" => opts.fail_nodes = parse_id_list(&value("--fail-nodes")?)?,
            "--repair" => opts.repair = true,
            "--sweep" => {
                opts.sweep_k = Some(
                    value("--sweep")?
                        .parse()
                        .map_err(|_| SpecError::new("bad --sweep"))?,
                )
            }
            "--dump" => opts.dump = true,
            "--timeline" => opts.timeline = true,
            "--json" => opts.json = Some(value("--json")?),
            "--out" => opts.out = value("--out")?,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--metrics" => opts.metrics = true,
            "--journal" => opts.journal = Some(value("--journal")?),
            "--prom" => opts.prom = Some(value("--prom")?),
            "--from-journal" => opts.from_journal = Some(value("--from-journal")?),
            "--socket" => opts.socket = Some(value("--socket")?),
            "--stdio" => opts.stdio = true,
            "--http" => opts.http = Some(value("--http")?),
            "--cap-scale" => {
                let s: f64 = value("--cap-scale")?
                    .parse()
                    .map_err(|_| SpecError::new("bad --cap-scale"))?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err(SpecError::new("--cap-scale must be in (0, 1]"));
                }
                opts.cap_scale = Some(s);
            }
            other => {
                // `serve-replay` takes its journal as a bare positional.
                if opts.command == "serve-replay" && !other.starts_with('-') && opts.input.is_none()
                {
                    opts.input = Some(other.to_string());
                } else {
                    return Err(SpecError::new(format!("unknown flag '{other}'\n{USAGE}")));
                }
            }
        }
    }
    Ok(opts)
}

/// Parses a comma-separated id list like `3,17,40`.
fn parse_id_list(s: &str) -> Result<Vec<usize>, SpecError> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| SpecError::new(format!("bad id '{p}' in '{s}'")))
        })
        .collect()
}

/// Usage text shown for malformed command lines.
pub const USAGE: &str = "usage: srsched \
<compile|simulate|sweep|info|minperiod|faults|report|explain|serve|serve-replay> \
[--topo SPEC] [--tfg SPEC] [--alloc SPEC] [--bandwidth B] [--period T] \
[--guard G] [--spare E] [--parallelism N] [--alloc-engine simplex|flow] [--partition N] \
[--vc N] [--adaptive P] [--cap-scale S] \
[--dump] [--timeline] \
[--json FILE] [--trace-out FILE] [--metrics] [--journal FILE] [--prom FILE] [--out FILE] \
[--from-journal FILE] \
[--fail-links L1,L2] [--fail-nodes N1,N2] [--repair] [--sweep K] \
[--stdio] [--socket PATH] [--http ADDR] [FILE]";

/// Runs a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Propagates spec errors and fatal harness errors; schedulability failures
/// are *reported*, not raised.
pub fn run(opts: &Options, out: &mut dyn fmt::Write) -> Result<(), Box<dyn Error>> {
    let topo = parse_topology(&opts.topo)?;
    let tfg = parse_tfg(&opts.tfg)?;
    let alloc = parse_allocation(&opts.alloc, &tfg, topo.as_ref())?;
    let timing = Timing::calibrated_dvb(opts.bandwidth);
    let tau_c = timing.longest_task(&tfg);
    let period = opts.period.unwrap_or(tau_c * 2.0);

    // One recorder per invocation; it stays a no-op (never recording,
    // never allocating) unless an observability output asked for it.
    let recording =
        opts.metrics || opts.trace_out.is_some() || opts.journal.is_some() || opts.prom.is_some();
    let metrics = MetricsRecorder::new();
    let rec: &dyn Recorder = if recording { &metrics } else { &sr::obs::NOOP };

    match opts.command.as_str() {
        "info" => {
            let stats = sr::topology::TopologyStats::compute(topo.as_ref(), 32);
            writeln!(
                out,
                "topology : {} ({} nodes, {} links, degree {})",
                topo.name(),
                topo.num_nodes(),
                topo.num_links(),
                topo.degree()
            )?;
            writeln!(
                out,
                "           diameter {}, mean distance {:.2}, mean shortest paths {:.1} (cap 32)",
                stats.diameter, stats.mean_distance, stats.mean_alternative_paths
            )?;
            writeln!(
                out,
                "tfg      : {} tasks, {} messages, {} bytes/invocation",
                tfg.num_tasks(),
                tfg.num_messages(),
                tfg.total_bytes()
            )?;
            writeln!(
                out,
                "timing   : τ_c = {tau_c} µs, τ_m = {} µs, Λ = {} µs",
                timing.longest_message(&tfg),
                timing.critical_path(&tfg)
            )?;
            writeln!(
                out,
                "alloc    : {} distinct nodes, Σ bytes×hops = {}",
                alloc.nodes_used(),
                alloc.comm_cost(&tfg, topo.as_ref())
            )?;
        }
        "compile" => {
            let config = compile_config(opts);
            let compiled = sr::core::compile_with_recorder(
                topo.as_ref(),
                &tfg,
                &alloc,
                &timing,
                period,
                &config,
                rec,
            );
            match compiled {
                Ok(s) => {
                    verify(&s, topo.as_ref(), &tfg)?;
                    writeln!(out, "schedule compiled and verified")?;
                    writeln!(out, "  period      : {} µs", s.period())?;
                    writeln!(
                        out,
                        "  latency     : {} µs ({:.3}×Λ)",
                        s.latency(),
                        s.latency() / timing.critical_path(&tfg)
                    )?;
                    writeln!(
                        out,
                        "  utilization : {:.3} (baseline {:.3})",
                        s.peak_utilization(),
                        s.baseline_peak_utilization()
                    )?;
                    let sum = s.summary(topo.as_ref());
                    writeln!(
                        out,
                        "  segments    : {} ({} commands on {} CPs)",
                        sum.segments, sum.commands, sum.active_nodes
                    )?;
                    if let Some((link, frac)) = sum.busiest_link {
                        writeln!(
                            out,
                            "  busiest link: {link} at {:.0}% of the frame",
                            frac * 100.0
                        )?;
                    }
                    if let Some(path) = &opts.json {
                        std::fs::write(path, s.to_json())?;
                        writeln!(out, "  wrote JSON schedule to {path}")?;
                    }
                    if opts.timeline {
                        writeln!(out, "\nlink timelines:")?;
                        write!(out, "{}", s.render_timelines(topo.as_ref(), 64))?;
                    }
                    if opts.dump {
                        for ns in s.node_schedules() {
                            if ns.is_idle() {
                                continue;
                            }
                            writeln!(out, "  {}:", ns.node())?;
                            for c in ns.commands() {
                                writeln!(
                                    out,
                                    "    [{:>8.2}, {:>8.2}] {:?} -> {:?} ({})",
                                    c.start,
                                    c.end,
                                    c.connection.from,
                                    c.connection.to,
                                    tfg.message(c.message).name()
                                )?;
                            }
                        }
                    }
                }
                Err(e) => writeln!(out, "schedule infeasible: {e}")?,
            }
            // Observability output is written for failed compiles too —
            // the trace of an infeasible search is exactly what you want
            // to look at.
            write_observability(opts, &metrics, &[], out)?;
        }
        "explain" => {
            let config = compile_config(opts);
            let (compiled, diag) = sr::core::compile_diagnosed(
                topo.as_ref(),
                &tfg,
                &alloc,
                &timing,
                period,
                &config,
                rec,
            );
            if let Ok(s) = &compiled {
                verify(s, topo.as_ref(), &tfg)?;
            }
            write!(out, "{}", diag.render_text(topo.as_ref(), &tfg))?;
            write_observability(opts, &metrics, &[], out)?;
        }
        "minperiod" => {
            let config = compile_config(opts);
            match sr::core::find_min_period(
                topo.as_ref(),
                &tfg,
                &alloc,
                &timing,
                tau_c * 8.0,
                0.25,
                &config,
            ) {
                Ok(r) => {
                    writeln!(
                        out,
                        "minimum sustainable period: {:.2} µs \
                        (max throughput {:.4} invocations/ms)",
                        r.period,
                        1000.0 / r.period
                    )?;
                    writeln!(
                        out,
                        "  latency at that rate: {:.1} µs",
                        r.schedule.latency()
                    )?;
                    if let Some(below) = r.infeasible_below {
                        writeln!(out, "  infeasible at {below:.2} µs and below")?;
                    }
                }
                Err(e) => writeln!(out, "no feasible period found: {e}")?,
            }
        }
        "simulate" => {
            let sim = WormholeSim::new(topo.as_ref(), &tfg, &alloc, &timing)?
                .with_virtual_channels(opts.virtual_channels)?
                .with_adaptive_routing(opts.adaptive)?;
            let sim_cfg = SimConfig::default();
            // With --trace-out or --journal, capture the simulation event
            // stream so flit events land in the Chrome trace / the journal.
            let sink = (opts.trace_out.is_some() || opts.journal.is_some()).then(|| {
                RingEventSink::with_capacity(event_capacity(sim.routes(), sim_cfg.invocations))
            });
            let span = sr::obs::span_with(rec, "simulate", || format!("period={period}"));
            let res = match &sink {
                Some(s) => sim.run_with_events(period, &sim_cfg, s)?,
                None => sim.run(period, &sim_cfg)?,
            };
            drop(span);
            let sim_events = sink.map(|s| s.events()).unwrap_or_default();
            // The simulator is recorder-free by design; funnel its flight
            // trace into histograms here instead.
            if recording {
                rec.add("wormhole.flights", res.trace().flights().len() as u64);
                rec.add("wormhole.invocations", res.records().len() as u64);
                for f in res.trace().flights() {
                    rec.observe("wormhole.blocked_us", f.blocked());
                    rec.observe("wormhole.residence_us", f.residence());
                }
            }
            writeln!(
                out,
                "wormhole simulation: {} invocations at τ_in = {period} µs",
                res.records().len()
            )?;
            if res.deadlocked() {
                writeln!(
                    out,
                    "  network DEADLOCKED after {} invocations",
                    res.records().len()
                )?;
                for e in res.deadlock_cycle() {
                    writeln!(
                        out,
                        "    {} (invocation {}) waits for {:?}",
                        tfg.message(e.message).name(),
                        e.invocation,
                        e.waiting_for
                    )?;
                }
            } else {
                let i = res.interval_stats();
                let l = res.latency_stats();
                writeln!(
                    out,
                    "  output interval : {:.2}/{:.2}/{:.2} µs (min/mean/max)",
                    i.min, i.mean, i.max
                )?;
                writeln!(
                    out,
                    "  latency         : {:.2}/{:.2}/{:.2} µs",
                    l.min, l.mean, l.max
                )?;
                if let Some(b) = res.trace().blocked_summary() {
                    writeln!(
                        out,
                        "  blocked time    : p50 {:.2}, p95 {:.2}, max {:.2} µs over {} flights",
                        b.p50, b.p95, b.max, b.count
                    )?;
                }
                writeln!(
                    out,
                    "  inconsistent    : {}",
                    res.has_output_inconsistency(1e-6)
                )?;
            }
            write_observability(opts, &metrics, &sim_events, out)?;
        }
        "report" => {
            let events = run_report(opts, topo.as_ref(), &tfg, &alloc, &timing, period, rec, out)?;
            write_observability(opts, &metrics, &events, out)?;
        }
        "sweep" => {
            writeln!(
                out,
                "load sweep on {} (B = {} bytes/µs):",
                topo.name(),
                opts.bandwidth
            )?;
            writeln!(out, "{:<8} {:<26} {:<12}", "load", "wormhole", "scheduled")?;
            for i in 0..12 {
                let load = 0.2 + 0.8 * i as f64 / 11.0;
                let p = tau_c / load;
                let res = WormholeSim::new(topo.as_ref(), &tfg, &alloc, &timing)?
                    .with_virtual_channels(opts.virtual_channels)?
                    .run(p, &SimConfig::default())?;
                let wr = if res.deadlocked() {
                    "deadlock".to_string()
                } else if res.has_output_inconsistency(1e-6) {
                    format!("OI (spread {:.1} µs)", res.interval_stats().spread())
                } else {
                    "consistent".to_string()
                };
                let sr = match compile(
                    topo.as_ref(),
                    &tfg,
                    &alloc,
                    &timing,
                    p,
                    &compile_config(opts),
                ) {
                    Ok(s) => format!("ok (U={:.2})", s.peak_utilization()),
                    Err(e) => match e {
                        CompileError::UtilizationExceeded { utilization } => {
                            format!("U={utilization:.2}>1")
                        }
                        CompileError::AllocationInfeasible { .. } => "alloc-infeasible".into(),
                        CompileError::IntervalUnschedulable { .. } => "interval-unsched".into(),
                        other => format!("{other}"),
                    },
                };
                writeln!(out, "{load:<8.3} {wr:<26} {sr:<12}")?;
            }
        }
        "faults" => {
            run_faults(opts, topo.as_ref(), &tfg, &alloc, &timing, period, rec, out)?;
            write_observability(opts, &metrics, &[], out)?;
        }
        "serve" => {
            let config = compile_config(opts);
            let engine = serve_engine(topo, period, timing, config, opts.parallelism);
            let mut daemon = sr::serve::Daemon::new(engine);
            if let Some(path) = &opts.journal {
                // The genesis meta line records everything serve-replay
                // needs to rebuild a bit-identical engine. Resolved values
                // (period) go in as shortest round-trip f64 text.
                let period_s = period.to_string();
                let bandwidth_s = opts.bandwidth.to_string();
                let guard_s = opts.guard.to_string();
                let spare_s = opts.spare.to_string();
                let parallelism_s = opts.parallelism.to_string();
                let partition_s = opts.partition.to_string();
                let cap_scale_s = opts.cap_scale.map(|s| s.to_string());
                let mut pairs = vec![
                    ("topo", opts.topo.as_str()),
                    ("period", period_s.as_str()),
                    ("bandwidth", bandwidth_s.as_str()),
                    ("guard", guard_s.as_str()),
                    ("spare", spare_s.as_str()),
                    ("parallelism", parallelism_s.as_str()),
                    ("partition", partition_s.as_str()),
                    (
                        "alloc_engine",
                        match opts.alloc_engine {
                            AllocEngine::Simplex => "simplex",
                            AllocEngine::Flow => "flow",
                        },
                    ),
                ];
                if let Some(s) = &cap_scale_s {
                    pairs.push(("cap_scale", s.as_str()));
                }
                daemon.attach_journal(std::path::Path::new(path), &pairs)?;
                eprintln!("serve: audit journal at {path}");
            }
            if let Some(addr) = &opts.http {
                // Frames may own stdout (--stdio), so the bound address —
                // needed when binding port 0 — goes to stderr.
                let bound = daemon.attach_http(addr)?;
                eprintln!("serve: http exposition on http://{bound}/metrics");
            }
            if opts.stdio {
                // The framed protocol owns stdin/stdout; nothing else may
                // be written to `out` (it would trail the frame stream).
                daemon.serve_stdio()?;
            } else if let Some(path) = &opts.socket {
                daemon.serve_unix(std::path::Path::new(path))?;
                writeln!(out, "serve: shutdown, removed socket {path}")?;
            } else {
                return Err(SpecError::new("serve requires --stdio or --socket PATH").into());
            }
        }
        "serve-replay" => {
            let path = opts
                .input
                .as_ref()
                .ok_or_else(|| SpecError::new("serve-replay requires a journal FILE argument"))?;
            run_serve_replay(path, out)?;
        }
        _ => unreachable!("validated in parse_args"),
    }
    Ok(())
}

/// The `faults` subcommand: inject a fault set (or sweep random ones) into a
/// freshly compiled schedule and report damage, repair, and how the wormhole
/// baseline fares under the *same* failures.
#[allow(clippy::too_many_arguments)]
fn run_faults(
    opts: &Options,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    rec: &dyn Recorder,
    out: &mut dyn fmt::Write,
) -> Result<(), Box<dyn Error>> {
    let config = compile_config(opts);
    let sched =
        match sr::core::compile_with_recorder(topo, tfg, alloc, timing, period, &config, rec) {
            Ok(s) => s,
            Err(e) => {
                writeln!(out, "baseline schedule infeasible: {e}")?;
                return Ok(());
            }
        };
    writeln!(
        out,
        "baseline: period {} µs, U = {:.3}, spare ε = {}",
        sched.period(),
        sched.peak_utilization(),
        opts.spare
    )?;

    if let Some(k_max) = opts.sweep_k {
        let cfg = SweepConfig {
            k_max,
            ..SweepConfig::default()
        };
        writeln!(
            out,
            "fault sweep on {} ({} random draws per k):",
            topo.name(),
            cfg.trials
        )?;
        writeln!(
            out,
            "{:<4} {:<10} {:<9} {:<9} {:<11} {:<10} {:<9} wormhole",
            "k", "unchanged", "repaired", "degraded", "infeasible", "feasible%", "rerouted"
        )?;
        for p in sweep_link_failures(&sched, topo, tfg, timing, &cfg) {
            // One representative draw per k for the WR-under-faults column,
            // using the same seed derivation as the sweep's first trial.
            let seed = cfg.seed.wrapping_add((p.k as u64) << 32);
            let faults = FaultSet::random_links(topo, p.k, seed);
            let wr = wormhole_under_faults(topo, tfg, alloc, timing, period, &faults, opts)?;
            writeln!(
                out,
                "{:<4} {:<10} {:<9} {:<9} {:<11} {:<10.0} {:<9.1} {}",
                p.k,
                p.unchanged,
                p.repaired,
                p.degraded,
                p.infeasible,
                p.feasible_fraction() * 100.0,
                p.mean_rerouted,
                wr
            )?;
        }
        return Ok(());
    }

    let mut faults = FaultSet::new();
    for &l in &opts.fail_links {
        if l >= topo.num_links() {
            return Err(Box::new(SpecError::new(format!(
                "--fail-links: L{l} out of range ({} has {} links)",
                topo.name(),
                topo.num_links()
            ))));
        }
        faults = faults.fail_link(LinkId(l));
    }
    for &n in &opts.fail_nodes {
        if n >= topo.num_nodes() {
            return Err(Box::new(SpecError::new(format!(
                "--fail-nodes: N{n} out of range ({} has {} nodes)",
                topo.name(),
                topo.num_nodes()
            ))));
        }
        faults = faults.fail_node(NodeId(n));
    }
    writeln!(out, "faults  : {faults}")?;
    let report = analyze_damage(&sched, &faults);
    writeln!(
        out,
        "damage  : {} unaffected, {} affected, {} lost (of {} messages)",
        report.unaffected.len(),
        report.affected.len(),
        report.lost.len(),
        tfg.num_messages()
    )?;

    if !opts.repair {
        match verify_with_faults(&sched, topo, tfg, &faults) {
            Ok(()) => writeln!(out, "schedule remains valid under these faults")?,
            Err(e) => writeln!(
                out,
                "schedule invalid under faults: {e} (rerun with --repair)"
            )?,
        }
        let wr = wormhole_under_faults(topo, tfg, alloc, timing, period, &faults, opts)?;
        writeln!(out, "wormhole under same faults: {wr}")?;
        return Ok(());
    }

    let t0 = std::time::Instant::now();
    let outcome = sr::fault::repair_with_recorder(
        &sched,
        topo,
        tfg,
        timing,
        &faults,
        &RepairConfig::default(),
        rec,
    );
    let repair_ms = t0.elapsed().as_secs_f64() * 1e3;
    writeln!(
        out,
        "repair  : {} in {repair_ms:.2} ms ({} rerouted, {} demoted, {} dropped)",
        outcome.verdict,
        outcome.rerouted.len(),
        outcome.demoted.len(),
        outcome.dropped.len()
    )?;
    if let Some(repaired) = &outcome.schedule {
        verify_with_faults(repaired, topo, tfg, &faults)?;
        writeln!(
            out,
            "  repaired schedule verified; U = {:.3}",
            repaired.peak_utilization()
        )?;
    }

    // How does an incremental repair compare with recompiling from scratch
    // on the surviving network?
    let masked = MaskedTopology::new(topo, faults.clone());
    if masked.is_connected() {
        let t1 = std::time::Instant::now();
        let full = compile(&masked, tfg, alloc, timing, period, &config);
        let full_ms = t1.elapsed().as_secs_f64() * 1e3;
        let ratio = if repair_ms > 0.0 {
            full_ms / repair_ms
        } else {
            f64::INFINITY
        };
        match full {
            Ok(_) => writeln!(
                out,
                "recompile: feasible in {full_ms:.2} ms ({ratio:.1}× repair time)"
            )?,
            Err(e) => writeln!(out, "recompile: infeasible in {full_ms:.2} ms ({e})")?,
        }
    } else {
        writeln!(
            out,
            "recompile: skipped (surviving network is disconnected)"
        )?;
    }

    let wr = wormhole_under_faults(topo, tfg, alloc, timing, period, &faults, opts)?;
    writeln!(out, "wormhole under same faults: {wr}")?;
    Ok(())
}

/// Ring-sink capacity covering a whole run: per message-invocation one
/// inject, one deliver, and at most one acquire + release + block per route
/// link, plus one output event per invocation and fixed slack for safety.
fn event_capacity(routes: &[Vec<LinkId>], invocations: usize) -> usize {
    let per_inv: usize = routes.iter().map(|r| 2 + 3 * r.len()).sum::<usize>() + 1;
    per_inv * invocations + 1024
}

/// The compiler configuration every subcommand shares, assembled from the
/// command-line knobs (including `--cap-scale`, which pins the feedback
/// ladder to a single capacity scale).
fn compile_config(opts: &Options) -> CompileConfig {
    let mut config = CompileConfig {
        guard_time: opts.guard,
        parallelism: opts.parallelism,
        spare_capacity: opts.spare,
        alloc_engine: opts.alloc_engine,
        partition: opts.partition,
        ..CompileConfig::default()
    };
    if let Some(s) = opts.cap_scale {
        config.feedback_scales = vec![s];
    }
    config
}

/// Assembles the serve engine the `serve` and `serve-replay` subcommands
/// share — one construction path, so a replayed engine is configured
/// bit-identically to the daemon that wrote the journal.
fn serve_engine(
    topo: Box<dyn Topology>,
    period: f64,
    timing: Timing,
    config: CompileConfig,
    batch_threads: usize,
) -> sr::serve::Engine {
    let serve_cfg = sr::serve::ServeConfig {
        period,
        timing,
        feedback_scales: config.feedback_scales.clone(),
        batch_threads,
        compile: config,
        ..sr::serve::ServeConfig::default()
    };
    sr::serve::Engine::new(topo, serve_cfg)
}

/// The audit meta keys `srsched serve` writes; each records the flag of the
/// same name (`alloc_engine` is `--alloc-engine`).
const META_KEYS: [&str; 9] = [
    "topo",
    "period",
    "bandwidth",
    "guard",
    "spare",
    "parallelism",
    "partition",
    "alloc_engine",
    "cap_scale",
];

/// Rebuilds the serve engine from an audit journal's genesis meta line,
/// with the fingerprint function the line names to verify its records.
/// The meta values go back through the `serve` command line's own parser
/// and [`compile_config`], so the engine is configured exactly as the
/// daemon that wrote the line. `topo` and `period` are required; an absent
/// knob keeps its command-line default (a daemon started without that
/// flag), and a present one that does not parse is an error naming it.
fn engine_from_meta(
    meta: &std::collections::BTreeMap<String, String>,
) -> Result<(sr::serve::Engine, sr::serve::Fingerprint), Box<dyn Error>> {
    let fingerprint = sr::serve::Fingerprint::of_meta(meta).map_err(SpecError::new)?;
    let missing = |key: &str| SpecError::new(format!("audit meta is missing \"{key}\""));
    if !meta.contains_key("topo") {
        return Err(missing("topo").into());
    }
    let mut argv = vec!["serve".to_string()];
    for key in META_KEYS {
        if let Some(value) = meta.get(key) {
            let flag = format!("--{}", key.replace('_', "-"));
            let one = ["serve".to_string(), flag, value.clone()];
            parse_args(&one)
                .map_err(|e| SpecError::new(format!("audit meta \"{key}\" is {value:?}: {e}")))?;
            argv.extend_from_slice(&one[1..]);
        }
    }
    let opts = parse_args(&argv)?;
    let period = opts.period.ok_or_else(|| missing("period"))?;
    let engine = serve_engine(
        parse_topology(&opts.topo)?,
        period,
        Timing::calibrated_dvb(opts.bandwidth),
        compile_config(&opts),
        opts.parallelism,
    );
    Ok((engine, fingerprint))
}

/// The `serve-replay` subcommand: re-drive a fresh engine from an audit
/// journal and verify every recorded outcome bit-for-bit — after each op
/// the ledger is recomputed from the tenant table, compared with the
/// engine's maintained rows and the journaled hash, and the whole-table
/// invariants are checked (`apply_record`). Hashes are taken with the
/// fingerprint function the meta line names, and the report says which. A
/// rotated journal is stitched back together from `<FILE>.1` + `<FILE>`; a
/// torn final line (crash mid-write) is reported and the intact prefix
/// still verifies. Any divergence is an error (nonzero exit).
fn run_serve_replay(path: &str, out: &mut dyn fmt::Write) -> Result<(), Box<dyn Error>> {
    use sr::serve::{apply_record, parse_audit_line, AuditLine, AuditOp, Fingerprint};
    let live = std::fs::read_to_string(path)?;
    let first_is_meta = live
        .lines()
        .next()
        .is_some_and(|l| matches!(parse_audit_line(l), Ok(AuditLine::Meta(_))));
    let mut text = String::new();
    if !first_is_meta {
        // The live file starts mid-session: rotation moved the prefix
        // (including the genesis meta line) to `<path>.1`.
        if let Ok(prev) = std::fs::read_to_string(format!("{path}.1")) {
            writeln!(out, "serve-replay: stitching rotated prefix from {path}.1")?;
            text.push_str(&prev);
        }
    }
    text.push_str(&live);

    let mut engine: Option<(sr::serve::Engine, Fingerprint)> = None;
    let (mut admits, mut evicts, mut rejects) = (0u64, 0u64, 0u64);
    let mut tear: Option<(usize, String)> = None;
    let total = text.lines().count();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_audit_line(line) {
            Ok(AuditLine::Meta(pairs)) => {
                if engine.is_none() {
                    engine = Some(engine_from_meta(&pairs)?);
                }
            }
            Ok(AuditLine::Record(r)) => {
                let (eng, fingerprint) = engine.as_mut().ok_or_else(|| {
                    SpecError::new(
                        "audit journal has records before its meta line (rotated past the \
                         genesis?) — cannot rebuild the engine",
                    )
                })?;
                apply_record(eng, &r, *fingerprint, &sr::obs::NOOP).map_err(|e| {
                    SpecError::new(format!("replay diverged at line {}: {e}", i + 1))
                })?;
                match r.op {
                    AuditOp::Admit => admits += 1,
                    AuditOp::Evict => evicts += 1,
                    AuditOp::Reject => rejects += 1,
                }
            }
            Err(why) => {
                tear = Some((i + 1, why));
                break;
            }
        }
    }
    if let Some((lineno, why)) = &tear {
        writeln!(
            out,
            "serve-replay: torn line {lineno} of {total} ({why}); verified the intact prefix"
        )?;
    }
    let (eng, fingerprint) =
        engine.ok_or_else(|| SpecError::new(format!("{path} has no audit meta line to replay")))?;
    writeln!(
        out,
        "serve-replay: {} ops verified bit-identical ({admits} admits, {evicts} evicts, \
         {rejects} rejects); tenants: {}; ledger hash {:016x}",
        admits + evicts + rejects,
        eng.tenants().count(),
        fingerprint.of_spans(eng.maintained_ledger())
    )?;
    writeln!(
        out,
        "serve-replay: hashes verified with the {} fingerprint{}",
        fingerprint.label(),
        match fingerprint {
            Fingerprint::WholeStream => " (the meta line names none)",
            Fingerprint::RowSum => ", as the meta line names",
        }
    )?;
    writeln!(
        out,
        "serve-replay: ledger recomputed and invariants checked after every op"
    )?;
    Ok(())
}

/// The `report` subcommand: compile the schedule, run the wormhole baseline
/// with event capture, replay the schedule's event stream, analyze both OI
/// distributions, and render the self-contained HTML report to `opts.out`.
/// Returns the wormhole event stream so `--trace-out` can interleave it.
#[allow(clippy::too_many_arguments)]
fn run_report(
    opts: &Options,
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    rec: &dyn Recorder,
    out: &mut dyn fmt::Write,
) -> Result<Vec<SimEvent>, Box<dyn Error>> {
    let config = compile_config(opts);
    let (compiled, diag) =
        sr::core::compile_diagnosed(topo, tfg, alloc, timing, period, &config, rec);
    let sched = match compiled {
        Ok(s) => s,
        Err(e) => {
            writeln!(
                out,
                "schedule infeasible: {e} — no report written (run `srsched explain` for the \
                 candidate walk and saturated links)"
            )?;
            return Ok(Vec::new());
        }
    };
    verify(&sched, topo, tfg)?;

    let cfg = SimConfig::default();
    // The wormhole side comes either from a live run or, with
    // --from-journal, replayed from a flight recording on disk.
    let (wr_events, wr_deadlocked) = match &opts.from_journal {
        Some(path) => {
            let data = read_journal(std::path::Path::new(path))?;
            writeln!(
                out,
                "replaying {} journaled events from {path} ({} malformed lines skipped)",
                data.events.len(),
                data.skipped
            )?;
            (data.events, false)
        }
        None => {
            let sim = WormholeSim::new(topo, tfg, alloc, timing)?
                .with_virtual_channels(opts.virtual_channels)?
                .with_adaptive_routing(opts.adaptive)?;
            let sink = RingEventSink::with_capacity(event_capacity(sim.routes(), cfg.invocations));
            let res = {
                let span = sr::obs::span_with(rec, "simulate", || format!("period={period}"));
                let r = sim.run_with_events(period, &cfg, &sink)?;
                drop(span);
                r
            };
            (sink.events(), res.deadlocked())
        }
    };
    let wr_oi = analyze_oi(&wr_events, period, cfg.warmup);
    let sr_events = {
        let span = sr::obs::span_with(rec, "replay", || format!("period={period}"));
        let e = sr::core::replay_events(&sched, tfg, timing, cfg.invocations)?;
        drop(span);
        e
    };
    let sr_oi = analyze_oi(&sr_events, period, cfg.warmup);

    let html = report::render_report(&report::ReportInput {
        topo,
        tfg,
        sched: &sched,
        period,
        wr: &wr_oi,
        sr: &sr_oi,
        wr_deadlocked,
        diag: &diag,
        spec: format!(
            "{} · {} · alloc {} · B = {} bytes/µs · τ_in = {period} µs{}",
            opts.topo,
            opts.tfg,
            opts.alloc,
            opts.bandwidth,
            if opts.from_journal.is_some() {
                " · wormhole side replayed from journal"
            } else {
                ""
            }
        ),
    });
    std::fs::write(&opts.out, &html)?;
    writeln!(out, "wrote report to {} ({} bytes)", opts.out, html.len())?;
    writeln!(
        out,
        "  wormhole : {} outputs, max |δ − τ_in| = {:.3} µs, {} cross-invocation stalls{}",
        wr_oi.outputs.len(),
        wr_oi.max_deviation_us,
        wr_oi.cross_invocation_stalls(),
        if wr_deadlocked { " (deadlocked)" } else { "" }
    )?;
    writeln!(
        out,
        "  scheduled: {} outputs, max |δ − τ_in| = {:.3} µs, {} stalls",
        sr_oi.outputs.len(),
        sr_oi.max_deviation_us,
        sr_oi.stalls.len()
    )?;
    Ok(wr_events)
}

/// Runs the wormhole baseline over the masked topology under `faults` and
/// summarizes the outcome in one word (or an OI spread).
fn wormhole_under_faults(
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    faults: &FaultSet,
    opts: &Options,
) -> Result<String, Box<dyn Error>> {
    let masked = MaskedTopology::new(topo, faults.clone());
    if !masked.is_connected() {
        return Ok("disconnected".into());
    }
    let res = WormholeSim::new(&masked, tfg, alloc, timing)?
        .with_virtual_channels(opts.virtual_channels)?
        .with_adaptive_routing(opts.adaptive)?
        .run(period, &SimConfig::default())?;
    Ok(if res.deadlocked() {
        "deadlock".into()
    } else if res.has_output_inconsistency(1e-6) {
        format!("OI (spread {:.1} µs)", res.interval_stats().spread())
    } else {
        "consistent".into()
    })
}

/// Flushes the recorder per `--trace-out`/`--metrics`/`--journal`/`--prom`:
/// the Chrome trace to its file (noting the path in `out`), the metrics
/// table to stderr (so it never mixes with parseable stdout output), the
/// JSONL flight-recorder journal (meta, counters, histograms, spans, and
/// any captured simulation events) appended with bounded rotation, and the
/// Prometheus text exposition to its file.
fn write_observability(
    opts: &Options,
    metrics: &MetricsRecorder,
    events: &[SimEvent],
    out: &mut dyn fmt::Write,
) -> Result<(), Box<dyn Error>> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, metrics.chrome_trace_json_with_events(events))?;
        writeln!(
            out,
            "wrote Chrome trace to {path} (load in chrome://tracing)"
        )?;
    }
    if let Some(path) = &opts.journal {
        let mut w = JournalWriter::create(std::path::Path::new(path), sr::obs::DEFAULT_MAX_BYTES)?;
        w.meta(&[
            ("command", opts.command.as_str()),
            ("topo", opts.topo.as_str()),
            ("tfg", opts.tfg.as_str()),
            ("alloc", opts.alloc.as_str()),
            ("bandwidth", &format!("{}", opts.bandwidth)),
        ])?;
        w.recorder(metrics)?;
        w.events(events)?;
        w.flush()?;
        // Journal self-accounting rides in the `journal.*` namespace so the
        // Prometheus export and `--metrics` table (both rendered below)
        // report what was persisted. The journal itself was already
        // written, so these counters are never inside the file they count.
        metrics.add("journal.lines", w.lines());
        metrics.add("journal.events", events.len() as u64);
        metrics.add("journal.rotations", w.rotations());
        writeln!(
            out,
            "appended journal to {path} ({} lines{})",
            w.lines(),
            if w.rotations() > 0 { ", rotated" } else { "" }
        )?;
    }
    if let Some(path) = &opts.prom {
        std::fs::write(path, metrics.export_prometheus())?;
        writeln!(out, "wrote Prometheus metrics to {path}")?;
    }
    if opts.metrics {
        eprint!("{}", metrics.metrics_table());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_topologies() {
        assert_eq!(parse_topology("cube:6").unwrap().num_nodes(), 64);
        assert_eq!(parse_topology("ghc:4x4x4").unwrap().num_nodes(), 64);
        assert_eq!(parse_topology("torus:8x8").unwrap().num_links(), 128);
        assert_eq!(parse_topology("mesh:8x8").unwrap().num_links(), 112);
        assert!(parse_topology("ring:9").is_err());
        assert!(parse_topology("cube").is_err());
        assert!(parse_topology("torus:8xBAD").is_err());
        assert!(parse_topology("ghc:1x4").is_err()); // radix too small
    }

    #[test]
    fn parse_tfgs() {
        assert_eq!(parse_tfg("dvb:8").unwrap().num_tasks(), 12);
        assert_eq!(parse_tfg("dvb-raw:2").unwrap().num_messages(), 8);
        assert_eq!(parse_tfg("chain:5").unwrap().num_messages(), 4);
        assert_eq!(parse_tfg("diamond:3").unwrap().num_tasks(), 5);
        assert!(parse_tfg("random:42").unwrap().num_tasks() > 0);
        assert!(parse_tfg("dvb:0").is_err());
        assert!(parse_tfg("mystery:4").is_err());
        assert!(parse_tfg("dvb").is_err());
    }

    #[test]
    fn parse_allocations() {
        let topo = parse_topology("cube:4").unwrap();
        let tfg = parse_tfg("dvb:4").unwrap();
        for spec in [
            "greedy",
            "scatter:5",
            "random:3",
            "roundrobin",
            "search:1",
            "codesign:2",
        ] {
            let a = parse_allocation(spec, &tfg, topo.as_ref()).unwrap();
            assert_eq!(a.placement().len(), tfg.num_tasks());
        }
        assert!(parse_allocation("magic", &tfg, topo.as_ref()).is_err());
        assert!(parse_allocation("random:x", &tfg, topo.as_ref()).is_err());
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_command_lines() {
        let o = parse_args(&args("compile --topo torus:4x4 --period 80 --guard 1.5")).unwrap();
        assert_eq!(o.command, "compile");
        assert_eq!(o.topo, "torus:4x4");
        assert_eq!(o.period, Some(80.0));
        assert_eq!(o.guard, 1.5);

        let o = parse_args(&args("simulate --vc 2 --dump")).unwrap();
        assert_eq!(o.virtual_channels, 2);
        assert!(o.dump);

        let o = parse_args(&args("compile --trace-out /tmp/t.json --metrics")).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.json"));
        assert!(o.metrics);
        assert!(parse_args(&args("compile --trace-out")).is_err());

        let o = parse_args(&args("compile --alloc-engine flow")).unwrap();
        assert_eq!(o.alloc_engine, AllocEngine::Flow);
        let o = parse_args(&args("compile --alloc-engine simplex")).unwrap();
        assert_eq!(o.alloc_engine, AllocEngine::Simplex);
        assert!(parse_args(&args("compile --alloc-engine lp")).is_err());
        assert!(parse_args(&args("compile --alloc-engine")).is_err());

        let o = parse_args(&args("compile --partition 4")).unwrap();
        assert_eq!(o.partition, 4);
        assert_eq!(parse_args(&args("compile")).unwrap().partition, 0);
        assert!(parse_args(&args("compile --partition four")).is_err());
        assert!(parse_args(&args("compile --partition")).is_err());

        assert!(parse_args(&args("explode")).is_err());
        assert!(parse_args(&args("compile --period")).is_err());
        assert!(parse_args(&args("compile --frobnicate 3")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn parse_fault_flags() {
        let o = parse_args(&args("faults --fail-links 3,17 --fail-nodes 5 --repair")).unwrap();
        assert_eq!(o.command, "faults");
        assert_eq!(o.fail_links, vec![3, 17]);
        assert_eq!(o.fail_nodes, vec![5]);
        assert!(o.repair);
        assert_eq!(o.sweep_k, None);

        let o = parse_args(&args("faults --sweep 3 --spare 0.1")).unwrap();
        assert_eq!(o.sweep_k, Some(3));
        assert_eq!(o.spare, 0.1);

        assert!(parse_args(&args("faults --fail-links 3,BAD")).is_err());
        assert!(parse_args(&args("faults --sweep x")).is_err());
        assert!(parse_args(&args("compile --spare 1.5")).is_err());
    }

    #[test]
    fn run_faults_point_repair() {
        let opts = parse_args(&args(
            "faults --topo torus:4x4 --tfg dvb:4 --bandwidth 128 --fail-links 0 --repair",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("damage"), "{out}");
        assert!(out.contains("repair  :"), "{out}");
        assert!(out.contains("wormhole under same faults"), "{out}");
    }

    #[test]
    fn run_faults_out_of_range_link_errors() {
        let opts = parse_args(&args(
            "faults --topo cube:3 --tfg chain:3 --fail-links 9999 --period 120",
        ))
        .unwrap();
        let mut out = String::new();
        assert!(run(&opts, &mut out).is_err());
    }

    #[test]
    fn run_faults_sweep_smoke() {
        let opts = parse_args(&args(
            "faults --topo cube:3 --tfg chain:3 --period 120 --sweep 1",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("fault sweep"), "{out}");
        assert!(out.lines().count() >= 4, "{out}");
    }

    #[test]
    fn run_info() {
        let opts = parse_args(&args("info --topo cube:3 --tfg chain:3")).unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("GHC(2,2,2)"));
        assert!(out.contains("3 tasks"));
    }

    #[test]
    fn run_compile_reports_feasibility() {
        let opts = parse_args(&args("compile --topo cube:4 --tfg chain:4 --period 100")).unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("compiled and verified"), "{out}");
    }

    #[test]
    fn run_compile_flow_engine() {
        let opts = parse_args(&args(
            "compile --topo cube:4 --tfg chain:4 --period 100 --alloc-engine flow",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("compiled and verified"), "{out}");
    }

    #[test]
    fn run_compile_reports_infeasibility() {
        // Big diamond on a tiny machine at max rate: infeasible (tasks must
        // share nodes, so use the colliding allocation explicitly).
        let opts = parse_args(&args(
            "compile --topo cube:1 --tfg diamond:6 --period 50 --bandwidth 64 --alloc random:1",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("infeasible"), "{out}");
    }

    #[test]
    fn run_simulate_smoke() {
        let opts = parse_args(&args(
            "simulate --topo cube:4 --tfg dvb:4 --period 70 --bandwidth 128",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(
            out.contains("output interval") || out.contains("DEADLOCK"),
            "{out}"
        );
    }

    #[test]
    fn run_minperiod_smoke() {
        let opts = parse_args(&args(
            "minperiod --topo cube:4 --tfg chain:4 --bandwidth 128",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("minimum sustainable period"), "{out}");
    }

    #[test]
    fn tfg_file_spec_parses() {
        let dir = std::env::temp_dir().join("srsched_test_tfg");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("pipe.tfg");
        std::fs::write(&path, "task a 100\ntask b 100\nmsg m a -> b 64\n").unwrap();
        let g = parse_tfg(&format!("file:{}", path.display())).unwrap();
        assert_eq!(g.num_tasks(), 2);
        assert!(parse_tfg("file:/definitely/not/there.tfg").is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_sweep_smoke() {
        let opts = parse_args(&args("sweep --topo cube:4 --tfg dvb:4 --bandwidth 128")).unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert_eq!(out.lines().count(), 14, "{out}");
    }

    #[test]
    fn run_compile_json_writes_file() {
        let dir = std::env::temp_dir().join("srsched_test_json");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("sched.json");
        let opts = parse_args(&args(&format!(
            "compile --topo cube:3 --tfg chain:3 --period 120 --json {}",
            path.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"period_us\":120.0"), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_compile_trace_out_writes_chrome_json() {
        let dir = std::env::temp_dir().join("srsched_test_trace");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        let opts = parse_args(&args(&format!(
            "compile --topo cube:3 --tfg chain:3 --period 120 --trace-out {}",
            path.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"compile\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_simulate_trace_out_has_flight_histograms() {
        let dir = std::env::temp_dir().join("srsched_test_trace");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("sim_trace.json");
        let opts = parse_args(&args(&format!(
            "simulate --topo cube:4 --tfg dvb:4 --period 70 --bandwidth 128 --trace-out {}",
            path.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"name\":\"simulate\""), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_report_command() {
        let o = parse_args(&args("report --topo torus:4x4 --out /tmp/r.html")).unwrap();
        assert_eq!(o.command, "report");
        assert_eq!(o.out, "/tmp/r.html");
        assert_eq!(parse_args(&args("report")).unwrap().out, "report.html");
        assert!(parse_args(&args("report --out")).is_err());
    }

    #[test]
    fn run_report_writes_selfcontained_html() {
        let dir = std::env::temp_dir().join("srsched_test_report");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("report.html");
        let opts = parse_args(&args(&format!(
            "report --topo cube:3 --tfg chain:3 --period 120 --out {}",
            path.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("wrote report"), "{out}");
        let html = std::fs::read_to_string(&path).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"), "not a document");
        for id in ["overview", "gantt", "heatmap", "oi"] {
            assert!(html.contains(&format!("<section id=\"{id}\">")), "{id}");
        }
        // Self-contained: no external resources of any kind.
        for banned in ["http://", "https://", "<script", "<link", "src="] {
            assert!(!html.contains(banned), "external reference: {banned}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_report_infeasible_writes_nothing() {
        let dir = std::env::temp_dir().join("srsched_test_report");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("never.html");
        let _ = std::fs::remove_file(&path);
        let opts = parse_args(&args(&format!(
            "report --topo cube:1 --tfg diamond:6 --period 50 --alloc random:1 --out {}",
            path.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("infeasible"), "{out}");
        assert!(!path.exists());
    }

    #[test]
    fn run_simulate_trace_out_interleaves_sim_events() {
        let dir = std::env::temp_dir().join("srsched_test_trace");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("sim_events.json");
        let opts = parse_args(&args(&format!(
            "simulate --topo cube:3 --tfg chain:3 --period 120 --trace-out {}",
            path.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        // Simulation events live on pid 2 next to the pid-1 compile spans.
        assert!(json.contains("\"simulation\""), "{json}");
        assert!(json.contains("\"cat\":\"sim\""), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_observability_flags() {
        let o = parse_args(&args(
            "explain --journal /tmp/j.jsonl --prom /tmp/m.prom --cap-scale 0.5",
        ))
        .unwrap();
        assert_eq!(o.command, "explain");
        assert_eq!(o.journal.as_deref(), Some("/tmp/j.jsonl"));
        assert_eq!(o.prom.as_deref(), Some("/tmp/m.prom"));
        assert_eq!(o.cap_scale, Some(0.5));
        let o = parse_args(&args("report --from-journal flight.jsonl")).unwrap();
        assert_eq!(o.from_journal.as_deref(), Some("flight.jsonl"));
        assert!(parse_args(&args("compile --cap-scale 0")).is_err());
        assert!(parse_args(&args("compile --cap-scale 1.5")).is_err());
        assert!(parse_args(&args("compile --journal")).is_err());
    }

    #[test]
    fn parse_serve_ops_flags() {
        let o = parse_args(&args(
            "serve --stdio --http 127.0.0.1:9464 --journal audit.jsonl",
        ))
        .unwrap();
        assert_eq!(o.http.as_deref(), Some("127.0.0.1:9464"));
        assert_eq!(o.journal.as_deref(), Some("audit.jsonl"));
        let o = parse_args(&args("serve-replay audit.jsonl")).unwrap();
        assert_eq!(o.command, "serve-replay");
        assert_eq!(o.input.as_deref(), Some("audit.jsonl"));
        // A second positional or a stray flag still errors.
        assert!(parse_args(&args("serve-replay a.jsonl b.jsonl")).is_err());
        assert!(parse_args(&args("compile extra.file")).is_err());
    }

    /// The genesis meta line `srsched serve` writes, with `key` set to
    /// `value` (or removed when `value` is `None`).
    fn meta_with(key: &str, value: Option<&str>) -> std::collections::BTreeMap<String, String> {
        let mut meta: std::collections::BTreeMap<String, String> = [
            ("kind", "serve-audit"),
            ("topo", "torus:8x8"),
            ("period", "200"),
            ("bandwidth", "64"),
            ("guard", "0"),
            ("spare", "0"),
            ("parallelism", "1"),
            ("partition", "0"),
            ("alloc_engine", "simplex"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        match value {
            Some(v) => meta.insert(key.to_string(), v.to_string()),
            None => meta.remove(key),
        };
        meta
    }

    /// A meta value that does not parse is an error naming its key, not a
    /// silent fall back to the command-line default.
    fn assert_meta_rejected(key: &str, value: &str) {
        let Err(e) = engine_from_meta(&meta_with(key, Some(value))) else {
            panic!("meta {key} = {value:?} rebuilt an engine");
        };
        assert!(e.to_string().contains(&format!("\"{key}\"")), "{e}");
    }

    #[test]
    fn meta_alloc_engine_typo_is_an_error() {
        assert_meta_rejected("alloc_engine", "flwo");
    }

    #[test]
    fn meta_bandwidth_that_does_not_parse_is_an_error() {
        assert_meta_rejected("bandwidth", "abc");
    }

    #[test]
    fn meta_partition_that_does_not_parse_is_an_error() {
        assert_meta_rejected("partition", "x");
    }

    #[test]
    fn meta_guard_that_does_not_parse_is_an_error() {
        assert_meta_rejected("guard", "1.5us");
    }

    #[test]
    fn meta_spare_that_does_not_parse_is_an_error() {
        assert_meta_rejected("spare", "");
    }

    #[test]
    fn meta_parallelism_that_does_not_parse_is_an_error() {
        assert_meta_rejected("parallelism", "-1");
    }

    #[test]
    fn meta_cap_scale_that_does_not_parse_is_an_error() {
        assert_meta_rejected("cap_scale", "half");
    }

    #[test]
    fn meta_absent_knobs_keep_their_defaults() {
        for key in [
            "bandwidth",
            "guard",
            "spare",
            "parallelism",
            "partition",
            "alloc_engine",
        ] {
            assert!(engine_from_meta(&meta_with(key, None)).is_ok(), "{key}");
        }
        for key in ["topo", "period"] {
            let Err(e) = engine_from_meta(&meta_with(key, None)) else {
                panic!("a meta line without {key} rebuilt an engine");
            };
            assert!(e.to_string().contains(&format!("missing \"{key}\"")), "{e}");
        }
    }

    #[test]
    fn run_explain_names_saturated_links_when_infeasible() {
        let opts = parse_args(&args(
            "explain --topo torus:4x4 --tfg dvb:4 --bandwidth 64 --alloc scatter:7 \
             --cap-scale 0.5",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("verdict: infeasible"), "{out}");
        assert!(out.contains("saturated link"), "{out}");
        assert!(out.contains("binding intervals"), "{out}");
    }

    #[test]
    fn run_compile_journal_and_prom_write_files() {
        let dir = std::env::temp_dir().join("srsched_test_obs_out");
        let _ = std::fs::create_dir_all(&dir);
        let jpath = dir.join("compile.jsonl");
        let ppath = dir.join("compile.prom");
        let _ = std::fs::remove_file(&jpath);
        let opts = parse_args(&args(&format!(
            "compile --topo cube:3 --tfg chain:3 --period 120 --journal {} --prom {}",
            jpath.display(),
            ppath.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("appended journal"), "{out}");
        assert!(out.contains("wrote Prometheus metrics"), "{out}");
        let data = sr::obs::read_journal(&jpath).unwrap();
        assert_eq!(data.skipped, 0);
        assert_eq!(data.meta["command"], "compile");
        assert!(data.counters.keys().any(|k| k.starts_with("compile.")));
        let prom = std::fs::read_to_string(&ppath).unwrap();
        assert!(prom.contains("# TYPE sr_"), "{prom}");
        assert!(prom.contains("_total"), "{prom}");
        // Journal self-accounting is recorded after the journal is written,
        // so it reaches the Prometheus export but never the journal itself.
        assert!(prom.contains("sr_journal_lines_total"), "{prom}");
        assert!(!data.counters.contains_key("journal.lines"));
        let _ = std::fs::remove_file(&jpath);
        let _ = std::fs::remove_file(&ppath);
    }

    #[test]
    fn run_report_from_simulate_journal_round_trips() {
        let dir = std::env::temp_dir().join("srsched_test_obs_out");
        let _ = std::fs::create_dir_all(&dir);
        let jpath = dir.join("flight.jsonl");
        let hpath = dir.join("replayed.html");
        let _ = std::fs::remove_file(&jpath);
        let workload = "--topo cube:3 --tfg chain:3 --period 120";
        let opts = parse_args(&args(&format!(
            "simulate {workload} --journal {}",
            jpath.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        let data = sr::obs::read_journal(&jpath).unwrap();
        assert!(!data.events.is_empty(), "simulate must journal its events");

        let opts = parse_args(&args(&format!(
            "report {workload} --from-journal {} --out {}",
            jpath.display(),
            hpath.display()
        )))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("replaying"), "{out}");
        assert!(out.contains("wrote report"), "{out}");
        let html = std::fs::read_to_string(&hpath).unwrap();
        assert!(html.contains("replayed from journal"), "{html}");
        assert!(html.contains("<section id=\"diagnosis\">"), "{html}");
        let _ = std::fs::remove_file(&jpath);
        let _ = std::fs::remove_file(&hpath);
    }

    #[test]
    fn run_compile_timeline_renders() {
        let opts = parse_args(&args(
            "compile --topo cube:3 --tfg chain:3 --period 120 --timeline",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        assert!(out.contains("link timelines"), "{out}");
        assert!(out.contains("L"), "{out}");
    }

    #[test]
    fn run_compile_dump_lists_commands() {
        let opts = parse_args(&args(
            "compile --topo cube:3 --tfg chain:3 --period 120 --dump",
        ))
        .unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        if out.contains("compiled") {
            assert!(out.contains("->"), "{out}");
        }
    }
}
