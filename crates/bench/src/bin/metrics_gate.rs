//! `metrics_gate` — the CI metrics-regression gate.
//!
//! Regenerates a deterministic metrics document for one of the pinned gate
//! workloads and either writes it as the golden baseline or checks the
//! current build against the checked-in one:
//!
//! * `torus4x4` (default) — the torus 4×4 DVB figure workload:
//!   serial-compile counters at three loads, the flow-engine counter
//!   namespace at the middle one, plus the WR/SR output-interval statistics
//!   at the highest.
//! * `scale16` — the 16×16 scaling-fabric point from the scale smoke run
//!   (`scale_workload(16, ...)` at load 0.5): flat and band-partitioned
//!   serial-compile counters, gating the compile pipeline's counter values
//!   at 256 nodes where the partitioned path actually splits work.
//! * `serve` — a fixed admission session against the resident daemon on a
//!   4×4 torus (admit, duplicate, contended adapt, batch, replay, typed
//!   errors, scrape): the full `serve.*` counter namespace, which is
//!   deterministic because admissions run the serial compile walk and the
//!   ladder is a pure function of the tenant table.
//!
//! ```text
//! metrics_gate --write [--workload W] [PATH]   # regenerate the baseline
//! metrics_gate --check [--workload W] [PATH]   # CI: fail on drift
//! metrics_gate --check --inject-drift [PATH]   # CI negative test: must fail
//! ```
//!
//! `PATH` defaults to `results/metrics_baseline_<workload>_dvb.json`. Exit
//! status is nonzero on any violation, on a baseline that cannot be read
//! or parsed (`cannot parse baseline PATH: … at byte N`), and on a
//! *passing* check under `--inject-drift`, which would mean the gate is
//! blind.

use std::fmt::Write as _;
use std::process::ExitCode;

use sr::obs::OiReport;
use sr::prelude::*;
use sr_bench::gate::{compare_metrics, flatten_json, FLOAT_TOL};
use sr_bench::{scale_bands, scale_workload};

const DEFAULT_PATH_TORUS4X4: &str = "results/metrics_baseline_torus4x4_dvb.json";
const DEFAULT_PATH_SCALE16: &str = "results/metrics_baseline_scale16_dvb.json";
const DEFAULT_PATH_SERVE: &str = "results/metrics_baseline_serve.json";
/// Loads gated for compile counters; the last one also drives the OI stats.
const LOADS: [f64; 3] = [0.5, 0.7, 0.85];
/// The single load gated on the 16×16 scaling point (matches the scale
/// smoke sweep's lightest point, so CI compiles it anyway).
const SCALE_LOAD: f64 = 0.5;

fn oi_json(r: &OiReport) -> String {
    let s = r.interval_summary.unwrap_or_default();
    format!(
        "{{\"outputs\": {}, \"min_interval_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \
         \"max_us\": {}, \"max_deviation_us\": {}, \"stalls\": {}, \
         \"cross_invocation_stalls\": {}}}",
        r.outputs.len(),
        r.min_interval_us,
        s.p50,
        s.p95,
        s.max,
        r.max_deviation_us,
        r.stalls.len(),
        r.cross_invocation_stalls()
    )
}

fn counters_json(doc: &mut String, rec: &MetricsRecorder) {
    for (j, (name, v)) in rec.counters().iter().enumerate() {
        let _ = write!(doc, "{}\"{name}\": {v}", if j == 0 { "" } else { ", " });
    }
}

/// Builds the metrics document for the torus 4×4 DVB workload. Everything
/// in it is deterministic: compiles run serially (`parallelism: 1`), the
/// simulator core is single-threaded, and the replay is a pure function of
/// the schedule.
fn build_document_torus4x4() -> String {
    let topo = Torus::new(&[4, 4]).expect("torus 4x4");
    let tfg = dvb_uniform(10);
    let alloc = sr::mapping::random_distinct(&tfg, &topo, 7).expect("16 nodes fit");
    let timing = Timing::calibrated_dvb(128.0);
    let tau_c = timing.longest_task(&tfg);
    let config = CompileConfig {
        parallelism: 1,
        ..CompileConfig::default()
    };

    let mut doc = String::from("{\n\"workload\": \"torus4x4_dvb\",\n\"loads\": {");
    let mut last_schedule = None;
    for (i, &load) in LOADS.iter().enumerate() {
        let rec = MetricsRecorder::new();
        let sched = sr::core::compile_with_recorder(
            &topo,
            &tfg,
            &alloc,
            &timing,
            tau_c / load,
            &config,
            &rec,
        )
        .expect("gate loads compile");
        let _ = write!(
            doc,
            "{}\n\"{load}\": {{\"counters\": {{",
            if i == 0 { "" } else { "," }
        );
        counters_json(&mut doc, &rec);
        doc.push_str("}}");
        last_schedule = Some(sched);
    }
    doc.push_str("\n},\n");

    // Flow-engine counter namespace: the same workload at the middle load,
    // compiled with the min-cost-flow allocation backend. Only the flow
    // engine emits `alloc_flow.*`, so this section gates the namespace
    // without perturbing the simplex sections above.
    let flow_config = CompileConfig {
        alloc_engine: AllocEngine::Flow,
        ..config.clone()
    };
    let rec = MetricsRecorder::new();
    sr::core::compile_with_recorder(
        &topo,
        &tfg,
        &alloc,
        &timing,
        tau_c / LOADS[1],
        &flow_config,
        &rec,
    )
    .expect("flow gate load compiles");
    let _ = write!(doc, "\"flow\": {{\n\"{}\": {{\"counters\": {{", LOADS[1]);
    counters_json(&mut doc, &rec);
    doc.push_str("}}\n},\n");

    // OI statistics at the highest gated load, wormhole and scheduled.
    let period = tau_c / LOADS[LOADS.len() - 1];
    let cfg = SimConfig::default();
    let sim = WormholeSim::new(&topo, &tfg, &alloc, &timing).expect("sim builds");
    let cap: usize = sim.routes().iter().map(|r| 2 + 3 * r.len()).sum::<usize>() + 1;
    let sink = RingEventSink::with_capacity(cap * cfg.invocations + 1024);
    sim.run_with_events(period, &cfg, &sink).expect("sim runs");
    let wr = analyze_oi(&sink.events(), period, cfg.warmup);
    let sched = last_schedule.expect("at least one load");
    let sr_events =
        replay_events(&sched, &tfg, &timing, cfg.invocations).expect("schedule replays");
    let sr = analyze_oi(&sr_events, period, cfg.warmup);
    let _ = write!(
        doc,
        "\"oi\": {{\n\"wr\": {},\n\"sr\": {}\n}}\n}}\n",
        oi_json(&wr),
        oi_json(&sr)
    );
    doc
}

/// Builds the metrics document for the 16×16 scaling-fabric point: the
/// `scale_workload` farm at load 0.5, compiled serially flat and with the
/// 4-band row partition (simplex), plus the same partitioned point under
/// the min-cost-flow engine so the Dijkstra kernel's work counts
/// (`alloc_flow.dijkstra_pops`, `alloc_flow.potential_reuse_hits`, …) are
/// pinned at scale. No simulator section — at 256 nodes the gate's job is
/// the compile pipeline's counter values, and the scale smoke run already
/// exercises the same point for wall-clock figures.
fn build_document_scale16() -> String {
    let (platform, tfg, alloc, timing) = scale_workload(16, 256.0, 7);
    let topo = platform.topo.as_ref();
    let period = timing.longest_task(&tfg) / SCALE_LOAD;

    let mut doc = String::from("{\n\"workload\": \"scale16_dvb\",\n");
    for (section, partition, alloc_engine) in [
        ("flat", 0usize, AllocEngine::Simplex),
        ("partitioned", scale_bands(16), AllocEngine::Simplex),
        ("flow", scale_bands(16), AllocEngine::Flow),
    ] {
        let config = CompileConfig {
            parallelism: 1,
            partition,
            alloc_engine,
            ..CompileConfig::default()
        };
        let rec = MetricsRecorder::new();
        sr::core::compile_with_recorder(topo, &tfg, &alloc, &timing, period, &config, &rec)
            .expect("scale16 gate point compiles");
        let _ = write!(
            doc,
            "\"{section}\": {{\n\"{SCALE_LOAD}\": {{\"counters\": {{"
        );
        counters_json(&mut doc, &rec);
        doc.push_str("}}\n},\n");
    }
    doc.truncate(doc.len() - 2);
    doc.push_str("\n}\n");
    doc
}

/// Builds the metrics document for the serve workload: a fixed framed
/// request session against a resident 4×4-torus daemon, covering every
/// ladder rung the fabric allows plus the typed-error taxonomy. The whole
/// `serve.*` namespace (and the `compile.*` counters of the standalone
/// compiles the session triggers) is deterministic: compiles run serially,
/// batches precompile with one thread, and the degradation ladder is a
/// pure function of the tenant table.
fn build_document_serve() -> String {
    let topo = Torus::new(&[4, 4]).expect("torus 4x4");
    let cfg = sr::serve::ServeConfig {
        period: 100.0,
        timing: Timing::new(64.0, 10.0),
        compile: CompileConfig {
            parallelism: 1,
            ..CompileConfig::default()
        },
        batch_threads: 1,
        ..sr::serve::ServeConfig::default()
    };
    let mut daemon = sr::serve::Daemon::new(sr::serve::Engine::new(Box::new(topo), cfg));
    let chain = |i: usize, a: usize, b: usize| {
        format!(
            "{{\"op\":\"admit\",\"tenant\":{{\"name\":\"cam{i}\",\"tfg\":\
             \"task a{i} 100\\ntask b{i} 100\\nmsg m{i} a{i} -> b{i} 256\",\
             \"placement\":[{a},{b}]}}}}"
        )
    };
    let session = [
        chain(0, 0, 1),                    // fast admission
        chain(0, 0, 1),                    // duplicate_tenant
        chain(1, 5, 6),                    // second fast admission
        chain(2, 0, 1),                    // contends with cam0: adapt rung
        "{\"op\":\"admit_batch\",\"tenants\":[\
         {\"name\":\"cam3\",\"tfg\":\"task a3 100\\ntask b3 100\\nmsg m3 a3 -> b3 512\",\"placement\":[8,9]},\
         {\"name\":\"cam4\",\"tfg\":\"task a4 100\\ntask b4 100\\nmsg m4 a4 -> b4 512\",\"placement\":[10,11]}]}"
            .to_string(),
        "{\"op\":\"query\",\"tenant\":\"cam1\"}".to_string(),
        "{\"op\":\"evict\",\"tenant\":\"cam2\"}".to_string(),
        chain(2, 0, 1),                    // readmit on a changed ledger: adapt again
        "{\"op\":\"evict\",\"tenant\":\"cam2\"}".to_string(),
        chain(2, 0, 1),                    // readmit on the same ledger: memoized replay
        "{oops".to_string(),               // malformed
        "{\"op\":\"query\",\"tenant\":\"nobody\"}".to_string(), // unknown_tenant
        "{\"op\":\"stats\"}".to_string(),  // scrape
    ];
    for request in &session {
        let (_, shutdown) = daemon.handle_frame(request.as_bytes());
        assert!(!shutdown, "gate session must not shut the daemon down");
    }
    // One oversized frame, rejected at the framing layer.
    let _ = daemon.oversized_response(sr::serve::MAX_FRAME + 1);

    let mut doc = String::from("{\n\"workload\": \"serve\",\n\"serve\": {\"counters\": {");
    counters_json(&mut doc, daemon.recorder());
    doc.push_str("}}\n}\n");
    doc
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_write = false;
    let mut mode_check = false;
    let mut inject = false;
    let mut workload = String::from("torus4x4");
    let mut positional: Option<String> = None;
    let mut usage_error = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--write" => mode_write = true,
            "--check" => mode_check = true,
            "--inject-drift" => inject = true,
            "--workload" => match it.next() {
                Some(w) => workload = w,
                None => usage_error = true,
            },
            _ if a.starts_with("--") => usage_error = true,
            _ => positional = Some(a),
        }
    }
    let default_path = match workload.as_str() {
        "torus4x4" => DEFAULT_PATH_TORUS4X4,
        "scale16" => DEFAULT_PATH_SCALE16,
        "serve" => DEFAULT_PATH_SERVE,
        other => {
            eprintln!("unknown workload {other:?} (expected torus4x4, scale16, or serve)");
            return ExitCode::FAILURE;
        }
    };
    let path = positional.as_deref().unwrap_or(default_path);
    if mode_write == mode_check || usage_error {
        eprintln!(
            "usage: metrics_gate --write|--check [--inject-drift] \
             [--workload torus4x4|scale16|serve] [PATH]"
        );
        return ExitCode::FAILURE;
    }

    let build_document = || match workload.as_str() {
        "scale16" => build_document_scale16(),
        "serve" => build_document_serve(),
        _ => build_document_torus4x4(),
    };
    if mode_write {
        if let Err(e) = std::fs::write(path, build_document()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote metrics baseline to {path}");
        return ExitCode::SUCCESS;
    }

    // The baseline is read before the workload runs: a missing or damaged
    // file fails at once.
    let baseline_text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {path}: {e} (generate with --write)");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match flatten_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot parse baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut current = flatten_json(&build_document()).expect("the gate's own document parses");
    if inject {
        // Negative test: perturb one counter by 1 and one float past the
        // tolerance; the gate must catch both.
        let counter = current
            .keys()
            .find(|k| k.contains(".counters."))
            .cloned()
            .expect("document has counters");
        *current.get_mut(&counter).unwrap() += 1.0;
        // The scale16 document has no simulator section; the float probe
        // only applies to workloads that carry OI statistics.
        let float = ".oi.wr.max_deviation_us".to_string();
        if let Some(v) = current.get_mut(&float) {
            *v += 10.0 * FLOAT_TOL;
            println!("injected drift into {counter} and {float}");
        } else {
            println!("injected drift into {counter}");
        }
    }

    let violations = compare_metrics(&baseline, &current, FLOAT_TOL);
    if violations.is_empty() {
        println!(
            "metrics gate passed: {} metrics match {path}",
            baseline.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("metrics gate FAILED against {path}:");
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}
