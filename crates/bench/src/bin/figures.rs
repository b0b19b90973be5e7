//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|fig9|fig10|claim|ablation|all] [--csv DIR]
//! figures scale [--platform NxN]... [--engine simplex|flow] [--flat]
//!               [--load L] [--json PATH] [--budget-s S]
//! ```
//!
//! Each figure prints a Markdown table of the same series the paper plots;
//! with `--csv DIR`, raw CSV files are written alongside.
//!
//! `scale` runs the compile-time scaling sweep (ROADMAP item 2): a tiled
//! DVB workload on N×N tori (default 8x8 → 32x32 → 64x64 → 128x128 →
//! 256x256, the 64 → 65,536-node trajectory), written as `BENCH_scale.json`
//! (`--json` to move it). `--budget-s` makes the run fail if any compile +
//! verify exceeds the wall-clock budget, or any verify takes more than half
//! its compile — the CI smoke gate. A partitioned sweep also fails when a
//! climb of the tiled farm was not certified at its lower bound.

use std::path::PathBuf;

use sr::prelude::*;
use sr::sync::{simulate_sync, ClockEnsemble, SyncConfig};
use sr_bench::{
    figure_performance, figure_utilization, performance_csv, performance_markdown, scale_json,
    scale_markdown, scale_point, standard_workload, utilization_csv, utilization_markdown,
    Platform,
};

struct Args {
    what: String,
    csv_dir: Option<PathBuf>,
    scale_extents: Vec<usize>,
    scale_engine: AllocEngine,
    scale_flat: bool,
    scale_load: f64,
    scale_bandwidth: f64,
    scale_json_path: PathBuf,
    scale_budget_s: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        what: "all".to_string(),
        csv_dir: None,
        scale_extents: Vec::new(),
        scale_engine: AllocEngine::Flow,
        scale_flat: false,
        scale_load: 0.5,
        scale_bandwidth: 256.0,
        scale_json_path: PathBuf::from("BENCH_scale.json"),
        scale_budget_s: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--csv" => {
                args.csv_dir = Some(PathBuf::from(
                    argv.next().expect("--csv requires a directory"),
                ))
            }
            "--platform" => {
                let p = argv.next().expect("--platform requires NxN");
                let n = p
                    .split_once('x')
                    .filter(|(a, b)| a == b)
                    .and_then(|(a, _)| a.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("bad --platform '{p}' (expected NxN, e.g. 16x16)"));
                args.scale_extents.push(n);
            }
            "--engine" => {
                args.scale_engine = match argv.next().expect("--engine requires a value").as_str() {
                    "simplex" => AllocEngine::Simplex,
                    "flow" => AllocEngine::Flow,
                    other => panic!("bad --engine '{other}' (expected simplex|flow)"),
                }
            }
            "--flat" => args.scale_flat = true,
            "--load" => {
                args.scale_load = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--load requires a number")
            }
            "--bandwidth" => {
                args.scale_bandwidth = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--bandwidth requires a number")
            }
            "--json" => {
                args.scale_json_path = PathBuf::from(argv.next().expect("--json requires a path"))
            }
            "--budget-s" => {
                args.scale_budget_s = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--budget-s requires a number"),
                )
            }
            other => args.what = other.to_string(),
        }
    }
    args
}

fn write_csv(dir: &Option<PathBuf>, name: &str, contents: &str) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

fn utilization_figure(id: &str, title: &str, platforms: Vec<Platform>, csv: &Option<PathBuf>) {
    println!("## {id}: {title}\n");
    // Compute every platform's series concurrently, then print in the
    // original order so the report is byte-identical to a serial run.
    let series = sr_par::par_map(&platforms, 0, |p| figure_utilization(p, 1));
    for (p, series) in platforms.iter().zip(series) {
        println!("{}", utilization_markdown(&p.name, &series));
        write_csv(
            csv,
            &format!("{id}_{}.csv", p.name.replace([' ', ',', '='], "_")),
            &utilization_csv(&series),
        );
    }
}

fn performance_figure(id: &str, title: &str, platforms: Vec<Platform>, csv: &Option<PathBuf>) {
    let sim = SimConfig::default();
    println!("## {id}: {title}\n");
    let series = sr_par::par_map(&platforms, 0, |p| figure_performance(p, &sim));
    for (p, series) in platforms.iter().zip(series) {
        println!("{}", performance_markdown(&p.name, &series));
        write_csv(
            csv,
            &format!("{id}_{}.csv", p.name.replace([' ', ',', '='], "_")),
            &performance_csv(&series),
        );
    }
}

/// The §3 Claim demonstration: two messages of different invocations share a
/// link; FCFS produces alternating output intervals.
fn claim_demo() {
    println!("## Claim (§3): FCFS link sharing causes output inconsistency\n");
    let topo = GeneralizedHypercube::binary(3).expect("valid");
    let tfg = sr::tfg::generators::claim_chain(1000, 6400, 64);
    let timing = Timing::new(64.0, 100.0); // exec 10, big tx 100
                                           // M1 goes N0->N1 on directed channel 0->1; M2 goes N0->N3, whose
                                           // dimension-order route N0->N1->N3 *starts on the same channel* — the
                                           // Claim's premise. The equivalent route N0->N2->N3 exists, which only
                                           // scheduled routing exploits.
    let alloc = Allocation::new(
        vec![NodeId(0), NodeId(1), NodeId(0), NodeId(3)],
        &tfg,
        &topo,
    )
    .expect("valid placement");
    let sim = WormholeSim::new(&topo, &tfg, &alloc, &timing).expect("valid sim");
    let res = sim
        .run(
            120.0,
            &SimConfig {
                invocations: 24,
                warmup: 4,
            },
        )
        .expect("valid run");
    println!("| invocation | output interval δ_j (µs) |\n|---|---|");
    let records = res.records();
    for w in records.windows(2).skip(4).take(12) {
        println!(
            "| {} | {:.1} |",
            w[1].index,
            w[1].output_time - w[0].output_time
        );
    }
    println!(
        "\nτ_in = 120 µs; OI = {}; spread = {:.1} µs\n",
        res.has_output_inconsistency(1e-6),
        res.interval_stats().spread()
    );

    // Scheduled routing on the identical workload: constant throughput.
    match compile(
        &topo,
        &tfg,
        &alloc,
        &timing,
        120.0,
        &CompileConfig::default(),
    ) {
        Ok(s) => {
            verify(&s, &topo, &tfg).expect("verifies");
            println!(
                "Scheduled routing compiles: constant δ = 120 µs, latency {:.1} µs (U = {:.2}).\n",
                s.latency(),
                s.peak_utilization()
            );
        }
        Err(e) => println!("Scheduled routing failed: {e}\n"),
    }
}

/// Ablation: how the allocation strategy moves WR inconsistency and SR
/// feasibility (binary 6-cube, B = 64).
fn allocation_ablation() {
    println!("## Ablation: allocation strategy (binary 6-cube, B=64)\n");
    let platform = Platform::cube6(64.0);
    let (tfg, _, timing) = standard_workload(&platform);
    let topo = platform.topo.as_ref();
    let tau_c = timing.longest_task(&tfg);
    let strategies: Vec<(&str, Allocation)> = vec![
        ("greedy-local", sr::mapping::greedy(&tfg, topo)),
        ("round-robin", sr::mapping::round_robin(&tfg, topo)),
        (
            "scatter-distinct(7)",
            sr::mapping::random_distinct(&tfg, topo, 7).expect("fits"),
        ),
        ("scatter-colliding(7)", sr::mapping::random(&tfg, topo, 7)),
        (
            "local-search",
            sr::mapping::local_search(&tfg, topo, 1, 400),
        ),
    ];
    println!("| strategy | load | WR OI | SR outcome |\n|---|---|---|---|");
    for (name, alloc) in &strategies {
        for load in [0.25, 0.5, 1.0] {
            let period = tau_c / load;
            let wr = WormholeSim::new(topo, &tfg, alloc, &timing).expect("valid");
            let res = wr.run(period, &SimConfig::default()).expect("valid");
            let sr = compile(
                topo,
                &tfg,
                alloc,
                &timing,
                period,
                &CompileConfig::default(),
            );
            println!(
                "| {name} | {load:.2} | {} | {} |",
                res.has_output_inconsistency(1e-6),
                match &sr {
                    Ok(s) => format!("ok (U={:.2})", s.peak_utilization()),
                    Err(e) => format!("{e}"),
                }
            );
        }
    }
    println!();
}

/// Ablation: the message-window policy trades latency against slack.
fn window_ablation() {
    println!("## Ablation: window policy (binary 6-cube, B=128, load 0.5)\n");
    let platform = Platform::cube6(128.0);
    let (tfg, alloc, timing) = standard_workload(&platform);
    let topo = platform.topo.as_ref();
    let period = 2.0 * timing.longest_task(&tfg);
    println!("| policy | result | latency (µs) | U |\n|---|---|---|---|");
    for (name, policy) in [
        ("LongestTask (paper)", WindowPolicy::LongestTask),
        ("FullPeriod", WindowPolicy::FullPeriod),
        ("Tight (zero slack)", WindowPolicy::Tight),
    ] {
        let config = CompileConfig {
            window_policy: policy,
            ..CompileConfig::default()
        };
        match compile(topo, &tfg, &alloc, &timing, period, &config) {
            Ok(s) => println!(
                "| {name} | ok | {:.1} | {:.2} |",
                s.latency(),
                s.peak_utilization()
            ),
            Err(e) => println!("| {name} | {e} | — | — |"),
        }
    }
    println!();
}

/// Ablation: routing policy under wormhole flow-control (§3's deterministic
/// vs adaptive vs §6's virtual channels) — inconsistency persists in all
/// three, which is the argument for scheduling instead.
fn routing_ablation() {
    println!("## Ablation: wormhole routing policy (binary 6-cube, B=64)\n");
    let platform = Platform::cube6(64.0);
    let (tfg, alloc, timing) = standard_workload(&platform);
    let topo = platform.topo.as_ref();
    let tau_c = timing.longest_task(&tfg);
    println!("| policy | load | OI | thr mid | lat mid (×Λ) |\n|---|---|---|---|---|");
    let critical = timing.critical_path(&tfg);
    for (name, adaptive, vc) in [
        ("deterministic", 1usize, 1usize),
        ("adaptive(16)", 16, 1),
        ("2 virtual channels", 1, 2),
    ] {
        for load in [0.5, 0.9] {
            let period = tau_c / load;
            let sim = WormholeSim::new(topo, &tfg, &alloc, &timing)
                .expect("valid")
                .with_adaptive_routing(adaptive)
                .expect("valid")
                .with_virtual_channels(vc)
                .expect("valid");
            let res = sim.run(period, &SimConfig::default()).expect("valid run");
            if res.records().len() < 40 {
                println!("| {name} | {load:.2} | deadlock | — | — |");
                continue;
            }
            println!(
                "| {name} | {load:.2} | {} | {:.3} | {:.2} |",
                res.has_output_inconsistency(1e-6),
                period / res.interval_stats().mean,
                res.latency_stats().mean / critical,
            );
        }
    }
    println!();
}

/// Ablation: CP synchronization tightness vs guard time vs feasibility
/// (the §7 study).
fn sync_ablation() {
    println!("## Ablation: CP synchronization tightness (binary 6-cube, B=128, load 0.8)\n");
    let platform = Platform::cube6(128.0);
    let (tfg, alloc, timing) = standard_workload(&platform);
    let topo = platform.topo.as_ref();
    let period = timing.longest_task(&tfg) / 0.8;
    let clocks = ClockEnsemble::random(topo.num_nodes(), 1, 50.0, 5.0);
    println!("| sync interval (µs) | max skew (µs) | guard (µs) | schedule |");
    println!("|---|---|---|---|");
    for interval in [100.0, 1_000.0, 10_000.0, 100_000.0] {
        let cfg = SyncConfig {
            interval,
            ..SyncConfig::default()
        };
        let outcome = simulate_sync(topo, NodeId(0), &clocks, &cfg, 30, 9);
        let guard = outcome.required_guard();
        let compile_config = CompileConfig {
            guard_time: guard,
            ..CompileConfig::default()
        };
        let cell = match compile(topo, &tfg, &alloc, &timing, period, &compile_config) {
            Ok(s) => format!("ok, latency {:.1} µs", s.latency()),
            Err(e) => format!("{e}"),
        };
        println!(
            "| {interval:>8.0} | {:.3} | {guard:.3} | {cell} |",
            outcome.max_skew()
        );
    }
    println!();
}

/// The scaling sweep: compile + verify the tiled DVB workload on each N×N
/// torus, print the trajectory, write `BENCH_scale.json`, and enforce the
/// wall-clock budget on compile + verify, that verify stays under half its
/// compile, and — partitioned — that every climb was certified. Returns
/// false when the gate fails.
fn scale_sweep(args: &Args) -> bool {
    let extents = if args.scale_extents.is_empty() {
        vec![8, 32, 64, 128, 256] // the 64 → 1024 → 4096 → 16384 → 65536-node trajectory
    } else {
        args.scale_extents.clone()
    };
    println!(
        "## scale: tiled DVB compile trajectory (load {}, engine {:?}, {})\n",
        args.scale_load,
        args.scale_engine,
        if args.scale_flat {
            "flat".to_string()
        } else {
            "partitioned".to_string()
        }
    );
    let mut points = Vec::new();
    for &n in &extents {
        let point = scale_point(
            n,
            args.scale_bandwidth,
            args.scale_engine,
            !args.scale_flat,
            args.scale_load,
            sr_bench::ALLOC_SEED,
        );
        eprintln!(
            "{}: compile {:.1} ms, verify {:.1} ms",
            point.platform, point.compile_ms, point.verify_ms
        );
        points.push(point);
    }
    println!("{}", scale_markdown(&points));
    std::fs::write(&args.scale_json_path, scale_json(&points)).expect("write scale json");
    eprintln!("wrote {}", args.scale_json_path.display());

    let mut ok = true;
    for p in &points {
        // The trajectory is gated on feasibility first, then wall-clock.
        if let Err(e) = &p.outcome {
            eprintln!("INFEASIBLE: {}: {e}", p.platform);
            ok = false;
        }
        // Every part-local climb of the tiled farm starts at its lower bound
        // (the peak sits on links the part cannot relieve) and so does the
        // stitch; a climb that runs means the certificate stopped firing.
        if !args.scale_flat && p.certified_climbs < p.climbs {
            eprintln!(
                "UNCERTIFIED: {}: {} of {} climbs certified ({} restarts)",
                p.platform, p.certified_climbs, p.climbs, p.restarts
            );
            ok = false;
        }
        if let Some(budget) = args.scale_budget_s {
            // The budget is on what a user waits for: a verified schedule.
            if p.compile_ms + p.verify_ms > budget * 1e3 {
                eprintln!(
                    "BUDGET EXCEEDED: {} compiled and verified in {:.1} ms > {budget} s",
                    p.platform,
                    p.compile_ms + p.verify_ms
                );
                ok = false;
            }
            // Checking a schedule reads it once; building it searches. A
            // verify that costs half a compile has stopped being linear.
            if p.verify_ms > p.compile_ms / 2.0 {
                eprintln!(
                    "VERIFY TOO DEAR: {}: verify {:.1} ms > half of compile {:.1} ms",
                    p.platform, p.verify_ms, p.compile_ms
                );
                ok = false;
            }
        }
    }
    ok
}

fn main() -> std::process::ExitCode {
    let args = parse_args();
    if args.what == "scale" {
        return if scale_sweep(&args) {
            std::process::ExitCode::SUCCESS
        } else {
            std::process::ExitCode::FAILURE
        };
    }
    let csv = args.csv_dir;
    let all = args.what == "all";

    if all || args.what == "claim" {
        claim_demo();
    }
    if all || args.what == "fig5" {
        utilization_figure(
            "fig5",
            "peak utilization U vs load — GHCs, B=64 (LSD-to-MSD vs AssignPaths)",
            vec![Platform::cube6(64.0), Platform::ghc444(64.0)],
            &csv,
        );
    }
    if all || args.what == "fig6" {
        utilization_figure(
            "fig6",
            "peak utilization U vs load — tori, B=64 (LSD-to-MSD vs AssignPaths)",
            vec![Platform::torus8x8(64.0), Platform::torus444(64.0)],
            &csv,
        );
    }
    if all || args.what == "fig7" {
        performance_figure(
            "fig7",
            "DVB on binary 6-cube — WR vs SR throughput & latency",
            vec![Platform::cube6(64.0), Platform::cube6(128.0)],
            &csv,
        );
    }
    if all || args.what == "fig8" {
        performance_figure(
            "fig8",
            "DVB on 4x4x4 GHC — WR vs SR throughput & latency",
            vec![Platform::ghc444(64.0), Platform::ghc444(128.0)],
            &csv,
        );
    }
    if all || args.what == "fig9" {
        performance_figure(
            "fig9",
            "DVB on 8x8 torus, B=128 — WR vs SR throughput & latency",
            vec![Platform::torus8x8(128.0)],
            &csv,
        );
    }
    if all || args.what == "fig10" {
        performance_figure(
            "fig10",
            "DVB on 4x4x4 torus, B=128 — WR vs SR throughput & latency",
            vec![Platform::torus444(128.0)],
            &csv,
        );
    }
    if all || args.what == "ablation" {
        allocation_ablation();
        window_ablation();
        routing_ablation();
        sync_ablation();
    }
    std::process::ExitCode::SUCCESS
}
