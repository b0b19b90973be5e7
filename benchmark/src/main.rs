//! `sysbench` — the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sysbench --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! sysbench --all [--seed N] [--seconds S] [--smoke] [--out F] every workload, timed then traced
//! sysbench --compare A.json B.json                            two result files against the bounds
//! sysbench --pin --seed N                                     write benchmark/expected/seed-N.json
//! sysbench --manifest                                         print BENCHMARK.json
//! ```

mod compare;
mod compile_wl;
mod gen;
mod harness;
mod metrics;
mod repair_wl;
mod serve_wl;
mod trace;
mod util;

use harness::{Outcome, Pin, Plan, Workload};
use sr::serve::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 12;
/// A run never has fewer rounds than this (smoke mode aside).
const MIN_ROUNDS: usize = 9;
/// Set-up is done this many times per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// The seed results are recorded for; 13 is held out for later claims.
const DEFAULT_SEED: u64 = 7;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    all: bool,
    pin: bool,
    manifest: bool,
    compare: Option<(String, String)>,
    out: Option<PathBuf>,
    srsched: Option<PathBuf>,
    expected: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        all: false,
        pin: false,
        manifest: false,
        compare: None,
        out: None,
        srsched: None,
        expected: PathBuf::from("benchmark/expected"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? != "0",
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            "--pin" => a.pin = true,
            "--manifest" => a.manifest = true,
            "--compare" => a.compare = Some((value()?, value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--srsched" => a.srsched = Some(PathBuf::from(value()?)),
            "--expected" => a.expected = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// The shipped binary the serve workloads drive: `--srsched`, or `srsched`
/// next to this executable.
fn find_srsched(args: &Args) -> Result<PathBuf, String> {
    let path = match &args.srsched {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("srsched"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build it or pass --srsched",
            path.display()
        ))
    }
}

/// What is pinned for (`seed`, `workload`), if the seed has a file.
fn pinned(dir: &Path, seed: u64, workload: &str) -> Option<Pin> {
    let text = std::fs::read(dir.join(format!("seed-{seed}.json"))).ok()?;
    let doc = sr::serve::parse(&text).ok()?;
    let w = doc.get("workloads")?.get(workload)?;
    Some(Pin {
        fingerprint: w.get("fingerprint")?.as_str()?.to_string(),
        outcomes: w.get("outcomes")?.as_str()?.to_string(),
    })
}

fn run_one(args: &Args, name: &str) -> Result<Outcome, String> {
    let seed = args.seed;
    let srsched = if name.starts_with("serve") {
        Some(find_srsched(args)?)
    } else {
        None
    };
    let mut make = || -> Box<dyn Workload> {
        match name {
            "scale64" => Box::new(compile_wl::Scale64::new(seed)),
            "paper64" => Box::new(compile_wl::Paper64::new(seed)),
            "repair64" => Box::new(repair_wl::Repair64::new(seed)),
            _ => {
                let scenario = if name == "serve_chain" {
                    serve_wl::chain_scenario(seed)
                } else {
                    serve_wl::farm_scenario(seed)
                };
                let srsched = srsched.as_deref().expect("resolved above");
                match serve_wl::Serve::new(scenario, srsched) {
                    Ok(w) => Box::new(w),
                    Err(e) => {
                        eprintln!("sysbench: {e}");
                        std::process::exit(3);
                    }
                }
            }
        }
    };
    if args.trace {
        let trace_out = PathBuf::from(format!(
            ".bench_build/sysbench-tmp/trace-{name}-{seed}.json"
        ));
        let rounds = if name == "scale64" { 1 } else { 2 };
        return Ok(harness::run_traced(
            name, seed, rounds, &trace_out, &mut make,
        ));
    }
    let plan = if args.smoke {
        Plan {
            seconds: 0.0,
            min_rounds: 2,
            setups: 1,
        }
    } else {
        Plan {
            seconds: args.seconds,
            min_rounds: MIN_ROUNDS,
            setups: SETUPS,
        }
    };
    let pin = pinned(&args.expected, seed, name);
    Ok(harness::run_timed(
        name,
        seed,
        &plan,
        pin.as_ref(),
        &mut make,
    ))
}

fn print_outcome(o: &Outcome) {
    println!(
        "# {} seed {} fingerprint {:016x}: {} rounds{}",
        o.workload,
        o.seed,
        o.fingerprint,
        o.rounds,
        if o.trace {
            " traced".to_string()
        } else {
            format!(
                " x {} ops, tail = p{:.1}, {} ops attempted, {} failed",
                o.ops_per_round,
                o.tail_percentile * 100.0,
                o.attempted,
                o.failed()
            )
        }
    );
    for (name, value) in &o.metrics {
        let (unit, better) = metrics::describe(name);
        println!(
            "{:<44} {:>16.6} {:<6} ({better} is better)",
            name, value, unit
        );
    }
    // Letter vectors (repair verdicts, admission rungs) read best as counts.
    if !o.outcomes.is_empty() && !o.outcomes.contains('=') {
        let mut letters: std::collections::BTreeMap<char, usize> = Default::default();
        for c in o.outcomes.chars() {
            *letters.entry(c).or_default() += 1;
        }
        println!("# outcomes per round: {letters:?}");
    }
    for f in &o.failures {
        println!("FAILED CHECK: {f}");
    }
}

/// Runs `sysbench` again as a child for one workload, so that peak memory is
/// per workload, and returns the record it wrote, as text and parsed.
fn child_record(
    args: &Args,
    name: &str,
    trace: bool,
    smoke: bool,
    expected: &Path,
    scratch: &Path,
) -> Result<(String, Json), String> {
    let record = scratch.join(format!("{name}-{}.json", u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--expected")
        .arg(expected)
        .arg("--out")
        .arg(&record);
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = &args.srsched {
        cmd.arg("--srsched").arg(p);
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text =
        std::fs::read_to_string(&record).map_err(|e| format!("{name} left no record: {e}"))?;
    let doc = sr::serve::parse(text.as_bytes())
        .map_err(|e| format!("{name}: bad record: {}", e.message))?;
    if !status.success() {
        eprintln!(
            "sysbench: {name} (trace {}) exited with {status}",
            u8::from(trace)
        );
    }
    Ok((text, doc))
}

fn scratch_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(format!(
        ".bench_build/sysbench-tmp/all-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `--all`: every workload in its own process, timed then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let scratch = scratch_dir()?;
    let mut runs = Vec::new();
    // The driver reads names and bounds from the file, `--compare` from the
    // tables `--manifest` prints; an edit to one alone must not pass.
    let mut ok = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == metrics::manifest(RUN_SECONDS) => true,
        Ok(_) => {
            println!("FAILED CHECK: BENCHMARK.json differs from `sysbench --manifest`");
            false
        }
        Err(e) => {
            println!("FAILED CHECK: cannot read BENCHMARK.json: {e}");
            false
        }
    };
    for w in &metrics::WORKLOADS {
        for trace in [false, true] {
            if trace && args.smoke {
                continue;
            }
            let (text, doc) =
                child_record(args, w.name, trace, args.smoke, &args.expected, &scratch)?;
            ok &= doc.get("failed").and_then(Json::as_num) == Some(0.0);
            runs.push(text);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let text = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"nproc\": {nproc}, \"runs\": [\n{}\n]}}\n",
        args.seed,
        util::json_num(args.seconds),
        args.smoke,
        runs.join(",\n")
    );
    if let Some(out) = &args.out {
        std::fs::write(out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("# wrote {}", out.display());
    }
    Ok(ok)
}

/// `--pin`: records, for one seed, each workload's input fingerprint and the
/// deterministic outcome vector of a round.
fn run_pin(args: &Args) -> Result<bool, String> {
    let scratch = scratch_dir()?;
    let mut entries = Vec::new();
    let mut ok = true;
    for w in &metrics::WORKLOADS {
        // Two rounds, and checked against an empty directory rather than the
        // pins about to be replaced.
        let (_, doc) = child_record(args, w.name, false, true, &scratch, &scratch)?;
        ok &= doc.get("failed").and_then(Json::as_num) == Some(0.0);
        let field = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        entries.push(format!(
            "    {}: {{\"fingerprint\": {}, \"outcomes\": {}}}",
            util::json_str(w.name),
            util::json_str(&field("fingerprint")),
            util::json_str(&field("outcomes"))
        ));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if !ok {
        return Err("a check failed; nothing pinned".to_string());
    }
    std::fs::create_dir_all(&args.expected).map_err(|e| e.to_string())?;
    let path = args.expected.join(format!("seed-{}.json", args.seed));
    let text = format!(
        "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        entries.join(",\n")
    );
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# pinned {}", path.display());
    Ok(true)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.manifest {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        return compare::run(Path::new(a), Path::new(b));
    }
    if args.pin {
        return run_pin(&args);
    }
    if args.all {
        return run_all(&args);
    }
    let name = args
        .workload
        .clone()
        .ok_or("give --workload NAME, --all, --compare, --pin or --manifest")?;
    if !metrics::WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload {name}"));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = util::pin_to_one_cpu();
    let outcome = run_one(&args, &name)?;
    match cpu {
        Some(cpu) => println!("# pinned to cpu {cpu} of {nproc}"),
        None => println!("# not pinned ({nproc} cpus)"),
    }
    print_outcome(&outcome);
    if let Some(record) = &args.out {
        std::fs::write(record, outcome.record_json())
            .map_err(|e| format!("cannot write {}: {e}", record.display()))?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.failures.is_empty())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check: the result was printed (with `correct: false`) and
        // the exit code says so, for CI.
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("sysbench: {why}");
            ExitCode::from(2)
        }
    }
}
