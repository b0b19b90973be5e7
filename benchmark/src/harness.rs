//! The run shape shared by every workload: set-up (with one untimed warm-up
//! round), then identical rounds of a fixed op script, each timing metric
//! the median over rounds of the per-round statistic.

use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::util::{json_num, json_str, median, peak_rss_mib, quantile, tail_with_ten_beyond};
use std::time::Instant;

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Latency of every primary op (as the workload defines "op"), ms.
    pub op_ms: Vec<f64>,
    /// Latency of every read-only op, ms.
    pub read_ms: Vec<f64>,
    /// Everything that counts toward `ops_per_s`.
    pub ops: usize,
    /// Timed wall of the round, s.
    pub wall_s: f64,
    /// Primary ops that ended in a guaranteed schedule.
    pub feasible: usize,
    /// What the checks inside the round found wrong, one line each.
    pub failures: Vec<String>,
    /// The deterministic outcome of the round (verdicts, rungs), compared
    /// between rounds and against the pinned vector for the seed.
    pub outcomes: String,
}

pub trait Workload {
    /// FNV-64 over everything the workload feeds the product.
    fn fingerprint(&self) -> u64;

    /// Runs the op script once. With a tracer, every call into the product
    /// is wrapped in a span.
    fn round(&mut self, tracer: Option<&Tracer>) -> Round;

    /// The process whose peak memory is the workload's: the daemon for the
    /// serve workloads, this one otherwise.
    fn measured_pid(&self) -> Option<u32> {
        None
    }

    /// Traced run only: measures each layer on its own, from outside.
    /// Returns what its checks found wrong.
    fn probe_layers(&mut self, tracer: &Tracer, layers: &mut Layers) -> Vec<String>;

    /// Ends the run (stops children) and returns what the end-of-run checks
    /// found wrong.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
}

pub struct Plan {
    /// Rounds go on until this much time has passed (0 in smoke mode) ...
    pub seconds: f64,
    /// ... and there are at least this many.
    pub min_rounds: usize,
    pub setups: usize,
}

/// What is pinned for a (seed, workload): `expected/seed-N.json`.
pub struct Pin {
    pub fingerprint: String,
    pub outcomes: String,
}

pub struct Outcome {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub fingerprint: u64,
    pub rounds: usize,
    pub ops_per_round: usize,
    pub tail_percentile: f64,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub outcomes: String,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Folds rounds into the end-to-end numbers (everything but `setup_s` and
/// `peak_rss_mb`, which the caller measures).
pub struct Folded {
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub tail_percentile: f64,
    pub ops_per_s: f64,
    pub read_p50_ms: f64,
    pub feasible_share: f64,
}

pub fn fold(rounds: &[Round]) -> Folded {
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let op_p50_ms = median(&per_round(&|r| median(&r.op_ms)));
    // A round with too few ops for a tail of its own (scale64 has one op per
    // round) takes the upper quartile over all ops of the run instead.
    let tails: Vec<(f64, f64)> = rounds
        .iter()
        .filter_map(|r| tail_with_ten_beyond(&r.op_ms))
        .collect();
    let (op_tail_ms, tail_percentile) = if tails.len() == rounds.len() {
        (
            median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
            tails[0].1,
        )
    } else {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect();
        (quantile(&all, 0.75), 0.75)
    };
    let ops: usize = rounds.iter().map(|r| r.op_ms.len()).sum();
    let feasible: usize = rounds.iter().map(|r| r.feasible).sum();
    Folded {
        op_p50_ms,
        op_tail_ms,
        tail_percentile,
        ops_per_s: median(&per_round(&|r| r.ops as f64 / r.wall_s)),
        read_p50_ms: median(&per_round(&|r| median(&r.read_ms))),
        feasible_share: feasible as f64 / ops.max(1) as f64,
    }
}

/// Set-up (several times, so `setup_s` is a median), timed rounds, end-of-run
/// checks.
pub fn run_timed(
    name: &str,
    seed: u64,
    plan: &Plan,
    pin: Option<&Pin>,
    make: &mut dyn FnMut() -> Box<dyn Workload>,
) -> Outcome {
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..plan.setups {
        if let Some(mut earlier) = workload.take() {
            failures.extend(earlier.finish());
        }
        let t0 = Instant::now();
        let mut w = make();
        let warm = w.round(None);
        setup_s.push(t0.elapsed().as_secs_f64());
        failures.extend(warm.failures);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let mut rounds: Vec<Round> = Vec::new();
    let mut rss_mib = 0.0;
    let t_run = Instant::now();
    loop {
        if rounds.len() >= plan.min_rounds && t_run.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
        rounds.push(w.round(None));
        // Peak memory is read after a fixed number of rounds, so that a
        // faster build, which fits more rounds into the run, is not charged
        // for what the daemon's recorder keeps per request.
        if rounds.len() == plan.min_rounds {
            rss_mib = peak_rss_mib(w.measured_pid());
        }
    }
    let fingerprint = w.fingerprint();
    failures.extend(w.finish());

    let outcomes = rounds[0].outcomes.clone();
    for (i, r) in rounds.iter_mut().enumerate() {
        failures.append(&mut r.failures);
        if r.outcomes != outcomes {
            failures.push(format!("round {i} ended differently from round 0"));
        }
    }
    if let Some(pin) = pin {
        if pin.fingerprint != format!("{fingerprint:016x}") {
            failures.push(format!(
                "inputs changed: fingerprint {fingerprint:016x}, pinned {}",
                pin.fingerprint
            ));
        }
        if pin.outcomes != outcomes {
            failures.push(format!(
                "outcomes differ from the vector pinned for seed {seed}: got {outcomes}, pinned {}",
                pin.outcomes
            ));
        }
    }
    let folded = fold(&rounds);
    let attempted: usize = rounds.iter().map(|r| r.ops).sum();
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("op_p50_ms", folded.op_p50_ms),
        ("op_tail_ms", folded.op_tail_ms),
        ("ops_per_s", folded.ops_per_s),
        ("read_p50_ms", folded.read_p50_ms),
        ("feasible_share", folded.feasible_share),
        ("peak_rss_mb", rss_mib),
    ];
    debug_assert_eq!(metrics.len(), END_TO_END.len());
    Outcome {
        workload: name.to_string(),
        trace: false,
        seed,
        fingerprint,
        rounds: rounds.len(),
        ops_per_round: rounds[0].ops,
        tail_percentile: folded.tail_percentile,
        attempted,
        failures,
        outcomes,
        metrics,
    }
}

/// One set-up, two untraced rounds for the baseline rate, `traced_rounds`
/// rounds under the tracer, then the per-layer probes.
pub fn run_traced(
    name: &str,
    seed: u64,
    traced_rounds: usize,
    trace_out: &std::path::Path,
    make: &mut dyn FnMut() -> Box<dyn Workload>,
) -> Outcome {
    let mut failures = Vec::new();
    let mut w = make();
    failures.extend(w.round(None).failures);
    let plain: Vec<Round> = (0..2).map(|_| w.round(None)).collect();
    let tracer = Tracer::new();
    let traced: Vec<Round> = (0..traced_rounds).map(|_| w.round(Some(&tracer))).collect();
    let mut layers = Layers::new();
    failures.extend(w.probe_layers(&tracer, &mut layers));
    layers.set(
        "bench.trace_overhead",
        fold(&plain).ops_per_s / fold(&traced).ops_per_s,
    );
    let fingerprint = w.fingerprint();
    failures.extend(w.finish());
    let mut attempted = 0;
    for r in plain.into_iter().chain(traced) {
        attempted += r.ops;
        failures.extend(r.failures);
    }
    if let Some(dir) = trace_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(trace_out, tracer.chrome_json(name)) {
        failures.push(format!("cannot write {}: {e}", trace_out.display()));
    }
    Outcome {
        workload: name.to_string(),
        trace: true,
        seed,
        fingerprint,
        rounds: traced_rounds,
        ops_per_round: 0,
        tail_percentile: 0.0,
        attempted,
        failures,
        outcomes: String::new(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, _, _)| (name, layers.get(name)))
            .collect(),
    }
}

impl Outcome {
    /// Failed checks, counted against the ops attempted.
    pub fn failed(&self) -> usize {
        self.failures.len().min(self.attempted.max(1))
    }

    /// The line the driver reads: the last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(crate::metrics::describe(name).0)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        )
    }

    /// A record for `--out` files: the result plus what identifies the run.
    pub fn record_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| format!("{}: {}", json_str(name), json_num(*value)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"fingerprint\": \"{:016x}\", \"rounds\": {}, \
             \"ops_per_round\": {}, \"tail_percentile\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failures\": [{}], \"outcomes\": {}, \"metrics\": {{{}}}}}",
            json_str(&self.workload),
            self.trace,
            self.seed,
            self.fingerprint,
            self.rounds,
            self.ops_per_round,
            json_num(self.tail_percentile),
            self.attempted,
            self.failed(),
            failures.join(", "),
            json_str(&self.outcomes),
            metrics.join(", ")
        )
    }
}
