//! The `--metrics` counters must be deterministic under `--parallelism N`:
//! the speculative parallel search replays the exact serial candidate walk,
//! so every counter derived from that walk (candidates, outcomes, LP pivots,
//! arena sizes, …) is identical at any thread count. Only counters under the
//! `par.` namespace — speculative work actually performed and path-pool
//! traffic — are allowed to depend on thread timing.

use proptest::prelude::*;
use sr::obs::MetricsRecorder;
use sr::prelude::*;
use sr::tfg::generators::{chain, diamond};
use std::collections::BTreeMap;

/// Compile the workload at the given thread count and return every counter
/// outside the thread-timing-dependent `par.` namespace.
fn deterministic_counters(
    topo: &dyn Topology,
    tfg: &TaskFlowGraph,
    alloc: &Allocation,
    timing: &Timing,
    period: f64,
    threads: usize,
) -> (BTreeMap<String, u64>, Option<String>) {
    let config = CompileConfig {
        parallelism: threads,
        ..CompileConfig::default()
    };
    let rec = MetricsRecorder::new();
    let outcome = compile_with_recorder(topo, tfg, alloc, timing, period, &config, &rec)
        .err()
        .map(|e| e.to_string());
    let counters = rec
        .counters()
        .into_iter()
        .filter(|(k, _)| !k.starts_with("par."))
        .collect();
    (counters, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn counters_identical_at_any_thread_count(
        dim in 2usize..4,
        shape in 0usize..2,
        stages in 2usize..5,
        bytes_idx in 0usize..3,
        slack in 0usize..4,
    ) {
        let bytes = [256u64, 640, 1280][bytes_idx];
        let cube = GeneralizedHypercube::binary(dim).unwrap();
        let tfg = match shape {
            0 => chain(stages, 500, bytes),
            _ => diamond(stages, 500, bytes),
        };
        let alloc = sr::mapping::greedy(&tfg, &cube);
        let timing = Timing::new(64.0, 10.0);
        // Periods from "at the longest-task bound" (often unschedulable,
        // exercising the full feedback walk) up to comfortably feasible.
        let period = timing.longest_task(&tfg) * (1.0 + 0.5 * slack as f64);

        let serial = deterministic_counters(&cube, &tfg, &alloc, &timing, period, 1);
        let parallel = deterministic_counters(&cube, &tfg, &alloc, &timing, period, 4);
        // The climb's work counters are part of the compared set, not
        // filtered out with `par.`.
        for name in [
            "assign_paths.restarts",
            "assign_paths.trials",
            "assign_paths.link_recomputes",
            "assign_paths.climbs",
            "assign_paths.certified_climbs",
            "assign_paths.skipped_restarts",
        ] {
            prop_assert!(serial.0.contains_key(name), "missing {}", name);
        }
        prop_assert_eq!(serial, parallel);
    }
}

/// The partitioned climb runs its parts on the `sr-par` pool; the work
/// counters are summed from the parts' outcomes by the serial walk, so they
/// too are the same at any thread count — and non-trivial on a workload
/// whose peak link has alternatives to try: the climbs do restart, and the
/// ones that reach their lower bound skip the rest of their budget.
#[test]
fn partitioned_climb_work_counters_are_thread_invariant() {
    let topo = Torus::new(&[8, 8]).unwrap();
    let tfg = sr::tfg::dvb_uniform(10);
    let alloc = sr::mapping::random_distinct(&tfg, &topo, 7).unwrap();
    let timing = Timing::calibrated_dvb(128.0);
    let period = timing.longest_task(&tfg) * 2.0;
    let counters = |threads: usize| {
        let config = CompileConfig {
            parallelism: threads,
            partition: 2,
            ..CompileConfig::default()
        };
        let rec = MetricsRecorder::new();
        compile_with_recorder(&topo, &tfg, &alloc, &timing, period, &config, &rec)
            .expect("DVB compiles at half load");
        let all = rec.counters();
        [
            "restarts",
            "trials",
            "link_recomputes",
            "climbs",
            "certified_climbs",
            "skipped_restarts",
        ]
        .map(|c| all[&format!("assign_paths.{c}")])
    };
    let serial = counters(1);
    assert_eq!(serial, counters(4));
    assert!(serial.iter().all(|&c| c > 0), "{serial:?}");
}

/// The parallel search should still report its speculative work somewhere:
/// the `par.` counters exist precisely so thread-dependent quantities have a
/// home outside the deterministic namespace.
#[test]
fn parallel_search_reports_par_namespace() {
    let cube = GeneralizedHypercube::binary(3).unwrap();
    let tfg = chain(4, 500, 640);
    let alloc = sr::mapping::greedy(&tfg, &cube);
    let timing = Timing::new(64.0, 10.0);
    let config = CompileConfig {
        parallelism: 4,
        ..CompileConfig::default()
    };
    let rec = MetricsRecorder::new();
    compile_with_recorder(&cube, &tfg, &alloc, &timing, 200.0, &config, &rec)
        .expect("chain compiles");
    let counters = rec.counters();
    assert!(counters.contains_key("par.pathpool.misses"));
    assert!(counters.contains_key("par.speculative.seed_evals"));
    // And the walk-derived view is present alongside it.
    assert_eq!(counters["search.outcome.scheduled"], 1);
}
