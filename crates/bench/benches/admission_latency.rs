//! The cost of observing an admission: a 25th tenant re-admitted against an
//! 8×8 torus already carrying 24, once through the no-op recorder and once
//! through a live [`MetricsRecorder`].
//!
//! * **warm** — evict-then-readmit of a tenant the engine has seen: the
//!   per-tenant memo replays the stored result after one ledger comparison,
//!   with `NOOP` (no timestamps taken).
//! * **observed** — the same loop with a live recorder: timestamps, ladder
//!   laps, and per-rung histogram inserts all active.
//!
//! `observed / warm` is the instrumentation overhead ratio (budget: ≤2%,
//! see EXPERIMENTS.md). The benchmark under `benchmark/` times admissions
//! with the daemon's recorder live and the in-process engine with `NOOP`,
//! but never both on one ledger, so it does not report this ratio.
//!
//! Run with `CRITERION_JSON=BENCH_serve.json cargo bench --bench
//! admission_latency` to capture machine-readable numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use sr::obs::{MetricsRecorder, Recorder, NOOP};
use sr::serve::{Engine, Placement, ServeConfig, TenantSpec};
use sr::topology::Torus;
use std::hint::black_box;

/// Tenant `i`: a two-task chain on its own node pair (see
/// `tests/serve_admission.rs` for the same scenario in test form).
fn spec(i: usize) -> TenantSpec {
    let base = (i * 2) % 62;
    TenantSpec {
        name: format!("app{i:02}"),
        tfg_text: format!(
            "task src{i} 200\ntask dst{i} 240\nmsg m{i} src{i} -> dst{i} {}",
            256 + 32 * (i % 8)
        ),
        placement: Placement::Nodes(vec![base, base + 1]),
        best_effort: false,
    }
}

/// A resident engine carrying tenants `0..24` whose memo already holds the
/// 25th tenant's result against that ledger.
fn primed_engine(rec: &dyn Recorder) -> Engine {
    let topo = Torus::new(&[8, 8]).expect("torus");
    let mut eng = Engine::new(
        Box::new(topo),
        ServeConfig {
            period: 200.0,
            ..ServeConfig::default()
        },
    );
    for i in 0..24 {
        eng.admit(&spec(i), &NOOP).expect("resident tenant admits");
    }
    eng.admit(&spec(24), rec).expect("prime the memo");
    eng.evict(&spec(24).name, rec).expect("prime eviction");
    eng
}

fn bench_admission_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission_latency");
    g.sample_size(10);

    let mut eng = primed_engine(&NOOP);
    g.bench_function("torus8x8_24tenants_warm", |b| {
        b.iter(|| {
            black_box(eng.admit(&spec(24), &NOOP).expect("warm admit"));
            eng.evict(&spec(24).name, &NOOP).expect("warm evict");
        })
    });

    let rec = MetricsRecorder::new();
    let mut eng = primed_engine(&rec);
    g.bench_function("torus8x8_24tenants_observed", |b| {
        b.iter(|| {
            black_box(eng.admit(&spec(24), &rec).expect("observed admit"));
            eng.evict(&spec(24).name, &rec).expect("observed evict");
        })
    });

    g.finish();
}

criterion_group!(benches, bench_admission_latency);
criterion_main!(benches);
