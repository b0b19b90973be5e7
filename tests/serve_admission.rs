//! The serve acceptance scenario: a resident 8×8-torus daemon carrying 24
//! tenants admits a 25th on the warm path without perturbing any admitted
//! tenant's schedule — asserted bit-identically, segment for segment and
//! allocation row for row.
//!
//! The warm-path latency itself is measured by the `admission_latency`
//! bench (BENCH_serve.json); this test asserts a generous wall-clock bound
//! by default and the strict sub-millisecond budget when
//! `SR_STRICT_TIMING=1` (set by CI's release-built run of this test).

use std::collections::BTreeMap;
use std::time::Instant;

use sr::serve::{AdmitRung, Engine, Placement, ServeConfig, TenantSpec};
use sr::tfg::MessageId;
use sr::topology::{LinkId, Torus};

/// Tenant `i`: a two-task chain on its own node pair of the 64-node torus
/// (tenants 0..=24 cover nodes 0..=49, so placements never collide and
/// the mix of message sizes still varies per tenant).
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

fn engine() -> Engine {
    let topo = Torus::new(&[8, 8]).expect("torus");
    Engine::new(
        Box::new(topo),
        ServeConfig {
            period: 200.0,
            ..ServeConfig::default()
        },
    )
}

type Snapshot = (
    Vec<sr::core::Segment>,
    Vec<Vec<f64>>,
    BTreeMap<LinkId, Vec<(f64, f64)>>,
);

fn snapshot(eng: &Engine, name: &str) -> Snapshot {
    let t = eng.tenant(name).expect("admitted tenant");
    let s = t.schedule.as_ref().expect("real-time schedule");
    let rows = (0..s.assignment().len())
        .map(|m| s.allocation().row(MessageId(m)).to_vec())
        .collect();
    (s.segments().to_vec(), rows, t.spans.clone())
}

#[test]
fn twenty_fifth_tenant_admits_warm_without_perturbing_the_other_24() {
    let mut eng = engine();
    for i in 0..24 {
        let report = eng.admit(&spec(i), &sr::obs::NOOP).expect("tenant admits");
        assert!(
            matches!(report.rung, AdmitRung::Fast | AdmitRung::Adapted),
            "tenant {i} fell to rung {:?}",
            report.rung
        );
    }
    let before: Vec<Snapshot> = (0..24).map(|i| snapshot(&eng, &spec(i).name)).collect();

    // Prime the warm path: one cold admission fills the per-tenant memo
    // (standalone compile + admission result), then eviction restores the
    // 24-tenant ledger bit-identically.
    let cold_start = Instant::now();
    eng.admit(&spec(24), &sr::obs::NOOP)
        .expect("cold admission");
    let cold = cold_start.elapsed();
    let expected = snapshot(&eng, &spec(24).name);
    eng.evict(&spec(24).name, &sr::obs::NOOP).expect("evicts");

    // The warm re-admission: memoized end to end.
    let rec = sr::obs::MetricsRecorder::new();
    let warm_start = Instant::now();
    let report = eng.admit(&spec(24), &rec).expect("warm admission");
    let warm = warm_start.elapsed();
    assert!(
        report.replayed,
        "warm path should replay the memoized result"
    );
    assert_eq!(rec.counters()["serve.admit.replayed"], 1);

    // The 25th tenant reproduces its first admission exactly...
    assert_eq!(snapshot(&eng, &spec(24).name), expected);
    // ...and no admitted tenant moved, bit for bit.
    for (i, snap) in before.iter().enumerate() {
        assert_eq!(
            &snapshot(&eng, &spec(i).name),
            snap,
            "tenant {i} was perturbed"
        );
    }
    eng.check_invariants().expect("pinning contract holds");

    // Wall-clock budget: <1 ms warm on release bench hardware
    // (SR_STRICT_TIMING=1); a generous bound otherwise so debug builds and
    // loaded CI runners don't flake.
    let budget_ms = if std::env::var_os("SR_STRICT_TIMING").is_some_and(|v| v == "1") {
        1.0
    } else {
        250.0
    };
    assert!(
        warm.as_secs_f64() * 1e3 < budget_ms,
        "warm admission took {warm:?} (budget {budget_ms} ms, cold was {cold:?})"
    );
}

#[test]
fn warm_admission_beats_cold_on_a_loaded_fabric() {
    let mut eng = engine();
    for i in 0..24 {
        eng.admit(&spec(i), &sr::obs::NOOP).expect("tenant admits");
    }
    // Cold: the 25th spec has never been seen.
    let cold_start = Instant::now();
    eng.admit(&spec(24), &sr::obs::NOOP).expect("cold");
    let cold = cold_start.elapsed();
    eng.evict(&spec(24).name, &sr::obs::NOOP).expect("evict");
    // Warm it up once more and measure the replay.
    let warm_start = Instant::now();
    let report = eng.admit(&spec(24), &sr::obs::NOOP).expect("warm");
    let warm = warm_start.elapsed();
    assert!(report.replayed);
    // The warm path does no compile work; even on noisy runners it should
    // not be slower than the cold path by more than measurement jitter.
    assert!(
        warm <= cold.max(std::time::Duration::from_millis(5)),
        "warm {warm:?} vs cold {cold:?}"
    );
}

#[test]
fn saturating_the_fabric_yields_a_diagnosed_rejection() {
    let topo = Torus::new(&[4, 4]).expect("torus");
    let mut eng = Engine::new(
        Box::new(topo),
        ServeConfig {
            period: 30.0,
            ..ServeConfig::default()
        },
    );
    // Fill one node pair with heavy traffic, then ask for more of it.
    let heavy = |name: &str| TenantSpec {
        name: name.to_string(),
        tfg_text: "task a 100\ntask b 100\nmsg m a -> b 1500".to_string(),
        placement: Placement::Nodes(vec![0, 1]),
        best_effort: false,
    };
    eng.admit(&heavy("h0"), &sr::obs::NOOP)
        .expect("first heavy tenant");
    let mut rejected = 0;
    for k in 1..6 {
        match eng.admit(&heavy(&format!("h{k}")), &sr::obs::NOOP) {
            Ok(_) => {}
            Err(sr::serve::AdmitError::Infeasible(rej)) => {
                rejected += 1;
                assert!(!rej.detail.is_empty());
                assert!(rej.rungs_tried >= 1);
            }
            Err(e) => panic!("unexpected admit error: {e:?}"),
        }
    }
    assert!(rejected > 0, "saturation never produced a rejection");
    eng.check_invariants()
        .expect("rejections leave the ledger clean");
}

/// With every memo slot pinned by a resident tenant, the entry `memoize`
/// just inserted used to be the only evictable one — and the admission
/// that needed it then died on a missing entry (the daemon answered
/// `internal`). The memo must grow past its capacity instead.
#[test]
fn admitting_past_the_memo_capacity_keeps_the_entry_in_flight() {
    let mut eng = Engine::new(
        Box::new(Torus::new(&[16, 16]).expect("torus")),
        ServeConfig {
            period: 200.0,
            ..ServeConfig::default()
        },
    );
    let residents = ServeConfig::default().memo_capacity + 6;
    for i in 0..residents {
        let spec = TenantSpec {
            name: format!("chain{i:03}"),
            tfg_text: format!("task a{i} 200\ntask b{i} 240\nmsg m{i} a{i} -> b{i} 256"),
            placement: Placement::Nodes(vec![2 * i, 2 * i + 1]),
            best_effort: false,
        };
        let report = eng
            .admit(&spec, &sr::obs::NOOP)
            .unwrap_or_else(|e| panic!("tenant {i} of {residents}: {e:?}"));
        assert_eq!(report.rung, AdmitRung::Fast, "tenant {i}");
    }
    assert_eq!(eng.tenants().count(), residents);
    eng.check_invariants().expect("ledger invariants");
}

/// Admission and eviction cost what they move, by count: the same warm
/// two-task tenant admitted into and evicted from 24 and 480 resident
/// chains on a 32×32 torus touches the same number of ledger rows and moves
/// the same number of spans. The counters count the delta the maintained
/// ledger applies, so they are exact where a wall clock would be noise.
#[test]
fn ledger_work_per_mutation_does_not_grow_with_the_table() {
    let chain = |i: usize| TenantSpec {
        name: format!("chain{i:03}"),
        tfg_text: format!("task a{i} 100\ntask b{i} 100\nmsg m{i} a{i} -> b{i} 256"),
        placement: Placement::Nodes(vec![2 * i, 2 * i + 1]),
        best_effort: false,
    };
    let probe = chain(500);
    let work_at = |residents: usize| {
        let topo = Torus::new(&[32, 32]).expect("torus");
        let mut eng = Engine::new(
            Box::new(topo),
            ServeConfig {
                period: 200.0,
                ..ServeConfig::default()
            },
        );
        for i in 0..residents {
            eng.admit(&chain(i), &sr::obs::NOOP).expect("resident");
        }
        // Warm the probe: compile, admit, evict — its memo now replays.
        eng.admit(&probe, &sr::obs::NOOP).expect("cold probe");
        eng.evict(&probe.name, &sr::obs::NOOP).expect("evicts");
        let rec = sr::obs::MetricsRecorder::new();
        let report = eng.admit(&probe, &rec).expect("warm probe");
        assert!(report.replayed);
        let admit = (
            rec.counter("serve.ledger.rows_touched"),
            rec.counter("serve.ledger.spans_moved"),
        );
        eng.evict(&probe.name, &rec).expect("evicts");
        let both = (
            rec.counter("serve.ledger.rows_touched"),
            rec.counter("serve.ledger.spans_moved"),
        );
        assert_eq!(eng.tenants().count(), residents);
        assert_eq!(eng.maintained_ledger(), &eng.ledger());
        (admit, both)
    };
    let (small, large) = (work_at(24), work_at(480));
    assert!(small.0 .0 > 0 && small.0 .1 > 0, "{small:?}");
    assert_eq!(small.1, (2 * small.0 .0, 2 * small.0 .1));
    assert_eq!(small, large);
}
