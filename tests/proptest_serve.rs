//! Property-based testing of the serve engine's multi-tenant pinning
//! contract: over random admit/evict interleavings on a 4×4 torus, every
//! admitted tenant's schedule stays bit-identical to its standalone
//! compile, eviction restores the ledger exactly, and evict-then-readmit
//! reproduces the original admission byte for byte. A second property
//! holds the engine's *maintained* state — ledger rows, the ledger
//! fingerprint kept row by row, the published `/tenants` items — to its
//! from-scratch specification after
//! every op of interleavings that also contend, reject and batch; CI runs
//! it in release too, where the engine's own debug assertions are off.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sr::obs::{escape_json, json_num};
use sr::serve::{
    ledger_hash, spans_hash, AdmitError, Engine, OpsState, Placement, ServeConfig, TenantSpec,
};
use sr::tfg::MessageId;
use sr::topology::Torus;

const POOL: usize = 6;

/// Tenant `i` from the pool: a two-task chain pinned to its own node pair,
/// so every tenant's path links are private and admission stays on the
/// fast rung (which is what makes "rows == standalone compile" assertable
/// for *all* interleavings).
fn spec(i: usize) -> TenantSpec {
    TenantSpec {
        name: format!("t{i}"),
        tfg_text: format!(
            "task a{i} 100\ntask b{i} 120\nmsg m{i} a{i} -> b{i} {}",
            128 + 64 * i
        ),
        placement: Placement::Nodes(vec![2 * i, 2 * i + 1]),
        best_effort: false,
    }
}

fn engine() -> Engine {
    let topo = Torus::new(&[4, 4]).expect("torus");
    Engine::new(Box::new(topo), ServeConfig::default())
}

/// The standalone compile of tenant `i`: what a fresh engine with an empty
/// ledger admits (the fast rung clones the memoized standalone schedule
/// verbatim).
fn standalone(i: usize) -> sr::core::Schedule {
    let mut eng = engine();
    eng.admit(&spec(i), &sr::obs::NOOP)
        .expect("standalone admits");
    eng.tenant(&format!("t{i}"))
        .expect("tenant present")
        .schedule
        .as_deref()
        .cloned()
        .expect("real-time schedule")
}

/// A contender for tenant `i`'s links: same node pair, another name, so it
/// cannot take the fast rung while `t{i}` is resident — it lands on a lower
/// rung (best effort allowed) or is rejected.
fn contender(i: usize) -> TenantSpec {
    TenantSpec {
        name: format!("c{i}"),
        best_effort: true,
        ..spec(i)
    }
}

/// A tenant that cannot compile at this period on any ledger: a rejection
/// that leaves table and ledger as they were.
fn hog(i: usize) -> TenantSpec {
    TenantSpec {
        name: "hog".into(),
        tfg_text: "task a 100\ntask b 100\nmsg m a -> b 2000000".into(),
        ..spec(i)
    }
}

/// The `GET /tenants` body rendered from the tenant table alone.
fn tenants_body_from_scratch(eng: &Engine) -> String {
    let items: Vec<String> = eng
        .tenants()
        .map(|t| {
            let links: Vec<String> = t
                .spans
                .iter()
                .map(|(l, spans)| {
                    let busy: f64 = spans.iter().map(|&(s, e)| e - s).sum();
                    format!(r#"{{"link":{},"busy_us":{}}}"#, l.index(), json_num(busy))
                })
                .collect();
            format!(
                r#"{{"name":"{}","seq":{},"rung":"{}","scale":{},"messages":{},"links":[{}]}}"#,
                escape_json(&t.name),
                t.seq,
                t.rung.label(),
                json_num(t.scale),
                t.tfg.num_messages(),
                links.join(",")
            )
        })
        .collect();
    format!(
        "{{\"ok\":true,\"count\":{},\"tenants\":[{}]}}\n",
        items.len(),
        items.join(",")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After every op of a random admit / evict / contender / reject /
    /// batch interleaving, everything the engine and the exposition keep
    /// incrementally equals its from-scratch recompute.
    #[test]
    fn maintained_state_equals_its_recompute(
        ops in prop::collection::vec((0usize..6, 0usize..POOL), 1..32),
    ) {
        let mut eng = engine();
        let ops_state = OpsState::new(std::sync::Arc::new(sr::obs::MetricsRecorder::new()));
        for &(kind, i) in &ops {
            let rec = &sr::obs::NOOP;
            match kind {
                0 => drop(eng.admit(&spec(i), rec)),
                1 => drop(eng.evict(&format!("t{i}"), rec)),
                2 => drop(eng.admit(&contender(i), rec)),
                3 => drop(eng.evict(&format!("c{i}"), rec)),
                4 => {
                    let before = eng.ledger();
                    prop_assert!(matches!(
                        eng.admit(&hog(i), rec),
                        Err(AdmitError::Infeasible(_))
                    ));
                    prop_assert_eq!(&before, eng.maintained_ledger());
                }
                _ => {
                    let batch = [spec(i), contender(i), spec((i + 1) % POOL)];
                    drop(eng.admit_batch(&batch, rec));
                }
            }
            let recomputed = eng.ledger();
            prop_assert_eq!(eng.maintained_ledger(), &recomputed);
            prop_assert_eq!(eng.check_invariants(), Ok(()));
            // The fingerprint the engine keeps row by row, against the
            // recompute's taken from scratch.
            prop_assert_eq!(ledger_hash(&eng), spans_hash(&recomputed));
            ops_state.publish(&eng, "", None);
            prop_assert_eq!(ops_state.tenants_body(), tenants_body_from_scratch(&eng));
        }
    }

    /// Any admit/evict interleaving leaves every admitted tenant's rows,
    /// segments, and spans bit-identical to its standalone compile, and
    /// the ledger invariants hold after every step.
    #[test]
    fn interleavings_preserve_the_pinning_contract(
        ops in prop::collection::vec((0usize..POOL, any::<bool>()), 1..24),
    ) {
        let references: Vec<sr::core::Schedule> = (0..POOL).map(standalone).collect();
        let mut eng = engine();
        let mut first_spans: BTreeMap<usize, _> = BTreeMap::new();

        for &(i, admit) in &ops {
            let name = format!("t{i}");
            if admit {
                match eng.admit(&spec(i), &sr::obs::NOOP) {
                    Ok(report) => {
                        prop_assert_eq!(report.rung, sr::serve::AdmitRung::Fast);
                        let t = eng.tenant(&name).expect("admitted");
                        // Evict-then-readmit reproduces the original
                        // admission exactly.
                        if let Some(prev) = first_spans.get(&i) {
                            prop_assert_eq!(prev, &t.spans);
                        } else {
                            first_spans.insert(i, t.spans.clone());
                        }
                    }
                    Err(AdmitError::Duplicate(_)) => {
                        prop_assert!(eng.tenant(&name).is_some());
                    }
                    Err(e) => prop_assert!(false, "unexpected admit error: {e:?}"),
                }
            } else {
                let was_admitted = eng.tenant(&name).is_some();
                prop_assert_eq!(eng.evict(&name, &sr::obs::NOOP).is_ok(), was_admitted);
            }
            eng.check_invariants()
                .map_err(|e| TestCaseError::fail(format!("invariants: {e}")))?;

            // Every admitted tenant stays bit-identical to standalone.
            for t in eng.tenants() {
                let idx: usize = t.name[1..].parse().expect("pool name");
                let reference = &references[idx];
                let got = t.schedule.as_ref().expect("real-time schedule");
                prop_assert_eq!(got.segments(), reference.segments());
                for m in 0..got.assignment().len() {
                    let m = MessageId(m);
                    prop_assert_eq!(
                        got.assignment().path(m).nodes(),
                        reference.assignment().path(m).nodes()
                    );
                    prop_assert_eq!(got.allocation().row(m), reference.allocation().row(m));
                }
            }
        }

        // Draining the table restores the empty ledger bit-identically.
        let names: Vec<String> = eng.tenants().map(|t| t.name.clone()).collect();
        for name in names {
            eng.evict(&name, &sr::obs::NOOP).expect("drain");
        }
        prop_assert!(eng.ledger().is_empty());
    }
}
