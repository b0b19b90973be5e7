//! Property-based end-to-end testing: random task-flow graphs on random
//! small topologies either compile into schedules that pass the verifier,
//! or fail with a legitimate schedulability error — never a panic, never an
//! unverifiable schedule.

use proptest::prelude::*;
use sr::prelude::*;
use sr::tfg::generators::{layered_random, LayeredParams};

#[derive(Debug, Clone)]
enum TopoSpec {
    Cube(usize),
    Ghc(Vec<usize>),
    Torus(Vec<usize>),
}

fn topo_spec() -> impl Strategy<Value = TopoSpec> {
    prop_oneof![
        (2usize..5).prop_map(TopoSpec::Cube),
        prop::collection::vec(2usize..4, 1..3).prop_map(TopoSpec::Ghc),
        prop::collection::vec(3usize..5, 1..3).prop_map(TopoSpec::Torus),
    ]
}

fn build(spec: &TopoSpec) -> Box<dyn Topology> {
    match spec {
        TopoSpec::Cube(d) => Box::new(GeneralizedHypercube::binary(*d).unwrap()),
        TopoSpec::Ghc(r) => Box::new(GeneralizedHypercube::new(r).unwrap()),
        TopoSpec::Torus(e) => Box::new(Torus::new(e).unwrap()),
    }
}

/// A link's busy row as it was derived before `Schedule::busy_spans`: the
/// spans of every segment whose message crosses `link`, sorted by start
/// and merged to within `EPS` — one filter over every segment per link,
/// the reference the one-pass derivation is held to.
fn link_busy_spans_reference(s: &Schedule, link: LinkId) -> Vec<(f64, f64)> {
    let mut spans: Vec<(f64, f64)> = s
        .segments()
        .iter()
        .filter(|seg| s.assignment().links(seg.message).contains(&link))
        .map(|seg| (seg.start, seg.end))
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for (start, end) in spans {
        match merged.last_mut() {
            Some(last) if start <= last.1 + sr::core::EPS => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

fn tfg_params() -> impl Strategy<Value = LayeredParams> {
    (2usize..4, 1usize..4, 0.2f64..0.9).prop_map(|(layers, width, p)| LayeredParams {
        layers,
        width,
        edge_probability: p,
        ops: (500, 2000),
        bytes: (64, 2048),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// compile ∘ verify never produces an invalid schedule, and failures
    /// carry schedulability-shaped errors.
    #[test]
    fn compile_then_verify_or_legitimate_failure(
        spec in topo_spec(),
        seed in any::<u64>(),
        params in tfg_params(),
        load in 0.2f64..1.0,
        alloc_seed in any::<u64>(),
    ) {
        let topo = build(&spec);
        let tfg = layered_random(seed, &params);
        let timing = Timing::new(64.0, 20.0);
        let alloc = sr::mapping::random(&tfg, topo.as_ref(), alloc_seed);
        let period = timing.longest_task(&tfg) / load;

        match compile(topo.as_ref(), &tfg, &alloc, &timing, period, &CompileConfig::default()) {
            Ok(s) => {
                verify(&s, topo.as_ref(), &tfg)
                    .map_err(|e| TestCaseError::fail(format!("verify failed: {e}")))?;
                prop_assert!(s.peak_utilization() <= 1.0 + 1e-6);
                prop_assert!(s.latency() >= timing.critical_path(&tfg) - 1e-6);
            }
            Err(
                CompileError::UtilizationExceeded { .. }
                | CompileError::AllocationInfeasible { .. }
                | CompileError::IntervalUnschedulable { .. }
                | CompileError::NodeOverloaded { .. }
                | CompileError::TimeBounds(sr::tfg::TfgError::MessageExceedsPeriod { .. }),
            ) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// Every link's row of `busy_spans`, derived in one pass, equals the
    /// per-link filter bit for bit, without a guard and with one; a link
    /// without traffic has no row.
    #[test]
    fn busy_spans_equal_the_per_link_filter(
        spec in topo_spec(),
        seed in any::<u64>(),
        params in tfg_params(),
        load in 0.2f64..1.0,
        alloc_seed in any::<u64>(),
        guard_time in prop_oneof![Just(0.0), Just(1.5)],
    ) {
        let topo = build(&spec);
        let tfg = layered_random(seed, &params);
        let timing = Timing::new(64.0, 20.0);
        let alloc = sr::mapping::random(&tfg, topo.as_ref(), alloc_seed);
        let period = timing.longest_task(&tfg) / load;
        let config = CompileConfig { guard_time, ..CompileConfig::default() };

        if let Ok(s) = compile(topo.as_ref(), &tfg, &alloc, &timing, period, &config) {
            let rows = s.busy_spans();
            for l in 0..topo.num_links() {
                let link = LinkId(l);
                let want = link_busy_spans_reference(&s, link);
                let got = rows.get(&link).cloned().unwrap_or_default();
                let bits = |row: &[(f64, f64)]| -> Vec<(u64, u64)> {
                    row.iter().map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
                };
                prop_assert_eq!(bits(&got), bits(&want), "link {}", link);
                prop_assert_eq!(rows.contains_key(&link), !want.is_empty());
            }
        }
    }

    /// The wormhole simulator always terminates and keeps its accounting
    /// consistent on random workloads.
    #[test]
    fn wormhole_terminates_and_accounts(
        spec in topo_spec(),
        seed in any::<u64>(),
        params in tfg_params(),
        load in 0.3f64..1.5, // deliberately includes over-saturation
        alloc_seed in any::<u64>(),
    ) {
        let topo = build(&spec);
        let tfg = layered_random(seed, &params);
        let timing = Timing::new(64.0, 20.0);
        let alloc = sr::mapping::random(&tfg, topo.as_ref(), alloc_seed);
        let period = timing.longest_task(&tfg) / load;

        let sim = WormholeSim::new(topo.as_ref(), &tfg, &alloc, &timing).unwrap();
        let cfg = SimConfig { invocations: 15, warmup: 3 };
        let res = sim.run(period, &cfg).unwrap();
        // The completed prefix is consistent.
        for (j, r) in res.records().iter().enumerate() {
            prop_assert_eq!(r.index, j);
            prop_assert!(r.latency() > 0.0);
        }
        if !res.deadlocked() {
            prop_assert_eq!(res.records().len(), cfg.invocations);
        }
    }

    /// When SR compiles, replaying its exact paths through the wormhole
    /// simulator is always accepted by the route validator.
    #[test]
    fn compiled_paths_are_valid_wormhole_routes(
        spec in topo_spec(),
        seed in any::<u64>(),
        alloc_seed in any::<u64>(),
    ) {
        let topo = build(&spec);
        let params = LayeredParams { layers: 3, width: 2, edge_probability: 0.6,
            ops: (500, 1500), bytes: (64, 1024) };
        let tfg = layered_random(seed, &params);
        let timing = Timing::new(64.0, 20.0);
        let alloc = sr::mapping::random(&tfg, topo.as_ref(), alloc_seed);
        let period = timing.longest_task(&tfg) * 2.0;

        if let Ok(s) = compile(topo.as_ref(), &tfg, &alloc, &timing, period, &CompileConfig::default()) {
            let sim = WormholeSim::new(topo.as_ref(), &tfg, &alloc, &timing).unwrap();
            prop_assert!(sim.with_routes(s.assignment().paths()).is_ok());
        }
    }
}
