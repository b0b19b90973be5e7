//! Property-based testing of incremental schedule repair: over random
//! task-flow graphs, topologies, and fault draws, any repair that produces a
//! schedule must pass the replay verifier on the masked topology, avoid
//! every failed resource, and leave each unaffected message's path,
//! allocation row, and Ω switching commands bit-identical.

use std::collections::BTreeSet;

use proptest::prelude::*;
use sr::prelude::*;
use sr::tfg::generators::{layered_random, LayeredParams};
use sr::tfg::MessageId;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Repair soundness: whenever a random fault draw on a compiled random
    /// workload yields a repaired/degraded schedule, that schedule verifies
    /// on the masked topology and the unaffected messages are untouched.
    #[test]
    fn repair_is_sound_and_pins_unaffected_messages(
        spec in topo_spec(),
        seed in any::<u64>(),
        alloc_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        k in 1usize..4,
        load in 0.3f64..0.8,
    ) {
        // The vendored proptest only builds strategies from ≤6-tuples;
        // derive the criticality toggle from the fault seed instead.
        let all_critical = fault_seed % 2 == 0;
        let topo = build(&spec);
        let params = LayeredParams { layers: 3, width: 2, edge_probability: 0.6,
            ops: (500, 1500), bytes: (64, 1024) };
        let tfg = layered_random(seed, &params);
        let timing = Timing::new(64.0, 20.0);
        let alloc = sr::mapping::random(&tfg, topo.as_ref(), alloc_seed);
        let period = timing.longest_task(&tfg) / load;

        let Ok(sched) = compile(topo.as_ref(), &tfg, &alloc, &timing, period,
            &CompileConfig::default()) else { return Ok(()); };

        let faults = FaultSet::random_links(topo.as_ref(), k, fault_seed);
        let config = RepairConfig {
            critical: if all_critical { None } else { Some(vec![false; tfg.num_messages()]) },
            ..RepairConfig::default()
        };
        let outcome = repair(&sched, topo.as_ref(), &tfg, &timing, &faults, &config);
        let report = analyze_damage(&sched, &faults);

        match outcome.verdict {
            RepairVerdict::Unchanged => {
                prop_assert!(report.is_clean());
                prop_assert!(outcome.schedule.is_some());
            }
            RepairVerdict::Infeasible => prop_assert!(outcome.schedule.is_none()),
            RepairVerdict::Repaired | RepairVerdict::Degraded => {
                let repaired = outcome.schedule.as_ref().expect("schedule present");
                // The replay verifier accepts it on the masked topology and
                // no failed resource is used.
                let masked = MaskedTopology::new(topo.as_ref(), faults.clone());
                verify(repaired, &masked, &tfg)
                    .map_err(|e| TestCaseError::fail(format!("masked verify failed: {e}")))?;
                verify_with_faults(repaired, topo.as_ref(), &tfg, &faults)
                    .map_err(|e| TestCaseError::fail(format!("fault verify failed: {e}")))?;

                // Pinning: unaffected messages are bit-identical.
                let pinned: BTreeSet<MessageId> = report.unaffected.iter().copied().collect();
                for &m in &report.unaffected {
                    prop_assert_eq!(sched.assignment().path(m).nodes(),
                        repaired.assignment().path(m).nodes());
                    prop_assert_eq!(sched.allocation().row(m), repaired.allocation().row(m));
                }
                let segs = |s: &Schedule| s.segments().iter()
                    .filter(|seg| pinned.contains(&seg.message)).copied().collect::<Vec<_>>();
                prop_assert_eq!(segs(&sched), segs(repaired));
                for (old, new) in sched.node_schedules().iter().zip(&repaired.node_schedules()) {
                    let omega = |ns: &sr::core::NodeSchedule| ns.commands().iter()
                        .filter(|c| pinned.contains(&c.message)).copied().collect::<Vec<_>>();
                    prop_assert_eq!(omega(old), omega(new));
                }

                // Dropped/demoted traffic really is off the schedule.
                for &m in outcome.dropped.iter().chain(outcome.demoted.iter().map(|(m, _)| m)) {
                    prop_assert!(repaired.assignment().links(m).is_empty());
                }
            }
        }
    }
}
