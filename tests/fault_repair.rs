//! Integration tests for fault injection and incremental schedule repair:
//! the PR's acceptance scenario (DVB on a 4×4 torus, one failed link) plus
//! the degradation ladder's end states.

use std::collections::BTreeSet;

use sr::core::{Command, NodeSchedule};
use sr::prelude::*;
use sr::tfg::MessageId;

fn dvb_on_torus4x4() -> (Torus, TaskFlowGraph, Timing, Schedule) {
    let topo = Torus::new(&[4, 4]).unwrap();
    let tfg = dvb_uniform(8);
    let timing = Timing::calibrated_dvb(128.0);
    let alloc = sr::mapping::random_distinct(&tfg, &topo, 7).unwrap();
    let period = timing.longest_task(&tfg) / 0.5;
    let sched = compile(
        &topo,
        &tfg,
        &alloc,
        &timing,
        period,
        &CompileConfig::default(),
    )
    .expect("DVB at load 0.5 compiles on the 4x4 torus");
    (topo, tfg, timing, sched)
}

/// The acceptance scenario: kill one link under a scheduled path and repair.
/// The repaired schedule is verifier-clean on the surviving network and
/// modifies *only* the affected messages — paths, allocation rows, segments,
/// and Ω switching commands of every unaffected message stay bit-identical.
#[test]
fn one_failed_link_repairs_and_pins_everything_else() {
    let (topo, tfg, timing, sched) = dvb_on_torus4x4();
    let dead = (0..tfg.num_messages())
        .map(MessageId)
        .find_map(|m| sched.assignment().links(m).first().copied())
        .expect("some message crosses a link");
    let faults = FaultSet::new().fail_link(dead);

    let report = analyze_damage(&sched, &faults);
    assert!(!report.affected.is_empty(), "chosen link carries traffic");
    assert!(!report.unaffected.is_empty(), "most traffic avoids it");
    assert!(report.lost.is_empty(), "no endpoint died");

    let outcome = repair(
        &sched,
        &topo,
        &tfg,
        &timing,
        &faults,
        &RepairConfig::default(),
    );
    assert_eq!(
        outcome.verdict,
        RepairVerdict::Repaired,
        "{:?}",
        outcome.verdict
    );
    let repaired = outcome.schedule.as_ref().expect("repaired schedule");
    verify(repaired, &topo, &tfg).unwrap();
    verify_with_faults(repaired, &topo, &tfg, &faults).unwrap();
    assert_eq!(outcome.rerouted, report.affected);

    let pinned: BTreeSet<MessageId> = report.unaffected.iter().copied().collect();
    for &m in &report.unaffected {
        assert_eq!(
            sched.assignment().path(m).nodes(),
            repaired.assignment().path(m).nodes()
        );
        assert_eq!(sched.allocation().row(m), repaired.allocation().row(m));
    }
    for &m in &report.affected {
        assert!(
            !repaired.assignment().links(m).contains(&dead),
            "{m} still routed over the dead link"
        );
    }
    let seg_of = |s: &Schedule| -> Vec<_> {
        s.segments()
            .iter()
            .filter(|seg| pinned.contains(&seg.message))
            .copied()
            .collect::<Vec<_>>()
    };
    assert_eq!(seg_of(&sched), seg_of(repaired));
    let omega_of = |ns: &NodeSchedule| -> Vec<Command> {
        ns.commands()
            .iter()
            .filter(|c| pinned.contains(&c.message))
            .copied()
            .collect()
    };
    for (old, new) in sched
        .node_schedules()
        .iter()
        .zip(&repaired.node_schedules())
    {
        assert_eq!(old.node(), new.node());
        assert_eq!(omega_of(old), omega_of(new), "Ω drifted on {}", old.node());
    }
}

/// A fault set that touches no scheduled path leaves the schedule untouched.
#[test]
fn unused_link_failure_is_unchanged() {
    let (topo, tfg, timing, sched) = dvb_on_torus4x4();
    let used: BTreeSet<_> = (0..tfg.num_messages())
        .map(MessageId)
        .flat_map(|m| sched.assignment().links(m))
        .collect();
    let spare = (0..topo.num_links())
        .map(sr::topology::LinkId)
        .find(|l| !used.contains(l))
        .expect("the 4x4 torus has idle links at load 0.5");

    let outcome = repair(
        &sched,
        &topo,
        &tfg,
        &timing,
        &FaultSet::new().fail_link(spare),
        &RepairConfig::default(),
    );
    assert_eq!(outcome.verdict, RepairVerdict::Unchanged);
    let same = outcome.schedule.expect("schedule retained");
    assert_eq!(same.segments(), sched.segments());
}

/// Failing a message's endpoint node is unrepairable when everything is
/// critical, and degrades (dropping that message's traffic) when nothing is.
#[test]
fn endpoint_failure_walks_the_degradation_ladder() {
    let (topo, tfg, timing, sched) = dvb_on_torus4x4();
    let victim = sched.assignment().path(MessageId(0)).source();
    let faults = FaultSet::new().fail_node(victim);

    let strict = repair(
        &sched,
        &topo,
        &tfg,
        &timing,
        &faults,
        &RepairConfig::default(),
    );
    assert_eq!(strict.verdict, RepairVerdict::Infeasible);
    assert!(strict.schedule.is_none());

    let lax = repair(
        &sched,
        &topo,
        &tfg,
        &timing,
        &faults,
        &RepairConfig {
            critical: Some(vec![false; tfg.num_messages()]),
            ..RepairConfig::default()
        },
    );
    assert_eq!(lax.verdict, RepairVerdict::Degraded);
    let degraded = lax.schedule.as_ref().expect("degraded schedule");
    verify_with_faults(degraded, &topo, &tfg, &faults).unwrap();
    assert!(!lax.dropped.is_empty());
    for &m in &lax.dropped {
        assert!(degraded.assignment().links(m).is_empty());
    }
}

/// Spare-capacity reservation (ε headroom) leaves room the repair can use:
/// the ε-compiled schedule keeps every per-link/per-interval load under the
/// tightened cap while still passing the standard verifier.
#[test]
fn spare_capacity_compile_supports_repair() {
    let topo = Torus::new(&[4, 4]).unwrap();
    let tfg = dvb_uniform(8);
    let timing = Timing::calibrated_dvb(128.0);
    let alloc = sr::mapping::random_distinct(&tfg, &topo, 7).unwrap();
    let period = timing.longest_task(&tfg) / 0.5;
    let sched = compile(
        &topo,
        &tfg,
        &alloc,
        &timing,
        period,
        &CompileConfig {
            spare_capacity: 0.1,
            ..CompileConfig::default()
        },
    )
    .expect("load 0.5 leaves 10% headroom");
    verify(&sched, &topo, &tfg).unwrap();
    assert!(sched.peak_utilization() <= 0.9 + 1e-6);

    let dead = sched.assignment().links(MessageId(0)).first().copied();
    if let Some(dead) = dead {
        let outcome = repair(
            &sched,
            &topo,
            &tfg,
            &timing,
            &FaultSet::new().fail_link(dead),
            &RepairConfig::default(),
        );
        assert!(
            matches!(
                outcome.verdict,
                RepairVerdict::Repaired | RepairVerdict::Unchanged
            ),
            "{:?}",
            outcome.verdict
        );
    }
}
