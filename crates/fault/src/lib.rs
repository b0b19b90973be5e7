//! **Fault injection and incremental schedule repair** for scheduled
//! routing.
//!
//! A compiled communication schedule `Ω` is contention-free only while the
//! switching schedules match the physical network: one dead link silently
//! breaks the clear-path guarantee of every message routed across it. This
//! crate adds the runtime-robustness layer on top of `sr-core`:
//!
//! * **Fault model** — a [`FaultSet`] names failed links and nodes; a
//!   [`MaskedTopology`] (both re-exported from `sr-topology`) presents the
//!   surviving network in the *original* dense id space, so schedule
//!   artifacts stay indexable.
//! * **Damage analysis** — [`sr_core::analyze_damage`] partitions the
//!   schedule's messages into unaffected / affected / lost.
//! * **Incremental repair** — [`repair`] re-routes only the affected
//!   messages over the masked topology ([`sr_core::assign_paths_partial`]),
//!   re-derives only their allocation rows with every unaffected row pinned
//!   bit-identically ([`sr_core::allocate_intervals_pinned_reserved`]), and packs
//!   the re-routed traffic into the links' remaining idle time without
//!   moving a single retained slice. The result passes
//!   [`sr_core::verify_with_faults`].
//! * **Degradation ladder** — full repair first; if that fails, non-critical
//!   messages ([`RepairConfig::critical`]) are demoted to best-effort
//!   grants ([`sr_core::admit_best_effort`]) and the critical rest is
//!   repaired; if even that fails the outcome is
//!   [`RepairVerdict::Infeasible`].
//! * **Fault sweeps** — [`sweep_link_failures`] measures repair feasibility
//!   across random fault draws of growing size (the CLI's `faults --sweep`).
//!
//! Compile with [`sr_core::CompileConfig::spare_capacity`] `ε > 0` to hold
//! back link headroom at first compile and make repairs more likely to
//! succeed.
//!
//! # Examples
//!
//! ```
//! use sr_fault::{repair, FaultSet, RepairConfig, RepairVerdict};
//! use sr_core::{compile, verify_with_faults, CompileConfig};
//! use sr_tfg::{generators, Timing};
//! use sr_topology::GeneralizedHypercube;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = GeneralizedHypercube::binary(3)?;
//! let tfg = generators::diamond(3, 500, 1280);
//! let timing = Timing::new(64.0, 10.0);
//! let alloc = sr_mapping::greedy(&tfg, &topo);
//! let sched = compile(&topo, &tfg, &alloc, &timing, 75.0, &CompileConfig::default())?;
//!
//! // A link under some scheduled path dies.
//! let dead = sched.assignment().links(sched.segments()[0].message)[0];
//! let faults = FaultSet::new().fail_link(dead);
//!
//! let outcome = repair(&sched, &topo, &tfg, &timing, &faults, &RepairConfig::default());
//! if let Some(repaired) = &outcome.schedule {
//!     verify_with_faults(repaired, &topo, &tfg, &faults)?;
//!     assert!(matches!(
//!         outcome.verdict,
//!         RepairVerdict::Repaired | RepairVerdict::Degraded
//!     ));
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod repair;
mod sweep;

pub use repair::{
    repair, repair_diagnosed, repair_with_recorder, RepairConfig, RepairDiagnosis, RepairOutcome,
    RepairStep, RepairStepOutcome, RepairVerdict,
};
pub use sweep::{sweep_link_failures, SweepConfig, SweepPoint};

pub use sr_topology::{FaultSet, MaskedTopology};
