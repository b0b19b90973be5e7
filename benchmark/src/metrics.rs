//! The benchmark's names: workloads, end-to-end metrics with their regression
//! bounds, and per-layer metrics. `BENCHMARK.json` at the root of the repo is
//! a checked-in copy of `sysbench --manifest`; `--all` (and so `--smoke`)
//! fails when the two differ, because the driver reads the file and
//! `--compare` these tables.

use crate::util::{json_num, json_str};
use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scale64",
        why: "3,072-message DVB farm on the 64x64 torus, partitioned flow compile + verify: the hill-climb is ~93% of the work and related_subsets ~5%, LP and interval scheduling almost none",
    },
    Workload {
        name: "paper64",
        why: "the paper's 108-point sweep (6-cube, GHC, tori) under 3 translated placements, flat simplex compile + verify, plus the wormhole baseline: hill-climb, LP and feedback walk share the time",
    },
    Workload {
        name: "repair64",
        why: "repair + verify_with_faults of compiled schedules under 1-3 failed links: damage analysis, partial re-route, pinned re-allocation and packing; the compile path does none of it",
    },
    Workload {
        name: "serve_chain",
        why: "srsched serve over its real socket, 24 two-task tenants on 8x8: tiny specs and ledger, so framing, JSON, protocol, publish and journal are most of an admission",
    },
    Workload {
        name: "serve_farm",
        why: "same daemon on 32x32 with 32 resident DVB pipelines: the weight moves into the engine (standalone compile, ladder, ledger rebuild, paranoid install)",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these (the contract the driver runs
/// the benchmark under allows no per-workload metric sets).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    // Deterministic, and the same for every seed, on every workload. The
    // bound is below one op of any workload's round (1 of repair64's 1,539 is
    // 0.0007), so any lost schedule reads `worse`; it is not 0 so that a
    // spread of exactly 0 is strictly inside it.
    EndToEnd {
        name: "feasible_share",
        unit: "ratio",
        better: "higher",
        bound: 0.0001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

/// (name, unit, better). A layer that does no work on a workload reports 0
/// there.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    ("tfg.time_bounds_ms", "ms", "lower"),
    ("core.intervals_ms", "ms", "lower"),
    ("topology.shortest_paths_ms", "ms", "lower"),
    ("core.assign_paths_ms", "ms", "lower"),
    ("core.assign_paths.restarts", "count", "lower"),
    ("core.assign_paths.pool_hits", "count", "higher"),
    ("core.assign_paths.pool_misses", "count", "lower"),
    ("core.assign_paths.baseline_peak_util", "ratio", "lower"),
    ("core.assign_paths.peak_util", "ratio", "lower"),
    ("core.subsets_ms", "ms", "lower"),
    ("core.allocation_ms", "ms", "lower"),
    ("core.allocation.subsets", "count", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.warm_hits", "count", "higher"),
    ("core.allocation_flow.dijkstra_pops", "count", "lower"),
    ("core.allocation_flow.augmentations", "count", "lower"),
    ("core.allocation_flow.fallbacks", "count", "lower"),
    ("core.interval_sched_ms", "ms", "lower"),
    ("core.interval_sched.feasible_sets", "count", "lower"),
    ("core.interval_sched.slices", "count", "lower"),
    ("core.switching_ms", "ms", "lower"),
    ("core.switching.commands", "count", "lower"),
    ("core.verify_ms", "ms", "lower"),
    ("core.compile_ms", "ms", "lower"),
    ("core.compile.candidates_walked", "count", "lower"),
    ("core.compile.wasted_candidate_share", "ratio", "lower"),
    ("core.compile.unattributed_share", "ratio", "lower"),
    ("wormhole.run_ms", "ms", "lower"),
    ("wormhole.events", "count", "higher"),
    ("wormhole.events_per_s", "1/s", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("topology.masked_build_ms", "ms", "lower"),
    ("fault.damage_ms", "ms", "lower"),
    ("fault.repair_ms", "ms", "lower"),
    ("fault.verify_ms", "ms", "lower"),
    ("fault.rerouted_msgs", "count", "lower"),
    ("fault.verdict.unchanged", "count", "higher"),
    ("fault.verdict.repaired", "count", "higher"),
    ("fault.verdict.degraded", "count", "lower"),
    ("fault.verdict.infeasible", "count", "lower"),
    ("fault.recompile_ms", "ms", "lower"),
    ("fault.repair_speedup", "ratio", "higher"),
    ("serve.json.parse_us", "us", "lower"),
    ("serve.protocol.parse_request_us", "us", "lower"),
    ("serve.engine.admit_us.replay", "us", "lower"),
    ("serve.engine.admit_us.fast", "us", "lower"),
    ("serve.engine.admit_us.adapted", "us", "lower"),
    ("serve.engine.admit_us.rerouted", "us", "lower"),
    ("serve.engine.admit_us.reject", "us", "lower"),
    ("serve.engine.evict_us", "us", "lower"),
    ("serve.engine.compile_standalone_us", "us", "lower"),
    ("serve.engine.ledger_us", "us", "lower"),
    ("serve.engine.ledger_spans", "count", "lower"),
    ("serve.engine.check_invariants_us", "us", "lower"),
    ("serve.daemon.handle_frame_us.admit", "us", "lower"),
    ("serve.daemon.handle_frame_us.evict", "us", "lower"),
    ("serve.daemon.handle_frame_us.query", "us", "lower"),
    ("serve.daemon.handle_frame_us.list", "us", "lower"),
    ("serve.daemon.handle_frame_us.stats", "us", "lower"),
    ("serve.audit.journal_us", "us", "lower"),
    ("serve.audit.bytes_per_op", "count", "lower"),
    ("serve.http.publish_us", "us", "lower"),
    ("serve.http.scrape_ms", "ms", "lower"),
    ("serve.transport_us", "us", "lower"),
    ("serve.rung.replay", "count", "higher"),
    ("serve.rung.fast", "count", "higher"),
    ("serve.rung.adapted", "count", "higher"),
    ("serve.rung.rerouted", "count", "higher"),
    ("serve.rung.reject", "count", "lower"),
    ("serve.admit.memo_hit_share", "ratio", "higher"),
];

/// Per-layer values of one traced run; starts with every name at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        *slot = value;
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let current = self.get(name);
        self.set(name, current + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"))
    }
}

/// (unit, direction) of a metric of either kind.
pub fn describe(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better))
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| (m.1, m.2)))
        .unwrap_or_else(|| panic!("{name} is not a registered metric"))
}

/// `BENCHMARK.json`.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_num(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(name),
                json_str(unit),
                json_str(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
