//! Property-based tests of the scheduled-routing compiler's internal
//! invariants, stage by stage.

use proptest::prelude::*;
use sr_core::{
    allocate_intervals, assign_paths, assign_paths_partial, assign_paths_partitioned,
    band_partition_topo, compile, related_subsets, schedule_intervals, ActivityMatrix, AllocEngine,
    AssignPathsConfig, CompileConfig, Intervals, PathAssignment, PathPool, UtilizationMap, EPS,
};
use sr_mapping::Allocation;
use sr_tfg::generators::{layered_random, LayeredParams};
use sr_tfg::{assign_time_bounds, MessageId, TaskFlowGraph, TimeBounds, Timing, WindowPolicy};
use sr_topology::{GeneralizedHypercube, Topology, Torus};

#[derive(Debug, Clone)]
struct Stage {
    tfg: TaskFlowGraph,
    alloc: Allocation,
    bounds: TimeBounds,
}

fn stage() -> impl Strategy<Value = (Stage, u64)> {
    (
        any::<u64>(),
        any::<u64>(),
        1.2f64..4.0,
        2usize..4,
        1usize..4,
    )
        .prop_filter_map(
            "period accommodates all messages",
            |(seed, alloc_seed, period_factor, layers, width)| {
                let topo = GeneralizedHypercube::binary(4).unwrap();
                let params = LayeredParams {
                    layers,
                    width,
                    edge_probability: 0.5,
                    ops: (500, 2000),
                    bytes: (64, 2048),
                };
                let tfg = layered_random(seed, &params);
                let timing = Timing::new(64.0, 20.0);
                let alloc = sr_mapping::random(&tfg, &topo, alloc_seed);
                let period = timing.longest_task(&tfg) * period_factor;
                let bounds =
                    assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).ok()?;
                Some((Stage { tfg, alloc, bounds }, seed))
            },
        )
}

fn cube() -> GeneralizedHypercube {
    GeneralizedHypercube::binary(4).unwrap()
}

/// The paper's three platform families at 64 and 16 nodes.
fn platform(which: usize) -> Box<dyn Topology> {
    match which % 3 {
        0 => Box::new(GeneralizedHypercube::binary(6).unwrap()),
        1 => Box::new(GeneralizedHypercube::new(&[4, 4, 4]).unwrap()),
        _ => Box::new(Torus::new(&[4, 4]).unwrap()),
    }
}

/// A random layered TFG randomly placed on one of the three platforms, at a
/// load between saturation and half of it, with loose or tight windows.
#[derive(Debug, Clone)]
struct Placed {
    which: usize,
    tfg: TaskFlowGraph,
    alloc: Allocation,
    bounds: TimeBounds,
}

fn placed(layers: usize, width: usize) -> impl Strategy<Value = Placed> {
    (
        any::<u64>(),
        any::<u64>(),
        0usize..6,
        1.0f64..2.0,
        2usize..=layers,
        2usize..=width,
    )
        .prop_map(|(seed, alloc_seed, which, period_factor, layers, width)| {
            let tight = which >= 3;
            let params = LayeredParams {
                layers,
                width,
                edge_probability: 0.6,
                ops: (500, 2000),
                bytes: (64, 4096),
            };
            let tfg = layered_random(seed, &params);
            let timing = Timing::new(64.0, 20.0);
            let alloc = sr_mapping::random(&tfg, platform(which).as_ref(), alloc_seed);
            let longest = timing.longest_task(&tfg).max(timing.longest_message(&tfg));
            let policy = if tight {
                WindowPolicy::Tight
            } else {
                WindowPolicy::LongestTask
            };
            let bounds = assign_time_bounds(&tfg, &timing, longest * period_factor, policy)
                .expect("the period covers the longest task and message");
            Placed {
                which,
                tfg,
                alloc,
                bounds,
            }
        })
}

/// Every third message or so, by a hash of its index and `salt`.
fn some_messages(n: usize, salt: u64, at_most: usize) -> Vec<MessageId> {
    (0..n)
        .filter(|&i| (i as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61 < 3)
        .take(at_most)
        .map(MessageId)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interval partitions tile the frame exactly and the activity matrix
    /// is consistent with the windows.
    #[test]
    fn intervals_tile_frame((s, _) in stage()) {
        let intervals = Intervals::from_bounds(&s.bounds);
        let total: f64 = (0..intervals.len()).map(|k| intervals.length(k)).sum();
        prop_assert!((total - s.bounds.period()).abs() < 1e-6);
        let activity = ActivityMatrix::new(&s.bounds, &intervals);
        for (i, w) in s.bounds.windows().iter().enumerate() {
            // Constraint (2): active time covers the duration.
            let at = activity.active_time(MessageId(i), &intervals);
            prop_assert!(at >= w.duration() - 1e-6,
                "message {i}: active {at} < duration {}", w.duration());
        }
    }

    /// AssignPaths returns valid shortest paths and never exceeds the
    /// baseline's effective peak.
    #[test]
    fn assign_paths_valid_and_no_worse((s, seed) in stage()) {
        let topo = cube();
        let intervals = Intervals::from_bounds(&s.bounds);
        let activity = ActivityMatrix::new(&s.bounds, &intervals);
        let out = assign_paths(
            &s.tfg, &topo, &s.alloc, &s.bounds, &intervals, &activity,
            &AssignPathsConfig { seed, max_restarts: 3, ..AssignPathsConfig::default() },
        );
        prop_assert!(out.utilization.effective_peak() <= out.baseline_peak + 1e-9);
        for (i, m) in s.tfg.messages().iter().enumerate() {
            let p = out.assignment.path(MessageId(i));
            prop_assert_eq!(p.source(), s.alloc.node_of(m.src()));
            prop_assert_eq!(p.destination(), s.alloc.node_of(m.dst()));
            prop_assert_eq!(
                p.hops(),
                topo.distance(p.source(), p.destination())
            );
            prop_assert!(p.validate(&topo));
        }
    }

    /// Related subsets partition the network-borne messages; messages in
    /// different subsets never share a link while co-active.
    #[test]
    fn subsets_partition_and_separate((s, _) in stage()) {
        let topo = cube();
        let intervals = Intervals::from_bounds(&s.bounds);
        let activity = ActivityMatrix::new(&s.bounds, &intervals);
        let pa = PathAssignment::lsd_to_msd(&s.tfg, &topo, &s.alloc);
        let subsets = related_subsets(&pa, &activity);

        // Partition: each network message appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for sub in &subsets {
            for &m in sub {
                prop_assert!(seen.insert(m), "duplicate {m}");
                prop_assert!(!pa.links(m).is_empty(), "local message in subset");
            }
        }
        let network_count = (0..s.tfg.num_messages())
            .filter(|&i| !pa.links(MessageId(i)).is_empty())
            .count();
        prop_assert_eq!(seen.len(), network_count);

        // Separation across subsets.
        for (a, sub_a) in subsets.iter().enumerate() {
            for sub_b in subsets.iter().skip(a + 1) {
                for &ma in sub_a {
                    for &mb in sub_b {
                        let share_link = pa.links(ma).iter().any(|l| pa.links(mb).contains(l));
                        let share_interval = activity
                            .active_intervals(ma)
                            .iter()
                            .any(|&k| activity.is_active(mb, k));
                        prop_assert!(!(share_link && share_interval),
                            "{ma} and {mb} related across subsets");
                    }
                }
            }
        }
    }

    /// Whenever message–interval allocation succeeds, constraints (3) and
    /// (4) hold; whenever interval scheduling then succeeds, the slices
    /// exactly realize the allocation without link conflicts.
    #[test]
    fn allocation_and_scheduling_consistent((s, seed) in stage()) {
        let topo = cube();
        let intervals = Intervals::from_bounds(&s.bounds);
        let activity = ActivityMatrix::new(&s.bounds, &intervals);
        let out = assign_paths(
            &s.tfg, &topo, &s.alloc, &s.bounds, &intervals, &activity,
            &AssignPathsConfig { seed, max_restarts: 2, ..AssignPathsConfig::default() },
        );
        let pa = out.assignment;
        let subsets = related_subsets(&pa, &activity);
        let Ok(allocation) =
            allocate_intervals(&pa, &s.bounds, &activity, &intervals, &subsets, 1.0)
        else { return Ok(()); };

        // (3): totals match durations; allocation only in active intervals.
        for sub in &subsets {
            for &m in sub {
                prop_assert!(
                    (allocation.total(m) - s.bounds.window(m).duration()).abs() < 1e-5
                );
                for k in 0..intervals.len() {
                    if allocation.allocated(m, k) > EPS {
                        prop_assert!(activity.is_active(m, k));
                    }
                }
            }
        }
        // (4): per-link per-interval demand within capacity.
        for l in 0..topo.num_links() {
            for k in 0..intervals.len() {
                let demand: f64 = (0..s.tfg.num_messages())
                    .filter(|&i| pa.uses(MessageId(i), sr_topology::LinkId(l)))
                    .map(|i| allocation.allocated(MessageId(i), k))
                    .sum();
                prop_assert!(demand <= intervals.length(k) + 1e-5);
            }
        }

        let Ok(scheds) = schedule_intervals(&pa, &allocation, &intervals, &subsets, 50_000)
        else { return Ok(()); };
        // Slices realize the allocation exactly.
        let mut realized = vec![vec![0.0; intervals.len()]; s.tfg.num_messages()];
        for is in &scheds {
            for slice in &is.slices {
                let (ks, ke) = intervals.bounds(is.interval);
                prop_assert!(slice.start >= ks - 1e-6 && slice.end() <= ke + 1e-5,
                    "slice leaves interval {}: [{}, {}] vs [{ks}, {ke}]",
                    is.interval, slice.start, slice.end());
                for &m in &slice.messages {
                    realized[m.index()][is.interval] += slice.duration;
                }
            }
        }
        #[allow(clippy::needless_range_loop)] // `i`/`k` are also the id values
        for i in 0..s.tfg.num_messages() {
            for k in 0..intervals.len() {
                prop_assert!(
                    (realized[i][k] - allocation.allocated(MessageId(i), k)).abs() < 1e-5,
                    "message {i} interval {k}: {} vs {}",
                    realized[i][k], allocation.allocated(MessageId(i), k)
                );
            }
        }
        // No two time-overlapping slices share a link.
        for is in &scheds {
            for (a, sa) in is.slices.iter().enumerate() {
                for sb in is.slices.iter().skip(a + 1) {
                    let overlap = sa.start.max(sb.start) < sa.end().min(sb.end()) - 1e-9;
                    if !overlap { continue; }
                    for &ma in &sa.messages {
                        for &mb in &sb.messages {
                            if ma == mb { continue; }
                            prop_assert!(
                                pa.links(ma).iter().all(|l| !pa.links(mb).contains(l)),
                                "overlapping slices share a link: {ma} vs {mb}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The parallel feedback search is bit-identical to the serial walk:
    /// the same (seed, capacity-scale) candidate wins, so success yields
    /// the same segments and utilization, and failure yields the same
    /// error, regardless of worker count.
    #[test]
    fn parallel_compile_matches_serial((s, _) in stage()) {
        let topo = cube();
        let timing = Timing::new(64.0, 20.0);
        let period = s.bounds.period();
        let serial = CompileConfig { parallelism: 1, ..CompileConfig::default() };
        let parallel = CompileConfig { parallelism: 4, ..serial.clone() };
        let a = compile(&topo, &s.tfg, &s.alloc, &timing, period, &serial);
        let b = compile(&topo, &s.tfg, &s.alloc, &timing, period, &parallel);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.capacity_scale().to_bits(), y.capacity_scale().to_bits());
                prop_assert_eq!(
                    x.peak_utilization().to_bits(),
                    y.peak_utilization().to_bits()
                );
                for i in 0..s.tfg.num_messages() {
                    let (pa, pb) = (x.assignment().path(MessageId(i)), y.assignment().path(MessageId(i)));
                    prop_assert_eq!(pa.nodes(), pb.nodes(), "message {} routed differently", i);
                }
                prop_assert_eq!(x.segments().len(), y.segments().len());
                for (sa, sb) in x.segments().iter().zip(y.segments()) {
                    prop_assert_eq!(sa.message, sb.message);
                    prop_assert_eq!(sa.start.to_bits(), sb.start.to_bits());
                    prop_assert_eq!(sa.end.to_bits(), sb.end.to_bits());
                }
            }
            (Err(ea), Err(eb)) => {
                prop_assert_eq!(format!("{ea}"), format!("{eb}"));
            }
            (Ok(_), Err(e)) => prop_assert!(false, "serial succeeded, parallel failed: {e}"),
            (Err(e), Ok(_)) => prop_assert!(false, "serial failed ({e}), parallel succeeded"),
        }
    }

    /// The min-cost-flow allocation engine is a drop-in replacement for the
    /// revised simplex: on random small instances both engines reach the
    /// same feasibility verdict, and when both compile, the flow schedule
    /// verifies and lands on the same capacity-ladder rung, path assignment,
    /// and peak utilization. (Interval splits — and hence Ω segments — may
    /// differ: the LP has many optimal vertices and each engine picks one.)
    #[test]
    fn flow_engine_matches_simplex_oracle((s, _) in stage()) {
        let topo = cube();
        let timing = Timing::new(64.0, 20.0);
        let period = s.bounds.period();
        let simplex_cfg = CompileConfig { parallelism: 1, ..CompileConfig::default() };
        let flow_cfg = CompileConfig { alloc_engine: AllocEngine::Flow, ..simplex_cfg.clone() };
        let a = compile(&topo, &s.tfg, &s.alloc, &timing, period, &simplex_cfg);
        let b = compile(&topo, &s.tfg, &s.alloc, &timing, period, &flow_cfg);
        match (a, b) {
            (Ok(simplex), Ok(flow)) => {
                prop_assert!(sr_core::verify(&simplex, &topo, &s.tfg).is_ok());
                prop_assert!(sr_core::verify(&flow, &topo, &s.tfg).is_ok());
                prop_assert_eq!(
                    simplex.capacity_scale().to_bits(),
                    flow.capacity_scale().to_bits()
                );
                prop_assert_eq!(simplex.assignment(), flow.assignment());
                prop_assert_eq!(
                    simplex.peak_utilization().to_bits(),
                    flow.peak_utilization().to_bits()
                );
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => prop_assert!(false, "simplex compiled, flow failed: {e}"),
            (Err(e), Ok(_)) => prop_assert!(false, "simplex failed ({e}), flow compiled"),
        }
    }

    /// The utilization map's aggregate bounds are internally consistent.
    #[test]
    fn utilization_bounds_consistent((s, _) in stage()) {
        let topo = cube();
        let intervals = Intervals::from_bounds(&s.bounds);
        let activity = ActivityMatrix::new(&s.bounds, &intervals);
        let pa = PathAssignment::lsd_to_msd(&s.tfg, &topo, &s.alloc);
        let u = UtilizationMap::compute(&pa, &s.bounds, &activity, &intervals, topo.num_links());
        prop_assert!(u.effective_peak() + 1e-12 >= u.peak());
        prop_assert!(u.hall_peak() >= 0.0);
        for l in 0..topo.num_links() {
            prop_assert!(u.link(sr_topology::LinkId(l)) <= u.peak() + 1e-9);
        }
        for &(_, _, count) in u.spots() {
            prop_assert!(count as f64 <= u.peak() + 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lower bound `AssignPaths` reports never exceeds the effective
    /// peak it ends at — flat, re-routing a subset, or partitioned — and
    /// the certified-climb counters stay within the climbs run.
    #[test]
    fn lower_bound_never_above_the_final_peak(p in placed(4, 4), salt in any::<u64>()) {
        let topo = platform(p.which);
        let topo = topo.as_ref();
        let intervals = Intervals::from_bounds(&p.bounds);
        let activity = ActivityMatrix::new(&p.bounds, &intervals);
        let cfg = AssignPathsConfig { seed: salt, max_restarts: 3, ..AssignPathsConfig::default() };

        let flat = assign_paths(&p.tfg, topo, &p.alloc, &p.bounds, &intervals, &activity, &cfg);
        let base = PathAssignment::lsd_to_msd(&p.tfg, topo, &p.alloc);
        let affected = some_messages(p.tfg.num_messages(), salt, usize::MAX);
        let partial = assign_paths_partial(
            topo, &p.bounds, &intervals, &activity, &base, &affected, &cfg,
        );
        let pool = PathPool::new(topo, cfg.path_cap);
        let parts = 2 + (salt % 3) as usize;
        let parted = assign_paths_partitioned(
            &p.tfg, topo, &p.alloc, &p.bounds, &intervals, &activity, &cfg, &pool,
            &band_partition_topo(topo, parts), 1,
        );
        for (what, out) in [("flat", &flat), ("partial", &partial), ("partitioned", &parted)] {
            let peak = out.utilization.effective_peak();
            prop_assert!(out.lower_bound <= peak + 1e-12,
                "{what}: bound {} above the final peak {peak}", out.lower_bound);
            prop_assert!(out.lower_bound >= 0.0);
            prop_assert!(out.certified_climbs <= out.climbs);
            prop_assert!(out.restarts + out.skipped_restarts <= out.climbs * cfg.max_restarts);
            prop_assert_eq!(out.overload.is_some(), out.lower_bound > 1.0 + EPS);
        }
        // The flat problem has the most freedom, so the loosest bound; the
        // partitioned call reports exactly that one.
        prop_assert_eq!(parted.lower_bound.to_bits(), flat.lower_bound.to_bits());
    }

    /// …nor the **optimum**: with at most six messages free to move among
    /// at most four routes each, every assignment can be enumerated.
    #[test]
    fn lower_bound_never_above_the_brute_force_optimum(
        p in placed(3, 4),
        salt in any::<u64>(),
        cap in 2usize..=4,
    ) {
        let topo = platform(p.which);
        let topo = topo.as_ref();
        let intervals = Intervals::from_bounds(&p.bounds);
        let activity = ActivityMatrix::new(&p.bounds, &intervals);
        let cfg = AssignPathsConfig { path_cap: cap, ..AssignPathsConfig::default() };
        let base = PathAssignment::lsd_to_msd(&p.tfg, topo, &p.alloc);
        let affected = some_messages(p.tfg.num_messages(), salt, 6);
        let out = assign_paths_partial(
            topo, &p.bounds, &intervals, &activity, &base, &affected, &cfg,
        );

        let routes: Vec<_> = affected
            .iter()
            .map(|&m| {
                let path = base.path(m);
                topo.shortest_paths(path.source(), path.destination(), cap)
            })
            .collect();
        let mut optimum = f64::INFINITY;
        let mut choice = vec![0usize; affected.len()];
        loop {
            let mut pa = base.clone();
            for ((&m, alts), &c) in affected.iter().zip(&routes).zip(&choice) {
                pa.set_path(m, alts[c].clone(), topo);
            }
            let peak = UtilizationMap::compute(
                &pa, &p.bounds, &activity, &intervals, topo.num_links(),
            )
            .effective_peak();
            optimum = optimum.min(peak);
            let Some(pos) = (0..choice.len()).find(|&i| choice[i] + 1 < routes[i].len()) else {
                break;
            };
            choice[pos] += 1;
            choice[..pos].fill(0);
        }
        prop_assert!(out.lower_bound <= optimum + 1e-12,
            "bound {} above the optimum {optimum}", out.lower_bound);
        prop_assert!(optimum <= out.utilization.effective_peak() + 1e-12);
    }
}
