//! Idle-capacity analysis and **best-effort admission** — the paper's §7
//! asks how scheduled routing should handle traffic that is *not* known at
//! compile time. The answer implemented here: a compiled schedule `Ω`
//! leaves every link's busy intervals fully determined, so aperiodic
//! best-effort messages can be admitted online into provably idle windows
//! without perturbing a single scheduled transmission.

use std::collections::BTreeMap;

use sr_tfg::Timing;
use sr_topology::{LinkId, NodeId, Path, Topology};

use crate::{cmp_span, coalesce, intersect, Schedule, EPS};

/// A clear-path reservation granted to a best-effort message: during
/// `[start, start + duration]` every link of `path` is idle in the compiled
/// schedule (guard margins included), so the transfer cannot collide with
/// real-time traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct BestEffortGrant {
    /// The route the message should take.
    pub path: Path,
    /// Transmission start within the period frame, µs.
    pub start: f64,
    /// Transmission time, µs.
    pub duration: f64,
}

impl BestEffortGrant {
    /// End of the reservation, µs.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

impl Schedule {
    /// Every link's busy row within one period frame, in one pass over the
    /// segments: each segment's `[start, end]` on every link of its
    /// message's path (the paper's circuit model — a slice occupies all
    /// links of the path simultaneously), sorted by [`cmp_span`] and
    /// merged by [`coalesce`]. Links that carry nothing have no row.
    pub fn busy_spans(&self) -> BTreeMap<LinkId, Vec<(f64, f64)>> {
        let mut out: BTreeMap<LinkId, Vec<(f64, f64)>> = BTreeMap::new();
        for seg in &self.segments {
            for &l in self.assignment.links(seg.message) {
                out.entry(l).or_default().push((seg.start, seg.end));
            }
        }
        for spans in out.values_mut() {
            spans.sort_by(cmp_span);
            coalesce(spans);
        }
        out
    }
}

/// The idle windows a busy row leaves in the frame `[0, period]`, with
/// `guard` shaved off both ends of every window (a best-effort transfer
/// needs the same switching margin as scheduled traffic).
fn idle_windows(busy: &[(f64, f64)], period: f64, guard: f64) -> Vec<(f64, f64)> {
    let mut windows = Vec::new();
    let mut cursor = 0.0;
    for &(s, e) in busy {
        if s - cursor > EPS {
            windows.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if period - cursor > EPS {
        windows.push((cursor, period));
    }
    windows
        .into_iter()
        .filter_map(|(s, e)| {
            let s = s + guard;
            let e = e - guard;
            (e - s > EPS).then_some((s, e))
        })
        .collect()
}

/// Admits an aperiodic best-effort message of `bytes` from `src` to `dst`
/// into the idle capacity of a compiled schedule.
///
/// Considers up to `path_cap` shortest paths; for each, intersects the idle
/// windows of every hop and takes the earliest window long enough for the
/// transfer. Returns the grant with the earliest start over all candidate
/// paths, or `None` when no path has a wide-enough simultaneous idle
/// window this frame.
///
/// Co-located endpoints are granted a trivial instant reservation.
///
/// # Panics
///
/// Panics if `src` or `dst` is out of range for `topo`.
pub fn admit_best_effort(
    schedule: &Schedule,
    topo: &dyn Topology,
    timing: &Timing,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    path_cap: usize,
) -> Option<BestEffortGrant> {
    let duration = timing.tx_time_bytes(bytes);
    if src == dst {
        return Some(BestEffortGrant {
            path: Path::trivial(src),
            start: 0.0,
            duration: 0.0,
        });
    }
    let busy = schedule.busy_spans();
    let (period, guard) = (schedule.period(), schedule.guard_time());
    let mut best: Option<BestEffortGrant> = None;
    for path in topo.shortest_paths(src, dst, path_cap.max(1)) {
        let links = path.links(topo);
        let mut free = vec![(0.0, period)];
        for l in &links {
            let row = busy.get(l).map_or(&[][..], Vec::as_slice);
            free = intersect(&free, &idle_windows(row, period, guard));
            if free.is_empty() {
                break;
            }
        }
        if let Some(&(s, _)) = free.iter().find(|&&(s, e)| e - s + EPS >= duration) {
            if best.as_ref().is_none_or(|g| s < g.start - EPS) {
                best = Some(BestEffortGrant {
                    path,
                    start: s,
                    duration,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileConfig};
    use sr_tfg::{generators, Timing};
    use sr_topology::GeneralizedHypercube;

    fn compiled() -> (
        GeneralizedHypercube,
        sr_tfg::TaskFlowGraph,
        Timing,
        Schedule,
    ) {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 500, 1280); // tx 20 µs each
        let timing = Timing::new(64.0, 10.0); // exec 50
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let sched = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .expect("compiles");
        (topo, tfg, timing, sched)
    }

    #[test]
    fn busy_and_idle_partition_the_frame() {
        let (topo, _, _, sched) = compiled();
        let rows = sched.busy_spans();
        for l in 0..sr_topology::Topology::num_links(&topo) {
            let link = LinkId(l);
            let row = rows.get(&link).map_or(&[][..], Vec::as_slice);
            let busy: f64 = row.iter().map(|(s, e)| e - s).sum();
            let idle: f64 = idle_windows(row, sched.period(), sched.guard_time())
                .iter()
                .map(|(s, e)| e - s)
                .sum();
            assert!(
                (busy + idle - sched.period()).abs() < 1e-6,
                "link {link}: busy {busy} + idle {idle} != {}",
                sched.period()
            );
        }
    }

    #[test]
    fn unused_link_is_fully_idle() {
        let (topo, _, _, sched) = compiled();
        let rows = sched.busy_spans();
        // Find a link carrying no scheduled message.
        let unused = (0..sr_topology::Topology::num_links(&topo))
            .map(LinkId)
            .find(|l| !rows.contains_key(l))
            .expect("3-cube has spare links for a 2-message chain");
        let row = rows.get(&unused).map_or(&[][..], Vec::as_slice);
        let idle = idle_windows(row, sched.period(), sched.guard_time());
        assert_eq!(idle, vec![(0.0, 100.0)]);
    }

    #[test]
    fn grant_avoids_scheduled_traffic() {
        let (topo, _, timing, sched) = compiled();
        let grant = admit_best_effort(
            &sched,
            &topo,
            &timing,
            NodeId(0),
            NodeId(7),
            640, // 10 µs
            16,
        )
        .expect("idle capacity exists");
        assert!(grant.path.validate(&topo));
        assert_eq!(grant.path.source(), NodeId(0));
        assert_eq!(grant.path.destination(), NodeId(7));
        assert!((grant.end() - grant.duration - grant.start).abs() < 1e-12);
        // The granted span must lie inside every hop's idle windows.
        let rows = sched.busy_spans();
        for l in grant.path.links(&topo) {
            let row = rows.get(&l).map_or(&[][..], Vec::as_slice);
            let ok = idle_windows(row, sched.period(), sched.guard_time())
                .iter()
                .any(|&(s, e)| grant.start >= s - 1e-9 && grant.end() <= e + 1e-9);
            assert!(
                ok,
                "grant [{}, {}] collides on {l}",
                grant.start,
                grant.end()
            );
        }
    }

    #[test]
    fn oversized_request_is_refused() {
        let (topo, _, timing, sched) = compiled();
        // Longer than the whole frame: impossible.
        let grant = admit_best_effort(
            &sched,
            &topo,
            &timing,
            NodeId(0),
            NodeId(7),
            64 * 101, // 101 µs > 100 µs frame
            16,
        );
        assert!(grant.is_none());
    }

    #[test]
    fn colocated_request_is_trivial() {
        let (topo, _, timing, sched) = compiled();
        let grant =
            admit_best_effort(&sched, &topo, &timing, NodeId(3), NodeId(3), 9999, 4).unwrap();
        assert_eq!(grant.path.hops(), 0);
        assert_eq!(grant.duration, 0.0);
    }

    #[test]
    fn intersect_spans() {
        let a = [(0.0, 10.0), (20.0, 30.0)];
        let b = [(5.0, 25.0)];
        assert_eq!(intersect(&a, &b), vec![(5.0, 10.0), (20.0, 25.0)]);
        assert!(intersect(&a, &[]).is_empty());
    }

    #[test]
    fn guarded_schedule_shrinks_idle_windows() {
        let topo = GeneralizedHypercube::binary(3).unwrap();
        let tfg = generators::chain(3, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let plain = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig::default(),
        )
        .unwrap();
        let guarded = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            100.0,
            &CompileConfig {
                guard_time: 3.0,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        // Pick a used link and compare idle totals.
        let used = *plain.busy_spans().keys().next().unwrap();
        let idle = |s: &Schedule, l: LinkId| -> f64 {
            let row = s.busy_spans().get(&l).cloned().unwrap_or_default();
            idle_windows(&row, s.period(), s.guard_time())
                .iter()
                .map(|(a, b)| b - a)
                .sum()
        };
        assert!(idle(&guarded, used) < idle(&plain, used) + 1e-9);
    }
}
