//! Aggregate statistics of a compiled schedule — the numbers a deployment
//! report or regression dashboard wants at a glance.

use sr_topology::LinkId;

use crate::switching::Omega;
use crate::Schedule;

/// One-struct summary of a compiled schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSummary {
    /// Invocation period `τ_in`, µs.
    pub period: f64,
    /// Compile-time latency bound, µs.
    pub latency: f64,
    /// Peak (effective) utilization of the final path assignment.
    pub peak_utilization: f64,
    /// Number of transmission segments in one frame.
    pub segments: usize,
    /// Number of crossbar commands across all nodes.
    pub commands: usize,
    /// Nodes whose CP actually switches (non-idle).
    pub active_nodes: usize,
    /// Links that carry at least one message.
    pub busy_links: usize,
    /// The busiest link and its busy fraction of the frame.
    pub busiest_link: Option<(LinkId, f64)>,
    /// Mean busy fraction over links that carry traffic (0 when none do).
    pub mean_busy_fraction: f64,
    /// Largest number of segments any single message was split into.
    pub max_preemptions: usize,
}

impl Schedule {
    /// Computes the summary; a link counts as busy when its row in
    /// [`Schedule::busy_spans`] covers a positive time.
    pub fn summary(&self) -> ScheduleSummary {
        let omega = Omega::derive(&self.segments, &self.assignment, self.num_nodes);
        let sizes = (0..self.num_nodes).map(|n| omega.commands(n).len());
        let commands = sizes.clone().sum();
        let active_nodes = sizes.filter(|&len| len > 0).count();

        let mut busiest: Option<(LinkId, f64)> = None;
        let mut busy_links = 0;
        let mut busy_total = 0.0;
        for (link, row) in self.busy_spans() {
            let busy: f64 = row.iter().map(|(a, b)| b - a).sum();
            if busy <= 0.0 {
                continue;
            }
            busy_links += 1;
            let fraction = busy / self.period();
            busy_total += fraction;
            if busiest.is_none_or(|(_, f)| fraction > f) {
                busiest = Some((link, fraction));
            }
        }

        let mut per_message = std::collections::HashMap::new();
        for seg in self.segments() {
            *per_message.entry(seg.message).or_insert(0usize) += 1;
        }
        let max_preemptions = per_message.values().copied().max().unwrap_or(0);

        ScheduleSummary {
            period: self.period(),
            latency: self.latency(),
            peak_utilization: self.peak_utilization(),
            segments: self.segments().len(),
            commands,
            active_nodes,
            busy_links,
            busiest_link: busiest,
            mean_busy_fraction: if busy_links > 0 {
                busy_total / busy_links as f64
            } else {
                0.0
            },
            max_preemptions,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile, CompileConfig};
    use sr_tfg::{generators, Timing};
    use sr_topology::GeneralizedHypercube;

    #[test]
    fn summary_is_internally_consistent() {
        let topo = GeneralizedHypercube::binary(4).unwrap();
        let tfg = generators::diamond(4, 500, 1280);
        let timing = Timing::new(64.0, 10.0);
        let alloc = sr_mapping::greedy(&tfg, &topo);
        let s = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            80.0,
            &CompileConfig::default(),
        )
        .expect("compiles");
        let sum = s.summary();

        assert_eq!(sum.period, 80.0);
        assert_eq!(sum.segments, s.segments().len());
        assert!(
            sum.commands >= sum.segments,
            "every segment needs ≥1 command"
        );
        assert!(sum.active_nodes >= 2, "at least source and sink CPs switch");
        assert!(sum.busy_links >= 1);
        let (busiest, frac) = sum.busiest_link.expect("network traffic exists");
        assert!((0.0..=1.0 + 1e-9).contains(&frac));
        assert!(frac >= sum.mean_busy_fraction - 1e-12);
        assert!(!s.busy_spans()[&busiest].is_empty());
        assert!(sum.max_preemptions >= 1);
    }

    #[test]
    fn local_only_workload_has_empty_network_summary() {
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let tfg = generators::chain(2, 100, 64);
        let timing = Timing::new(64.0, 10.0);
        // Both tasks on one node; the single message never enters the net…
        // but AP capacity must still fit: 2 × 10 µs per 25 µs period.
        let alloc =
            sr_mapping::Allocation::new(vec![sr_topology::NodeId(1); 2], &tfg, &topo).unwrap();
        let s = compile(
            &topo,
            &tfg,
            &alloc,
            &timing,
            25.0,
            &CompileConfig::default(),
        )
        .expect("local-only compiles");
        let sum = s.summary();
        assert_eq!(sum.segments, 0);
        assert_eq!(sum.busy_links, 0);
        assert_eq!(sum.busiest_link, None);
        assert_eq!(sum.mean_busy_fraction, 0.0);
        assert_eq!(sum.max_preemptions, 0);
    }
}
