use sr_tfg::MessageId;
use sr_topology::LinkId;

use crate::{ActivityMatrix, PathAssignment};

/// Partitions the network-borne messages into **maximal related subsets**
/// (paper Defs. 5.3/5.4).
///
/// Two messages are *related* when they share a link **and** are active in a
/// common interval (directly, or transitively through other messages). The
/// relation's transitive closure partitions `S_M`; message–interval
/// allocation and interval scheduling are then solved independently per
/// subset, which keeps the LPs small.
///
/// Messages with a trivial path (co-located endpoints) never use the network
/// and are omitted entirely.
///
/// The returned subsets are each sorted ascending and ordered by their
/// smallest member.
pub fn related_subsets(
    assignment: &PathAssignment,
    activity: &ActivityMatrix,
) -> Vec<Vec<MessageId>> {
    let n = assignment.len();
    let mut parent: Vec<usize> = (0..n).collect();

    // Two messages are directly related exactly when some (link, interval)
    // bucket holds both, so chaining each bucket's members together yields
    // the same connected components as testing every pair — and the
    // min-root union below makes the output a function of the components
    // alone. Buckets are walked link by link: `last[k]` is the previous
    // message on the current link that is active in interval `k`.
    let mut on_link: Vec<(LinkId, usize)> = (0..n)
        .flat_map(|i| assignment.links(MessageId(i)).iter().map(move |&l| (l, i)))
        .collect();
    on_link.sort_unstable();
    let mut last: Vec<Option<(LinkId, usize)>> = vec![None; activity.num_intervals()];
    for &(l, i) in &on_link {
        for (k, slot) in last.iter_mut().enumerate() {
            if !activity.is_active(MessageId(i), k) {
                continue;
            }
            if let Some((_, j)) = slot.filter(|&(link, _)| link == l) {
                union(&mut parent, i, j);
            }
            *slot = Some((l, i));
        }
    }

    collect_groups(assignment, &mut parent)
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Merges the sets of `i` and `j`, the smaller root winning — so a set's
/// root is always its smallest member, whatever order unions arrive in.
fn union(parent: &mut [usize], i: usize, j: usize) {
    let (ri, rj) = (find(parent, i), find(parent, j));
    if ri != rj {
        parent[ri.max(rj)] = ri.min(rj);
    }
}

/// The network-borne messages grouped by root: each group ascending, groups
/// ordered by their smallest member.
fn collect_groups(assignment: &PathAssignment, parent: &mut [usize]) -> Vec<Vec<MessageId>> {
    let mut groups: std::collections::BTreeMap<usize, Vec<MessageId>> =
        std::collections::BTreeMap::new();
    for i in 0..assignment.len() {
        if assignment.links(MessageId(i)).is_empty() {
            continue;
        }
        let r = find(parent, i);
        groups.entry(r).or_default().push(MessageId(i));
    }
    groups.into_values().collect()
}

/// The all-pairs formulation [`related_subsets`] replaced, kept as its
/// oracle: test every pair of network-borne messages for a shared link and
/// a shared active interval.
#[cfg(test)]
fn related_subsets_all_pairs(
    assignment: &PathAssignment,
    activity: &ActivityMatrix,
) -> Vec<Vec<MessageId>> {
    let n = assignment.len();
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        if assignment.links(MessageId(i)).is_empty() {
            continue;
        }
        for j in (i + 1)..n {
            if assignment.links(MessageId(j)).is_empty() {
                continue;
            }
            let share_link = assignment
                .links(MessageId(i))
                .iter()
                .any(|l| assignment.links(MessageId(j)).contains(l));
            if !share_link {
                continue;
            }
            let share_interval = activity
                .active_intervals(MessageId(i))
                .iter()
                .any(|&k| activity.is_active(MessageId(j), k));
            if share_interval {
                union(&mut parent, i, j);
            }
        }
    }
    collect_groups(assignment, &mut parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Intervals;
    use sr_mapping::Allocation;
    use sr_tfg::{assign_time_bounds, TfgBuilder, Timing, WindowPolicy};
    use sr_topology::{GeneralizedHypercube, NodeId};

    /// Four messages: two sharing a link & time, one sharing a link but not
    /// time, one local.
    #[test]
    fn partition_respects_link_and_time_sharing() {
        let topo = GeneralizedHypercube::binary(1).unwrap(); // one link
        let mut b = TfgBuilder::new();
        let t0 = b.task("t0", 100); // exec 10
        let t1 = b.task("t1", 100);
        let t2 = b.task("t2", 100);
        let t3 = b.task("t3", 100);
        // m0: t0->t1 crosses the link, released at 10.
        b.message("m0", t0, t1, 64).unwrap();
        // m1: t0->t2 (t2 co-located with t1 on N1) also crosses, same time.
        let _ = t2;
        b.message("m1", t0, t2, 64).unwrap();
        // m2: t1->t3 crosses back much later (separate interval).
        b.message("m2", t1, t3, 64).unwrap();
        // m3: local on N0.
        b.message("m3", t0, t3, 64).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0); // exec 10, tx 1
        let alloc = Allocation::new(
            vec![NodeId(0), NodeId(1), NodeId(1), NodeId(0)],
            &tfg,
            &topo,
        )
        .unwrap();
        // Tight windows keep the early and late messages in disjoint
        // intervals.
        let bounds = assign_time_bounds(&tfg, &timing, 40.0, WindowPolicy::Tight).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let pa = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);

        let subsets = related_subsets(&pa, &activity);
        // m3 is local -> excluded. m0 & m1 share link+interval -> together.
        // m2 shares the link but no interval -> alone.
        assert_eq!(subsets.len(), 2);
        assert_eq!(subsets[0], vec![MessageId(0), MessageId(1)]);
        assert_eq!(subsets[1], vec![MessageId(2)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Bucketed and all-pairs partitions agree — order included — on
        /// random layered graphs whose tasks may share nodes (trivial
        /// paths) and whose messages take random shortest paths.
        #[test]
        fn bucketed_subsets_match_all_pairs(
            seed in proptest::prelude::any::<u64>(),
            period_factor in 1.2f64..4.0,
            tight in proptest::prelude::any::<bool>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            use sr_topology::Topology;

            let topo = GeneralizedHypercube::binary(4).unwrap();
            let params = sr_tfg::generators::LayeredParams {
                layers: 4,
                width: 5,
                edge_probability: 0.5,
                ops: (500, 2000),
                bytes: (64, 2048),
            };
            let tfg = sr_tfg::generators::layered_random(seed, &params);
            let timing = Timing::new(64.0, 20.0);
            let alloc = sr_mapping::random(&tfg, &topo, seed ^ 0x5eed);
            let period = timing.longest_task(&tfg) * period_factor;
            let policy = if tight { WindowPolicy::Tight } else { WindowPolicy::LongestTask };
            let Ok(bounds) = assign_time_bounds(&tfg, &timing, period, policy) else {
                return Ok(());
            };
            let intervals = Intervals::from_bounds(&bounds);
            let activity = ActivityMatrix::new(&bounds, &intervals);
            let mut rng = StdRng::seed_from_u64(seed);
            let paths = tfg
                .messages()
                .iter()
                .map(|m| {
                    let alts =
                        topo.shortest_paths(alloc.node_of(m.src()), alloc.node_of(m.dst()), 8);
                    alts[rng.gen_range(0..alts.len())].clone()
                })
                .collect();
            let pa = PathAssignment::new(paths, &topo);
            proptest::prop_assert_eq!(
                related_subsets(&pa, &activity),
                related_subsets_all_pairs(&pa, &activity)
            );
        }
    }

    #[test]
    fn disjoint_links_are_separate() {
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let mut b = TfgBuilder::new();
        let a = b.task("a", 100);
        let c = b.task("c", 100);
        let d = b.task("d", 100);
        let e = b.task("e", 100);
        b.message("m0", a, c, 64).unwrap();
        b.message("m1", d, e, 64).unwrap();
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        // a->c on link 0-1; d->e on link 2-3: disjoint.
        let alloc = Allocation::new(
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            &tfg,
            &topo,
        )
        .unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 10.0, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let pa = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        let subsets = related_subsets(&pa, &activity);
        assert_eq!(subsets.len(), 2);
        assert_eq!(subsets[0], vec![MessageId(0)]);
        assert_eq!(subsets[1], vec![MessageId(1)]);
    }

    #[test]
    fn transitivity_merges_chains() {
        // m0 shares a link with m1, m1 with m2, but m0 and m2 are disjoint:
        // all three must land in one subset.
        let topo = GeneralizedHypercube::binary(2).unwrap();
        let mut b = TfgBuilder::new();
        let n0 = b.task("n0", 100);
        let n1 = b.task("n1", 100);
        let n3 = b.task("n3", 100);
        let n1b = b.task("n1b", 100);
        b.message("m0", n0, n1, 64).unwrap(); // link 0-1
        b.message("m1", n0, n3, 64).unwrap(); // links 0-1, 1-3 (dim order)
        b.message("m2", n1b, n3, 64).unwrap(); // link 1-3
        let tfg = b.build().unwrap();
        let timing = Timing::new(64.0, 10.0);
        let alloc = Allocation::new(
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(1)],
            &tfg,
            &topo,
        )
        .unwrap();
        let bounds = assign_time_bounds(&tfg, &timing, 10.0, WindowPolicy::LongestTask).unwrap();
        let intervals = Intervals::from_bounds(&bounds);
        let activity = ActivityMatrix::new(&bounds, &intervals);
        let pa = PathAssignment::lsd_to_msd(&tfg, &topo, &alloc);
        // All tasks complete at 10; all windows cover the whole frame.
        let subsets = related_subsets(&pa, &activity);
        assert_eq!(subsets.len(), 1);
        assert_eq!(subsets[0], vec![MessageId(0), MessageId(1), MessageId(2)]);
    }
}
