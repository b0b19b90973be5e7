//! Workloads the crate's unit tests share.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sr_mapping::Allocation;
use sr_tfg::{assign_time_bounds, TaskFlowGraph, TimeBounds, Timing, WindowPolicy};
use sr_topology::{NodeId, Torus};

/// The `figures scale` workload at 16×16: eight DVB pipelines, one per
/// 4-row × 8-column slot, all placed by the same pattern (drawn from
/// `seed`) — so every tile repeats the same link loads and the peak is tied
/// across the tiles.
pub(crate) fn tiled_farm_16x16(seed: u64) -> (Torus, TaskFlowGraph, Allocation, TimeBounds) {
    let n = 16;
    let topo = Torus::new(&[n, n]).unwrap();
    let tfg = sr_tfg::dvb_tiled(8, 10);
    let per_tile = tfg.num_tasks() / 8;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<(usize, usize)> = (0..4).flat_map(|r| (0..8).map(move |c| (r, c))).collect();
    for i in 0..per_tile {
        let j = rng.gen_range(i..cells.len());
        cells.swap(i, j);
    }
    let placement = (0..4)
        .flat_map(|band| (0..2).map(move |slot| (band, slot)))
        .flat_map(|(band, slot)| {
            cells[..per_tile]
                .iter()
                .map(move |&(dr, dc)| NodeId((band * 4 + dr) * n + slot * 8 + dc))
        })
        .collect();
    let alloc = Allocation::new(placement, &tfg, &topo).unwrap();
    let timing = Timing::calibrated_dvb(256.0);
    let period = timing.longest_task(&tfg) / 0.5;
    let bounds = assign_time_bounds(&tfg, &timing, period, WindowPolicy::LongestTask).unwrap();
    (topo, tfg, alloc, bounds)
}
