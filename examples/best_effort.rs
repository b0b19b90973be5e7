//! Best-effort traffic over a compiled real-time schedule (paper §7: "the
//! suitability of SR to cases where complete knowledge of the application is
//! not available should also be studied").
//!
//! A compiled schedule determines every link's busy intervals exactly, so
//! aperiodic messages can be admitted online into provably idle windows
//! without disturbing the real-time pipeline.
//!
//! ```text
//! cargo run --example best_effort
//! ```

use sr::core::admit_best_effort;
use sr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cube = GeneralizedHypercube::binary(4)?;
    let tfg = sr::tfg::generators::diamond(4, 2000, 2048);
    let timing = Timing::new(64.0, 100.0);
    let alloc = sr::mapping::greedy(&tfg, &cube);
    let period = 60.0;

    let schedule = compile(
        &cube,
        &tfg,
        &alloc,
        &timing,
        period,
        &CompileConfig::default(),
    )?;
    verify(&schedule, &cube, &tfg)?;
    println!(
        "real-time pipeline compiled: period {period} µs, {} segments\n",
        schedule.segments().len()
    );

    // How much capacity is left?
    println!("link idle fractions (busiest first):");
    let busy = schedule.busy_spans();
    let busy_time = |l: &LinkId| -> f64 {
        let row = busy.get(l).map_or(&[][..], Vec::as_slice);
        row.iter().map(|(s, e)| e - s).sum()
    };
    let mut idle: Vec<(LinkId, f64)> = (0..cube.num_links())
        .map(|l| (LinkId(l), 1.0 - busy_time(&LinkId(l)) / period))
        .collect();
    idle.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (l, f) in idle.iter().take(5) {
        let (a, b) = cube.link_endpoints(*l);
        println!("  {l} ({a}-{b}): {:.0}% idle", f * 100.0);
    }

    // Admit a burst of aperiodic transfers.
    println!("\nbest-effort admissions:");
    for (src, dst, bytes) in [
        (NodeId(0), NodeId(15), 1024u64),
        (NodeId(3), NodeId(12), 2048),
        (NodeId(7), NodeId(8), 512),
        (NodeId(1), NodeId(14), 3000),
    ] {
        match admit_best_effort(&schedule, &cube, &timing, src, dst, bytes, 32) {
            Some(grant) => println!(
                "  {src}->{dst} {bytes:>5} B: [{:>6.2}, {:>6.2}] µs via {}",
                grant.start,
                grant.end(),
                grant.path
            ),
            None => println!("  {src}->{dst} {bytes:>5} B: refused (no idle window this frame)"),
        }
    }
    Ok(())
}
