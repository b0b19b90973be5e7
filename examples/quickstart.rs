//! Quickstart: compile a contention-free communication schedule for a small
//! pipelined task graph and inspect what each communication processor will
//! execute.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the application as a task-flow graph: a 4-stage video
    //    pipeline processing one frame per period.
    let mut b = TfgBuilder::new();
    let grab = b.task("grab", 2_000);
    let filter = b.task("filter", 4_000);
    let detect = b.task("detect", 4_000);
    let report = b.task("report", 1_000);
    b.message("raw", grab, filter, 4_096)?;
    b.message("clean", filter, detect, 4_096)?;
    b.message("boxes", detect, report, 512)?;
    b.message("thumb", grab, report, 1_024)?; // skip edge
    let tfg = b.build()?;

    // 2. Pick a machine: a 16-node binary hypercube with 64-byte/µs links
    //    and 100-op/µs processors.
    let cube = GeneralizedHypercube::binary(4)?;
    let timing = Timing::new(64.0, 100.0);

    // 3. Map tasks to nodes (greedy locality here; see `sr::mapping`).
    let alloc = sr::mapping::greedy(&tfg, &cube);
    for (id, task) in tfg.iter_tasks() {
        println!("task {:<7} -> {}", task.name(), alloc.node_of(id));
    }

    // 4. Compile a scheduled-routing communication schedule for pipelining
    //    at an input period of 100 µs (longest task takes 40 µs; the raw
    //    frame takes 64 µs on the wire).
    let period = 100.0;
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
        "\ncompiled: period {} µs, latency {:.1} µs, peak utilization {:.2}",
        schedule.period(),
        schedule.latency(),
        schedule.peak_utilization()
    );

    // 5. Every message gets clear-path transmission windows…
    println!("\nmessage segments (one period frame):");
    for seg in schedule.segments() {
        let msg = tfg.message(seg.message);
        println!(
            "  {:<6} [{:>6.1}, {:>6.1}] µs over {}",
            msg.name(),
            seg.start,
            seg.end,
            schedule.assignment().path(seg.message)
        );
    }

    // 6. …realized by crossbar commands each node executes independently,
    //    derived from the segments and paths when asked for.
    println!("\nswitching schedules (non-idle nodes):");
    for ns in schedule.node_schedules() {
        if ns.is_idle() {
            continue;
        }
        println!("  {}:", ns.node());
        for c in ns.commands() {
            println!(
                "    [{:>6.1}, {:>6.1}] {:?} -> {:?}  ({})",
                c.start,
                c.end,
                c.connection.from,
                c.connection.to,
                tfg.message(c.message).name()
            );
        }
    }
    Ok(())
}
