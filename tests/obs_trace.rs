//! Golden-file and well-formedness tests for the compile pipeline's
//! observability export: a 2-cube compile must emit a Chrome-tracing JSON
//! document that parses, whose spans are properly nested (the four compile
//! phases under the root `compile` span, the LP phases under their
//! candidate), and whose span structure matches a checked-in golden file.
//! The no-op recorder must emit nothing at all.

use sr::obs::{MetricsRecorder, Recorder, SpanRecord, NOOP};
use sr::prelude::*;

/// Compile a 3-stage chain on a binary 2-cube with a fully serial search
/// and a live recorder. The workload compiles on the first candidate, so
/// the span sequence is small and stable — ideal for a golden file.
fn compile_2cube_recorded() -> (MetricsRecorder, Schedule) {
    let cube = GeneralizedHypercube::binary(2).unwrap();
    let tfg = sr::tfg::generators::chain(3, 500, 640);
    let alloc = sr::mapping::greedy(&tfg, &cube);
    let timing = Timing::new(64.0, 10.0);
    let config = CompileConfig {
        parallelism: 1,
        ..CompileConfig::default()
    };
    let rec = MetricsRecorder::new();
    let sched = compile_with_recorder(&cube, &tfg, &alloc, &timing, 200.0, &config, &rec)
        .expect("2-cube chain compiles");
    (rec, sched)
}

/// Render spans (already in begin order) as `depth name` lines. With a
/// serial search everything runs on one logical thread, so nesting depth
/// follows from interval containment: a span is a child of the innermost
/// earlier span that has not yet ended when it starts.
fn depth_lines(spans: &[SpanRecord]) -> String {
    let mut stack: Vec<f64> = Vec::new(); // end times of open ancestors
    let mut out = String::new();
    for s in spans {
        let end = s.start_us + s.dur_us.expect("compile closes every span");
        while let Some(&top) = stack.last() {
            if s.start_us >= top {
                stack.pop();
            } else {
                break;
            }
        }
        out.push_str(&format!("{} {}\n", stack.len(), s.name));
        stack.push(end);
    }
    out
}

#[test]
fn two_cube_compile_matches_golden_span_structure() {
    let (rec, sched) = compile_2cube_recorded();
    assert!(sched.peak_utilization() <= 1.0 + 1e-9);

    let got = depth_lines(&rec.spans());
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/trace_2cube.txt"
    );
    let want = std::fs::read_to_string(golden_path).expect("golden file exists");
    assert_eq!(
        got, want,
        "span structure drifted from tests/golden/trace_2cube.txt;\n\
         if the change is intentional, update the golden file to:\n{got}"
    );
}

#[test]
fn chrome_trace_is_well_formed_json() {
    let (rec, _) = compile_2cube_recorded();
    let json = rec.chrome_trace_json();

    sr::obs::json::parse(json.as_bytes()).expect("trace parses as JSON");

    // Structural spot checks: the container keys, the process-name
    // metadata event, and complete events carrying timestamps/durations.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    assert!(json.contains("\"ph\":\"M\""));
    assert!(json.contains("\"process_name\""));
    for key in [
        "\"name\":\"compile\"",
        "\"ph\":\"X\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":1",
    ] {
        assert!(json.contains(key), "trace JSON missing {key}");
    }
    // Every phase span must surface in the trace, and the LP phases must
    // carry their pivot-counter args for chrome://tracing's detail pane.
    for name in [
        "phase.time_bounds",
        "phase.assign_paths",
        "phase.allocate_intervals",
        "phase.schedule_intervals",
        "phase.build_node_schedules",
        "candidate",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "missing span {name}"
        );
    }
    assert!(json.contains("\"lp_pivots\""), "LP phases carry pivot args");
}

#[test]
fn spans_are_nested_or_disjoint() {
    let (rec, _) = compile_2cube_recorded();
    let spans = rec.spans();
    assert!(!spans.is_empty());
    let eps = 1e-6;
    for (i, a) in spans.iter().enumerate() {
        let (a0, a1) = (a.start_us, a.start_us + a.dur_us.unwrap());
        for b in &spans[i + 1..] {
            if a.tid != b.tid {
                continue;
            }
            let (b0, b1) = (b.start_us, b.start_us + b.dur_us.unwrap());
            let disjoint = b0 >= a1 - eps || a0 >= b1 - eps;
            let a_in_b = b0 <= a0 + eps && a1 <= b1 + eps;
            let b_in_a = a0 <= b0 + eps && b1 <= a1 + eps;
            assert!(
                disjoint || a_in_b || b_in_a,
                "spans {} and {} partially overlap",
                a.name,
                b.name
            );
        }
    }
}

#[test]
fn noop_recorder_emits_nothing() {
    // The no-op recorder is the default for `compile()`: it must report
    // disabled, hand out the sentinel span id, and never allocate.
    assert!(!NOOP.enabled());
    let id = NOOP.begin_span("compile", "");
    assert_eq!(id, sr::obs::SpanId::NONE);
    NOOP.end_span(id);
    NOOP.add("search.candidates_walked", 1);
    NOOP.observe("wormhole.blocked_us", 1.0);

    // An untouched metrics recorder exports an empty trace (metadata only,
    // no complete events) and no counters.
    let rec = MetricsRecorder::new();
    let json = rec.chrome_trace_json();
    sr::obs::json::parse(json.as_bytes()).expect("empty trace parses");
    assert!(!json.contains("\"ph\":\"X\""));
    assert!(rec.counters().is_empty());
}
