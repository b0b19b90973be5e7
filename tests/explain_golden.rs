//! Golden test for `srsched explain` on the forced-infeasible torus 4×4
//! DVB workload (B = 64 bytes/µs, capacity scale pinned to 0.5): the full
//! diagnosis text — candidate walk, blocking subset, and the Farkas
//! certificate's saturated links with their binding interval sets — is
//! pinned in `tests/golden/explain_torus4x4_b64.txt`. The diagnosis is
//! emitted by the compiler's deterministic serial walk, so the text is
//! bit-identical across runs and `--parallelism` settings.

use sr_cli::{parse_args, run};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

const EXPLAIN_ARGS: &str =
    "explain --topo torus:4x4 --tfg dvb:4 --bandwidth 64 --alloc scatter:7 --cap-scale 0.5";

#[test]
fn explain_forced_infeasible_torus4x4_matches_golden() {
    let opts = parse_args(&args(EXPLAIN_ARGS)).unwrap();
    let mut out = String::new();
    run(&opts, &mut out).unwrap();

    // The acceptance claims, asserted directly so a golden refresh can
    // never silently drop them: at least one saturated link with its
    // binding interval set, and the blocking message subset.
    assert!(out.contains("verdict: infeasible"), "{out}");
    assert!(out.contains("saturated link L"), "{out}");
    assert!(out.contains("binding intervals {"), "{out}");
    assert!(out.contains("blocking demand rows:"), "{out}");

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/explain_torus4x4_b64.txt"
    );
    let want = std::fs::read_to_string(golden_path).expect("golden file");
    assert_eq!(
        out.trim(),
        want.trim(),
        "explain output drifted from {golden_path}; if the change is \
         intentional, update the golden file to:\n{out}"
    );
}

#[test]
fn explain_is_parallelism_invariant() {
    let serial = {
        let opts = parse_args(&args(&format!("{EXPLAIN_ARGS} --parallelism 1"))).unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        out
    };
    let parallel = {
        let opts = parse_args(&args(&format!("{EXPLAIN_ARGS} --parallelism 4"))).unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        out
    };
    assert_eq!(serial, parallel);
}

#[test]
fn explain_feasible_reports_winner_and_bottlenecks() {
    let opts = parse_args(&args(
        "explain --topo torus:4x4 --tfg dvb:4 --bandwidth 64 --alloc scatter:7",
    ))
    .unwrap();
    let mut out = String::new();
    run(&opts, &mut out).unwrap();
    assert!(out.contains("verdict: scheduled"), "{out}");
    assert!(out.contains("bottlenecks (tightest capacity rows"), "{out}");
    assert!(out.contains("% of "), "{out}");
}

/// When the lower bound on peak utilization is itself above 1, `explain`
/// says so and names the witness — a statement about *every* path
/// assignment over the enumerated alternatives, distinct from the
/// allocation LP's Farkas certificate (which this load never reaches).
#[test]
fn explain_names_the_path_certificate_when_no_assignment_fits() {
    const ARGS: &str =
        "explain --topo cube:3 --tfg dvb:10 --bandwidth 64 --alloc greedy --period 100";
    let explain = |extra: &str| {
        let opts = parse_args(&args(&format!("{ARGS} {extra}"))).unwrap();
        let mut out = String::new();
        run(&opts, &mut out).unwrap();
        out
    };
    let out = explain("--parallelism 1");
    assert!(
        out.contains("utilization exceeded: peak utilization 1.960"),
        "{out}"
    );
    assert!(
        out.contains(
            "path-assignment certificate (seed 0): no path assignment over these \
             alternatives can bring U below 1"
        ),
        "{out}"
    );
    assert!(
        out.contains("  forced group: U ≥ 1.480 — link L7 (N3-N7) is crossed by every alternative"),
        "{out}"
    );
    assert!(
        out.contains("  messages that cannot leave (2): b6, c"),
        "{out}"
    );
    assert!(!out.contains("Farkas"), "{out}");
    assert_eq!(out, explain("--parallelism 4"));
}
