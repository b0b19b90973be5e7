//! `metrics_gate --check` against a baseline that does not parse: a
//! reported failure (exit status 1, the reader's message and byte offset
//! on stderr), not a panic (exit status 101).

use std::process::Command;

#[test]
fn truncated_baseline_is_a_reported_failure_not_a_panic() {
    let baseline = include_str!("../../../results/metrics_baseline_torus4x4_dvb.json");
    let mut path = std::env::temp_dir();
    path.push(format!("sr_metrics_gate_truncated_{}", std::process::id()));
    std::fs::write(&path, &baseline[..200]).expect("writes the damaged copy");

    let out = Command::new(env!("CARGO_BIN_EXE_metrics_gate"))
        .arg("--check")
        .arg(&path)
        .output()
        .expect("metrics_gate runs");
    let _ = std::fs::remove_file(&path);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = format!("cannot parse baseline {}: ", path.display());
    assert!(stderr.contains(&want), "{stderr}");
    assert!(stderr.trim_end().ends_with("at byte 200"), "{stderr}");
}
