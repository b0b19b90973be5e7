//! Golden-transcript smoke test for `srsched serve --stdio`: spawns the
//! real binary, drives a full session (admit, duplicate, list, query,
//! evict, malformed bytes, unknown op, stats, shutdown) over the framed
//! protocol, and pins every response byte-for-byte in
//! `tests/golden/serve_session.txt` — with and without the audit journal,
//! whose file `srsched serve-replay` must then verify.
//!
//! The one exception is the `stats` response, whose Prometheus payload is
//! deterministic but long and counter-set-coupled; its golden line is the
//! marker `<STATS>` and the test substring-checks the load-bearing metric
//! names instead.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

const REQUESTS: &[&str] = &[
    r#"{"op":"admit","tenant":{"name":"cam0","tfg":"task a 100\ntask b 100\nmsg m a -> b 256","placement":[0,1]}}"#,
    r#"{"op":"admit","tenant":{"name":"cam0","tfg":"task a 100\ntask b 100\nmsg m a -> b 256","placement":[0,1]}}"#,
    r#"{"op":"admit","tenant":{"name":"cam1","tfg":"task a 100\ntask b 100\nmsg m a -> b 512","placement":[5,6]}}"#,
    r#"{"op":"list"}"#,
    r#"{"op":"query","tenant":"cam0"}"#,
    r#"{"op":"evict","tenant":"cam1"}"#,
    r#"{oops"#,
    r#"{"op":"frobnicate"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"shutdown"}"#,
];

fn frames(requests: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in requests {
        out.extend_from_slice(&(r.len() as u32).to_be_bytes());
        out.extend_from_slice(r.as_bytes());
    }
    out
}

fn read_frames(mut bytes: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    while bytes.len() >= 4 {
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert!(bytes.len() >= 4 + len, "truncated frame in daemon output");
        out.push(String::from_utf8(bytes[4..4 + len].to_vec()).expect("UTF-8 response"));
        bytes = &bytes[4 + len..];
    }
    assert!(bytes.is_empty(), "trailing bytes after the last frame");
    out
}

/// Runs the golden session through `srsched serve --stdio` with `extra`
/// flags appended and returns the response frames.
fn run_session(extra: &[&str]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_srsched"))
        .args([
            "serve",
            "--stdio",
            "--topo",
            "torus:4x4",
            "--period",
            "200",
            "--parallelism",
            "1",
        ])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn srsched serve --stdio");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(&frames(REQUESTS))
        .expect("write request frames");
    let mut output = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout")
        .read_to_end(&mut output)
        .expect("read response frames");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exited with {status}");
    read_frames(&output)
}

#[test]
fn stdio_session_matches_golden_transcript() {
    let responses = run_session(&[]);
    assert_eq!(responses.len(), REQUESTS.len());

    // Load-bearing assertions that survive any golden refresh.
    assert!(
        responses[0].contains("\"rung\":\"fast\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"kind\":\"duplicate_tenant\""),
        "{}",
        responses[1]
    );
    assert!(
        responses[6].contains("\"kind\":\"malformed\""),
        "{}",
        responses[6]
    );
    let stats = &responses[8];
    for metric in [
        "sr_serve_requests_total",
        "sr_serve_admit_total",
        "sr_serve_admit_fast_total",
        "sr_serve_errors_duplicate_tenant_total",
        "sr_serve_errors_malformed_total",
        "sr_serve_evict_total",
    ] {
        assert!(
            stats.contains(metric),
            "stats response lacks {metric}: {stats}"
        );
    }
    assert_golden(&responses);
}

/// The session's responses, `stats` masked, equal the golden transcript.
fn assert_golden(responses: &[String]) {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/serve_session.txt"
    );
    let want = std::fs::read_to_string(golden_path).expect("golden transcript");
    let got: Vec<String> = responses
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i == 8 {
                "<STATS>".to_string()
            } else {
                r.clone()
            }
        })
        .collect();
    let want_lines: Vec<&str> = want.lines().collect();
    assert_eq!(
        got,
        want_lines,
        "serve transcript drifted from {golden_path}; if intentional, update it to:\n{}",
        got.join("\n")
    );
}

/// The CLI round trip: the same session with `--journal` answers
/// byte-identically, and `srsched serve-replay` verifies the journal it
/// wrote under the fingerprint its meta line names.
#[test]
fn journaled_session_answers_the_same_and_replays() {
    let journal = std::env::temp_dir().join(format!(
        "sr_serve_golden_journal_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let path = journal.to_str().expect("UTF-8 temp path");
    assert_golden(&run_session(&["--journal", path]));

    let meta = std::fs::read_to_string(&journal).expect("journal written");
    let meta = meta.lines().next().expect("a genesis line");
    assert!(meta.contains("\"fingerprint\":\"fnv1a-row-sum\""), "{meta}");
    let replay = Command::new(env!("CARGO_BIN_EXE_srsched"))
        .args(["serve-replay", path])
        .output()
        .expect("run srsched serve-replay");
    let said = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay.status.success(),
        "{said}{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(
        said.contains("3 ops verified bit-identical (2 admits, 1 evicts, 0 rejects)"),
        "{said}"
    );
    assert!(
        said.contains("hashes verified with the fnv1a-row-sum fingerprint"),
        "{said}"
    );
    let _ = std::fs::remove_file(&journal);
}
