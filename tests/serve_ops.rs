//! End-to-end test of the daemon's operational surfaces: a 24-tenant
//! admit/evict workload driven through the framed protocol while the
//! HTTP exposition listener and the audit journal are attached, followed
//! by `serve-replay` verification of the journal — including the
//! torn-final-line and rotated-prefix recovery paths, and journals whose
//! meta line names no fingerprint (written before the key existed).
//!
//! The engine here is built exactly as `srsched serve --topo torus:8x8
//! --period 200` would build it (all other knobs at their CLI defaults),
//! and the journal's genesis meta line records those same values — so
//! `serve-replay` reconstructs a bit-identical engine from the file
//! alone, which is the whole contract.

use std::io::{Read, Write};
use std::net::TcpStream;

use sr::prelude::*;
use sr::serve::Daemon;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sr_serve_ops_{name}_{}", std::process::id()));
    p
}

/// The engine `srsched serve --topo torus:8x8 --period 200` builds:
/// every other knob at its command-line default.
fn engine() -> sr::serve::Engine {
    let topo = sr_cli::parse_topology("torus:8x8").expect("topo");
    let config = CompileConfig {
        guard_time: 0.0,
        parallelism: 0,
        spare_capacity: 0.0,
        alloc_engine: AllocEngine::Simplex,
        partition: 0,
        ..CompileConfig::default()
    };
    let serve_cfg = sr::serve::ServeConfig {
        period: 200.0,
        timing: Timing::calibrated_dvb(64.0),
        feedback_scales: config.feedback_scales.clone(),
        batch_threads: 0,
        compile: config,
        ..sr::serve::ServeConfig::default()
    };
    sr::serve::Engine::new(topo, serve_cfg)
}

/// The genesis meta pairs the CLI would write for that invocation.
const META: &[(&str, &str)] = &[
    ("topo", "torus:8x8"),
    ("period", "200"),
    ("bandwidth", "64"),
    ("guard", "0"),
    ("spare", "0"),
    ("parallelism", "0"),
    ("partition", "0"),
    ("alloc_engine", "simplex"),
];

/// Tenant `i`: a two-task chain on its own node pair (the serve_drive
/// workload shape).
fn admit_req(i: usize) -> String {
    let a = (i * 2) % 62;
    let b = a + 1;
    format!(
        r#"{{"op":"admit","tenant":{{"name":"drv{i}","tfg":"task a{i} 100\ntask b{i} 100\nmsg m{i} a{i} -> b{i} 256","placement":[{a},{b}]}}}}"#
    )
}

fn ok_frame(daemon: &mut Daemon, request: &str) -> String {
    let (response, _stop) = daemon.handle_frame(request.as_bytes());
    assert!(response.contains("\"ok\":true"), "refused: {response}");
    response
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("reads");
    let (head, body) = text.split_once("\r\n\r\n").expect("has head");
    (head.to_string(), body.to_string())
}

fn replay(path: &std::path::Path) -> Result<String, String> {
    let opts = sr_cli::Options {
        command: "serve-replay".into(),
        input: Some(path.display().to_string()),
        ..sr_cli::Options::default()
    };
    let mut out = String::new();
    match sr_cli::run(&opts, &mut out) {
        Ok(()) => Ok(out),
        Err(e) => Err(format!("{e} (output so far: {out})")),
    }
}

fn clean(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{}.1", path.display()));
}

#[test]
fn workload_is_observed_and_replays_bit_identically() {
    let journal = tmp_path("workload");
    clean(&journal);
    let mut daemon = Daemon::new(engine());
    daemon.attach_journal(&journal, META).expect("journal");
    let addr = daemon.attach_http("127.0.0.1:0").expect("http");

    for i in 0..24 {
        ok_frame(&mut daemon, &admit_req(i));
    }
    for i in 0..4 {
        ok_frame(
            &mut daemon,
            &format!(r#"{{"op":"evict","tenant":"drv{i}"}}"#),
        );
    }

    // The scrape exposes the cumulative counters and the per-rung
    // latency histograms the workload just filled.
    let (head, metrics) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(metrics.contains("sr_serve_admit_total 24"), "{metrics}");
    assert!(metrics.contains("sr_serve_evict_total 4"), "{metrics}");
    assert!(
        metrics.contains("sr_serve_admit_latency_fast{quantile=\"0.5\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sr_serve_admit_latency_fast_count 24"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sr_serve_evict_latency{quantile=\"0.95\"}"),
        "{metrics}"
    );

    let (_, health) = http_get(addr, "/healthz");
    assert!(health.contains("\"ok\":true"), "{health}");
    assert!(health.contains("\"tenants\":20"), "{health}");
    assert!(health.contains("\"attached\":true"), "{health}");
    // Genesis meta + 24 admits + 4 evicts.
    assert!(health.contains("\"lines\":29"), "{health}");

    let (_, tenants) = http_get(addr, "/tenants");
    assert!(tenants.contains("\"count\":20"), "{tenants}");
    assert!(tenants.contains("\"name\":\"drv23\""), "{tenants}");
    assert!(!tenants.contains("\"name\":\"drv0\""), "{tenants}");

    let (_, stop) = daemon.handle_frame(br#"{"op":"shutdown"}"#);
    assert!(stop, "shutdown stops the daemon");
    drop(daemon);

    let out = replay(&journal).expect("replay verifies");
    assert!(
        out.contains("28 ops verified bit-identical (24 admits, 4 evicts, 0 rejects)"),
        "{out}"
    );
    assert!(out.contains("tenants: 20"), "{out}");
    assert!(
        out.contains("ledger recomputed and invariants checked after every op"),
        "{out}"
    );
    clean(&journal);
}

#[test]
fn torn_final_line_reports_the_tear_and_verifies_the_prefix() {
    let journal = tmp_path("torn");
    clean(&journal);
    let mut daemon = Daemon::new(engine());
    daemon.attach_journal(&journal, META).expect("journal");
    for i in 0..6 {
        ok_frame(&mut daemon, &admit_req(i));
    }
    ok_frame(&mut daemon, r#"{"op":"evict","tenant":"drv0"}"#);
    drop(daemon);

    // Crash mid-write: chop the final record in half.
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let whole = text.trim_end_matches('\n');
    let last_start = whole.rfind('\n').expect("several lines") + 1;
    let torn_at = last_start + (whole.len() - last_start) / 2;
    std::fs::write(&journal, &text[..torn_at]).expect("truncates");

    let out = replay(&journal).expect("prefix still verifies");
    assert!(out.contains("torn line 8"), "{out}");
    assert!(out.contains("verified the intact prefix"), "{out}");
    assert!(
        out.contains("6 ops verified bit-identical (6 admits, 0 evicts, 0 rejects)"),
        "{out}"
    );
    clean(&journal);
}

/// One record's `ledger_hash` altered: replay recomputes the ledger from
/// the re-driven tenant table after every op, so it stops at that record
/// and names its line — the records before it verify, the ones after are
/// never reached.
#[test]
fn altered_ledger_hash_is_caught_at_its_line() {
    let journal = tmp_path("altered");
    clean(&journal);
    let mut daemon = Daemon::new(engine());
    daemon.attach_journal(&journal, META).expect("journal");
    for i in 0..6 {
        ok_frame(&mut daemon, &admit_req(i));
    }
    ok_frame(&mut daemon, r#"{"op":"evict","tenant":"drv2"}"#);
    drop(daemon);

    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Line 1 is the genesis meta; line 4 records the admission of drv2.
    let key = "\"ledger_hash\":\"";
    let at = lines[3].find(key).expect("record carries a ledger hash") + key.len();
    let digit = if &lines[3][at..=at] == "0" { "1" } else { "0" };
    lines[3].replace_range(at..=at, digit);
    std::fs::write(&journal, lines.join("\n") + "\n").expect("rewrites");

    let err = replay(&journal).expect_err("the altered record diverges");
    assert!(err.contains("replay diverged at line 4"), "{err}");
    assert!(err.contains("Admit \"drv2\": ledger diverged"), "{err}");
    clean(&journal);
}

/// Audit records go through the protocol's spec decoder: a node id that is
/// no node id, or a `best_effort` that is no boolean, makes the line
/// invalid — reported like a tear, never re-driven as some other spec.
#[test]
fn invalid_spec_in_a_record_is_reported_and_the_prefix_verifies() {
    for (name, from, to, why) in [
        (
            "badnode",
            "\"placement\":[10,11]",
            "\"placement\":[1e300]",
            "is not a valid node id",
        ),
        (
            "badflag",
            "\"best_effort\":false}}",
            "\"best_effort\":\"yes\"}}",
            "\"best_effort\" must be a boolean",
        ),
    ] {
        let journal = tmp_path(name);
        clean(&journal);
        let mut daemon = Daemon::new(engine());
        daemon.attach_journal(&journal, META).expect("journal");
        for i in 0..6 {
            ok_frame(&mut daemon, &admit_req(i));
        }
        drop(daemon);

        let text = std::fs::read_to_string(&journal).expect("journal exists");
        let last_start = text.trim_end().rfind('\n').expect("several lines") + 1;
        let damaged = text[last_start..].replace(from, to);
        assert_ne!(
            damaged,
            text[last_start..],
            "the last record carries {from}"
        );
        std::fs::write(&journal, format!("{}{damaged}", &text[..last_start])).expect("rewrites");

        let out = replay(&journal).expect("prefix still verifies");
        assert!(out.contains("torn line 7 of 7"), "{out}");
        assert!(out.contains(why), "{out}");
        assert!(
            out.contains("5 ops verified bit-identical (5 admits, 0 evicts, 0 rejects)"),
            "{out}"
        );
        clean(&journal);
    }
}

/// A journal written by a build from before the fingerprint meta key
/// (`srsched serve --stdio --topo torus:8x8 --period 200 --bandwidth 64
/// --parallelism 1 --journal …`): fast, adapted, rerouted and best-effort
/// admits, a memo replay, four evicts and one reject. Its meta line names
/// no fingerprint, so it verifies with the whole-stream FNV-1a and ends on
/// the ledger hash that build's `serve-replay` printed.
#[test]
fn a_journal_without_a_fingerprint_key_replays_to_its_writers_hash() {
    let fixture = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/serve_audit_v1.jsonl"
    ));
    let out = replay(fixture).expect("the fixture verifies");
    assert!(
        out.contains(
            "12 ops verified bit-identical (7 admits, 4 evicts, 1 rejects); tenants: 3; \
             ledger hash c958ab2ec7694113"
        ),
        "{out}"
    );
    assert!(
        out.contains("hashes verified with the fnv1a-whole fingerprint (the meta line names none)"),
        "{out}"
    );
}

/// A journal this build writes names its fingerprint; with the key
/// removed it reads as a journal of the whole-stream kind and must fail at
/// its first record, saying which fingerprint it checked. (On a table of
/// one row the two functions agree by construction, so the first tenant
/// here spans two links.)
#[test]
fn a_journal_stripped_of_its_fingerprint_key_fails_at_its_first_record() {
    let journal = tmp_path("stripped");
    clean(&journal);
    let mut daemon = Daemon::new(engine());
    daemon.attach_journal(&journal, META).expect("journal");
    let wide = r#"{"op":"admit","tenant":{"name":"wide","tfg":"task a 100\ntask b 100\nmsg m a -> b 256","placement":[40,42]}}"#;
    assert!(ok_frame(&mut daemon, wide).contains("\"links_used\":2"));
    for i in 0..3 {
        ok_frame(&mut daemon, &admit_req(i));
    }
    ok_frame(&mut daemon, r#"{"op":"evict","tenant":"drv1"}"#);
    drop(daemon);

    let out = replay(&journal).expect("the journal verifies as written");
    assert!(
        out.contains("5 ops verified bit-identical (4 admits, 1 evicts, 0 rejects)"),
        "{out}"
    );
    assert!(
        out.contains("hashes verified with the fnv1a-row-sum fingerprint, as the meta line names"),
        "{out}"
    );

    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let key = format!(",\"{}\":\"fnv1a-row-sum\"", sr::serve::FINGERPRINT_KEY);
    assert_eq!(text.matches(&key).count(), 1, "the meta line names it once");
    std::fs::write(&journal, text.replacen(&key, "", 1)).expect("rewrites");
    let err = replay(&journal).expect_err("another fingerprint cannot verify");
    assert!(err.contains("replay diverged at line 2"), "{err}");
    assert!(err.contains("under the fnv1a-whole fingerprint"), "{err}");
    clean(&journal);
}

#[test]
fn rotated_journal_is_stitched_from_the_previous_chunk() {
    let journal = tmp_path("rotated");
    clean(&journal);
    let mut daemon = Daemon::new(engine());
    // A deliberately tiny rotation budget (the clamp floor): the
    // workload below spans one rotation boundary, so the genesis meta
    // line ends up in `<path>.1` and replay must stitch.
    daemon
        .attach_journal_with(&journal, 4096, META)
        .expect("journal");
    for i in 0..6 {
        ok_frame(&mut daemon, &admit_req(i));
    }
    for _ in 0..5 {
        ok_frame(&mut daemon, r#"{"op":"evict","tenant":"drv0"}"#);
        ok_frame(&mut daemon, &admit_req(0));
    }
    drop(daemon);

    let rotated = std::path::PathBuf::from(format!("{}.1", journal.display()));
    assert!(
        rotated.exists(),
        "the workload crosses the 4096-byte budget"
    );

    let out = replay(&journal).expect("stitched replay verifies");
    assert!(out.contains("stitching rotated prefix"), "{out}");
    assert!(
        out.contains("16 ops verified bit-identical (11 admits, 5 evicts, 0 rejects)"),
        "{out}"
    );
    clean(&journal);
}
