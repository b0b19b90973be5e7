//! Round-trip test for [`Schedule::to_json`]: parse the exported JSON back
//! with the workspace's reader (`sr::obs::json`) and compare every field
//! against the live schedule's summary and switching tables, and pin one
//! export byte for byte (`tests/golden/export_diamond3_cube3.json`).

use sr::obs::json::{parse, Json};
use sr::prelude::*;
use sr::tfg::MessageId;
use sr::topology::NodeId;

/// Strict accessors over the shared reader's [`Json`]: the export's shape
/// is documented, so a missing key or a wrong type is a test failure.
trait Expect {
    fn num(&self) -> f64;
    fn str(&self) -> &str;
    fn arr(&self) -> &[Json];
    fn at(&self, key: &str) -> &Json;
}

impl Expect for Json {
    fn num(&self) -> f64 {
        self.as_num()
            .unwrap_or_else(|| panic!("expected number, got {self:?}"))
    }
    fn str(&self) -> &str {
        self.as_str()
            .unwrap_or_else(|| panic!("expected string, got {self:?}"))
    }
    fn arr(&self) -> &[Json] {
        self.as_arr()
            .unwrap_or_else(|| panic!("expected array, got {self:?}"))
    }
    fn at(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("missing key {key} in {self:?}"))
    }
}

fn compiled() -> (TaskFlowGraph, Schedule) {
    let topo = GeneralizedHypercube::binary(4).unwrap();
    let tfg = sr::tfg::generators::diamond(4, 500, 1280);
    let timing = Timing::new(64.0, 10.0);
    let alloc = sr::mapping::greedy(&tfg, &topo);
    let sched = compile(
        &topo,
        &tfg,
        &alloc,
        &timing,
        80.0,
        &CompileConfig::default(),
    )
    .expect("compiles");
    (tfg, sched)
}

#[test]
fn json_roundtrips_against_the_live_schedule() {
    let (tfg, sched) = compiled();
    let doc = parse(sched.to_json().as_bytes()).expect("export parses");

    // Scalars.
    assert_eq!(doc.at("period_us").num(), sched.period());
    assert_eq!(doc.at("latency_us").num(), sched.latency());
    assert_eq!(doc.at("guard_time_us").num(), sched.guard_time());
    assert_eq!(doc.at("peak_utilization").num(), sched.peak_utilization());

    // Messages: one entry per message, path and segments verbatim.
    let messages = doc.at("messages").arr();
    assert_eq!(messages.len(), tfg.num_messages());
    for (i, m) in messages.iter().enumerate() {
        assert_eq!(m.at("id").num() as usize, i);
        let id = MessageId(i);
        let want_path: Vec<f64> = sched
            .assignment()
            .path(id)
            .nodes()
            .iter()
            .map(|n| n.index() as f64)
            .collect();
        let got_path: Vec<f64> = m.at("path").arr().iter().map(Expect::num).collect();
        assert_eq!(got_path, want_path, "path of M{i}");
        let want_segs: Vec<(f64, f64)> = sched
            .segments()
            .iter()
            .filter(|s| s.message == id)
            .map(|s| (s.start, s.end))
            .collect();
        let got_segs: Vec<(f64, f64)> = m
            .at("segments")
            .arr()
            .iter()
            .map(|pair| (pair.arr()[0].num(), pair.arr()[1].num()))
            .collect();
        assert_eq!(got_segs, want_segs, "segments of M{i}");
    }

    // Nodes: array index == node id, commands match the switching tables.
    let nodes = doc.at("nodes").arr();
    let omega = sched.node_schedules();
    assert_eq!(nodes.len(), omega.len());
    let port = |p: sr::core::Port| match p {
        sr::core::Port::Processor => "processor".to_string(),
        sr::core::Port::Link(l) => format!("link:{}", l.index()),
    };
    for (n, entry) in nodes.iter().enumerate() {
        assert_eq!(entry.at("node").num() as usize, n);
        let ns = &omega[n];
        assert_eq!(ns.node(), NodeId(n));
        let cmds = entry.at("commands").arr();
        assert_eq!(cmds.len(), ns.commands().len(), "command count on N{n}");
        for (c, want) in cmds.iter().zip(ns.commands()) {
            assert_eq!(c.at("start").num(), want.start);
            assert_eq!(c.at("end").num(), want.end);
            assert_eq!(c.at("from").str(), port(want.connection.from));
            assert_eq!(c.at("to").str(), port(want.connection.to));
            assert_eq!(c.at("message").num() as usize, want.message.index());
        }
    }
}

/// The compact `num()` formatting (`100.0` for integral values, shortest
/// round-trip otherwise) must stay lossless: every parsed float equals the
/// source float exactly, not approximately — checked above with `==`; this
/// test pins the two formats explicitly.
#[test]
fn number_formats_are_lossless() {
    let (_, sched) = compiled();
    let json = sched.to_json();
    assert!(json.contains("\"period_us\":80.0"), "integral format");
    let doc = parse(json.as_bytes()).expect("export parses");
    // An LP-derived fractional quantity survives the round trip bit-exactly.
    assert_eq!(
        doc.at("latency_us").num().to_bits(),
        sched.latency().to_bits()
    );
}

/// The export of diamond(3) on the binary 3-cube at τ_in = 75 µs, byte for
/// byte: every message's path and segments and every node's switching
/// commands, idle nodes included. The golden was written while a
/// `Schedule` still stored `Ω` beside its segments; the export now derives
/// it.
#[test]
fn diamond_export_matches_golden() {
    let topo = GeneralizedHypercube::binary(3).unwrap();
    let tfg = sr::tfg::generators::diamond(3, 500, 1280);
    let alloc = sr::mapping::greedy(&tfg, &topo);
    let timing = Timing::new(64.0, 10.0);
    let sched = compile(
        &topo,
        &tfg,
        &alloc,
        &timing,
        75.0,
        &CompileConfig::default(),
    )
    .expect("compiles");
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/export_diamond3_cube3.json"
    );
    let want = std::fs::read_to_string(golden_path).expect("golden file exists");
    let got = format!("{}\n", sched.to_json());
    assert!(
        got == want,
        "export drifted from {golden_path}; if the change is intentional, \
         update the golden file to:\n{got}"
    );
}
