//! Tier-1 tests of the persistent event journal: a run journaled to disk
//! and replayed offline must feed [`analyze_oi`] the *same* event stream —
//! bit-identical timestamps, identical report — and a journal written from
//! a truncated ring (overflowed [`RingEventSink`]) must replay into the
//! analyzer without panics. A property test pins the ring's newest-wins
//! retention with `NO_ID` sentinels through wraparound. The reader under
//! all of it, `sr::obs::json`, gets a seeded hostile-input sweep over the
//! documents it reads in production (protocol frames, journal lines,
//! metrics baselines) and an escape round-trip property.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sr::obs::json::{parse, Json};
use sr::prelude::*;

const PERIOD: f64 = 120.0;
const CFG: SimConfig = SimConfig {
    invocations: 40,
    warmup: 6,
};

fn claim_setup() -> (GeneralizedHypercube, TaskFlowGraph, Allocation, Timing) {
    let cube = GeneralizedHypercube::binary(3).unwrap();
    let tfg = sr::tfg::generators::claim_chain(1000, 6400, 64);
    let timing = Timing::new(64.0, 100.0);
    let alloc = Allocation::new(
        vec![NodeId(0), NodeId(1), NodeId(0), NodeId(3)],
        &tfg,
        &cube,
    )
    .unwrap();
    (cube, tfg, alloc, timing)
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sr_journal_replay_{name}_{}", std::process::id()));
    p
}

fn bits(events: &[SimEvent]) -> Vec<(u64, SimEventKind, u32, u32, u32)> {
    events
        .iter()
        .map(|e| {
            (
                e.time_us.to_bits(),
                e.kind,
                e.message,
                e.invocation,
                e.channel,
            )
        })
        .collect()
}

/// Acceptance: journal replay reproduces the live `analyze_oi` statistics
/// bit-identically (f64 fields compared through `to_bits`).
#[test]
fn journal_replay_reproduces_live_oi_bit_identically() {
    let (cube, tfg, alloc, timing) = claim_setup();
    let sim = WormholeSim::new(&cube, &tfg, &alloc, &timing).unwrap();
    let sink = RingEventSink::with_capacity(1 << 16);
    sim.run_with_events(PERIOD, &CFG, &sink).unwrap();
    let live_events = sink.events();
    let live = analyze_oi(&live_events, PERIOD, CFG.warmup);

    let path = tmp_path("bitident");
    let _ = std::fs::remove_file(&path);
    let mut w = JournalWriter::create(&path, sr::obs::DEFAULT_MAX_BYTES).unwrap();
    w.meta(&[("command", "simulate"), ("workload", "claim_chain")])
        .unwrap();
    w.events(&live_events).unwrap();
    w.flush().unwrap();

    let data = read_journal(&path).unwrap();
    assert_eq!(data.skipped, 0);
    assert_eq!(data.meta["workload"], "claim_chain");
    assert_eq!(bits(&data.events), bits(&live_events));

    let replayed = analyze_oi(&data.events, PERIOD, CFG.warmup);
    let as_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(as_bits(&replayed.outputs), as_bits(&live.outputs));
    assert_eq!(as_bits(&replayed.intervals), as_bits(&live.intervals));
    assert_eq!(
        replayed.max_deviation_us.to_bits(),
        live.max_deviation_us.to_bits()
    );
    assert_eq!(
        replayed.min_interval_us.to_bits(),
        live.min_interval_us.to_bits()
    );
    assert_eq!(replayed.stalls.len(), live.stalls.len());
    assert_eq!(replayed.render(), live.render());
    let _ = std::fs::remove_file(&path);
}

/// A ring too small for the run drops the oldest events; the journaled
/// remainder must still parse cleanly and analyze without panics, keeping
/// the tail (deliveries and outputs) the analyzer needs.
#[test]
fn truncated_ring_journal_feeds_analyzer_without_panics() {
    let (cube, tfg, alloc, timing) = claim_setup();
    let sim = WormholeSim::new(&cube, &tfg, &alloc, &timing).unwrap();
    let sink = RingEventSink::with_capacity(128);
    sim.run_with_events(PERIOD, &CFG, &sink).unwrap();
    assert!(sink.dropped() > 0, "run must overflow the ring");

    let path = tmp_path("truncated");
    let _ = std::fs::remove_file(&path);
    let mut w = JournalWriter::create(&path, sr::obs::DEFAULT_MAX_BYTES).unwrap();
    w.events(&sink.events()).unwrap();
    w.flush().unwrap();

    let data = read_journal(&path).unwrap();
    assert_eq!(data.skipped, 0);
    assert_eq!(data.events.len(), 128);
    // The ring dropped the early outputs, so the analyzer's consecutive
    // walk from the warmup invocation finds nothing — it must degrade to
    // an empty report, not panic, and still render.
    let report = analyze_oi(&data.events, PERIOD, CFG.warmup);
    assert!(report.render().contains("OI report"));
    // The tail of the stream (what the ring keeps) does include outputs.
    assert!(data
        .events
        .iter()
        .any(|e| e.kind == SimEventKind::OutputProduced));

    // A journal truncated mid-line (crash) still parses up to the damage.
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.len() * 2 / 3;
    let truncated = &text[..cut];
    let partial = parse_journal(truncated);
    assert!(partial.skipped <= 1, "at most the cut line is lost");
    let _ = analyze_oi(&partial.events, PERIOD, CFG.warmup);
    let _ = std::fs::remove_file(&path);
}

/// The reader answers any bytes with a value or an error located inside
/// the input — never a panic.
fn reader_is_total(bytes: &[u8]) {
    if let Err(e) = parse(bytes) {
        let len = bytes.len();
        assert!(e.offset <= len, "{e} past a {len}-byte input");
    }
}

/// Runs `check` on every strict prefix of `doc` and on every single-byte
/// corruption of it (one seeded replacement per offset).
fn sweep_truncations_and_flips(doc: &[u8], rng: &mut StdRng, check: impl Fn(&[u8])) {
    let mut flipped = doc.to_vec();
    for i in 0..doc.len() {
        check(&doc[..i]);
        flipped[i] ^= rng.gen_range(1..=255u8);
        check(&flipped);
        flipped[i] = doc[i];
    }
}

/// The documents the one reader meets in production, damaged at every
/// byte.
#[test]
fn reader_is_total_on_damaged_frames_journals_and_baselines() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1991);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    let session = std::fs::read_to_string(format!("{root}/tests/golden/serve_session.txt"))
        .expect("golden session exists");
    for frame in session.lines() {
        sweep_truncations_and_flips(frame.as_bytes(), &mut rng, reader_is_total);
    }

    let path = tmp_path("hostile");
    let _ = std::fs::remove_file(&path);
    let rec = MetricsRecorder::new();
    rec.add("sim.outputs", 42);
    rec.observe("demo.latency_us", 2.5);
    drop(sr::obs::span_with(&rec, "phase.demo", || {
        "tab\there".into()
    }));
    let mut w = JournalWriter::create(&path, sr::obs::DEFAULT_MAX_BYTES).unwrap();
    w.meta(&[("command", "sim \"quoted\" \\ é\n"), ("period_us", "100")])
        .unwrap();
    w.recorder(&rec).unwrap();
    w.events(&[
        SimEvent {
            time_us: 0.1 + 0.2,
            kind: SimEventKind::LinkAcquired,
            message: 3,
            invocation: 0,
            channel: 17,
        },
        SimEvent {
            time_us: 97.25,
            kind: SimEventKind::OutputProduced,
            message: NO_ID,
            invocation: 2,
            channel: NO_ID,
        },
    ])
    .unwrap();
    w.flush().unwrap();
    let journal = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(parse_journal(&journal).skipped, 0);
    assert_eq!(journal.lines().count(), 6);
    for line in journal.lines() {
        // The journal's line reader sits on the same parser.
        sweep_truncations_and_flips(line.as_bytes(), &mut rng, |bytes| {
            reader_is_total(bytes);
            if let Ok(text) = std::str::from_utf8(bytes) {
                let _ = parse_journal(text);
            }
        });
    }

    for workload in ["torus4x4_dvb", "scale16_dvb", "serve"] {
        let baseline = std::fs::read(format!("{root}/results/metrics_baseline_{workload}.json"))
            .expect("baseline exists");
        assert!(parse(&baseline).is_ok());
        sweep_truncations_and_flips(&baseline, &mut rng, reader_is_total);
    }
}

/// A scalar value from every class the escaper and the reader treat
/// differently: ASCII (controls included), the escaped set, any plane.
fn char_of(x: u32) -> char {
    match x >> 30 {
        0 => char::from(x as u8 & 0x7f),
        1 => ['"', '\\', '/', '\n', '\r', '\t', '\0', '\u{1f}'][x as usize % 8],
        _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

proptest! {
    /// What `escape_json` writes, the reader gives back — for any string.
    #[test]
    fn escaped_strings_parse_back_to_the_input(
        words in prop::collection::vec(any::<u32>(), 0..96),
    ) {
        let s: String = words.iter().copied().map(char_of).collect();
        let doc = format!("\"{}\"", sr::obs::escape_json(&s));
        prop_assert_eq!(parse(doc.as_bytes()), Ok(Json::Str(s)));
    }

    /// Newest-wins retention: for any event sequence (including `NO_ID`
    /// sentinel fields) and any capacity, the ring retains exactly the
    /// last `min(n, capacity)` events in order, counts the overwrites,
    /// and the survivors round-trip through the journal bit-identically.
    #[test]
    fn ring_overflow_keeps_newest_and_journal_round_trips(
        capacity in 1usize..48,
        specs in prop::collection::vec(
            // The last value of the message/channel ranges maps to NO_ID.
            (0u64..1u64 << 52, 0u8..6, 0u32..65, 0u32..16, 0u32..129),
            0..160,
        ),
    ) {
        let kinds = [
            SimEventKind::MessageInjected,
            SimEventKind::HeaderBlocked,
            SimEventKind::LinkAcquired,
            SimEventKind::LinkReleased,
            SimEventKind::FlitDelivered,
            SimEventKind::OutputProduced,
        ];
        let events: Vec<SimEvent> = specs
            .iter()
            .map(|&(t, k, m, inv, ch)| SimEvent {
                time_us: t as f64 / 16.0,
                kind: kinds[k as usize],
                message: if m == 64 { NO_ID } else { m },
                invocation: inv,
                channel: if ch == 128 { NO_ID } else { ch },
            })
            .collect();

        let sink = RingEventSink::with_capacity(capacity);
        for e in &events {
            sink.record(*e);
        }
        let kept = sink.events();
        let expect_len = events.len().min(capacity.max(1));
        prop_assert_eq!(kept.len(), expect_len);
        prop_assert_eq!(
            sink.dropped(),
            events.len().saturating_sub(capacity.max(1)) as u64
        );
        // Exactly the newest `expect_len` events, in recording order.
        prop_assert_eq!(bits(&kept), bits(&events[events.len() - expect_len..]));

        // Survivors (with NO_ID sentinels) round-trip through journal text.
        let mut text = String::new();
        for e in &kept {
            let id = |v: u32| if v == NO_ID { "null".to_string() } else { v.to_string() };
            text.push_str(&format!(
                "{{\"t\":\"event\",\"time_us\":{},\"kind\":\"{}\",\"message\":{},\"invocation\":{},\"channel\":{}}}\n",
                e.time_us, e.kind.label(), id(e.message), id(e.invocation), id(e.channel)
            ));
        }
        let data = parse_journal(&text);
        prop_assert_eq!(data.skipped, 0);
        prop_assert_eq!(bits(&data.events), bits(&kept));
    }
}
