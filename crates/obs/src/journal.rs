//! Persistent JSONL event journal: one self-describing JSON object per
//! line, appended to a file with bounded rotation, replayable offline.
//!
//! A live run holds its observability in memory ([`crate::MetricsRecorder`]
//! counters/spans, [`crate::RingEventSink`] events) and loses it at process
//! exit. The journal persists the same data as newline-delimited JSON so a
//! later process can re-analyze the run — feed the replayed events to
//! [`crate::analyze_oi`] or re-render a report — without re-simulating:
//!
//! * `{"t":"meta", ...}` — free-form string pairs naming the run;
//! * `{"t":"counter","k":...,"v":...}` — one line per counter;
//! * `{"t":"hist","k":...,"count":...,"mean":...,...}` — histogram summary;
//! * `{"t":"span","name":...,"start_us":...,"dur_us":...}` — one span;
//! * `{"t":"event","time_us":...,"kind":"inject",...}` — one [`SimEvent`].
//!
//! `f64` fields are written with Rust's shortest round-trip `Display`, so a
//! replayed value is **bit-identical** to the recorded one (this is what
//! makes offline [`crate::analyze_oi`] agree exactly with the live run).
//! [`NO_ID`] sentinels are written as JSON `null`.
//!
//! **Rotation**: when appending would push the file past the writer's byte
//! budget, the file is renamed to `<path>.1` (replacing any previous `.1`)
//! and a fresh file is started — total disk use stays under twice the
//! budget, newest data always wins (mirroring [`crate::RingEventSink`]).
//!
//! **Reading** is tolerant by design: a journal truncated mid-line (crash,
//! rotation race, ring overflow upstream) parses up to the damage;
//! malformed lines are counted in [`JournalData::skipped`], never a panic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::events::{SimEvent, SimEventKind, NO_ID};
use crate::json::{self, Json};
use crate::{escape_json, MetricsRecorder, Summary};

/// Default rotation budget: 8 MiB per journal file.
pub const DEFAULT_MAX_BYTES: u64 = 8 * 1024 * 1024;

/// Appends journal lines to a file with bounded rotation.
pub struct JournalWriter {
    path: PathBuf,
    max_bytes: u64,
    file: io::BufWriter<fs::File>,
    size: u64,
    lines: u64,
    rotations: u64,
}

impl JournalWriter {
    /// Opens `path` for appending, with at most `max_bytes` per file
    /// (clamped to ≥ 4 KiB; pass [`DEFAULT_MAX_BYTES`] normally). An
    /// existing file already over budget is rotated away immediately.
    pub fn create(path: impl Into<PathBuf>, max_bytes: u64) -> io::Result<JournalWriter> {
        let path = path.into();
        let max_bytes = max_bytes.max(4096);
        let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let mut w = JournalWriter {
            file: io::BufWriter::new(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?,
            ),
            size,
            path,
            max_bytes,
            lines: 0,
            rotations: 0,
        };
        if w.size >= w.max_bytes {
            w.rotate()?;
        }
        Ok(w)
    }

    /// Lines written through this writer (excludes pre-existing content).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// How many times the file was rotated to `<path>.1`.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.flush()?;
        let mut old = self.path.clone().into_os_string();
        old.push(".1");
        fs::rename(&self.path, &old)?;
        self.file = io::BufWriter::new(
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?,
        );
        self.size = 0;
        self.rotations += 1;
        Ok(())
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        if self.size + line.len() as u64 + 1 > self.max_bytes && self.size > 0 {
            self.rotate()?;
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.size += line.len() as u64 + 1;
        self.lines += 1;
        Ok(())
    }

    /// Writes one caller-rendered JSONL line through the same rotation
    /// machinery as the typed writers. The caller owns the vocabulary —
    /// the serve audit journal appends its `{"t":"audit",...}` records
    /// this way — but the line must be a single line (no `\n`).
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `line` contains a newline (it would tear the
    /// JSONL framing); otherwise propagates file I/O errors.
    pub fn raw(&mut self, line: &str) -> io::Result<()> {
        if line.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal line must not contain a newline",
            ));
        }
        self.write_line(line)
    }

    /// Writes one meta line from free-form string pairs (run id, command
    /// line, workload name, …).
    pub fn meta(&mut self, pairs: &[(&str, &str)]) -> io::Result<()> {
        let mut line = String::from("{\"t\":\"meta\"");
        for (k, v) in pairs {
            let _ = write!(line, ",\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        line.push('}');
        self.write_line(&line)
    }

    /// Writes one counter line.
    pub fn counter(&mut self, key: &str, value: u64) -> io::Result<()> {
        self.write_line(&format!(
            "{{\"t\":\"counter\",\"k\":\"{}\",\"v\":{value}}}",
            escape_json(key)
        ))
    }

    /// Writes one event line. [`NO_ID`] fields become `null`.
    pub fn event(&mut self, e: &SimEvent) -> io::Result<()> {
        fn id(v: u32) -> String {
            if v == NO_ID {
                "null".to_string()
            } else {
                v.to_string()
            }
        }
        self.write_line(&format!(
            "{{\"t\":\"event\",\"time_us\":{},\"kind\":\"{}\",\"message\":{},\
             \"invocation\":{},\"channel\":{}}}",
            e.time_us,
            e.kind.label(),
            id(e.message),
            id(e.invocation),
            id(e.channel)
        ))
    }

    /// Writes one event line per element of `events`, in order.
    pub fn events(&mut self, events: &[SimEvent]) -> io::Result<()> {
        for e in events {
            self.event(e)?;
        }
        Ok(())
    }

    /// Persists a recorder's full state: every counter (sorted by name),
    /// every histogram summary (sorted by name), then every span in begin
    /// order. Span numeric annotations are folded into a compact
    /// `key=value` detail suffix (journal lines stay flat objects).
    pub fn recorder(&mut self, rec: &MetricsRecorder) -> io::Result<()> {
        let now = rec.now_us();
        let inner = rec.lock();
        for (k, v) in &inner.counters {
            self.counter(k, *v)?;
        }
        for (k, samples) in &inner.histograms {
            let s = Summary::of(samples);
            self.write_line(&format!(
                "{{\"t\":\"hist\",\"k\":\"{}\",\"count\":{},\"mean\":{},\"p50\":{},\
                 \"p95\":{},\"max\":{}}}",
                escape_json(k),
                s.count,
                s.mean,
                s.p50,
                s.p95,
                s.max
            ))?;
        }
        for s in &inner.spans {
            let mut detail = s.detail.clone();
            for (k, v) in &s.args {
                if !detail.is_empty() {
                    detail.push(' ');
                }
                let _ = write!(detail, "{k}={v}");
            }
            let dur = s
                .dur_us
                .map(|d| d.to_string())
                .unwrap_or_else(|| (now - s.start_us).max(0.0).to_string());
            self.write_line(&format!(
                "{{\"t\":\"span\",\"name\":\"{}\",\"detail\":\"{}\",\"tid\":{},\
                 \"start_us\":{},\"dur_us\":{dur}}}",
                escape_json(&s.name),
                escape_json(&detail),
                s.tid,
                s.start_us
            ))?;
        }
        Ok(())
    }

    /// Flushes buffered lines to disk. Called automatically on drop (where
    /// errors are ignored); call explicitly to observe write failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        let _ = self.file.flush();
    }
}

/// One span replayed from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSpan {
    /// Span name.
    pub name: String,
    /// Detail text (with numeric annotations folded in as `key=value`).
    pub detail: String,
    /// Recording thread's track id.
    pub tid: u64,
    /// Start time, µs since the recorder's epoch.
    pub start_us: f64,
    /// Duration, µs (open spans were journaled with their elapsed time).
    pub dur_us: f64,
}

/// Everything replayed from one journal file.
#[derive(Debug, Clone, Default)]
pub struct JournalData {
    /// Union of all meta lines' string pairs (later lines win).
    pub meta: BTreeMap<String, String>,
    /// Replayed counters (a key journaled twice sums, matching counter
    /// semantics).
    pub counters: BTreeMap<String, u64>,
    /// Replayed histogram summaries by name.
    pub histograms: BTreeMap<String, Summary>,
    /// Replayed spans in journal order.
    pub spans: Vec<JournalSpan>,
    /// Replayed simulation events in journal order.
    pub events: Vec<SimEvent>,
    /// Lines that failed to parse (truncated tail, corruption) and were
    /// skipped.
    pub skipped: usize,
}

/// Reads and parses a journal file. Only I/O failures are errors; malformed
/// content is skipped and counted (see [`JournalData::skipped`]).
pub fn read_journal(path: &Path) -> io::Result<JournalData> {
    Ok(parse_journal(&fs::read_to_string(path)?))
}

/// Parses journal text (see [`read_journal`]).
pub fn parse_journal(text: &str) -> JournalData {
    let mut data = JournalData::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if parse_line(line, &mut data).is_none() {
            data.skipped += 1;
        }
    }
    data
}

/// `null` maps to [`NO_ID`], matching the writer's encoding.
fn as_id(v: &Json) -> Option<u32> {
    match v {
        Json::Null => Some(NO_ID),
        Json::Num(v) if *v >= 0.0 && *v <= f64::from(u32::MAX) => Some(*v as u32),
        _ => None,
    }
}

/// Folds one journal line into `data`; `None` (counted as skipped) for
/// anything that is not a JSON object of a known `t` with its fields.
fn parse_line(line: &str, data: &mut JournalData) -> Option<()> {
    let doc = json::parse(line.as_bytes()).ok()?;
    let obj = doc.as_obj()?;
    let text = |k: &str| obj.get(k)?.as_str();
    let num = |k: &str| obj.get(k)?.as_num();
    match text("t")? {
        "meta" => {
            for (k, v) in obj {
                if k != "t" {
                    if let Json::Str(s) = v {
                        data.meta.insert(k.clone(), s.clone());
                    }
                }
            }
        }
        "counter" => {
            let k = text("k")?.to_string();
            let v = num("v")?;
            if v < 0.0 || v.fract() != 0.0 {
                return None;
            }
            *data.counters.entry(k).or_insert(0) += v as u64;
        }
        "hist" => {
            data.histograms.insert(
                text("k")?.to_string(),
                Summary {
                    count: num("count")? as usize,
                    mean: num("mean")?,
                    p50: num("p50")?,
                    p95: num("p95")?,
                    max: num("max")?,
                },
            );
        }
        "span" => {
            data.spans.push(JournalSpan {
                name: text("name")?.to_string(),
                detail: text("detail").unwrap_or_default().to_string(),
                tid: num("tid")? as u64,
                start_us: num("start_us")?,
                dur_us: num("dur_us")?,
            });
        }
        "event" => {
            let kind = match text("kind")? {
                "inject" => SimEventKind::MessageInjected,
                "blocked" => SimEventKind::HeaderBlocked,
                "acquire" => SimEventKind::LinkAcquired,
                "release" => SimEventKind::LinkReleased,
                "deliver" => SimEventKind::FlitDelivered,
                "output" => SimEventKind::OutputProduced,
                _ => return None,
            };
            data.events.push(SimEvent {
                time_us: num("time_us")?,
                kind,
                message: as_id(obj.get("message")?)?,
                invocation: as_id(obj.get("invocation")?)?,
                channel: as_id(obj.get("channel")?)?,
            });
        }
        _ => return None,
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn ev(t: f64, kind: SimEventKind, m: u32, inv: u32, ch: u32) -> SimEvent {
        SimEvent {
            time_us: t,
            kind,
            message: m,
            invocation: inv,
            channel: ch,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sr_obs_journal_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn events_round_trip_bit_identically() {
        let path = tmp("roundtrip");
        let _ = fs::remove_file(&path);
        let events = vec![
            ev(0.1 + 0.2, SimEventKind::MessageInjected, 3, 0, NO_ID),
            ev(1.0 / 3.0, SimEventKind::LinkAcquired, 3, 0, 17),
            ev(f64::MAX / 1e300, SimEventKind::LinkReleased, 3, 0, 17),
            ev(5e-324, SimEventKind::FlitDelivered, 3, 0, NO_ID),
            ev(97.25, SimEventKind::OutputProduced, NO_ID, 2, NO_ID),
            ev(99.0, SimEventKind::HeaderBlocked, 1, 1, 4),
        ];
        let mut w = JournalWriter::create(&path, DEFAULT_MAX_BYTES).unwrap();
        w.meta(&[("command", "test \"quoted\""), ("period_us", "100")])
            .unwrap();
        w.events(&events).unwrap();
        w.flush().unwrap();
        let data = read_journal(&path).unwrap();
        assert_eq!(data.skipped, 0);
        // Bit-identical f64 round-trip: shortest Display → parse is exact.
        assert_eq!(data.events, events);
        assert_eq!(data.meta["command"], "test \"quoted\"");
        assert_eq!(data.meta["period_us"], "100");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn recorder_state_round_trips() {
        let path = tmp("recorder");
        let _ = fs::remove_file(&path);
        let rec = MetricsRecorder::new();
        rec.add("sim.outputs", 42);
        rec.add("compile.messages", 7);
        rec.observe("demo.latency_us", 2.0);
        rec.observe("demo.latency_us", 4.0);
        {
            let span = crate::span_with(&rec, "phase.demo", || "detail".into());
            span.annotate("pivots", 3.0);
        }
        let mut w = JournalWriter::create(&path, DEFAULT_MAX_BYTES).unwrap();
        w.recorder(&rec).unwrap();
        w.flush().unwrap();
        let data = read_journal(&path).unwrap();
        assert_eq!(data.skipped, 0);
        assert_eq!(data.counters, rec.counters());
        assert_eq!(data.histograms["demo.latency_us"].count, 2);
        assert_eq!(data.histograms["demo.latency_us"].mean, 3.0);
        assert_eq!(data.spans.len(), 1);
        assert_eq!(data.spans[0].name, "phase.demo");
        assert_eq!(data.spans[0].detail, "detail pivots=3");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rotation_bounds_disk_use_and_keeps_newest() {
        let path = tmp("rotate");
        let mut old = path.clone().into_os_string();
        old.push(".1");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&old);
        // Budget is clamped to 4096; write well past two budgets' worth.
        let mut w = JournalWriter::create(&path, 0).unwrap();
        for i in 0..400u32 {
            w.event(&ev(i as f64, SimEventKind::MessageInjected, i, 0, NO_ID))
                .unwrap();
        }
        w.flush().unwrap();
        assert!(w.rotations() >= 1);
        assert!(fs::metadata(&path).unwrap().len() <= 4096);
        assert!(fs::metadata(&old).unwrap().len() <= 4096);
        // The live file holds the newest events.
        let data = read_journal(&path).unwrap();
        assert_eq!(data.skipped, 0);
        assert_eq!(data.events.last().unwrap().message, 399);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&old);
    }

    #[test]
    fn rotation_at_the_byte_boundary_never_tears_a_record() {
        let path = tmp("boundary");
        let mut old = path.clone().into_os_string();
        old.push(".1");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&old);
        // Records sized so one lands exactly astride the (clamped 4 KiB)
        // budget: the writer must rotate *between* records, leaving every
        // line whole in exactly one of the two files.
        // 45 records × ~144 bytes ≈ 6.5 KiB: past one budget (forcing a
        // rotation) but under two (so no record is dropped, only moved).
        let mut w = JournalWriter::create(&path, 0).unwrap();
        let total = 45u64;
        for i in 0..total {
            w.counter(&format!("boundary.key.{i:04}.{}", "x".repeat(97)), i)
                .unwrap();
        }
        w.flush().unwrap();
        assert_eq!(w.lines(), total);
        assert!(w.rotations() >= 1, "budget was never exceeded");
        let rotated = fs::read_to_string(&old).unwrap();
        let live = fs::read_to_string(&path).unwrap();
        // Both files end on a record boundary and respect the budget.
        assert!(rotated.ends_with('\n') && live.ends_with('\n'));
        assert!(rotated.len() as u64 <= 4096);
        // Every record parses whole from one file; together they are the
        // full write sequence in order.
        let both = format!("{rotated}{live}");
        let data = parse_journal(&both);
        assert_eq!(data.skipped, 0);
        assert_eq!(data.counters.len(), total as usize);
        for i in 0..total {
            assert_eq!(
                data.counters[&format!("boundary.key.{i:04}.{}", "x".repeat(97))],
                i
            );
        }
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&old);
    }

    #[test]
    fn raw_lines_ride_the_same_rotation_and_reject_newlines() {
        let path = tmp("raw");
        let _ = fs::remove_file(&path);
        let mut w = JournalWriter::create(&path, DEFAULT_MAX_BYTES).unwrap();
        w.raw("{\"t\":\"audit\",\"op\":\"admit\",\"tenant\":\"t0\"}")
            .unwrap();
        assert!(w.raw("{\"t\":\"audit\"}\n{\"t\":\"audit\"}").is_err());
        w.flush().unwrap();
        assert_eq!(w.lines(), 1);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"t\":\"audit\",\"op\":\"admit\",\"tenant\":\"t0\"}\n"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn malformed_and_truncated_lines_are_skipped_not_fatal() {
        let text = concat!(
            "{\"t\":\"counter\",\"k\":\"a\",\"v\":1}\n",
            "not json at all\n",
            "{\"t\":\"event\",\"kind\":\"nonsense\",\"time_us\":1,\
             \"message\":0,\"invocation\":0,\"channel\":0}\n",
            "{\"t\":\"counter\",\"k\":\"a\",\"v\":2}\n",
            "{\"t\":\"event\",\"time_us\":3.5,\"kind\":\"output\",\"message\":null,\
             \"invocation\":0,\"channel\":null}\n",
            "{\"t\":\"event\",\"time_us\":4.0,\"kind\":\"inj", // truncated mid-line
        );
        let data = parse_journal(text);
        assert_eq!(data.skipped, 3);
        // Counter lines sum (counter semantics).
        assert_eq!(data.counters["a"], 3);
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.events[0].message, NO_ID);
        assert_eq!(data.events[0].channel, NO_ID);
        assert_eq!(data.events[0].kind, SimEventKind::OutputProduced);
    }

    #[test]
    fn append_across_writers_accumulates() {
        let path = tmp("append");
        let _ = fs::remove_file(&path);
        {
            let mut w = JournalWriter::create(&path, DEFAULT_MAX_BYTES).unwrap();
            w.counter("runs", 1).unwrap();
        }
        {
            let mut w = JournalWriter::create(&path, DEFAULT_MAX_BYTES).unwrap();
            w.counter("runs", 1).unwrap();
        }
        let data = read_journal(&path).unwrap();
        assert_eq!(data.counters["runs"], 2);
        let _ = fs::remove_file(&path);
    }
}
