//! Structured observability for the scheduled-routing pipeline: **spans**
//! (timed, nested regions), **counters** (monotonic `u64` sums), and
//! **histograms** (raw `f64` samples summarized as order statistics), all
//! behind the object-safe, thread-safe [`Recorder`] trait.
//!
//! The design constraint is the compiler's bit-identical-results guarantee:
//! `sr_core::compile` speculatively evaluates `(seed, scale)` candidates on
//! worker threads, and instrumentation must neither perturb that search nor
//! cost anything when disabled. Hence:
//!
//! * the default recorder is [`NoopRecorder`] (available as the [`NOOP`]
//!   static): every method is an empty inline body, and [`span_with`] skips
//!   even the `format!` for the span detail when [`Recorder::enabled`] is
//!   false, so uninstrumented runs pay one virtual call per span site;
//! * [`MetricsRecorder`] is `Sync` (one `Mutex` around all state) so worker
//!   threads record concurrently; each thread gets its own track (`tid`) in
//!   the exported trace;
//! * counter **names** carry the determinism contract: counters whose value
//!   depends on thread count or scheduling are namespaced under `par.`;
//!   everything else is emitted from the compiler's deterministic selection
//!   walk and is identical for any `parallelism` setting (tested by
//!   `tests/obs_determinism.rs` in the workspace).
//!
//! Exports: [`MetricsRecorder::chrome_trace_json`] produces the Chrome
//! tracing / Perfetto JSON array format (load via `chrome://tracing`),
//! [`MetricsRecorder::metrics_table`] a human-readable table, and
//! [`MetricsRecorder::metrics_json`] a machine-readable summary for benches.
//! Reading any of it back — and every other JSON document the workspace
//! parses — goes through the one reader in [`json`].
//!
//! # Examples
//!
//! ```
//! use sr_obs::{MetricsRecorder, Recorder};
//!
//! let rec = MetricsRecorder::new();
//! {
//!     let span = sr_obs::span_with(&rec, "phase.demo", || "unit test".into());
//!     span.annotate("pivots", 3.0);
//!     rec.add("demo.widgets", 2);
//!     rec.observe("demo.latency_us", 12.5);
//! }
//! assert_eq!(rec.counter("demo.widgets"), 2);
//! assert!(rec.chrome_trace_json().contains("\"phase.demo\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod journal;
pub mod json;
mod oi;
mod prometheus;

pub use events::{
    EventSink, NoopEventSink, RingEventSink, SimEvent, SimEventKind, NO_EVENTS, NO_ID,
};
pub use journal::{
    parse_journal, read_journal, JournalData, JournalSpan, JournalWriter, DEFAULT_MAX_BYTES,
};
pub use oi::{analyze_oi, MessageSlack, OiReport, Stall};
pub use prometheus::CounterSnapshot;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Handle to an in-flight span, returned by [`Recorder::begin_span`].
///
/// [`SpanId::NONE`] is the sentinel a disabled recorder hands out; every
/// other method treats it as "do nothing".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The "no span" sentinel (what [`NoopRecorder`] always returns).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A thread-safe sink for spans, counters, and histogram samples.
///
/// Implementations must be cheap to call from worker threads; the compiler
/// holds a `&dyn Recorder` and calls it from inside the speculative
/// candidate search. See [`NoopRecorder`] for the zero-overhead default and
/// [`MetricsRecorder`] for the collecting implementation.
pub trait Recorder: Send + Sync {
    /// Whether this recorder stores anything. Callers use this to skip
    /// building span details (string formatting) for disabled recorders.
    fn enabled(&self) -> bool;

    /// Opens a span named `name` (a `'static`-style dotted identifier) with
    /// free-form `detail`, on the calling thread's track, and returns its
    /// id. Close it with [`Recorder::end_span`] — or use the [`span_with`]
    /// RAII helper.
    fn begin_span(&self, name: &str, detail: &str) -> SpanId;

    /// Closes an open span. Ignores [`SpanId::NONE`] and unknown ids.
    fn end_span(&self, id: SpanId);

    /// Attaches a numeric argument to an open span (rendered under `args`
    /// in the Chrome trace). Ignores [`SpanId::NONE`] and closed spans.
    fn annotate(&self, id: SpanId, key: &str, value: f64);

    /// Adds `delta` to the counter `name` (created at zero on first use).
    fn add(&self, name: &str, delta: u64);

    /// Records one sample into the histogram `name`.
    fn observe(&self, name: &str, value: f64);
}

/// The zero-overhead default recorder: every method is an empty body.
///
/// Use the [`NOOP`] static to avoid constructing one.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

/// A ready-made [`NoopRecorder`] to pass as `&sr_obs::NOOP`.
pub static NOOP: NoopRecorder = NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn begin_span(&self, _name: &str, _detail: &str) -> SpanId {
        SpanId::NONE
    }
    fn end_span(&self, _id: SpanId) {}
    fn annotate(&self, _id: SpanId, _key: &str, _value: f64) {}
    fn add(&self, _name: &str, _delta: u64) {}
    fn observe(&self, _name: &str, _value: f64) {}
}

/// RAII guard that ends its span on drop. Created by [`span`]/[`span_with`].
pub struct SpanGuard<'a> {
    rec: &'a dyn Recorder,
    id: SpanId,
}

impl SpanGuard<'_> {
    /// The underlying span id ([`SpanId::NONE`] when recording is off).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attaches a numeric argument to the span (no-op when disabled).
    pub fn annotate(&self, key: &str, value: f64) {
        if !self.id.is_none() {
            self.rec.annotate(self.id, key, value);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.id.is_none() {
            self.rec.end_span(self.id);
        }
    }
}

/// Opens a span with no detail text; ended when the guard drops.
pub fn span<'a>(rec: &'a dyn Recorder, name: &str) -> SpanGuard<'a> {
    span_with(rec, name, String::new)
}

/// Opens a span whose detail is built lazily — `detail` only runs when the
/// recorder is enabled, so disabled runs pay no formatting cost.
pub fn span_with<'a, F>(rec: &'a dyn Recorder, name: &str, detail: F) -> SpanGuard<'a>
where
    F: FnOnce() -> String,
{
    let id = if rec.enabled() {
        rec.begin_span(name, &detail())
    } else {
        SpanId::NONE
    };
    SpanGuard { rec, id }
}

/// One recorded span (closed or still open), as stored by
/// [`MetricsRecorder`] and returned by [`MetricsRecorder::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (the dotted identifier passed to `begin_span`).
    pub name: String,
    /// Free-form detail text.
    pub detail: String,
    /// Track id: 1 + the order in which the recording thread was first
    /// seen (the main thread is usually 1).
    pub tid: u64,
    /// Start time, µs since the recorder was created.
    pub start_us: f64,
    /// Duration, µs; `None` while the span is still open.
    pub dur_us: Option<f64>,
    /// Numeric arguments attached via `annotate`, in attachment order.
    pub args: Vec<(String, f64)>,
}

/// Order statistics of one histogram, from
/// [`MetricsRecorder::histogram_summary`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample set (need not be sorted). NaN samples are
    /// dropped — they would otherwise sort above `+inf` under
    /// [`f64::total_cmp`] and poison `max`/`mean`. Empty input (or
    /// all-NaN input) gives the all-zero summary.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return Summary::default();
        }
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty slice:
/// the smallest element with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Vec<f64>>,
    spans: Vec<SpanRecord>,
    /// Open spans: `(span id, index into spans)`. Small at any instant
    /// (bounded by live nesting × threads), so linear scans suffice.
    open: Vec<(u64, usize)>,
    threads: Vec<ThreadId>,
    next_id: u64,
}

impl Inner {
    fn tid(&mut self, thread: ThreadId) -> u64 {
        match self.threads.iter().position(|&t| t == thread) {
            Some(i) => i as u64 + 1,
            None => {
                self.threads.push(thread);
                self.threads.len() as u64
            }
        }
    }
}

/// A collecting [`Recorder`]: one mutex around counters, histograms, and
/// the span list, with per-thread track assignment and µs timestamps
/// relative to construction.
///
/// Rendering methods ([`MetricsRecorder::chrome_trace_json`],
/// [`MetricsRecorder::metrics_table`], [`MetricsRecorder::metrics_json`])
/// may be called at any time; spans still open are exported with their
/// duration measured up to the moment of export.
pub struct MetricsRecorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new()
    }
}

impl MetricsRecorder {
    /// A fresh, empty recorder; its clock starts now.
    pub fn new() -> Self {
        MetricsRecorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Recording closures never panic while holding the lock; if one
        // somehow did, the data is read-mostly and still usable.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.lock().counters.clone()
    }

    /// Summary of one histogram, or `None` if it has no samples.
    pub fn histogram_summary(&self, name: &str) -> Option<Summary> {
        self.lock()
            .histograms
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| Summary::of(v))
    }

    /// Snapshot of every span recorded so far, in begin order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// The full trace in Chrome tracing JSON ("trace event format"):
    /// complete (`"ph":"X"`) events with µs timestamps, one `tid` per
    /// recording thread, span details and numeric annotations under
    /// `args`. Load the file via `chrome://tracing` or Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        self.chrome_trace_json_with_events(&[])
    }

    /// Like [`MetricsRecorder::chrome_trace_json`], but interleaves a
    /// simulation [`SimEvent`] stream into the same trace document:
    /// compile spans stay on pid 1 (wall-clock µs) while the simulation
    /// narrates itself on pid 2 (simulated µs), one track per directed
    /// channel, link occupancy as complete events and the point events
    /// (inject / block / deliver / output) as instants. The two processes
    /// use different time bases — compare shapes, not absolute offsets.
    pub fn chrome_trace_json_with_events(&self, events: &[SimEvent]) -> String {
        let now = self.now_us();
        let inner = self.lock();
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"srsched\"}}",
        );
        for s in &inner.spans {
            let dur = s.dur_us.unwrap_or_else(|| (now - s.start_us).max(0.0));
            out.push_str(",\n");
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"sr\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{",
                escape_json(&s.name),
                s.start_us,
                dur,
                s.tid
            );
            let mut first = true;
            if !s.detail.is_empty() {
                let _ = write!(out, "\"detail\":\"{}\"", escape_json(&s.detail));
                first = false;
            }
            for (k, v) in &s.args {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", escape_json(k), json_num(*v));
                first = false;
            }
            out.push_str("}}");
        }
        out.push_str(&events::events_chrome_entries(events));
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// A human-readable metrics table (counters, histogram summaries, and
    /// per-name span totals). Rows are sorted by name, so the layout — and,
    /// for counters outside the `par.` namespace, the values — are
    /// deterministic regardless of thread count.
    pub fn metrics_table(&self) -> String {
        let now = self.now_us();
        let inner = self.lock();
        let mut out = String::new();
        if !inner.counters.is_empty() {
            let _ = writeln!(out, "{:<44} {:>12}", "counter", "value");
            for (name, v) in &inner.counters {
                let _ = writeln!(out, "{name:<44} {v:>12}");
            }
        }
        if !inner.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:<44} {:>7} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean", "p50", "p95", "max"
            );
            for (name, samples) in &inner.histograms {
                let s = Summary::of(samples);
                let _ = writeln!(
                    out,
                    "{name:<44} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                    s.count, s.mean, s.p50, s.p95, s.max
                );
            }
        }
        let agg = aggregate_spans(&inner.spans, now);
        if !agg.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:<44} {:>7} {:>12} {:>12}",
                "span", "count", "total µs", "mean µs"
            );
            for (name, (count, total)) in &agg {
                let _ = writeln!(
                    out,
                    "{name:<44} {count:>7} {total:>12.1} {:>12.1}",
                    total / *count as f64
                );
            }
        }
        out
    }

    /// Machine-readable metrics JSON: counters verbatim, histograms as
    /// summaries, spans aggregated per name. Emitted by `sr-bench` next to
    /// the `BENCH_*.json` timing files.
    pub fn metrics_json(&self) -> String {
        let now = self.now_us();
        let inner = self.lock();
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in inner.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": {v}",
                if i == 0 { "" } else { "," },
                escape_json(name)
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, samples)) in inner.histograms.iter().enumerate() {
            let s = Summary::of(samples);
            let _ = write!(
                out,
                "{}\n    \"{}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \
                 \"p95\": {}, \"max\": {}}}",
                if i == 0 { "" } else { "," },
                escape_json(name),
                s.count,
                json_num(s.mean),
                json_num(s.p50),
                json_num(s.p95),
                json_num(s.max)
            );
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, (name, (count, total))) in aggregate_spans(&inner.spans, now).iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": {{\"count\": {count}, \"total_us\": {}}}",
                if i == 0 { "" } else { "," },
                escape_json(name),
                json_num(*total)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn begin_span(&self, name: &str, detail: &str) -> SpanId {
        let start_us = self.now_us();
        let thread = std::thread::current().id();
        let mut inner = self.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        let tid = inner.tid(thread);
        let idx = inner.spans.len();
        inner.spans.push(SpanRecord {
            name: name.to_string(),
            detail: detail.to_string(),
            tid,
            start_us,
            dur_us: None,
            args: Vec::new(),
        });
        inner.open.push((id, idx));
        SpanId(id)
    }

    fn end_span(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let end_us = self.now_us();
        let mut inner = self.lock();
        if let Some(pos) = inner.open.iter().position(|&(oid, _)| oid == id.0) {
            let (_, idx) = inner.open.swap_remove(pos);
            let span = &mut inner.spans[idx];
            span.dur_us = Some((end_us - span.start_us).max(0.0));
        }
    }

    fn annotate(&self, id: SpanId, key: &str, value: f64) {
        if id.is_none() {
            return;
        }
        let mut inner = self.lock();
        if let Some(&(_, idx)) = inner.open.iter().find(|&&(oid, _)| oid == id.0) {
            inner.spans[idx].args.push((key.to_string(), value));
        }
    }

    fn add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn observe(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(v) => v.push(value),
            None => {
                inner.histograms.insert(name.to_string(), vec![value]);
            }
        }
    }
}

/// Per-name `(count, total duration µs)` over all spans, sorted by name.
/// Open spans contribute their elapsed time up to `now`.
fn aggregate_spans(spans: &[SpanRecord], now: f64) -> BTreeMap<String, (usize, f64)> {
    let mut agg: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.dur_us.unwrap_or_else(|| (now - s.start_us).max(0.0));
        let e = agg.entry(s.name.clone()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += dur;
    }
    agg
}

/// Escapes a string for inclusion inside JSON double quotes — the one
/// escaper behind every format-string emitter in the workspace (traces,
/// journals, protocol responses, bench artifacts). [`json::parse`] reads
/// back exactly what went in.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (JSON has no NaN/Infinity — clamp to
/// 0 / the largest finite magnitudes so output always parses).
///
/// Public for the same reason as [`escape_json`]: one JSON number format
/// across every emitter in the workspace.
pub fn json_num(v: f64) -> String {
    if v.is_nan() {
        "0".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            format!("{:e}", f64::MAX)
        } else {
            format!("{:e}", f64::MIN)
        }
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_inert() {
        assert!(!NOOP.enabled());
        let id = NOOP.begin_span("x", "y");
        assert!(id.is_none());
        NOOP.annotate(id, "k", 1.0);
        NOOP.end_span(id);
        NOOP.add("c", 5);
        NOOP.observe("h", 1.0);
        // span_with must not even build the detail string.
        let _g = span_with(&NOOP, "x", || panic!("detail built for a noop"));
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let r = MetricsRecorder::new();
        r.add("b.two", 2);
        r.add("a.one", 1);
        r.add("b.two", 3);
        assert_eq!(r.counter("b.two"), 5);
        assert_eq!(r.counter("absent"), 0);
        let names: Vec<String> = r.counters().into_keys().collect();
        assert_eq!(names, vec!["a.one".to_string(), "b.two".to_string()]);
    }

    #[test]
    fn histogram_summary_statistics() {
        let r = MetricsRecorder::new();
        for v in [4.0, 1.0, 3.0, 2.0, 100.0] {
            r.observe("h", v);
        }
        let s = r.histogram_summary("h").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 100.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 22.0).abs() < 1e-12);
        assert!(r.histogram_summary("absent").is_none());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 0.76), 4.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [1.0, 2.0, 3.0, 4.0];
        // q = 0 clamps to the first element, q = 1 to the last.
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[5.0], 0.0), 5.0);
        assert_eq!(percentile(&[5.0], 1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty sample set")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn summary_empty_input() {
        let s = Summary::of(&[]);
        assert_eq!(s, Summary::default());
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p95, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn summary_filters_nan() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0, f64::NAN]);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(!s.p95.is_nan());
        // All-NaN behaves like empty.
        assert_eq!(Summary::of(&[f64::NAN]), Summary::default());
    }

    #[test]
    fn spans_nest_and_annotate() {
        let r = MetricsRecorder::new();
        {
            let outer = span_with(&r, "outer", || "o".into());
            {
                let inner = span(&r, "inner");
                inner.annotate("pivots", 42.0);
            }
            outer.annotate("k", 1.0);
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].detail, "o");
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].args, vec![("pivots".to_string(), 42.0)]);
        // Inner is contained in outer on the same tid.
        assert_eq!(spans[0].tid, spans[1].tid);
        let (o, i) = (&spans[0], &spans[1]);
        assert!(i.start_us >= o.start_us);
        assert!(i.start_us + i.dur_us.unwrap() <= o.start_us + o.dur_us.unwrap() + 1e-9);
    }

    #[test]
    fn annotate_after_end_is_ignored() {
        let r = MetricsRecorder::new();
        let id = r.begin_span("s", "");
        r.end_span(id);
        r.annotate(id, "late", 1.0);
        assert!(r.spans()[0].args.is_empty());
        // Double end is harmless.
        r.end_span(id);
    }

    #[test]
    fn chrome_trace_shape() {
        let r = MetricsRecorder::new();
        {
            let s = span_with(&r, "phase.x", || "detail \"quoted\"".into());
            s.annotate("pivots", 7.0);
        }
        let json = r.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":"));
        assert!(json.contains("\"dur\":"));
        assert!(json.contains("\"pivots\":7"));
        assert!(json.contains("detail \\\"quoted\\\""));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
        // An untouched recorder exports only the process-name metadata.
        let empty = MetricsRecorder::new().chrome_trace_json();
        assert!(!empty.contains("\"ph\":\"X\""));
    }

    #[test]
    fn chrome_trace_interleaves_sim_events() {
        let r = MetricsRecorder::new();
        {
            let _s = span(&r, "compile");
        }
        let events = [
            SimEvent {
                time_us: 1.0,
                kind: SimEventKind::LinkAcquired,
                message: 3,
                invocation: 0,
                channel: 2,
            },
            SimEvent {
                time_us: 5.0,
                kind: SimEventKind::LinkReleased,
                message: 3,
                invocation: 0,
                channel: 2,
            },
        ];
        let json = r.chrome_trace_json_with_events(&events);
        assert!(json.contains("\"compile\""));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"simulation\""));
        assert!(json.contains("M3/i0"));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn open_spans_export_with_elapsed_duration() {
        let r = MetricsRecorder::new();
        let _id = r.begin_span("open", "");
        let json = r.chrome_trace_json();
        assert!(json.contains("\"open\""));
        assert!(json.contains("\"dur\":"));
        let table = r.metrics_table();
        assert!(table.contains("open"));
    }

    #[test]
    fn table_and_json_render() {
        let r = MetricsRecorder::new();
        r.add("search.candidates_walked", 3);
        r.observe("blocked_us", 5.0);
        {
            let _s = span(&r, "compile");
        }
        let table = r.metrics_table();
        assert!(table.contains("counter"));
        assert!(table.contains("search.candidates_walked"));
        assert!(table.contains("histogram"));
        assert!(table.contains("span"));
        let json = r.metrics_json();
        assert!(json.contains("\"search.candidates_walked\": 3"));
        assert!(json.contains("\"blocked_us\""));
        assert!(json.contains("\"compile\""));
        assert!(json.contains("\"total_us\""));
        // Empty recorder renders empty-but-valid documents.
        let empty = MetricsRecorder::new();
        assert!(empty.metrics_table().is_empty());
        assert!(empty.metrics_json().contains("\"counters\""));
    }

    #[test]
    fn metrics_table_emits_counters_in_sorted_key_order() {
        // Pinned guarantee for the CLI's `--metrics` table: rows are
        // sorted by name no matter the insertion (or thread) order, so
        // two runs of the same workload diff cleanly.
        let r = MetricsRecorder::new();
        for name in [
            "sim.flits",
            "compile.candidates",
            "par.tasks",
            "alloc_flow.dijkstra_pops",
        ] {
            r.add(name, 1);
        }
        let table = r.metrics_table();
        let rows: Vec<&str> = table
            .lines()
            .skip(1) // header
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(
            rows,
            vec![
                "alloc_flow.dijkstra_pops",
                "compile.candidates",
                "par.tasks",
                "sim.flits"
            ]
        );
    }

    #[test]
    fn threads_get_distinct_tids() {
        let r = MetricsRecorder::new();
        {
            let _main = span(&r, "main");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = span(&r, "worker");
                });
            });
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid);
    }

    #[test]
    fn json_num_stays_finite() {
        assert_eq!(json_num(f64::NAN), "0");
        assert!(!json_num(f64::INFINITY).contains("inf"));
        assert_eq!(json_num(1.5), "1.5");
    }
}
