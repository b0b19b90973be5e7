//! The benchmark's own span recorder.
//!
//! Layers are measured from outside: the traced run wraps each call into a
//! layer's public function in a span. Spans are kept in memory and written
//! once, when the run ends, as Chrome-trace JSON. The timed run records none.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Spans of one traced run, on one thread (every workload is single
/// threaded).
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_us();
        self.tracer.spans.borrow_mut()[self.id].end_us = now;
        self.tracer.open.borrow_mut().pop();
    }
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    /// Sum of durations, ms. Only `bench.op` (one op's calls into the
    /// product) has child spans, and it is not reported, so for every layer
    /// this is also its self time.
    pub total_ms: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span named after the layer (`crate.module`) being called; its
    /// parent is the innermost span still open.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let start_us = self.now_us();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            parent,
            start_us,
            end_us: start_us,
        });
        self.open.borrow_mut().push(id);
        Guard { tracer: self, id }
    }

    /// Times one call inside a span and returns its result.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Totals per span name over the spans recorded from index `from` on.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for s in self.spans.borrow().iter().skip(from) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += (s.end_us - s.start_us) / 1e3;
        }
        out
    }

    /// The whole run in Chrome tracing's "trace event format": complete
    /// events with µs timestamps; `args.parent` is the index of the causing
    /// span.
    pub fn chrome_json(&self, process: &str) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
        ));
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
