//! The resident daemon: frame transport, request dispatch, and the
//! process entry points (`--stdio` and Unix socket).
//!
//! # Framing
//!
//! Both transports speak the same trivial binary framing: each request and
//! each response is one JSON document prefixed by its byte length as a
//! 32-bit big-endian integer. Frames above [`MAX_FRAME`] are rejected with
//! an `oversized` error — the payload is drained (so the connection
//! survives) but never buffered.
//!
//! # No-panic contract
//!
//! Nothing reachable from request bytes may take the daemon down: parsing
//! is total, the engine returns typed errors, and dispatch additionally
//! runs under `catch_unwind` as a last-resort backstop that converts any
//! latent bug into an `internal` error response (and a
//! `serve.errors.internal` counter hit).

use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::audit::{
    ledger_hash, render_admit_record, render_evict_record, render_reject_record, spans_hash,
    Fingerprint, FINGERPRINT_KEY,
};
use crate::engine::{AdmitError, AdmitReport, Engine, EvictError, Rejection, TenantSpec};
use crate::error::{ErrorKind, ServeError};
use crate::http::{self, OpsState};
use crate::protocol::{
    admit_error, parse_request, render_admit, render_batch, render_list, render_query, Request,
};
use sr_obs::json::parse;
use sr_obs::{escape_json, CounterSnapshot, JournalWriter, MetricsRecorder, Recorder};

/// Maximum accepted frame payload, bytes (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// One frame-read outcome.
#[derive(Debug)]
pub enum FrameRead {
    /// Clean end of stream (no partial prefix).
    Eof,
    /// The prefix announced more than [`MAX_FRAME`] bytes; the payload was
    /// drained and discarded.
    Oversized(usize),
    /// A complete frame payload.
    Frame(Vec<u8>),
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates transport I/O errors (including a stream that ends inside a
/// prefix or payload, surfaced as [`io::ErrorKind::UnexpectedEof`]).
pub fn read_frame(reader: &mut dyn Read) -> io::Result<FrameRead> {
    let mut prefix = [0u8; 4];
    match reader.read(&mut prefix[..1])? {
        0 => return Ok(FrameRead::Eof),
        _ => reader.read_exact(&mut prefix[1..])?,
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        // Drain without buffering so the connection stays usable.
        io::copy(&mut reader.take(len as u64), &mut io::sink())?;
        return Ok(FrameRead::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(FrameRead::Frame(payload))
}

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// Propagates transport I/O errors.
pub fn write_frame(writer: &mut dyn Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload.as_bytes())?;
    writer.flush()
}

/// The daemon: an [`Engine`], its metrics recorder, the scrape cursor,
/// and the optional out-of-band surfaces (HTTP exposition, audit journal).
pub struct Daemon {
    engine: Engine,
    rec: Arc<MetricsRecorder>,
    last_scrape: CounterSnapshot,
    ops: Option<Arc<OpsState>>,
    http_addr: Option<std::net::SocketAddr>,
    audit: Option<JournalWriter>,
    last_admission: String,
}

impl Daemon {
    /// A daemon around a fresh engine.
    pub fn new(engine: Engine) -> Daemon {
        Daemon {
            engine,
            rec: Arc::new(MetricsRecorder::new()),
            last_scrape: CounterSnapshot::default(),
            ops: None,
            http_addr: None,
            audit: None,
            last_admission: String::new(),
        }
    }

    /// The underlying engine (for tests and embedding).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The daemon's metrics recorder.
    pub fn recorder(&self) -> &MetricsRecorder {
        &self.rec
    }

    /// Starts the HTTP exposition listener (`/metrics`, `/healthz`,
    /// `/tenants`) on `addr` and returns the bound address (`:0` resolves
    /// to a real port). At most one listener per daemon.
    ///
    /// # Errors
    ///
    /// Bind/listen errors, or `AlreadyExists` if a listener is attached.
    pub fn attach_http(&mut self, addr: &str) -> io::Result<std::net::SocketAddr> {
        if self.ops.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "an HTTP listener is already attached",
            ));
        }
        let state = Arc::new(OpsState::new(Arc::clone(&self.rec)));
        state.publish(
            &self.engine,
            &self.last_admission,
            self.audit.as_ref().map(|j| (j.lines(), j.rotations())),
        );
        let bound = http::spawn(addr, Arc::clone(&state))?;
        self.ops = Some(state);
        self.http_addr = Some(bound);
        Ok(bound)
    }

    /// Attaches the admission audit journal at `path` with the default
    /// 8 MiB rotation budget. `meta` becomes the genesis
    /// `{"t":"meta","kind":"serve-audit","fingerprint":...,...}` line —
    /// record the engine configuration here so `serve-replay` can rebuild
    /// the engine; the daemon adds the name of the fingerprint its records
    /// carry.
    ///
    /// # Errors
    ///
    /// Journal file I/O errors.
    pub fn attach_journal(
        &mut self,
        path: &std::path::Path,
        meta: &[(&str, &str)],
    ) -> io::Result<()> {
        self.attach_journal_with(path, sr_obs::DEFAULT_MAX_BYTES, meta)
    }

    /// [`Daemon::attach_journal`] with an explicit rotation budget
    /// (clamped to ≥ 4 KiB by the writer).
    ///
    /// # Errors
    ///
    /// Journal file I/O errors.
    pub fn attach_journal_with(
        &mut self,
        path: &std::path::Path,
        max_bytes: u64,
        meta: &[(&str, &str)],
    ) -> io::Result<()> {
        let mut journal = JournalWriter::create(path, max_bytes)?;
        let mut pairs = vec![
            ("kind", "serve-audit"),
            (FINGERPRINT_KEY, Fingerprint::RowSum.label()),
        ];
        pairs.extend_from_slice(meta);
        journal.meta(&pairs)?;
        journal.flush()?;
        self.audit = Some(journal);
        Ok(())
    }

    /// Appends one audit line (write + flush so a crash loses at most the
    /// record being written). Journal failures are counted, not fatal —
    /// the admission path never dies for observability.
    fn audit_line(&mut self, line: &str) {
        let Some(journal) = &mut self.audit else {
            return;
        };
        match journal.raw(line).and_then(|()| journal.flush()) {
            Ok(()) => self.rec.add("serve.journal.records", 1),
            Err(_) => self.rec.add("serve.journal.errors", 1),
        }
    }

    /// Publishes the post-mutation snapshot to the HTTP listener.
    fn publish(&self) {
        if let Some(ops) = &self.ops {
            ops.publish(
                &self.engine,
                &self.last_admission,
                self.audit.as_ref().map(|j| (j.lines(), j.rotations())),
            );
        }
    }

    fn record_admit(&mut self, spec: &TenantSpec, report: &AdmitReport) {
        self.last_admission = format!(
            "{}: {}",
            report.name,
            if report.replayed {
                "replay"
            } else {
                report.rung.label()
            }
        );
        if self.audit.is_some() {
            let spans = self
                .engine
                .tenant(&report.name)
                .map_or(0, |t| spans_hash(&t.spans));
            let line = render_admit_record(spec, report, spans, ledger_hash(&self.engine));
            self.audit_line(&line);
        }
    }

    fn record_reject(&mut self, spec: &TenantSpec, rej: &Rejection) {
        self.last_admission = format!("{}: reject", spec.name);
        if self.audit.is_some() {
            let line = render_reject_record(spec, rej, ledger_hash(&self.engine));
            self.audit_line(&line);
        }
    }

    fn record_evict(&mut self, name: &str, latency_us: f64) {
        if self.audit.is_some() {
            let line = render_evict_record(name, latency_us, ledger_hash(&self.engine));
            self.audit_line(&line);
        }
    }

    /// Handles one request frame and returns `(response, shutdown)`.
    /// Infallible by contract: every outcome — including a panic in
    /// request handling — renders as a response document.
    pub fn handle_frame(&mut self, payload: &[u8]) -> (String, bool) {
        self.rec.add("serve.requests", 1);
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch(payload)));
        match result {
            Ok(outcome) => outcome,
            Err(_) => {
                let e = ServeError::new(
                    ErrorKind::Internal,
                    "request handling panicked; state may be stale — re-query before trusting it",
                );
                self.rec.add(&e.kind.counter(), 1);
                (e.render(), false)
            }
        }
    }

    /// Renders an `oversized` rejection for a drained frame.
    pub fn oversized_response(&mut self, announced: usize) -> String {
        let e = ServeError::new(
            ErrorKind::Oversized,
            format!("frame of {announced} bytes exceeds the {MAX_FRAME}-byte cap"),
        );
        self.rec.add("serve.requests", 1);
        self.rec.add(&e.kind.counter(), 1);
        e.render()
    }

    fn dispatch(&mut self, payload: &[u8]) -> (String, bool) {
        let doc = match parse(payload) {
            Ok(doc) => doc,
            Err(e) => {
                return self.fail(ServeError::new(
                    ErrorKind::Malformed,
                    format!("invalid JSON at byte {}: {}", e.offset, e.message),
                ))
            }
        };
        let request = match parse_request(&doc) {
            Ok(r) => r,
            Err(e) => return self.fail(e),
        };
        match request {
            Request::Admit(spec) => match self.engine.admit(&spec, self.rec.as_ref()) {
                Ok(report) => {
                    self.record_admit(&spec, &report);
                    self.publish();
                    (render_admit(&report), false)
                }
                Err(e) => {
                    if let AdmitError::Infeasible(rej) = &e {
                        self.record_reject(&spec, rej);
                        self.publish();
                    }
                    self.fail(admit_error(&e))
                }
            },
            Request::AdmitBatch(specs) => {
                let results = self.engine.admit_batch(&specs, self.rec.as_ref());
                for (spec, r) in specs.iter().zip(&results) {
                    match r {
                        Ok(report) => self.record_admit(spec, report),
                        Err(e) => {
                            self.rec.add(&admit_error(e).kind.counter(), 1);
                            if let AdmitError::Infeasible(rej) = e {
                                self.record_reject(spec, rej);
                            }
                        }
                    }
                }
                self.publish();
                (render_batch(&results), false)
            }
            Request::Evict(name) => {
                // The engine times the eviction into its histogram; the
                // audit record carries the daemon-side wall clock, taken
                // only when a journal is attached.
                let t0 = self.audit.as_ref().map(|_| std::time::Instant::now());
                match self.engine.evict(&name, self.rec.as_ref()) {
                    Ok(()) => {
                        let us = t0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
                        self.record_evict(&name, us);
                        self.publish();
                        (
                            format!(
                                "{{\"ok\":true,\"op\":\"evict\",\"tenant\":\"{}\"}}",
                                escape_json(&name)
                            ),
                            false,
                        )
                    }
                    Err(e) => {
                        let kind = match e {
                            EvictError::UnknownTenant(_) => ErrorKind::UnknownTenant,
                            EvictError::Internal(_) => ErrorKind::Internal,
                        };
                        self.fail(ServeError::new(kind, e.to_string()))
                    }
                }
            }
            Request::Query(name) => match self.engine.tenant(&name) {
                Some(t) => (render_query(t), false),
                None => self.fail(ServeError::new(
                    ErrorKind::UnknownTenant,
                    format!("no tenant named \"{name}\""),
                )),
            },
            Request::List => (render_list(&self.engine), false),
            Request::Stats { cumulative } => {
                self.rec.add("serve.scrapes", 1);
                if cumulative {
                    // Non-destructive: the full recorder state, leaving
                    // the delta cursor where it was.
                    (
                        format!(
                            "{{\"ok\":true,\"op\":\"stats\",\"mode\":\"cumulative\",\
                             \"prometheus\":\"{}\"}}",
                            escape_json(&self.rec.export_prometheus())
                        ),
                        false,
                    )
                } else {
                    let now = self.rec.counter_snapshot();
                    let delta = now.delta_since(&self.last_scrape);
                    self.last_scrape = now;
                    (
                        format!(
                            "{{\"ok\":true,\"op\":\"stats\",\"prometheus\":\"{}\"}}",
                            escape_json(&delta.export_prometheus())
                        ),
                        false,
                    )
                }
            }
            Request::Shutdown => {
                if let (Some(ops), Some(addr)) = (&self.ops, self.http_addr) {
                    ops.shutdown(addr);
                }
                ("{\"ok\":true,\"op\":\"shutdown\"}".to_string(), true)
            }
        }
    }

    fn fail(&mut self, e: ServeError) -> (String, bool) {
        self.rec.add(&e.kind.counter(), 1);
        (e.render(), false)
    }

    /// Serves one framed stream until EOF or a shutdown request. Returns
    /// whether shutdown was requested (so a socket accept loop knows to
    /// stop).
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors.
    pub fn serve_stream(
        &mut self,
        reader: &mut dyn Read,
        writer: &mut dyn Write,
    ) -> io::Result<bool> {
        loop {
            match read_frame(reader)? {
                FrameRead::Eof => return Ok(false),
                FrameRead::Oversized(n) => {
                    let resp = self.oversized_response(n);
                    write_frame(writer, &resp)?;
                }
                FrameRead::Frame(payload) => {
                    let (resp, shutdown) = self.handle_frame(&payload);
                    let written = write_frame(writer, &resp);
                    // The listeners are already stopped: a shutdown holds
                    // even when its reply cannot be delivered.
                    if shutdown {
                        return Ok(true);
                    }
                    written?;
                }
            }
        }
    }

    /// Serves stdin/stdout until EOF or shutdown (the `--stdio`
    /// transport; also the golden-test harness).
    ///
    /// # Errors
    ///
    /// Propagates transport I/O errors.
    pub fn serve_stdio(&mut self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        let mut reader = stdin.lock();
        let mut writer = stdout.lock();
        self.serve_stream(&mut reader, &mut writer)?;
        Ok(())
    }

    /// Binds a Unix socket and serves connections sequentially until one
    /// of them requests shutdown. A stale socket file at `path` is
    /// replaced. A transport error on a connection — a client that drops
    /// mid-frame, resets, or closes before reading its reply — ends that
    /// connection only and counts in `serve.transport_errors`.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept I/O errors.
    #[cfg(unix)]
    pub fn serve_unix(&mut self, path: &std::path::Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) => {
                    let _ = std::fs::remove_file(path);
                    return Err(e);
                }
            };
            let served = stream.try_clone().and_then(|read_half| {
                let mut reader = io::BufReader::new(read_half);
                let mut writer = io::BufWriter::new(stream);
                self.serve_stream(&mut reader, &mut writer)
            });
            match served {
                Ok(true) => {
                    let _ = std::fs::remove_file(path);
                    return Ok(());
                }
                Ok(false) => {}
                Err(_) => self.rec.add("serve.transport_errors", 1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use sr_obs::NOOP;
    use sr_topology::Torus;

    fn daemon() -> Daemon {
        let topo = Torus::new(&[4, 4]).expect("torus");
        Daemon::new(Engine::new(Box::new(topo), ServeConfig::default()))
    }

    fn frame(s: &str) -> Vec<u8> {
        let mut out = (s.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(s.as_bytes());
        out
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"list\"}").unwrap();
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"{\"op\":\"list\"}"),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Eof => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_drain_and_report() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(b'x', MAX_FRAME + 1));
        bytes.extend_from_slice(&frame("{\"op\":\"list\"}"));
        let mut cursor = io::Cursor::new(bytes);
        let mut d = daemon();
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Oversized(n) => {
                assert_eq!(n, MAX_FRAME + 1);
                let resp = d.oversized_response(n);
                assert!(resp.contains("\"kind\":\"oversized\""));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The next frame on the same stream still parses.
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"{\"op\":\"list\"}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_bytes_yield_typed_errors_not_panics() {
        let mut d = daemon();
        for junk in [
            &b"\xff\xfe\x00"[..],
            b"{\"op\":",
            b"42",
            b"{\"op\":\"admit\",\"tenant\":7}",
            b"{}",
        ] {
            let (resp, shutdown) = d.handle_frame(junk);
            assert!(!shutdown);
            assert!(resp.starts_with("{\"ok\":false"), "got: {resp}");
        }
        let counters = d.recorder().counters();
        assert_eq!(counters["serve.requests"], 5);
    }

    /// A frame at the cap costs time proportional to its size: the daemon
    /// is single-threaded, so a frame that stalls the reader stalls every
    /// tenant's admission.
    #[test]
    fn max_size_frames_get_typed_errors_promptly() {
        let mut d = daemon();
        let head = r#"{"op":"admit","tenant":{"name":"big","placement":[0,1],"tfg":""#;
        let tail = r#""}}"#;
        let mut whole = String::from(head);
        whole.push_str(&"task é 1 ".repeat((MAX_FRAME - head.len() - tail.len()) / 10));
        whole.push_str(tail);
        assert!(whole.len() > MAX_FRAME - 16 && whole.len() <= MAX_FRAME);
        let torn = &whole[..whole.len() - tail.len()];
        let t0 = std::time::Instant::now();
        for (frame, kind) in [(whole.as_str(), "invalid_spec"), (torn, "malformed")] {
            let (resp, shutdown) = d.handle_frame(frame.as_bytes());
            assert!(!shutdown);
            let want = format!("{{\"ok\":false,\"error\":{{\"kind\":\"{kind}\"");
            assert!(resp.starts_with(&want), "got: {resp:.200}");
        }
        assert!(t0.elapsed().as_secs_f64() < 4.0, "took {:?}", t0.elapsed());
    }

    #[test]
    fn full_session_over_an_in_memory_stream() {
        let mut d = daemon();
        let mut input = Vec::new();
        let admit = r#"{"op":"admit","tenant":{"name":"t1","tfg":"task a 100\ntask b 100\nmsg m a -> b 256","placement":[0,1]}}"#;
        for req in [
            admit,
            r#"{"op":"list"}"#,
            r#"{"op":"query","tenant":"t1"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"evict","tenant":"t1"}"#,
            r#"{"op":"shutdown"}"#,
        ] {
            input.extend_from_slice(&frame(req));
        }
        let mut reader = io::Cursor::new(input);
        let mut output = Vec::new();
        let shutdown = d.serve_stream(&mut reader, &mut output).unwrap();
        assert!(shutdown);
        let mut cursor = io::Cursor::new(output);
        let mut responses = Vec::new();
        while let FrameRead::Frame(p) = read_frame(&mut cursor).unwrap() {
            responses.push(String::from_utf8(p).unwrap());
        }
        assert_eq!(responses.len(), 6);
        assert!(
            responses[0].contains("\"rung\":\"fast\""),
            "{}",
            responses[0]
        );
        assert!(responses[1].contains("\"tenants\":[\"t1\"]"));
        assert!(responses[2].contains("\"op\":\"query\""));
        assert!(
            responses[3].contains("sr_serve_admit_total"),
            "{}",
            responses[3]
        );
        assert!(responses[4].contains("\"op\":\"evict\""));
        assert_eq!(responses[5], "{\"ok\":true,\"op\":\"shutdown\"}");
    }

    #[test]
    fn stats_deltas_reset_between_scrapes() {
        let mut d = daemon();
        let (first, _) = d.handle_frame(br#"{"op":"stats"}"#);
        assert!(first.contains("sr_serve_requests_total 1"), "{first}");
        let (second, _) = d.handle_frame(br#"{"op":"stats"}"#);
        // Only the delta since the first scrape: one request, one scrape.
        assert!(second.contains("sr_serve_requests_total 1"), "{second}");
        assert!(!second.contains("sr_serve_requests_total 2"), "{second}");
    }

    #[test]
    fn stats_cumulative_does_not_consume_the_delta() {
        let mut d = daemon();
        let (first, _) = d.handle_frame(br#"{"op":"stats","mode":"cumulative"}"#);
        assert!(first.contains("\"mode\":\"cumulative\""), "{first}");
        assert!(first.contains("sr_serve_requests_total 1"), "{first}");
        let (second, _) = d.handle_frame(br#"{"op":"stats","mode":"cumulative"}"#);
        // Cumulative keeps growing — nothing was reset.
        assert!(second.contains("sr_serve_requests_total 2"), "{second}");
        // The delta cursor was never touched: the first delta scrape sees
        // all three requests so far.
        let (third, _) = d.handle_frame(br#"{"op":"stats"}"#);
        assert!(third.contains("sr_serve_requests_total 3"), "{third}");
        // And a second delta sees only its own request.
        let (fourth, _) = d.handle_frame(br#"{"op":"stats"}"#);
        assert!(fourth.contains("sr_serve_requests_total 1"), "{fourth}");
        let (bad, _) = d.handle_frame(br#"{"op":"stats","mode":"sideways"}"#);
        assert!(bad.contains("\"kind\":\"malformed\""), "{bad}");
    }

    #[test]
    fn audit_journal_records_admits_evicts_and_rejects() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sr_serve_audit_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut d = daemon();
        d.attach_journal(&path, &[("topo", "torus:4x4")]).unwrap();
        let admit = r#"{"op":"admit","tenant":{"name":"t1","tfg":"task a 100\ntask b 100\nmsg m a -> b 256","placement":[0,1]}}"#;
        let (resp, _) = d.handle_frame(admit.as_bytes());
        assert!(resp.contains("\"rung\":\"fast\""), "{resp}");
        let (resp, _) = d.handle_frame(br#"{"op":"evict","tenant":"t1"}"#);
        assert!(resp.contains("\"op\":\"evict\""), "{resp}");
        let reject = r#"{"op":"admit","tenant":{"name":"hog","tfg":"task a 100\ntask b 100\nmsg m a -> b 2000000","placement":[0,1]}}"#;
        let (resp, _) = d.handle_frame(reject.as_bytes());
        assert!(resp.contains("\"kind\":\"infeasible\""), "{resp}");
        assert_eq!(d.recorder().counter("serve.journal.records"), 3);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(
            lines[0].contains("\"kind\":\"serve-audit\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"topo\":\"torus:4x4\""), "{}", lines[0]);
        let crate::audit::AuditLine::Meta(meta) =
            crate::audit::parse_audit_line(lines[0]).expect("parses")
        else {
            panic!("the genesis line is meta: {}", lines[0]);
        };
        let fingerprint = Fingerprint::of_meta(&meta).expect("a known fingerprint");
        assert_eq!(fingerprint, Fingerprint::RowSum);
        // Re-drive a fresh engine from the records and verify each one.
        let mut fresh = daemon();
        for line in &lines[1..] {
            match crate::audit::parse_audit_line(line).expect("parses") {
                crate::audit::AuditLine::Record(r) => {
                    crate::audit::apply_record(&mut fresh.engine, &r, fingerprint, &NOOP)
                        .expect("verifies");
                }
                other => panic!("expected record, got {other:?}"),
            }
        }
        assert_eq!(
            crate::audit::ledger_hash(&fresh.engine),
            crate::audit::ledger_hash(&d.engine)
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A daemon serving `serve_unix` at a fresh socket path on its own
    /// thread.
    #[cfg(unix)]
    struct UnixDaemon {
        path: std::path::PathBuf,
        done: std::sync::mpsc::Receiver<io::Result<u64>>,
        thread: std::thread::JoinHandle<()>,
    }

    #[cfg(unix)]
    impl UnixDaemon {
        fn start(name: &str) -> UnixDaemon {
            let path =
                std::env::temp_dir().join(format!("sr_serve_{name}_{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let (tx, done) = std::sync::mpsc::channel();
            let serving = path.clone();
            let thread = std::thread::spawn(move || {
                let mut d = daemon();
                let served = d.serve_unix(&serving);
                let _ = tx.send(served.map(|()| d.recorder().counter("serve.transport_errors")));
            });
            UnixDaemon { path, done, thread }
        }

        fn connect(&self) -> std::os::unix::net::UnixStream {
            for _ in 0..5000 {
                if let Ok(s) = std::os::unix::net::UnixStream::connect(&self.path) {
                    return s;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("the daemon never listened on {}", self.path.display());
        }

        /// Sends `request` on a connection the daemon reads only after the
        /// sender has closed it, so the reply meets a closed peer
        /// (`BrokenPipe`): connections are served one at a time, in order,
        /// and `holder` occupies the daemon until both are gone.
        fn send_and_hang_up(&self, request: &str) {
            let holder = self.connect();
            let mut quitter = self.connect();
            quitter.write_all(&frame(request)).expect("sends");
            drop(quitter);
            drop(holder);
        }

        /// Waits for `serve_unix` to return — failing rather than hanging
        /// when it does not — and gives its `serve.transport_errors` count.
        fn stopped(self) -> u64 {
            let served = self
                .done
                .recv_timeout(std::time::Duration::from_secs(20))
                .expect("the daemon stops");
            self.thread.join().expect("no panic");
            assert!(!self.path.exists(), "shutdown removes the socket file");
            served.expect("serve_unix returns Ok at shutdown")
        }
    }

    /// A client that sends a frame and closes before reading the reply
    /// makes the daemon's write fail with `BrokenPipe`. That ends the
    /// connection, not the daemon: the next client gets its answer and
    /// shuts the daemon down, over a real Unix socket.
    #[cfg(unix)]
    #[test]
    fn a_broken_pipe_ends_its_connection_not_the_daemon() {
        let server = UnixDaemon::start("pipe");
        server.send_and_hang_up(r#"{"op":"list"}"#);
        let mut client = server.connect();
        let mut ask = |request: &str| {
            client.write_all(&frame(request)).expect("sends");
            match read_frame(&mut client).expect("reads") {
                FrameRead::Frame(p) => String::from_utf8(p).expect("UTF-8"),
                other => panic!("unexpected {other:?}"),
            }
        };
        let listed = ask(r#"{"op":"list"}"#);
        assert!(listed.starts_with("{\"ok\":true"), "{listed}");
        assert_eq!(
            ask(r#"{"op":"shutdown"}"#),
            "{\"ok\":true,\"op\":\"shutdown\"}"
        );
        assert_eq!(server.stopped(), 1, "the broken pipe is counted once");
    }

    /// A shutdown whose reply cannot be delivered still shuts the daemon
    /// down: its listeners are stopped before the reply is written.
    #[cfg(unix)]
    #[test]
    fn a_shutdown_holds_when_its_reply_cannot_be_delivered() {
        let server = UnixDaemon::start("hangup");
        server.send_and_hang_up(r#"{"op":"shutdown"}"#);
        assert_eq!(server.stopped(), 0);
    }

    #[test]
    fn http_listener_serves_the_daemon_workload() {
        let mut d = daemon();
        let addr = d.attach_http("127.0.0.1:0").unwrap();
        let admit = r#"{"op":"admit","tenant":{"name":"t1","tfg":"task a 100\ntask b 100\nmsg m a -> b 256","placement":[0,1]}}"#;
        let (resp, _) = d.handle_frame(admit.as_bytes());
        assert!(resp.contains("\"rung\":\"fast\""), "{resp}");
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.contains("\"tenants\":1"), "{text}");
        assert!(text.contains("\"last_admission\":\"t1: fast\""), "{text}");
        assert!(
            d.attach_http("127.0.0.1:0").is_err(),
            "at most one listener"
        );
        let (_, shutdown) = d.handle_frame(br#"{"op":"shutdown"}"#);
        assert!(shutdown);
    }
}
