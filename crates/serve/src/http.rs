//! The out-of-band operational surface: a std-only HTTP/1.1 listener
//! serving `GET /metrics`, `GET /healthz`, and `GET /tenants` on a
//! separate thread.
//!
//! The admission path never waits on HTTP: the daemon *publishes* a
//! pre-rendered snapshot ([`OpsState::publish`]) after each mutation —
//! rendering only the tenants that arrived since the last one — and the
//! listener thread serves whatever snapshot is current, joining the
//! rendered items at scrape time. The only shared state is the snapshot
//! mutex (held for that render or that join) and the
//! [`MetricsRecorder`]'s own mutex, the same discipline the in-band
//! `stats` op already uses. Responses close the connection (`Connection:
//! close`), keep-alive is deliberately unsupported, and malformed or
//! non-GET requests get typed 4xx/405 responses — an exposition endpoint,
//! not a web server.
//!
//! Unlike the framed protocol, HTTP responses are *not* byte-deterministic
//! (`/metrics` carries latency histograms, `/healthz` an uptime) — which
//! is why this surface is out-of-band and the golden-transcript contract
//! applies only to frames.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::{Engine, Tenant};
use sr_obs::{escape_json, json_num, MetricsRecorder, Recorder};

/// Largest accepted request head (request line + headers), bytes.
const MAX_REQUEST: usize = 8 * 1024;

/// What the listener thread shares with the daemon.
pub struct OpsState {
    rec: Arc<MetricsRecorder>,
    started: Instant,
    snap: Mutex<OpsSnapshot>,
    stop: AtomicBool,
}

/// The pre-rendered daemon state the endpoints serve.
#[derive(Default)]
struct OpsSnapshot {
    /// Each resident's rendered `/tenants` item, in name order, with the
    /// admission `seq` it was rendered for: a tenant is immutable from
    /// admission to eviction and a re-admission takes a new `seq`, so an
    /// item stays valid exactly as long as its `seq` is resident.
    items: BTreeMap<String, (u64, String)>,
    last_admission: String,
    journal_attached: bool,
    journal_lines: u64,
    journal_rotations: u64,
}

/// One tenant's `/tenants` item.
fn render_tenant(t: &Tenant) -> String {
    let links: Vec<String> = t
        .spans
        .iter()
        .map(|(l, spans)| {
            let busy: f64 = spans.iter().map(|&(s, e)| e - s).sum();
            format!("{{\"link\":{},\"busy_us\":{}}}", l.index(), json_num(busy))
        })
        .collect();
    format!(
        "{{\"name\":\"{}\",\"seq\":{},\"rung\":\"{}\",\"scale\":{},\"messages\":{},\
         \"links\":[{}]}}",
        escape_json(&t.name),
        t.seq,
        t.rung.label(),
        json_num(t.scale),
        t.tfg.num_messages(),
        links.join(",")
    )
}

impl OpsState {
    /// A fresh state around the daemon's recorder.
    pub fn new(rec: Arc<MetricsRecorder>) -> OpsState {
        OpsState {
            rec,
            started: Instant::now(),
            snap: Mutex::new(OpsSnapshot::default()),
            stop: AtomicBool::new(false),
        }
    }

    fn snap(&self) -> std::sync::MutexGuard<'_, OpsSnapshot> {
        self.snap
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Publishes a fresh snapshot: the daemon calls this after every
    /// engine mutation (and once at attach time). Items of departed
    /// tenants are dropped and only tenants without a current item are
    /// rendered, on the daemon thread; the listener only joins strings.
    pub fn publish(&self, engine: &Engine, last_admission: &str, journal: Option<(u64, u64)>) {
        let mut snap = self.snap();
        snap.items
            .retain(|name, (seq, _)| engine.tenant(name).is_some_and(|t| t.seq == *seq));
        for t in engine.tenants() {
            if !snap.items.contains_key(&t.name) {
                snap.items.insert(t.name.clone(), (t.seq, render_tenant(t)));
            }
        }
        snap.last_admission = last_admission.to_string();
        snap.journal_attached = journal.is_some();
        snap.journal_lines = journal.map_or(0, |(l, _)| l);
        snap.journal_rotations = journal.map_or(0, |(_, r)| r);
    }

    /// The `GET /tenants` body for the published snapshot.
    pub fn tenants_body(&self) -> String {
        let snap = self.snap();
        let mut body = format!("{{\"ok\":true,\"count\":{},\"tenants\":[", snap.items.len());
        for (i, (_, item)) in snap.items.values().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(item);
        }
        body.push_str("]}\n");
        body
    }

    /// Asks the listener thread to exit after its next accepted (or
    /// self-injected) connection.
    pub fn shutdown(&self, addr: SocketAddr) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; the connection is dropped unserved.
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and spawns the listener thread.
/// Returns the bound address (port 0 resolves to a real port).
///
/// # Errors
///
/// Bind/listen errors; everything after the spawn is handled (and
/// counted) on the listener thread.
pub fn spawn(addr: &str, state: Arc<OpsState>) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("sr-serve-http".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if state.stop.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => handle(s, &state),
                    Err(_) => state.rec.add("serve.http.errors", 1),
                }
            }
        })?;
    Ok(bound)
}

/// Serves one connection: read the head, route, respond, close.
fn handle(mut stream: TcpStream, state: &OpsState) {
    state.rec.add("serve.http.requests", 1);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let complete = loop {
        match stream.read(&mut buf) {
            Ok(0) => break false,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    break true;
                }
                if head.len() > MAX_REQUEST {
                    break false;
                }
            }
            Err(_) => break false,
        }
    };
    if !complete {
        state.rec.add("serve.http.errors", 1);
        respond(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "bad request\n",
        );
        return;
    }
    let request_line = head
        .split(|&b| b == b'\r')
        .next()
        .map(String::from_utf8_lossy)
        .unwrap_or_default()
        .into_owned();
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        state.rec.add("serve.http.errors", 1);
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
        return;
    }
    match path {
        "/metrics" => {
            state.rec.add("serve.http.metrics", 1);
            let body = state.rec.export_prometheus();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/healthz" => {
            state.rec.add("serve.http.healthz", 1);
            let requests = state.rec.counter("serve.requests");
            let snap = state.snap();
            let body = format!(
                "{{\"ok\":true,\"uptime_us\":{},\"requests\":{requests},\"tenants\":{},\
                 \"last_admission\":\"{}\",\"journal\":{{\"attached\":{},\"lines\":{},\
                 \"rotations\":{}}}}}\n",
                state.started.elapsed().as_micros(),
                snap.items.len(),
                escape_json(&snap.last_admission),
                snap.journal_attached,
                snap.journal_lines,
                snap.journal_rotations
            );
            drop(snap);
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/tenants" => {
            state.rec.add("serve.http.tenants", 1);
            respond(
                &mut stream,
                "200 OK",
                "application/json",
                &state.tenants_body(),
            );
        }
        _ => {
            state.rec.add("serve.http.not_found", 1);
            respond(&mut stream, "404 Not Found", "text/plain", "not found\n");
        }
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Placement, ServeConfig, TenantSpec};
    use sr_topology::Torus;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("reads");
        let (head, body) = text.split_once("\r\n\r\n").expect("has head");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn endpoints_serve_metrics_health_and_tenants() {
        let rec = Arc::new(MetricsRecorder::new());
        let topo = Torus::new(&[4, 4]).expect("torus");
        let mut engine = Engine::new(Box::new(topo), ServeConfig::default());
        let spec = TenantSpec {
            name: "t1".into(),
            tfg_text: "task a 100\ntask b 100\nmsg m a -> b 256".into(),
            placement: Placement::Nodes(vec![0, 1]),
            best_effort: false,
        };
        engine.admit(&spec, rec.as_ref()).expect("admits");
        let state = Arc::new(OpsState::new(Arc::clone(&rec)));
        state.publish(&engine, "t1: fast", Some((3, 0)));
        let addr = spawn("127.0.0.1:0", Arc::clone(&state)).expect("binds");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("version=0.0.4"), "{head}");
        assert!(body.contains("sr_serve_admit_total 1"), "{body}");
        assert!(
            body.contains("sr_serve_admit_latency_fast{quantile=\"0.5\"}"),
            "{body}"
        );

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"ok\":true"), "{body}");
        assert!(body.contains("\"tenants\":1"), "{body}");
        assert!(body.contains("\"last_admission\":\"t1: fast\""), "{body}");
        assert!(body.contains("\"attached\":true"), "{body}");

        let (head, body) = get(addr, "/tenants");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"name\":\"t1\""), "{body}");
        assert!(body.contains("\"rung\":\"fast\""), "{body}");
        assert!(body.contains("\"busy_us\":"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(rec.counter("serve.http.not_found"), 1);
        assert_eq!(rec.counter("serve.http.requests"), 4);

        state.shutdown(addr);
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let rec = Arc::new(MetricsRecorder::new());
        let state = Arc::new(OpsState::new(Arc::clone(&rec)));
        let addr = spawn("127.0.0.1:0", Arc::clone(&state)).expect("binds");
        let mut stream = TcpStream::connect(addr).expect("connects");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("reads");
        assert!(text.starts_with("HTTP/1.1 405"), "{text}");
        state.shutdown(addr);
    }
}
