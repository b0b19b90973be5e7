//! `serve_chain` and `serve_farm`: admission through the real socket of a
//! running `srsched serve`, one client, closed loop (`serve_unix` serves one
//! connection at a time and an admission client waits for its verdict).
//!
//! A round is a fixed script of *groups*. Every group starts and ends with
//! the resident set untouched, so groups can be shuffled by the seed without
//! changing what any of them meets:
//!
//! * replay   — evict a resident, re-admit it: replayed from the memo when
//!   the ledger is the one its last admission saw;
//! * toggled  — the same with a neighbour evicted meanwhile, so the ledger
//!   differs from the memoized one and the ladder runs (fast rung), and the
//!   resident's next replay group meets a changed memo too;
//! * cold     — a never-seen name: standalone compile, admit, evict;
//! * contender — a tenant whose traffic shares links with a resident,
//!   admitted against two different ledgers so it is never replayed:
//!   adapted, rerouted or rejected after the whole ladder;
//! * reads    — `query` between groups at one read per two writes, every
//!   16th a `list`; one cumulative `stats` scrape ends the round, checked
//!   and traced but off the round's clock.

use crate::gen;
use crate::harness::{Round, Workload};
use crate::metrics::Layers;
use crate::trace::Tracer;
use crate::util::{median, ms_since, Fnv64, Rng};
use sr::serve::{Daemon, Engine, Json, Placement, ServeConfig, TenantSpec};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Token in a cold tenant's name that is replaced by the round number, so
/// the name has never been seen by the daemon.
const ROUND_TOKEN: &str = "@R@";
/// `finish` replays the audit journal of a daemon that ran at most this many
/// rounds.
const REPLAY_UP_TO_ROUNDS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Evict that must succeed.
    Evict,
    /// Evict of the contender admitted just before; skipped if it was
    /// rejected.
    EvictIfAdmitted,
    /// Re-admit of a resident's spec: must be admitted from the memo. Whether
    /// it is replayed (the ledger is the one memoized with its last
    /// admission) or runs the ladder depends on what the script did to the
    /// ledger since, and is pinned by the outcome vector.
    AdmitWarm,
    /// Never-seen name: must be a memo miss.
    AdmitCold,
    /// Contender: admitted on a real-time rung or rejected as infeasible.
    AdmitContender,
    Query,
    List,
    Stats,
}

impl Kind {
    fn is_admit(self) -> bool {
        self.class() == "admit"
    }

    /// The request class, as the per-layer metric names spell it.
    fn class(self) -> &'static str {
        match self {
            Kind::Evict | Kind::EvictIfAdmitted => "evict",
            Kind::Query => "query",
            Kind::List => "list",
            Kind::Stats => "stats",
            Kind::AdmitWarm | Kind::AdmitCold | Kind::AdmitContender => "admit",
        }
    }

    fn span(self) -> &'static str {
        match self.class() {
            "evict" => "serve.socket.evict",
            "query" => "serve.socket.query",
            "list" => "serve.socket.list",
            "stats" => "serve.socket.stats",
            _ => "serve.socket.admit",
        }
    }
}

struct Step {
    kind: Kind,
    tenant: String,
    /// The admit's spec, for the in-process replicas.
    spec: Option<TenantSpec>,
    request: String,
}

fn admit_request(spec: &TenantSpec) -> String {
    let Placement::Nodes(nodes) = &spec.placement else {
        panic!("generated specs place by node");
    };
    let nodes: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    format!(
        "{{\"op\":\"admit\",\"tenant\":{{\"name\":\"{}\",\"tfg\":\"{}\",\"placement\":[{}]}}}}",
        spec.name,
        sr::obs::escape_json(&spec.tfg_text),
        nodes.join(",")
    )
}

fn admit(kind: Kind, spec: &TenantSpec) -> Step {
    Step {
        kind,
        tenant: spec.name.clone(),
        request: admit_request(spec),
        spec: Some(spec.clone()),
    }
}

fn named(kind: Kind, op: &str, tenant: &str) -> Step {
    Step {
        kind,
        tenant: tenant.to_string(),
        spec: None,
        request: format!("{{\"op\":\"{op}\",\"tenant\":\"{tenant}\"}}"),
    }
}

fn bare(kind: Kind, request: &str) -> Step {
    Step {
        kind,
        tenant: String::new(),
        spec: None,
        request: request.to_string(),
    }
}

/// Everything that defines a serve workload: the daemon's flags, who is
/// resident, and one round's script.
pub struct Scenario {
    name: &'static str,
    topo: String,
    period: f64,
    bandwidth: f64,
    residents: Vec<TenantSpec>,
    script: Vec<Step>,
}

/// How often each group kind runs per round.
struct Mix {
    replay_passes: usize,
    toggled_passes: usize,
    contender_passes: usize,
}

/// Assembles the round script from the tenant sets; see the module docs.
fn build_script(
    seed: u64,
    residents: &[TenantSpec],
    contenders: &[TenantSpec],
    cold_groups: Vec<Vec<Step>>,
    mix: &Mix,
) -> Vec<Step> {
    let mut groups: Vec<Vec<Step>> = cold_groups;
    for _ in 0..mix.replay_passes {
        for r in residents {
            groups.push(vec![
                named(Kind::Evict, "evict", &r.name),
                admit(Kind::AdmitWarm, r),
            ]);
        }
    }
    for _ in 0..mix.toggled_passes {
        for (i, r) in residents.iter().enumerate() {
            let neighbour = &residents[(i + 1) % residents.len()];
            groups.push(vec![
                named(Kind::Evict, "evict", &neighbour.name),
                named(Kind::Evict, "evict", &r.name),
                admit(Kind::AdmitWarm, r),
                admit(Kind::AdmitWarm, neighbour),
            ]);
        }
    }
    // A contender is admitted twice per group, against two different
    // ledgers (all residents; one resident out). Its memo holds the ledger of
    // its latest admission only, so neither admit can be replayed and the
    // ladder runs every time.
    for _ in 0..mix.contender_passes {
        for (i, c) in contenders.iter().enumerate() {
            let other = &residents[(i + residents.len() / 2) % residents.len()];
            groups.push(vec![
                admit(Kind::AdmitContender, c),
                named(Kind::EvictIfAdmitted, "evict", &c.name),
                named(Kind::Evict, "evict", &other.name),
                admit(Kind::AdmitContender, c),
                named(Kind::EvictIfAdmitted, "evict", &c.name),
                admit(Kind::AdmitWarm, other),
            ]);
        }
    }
    Rng::stream(seed, "serve.group_order").shuffle(&mut groups);

    // One read per two writes, placed between groups.
    let mut script = Vec::new();
    let (mut writes, mut reads) = (0usize, 0usize);
    for group in groups {
        writes += group.len();
        script.extend(group);
        while reads * 2 < writes {
            reads += 1;
            script.push(if reads % 16 == 0 {
                bare(Kind::List, "{\"op\":\"list\"}")
            } else {
                named(
                    Kind::Query,
                    "query",
                    &residents[reads % residents.len()].name,
                )
            });
        }
    }
    script.push(bare(
        Kind::Stats,
        "{\"op\":\"stats\",\"mode\":\"cumulative\"}",
    ));
    script
}

/// 24 two-task chains on disjoint adjacent node pairs of the 8×8 torus, 24
/// contenders on the same pairs, cold tenants on the 8 pairs left free. The
/// seed translates the whole layout on the torus and orders the groups.
pub fn chain_scenario(seed: u64) -> Scenario {
    let mut rng = Rng::stream(seed, "serve_chain.translate");
    let (dr, dc) = (rng.below(8), rng.below(8));
    let node = |n: usize| ((n / 8 + dr) % 8) * 8 + (n % 8 + dc) % 8;
    let chain = |name: String, pair: usize, ops: (u64, u64), bytes: u64| TenantSpec {
        tfg_text: format!(
            "task src {}\ntask dst {}\nmsg m src -> dst {bytes}",
            ops.0, ops.1
        ),
        name,
        placement: Placement::Nodes(vec![node(2 * pair), node(2 * pair + 1)]),
        best_effort: false,
    };
    // Every sixth resident is heavy: its message keeps its link busy for more
    // than half the period, which is what makes the ladder's re-route rung
    // mask that link for a contender.
    let heavy = |i: usize| i % 6 == 5;
    let residents: Vec<TenantSpec> = (0..24)
        .map(|i| {
            let bytes = if heavy(i) {
                7040
            } else {
                192 + 16 * (i as u64 % 8)
            };
            chain(format!("app{i:02}"), i, (200, 240), bytes)
        })
        .collect();
    // Contenders sit on their resident's node pair. Beside a light resident a
    // short message still fits the window (adapted) and a longer one cannot
    // (rejected after the whole ladder); beside a heavy one the contender is
    // re-routed around the masked link.
    let contenders: Vec<TenantSpec> = (0..24)
        .map(|i| {
            let bytes = match (heavy(i), i % 3) {
                (true, _) => 48 + 16 * (i as u64 % 4),
                (false, 2) => 320 + 32 * (i as u64 % 8),
                (false, _) => 32 + 16 * (i as u64 % 3),
            };
            chain(format!("con{i:02}"), i, (240, 200), bytes)
        })
        .collect();
    let cold_groups = (0..8)
        .map(|k| {
            let spec = chain(
                format!("new{k}-{ROUND_TOKEN}"),
                24 + k,
                (200, 240),
                320 + 32 * k as u64,
            );
            vec![
                admit(Kind::AdmitCold, &spec),
                named(Kind::Evict, "evict", &spec.name),
            ]
        })
        .collect();
    let script = build_script(
        seed,
        &residents,
        &contenders,
        cold_groups,
        &Mix {
            replay_passes: 20,
            toggled_passes: 2,
            contender_passes: 4,
        },
    );
    Scenario {
        name: "serve_chain",
        topo: "torus:8x8".to_string(),
        period: 200.0,
        bandwidth: 64.0,
        residents,
        script,
    }
}

/// 32 DVB(10) pipelines, one per 4×8 slot of the 32×32 torus, sent as TFG
/// text. Contenders are DVB(4) and DVB(10) pipelines laid over occupied slots
/// on the resident's own pattern, task for task on the same nodes (the small
/// one still fits the windows: adapted; the second big one is rejected after
/// the whole ladder); cold tenants re-use a resident's spec under a new name
/// while that resident is out. The seed permutes which pipeline
/// sits in which slot and orders the groups.
pub fn farm_scenario(seed: u64) -> Scenario {
    use sr::prelude::*;
    const N: usize = 32;
    let big = dvb_uniform(gen::DVB_MODELS).to_text();
    let small = dvb_uniform(4).to_text();
    let mut slots: Vec<usize> = (0..32).collect();
    Rng::stream(seed, "serve_farm.slots").shuffle(&mut slots);
    let place = |slot: usize, tasks: usize| -> Placement {
        let (band, col) = (slot / 4, slot % 4);
        Placement::Nodes(
            gen::SLOT_PATTERN[..tasks]
                .iter()
                .map(|&(r, c)| (band * 4 + r) * N + col * 8 + c)
                .collect(),
        )
    };
    let residents: Vec<TenantSpec> = (0..32)
        .map(|i| TenantSpec {
            name: format!("farm{i:02}"),
            tfg_text: big.clone(),
            placement: place(slots[i], 14),
            best_effort: false,
        })
        .collect();
    let contenders: Vec<TenantSpec> = (0..16)
        .map(|i| {
            let small_one = i % 2 == 0;
            TenantSpec {
                name: format!("con{i:02}"),
                tfg_text: if small_one {
                    small.clone()
                } else {
                    big.clone()
                },
                placement: place(slots[2 * i], if small_one { 8 } else { 14 }),
                best_effort: false,
            }
        })
        .collect();
    let cold_groups = (0..4)
        .map(|k| {
            let resident = &residents[8 * k];
            let stand_in = TenantSpec {
                name: format!("new{k}-{ROUND_TOKEN}"),
                ..resident.clone()
            };
            vec![
                named(Kind::Evict, "evict", &resident.name),
                admit(Kind::AdmitCold, &stand_in),
                named(Kind::Evict, "evict", &stand_in.name),
                admit(Kind::AdmitWarm, resident),
            ]
        })
        .collect();
    let script = build_script(
        seed,
        &residents,
        &contenders,
        cold_groups,
        &Mix {
            replay_passes: 4,
            toggled_passes: 1,
            contender_passes: 2,
        },
    );
    Scenario {
        name: "serve_farm",
        topo: format!("torus:{N}x{N}"),
        period: 400.0,
        bandwidth: 256.0,
        residents,
        script,
    }
}

impl Scenario {
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.topo);
        h.write_f64(self.period);
        h.write_f64(self.bandwidth);
        for r in &self.residents {
            h.write_str(&admit_request(r));
        }
        for s in &self.script {
            h.write_str(&s.request);
        }
        h.finish()
    }

    /// The engine `srsched serve` builds for these flags (its `serve_engine`
    /// with `--parallelism 1`), for the in-process replicas.
    fn engine(&self) -> Engine {
        let compile = sr::core::CompileConfig {
            parallelism: 1,
            ..sr::core::CompileConfig::default()
        };
        Engine::new(
            gen::parse_topology(&self.topo),
            ServeConfig {
                period: self.period,
                timing: sr::tfg::Timing::calibrated_dvb(self.bandwidth),
                feedback_scales: compile.feedback_scales.clone(),
                batch_threads: 1,
                compile,
                ..ServeConfig::default()
            },
        )
    }

    /// The script of round `round`, cold names made fresh.
    fn requests(&self, round: usize) -> Vec<String> {
        let tag = round.to_string();
        self.script
            .iter()
            .map(|s| s.request.replace(ROUND_TOKEN, &tag))
            .collect()
    }
}

// ------------------------------------------------------------ the client

fn send(stream: &mut UnixStream, request: &str) -> std::io::Result<String> {
    let mut frame = Vec::with_capacity(4 + request.len());
    frame.extend_from_slice(&(request.len() as u32).to_be_bytes());
    frame.extend_from_slice(request.as_bytes());
    stream.write_all(&frame)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// How an admit ended, as one letter of the outcome vector.
fn admit_class(response: &Json) -> Result<u8, String> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        if response.get("replayed").and_then(Json::as_bool) == Some(true) {
            return Ok(b'p');
        }
        return match response.get("rung").and_then(Json::as_str) {
            Some("fast") => Ok(b'f'),
            Some("adapted") => Ok(b'a'),
            Some("rerouted") => Ok(b'r'),
            other => Err(format!(
                "admitted on rung {other:?}, which is not real-time"
            )),
        };
    }
    let kind = response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    match kind {
        Some("infeasible") => Ok(b'x'),
        other => Err(format!("admit failed with error kind {other:?}")),
    }
}

/// Checks one response against what its step must produce. Returns the
/// outcome letter for admits.
fn check(step: &Step, tenant: &str, body: &str, residents: usize) -> Result<Option<u8>, String> {
    let doc = sr::serve::parse(body.as_bytes())
        .map_err(|e| format!("response is not JSON: {}", e.message))?;
    let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
    let flag = |k: &str| doc.get(k).and_then(Json::as_bool);
    if step.kind.is_admit() {
        let class = admit_class(&doc)?;
        let fine = match step.kind {
            Kind::AdmitWarm => class != b'x' && flag("memo_hit") == Some(true),
            Kind::AdmitCold => class != b'x' && flag("memo_hit") == Some(false),
            _ => true,
        };
        if !fine {
            return Err(format!(
                "{:?} of {tenant} ended as '{}': {body}",
                step.kind, class as char
            ));
        }
        if ok && doc.get("tenant").and_then(Json::as_str) != Some(tenant) {
            return Err(format!(
                "admit of {tenant} answered for another tenant: {body}"
            ));
        }
        return Ok(Some(class));
    }
    let fine = ok
        && match step.kind {
            Kind::Evict | Kind::EvictIfAdmitted => {
                doc.get("tenant").and_then(Json::as_str) == Some(tenant)
            }
            Kind::Query => {
                doc.get("tenant")
                    .and_then(|t| t.get("name"))
                    .and_then(Json::as_str)
                    == Some(tenant)
            }
            Kind::List => doc.get("count").and_then(Json::as_num) == Some(residents as f64),
            Kind::Stats => doc
                .get("prometheus")
                .and_then(Json::as_str)
                .is_some_and(|p| p.contains("serve_requests")),
            _ => true,
        };
    if fine {
        Ok(None)
    } else {
        Err(format!("{:?} of {tenant:?} answered {body}", step.kind))
    }
}

// ------------------------------------------------------------ the daemon

struct DaemonProc {
    child: Child,
    stream: UnixStream,
    dir: PathBuf,
    journal: PathBuf,
    http_addr: Option<String>,
}

static INSTANCE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl DaemonProc {
    fn spawn(srsched: &Path, sc: &Scenario) -> Result<DaemonProc, String> {
        // Relative to the working directory (the root of the checkout), so
        // the socket path stays under the 108-byte limit wherever the
        // checkout lives.
        let dir = PathBuf::from(format!(
            ".bench_build/sysbench-tmp/{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let (socket, journal, log) = (
            dir.join("d.sock"),
            dir.join("audit.jsonl"),
            dir.join("stderr.log"),
        );
        let stderr = std::fs::File::create(&log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut child = Command::new(srsched)
            .args(["serve", "--topo", &sc.topo])
            .args(["--period", &sc.period.to_string()])
            .args(["--bandwidth", &sc.bandwidth.to_string()])
            .args(["--parallelism", "1"])
            .arg("--socket")
            .arg(&socket)
            .arg("--journal")
            .arg(&journal)
            .args(["--http", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", srsched.display()))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            if let Ok(s) = UnixStream::connect(&socket) {
                break s;
            }
            let exited = child.try_wait().ok().flatten();
            if exited.is_some() || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                let said = std::fs::read_to_string(&log).unwrap_or_default();
                return Err(format!(
                    "srsched serve did not come up ({exited:?}): {said}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let http_addr = std::fs::read_to_string(&log).ok().and_then(|text| {
            let rest = text.split("http exposition on http://").nth(1)?;
            Some(rest.split('/').next()?.to_string())
        });
        Ok(DaemonProc {
            child,
            stream,
            dir,
            journal,
            http_addr,
        })
    }

    /// `shutdown`, then waits for the process to end.
    fn stop(&mut self) -> Result<(), String> {
        let answered = send(&mut self.stream, "{\"op\":\"shutdown\"}");
        let waited = wait_with_deadline(&mut self.child, Duration::from_secs(20));
        answered.map_err(|e| format!("shutdown: {e}"))?;
        match waited {
            Some(status) if status.success() => Ok(()),
            other => Err(format!("srsched serve ended with {other:?}")),
        }
    }
}

/// Waits for `child`; kills it when the deadline passes. `None` means killed.
fn wait_with_deadline(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        // Whatever happened, no child outlives the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ------------------------------------------------------------ the workload

pub struct Serve {
    scenario: Scenario,
    srsched: PathBuf,
    daemon: DaemonProc,
    round_no: usize,
    fingerprint: u64,
    /// Admit classes of the latest round, for the rung counts.
    last_classes: Vec<u8>,
    last_memo_hits: usize,
    query_rtt_us: Vec<f64>,
}

impl Serve {
    /// Spawns the daemon and admits the residents.
    pub fn new(scenario: Scenario, srsched: &Path) -> Result<Serve, String> {
        let mut daemon = DaemonProc::spawn(srsched, &scenario)?;
        for r in &scenario.residents {
            let body =
                send(&mut daemon.stream, &admit_request(r)).map_err(|e| format!("fill: {e}"))?;
            if !body.starts_with("{\"ok\":true") {
                return Err(format!("resident {} was not admitted: {body}", r.name));
            }
        }
        Ok(Serve {
            fingerprint: scenario.fingerprint(),
            scenario,
            srsched: srsched.to_path_buf(),
            daemon,
            round_no: 0,
            last_classes: Vec::new(),
            last_memo_hits: 0,
            query_rtt_us: Vec::new(),
        })
    }
}

impl Workload for Serve {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn measured_pid(&self) -> Option<u32> {
        Some(self.daemon.child.id())
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        let requests = self.scenario.requests(self.round_no);
        let tag = self.round_no.to_string();
        self.round_no += 1;
        let mut round = Round::default();
        // (step index, response, latency ms); checked after the clock stops.
        let mut answers: Vec<(usize, String, f64)> = Vec::with_capacity(requests.len());
        let mut admitted = false;
        let t_round = Instant::now();
        for (i, step) in self.scenario.script.iter().enumerate() {
            if step.kind == Kind::EvictIfAdmitted && !admitted {
                continue;
            }
            // The cumulative scrape closes the script and runs off the clock:
            // the daemon's recorder keeps every sample, so the scrape costs
            // more each round (+0.3 ms per round on serve_chain) and would
            // make the rate of a round depend on how many came before it.
            if step.kind == Kind::Stats {
                round.wall_s = t_round.elapsed().as_secs_f64();
                round.ops = answers.len();
            }
            let t0 = Instant::now();
            let answer = {
                let _g = tracer.map(|t| t.span(step.kind.span()));
                send(&mut self.daemon.stream, &requests[i])
            };
            let ms = ms_since(t0);
            match answer {
                Ok(body) => {
                    admitted = body.starts_with("{\"ok\":true");
                    answers.push((i, body, ms));
                }
                Err(e) => {
                    round.failures.push(format!("transport: {e}"));
                    break;
                }
            }
        }
        let mut classes = Vec::new();
        self.last_memo_hits = 0;
        self.query_rtt_us.clear();
        for (i, body, ms) in &answers {
            let step = &self.scenario.script[*i];
            let tenant = step.tenant.replace(ROUND_TOKEN, &tag);
            match check(step, &tenant, body, self.scenario.residents.len()) {
                Ok(Some(class)) => {
                    round.op_ms.push(*ms);
                    round.feasible += usize::from(class != b'x');
                    self.last_memo_hits += usize::from(body.contains("\"memo_hit\":true"));
                    classes.push(class);
                }
                Ok(None) => {
                    if step.kind == Kind::Query {
                        round.read_ms.push(*ms);
                        self.query_rtt_us.push(ms * 1e3);
                    }
                }
                Err(why) => round
                    .failures
                    .push(format!("{}: {why}", self.scenario.name)),
            }
        }
        round.outcomes = String::from_utf8(classes.clone()).expect("ascii");
        self.last_classes = classes;
        round
    }

    fn probe_layers(&mut self, tracer: &Tracer, layers: &mut Layers) -> Vec<String> {
        let mut failures = Vec::new();
        // From the latest round over the socket.
        for (letter, metric) in [
            (b'p', "serve.rung.replay"),
            (b'f', "serve.rung.fast"),
            (b'a', "serve.rung.adapted"),
            (b'r', "serve.rung.rerouted"),
            (b'x', "serve.rung.reject"),
        ] {
            layers.set(
                metric,
                self.last_classes.iter().filter(|&&c| c == letter).count() as f64,
            );
        }
        layers.set(
            "serve.admit.memo_hit_share",
            self.last_memo_hits as f64 / self.last_classes.len().max(1) as f64,
        );
        if let Some(addr) = self.daemon.http_addr.clone() {
            match tracer.time("serve.http.scrape", || scrape(&addr)) {
                Ok(ms) => layers.set("serve.http.scrape_ms", ms),
                Err(e) => failures.push(format!("GET /metrics on {addr}: {e}")),
            }
        } else {
            failures.push("the daemon did not report its HTTP address".to_string());
        }
        let socket_query_us = median(&self.query_rtt_us);

        let sc = &self.scenario;
        let requests = sc.requests(1);
        probe_parsers(&requests, tracer, layers);
        let engine_classes = probe_engine(sc, tracer, layers);
        let dir = self.daemon.dir.clone();
        let bare = probe_daemon(sc, tracer, Surface::Bare, &dir);
        let journaled = probe_daemon(sc, tracer, Surface::Journal, &dir);
        let published = probe_daemon(sc, tracer, Surface::Http, &dir);
        // The replicas are configured here, the daemon by the CLI's defaults:
        // unless every admit ends on the same rung in both, the per-layer
        // numbers describe another execution than the end-to-end ones.
        for (replica, classes) in [
            ("Engine", &engine_classes),
            ("bare Daemon", &bare.classes),
            ("Daemon with journal", &journaled.classes),
            ("Daemon with HTTP", &published.classes),
        ] {
            if *classes != self.last_classes {
                failures.push(format!(
                    "{}: the in-process {replica} ended its admits as {}, the daemon behind the socket as {}",
                    sc.name,
                    String::from_utf8_lossy(classes),
                    String::from_utf8_lossy(&self.last_classes)
                ));
            }
        }
        for (kind, metric) in [
            ("admit", "serve.daemon.handle_frame_us.admit"),
            ("evict", "serve.daemon.handle_frame_us.evict"),
            ("query", "serve.daemon.handle_frame_us.query"),
            ("list", "serve.daemon.handle_frame_us.list"),
            ("stats", "serve.daemon.handle_frame_us.stats"),
        ] {
            layers.set(metric, bare.mean_us(kind));
        }
        layers.set(
            "serve.audit.journal_us",
            journaled.write_mean_us() - bare.write_mean_us(),
        );
        layers.set(
            "serve.audit.bytes_per_op",
            journaled.journal_bytes_per_write,
        );
        layers.set(
            "serve.http.publish_us",
            published.write_mean_us() - bare.write_mean_us(),
        );
        layers.set(
            "serve.transport_us",
            socket_query_us - bare.median_us("query"),
        );
        failures
    }

    fn finish(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        if let Err(e) = self.daemon.stop() {
            failures.push(e);
        }
        // Replaying a journal costs about what writing it did, and a journal
        // that rotated twice (8 MiB per file) has lost its genesis line and
        // cannot be replayed at all. So the daemons of the set-up repeats,
        // which ran the fill and one round, are replayed, and the one that
        // ran the timed rounds only when it ran few (smoke and traced runs).
        if self.round_no <= REPLAY_UP_TO_ROUNDS {
            let replay = Command::new(&self.srsched)
                .arg("serve-replay")
                .arg(&self.daemon.journal)
                .stdin(Stdio::null())
                .output();
            match replay {
                Ok(out)
                    if out.status.success()
                        && String::from_utf8_lossy(&out.stdout)
                            .contains("ops verified bit-identical")
                        && !String::from_utf8_lossy(&out.stdout).contains("torn line") => {}
                Ok(out) => failures.push(format!(
                    "serve-replay did not verify the journal: {}{}",
                    String::from_utf8_lossy(&out.stdout),
                    String::from_utf8_lossy(&out.stderr)
                )),
                Err(e) => failures.push(format!("cannot run serve-replay: {e}")),
            }
        }
        failures
    }
}

/// One `GET /metrics` over TCP; returns its wall in ms.
fn scrape(addr: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut tcp = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    tcp.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    tcp.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut body = String::new();
    tcp.read_to_string(&mut body).map_err(|e| e.to_string())?;
    if body.starts_with("HTTP/1.1 200") && body.contains("serve_requests") {
        Ok(ms_since(t0))
    } else {
        Err(format!(
            "unexpected answer: {}",
            body.lines().next().unwrap_or("")
        ))
    }
}

// ------------------------------------------------- in-process replicas

/// `serve.json` and `serve.protocol`: decode every request of one round.
fn probe_parsers(requests: &[String], tracer: &Tracer, layers: &mut Layers) {
    let mark = tracer.len();
    for r in requests {
        let doc = tracer.time("serve.json.parse", || sr::serve::parse(r.as_bytes()));
        if let Ok(doc) = doc {
            let _ = tracer.time("serve.protocol.parse_request", || {
                sr::serve::parse_request(&doc)
            });
        }
    }
    let totals = tracer.totals_since(mark);
    let mean_us = |span: &str| {
        totals
            .get(span)
            .map_or(0.0, |t| t.total_ms * 1e3 / t.count.max(1) as f64)
    };
    layers.set("serve.json.parse_us", mean_us("serve.json.parse"));
    layers.set(
        "serve.protocol.parse_request_us",
        mean_us("serve.protocol.parse_request"),
    );
}

/// `serve.engine`: the round's admits and evicts as direct `Engine` calls
/// with the no-op recorder, after a warm-up round. Returns how the measured
/// round's admits ended, in the letters of `admit_class`.
fn probe_engine(sc: &Scenario, tracer: &Tracer, layers: &mut Layers) -> Vec<u8> {
    use sr::obs::NOOP;
    let mut engine = sc.engine();
    for r in &sc.residents {
        let _ = engine.admit(r, &NOOP);
    }
    // Standalone compile of each resident spec: what a cold admission adds.
    let mark = tracer.len();
    for r in &sc.residents {
        if let (Ok(tfg), Placement::Nodes(nodes)) = (sr::tfg::from_text(&r.tfg_text), &r.placement)
        {
            let placement = nodes.iter().map(|&n| sr::topology::NodeId(n)).collect();
            if let Ok(alloc) = sr::mapping::Allocation::new(placement, &tfg, engine.topo()) {
                let cfg = engine.config().clone();
                let _ = tracer.time("serve.engine.compile_standalone", || {
                    sr::core::compile(
                        engine.topo(),
                        &tfg,
                        &alloc,
                        &cfg.timing,
                        cfg.period,
                        &cfg.compile,
                    )
                });
            }
        }
    }
    for _ in 0..32 {
        let ledger = tracer.time("serve.engine.ledger", || engine.ledger());
        layers.set(
            "serve.engine.ledger_spans",
            ledger.values().map(Vec::len).sum::<usize>() as f64,
        );
        let _ = tracer.time("serve.engine.check_invariants", || {
            engine.check_invariants()
        });
    }
    // Sum and count of admit latencies per outcome class.
    let mut admit_us: std::collections::BTreeMap<&'static str, (f64, u32)> = Default::default();
    let mut classes = Vec::new();
    for pass in 0..2 {
        let traced = pass == 1;
        let tag = format!("e{pass}");
        let mut admitted = false;
        for step in &sc.script {
            let tenant = step.tenant.replace(ROUND_TOKEN, &tag);
            match (&step.spec, step.kind) {
                (Some(spec), _) => {
                    let spec = TenantSpec {
                        name: tenant,
                        ..spec.clone()
                    };
                    let t0 = Instant::now();
                    let result = engine.admit(&spec, &NOOP);
                    let us = ms_since(t0) * 1e3;
                    admitted = result.is_ok();
                    if traced {
                        let (letter, metric) = match &result {
                            Ok(r) if r.replayed => (b'p', "serve.engine.admit_us.replay"),
                            Ok(r) => match r.rung {
                                sr::serve::AdmitRung::Fast => (b'f', "serve.engine.admit_us.fast"),
                                sr::serve::AdmitRung::Adapted => {
                                    (b'a', "serve.engine.admit_us.adapted")
                                }
                                sr::serve::AdmitRung::Rerouted => {
                                    (b'r', "serve.engine.admit_us.rerouted")
                                }
                                sr::serve::AdmitRung::BestEffort => {
                                    unreachable!("no generated spec allows best effort")
                                }
                            },
                            Err(_) => (b'x', "serve.engine.admit_us.reject"),
                        };
                        classes.push(letter);
                        let slot = admit_us.entry(metric).or_insert((0.0, 0u32));
                        slot.0 += us;
                        slot.1 += 1;
                    }
                }
                (None, Kind::Evict) | (None, Kind::EvictIfAdmitted) => {
                    if step.kind == Kind::EvictIfAdmitted && !admitted {
                        continue;
                    }
                    if traced {
                        let _ = tracer.time("serve.engine.evict", || engine.evict(&tenant, &NOOP));
                    } else {
                        let _ = engine.evict(&tenant, &NOOP);
                    }
                }
                _ => {}
            }
        }
    }
    for (class, (sum_us, n)) in admit_us {
        layers.set(class, sum_us / f64::from(n));
    }
    let totals = tracer.totals_since(mark);
    let mean_us = |span: &str| {
        totals
            .get(span)
            .map_or(0.0, |t| t.total_ms * 1e3 / t.count.max(1) as f64)
    };
    layers.set("serve.engine.evict_us", mean_us("serve.engine.evict"));
    layers.set(
        "serve.engine.compile_standalone_us",
        mean_us("serve.engine.compile_standalone"),
    );
    layers.set("serve.engine.ledger_us", mean_us("serve.engine.ledger"));
    layers.set(
        "serve.engine.check_invariants_us",
        mean_us("serve.engine.check_invariants"),
    );
    classes
}

#[derive(Clone, Copy, PartialEq)]
enum Surface {
    Bare,
    Journal,
    Http,
}

#[derive(Default)]
struct FrameTimes {
    /// (request class, µs) of every frame of the measured round.
    samples: Vec<(&'static str, f64)>,
    journal_bytes_per_write: f64,
    /// How the measured round's admits ended, in the letters of
    /// `admit_class` (`?` for an answer that has none).
    classes: Vec<u8>,
}

impl FrameTimes {
    fn of(&self, kind: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.0 == kind)
            .map(|s| s.1)
            .collect()
    }
    fn mean_us(&self, kind: &str) -> f64 {
        let v = self.of(kind);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
    fn median_us(&self, kind: &str) -> f64 {
        median(&self.of(kind))
    }
    fn write_mean_us(&self) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.0 == "admit" || s.0 == "evict")
            .map(|s| s.1)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

/// `serve.daemon` (+ `serve.audit`, `serve.http`): the round's frames through
/// `Daemon::handle_frame` in-process, with one optional surface attached;
/// the cost of a surface is the difference to the bare daemon.
fn probe_daemon(sc: &Scenario, tracer: &Tracer, surface: Surface, dir: &Path) -> FrameTimes {
    let mut daemon = Daemon::new(sc.engine());
    let journal = dir.join("probe-audit.jsonl");
    match surface {
        Surface::Bare => {}
        Surface::Journal => {
            let _ = daemon.attach_journal(&journal, &[("topo", sc.topo.as_str())]);
        }
        Surface::Http => {
            let _ = daemon.attach_http("127.0.0.1:0");
        }
    }
    for r in &sc.residents {
        daemon.handle_frame(admit_request(r).as_bytes());
    }
    let mut times = FrameTimes::default();
    for pass in 0..2 {
        let measured = pass == 1;
        let requests = sc.requests(pass);
        let bytes_before = std::fs::metadata(&journal).map_or(0, |m| m.len());
        let mut writes = 0usize;
        let mut admitted = false;
        for (step, request) in sc.script.iter().zip(&requests) {
            if step.kind == Kind::EvictIfAdmitted && !admitted {
                continue;
            }
            let class = step.kind.class();
            let t0 = Instant::now();
            let (body, _) = {
                let _g = (measured && surface == Surface::Bare)
                    .then(|| tracer.span("serve.daemon.handle_frame"));
                daemon.handle_frame(request.as_bytes())
            };
            let us = ms_since(t0) * 1e3;
            admitted = body.starts_with("{\"ok\":true");
            if measured {
                times.samples.push((class, us));
                writes += usize::from(class == "admit" || class == "evict");
                if step.kind.is_admit() {
                    let letter = sr::serve::parse(body.as_bytes())
                        .ok()
                        .and_then(|doc| admit_class(&doc).ok());
                    times.classes.push(letter.unwrap_or(b'?'));
                }
            }
        }
        if measured && surface == Surface::Journal {
            let grown = std::fs::metadata(&journal)
                .map_or(0, |m| m.len())
                .saturating_sub(bytes_before);
            times.journal_bytes_per_write = grown as f64 / writes.max(1) as f64;
        }
    }
    // Stops the listener thread of the HTTP surface.
    daemon.handle_frame(b"{\"op\":\"shutdown\"}");
    let _ = std::fs::remove_file(&journal);
    times
}
