//! The admission **audit journal**: one JSONL record per engine mutation,
//! enough to re-drive a fresh engine and *prove* the daemon's determinism
//! contract from the trail alone.
//!
//! Every admit/evict/reject appends a `{"t":"audit",...}` line (written
//! through [`sr_obs::JournalWriter`]'s rotation machinery) carrying the
//! tenant spec, the outcome (rung, scale, rungs tried), the wall-clock
//! ladder timings, and two fingerprints of the *post-operation* state: the
//! admitted tenant's own spans and the whole ledger. Replay
//! ([`apply_record`]) feeds the recorded spec back into a fresh
//! [`Engine`] built from the journal's meta line and checks that the
//! reconstructed outcome and both fingerprints match bit-for-bit.
//!
//! The genesis meta line names the fingerprint function under
//! [`FINGERPRINT_KEY`] ([`Fingerprint`]); a meta line without the key was
//! written before the key existed, by builds that hashed the whole span
//! stream, and is verified with that function.
//!
//! Replay deliberately does **not** compare the `replayed`/`memo_hit`
//! flags: memos are caches, not allocator state, so a fresh engine may
//! take the cold ladder where the original session replayed a memo — the
//! resulting tenant table and ledger are identical either way (that is
//! the determinism guarantee being audited), and the hashes prove it.
//!
//! Timestamps appear only inside the records (`latency_us`, `ladder`);
//! they are carried through replay untouched and never influence it.

use std::collections::BTreeMap;

use crate::engine::{AdmitError, AdmitReport, Engine, Placement, Rejection, TenantSpec};
use crate::protocol::spec_members;
use sr_obs::json::{parse, Json};
use sr_obs::{escape_json, json_num, Recorder};
use sr_topology::LinkId;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues FNV-1a state `h` over one row: the link index, the row length,
/// then every span's start and end bits, each word as u64 little-endian.
fn fnv_row(mut h: u64, link: LinkId, row: &[(f64, f64)]) -> u64 {
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(link.index() as u64);
    eat(row.len() as u64);
    for &(s, e) in row {
        eat(s.to_bits());
        eat(e.to_bits());
    }
    h
}

/// The FNV-1a digest of one ledger row, from the offset basis over exactly
/// the bytes the whole-stream fingerprint hashes for that row.
pub(crate) fn row_digest(link: LinkId, row: &[(f64, f64)]) -> u64 {
    fnv_row(FNV_OFFSET, link, row)
}

/// The fingerprint of a span table (the ledger, or one tenant's spans): the
/// wrapping sum over rows of each row's FNV-1a digest, so an empty row
/// contributes nothing. Rows are keyed by link, so the sum is a pure
/// function of the table — never of the order of the ops that built it —
/// and the engine keeps its ledger's sum row by row as rows change.
pub fn spans_hash(spans: &BTreeMap<LinkId, Vec<(f64, f64)>>) -> u64 {
    spans
        .iter()
        .filter(|(_, row)| !row.is_empty())
        .fold(0, |sum, (&l, row)| sum.wrapping_add(row_digest(l, row)))
}

/// The fingerprint journals without a [`FINGERPRINT_KEY`] carry: one FNV-1a
/// stream over every row in link order. Only ever verified, never written.
fn whole_stream_hash(spans: &BTreeMap<LinkId, Vec<(f64, f64)>>) -> u64 {
    spans
        .iter()
        .fold(FNV_OFFSET, |h, (&l, row)| fnv_row(h, l, row))
}

/// The ledger fingerprint ([`spans_hash`] of the maintained ledger), kept
/// by the engine as rows change: O(1).
pub fn ledger_hash(engine: &Engine) -> u64 {
    engine.kept_fingerprint()
}

/// The meta key naming a journal's [`Fingerprint`].
pub const FINGERPRINT_KEY: &str = "fingerprint";

/// The function a journal's `spans_hash` / `ledger_hash` members were taken
/// with, read from its meta line and never chosen: the daemon writes
/// [`Fingerprint::RowSum`], and [`Fingerprint::WholeStream`] exists to
/// verify the journals of builds that predate the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fingerprint {
    /// One FNV-1a stream over the whole table: a meta line with no
    /// [`FINGERPRINT_KEY`].
    WholeStream,
    /// [`spans_hash`], the wrapping sum of per-row FNV-1a digests.
    RowSum,
}

impl Fingerprint {
    /// The name a meta line gives this fingerprint (`WholeStream` is never
    /// written; its name is for messages).
    pub fn label(self) -> &'static str {
        match self {
            Fingerprint::WholeStream => "fnv1a-whole",
            Fingerprint::RowSum => "fnv1a-row-sum",
        }
    }

    /// The fingerprint a journal's genesis meta pairs name.
    ///
    /// # Errors
    ///
    /// A name this build does not know.
    pub fn of_meta(meta: &BTreeMap<String, String>) -> Result<Fingerprint, String> {
        match meta.get(FINGERPRINT_KEY).map(String::as_str) {
            None => Ok(Fingerprint::WholeStream),
            Some(name) if name == Fingerprint::RowSum.label() => Ok(Fingerprint::RowSum),
            Some(other) => Err(format!(
                "audit meta names the unknown fingerprint \"{other}\""
            )),
        }
    }

    /// This fingerprint of a span table.
    pub fn of_spans(self, spans: &BTreeMap<LinkId, Vec<(f64, f64)>>) -> u64 {
        match self {
            Fingerprint::WholeStream => whole_stream_hash(spans),
            Fingerprint::RowSum => spans_hash(spans),
        }
    }
}

/// Renders a tenant spec as the audit `"spec"` member.
fn render_spec(spec: &TenantSpec) -> String {
    let placement = match &spec.placement {
        Placement::Strategy(s) => format!("\"{}\"", escape_json(s)),
        Placement::Nodes(nodes) => {
            let items: Vec<String> = nodes.iter().map(usize::to_string).collect();
            format!("[{}]", items.join(","))
        }
    };
    format!(
        "{{\"tfg\":\"{}\",\"placement\":{placement},\"best_effort\":{}}}",
        escape_json(&spec.tfg_text),
        spec.best_effort
    )
}

/// Renders the `"ladder"` member: `[["stage",µs],...]` in ladder order.
fn render_ladder(laps: &[(&'static str, f64)]) -> String {
    let items: Vec<String> = laps
        .iter()
        .map(|(s, us)| format!("[\"{s}\",{}]", json_num(*us)))
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders the audit record for a successful admission. `spans` is the
/// admitted tenant's own span fingerprint and `ledger` the post-admission
/// ledger fingerprint (both via [`spans_hash`]).
pub fn render_admit_record(
    spec: &TenantSpec,
    report: &AdmitReport,
    spans: u64,
    ledger: u64,
) -> String {
    format!(
        "{{\"t\":\"audit\",\"op\":\"admit\",\"tenant\":\"{}\",\"rung\":\"{}\",\"scale\":{},\
         \"replayed\":{},\"memo_hit\":{},\"rungs_tried\":{},\"latency_us\":{},\"ladder\":{},\
         \"spans_hash\":\"{spans:016x}\",\"ledger_hash\":\"{ledger:016x}\",\"spec\":{}}}",
        escape_json(&report.name),
        report.rung.label(),
        json_num(report.scale),
        report.replayed,
        report.memo_hit,
        report.rungs_tried,
        json_num(report.latency_us),
        render_ladder(&report.ladder_us),
        render_spec(spec)
    )
}

/// Renders the audit record for a rejected admission. `ledger` is the
/// (unchanged) post-rejection ledger fingerprint.
pub fn render_reject_record(spec: &TenantSpec, rej: &Rejection, ledger: u64) -> String {
    format!(
        "{{\"t\":\"audit\",\"op\":\"reject\",\"tenant\":\"{}\",\"rungs_tried\":{},\
         \"latency_us\":{},\"ladder\":{},\"detail\":\"{}\",\"ledger_hash\":\"{:016x}\",\
         \"spec\":{}}}",
        escape_json(&spec.name),
        rej.rungs_tried,
        json_num(rej.latency_us),
        render_ladder(&rej.ladder_us),
        escape_json(&rej.detail),
        ledger,
        render_spec(spec)
    )
}

/// Renders the audit record for an eviction. `ledger` is the post-eviction
/// ledger fingerprint.
pub fn render_evict_record(name: &str, latency_us: f64, ledger: u64) -> String {
    format!(
        "{{\"t\":\"audit\",\"op\":\"evict\",\"tenant\":\"{}\",\"latency_us\":{},\
         \"ledger_hash\":\"{:016x}\"}}",
        escape_json(name),
        json_num(latency_us),
        ledger
    )
}

/// What one audit line parses to.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditLine {
    /// The genesis `{"t":"meta",...}` line: free-form string pairs
    /// describing the engine configuration.
    Meta(BTreeMap<String, String>),
    /// One admit/evict/reject record.
    Record(AuditRecord),
}

/// A parsed audit record, ready for [`apply_record`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Which mutation this records.
    pub op: AuditOp,
    /// Tenant name.
    pub tenant: String,
    /// Rung label (admit records; empty otherwise).
    pub rung: String,
    /// Capacity scale (admit records; 0 otherwise).
    pub scale: f64,
    /// Ladder rungs attempted (admit/reject records).
    pub rungs_tried: usize,
    /// Post-admission fingerprint of the tenant's own spans (admit only).
    pub spans_hash: Option<u64>,
    /// Post-operation ledger fingerprint.
    pub ledger_hash: u64,
    /// The tenant spec (admit/reject records).
    pub spec: Option<TenantSpec>,
}

/// The three journaled mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOp {
    /// A successful admission.
    Admit,
    /// A successful eviction.
    Evict,
    /// A ladder-exhausted rejection.
    Reject,
}

/// Parses one journal line into an [`AuditLine`].
///
/// # Errors
///
/// A description of the malformation (also the torn-tail signal for
/// replay: a truncated final line fails here).
pub fn parse_audit_line(line: &str) -> Result<AuditLine, String> {
    let doc = parse(line.as_bytes()).map_err(|e| format!("not JSON: {e}"))?;
    let obj = doc.as_obj().ok_or("not a JSON object")?;
    let t = obj
        .get("t")
        .and_then(Json::as_str)
        .ok_or("missing string member \"t\"")?;
    match t {
        "meta" => {
            let mut pairs = BTreeMap::new();
            for (k, v) in obj {
                if k != "t" {
                    if let Some(s) = v.as_str() {
                        pairs.insert(k.clone(), s.to_string());
                    }
                }
            }
            Ok(AuditLine::Meta(pairs))
        }
        "audit" => parse_record(obj).map(AuditLine::Record),
        other => Err(format!("unknown line type \"{other}\"")),
    }
}

fn get_str<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string member \"{key}\""))
}

fn get_hash(obj: &BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    let s = get_str(obj, key)?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hash \"{key}\": {e}"))
}

fn parse_record(obj: &BTreeMap<String, Json>) -> Result<AuditRecord, String> {
    let op = match get_str(obj, "op")? {
        "admit" => AuditOp::Admit,
        "evict" => AuditOp::Evict,
        "reject" => AuditOp::Reject,
        other => return Err(format!("unknown audit op \"{other}\"")),
    };
    let tenant = get_str(obj, "tenant")?.to_string();
    let ledger_hash = get_hash(obj, "ledger_hash")?;
    let mut rec = AuditRecord {
        op,
        tenant,
        rung: String::new(),
        scale: 0.0,
        rungs_tried: 0,
        spans_hash: None,
        ledger_hash,
        spec: None,
    };
    if op != AuditOp::Evict {
        rec.rungs_tried = obj
            .get("rungs_tried")
            .and_then(Json::as_num)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or("missing integer member \"rungs_tried\"")? as usize;
        let spec = obj
            .get("spec")
            .and_then(Json::as_obj)
            .ok_or("missing object member \"spec\"")?;
        rec.spec = Some(spec_members(spec, &rec.tenant).map_err(|e| e.detail)?);
    }
    if op == AuditOp::Admit {
        rec.rung = get_str(obj, "rung")?.to_string();
        rec.scale = obj
            .get("scale")
            .and_then(Json::as_num)
            .ok_or("missing number member \"scale\"")?;
        rec.spans_hash = Some(get_hash(obj, "spans_hash")?);
    }
    Ok(rec)
}

/// Re-drives one audit record against `engine` and verifies the outcome
/// bit-for-bit: admits must land (same rung label, same scale bits, same
/// tenant-span and ledger fingerprints), evicts must succeed (same ledger
/// fingerprint), rejects must reject (same rungs tried, same ledger
/// fingerprint). Fingerprints are taken with `fingerprint`, the function
/// the journal's meta line names ([`Fingerprint::of_meta`]).
///
/// The ledger compared is the one *recomputed* from the tenant table
/// ([`Engine::ledger`]), which must also equal the maintained rows, match
/// the engine's kept fingerprint and pass [`Engine::check_invariants`] — so
/// every audited op tests the daemon's maintained state against the
/// specification.
///
/// # Errors
///
/// A description of the first divergence between the journal and the
/// reconstructed engine.
pub fn apply_record(
    engine: &mut Engine,
    r: &AuditRecord,
    fingerprint: Fingerprint,
    rec: &dyn Recorder,
) -> Result<(), String> {
    let named = fingerprint.label();
    match r.op {
        AuditOp::Admit => {
            let spec = r.spec.as_ref().ok_or("admit record lost its spec")?;
            let report = engine
                .admit(spec, rec)
                .map_err(|e| format!("admit \"{}\" failed on replay: {e:?}", r.tenant))?;
            if report.rung.label() != r.rung {
                return Err(format!(
                    "admit \"{}\": rung diverged (journal {}, replay {})",
                    r.tenant,
                    r.rung,
                    report.rung.label()
                ));
            }
            if report.scale.to_bits() != r.scale.to_bits() {
                return Err(format!(
                    "admit \"{}\": scale diverged (journal {}, replay {})",
                    r.tenant, r.scale, report.scale
                ));
            }
            let spans = fingerprint.of_spans(
                &engine
                    .tenant(&r.tenant)
                    .ok_or("admitted tenant vanished")?
                    .spans,
            );
            if Some(spans) != r.spans_hash {
                return Err(format!(
                    "admit \"{}\": tenant spans diverged under the {named} fingerprint \
                     (journal {:016x?}, replay {spans:016x})",
                    r.tenant, r.spans_hash
                ));
            }
        }
        AuditOp::Evict => {
            engine
                .evict(&r.tenant, rec)
                .map_err(|e| format!("evict \"{}\" failed on replay: {e}", r.tenant))?;
        }
        AuditOp::Reject => {
            let spec = r.spec.as_ref().ok_or("reject record lost its spec")?;
            match engine.admit(spec, rec) {
                Err(AdmitError::Infeasible(rej)) => {
                    if rej.rungs_tried != r.rungs_tried {
                        return Err(format!(
                            "reject \"{}\": rungs_tried diverged (journal {}, replay {})",
                            r.tenant, r.rungs_tried, rej.rungs_tried
                        ));
                    }
                }
                Ok(rep) => {
                    return Err(format!(
                        "reject \"{}\" admitted on replay (rung {})",
                        r.tenant,
                        rep.rung.label()
                    ));
                }
                Err(e) => {
                    return Err(format!(
                        "reject \"{}\" failed differently on replay: {e:?}",
                        r.tenant
                    ));
                }
            }
        }
    }
    let recomputed = engine.ledger();
    if recomputed != *engine.maintained_ledger() {
        return Err(format!(
            "{:?} \"{}\": maintained ledger diverged from its recompute",
            r.op, r.tenant
        ));
    }
    if ledger_hash(engine) != spans_hash(&recomputed) {
        return Err(format!(
            "{:?} \"{}\": kept ledger fingerprint diverged from its recompute",
            r.op, r.tenant
        ));
    }
    engine
        .check_invariants()
        .map_err(|e| format!("{:?} \"{}\": {e}", r.op, r.tenant))?;
    let ledger = fingerprint.of_spans(&recomputed);
    if ledger != r.ledger_hash {
        return Err(format!(
            "{:?} \"{}\": ledger diverged under the {named} fingerprint \
             (journal {:016x}, replay {ledger:016x})",
            r.op, r.tenant, r.ledger_hash
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use sr_obs::NOOP;
    use sr_topology::Torus;

    fn engine() -> Engine {
        let topo = Torus::new(&[4, 4]).expect("torus");
        Engine::new(Box::new(topo), ServeConfig::default())
    }

    fn chain_spec(name: &str, nodes: &[usize]) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            tfg_text: "task a 100\ntask b 100\ntask c 100\n\
                       msg m0 a -> b 256\nmsg m1 b -> c 256\n"
                .to_string(),
            placement: Placement::Nodes(nodes.to_vec()),
            best_effort: false,
        }
    }

    /// Both fingerprints of one hand-built ledger, pinned. The whole-stream
    /// value and the three row digests were printed by the `spans_hash` of
    /// the build before the row sum existed (a one-row table's whole-stream
    /// hash *is* that row's digest), so the row sum here is their sum.
    #[test]
    fn fingerprints_of_a_fixed_ledger_are_pinned() {
        let ledger = BTreeMap::from([
            (LinkId(3), vec![(0.0, 12.5), (40.0, 52.25)]),
            (LinkId(17), vec![(5.0, 6.0)]),
            (
                LinkId(42),
                vec![(100.5, 150.0), (200.0, 201.0), (390.0, 400.0)],
            ),
        ]);
        assert_eq!(whole_stream_hash(&ledger), 0x0419_cd46_9399_c4f4);
        let rows = [
            0x3728_526e_1822_a9fb_u64,
            0x855d_48c6_e59c_0f29,
            0x8eb0_99f8_53fb_bc46,
        ];
        for ((&l, row), want) in ledger.iter().zip(rows) {
            assert_eq!(row_digest(l, row), want, "row {l}");
        }
        assert_eq!(spans_hash(&ledger), 0x4b36_352d_51ba_756a);
        assert_eq!(Fingerprint::RowSum.of_spans(&ledger), 0x4b36_352d_51ba_756a);
        assert_eq!(
            Fingerprint::WholeStream.of_spans(&ledger),
            0x0419_cd46_9399_c4f4
        );
        // The empty ledger; an empty row is no row.
        assert_eq!(whole_stream_hash(&BTreeMap::new()), FNV_OFFSET);
        assert_eq!(spans_hash(&BTreeMap::new()), 0);
        let mut with_empty = ledger.clone();
        with_empty.insert(LinkId(5), Vec::new());
        assert_eq!(spans_hash(&with_empty), spans_hash(&ledger));
    }

    #[test]
    fn the_meta_line_names_the_fingerprint() {
        let meta = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(
            Fingerprint::of_meta(&meta(&[("topo", "torus:4x4")])),
            Ok(Fingerprint::WholeStream)
        );
        assert_eq!(
            Fingerprint::of_meta(&meta(&[(FINGERPRINT_KEY, "fnv1a-row-sum")])),
            Ok(Fingerprint::RowSum)
        );
        let err = Fingerprint::of_meta(&meta(&[(FINGERPRINT_KEY, "fnv1a-whole")]))
            .expect_err("the whole-stream function is never named");
        assert!(err.contains("unknown fingerprint \"fnv1a-whole\""), "{err}");
    }

    #[test]
    fn records_round_trip_and_replay_verifies() {
        let mut eng = engine();
        let mut journal = Vec::new();
        for (name, nodes) in [("a", [0usize, 1, 2]), ("b", [4, 5, 6]), ("c", [8, 9, 10])] {
            let spec = chain_spec(name, &nodes);
            let report = eng.admit(&spec, &NOOP).expect("admits");
            let spans = spans_hash(&eng.tenant(name).unwrap().spans);
            journal.push(render_admit_record(
                &spec,
                &report,
                spans,
                ledger_hash(&eng),
            ));
        }
        eng.evict("b", &NOOP).expect("evicts");
        journal.push(render_evict_record("b", 0.0, ledger_hash(&eng)));
        // Re-drive a fresh engine and verify every record.
        let records: Vec<AuditRecord> = journal
            .iter()
            .map(|line| match parse_audit_line(line).expect("parses") {
                AuditLine::Record(r) => r,
                AuditLine::Meta(_) => panic!("no meta written"),
            })
            .collect();
        let mut fresh = engine();
        for r in &records {
            apply_record(&mut fresh, r, Fingerprint::RowSum, &NOOP).expect("verifies");
        }
        assert_eq!(ledger_hash(&fresh), ledger_hash(&eng));
        // Verified with the function of a journal that names none, the
        // same records fail at the first one.
        let err = apply_record(&mut engine(), &records[0], Fingerprint::WholeStream, &NOOP)
            .expect_err("another fingerprint");
        assert!(err.contains("under the fnv1a-whole fingerprint"), "{err}");
    }

    #[test]
    fn divergence_is_detected_not_absorbed() {
        let mut eng = engine();
        let spec = chain_spec("a", &[0, 1, 2]);
        let report = eng.admit(&spec, &NOOP).expect("admits");
        let spans = spans_hash(&eng.tenant("a").unwrap().spans);
        let line = render_admit_record(&spec, &report, spans, ledger_hash(&eng));
        // Corrupt the ledger hash: replay must flag it.
        let bad = line.replace(
            &format!("\"ledger_hash\":\"{:016x}\"", ledger_hash(&eng)),
            "\"ledger_hash\":\"00000000deadbeef\"",
        );
        assert_ne!(line, bad);
        let AuditLine::Record(r) = parse_audit_line(&bad).expect("parses") else {
            panic!("not a record");
        };
        let mut fresh = engine();
        let err = apply_record(&mut fresh, &r, Fingerprint::RowSum, &NOOP).expect_err("diverges");
        assert!(err.contains("ledger diverged"), "unexpected error: {err}");
    }

    #[test]
    fn reject_records_replay_as_rejections() {
        let mut eng = engine();
        let mut hog = chain_spec("hog", &[0, 1]);
        hog.tfg_text = "task a 100\ntask b 100\nmsg m a -> b 2000000\n".into();
        let Err(AdmitError::Infeasible(rej)) = eng.admit(&hog, &NOOP) else {
            panic!("hog should be infeasible");
        };
        let line = render_reject_record(&hog, &rej, ledger_hash(&eng));
        let AuditLine::Record(r) = parse_audit_line(&line).expect("parses") else {
            panic!("not a record");
        };
        assert_eq!(r.op, AuditOp::Reject);
        let mut fresh = engine();
        apply_record(&mut fresh, &r, Fingerprint::RowSum, &NOOP).expect("reject replays as reject");
        assert_eq!(ledger_hash(&fresh), ledger_hash(&eng));
    }

    #[test]
    fn meta_lines_parse_as_meta() {
        match parse_audit_line(r#"{"t":"meta","kind":"serve-audit","topo":"torus:4x4"}"#) {
            Ok(AuditLine::Meta(pairs)) => {
                assert_eq!(pairs.get("kind").map(String::as_str), Some("serve-audit"));
                assert_eq!(pairs.get("topo").map(String::as_str), Some("torus:4x4"));
            }
            other => panic!("expected meta, got {other:?}"),
        }
        assert!(parse_audit_line("{\"t\":\"audit\",\"op\":\"admi").is_err());
        assert!(parse_audit_line("").is_err());
    }
}
