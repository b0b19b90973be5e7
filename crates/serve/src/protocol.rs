//! The request/response wire protocol.
//!
//! Requests and responses are single JSON documents (framed by the
//! transport, see [`crate::daemon`]). Parsing is total: any byte sequence
//! maps to either a [`Request`] or a typed [`ServeError`] — never a panic.
//!
//! # Requests
//!
//! ```json
//! {"op":"admit","tenant":{"name":"cam0","tfg":"task a 100\n...","placement":[0,1],"best_effort":false}}
//! {"op":"admit_batch","tenants":[{...},{...}]}
//! {"op":"evict","tenant":"cam0"}
//! {"op":"query","tenant":"cam0"}
//! {"op":"list"}
//! {"op":"stats"}
//! {"op":"stats","mode":"cumulative"}
//! {"op":"shutdown"}
//! ```
//!
//! `placement` is either an array of node ids (one per task, in task
//! order) or a strategy string (`"greedy"`, `"roundrobin"`,
//! `"scatter:<seed>"`). `best_effort` defaults to `false`. `stats`
//! defaults to `"mode":"delta"` (counter increments since the previous
//! delta scrape, which it consumes); `"cumulative"` is non-destructive —
//! it renders the recorder's full state and leaves the delta cursor
//! untouched, so a dropped connection after a cumulative scrape loses
//! nothing.
//!
//! # Responses
//!
//! Every response carries `"ok"`: successes echo `"op"` and add
//! op-specific members; failures are [`ServeError::render`] documents with
//! a stable `"kind"` label. Member order is fixed — responses are
//! byte-deterministic for golden testing.

use crate::engine::{AdmitError, AdmitReport, Engine, Placement, Rejection, Tenant, TenantSpec};
use crate::error::{ErrorKind, ServeError};
use sr_obs::json::Json;
use sr_obs::{escape_json, json_num};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit one tenant.
    Admit(TenantSpec),
    /// Admit several tenants in one deterministic batch.
    AdmitBatch(Vec<TenantSpec>),
    /// Evict a tenant by name.
    Evict(String),
    /// Describe one admitted tenant.
    Query(String),
    /// List admitted tenant names.
    List,
    /// Prometheus scrape: counter deltas since the last delta scrape
    /// (default), or the recorder's full cumulative state.
    Stats {
        /// `true` for `"mode":"cumulative"` (non-destructive full export).
        cumulative: bool,
    },
    /// Stop the daemon after responding.
    Shutdown,
}

/// Parses a request document.
///
/// # Errors
///
/// [`ServeError`] with kind `malformed` (not an object / unknown op /
/// wrong member types) or `invalid_spec` (a tenant spec member is
/// structurally wrong).
pub fn parse_request(doc: &Json) -> Result<Request, ServeError> {
    let obj = doc
        .as_obj()
        .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "request must be a JSON object"))?;
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::new(ErrorKind::Malformed, "missing string member \"op\""))?;
    match op {
        "admit" => {
            let spec = obj
                .get("tenant")
                .ok_or_else(|| missing("admit", "tenant"))
                .and_then(parse_spec)?;
            Ok(Request::Admit(spec))
        }
        "admit_batch" => {
            let arr = obj
                .get("tenants")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("admit_batch", "tenants"))?;
            let specs = arr.iter().map(parse_spec).collect::<Result<Vec<_>, _>>()?;
            Ok(Request::AdmitBatch(specs))
        }
        "evict" => Ok(Request::Evict(tenant_name(obj, "evict")?)),
        "query" => Ok(Request::Query(tenant_name(obj, "query")?)),
        "list" => Ok(Request::List),
        "stats" => {
            let cumulative = match obj.get("mode") {
                None => false,
                Some(v) => match v.as_str() {
                    Some("delta") => false,
                    Some("cumulative") => true,
                    _ => {
                        return Err(ServeError::new(
                            ErrorKind::Malformed,
                            "stats \"mode\" must be \"delta\" or \"cumulative\"",
                        ))
                    }
                },
            };
            Ok(Request::Stats { cumulative })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::new(
            ErrorKind::Malformed,
            format!("unknown op \"{other}\""),
        )),
    }
}

fn missing(op: &str, member: &str) -> ServeError {
    ServeError::new(
        ErrorKind::Malformed,
        format!("op \"{op}\" requires member \"{member}\""),
    )
}

fn tenant_name(
    obj: &std::collections::BTreeMap<String, Json>,
    op: &str,
) -> Result<String, ServeError> {
    obj.get("tenant")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(op, "tenant"))
}

/// Parses one tenant spec object.
fn parse_spec(doc: &Json) -> Result<TenantSpec, ServeError> {
    let obj = doc.as_obj().ok_or_else(|| {
        ServeError::new(ErrorKind::InvalidSpec, "tenant spec must be a JSON object")
    })?;
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::new(ErrorKind::InvalidSpec, "spec missing string \"name\""))?;
    spec_members(obj, name)
}

/// Decodes the members a spec carries besides its name — the one decoder
/// behind both request frames and audit records (whose `"spec"` member
/// leaves the name to the record's `"tenant"`).
pub(crate) fn spec_members(
    obj: &std::collections::BTreeMap<String, Json>,
    name: &str,
) -> Result<TenantSpec, ServeError> {
    let tfg_text = obj
        .get("tfg")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::new(ErrorKind::InvalidSpec, "spec missing string \"tfg\""))?
        .to_string();
    let placement = match obj.get("placement") {
        Some(Json::Str(s)) => Placement::Strategy(s.clone()),
        Some(Json::Arr(items)) => {
            let mut nodes = Vec::with_capacity(items.len());
            for item in items {
                let n = item.as_num().ok_or_else(|| {
                    ServeError::new(ErrorKind::InvalidSpec, "placement nodes must be numbers")
                })?;
                if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                    return Err(ServeError::new(
                        ErrorKind::InvalidSpec,
                        format!("placement node {n} is not a valid node id"),
                    ));
                }
                nodes.push(n as usize);
            }
            Placement::Nodes(nodes)
        }
        _ => {
            return Err(ServeError::new(
                ErrorKind::InvalidSpec,
                "spec missing \"placement\" (node array or strategy string)",
            ))
        }
    };
    let best_effort = match obj.get("best_effort") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| {
            ServeError::new(ErrorKind::InvalidSpec, "\"best_effort\" must be a boolean")
        })?,
    };
    Ok(TenantSpec {
        name: name.to_string(),
        tfg_text,
        placement,
        best_effort,
    })
}

/// Renders a successful admission response body (also used per-item in
/// batch responses).
pub fn render_admit(report: &AdmitReport) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"admit\",\"tenant\":\"{}\",\"rung\":\"{}\",\"scale\":{},\
         \"memo_hit\":{},\"replayed\":{},\"messages\":{},\"links_used\":{}}}",
        escape_json(&report.name),
        report.rung.label(),
        json_num(report.scale),
        report.memo_hit,
        report.replayed,
        report.messages,
        report.links_used
    )
}

/// Maps an [`AdmitError`] to its typed protocol error.
pub fn admit_error(err: &AdmitError) -> ServeError {
    match err {
        AdmitError::Duplicate(name) => ServeError::new(
            ErrorKind::DuplicateTenant,
            format!("tenant \"{name}\" is already admitted"),
        ),
        AdmitError::InvalidSpec(detail) => ServeError::new(ErrorKind::InvalidSpec, detail.clone()),
        AdmitError::Infeasible(rej) => rejection_error(rej),
        AdmitError::Internal(detail) => ServeError::new(ErrorKind::Internal, detail.clone()),
    }
}

/// Renders a rejection as an `infeasible` error with the diagnosis and
/// bottleneck list spliced in.
fn rejection_error(rej: &Rejection) -> ServeError {
    let mut e = ServeError::new(ErrorKind::Infeasible, rej.detail.clone());
    e.extra.push(format!("\"rungs_tried\":{}", rej.rungs_tried));
    if let Some(diag) = &rej.diagnosis {
        e.extra
            .push(format!("\"diagnosis\":\"{}\"", escape_json(diag)));
    }
    if !rej.saturated.is_empty() {
        let items: Vec<String> = rej
            .saturated
            .iter()
            .map(|(l, busy)| format!("{{\"link\":{},\"busy\":{}}}", l.index(), json_num(*busy)))
            .collect();
        e.extra.push(format!("\"saturated\":[{}]", items.join(",")));
    }
    e
}

/// Renders the batch response: one result document per spec, in order.
pub fn render_batch(results: &[Result<AdmitReport, AdmitError>]) -> String {
    let items: Vec<String> = results
        .iter()
        .map(|r| match r {
            Ok(report) => render_admit(report),
            Err(e) => admit_error(e).render(),
        })
        .collect();
    format!(
        "{{\"ok\":true,\"op\":\"admit_batch\",\"results\":[{}],\"count\":{}}}",
        items.join(","),
        results.len()
    )
}

/// Renders the query response for an admitted tenant.
pub fn render_query(t: &Tenant) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"query\",\"tenant\":{{\"name\":\"{}\",\"seq\":{},\"rung\":\"{}\",\
         \"scale\":{},\"messages\":{},\"links_used\":{},\"grants\":{}}}}}",
        escape_json(&t.name),
        t.seq,
        t.rung.label(),
        json_num(t.scale),
        t.tfg.num_messages(),
        t.spans.len(),
        t.grants.len()
    )
}

/// Renders the list response (names in lexicographic order).
pub fn render_list(engine: &Engine) -> String {
    let names: Vec<String> = engine
        .tenants()
        .map(|t| format!("\"{}\"", escape_json(&t.name)))
        .collect();
    format!(
        "{{\"ok\":true,\"op\":\"list\",\"tenants\":[{}],\"count\":{}}}",
        names.join(","),
        names.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_obs::json::parse;

    #[test]
    fn parses_each_op() {
        let admit =
            parse(br#"{"op":"admit","tenant":{"name":"t","tfg":"task a 1","placement":"greedy"}}"#)
                .unwrap();
        match parse_request(&admit).unwrap() {
            Request::Admit(spec) => {
                assert_eq!(spec.name, "t");
                assert_eq!(spec.placement, Placement::Strategy("greedy".into()));
                assert!(!spec.best_effort);
            }
            other => panic!("wrong request: {other:?}"),
        }
        let evict = parse(br#"{"op":"evict","tenant":"t"}"#).unwrap();
        assert_eq!(parse_request(&evict).unwrap(), Request::Evict("t".into()));
        for (bytes, want) in [
            (&br#"{"op":"list"}"#[..], Request::List),
            (
                &br#"{"op":"stats"}"#[..],
                Request::Stats { cumulative: false },
            ),
            (
                &br#"{"op":"stats","mode":"delta"}"#[..],
                Request::Stats { cumulative: false },
            ),
            (
                &br#"{"op":"stats","mode":"cumulative"}"#[..],
                Request::Stats { cumulative: true },
            ),
            (&br#"{"op":"shutdown"}"#[..], Request::Shutdown),
        ] {
            assert_eq!(parse_request(&parse(bytes).unwrap()).unwrap(), want);
        }
        let bad = parse(br#"{"op":"stats","mode":"sideways"}"#).unwrap();
        assert_eq!(parse_request(&bad).unwrap_err().kind, ErrorKind::Malformed);
        let bad = parse(br#"{"op":"stats","mode":7}"#).unwrap();
        assert_eq!(parse_request(&bad).unwrap_err().kind, ErrorKind::Malformed);
    }

    #[test]
    fn placement_nodes_parse_and_validate() {
        let doc = parse(br#"{"op":"admit","tenant":{"name":"t","tfg":"x","placement":[3,1,4]}}"#)
            .unwrap();
        match parse_request(&doc).unwrap() {
            Request::Admit(spec) => assert_eq!(spec.placement, Placement::Nodes(vec![3, 1, 4])),
            other => panic!("wrong request: {other:?}"),
        }
        let bad =
            parse(br#"{"op":"admit","tenant":{"name":"t","tfg":"x","placement":[1.5]}}"#).unwrap();
        assert_eq!(
            parse_request(&bad).unwrap_err().kind,
            ErrorKind::InvalidSpec
        );
    }

    #[test]
    fn unknown_and_malformed_are_typed() {
        let doc = parse(br#"{"op":"frobnicate"}"#).unwrap();
        assert_eq!(parse_request(&doc).unwrap_err().kind, ErrorKind::Malformed);
        let doc = parse(br#"[1,2,3]"#).unwrap();
        assert_eq!(parse_request(&doc).unwrap_err().kind, ErrorKind::Malformed);
        let doc = parse(br#"{"op":"evict"}"#).unwrap();
        assert_eq!(parse_request(&doc).unwrap_err().kind, ErrorKind::Malformed);
    }
}
