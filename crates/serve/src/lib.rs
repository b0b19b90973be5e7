//! `sr-serve` — the resident scheduler daemon: multi-tenant **online
//! admission** on top of the paper's compile pipeline.
//!
//! The batch pipeline (`sr-core`) answers "can this TFG be pipelined at
//! period τ?" once, offline. This crate keeps a compiled fabric *resident*
//! and answers the online question: "a new application just arrived — can
//! it be admitted **without perturbing anything already running**?" It
//! generalizes the fault-repair machinery (PR 4) from "links disappeared"
//! to "messages arrived/departed": admission re-runs path assignment and
//! interval allocation for the new tenant's messages only, with every
//! admitted tenant's link-time spans folded in as reserved capacity, so
//! admitted schedules stay pinned bit-identically — verified after every
//! mutation, not assumed.
//!
//! The crate splits into:
//!
//! * [`engine`] — [`Engine`]: the tenant table, the occupancy ledger, the
//!   degradation ladder (fast → adapted → rerouted → best-effort →
//!   reject), and the determinism memos;
//! * [`error`] — the typed protocol error taxonomy ([`ErrorKind`]);
//! * [`protocol`] — request parsing (over the workspace's one JSON reader,
//!   [`sr_obs::json`], re-exported here as [`parse`]/[`Json`]) and
//!   deterministic response rendering;
//! * [`daemon`] — [`Daemon`]: length-prefixed framing over stdio or a
//!   Unix socket, plus `CounterSnapshot`-delta Prometheus scrapes;
//! * [`http`] — the out-of-band exposition listener (`GET /metrics`,
//!   `/healthz`, `/tenants`) on its own thread, fed by published
//!   snapshots so it never blocks admission;
//! * [`audit`] — the append-only admission audit journal (JSONL through
//!   [`sr_obs::JournalWriter`] rotation) and its replay verifier:
//!   re-driving a fresh engine from the trail must reproduce the tenant
//!   table and ledger bit-identically.
//!
//! Everything on the *framed* protocol is std-only and deterministic:
//! identical request sequences produce byte-identical response sequences
//! (timestamps never enter the wire format), which is what makes
//! golden-transcript testing and the `serve` metrics gate possible.
//! Latency lives only in the out-of-band surfaces — the per-rung
//! histograms behind `/metrics` and the audit records' timing fields.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod daemon;
pub mod engine;
pub mod error;
pub mod http;
pub mod protocol;

pub use audit::{
    apply_record, ledger_hash, parse_audit_line, spans_hash, AuditLine, AuditOp, AuditRecord,
    Fingerprint, FINGERPRINT_KEY,
};
pub use daemon::{read_frame, write_frame, Daemon, FrameRead, MAX_FRAME};
pub use engine::{
    AdmitError, AdmitReport, AdmitRung, Engine, EvictError, Grant, Placement, Rejection,
    ServeConfig, Tenant, TenantSpec,
};
pub use error::{ErrorKind, ServeError};
pub use http::OpsState;
pub use protocol::{parse_request, Request};
pub use sr_obs::json::{parse, Json, JsonError};
