//! Decision-provenance records: *why* each candidate transformation was
//! accepted or rejected, with the dependence evidence and cost features
//! behind every verdict.
//!
//! The aggregate layer ([`crate::counter_add!`] & friends) answers "how
//! much work happened"; the timeline answers "when". This third,
//! independently-gated layer answers the question the paper's decision
//! procedure actually settles: for each candidate transformation, which
//! dependence row killed it, or which projected rows prove it legal.
//!
//! # Design
//!
//! * **Disabled is one relaxed load.** The explain flag shares the flag
//!   byte with the other two layers; [`crate::explain_enabled`] is a
//!   single relaxed atomic load, and every recording call site checks it
//!   before building any strings.
//! * **Bounded.** Records land in one global store capped at
//!   [`CAPACITY`] records. On overflow the oldest record is dropped and
//!   counted — recording never reallocates past the cap and never panics.
//! * **Sessions group one compile.** [`begin_session`] stamps a fresh
//!   compile-session id (and a human label such as `cholesky/KJLI`);
//!   every subsequent record carries the current session id, so one
//!   artifact can hold a whole 24-permutation sweep and still be queried
//!   per variant.
//!
//! Records serialize through the hand-rolled [`Json`] layer. Setting
//! `INL_EXPLAIN_JSON=<path>` dumps the store at process exit from any
//! binary (and enables the layer), mirroring `INL_OBS_JSON` /
//! `INL_TRACE_JSON`; the `report` binary writes `target/inl-explain.json`.
//!
//! # Record schema (`version: 1`)
//!
//! ```json
//! {
//!   "version": 1,
//!   "dropped": 0,
//!   "sessions": [ { "id": 1, "label": "cholesky/KJLI" } ],
//!   "records": [
//!     {
//!       "session": 1, "seq": 0,
//!       "stage": "legal", "subject": "dep 3 (flow S2->S1)",
//!       "verdict": "reject",
//!       "reason": "projected entry 1 is negative (-)",
//!       "details": { "dep_row": "[0 - *]" },
//!       "features": { "deps": 7 }
//!     }
//!   ]
//! }
//! ```
//!
//! `stage` is the verdict point (`legal`, `complete`, `sink`,
//! `structural`, `parallel`, `codegen`, `exec`); `verdict` is `accept`,
//! `reject`, or `info`; `details` carries string evidence (dependence
//! rows rendered in the paper's interval notation) and `features`
//! integer cost features (dependence counts, strides, wavefront widths,
//! instance counts).

use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Store capacity (records) before the oldest are dropped.
pub const CAPACITY: usize = 65_536;

/// Explain artifact schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Verdict attached to one decision record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate passed this verdict point.
    Accept,
    /// The candidate was killed at this verdict point.
    Reject,
    /// Context that is not itself a pass/fail decision (cost features,
    /// certified-parallel evidence, chosen completion rows).
    Info,
}

impl Verdict {
    /// Canonical lower-case name used in JSON and query filters.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Accept => "accept",
            Verdict::Reject => "reject",
            Verdict::Info => "info",
        }
    }
}

/// One decision record. String fields are owned so the store never
/// borrows from the pipeline.
#[derive(Clone, Debug)]
pub struct Record {
    /// Compile-session id (0 if no session was begun).
    pub session: u64,
    /// Process-wide record sequence number (stable sort key).
    pub seq: u64,
    /// Verdict point: `legal`, `complete`, `sink`, `structural`,
    /// `parallel`, `codegen`, `exec`.
    pub stage: &'static str,
    /// What was judged (a candidate transformation, a dependence, a
    /// loop, a completion slot, ...).
    pub subject: String,
    /// The outcome.
    pub verdict: Verdict,
    /// Why: the violating dependence row, the proving projection, the
    /// chosen row — always human-readable.
    pub reason: String,
    /// Additional string evidence keyed by name (deterministic order).
    pub details: BTreeMap<String, String>,
    /// Integer cost features keyed by name (deterministic order).
    pub features: BTreeMap<String, i64>,
}

impl Record {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("session", Json::Int(self.session));
        obj.insert("seq", Json::Int(self.seq));
        obj.insert("stage", Json::Str(self.stage.to_string()));
        obj.insert("subject", Json::Str(self.subject.clone()));
        obj.insert("verdict", Json::Str(self.verdict.as_str().to_string()));
        obj.insert("reason", Json::Str(self.reason.clone()));
        if !self.details.is_empty() {
            let mut details = Json::object();
            for (k, v) in &self.details {
                details.insert(k.clone(), Json::Str(v.clone()));
            }
            obj.insert("details", details);
        }
        if !self.features.is_empty() {
            let mut features = Json::object();
            for (k, &v) in &self.features {
                if v >= 0 {
                    features.insert(k.clone(), Json::Int(v as u64));
                } else {
                    features.insert(k.clone(), Json::Float(v as f64));
                }
            }
            obj.insert("features", features);
        }
        obj
    }
}

#[derive(Default)]
struct Store {
    records: VecDeque<Record>,
    dropped: u64,
    next_seq: u64,
    /// `(id, label)` in begin order.
    sessions: Vec<(u64, String)>,
}

fn store() -> MutexGuard<'static, Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE
        .get_or_init(|| Mutex::new(Store::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

static CURRENT_SESSION: AtomicU64 = AtomicU64::new(0);

/// Begin a new compile session with a human label (e.g. the variant name
/// `cholesky/KJLI`). Returns the session id; all records emitted until
/// the next `begin_session` carry it. No-op (returns the current id)
/// while the explain layer is disabled.
pub fn begin_session(label: &str) -> u64 {
    if !crate::explain_enabled() {
        return CURRENT_SESSION.load(Ordering::Relaxed);
    }
    let mut s = store();
    let id = s.sessions.last().map_or(0, |(id, _)| *id) + 1;
    s.sessions.push((id, label.to_string()));
    CURRENT_SESSION.store(id, Ordering::Relaxed);
    id
}

/// The current compile-session id (0 before any [`begin_session`]).
pub fn current_session() -> u64 {
    CURRENT_SESSION.load(Ordering::Relaxed)
}

/// Builder for one decision record; created by [`accept`], [`reject`],
/// or [`note`]. The record is committed to the store when the builder
/// drops, so a bare `explain::reject(...).detail(...)` statement emits.
#[derive(Debug)]
pub struct RecordBuilder {
    inner: Option<Record>,
}

impl RecordBuilder {
    fn new(stage: &'static str, subject: String, verdict: Verdict, reason: String) -> Self {
        if !crate::explain_enabled() {
            return RecordBuilder { inner: None };
        }
        RecordBuilder {
            inner: Some(Record {
                session: current_session(),
                seq: 0,
                stage,
                subject,
                verdict,
                reason,
                details: BTreeMap::new(),
                features: BTreeMap::new(),
            }),
        }
    }

    /// Attach a string evidence entry.
    pub fn detail(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        if let Some(rec) = self.inner.as_mut() {
            rec.details.insert(key.into(), value.into());
        }
        self
    }

    /// Attach an integer cost feature.
    pub fn feature(mut self, key: impl Into<String>, value: i64) -> Self {
        if let Some(rec) = self.inner.as_mut() {
            rec.features.insert(key.into(), value);
        }
        self
    }
}

impl Drop for RecordBuilder {
    fn drop(&mut self) {
        let Some(mut rec) = self.inner.take() else {
            return;
        };
        // A request-scoped capture tallies committed verdicts; records
        // exist only while the explain layer is on, so a capture's
        // explain summary is empty unless both are enabled.
        crate::capture::record_explain(rec.verdict);
        let mut s = store();
        rec.seq = s.next_seq;
        s.next_seq += 1;
        if s.records.len() == CAPACITY {
            s.records.pop_front();
            s.dropped += 1;
        }
        s.records.push_back(rec);
    }
}

/// Record that `subject` passed the `stage` verdict point, with the
/// proving evidence in `reason`. No-op while the layer is disabled, but
/// call sites should still gate string construction on
/// [`crate::explain_enabled`].
pub fn accept(
    stage: &'static str,
    subject: impl Into<String>,
    reason: impl Into<String>,
) -> RecordBuilder {
    RecordBuilder::new(stage, subject.into(), Verdict::Accept, reason.into())
}

/// Record that `subject` was killed at the `stage` verdict point, with
/// the killing evidence (e.g. the violating dependence row) in `reason`.
pub fn reject(
    stage: &'static str,
    subject: impl Into<String>,
    reason: impl Into<String>,
) -> RecordBuilder {
    RecordBuilder::new(stage, subject.into(), Verdict::Reject, reason.into())
}

/// Record non-verdict context (cost features, certified-parallel
/// evidence, chosen completion rows).
pub fn note(
    stage: &'static str,
    subject: impl Into<String>,
    reason: impl Into<String>,
) -> RecordBuilder {
    RecordBuilder::new(stage, subject.into(), Verdict::Info, reason.into())
}

/// Number of records currently held.
pub fn len() -> usize {
    store().records.len()
}

/// Records dropped to the capacity bound so far.
pub fn dropped_total() -> u64 {
    store().dropped
}

/// Clone the current records (oldest first) for inspection in tests and
/// renderers.
pub fn snapshot() -> Vec<Record> {
    store().records.iter().cloned().collect()
}

/// Clone the `(id, label)` session list, in begin order.
pub fn sessions() -> Vec<(u64, String)> {
    store().sessions.clone()
}

/// Drop every record, session, and the drop tally, and reset the session
/// id to 0. Sequence numbers keep counting (they are process-unique).
pub fn reset() {
    let mut s = store();
    s.records.clear();
    s.sessions.clear();
    s.dropped = 0;
    CURRENT_SESSION.store(0, Ordering::Relaxed);
}

/// Serialize the store as a versioned JSON artifact (see the module docs
/// for the schema).
pub fn to_json() -> Json {
    let s = store();
    let mut root = Json::object();
    root.insert("version", Json::Int(SCHEMA_VERSION));
    root.insert("dropped", Json::Int(s.dropped));
    root.insert(
        "sessions",
        Json::Array(
            s.sessions
                .iter()
                .map(|(id, label)| {
                    let mut obj = Json::object();
                    obj.insert("id", Json::Int(*id));
                    obj.insert("label", Json::Str(label.clone()));
                    obj
                })
                .collect(),
        ),
    );
    root.insert(
        "records",
        Json::Array(s.records.iter().map(Record::to_json).collect()),
    );
    root
}

/// Write the JSON artifact to `path`, creating parent directories.
pub fn write_json(path: impl AsRef<Path>) -> io::Result<()> {
    to_json().write_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin() -> std::sync::MutexGuard<'static, ()> {
        let g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_explain_enabled(true);
        reset();
        g
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_explain_enabled(false);
        reset();
        let before = len();
        reject("legal", "dep 0", "off");
        begin_session("off");
        assert_eq!(len(), before);
        assert!(store().sessions.is_empty());
    }

    #[test]
    fn records_carry_session_verdict_and_evidence() {
        let _g = begin();
        let sid = begin_session("cholesky/KJLI");
        accept("legal", "T=[[1,0],[0,1]]", "all 3 deps satisfied")
            .detail("proof", "dep 0: level 1, projected [+ 0]")
            .feature("deps", 3);
        reject(
            "legal",
            "dep 1 (flow S2->S1)",
            "projected entry 0 is negative (-)",
        )
        .detail("dep_row", "[- *]");
        let recs = snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].session, sid);
        assert_eq!(recs[0].verdict, Verdict::Accept);
        assert_eq!(recs[0].features["deps"], 3);
        assert_eq!(recs[1].verdict, Verdict::Reject);
        assert_eq!(recs[1].details["dep_row"], "[- *]");
        assert!(recs[1].seq > recs[0].seq);
        crate::set_explain_enabled(false);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _g = begin();
        for i in 0..CAPACITY + 6 {
            note("legal", format!("r{i}"), "flood");
        }
        assert_eq!(len(), CAPACITY);
        assert_eq!(dropped_total(), 6);
        let kept = snapshot();
        assert_eq!(kept[0].subject, "r6", "oldest dropped first");
        assert_eq!(kept[CAPACITY - 1].subject, format!("r{}", CAPACITY + 5));
        assert_eq!(to_json().get("dropped").and_then(Json::as_u64), Some(6));
        crate::set_explain_enabled(false);
    }

    #[test]
    fn json_artifact_round_trips() {
        let _g = begin();
        begin_session("unit/one");
        reject("complete", "slot 2", "no legal candidate row")
            .detail("tried", "selector j; -j; i+j")
            .feature("candidates_tried", 3);
        let text = to_json().to_pretty_string();
        let parsed = Json::parse(&text).expect("artifact parses");
        assert_eq!(
            parsed.get("version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        let Some(Json::Array(sessions)) = parsed.get("sessions") else {
            panic!("missing sessions")
        };
        assert_eq!(
            sessions[0].get("label").and_then(Json::as_str),
            Some("unit/one")
        );
        let Some(Json::Array(records)) = parsed.get("records") else {
            panic!("missing records")
        };
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].get("verdict").and_then(Json::as_str),
            Some("reject")
        );
        assert_eq!(
            records[0]
                .get("features")
                .and_then(|f| f.get("candidates_tried"))
                .and_then(Json::as_u64),
            Some(3)
        );
        crate::set_explain_enabled(false);
    }
}
