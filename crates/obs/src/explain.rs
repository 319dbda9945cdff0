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
//!   byte with the other layers; [`crate::explain_enabled`] is a
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
//! The schema has one owner: this module writes it ([`to_json`],
//! [`Artifact::to_json`]) and reads it back ([`parse`], [`load`]) into the
//! same [`Record`] type, and renders ([`render`], with a [`Filter`]) and
//! diffs ([`diff`]) what it read. The `inl-explain` binary of this crate
//! (`src/bin/inl-explain.rs`) is the command line over those four.
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
//! `structural`, `parallel`, `codegen`, `sched`); `verdict` is `accept`,
//! `reject`, or `info`; `details` carries string evidence (dependence
//! rows rendered in the paper's interval notation) and `features`
//! integer cost features (dependence counts, strides, wavefront flags,
//! instance counts).

use crate::json::Json;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::str::FromStr;
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

impl FromStr for Verdict {
    type Err = String;

    /// The inverse of [`Verdict::as_str`].
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "accept" => Ok(Verdict::Accept),
            "reject" => Ok(Verdict::Reject),
            "info" => Ok(Verdict::Info),
            _ => Err(format!("unknown verdict {s:?}")),
        }
    }
}

/// One decision record: what the pipeline commits to the store, and what
/// [`parse`] reads back from an artifact. String fields are owned, so the
/// store never borrows from the pipeline; the stage is a `'static` name
/// when recorded and owned only when read.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Compile-session id (0 if no session was begun).
    pub session: u64,
    /// Process-wide record sequence number (stable sort key).
    pub seq: u64,
    /// Verdict point: `legal`, `complete`, `sink`, `structural`,
    /// `parallel`, `codegen`, `sched`.
    pub stage: Cow<'static, str>,
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
                features.insert(k.clone(), Json::signed(v));
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
                stage: Cow::Borrowed(stage),
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
    artifact_json(SCHEMA_VERSION, s.dropped, &s.sessions, &s.records)
}

/// Write the JSON artifact to `path`, creating parent directories.
pub fn write_json(path: impl AsRef<Path>) -> io::Result<()> {
    to_json().write_file(path)
}

/// The one writer of the artifact schema, for the store and for a parsed
/// [`Artifact`] alike.
fn artifact_json<'a>(
    version: u64,
    dropped: u64,
    sessions: &[(u64, String)],
    records: impl IntoIterator<Item = &'a Record>,
) -> Json {
    let mut root = Json::object();
    root.insert("version", Json::Int(version));
    root.insert("dropped", Json::Int(dropped));
    root.insert(
        "sessions",
        Json::Array(
            sessions
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
        Json::Array(records.into_iter().map(Record::to_json).collect()),
    );
    root
}

// ------------------------------------------------------------------ reader

/// A parsed explain artifact: what [`to_json`] wrote.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Artifact {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u64,
    /// Records dropped to the capacity bound before the dump.
    pub dropped: u64,
    /// `(id, label)` of every compile session, in begin order.
    pub sessions: Vec<(u64, String)>,
    /// All records, oldest first.
    pub records: Vec<Record>,
}

impl Artifact {
    /// The label of a session id, or the id itself as text.
    pub fn session_label(&self, id: u64) -> String {
        self.sessions
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, label)| label.clone())
            .unwrap_or_else(|| format!("session {id}"))
    }

    /// Serialize back to the schema [`parse`] reads, through the writer
    /// the store dumps with.
    pub fn to_json(&self) -> Json {
        artifact_json(self.version, self.dropped, &self.sessions, &self.records)
    }
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("record missing string field {key:?}"))
}

fn int_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("record missing integer field {key:?}"))
}

impl Record {
    fn from_json(r: &Json) -> Result<Record, String> {
        let mut details = BTreeMap::new();
        if let Some(Json::Object(map)) = r.get("details") {
            for (k, v) in map {
                details.insert(k.clone(), v.as_str().unwrap_or_default().to_string());
            }
        }
        let mut features = BTreeMap::new();
        if let Some(Json::Object(map)) = r.get("features") {
            for (k, v) in map {
                features.insert(k.clone(), v.as_i64().unwrap_or(0));
            }
        }
        Ok(Record {
            session: int_field(r, "session")?,
            seq: int_field(r, "seq")?,
            stage: Cow::Owned(str_field(r, "stage")?),
            subject: str_field(r, "subject")?,
            verdict: str_field(r, "verdict")?.parse()?,
            reason: str_field(r, "reason")?,
            details,
            features,
        })
    }
}

/// Parse artifact text (the schema in the module docs).
pub fn parse(text: &str) -> Result<Artifact, String> {
    let root = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = int_field(&root, "version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported artifact version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    let dropped = int_field(&root, "dropped")?;
    let mut sessions = Vec::new();
    if let Some(Json::Array(items)) = root.get("sessions") {
        for s in items {
            sessions.push((int_field(s, "id")?, str_field(s, "label")?));
        }
    }
    let Some(Json::Array(items)) = root.get("records") else {
        return Err("artifact has no records array".to_string());
    };
    Ok(Artifact {
        version,
        dropped,
        sessions,
        records: items
            .iter()
            .map(Record::from_json)
            .collect::<Result<_, _>>()?,
    })
}

/// Read and parse an artifact file.
pub fn load(path: impl AsRef<Path>) -> Result<Artifact, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text)
}

/// Record filter for [`render`] and the `query` command: every set field
/// must match (stage and verdict exactly, subject by substring, session
/// by id or by label substring).
#[derive(Clone, Debug, Default)]
pub struct Filter {
    /// Exact stage name.
    pub stage: Option<String>,
    /// Substring of the subject.
    pub subject: Option<String>,
    /// Exact verdict.
    pub verdict: Option<Verdict>,
    /// Session id (numeric) or label substring.
    pub session: Option<String>,
}

impl Filter {
    /// True when no field is set (render everything).
    pub fn is_empty(&self) -> bool {
        self.stage.is_none()
            && self.subject.is_none()
            && self.verdict.is_none()
            && self.session.is_none()
    }

    /// Does `rec` pass every set field?
    pub fn matches(&self, artifact: &Artifact, rec: &Record) -> bool {
        if self.stage.as_ref().is_some_and(|stage| rec.stage != *stage) {
            return false;
        }
        if let Some(sub) = &self.subject {
            if !rec.subject.contains(sub.as_str()) {
                return false;
            }
        }
        if self.verdict.is_some_and(|v| rec.verdict != v) {
            return false;
        }
        if let Some(sess) = &self.session {
            let by_id = sess.parse::<u64>().is_ok_and(|id| rec.session == id);
            let by_label = artifact.session_label(rec.session).contains(sess.as_str());
            if !by_id && !by_label {
                return false;
            }
        }
        true
    }
}

fn verdict_tag(v: Verdict) -> &'static str {
    match v {
        Verdict::Accept => "ACCEPT",
        Verdict::Reject => "REJECT",
        Verdict::Info => "info  ",
    }
}

/// Render the matching records as a human-readable "why" report, grouped
/// by compile session.
pub fn render(artifact: &Artifact, filter: &Filter) -> String {
    let matched: Vec<&Record> = artifact
        .records
        .iter()
        .filter(|r| filter.matches(artifact, r))
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain artifact v{}: {} record(s), {} matched, {} dropped to capacity",
        artifact.version,
        artifact.records.len(),
        matched.len(),
        artifact.dropped
    );
    let mut current: Option<u64> = None;
    for r in matched {
        if current != Some(r.session) {
            current = Some(r.session);
            let _ = writeln!(out, "\n== {} ==", artifact.session_label(r.session));
        }
        let _ = writeln!(
            out,
            "  [{}] {}: {}",
            verdict_tag(r.verdict),
            r.stage,
            r.subject
        );
        let _ = writeln!(out, "      {}", r.reason);
        for (k, v) in &r.details {
            let _ = writeln!(out, "      {k}: {v}");
        }
        if !r.features.is_empty() {
            let feats: Vec<String> = r.features.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "      features: {}", feats.join(" "));
        }
    }
    out
}

/// Verdict-set key for diffing: records are matched across artifacts by
/// session *label* (ids may differ between runs), stage, and subject.
fn verdict_map(a: &Artifact) -> BTreeMap<(String, &str, &str), Vec<&'static str>> {
    let mut map: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for r in &a.records {
        map.entry((a.session_label(r.session), &*r.stage, r.subject.as_str()))
            .or_default()
            .push(r.verdict.as_str());
    }
    for v in map.values_mut() {
        v.sort();
    }
    map
}

/// Diff two artifacts by (session label, stage, subject): reports keys
/// whose verdict sets changed, appeared, or disappeared. Returns the
/// rendered report and the number of differences.
pub fn diff(old: &Artifact, new: &Artifact) -> (String, usize) {
    let a = verdict_map(old);
    let b = verdict_map(new);
    let mut out = String::new();
    let mut ndiff = 0usize;
    for (key, averdicts) in &a {
        match b.get(key) {
            None => {
                ndiff += 1;
                let _ = writeln!(
                    out,
                    "- [{}] {}: {} (only in old: {})",
                    key.0,
                    key.1,
                    key.2,
                    averdicts.join(",")
                );
            }
            Some(bverdicts) if bverdicts != averdicts => {
                ndiff += 1;
                let _ = writeln!(
                    out,
                    "~ [{}] {}: {} ({} -> {})",
                    key.0,
                    key.1,
                    key.2,
                    averdicts.join(","),
                    bverdicts.join(",")
                );
            }
            Some(_) => {}
        }
    }
    for (key, bverdicts) in &b {
        if !a.contains_key(key) {
            ndiff += 1;
            let _ = writeln!(
                out,
                "+ [{}] {}: {} (only in new: {})",
                key.0,
                key.1,
                key.2,
                bverdicts.join(",")
            );
        }
    }
    let _ = writeln!(
        out,
        "{} decision key(s) compared, {ndiff} difference(s)",
        a.len().max(b.len())
    );
    (out, ndiff)
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

    fn sample() -> Artifact {
        parse(
            r#"{
  "version": 1,
  "dropped": 2,
  "sessions": [ { "id": 1, "label": "cholesky/KJLI" }, { "id": 2, "label": "cholesky/JKLI" } ],
  "records": [
    { "session": 1, "seq": 0, "stage": "legal", "subject": "transformation [[1 0] [0 1]]",
      "verdict": "accept", "reason": "all 3 dependences satisfied",
      "details": { "proof": "dep 0: row [+ 0] projects to [+ 0]" },
      "features": { "deps": 3 } },
    { "session": 2, "seq": 1, "stage": "complete", "subject": "partial row 0 [0 1 0 0]",
      "verdict": "reject", "reason": "dep 1 (flow S2->S1, level 0): projection of row would go negative",
      "details": { "dep_row": "[- + *]" }, "features": { "slot": 0, "deps": 3, "shift": -2.0 } }
  ]
}"#,
        )
        .expect("sample parses")
    }

    #[test]
    fn parses_schema_and_fields() {
        let a = sample();
        assert_eq!(a.version, 1);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.sessions.len(), 2);
        assert_eq!(a.records.len(), 2);
        assert_eq!(a.records[1].verdict, Verdict::Reject);
        assert_eq!(a.records[1].details["dep_row"], "[- + *]");
        assert_eq!(a.records[0].features["deps"], 3);
        assert_eq!(a.records[1].features["shift"], -2);
        assert_eq!(a.session_label(2), "cholesky/JKLI");
        // the writer gives back the text it was read from, field for field
        assert_eq!(parse(&a.to_json().to_pretty_string()), Ok(a));
    }

    #[test]
    fn filters_select_records() {
        let a = sample();
        let count = |f: &Filter| a.records.iter().filter(|r| f.matches(&a, r)).count();
        let all = Filter::default();
        assert!(all.is_empty());
        assert_eq!(count(&all), 2);
        let rejects = Filter {
            verdict: Some(Verdict::Reject),
            ..Filter::default()
        };
        assert_eq!(count(&rejects), 1);
        // substring "KJLI" is in one label ("JKLI" does not match)
        let by_label = Filter {
            session: Some("KJLI".to_string()),
            ..Filter::default()
        };
        assert_eq!(count(&by_label), 1);
        let by_stage = Filter {
            stage: Some("complete".to_string()),
            subject: Some("partial row".to_string()),
            ..Filter::default()
        };
        assert_eq!(count(&by_stage), 1);
    }

    #[test]
    fn render_groups_by_session_and_names_evidence() {
        let text = render(&sample(), &Filter::default());
        assert!(text.contains("== cholesky/KJLI =="), "{text}");
        assert!(text.contains("[ACCEPT] legal"), "{text}");
        assert!(text.contains("[REJECT] complete"), "{text}");
        assert!(text.contains("dep_row: [- + *]"), "{text}");
        assert!(text.contains("features: deps=3"), "{text}");
        assert!(text.contains("shift=-2"), "{text}");
        assert!(text.contains("2 dropped to capacity"), "{text}");
    }

    #[test]
    fn diff_reports_verdict_changes_and_missing_keys() {
        let a = sample();
        let (text, n) = diff(&a, &a);
        assert_eq!(n, 0, "{text}");
        let mut b = sample();
        b.records[1].verdict = Verdict::Accept;
        b.records.push(Record {
            session: 1,
            seq: 9,
            stage: Cow::Borrowed("parallel"),
            subject: "new loop slot 3".to_string(),
            verdict: Verdict::Accept,
            reason: "DOALL".to_string(),
            details: BTreeMap::new(),
            features: BTreeMap::new(),
        });
        let (text, n) = diff(&a, &b);
        assert_eq!(n, 2, "{text}");
        assert!(text.contains("reject -> accept"), "{text}");
        assert!(text.contains("only in new"), "{text}");
    }

    #[test]
    fn rejects_bad_artifacts() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"version": 99, "dropped": 0, "records": []}"#).is_err());
        assert!(parse(r#"{"version": 1, "dropped": 0}"#).is_err());
        let bad_verdict = r#"{"version": 1, "dropped": 0, "records": [
            {"session": 0, "seq": 0, "stage": "legal", "subject": "s",
             "verdict": "maybe", "reason": "r"}]}"#;
        assert!(parse(bad_verdict).is_err());
    }
}
