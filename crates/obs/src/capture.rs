//! Request-scoped telemetry capture: a thread-local delta of counters,
//! span durations, and explain verdicts attributable to **one logical
//! operation** (one compile-service request, one batch item), on top of
//! the process-global sinks.
//!
//! The global registry answers "how much work has this *process* done";
//! a [`Capture`] answers "how much work did *this request* cost" — the
//! per-request cost record the compile service streams back to clients
//! and the auto-scheduler will consume as its calibrated signal.
//!
//! # Design
//!
//! * **Thread-local.** A capture collects the instruments fired *on the
//!   capturing thread* between [`with`]'s entry and exit. The compile
//!   service handles one request per worker thread, so this attributes
//!   exactly the request's own pipeline work; instruments fired on other
//!   threads (e.g. parallel-executor workers) stay global-only.
//! * **Disabled stays one relaxed load.** Capture shares the process
//!   flag byte with the other layers (`FLAG_OBS` & friends):
//!   while no capture is active anywhere, every instrument still checks
//!   a single relaxed atomic and is otherwise untouched. While at least
//!   one capture runs, counter bumps and span exits additionally consult
//!   one thread-local cell (a `None` check on non-capturing threads).
//! * **Independent of the global layer.** A capture records even while
//!   aggregate telemetry ([`crate::enabled`]) is off — the capture bit
//!   alone arms the instruments — and the global registry is only
//!   written when the obs bit is also up, so enabling per-request
//!   telemetry does not silently turn on process-global collection.
//! * **Nesting suspends.** A capture opened inside another capture
//!   records alone; the outer capture resumes (and misses the inner
//!   scope's work) when the inner one finishes. The compile service
//!   never nests captures; the rule exists so reentrancy is defined.
//!
//! # Determinism
//!
//! A capture mixes deterministic evidence (which pipeline stages ran and
//! how often, semantic counter deltas) with machine- and state-dependent
//! measurements: nanosecond durations, and the work counters of every
//! *memoised layer*, which say how much an earlier request left warm
//! rather than what this one asked for. [`MEMOISED_LAYERS`] names those
//! layers' counter families: `depend.` (the analysis memo:
//! `depend.memo.*`, and `depend.pairs_tested` & co., which fire only on a
//! miss) and `poly.` (the FM work under an analysis, which a hit skips).
//! [`deterministic_projection`] extracts the deterministic part —
//! [`Json::deterministic`] strips every `*_ns` value, and it drops every
//! counter of a memoised layer and every span nested in `poly.` — so two
//! captures of the same request in different processes can be compared
//! **bitwise** on their canonical JSON. A memoised layer's *entry* spans
//! (`depend.analyze`, `depend.map`) wrap hits and misses alike and stay in
//! the projection, so requested analyses remain countable. `inl-load
//! --telemetry` and the serve integration tests compare exactly this.

use crate::json::Json;
use crate::report::SpanSnapshot;
use crate::{flags_cell, FLAG_CAPTURE};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Schema version of [`Capture::to_json`] (the wire `telemetry` section).
pub const SCHEMA_VERSION: u64 = 2;

/// Explain-record tallies inside a capture window (populated only while
/// the explain layer is enabled — see [`crate::explain_enabled`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExplainSummary {
    /// `accept` records committed during the capture.
    pub accepts: u64,
    /// `reject` records committed during the capture.
    pub rejects: u64,
    /// `info` records committed during the capture.
    pub notes: u64,
}

/// Everything one capture window collected. Maps are `BTreeMap`s so the
/// JSON rendering is canonical (sorted keys) and byte-comparable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Capture {
    /// Counter deltas by name, for counters bumped on this thread during
    /// the window (zero-delta counters never appear).
    pub counters: BTreeMap<&'static str, u64>,
    /// Span statistics by nesting path (`outer/inner`), for spans closed
    /// on this thread during the window. Paths are **relative to the
    /// capture**: spans already open when the capture began (e.g. the
    /// server's `serve.request` envelope) do not prefix them, so the
    /// same request captured under different envelopes yields the same
    /// stage paths.
    pub stages: BTreeMap<String, SpanSnapshot>,
    /// Explain verdict tallies (all zero while the explain layer is off).
    pub explain: ExplainSummary,
    /// Span-stack depth on this thread when the capture began; enclosing
    /// path segments up to this depth are stripped from `stages` keys.
    base_depth: usize,
}

impl Capture {
    /// Render as the versioned `telemetry` JSON section:
    ///
    /// ```json
    /// {
    ///   "version": 2,
    ///   "stages":  { "serve.compile": { "count": 1, "total_ns": 812345,
    ///                                   "min_ns": 812345, "max_ns": 812345 } },
    ///   "counters": { "exec.instances": 385, "depend.memo.hit": 1 },
    ///   "explain":  { "accepts": 0, "rejects": 0, "notes": 0 }
    /// }
    /// ```
    ///
    /// Version 2 dropped version 1's `poly_cache` section with the query
    /// cache it summarised.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.insert("version", Json::Int(SCHEMA_VERSION));

        let mut stages = Json::object();
        for (path, s) in &self.stages {
            stages.insert(path.clone(), s.to_json());
        }
        root.insert("stages", stages);

        let mut counters = Json::object();
        for (&name, &v) in &self.counters {
            counters.insert(name, Json::Int(v));
        }
        root.insert("counters", counters);

        let mut explain = Json::object();
        explain.insert("accepts", Json::Int(self.explain.accepts));
        explain.insert("rejects", Json::Int(self.explain.rejects));
        explain.insert("notes", Json::Int(self.explain.notes));
        root.insert("explain", explain);
        root
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// Count of live captures process-wide; guards the [`FLAG_CAPTURE`] bit
/// transitions so the bit is up exactly while any capture is active.
fn active_count() -> &'static Mutex<usize> {
    static COUNT: Mutex<usize> = Mutex::new(0);
    &COUNT
}

fn raise_capture_flag() {
    let mut n = active_count().lock().unwrap_or_else(|e| e.into_inner());
    *n += 1;
    if *n == 1 {
        flags_cell().fetch_or(FLAG_CAPTURE, Ordering::Relaxed);
    }
}

fn lower_capture_flag() {
    let mut n = active_count().lock().unwrap_or_else(|e| e.into_inner());
    *n = n.saturating_sub(1);
    if *n == 0 {
        flags_cell().fetch_and(!FLAG_CAPTURE, Ordering::Relaxed);
    }
}

/// Restores the previous thread-local capture and lowers the process
/// flag even if the captured closure unwinds.
struct Scope {
    prev: Option<Capture>,
    done: bool,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.done {
            // Unwound: discard the partial capture, restore the outer one.
            CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
            lower_capture_flag();
        }
    }
}

/// Run `f` under a fresh capture on this thread; return its result and
/// everything the thread's instruments recorded while it ran.
///
/// ```
/// let (sum, capture) = inl_obs::capture::with(|| {
///     inl_obs::counter_add!("doc.capture.widgets", 3);
///     1 + 2
/// });
/// assert_eq!(sum, 3);
/// assert_eq!(capture.counters.get("doc.capture.widgets"), Some(&3));
/// ```
pub fn with<T>(f: impl FnOnce() -> T) -> (T, Capture) {
    let fresh = Capture {
        base_depth: crate::span_stack_depth(),
        ..Capture::default()
    };
    let prev = CURRENT.with(|c| c.borrow_mut().replace(fresh));
    raise_capture_flag();
    let mut scope = Scope { prev, done: false };
    let out = f();
    scope.done = true;
    let capture = CURRENT.with(|c| {
        let mut cell = c.borrow_mut();
        let capture = cell.take().unwrap_or_default();
        *cell = scope.prev.take();
        capture
    });
    lower_capture_flag();
    (out, capture)
}

/// Record a counter bump into this thread's capture, if one is active.
/// Called from [`crate::counter_add!`]; harmless to call directly.
#[inline]
pub fn record_counter(name: &'static str, n: u64) {
    CURRENT.with(|c| {
        if let Some(cap) = c.borrow_mut().as_mut() {
            *cap.counters.entry(name).or_insert(0) += n;
        }
    });
}

/// Record a span close into this thread's capture, if one is active.
/// The leading `base_depth` segments (spans that were already open when
/// the capture began) are stripped; a span fully outside the capture's
/// own nesting is ignored.
#[inline]
pub(crate) fn record_span(path: &str, ns: u64) {
    CURRENT.with(|c| {
        if let Some(cap) = c.borrow_mut().as_mut() {
            let mut rel = path;
            for _ in 0..cap.base_depth {
                match rel.split_once('/') {
                    Some((_, rest)) => rel = rest,
                    None => return, // opened before the capture began
                }
            }
            cap.stages.entry(rel.to_string()).or_default().record(ns);
        }
    });
}

/// Record one committed explain record into this thread's capture, if
/// one is active.
#[inline]
pub(crate) fn record_explain(verdict: crate::explain::Verdict) {
    CURRENT.with(|c| {
        if let Some(cap) = c.borrow_mut().as_mut() {
            match verdict {
                crate::explain::Verdict::Accept => cap.explain.accepts += 1,
                crate::explain::Verdict::Reject => cap.explain.rejects += 1,
                crate::explain::Verdict::Info => cap.explain.notes += 1,
            }
        }
    });
}

/// Counter families whose values depend on what earlier requests warmed:
/// the dependence-analysis memo's, and the FM work under an analysis,
/// which a memo hit skips. [`deterministic_projection`] drops them.
pub const MEMOISED_LAYERS: [&str; 2] = ["poly.", "depend."];

/// True iff every `/`-separated segment of a span path is outside the
/// `poly.` namespace: under `depend.analyze` or `depend.map`, poly spans
/// run inside the memoised analysis, so how many close depends on warmth.
/// No memoised layer has other spans below its entry.
fn path_is_deterministic(path: &str) -> bool {
    path.split('/').all(|seg| !seg.starts_with("poly."))
}

/// The machine-independent projection of a `telemetry` JSON section
/// (as produced by [`Capture::to_json`]): its [`Json::deterministic`]
/// part — no nanosecond field, no `*_ns` accumulator — reduced to stage
/// **counts**, and without the [`MEMOISED_LAYERS`] counter families, whose
/// values depend on what earlier requests warmed.
/// Two captures of the same request — taken in different processes, at
/// different memo temperatures — project to byte-identical canonical
/// JSON; `inl-load --telemetry` compares exactly this.
pub fn deterministic_projection(telemetry: &Json) -> Json {
    let det = telemetry.deterministic();
    let mut root = Json::object();
    if let Some(v) = det.get("version") {
        root.insert("version", v.clone());
    }
    let mut stages = Json::object();
    if let Some(Json::Object(map)) = det.get("stages") {
        for (path, stat) in map {
            if !path_is_deterministic(path) {
                continue;
            }
            if let Some(count) = stat.get("count") {
                stages.insert(path.clone(), count.clone());
            }
        }
    }
    root.insert("stages", stages);
    let mut counters = Json::object();
    if let Some(Json::Object(map)) = det.get("counters") {
        for (name, v) in map {
            if !MEMOISED_LAYERS.iter().any(|layer| name.starts_with(layer)) {
                counters.insert(name.clone(), v.clone());
            }
        }
    }
    root.insert("counters", counters);
    if let Some(e) = det.get("explain") {
        root.insert("explain", e.clone());
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn capture_collects_counters_and_spans_without_global_obs() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        crate::reset();
        let ((), cap) = with(|| {
            let _s = crate::span("obs.test.capture.stage");
            crate::counter_add!("obs.test.capture.counter", 7);
        });
        assert_eq!(cap.counters.get("obs.test.capture.counter"), Some(&7));
        let stage = cap.stages.get("obs.test.capture.stage").expect("stage");
        assert_eq!(stage.count, 1);
        assert!(stage.max_ns >= stage.min_ns);
        // Global layer stayed off: nothing leaked into the registry.
        assert_eq!(crate::counter("obs.test.capture.counter").get(), 0);
        assert!(!crate::registry()
            .spans
            .lock()
            .unwrap()
            .contains_key("obs.test.capture.stage"));
    }

    #[test]
    fn capture_and_global_layer_record_together_when_both_on() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        let ((), cap) = with(|| {
            crate::counter_add!("obs.test.capture.both", 2);
        });
        crate::counter_add!("obs.test.capture.both", 5); // outside the window
        assert_eq!(cap.counters.get("obs.test.capture.both"), Some(&2));
        assert_eq!(crate::counter("obs.test.capture.both").get(), 7);
        crate::set_enabled(false);
    }

    #[test]
    fn nested_capture_suspends_the_outer_one() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let ((), outer) = with(|| {
            crate::counter_add!("obs.test.capture.outer", 1);
            let ((), inner) = with(|| {
                crate::counter_add!("obs.test.capture.inner", 1);
            });
            assert_eq!(inner.counters.get("obs.test.capture.inner"), Some(&1));
            assert!(!inner.counters.contains_key("obs.test.capture.outer"));
        });
        assert_eq!(outer.counters.get("obs.test.capture.outer"), Some(&1));
        assert!(!outer.counters.contains_key("obs.test.capture.inner"));
        assert!(CURRENT.with(|c| c.borrow().is_none()));
    }

    #[test]
    fn stage_paths_are_relative_to_the_capture_envelope() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        // Bare capture: path is the bare stage name.
        let ((), bare) = with(|| {
            let _s = crate::span("obs.test.capture.rel");
        });
        // Same work under an already-open envelope span (the server's
        // `serve.request` shape): the envelope must not prefix the path,
        // and its own close (outside the capture) must not be recorded.
        let (cap, _env_json) = {
            let _env = crate::span("obs.test.capture.envelope");
            let ((), cap) = with(|| {
                let _s = crate::span("obs.test.capture.rel");
            });
            (cap, ())
        };
        assert_eq!(
            bare.stages.keys().collect::<Vec<_>>(),
            cap.stages.keys().collect::<Vec<_>>()
        );
        assert!(cap.stages.contains_key("obs.test.capture.rel"), "{cap:?}");
        assert!(
            !cap.stages.keys().any(|k| k.contains("envelope")),
            "{cap:?}"
        );
        crate::set_enabled(false);
    }

    #[test]
    fn captures_are_thread_local() {
        let _l = TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let ((), cap) = with(|| {
            // A sibling thread's instruments must not land in this capture.
            std::thread::spawn(|| {
                crate::counter_add!("obs.test.capture.sibling", 9);
            })
            .join()
            .unwrap();
            crate::counter_add!("obs.test.capture.mine", 1);
        });
        assert_eq!(cap.counters.get("obs.test.capture.mine"), Some(&1));
        assert!(!cap.counters.contains_key("obs.test.capture.sibling"));
    }

    #[test]
    fn capture_json_is_versioned() {
        let mut cap = Capture::default();
        cap.counters.insert("poly.fm.eliminations", 4);
        cap.counters.insert("exec.instances", 99);
        cap.stages.insert(
            "serve.compile".into(),
            SpanSnapshot {
                count: 1,
                total_ns: 1000,
                min_ns: 1000,
                max_ns: 1000,
            },
        );
        let j = cap.to_json();
        assert_eq!(j.get("version").and_then(Json::as_u64), Some(2));
        assert!(j.get("poly_cache").is_none());
        let counters = j.get("counters").unwrap();
        assert_eq!(
            counters.get("poly.fm.eliminations").and_then(Json::as_u64),
            Some(4)
        );
        let stage = j.get("stages").unwrap().get("serve.compile").unwrap();
        assert_eq!(stage.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn projection_strips_nondeterministic_evidence() {
        let mut cap = Capture::default();
        cap.counters.insert("poly.fm.eliminations", 4);
        cap.counters.insert("exec.instances", 99);
        cap.counters.insert("exec.par.thread_busy_ns", 123_456);
        cap.stages.insert(
            "serve.compile".into(),
            SpanSnapshot {
                count: 1,
                total_ns: 7777,
                min_ns: 7777,
                max_ns: 7777,
            },
        );
        cap.stages.insert(
            "serve.compile/poly.feasibility".into(),
            SpanSnapshot {
                count: 3,
                total_ns: 10,
                min_ns: 1,
                max_ns: 8,
            },
        );
        let proj = deterministic_projection(&cap.to_json());
        let text = proj.to_pretty_string();
        assert!(!text.contains("_ns"), "{text}");
        assert!(!text.contains("poly."), "{text}");
        assert_eq!(
            proj.get("counters")
                .unwrap()
                .get("exec.instances")
                .and_then(Json::as_u64),
            Some(99)
        );
        assert_eq!(
            proj.get("stages")
                .unwrap()
                .get("serve.compile")
                .and_then(Json::as_u64),
            Some(1)
        );
        // Identical captures at different memo temperatures project equal.
        let mut warm = cap.clone();
        warm.counters.insert("poly.fm.eliminations", 400);
        warm.stages.get_mut("serve.compile").unwrap().total_ns = 999;
        warm.stages.remove("serve.compile/poly.feasibility");
        assert_eq!(
            deterministic_projection(&warm.to_json()).to_pretty_string(),
            text
        );
    }

    #[test]
    fn projection_equates_an_analysis_memo_miss_with_a_hit() {
        let stage = |count| SpanSnapshot {
            count,
            total_ns: 500,
            min_ns: 500,
            max_ns: 500,
        };
        // The same request twice: the first analysis misses the memo and
        // does the work, the second is answered with the stored matrix.
        let mut miss = Capture::default();
        miss.counters.insert("depend.memo.miss", 1);
        miss.counters.insert("depend.pairs_tested", 39);
        miss.counters.insert("depend.polyhedra_retained", 14);
        miss.counters.insert("poly.fm.eliminations", 210);
        miss.counters.insert("legal.fast_path_hits", 20);
        miss.stages.insert("serve.compile".into(), stage(1));
        miss.stages
            .insert("serve.compile/depend.analyze".into(), stage(1));
        miss.stages.insert(
            "serve.compile/depend.analyze/poly.feasibility".into(),
            stage(67),
        );
        let mut hit = Capture::default();
        hit.counters.insert("depend.memo.hit", 1);
        hit.counters.insert("legal.fast_path_hits", 20);
        hit.stages.insert("serve.compile".into(), stage(1));
        hit.stages
            .insert("serve.compile/depend.analyze".into(), stage(1));

        let proj = deterministic_projection(&miss.to_json());
        assert_eq!(
            proj.to_pretty_string(),
            deterministic_projection(&hit.to_json()).to_pretty_string()
        );
        let text = proj.to_pretty_string();
        assert!(!text.contains("depend.memo"), "{text}");
        assert!(!text.contains("depend.pairs_tested"), "{text}");
        // The request for an analysis is evidence either way.
        assert_eq!(
            proj.get("stages")
                .unwrap()
                .get("serve.compile/depend.analyze")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            proj.get("counters")
                .unwrap()
                .get("legal.fast_path_hits")
                .and_then(Json::as_u64),
            Some(20)
        );
    }
}
