//! # inl-obs
//!
//! Observability for the `inl` transformation pipeline: scoped wall-time
//! **spans**, monotonic **counters**, and log₂-bucketed **histograms**,
//! aggregated in a process-wide registry and rendered as a
//! [`PipelineReport`] (human-readable table or JSON).
//!
//! The layer is built to be *always on*:
//!
//! * every instrument checks a single relaxed atomic and is a no-op while
//!   telemetry is disabled (the default);
//! * enabling costs one `Instant::now()` pair per span, one `fetch_add`
//!   per counter bump (handles are cached at the call site by the
//!   [`counter_add!`]/[`hist_record!`] macros), and one short mutex
//!   acquisition per span *exit* — cheap enough that hot interpreter
//!   loops budget under 5 % overhead (measured by the system benchmark:
//!   `obs.trace_overhead_pct.*` in `benchmark/`).
//!
//! Telemetry is switched on by calling [`set_enabled`]`(true)`. The
//! environment only names where artifacts go: setting
//! `INL_OBS_JSON=<path>` before the first instrument fires enables
//! telemetry in *any* binary and dumps the [`PipelineReport`] JSON to
//! `<path>` at process exit (no code changes required).
//!
//! A second, independent layer — the [`timeline`] — records every span as
//! a timestamped slice into bounded per-thread ring buffers and exports
//! Chrome trace-event JSON (viewable in Perfetto / `chrome://tracing`). It is
//! enabled by [`set_timeline_enabled`], and `INL_TRACE_JSON=<path>`
//! enables it and dumps the trace at process exit.
//!
//! A third layer — [`explain`] — records *decision provenance*: why each
//! candidate transformation was legal or rejected, with the dependence
//! evidence and cost features behind every verdict. It is enabled by
//! [`set_explain_enabled`], and `INL_EXPLAIN_JSON=<path>` enables it and
//! dumps the record store at process exit.
//!
//! A fourth concern — request-scoped [`capture`] — reuses the same
//! instruments to attribute counters, span durations, and explain
//! verdicts to *one request* (the compile service streams the result
//! back to clients), and the [`window`] module aggregates per-request
//! latencies into a sliding window of live percentiles. All layers share
//! one flag byte, so "everything disabled" still costs exactly one
//! relaxed atomic load per instrument.
//!
//! Spans nest: a span opened while another span is open on the same
//! thread is recorded under the path `outer/inner`, so solver time inside
//! a pipeline stage (`codegen.generate/poly.feasibility`) is attributed
//! to that stage. There are no external dependencies — JSON is emitted
//! and parsed by the [`json`] module.

#![warn(missing_docs)]

pub mod capture;
pub mod explain;
pub mod json;
pub mod report;
pub mod timeline;
pub mod window;

pub use json::{Json, JsonError, ParseLimits};
pub use report::{HistogramSnapshot, PipelineReport, SpanSnapshot};

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------- enabling

/// Flag bit: aggregate telemetry (spans/counters/histograms).
pub(crate) const FLAG_OBS: u8 = 1;
/// Flag bit: timeline event recording.
pub(crate) const FLAG_TIMELINE: u8 = 2;
/// Flag bit: decision-provenance (explain) recording.
pub(crate) const FLAG_EXPLAIN: u8 = 4;
/// Flag bit: at least one request-scoped [`capture`] is active somewhere
/// in the process (raised/lowered by `capture::with`, never by env).
pub(crate) const FLAG_CAPTURE: u8 = 8;

/// JSON dump paths read from the environment at first-instrument time;
/// written at process exit by the `atexit` hook.
static EXIT_OBS_JSON: OnceLock<Option<PathBuf>> = OnceLock::new();
static EXIT_TRACE_JSON: OnceLock<Option<PathBuf>> = OnceLock::new();
static EXIT_EXPLAIN_JSON: OnceLock<Option<PathBuf>> = OnceLock::new();

fn env_path(name: &str) -> Option<PathBuf> {
    std::env::var_os(name)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Dump telemetry/trace JSON for `INL_OBS_JSON` / `INL_TRACE_JSON`.
/// Runs via `atexit`, so it must never unwind.
extern "C" fn exit_dump() {
    let _ = std::panic::catch_unwind(|| {
        if let Some(Some(path)) = EXIT_OBS_JSON.get() {
            let _ = PipelineReport::capture().write_json(path);
        }
        if let Some(Some(path)) = EXIT_TRACE_JSON.get() {
            let _ = timeline::write_chrome_trace(path);
        }
        if let Some(Some(path)) = EXIT_EXPLAIN_JSON.get() {
            let _ = explain::write_json(path);
        }
    });
}

#[cfg(unix)]
fn register_exit_dump() {
    extern "C" {
        fn atexit(cb: extern "C" fn()) -> i32;
    }
    unsafe {
        atexit(exit_dump);
    }
}

#[cfg(not(unix))]
fn register_exit_dump() {
    // No portable exit hook without libc; the env-dump feature is inert.
    let _ = exit_dump;
}

fn flags_cell() -> &'static AtomicU8 {
    static FLAGS: OnceLock<AtomicU8> = OnceLock::new();
    FLAGS.get_or_init(|| {
        // Anchor the timeline epoch before any event can be recorded.
        timeline::epoch();
        let obs_json = env_path("INL_OBS_JSON");
        let trace_json = env_path("INL_TRACE_JSON");
        let explain_json = env_path("INL_EXPLAIN_JSON");
        // The only thing the environment says: where artifacts go. A dump
        // path implies its layer — collecting nothing and then writing an
        // empty file would be useless.
        let mut f = 0u8;
        if obs_json.is_some() {
            f |= FLAG_OBS;
        }
        if trace_json.is_some() {
            f |= FLAG_TIMELINE;
        }
        if explain_json.is_some() {
            f |= FLAG_EXPLAIN;
        }
        let want_dump = obs_json.is_some() || trace_json.is_some() || explain_json.is_some();
        let _ = EXIT_OBS_JSON.set(obs_json);
        let _ = EXIT_TRACE_JSON.set(trace_json);
        let _ = EXIT_EXPLAIN_JSON.set(explain_json);
        if want_dump {
            register_exit_dump();
        }
        AtomicU8::new(f)
    })
}

/// All four layer flags in one relaxed load.
#[inline]
pub(crate) fn flags() -> u8 {
    flags_cell().load(Ordering::Relaxed)
}

/// True iff telemetry collection is on. All instruments are no-ops when
/// this is false; the check is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    flags() & FLAG_OBS != 0
}

/// True iff timeline event recording is on (one relaxed atomic load).
#[inline]
pub fn timeline_enabled() -> bool {
    flags() & FLAG_TIMELINE != 0
}

/// True iff decision-provenance (explain) recording is on (one relaxed
/// atomic load). Call sites should gate evidence-string construction on
/// this so the disabled path stays free.
#[inline]
pub fn explain_enabled() -> bool {
    flags() & FLAG_EXPLAIN != 0
}

/// Turn telemetry collection on or off at runtime. The timeline flag is
/// unaffected.
pub fn set_enabled(on: bool) {
    if on {
        flags_cell().fetch_or(FLAG_OBS, Ordering::Relaxed);
    } else {
        flags_cell().fetch_and(!FLAG_OBS, Ordering::Relaxed);
    }
}

/// Turn timeline recording on or off at runtime. The aggregate-telemetry
/// flag is unaffected.
pub fn set_timeline_enabled(on: bool) {
    if on {
        flags_cell().fetch_or(FLAG_TIMELINE, Ordering::Relaxed);
    } else {
        flags_cell().fetch_and(!FLAG_TIMELINE, Ordering::Relaxed);
    }
}

/// Turn decision-provenance recording on or off at runtime. The other
/// layer flags are unaffected.
pub fn set_explain_enabled(on: bool) {
    if on {
        flags_cell().fetch_or(FLAG_EXPLAIN, Ordering::Relaxed);
    } else {
        flags_cell().fetch_and(!FLAG_EXPLAIN, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------- registry

pub(crate) struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// `buckets[i]` counts the values of [`HistogramSnapshot::slot_of`] `i`.
    buckets: [AtomicU64; HistogramSnapshot::SLOTS],
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [0u64; HistogramSnapshot::SLOTS].map(AtomicU64::new),
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[HistogramSnapshot::slot_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_slots(
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)),
        )
    }
}

pub(crate) struct Registry {
    pub(crate) counters: Mutex<HashMap<&'static str, Arc<AtomicU64>>>,
    pub(crate) histograms: Mutex<HashMap<&'static str, Arc<HistogramInner>>>,
    pub(crate) spans: Mutex<HashMap<String, SpanSnapshot>>,
}

pub(crate) fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: Mutex::new(HashMap::new()),
        histograms: Mutex::new(HashMap::new()),
        spans: Mutex::new(HashMap::new()),
    })
}

/// Zero every counter and histogram and drop all span statistics.
/// Counter/histogram *handles* cached at call sites stay valid — their
/// values restart from zero.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().values() {
        c.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.lock().unwrap().values() {
        h.reset();
    }
    reg.spans.lock().unwrap().clear();
}

// ---------------------------------------------------------------- counters

/// Handle to a named monotonic counter. Cheap to clone; `add` is one
/// relaxed `fetch_add`.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The subset of the flag byte that arms counter/span instruments:
/// aggregate telemetry and request-scoped capture. One relaxed load.
#[doc(hidden)]
#[inline]
pub fn instrument_flags() -> u8 {
    flags() & (FLAG_OBS | FLAG_CAPTURE)
}

/// Route one counter bump to the layers named in `flags` (the global
/// registry and/or the thread's active [`capture`]). Support for the
/// [`counter_add!`] expansion — not part of the public API surface.
#[doc(hidden)]
pub fn dispatch_counter(flags: u8, cell: &'static OnceLock<Counter>, name: &'static str, n: u64) {
    if flags & FLAG_OBS != 0 {
        cell.get_or_init(|| counter(name)).add(n);
    }
    if flags & FLAG_CAPTURE != 0 {
        capture::record_counter(name, n);
    }
}

/// Look up (or create) the counter `name`. Call sites on hot paths should
/// cache the handle — the [`counter_add!`] macro does this with a
/// function-local `OnceLock`.
pub fn counter(name: &'static str) -> Counter {
    let mut map = registry().counters.lock().unwrap();
    Counter(
        map.entry(name)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone(),
    )
}

/// Convenience: the counter's current value (0 if it never fired).
pub fn counter_value(name: &'static str) -> u64 {
    registry()
        .counters
        .lock()
        .unwrap()
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Bump counter `$name` by `$n` iff aggregate telemetry is enabled or a
/// request-scoped [`capture`] is active (one relaxed load when both are
/// off). The registry handle is resolved once per call site and cached
/// in a local `OnceLock`; the bump additionally lands in this thread's
/// capture while one is open.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        let __obs_flags = $crate::instrument_flags();
        if __obs_flags != 0 {
            static __OBS_COUNTER: ::std::sync::OnceLock<$crate::Counter> =
                ::std::sync::OnceLock::new();
            $crate::dispatch_counter(__obs_flags, &__OBS_COUNTER, $name, $n as u64);
        }
    }};
}

// -------------------------------------------------------------- histograms

/// Handle to a named log₂ histogram. Cheap to clone; `record` is four
/// relaxed atomic ops plus one bucket increment.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }
}

/// Look up (or create) the histogram `name`.
pub fn histogram(name: &'static str) -> Histogram {
    let mut map = registry().histograms.lock().unwrap();
    Histogram(
        map.entry(name)
            .or_insert_with(|| Arc::new(HistogramInner::new()))
            .clone(),
    )
}

/// Record `$v` into histogram `$name` iff telemetry is enabled, caching
/// the handle like [`counter_add!`].
#[macro_export]
macro_rules! hist_record {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            static __OBS_HIST: ::std::sync::OnceLock<$crate::Histogram> =
                ::std::sync::OnceLock::new();
            __OBS_HIST
                .get_or_init(|| $crate::histogram($name))
                .record($v as u64);
        }
    };
}

// ------------------------------------------------------------------- spans

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// How many spans are open on this thread right now (capture uses this
/// to make its stage paths envelope-relative).
pub(crate) fn span_stack_depth() -> usize {
    SPAN_STACK.with(|s| s.borrow().len())
}

/// RAII guard for a scoped span; created by [`span`]. Dropping it records
/// the elapsed wall time under the thread's current nesting path, and —
/// when the timeline layer is on — a matching timeline slice.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    start: Option<Instant>,
    name: &'static str,
    /// Which layers to record into on drop ([`FLAG_OBS`] |
    /// [`FLAG_TIMELINE`] | [`FLAG_CAPTURE`], as sampled at open).
    record: u8,
}

/// Open a scoped span. While every layer is disabled this is a no-op
/// (the guard holds no timestamp). Nested spans on the same thread record
/// under `outer/inner` paths — into the global registry when aggregate
/// telemetry is on, into the thread's [`capture`] when one is open — and
/// with the timeline enabled the span also becomes a Chrome-trace slice
/// under its bare name.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let record = flags();
    if record == 0 {
        return SpanGuard {
            start: None,
            name,
            record,
        };
    }
    if record & (FLAG_OBS | FLAG_CAPTURE) != 0 {
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
    }
    SpanGuard {
        start: Some(Instant::now()),
        name,
        record,
    }
}

/// A [`span`] whose timeline slice carries integer arguments; created by
/// [`span_args`]. The arguments live here, not in [`SpanGuard`], so a
/// span without them pays nothing for them.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanArgsGuard {
    span: SpanGuard,
    args: timeline::Args,
}

/// [`span`] whose timeline slice carries up to [`timeline::MAX_ARGS`]
/// integer arguments (a job's index, a chunk's bounds); extra ones are
/// ignored. The registry and a [`capture`] see the span as [`span`]
/// records it: by name and path, without the arguments.
#[inline]
pub fn span_args(name: &'static str, args: &[(&'static str, i64)]) -> SpanArgsGuard {
    SpanArgsGuard {
        span: span(name),
        args: timeline::pack_args(args),
    }
}

impl Drop for SpanArgsGuard {
    fn drop(&mut self) {
        // taken, so that the inner guard's own drop finds nothing to close
        if let Some(start) = self.span.start.take() {
            self.span.close(start, self.args);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.close(start, timeline::NO_ARGS);
        }
    }
}

impl SpanGuard {
    /// Record the span opened at `start`, its timeline slice carrying
    /// `args`.
    fn close(&mut self, start: Instant, args: timeline::Args) {
        let ns = start.elapsed().as_nanos() as u64;
        if self.record & FLAG_TIMELINE != 0 {
            timeline::complete_from(self.name, start, ns, args);
        }
        if self.record & (FLAG_OBS | FLAG_CAPTURE) == 0 {
            return;
        }
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            // guards normally drop in LIFO order; tolerate surprises
            if stack.last() == Some(&self.name) {
                stack.pop();
            } else if let Some(i) = stack.iter().rposition(|&n| n == self.name) {
                stack.remove(i);
            }
            path
        });
        if self.record & FLAG_CAPTURE != 0 {
            capture::record_span(&path, ns);
        }
        if self.record & FLAG_OBS == 0 {
            return;
        }
        let mut spans = registry().spans.lock().unwrap();
        spans.entry(path).or_default().record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enabled flag is process-global; tests toggling it must not run
    /// concurrently with each other.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_instruments_are_noops() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let _g = span("obs.test.noop");
        drop(_g);
        counter_add!("obs.test.noop.counter", 5);
        hist_record!("obs.test.noop.hist", 5);
        assert_eq!(counter_value("obs.test.noop.counter"), 0);
        assert!(!registry()
            .spans
            .lock()
            .unwrap()
            .contains_key("obs.test.noop"));
    }

    #[test]
    fn counter_and_histogram_basics() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let c = counter("obs.test.basic.counter");
        c.add(3);
        c.add(4);
        assert_eq!(counter_value("obs.test.basic.counter"), 7);
        let h = histogram("obs.test.basic.hist");
        h.record(0);
        h.record(1);
        h.record(100);
        let snap = registry().histograms.lock().unwrap()["obs.test.basic.hist"].snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 101);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 100);
        // 0 → bucket ub 0, 1 → ub 1, 100 → ub 127
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (127, 1)]);
    }

    #[test]
    fn reset_keeps_cached_handles_live() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let c = counter("obs.test.reset.counter");
        c.add(10);
        reset();
        assert_eq!(counter_value("obs.test.reset.counter"), 0);
        c.add(2);
        assert_eq!(counter_value("obs.test.reset.counter"), 2);
    }
}
