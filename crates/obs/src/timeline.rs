//! Timeline tracing: every span as a timestamped slice in bounded
//! per-thread ring buffers, exported as Chrome trace-event JSON (open the
//! file in Perfetto or `chrome://tracing`).
//!
//! # Design
//!
//! * **Spans are the only source.** A [`crate::span`] that closes while
//!   the layer is on becomes one Chrome "complete" event (`ph: "X"`, one
//!   ring slot per slice, immune to begin/end unpairing under overflow)
//!   under its bare name; [`crate::span_args`] attaches up to
//!   [`MAX_ARGS`] integer arguments to it. There are no point-in-time
//!   events: a pipeline stage is the slice of its span (`depend.analyze`,
//!   `legal.check`, `complete.transform`, `codegen.generate`,
//!   `vm.compile`), and a parallel loop's `exec.par.wavefront` and
//!   `exec.par.chunk` spans carry their iteration counts and bounds.
//! * **Hot path is lock-free.** Each thread records into its own ring via
//!   a thread-local — no atomics, no locks, no allocation past the ring's
//!   capacity. While the layer is disabled a span pays nothing here (the
//!   flag byte shared with the other layers is read once, at open).
//! * **Bounded.** A ring holds at most [`CAPACITY`] events. On overflow
//!   the *oldest* event is dropped and counted — recording never blocks,
//!   never reallocates, never panics.
//! * **Rings retire on thread exit.** When a thread finishes (e.g. the
//!   scoped workers of a parallel loop), its ring moves into a global
//!   retired list, and its timeline id returns to a pool so short-lived
//!   workers reuse display rows instead of growing the trace unboundedly.
//!   [`export_chrome_trace`] sees every retired ring plus the calling thread's live
//!   ring; live events on *other* still-running threads are not visible
//!   until those threads exit. The retired list itself is bounded
//!   ([`RETAIN_EVENT_BUDGET`]); beyond it whole oldest rings are dropped
//!   and counted.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity (events).
pub const CAPACITY: usize = 16_384;

/// Total events kept across retired rings before whole oldest rings are
/// dropped (bounds memory across many short-lived worker threads).
pub const RETAIN_EVENT_BUDGET: usize = 1 << 20;

/// Maximum args attached to one slice.
pub const MAX_ARGS: usize = 2;

/// A slice's integer arguments, unused slots `None`.
pub(crate) type Args = [Option<(&'static str, i64)>; MAX_ARGS];

/// One recorded slice. Names and arg keys are `&'static str` so the
/// recording hot path never allocates.
#[derive(Clone, Copy, Debug)]
struct Event {
    /// The span's name (shown as the slice label in trace viewers).
    name: &'static str,
    /// Nanoseconds since the process epoch (first timeline use).
    ts_ns: u64,
    /// Duration in nanoseconds.
    dur_ns: u64,
    /// Up to [`MAX_ARGS`] integer arguments (e.g. a chunk's bounds).
    args: Args,
}

/// The monotonic zero point all event timestamps are relative to
/// (initialized by the first instrument or flag access in the process).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn instant_ns(at: Instant) -> u64 {
    at.checked_duration_since(epoch())
        .map_or(0, |d| d.as_nanos() as u64)
}

// ------------------------------------------------------------------ rings

/// One thread's bounded event buffer.
#[derive(Clone, Debug)]
struct Ring {
    tid: u32,
    thread_name: String,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() == CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

#[derive(Default)]
struct Retired {
    rings: VecDeque<Ring>,
    /// Total events currently held across `rings`.
    held: usize,
    /// Events lost to ring overflow or retired-ring eviction, beyond what
    /// surviving rings still report themselves.
    evicted: u64,
    /// Timeline ids of exited threads, free for reuse.
    free_tids: Vec<u32>,
}

fn retired() -> MutexGuard<'static, Retired> {
    static RETIRED: OnceLock<Mutex<Retired>> = OnceLock::new();
    RETIRED
        .get_or_init(|| Mutex::new(Retired::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn next_tid() -> u32 {
    if let Some(tid) = retired().free_tids.pop() {
        return tid;
    }
    static NEXT: AtomicU32 = AtomicU32::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Thread-local ring wrapper whose drop (at thread exit) retires the ring
/// into the global list.
struct LocalRing(Option<Ring>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        if let Some(ring) = self.0.take() {
            retire(ring);
        }
    }
}

fn retire(ring: Ring) {
    let mut r = retired();
    r.free_tids.push(ring.tid);
    if !ring.events.is_empty() {
        r.held += ring.events.len();
        r.rings.push_back(ring);
        while r.held > RETAIN_EVENT_BUDGET {
            let Some(old) = r.rings.pop_front() else {
                break;
            };
            r.held -= old.events.len();
            r.evicted += old.dropped + old.events.len() as u64;
        }
    } else {
        r.evicted += ring.dropped;
    }
}

thread_local! {
    static RING: RefCell<LocalRing> = const { RefCell::new(LocalRing(None)) };
}

/// Run `f` on the calling thread's live ring, if it has one. `try_with`,
/// not `with`: the `atexit` dump runs after the main thread's TLS
/// destructors, and by then its ring has retired into the global list.
fn with_live_ring(f: impl FnOnce(&mut Ring)) {
    let _ = RING.try_with(|cell| {
        if let Some(ring) = cell.borrow_mut().0.as_mut() {
            f(ring);
        }
    });
}

fn record(ev: Event) {
    RING.with(|cell| {
        let mut local = cell.borrow_mut();
        let ring = local.0.get_or_insert_with(|| {
            let tid = next_tid();
            let thread_name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("worker-{tid}"));
            Ring {
                tid,
                thread_name,
                events: VecDeque::with_capacity(1024),
                dropped: 0,
            }
        });
        ring.push(ev);
    });
}

// ------------------------------------------------------------- public API

pub(crate) const NO_ARGS: Args = [None, None];

/// The first [`MAX_ARGS`] of `args`, in order.
#[inline]
pub(crate) fn pack_args(args: &[(&'static str, i64)]) -> Args {
    let mut packed = NO_ARGS;
    for (slot, &arg) in packed.iter_mut().zip(args) {
        *slot = Some(arg);
    }
    packed
}

/// Record the slice of a span that opened at `start` and ran `dur_ns`.
pub(crate) fn complete_from(name: &'static str, start: Instant, dur_ns: u64, args: Args) {
    record(Event {
        name,
        ts_ns: instant_ns(start),
        dur_ns,
        args,
    });
}

/// Drop every recorded event: retired rings, the calling thread's live
/// ring, and the eviction tally. The live rings of other threads are not
/// touched: they retire, events and all, when their threads exit — for
/// deterministic tests, reset from the only recording thread.
pub fn reset() {
    {
        let mut r = retired();
        r.rings.clear();
        r.held = 0;
        r.evicted = 0;
    }
    with_live_ring(|ring| {
        ring.events.clear();
        ring.dropped = 0;
    });
}

/// Total events dropped so far (ring overflow on retired rings and the
/// current thread, plus whole-ring evictions from the retired list).
pub fn dropped_total() -> u64 {
    let mut total = {
        let r = retired();
        r.evicted + r.rings.iter().map(|ring| ring.dropped).sum::<u64>()
    };
    with_live_ring(|ring| total += ring.dropped);
    total
}

// ---------------------------------------------------------------- export

fn snapshot() -> (Vec<Ring>, u64) {
    let (mut rings, evicted) = {
        let r = retired();
        (r.rings.iter().cloned().collect::<Vec<_>>(), r.evicted)
    };
    with_live_ring(|ring| {
        if !ring.events.is_empty() {
            rings.push(ring.clone());
        }
    });
    rings.sort_by_key(|r| r.tid);
    (rings, evicted)
}

fn event_json(ev: &Event, tid: u32) -> Json {
    let mut obj = Json::object();
    obj.insert("name", Json::Str(ev.name.to_string()));
    obj.insert("cat", Json::Str("inl".into()));
    obj.insert("pid", Json::Int(1));
    obj.insert("tid", Json::Int(tid as u64));
    // Chrome trace timestamps are microseconds; keep sub-µs precision.
    obj.insert("ts", Json::Float(ev.ts_ns as f64 / 1000.0));
    obj.insert("ph", Json::Str("X".into()));
    obj.insert("dur", Json::Float(ev.dur_ns as f64 / 1000.0));
    if ev.args.iter().any(Option::is_some) {
        let mut args = Json::object();
        for &(key, value) in ev.args.iter().flatten() {
            args.insert(key, Json::signed(value));
        }
        obj.insert("args", args);
    }
    obj
}

/// Export everything visible from the calling thread as a Chrome
/// trace-event JSON object (`traceEvents`: a `thread_name` metadata event
/// per timeline row, then its slices; drop statistics in `otherData`).
/// Non-destructive: successive exports see accumulated events; use
/// [`reset`] to start over.
pub fn export_chrome_trace() -> Json {
    let (rings, evicted) = snapshot();
    let mut events = Vec::new();
    let mut total_dropped = evicted;
    let mut named: Vec<u32> = Vec::new();
    for ring in &rings {
        total_dropped += ring.dropped;
        // Rings of reused tids share a display row; name it once.
        if !named.contains(&ring.tid) {
            named.push(ring.tid);
            let mut meta = Json::object();
            meta.insert("name", Json::Str("thread_name".into()));
            meta.insert("ph", Json::Str("M".into()));
            meta.insert("pid", Json::Int(1));
            meta.insert("tid", Json::Int(ring.tid as u64));
            let mut args = Json::object();
            args.insert("name", Json::Str(ring.thread_name.clone()));
            meta.insert("args", args);
            events.push(meta);
        }
        for ev in &ring.events {
            events.push(event_json(ev, ring.tid));
        }
    }
    let mut root = Json::object();
    root.insert("traceEvents", Json::Array(events));
    root.insert("displayTimeUnit", Json::Str("ms".into()));
    let mut other = Json::object();
    other.insert("dropped_events", Json::Int(total_dropped));
    other.insert("rings", Json::Int(rings.len() as u64));
    root.insert("otherData", other);
    root
}

/// Write the Chrome trace JSON to `path`, creating parent directories.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<()> {
    export_chrome_trace().write_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Timeline unit tests share the process-global flag byte and rings
    // with the rest of the crate's tests; serialize on the same lock.
    fn begin() -> std::sync::MutexGuard<'static, ()> {
        let g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_timeline_enabled(true);
        reset();
        g
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_timeline_enabled(false);
        reset();
        drop(crate::span("tl.test.off"));
        drop(crate::span_args("tl.test.off.args", &[("lo", 1)]));
        let trace = export_chrome_trace();
        let Some(Json::Array(events)) = trace.get("traceEvents") else {
            panic!("missing traceEvents")
        };
        assert!(events.is_empty(), "disabled timeline recorded events");
    }

    #[test]
    fn spans_export_as_chrome_slices() {
        let _g = begin();
        {
            // a third argument is past `MAX_ARGS` and dropped
            let _s = crate::span_args("tl.test.slice", &[("lo", 3), ("hi", -9), ("x", 1)]);
            drop(crate::span("tl.test.bare"));
        }
        let trace = export_chrome_trace();
        let Some(Json::Array(events)) = trace.get("traceEvents") else {
            panic!("missing traceEvents")
        };
        let phs: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert!(phs.contains(&"M"), "thread metadata missing: {phs:?}");
        assert!(
            phs.iter().all(|&ph| ph == "M" || ph == "X"),
            "only slices and metadata: {phs:?}"
        );
        let slice = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name} exported"))
        };
        let with_args = slice("tl.test.slice");
        assert!(matches!(with_args.get("ts"), Some(Json::Float(_))));
        assert!(matches!(with_args.get("dur"), Some(Json::Float(_))));
        let mut expected = Json::object();
        expected.insert("lo", Json::Int(3));
        expected.insert("hi", Json::Float(-9.0));
        assert_eq!(with_args.get("args"), Some(&expected));
        assert_eq!(slice("tl.test.bare").get("args"), None);
        crate::set_timeline_enabled(false);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _g = begin();
        const EXTRA: usize = 22;
        // Flood a fresh ring on another thread. A plain `spawn` + `join`,
        // not `thread::scope`: the scope returns when the closure has,
        // which is before the worker's TLS destructor retires its ring;
        // `join` waits for the OS thread.
        std::thread::spawn(|| {
            for _ in 0..CAPACITY + EXTRA {
                drop(crate::span("tl.test.flood"));
            }
        })
        .join()
        .expect("flood thread");
        assert_eq!(dropped_total(), EXTRA as u64);
        let trace = export_chrome_trace();
        assert_eq!(
            trace
                .get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Json::as_u64),
            Some(EXTRA as u64)
        );
        let Some(Json::Array(events)) = trace.get("traceEvents") else {
            panic!("missing traceEvents")
        };
        let flood = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("tl.test.flood"))
            .count();
        assert_eq!(flood, CAPACITY, "ring must retain exactly its capacity");
        crate::set_timeline_enabled(false);
    }

    #[test]
    fn worker_rings_retire_with_distinct_tids() {
        let _g = begin();
        // Both workers record *before* either exits (tids are pooled on
        // thread exit, so a fully-sequential pair could share one), and
        // both are joined as plain threads so their rings have retired.
        drop(crate::span("tl.test.main"));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    {
                        let _sl = crate::span("tl.test.worker");
                        std::hint::black_box(0);
                    }
                    barrier.wait();
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker thread");
        }
        let trace = export_chrome_trace();
        let Some(Json::Array(events)) = trace.get("traceEvents") else {
            panic!("missing traceEvents")
        };
        let mut tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .filter_map(|e| e.get("tid").and_then(Json::as_u64))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert!(tids.len() >= 3, "main + 2 workers expected: {tids:?}");
        crate::set_timeline_enabled(false);
    }
}
