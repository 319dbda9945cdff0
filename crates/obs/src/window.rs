//! Sliding-window live metrics: a ring of time buckets over the last N
//! seconds, answering "what are the p50/p95/p99 latency, request rate,
//! and error rate *right now*" — the server-side source for the wire
//! `metrics` request and the `inl-top` dashboard.
//!
//! # Window math
//!
//! The window is a ring of `buckets` slots, each covering `bucket_ms`
//! milliseconds of wall time. An observation at time `t` (ms) belongs to
//! **epoch** `t / bucket_ms` and lands in slot `epoch % buckets`; a slot
//! holding an older epoch is zeroed on first touch (lazy rotation —
//! there is no background thread). A snapshot at time `t` merges every
//! slot whose epoch lies in `(epoch(t) - buckets, epoch(t)]`, i.e. the
//! current bucket plus the `buckets - 1` before it, so the window spans
//! at most `buckets × bucket_ms` milliseconds and stale buckets age out
//! purely by being skipped.
//!
//! Per-bucket state is bounded and fixed-size: scalar tallies, a
//! per-request-kind count map, and a 65-slot log₂ latency histogram
//! whose `u32` slots **saturate** rather than wrap, so a bucket absorbing
//! more than `u32::MAX` same-magnitude observations degrades percentile
//! resolution instead of corrupting it (`count`/`sum` stay exact in
//! `u64`). Merged percentiles reuse [`HistogramSnapshot`]'s rank walk,
//! so window percentiles and report percentiles share one definition.
//!
//! The rate denominator is `min(window span, elapsed + 1ms)`: a server
//! 3 s into its life reports requests-per-second over those 3 s, not
//! over a mostly-empty 60 s window.
//!
//! Time is injected: the public [`SlidingWindow::record`] /
//! [`SlidingWindow::snapshot`] pair reads a monotonic clock anchored at
//! construction, while the `*_at` variants take explicit milliseconds —
//! tests drive rotation and expiry with a simulated clock, no sleeping.

use crate::json::Json;
use crate::report::HistogramSnapshot;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Default number of ring buckets (`60 × 1 s` = one minute of history).
pub const DEFAULT_BUCKETS: usize = 60;
/// Default width of one bucket in milliseconds.
pub const DEFAULT_BUCKET_MS: u64 = 1000;

/// One ring slot: tallies for a single `bucket_ms`-wide time epoch.
#[derive(Clone, Debug)]
struct Bucket {
    /// Which epoch this slot currently holds; `u64::MAX` = never used.
    epoch: u64,
    count: u64,
    errors: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    by_kind: BTreeMap<&'static str, u64>,
    /// Log₂ latency histogram, one count per
    /// [`HistogramSnapshot::slot_of`] as in the registry histograms.
    hist: [u32; HistogramSnapshot::SLOTS],
}

impl Bucket {
    const fn empty() -> Self {
        Bucket {
            epoch: u64::MAX,
            count: 0,
            errors: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            by_kind: BTreeMap::new(),
            hist: [0u32; HistogramSnapshot::SLOTS],
        }
    }

    fn reset_for(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.count = 0;
        self.errors = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
        self.by_kind.clear();
        self.hist = [0u32; HistogramSnapshot::SLOTS];
    }

    fn record(&mut self, kind: &'static str, latency_ns: u64, error: bool, n: u64) {
        self.count += n;
        if error {
            self.errors += n;
        }
        self.sum_ns = self.sum_ns.saturating_add(latency_ns.saturating_mul(n));
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
        *self.by_kind.entry(kind).or_insert(0) += n;
        let slot = HistogramSnapshot::slot_of(latency_ns);
        let clamped = u32::try_from(n).unwrap_or(u32::MAX);
        self.hist[slot] = self.hist[slot].saturating_add(clamped);
    }
}

/// Ring of time buckets; see the module docs for the window math.
/// All methods take `&self` — interior mutability via one mutex, so one
/// instance can be shared by every server worker thread.
pub struct SlidingWindow {
    bucket_ms: u64,
    start: Instant,
    ring: Mutex<Vec<Bucket>>,
}

/// Point-in-time merge of the live buckets; see [`SlidingWindow::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot {
    /// Maximum span the window covers, in milliseconds.
    pub window_ms: u64,
    /// Milliseconds actually represented (≤ `window_ms` early in life);
    /// the denominator of [`WindowSnapshot::req_per_sec`].
    pub covered_ms: u64,
    /// Observations inside the window.
    pub count: u64,
    /// Error observations inside the window.
    pub errors: u64,
    /// Merged latency histogram (empty when `count == 0`); carries the
    /// percentile logic.
    pub latency: HistogramSnapshot,
    /// Observation counts by request kind, name-ordered.
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl WindowSnapshot {
    /// Requests per second over the covered span.
    pub fn req_per_sec(&self) -> f64 {
        self.count as f64 * 1000.0 / self.covered_ms.max(1) as f64
    }

    /// Errors as a fraction of observations (0.0 when empty).
    pub fn error_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.errors as f64 / self.count as f64
        }
    }

    /// Render as the canonical `metrics` JSON section (version 1):
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "window_ms": 60000, "covered_ms": 3000,
    ///   "count": 120, "errors": 2,
    ///   "req_per_sec_milli": 40000, "error_rate_ppm": 16666,
    ///   "latency_ns": { "p50": 1023, "p95": 4095, "p99": 8191,
    ///                    "min": 712, "max": 8012, "mean": 1402 },
    ///   "by_kind": { "compile": 80, "run": 40 }
    /// }
    /// ```
    ///
    /// Rates are scaled integers (milli-requests/s, errors per million)
    /// so the document stays float-free and byte-deterministic for a
    /// given set of tallies.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.insert("version", Json::Int(1));
        root.insert("window_ms", Json::Int(self.window_ms));
        root.insert("covered_ms", Json::Int(self.covered_ms));
        root.insert("count", Json::Int(self.count));
        root.insert("errors", Json::Int(self.errors));
        root.insert(
            "req_per_sec_milli",
            Json::Int((self.req_per_sec() * 1000.0).round() as u64),
        );
        root.insert(
            "error_rate_ppm",
            Json::Int((self.error_rate() * 1_000_000.0).round() as u64),
        );
        let mut lat = Json::object();
        lat.insert("p50", Json::Int(self.latency.p50()));
        lat.insert("p95", Json::Int(self.latency.p95()));
        lat.insert("p99", Json::Int(self.latency.p99()));
        lat.insert("min", Json::Int(self.latency.min));
        lat.insert("max", Json::Int(self.latency.max));
        lat.insert("mean", Json::Int(self.latency.mean().round() as u64));
        root.insert("latency_ns", lat);
        let mut kinds = Json::object();
        for (&kind, &n) in &self.by_kind {
            kinds.insert(kind, Json::Int(n));
        }
        root.insert("by_kind", kinds);
        root
    }
}

impl Default for SlidingWindow {
    fn default() -> Self {
        SlidingWindow::new(DEFAULT_BUCKETS, DEFAULT_BUCKET_MS)
    }
}

impl SlidingWindow {
    /// A window of `buckets` ring slots, each `bucket_ms` wide (both
    /// clamped to ≥ 1). The wall clock is anchored now.
    pub fn new(buckets: usize, bucket_ms: u64) -> Self {
        SlidingWindow {
            bucket_ms: bucket_ms.max(1),
            start: Instant::now(),
            ring: Mutex::new(vec![Bucket::empty(); buckets.max(1)]),
        }
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Record one observation at the internal clock's current time.
    pub fn record(&self, kind: &'static str, latency_ns: u64, error: bool) {
        self.record_at(self.now_ms(), kind, latency_ns, error);
    }

    /// Record one observation at an explicit time (test clock).
    pub fn record_at(&self, now_ms: u64, kind: &'static str, latency_ns: u64, error: bool) {
        self.record_n_at(now_ms, kind, latency_ns, error, 1);
    }

    /// Record `n` identical observations at an explicit time in one lock
    /// acquisition. `count`/`sum` stay exact in `u64`; the corresponding
    /// log₂ histogram slot saturates at `u32::MAX`.
    pub fn record_n_at(
        &self,
        now_ms: u64,
        kind: &'static str,
        latency_ns: u64,
        error: bool,
        n: u64,
    ) {
        if n == 0 {
            return;
        }
        let epoch = now_ms / self.bucket_ms;
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let len = ring.len() as u64;
        let bucket = &mut ring[(epoch % len) as usize];
        if bucket.epoch != epoch {
            bucket.reset_for(epoch);
        }
        bucket.record(kind, latency_ns, error, n);
    }

    /// Merge the live buckets at the internal clock's current time.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(self.now_ms())
    }

    /// Merge the live buckets at an explicit time (test clock). Buckets
    /// whose epoch fell out of `(epoch(now) - buckets, epoch(now)]` are
    /// excluded — and an observation "from the future" of `now_ms` is
    /// excluded the same way, so a snapshot never reads ahead of its
    /// clock.
    pub fn snapshot_at(&self, now_ms: u64) -> WindowSnapshot {
        let epoch = now_ms / self.bucket_ms;
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let len = ring.len() as u64;
        let window_ms = len * self.bucket_ms;

        let mut count = 0u64;
        let mut errors = 0u64;
        let mut sum_ns = 0u64;
        let mut min_ns = u64::MAX;
        let mut max_ns = 0u64;
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut hist = [0u64; HistogramSnapshot::SLOTS];
        for bucket in ring.iter() {
            if bucket.epoch == u64::MAX || bucket.epoch > epoch || epoch - bucket.epoch >= len {
                continue;
            }
            count += bucket.count;
            errors += bucket.errors;
            sum_ns = sum_ns.saturating_add(bucket.sum_ns);
            min_ns = min_ns.min(bucket.min_ns);
            max_ns = max_ns.max(bucket.max_ns);
            for (&kind, &n) in &bucket.by_kind {
                *by_kind.entry(kind).or_insert(0) += n;
            }
            for (slot, &c) in bucket.hist.iter().enumerate() {
                hist[slot] += c as u64;
            }
        }
        let latency =
            HistogramSnapshot::from_slots(count, sum_ns, min_ns, max_ns, hist.into_iter());
        WindowSnapshot {
            window_ms,
            covered_ms: window_ms.min(now_ms.saturating_add(1)),
            count,
            errors,
            latency,
            by_kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SlidingWindow {
        SlidingWindow::new(4, 1000) // 4-second window, 1 s buckets
    }

    #[test]
    fn empty_window_has_zero_percentiles_and_rates() {
        let snap = small().snapshot_at(10_000);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.latency.p50(), 0);
        assert_eq!(snap.latency.p99(), 0);
        assert_eq!(snap.latency.min, 0);
        assert_eq!(snap.req_per_sec(), 0.0);
        assert_eq!(snap.error_rate(), 0.0);
        assert!(snap.by_kind.is_empty());
        let j = snap.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(0));
        assert_eq!(
            j.get("latency_ns")
                .and_then(|l| l.get("p50"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn buckets_expire_as_the_clock_advances() {
        let w = small();
        w.record_at(500, "compile", 1_000, false); // epoch 0
        w.record_at(1_500, "run", 2_000, false); // epoch 1
        let snap = w.snapshot_at(1_900);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.by_kind["compile"], 1);
        assert_eq!(snap.by_kind["run"], 1);

        // Window is 4 buckets: at epoch 4 the epoch-0 bucket ages out...
        let snap = w.snapshot_at(4_200);
        assert_eq!(snap.count, 1);
        assert!(!snap.by_kind.contains_key("compile"));
        assert_eq!(snap.by_kind["run"], 1);
        // ...and at epoch 5 the epoch-1 bucket does too.
        let snap = w.snapshot_at(5_000);
        assert_eq!(snap.count, 0);

        // New traffic reclaims the stale ring slot (epoch 4 reuses slot 0).
        w.record_at(4_300, "explain", 3_000, true);
        let snap = w.snapshot_at(4_400);
        assert_eq!(snap.count, 2); // epoch-1 run + epoch-4 explain
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.by_kind["explain"], 1);
    }

    #[test]
    fn snapshot_excludes_observations_ahead_of_its_clock() {
        let w = small();
        w.record_at(3_500, "compile", 1_000, false);
        let snap = w.snapshot_at(1_000); // clock behind the observation
        assert_eq!(snap.count, 0);
    }

    #[test]
    fn percentiles_and_rates_over_live_buckets() {
        let w = small();
        // 90 fast (≤1023ns) + 10 slow (≤65535ns) in one second.
        for i in 0..90 {
            w.record_at(i, "run", 1_000, false);
        }
        for i in 0..10 {
            w.record_at(500 + i, "run", 60_000, i < 2);
        }
        let snap = w.snapshot_at(999);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.errors, 2);
        assert_eq!(snap.latency.p50(), 1_023);
        assert_eq!(snap.latency.p95(), 60_000); // bucket ub clamped to max
        assert_eq!(snap.latency.max, 60_000);
        assert_eq!(snap.covered_ms, 1_000);
        assert!((snap.req_per_sec() - 100.0).abs() < 1e-9);
        assert!((snap.error_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn covered_span_is_clamped_to_window_and_elapsed() {
        let w = small();
        w.record_at(100, "run", 1_000, false);
        // 101 ms into life: rate denominator is the elapsed time.
        assert_eq!(w.snapshot_at(100).covered_ms, 101);
        // Deep into life: denominator is the full 4 s window.
        assert_eq!(w.snapshot_at(100_000).covered_ms, 4_000);
    }

    #[test]
    fn merged_snapshot_equals_a_registry_histogram_of_the_same_values() {
        // other tests `reset()` the registry; hold their lock
        let _l = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let registry = crate::histogram("obs.test.window.same_values");
        let w = small();
        // the zero slot and both ends of a slot, spread over all four time
        // buckets so the snapshot has something to merge
        let values = [0u64, 1, 2, 3, 1_000, 1_023, 1_024, 60_000, 1 << 40];
        for (i, &v) in values.iter().enumerate() {
            registry.record(v);
            w.record_at(i as u64 * 400, "run", v, false);
        }
        let expected =
            crate::registry().histograms.lock().unwrap()["obs.test.window.same_values"].snapshot();
        assert_eq!(expected.count, values.len() as u64);
        assert_eq!(w.snapshot_at(3_999).latency, expected);
    }

    #[test]
    fn per_bucket_histogram_saturates_without_corrupting_totals() {
        let w = SlidingWindow::new(2, 1000);
        let n = u32::MAX as u64 + 10_000;
        w.record_n_at(10, "run", 1_000, false, n);
        let snap = w.snapshot_at(20);
        // Exact tallies survive in u64...
        assert_eq!(snap.count, n);
        assert_eq!(snap.by_kind["run"], n);
        // ...while the histogram slot pinned at u32::MAX still yields
        // sane (resolution-degraded, not wrapped) percentiles.
        assert_eq!(snap.latency.buckets, vec![(1_023, u32::MAX as u64)]);
        assert_eq!(snap.latency.p50(), 1_000); // ub 1023 clamped to max
        assert!(snap.latency.p99() <= 1_023);
    }

    #[test]
    fn bulk_record_matches_repeated_singles() {
        let bulk = SlidingWindow::new(4, 1000);
        let singles = SlidingWindow::new(4, 1000);
        bulk.record_n_at(100, "run", 5_000, true, 7);
        for _ in 0..7 {
            singles.record_at(100, "run", 5_000, true);
        }
        let (a, b) = (bulk.snapshot_at(200), singles.snapshot_at(200));
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_pretty_string(),
            b.to_json().to_pretty_string()
        );
    }

    #[test]
    fn shared_across_threads() {
        let w = std::sync::Arc::new(SlidingWindow::new(8, 1000));
        std::thread::scope(|s| {
            for t in 0..4 {
                let w = std::sync::Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..100 {
                        w.record_at(
                            i * 10,
                            if t % 2 == 0 { "compile" } else { "run" },
                            100,
                            false,
                        );
                    }
                });
            }
        });
        let snap = w.snapshot_at(1_000);
        assert_eq!(snap.count, 400);
        assert_eq!(snap.by_kind["compile"], 200);
        assert_eq!(snap.by_kind["run"], 200);
    }

    #[test]
    fn internal_clock_paths_record_and_snapshot() {
        let w = SlidingWindow::default();
        w.record("compile", 1_000, false);
        w.record("compile", 2_000, true);
        let snap = w.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.window_ms, 60_000);
        assert!(snap.req_per_sec() > 0.0);
    }
}
