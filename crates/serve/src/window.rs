//! Sliding-window live metrics: a ring of sixty one-second buckets,
//! answering "what are the p50/p95/p99 latency, request rate, and error
//! rate *right now*" — the server-side source for the wire `metrics`
//! request and the `inl-top` dashboard.
//!
//! # Window math
//!
//! An observation at time `t` (ms) belongs to **epoch** `t / 1000` and
//! lands in slot `epoch % 60`; a slot holding an older epoch is zeroed on
//! first touch (lazy rotation — there is no background thread). A
//! snapshot at time `t` merges every slot whose epoch lies in
//! `(epoch(t) - 60, epoch(t)]`, i.e. the current bucket plus the 59
//! before it, so the window spans at most one minute and stale buckets
//! age out purely by being skipped.
//!
//! Per-bucket state is fixed-size: scalar tallies, a per-request-kind
//! count map, and a 65-slot log₂ latency histogram (a value's slot is its
//! bit length, `HistogramSnapshot::slot_of`). Merged percentiles are
//! [`HistogramSnapshot`]'s rank walk.
//!
//! The rate denominator is `min(window span, elapsed + 1ms)`: a server
//! 3 s into its life reports requests-per-second over those 3 s, not
//! over a mostly-empty 60 s window.
//!
//! Time is injected: the public [`SlidingWindow::record`] /
//! [`SlidingWindow::snapshot`] pair reads a monotonic clock anchored at
//! construction, while the `*_at` variants take explicit milliseconds —
//! tests drive rotation and expiry with a simulated clock, no sleeping.

use inl_obs::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Ring slots: one minute of history.
const BUCKETS: u64 = 60;
/// Width of one ring slot in milliseconds.
const BUCKET_MS: u64 = 1000;
/// Log₂ slots: one per bit length of a `u64`, 0 to 64.
const SLOTS: usize = 65;

/// A latency distribution summarised over log₂ buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation; 0 when `count == 0`.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// `(upper_bound, count)` per non-empty log₂ bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The slot a value is counted in: its bit length, so 0 lands in slot
    /// 0 and `v > 0` in the slot whose upper bound is the smallest
    /// `2^k - 1 >= v`.
    fn slot_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Assemble a snapshot from running tallies and [`SLOTS`] slot counts:
    /// empty slots are left out, each kept one is labelled with its upper
    /// bound, and `min` (a running minimum that starts at `u64::MAX`)
    /// reads 0 while nothing was recorded.
    fn from_slots(count: u64, sum: u64, min: u64, max: u64, slots: &[u64; SLOTS]) -> Self {
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            buckets: slots
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (if i == 0 { 0 } else { (1u128 << i) as u64 - 1 }, c))
                .collect(),
        }
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound on the `q`-th percentile (0 < `q` <= 100), or 0 when
    /// empty. Resolution is the log₂ bucket width: the returned value is
    /// the bucket upper bound containing the rank-`ceil(q/100·count)`
    /// observation, clamped to the exact recorded `max`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(ub, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return ub.min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound (see [`percentile`](Self::percentile)).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// One ring slot: tallies for a single one-second epoch.
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
    /// Log₂ latency histogram, one count per [`HistogramSnapshot::slot_of`].
    hist: [u64; SLOTS],
}

impl Bucket {
    const fn empty(epoch: u64) -> Self {
        Bucket {
            epoch,
            count: 0,
            errors: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            by_kind: BTreeMap::new(),
            hist: [0; SLOTS],
        }
    }

    fn record(&mut self, kind: &'static str, latency_ns: u64, error: bool) {
        self.count += 1;
        self.errors += u64::from(error);
        self.sum_ns = self.sum_ns.saturating_add(latency_ns);
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
        *self.by_kind.entry(kind).or_insert(0) += 1;
        self.hist[HistogramSnapshot::slot_of(latency_ns)] += 1;
    }
}

/// Ring of time buckets; see the module docs for the window math.
/// All methods take `&self` — interior mutability via one mutex, so one
/// instance can be shared by every server worker thread.
pub struct SlidingWindow {
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
    /// An empty window whose wall clock is anchored now.
    fn default() -> Self {
        SlidingWindow {
            start: Instant::now(),
            ring: Mutex::new(vec![Bucket::empty(u64::MAX); BUCKETS as usize]),
        }
    }
}

impl SlidingWindow {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Record one observation at the internal clock's current time.
    pub fn record(&self, kind: &'static str, latency_ns: u64, error: bool) {
        self.record_at(self.now_ms(), kind, latency_ns, error);
    }

    /// Record one observation at an explicit time (test clock).
    pub fn record_at(&self, now_ms: u64, kind: &'static str, latency_ns: u64, error: bool) {
        let epoch = now_ms / BUCKET_MS;
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = &mut ring[(epoch % BUCKETS) as usize];
        if bucket.epoch != epoch {
            *bucket = Bucket::empty(epoch);
        }
        bucket.record(kind, latency_ns, error);
    }

    /// Merge the live buckets at the internal clock's current time.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(self.now_ms())
    }

    /// Merge the live buckets at an explicit time (test clock). Buckets
    /// whose epoch fell out of `(epoch(now) - 60, epoch(now)]` are
    /// excluded — and an observation "from the future" of `now_ms` is
    /// excluded the same way, so a snapshot never reads ahead of its
    /// clock.
    pub fn snapshot_at(&self, now_ms: u64) -> WindowSnapshot {
        let epoch = now_ms / BUCKET_MS;
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let window_ms = BUCKETS * BUCKET_MS;

        let mut count = 0u64;
        let mut errors = 0u64;
        let mut sum_ns = 0u64;
        let mut min_ns = u64::MAX;
        let mut max_ns = 0u64;
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut hist = [0u64; SLOTS];
        for bucket in ring.iter() {
            // a never-used slot's epoch, `u64::MAX`, is ahead of every clock
            if bucket.epoch > epoch || epoch - bucket.epoch >= BUCKETS {
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
                hist[slot] += c;
            }
        }
        WindowSnapshot {
            window_ms,
            covered_ms: window_ms.min(now_ms.saturating_add(1)),
            count,
            errors,
            latency: HistogramSnapshot::from_slots(count, sum_ns, min_ns, max_ns, &hist),
            by_kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_has_zero_percentiles_and_rates() {
        let snap = SlidingWindow::default().snapshot_at(10_000);
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
        let w = SlidingWindow::default();
        w.record_at(500, "compile", 1_000, false); // epoch 0
        w.record_at(1_500, "run", 2_000, false); // epoch 1
        let snap = w.snapshot_at(1_900);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.by_kind["compile"], 1);
        assert_eq!(snap.by_kind["run"], 1);

        // The window is 60 buckets: at epoch 60 the epoch-0 bucket ages
        // out...
        let snap = w.snapshot_at(60_200);
        assert_eq!(snap.count, 1);
        assert!(!snap.by_kind.contains_key("compile"));
        assert_eq!(snap.by_kind["run"], 1);
        // ...and at epoch 61 the epoch-1 bucket does too.
        let snap = w.snapshot_at(61_000);
        assert_eq!(snap.count, 0);

        // New traffic reclaims the stale ring slot (epoch 60 reuses slot 0).
        w.record_at(60_300, "explain", 3_000, true);
        let snap = w.snapshot_at(60_400);
        assert_eq!(snap.count, 2); // epoch-1 run + epoch-60 explain
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.by_kind["explain"], 1);
    }

    #[test]
    fn snapshot_excludes_observations_ahead_of_its_clock() {
        let w = SlidingWindow::default();
        w.record_at(3_500, "compile", 1_000, false);
        let snap = w.snapshot_at(1_000); // clock behind the observation
        assert_eq!(snap.count, 0);
    }

    #[test]
    fn percentiles_and_rates_over_live_buckets() {
        let w = SlidingWindow::default();
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
        let w = SlidingWindow::default();
        w.record_at(100, "run", 1_000, false);
        // 101 ms into life: rate denominator is the elapsed time.
        assert_eq!(w.snapshot_at(100).covered_ms, 101);
        // Deep into life: denominator is the full one-minute window.
        assert_eq!(w.snapshot_at(100_000).covered_ms, 60_000);
    }

    #[test]
    fn values_spread_over_time_buckets_merge_to_the_snapshot_of_one() {
        let (spread, one) = (SlidingWindow::default(), SlidingWindow::default());
        // the zero slot and both ends of a slot, each in its own time
        // bucket on one side and all in the same bucket on the other
        let values = [0u64, 1, 2, 3, 1_000, 1_023, 1_024, 60_000, 1 << 40];
        for (i, &v) in values.iter().enumerate() {
            spread.record_at(i as u64 * 7_000, "run", v, false);
            one.record_at(500, "run", v, false);
        }
        let merged = spread.snapshot_at(59_999);
        assert_eq!(merged, one.snapshot_at(59_999));
        assert_eq!(merged.latency.count, values.len() as u64);
        assert_eq!(merged.latency.sum, values.iter().sum::<u64>());
        assert_eq!((merged.latency.min, merged.latency.max), (0, 1 << 40));
        assert_eq!(
            merged.latency.buckets,
            [
                (0, 1),
                (1, 1),
                (3, 2),
                (1_023, 2),
                (2_047, 1),
                (65_535, 1),
                ((1 << 41) - 1, 1)
            ]
        );
    }

    #[test]
    fn percentiles_walk_buckets() {
        let h = HistogramSnapshot {
            count: 100,
            sum: 0,
            min: 1,
            max: 1000,
            // 60 observations ≤ 7, 35 in (7, 127], 5 in (127, 1023]
            buckets: vec![(7, 60), (127, 35), (1023, 5)],
        };
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p95(), 127);
        assert_eq!(h.p99(), 1000); // clamped from bucket ub 1023 to max
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(HistogramSnapshot::default().p50(), 0);
        // Single observation: every percentile is that value.
        let one = HistogramSnapshot {
            count: 1,
            sum: 5,
            min: 5,
            max: 5,
            buckets: vec![(7, 1)],
        };
        assert_eq!(one.p50(), 5);
        assert_eq!(one.p99(), 5);
    }

    #[test]
    fn shared_across_threads() {
        let w = SlidingWindow::default();
        std::thread::scope(|s| {
            for t in 0..4 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..100 {
                        let kind = if t % 2 == 0 { "compile" } else { "run" };
                        w.record_at(i * 10, kind, 100, false);
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
