//! Snapshotting the live registry into a [`PipelineReport`] and rendering
//! it as a human-readable table or a JSON telemetry document.
//!
//! The JSON schema (stable; version bumped on breaking change):
//!
//! ```json
//! {
//!   "version": 1,
//!   "enabled": true,
//!   "counters":   { "depend.pairs_tested": 9, ... },
//!   "histograms": { "poly.fm.constraints": {
//!       "count": 4, "sum": 31, "min": 2, "max": 17,
//!       "buckets": [[3, 1], [7, 2], [31, 1]] }, ... },
//!   "spans": { "codegen.generate/poly.feasibility": {
//!       "count": 12, "total_ns": 83120, "min_ns": 401, "max_ns": 22010 }, ... },
//!   "sections": { "trace": { ... } }
//! }
//! ```
//!
//! Histogram `buckets` are `[upper_bound, count]` pairs over log₂ buckets;
//! a value `v` lands in the bucket whose upper bound is the smallest
//! `2^k - 1 >= v`. `sections` holds free-form JSON attached by callers
//! (e.g. the executor's trace summary) so domain crates can surface
//! structured data without this crate depending on them.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::registry;

/// Schema version written into every JSON report.
pub const SCHEMA_VERSION: u64 = 1;

/// Aggregate statistics for one histogram.
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
    /// Number of log₂ slots: one per bit length of a `u64`, 0 to 64.
    pub(crate) const SLOTS: usize = 65;

    /// The slot a value is counted in: its bit length, so 0 lands in slot
    /// 0 and `v > 0` in the slot whose upper bound is the smallest
    /// `2^k - 1 >= v`. The registry histograms and the sliding window's
    /// buckets both count by this rule.
    #[inline]
    pub(crate) fn slot_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Assemble a snapshot from running tallies and [`Self::SLOTS`] slot
    /// counts: empty slots are left out, each kept one is labelled with
    /// its upper bound, and `min` (a running minimum that starts at
    /// `u64::MAX`) reads 0 while nothing was recorded.
    pub(crate) fn from_slots(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        slots: impl Iterator<Item = u64>,
    ) -> Self {
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max,
            buckets: slots
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .map(|(i, c)| (if i == 0 { 0 } else { (1u128 << i) as u64 - 1 }, c))
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

/// Aggregate statistics for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall time across all closes, in nanoseconds.
    pub total_ns: u64,
    /// Shortest single duration in nanoseconds.
    pub min_ns: u64,
    /// Longest single duration in nanoseconds.
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Fold in one close of `ns` nanoseconds (the first sets `min_ns`).
    #[inline]
    pub(crate) fn record(&mut self, ns: u64) {
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean duration in nanoseconds, or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// `{"count", "total_ns", "min_ns", "max_ns"}`: a span's entry in a
    /// [`PipelineReport`]'s `spans` and a capture's `stages` alike.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("count", Json::Int(self.count));
        obj.insert("total_ns", Json::Int(self.total_ns));
        obj.insert("min_ns", Json::Int(self.min_ns));
        obj.insert("max_ns", Json::Int(self.max_ns));
        obj
    }
}

/// A point-in-time snapshot of all telemetry, plus caller-attached
/// sections. Counters and histograms that never fired are omitted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// Whether telemetry was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Counter values by name (zero-valued counters omitted).
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name (empty histograms omitted).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span statistics by nesting path (`outer/inner`).
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Free-form JSON sections attached via [`PipelineReport::attach`].
    pub sections: BTreeMap<String, Json>,
}

impl PipelineReport {
    /// Snapshot the global registry.
    ///
    /// ```
    /// inl_obs::set_enabled(true);
    /// inl_obs::counter_add!("doc.example.widgets", 3);
    /// let report = inl_obs::PipelineReport::capture();
    /// assert_eq!(report.counters["doc.example.widgets"], 3);
    /// ```
    pub fn capture() -> Self {
        let reg = registry();
        let counters = reg
            .counters
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(name, c)| {
                let v = c.load(std::sync::atomic::Ordering::Relaxed);
                (v > 0).then(|| (name.to_string(), v))
            })
            .collect();
        let histograms = reg
            .histograms
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(name, h)| {
                let snap = h.snapshot();
                (snap.count > 0).then(|| (name.to_string(), snap))
            })
            .collect();
        let spans = reg
            .spans
            .lock()
            .unwrap()
            .iter()
            .map(|(path, st)| (path.clone(), *st))
            .collect();
        PipelineReport {
            enabled: crate::enabled(),
            counters,
            histograms,
            spans,
            sections: BTreeMap::new(),
        }
    }

    /// Attach a free-form JSON section (overwrites an existing one).
    pub fn attach(&mut self, name: impl Into<String>, value: Json) {
        self.sections.insert(name.into(), value);
    }

    fn counters_json(&self) -> Json {
        let mut counters = Json::object();
        for (name, v) in &self.counters {
            counters.insert(name.clone(), Json::Int(*v));
        }
        counters
    }

    /// The gate document (`baselines/inl-obs.json`): the counters that
    /// are a deterministic function of the source (see
    /// [`Json::deterministic`]; `*_ns` accumulators are left out). Spans
    /// and histograms are not in it: their values are timings, and their
    /// keys and bucket shapes follow the host's thread count.
    pub fn gate_json(&self) -> Json {
        let mut root = Json::object();
        root.insert("version", Json::Int(SCHEMA_VERSION));
        root.insert("counters", self.counters_json());
        root.deterministic()
    }

    /// Convert to the JSON schema documented at module level.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.insert("version", Json::Int(SCHEMA_VERSION));
        root.insert("enabled", Json::Bool(self.enabled));
        root.insert("counters", self.counters_json());

        let mut histograms = Json::object();
        for (name, h) in &self.histograms {
            let mut obj = Json::object();
            obj.insert("count", Json::Int(h.count));
            obj.insert("sum", Json::Int(h.sum));
            obj.insert("min", Json::Int(h.min));
            obj.insert("max", Json::Int(h.max));
            obj.insert(
                "buckets",
                Json::Array(
                    h.buckets
                        .iter()
                        .map(|&(ub, c)| Json::Array(vec![Json::Int(ub), Json::Int(c)]))
                        .collect(),
                ),
            );
            histograms.insert(name.clone(), obj);
        }
        root.insert("histograms", histograms);

        let mut spans = Json::object();
        for (path, s) in &self.spans {
            spans.insert(path.clone(), s.to_json());
        }
        root.insert("spans", spans);

        let mut sections = Json::object();
        for (name, value) in &self.sections {
            sections.insert(name.clone(), value.clone());
        }
        root.insert("sections", sections);
        root
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Write the JSON document to `path`, creating parent directories.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.to_json().write_file(path)
    }

    /// Render a human-readable table (counters, then histograms with
    /// percentile summaries, then spans — every section in name order, so
    /// output is byte-stable across runs with identical metrics).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "inl-obs pipeline report (telemetry {})\n",
            if self.enabled { "enabled" } else { "disabled" }
        ));

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
            }
        }

        if !self.histograms.is_empty() {
            out.push_str("\nhistograms\n");
            let width = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<width$}  count={} sum={} min={} mean={:.1} p50≤{} p95≤{} p99≤{} max={}\n",
                    h.count,
                    h.sum,
                    h.min,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max
                ));
            }
        }

        if !self.spans.is_empty() {
            // Sorted by path (not by total time) so the rendering is
            // stable across runs and diffs cleanly, like the JSON.
            out.push_str("\nspans\n");
            let rows: Vec<_> = self.spans.iter().collect();
            let width = rows.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
            for (path, s) in rows {
                out.push_str(&format!(
                    "  {path:<width$}  n={:<6} total={:<10} mean={:<10} max={}\n",
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns()),
                    fmt_ns(s.max_ns)
                ));
            }
        }

        for name in self.sections.keys() {
            out.push_str(&format!("\nsection '{name}' attached (see JSON output)\n"));
        }
        out
    }
}

/// Format nanoseconds with an adaptive unit (`412ns`, `13.2µs`, `4.7ms`,
/// `1.23s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PipelineReport {
        let mut report = PipelineReport {
            enabled: true,
            ..Default::default()
        };
        report.counters.insert("depend.pairs_tested".into(), 9);
        report.counters.insert("legal.fast_path_hits".into(), 4);
        report.histograms.insert(
            "poly.fm.constraints".into(),
            HistogramSnapshot {
                count: 4,
                sum: 31,
                min: 2,
                max: 17,
                buckets: vec![(3, 1), (7, 2), (31, 1)],
            },
        );
        report.spans.insert(
            "codegen.generate/poly.feasibility".into(),
            SpanSnapshot {
                count: 12,
                total_ns: 83_120,
                min_ns: 401,
                max_ns: 22_010,
            },
        );
        let mut trace = Json::object();
        trace.insert("instances", Json::Int(385));
        report.attach("trace", trace);
        report
    }

    #[test]
    fn table_lists_every_metric() {
        let table = sample_report().to_table();
        assert!(table.contains("depend.pairs_tested"));
        assert!(table.contains("poly.fm.constraints"));
        assert!(table.contains("codegen.generate/poly.feasibility"));
        assert!(table.contains("section 'trace'"));
    }

    #[test]
    fn capture_skips_never_fired_metrics() {
        let _l = crate::tests::TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        let c = crate::counter("obs.test.capture.fired");
        let _zero = crate::counter("obs.test.capture.zero");
        c.add(2);
        let report = PipelineReport::capture();
        assert_eq!(report.counters.get("obs.test.capture.fired"), Some(&2));
        assert!(!report.counters.contains_key("obs.test.capture.zero"));
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
    fn span_snapshot_record_tracks_count_total_min_max() {
        let mut s = SpanSnapshot::default();
        assert_eq!(s.mean_ns(), 0, "empty snapshot");
        s.record(700);
        assert_eq!(
            (s.count, s.total_ns, s.min_ns, s.max_ns),
            (1, 700, 700, 700)
        );
        s.record(100);
        s.record(400);
        assert_eq!(
            (s.count, s.total_ns, s.min_ns, s.max_ns),
            (3, 1200, 100, 700)
        );
        assert_eq!(s.mean_ns(), 400);
    }

    #[test]
    fn table_is_deterministic_and_name_ordered() {
        let mut report = sample_report();
        // A second span with *larger* total time but later name must not
        // move ahead of the first: ordering is by name, not by time.
        report.spans.insert(
            "exec.interpret".into(),
            SpanSnapshot {
                count: 1,
                total_ns: 9_999_999_999,
                min_ns: 1,
                max_ns: 1,
            },
        );
        let table = report.to_table();
        assert_eq!(table, report.to_table());
        let first = table.find("codegen.generate/poly.feasibility").unwrap();
        let second = table.find("exec.interpret").unwrap();
        assert!(first < second, "span rows must be in name order");
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(13_200), "13.2µs");
        assert_eq!(fmt_ns(4_700_000), "4.7ms");
        assert_eq!(fmt_ns(1_230_000_000), "1.23s");
    }
}
