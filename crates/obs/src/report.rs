//! Snapshotting the live registry into a [`PipelineReport`] and rendering
//! it as a human-readable table or a JSON telemetry document.
//!
//! The JSON schema (stable; version bumped on breaking change):
//!
//! ```json
//! {
//!   "version": 1,
//!   "counters": { "depend.pairs_tested": 9, ... },
//!   "spans": { "codegen.generate/poly.feasibility": {
//!       "count": 12, "total_ns": 83120, "min_ns": 401, "max_ns": 22010 }, ... }
//! }
//! ```

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::registry;

/// Schema version written into every JSON report.
pub const SCHEMA_VERSION: u64 = 1;

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

/// A point-in-time snapshot of all telemetry. Counters that never fired
/// are omitted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Counter values by name (zero-valued counters omitted).
    pub counters: BTreeMap<String, u64>,
    /// Span statistics by nesting path (`outer/inner`).
    pub spans: BTreeMap<String, SpanSnapshot>,
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
        let spans = reg
            .spans
            .lock()
            .unwrap()
            .iter()
            .map(|(path, st)| (path.clone(), *st))
            .collect();
        PipelineReport { counters, spans }
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
    /// are not in it: their values are timings, and their keys follow the
    /// host's thread count.
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
        root.insert("counters", self.counters_json());
        let mut spans = Json::object();
        for (path, s) in &self.spans {
            spans.insert(path.clone(), s.to_json());
        }
        root.insert("spans", spans);
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

    /// Render a human-readable table (counters, then spans — each section
    /// in name order, so output is byte-stable across runs with identical
    /// metrics).
    pub fn to_table(&self) -> String {
        let mut out = String::from("inl-obs pipeline report\n");

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
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
        let mut report = PipelineReport::default();
        report.counters.insert("depend.pairs_tested".into(), 9);
        report.counters.insert("legal.fast_path_hits".into(), 4);
        report.spans.insert(
            "codegen.generate/poly.feasibility".into(),
            SpanSnapshot {
                count: 12,
                total_ns: 83_120,
                min_ns: 401,
                max_ns: 22_010,
            },
        );
        report
    }

    #[test]
    fn table_lists_every_metric() {
        let table = sample_report().to_table();
        assert!(table.contains("depend.pairs_tested"));
        assert!(table.contains("legal.fast_path_hits"));
        assert!(table.contains("codegen.generate/poly.feasibility"));
    }

    #[test]
    fn json_holds_version_counters_and_spans_only() {
        let Json::Object(root) = sample_report().to_json() else {
            panic!("the report is an object");
        };
        let keys: Vec<&str> = root.keys().map(String::as_str).collect();
        assert_eq!(keys, ["counters", "spans", "version"]);
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
