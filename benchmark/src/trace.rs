//! The harness's own in-memory spans, recorded around each call into a
//! layer of the system. Nothing inside the program is instrumented: the
//! layers are seen from outside, through their public functions.
//!
//! A span carries its name, start and end (ns since the tracer started),
//! the span that caused it, and the id of the operation it belongs to.
//! Spans stay in memory and are written out when the run ends. With the
//! tracer off, `begin`/`end` do nothing, and the untraced run is what the
//! end-to-end metrics are measured on.

use inl_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// The operation (compile, request, kernel run, ...) this span is part of.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between ops; the spans taken so far stay.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "switching with a span open");
        self.on = on;
    }

    /// Start the next operation: spans begun from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take another tracer's spans (a client thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Mean self time in µs of the spans called `name`, or 0 with none.
    pub fn self_us(&self, name: &str) -> f64 {
        self_times(&self.spans)
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.count as f64 / 1e3)
    }

    /// The spans as a JSON array, for `trace-<workload>.json`.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut o = Json::object();
                    o.insert("id", Json::Int(i as u64));
                    o.insert("name", Json::Str(s.name.to_string()));
                    o.insert("start_ns", Json::Int(s.start_ns));
                    o.insert("end_ns", Json::Int(s.end_ns));
                    o.insert(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    );
                    o.insert("op", Json::Int(s.op));
                    o
                })
                .collect(),
        )
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by direct child spans.
    pub self_ns: u64,
}

/// Per span name: how often it ran, its total time and its self time. A
/// span's self time is its duration minus the durations of its direct
/// children (children of one span never overlap: each tracer is driven by
/// one thread, innermost span first).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(child_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] ⊃ a [10,40] ⊃ b [15,25]; op ⊃ a [50,70]
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("a", 50, 70, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["op"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        // the grandchild is charged to `a`, not to `op`
        assert_eq!(
            t["a"],
            SelfTime {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(t["b"].self_ns, 10);
        let total_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_records_parents_and_ops_and_is_free_when_off() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        tr.end(inner);
        tr.end(outer);
        tr.next_op();
        let again = tr.begin("outer");
        tr.end(again);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("x");
        off.end(id);
        assert!(off.spans().is_empty());
        assert_eq!(off.self_us("x"), 0.0);
    }

    #[test]
    fn absorb_rebases_parent_indices() {
        let mut a = Tracer::new(true);
        let x = a.begin("x");
        a.end(x);
        let mut b = Tracer::new(true);
        let y = b.begin("y");
        let z = b.begin("z");
        b.end(z);
        b.end(y);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
