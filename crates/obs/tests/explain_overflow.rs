//! Explain ring-buffer overflow while the timeline layer is live too
//! (both `set_*_enabled(true)`): the layers share one
//! flag byte, so enabling both must keep their ring buffers and drop
//! accounting fully independent.

use inl_obs::explain::{self, Verdict};
use inl_obs::timeline;

#[test]
fn explain_overflow_with_timeline_live_keeps_layers_independent() {
    inl_obs::set_explain_enabled(true);
    inl_obs::set_timeline_enabled(true);
    explain::reset();
    timeline::reset();
    let old_explain_cap = explain::capacity();
    let old_timeline_cap = timeline::capacity();
    explain::set_capacity(8);
    timeline::set_capacity(8);

    explain::begin_session("overflow/interleaved");
    // Timeline rings are per-thread and sized at creation: flood from a
    // fresh thread so the small capacity applies there too. Joined as a
    // plain thread: `thread::scope` returns before the worker's TLS
    // destructor has retired its ring.
    std::thread::spawn(|| {
        for i in 0..30i64 {
            explain::accept("test", format!("subject {i}"), "flood").feature("i", i);
            timeline::instant("explain_overflow.tick");
        }
    })
    .join()
    .expect("flood thread");

    // Explain: ring keeps the newest `capacity` records, counts the rest.
    assert_eq!(explain::len(), 8);
    assert_eq!(explain::dropped_total(), 30 - 8);
    let records = explain::snapshot();
    assert!(records
        .iter()
        .all(|r| r.stage == "test" && r.verdict == Verdict::Accept));
    let kept: Vec<i64> = records.iter().map(|r| r.features["i"]).collect();
    assert_eq!(kept, (22..30).collect::<Vec<i64>>(), "oldest dropped first");
    // Dropped records surface in the JSON artifact header too.
    let json = explain::to_json().to_pretty_string();
    assert!(json.contains("\"dropped\": 22"), "artifact reports drops");

    // Timeline: its own ring overflowed on its own counter, untouched by
    // the explain traffic.
    assert_eq!(timeline::dropped_total(), 30 - 8);

    explain::set_capacity(old_explain_cap);
    timeline::set_capacity(old_timeline_cap);
    explain::reset();
    timeline::reset();
    inl_obs::set_explain_enabled(false);
    inl_obs::set_timeline_enabled(false);
}
