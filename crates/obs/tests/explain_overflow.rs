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
    // 22 past the larger of the two bounds: the explain store overflows by
    // 22, the (smaller) timeline ring by the difference more.
    let total = explain::CAPACITY + 22;
    const { assert!(timeline::CAPACITY <= explain::CAPACITY) };

    explain::begin_session("overflow/interleaved");
    // Timeline rings are per-thread: flood from a fresh thread so the
    // ring starts empty. Joined as a plain thread: `thread::scope`
    // returns before the worker's TLS destructor has retired its ring.
    std::thread::spawn(move || {
        for i in 0..total as i64 {
            explain::accept("test", format!("subject {i}"), "flood").feature("i", i);
            drop(inl_obs::span("explain_overflow.tick"));
        }
    })
    .join()
    .expect("flood thread");

    // Explain: ring keeps the newest `CAPACITY` records, counts the rest.
    assert_eq!(explain::len(), explain::CAPACITY);
    assert_eq!(explain::dropped_total(), 22);
    let records = explain::snapshot();
    assert!(records
        .iter()
        .all(|r| r.stage == "test" && r.verdict == Verdict::Accept));
    let kept: Vec<i64> = records.iter().map(|r| r.features["i"]).collect();
    assert_eq!(
        kept,
        (22..total as i64).collect::<Vec<i64>>(),
        "oldest dropped first"
    );
    // Dropped records surface in the JSON artifact header too.
    let json = explain::to_json().to_pretty_string();
    assert!(json.contains("\"dropped\": 22"), "artifact reports drops");

    // Timeline: its own ring overflowed on its own counter, untouched by
    // the explain traffic.
    let timeline_dropped = (total - timeline::CAPACITY) as u64;
    assert_eq!(timeline::dropped_total(), timeline_dropped);
    assert_eq!(
        timeline::export_chrome_trace()
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(inl_obs::Json::as_u64),
        Some(timeline_dropped)
    );

    explain::reset();
    timeline::reset();
    inl_obs::set_explain_enabled(false);
    inl_obs::set_timeline_enabled(false);
}
