//! One job, one slice: with the timeline on, `batch_map` over `n` jobs
//! exports exactly `n` `batch.compile` slices, each carrying its job's
//! index as the `variant` argument. The timeline is process-global, so
//! this is a test binary of its own.

use inl_obs::Json;

#[test]
fn every_batch_job_is_one_slice_with_its_variant() {
    const N: usize = 5;
    inl_obs::set_timeline_enabled(true);
    inl_obs::timeline::reset();
    // one worker: the jobs run on this thread, whose live ring the export
    // reads (a pool's scoped workers retire their rings after the scope)
    let out = inl_codegen::batch_map(N, 1, |i| i * i);
    inl_obs::set_timeline_enabled(false);
    assert_eq!(out, [0, 1, 4, 9, 16]);

    let trace = inl_obs::timeline::export_chrome_trace();
    let Some(Json::Array(events)) = trace.get("traceEvents") else {
        panic!("missing traceEvents")
    };
    let variants: Vec<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("batch.compile"))
        .map(|e| {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            let variant = e.get("args").and_then(|a| a.get("variant"));
            variant.and_then(Json::as_u64).expect("a variant argument")
        })
        .collect();
    assert_eq!(variants, (0..N as u64).collect::<Vec<_>>());
}
