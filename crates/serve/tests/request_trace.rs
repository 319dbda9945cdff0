//! One request, one slice: with the timeline on, a served request exports
//! exactly one `serve.request` slice, carrying its request id. The timeline
//! is process-global, so this is a test binary of its own.

use inl_obs::Json;
use inl_serve::{serve, Client, FrameLimits, Request, Response, ServerConfig};

#[test]
fn a_served_request_is_one_slice_with_its_request_id() {
    inl_obs::set_timeline_enabled(true);
    inl_obs::timeline::reset();
    let handle = serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        limits: FrameLimits::default(),
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let reply = client.request(&Request::Stats).expect("stats");
    assert!(matches!(reply, Response::Stats { .. }), "{reply:?}");
    drop(client);
    // joins the worker, whose ring then retires where the export sees it
    handle.shutdown();
    inl_obs::set_timeline_enabled(false);

    let trace = inl_obs::timeline::export_chrome_trace();
    let Some(Json::Array(events)) = trace.get("traceEvents") else {
        panic!("missing traceEvents")
    };
    let requests: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("serve.request"))
        .collect();
    assert_eq!(requests.len(), 1, "{requests:?}");
    assert_eq!(requests[0].get("ph").and_then(Json::as_str), Some("X"));
    let id = requests[0].get("args").and_then(|a| a.get("request_id"));
    assert_eq!(id.and_then(Json::as_u64), Some(1), "the first request");
}
