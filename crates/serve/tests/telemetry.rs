//! Integration: wire-level telemetry against a real server — opt-in
//! sections match in-process captures under the deterministic
//! projection, telemetry-off traffic is byte-identical to a bare
//! response, and the `metrics`/`stats` requests expose the live window
//! and the new lifetime gauges.

use inl_serve::{
    handle_request, serve, BackendChoice, Client, FrameLimits, Request, Response, ServerConfig,
};

fn start() -> inl_serve::ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        limits: FrameLimits::default(),
    })
    .expect("bind ephemeral port")
}

fn jget(j: &inl_obs::Json, key: &str) -> u64 {
    j.get(key).and_then(inl_obs::Json::as_u64).unwrap_or(0)
}

#[test]
fn telemetry_sections_match_in_process_captures() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let requests = [
        Request::Compile {
            program: "cholesky_kij".into(),
            order: Some("KJLI".into()),
            telemetry: true,
        },
        Request::Run {
            program: "matmul".into(),
            params: vec![12],
            order: None,
            backend: BackendChoice::Vm,
            telemetry: true,
        },
        Request::Explain {
            program: "cholesky_kij".into(),
            order: Some("IKJL".into()),
            telemetry: true,
        },
    ];
    for req in &requests {
        let remote = client.request(req).expect("request");
        let local = handle_request(req);
        // Core answer: byte-identical once the (timing-bearing)
        // telemetry section is stripped from both sides.
        assert_eq!(
            inl_proto::encode_response(&remote.strip_telemetry()),
            inl_proto::encode_response(&local.strip_telemetry()),
            "core bytes diverged for {req:?}"
        );
        // Telemetry: identical under the deterministic projection
        // (durations and memo-warmth evidence stripped).
        let remote_proj = inl_obs::capture::deterministic_projection(
            remote.telemetry().expect("server telemetry"),
        );
        let local_proj =
            inl_obs::capture::deterministic_projection(local.telemetry().expect("local telemetry"));
        assert_eq!(
            remote_proj.to_pretty_string(),
            local_proj.to_pretty_string(),
            "telemetry projection diverged for {req:?}"
        );
        // The section itself is versioned and carries real durations.
        let section = remote.telemetry().unwrap();
        assert_eq!(
            jget(section, "version"),
            inl_obs::capture::SCHEMA_VERSION,
            "{section:?}"
        );
        let stages = section.get("stages").expect("stages");
        assert!(
            matches!(stages, inl_obs::Json::Object(m) if !m.is_empty()),
            "{stages:?}"
        );
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn telemetry_off_wire_bytes_are_unchanged() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let off = Request::Compile {
        program: "cholesky_kij".into(),
        order: Some("KJLI".into()),
        telemetry: false,
    };
    // The encoded request has no telemetry key at all when the flag is
    // off — old servers would accept these bytes unchanged.
    assert!(!inl_proto::encode_request(&off).contains("telemetry"));
    let resp = client.request(&off).expect("request");
    assert!(resp.telemetry().is_none());
    assert!(!inl_proto::encode_response(&resp).contains("telemetry"));
    // And the answer equals the in-process one on exact wire bytes.
    assert_eq!(
        inl_proto::encode_response(&resp),
        inl_proto::encode_response(&handle_request(&off))
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn metrics_request_reports_the_live_window() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Some traffic, including one typed error.
    for _ in 0..3 {
        let _ = client
            .request(&Request::Compile {
                program: "matmul".into(),
                order: None,
                telemetry: false,
            })
            .expect("compile");
    }
    let err = client
        .request(&Request::Compile {
            program: "nonesuch".into(),
            order: None,
            telemetry: false,
        })
        .expect("compile");
    assert!(matches!(err, Response::Error { .. }));

    let resp = client.request(&Request::Metrics).expect("metrics");
    let metrics = match resp {
        Response::Metrics { metrics } => metrics,
        other => panic!("expected Metrics, got {other:?}"),
    };
    assert!(jget(&metrics, "count") >= 4, "{metrics:?}");
    assert!(jget(&metrics, "errors") >= 1, "{metrics:?}");
    let by_kind = metrics.get("by_kind").expect("by_kind");
    assert!(jget(by_kind, "compile") >= 4, "{metrics:?}");
    let lat = metrics.get("latency_ns").expect("latency_ns");
    assert!(jget(lat, "p50") > 0, "{metrics:?}");
    assert!(jget(lat, "p99") >= jget(lat, "p50"), "{metrics:?}");
    drop(client);
    handle.shutdown();
}

#[test]
fn stats_reports_uptime_sessions_and_inflight_high_water() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let _ = client
        .request(&Request::Compile {
            program: "matmul".into(),
            order: None,
            telemetry: false,
        })
        .expect("compile");
    std::thread::sleep(std::time::Duration::from_millis(5));
    let resp = client.request(&Request::Stats).expect("stats");
    let stats = match resp {
        Response::Stats { stats } => stats,
        other => panic!("expected Stats, got {other:?}"),
    };
    let serve = stats.get("serve").expect("serve section");
    assert!(jget(serve, "uptime_ms") >= 5, "{serve:?}");
    assert!(jget(serve, "sessions") >= 1, "{serve:?}");
    assert!(jget(serve, "in_flight_hwm") >= 1, "{serve:?}");
    // The stats request itself is in flight while being answered.
    assert!(jget(serve, "in_flight") >= 1, "{serve:?}");
    drop(client);
    handle.shutdown();
}
