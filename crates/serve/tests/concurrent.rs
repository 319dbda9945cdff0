//! Integration: a real `inl-serve` instance on an ephemeral port, hit by
//! parallel client threads, checked bitwise against in-process
//! compilation, then shut down gracefully mid-traffic.

use inl_serve::{
    handle_request, serve, BackendChoice, Client, FrameLimits, Request, Response, ServerConfig,
};

fn start() -> inl_serve::ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        limits: FrameLimits::default(),
    })
    .expect("bind ephemeral port")
}

/// The mixed request set each client thread replays. A `tile(…)` order
/// is compiled too: its plans carry the split's `L = 16·Lo + l` row, which
/// only elimination takes, so they are what the shared query cache holds
/// (a permutation's plans are difference systems, scanned on rows).
fn requests_for(thread: usize) -> Vec<Request> {
    let orders = ["KJLI", "KIJL", "IKJL", "JKLI"]; // two legal, two rejected
    vec![
        Request::Compile {
            program: "cholesky_kij".into(),
            order: Some("tile(L@16)/K.Lo.J.L.I".into()),
            telemetry: false,
        },
        Request::Compile {
            program: "cholesky_kij".into(),
            order: Some(orders[thread % orders.len()].into()),
            telemetry: false,
        },
        Request::Compile {
            program: "matmul".into(),
            order: None,
            telemetry: false,
        },
        Request::Run {
            program: "cholesky_kij".into(),
            params: vec![12],
            order: None,
            backend: if thread.is_multiple_of(2) {
                BackendChoice::Vm
            } else {
                BackendChoice::Interp
            },
            telemetry: false,
        },
        Request::Explain {
            program: "cholesky_kij".into(),
            order: Some(orders[(thread + 1) % orders.len()].into()),
            telemetry: false,
        },
        Request::Run {
            program: "wavefront".into(),
            params: vec![20],
            order: None,
            backend: BackendChoice::Vm,
            telemetry: false,
        },
    ]
}

#[test]
fn parallel_sessions_match_in_process_results_bitwise() {
    let handle = start();
    let addr = handle.local_addr();

    let wave = |threads: usize| {
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for t in 0..threads {
                joins.push(scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for req in requests_for(t) {
                        let resp = client.request(&req).expect("request");
                        // Bitwise: both sides encode deterministically, so
                        // the comparison is on the exact wire bytes.
                        assert_eq!(
                            inl_proto::encode_response(&resp),
                            inl_proto::encode_response(&handle_request(&req)),
                            "thread {t} diverged on {req:?}"
                        );
                    }
                }));
            }
            for j in joins {
                j.join().expect("client thread");
            }
        });
    };

    let before = inl_poly::cache::stats();
    wave(4);
    let mid = inl_poly::cache::stats();
    wave(4); // identical second wave: the shared cache must be warm now
    let after = inl_poly::cache::stats();
    let (h, m) = (after.hits - mid.hits, after.misses - mid.misses);
    assert!(h > 0, "second wave must hit the warm cache: {after:?}");
    let warm_rate = h as f64 / (h + m).max(1) as f64;
    let cold_rate = {
        let (h0, m0) = (mid.hits - before.hits, mid.misses - before.misses);
        h0 as f64 / (h0 + m0).max(1) as f64
    };
    assert!(
        warm_rate >= cold_rate,
        "warm wave rate {warm_rate} below cold wave rate {cold_rate}"
    );

    // Transport counters saw all 48 requests (2 waves × 4 threads × 6).
    let stats = handle.stats_json();
    let requests = stats
        .get("requests")
        .and_then(inl_obs::Json::as_u64)
        .unwrap();
    assert!(requests >= 48, "{stats:?}");
    handle.shutdown();
}

#[test]
fn stats_request_reports_transport_and_cache_counters() {
    let handle = start();
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    // Generate some traffic first so counters are non-trivial.
    let _ = client
        .request(&Request::Compile {
            program: "matmul".into(),
            order: None,
            telemetry: false,
        })
        .expect("compile");
    let resp = client.request(&Request::Stats).expect("stats");
    // Drain semantics: shutdown waits for every open session, so close
    // ours before asking the server to stop.
    drop(client);
    match resp {
        Response::Stats { stats } => {
            let serve = stats.get("serve").expect("serve section");
            let requests = serve
                .get("requests")
                .and_then(inl_obs::Json::as_u64)
                .unwrap();
            assert!(requests >= 2, "{serve:?}");
            assert!(stats.get("poly_cache").is_some());
            assert!(stats.get("analysis_memo").is_some());
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn malformed_input_gets_a_typed_error_response() {
    use std::io::{Read as _, Write as _};
    let handle = start();
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).expect("connect");

    // A syntactically valid frame whose payload is garbage JSON: the
    // session answers with a typed error and stays up for the next frame.
    inl_proto::write_frame(&mut raw, b"{{{not json").expect("write");
    let reply = inl_proto::read_frame(
        &mut std::io::BufReader::new(&mut raw),
        &FrameLimits::default(),
    )
    .expect("read")
    .expect("payload");
    let resp = inl_proto::decode_response(&reply, &FrameLimits::default()).expect("decode");
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    drop(raw); // shutdown drains open sessions; close ours first

    // An oversized length prefix: the server answers with a typed error
    // and then closes (framing is no longer trustworthy).
    let mut raw2 = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    raw2.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).expect("write");
    let mut buf = Vec::new();
    let mut reader = std::io::BufReader::new(&mut raw2);
    let reply = inl_proto::read_frame(&mut reader, &FrameLimits::default())
        .expect("read")
        .expect("payload");
    let resp = inl_proto::decode_response(&reply, &FrameLimits::default()).expect("decode");
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    assert_eq!(reader.read_to_end(&mut buf).ok(), Some(0), "must close");

    handle.shutdown();
}

#[test]
fn shutdown_request_drains_and_stops() {
    let handle = start();
    let addr = handle.local_addr();

    // Keep a busy session going while another connection asks to stop.
    let busy = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut answered = 0u32;
        for _ in 0..5 {
            match client.request(&Request::Compile {
                program: "cholesky_kij".into(),
                order: Some("KJLI".into()),
                telemetry: false,
            }) {
                Ok(Response::Compile { .. }) => answered += 1,
                Ok(other) => panic!("unexpected {other:?}"),
                // The session was accepted before shutdown, so it drains
                // fully; errors here would mean dropped in-flight work.
                Err(e) => panic!("in-flight request dropped: {e}"),
            }
        }
        answered
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let mut stopper = Client::connect(addr).expect("connect");
    let ack = stopper.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(ack, Response::Shutdown);

    assert_eq!(busy.join().expect("busy thread"), 5);
    let final_stats = handle.join(); // returns => fully stopped
    let requests = final_stats
        .get("requests")
        .and_then(inl_obs::Json::as_u64)
        .unwrap();
    assert!(requests >= 6, "{final_stats:?}");

    // New connections must now be refused or go unanswered.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(
                c.request(&Request::Stats).is_err(),
                "server must not answer after shutdown"
            );
        }
    }
}
