//! `inl-load` — replay a deterministic mixed workload against a running
//! `inl-serve` and record throughput + latency percentiles.
//!
//! ```sh
//! inl-load [--addr HOST:PORT] [--requests N] [--connections C]
//!          [--telemetry] [--out target/BENCH_serve.json] [--shutdown]
//! ```
//!
//! The workload cycles a fixed schedule — identity compiles and runs for
//! every zoo program, compile + explain for all 24 Cholesky loop orders,
//! auto-schedule probes for three programs,
//! a `stats`/`metrics` probe every 50th request — split round-robin
//! across `C` connections. Every response except `stats`/`metrics` is
//! compared **bytewise** against the in-process
//! [`inl_serve::handle_request`] answer for the same request (both sides
//! encode deterministically), so the run proves the server computes
//! exactly what local compilation computes.
//!
//! With `--telemetry` every compile/run/explain request also asks for
//! the per-request capture section. The returned section's
//! *deterministic projection* (durations and cache-warmth evidence
//! stripped — see [`inl_obs::capture::deterministic_projection`]) must
//! be **byte-identical** to the projection of an in-process capture of
//! the same request; the core response bytes are compared with the
//! telemetry section stripped. The run also re-measures the
//! instruments-off overhead of the request path (A/B with global obs
//! toggled) and records it as `obs_overhead_pct`.
//!
//! Latency is recorded per request into the `load.latency` histogram
//! and reported as p50/p95/p99 in the output JSON, whose `programs`
//! shape feeds the `inl-obs-diff` CI gate. Exit code 1 on any transport
//! error, bitwise mismatch, or telemetry-projection disagreement.

use inl_serve::{handle_request, Client, Request, Response, ZOO};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// One cycle of the schedule: every zoo program compiled (identity) and
/// the single-parameter ones run on both backends, all 24 Cholesky
/// orders compiled and explained.
fn base_schedule(telemetry: bool) -> Vec<Request> {
    let mut reqs = Vec::new();
    for (name, make) in ZOO {
        reqs.push(Request::Compile {
            program: (*name).to_string(),
            order: None,
            telemetry,
        });
        let p = make();
        if p.nparams() == 1 {
            for backend in [
                inl_proto::BackendChoice::Vm,
                inl_proto::BackendChoice::Interp,
            ] {
                reqs.push(Request::Run {
                    program: (*name).to_string(),
                    params: vec![16],
                    order: None,
                    backend,
                    telemetry,
                });
            }
        }
    }
    let names = ["K", "J", "L", "I"];
    for pm in inl_linalg::permutations(&[0usize, 1, 2, 3]) {
        let order: String = pm.iter().map(|&i| names[i]).collect();
        reqs.push(Request::Compile {
            program: "cholesky_kij".to_string(),
            order: Some(order.clone()),
            telemetry,
        });
        reqs.push(Request::Explain {
            program: "cholesky_kij".to_string(),
            order: Some(order),
            telemetry,
        });
    }
    // auto-schedule probes: like every other non-stats request these are
    // byte-compared against in-process scheduling, proving the server's
    // search visits the same tree and chooses the same variant. Small
    // search trees keep one cycle fast; matmul exercises the shape axis.
    for prog in ["simple_cholesky", "matmul", "wavefront"] {
        reqs.push(Request::Schedule {
            program: prog.to_string(),
            telemetry,
        });
    }
    reqs
}

/// Time the in-process request path over a fixed compile sample; used
/// for the instruments-off vs instruments-on A/B.
fn time_sample_ns(sample: &[Request], rounds: usize) -> u64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        for req in sample {
            std::hint::black_box(handle_request(req));
        }
    }
    t0.elapsed().as_nanos() as u64
}

fn main() {
    let addr = flag_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let total: usize = flag_value("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let connections: usize = flag_value("--connections")
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(4);
    let out_path = flag_value("--out").unwrap_or_else(|| "target/BENCH_serve.json".to_string());
    let send_shutdown = std::env::args().any(|a| a == "--shutdown");
    let telemetry = std::env::args().any(|a| a == "--telemetry");

    inl_obs::set_enabled(true); // load.latency histogram

    // Deterministic workload: cycle the base schedule, with a stats or
    // metrics probe alternating in every 50th slot.
    let base = base_schedule(telemetry);
    let schedule: Vec<Request> = (0..total)
        .map(|i| {
            if i % 100 == 49 {
                Request::Stats
            } else if i % 100 == 99 {
                Request::Metrics
            } else {
                base[i % base.len()].clone()
            }
        })
        .collect();

    let errors = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let telemetry_checked = AtomicU64::new(0);
    let telemetry_mismatches = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..connections {
            let schedule = &schedule;
            let errors = &errors;
            let mismatches = &mismatches;
            let telemetry_checked = &telemetry_checked;
            let telemetry_mismatches = &telemetry_mismatches;
            let completed = &completed;
            let addr = &addr;
            scope.spawn(move || {
                let mut client = match Client::connect(addr.as_str()) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("inl-load[{t}]: connect: {e}");
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                for req in schedule.iter().skip(t).step_by(connections) {
                    let start = Instant::now();
                    let resp = match client.request(req) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("inl-load[{t}]: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    inl_obs::hist_record!("load.latency", start.elapsed().as_nanos() as u64);
                    completed.fetch_add(1, Ordering::Relaxed);
                    if matches!(resp, Response::Error { .. }) {
                        eprintln!(
                            "inl-load[{t}]: error response to {}: {}",
                            inl_proto::encode_request(req).replace('\n', " "),
                            inl_proto::encode_response(&resp).replace('\n', " ")
                        );
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    // Stats and metrics depend on live server state;
                    // everything else must match the in-process answer
                    // byte for byte (modulo the telemetry section, which
                    // carries wall-clock durations).
                    if matches!(req, Request::Stats | Request::Metrics) {
                        continue;
                    }
                    let local = handle_request(req);
                    let expected = inl_proto::encode_response(&local.strip_telemetry());
                    let actual = inl_proto::encode_response(&resp.strip_telemetry());
                    if expected != actual {
                        eprintln!(
                            "inl-load[{t}]: MISMATCH for {}",
                            inl_proto::encode_request(req).replace('\n', " ")
                        );
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    if req.wants_telemetry() {
                        telemetry_checked.fetch_add(1, Ordering::Relaxed);
                        let remote = resp
                            .telemetry()
                            .map(inl_obs::capture::deterministic_projection)
                            .map(|j| j.to_pretty_string());
                        let here = local
                            .telemetry()
                            .map(inl_obs::capture::deterministic_projection)
                            .map(|j| j.to_pretty_string());
                        if remote.is_none() || remote != here {
                            eprintln!(
                                "inl-load[{t}]: TELEMETRY MISMATCH for {}\n  server: {}\n  local:  {}",
                                inl_proto::encode_request(req).replace('\n', " "),
                                remote.as_deref().unwrap_or("<missing>").replace('\n', " "),
                                here.as_deref().unwrap_or("<missing>").replace('\n', " "),
                            );
                            telemetry_mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    let completed = completed.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    let mismatches = mismatches.load(Ordering::Relaxed);
    let telemetry_checked = telemetry_checked.load(Ordering::Relaxed);
    let telemetry_mismatches = telemetry_mismatches.load(Ordering::Relaxed);
    let bitwise_identical = mismatches == 0;
    let telemetry_identical = telemetry_mismatches == 0;

    let snap = inl_obs::PipelineReport::capture();
    let latency = snap
        .histograms
        .get("load.latency")
        .cloned()
        .unwrap_or_default();
    let throughput = completed as f64 / wall.as_secs_f64().max(1e-9);

    // Re-measure the instruments-off budget: the same in-process compile
    // sample with every instrument off (one relaxed load per site)
    // versus global obs on. The telemetry machinery rides the same flag
    // byte, so this covers the new capture dispatch as well.
    let sample: Vec<Request> = base_schedule(false)
        .into_iter()
        .filter(|r| matches!(r, Request::Compile { .. } | Request::Explain { .. }))
        .collect();
    let rounds = 20;
    inl_obs::set_enabled(false);
    time_sample_ns(&sample, 2); // warm the poly cache for both arms
    let off_ns = time_sample_ns(&sample, rounds).max(1);
    inl_obs::set_enabled(true);
    let on_ns = time_sample_ns(&sample, rounds);
    let obs_overhead_pct = (on_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0;

    if send_shutdown {
        match Client::connect(addr.as_str()).and_then(|mut c| c.request(&Request::Shutdown)) {
            Ok(Response::Shutdown) => eprintln!("inl-load: server draining"),
            Ok(other) => eprintln!("inl-load: unexpected shutdown reply {other:?}"),
            Err(e) => eprintln!("inl-load: shutdown: {e}"),
        }
    }

    let mut entry = inl_obs::Json::object();
    entry.insert("name", inl_obs::Json::Str("mixed".to_string()));
    entry.insert("p50_ns", inl_obs::Json::Int(latency.p50()));
    entry.insert("p95_ns", inl_obs::Json::Int(latency.p95()));
    entry.insert("p99_ns", inl_obs::Json::Int(latency.p99()));
    entry.insert("throughput_rps", inl_obs::Json::Float(throughput));
    entry.insert("errors", inl_obs::Json::Int(errors));
    entry.insert("mismatches", inl_obs::Json::Int(mismatches));
    entry.insert("bitwise_identical", inl_obs::Json::Bool(bitwise_identical));
    entry.insert("telemetry_checked", inl_obs::Json::Int(telemetry_checked));
    entry.insert(
        "telemetry_identical",
        inl_obs::Json::Bool(telemetry_identical),
    );
    entry.insert("obs_overhead_pct", inl_obs::Json::Float(obs_overhead_pct));
    let mut doc = inl_obs::Json::object();
    doc.insert("version", inl_obs::Json::Int(1));
    doc.insert("requests", inl_obs::Json::Int(completed));
    doc.insert("connections", inl_obs::Json::Int(connections as u64));
    doc.insert("programs", inl_obs::Json::Array(vec![entry]));
    if let Err(e) = doc.write_file(&out_path) {
        eprintln!("inl-load: cannot write {out_path}: {e}");
        std::process::exit(1);
    }

    println!(
        "inl-load: {completed}/{total} request(s) over {connections} connection(s) in {wall:.2?} \
         — {throughput:.0} req/s, p50 {:?}, p95 {:?}, p99 {:?}, {errors} error(s), {}, \
         telemetry {telemetry_checked} checked / {}, obs overhead {obs_overhead_pct:.1}%",
        std::time::Duration::from_nanos(latency.p50()),
        std::time::Duration::from_nanos(latency.p95()),
        std::time::Duration::from_nanos(latency.p99()),
        if bitwise_identical {
            "bitwise identical".to_string()
        } else {
            format!("{mismatches} MISMATCH(ES)")
        },
        if telemetry_identical {
            "identical".to_string()
        } else {
            format!("{telemetry_mismatches} MISMATCH(ES)")
        }
    );
    println!("inl-load: wrote {out_path}");
    if errors > 0 || !bitwise_identical || !telemetry_identical || completed < total as u64 {
        std::process::exit(1);
    }
}
