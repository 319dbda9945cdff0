//! `inl-load` — replay a deterministic mixed workload against a running
//! `inl-serve`, check every answer, and print throughput + latency
//! percentiles.
//!
//! ```sh
//! inl-load [--addr HOST:PORT] [--requests N] [--connections C]
//!          [--telemetry] [--shutdown]
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
//! telemetry section stripped.
//!
//! Latency is recorded per request into the `load.latency` histogram
//! and printed as p50/p95/p99 with the throughput — for reading only:
//! the figures that are judged are the system benchmark's `serve.rps` and
//! `serve.rtt_p50_us` (`benchmark/`). Exit code 1 on any transport
//! error, bitwise mismatch, telemetry-projection disagreement, or a
//! `--telemetry` run that checked no section.

use inl_serve::{
    flag_or_usage, handle_request, known_flags_or_usage, Client, Request, Response, ZOO,
};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const USAGE: &str = "usage: inl-load [--addr HOST:PORT] [--requests N] [--connections C] \
                     [--telemetry] [--shutdown]";

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

fn main() {
    known_flags_or_usage(
        &["--addr", "--requests", "--connections"],
        &["--shutdown", "--telemetry"],
        USAGE,
    );
    let addr = flag_or_usage("--addr", USAGE).unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let total: usize = flag_or_usage("--requests", USAGE).unwrap_or(1000);
    // NonZero: `--connections 0` is a usage error, not "the default"
    let connections = flag_or_usage::<NonZeroUsize>("--connections", USAGE).map_or(4, |c| c.get());
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

    if send_shutdown {
        match Client::connect(addr.as_str()).and_then(|mut c| c.request(&Request::Shutdown)) {
            Ok(Response::Shutdown) => eprintln!("inl-load: server draining"),
            Ok(other) => eprintln!("inl-load: unexpected shutdown reply {other:?}"),
            Err(e) => eprintln!("inl-load: shutdown: {e}"),
        }
    }

    println!(
        "inl-load: {completed}/{total} request(s) over {connections} connection(s) in {wall:.2?} \
         — {throughput:.0} req/s, p50 {:?}, p95 {:?}, p99 {:?}, {errors} error(s), {}, \
         telemetry {telemetry_checked} checked / {}",
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
    if errors > 0
        || !bitwise_identical
        || !telemetry_identical
        || completed < total as u64
        || (telemetry && telemetry_checked == 0)
    {
        std::process::exit(1);
    }
}
