//! `inl-top` — a live plain-text dashboard over a running `inl-serve`.
//!
//! ```sh
//! inl-top [--addr HOST:PORT] [--interval-ms N] [--count N] [--once] [--no-clear]
//! ```
//!
//! Polls the `metrics` and `stats` requests on one connection and
//! redraws a terminal summary each tick: throughput and error rate over
//! the sliding window, latency percentiles, the per-request-type
//! breakdown, poly-cache hit rate, analysis-memo hits and misses, and the
//! server's lifetime transport gauges (uptime, sessions, in-flight
//! high-water mark). Standard library only — the "dashboard" is aligned
//! text plus an ANSI clear-screen, suitable for any terminal or for
//! piping a single `--once` frame into a log. Exit code 1 on transport
//! failure.

use inl_serve::{flag_or_usage, known_flags_or_usage, Client, Request, Response};
use std::num::NonZeroU64;

const USAGE: &str =
    "usage: inl-top [--addr HOST:PORT] [--interval-ms N] [--count N] [--once] [--no-clear]";

fn u(j: &inl_obs::Json, key: &str) -> u64 {
    j.get(key).and_then(inl_obs::Json::as_u64).unwrap_or(0)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_uptime(ms: u64) -> String {
    let s = ms / 1000;
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

/// One dashboard frame rendered from a `metrics` and a `stats` reply.
fn render(metrics: &inl_obs::Json, stats: &inl_obs::Json) -> String {
    let mut out = String::new();
    let serve = stats.get("serve");
    let cache = stats.get("poly_cache");
    let lat = metrics.get("latency_ns");

    let req_per_sec = u(metrics, "req_per_sec_milli") as f64 / 1e3;
    let err_pct = u(metrics, "error_rate_ppm") as f64 / 1e4;
    let window_s = u(metrics, "covered_ms") as f64 / 1e3;
    out.push_str(&format!(
        "inl-top — window {:.0}s: {} request(s), {:.1} req/s, {:.2}% errors\n",
        window_s,
        u(metrics, "count"),
        req_per_sec,
        err_pct
    ));
    if let Some(lat) = lat {
        out.push_str(&format!(
            "latency    p50 {:>9}  p95 {:>9}  p99 {:>9}  max {:>9}\n",
            fmt_ns(u(lat, "p50")),
            fmt_ns(u(lat, "p95")),
            fmt_ns(u(lat, "p99")),
            fmt_ns(u(lat, "max")),
        ));
    }
    if let Some(serve) = serve {
        out.push_str(&format!(
            "server     up {}  sessions {}  in-flight {} (hwm {})  lifetime {} req / {} err\n",
            fmt_uptime(u(serve, "uptime_ms")),
            u(serve, "sessions"),
            u(serve, "in_flight"),
            u(serve, "in_flight_hwm"),
            u(serve, "requests"),
            u(serve, "errors"),
        ));
    }
    if let Some(cache) = cache {
        let rate = match cache.get("hit_rate") {
            Some(inl_obs::Json::Float(f)) => *f * 100.0,
            _ => 0.0,
        };
        out.push_str(&format!(
            "poly cache {} hit(s) / {} miss(es) — {:.1}% hit rate\n",
            u(cache, "hits"),
            u(cache, "misses"),
            rate
        ));
    }
    if let Some(memo) = stats.get("analysis_memo") {
        out.push_str(&format!(
            "analyses   {} hit(s) / {} miss(es) — {} stored, {} evicted\n",
            u(memo, "hits"),
            u(memo, "misses"),
            u(memo, "entries"),
            u(memo, "evictions"),
        ));
    }
    if let Some(inl_obs::Json::Object(by_kind)) = metrics.get("by_kind") {
        if !by_kind.is_empty() {
            out.push_str("by kind   ");
            for (kind, count) in by_kind {
                out.push_str(&format!(" {kind}={}", count.as_u64().unwrap_or(0)));
            }
            out.push('\n');
        }
    }
    out
}

fn main() {
    known_flags_or_usage(
        &["--addr", "--interval-ms", "--count"],
        &["--once", "--no-clear"],
        USAGE,
    );
    let addr = flag_or_usage("--addr", USAGE).unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let interval_ms = flag_or_usage::<NonZeroU64>("--interval-ms", USAGE).map_or(1000, |v| v.get());
    let once = std::env::args().any(|a| a == "--once");
    let no_clear = std::env::args().any(|a| a == "--no-clear") || once;
    let count: Option<u64> = if once {
        Some(1)
    } else {
        flag_or_usage("--count", USAGE)
    };

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("inl-top: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let mut ticks = 0u64;
    loop {
        let metrics = match client.request(&Request::Metrics) {
            Ok(Response::Metrics { metrics }) => metrics,
            Ok(other) => {
                eprintln!("inl-top: unexpected metrics reply {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("inl-top: {e}");
                std::process::exit(1);
            }
        };
        let stats = match client.request(&Request::Stats) {
            Ok(Response::Stats { stats }) => stats,
            Ok(other) => {
                eprintln!("inl-top: unexpected stats reply {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("inl-top: {e}");
                std::process::exit(1);
            }
        };
        if !no_clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render(&metrics, &stats));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();

        ticks += 1;
        if count.is_some_and(|c| ticks >= c) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
