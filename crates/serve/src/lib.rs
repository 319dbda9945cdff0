//! # inl-serve
//!
//! The compile pipeline as a long-lived concurrent TCP service, in
//! independently testable parts:
//!
//! * [`handler`] — the pure request handler: [`Request`] in,
//!   [`Response`] out, no I/O. The integration tests and the `inl-load`
//!   generator call it in-process to assert the server's answers are
//!   **bitwise-identical** to local computation (responses encode
//!   deterministically, so equality is byte equality on the wire).
//! * [`server`] — listener thread + worker pool over a shared connection
//!   queue (the same atomic-queue idiom as `inl_codegen::compile_batch`),
//!   per-request `serve.*` spans, typed error responses for malformed
//!   input, and graceful drain on `shutdown`.
//! * [`client`] — a minimal blocking client used by the `inl-client`
//!   CLI, the `inl-load` generator, and the tests.
//! * [`window`] — the sliding window of live request latencies behind
//!   the `metrics` request.
//!
//! All sessions share the process-wide dependence-analysis memo
//! (`inl_core::depend::analyze`): a warm server analyses each program
//! once, which the `stats` request exposes (`analysis_memo`: hits,
//! misses, entries, evictions) alongside the transport counters of
//! [`ServeStats`].
//!
//! ## Telemetry
//!
//! Requests that set `telemetry: true` are evaluated inside an
//! [`inl_obs::capture`] scope; the response carries a versioned
//! `telemetry` section with per-stage span durations, counter deltas,
//! and the explain tally for that one request.
//! Every served request additionally feeds [`request_window`], the
//! process-wide sliding window behind the `metrics` request (live
//! req/s, error rate, and latency percentiles over the last minute).
//! The `inl-top` binary polls `metrics`/`stats` into a terminal
//! dashboard.

#![warn(missing_docs)]

pub mod client;
pub mod handler;
pub mod server;
pub mod window;

pub use client::{Client, ClientError};
pub use handler::{handle_request, MAX_PARAM, ZOO};
pub use server::{serve, ServeStats, ServerConfig, ServerHandle};
pub use window::{SlidingWindow, WindowSnapshot};

// Re-exported so binaries and tests need only this crate.
pub use inl_proto::{BackendChoice, CompileOutcome, FrameLimits, Request, Response};

/// The value of command-line flag `flag`, parsed: `Ok(None)` when absent, an
/// error naming the flag when its value is missing (the next flag is not a
/// value) or is not a `T`. What `inl-serve`, `inl-load` and `inl-top` read.
pub fn flag_value<T: std::str::FromStr>(flag: &str) -> Result<Option<T>, String> {
    let mut args = std::env::args().skip(1).skip_while(|a| a != flag);
    if args.next().is_none() {
        return Ok(None);
    }
    let v = args.next().filter(|v| !v.starts_with("--"));
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse() {
        Ok(t) => Ok(Some(t)),
        Err(_) => Err(format!("{flag}: cannot use '{v}'")),
    }
}

/// [`flag_value`] for a binary's `main`: an unusable value prints the error
/// and `usage` and exits 2 instead of silently meaning the default.
pub fn flag_or_usage<T: std::str::FromStr>(flag: &str, usage: &str) -> Option<T> {
    flag_value(flag).unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2)
    })
}

/// The other half of reading flags by name: exit 2 with `usage` unless every
/// argument is one of `valued` (which takes the argument after it as its
/// value, unless that is a flag itself — [`flag_value`] reports that one) or
/// one of `switches`. A misspelt flag must not silently mean the default, so
/// each binary calls this before anything binds or connects.
pub fn known_flags_or_usage(valued: &[&str], switches: &[&str], usage: &str) {
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if valued.contains(&a.as_str()) {
            args.next_if(|v| !v.starts_with("--"));
        } else if !switches.contains(&a.as_str()) {
            eprintln!("unknown argument '{a}'\n{usage}");
            std::process::exit(2)
        }
    }
}

/// The process-wide sliding window of served-request latencies.
///
/// Server sessions record every request they answer here (keyed by
/// request kind, errors flagged); the `metrics` request is answered
/// from its snapshot. In-process callers that never ran a server see
/// an empty window.
pub fn request_window() -> &'static SlidingWindow {
    static WINDOW: std::sync::OnceLock<SlidingWindow> = std::sync::OnceLock::new();
    WINDOW.get_or_init(SlidingWindow::default)
}
