//! `INL_OBS_JSON` / `INL_TRACE_JSON` / `INL_EXPLAIN_JSON` exit-dump
//! integration test.
//!
//! The contract under test: pointing any of the env vars at a path makes
//! the process dump its telemetry report (resp. Chrome trace, resp.
//! decision-provenance artifact) there at exit,
//! with no code changes in the binary beyond touching any inl-obs entry
//! point. Verifying an atexit hook requires a real process exit, so this
//! test re-executes its own binary as a child with the env vars set and
//! parses what the child left behind.
//!
//! `harness = false`: the child must own `main`. The hook runs after the
//! main thread's thread-locals are destroyed, so a binary that records on
//! the main thread and returns from `main` (every example does) is a
//! different case from one that records on a worker — and libtest never
//! runs a test body on the main thread.

use inl_obs::Json;
use std::path::PathBuf;

const CHILD_MARKER: &str = "INL_OBS_EXIT_DUMP_CHILD";

fn target_tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("inl-obs-exit-dump-{}-{name}", std::process::id()));
    p
}

/// In the child: behave like an instrumented binary. `enabled()` is the
/// first inl-obs call — it must be what initializes the flags from the
/// environment and registers the exit dump.
fn instrumented_work() {
    assert!(
        inl_obs::enabled(),
        "INL_OBS_JSON implies telemetry is enabled"
    );
    assert!(
        inl_obs::timeline_enabled(),
        "INL_TRACE_JSON implies the timeline is enabled"
    );
    assert!(
        inl_obs::explain_enabled(),
        "INL_EXPLAIN_JSON implies the explain layer is enabled"
    );
    inl_obs::counter("exit_dump.child.events").add(7);
    {
        let _s = inl_obs::span("exit_dump.child.work");
        std::hint::black_box(0u64);
    }
    inl_obs::explain::begin_session("exit_dump/child");
    inl_obs::explain::reject(
        "test",
        "child decision",
        "recorded only to survive into the exit dump",
    )
    .detail("dep_row", "[+ 0 *]")
    .feature("deps", 1);
}

fn main() {
    match std::env::var(CHILD_MARKER).as_deref() {
        // Return normally from `main`; the atexit hook does the dumping.
        Ok("main") => instrumented_work(),
        Ok(_) => std::thread::spawn(instrumented_work)
            .join()
            .expect("worker thread"),
        Err(_) => {
            for recording_thread in ["worker", "main"] {
                env_dump_paths_produce_reports_at_process_exit(recording_thread);
                println!("test exit dump, recording on the {recording_thread} thread ... ok");
            }
        }
    }
}

fn env_dump_paths_produce_reports_at_process_exit(recording_thread: &str) {
    let obs_path = target_tmp("report.json");
    let trace_path = target_tmp("trace.json");
    let explain_path = target_tmp("explain.json");
    let _ = std::fs::remove_file(&obs_path);
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&explain_path);

    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .env(CHILD_MARKER, recording_thread)
        .env("INL_OBS_JSON", &obs_path)
        .env("INL_TRACE_JSON", &trace_path)
        .env("INL_EXPLAIN_JSON", &explain_path)
        .output()
        .expect("spawn child test process");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && !stderr.contains("panicked"),
        "child failed:\nstdout: {}\nstderr: {stderr}",
        String::from_utf8_lossy(&out.stdout),
    );

    // Telemetry report: valid JSON containing the child's counter.
    let report_text = std::fs::read_to_string(&obs_path).expect("child dumped telemetry JSON");
    let report = Json::parse(&report_text).expect("telemetry dump is well-formed JSON");
    assert_eq!(
        report
            .get("counters")
            .and_then(|c| c.get("exit_dump.child.events"))
            .and_then(Json::as_u64),
        Some(7),
        "counter bumped in the child survives into the dump"
    );
    assert!(
        report
            .get("spans")
            .and_then(|s| s.get("exit_dump.child.work"))
            .is_some(),
        "child span present in dump"
    );

    // Chrome trace: valid JSON whose events include the child's span slice.
    let trace_text = std::fs::read_to_string(&trace_path).expect("child dumped trace JSON");
    let trace = Json::parse(&trace_text).expect("trace dump is well-formed JSON");
    let events = match trace.get("traceEvents") {
        Some(Json::Array(items)) => items,
        other => panic!("traceEvents array expected, got {other:?}"),
    };
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("exit_dump.child.work")
                && e.get("ph").and_then(Json::as_str) == Some("X")
        }),
        "child span slice present in trace dump"
    );

    // Explain artifact: versioned JSON whose records include the child's
    // rejection with its evidence.
    let explain_text = std::fs::read_to_string(&explain_path).expect("child dumped explain JSON");
    let explain = Json::parse(&explain_text).expect("explain dump is well-formed JSON");
    assert_eq!(
        explain.get("version").and_then(Json::as_u64),
        Some(inl_obs::explain::SCHEMA_VERSION),
        "explain artifact carries its schema version"
    );
    let records = match explain.get("records") {
        Some(Json::Array(items)) => items,
        other => panic!("records array expected, got {other:?}"),
    };
    let rec = records
        .iter()
        .find(|r| r.get("subject").and_then(Json::as_str) == Some("child decision"))
        .expect("child record present in explain dump");
    assert_eq!(rec.get("verdict").and_then(Json::as_str), Some("reject"));
    assert_eq!(
        rec.get("details")
            .and_then(|d| d.get("dep_row"))
            .and_then(Json::as_str),
        Some("[+ 0 *]"),
        "evidence details survive the dump"
    );
    let sessions = match explain.get("sessions") {
        Some(Json::Array(items)) => items,
        other => panic!("sessions array expected, got {other:?}"),
    };
    assert!(
        sessions
            .iter()
            .any(|s| s.get("label").and_then(Json::as_str) == Some("exit_dump/child")),
        "child session label present in explain dump"
    );

    let _ = std::fs::remove_file(&obs_path);
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&explain_path);
}
