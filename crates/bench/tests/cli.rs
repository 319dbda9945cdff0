//! The `report` binary's argument contract, one child process per case:
//! an unusable argument list prints the usage line and exits 2 (a panic
//! would exit 101, silently meaning the default would exit 0), and a good
//! one writes the counter gate document where it was told to.

use inl_obs::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("spawn report")
}

fn assert_usage_error(args: &[&str]) {
    let out = report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: report"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran the report");
}

#[test]
fn flag_without_a_value_is_a_usage_error() {
    assert_usage_error(&["--obs-json"]);
    // the next flag is not a value
    assert_usage_error(&["--obs-json", "--trace-json", "x"]);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    // removed in PR 14; used to be accepted without a word
    assert_usage_error(&["--bench-json", "x"]);
}

#[test]
fn writes_the_gate_document_where_told() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report-cli");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (gate, trace, explain) = (path("obs.json"), path("trace.json"), path("explain.json"));
    let out = report(&[
        "--obs-json",
        &gate,
        "--trace-json",
        &trace,
        "--explain-json",
        &explain,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&gate).expect("gate document written"))
        .expect("gate document parses");
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
    let Some(Json::Object(counters)) = doc.get("counters") else {
        panic!("no counters object")
    };
    assert!(counters.contains_key("exec.instances"), "{counters:?}");
    for artifact in [&trace, &explain] {
        let text = std::fs::read_to_string(artifact).expect("artifact written");
        Json::parse(&text).expect("artifact parses");
    }
}
