//! The harness run end to end at smoke scale: every workload, untraced and
//! traced, small programs and sizes but every output check on. In a release
//! build each of these runs takes well under a second.

use inl_obs::Json;
use std::process::{Command, Output};

const WORKLOADS: [&str; 6] = [
    "sched_deep",
    "sched_shallow",
    "compile_orders",
    "exec_kernels",
    "serve_mixed",
    "serve_light",
];

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_inl-benchmark"))
        .args(args)
        .env_remove("INL_OBS")
        .output()
        .expect("start the benchmark binary")
}

/// Run one workload at smoke scale and return the metrics of its result line.
fn smoke(workload: &str, trace: &str) -> Vec<(String, f64)> {
    let out_dir = format!("{}/smoke-{workload}-{trace}", env!("CARGO_TARGET_TMPDIR"));
    let out = benchmark(&[
        "--smoke",
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--out",
        &out_dir,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {line}"));
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(doc.get("failed"), Some(&Json::Int(0)), "{line}");
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics in {line}");
    };
    let file = if trace == "1" {
        "layers.json"
    } else {
        "result.json"
    };
    assert!(
        std::path::Path::new(&out_dir).join(file).exists(),
        "{file} written"
    );
    if trace == "1" {
        let spans = std::fs::read_to_string(format!("{out_dir}/trace-{workload}.json"))
            .expect("span file written");
        assert!(matches!(Json::parse(&spans), Ok(Json::Array(s)) if !s.is_empty()));
    }
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(Json::Int(n)) => *n as f64,
                Some(Json::Float(f)) => *f,
                other => panic!("{name}: value {other:?}"),
            };
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has a unit"
            );
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_checks_pass() {
    for w in WORKLOADS {
        let metrics = smoke(w, "0");
        let mut names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["code_bytes", "op_ms", "peak_rss_mb", "setup_s"],
            "{w}"
        );
        for (name, value) in &metrics {
            assert!(*value > 0.0 && value.is_finite(), "{w}: {name} = {value}");
        }
    }
}

#[test]
fn every_workload_reports_the_whole_layer_table_when_traced() {
    let listed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let Some(Json::Array(per_layer)) = Json::parse(&listed)
        .expect("parses")
        .get("per_layer")
        .cloned()
    else {
        panic!("BENCHMARK.json lacks per_layer");
    };
    for w in WORKLOADS {
        let metrics = smoke(w, "1");
        assert_eq!(
            metrics.len(),
            per_layer.len(),
            "{w}: every per-layer metric, once"
        );
        let own = format!("obs.trace_overhead_pct.{w}");
        assert!(metrics.iter().any(|(n, _)| *n == own), "{w} reports {own}");
        let moved = metrics.iter().filter(|(_, v)| *v != 0.0).count();
        assert!(moved >= 4, "{w}: only {moved} layer metrics are non-zero");
    }
}

#[test]
fn same_seed_gives_the_same_exact_outputs() {
    let bytes = |metrics: Vec<(String, f64)>| {
        metrics
            .into_iter()
            .find(|(n, _)| n == "code_bytes")
            .expect("code_bytes")
            .1
    };
    for w in ["compile_orders", "serve_mixed"] {
        assert_eq!(bytes(smoke(w, "0")), bytes(smoke(w, "0")), "{w}");
    }
}

#[test]
fn an_inl_variable_in_the_environment_stops_the_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_inl-benchmark"))
        .args(["--smoke", "--workload", "serve_light", "--seconds", "0.1"])
        .env("INL_POLY_CACHE", "0")
        .output()
        .expect("start the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("INL_POLY_CACHE"), "{stderr}");
    assert!(out.stdout.is_empty(), "no result is printed");
}
