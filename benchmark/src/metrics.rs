//! Every metric the benchmark reports, by name, with unit and direction.
//! `BENCHMARK.json` at the repository root lists the same metrics (a unit
//! test holds the two together) and adds the regression bounds.

use crate::workloads::Workload;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// What a user of the system sees, measured untraced on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("op_ms", "ms", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("code_bytes", "count", "lower"),
    ]
}

const VM_KERNELS: [&str; 7] = [
    "cholesky_kij",
    "matmul",
    "lu_kij",
    "wavefront",
    "row_prefix_sums",
    "cholesky_kij_chosen",
    "matmul_chosen",
];
const INTERP_KERNELS: [&str; 4] = ["cholesky_kij", "matmul", "wavefront", "row_prefix_sums"];
/// Programs whose search counters the layer table lists.
pub const COUNTED: [&str; 4] = ["cholesky_kij", "cholesky_left_looking", "lu_kij", "matmul"];
/// The kinds of request the serve rows are split by.
pub const REQUEST_KINDS: [&str; 6] = [
    "compile",
    "explain",
    "run_vm",
    "run_interp",
    "schedule",
    "stats",
];

/// Single layers, from the traced run. A workload reports 0 for a layer
/// metric it does not exercise.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("ir.zoo_build_us", "us", "lower"),
        def("ir.pretty_us", "us", "lower"),
        def("ir.pseudocode_us", "us", "lower"),
        def("ir.pseudocode_bytes", "count", "lower"),
        def("core.layout_us", "us", "lower"),
        def("core.depend.analyze_us", "us", "lower"),
        def("core.depend.deps", "count", "lower"),
        def("core.complete.complete_us", "us", "lower"),
        def("core.complete.reject_us", "us", "lower"),
        def("core.complete.legal_orders", "count", "higher"),
        def("core.complete.rejected_orders", "count", "lower"),
        def("core.complete.check_prefix_us", "us", "lower"),
        def("core.legal.check_us", "us", "lower"),
        def("core.tiling.split_us", "us", "lower"),
        def("codegen.generate_us", "us", "lower"),
        def("codegen.batch.variant_us", "us", "lower"),
        def("codegen.loops_out", "count", "lower"),
        def("codegen.guards_out", "count", "lower"),
        def("poly.cache.hit_rate", "ratio", "higher"),
        def("poly.cache.lookups", "count", "lower"),
        def("poly.cache.entries", "count", "lower"),
        def("poly.nocache_ratio", "ratio", "higher"),
        def("poly.fm.eliminations", "count", "lower"),
        def("poly.feasibility.calls", "count", "lower"),
        def("poly.feasibility.self_ms", "ms", "lower"),
    ];
    for (name, _) in inl_serve::ZOO {
        m.push(def(format!("sched.schedule_ms.{name}"), "ms", "lower"));
    }
    for p in COUNTED {
        m.push(def(format!("sched.nodes_visited.{p}"), "count", "lower"));
        m.push(def(format!("sched.legal_variants.{p}"), "count", "higher"));
        m.push(def(format!("sched.shapes.{p}"), "count", "higher"));
    }
    m.push(def("sched.ms_per_variant", "ms", "lower"));
    for source in ["est", "obs"] {
        for part in ["codegen", "prefix", "complete", "other"] {
            m.push(def(
                format!("sched.{source}.{part}_share"),
                "ratio",
                "lower",
            ));
        }
    }
    m.push(def("vm.compile_us", "us", "lower"));
    m.push(def("vm.instrs_static", "count", "lower"));
    for k in VM_KERNELS {
        m.push(def(format!("vm.run_ms.{k}"), "ms", "lower"));
    }
    m.push(def("vm.minstr_per_s", "Minstr/s", "higher"));
    m.push(def("exec.machine_init_ms", "ms", "lower"));
    for k in INTERP_KERNELS {
        m.push(def(format!("exec.interp.run_ms.{k}"), "ms", "lower"));
    }
    m.push(def("exec.interp_vs_vm", "ratio", "lower"));
    for p in ["cholesky_kij", "matmul"] {
        m.push(def(format!("exec.chosen_vs_source.{p}"), "ratio", "lower"));
    }
    for group in ["vm", "chosen", "interp"] {
        m.push(def(format!("exec.{group}_pass_ms"), "ms", "lower"));
    }
    for part in [
        "encode_req",
        "decode_req",
        "encode_resp",
        "decode_resp",
        "frame_write",
        "frame_read",
    ] {
        m.push(def(format!("proto.{part}_us"), "us", "lower"));
    }
    m.push(def("proto.req_bytes_mean", "B", "lower"));
    m.push(def("proto.resp_bytes_mean", "B", "lower"));
    for kind in REQUEST_KINDS {
        m.push(def(format!("serve.handler_us.{kind}"), "us", "lower"));
    }
    for kind in REQUEST_KINDS {
        m.push(def(format!("serve.rtt_p50_us.{kind}"), "us", "lower"));
    }
    m.push(def("serve.rtt_p50_us", "us", "lower"));
    m.push(def("serve.rtt_p95_us", "us", "lower"));
    m.push(def("serve.rtt_p99_us", "us", "lower"));
    m.push(def("serve.rtt_n", "count", "higher"));
    m.push(def("serve.rps", "1/s", "higher"));
    m.push(def("serve.transport_us", "us", "lower"));
    m.push(def("serve.connect_us", "us", "lower"));
    m.push(def("serve.errors", "count", "lower"));
    m.push(def("serve.mismatches", "count", "lower"));
    m.push(def("cold.op_ms", "ms", "lower"));
    for w in Workload::ALL {
        m.push(def(
            format!("obs.trace_overhead_pct.{}", w.name()),
            "%",
            "lower",
        ));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::num;
    use inl_obs::Json;

    fn listed(doc: &Json, key: &str) -> Vec<MetricDef> {
        let Some(Json::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| MetricDef {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                unit: Box::leak(
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string()
                        .into_boxed_str(),
                ),
                better: Box::leak(
                    m.get("better")
                        .and_then(Json::as_str)
                        .expect("better")
                        .to_string()
                        .into_boxed_str(),
                ),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), end_to_end());
        assert_eq!(listed(&doc, "per_layer"), per_layer());
        let Some(Json::Array(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for m in e2e {
            let bound = m.get("bound").and_then(num).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let Some(Json::Array(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for m in &all {
            assert!(m.name.len() <= 64 && m.name.chars().all(ok), "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let mut names: Vec<&String> = all.iter().map(|m| &m.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "every name is used once");
    }
}
