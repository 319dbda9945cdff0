//! Timeline-trace integration test: a parallel Cholesky run (inner J
//! loop certified dependence-free by the framework and marked DOALL)
//! must produce a well-formed Chrome trace-event document with
//! per-thread wavefront slices — main thread records `exec.par.wavefront`
//! spans, each worker records `exec.par.chunk` slices on its own tid.

use inl::core::depend::analyze;
use inl::core::instance::{InstanceLayout, Position};
use inl::core::legal::check_legal;
use inl::core::parallel::parallel_slots;
use inl::exec::{run_fresh, Machine, VmRunner};
use inl::ir::zoo;
use inl::linalg::IMat;
use inl::obs::Json;

fn spdish(_: &str, idx: &[usize]) -> f64 {
    if idx.len() == 2 && idx[0] == idx[1] {
        (idx[0] + 10) as f64
    } else {
        1.0 / ((idx.iter().sum::<usize>() + 1) as f64)
    }
}

fn as_array(j: Option<&Json>) -> &[Json] {
    match j {
        Some(Json::Array(items)) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

#[test]
fn parallel_cholesky_trace_loads_as_chrome_json_with_worker_tids() {
    // The framework certifies the inner J loop of simple_cholesky as
    // parallel under the identity schedule (the divisions of one pivot
    // step are independent) — mark it DOALL on that basis, not by fiat.
    let mut p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let id = IMat::identity(layout.len());
    let report = check_legal(&p, &layout, &deps, &id).expect("legality");
    assert!(report.is_legal(), "identity schedule is legal");
    let slots = parallel_slots(&layout, &deps, &id);
    let j = p.loops().find(|&l| p.loop_decl(l).name == "J").unwrap();
    let jslot = layout
        .positions()
        .iter()
        .position(|pos| matches!(pos, Position::Loop(l) if *l == j))
        .unwrap();
    assert!(slots.contains(&jslot), "J certified parallel: {slots:?}");
    p.set_loop_parallel(j, true);

    inl::obs::set_timeline_enabled(true);
    inl::obs::timeline::reset();
    let n: i128 = 64;
    let reference = run_fresh(&p, &[n], &spdish);
    let mut par = Machine::new(&p, &[n], &spdish);
    VmRunner::new(&p).run_threads(&mut par, 4);
    reference
        .same_state(&par)
        .expect("parallel run bitwise identical");
    inl::obs::set_timeline_enabled(false);

    // The export must round-trip through the serializer/parser (i.e. be
    // well-formed JSON) and follow the Chrome trace-event format.
    let text = inl::obs::timeline::export_chrome_trace().to_pretty_string();
    let doc = Json::parse(&text).expect("trace is well-formed JSON");
    let events = as_array(doc.get("traceEvents"));
    assert!(!events.is_empty(), "trace has events");

    let mut wavefront_tids = Vec::new();
    let mut chunk_tids = Vec::new();
    let mut tids = Vec::new();
    for e in events {
        let name = e.get("name").and_then(Json::as_str).expect("event name");
        let ph = e.get("ph").and_then(Json::as_str).expect("event phase");
        assert!(e.get("pid").and_then(Json::as_u64).is_some(), "pid");
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        match ph {
            "M" => {
                // thread_name metadata
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
                continue;
            }
            "X" => {
                assert!(matches!(e.get("ts"), Some(Json::Float(_))), "ts µs");
                assert!(matches!(e.get("dur"), Some(Json::Float(_))), "dur µs");
            }
            other => panic!("unexpected phase {other:?}"),
        }
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        match name {
            "exec.par.wavefront" => wavefront_tids.push(tid),
            "exec.par.chunk" => {
                // chunk slices carry their iteration bounds
                let args = e.get("args").expect("chunk args");
                assert!(args.get("lo").is_some() && args.get("hi").is_some());
                chunk_tids.push(tid);
            }
            _ => {}
        }
    }

    assert!(
        !wavefront_tids.is_empty(),
        "main thread recorded wavefront slices"
    );
    assert!(!chunk_tids.is_empty(), "workers recorded chunk slices");
    // Worker chunks run on their own threads: at least one chunk tid must
    // differ from the main thread's wavefront tid.
    let main_tid = wavefront_tids[0];
    assert!(
        chunk_tids.iter().any(|&t| t != main_tid),
        "chunk slices on a worker tid (main={main_tid}, chunks={chunk_tids:?})"
    );
    assert!(tids.len() >= 2, "≥2 distinct tids: {tids:?}");
}
