//! Integration tests: the telemetry layer observed from outside the crate,
//! including a run of the real transformation pipeline.
//!
//! The enabled flag and the registry are process-global, so every test
//! serializes on one lock and resets the registry before measuring.

use inl_obs::{set_enabled, PipelineReport};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Hold the lock (poison-tolerant), enable telemetry, start clean.
fn begin() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_enabled(true);
    inl_obs::reset();
    guard
}

#[test]
fn counters_aggregate_across_threads() {
    let _g = begin();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 1000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    inl_obs::counter_add!("test.cross.count", 1);
                    inl_obs::counter_add!("test.cross.sum", t * PER_THREAD + i);
                }
            });
        }
    });
    let report = PipelineReport::capture();
    let n = THREADS * PER_THREAD;
    assert_eq!(report.counters["test.cross.count"], n);
    // sum of 0..8000
    assert_eq!(report.counters["test.cross.sum"], n * (n - 1) / 2);
    set_enabled(false);
}

#[test]
fn span_nesting_builds_slash_separated_paths() {
    let _g = begin();
    {
        let _outer = inl_obs::span("outer");
        {
            let _inner = inl_obs::span("inner");
            std::hint::black_box(0);
        }
        {
            let _inner = inl_obs::span("inner");
            std::hint::black_box(0);
        }
    }
    let report = PipelineReport::capture();
    assert_eq!(report.spans["outer"].count, 1);
    assert_eq!(report.spans["outer/inner"].count, 2);
    assert!(
        !report.spans.contains_key("inner"),
        "inner must nest under outer"
    );
    assert!(report.spans["outer"].total_ns >= report.spans["outer/inner"].total_ns);
    set_enabled(false);
}

/// The quickstart pipeline on a clean registry and a cold analysis memo
/// (a warm one would answer the analysis without running FM, zeroing the
/// counters the tests below pin).
fn run_quickstart_pipeline() {
    use inl_codegen::generate;
    use inl_core::depend::analyze;
    use inl_core::instance::InstanceLayout;
    use inl_core::legal::check_legal;
    use inl_core::transform::Transform;
    use inl_exec::{Interpreter, Machine};
    use inl_ir::zoo;

    inl_obs::reset();
    inl_poly::cache::clear();

    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let loops: Vec<_> = p.loops().collect();
    let m = Transform::compose(
        &p,
        &layout,
        &[
            Transform::ReorderChildren {
                parent: Some(loops[0]),
                perm: vec![1, 0],
            },
            Transform::Interchange(loops[0], loops[1]),
        ],
    )
    .unwrap();
    assert!(check_legal(&p, &layout, &deps, &m)
        .expect("legality")
        .is_legal());
    let result = generate(&p, &layout, &deps, &m).expect("codegen");
    let mut machine = Machine::new(&result.program, &[8], &|_, _| 4.0);
    Interpreter::new(&result.program).run(&mut machine);
}

#[test]
fn quickstart_pipeline_fires_every_stage_family() {
    let _g = begin();
    run_quickstart_pipeline();

    let report = PipelineReport::capture();
    assert!(report.counters["depend.pairs_tested"] > 0);
    assert!(
        report.counters.keys().any(|k| k.starts_with("legal.")),
        "legality metrics missing: {:?}",
        report.counters.keys().collect::<Vec<_>>()
    );
    assert!(report.counters["legal.fast_path_hits"] > 0);
    // the poly engine answered: by elimination, or by the difference path
    // that takes the plans and feasibility queries of a loop permutation
    let poly = ["poly.fm.eliminations", "poly.difference.answers"]
        .map(|k| report.counters.get(k).copied().unwrap_or(0));
    assert!(
        poly.iter().sum::<u64>() > 0,
        "poly metrics missing: {poly:?}"
    );
    assert!(report.counters["codegen.bounds_scanned"] > 0);
    assert!(report.counters["exec.instances"] > 0);
    let feasibility_tests: u64 = report
        .spans
        .iter()
        .filter(|(path, _)| path.ends_with("poly.feasibility"))
        .map(|(_, s)| s.count)
        .sum();
    assert!(feasibility_tests > 0);
    assert!(report.spans["depend.analyze"].count == 1);
    assert!(report
        .spans
        .keys()
        .any(|k| k == "codegen.generate/legal.check"));
    set_enabled(false);
}

#[test]
fn gate_document_is_byte_identical_across_runs_and_holds_no_timing() {
    let _g = begin();
    let gate = || {
        run_quickstart_pipeline();
        inl_obs::counter_add!("test.gate.busy_ns", 12345);
        PipelineReport::capture().gate_json().to_pretty_string()
    };
    let first = gate();
    assert_eq!(first, gate());
    assert!(first.contains("\"depend.pairs_tested\""), "{first}");
    assert!(
        !first.contains("_ns") && !first.contains("spans"),
        "{first}"
    );
    set_enabled(false);
}

#[test]
fn disabled_pipeline_records_nothing() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_enabled(false);
    inl_obs::reset();
    inl_obs::counter_add!("test.off.counter", 9);
    {
        let _s = inl_obs::span("test.off.span");
    }
    let report = PipelineReport::capture();
    assert!(report.counters.is_empty());
    assert!(report.spans.is_empty());
}
