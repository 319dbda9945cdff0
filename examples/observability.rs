//! Observability: run the quickstart pipeline with `inl-obs` telemetry on
//! and print the pipeline report — which passes ran, how many dependence
//! pairs were tested, where Fourier–Motzkin fell back to the dark shadow,
//! how many instances executed, and where the wall-time went.
//!
//! ```sh
//! cargo run --example observability
//! # the same report from any binary, no code changes: name the artifact
//! INL_OBS_JSON=target/obs.json cargo run --example quickstart
//! ```

use inl::codegen::generate;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::transform::Transform;
use inl::exec::{run_traced, Interpreter, Machine};
use inl::ir::zoo;
use inl::obs::{Json, PipelineReport};

fn main() {
    // Telemetry is off by default (the disabled fast path is one atomic
    // load); code turns it on. The environment only names where a dump
    // goes (`INL_OBS_JSON=<path>`, which implies the layer).
    inl::obs::set_enabled(true);

    // The quickstart pipeline: analyze, transform, generate, execute.
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
    let verdict = inl::core::legal::check_legal(&p, &layout, &deps, &m).expect("legality");
    println!("left-looking transform legal? {}", verdict.is_legal());

    let result = generate(&p, &layout, &deps, &m).expect("codegen");
    let mut machine = Machine::new(&result.program, &[64], &|_, idx| 2.0 + idx[0] as f64);
    Interpreter::new(&result.program).run(&mut machine);

    // Trace the source program too, and attach the aggregate as a report
    // section.
    let (_, trace) = run_traced(&p, &[64], &|_, idx| 2.0 + idx[0] as f64);

    let mut report = PipelineReport::capture();
    report.attach("trace", trace.summary(&p).to_json());
    println!("\n{}", report.to_table());

    // `--json <path>` writes the machine-readable form.
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            let path = args.next().expect("--json needs a path");
            report.write_json(&path).expect("write JSON");
            println!("wrote {path}");
        }
    }

    // The JSON form round-trips exactly; show a couple of fields.
    let parsed = Json::parse(&report.to_json_string()).unwrap();
    println!(
        "pairs tested: {}   instances executed: {}",
        parsed
            .get("counters")
            .and_then(|c| c.get("depend.pairs_tested"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        parsed
            .get("counters")
            .and_then(|c| c.get("exec.instances"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );
}
