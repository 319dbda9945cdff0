//! Produces the counter gate document and prints the deterministic
//! sections behind `EXPERIMENTS.md`: dependence matrices, the explain
//! summary, a bitwise verdict per variant, backend and batch, the VM
//! profile and the `inl-obs` telemetry table.
//!
//! ```sh
//! cargo run --release -p inl-bench --bin report -- \
//!     [--obs-json <path>] [--explain-json <path>] [--trace-json <path>]
//! ```
//!
//! Every output lands under `target/` unless its flag overrides it; any
//! other argument, or a flag without a value, prints the usage line and
//! exits 2. `--obs-json` (default `target/inl-obs.json`) receives the
//! run's deterministic counters ([`PipelineReport::gate_json`]); the
//! committed copy is `baselines/inl-obs.json` and CI compares the two with
//! `diff -u`. The report runs with the decision-provenance layer on: an
//! `## explain` section summarizes why each of the 24 Cholesky loop orders
//! was accepted or rejected, and the full record store lands at
//! `target/inl-explain.json` for the `inl-explain` query tool.
//!
//! This binary reads no clock (a CI lint step greps for it): everything
//! runs once, to be counted and compared, and the run takes seconds. Every
//! time it used to print is a `benchmark/` row — the one place a
//! wall-clock time becomes a verdict — and the hand-kernel tables are the
//! `kernels` binary. The exit status is non-zero when any variant, backend
//! or batch diverges bitwise from its reference (a `NO` or `MISMATCH`
//! cell).

use inl_bench::{cholesky_variants, explain_section};
use inl_codegen::{compile_batch, generate};
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_core::transform::Transform;
use inl_exec::{run_fresh, Interpreter, Machine, VmRunner};
use inl_ir::zoo::{self, spd_init};
use inl_obs::PipelineReport;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: report [--obs-json PATH] [--explain-json PATH] [--trace-json PATH]";

/// A table cell for a bitwise comparison; `NO` fails the run.
fn yes_no(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

/// The same verdict in a sentence; `MISMATCH` fails the run.
fn identical(ok: bool) -> &'static str {
    if ok {
        "bitwise identical"
    } else {
        "MISMATCH"
    }
}

fn main() -> ExitCode {
    let mut json_path = PathBuf::from("target/inl-obs.json");
    let mut trace_path = PathBuf::from("target/inl-trace.json");
    let mut explain_path = PathBuf::from("target/inl-explain.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--obs-json" => &mut json_path,
            "--trace-json" => &mut trace_path,
            "--explain-json" => &mut explain_path,
            _ => {
                eprintln!("report: unknown argument {a}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        // the next flag (or nothing) is not a value
        let Some(v) = args.next().filter(|v| !v.starts_with("--")) else {
            eprintln!("report: {a} needs a path\n{USAGE}");
            return ExitCode::from(2);
        };
        *slot = v.into();
    }
    // Cleared by any bitwise divergence below; decides the exit status.
    let mut all_bitwise = true;
    inl_obs::set_enabled(true);
    inl_obs::set_timeline_enabled(true);
    inl_obs::set_explain_enabled(true);

    println!("# inl experiment report\n");

    // ------------------------------------------------- E3: dep matrices
    println!("## E3 — dependence matrices\n");
    for p in [zoo::simple_cholesky(), zoo::cholesky_kij()] {
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        println!(
            "{} ({} positions, {} columns):\n{}",
            p.name(),
            layout.len(),
            deps.deps.len(),
            deps.display()
        );
    }

    // ----------------------------------- explain: decision provenance
    // The 24-permutation sweep records one explain session per order;
    // render the why-legal/why-rejected summary before later phases add
    // their own sessions.
    let (p, variants) = cholesky_variants();
    println!("## explain — decision provenance (24 Cholesky orders)\n");
    print!("{}", explain_section());

    // ------------------------------------------------- E7: variants
    println!("\n## E7 — legal Cholesky loop orders (interpreter vs VM, N = 100)\n");
    inl_obs::explain::begin_session("report/e7-codegen");
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let n: i128 = 100;
    let reference = run_fresh(&p, &[n], &spd_init);
    println!("| order | verified |");
    println!("|-------|----------|");
    for (label, m) in &variants {
        let result = generate(&p, &layout, &deps, m).expect("codegen");
        let mut machine = Machine::new(&result.program, &[n], &spd_init);
        Interpreter::new(&result.program).run(&mut machine);
        let mut vm_machine = Machine::new(&result.program, &[n], &spd_init);
        VmRunner::new(&result.program).run(&mut vm_machine);
        // verified = interpreter matches the reference AND the VM matches
        // the interpreter, bitwise
        let ok = reference.same_state(&machine).is_ok() && machine.same_state(&vm_machine).is_ok();
        all_bitwise &= ok;
        println!("| {label} | {} |", yes_no(ok));
    }

    // ------------------------------------- pipeline compile batch driver
    // Compile the full 12-variant sweep three ways: serially with the
    // analysis memo off (the seed pipeline), serially on a cold memo, and
    // across a thread pool on the warm memo. The third run's analyses are
    // all memo hits, which keeps the telemetry counters deterministic
    // despite the parallelism. Generated code must be identical in all
    // three.
    println!("\n## pipeline compile batch — 12 Cholesky variants\n");
    inl_obs::explain::begin_session("report/pipeline-batch");
    let host_threads = std::thread::available_parallelism().map_or(2, |x| x.get());
    inl_poly::cache::set_cache_enabled(false);
    inl_poly::cache::clear();
    let cold = compile_batch(&p, &variants, 1);
    inl_poly::cache::set_cache_enabled(true);
    inl_poly::cache::clear();
    let warm = compile_batch(&p, &variants, 1);
    let par = compile_batch(&p, &variants, host_threads);
    let batch_bitwise = cold
        .iter()
        .zip(&warm)
        .zip(&par)
        .all(|((c, w), q)| c.pseudocode == w.pseudocode && c.pseudocode == q.pseudocode);
    all_bitwise &= batch_bitwise;
    println!(
        "serial memo off, serial, parallel x{host_threads}: generated code {}",
        identical(batch_bitwise)
    );

    // --------------------------------- exec backends: interpreter vs VM
    inl_obs::explain::begin_session("report/exec-backends");
    println!("\n## exec backends — interpreter vs bytecode VM\n");
    println!("| program | bitwise |");
    println!("|---------|---------|");
    for (name, prog, params) in [
        ("cholesky_kij", zoo::cholesky_kij(), vec![100i128]),
        ("matmul", zoo::matmul(), vec![100]),
        ("wavefront", zoo::wavefront(), vec![300]),
        ("row_prefix_sums", zoo::row_prefix_sums(), vec![300]),
    ] {
        let interp_m = run_fresh(&prog, &params, &spd_init);
        let mut vm_m = Machine::new(&prog, &params, &spd_init);
        VmRunner::new(&prog).run(&mut vm_m);
        let bitwise = interp_m.same_state(&vm_m).is_ok();
        all_bitwise &= bitwise;
        println!("| {name} N={} | {} |", params[0], yes_no(bitwise));
    }

    // --------------------------------- VM opcode profile (hot opcodes)
    // One profiled run of the acceptance benchmark: where the instruction
    // budget actually goes.
    println!("\n## VM opcode profile (cholesky_kij, N = 100)\n");
    let prof_prog = zoo::cholesky_kij();
    let prof_runner = VmRunner::new(&prof_prog);
    let samples = prof_runner.run_profiled(&mut Machine::new(&prof_prog, &[n], &spd_init));
    print!(
        "{}",
        inl_vm::profile::render_tables(prof_runner.compiled(), Some(&prof_prog), &samples)
    );

    // ------------------------------------------------- tiling
    // Strip-mined matmul: the `tile(K@T)/Ko.I.K.J` family the scheduler
    // derives by splitting the reuse-carrying K loop. The *generated*
    // split program (the real transformation, through `inl_core::tiling`)
    // must be bitwise identical to its untiled source on both backends.
    println!("\n## tiling — strip-mined matmul, split K (schedule Ko.I.K.J)\n");
    inl_obs::explain::begin_session("report/tiling");
    let mp = zoo::matmul();
    let ml = inl_core::tiling::innermost_reuse_loop(&mp).expect("matmul carries reuse on K");
    let msplit = inl_core::tiling::split(&mp, ml, 16).expect("split");
    let nsmall: i128 = 64;
    let src = run_fresh(&mp, &[nsmall], &spd_init);
    let tiled_interp = run_fresh(&msplit.program, &[nsmall], &spd_init);
    let tiled_vm = {
        let runner = VmRunner::new(&msplit.program);
        let mut m = Machine::new(&msplit.program, &[nsmall], &spd_init);
        runner.run(&mut m);
        m
    };
    let gen_bitwise =
        src.same_state(&tiled_interp).is_ok() && tiled_interp.same_state(&tiled_vm).is_ok();
    all_bitwise &= gen_bitwise;
    println!(
        "generated split program (tile 16) at N = {nsmall}: interp and VM vs \
         untiled source — {}",
        identical(gen_bitwise)
    );

    // ------------------------------------ E8: parallel loops on threads
    // Run the framework's own skewed wavefront on threads so the exec.par.*
    // telemetry reflects a real generated schedule.
    println!("\n## E8 — generated wavefront through VmRunner::run_threads (N = 200)\n");
    inl_obs::explain::begin_session("report/e8-wavefront");
    let wp = zoo::wavefront();
    let wlayout = InstanceLayout::new(&wp);
    let wdeps = analyze(&wp, &wlayout).expect("analysis");
    let wloops: Vec<_> = wp.loops().collect();
    let skew = Transform::Skew {
        target: wloops[0],
        source: wloops[1],
        factor: 1,
    }
    .matrix(&wp, &wlayout);
    let mut skewed = generate(&wp, &wlayout, &wdeps, &skew).expect("codegen");
    let inner = skewed
        .program
        .loops()
        .find(|&l| {
            !skewed.program.loop_decl(l).children.is_empty()
                && skewed.program.loops_surrounding_loop(l).len() == 1
        })
        .expect("inner loop");
    skewed.program.set_loop_parallel(inner, true);
    let winit = |_: &str, idx: &[usize]| if idx[0] == 0 || idx[1] == 0 { 1.0 } else { 0.0 };
    let nwf: i128 = 200;
    let wseq = run_fresh(&wp, &[nwf], &winit);
    let runner = VmRunner::new(&skewed.program);
    for threads in [2usize, host_threads.max(2)] {
        let mut par = Machine::new(&skewed.program, &[nwf], &winit);
        runner.run_threads(&mut par, threads);
        let ok = wseq.same_state(&par).is_ok();
        all_bitwise &= ok;
        println!("skewed + inner DOALL, {threads} threads: {}", identical(ok));
    }

    // ------------------------------------------------- telemetry report
    let report = PipelineReport::capture();
    println!("\n## analysis memo\n");
    let ms = inl_core::depend::memo_stats();
    println!(
        "hits {}, misses {}, evictions {}, resident entries {}",
        ms.hits, ms.misses, ms.evictions, ms.entries
    );

    println!("\n## pipeline telemetry\n");
    println!("{}", report.to_table());
    report
        .gate_json()
        .write_file(&json_path)
        .expect("write counter gate JSON");
    println!(
        "telemetry: {} counters, {} spans; deterministic counters -> {}",
        report.counters.len(),
        report.spans.len(),
        json_path.display()
    );

    // ------------------------------------------------- explain artifact
    inl_obs::explain::write_json(&explain_path).expect("write explain JSON");
    println!(
        "explain provenance: {} record(s), {} session(s), {} dropped -> {}",
        inl_obs::explain::len(),
        inl_obs::explain::sessions().len(),
        inl_obs::explain::dropped_total(),
        explain_path.display()
    );

    // ------------------------------------------------- timeline trace
    inl_obs::timeline::write_chrome_trace(&trace_path).expect("write trace JSON");
    println!(
        "timeline trace ({} dropped events) -> {} (open in Perfetto / chrome://tracing)",
        inl_obs::timeline::dropped_total(),
        trace_path.display()
    );

    if all_bitwise {
        ExitCode::SUCCESS
    } else {
        eprintln!("BITWISE FAILURE: see the NO / MISMATCH cells above");
        ExitCode::FAILURE
    }
}
