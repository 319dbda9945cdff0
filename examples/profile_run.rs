//! Profiling a run: timeline tracing + VM opcode profiling in one place.
//!
//! Turns on both observability layers, runs Cholesky twice — once through
//! the bytecode VM with opcode profiling, once through the parallel
//! executor so the trace shows per-thread wavefront slices — then prints
//! the hot-opcode/statement/loop tables and writes a Chrome trace-event
//! file you can open at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! ```sh
//! cargo run --release --example profile_run
//! # then load target/inl-trace.json in Perfetto
//! ```
//!
//! The trace is available from any binary with zero code changes:
//! `INL_TRACE_JSON=trace.json ./your-binary`. An opcode profile is what a
//! profiled run returns (`VmRunner::run_profiled`).

use inl::exec::{run_fresh, Machine, ParallelExecutor, VmRunner};
use inl::ir::zoo;

fn spd(_: &str, idx: &[usize]) -> f64 {
    if idx.len() == 2 && idx[0] == idx[1] {
        (idx[0] + 10) as f64
    } else {
        1.0 / ((idx.iter().sum::<usize>() + 1) as f64)
    }
}

fn main() {
    // Both layers off by default; the disabled fast path is one relaxed
    // atomic load. Turn everything on explicitly for the demo.
    inl::obs::set_enabled(true);
    inl::obs::set_timeline_enabled(true);

    let n: i128 = 96;

    // 1. VM run with opcode profiling: which opcodes and statements
    //    dominate the instruction stream?
    let p = zoo::cholesky_kij();
    let runner = VmRunner::new(&p);
    let samples = runner.run_profiled(&mut Machine::new(&p, &[n], &spd));
    println!("== VM opcode profile (cholesky_kij, N = {n}) ==\n");
    print!(
        "{}",
        inl::vm::profile::render_tables(runner.compiled(), Some(&p), &samples)
    );

    // 2. Parallel run: the trace gets one `exec.par.wavefront` slice per
    //    wavefront on the main thread and `exec.par.chunk` slices on each
    //    worker's own timeline row.
    let mut par = zoo::simple_cholesky();
    let j = par.loops().find(|&l| par.loop_decl(l).name == "J").unwrap();
    par.set_loop_parallel(j, true);
    let reference = run_fresh(&par, &[n], &spd);
    let mut machine = Machine::new(&par, &[n], &spd);
    ParallelExecutor::new(&par, 4).run(&mut machine);
    reference
        .same_state(&machine)
        .expect("parallel run bitwise identical");

    // 3. Export. Spans recorded by the pipeline double as trace slices,
    //    so the file also shows where analysis/codegen time went.
    let path = "target/inl-trace.json";
    inl::obs::timeline::write_chrome_trace(path).expect("write trace");
    println!(
        "wrote {path} ({} events dropped) — open in https://ui.perfetto.dev",
        inl::obs::timeline::dropped_total()
    );

    println!("\n== pipeline telemetry ==\n");
    print!("{}", inl::obs::PipelineReport::capture().to_table());
}
