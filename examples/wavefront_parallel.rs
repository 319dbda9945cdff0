//! §7's parallelization claim, end to end: the wavefront recurrence has a
//! trivial dependence-matrix nullspace (no outer loop can be DOALL), but
//! skewing the outer loop by the inner makes every dependence
//! outer-carried, leaving the inner loop parallel. We generate the skewed
//! code, mark the parallel loop, and run it on multiple threads.
//!
//! ```sh
//! cargo run --release --example wavefront_parallel
//! ```

use inl::codegen::generate;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::legal::check_legal;
use inl::core::parallel::{parallel_rows, parallel_slots};
use inl::core::transform::Transform;
use inl::exec::{Interpreter, Machine, VmRunner};
use inl::ir::zoo;
use std::time::Instant;

fn main() {
    let p = zoo::wavefront();
    println!("== wavefront recurrence ==\n{}", p.to_pseudocode());

    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    println!("dependence matrix:\n{}", deps.display());

    // §7: "parallelizing a loop requires finding a row in the nullspace of
    // the dependence matrix" — here the nullspace is trivial:
    let rows = parallel_rows(&layout, &deps).expect("parallel rows");
    println!(
        "outer-parallel directions: {} (nullspace is trivial)",
        rows.len()
    );

    // the classic fix: skew the outer loop by the inner one
    let loops: Vec<_> = p.loops().collect();
    let m = Transform::Skew {
        target: loops[0],
        source: loops[1],
        factor: 1,
    }
    .matrix(&p, &layout);
    let report = check_legal(&p, &layout, &deps, &m).expect("legality");
    assert!(report.is_legal());
    let par = parallel_slots(&layout, &deps, &m);
    println!("parallel loop slots after skewing: {par:?} (inner loop is DOALL)");

    let mut result = generate(&p, &layout, &deps, &m).expect("codegen");
    // mark the generated inner loop parallel (slot 1)
    let inner = result
        .program
        .loops()
        .find(|&l| {
            !result.program.loop_decl(l).children.is_empty()
                && result.program.loops_surrounding_loop(l).len() == 1
        })
        .expect("inner loop");
    result.program.set_loop_parallel(inner, true);
    println!("== skewed program ==\n{}", result.program.to_pseudocode());

    // Correctness of the parallel wavefront schedule, against the
    // reference interpreter. (Spawning one thread team per anti-diagonal
    // costs more than the tiny per-iteration work saves — the *schedule*
    // is what the framework certifies; compiled kernels in `inl-bench`
    // show the speedup.)
    let n: i128 = 300;
    let init = |_: &str, idx: &[usize]| {
        if idx[0] == 0 || idx[1] == 0 {
            1.0
        } else {
            0.0
        }
    };
    let mut seq = Machine::new(&p, &[n], &init);
    Interpreter::new(&p).run(&mut seq);
    let runner = VmRunner::new(&result.program);
    for threads in [2, 4] {
        let mut par = Machine::new(&result.program, &[n], &init);
        runner.run_threads(&mut par, threads);
        seq.same_state(&par).expect("bitwise identical");
        println!("wavefront, {threads} threads: bitwise identical ✓");
    }

    // For an end-to-end *speedup* inside the framework, a loop whose
    // OUTER slot is dependence-free works: one thread team for the whole
    // run. The threads run the bytecode VM, so the sequential time to beat
    // is the VM's; the interpreter stays the correctness reference.
    // Row-wise prefix sums keep every dependence inside a row, so the
    // nullspace of the dependence matrix contains the outer direction.
    let q = zoo::row_prefix_sums();
    let qlayout = InstanceLayout::new(&q);
    let qdeps = analyze(&q, &qlayout).expect("analysis");
    let rows = parallel_rows(&qlayout, &qdeps).expect("parallel rows");
    println!(
        "\n== row_prefix_sums ==\ndependences:\n{}outer-parallel directions: {:?}",
        qdeps.display(),
        rows.iter().map(|r| r.to_string()).collect::<Vec<_>>()
    );
    let mut qpar = q.clone();
    let outer = qpar.loops().next().unwrap();
    qpar.set_loop_parallel(outer, true);

    let n: i128 = 2500;
    let init2 = |_: &str, idx: &[usize]| (idx[0] + idx[1]) as f64 * 0.001;
    let mut seq = Machine::new(&q, &[n], &init2);
    Interpreter::new(&q).run(&mut seq);
    let runner = VmRunner::new(&q);
    let par_runner = VmRunner::new(&qpar);
    let mut vm_seq = Machine::new(&q, &[n], &init2);
    let t0 = Instant::now();
    runner.run(&mut vm_seq);
    let t_seq = t0.elapsed();
    seq.same_state(&vm_seq).expect("bitwise identical");
    println!("sequential (VM): {t_seq:>8.1?}");
    for threads in [1, 2, 4, 8] {
        let mut par = Machine::new(&qpar, &[n], &init2);
        let t0 = Instant::now();
        par_runner.run_threads(&mut par, threads);
        let t_par = t0.elapsed();
        seq.same_state(&par).expect("bitwise identical");
        println!(
            "threads = {threads}: {t_par:>8.1?}  (speedup {:.2}x)  identical ✓",
            t_seq.as_secs_f64() / t_par.as_secs_f64()
        );
    }
}
