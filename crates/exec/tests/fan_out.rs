//! What a `parallel`-marked loop's fan-out counts: a run on threads is
//! credited what a one-thread run is, `exec.par.wavefronts` counts the
//! entries it split, and the marked loop's own trips run in no trip kernel.
//!
//! The workers' counts reach the process-global registry, so this is its
//! own test binary and every test holds one lock.

use inl_codegen::generate;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_core::transform::Transform;
use inl_exec::{run_fresh, Machine, VmRunner};
use inl_ir::{zoo, Program};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

const COUNTERS: [&str; 6] = [
    "vm.instrs",
    "vm.instances",
    "exec.par.wavefronts",
    "vm.trips.columns",
    "vm.trips.carried",
    "vm.trips.dispatch",
];

/// The registry's [`COUNTERS`] after one run of `p` at `N = n` on `threads`
/// threads (`None`: [`VmRunner::run`]), checked bitwise against the
/// interpreter.
fn counted(p: &Program, n: i128, threads: Option<usize>) -> [u64; 6] {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let init = |_: &str, idx: &[usize]| (idx.iter().sum::<usize>() + 1) as f64 * 0.375;
    let reference = run_fresh(p, &[n], &init);
    let mut m = Machine::new(p, &[n], &init);
    let runner = VmRunner::new(p);
    inl_obs::set_enabled(true);
    inl_obs::reset();
    match threads {
        None => runner.run(&mut m),
        Some(t) => runner.run_threads(&mut m, t),
    }
    let seen = COUNTERS.map(|c| inl_obs::counter(c).get());
    inl_obs::set_enabled(false);
    reference
        .same_state(&m)
        .unwrap_or_else(|e| panic!("{} on {threads:?} threads: {e}", p.name()));
    seen
}

/// The skewed wavefront with its inner loop, DOALL after skewing (§7),
/// marked.
fn skewed_wavefront() -> Program {
    let p = zoo::wavefront();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let loops: Vec<_> = p.loops().collect();
    let skew = Transform::Skew {
        target: loops[0],
        source: loops[1],
        factor: 1,
    }
    .matrix(&p, &layout);
    let mut q = generate(&p, &layout, &deps, &skew)
        .expect("codegen")
        .program;
    let inner = q.loops().nth(1).expect("an inner loop");
    q.set_loop_parallel(inner, true);
    q
}

/// `row_prefix_sums` with its outer loop marked.
fn outer_marked_prefix_sums() -> Program {
    let mut p = zoo::row_prefix_sums();
    let outer = p.loops().next().expect("an outer loop");
    p.set_loop_parallel(outer, true);
    p
}

#[test]
fn a_run_on_threads_counts_what_a_one_thread_run_counts() {
    for p in [skewed_wavefront(), outer_marked_prefix_sums()] {
        let [instrs, instances, ..] = counted(&p, 24, None);
        assert!(instances > 0, "{}", p.name());
        for threads in [1, 2, 4] {
            let seen = counted(&p, 24, Some(threads));
            assert_eq!(
                seen[..2],
                [instrs, instances],
                "{} on {threads} threads",
                p.name()
            );
        }
    }
}

#[test]
fn wavefronts_count_entries_of_two_or_more_trips_above_one_thread() {
    let n = 24;
    // An n × n grid has 2n − 1 anti-diagonals; the first and the last are
    // one cell each.
    let diagonals = 2 * n as u64 - 3;
    for (p, entries) in [
        (skewed_wavefront(), diagonals),
        (outer_marked_prefix_sums(), 1),
    ] {
        assert_eq!(counted(&p, n, None)[2], 0, "{}", p.name());
        assert_eq!(counted(&p, n, Some(1))[2], 0, "{}", p.name());
        for threads in [2, 4] {
            assert_eq!(
                counted(&p, n, Some(threads))[2],
                entries,
                "{} on {threads} threads",
                p.name()
            );
        }
    }
}

#[test]
fn a_marked_loops_trips_run_in_no_trip_kernel_above_one_thread() {
    let n = 24;
    // The skewed wavefront's marked loop is its innermost: one thread runs
    // its trips in columns, more threads in no lane at all.
    let p = skewed_wavefront();
    let [.., columns, carried, dispatch] = counted(&p, n, Some(1));
    assert_eq!((columns, carried, dispatch), ((n * n) as u64, 0, 0));
    for threads in [2, 4] {
        assert_eq!(counted(&p, n, Some(threads))[3..], [0, 0, 0]);
    }
    // `row_prefix_sums` marks the loop around its kernel loop: the inner
    // trips stay carried, one thread or four.
    let p = outer_marked_prefix_sums();
    for threads in [1, 2, 4] {
        let seen = counted(&p, n, Some(threads));
        assert_eq!(seen[3..], [0, (n * n) as u64, 0], "{threads} threads");
    }
}
