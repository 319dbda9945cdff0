//! Batch driver: lower many transformation variants of one program, on
//! the caller's thread or across a small pool.
//!
//! What a batch shares is the one thing that does not depend on the
//! variant: the program's `(InstanceLayout, DependenceMatrix)` pair is
//! built once per batch and every job lowers its matrix against it.
//! [`batch_map`] is the job loop itself:
//! workers pull indices from a shared atomic counter (jobs differ in cost;
//! `inl_exec::VmRunner::run_threads`, whose loop trips do not, splits each
//! entry of a `parallel` loop into static chunks instead), and every job runs under one
//! `batch.compile` span whose timeline slice carries the job's index, so a
//! Chrome trace shows the per-variant schedule across worker threads — and
//! with one thread there is no pool at all: the jobs run on the calling
//! thread, where a thread-local `inl_obs::capture` window sees them.
//!
//! [`compile_batch`] runs [`generate`] as the job; the auto-scheduler
//! ranks every leaf through the same loop — its predicted cost, read off
//! the statement plans a [`crate::PlanTable`] shares across the leaves of a
//! shape, with no program built — and runs `generate` once, on its pick,
//! outside it.

use crate::cost::CostFeatures;
use crate::generate::generate;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_ir::Program;
use inl_linalg::IMat;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One compiled variant out of [`compile_batch`].
#[derive(Clone, Debug)]
pub struct CompiledVariant {
    /// The variant's label (e.g. its loop order, `"KJLI"`).
    pub label: String,
    /// Pseudocode of the generated program — the batch drivers compare
    /// this text across runs to assert bitwise-identical output.
    pub pseudocode: String,
    /// The generated program itself (runnable through `inl-exec`).
    pub program: Program,
    /// Static cost features of the variant, as [`crate::generate()`]
    /// computes them.
    pub features: CostFeatures,
    /// Wall time of this job's code generation alone (the batch's one
    /// dependence analysis is not in it).
    pub wall_ns: u64,
}

/// Run `job(i)` for every `i < n` on `threads` workers (`0` = one per
/// available core) and return the results in index order, whichever
/// worker ran which job. Each job runs under a `batch.compile` span, its
/// index the `variant` argument of the span's timeline slice. With one
/// worker (or at most one job) nothing is spawned: the jobs run on the
/// calling thread.
pub fn batch_map<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |c| c.get())
    } else {
        threads
    };
    let run = |i: usize| {
        let _span = inl_obs::span_args("batch.compile", &[("variant", i as i64)]);
        job(i)
    };
    if threads.min(n) <= 1 {
        return (0..n).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *results[i]
                    .lock()
                    .expect("slot is written once, by one worker") = Some(run(i));
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("a panicking job already unwound the scope")
                .expect("batch job completed")
        })
        .collect()
}

/// Compile every `(label, matrix)` variant of `p` on `threads` worker
/// threads (`0` = one per available core; `1` = the calling thread).
/// Results come back in variant order. The program is analysed once for
/// the whole batch.
///
/// # Panics
///
/// If the program fails dependence analysis or any variant fails to
/// generate: callers pass matrices already proven legal. A caller that
/// cannot make that promise (the scheduler) drives [`batch_map`] itself
/// and gets the error back.
pub fn compile_batch(
    p: &Program,
    variants: &[(String, IMat)],
    threads: usize,
) -> Vec<CompiledVariant> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).unwrap_or_else(|e| panic!("batch analyze of {}: {e}", p.name()));
    batch_map(variants.len(), threads, |i| {
        let (label, m) = &variants[i];
        let t0 = Instant::now();
        let result = generate(p, &layout, &deps, m)
            .unwrap_or_else(|e| panic!("batch compile of {label}: {e:?}"));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        CompiledVariant {
            label: label.clone(),
            pseudocode: result.program.to_pseudocode(),
            program: result.program,
            features: result.features,
            wall_ns,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_core::complete::complete_transform;
    use inl_ir::zoo;
    use inl_linalg::IVec;

    #[test]
    fn batch_returns_program_and_features() {
        // two legal variants of simple Cholesky: identity completion and
        // the J-outer interchange; the batch result must carry a runnable
        // program whose pseudocode matches, and its predicted cost.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let j = p.loops().find(|&l| p.loop_decl(l).name == "J").unwrap();
        let variants: Vec<(String, IMat)> = [
            ("IJ".to_string(), vec![]),
            (
                "JI".to_string(),
                vec![IVec::unit(layout.len(), layout.loop_position(j))],
            ),
        ]
        .into_iter()
        .map(|(label, partial)| {
            let c = complete_transform(&p, &layout, &deps, &partial).expect("completes");
            (label, c.matrix)
        })
        .collect();
        let out = compile_batch(&p, &variants, 2);
        assert_eq!(out.len(), 2);
        for v in &out {
            assert_eq!(v.pseudocode, v.program.to_pseudocode());
            assert!(
                v.features.predicted.total() > 0,
                "{}: features populated",
                v.label
            );
        }
    }
}
