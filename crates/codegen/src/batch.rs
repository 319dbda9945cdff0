//! Parallel compile-side batch driver: run the full analysis + codegen
//! pipeline over many transformation variants across a thread pool.
//!
//! Each job is self-contained — layout, dependence analysis, legality,
//! code generation — so the driver parallelizes trivially; the poly query
//! cache (`inl_poly::cache`) is what makes the repeated sub-systems cheap
//! across jobs. Workers pull jobs from a shared atomic index (the same
//! work-stealing-free queue idiom as `inl_exec::ParallelExecutor`) and
//! every job records a `batch.compile` timeline slice tagged with its
//! variant index, so a Chrome trace shows the per-variant schedule across
//! worker threads.
//!
//! This lives in `inl-codegen` so the auto-scheduler can drive its
//! cache-warm candidate sweep without depending on the report harness.

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
    /// Static cost features of the variant (the scheduler's ranking
    /// signal), as computed by [`crate::cost::cost_features`].
    pub features: CostFeatures,
    /// Wall time of this job alone (analysis through codegen).
    pub wall_ns: u64,
}

/// Compile every `(label, matrix)` variant of `p` on `threads` worker
/// threads (`0` = one per available core). Results come back in variant
/// order regardless of which worker ran which job. Panics if any variant
/// fails to generate — callers pass matrices already proven legal.
pub fn compile_batch(
    p: &Program,
    variants: &[(String, IMat)],
    threads: usize,
) -> Vec<CompiledVariant> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<CompiledVariant>>> =
        variants.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(variants.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= variants.len() {
                    break;
                }
                let (label, m) = &variants[i];
                let _slice =
                    inl_obs::timeline::scope_args("batch.compile", &[("variant", i as i64)]);
                let _span = inl_obs::span("batch.compile");
                let t0 = Instant::now();
                let layout = InstanceLayout::new(p);
                let deps =
                    analyze(p, &layout).unwrap_or_else(|e| panic!("batch analyze of {label}: {e}"));
                let result = generate(p, &layout, &deps, m)
                    .unwrap_or_else(|e| panic!("batch compile of {label}: {e:?}"));
                let wall_ns = t0.elapsed().as_nanos() as u64;
                *results[i].lock().unwrap() = Some(CompiledVariant {
                    label: label.clone(),
                    pseudocode: result.program.to_pseudocode(),
                    program: result.program,
                    features: result.features,
                    wall_ns,
                });
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("batch job completed"))
        .collect()
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
        // program whose pseudocode matches, and non-default features.
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
            assert!(v.features.deps > 0, "{}: features populated", v.label);
        }
    }
}
