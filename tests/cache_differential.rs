//! Differential test for the poly query cache and the analysis memo that
//! shares its switch: generated code must be bitwise identical with both
//! disabled, cold, and fully warm.
//!
//! This is the end-to-end guarantee behind the poly cache switch: the cache
//! memoizes a deterministic function of the *canonicalized* constraint
//! system, and `analyze` one of the program and its layout, so neither can
//! change what the pipeline produces — only how fast it produces it. The
//! twelve legal Cholesky loop-order variants exercise every cached query
//! kind (projection, feasibility, variable bounds) through dependence
//! analysis, legality, completion, and codegen; each sweep asks for one
//! dependence analysis.

use inl_codegen::generate;
use inl_core::complete::complete_transform;
use inl_core::depend::{analyze, memo_stats};
use inl_core::instance::InstanceLayout;
use inl_core::recipe::Recipe;
use inl_ir::{zoo, Program};
use inl_linalg::{permutations, IMat};
use std::sync::Mutex;

/// The cache toggle is process-global; tests flipping it must serialize.
static CACHE_TOGGLE: Mutex<()> = Mutex::new(());

/// All legal Cholesky loop-order variants, enumerated the same way the
/// bench sweep does: every permutation of the four loops, completed to a
/// full transformation where legal.
fn cholesky_variants() -> (Program, Vec<(String, IMat)>) {
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let names = ["K", "J", "L", "I"];
    let mut out = Vec::new();
    for pm in permutations(&[0, 1, 2, 3]) {
        let label: String = pm.iter().map(|&i| names[i]).collect();
        let recipe: Recipe = label.parse().expect("an order");
        let rows = recipe.rows(&p, &layout).expect("the four loops");
        if let Ok(c) = complete_transform(&p, &layout, &deps, &rows) {
            out.push((label, c.matrix));
        }
    }
    (p, out)
}

/// Run the full pipeline over every variant and return the generated
/// pseudocode per variant, in variant order.
fn compile_all(p: &Program, variants: &[(String, IMat)]) -> Vec<String> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    variants
        .iter()
        .map(|(label, m)| {
            let r = generate(p, &layout, &deps, m)
                .unwrap_or_else(|e| panic!("variant {label} failed to generate: {e:?}"));
            r.program.to_pseudocode()
        })
        .collect()
}

#[test]
fn all_cholesky_variants_identical_with_cache_on_and_off() {
    let _l = CACHE_TOGGLE.lock().unwrap();
    let (p, variants) = cholesky_variants();
    assert_eq!(variants.len(), 12, "the legal Cholesky sweep has 12 orders");

    // Ground truth: cache disabled entirely.
    inl_poly::set_cache_enabled(false);
    inl_poly::cache::clear();
    let before_off = memo_stats();
    let uncached = compile_all(&p, &variants);
    assert_eq!(
        memo_stats(),
        before_off,
        "with the switch off the analysis memo is bypassed"
    );

    // Cold cache: every query misses then populates.
    inl_poly::set_cache_enabled(true);
    inl_poly::cache::clear();
    inl_poly::cache::reset_stats();
    let cold = compile_all(&p, &variants);
    let after_cold = inl_poly::cache::stats();
    let memo_cold = memo_stats();
    assert_eq!(
        (memo_cold.hits, memo_cold.misses),
        (before_off.hits, before_off.misses + 1),
        "after clear() the sweep's analysis must miss the memo"
    );
    assert!(
        after_cold.insertions > 0,
        "the sweep must actually exercise the cache"
    );

    // Warm cache: repeated sub-systems across variants now hit.
    let warm = compile_all(&p, &variants);
    let after_warm = inl_poly::cache::stats();
    assert!(
        after_warm.hits > after_cold.hits,
        "a second sweep over a warm cache must hit"
    );
    let memo_warm = memo_stats();
    assert_eq!(
        (memo_warm.hits, memo_warm.misses),
        (memo_cold.hits + 1, memo_cold.misses),
        "the second sweep's analysis must hit the memo"
    );

    inl_poly::set_cache_enabled(true);
    for (i, (label, _)) in variants.iter().enumerate() {
        assert_eq!(
            uncached[i], cold[i],
            "variant {label}: cold cache changed generated code"
        );
        assert_eq!(
            uncached[i], warm[i],
            "variant {label}: warm cache changed generated code"
        );
    }
}
