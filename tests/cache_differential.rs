//! Differential test for the poly query cache and the analysis memo that
//! shares its switch: generated code must be bitwise identical with both
//! disabled, cold, and fully warm.
//!
//! This is the end-to-end guarantee behind the poly cache switch: the cache
//! memoizes a deterministic function of the *canonicalized* constraint
//! system, and `analyze` one of the program and its layout, so neither can
//! change what the pipeline produces — only how fast it produces it. The
//! twelve legal Cholesky loop-order variants exercise feasibility through
//! dependence analysis, legality and completion; their plans are
//! difference systems, which codegen projects and scans on rows without
//! the cache. The legal orders of Cholesky with `L` strip-mined at 16
//! (`tile(L@16)/…`) carry the split's `L = 16·Lo + l` row, which only
//! elimination takes, so their plans exercise the cached projection. Each
//! sweep asks for one dependence analysis per program.

use inl_codegen::generate;
use inl_core::complete::complete_transform;
use inl_core::depend::{analyze, memo_stats};
use inl_core::instance::InstanceLayout;
use inl_core::recipe::Recipe;
use inl_core::tiling;
use inl_ir::{zoo, Program};
use inl_linalg::{permutations, IMat};
use std::sync::Mutex;

/// The cache toggle is process-global; tests flipping it must serialize.
static CACHE_TOGGLE: Mutex<()> = Mutex::new(());

/// Every legal loop order of `p`, enumerated the same way the bench sweep
/// does: every permutation of its loops, completed to a full
/// transformation where legal.
fn legal_orders(p: &Program) -> Vec<(String, IMat)> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    let names: Vec<String> = p.loops().map(|l| p.loop_decl(l).name.clone()).collect();
    let mut out = Vec::new();
    for pm in permutations(&(0..names.len()).collect::<Vec<_>>()) {
        let label = pm
            .iter()
            .map(|&i| names[i].as_str())
            .collect::<Vec<_>>()
            .join(".");
        let recipe: Recipe = label.parse().expect("an order");
        let rows = recipe.rows(p, &layout).expect("every loop");
        if let Ok(c) = complete_transform(p, &layout, &deps, &rows) {
            out.push((label, c.matrix));
        }
    }
    out
}

/// Legal loop orders of the tiled Cholesky program.
const TILED: usize = 48;

/// The two sweeps: Cholesky's legal orders, and those of Cholesky with
/// its reuse loop `L` strip-mined at 16.
fn sweeps() -> Vec<(Program, Vec<(String, IMat)>)> {
    let p = zoo::cholesky_kij();
    let l = tiling::innermost_reuse_loop(&p).expect("L carries reuse");
    let tiled = tiling::split(&p, l, 16).expect("splits").program;
    [p, tiled]
        .into_iter()
        .map(|p| {
            let orders = legal_orders(&p);
            (p, orders)
        })
        .collect()
}

/// Run the full pipeline over every variant of every sweep and return the
/// generated pseudocode per variant, in sweep and variant order.
fn compile_all(sweeps: &[(Program, Vec<(String, IMat)>)]) -> Vec<String> {
    let mut out = Vec::new();
    for (p, variants) in sweeps {
        let layout = InstanceLayout::new(p);
        let deps = analyze(p, &layout).expect("analysis");
        for (label, m) in variants {
            let r = generate(p, &layout, &deps, m)
                .unwrap_or_else(|e| panic!("variant {label} failed to generate: {e:?}"));
            out.push(r.program.to_pseudocode());
        }
    }
    out
}

#[test]
fn all_cholesky_variants_identical_with_cache_on_and_off() {
    let _l = CACHE_TOGGLE.lock().unwrap();
    let sweeps = sweeps();
    assert_eq!(
        sweeps[0].1.len(),
        12,
        "the legal Cholesky sweep has 12 orders"
    );
    assert_eq!(sweeps[1].1.len(), TILED, "the legal tiled Cholesky orders");
    let labels: Vec<&String> = sweeps
        .iter()
        .flat_map(|(_, v)| v.iter().map(|(l, _)| l))
        .collect();

    // Ground truth: cache disabled entirely.
    inl_poly::set_cache_enabled(false);
    inl_poly::cache::clear();
    let before_off = memo_stats();
    let uncached = compile_all(&sweeps);
    assert_eq!(
        memo_stats(),
        before_off,
        "with the switch off the analysis memo is bypassed"
    );

    // Cold cache: every query misses then populates.
    inl_poly::set_cache_enabled(true);
    inl_poly::cache::clear();
    inl_poly::cache::reset_stats();
    let cold = compile_all(&sweeps);
    let after_cold = inl_poly::cache::stats();
    let memo_cold = memo_stats();
    assert_eq!(
        (memo_cold.hits, memo_cold.misses),
        (before_off.hits, before_off.misses + 2),
        "after clear() each program's analysis must miss the memo"
    );
    assert!(
        after_cold.insertions > 0,
        "the sweep must actually exercise the cache"
    );

    // Warm cache: repeated sub-systems across variants now hit.
    let warm = compile_all(&sweeps);
    let after_warm = inl_poly::cache::stats();
    assert!(
        after_warm.hits > after_cold.hits,
        "a second sweep over a warm cache must hit"
    );
    let memo_warm = memo_stats();
    assert_eq!(
        (memo_warm.hits, memo_warm.misses),
        (memo_cold.hits + 2, memo_cold.misses),
        "the second sweep's analyses must hit the memo"
    );

    inl_poly::set_cache_enabled(true);
    for (i, label) in labels.iter().enumerate() {
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
