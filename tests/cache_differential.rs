//! Differential test for the compile side's memos and their switch: the
//! analysis memo and the plan memo. Generated code must be bitwise
//! identical with the memos off, cold, and warm.
//!
//! `analyze` is memoised on the program and its layout, a statement plan
//! on the program, its layout and the plan's key, and every
//! Fourier–Motzkin query is a function of the canonical system, so the
//! switch cannot change what the pipeline produces — only how fast it
//! produces it. The twelve legal Cholesky loop-order variants exercise
//! feasibility through dependence analysis, legality and completion;
//! their plans are difference systems, which codegen projects and scans
//! on rows. The legal orders of Cholesky with `L` strip-mined at 16
//! (`tile(L@16)/…`) carry the split's `L = 16·Lo + l` row, which only
//! elimination takes. Each sweep asks for one dependence analysis per
//! program and one plan per statement of each variant, and compares what
//! `generate` returns in full: pseudocode, statement map and cost features.
//! The zoo's schedules, ranked on the plans a `PlanTable` gets through the
//! memo, rank the same labels at the same predicted costs either way. The
//! guard memo, whose verdicts are proved against a leaf's merged bounds,
//! is held to the same on leaves whose guards survive the proof.

use inl_codegen::{generate, guard_memo_stats, plan_memo_stats, CostFeatures, PredictedCost};
use inl_core::complete::complete_transform;
use inl_core::depend::{analyze, memo_stats};
use inl_core::instance::InstanceLayout;
use inl_core::recipe::Recipe;
use inl_core::tiling;
use inl_core::transform::Transform;
use inl_ir::{zoo, Guard, Program, StmtId};
use inl_linalg::{permutations, IMat};
use std::sync::Mutex;

/// The memo switch is process-global; tests flipping it must serialize.
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

/// What `generate` returns for one variant, but the program itself: its
/// pseudocode, statement map and cost features.
type Generated = (String, Vec<StmtId>, CostFeatures);

/// Run the full pipeline over every variant of every sweep and return what
/// each generates, in sweep and variant order.
fn compile_all(sweeps: &[(Program, Vec<(String, IMat)>)]) -> Vec<Generated> {
    let mut out = Vec::new();
    for (p, variants) in sweeps {
        let layout = InstanceLayout::new(p);
        let deps = analyze(p, &layout).expect("analysis");
        for (label, m) in variants {
            let r = generate(p, &layout, &deps, m)
                .unwrap_or_else(|e| panic!("variant {label} failed to generate: {e:?}"));
            out.push((r.program.to_pseudocode(), r.stmt_map, r.features));
        }
    }
    out
}

#[test]
fn all_cholesky_variants_identical_with_cache_on_and_off() {
    let _l = CACHE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
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
    // one plan asked for per statement of every variant
    let plans_asked: u64 = sweeps
        .iter()
        .map(|(p, v)| (p.stmts().count() * v.len()) as u64)
        .sum();

    // Ground truth: the memos switched off.
    inl_poly::set_cache_enabled(false);
    inl_poly::cache::clear();
    let (before_off, plans_off) = (memo_stats(), plan_memo_stats());
    let uncached = compile_all(&sweeps);
    assert_eq!(
        (memo_stats(), plan_memo_stats()),
        (before_off, plans_off),
        "with the switch off both memos are bypassed"
    );

    // Cold memos: each program's analysis misses, then is stored; each
    // distinct plan misses once.
    inl_poly::set_cache_enabled(true);
    inl_poly::cache::clear();
    let cold = compile_all(&sweeps);
    let (memo_cold, plans_cold) = (memo_stats(), plan_memo_stats());
    assert_eq!(
        (memo_cold.hits, memo_cold.misses),
        (before_off.hits, before_off.misses + 2),
        "after clear() each program's analysis must miss the memo"
    );
    let made = plans_cold.misses - plans_off.misses;
    assert_eq!(made + plans_cold.hits - plans_off.hits, plans_asked);
    assert_eq!(plans_cold.entries, made, "every plan made is stored");
    assert!(made < plans_asked, "variants share plans: {made} made");

    // Warm memos: the same sweep again.
    let warm = compile_all(&sweeps);
    let (memo_warm, plans_warm) = (memo_stats(), plan_memo_stats());
    assert_eq!(
        (memo_warm.hits, memo_warm.misses),
        (memo_cold.hits + 2, memo_cold.misses),
        "the second sweep's analyses must hit the memo"
    );
    assert_eq!(
        (plans_warm.hits, plans_warm.misses),
        (plans_cold.hits + plans_asked, plans_cold.misses),
        "the second sweep makes no plan"
    );

    for (i, label) in labels.iter().enumerate() {
        assert_eq!(
            uncached[i], cold[i],
            "variant {label}: a cold memo changed what was generated"
        );
        assert_eq!(
            uncached[i], warm[i],
            "variant {label}: a warm memo changed what was generated"
        );
    }
}

/// Every zoo program's ranked labels with their predicted costs.
fn ranked_zoo() -> Vec<Vec<(String, PredictedCost)>> {
    zoo::ALL
        .iter()
        .map(|(name, build)| {
            let r = inl_sched::schedule_with(&build(), &inl_sched::SchedConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            let ranked = r.variants.into_iter();
            ranked.map(|v| (v.label, v.predicted)).collect()
        })
        .collect()
}

#[test]
fn zoo_rankings_identical_with_the_memos_off_cold_and_warm() {
    let _l = CACHE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    inl_poly::set_cache_enabled(false);
    let uncached = ranked_zoo();
    inl_poly::set_cache_enabled(true);
    inl_poly::cache::clear();
    let cold = ranked_zoo();
    let made = plan_memo_stats();
    let warm = ranked_zoo();
    assert_eq!(
        plan_memo_stats().misses,
        made.misses,
        "a warm ranking makes no plan"
    );
    for (i, (name, _)) in zoo::ALL.iter().enumerate() {
        assert_eq!(
            uncached[i], cold[i],
            "{name}: a cold memo changed the ranking"
        );
        assert_eq!(
            uncached[i], warm[i],
            "{name}: a warm memo changed the ranking"
        );
    }
}

/// Leaves whose guards survive the proof: the §5.5 skew of the
/// augmentation example, which pins its `S1` to one value of the outer
/// loop, and `independent_pair` scaled by 2, whose recovered index needs a
/// divisibility guard.
fn guarded_leaves() -> Vec<(Program, IMat)> {
    let aug = zoo::augmentation_example();
    let named = |p: &Program, name: &str| {
        let found = p.loops().find(|&l| p.loop_decl(l).name == name);
        found.expect("a loop of that name")
    };
    let skew = Transform::Skew {
        target: named(&aug, "I"),
        source: named(&aug, "J"),
        factor: -1,
    };
    let pair = zoo::independent_pair();
    let scale = Transform::Scale {
        target: named(&pair, "I"),
        factor: 2,
    };
    [(aug, skew), (pair, scale)]
        .into_iter()
        .map(|(p, t)| {
            let layout = InstanceLayout::new(&p);
            let m = Transform::compose(&p, &layout, &[t]).expect("composes");
            (p, m)
        })
        .collect()
}

/// What `generate` returns for each leaf but the program itself, and the
/// guards it kept.
fn compile_guarded(leaves: &[(Program, IMat)]) -> Vec<(Generated, Vec<Vec<Guard>>)> {
    leaves
        .iter()
        .map(|(p, m)| {
            let layout = InstanceLayout::new(p);
            let deps = analyze(p, &layout).expect("analysis");
            let r = generate(p, &layout, &deps, m).expect("generates");
            let t = &r.program;
            let guards = t.stmts().map(|s| t.stmt_decl(s).guards.clone()).collect();
            ((t.to_pseudocode(), r.stmt_map, r.features), guards)
        })
        .collect()
}

#[test]
fn surviving_guards_identical_with_the_memos_off_cold_and_warm() {
    let _l = CACHE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let leaves = guarded_leaves();
    let asked: u64 = leaves.iter().map(|(p, _)| p.stmts().count() as u64).sum();
    inl_poly::set_cache_enabled(false);
    let off = guard_memo_stats();
    let uncached = compile_guarded(&leaves);
    assert_eq!(
        guard_memo_stats(),
        off,
        "the switch bypasses the guard memo"
    );
    inl_poly::set_cache_enabled(true);
    inl_poly::cache::clear();
    let cold = compile_guarded(&leaves);
    let made = guard_memo_stats();
    assert_eq!(made.misses - off.misses, asked, "one proof a statement");
    let warm = compile_guarded(&leaves);
    let found = guard_memo_stats();
    assert_eq!(
        (found.hits - made.hits, found.misses),
        (asked, made.misses),
        "a warm build proves nothing"
    );
    for (i, ((code, _, features), _)) in uncached.iter().enumerate() {
        assert!(features.guards > 0, "leaf {i} keeps a guard:\n{code}");
        assert_eq!(
            uncached[i], cold[i],
            "leaf {i}: a cold memo changed the code"
        );
        assert_eq!(
            uncached[i], warm[i],
            "leaf {i}: a warm memo changed the code"
        );
    }
}
