//! Soundness and completeness of the pruned search, checked differentially
//! against a brute-force enumerator that never prunes.
//!
//! The brute force visits every full-depth permutation×reversal leaf of
//! the identity shape's tree and decides legality directly on the full
//! row set (`check_prefix` on all rows, then `complete_transform`). The
//! pruned search must return *exactly* the same set of legal variant
//! labels: missing one means a `check_prefix` violation killed a subtree
//! that still contained a legal leaf (unsound pruning); an extra one
//! means the search fabricated a variant the full-row check rejects.
//! On top of the label differential, every returned variant must be
//! observationally equivalent to the source program.
//!
//! A second differential guards the two-stage ranking: the scheduler
//! finishes (simplifies guards of, prints) only the variants tied at the
//! front on the leading cost fields, and [`lazy_ranking_matches_the_finish_everything_oracle`]
//! checks over the whole zoo that finishing *every* variant and sorting on
//! the full key would have chosen the same code.

use inl_core::complete::{check_prefix, complete_transform, PrefixCheck};
use inl_core::depend::analyze;
use inl_core::instance::{InstanceLayout, Position};
use inl_exec::run_fresh;
use inl_ir::{zoo, LoopId, Program};
use inl_linalg::IVec;
use inl_sched::{schedule_with, SchedConfig};
use proptest::prelude::*;

/// One differential target: constructor + tiny parameters for the
/// bitwise equivalence check.
type SmallTarget = (fn() -> Program, &'static [i128]);

/// Programs small enough that the exhaustive tree stays a few hundred
/// nodes (≤ 4 loops).
const SMALL_ZOO: &[SmallTarget] = &[
    (zoo::simple_cholesky, &[8]),
    (zoo::running_example, &[8]),
    (zoo::perfect_nest, &[8]),
    (zoo::cholesky_kij, &[8]),
    (zoo::wavefront, &[8]),
    (zoo::matmul, &[5]),
    (zoo::row_prefix_sums, &[8]),
    (zoo::independent_pair, &[8]),
];

/// Every legal full-depth variant label of `p`'s identity shape, found by
/// brute force: enumerate all loop permutations × sign patterns, check the
/// *complete* row set once, and attempt completion. No prefix pruning.
fn brute_force_legal(p: &Program, reversal: bool) -> Vec<String> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    let loops: Vec<LoopId> = p
        .loops()
        .filter(|&l| layout.positions().contains(&Position::Loop(l)))
        .collect();
    let signs: &[i64] = if reversal { &[1, -1] } else { &[1] };

    let mut legal = Vec::new();
    let mut perm: Vec<(usize, i64)> = Vec::new();
    let mut used = vec![false; loops.len()];
    enumerate(
        p, &layout, &deps, &loops, signs, &mut perm, &mut used, &mut legal,
    );
    legal.sort();
    legal
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    p: &Program,
    layout: &InstanceLayout,
    deps: &inl_core::depend::DependenceMatrix,
    loops: &[LoopId],
    signs: &[i64],
    perm: &mut Vec<(usize, i64)>,
    used: &mut [bool],
    legal: &mut Vec<String>,
) {
    if perm.len() == loops.len() {
        let rows: Vec<IVec> = perm
            .iter()
            .map(|&(i, sign)| {
                let unit = IVec::unit(layout.len(), layout.loop_position(loops[i]));
                if sign >= 0 {
                    unit
                } else {
                    -&unit
                }
            })
            .collect();
        // legality decided on the full row set in one shot — the pruned
        // search must agree without ever looking at most of these leaves
        if !matches!(
            check_prefix(p, layout, deps, &rows).expect("check"),
            PrefixCheck::Legal
        ) {
            return;
        }
        if complete_transform(p, layout, deps, &rows).is_err() {
            return;
        }
        let names: Vec<String> = perm
            .iter()
            .map(|&(i, sign)| {
                format!(
                    "{}{}",
                    p.loop_decl(loops[i]).name,
                    if sign < 0 { "'" } else { "" }
                )
            })
            .collect();
        legal.push(
            if names.iter().all(|s| s.trim_end_matches('\'').len() == 1) {
                names.concat()
            } else {
                names.join(".")
            },
        );
        return;
    }
    for i in 0..loops.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        for &sign in signs {
            perm.push((i, sign));
            enumerate(p, layout, deps, loops, signs, perm, used, legal);
            perm.pop();
        }
        used[i] = false;
    }
}

/// Identity-shape search config (the differential is per-tree; the shape
/// axis is exercised separately below).
fn tree_cfg(reversal: bool) -> SchedConfig {
    SchedConfig {
        reversal,
        shapes: false,
        tile: false,
        align: false,
        threads: 1,
        measure_reps: 1,
        ..SchedConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The pruned search finds exactly the brute-force legal set — no
    /// legal variant lost to pruning, no illegal variant returned.
    #[test]
    fn pruned_search_matches_brute_force(
        which in 0usize..SMALL_ZOO.len(),
        reversal in prop::bool::ANY,
    ) {
        let (ctor, _) = SMALL_ZOO[which];
        let p = ctor();
        let expected = brute_force_legal(&p, reversal);
        let result = schedule_with(&p, &tree_cfg(reversal)).expect("search");
        let mut found = result.legal.clone();
        found.sort();
        prop_assert_eq!(
            &found, &expected,
            "legal-set mismatch for {} (reversal={})", p.name(), reversal
        );
        // and the search genuinely skipped work whenever anything was pruned
        prop_assert!(result.stats.nodes_visited <= result.stats.nodes_exhaustive);
        if result.stats.pruned_subtrees > 0 {
            prop_assert!(result.stats.nodes_visited < result.stats.nodes_exhaustive);
        }
    }

    /// Every variant the full search (shapes + alignment on) returns is
    /// observationally equivalent to the source program.
    #[test]
    fn search_never_returns_illegal(which in 0usize..SMALL_ZOO.len()) {
        let (ctor, params) = SMALL_ZOO[which];
        let p = ctor();
        let cfg = SchedConfig { threads: 1, ..SchedConfig::default() };
        let result = schedule_with(&p, &cfg).expect("search");
        let reference = run_fresh(&p, params, &zoo::spd_init);
        // all of them, not just the finished front class
        for i in 0..result.variants.len() {
            let v = result.materialise(i).expect("finishes");
            let m = run_fresh(&v.program, params, &zoo::spd_init);
            prop_assert!(
                reference.same_state(&m).is_ok(),
                "variant {} of {} diverged from the source program",
                v.label, p.name()
            );
        }
    }
}

/// The compile-everything order, kept only as this oracle: finish every
/// legal variant of every zoo program (default axes), sort on the full
/// five-field `Cost`, then reversal count, then label — what
/// `schedule_with` did before it ranked on the leading fields first. The
/// lazy ranking must agree on everything a caller can observe: the chosen
/// label, the chosen pseudocode, the order over the front class, and the
/// leading key at every rank (the ranked value, read before guard
/// simplification, is the finished value).
///
/// No zoo program adopts an alignment; where one did, `variants[0]` would
/// be the aligned variant, whose strictly improved cost still sorts first.
#[test]
fn lazy_ranking_matches_the_finish_everything_oracle() {
    let cfg = SchedConfig::default();
    let mut finished_everything = 0;
    for &(name, ctor) in zoo::ALL {
        let result = schedule_with(&ctor(), &cfg).expect("search");
        let mut oracle = result
            .materialise_all(0)
            .expect("every legal variant finishes");
        finished_everything += oracle.len();
        let reversals = |label: &str| label.matches('\'').count();
        oracle.sort_by(|a, b| {
            (&a.cost, reversals(&a.label), &a.label).cmp(&(&b.cost, reversals(&b.label), &b.label))
        });

        let chosen = result.chosen();
        assert_eq!(oracle[0].label, chosen.label, "{name}: chosen label");
        assert_eq!(
            oracle[0].pseudocode, chosen.pseudocode,
            "{name}: chosen code"
        );
        let front = result.finished();
        assert!(front >= 1, "{name}: the chosen variant is finished");
        let oracle_front: Vec<&str> = oracle[..front].iter().map(|v| v.label.as_str()).collect();
        assert_eq!(oracle_front, result.legal[..front], "{name}: front class");
        let oracle_leading: Vec<_> = oracle.iter().map(|v| v.cost.leading).collect();
        let lazy_leading: Vec<_> = result.variants.iter().map(|v| v.leading).collect();
        assert_eq!(oracle_leading, lazy_leading, "{name}: leading key by rank");
        assert!(
            result.variants[front..].iter().all(|v| v.cost.is_none()),
            "{name}: a variant behind the front class exposes a full key"
        );
    }
    assert!(finished_everything > 2000, "{finished_everything} variants");
}

/// The pruned search stays exact on a strip-mined program: split matmul's
/// reuse-carrying K loop and re-run the label differential. This proves
/// the non-unimodular clamp bounds a split introduces do not confuse the
/// prefix pruning — the pruned set over the 4-deep split nest equals the
/// brute-force legal set.
#[test]
fn tiled_search_matches_brute_force_on_split_program() {
    let p = zoo::matmul();
    let l = inl_core::tiling::innermost_reuse_loop(&p).expect("matmul carries reuse on K");
    let r = inl_core::tiling::split(&p, l, 4).expect("split");
    assert!(inl_core::tiling::split_legal(&r)
        .expect("legality")
        .is_legal());
    let expected = brute_force_legal(&r.program, false);
    assert!(
        !expected.is_empty(),
        "split program must keep legal variants"
    );
    let result = schedule_with(&r.program, &tree_cfg(false)).expect("search");
    let mut found = result.legal.clone();
    found.sort();
    assert_eq!(found, expected, "legal-set mismatch on the split program");
    assert!(result.stats.nodes_visited <= result.stats.nodes_exhaustive);
}

/// Deterministic spot-check that the differential actually bites: the
/// Cholesky tree must prune at least one subtree while agreeing with
/// brute force (proves the prefix test fires on interior nodes, not just
/// at leaves).
#[test]
fn cholesky_differential_prunes_interior_nodes() {
    let p = zoo::simple_cholesky();
    let expected = brute_force_legal(&p, true);
    assert!(!expected.is_empty());
    let result = schedule_with(&p, &tree_cfg(true)).expect("search");
    let mut found = result.legal.clone();
    found.sort();
    assert_eq!(found, expected);
    assert!(result.stats.pruned_subtrees > 0, "nothing was pruned");
    assert!(result.stats.nodes_visited < result.stats.nodes_exhaustive);
}
