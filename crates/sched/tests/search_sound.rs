//! Soundness and completeness of the search, checked differentially
//! against a brute-force enumerator that skips nothing.
//!
//! The brute force visits every full-depth leaf of a shape's tree — every
//! loop order under every sign pattern, the `nodes_exhaustive` tree — and
//! decides legality directly on the full row set (`check_prefix` on all
//! rows, then `complete_transform`). It is the only place left that walks
//! both signs of every selector; the scheduler tries a reversed selector
//! only where the forward one is a violation. Against that reference, over
//! the source tree of every zoo program and of every program its
//! `tile(…@16)` label splits (the search itself builds no tile shape):
//!
//! 1. every label the scheduler returns is brute-force legal (no prefix
//!    check fabricated a variant);
//! 2. every brute-force-legal label has a returned label with the same
//!    loop order up to `'` and no more reversals (pruning lost no order,
//!    and a skipped twin always has its less-reversed sibling in the
//!    result);
//! 3. finishing *every* brute-force leaf and sorting on the scheduler's
//!    key — predicted cost, reversals, label — puts first the label the
//!    scheduler ranks first in that shape, with the same code. Nothing
//!    proves the predicted cost sign-blind — this oracle is what says a
//!    skipped twin never wins.
//!
//! A second oracle guards the lazy ranking: the scheduler finishes
//! (simplifies guards of, prints) only the variant it ranks first, and
//! [`lazy_ranking_matches_the_finish_everything_oracle`] checks over the
//! whole zoo that finishing every returned variant and sorting on the same
//! key gives the same order and the same chosen code — and that no finished
//! variant keeps a guard, the premise of a key without one. And every
//! returned variant, in every shape, must run bitwise identically to the
//! source program.
//!
//! A third oracle guards the walk the search carries down its tree
//! ([`PrefixWalk`]): over every shape of every tree, each node's verdict is
//! the one [`check_prefix`] gives the node's whole prefix from the root,
//! and each leaf's completion, read off the walk, is the one
//! [`complete_transform`] makes of the leaf's rows, with the report
//! [`check_legal`] gives its matrix.

use inl_codegen::{batch_map, generate};
use inl_core::complete::{check_prefix, complete_transform, Completion, PrefixCheck, PrefixWalk};
use inl_core::instance::Position;
use inl_core::legal::{check_legal, LegalityReport, NewAst};
use inl_core::recipe::{Recipe, Shape, Step};
use inl_core::tiling;
use inl_exec::run_fresh;
use inl_ir::{zoo, LoopId, Program};
use inl_linalg::{IMat, IVec, InlErrorKind};
use inl_sched::{schedule, ScheduledVariant};
use std::sync::Arc;

/// The programs whose source trees are checked: `p` itself and, where it
/// has a reuse-carrying loop, that loop strip-mined at 16 — the program,
/// layout and analysis of the shape a `tile(…@16)` label names, scheduled
/// as a program of its own, since the search builds no tile shape.
fn trees(p: &Program) -> Vec<Shape> {
    let mut out = vec![Shape::source(p.clone()).expect("analysis")];
    if let Some(l) = tiling::innermost_reuse_loop(p) {
        let split = tiling::split(p, l, 16).expect("split");
        out.push(Shape::source(split.program).expect("analysis"));
    }
    out
}

/// Every legal full-depth leaf of `t`'s tree, found by brute force:
/// enumerate all loop permutations × all sign patterns, check the
/// *complete* row set once, and attempt completion. No prefix pruning, no
/// skipped sign. Returns `(recipe, completed matrix)` pairs.
fn brute_force_legal(t: &Shape) -> Vec<(Recipe, IMat)> {
    let loops: Vec<LoopId> = t
        .program
        .loops()
        .filter(|&l| t.layout.positions().contains(&Position::Loop(l)))
        .collect();
    let mut legal = Vec::new();
    let mut perm: Vec<(usize, bool)> = Vec::new();
    let mut used = vec![false; loops.len()];
    enumerate(t, &loops, &mut perm, &mut used, &mut legal);
    legal
}

fn enumerate(
    t: &Shape,
    loops: &[LoopId],
    perm: &mut Vec<(usize, bool)>,
    used: &mut [bool],
    legal: &mut Vec<(Recipe, IMat)>,
) {
    let Shape {
        program: p,
        layout,
        deps,
    } = t;
    if perm.len() == loops.len() {
        let rows: Vec<IVec> = perm
            .iter()
            .map(|&(i, reversed)| {
                let unit = IVec::unit(layout.len(), layout.loop_position(loops[i]));
                if reversed {
                    -&unit
                } else {
                    unit
                }
            })
            .collect();
        // legality decided on the full row set in one shot — the search
        // must agree without ever looking at most of these leaves
        if check_prefix(p, layout, deps, &rows).expect("check") != PrefixCheck::Legal {
            return;
        }
        let Ok(c) = complete_transform(p, layout, deps, &rows) else {
            return;
        };
        let order = perm
            .iter()
            .map(|&(i, reversed)| (p.loop_decl(loops[i]).name.clone(), reversed))
            .collect();
        let recipe = Recipe { shape: None, order };
        legal.push((recipe, c.matrix));
        return;
    }
    for i in 0..loops.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        for reversed in [false, true] {
            perm.push((i, reversed));
            enumerate(t, loops, perm, used, legal);
            perm.pop();
        }
        used[i] = false;
    }
}

/// The loop order a recipe names, signs dropped.
fn names(r: &Recipe) -> Vec<&str> {
    r.order.iter().map(|(name, _)| name.as_str()).collect()
}

/// Properties 1–3 of the module docs, over the source tree of all 13 zoo
/// programs and of their 7 split programs.
#[test]
fn search_agrees_with_the_full_sign_brute_force() {
    let (mut trees_checked, mut leaves_finished, mut twins_skipped) = (0, 0, 0);
    for &(name, ctor) in zoo::ALL {
        for (tiled, t) in trees(&ctor()).into_iter().enumerate() {
            let at = format!("{name}{}", if tiled == 1 { " split" } else { "" });
            let result = schedule(&t.program).expect("search");
            // the scheduler's variants of the source shape, rank order kept
            let found: Vec<(usize, &Recipe)> = result
                .variants
                .iter()
                .enumerate()
                .filter(|(_, v)| v.recipe.shape.is_none())
                .map(|(i, v)| (i, &v.recipe))
                .collect();
            assert!(!found.is_empty(), "{at}: shape not searched");
            let brute = brute_force_legal(&t);
            trees_checked += 1;
            twins_skipped += brute.len() - found.len();

            for (_, f) in &found {
                assert!(
                    brute.iter().any(|(b, _)| b == *f),
                    "{at}: returned {f}, which the full-row check rejects"
                );
            }
            for (b, _) in &brute {
                assert!(
                    found
                        .iter()
                        .any(|(_, f)| names(f) == names(b) && f.reversals() <= b.reversals()),
                    "{at}: legal {b} has no sibling of at most {} reversal(s) in {found:?}",
                    b.reversals()
                );
            }

            // finish every ± leaf; predicted cost, reversal count, label
            let mut finished: Vec<(i64, usize, String, String)> = batch_map(brute.len(), 0, |i| {
                let (recipe, matrix) = &brute[i];
                let r = generate(&t.program, &t.layout, &t.deps, matrix).expect("generates");
                (
                    r.features.predicted.total(),
                    recipe.reversals(),
                    recipe.to_string(),
                    r.program.to_pseudocode(),
                )
            });
            leaves_finished += finished.len();
            finished.sort();
            let (best, _, best_label, best_code) = &finished[0];
            let (first, first_recipe) = found[0];
            assert_eq!(*best, result.variants[first].predicted.total(), "{at}");
            assert_eq!(
                *best_label,
                first_recipe.to_string(),
                "{at}: a skipped leaf ranks first"
            );
            assert_eq!(
                *best_code,
                result.materialise(first).expect("finishes").pseudocode,
                "{at}: first-ranked code"
            );
        }
    }
    // 13 source trees + the 7 split ones, each held to its exact first;
    // and the reference really is the tree the scheduler no longer walks
    assert_eq!(trees_checked, 20);
    assert!(leaves_finished > 2000, "{leaves_finished} leaves");
    assert!(twins_skipped > 1800, "{twins_skipped} twins");
}

/// One bitwise-equivalence target: constructor + tiny parameters.
type SmallTarget = (fn() -> Program, &'static [i128]);

/// Programs small enough to run every returned variant of.
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

/// Every variant the search returns — every shape, the three reversed
/// ones — is observationally equivalent to the source program.
#[test]
fn search_never_returns_illegal() {
    for &(ctor, params) in SMALL_ZOO {
        let p = ctor();
        let result = schedule(&p).expect("search");
        let reference = run_fresh(&p, params, &zoo::spd_init);
        // all of them, not just the finished pick
        for v in result.materialise_all(0).expect("finishes") {
            let m = run_fresh(&v.program, params, &zoo::spd_init);
            assert!(
                reference.same_state(&m).is_ok(),
                "variant {} of {} diverged from the source program",
                v.label,
                p.name()
            );
        }
    }
}

/// The compile-everything order, kept only as this oracle: finish every
/// variant the scheduler returned for every zoo program and sort on the
/// finished predicted cost, then reversal count, then label. The lazy
/// ranking must agree on everything a caller can observe: the chosen label,
/// the chosen pseudocode, the whole `legal` order, and each ranked
/// predicted cost (read before guard simplification) equal to the finished
/// one. The key has no guard term because no finished variant keeps a
/// guard; that is checked here too.
#[test]
fn lazy_ranking_matches_the_finish_everything_oracle() {
    let mut finished_everything = 0;
    for &(name, ctor) in zoo::ALL {
        let result = schedule(&ctor()).expect("search");
        let mut oracle = result
            .materialise_all(0)
            .expect("every legal variant finishes");
        finished_everything += oracle.len();
        for v in &oracle {
            assert_eq!(
                v.features.guards, 0,
                "{name} {}: a guard survives simplification, so the predicted cost would \
                 need a guard term (a guarded kernel body runs on the dispatcher)",
                v.label
            );
        }
        oracle.sort_by(|a, b| {
            let key = |v: &ScheduledVariant| (v.features.predicted.total(), v.recipe.reversals());
            (key(a), &a.label).cmp(&(key(b), &b.label))
        });

        let chosen = result.chosen();
        assert_eq!(oracle[0].label, chosen.label, "{name}: chosen label");
        assert_eq!(
            oracle[0].pseudocode, chosen.pseudocode,
            "{name}: chosen code"
        );
        let order: Vec<&str> = oracle.iter().map(|v| v.label.as_str()).collect();
        assert_eq!(order, result.legal, "{name}: rank order");
        for (ranked, v) in result.variants.iter().zip(&oracle) {
            assert_eq!(ranked.predicted, v.features.predicted, "{name} {}", v.label);
        }
    }
    assert_eq!(finished_everything, 81, "one variant per sign class");
}

/// `t` and every legal one-level distribution and jam of it: the shapes
/// the scheduler searches for `t`'s program.
fn shapes(t: Shape) -> Vec<Shape> {
    let mut out = vec![];
    for step in Step::candidates(&t.program) {
        match t.apply(&step) {
            Ok(Some(shape)) => out.push(shape),
            Ok(None) => {}
            Err(e) if e.kind() == InlErrorKind::InvalidTarget => {}
            Err(e) => panic!("{step}: {e:?}"),
        }
    }
    out.insert(0, t);
    out
}

/// What [`walk_agrees`] checked.
#[derive(Default)]
struct Walked {
    nodes: usize,
    leaves: usize,
    /// Distinct ASTs the leaves of one shape hold, summed over shapes.
    asts: usize,
}

/// The recovered AST of a legal report.
fn ast(r: &LegalityReport) -> &Arc<NewAst> {
    r.new_ast.as_ref().expect("a legal report recovers its AST")
}

/// Every node below the walk's prefix whose prefix is legal, with both
/// signs of every selector (a superset of the nodes the search visits):
/// the carried verdict against [`check_prefix`] from the root and, at a
/// full-depth leaf, the walk's completion against [`complete_transform`]'s
/// and [`check_legal`]'s.
fn walk_agrees(
    s: &Shape,
    walk: &mut PrefixWalk<'_>,
    slots: &[usize],
    used: &mut [bool],
    asts: &mut Vec<Arc<NewAst>>,
    seen: &mut Walked,
) {
    let (p, layout, deps) = (&s.program, &s.layout, &s.deps);
    for i in 0..slots.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        for reversed in [false, true] {
            let unit = IVec::unit(layout.len(), slots[i]);
            let row = if reversed { -&unit } else { unit };
            let mut rows = walk.rows().to_vec();
            rows.push(row.clone());
            let from_root = check_prefix(p, layout, deps, &rows).expect("prefix");
            seen.nodes += 1;
            assert_eq!(walk.push(row).expect("push"), from_root, "{rows:?}");
            if from_root != PrefixCheck::Legal {
                continue;
            }
            if rows.len() == slots.len() {
                seen.leaves += 1;
                let carried = walk.complete();
                let rooted = complete_transform(p, layout, deps, &rows);
                match (carried, rooted) {
                    (Ok(c), Ok(r)) => {
                        completions_agree(s, &c, &r);
                        let shared = ast(&c.report);
                        if !asts.iter().any(|a| Arc::ptr_eq(a, shared)) {
                            asts.push(Arc::clone(shared));
                        }
                    }
                    (Err(c), Err(r)) => assert_eq!(c.message(), r.message(), "{rows:?}"),
                    (c, r) => panic!("{rows:?}: walk {:?}, from the root {:?}", c.err(), r.err()),
                }
            } else {
                walk_agrees(s, walk, slots, used, asts, seen);
            }
            walk.pop();
        }
        used[i] = false;
    }
}

/// The walk's completion `c` is `complete_transform`'s `r`, and both
/// reports are what `check_legal` finds for the matrix: the same child
/// permutations and reordered program, no violation, the same
/// self-dependences left to augmentation.
fn completions_agree(s: &Shape, c: &Completion, r: &Completion) {
    let m = &c.matrix;
    assert_eq!(*m, r.matrix);
    let checked = check_legal(&s.program, &s.layout, &s.deps, m).expect("legality");
    for report in [&c.report, &r.report, &checked] {
        assert!(report.is_legal(), "{m:?}: {:?}", report.violations);
        assert_eq!(report.unsatisfied_self, c.report.unsatisfied_self, "{m:?}");
        let (want, got) = (ast(report), ast(&c.report));
        assert_eq!(want.child_perms, got.child_perms, "{m:?}");
        assert_eq!(want.layout.positions(), got.layout.positions(), "{m:?}");
        assert_eq!(
            want.program.to_pseudocode(),
            got.program.to_pseudocode(),
            "{m:?}"
        );
    }
}

/// The third oracle of the module docs, over every shape of the 13 zoo
/// trees and of the 7 split trees.
#[test]
fn the_carried_walk_agrees_with_the_walk_from_the_root() {
    let mut seen = Walked::default();
    for &(name, ctor) in zoo::ALL {
        for t in trees(&ctor()) {
            for s in shapes(t) {
                let slots: Vec<usize> = s.layout.loops().map(|(pos, _)| pos).collect();
                let mut walk = PrefixWalk::new(&s.program, &s.layout, &s.deps);
                let mut used = vec![false; slots.len()];
                let mut asts = Vec::new();
                walk_agrees(&s, &mut walk, &slots, &mut used, &mut asts, &mut seen);
                assert!(walk.rows().is_empty(), "{name}: every push popped");
                seen.asts += asts.len();
            }
        }
    }
    // the leaves of a shape share few child orders, so few ASTs
    assert_eq!((seen.nodes, seen.leaves, seen.asts), (4504, 2429, 37));
}
