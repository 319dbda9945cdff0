//! # inl-sched
//!
//! The auto-scheduler: given a program, *search* the legal transformation
//! space and *choose* a variant — the step the paper's framework stops
//! short of. Where `inl-core` can prove that a transformation is legal,
//! this crate decides which legal transformation to use.
//!
//! The search space is the product of two axes, neither of them a switch
//! ([`SchedConfig`] says how much a schedule may spend, not what it
//! searches):
//!
//! * **shape** — legal one-level loop distributions and fusions (§4.2),
//!   each producing a structurally different program;
//! * **permutation** — the order in which loop selector rows fill the
//!   outer slots of the transformation matrix;
//!
//! with two things worked out instead of enumerated: statement reordering
//! (the edge rows), supplied by the completion procedure's topological
//! sort, and **reversal** (§4.1, a selector row entering negated), tried
//! for a loop only at a node where its forward selector is illegal. Where
//! both signs are prefix-legal every still-active dependence is zero on
//! that loop and the two subtrees are sign-twins — same orders, same
//! completions, the same predicted cost — of which the tie-break prefers
//! the unreversed; orders legal *only* reversed (`dist(J@1)/J'.J_2.I` of the
//! running example) are still found.
//!
//! Tiling is outside the search: at the one nominal extent no tiled leaf
//! can win, so a split is reached only through a `tile(…)` label.
//!
//! Illegal *prefixes* are pruned on a [`inl_core::complete::PrefixWalk`]
//! carried down each shape's tree, whose verdict at a node is
//! [`inl_core::complete::check_prefix`]'s for the node's whole prefix: the
//! first dependence whose projection goes lexicographically negative kills
//! the entire subtree. A node costs one step of the dependences still
//! active, and a leaf's completion and legality report are read off the
//! walk — its matrix is not checked again.
//! The two rules account for all of the `Σ_d P(L,d)·2^d` exhaustive tree:
//! `nodes_visited + pruned_nodes + twin_nodes == nodes_exhaustive`
//! ([`SearchStats`]).
//!
//! What a schedule costs is **one dependence analysis**, of the source,
//! and **one guard simplification**:
//!
//! * the dependence matrix is a property of the shape's *program*, not of
//!   a candidate. The source is analysed once; each other shape's matrix
//!   is built from the source's when the shape is enumerated
//!   ([`inl_core::recipe::Shape::apply`]: only the statement pairs its step
//!   joins or separates are analysed). The search, the per-leaf lowering
//!   and [`ScheduleResult::materialise`] all test their matrices against
//!   that one matrix per shape;
//! * the one ranking key is `(predicted cost, reversals, label)`. The
//!   predicted cost ([`inl_codegen::PredictedCost`]) reads only loop
//!   bounds, subscripts and nesting of the generated program, the matrix
//!   and the shape's dependences — nothing guard simplification rewrites —
//!   and all of those are known before a program is built: each statement's
//!   plan (schedule, scanned bounds, body through `N_S⁻¹`) and the merged
//!   bounds of the loops statements share. So every legal leaf is
//!   **ranked** on the key read off its plans ([`inl_codegen::PlanTable`],
//!   one per shape, which makes each distinct statement plan once), and
//!   only the first is **built** and **finished**, from the plans it was
//!   ranked on ([`inl_codegen::PlanTable::generate`]: emission, guard
//!   simplification, pseudocode; no plan made again). The chosen variant is the one a finish-everything sort
//!   would pick, skipped twins included (the predicted cost is not
//!   provably sign-blind: `tests/search_sound.rs` holds that oracle over
//!   the whole zoo); the other variants keep what was computed for them
//!   and are finished on demand.
//!
//! Every decision (pruned subtree, variant ranked behind, chosen variant) is
//! recorded as `inl_obs::explain` evidence under a `sched/<program>`
//! session, so `inl-explain query` can answer *why this order*.
//!
//! ```
//! use inl_ir::zoo;
//!
//! let result = inl_sched::schedule(&zoo::cholesky_kij()).expect("schedules");
//! // pruning beat brute force, and something legal was chosen
//! assert!(result.stats.nodes_visited < result.stats.nodes_exhaustive);
//! assert!(result.stats.pruned_subtrees > 0);
//! assert!(result.legal.contains(&result.chosen().label));
//! println!("chosen: {}", result.chosen().label);
//! ```

#![warn(missing_docs)]

mod search;
pub mod sweep;

pub use search::SearchStats;

use inl_codegen::{batch_map, generate, CodegenResult, CostFeatures, PlanTable, PredictedCost};
use inl_core::complete::Completion;
use inl_core::recipe::Recipe;
use inl_ir::Program;
use inl_linalg::{IMat, InlError, InlErrorKind};
use inl_obs::explain::RecordBuilder;

/// How much a schedule may spend — what it searches is not configurable.
/// The environment never enters: callers move a default by building the
/// struct (`inl-sched` maps `--budget` onto it).
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Maximum search-tree nodes to visit across all shapes (default
    /// 10 000). The search stops early — keeping what it found — when the
    /// budget is exhausted.
    pub budget: u64,
    /// Worker threads for ranking the candidates (default 0 = one per
    /// core; 1 = everything on the calling thread).
    pub threads: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            budget: 10_000,
            threads: 0,
        }
    }
}

/// One legal variant, finished: generated, guards simplified, printed.
#[derive(Clone, Debug)]
pub struct ScheduledVariant {
    /// The rendered recipe: optional shape prefix, loop order with `'`
    /// marking reversed loops — e.g. `"dist(K@1)/KJ'LI"`.
    pub label: String,
    /// The variant's shape step and signed loop order.
    pub recipe: Recipe,
    /// The completed transformation matrix over the shape's program.
    pub matrix: IMat,
    /// The generated program (runnable through `inl-exec`).
    pub program: Program,
    /// Pseudocode of the generated program.
    pub pseudocode: String,
    /// The variant's static cost features.
    pub features: CostFeatures,
}

/// One legal variant as the ranking left it: what was computed for it and
/// nothing more. [`ScheduleResult::materialise`] finishes it.
#[derive(Clone, Debug)]
pub struct RankedVariant {
    /// The rendered recipe (see [`ScheduledVariant::label`]).
    pub label: String,
    /// The variant's shape step and signed loop order.
    pub recipe: Recipe,
    /// Index of the variant's shape in the result's shapes.
    shape: usize,
    /// The completed transformation matrix over the shape's program.
    pub matrix: IMat,
    /// The predicted cost every leaf is ranked on, with its terms.
    pub predicted: PredictedCost,
}

impl RankedVariant {
    /// The ranking key: predicted cost, then reversed loops (a reversal
    /// buys nothing when the cost is identical), then label.
    fn key(&self) -> (i64, usize, &str) {
        (self.predicted.total(), self.recipe.reversals(), &self.label)
    }
}

/// The outcome of a [`schedule`] run.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    chosen: ScheduledVariant,
    shapes: Vec<search::StepShape>,
    /// Every legal variant in rank order, best first (`variants[0]` is the
    /// chosen one): by predicted cost, then reversal count, then label.
    pub variants: Vec<RankedVariant>,
    /// Search counters (deterministic; CI-gated).
    pub stats: SearchStats,
    /// Labels of all legal variants in rank order (convenience mirror of
    /// `variants`).
    pub legal: Vec<String>,
}

impl ScheduleResult {
    /// The chosen (cost-minimal) variant, fully materialised.
    pub fn chosen(&self) -> &ScheduledVariant {
        &self.chosen
    }

    /// Finish `variants[i]` — generate, simplify guards, print — against
    /// its shape's stored analysis. For callers that execute or measure
    /// every variant, not just the chosen one.
    pub fn materialise(&self, i: usize) -> Result<ScheduledVariant, InlError> {
        finish(&self.shapes, &self.variants[i])
    }

    /// [`materialise`](Self::materialise) every variant, in rank order, on
    /// `threads` workers (as [`SchedConfig::threads`]).
    pub fn materialise_all(&self, threads: usize) -> Result<Vec<ScheduledVariant>, InlError> {
        batch_map(self.variants.len(), threads, |i| self.materialise(i))
            .into_iter()
            .collect()
    }
}

/// The second stage for one variant: the whole of [`generate`] plus
/// pseudocode, against the variant's shape.
fn finish(shapes: &[search::StepShape], v: &RankedVariant) -> Result<ScheduledVariant, InlError> {
    let (_, shape) = &shapes[v.shape];
    finished(
        v,
        generate(&shape.program, &shape.layout, &shape.deps, &v.matrix),
    )
}

/// The variant `v` from what building it returned, printed.
fn finished(
    v: &RankedVariant,
    built: Result<CodegenResult, InlError>,
) -> Result<ScheduledVariant, InlError> {
    let r = built.map_err(|e| in_variant(&v.label, e))?;
    Ok(ScheduledVariant {
        label: v.label.clone(),
        recipe: v.recipe.clone(),
        matrix: v.matrix.clone(),
        pseudocode: r.program.to_pseudocode(),
        program: r.program,
        features: r.features,
    })
}

/// `e`, of its own kind, with `variant {label}: ` before its message.
fn in_variant(label: &str, e: InlError) -> InlError {
    InlError::new(e.kind(), format!("variant {label}: {}", e.message()))
}

/// An explain record with the predicted cost's terms as features and, as
/// its `predicted` detail, the terms and the hottest innermost loop:
/// `cost=… trips=… entries=… nest=…; hottest loop: columns, 64 trips x
/// 4096 entries`.
fn with_cost(record: RecordBuilder, p: &PredictedCost) -> RecordBuilder {
    let detail = match p.hottest() {
        Some(h) => format!(
            "{p}; hottest loop: {}, {} trips x {} entries",
            h.executor.name(),
            h.trips,
            h.entries
        ),
        None => p.to_string(),
    };
    record
        .detail("predicted", detail)
        .feature("predicted_cost", p.total())
        .feature("trip_cost", p.trip_cost)
        .feature("entry_cost", p.entry_cost)
        .feature("nest_cost", p.nest_cost)
}

/// Search the transformation space of `p` with the default configuration
/// and return every legal variant, best first. See the crate docs for the
/// search structure.
pub fn schedule(p: &Program) -> Result<ScheduleResult, InlError> {
    schedule_with(p, &SchedConfig::default())
}

/// [`schedule`] with an explicit configuration. A leaf whose plans fail as
/// `Unsupported` is dropped; any other failure fails the schedule, naming
/// the leaf's label, and no leaf left is `Infeasible`.
pub fn schedule_with(p: &Program, cfg: &SchedConfig) -> Result<ScheduleResult, InlError> {
    let _span = inl_obs::span("sched.schedule");
    inl_obs::counter_add!("sched.programs", 1);
    let explain = inl_obs::explain_enabled();
    if explain {
        inl_obs::explain::begin_session(&format!("sched/{}", p.name()));
    }

    let mut stats = SearchStats::default();
    let shapes = search::enumerate_shapes(p)?;
    stats.shapes = shapes.len() as u64;

    // the legal leaves of every shape's tree, each with its shape's index
    let mut leaves: Vec<(usize, Recipe, Completion)> = Vec::new();
    for (s, shape) in shapes.iter().enumerate() {
        for (recipe, completion) in search::search_shape(shape, cfg.budget, &mut stats)? {
            leaves.push((s, recipe, completion));
        }
    }

    // stage 1: rank every leaf on the predicted cost, read off its
    // statements' plans without building it. A plan depends on the leaf
    // only through its key, so each shape's table makes each distinct plan
    // once, for whichever leaf needs it first; the completion already
    // proved every matrix legal. Stage 2 builds the pick alone from the
    // plans it was ranked on; the rest are finished on demand
    let (chosen, variants) = {
        let rank_span = inl_obs::span("sched.rank");
        inl_obs::counter_add!("sched.variants_ranked", leaves.len());
        let mut tables: Vec<PlanTable> = shapes
            .iter()
            .map(|(_, shape)| PlanTable::new(&shape.program, &shape.layout, &shape.deps))
            .collect();
        let plans: Vec<Vec<usize>> = leaves
            .iter()
            .map(|(s, _, c)| tables[*s].intern(&c.matrix, &c.report))
            .collect();
        let ranked = batch_map(leaves.len(), cfg.threads, |i| {
            let (s, _, c) = &leaves[i];
            tables[*s].predict(&c.matrix, &c.report, &plans[i])
        });
        drop(rank_span);
        // a legal leaf whose merged bounds are incomparable (`Unsupported`)
        // is no variant — a jam of `cholesky_kij`'s split program has two;
        // any other failure fails the schedule
        let mut variants: Vec<(RankedVariant, usize)> = Vec::with_capacity(leaves.len());
        for (i, ((shape, recipe, c), predicted)) in leaves.iter().zip(ranked).enumerate() {
            let label = recipe.to_string();
            let predicted = match predicted {
                Ok(predicted) => predicted,
                Err(e) if e.kind() == InlErrorKind::Unsupported => continue,
                Err(e) => return Err(in_variant(&label, e)),
            };
            let v = RankedVariant {
                label,
                recipe: recipe.clone(),
                shape: *shape,
                matrix: c.matrix.clone(),
                predicted,
            };
            variants.push((v, i));
        }
        variants.sort_by(|(a, _), (b, _)| a.key().cmp(&b.key()));
        let Some((pick, i)) = variants.first() else {
            return Err(InlError::new(
                InlErrorKind::Infeasible,
                "no legal variant found",
            ));
        };
        let _span = inl_obs::span("sched.finish");
        let (shape, _, c) = &leaves[*i];
        let built = tables[*shape].generate(&c.matrix, &c.report, &plans[*i]);
        let chosen = finished(pick, built)?;
        (
            chosen,
            variants.into_iter().map(|(v, _)| v).collect::<Vec<_>>(),
        )
    };

    if explain {
        let cost = &chosen.features.predicted;
        let record = inl_obs::explain::accept(
            "sched",
            format!("variant {} of {}", chosen.label, p.name()),
            format!(
                "chosen: minimal predicted cost ({cost}) among {} legal variants, {} of {} tree \
                 nodes visited",
                variants.len(),
                stats.nodes_visited,
                stats.nodes_exhaustive
            ),
        );
        with_cost(record, cost)
            .feature("legal_variants", variants.len() as i64)
            .feature("nodes_visited", stats.nodes_visited as i64)
            .feature("nodes_pruned", stats.pruned_nodes as i64);
        for v in variants.iter().skip(1) {
            let subject = format!("variant {} of {}", v.label, p.name());
            let why = format!(
                "legal but ranked behind: ({}) vs chosen ({cost})",
                v.predicted
            );
            with_cost(inl_obs::explain::note("sched", subject, why), &v.predicted);
        }
    }

    let legal = variants.iter().map(|v| v.label.clone()).collect();
    Ok(ScheduleResult {
        chosen,
        shapes,
        variants,
        stats,
        legal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    fn quiet_cfg() -> SchedConfig {
        SchedConfig {
            threads: 1,
            ..SchedConfig::default()
        }
    }

    #[test]
    fn cholesky_search_is_pinned_and_pruned() {
        // the end-to-end pin: full Cholesky visits exactly this many nodes
        // (deterministic DFS), leaves most of the exhaustive ± tree to the
        // two closed-form counters, and finds the 12 hand-enumerated legal
        // orders among its unreversed variants.
        let r = schedule_with(&zoo::cholesky_kij(), &quiet_cfg()).expect("schedules");
        assert_eq!(r.stats.nodes_visited, 49, "identity and jam(I+J) trees");
        assert_eq!(r.stats.nodes_exhaustive, 710, "the full ± trees");
        assert_eq!(r.stats.pruned_subtrees, 9);
        assert_eq!(r.stats.pruned_nodes, 342);
        assert_eq!(r.stats.twin_nodes, 319);
        let unreversed = r
            .variants
            .iter()
            .filter(|v| v.recipe.shape.is_none() && v.recipe.reversals() == 0)
            .count();
        assert_eq!(unreversed, 12, "the 12 legal Cholesky orders");
    }

    #[test]
    fn every_tree_node_is_visited_pruned_or_a_twin() {
        // the accounting identity: the three counters partition the full ±
        // tree of every shape, on every zoo program — nothing is skipped
        // without a stated reason
        for &(name, ctor) in zoo::ALL {
            let s = schedule_with(&ctor(), &quiet_cfg()).expect(name).stats;
            assert!(!s.budget_exhausted, "{name}");
            assert_eq!(
                s.nodes_visited + s.pruned_nodes + s.twin_nodes,
                s.nodes_exhaustive,
                "{name}: {s:?}"
            );
        }
    }

    #[test]
    fn wavefront_tree_is_the_worked_example() {
        // GUIDE.md's walk-through. Two loops, 12 nodes in the ± tree. `I`
        // is legal at the root, so `I'` and its two children are twins (3);
        // below `I`, `J` is legal and `J'` a twin (1); the same from `J`.
        // Four nodes visited, eight twins, nothing pruned, nothing
        // reversed — and `I'`, which is in fact illegal, was never asked.
        let r = schedule_with(&zoo::wavefront(), &quiet_cfg()).expect("schedules");
        let s = &r.stats;
        assert_eq!(s.shapes, 1);
        assert_eq!(
            (s.nodes_visited, s.pruned_nodes, s.twin_nodes),
            (4, 0, 8),
            "{s:?}"
        );
        assert_eq!(s.nodes_exhaustive, 12);
        assert_eq!(r.legal, ["IJ", "JI"]);
    }

    #[test]
    fn orders_legal_only_reversed_are_still_found() {
        // what reversal on demand reaches: the three zoo orders whose
        // forward selector is pruned and whose reversed one is not — and
        // no other reversed label anywhere in the zoo
        let reversed = |p: &Program| -> Vec<String> {
            let r = schedule_with(p, &quiet_cfg()).expect("schedules");
            let mut found: Vec<String> = r
                .variants
                .iter()
                .filter(|v| v.recipe.reversals() > 0)
                .map(|v| v.label.clone())
                .collect();
            found.sort();
            found
        };
        assert_eq!(
            reversed(&zoo::running_example()),
            ["dist(J@1)/J'.I.J_2", "dist(J@1)/J'.J_2.I"]
        );
        assert_eq!(reversed(&zoo::cholesky_kij()), ["jam(I+J)/KL'I"]);
        for &(name, ctor) in zoo::ALL {
            if !["running_example", "cholesky_kij"].contains(&name) {
                assert!(reversed(&ctor()).is_empty(), "{name}");
            }
        }
    }

    #[test]
    fn reversals_that_decide_nothing_are_never_walked() {
        // reversing matmul's `I` or `J` is always legal and reversing `K`
        // never is (`tests/matmul_permutations.rs`), so a reversed selector
        // is a twin or a violation, and no forward one is ever pruned: the
        // one shape returns the six loop orders and no reversed label, from
        // the 15 forward nodes of its 78-node tree
        let r = schedule_with(&zoo::matmul(), &quiet_cfg()).expect("schedules");
        let mut labels: Vec<&str> = r.legal.iter().map(String::as_str).collect();
        labels.sort_unstable();
        assert_eq!(labels, ["IJK", "IKJ", "JIK", "JKI", "KIJ", "KJI"]);
        let s = &r.stats;
        assert_eq!(
            (
                s.nodes_visited,
                s.pruned_nodes,
                s.twin_nodes,
                s.nodes_exhaustive
            ),
            (15, 0, 63, 78),
            "{s:?}"
        );
    }

    #[test]
    fn raising_the_tile_size_lowers_only_tile_innermost_costs() {
        // `T` reaches the innermost loops' terms of the predicted cost
        // (trips and entries) as the trip length of the loop a split
        // confines, and nowhere else: strip-mine the reuse loop at 16, 32
        // and 64, and every order whose hottest innermost loop is the tile
        // loop costs strictly less there at each step up, while no other
        // order costs less (a sunk tile-number loop costs more). The nest
        // term is left out: every order with the tile-number loop outside
        // the tile loop enters the loops between them fewer times.
        let (mut tiled, mut tile_innermost, mut others) = (0, 0, 0);
        for &(name, ctor) in zoo::ALL {
            let p = ctor();
            let Some(l) = inl_core::tiling::innermost_reuse_loop(&p) else {
                continue;
            };
            tiled += 1;
            let source = inl_core::recipe::Shape::source(p.clone()).expect("analyses");
            let costs = |tile| -> Vec<(Recipe, PredictedCost)> {
                let step = inl_core::recipe::Step::Split {
                    r#loop: p.loop_decl(l).name.clone(),
                    tile,
                };
                let shape = source.apply(&step).expect("splits").expect("legal");
                let mut stats = SearchStats::default();
                let tree = (Some(step), shape);
                let found = search::search_shape(&tree, u64::MAX, &mut stats).expect("searches");
                let (_, shape) = tree;
                let (layout, deps) = (&shape.layout, &shape.deps);
                found
                    .into_iter()
                    .map(|(recipe, c)| {
                        let r =
                            generate(&shape.program, layout, deps, &c.matrix).expect("generates");
                        (recipe, r.features.predicted)
                    })
                    .collect()
            };
            let by_t = [16, 32, 64].map(costs);
            assert!(!by_t[0].is_empty(), "{name}: no legal order of the split");
            for (i, (label, at_16)) in by_t[0].iter().enumerate() {
                let (at_32, at_64) = (&by_t[1][i], &by_t[2][i]);
                let same_order = |other: &Recipe| other.order == label.order;
                assert!(
                    same_order(&at_32.0) && same_order(&at_64.0),
                    "{name} {label}"
                );
                let steps = [(at_16, &at_32.1, 16), (&at_32.1, &at_64.1, 32)];
                let inner = |c: &PredictedCost| c.trip_cost + c.entry_cost;
                for (before, after, t) in steps {
                    let confined = before.hottest().is_some_and(|h| h.trips == t);
                    if confined {
                        assert!(inner(after) < inner(before), "{name} {label} at {t}");
                    } else {
                        assert!(inner(after) >= inner(before), "{name} {label} at {t}");
                    }
                }
                match at_16.hottest().is_some_and(|h| h.trips == 16) {
                    true => tile_innermost += 1,
                    false => others += 1,
                }
            }
        }
        assert_eq!(tiled, 7, "zoo programs with a reuse-carrying loop");
        assert!(
            tile_innermost > 0 && others > 0,
            "{tile_innermost} / {others}"
        );
    }

    #[test]
    fn every_variant_is_legal_and_equivalent() {
        // every returned variant must execute bitwise-identically to the
        // source program — across shapes and reversals. Only
        // the chosen one comes back finished; the rest are materialised
        // here, and what the ranking stored must be what finishing finds.
        let p = zoo::simple_cholesky();
        let r = schedule_with(&p, &quiet_cfg()).expect("schedules");
        let init = zoo::spd_init;
        let src = inl_exec::run_fresh(&p, &[8], &init);
        for (i, ranked) in r.variants.iter().enumerate() {
            let v = r.materialise(i).expect("finishes");
            assert_eq!(v.label, ranked.label);
            assert_eq!(v.features.predicted, ranked.predicted, "{}", v.label);
            let got = inl_exec::run_fresh(&v.program, &[8], &init);
            src.same_state(&got)
                .unwrap_or_else(|e| panic!("variant {} diverged: {e}", v.label));
        }
        assert_eq!(
            r.materialise(0).expect("finishes").pseudocode,
            r.chosen().pseudocode
        );
    }

    #[test]
    fn the_source_is_analysed_once_each_shape_mapped_and_only_the_pick_finished() {
        // one `depend.analyze`, of the source, and one `depend.map` per
        // other shape — not one per stage, let alone one per variant — one
        // plan per distinct statement schedule of a shape, and one
        // `generate`, the only build, of the chosen variant, outside the
        // ranking's batch and from the plans the ranking made. One thread,
        // so the thread-local capture sees all of it. The memos are
        // bypassed, so the counts are a cold schedule's whatever the tests
        // beside this one have warmed: the table still shares each
        // distinct plan among the leaves of a shape.
        let p = zoo::cholesky_kij();
        inl_poly::cache::set_cache_enabled(false);
        let (r, cap) = inl_obs::capture::with(|| schedule_with(&p, &quiet_cfg()));
        inl_poly::cache::set_cache_enabled(true);
        let r = r.expect("schedules");
        let closed = |leaf: &str, under: &str| -> u64 {
            cap.stages
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
                .filter(|(path, _)| path.contains(under))
                .map(|(_, s)| s.count)
                .sum()
        };
        assert_eq!(r.stats.shapes, 2, "identity, jam(I+J)");
        assert_eq!(closed("depend.analyze", ""), 1);
        assert_eq!(closed("depend.map", ""), r.stats.shapes - 1);
        assert_eq!(closed("sched.rank", ""), 1);
        assert_eq!(closed("sched.finish", ""), 1);
        assert_eq!(closed("codegen.generate", ""), 1);
        assert_eq!(closed("codegen.generate", "sched.finish/"), 1);
        assert_eq!(closed("codegen.ast", ""), 1, "the pick is the one build");
        let ranked = cap.counters["sched.variants_ranked"];
        assert_eq!(ranked, r.stats.legal_variants);
        assert_eq!(ranked, r.variants.len() as u64);
        assert_eq!(closed("batch.compile", ""), ranked);
        assert_eq!(closed("codegen.merge", "sched.rank/"), ranked);
        assert_eq!(closed("codegen.predict", "sched.rank/"), ranked);
        // 15 leaves of three statements each: 45 statement schedules, 19 of
        // them distinct, each made once; the pick is built from three of
        // them, with no plan made and no legality checked again
        let stmts = p.stmts().count() as u64;
        assert_eq!(ranked * stmts, 45);
        assert_eq!(closed("codegen.plan", "sched.rank/"), 19);
        assert_eq!(closed("codegen.plan", ""), 19);
        assert_eq!(closed("codegen.plan", "sched.finish/"), 0);
        assert_eq!(closed("legal.check", "sched.finish/"), 0);
        assert_eq!(closed("codegen.merge", "sched.finish/"), 1);
        // the search does its legality work once: one step per node on the
        // walk it carries, no matrix checked again at a leaf, and one AST
        // recovered per child order of a shape
        assert_eq!(closed("complete.prefix", ""), r.stats.nodes_visited);
        assert_eq!(closed("legal.check", "sched.search/"), 0);
        let mut orders = std::collections::HashSet::new();
        for v in &r.variants {
            let (_, shape) = &r.shapes[v.shape];
            let ast = inl_core::legal::recover_ast(&shape.program, &shape.layout, &v.matrix);
            let mut perms: Vec<_> = ast.expect("legal").child_perms.into_iter().collect();
            perms.sort();
            orders.insert((v.shape, perms));
        }
        assert_eq!(
            closed("legal.recover_ast", "sched.search/"),
            orders.len() as u64
        );
        assert_eq!(closed("legal.recover_ast", ""), 4, "for 15 leaves");
        // so the scan counters count plans made, not leaves ranked: one
        // bound per new loop of the plan's statement, 54 for the 19 (six
        // of those loops augmented, §5.4)
        assert_eq!(cap.counters["codegen.plan.bounds_scanned"], 54);
        assert_eq!(cap.counters["codegen.plan.loops_augmented"], 6);
    }

    #[test]
    fn the_ranking_is_the_same_at_any_thread_count() {
        // a plan is made on whichever thread first needs it, and is a
        // function of its key alone: four workers rank every leaf as one
        // does, key for key
        for ctor in [zoo::cholesky_kij, zoo::lu_kij, zoo::running_example] {
            let ranked = |threads| -> Vec<(String, PredictedCost)> {
                let cfg = SchedConfig {
                    threads,
                    ..SchedConfig::default()
                };
                let r = schedule_with(&ctor(), &cfg).expect("schedules");
                let keys = r.variants.iter();
                keys.map(|v| (v.label.clone(), v.predicted.clone()))
                    .collect()
            };
            assert_eq!(ranked(1), ranked(4));
        }
    }

    #[test]
    fn matmul_chooses_unit_stride_inner() {
        // the canonical cost-model sanity check: of the 6 matmul loop
        // orders, the chosen one must walk B and C unit-stride in the
        // innermost loop (J innermost, K middle or outer — the `ikj`
        // family), not the row-jumping `ijk`/`jik` family.
        let r = schedule_with(&zoo::matmul(), &quiet_cfg()).expect("schedules");
        let (inner, _) = r.chosen().recipe.order.last().expect("a loop");
        assert_eq!(inner, "J", "chosen {}", r.chosen().label);
    }

    #[test]
    fn the_pick_never_costs_more_than_the_source_order() {
        // the identity order of the identity shape is always a leaf, so
        // the minimum is at most its cost — on every zoo program
        for &(name, ctor) in zoo::ALL {
            let r = schedule_with(&ctor(), &quiet_cfg()).expect(name);
            let source = r
                .variants
                .iter()
                .find(|v| v.recipe.shape.is_none() && v.matrix == IMat::identity(v.matrix.nrows()))
                .unwrap_or_else(|| panic!("{name}: the identity order is a leaf"));
            let chosen = r.chosen().features.predicted.total();
            assert!(
                chosen <= source.predicted.total(),
                "{name}: {}",
                source.label
            );
        }
    }

    #[test]
    fn cholesky_kij_keeps_its_innermost_loop_long() {
        // the pick's hottest loop is a parametric one: it runs the nominal
        // extent per entry
        let r = schedule_with(&zoo::cholesky_kij(), &quiet_cfg()).expect("schedules");
        let hot = r.chosen().features.predicted.hottest().expect("a loop");
        assert_eq!(
            hot.trips,
            inl_codegen::NOMINAL_EXTENT,
            "{}",
            r.chosen().label
        );
    }

    #[test]
    fn cholesky_divisions_run_in_columns() {
        // `JI` would chain the divisions through A[J]; the pick runs them
        // across J in columns
        for ctor in [zoo::simple_cholesky, zoo::perfect_nest] {
            let r = schedule_with(&ctor(), &quiet_cfg()).expect("schedules");
            let hot = r.chosen().features.predicted.hottest().expect("a loop");
            assert_eq!(
                hot.executor,
                inl_codegen::Executor::Columns,
                "{}: chosen {}",
                r.chosen().program.name(),
                r.chosen().label
            );
        }
    }

    #[test]
    fn a_leaf_that_fails_to_lower_is_dropped() {
        // a jam of cholesky_kij's split program has two legal leaves whose
        // merged bounds are incomparable: they are no variants, and the
        // schedule stands
        let p = zoo::cholesky_kij();
        let l = inl_core::tiling::innermost_reuse_loop(&p).expect("L carries reuse");
        let split = inl_core::tiling::split(&p, l, 16).expect("splits").program;
        let r = schedule_with(&split, &quiet_cfg()).expect("schedules");
        assert!(!r.legal.iter().any(|label| label == "jam(I+J)/K.Lo'.I.L"));
        assert_eq!(r.stats.legal_variants, r.variants.len() as u64 + 2);
        // the two are the leaves `generate` refuses, and it refuses them as
        // `Unsupported`: the one failure ranking drops. The plan key, which
        // ranks without building, refuses the same two the same way
        let mut stats = SearchStats::default();
        let mut refused = Vec::new();
        for shape in search::enumerate_shapes(&split).expect("shapes") {
            let (_, s) = &shape;
            let found = search::search_shape(&shape, u64::MAX, &mut stats).expect("search");
            let mut table = PlanTable::new(&s.program, &s.layout, &s.deps);
            let plans: Vec<Vec<usize>> = found
                .iter()
                .map(|(_, c)| table.intern(&c.matrix, &c.report))
                .collect();
            for ((recipe, c), plans) in found.iter().zip(&plans) {
                let generated = generate(&s.program, &s.layout, &s.deps, &c.matrix);
                let keyed = table.predict(&c.matrix, &c.report, plans);
                match (generated, keyed) {
                    (Ok(_), Ok(_)) => {}
                    (Err(g), Err(k)) => refused.push((recipe.to_string(), g.kind(), k.kind())),
                    (g, k) => panic!("{recipe}: generate {:?}, plan key {k:?}", g.err()),
                }
            }
        }
        assert_eq!(refused.len(), 2, "{refused:?}");
        for (label, generated, keyed) in &refused {
            assert_eq!(*generated, InlErrorKind::Unsupported, "{label}");
            assert_eq!(*keyed, InlErrorKind::Unsupported, "{label}");
            assert!(!r.legal.contains(label), "{label}");
        }
    }

    #[test]
    fn budget_stops_search_gracefully() {
        let mut cfg = quiet_cfg();
        cfg.budget = 3;
        match schedule_with(&zoo::cholesky_kij(), &cfg) {
            Ok(r) => {
                assert!(r.stats.budget_exhausted);
                assert!(r.stats.nodes_visited <= 3 + 1);
            }
            // budget too small to reach a leaf
            Err(e) => {
                assert_eq!(e.kind(), InlErrorKind::Infeasible, "{e}");
                assert_eq!(e.message(), "no legal variant found");
            }
        }
    }
}
