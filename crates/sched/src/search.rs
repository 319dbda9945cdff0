//! The pruned search over the transformation space.
//!
//! The search tree over one program shape assigns one *signed loop
//! selector row* per level: a node at depth `d` is a prefix of `d` rows,
//! each `±e_pos(ℓ)` for a distinct loop `ℓ` (the sign is reversal, §4.1).
//! The search carries one [`PrefixWalk`] per shape down the tree: every
//! visited node pushes its row — one step of each still-active dependence,
//! committed, and undone on the way back up — and the verdict is
//! [`inl_core::complete::check_prefix`]'s for the node's whole prefix:
//!
//! * a [`PrefixCheck::Violation`] proves that *no* extension of the prefix
//!   is legal (the violated dependence projection is already
//!   lexicographically negative), so the entire subtree dies on the spot —
//!   the dimension-matching pruning of Acharya–Bondhugula, driven by the
//!   paper's dependence projections;
//! * a legal forward selector `+e_ℓ` means `−e_ℓ` is not tried at that
//!   node: it is illegal or, every active dependence being zero on `ℓ`,
//!   the root of a sign-twin subtree that ties on the predicted cost and
//!   loses the tie-break on reversal count (crate docs).
//!
//! A full-depth legal prefix is completed from the carried states
//! ([`PrefixWalk::complete`]): the syntactic-ordering topological sort of
//! [`inl_core::complete::complete_transform`] supplies the statement-order
//! (edge-row) part of the matrix — the statement-permutation axis of the
//! space comes for free — and the leaf's legality report is read off the
//! walk, with one recovered AST per child order of the shape.
//!
//! The *shape* axis is enumerated first: [`enumerate_shapes`] yields the
//! identity shape and every legal one-level loop distribution and fusion
//! (§4.2), each a distinct program whose own tree is searched; costs
//! compare globally across shapes. A leaf is named by its [`Recipe`]: the
//! shape's step and the signed loop order walked.

use inl_core::complete::{Completion, PrefixCheck, PrefixWalk};
use inl_core::instance::Position;
use inl_core::provenance;
use inl_core::recipe::{Recipe, Shape, Step};
use inl_ir::{LoopId, Program};
use inl_linalg::{IVec, InlError, InlErrorKind};

/// Counters describing one [`crate::schedule`] run. All integers are
/// deterministic for a given program and configuration — they are gated
/// exactly by the `BENCH_sched.json` CI baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes actually visited — each one row pushed on the
    /// shape's prefix walk and tested — summed over shapes.
    pub nodes_visited: u64,
    /// Nodes a brute-force enumeration of the same trees would test
    /// (`Σ_d P(L,d)·2^d` per shape: every loop order, both signs).
    pub nodes_exhaustive: u64,
    /// Prefixes whose violation killed a whole subtree.
    pub pruned_subtrees: u64,
    /// Strict descendants of pruned prefixes — nodes never visited.
    pub pruned_nodes: u64,
    /// Reversed selectors not tried because the forward one was legal,
    /// with their subtrees: `nodes_visited + pruned_nodes + twin_nodes ==
    /// nodes_exhaustive` unless the budget stopped the search.
    pub twin_nodes: u64,
    /// Full-depth prefixes that completed into legal variants.
    pub legal_variants: u64,
    /// Full-depth legal prefixes whose completion still failed (e.g. a
    /// cyclic statement order).
    pub completion_failures: u64,
    /// Program shapes searched (identity and each legal jam or
    /// distribution).
    pub shapes: u64,
    /// Always 0: alignment refinement is gone (it adopted 0 of 36 tries over
    /// the zoo); the field stays until `benchmark/`, which reads it, is
    /// re-anchored.
    pub align_tried: u64,
    /// Always 0, as [`align_tried`](Self::align_tried).
    pub align_adopted: u64,
    /// `true` when the node budget stopped the search early.
    pub budget_exhausted: bool,
}

impl SearchStats {
    /// Fraction of the exhaustive tree never visited — pruned or skipped
    /// as a twin — in percent (`0` when every node was visited).
    pub fn unvisited_pct(&self) -> u64 {
        if self.nodes_exhaustive == 0 {
            return 0;
        }
        let skipped = self.nodes_exhaustive.saturating_sub(self.nodes_visited);
        skipped * 100 / self.nodes_exhaustive
    }
}

/// `n·(n-1)·…·(n-k+1)` — permutations of `k` out of `n`.
fn falling(n: u64, k: u64) -> u64 {
    (0..k).map(|i| n - i).product()
}

/// Nodes of the full ± tree over `nloops` loops (every non-empty prefix
/// counts as one) — also the strict descendants of a node with `nloops`
/// unused loops.
pub(crate) fn exhaustive_nodes(nloops: u64) -> u64 {
    (1..=nloops)
        .map(|d| falling(nloops, d).saturating_mul(2u64.saturating_pow(d as u32)))
        .sum()
}

/// A shape of the search, with the step that made it of the source
/// program (`None`: the source itself).
pub(crate) type StepShape = (Option<Step>, Shape);

/// Enumerate the shape axis: identity, then every legal one-level loop
/// distribution and loop fusion, each made by [`Shape::apply`], whose
/// legality proof records every candidate's verdict (stage `structural`).
pub(crate) fn enumerate_shapes(p: &Program) -> Result<Vec<StepShape>, InlError> {
    let source = Shape::source(p.clone())?;
    let mut shapes = Vec::new();
    for step in Step::candidates(p) {
        match source.apply(&step) {
            Ok(Some(shape)) => shapes.push((Some(step), shape)),
            Ok(None) => {}
            // structurally un-jammable pairs (mismatched bounds/steps) are
            // not candidates at all; only a *dependence* veto is a decision
            Err(e) if e.kind() == InlErrorKind::InvalidTarget => {}
            Err(e) => return Err(e),
        }
    }
    shapes.insert(0, (None, source));
    Ok(shapes)
}

/// Search one shape's tree of signed loop orders. Returns the legal
/// variants, each with its completion (the matrix and the report that
/// proved it, which lowering reads instead of checking again); updates `stats` (including
/// `nodes_exhaustive` for this shape's tree) and stops once they count
/// `budget` visited nodes.
pub(crate) fn search_shape(
    (step, shape): &StepShape,
    budget: u64,
    stats: &mut SearchStats,
) -> Result<Vec<(Recipe, Completion)>, InlError> {
    let _span = inl_obs::span("sched.search");
    // `loops()` enumerates the decl table; a jammed shape keeps the
    // fused-away loop as an orphan decl with no layout position, so only
    // loops the layout actually embeds are searchable
    let loops: Vec<LoopId> = shape
        .program
        .loops()
        .filter(|&l| shape.layout.positions().contains(&Position::Loop(l)))
        .collect();
    stats.nodes_exhaustive += exhaustive_nodes(loops.len() as u64);

    let mut ctx = Dfs {
        shape,
        budget,
        stats,
        explain: inl_obs::explain_enabled(),
        prefix: Recipe {
            shape: step.clone(),
            order: Vec::new(),
        },
        walk: PrefixWalk::new(&shape.program, &shape.layout, &shape.deps),
        legal: Vec::new(),
    };
    let mut used = vec![false; loops.len()];
    ctx.descend(&loops, &mut used)?;
    Ok(ctx.legal)
}

/// DFS state for one shape's tree.
struct Dfs<'a> {
    shape: &'a Shape,
    budget: u64,
    stats: &'a mut SearchStats,
    explain: bool,
    /// The node being visited: the shape's step and the order so far.
    prefix: Recipe,
    /// The node's rows, with every dependence's state under them.
    walk: PrefixWalk<'a>,
    legal: Vec<(Recipe, Completion)>,
}

impl Dfs<'_> {
    fn descend(&mut self, loops: &[LoopId], used: &mut [bool]) -> Result<(), InlError> {
        let (p, layout, deps) = (&self.shape.program, &self.shape.layout, &self.shape.deps);
        for i in 0..loops.len() {
            if used[i] {
                continue;
            }
            // the reversed selector only where the forward one is pruned
            for reversed in [false, true] {
                self.stats.budget_exhausted |= self.stats.nodes_visited >= self.budget;
                if self.stats.budget_exhausted {
                    return Ok(());
                }
                self.stats.nodes_visited += 1;
                let l = loops[i];
                let unit = IVec::unit(layout.len(), layout.loop_position(l));
                self.prefix
                    .order
                    .push((p.loop_decl(l).name.clone(), reversed));
                used[i] = true;
                let depth = self.walk.rows().len() + 1;
                // strict descendants of this node in the full ± tree
                let below = exhaustive_nodes((loops.len() - depth) as u64);
                let row = if reversed { -&unit } else { unit };
                let legal = match self.walk.push(row)? {
                    PrefixCheck::Violation { row: vr, dep } => {
                        self.stats.pruned_subtrees += 1;
                        self.stats.pruned_nodes += below;
                        if self.explain {
                            let d = &deps.deps[dep];
                            inl_obs::explain::reject(
                                "sched",
                                format!("prefix {} of {}", self.prefix, p.name()),
                                format!(
                                    "{}: row {vr} drives the projection negative — pruned the \
                                     {below}-node subtree",
                                    provenance::dep_label(p, dep, d)
                                ),
                            )
                            .detail("dep_row", provenance::dep_row(d))
                            .feature("depth", depth as i64)
                            .feature("nodes_pruned", below as i64);
                        }
                        false
                    }
                    PrefixCheck::Legal => {
                        if !reversed {
                            self.stats.twin_nodes += 1 + below;
                        }
                        if depth == loops.len() {
                            self.complete_leaf();
                        } else {
                            self.descend(loops, used)?;
                        }
                        self.walk.pop();
                        true
                    }
                };
                self.prefix.order.pop();
                used[i] = false;
                if legal {
                    break;
                }
            }
        }
        Ok(())
    }

    /// A full-depth legal prefix: complete it (statement order falls out
    /// of the completion's topological sort) into a full matrix.
    fn complete_leaf(&mut self) {
        let p = &self.shape.program;
        match self.walk.complete() {
            Ok(c) => {
                self.stats.legal_variants += 1;
                self.legal.push((self.prefix.clone(), c));
            }
            Err(e) => {
                self.stats.completion_failures += 1;
                if self.explain {
                    inl_obs::explain::reject(
                        "sched",
                        format!("variant {} of {}", self.prefix, p.name()),
                        format!("legal prefix failed to complete: {}", e.summary()),
                    );
                }
            }
        }
    }
}
