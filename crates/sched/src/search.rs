//! The pruned search over the transformation space.
//!
//! The search tree over one program shape assigns one *signed loop
//! selector row* per level: a node at depth `d` is a prefix of `d` rows,
//! each `±e_pos(ℓ)` for a distinct loop `ℓ` (the sign is reversal, §4.1).
//! Every visited node is tested with [`inl_core::complete::check_prefix`]:
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
//! Full-depth legal prefixes are handed to
//! [`inl_core::complete::complete_transform`], whose syntactic-ordering
//! topological sort supplies the statement-order (edge-row) part of the
//! matrix — the statement-permutation axis of the space comes for free.
//!
//! The *shape* axis is enumerated first: [`enumerate_shapes`] yields the
//! identity shape, the strip-mined one, and every legal one-level loop
//! distribution and fusion (§4.2), each a distinct program whose own tree
//! is searched; costs compare globally across shapes.

use crate::SchedError;
use inl_core::complete::{check_prefix, complete_transform, PrefixCheck};
use inl_core::depend::{analyze, DependenceMatrix};
use inl_core::instance::{InstanceLayout, Position};
use inl_core::provenance;
use inl_core::structural::{distribute, distribution_legal, jam, jamming_legal};
use inl_ir::{LoopId, Node, Program};
use inl_linalg::{IMat, IVec};

/// Counters describing one [`crate::schedule`] run. All integers are
/// deterministic for a given program and configuration — they are gated
/// exactly by the `BENCH_sched.json` CI baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes actually tested with `check_prefix`, summed over
    /// shapes.
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
    /// Program shapes searched (identity, the tile shape, and each legal
    /// jam or distribution).
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

/// One program shape: the structural-transformation axis of the space,
/// with the one dependence analysis every candidate matrix of the shape
/// is tested against (the search, the per-leaf lowering and on-demand
/// materialisation all borrow this pair; nothing re-analyses).
#[derive(Clone, Debug)]
pub struct Shape {
    /// `""` for the identity shape, else e.g. `"dist(K@1)"` / `"jam(I+I2)"`.
    pub label: String,
    /// The shaped program (the identity shape is the source program).
    pub program: Program,
    /// Instance layout of `program`.
    pub layout: InstanceLayout,
    /// Dependence matrix of `program` over `layout`.
    pub deps: DependenceMatrix,
}

impl Shape {
    /// Lay out and analyse `program` — once; the shape owns the result.
    pub(crate) fn analysed(label: String, program: Program) -> Result<Shape, SchedError> {
        let layout = InstanceLayout::new(&program);
        let deps = analyze(&program, &layout).map_err(SchedError::Analysis)?;
        Ok(Shape {
            label,
            program,
            layout,
            deps,
        })
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

/// Enumerate the shape axis: identity, the strip-mined shape, then every
/// legal one-level loop distribution and loop fusion. Illegal candidates
/// are recorded as explain rejections (stages `tile` and `sched`).
pub(crate) fn enumerate_shapes(p: &Program) -> Result<Vec<Shape>, SchedError> {
    let identity = Shape::analysed(String::new(), p.clone())?;
    let mut shapes = Vec::new();
    let explain = inl_obs::explain_enabled();
    enumerate_tiles(p, explain, &mut shapes)?;
    enumerate_structural(&identity, explain, &mut shapes)?;
    shapes.insert(0, identity);
    Ok(shapes)
}

/// The jam/distribute part of the shape axis, decided on the identity
/// shape's dependence matrix.
fn enumerate_structural(
    identity: &Shape,
    explain: bool,
    shapes: &mut Vec<Shape>,
) -> Result<(), SchedError> {
    let Shape {
        program: p,
        layout,
        deps,
        ..
    } = identity;

    // one-level distributions: split any loop with >= 2 children
    for l in p.loops() {
        let ld = p.loop_decl(l);
        for split in 1..ld.children.len() {
            let legal = distribution_legal(p, deps, l, split).map_err(SchedError::Analysis)?;
            let label = format!("dist({}@{split})", ld.name);
            if legal {
                let r = distribute(p, layout, l, split).map_err(SchedError::Analysis)?;
                shapes.push(Shape::analysed(label, r.target)?);
            } else if explain {
                inl_obs::explain::reject(
                    "sched",
                    format!("shape {label} of {}", p.name()),
                    format!(
                        "distribution of loop {} at child {split} is illegal: a dependence \
                         carried by the loop crosses the split backwards",
                        ld.name
                    ),
                );
            }
        }
    }

    // one-level fusions: jam adjacent sibling loops anywhere in the tree
    let parents: Vec<Option<LoopId>> = std::iter::once(None).chain(p.loops().map(Some)).collect();
    for parent in parents {
        let siblings: &[Node] = match parent {
            None => p.root(),
            Some(q) => &p.loop_decl(q).children,
        };
        for idx in 0..siblings.len().saturating_sub(1) {
            let (Node::Loop(a), Node::Loop(b)) = (siblings[idx], siblings[idx + 1]) else {
                continue;
            };
            let label = format!("jam({}+{})", p.loop_decl(a).name, p.loop_decl(b).name);
            // structurally un-jammable pairs (mismatched bounds/steps) are
            // not candidates at all; only a *dependence* veto is a decision
            match jamming_legal(p, deps, parent, idx) {
                Ok(true) => {
                    let r = jam(p, layout, parent, idx).map_err(SchedError::Analysis)?;
                    shapes.push(Shape::analysed(label, r.target)?);
                }
                Ok(false) => {
                    if explain {
                        inl_obs::explain::reject(
                            "sched",
                            format!("shape {label} of {}", p.name()),
                            "jamming is illegal: fusing would reverse a dependence between \
                             the two loops",
                        );
                    }
                }
                Err(_) => {}
            }
        }
    }
    Ok(())
}

/// The one tile size the tile axis strip-mines by. The predicted cost sees
/// `T` only as the trip length of a tile-innermost loop
/// (`raising_the_tile_size_lowers_only_tile_innermost_costs`); a second size
/// would roughly double the ranked leaves of every deep program, most of
/// them tiled, for variants the model does not pick. Choosing `T` waits for
/// a key that reads footprints off the matrix (ROADMAP items 1 and 13).
pub(crate) const TILE_SIZE: inl_ir::Int = 16;

/// The tile axis: strip-mine the innermost reuse-carrying loop by
/// [`TILE_SIZE`]. An admitted split becomes a shape whose own
/// tree of loop orders is prefix-pruned like every other shape's.
/// The legality proof (`inl_core::tiling::split_legal_with_deps`) records
/// the accept/reject explain evidence under the `tile` stage and hands
/// back the dependence matrix it analysed, which the shape keeps; the
/// no-candidate case is rejected here.
fn enumerate_tiles(p: &Program, explain: bool, shapes: &mut Vec<Shape>) -> Result<(), SchedError> {
    let Some(l) = inl_core::tiling::innermost_reuse_loop(p) else {
        if explain {
            inl_obs::explain::reject(
                "tile",
                format!("tiling of {}", p.name()),
                "no loop carries temporal reuse: every access varies with every \
                 surrounding loop, so strip-mining cannot shrink any reuse distance",
            );
        }
        return Ok(());
    };
    let r = inl_core::tiling::split(p, l, TILE_SIZE).map_err(SchedError::Analysis)?;
    let (report, deps) =
        inl_core::tiling::split_legal_with_deps(&r).map_err(SchedError::Analysis)?;
    if report.is_legal() {
        shapes.push(Shape {
            label: format!("tile({}@{TILE_SIZE})", p.loop_decl(l).name),
            program: r.program,
            layout: r.layout,
            deps,
        });
    }
    Ok(())
}

/// A legal full-depth variant of one shape: display label (shape prefix,
/// loop order, `'` marking reversed loops) and its completed matrix.
pub(crate) type ShapeVariant = (String, IMat);

/// Search one shape's tree of signed loop orders. Returns the legal
/// variants; updates `stats` (including `nodes_exhaustive` for this
/// shape's tree) and stops once they count `budget` visited nodes.
pub(crate) fn search_shape(
    shape: &Shape,
    budget: u64,
    stats: &mut SearchStats,
) -> Result<Vec<ShapeVariant>, SchedError> {
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
        legal: Vec::new(),
    };
    let mut rows: Vec<IVec> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut used = vec![false; loops.len()];
    ctx.descend(&loops, &mut rows, &mut labels, &mut used)?;
    Ok(ctx.legal)
}

/// DFS state for one shape's tree.
struct Dfs<'a> {
    shape: &'a Shape,
    budget: u64,
    stats: &'a mut SearchStats,
    explain: bool,
    legal: Vec<ShapeVariant>,
}

impl Dfs<'_> {
    /// Human label of a prefix, shape included: loop names in order, `'`
    /// after reversed ones, separated only when a loop name has several
    /// characters.
    fn prefix_label(&self, labels: &[String]) -> String {
        let order = if labels.iter().all(|s| s.trim_end_matches('\'').len() == 1) {
            labels.concat()
        } else {
            labels.join(".")
        };
        match self.shape.label.as_str() {
            "" => order,
            shape => format!("{shape}/{order}"),
        }
    }

    fn descend(
        &mut self,
        loops: &[LoopId],
        rows: &mut Vec<IVec>,
        labels: &mut Vec<String>,
        used: &mut [bool],
    ) -> Result<(), SchedError> {
        let Shape {
            program: p,
            layout,
            deps,
            ..
        } = self.shape;
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
                rows.push(if reversed { -&unit } else { unit });
                let mark = if reversed { "'" } else { "" };
                labels.push(format!("{}{mark}", p.loop_decl(l).name));
                used[i] = true;
                // strict descendants of this node in the full ± tree
                let below = exhaustive_nodes((loops.len() - rows.len()) as u64);
                let legal = match check_prefix(p, layout, deps, rows).map_err(SchedError::Prefix)? {
                    PrefixCheck::Violation { row: vr, dep } => {
                        self.stats.pruned_subtrees += 1;
                        self.stats.pruned_nodes += below;
                        if self.explain {
                            let d = &deps.deps[dep];
                            inl_obs::explain::reject(
                                "sched",
                                format!("prefix {} of {}", self.prefix_label(labels), p.name()),
                                format!(
                                    "{}: row {vr} drives the projection negative — pruned the \
                                     {below}-node subtree",
                                    provenance::dep_label(p, dep, d)
                                ),
                            )
                            .detail("dep_row", provenance::dep_row(d))
                            .feature("depth", rows.len() as i64)
                            .feature("nodes_pruned", below as i64);
                        }
                        false
                    }
                    PrefixCheck::Legal => {
                        if !reversed {
                            self.stats.twin_nodes += 1 + below;
                        }
                        if rows.len() == loops.len() {
                            self.complete_leaf(rows, labels);
                        } else {
                            self.descend(loops, rows, labels, used)?;
                        }
                        true
                    }
                };
                rows.pop();
                labels.pop();
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
    fn complete_leaf(&mut self, rows: &[IVec], labels: &[String]) {
        let Shape {
            program: p,
            layout,
            deps,
            ..
        } = self.shape;
        let label = self.prefix_label(labels);
        match complete_transform(p, layout, deps, rows) {
            Ok(c) => {
                self.stats.legal_variants += 1;
                self.legal.push((label, c.matrix));
            }
            Err(e) => {
                self.stats.completion_failures += 1;
                if self.explain {
                    inl_obs::explain::reject(
                        "sched",
                        format!("variant {label} of {}", p.name()),
                        format!("legal prefix failed to complete: {e:?}"),
                    );
                }
            }
        }
    }
}
