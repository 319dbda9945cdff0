//! The pruned search over the transformation space.
//!
//! The search tree over one program shape assigns one *signed loop
//! selector row* per level: a node at depth `d` is a prefix of `d` rows,
//! each `±e_pos(ℓ)` for a distinct loop `ℓ` (reversal contributes the
//! sign). Every node is tested with [`inl_core::complete::check_prefix`];
//! a [`PrefixCheck::Violation`] proves that *no* extension of the prefix
//! is legal (the violated dependence projection is already
//! lexicographically negative), so the entire subtree dies on the spot —
//! the dimension-matching pruning of Acharya–Bondhugula, driven by the
//! paper's dependence projections. Full-depth legal prefixes are handed
//! to [`inl_core::complete::complete_transform`], whose syntactic-ordering
//! topological sort supplies the statement-order (edge-row) part of the
//! matrix — the statement-permutation axis of the space comes for free.
//!
//! On top of the per-shape permutation×reversal tree, the *shape* axis
//! (jam/distribute, §4.2 of the paper) is enumerated first:
//! [`enumerate_shapes`] yields the identity shape plus every legal
//! one-level loop distribution and loop fusion, each a distinct program
//! whose own tree is searched; costs compare globally across shapes.

use crate::{SchedConfig, SchedError};
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
    /// (`Σ_d P(L,d)·r^d` per shape, `r` = 2 with reversal, 1 without).
    pub nodes_exhaustive: u64,
    /// Prefixes whose violation killed a whole subtree.
    pub pruned_subtrees: u64,
    /// Strict descendants of pruned prefixes — nodes never visited.
    pub pruned_nodes: u64,
    /// Full-depth prefixes that completed into legal variants.
    pub legal_variants: u64,
    /// Full-depth legal prefixes whose completion still failed (e.g. a
    /// cyclic statement order).
    pub completion_failures: u64,
    /// Program shapes searched (identity + legal jams/distributions).
    pub shapes: u64,
    /// Alignment refinements attempted on the front-runner.
    pub align_tried: u64,
    /// Alignment refinements that strictly improved the cost.
    pub align_adopted: u64,
    /// `true` when the node budget stopped the search early.
    pub budget_exhausted: bool,
}

impl SearchStats {
    /// Fraction of the exhaustive tree never visited, in percent
    /// (`0` when nothing was pruned).
    pub fn prune_rate_pct(&self) -> u64 {
        if self.nodes_exhaustive == 0 {
            return 0;
        }
        let skipped = self.nodes_exhaustive.saturating_sub(self.nodes_visited);
        skipped * 100 / self.nodes_exhaustive
    }
}

/// One program shape: the structural-transformation axis of the space,
/// with the one dependence analysis every candidate matrix of the shape
/// is tested against (the search, the per-leaf lowering, alignment and
/// on-demand materialisation all borrow this pair; nothing re-analyses).
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

/// Nodes of the full tree over `nloops` loops with `r` signs per loop
/// (every non-empty prefix counts as one node).
pub(crate) fn exhaustive_nodes(nloops: u64, r: u64) -> u64 {
    (1..=nloops)
        .map(|d| falling(nloops, d).saturating_mul(r.saturating_pow(d as u32)))
        .sum()
}

/// Strict descendants of a node that still has `remaining` unused loops.
fn subtree_nodes(remaining: u64, r: u64) -> u64 {
    exhaustive_nodes(remaining, r)
}

/// Enumerate the shape axis: identity, plus every legal one-level loop
/// distribution and loop fusion. Illegal candidates are recorded as
/// explain rejections (stage `sched`).
pub(crate) fn enumerate_shapes(p: &Program, cfg: &SchedConfig) -> Result<Vec<Shape>, SchedError> {
    let identity = Shape::analysed(String::new(), p.clone())?;
    let mut shapes = Vec::new();
    let explain = inl_obs::explain_enabled();
    if cfg.tile {
        enumerate_tiles(p, explain, &mut shapes)?;
    }
    if cfg.shapes {
        enumerate_structural(&identity, explain, &mut shapes)?;
    }
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

/// The one tile size the tile axis strip-mines by. No field of
/// [`crate::Cost`] depends on the size (pinned by
/// `tile_size_does_not_enter_the_ranking_key`), so further sizes would
/// only add label-twins of every variant that lose the tie-break to this
/// one — at a full permutation×reversal tree and codegen sweep each.
pub(crate) const TILE_SIZE: inl_ir::Int = 16;

/// The tile axis: strip-mine the innermost reuse-carrying loop by
/// [`TILE_SIZE`]. An admitted split becomes a shape whose own
/// permutation×reversal tree is prefix-pruned like every other shape's.
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

/// A legal full-depth variant of one shape: display label (loop order,
/// `'` marking reversed loops) and its completed transformation matrix.
pub(crate) type ShapeVariant = (String, IMat);

/// Search one shape's permutation×reversal tree. Returns the legal
/// variants; updates `stats` (including `nodes_exhaustive` for this
/// shape's tree).
pub(crate) fn search_shape(
    shape: &Shape,
    cfg: &SchedConfig,
    stats: &mut SearchStats,
) -> Result<Vec<ShapeVariant>, SchedError> {
    let _span = inl_obs::span("sched.search");
    let Shape {
        label: shape_label,
        program: p,
        layout,
        deps,
    } = shape;
    // `p.loops()` enumerates the decl table; a jammed shape keeps the
    // fused-away loop as an orphan decl with no layout position, so only
    // loops the layout actually embeds are searchable
    let loops: Vec<LoopId> = p
        .loops()
        .filter(|&l| layout.positions().contains(&Position::Loop(l)))
        .collect();
    let signs: &[i64] = if cfg.reversal { &[1, -1] } else { &[1] };
    stats.nodes_exhaustive += exhaustive_nodes(loops.len() as u64, signs.len() as u64);

    let mut ctx = Dfs {
        shape_label,
        p,
        layout,
        deps,
        cfg,
        stats,
        signs,
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
    shape_label: &'a str,
    p: &'a Program,
    layout: &'a InstanceLayout,
    deps: &'a DependenceMatrix,
    cfg: &'a SchedConfig,
    stats: &'a mut SearchStats,
    signs: &'a [i64],
    explain: bool,
    legal: Vec<ShapeVariant>,
}

impl Dfs<'_> {
    /// Human label of a prefix: loop names in order, `'` after reversed
    /// ones, separated only when a loop name has several characters.
    fn prefix_label(&self, labels: &[String]) -> String {
        if labels.iter().all(|s| s.trim_end_matches('\'').len() == 1) {
            labels.concat()
        } else {
            labels.join(".")
        }
    }

    fn descend(
        &mut self,
        loops: &[LoopId],
        rows: &mut Vec<IVec>,
        labels: &mut Vec<String>,
        used: &mut [bool],
    ) -> Result<(), SchedError> {
        for i in 0..loops.len() {
            if used[i] {
                continue;
            }
            for &sign in self.signs {
                if self.stats.budget_exhausted {
                    return Ok(());
                }
                if self.stats.nodes_visited >= self.cfg.budget {
                    self.stats.budget_exhausted = true;
                    return Ok(());
                }
                self.stats.nodes_visited += 1;
                let l = loops[i];
                let pos = self.layout.loop_position(l);
                let row = if sign >= 0 {
                    IVec::unit(self.layout.len(), pos)
                } else {
                    -&IVec::unit(self.layout.len(), pos)
                };
                rows.push(row);
                labels.push(format!(
                    "{}{}",
                    self.p.loop_decl(l).name,
                    if sign < 0 { "'" } else { "" }
                ));
                used[i] = true;
                match check_prefix(self.p, self.layout, self.deps, rows)
                    .map_err(SchedError::Prefix)?
                {
                    PrefixCheck::Violation { row: vr, dep } => {
                        let remaining = (loops.len() - rows.len()) as u64;
                        let killed = subtree_nodes(remaining, self.signs.len() as u64);
                        self.stats.pruned_subtrees += 1;
                        self.stats.pruned_nodes += killed;
                        if self.explain {
                            let d = &self.deps.deps[dep];
                            let prefix = self.prefix_label(labels);
                            inl_obs::explain::reject(
                                "sched",
                                format!(
                                    "prefix {}{prefix} of {}",
                                    shape_prefix(self.shape_label),
                                    self.p.name()
                                ),
                                format!(
                                    "{}: row {vr} drives the projection negative — pruned the \
                                     {killed}-node subtree",
                                    provenance::dep_label(self.p, dep, d)
                                ),
                            )
                            .detail("dep_row", provenance::dep_row(d))
                            .feature("depth", rows.len() as i64)
                            .feature("nodes_pruned", killed as i64);
                        }
                    }
                    PrefixCheck::Legal => {
                        if rows.len() == loops.len() {
                            self.complete_leaf(rows, labels)?;
                        } else {
                            self.descend(loops, rows, labels, used)?;
                        }
                    }
                }
                rows.pop();
                labels.pop();
                used[i] = false;
            }
        }
        Ok(())
    }

    /// A full-depth legal prefix: complete it (statement order falls out
    /// of the completion's topological sort) into a full matrix.
    fn complete_leaf(&mut self, rows: &[IVec], labels: &[String]) -> Result<(), SchedError> {
        let label = self.prefix_label(labels);
        match complete_transform(self.p, self.layout, self.deps, rows) {
            Ok(c) => {
                self.stats.legal_variants += 1;
                self.legal.push((label, c.matrix));
            }
            Err(e) => {
                self.stats.completion_failures += 1;
                if self.explain {
                    inl_obs::explain::reject(
                        "sched",
                        format!(
                            "variant {}{label} of {}",
                            shape_prefix(self.shape_label),
                            self.p.name()
                        ),
                        format!("legal prefix failed to complete: {e:?}"),
                    );
                }
            }
        }
        Ok(())
    }
}

/// `"dist(K@1)/"` for a named shape, `""` for the identity shape.
pub(crate) fn shape_prefix(shape_label: &str) -> String {
    if shape_label.is_empty() {
        String::new()
    } else {
        format!("{shape_label}/")
    }
}
