//! The completion procedure (§6 of the paper).
//!
//! Given a dependence matrix and a *partial* transformation — the desired
//! rows for the first few loop slots — produce a complete legal
//! transformation matrix. This generalizes the Li–Pingali completion for
//! perfectly nested loops \[10\]:
//!
//! * loop slots are processed outside-in; each gets either the next
//!   user-supplied row or a greedily chosen candidate (unit position
//!   selectors, then their negations, then pairwise skew combinations)
//!   that keeps every still-active dependence non-negative — preferring
//!   candidates that *strictly satisfy* the most dependences;
//! * dependences whose projection ends up all-zero between *different*
//!   statements are satisfied syntactically: they impose "source's child
//!   before target's child" constraints at the divergence node, which a
//!   topological sort turns into the child permutations (the edge rows);
//! * leftover all-zero *self* dependences are legal — the augmentation
//!   step (§5.4) adds loops that carry them.
//!
//! The §6 worked example — completing "make the updated-column position
//! outermost" on right-looking Cholesky into the left-looking form — is
//! reproduced in the tests.

use crate::depend::DependenceMatrix;
use crate::instance::{InstanceLayout, Position};
use crate::legal::{check_legal, tree_nodes, LegalityReport, NewAst};
use crate::project::{build_states, commit_all, revert_all, step_all, DepState, Undo};
use inl_ir::{LoopId, Node, Program, StmtId};
use inl_linalg::{IMat, IVec, InlError, InlErrorKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A successful completion.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The complete legal transformation matrix.
    pub matrix: IMat,
    /// Its legality report (always legal; carries the recovered AST and
    /// the self-dependences left to augmentation).
    pub report: LegalityReport,
}

/// Loop-slot positions of the layout, outside-in.
fn loop_slot_positions(layout: &InstanceLayout) -> Vec<usize> {
    layout.loops().map(|(pos, _)| pos).collect()
}

/// `InvalidTarget` unless row `i` of a prefix fits a layout with `slots`
/// loop slots: a slot is left for it, and it is as long as an instance
/// vector.
fn fits(layout: &InstanceLayout, slots: usize, i: usize, row: &IVec) -> Result<(), InlError> {
    let why = if i >= slots {
        "more partial rows than loop slots".to_string()
    } else if row.len() != layout.len() {
        format!("row {i} has length {}, not {}", row.len(), layout.len())
    } else {
        return Ok(());
    };
    Err(InlError::new(InlErrorKind::InvalidTarget, why))
}

/// [`loop_slot_positions`], once every row of `partial` [`fits`] them.
fn slots_for(layout: &InstanceLayout, partial: &[IVec]) -> Result<Vec<usize>, InlError> {
    let slots = loop_slot_positions(layout);
    for (i, row) in partial.iter().enumerate() {
        fits(layout, slots.len(), i, row)?;
    }
    Ok(slots)
}

/// Outcome of [`check_prefix`]: either every supplied row keeps every
/// dependence projection non-negative, or the check names the first row and
/// dependence that clash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrefixCheck {
    /// The prefix is extendable: no dependence projection goes negative
    /// under the supplied rows.
    Legal,
    /// Row `row` (index into `partial`) drives dependence `dep` (index
    /// into [`DependenceMatrix::deps`]) negative — every completion of
    /// this prefix is illegal, so a search can prune the whole subtree.
    Violation {
        /// Index of the offending row in `partial`.
        row: usize,
        /// Index of the violated dependence in the dependence matrix.
        dep: usize,
    },
}

/// Child permutations by node (`None`: the virtual root), old child index
/// → new, as [`NewAst::child_perms`].
type ChildPerms = HashMap<Option<LoopId>, Vec<usize>>;

/// Child permutations that are not the identity, sorted by node: the key
/// of a walk's recovered ASTs.
type PermKey = Vec<(Option<LoopId>, Vec<usize>)>;

/// A prefix of transformation rows, walked outside-in one loop slot at a
/// time on the projection stepper (`project.rs`). Each pushed row is one
/// step of every still-active dependence whose common loops include the
/// slot; a row that keeps them all non-negative is committed, and
/// [`PrefixWalk::pop`] takes the commit back. [`check_prefix`] and
/// [`complete_transform`] push their rows on a fresh walk; the scheduler
/// carries one down its search tree, so a node pays one step rather than
/// its whole path's.
pub struct PrefixWalk<'a> {
    p: &'a Program,
    layout: &'a InstanceLayout,
    deps: &'a DependenceMatrix,
    /// Loop-slot positions, outside-in.
    slots: Vec<usize>,
    states: Vec<DepState<'a>>,
    rows: Vec<IVec>,
    /// What each pushed row's commit changed.
    undo: Vec<Vec<(usize, Undo)>>,
    /// The ASTs [`PrefixWalk::complete`] recovered, by child permutations.
    asts: HashMap<PermKey, Arc<NewAst>>,
}

impl<'a> PrefixWalk<'a> {
    /// The empty prefix of `p`'s transformations: every dependence active.
    pub fn new(p: &'a Program, layout: &'a InstanceLayout, deps: &'a DependenceMatrix) -> Self {
        PrefixWalk {
            p,
            layout,
            deps,
            slots: loop_slot_positions(layout),
            states: build_states(layout, deps),
            rows: Vec::new(),
            undo: Vec::new(),
            asts: HashMap::new(),
        }
    }

    /// The rows pushed so far, outside-in.
    pub fn rows(&self) -> &[IVec] {
        &self.rows
    }

    /// Push `row` for the next loop slot: [`PrefixCheck::Legal`] commits
    /// it; a [`PrefixCheck::Violation`] (whose `row` is this row's index)
    /// leaves the walk as it was. `InvalidTarget` when every slot has a row
    /// or `row` is not as long as an instance vector.
    pub fn push(&mut self, row: IVec) -> Result<PrefixCheck, InlError> {
        let _span = inl_obs::span("complete.prefix");
        inl_obs::counter_add!("complete.prefix_checks", 1);
        self.step(row)
    }

    /// [`PrefixWalk::push`], unobserved.
    fn step(&mut self, row: IVec) -> Result<PrefixCheck, InlError> {
        fits(self.layout, self.slots.len(), self.rows.len(), &row)?;
        let (slot, nparams) = (self.slots[self.rows.len()], self.p.nparams());
        match step_all(self.layout, nparams, slot, row.as_slice(), &self.states)? {
            Err(dep) => Ok(PrefixCheck::Violation {
                row: self.rows.len(),
                dep,
            }),
            Ok(effects) => {
                self.undo.push(commit_all(&mut self.states, effects));
                self.rows.push(row);
                Ok(PrefixCheck::Legal)
            }
        }
    }

    /// Take back the last pushed row.
    pub fn pop(&mut self) {
        if let Some(undo) = self.undo.pop() {
            revert_all(&mut self.states, undo);
            self.rows.pop();
        }
    }

    /// The matrix of the walk's rows, once every loop slot has one, with
    /// the edge rows the syntactic-ordering constraints call for: the
    /// dependences still active between different statements order the
    /// children at the node where the statements' paths diverge. The
    /// constrained nodes' child permutations come with it (old child →
    /// new). `Infeasible` on a cyclic child order.
    fn assemble(&self) -> Result<(IMat, ChildPerms), InlError> {
        let (p, layout, deps) = (self.p, self.layout, self.deps);
        let mut constraints: HashMap<Option<LoopId>, Vec<(usize, usize)>> = HashMap::new();
        let mut constraint_deps: HashMap<Option<LoopId>, Vec<usize>> = HashMap::new();
        for st in &self.states {
            if st.satisfied || st.dep.src == st.dep.dst {
                continue;
            }
            let (node, ca, cb) = divergence(p, st.dep.src, st.dep.dst);
            if ca != cb {
                constraints.entry(node).or_default().push((ca, cb));
                constraint_deps.entry(node).or_default().push(st.idx);
            }
        }
        // topological sort of each constrained node's children
        let mut perms = ChildPerms::new();
        for (node, edges) in &constraints {
            let c = p.children(*node).len();
            let Some(order) = topo_order(c, edges) else {
                if inl_obs::explain_enabled() {
                    let evidence: Vec<String> = constraint_deps[node]
                        .iter()
                        .zip(edges)
                        .map(|(&idx, &(ca, cb))| {
                            format!(
                                "{} (row {}) needs child {ca} before child {cb}",
                                crate::provenance::dep_label(p, idx, &deps.deps[idx]),
                                crate::provenance::dep_row(&deps.deps[idx])
                            )
                        })
                        .collect();
                    inl_obs::explain::reject(
                        "complete",
                        format!("child ordering at {}", p.parent_path(*node)),
                        "all-zero cross-statement dependences impose a cyclic child order",
                    )
                    .detail("constraints", evidence.join("; "))
                    .feature("constraints", edges.len() as i64);
                }
                return Err(InlError::new(
                    InlErrorKind::Infeasible,
                    "cyclic child order",
                ));
            };
            // order[i] = old child at new index i  =>  perm[old] = new
            let mut perm = vec![0usize; c];
            for (newi, &old) in order.iter().enumerate() {
                perm[old] = newi;
            }
            perms.insert(*node, perm);
        }

        let mut m = IMat::zeros(layout.len(), layout.len());
        for (slot, row) in self.slots.iter().zip(&self.rows) {
            for (j, &v) in row.iter().enumerate() {
                m[(*slot, j)] = v;
            }
        }
        for (i, pos) in layout.positions().iter().enumerate() {
            if let Position::Edge { parent, child } = *pos {
                let new_child = perms.get(&parent).map_or(child, |perm| perm[child]);
                let target = layout.edge_position(parent, new_child).expect("edge");
                m[(target, i)] = 1;
            }
        }
        Ok((m, perms))
    }

    /// Complete a walk whose rows are signed unit selectors of distinct
    /// loop positions, one per loop slot — a leaf of the scheduler's tree —
    /// as [`complete_transform`] completes those rows, without checking
    /// the matrix again: its legality report is read off the walk. Every
    /// row kept every dependence non-negative, the edge rows order what
    /// stays active between statements, and the active self-dependences,
    /// in dependence order, are left to augmentation. Such a matrix is a
    /// signed permutation (determinant ±1), and its AST is recovered once
    /// per child order and shared. Writes the records
    /// [`complete_transform`] writes. `InvalidTarget` on any other rows.
    pub fn complete(&mut self) -> Result<Completion, InlError> {
        let _span = inl_obs::span("complete.transform");
        // the loop slot each row selects, if it is a signed unit row
        let selected = self.rows.iter().filter_map(|row| {
            let mut nonzero = row.iter().enumerate().filter(|(_, &v)| v != 0);
            match (nonzero.next(), nonzero.next()) {
                (Some((j, v)), None) if v.abs() == 1 && self.slots.contains(&j) => Some(j),
                _ => None,
            }
        });
        let mut selected: Vec<usize> = selected.collect();
        selected.sort_unstable();
        selected.dedup();
        if selected.len() != self.slots.len() {
            return Err(InlError::new(
                InlErrorKind::InvalidTarget,
                "a walk completes one signed unit row per loop slot",
            ));
        }
        let explain = inl_obs::explain_enabled();
        if explain {
            for (slot_idx, (&slot, row)) in self.slots.iter().zip(&self.rows).enumerate() {
                record_partial_row(slot_idx, slot, row);
            }
        }
        let (m, perms) = self.assemble()?;
        let mut key: PermKey = perms
            .into_iter()
            .filter(|(_, perm)| perm.iter().enumerate().any(|(i, &x)| i != x))
            .collect();
        key.sort_unstable();
        let (p, layout) = (self.p, self.layout);
        let ast = self.asts.entry(key).or_insert_with_key(|key| {
            let mut perms: ChildPerms = tree_nodes(p, layout)
                .map(|node| (node, (0..p.children(node).len()).collect()))
                .collect();
            perms.extend(key.iter().cloned());
            Arc::new(NewAst::rebuild(p, layout, perms))
        });
        let unsatisfied_self = self.states.iter().filter(|st| !st.satisfied);
        let unsatisfied_self = unsatisfied_self.filter(|st| st.dep.src == st.dep.dst);
        let report = LegalityReport {
            new_ast: Ok(Arc::clone(ast)),
            violations: Vec::new(),
            unsatisfied_self: unsatisfied_self.map(|st| st.idx).collect(),
        };
        #[cfg(debug_assertions)]
        crate::legal::assert_walk_agrees(p, layout, self.deps, &m, &report);
        if explain {
            crate::legal::record_legal(p, self.deps, &m, &report);
            record_completed(&m, self.rows.len(), &report, self.deps);
        }
        Ok(Completion { matrix: m, report })
    }
}

/// The `complete` record of a supplied row that keeps every active
/// dependence non-negative. Only called with the explain layer enabled.
fn record_partial_row(slot_idx: usize, slot: usize, row: &IVec) {
    inl_obs::explain::accept(
        "complete",
        format!(
            "partial row {slot_idx} {}",
            crate::provenance::row_text(row)
        ),
        "row keeps every active dependence non-negative",
    )
    .feature("slot", slot as i64);
}

/// The `complete` record of a completed matrix. Only called with the
/// explain layer enabled.
fn record_completed(m: &IMat, partial: usize, report: &LegalityReport, deps: &DependenceMatrix) {
    inl_obs::explain::accept(
        "complete",
        format!("assembled matrix {}", crate::provenance::matrix_text(m)),
        format!(
            "completed {partial} partial rows to a legal transformation ({} self-dependences to augmentation)",
            report.unsatisfied_self.len()
        ),
    )
    .feature("partial_rows", partial as i64)
    .feature("unsatisfied_self", report.unsatisfied_self.len() as i64)
    .feature("deps", deps.deps.len() as i64);
}

/// Check whether a *prefix* of transformation rows can be extended to a
/// legal matrix, without running the completion itself: the rows pushed
/// on a fresh [`PrefixWalk`].
///
/// A [`PrefixCheck::Violation`] kills the entire subtree below the prefix
/// — the dimension-matching idea from Acharya–Bondhugula applied to the
/// paper's dependence projections, which the auto-scheduler (`inl-sched`)
/// applies node by node on a walk it carries. The check is sound and
/// complete for prefix legality (it is exactly the validation pass
/// [`complete_transform`] runs over user-supplied rows), but deliberately
/// emits **no** explain records: callers running thousands of probes
/// record their own decisions.
pub fn check_prefix(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    partial: &[IVec],
) -> Result<PrefixCheck, InlError> {
    let _span = inl_obs::span("complete.prefix");
    inl_obs::counter_add!("complete.prefix_checks", 1);
    slots_for(layout, partial)?;
    let mut walk = PrefixWalk::new(p, layout, deps);
    for row in partial {
        let verdict = walk.step(row.clone())?;
        if verdict != PrefixCheck::Legal {
            return Ok(verdict);
        }
    }
    Ok(PrefixCheck::Legal)
}

/// Complete a partial transformation into a full legal matrix.
///
/// `partial` supplies desired rows (over source vector positions) for the
/// outermost loop slots, in order; it may be empty.
pub fn complete_transform(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    partial: &[IVec],
) -> Result<Completion, InlError> {
    let _span = inl_obs::span("complete.transform");
    let n = layout.len();
    let loop_slots = slots_for(layout, partial)?;
    let mut walk = PrefixWalk::new(p, layout, deps);

    for (slot_idx, row) in partial.iter().enumerate() {
        let slot = loop_slots[slot_idx];
        if let PrefixCheck::Violation { dep: dep_idx, .. } = walk.step(row.clone())? {
            if inl_obs::explain_enabled() {
                let d = &deps.deps[dep_idx];
                inl_obs::explain::reject(
                    "complete",
                    format!(
                        "partial row {slot_idx} {}",
                        crate::provenance::row_text(row)
                    ),
                    format!(
                        "{}: projection of row would go negative",
                        crate::provenance::dep_label(p, dep_idx, d)
                    ),
                )
                .detail("dep_row", crate::provenance::dep_row(d))
                .feature("slot", slot as i64)
                .feature("deps", deps.deps.len() as i64);
            }
            return Err(InlError::new(
                InlErrorKind::Infeasible,
                format!("row {slot_idx} is illegal"),
            ));
        }
        if inl_obs::explain_enabled() {
            record_partial_row(slot_idx, slot, row);
        }
    }

    let independent = |row: &IVec, chosen: &[IVec]| -> Result<bool, InlError> {
        let mut m = IMat::zeros(0, 0);
        for r in chosen {
            m.push_row(r);
        }
        let before = if m.nrows() == 0 { 0 } else { m.checked_rank()? };
        m.push_row(row);
        Ok(m.checked_rank()? > before)
    };
    for (slot_idx, &slot) in loop_slots.iter().enumerate().skip(partial.len()) {
        let mut used_positions = vec![false; n];
        for row in walk.rows() {
            for (j, &v) in row.iter().enumerate() {
                used_positions[j] |= v != 0;
            }
        }
        // Candidate preference mirrors the paper's worked example: keep the
        // remaining original loops in their original order. Try the slot's
        // own selector if unused, then the unused loop selectors outside-in,
        // then reversals, then skew combinations; take the first valid,
        // linearly independent candidate.
        let mut candidates: Vec<IVec> = Vec::new();
        if !used_positions[slot] {
            candidates.push(IVec::unit(n, slot));
        }
        for &q in &loop_slots {
            if !used_positions[q] && q != slot {
                candidates.push(IVec::unit(n, q));
            }
        }
        for &q in &loop_slots {
            candidates.push(IVec::unit(n, q)); // used ones (may combine via independence)
            candidates.push(-&IVec::unit(n, q));
        }
        for &a in &loop_slots {
            for &b in &loop_slots {
                if a != b {
                    candidates.push(&IVec::unit(n, a) + &IVec::unit(n, b));
                    candidates.push(&IVec::unit(n, a) - &IVec::unit(n, b));
                }
            }
        }
        let mut picked = None;
        let mut tried = 0i64;
        for cand in candidates {
            inl_obs::counter_add!("complete.candidates_tried", 1);
            tried += 1;
            if independent(&cand, walk.rows())? && walk.step(cand)? == PrefixCheck::Legal {
                picked = walk.rows().last();
                break;
            }
        }
        let Some(row) = picked else {
            if inl_obs::explain_enabled() {
                inl_obs::explain::reject(
                    "complete",
                    format!("loop slot {slot}"),
                    format!("no legal, linearly independent candidate row among {tried} tried"),
                )
                .feature("slot", slot as i64)
                .feature("candidates_tried", tried);
            }
            return Err(InlError::new(
                InlErrorKind::Infeasible,
                format!("no legal row for slot {slot_idx}"),
            ));
        };
        if inl_obs::explain_enabled() {
            inl_obs::explain::note(
                "complete",
                format!("loop slot {slot}"),
                format!(
                    "chose row {} after {tried} candidates",
                    crate::provenance::row_text(row)
                ),
            )
            .feature("slot", slot as i64)
            .feature("candidates_tried", tried);
        }
    }

    let (m, _) = walk.assemble()?;
    let report = check_legal(p, layout, deps, &m)?;
    if !report.is_legal() {
        let why = report
            .new_ast
            .as_ref()
            .err()
            .cloned()
            .unwrap_or_else(|| format!("{:?}", report.violations));
        if inl_obs::explain_enabled() {
            // check_legal above already recorded the violating dependence
            // row; this record ties the failure to the completion attempt.
            inl_obs::explain::reject(
                "complete",
                format!("assembled matrix {}", crate::provenance::matrix_text(&m)),
                format!("final legality check failed: {why}"),
            )
            .feature("partial_rows", partial.len() as i64);
        }
        return Err(InlError::new(
            InlErrorKind::Infeasible,
            format!("final legality check failed: {why}"),
        ));
    }
    if inl_obs::explain_enabled() {
        record_completed(&m, partial.len(), &report, deps);
    }
    Ok(Completion { matrix: m, report })
}

/// The node at which the paths to two statements diverge, and the child
/// indices each takes there.
fn divergence(p: &Program, a: StmtId, b: StmtId) -> (Option<LoopId>, usize, usize) {
    let la = p.loops_surrounding(a);
    let lb = p.loops_surrounding(b);
    let ncommon = la.iter().zip(&lb).take_while(|(x, y)| x == y).count();
    let node: Option<LoopId> = if ncommon == 0 {
        None
    } else {
        Some(la[ncommon - 1])
    };
    let children = p.children(node);
    let towards = |s: StmtId, next: Option<LoopId>| -> usize {
        let target = match next {
            Some(l) => Node::Loop(l),
            None => Node::Stmt(s),
        };
        children
            .iter()
            .position(|&ch| crate::transform::node_contains(p, ch, target))
            .expect("child towards statement")
    };
    let ca = towards(a, la.get(ncommon).copied());
    let cb = towards(b, lb.get(ncommon).copied());
    (node, ca, cb)
}

/// Stable topological order of `0..c` under `before` edges; `None` on a
/// cycle. Prefers the smallest available original index (stability).
#[allow(clippy::question_mark)] // the let-else reads better than `?` on find()
fn topo_order(c: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut indeg = vec![0usize; c];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); c];
    for &(a, b) in edges {
        if a == b {
            return None;
        }
        adj[a].push(b);
        indeg[b] += 1;
    }
    let mut out = Vec::with_capacity(c);
    let mut done = vec![false; c];
    while out.len() < c {
        let Some(next) = (0..c).find(|&i| !done[i] && indeg[i] == 0) else {
            return None;
        };
        done[next] = true;
        out.push(next);
        for &t in &adj[next] {
            indeg[t] -= 1;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::analyze;
    use crate::perstmt::schedule_all;
    use inl_ir::zoo;

    fn looop(p: &Program, name: &str) -> LoopId {
        p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
    }

    #[test]
    fn empty_partial_completes_to_legal() {
        for p in [
            zoo::simple_cholesky(),
            zoo::cholesky_kij(),
            zoo::wavefront(),
        ] {
            let layout = InstanceLayout::new(&p);
            let deps = analyze(&p, &layout).expect("analysis");
            let c = complete_transform(&p, &layout, &deps, &[]).expect("completes");
            assert!(c.report.is_legal(), "{}", p.name());
        }
    }

    #[test]
    fn paper_section6_completion() {
        // §6: completing the one-row partial transformation on full
        // Cholesky yields a legal matrix that (a) reorders K's children to
        // [J-nest, S1, I-loop] and (b) has the left-looking per-statement
        // permutation (k,j,l) → (l,j,k) for S3, with every per-statement
        // transform non-singular (no augmentation).
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        // "make the updated-column position outermost": the unit selector
        // of the L position (see EXPERIMENTS.md E6 for why this is the
        // corrected form of the paper's printed first row)
        let l = looop(&p, "L");
        let partial = vec![IVec::unit(layout.len(), layout.loop_position(l))];
        let c = complete_transform(&p, &layout, &deps, &partial).expect("completes");
        assert!(c.report.is_legal());
        let ast = c.report.new_ast.as_ref().unwrap();
        let k = looop(&p, "K");
        assert_eq!(
            ast.child_perms[&Some(k)],
            vec![1, 2, 0],
            "children reorder to J,S1,I"
        );
        let scheds = schedule_all(&p, &layout, &c.matrix, &deps, &c.report).expect("schedules");
        for s in &scheds {
            assert_eq!(s.n_aug, 0, "no augmentation needed (paper's claim)");
            assert!(s.n_s.is_unimodular());
        }
        let s3 = p.stmts().find(|&s| p.stmt_decl(s).name == "S3").unwrap();
        let sched = scheds.iter().find(|s| s.stmt == s3).unwrap();
        assert_eq!(
            sched.rows,
            IMat::from_rows(&[&[0, 0, 1][..], &[0, 1, 0], &[1, 0, 0]]),
            "S3 is scheduled left-looking: (k,j,l) → (l,j,k)"
        );
    }

    #[test]
    fn simple_cholesky_interchange_completion() {
        // partial: new outer = old J position. Completion must discover
        // the statement reordering (S2's loop before S1) that makes the
        // interchange legal.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let j = looop(&p, "J");
        let partial = vec![IVec::unit(layout.len(), layout.loop_position(j))];
        let c = complete_transform(&p, &layout, &deps, &partial).expect("completes");
        assert!(c.report.is_legal());
        let ast = c.report.new_ast.as_ref().unwrap();
        let order = ast.program.stmts_in_syntactic_order();
        assert_eq!(
            ast.program.stmt_decl(order[0]).name,
            "S2",
            "updates before sqrt"
        );
    }

    #[test]
    fn illegal_partial_row_rejected() {
        // new outer = −I reverses every I-carried dependence
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = looop(&p, "I");
        let partial = vec![-&IVec::unit(layout.len(), layout.loop_position(i))];
        let e = complete_transform(&p, &layout, &deps, &partial).expect_err("illegal");
        assert_eq!(e.kind(), InlErrorKind::Infeasible);
        assert_eq!(e.message(), "row 0 is illegal");
    }

    #[test]
    fn too_many_rows_rejected() {
        let p = zoo::perfect_nest();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let rows = vec![IVec::unit(2, 0), IVec::unit(2, 1), IVec::unit(2, 0)];
        let e = complete_transform(&p, &layout, &deps, &rows).expect_err("too many");
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        assert_eq!(e.message(), "more partial rows than loop slots");
    }

    #[test]
    fn prefix_check_agrees_with_completion() {
        // check_prefix is exactly the validation pass complete_transform
        // runs over partial rows: a Violation must imply an illegal row,
        // and Legal prefixes of unit rows must complete.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = looop(&p, "I");
        let j = looop(&p, "J");
        let pos = |l| layout.loop_position(l);
        let ok = vec![IVec::unit(layout.len(), pos(j))];
        assert_eq!(
            check_prefix(&p, &layout, &deps, &ok).unwrap(),
            PrefixCheck::Legal
        );
        assert!(complete_transform(&p, &layout, &deps, &ok).is_ok());
        let bad = vec![-&IVec::unit(layout.len(), pos(i))];
        let PrefixCheck::Violation { row, dep } = check_prefix(&p, &layout, &deps, &bad).unwrap()
        else {
            panic!("reversed I must violate a dependence");
        };
        assert_eq!(row, 0);
        assert!(dep < deps.deps.len());
        let e = complete_transform(&p, &layout, &deps, &bad).expect_err("illegal");
        assert_eq!(e.kind(), InlErrorKind::Infeasible);
        assert_eq!(e.message(), "row 0 is illegal");
    }

    #[test]
    fn prefix_violation_iff_projection_violation() {
        // One stepper, walked two ways — slot by slot over candidate rows
        // (check_prefix) and dependence by dependence over a finished
        // matrix (check_legal) — must tell the same story for every signed
        // full-depth loop permutation: the prefix is cut iff the matrix
        // assembled from those rows has a projection violation, and the
        // dependence the cut names is one of the violated ones.
        for (name, make) in zoo::ALL {
            let p = make();
            let layout = InstanceLayout::new(&p);
            let slots = loop_slot_positions(&layout);
            if slots.len() > 4 {
                continue;
            }
            let deps = analyze(&p, &layout).expect("analysis");
            let n = layout.len();
            for order in inl_linalg::permutations(&slots) {
                for signs in 0..1u32 << slots.len() {
                    let rows: Vec<IVec> = order
                        .iter()
                        .enumerate()
                        .map(|(k, &q)| {
                            let unit = IVec::unit(n, q);
                            if signs >> k & 1 == 1 {
                                -&unit
                            } else {
                                unit
                            }
                        })
                        .collect();
                    // the rows at the loop slots, identity at the edge slots
                    let mut m = IMat::identity(n);
                    for (&slot, row) in slots.iter().zip(&rows) {
                        for (j, &v) in row.iter().enumerate() {
                            m[(slot, j)] = v;
                        }
                    }
                    let report = check_legal(&p, &layout, &deps, &m).expect("legality");
                    assert!(report.new_ast.is_ok(), "{name}: signed permutation");
                    // a zero projection against the syntactic order is the
                    // completion's business (child reordering), not a cut
                    let negative: Vec<usize> = report
                        .violations
                        .iter()
                        .filter(|v| !v.reason.starts_with("projection is zero"))
                        .map(|v| v.dep)
                        .collect();
                    match check_prefix(&p, &layout, &deps, &rows).expect("prefix") {
                        PrefixCheck::Legal => assert!(
                            negative.is_empty(),
                            "{name} {rows:?}: prefix legal, check_legal violates {negative:?}"
                        ),
                        PrefixCheck::Violation { dep, .. } => assert!(
                            negative.contains(&dep),
                            "{name} {rows:?}: prefix names dep {dep}, check_legal {negative:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_check_validates_shape() {
        let p = zoo::perfect_nest();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let e = check_prefix(&p, &layout, &deps, &[IVec::unit(3, 0)]).expect_err("length");
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        assert_eq!(e.message(), "row 0 has length 3, not 2");
        let rows = vec![IVec::unit(2, 0), IVec::unit(2, 1), IVec::unit(2, 0)];
        let e = check_prefix(&p, &layout, &deps, &rows).expect_err("too many");
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        assert_eq!(e.message(), "more partial rows than loop slots");
    }

    #[test]
    fn a_walk_completes_only_a_signed_permutation() {
        // a skew row is a legal prefix of the wavefront, and completion
        // finishes it, but a walk's leaf report assumes a determinant of
        // ±1: it completes signed unit rows of distinct loops, all slots
        // filled, and nothing else
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let (i, j) = (looop(&p, "I"), looop(&p, "J"));
        let unit = |l| IVec::unit(layout.len(), layout.loop_position(l));
        let mut walk = PrefixWalk::new(&p, &layout, &deps);
        let skew = &unit(i) + &unit(j);
        assert_eq!(walk.push(skew.clone()).unwrap(), PrefixCheck::Legal);
        assert!(complete_transform(&p, &layout, &deps, &[skew]).is_ok());
        assert_eq!(walk.push(unit(j)).unwrap(), PrefixCheck::Legal);
        let e = walk.complete().expect_err("a skewed leaf");
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        let e = walk.push(unit(i)).expect_err("every slot has a row");
        assert_eq!(e.message(), "more partial rows than loop slots");
        walk.pop();
        walk.pop();
        assert!(walk.rows().is_empty());
        // a slot left, then a loop twice
        for _ in 0..2 {
            assert_eq!(walk.push(unit(j)).unwrap(), PrefixCheck::Legal);
            let e = walk.complete().expect_err("not a signed permutation");
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        }
        walk.pop();
        assert_eq!(walk.push(unit(i)).unwrap(), PrefixCheck::Legal);
        let c = walk.complete().expect("JI completes");
        let from_root = complete_transform(&p, &layout, &deps, walk.rows()).unwrap();
        assert_eq!(c.matrix, from_root.matrix);
    }

    #[test]
    fn completion_is_deterministic() {
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let a = complete_transform(&p, &layout, &deps, &[]).unwrap();
        let b = complete_transform(&p, &layout, &deps, &[]).unwrap();
        assert_eq!(a.matrix, b.matrix);
    }
}
