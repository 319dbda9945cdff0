//! The completion procedure (§6 of the paper).
//!
//! Given a dependence matrix and a *partial* transformation — the desired
//! rows for the first few loop slots — produce a complete legal
//! transformation matrix. This generalizes the Li–Pingali completion for
//! perfectly nested loops \[10\]:
//!
//! * loop slots are processed outside-in; each gets either the next
//!   user-supplied row or the first candidate (unit position selectors,
//!   then their negations, then pairwise skew combinations) that is
//!   linearly independent of the rows so far and keeps every
//!   still-active dependence non-negative;
//! * dependences whose projection ends up all-zero between *different*
//!   statements are satisfied syntactically: they impose "source's child
//!   before target's child" constraints at the divergence node, which a
//!   topological sort turns into the child permutations (the edge rows);
//! * leftover all-zero *self* dependences are legal — the augmentation
//!   step (§5.4) adds loops that carry them.
//!
//! Every row is one step of a [`PrefixWalk`], so the completed matrix is
//! legal by construction: its legality report is read off the walk, and
//! the one thing the walk cannot see, a singular matrix, is ruled out by a
//! determinant where the rows are not a signed permutation.
//! [`complete_transform`] and the scheduler's leaves
//! ([`PrefixWalk::complete`]) end on the same finish.
//!
//! The §6 worked example — completing "make the updated-column position
//! outermost" on right-looking Cholesky into the left-looking form — is
//! reproduced in the tests.

use crate::depend::DependenceMatrix;
use crate::instance::{InstanceLayout, Position};
use crate::legal::{nonsingular, tree_nodes, LegalityReport, NewAst};
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
/// [`complete_transform`] push their supplied rows on a fresh walk in one
/// pass; the scheduler carries one down its search tree, so a node pays
/// one step rather than its whole path's.
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
            slots: layout.loops().map(|(pos, _)| pos).collect(),
            states: build_states(layout, deps),
            rows: Vec::new(),
            undo: Vec::new(),
            asts: HashMap::new(),
        }
    }

    /// A fresh walk with the rows of `partial` pushed, unobserved, up to
    /// the first that drives a dependence negative: that row's
    /// [`PrefixCheck::Violation`], or [`PrefixCheck::Legal`]. The one pass
    /// over supplied rows of [`check_prefix`] and [`complete_transform`];
    /// `InvalidTarget` before any step unless every row [`fits`].
    fn supplied(
        p: &'a Program,
        layout: &'a InstanceLayout,
        deps: &'a DependenceMatrix,
        partial: &[IVec],
    ) -> Result<(Self, PrefixCheck), InlError> {
        let mut walk = PrefixWalk::new(p, layout, deps);
        for (i, row) in partial.iter().enumerate() {
            fits(layout, walk.slots.len(), i, row)?;
        }
        for row in partial {
            let verdict = walk.step(row.clone())?;
            if verdict != PrefixCheck::Legal {
                return Ok((walk, verdict));
            }
        }
        Ok((walk, PrefixCheck::Legal))
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

    /// Complete a walk with a row for every loop slot — a leaf of the
    /// scheduler's tree — as [`complete_transform`] completes those rows:
    /// the rows are recorded as supplied rows, then the walk finishes as
    /// every completion does. `InvalidTarget` while a slot has no row.
    pub fn complete(&mut self) -> Result<Completion, InlError> {
        let _span = inl_obs::span("complete.transform");
        if self.rows.len() != self.slots.len() {
            return Err(InlError::new(
                InlErrorKind::InvalidTarget,
                "a walk completes with a row for every loop slot",
            ));
        }
        if inl_obs::explain_enabled() {
            self.record_rows();
        }
        self.finish(self.rows.len())
    }

    /// The `complete` record of each row pushed so far: it keeps every
    /// active dependence non-negative. Only called with the explain layer
    /// enabled.
    fn record_rows(&self) {
        for (slot_idx, (&slot, row)) in self.slots.iter().zip(&self.rows).enumerate() {
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
    }

    /// Whether every row selects a distinct loop position, with sign ±1:
    /// with the edge rows the matrix is then a signed permutation, whose
    /// determinant is ±1.
    fn signed_permutation(&self) -> bool {
        let mut seen = vec![false; self.layout.len()];
        self.rows.iter().all(|row| {
            let mut nonzero = row.iter().enumerate().filter(|(_, &v)| v != 0);
            match (nonzero.next(), nonzero.next()) {
                (Some((j, v)), None) if v.abs() == 1 && self.slots.contains(&j) => {
                    !std::mem::replace(&mut seen[j], true)
                }
                _ => false,
            }
        })
    }

    /// The one tail of every completion, once every loop slot has a row:
    /// the [`assemble`](Self::assemble)d matrix, whose legality report is
    /// read off the walk rather than checked again. Every row kept every
    /// dependence non-negative, the edge rows order what stays active
    /// between statements, and the active self-dependences, in dependence
    /// order, are left to augmentation. What the walk cannot see is a
    /// singular matrix: rows that are not a signed permutation get one
    /// [`nonsingular`] check. The AST is recovered once per child order and
    /// shared. Writes the `legal` and `completed` records, `partial` being
    /// how many rows the caller supplied. `Infeasible` on a cyclic child
    /// order or a singular matrix.
    fn finish(&mut self, partial: usize) -> Result<Completion, InlError> {
        let explain = inl_obs::explain_enabled();
        let (m, perms) = self.assemble()?;
        if !self.signed_permutation() {
            if let Err(why) = nonsingular(&m) {
                let why = format!("final legality check failed: {why}");
                if explain {
                    let subject =
                        format!("assembled matrix {}", crate::provenance::matrix_text(&m));
                    inl_obs::explain::reject("complete", subject, why.clone())
                        .feature("partial_rows", partial as i64);
                }
                return Err(InlError::new(InlErrorKind::Infeasible, why));
            }
        }
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
            let unsatisfied = report.unsatisfied_self.len();
            inl_obs::explain::accept(
                "complete",
                format!("assembled matrix {}", crate::provenance::matrix_text(&m)),
                format!(
                    "completed {partial} partial rows to a legal transformation ({unsatisfied} self-dependences to augmentation)"
                ),
            )
            .feature("partial_rows", partial as i64)
            .feature("unsatisfied_self", unsatisfied as i64)
            .feature("deps", self.deps.deps.len() as i64);
        }
        Ok(Completion { matrix: m, report })
    }
}

/// Check whether a *prefix* of transformation rows can be extended to a
/// legal matrix, without running the completion itself: the rows pushed
/// on a fresh [`PrefixWalk`].
///
/// A [`PrefixCheck::Violation`] kills the entire subtree below the prefix
/// — the dimension-matching idea from Acharya–Bondhugula applied to the
/// paper's dependence projections, which the auto-scheduler (`inl-sched`)
/// applies node by node on a walk it carries. The check is sound and
/// complete for prefix legality (it is the one pass over supplied rows
/// that [`complete_transform`] makes too), but deliberately emits **no**
/// explain records: callers running thousands of probes record their own
/// decisions.
pub fn check_prefix(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    partial: &[IVec],
) -> Result<PrefixCheck, InlError> {
    let _span = inl_obs::span("complete.prefix");
    inl_obs::counter_add!("complete.prefix_checks", 1);
    Ok(PrefixWalk::supplied(p, layout, deps, partial)?.1)
}

/// Complete a partial transformation into a full legal matrix.
///
/// `partial` supplies desired rows (over source vector positions) for the
/// outermost loop slots, in order; it may be empty. The remaining slots
/// get candidate rows pushed on the same walk, which then finishes as a
/// scheduler leaf does ([`PrefixWalk::complete`]).
pub fn complete_transform(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    partial: &[IVec],
) -> Result<Completion, InlError> {
    let _span = inl_obs::span("complete.transform");
    let (n, explain) = (layout.len(), inl_obs::explain_enabled());
    let (mut walk, verdict) = PrefixWalk::supplied(p, layout, deps, partial)?;
    let loop_slots = walk.slots.clone();
    if explain {
        walk.record_rows();
    }
    if let PrefixCheck::Violation {
        row: slot_idx,
        dep: dep_idx,
    } = verdict
    {
        if explain {
            let d = &deps.deps[dep_idx];
            inl_obs::explain::reject(
                "complete",
                format!(
                    "partial row {slot_idx} {}",
                    crate::provenance::row_text(&partial[slot_idx])
                ),
                format!(
                    "{}: projection of row would go negative",
                    crate::provenance::dep_label(p, dep_idx, d)
                ),
            )
            .detail("dep_row", crate::provenance::dep_row(d))
            .feature("slot", loop_slots[slot_idx] as i64)
            .feature("deps", deps.deps.len() as i64);
        }
        return Err(InlError::new(
            InlErrorKind::Infeasible,
            format!("row {slot_idx} is illegal"),
        ));
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
            if explain {
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
        if explain {
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

    walk.finish(partial.len())
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
    fn a_walk_completes_any_rows_one_per_slot() {
        // a walk finishes as complete_transform does: a skewed leaf is
        // legal, a loop given twice is singular, and a slot without a row
        // is no leaf
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let (i, j) = (looop(&p, "I"), looop(&p, "J"));
        let unit = |l| IVec::unit(layout.len(), layout.loop_position(l));
        let mut walk = PrefixWalk::new(&p, &layout, &deps);
        assert_eq!(walk.push(&unit(i) + &unit(j)).unwrap(), PrefixCheck::Legal);
        let e = walk.complete().expect_err("a slot without a row");
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        assert_eq!(walk.push(unit(j)).unwrap(), PrefixCheck::Legal);
        let c = walk.complete().expect("a skewed leaf");
        let from_rows = complete_transform(&p, &layout, &deps, walk.rows()).unwrap();
        assert_eq!(c.matrix, from_rows.matrix);
        assert_eq!(c.report.unsatisfied_self, from_rows.report.unsatisfied_self);
        let e = walk.push(unit(i)).expect_err("every slot has a row");
        assert_eq!(e.message(), "more partial rows than loop slots");
        walk.pop();
        walk.pop();
        assert_eq!(walk.push(unit(j)).unwrap(), PrefixCheck::Legal);
        assert_eq!(walk.push(unit(j)).unwrap(), PrefixCheck::Legal);
        let twice = [
            walk.complete(),
            complete_transform(&p, &layout, &deps, walk.rows()),
        ];
        for e in twice.map(|c| c.expect_err("J twice")) {
            assert_eq!(e.kind(), InlErrorKind::Infeasible);
            assert_eq!(
                e.message(),
                "final legality check failed: matrix is singular"
            );
        }
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
