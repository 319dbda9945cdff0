//! Structural AST surgery: child reordering, loop distribution, loop
//! jamming (fusion), loop splitting (strip-mining).
//!
//! These build the *target programs* of the paper's §4.2 AST
//! transformations — plus strip-mining, which sits outside the paper's
//! matrix framework (see DESIGN.md → "Tiling"). Legality is the caller's
//! business (`inl-core`); the operations here are purely structural and
//! keep statement ids stable so instance mappings can be tracked across
//! the surgery. Distribution, jamming and splitting check their own
//! structural preconditions and report a violated one as an
//! [`InvalidTarget`](inl_linalg::InlErrorKind::InvalidTarget) error that
//! names the node path.

use crate::aff::{Aff, VarKey};
use crate::program::{Bound, LoopDecl, LoopId, Node, Program};
use inl_linalg::{InlError, Int};
use std::sync::Arc;

impl Program {
    /// Human-readable path of a node (`None` = virtual root) as
    /// [`InlError::invalid_target`] errors name it: `<root>` or
    /// `loop {name}`.
    pub fn parent_path(&self, parent: Option<LoopId>) -> String {
        match parent {
            None => "<root>".to_string(),
            Some(q) => format!("loop {}", self.loops[q.0].name),
        }
    }

    /// The parent of loop `l` (`None` = virtual root) and `l`'s index
    /// among its children.
    ///
    /// # Errors
    /// `InvalidTarget` if `l` is detached from the program (a jam leaves
    /// the second loop's declaration behind, attached nowhere).
    pub fn loop_site(&self, l: LoopId) -> Result<(Option<LoopId>, usize), InlError> {
        let parent = self.loops_surrounding_loop(l).last().copied();
        let siblings = self.children(parent);
        match siblings.iter().position(|&n| n == Node::Loop(l)) {
            Some(idx) => Ok((parent, idx)),
            None => Err(InlError::invalid_target(
                self.parent_path(Some(l)),
                "loop is not attached to the program",
            )),
        }
    }

    fn children_mut(&mut self, parent: Option<LoopId>) -> &mut Vec<Node> {
        match parent {
            None => &mut self.root,
            Some(l) => &mut self.loops[l.0].children,
        }
    }

    /// The program with the children of `parent` (`None` = virtual root)
    /// reordered: old child `j` moves to index `perm[j]`.
    ///
    /// # Panics
    /// If `perm` is not a permutation of the child indices.
    pub fn reorder_children(mut self, parent: Option<LoopId>, perm: &[usize]) -> Program {
        let children = self.children_mut(parent);
        assert_eq!(perm.len(), children.len(), "permutation arity mismatch");
        let old = children.clone();
        for (j, &nj) in perm.iter().enumerate() {
            children[nj] = old[j];
        }
        self.name = format!("{}_reordered", self.name);
        self
    }

    /// Distribute loop `l` at `split`: the loop is replaced by two copies,
    /// the first keeping children `..split`, the second (a fresh loop with
    /// the same bounds, named by the first of `{name}_2`, `{name}_3`, …
    /// that no loop of the program has) getting children `split..`. All references to `l`'s
    /// index variable inside the moved subtree are rewritten to the new
    /// loop's variable. Returns the program and the fresh loop's id.
    ///
    /// # Errors
    /// `InvalidTarget` if `split` is not in `1..children.len()` or `l` is
    /// detached from the program.
    pub fn distribute_loop(&self, l: LoopId, split: usize) -> Result<(Program, LoopId), InlError> {
        let nchildren = self.loops[l.0].children.len();
        if split == 0 || split >= nchildren {
            return Err(InlError::invalid_target(
                self.parent_path(Some(l)),
                format!("split {split} out of range for {nchildren} children"),
            ));
        }
        let (parent, idx) = self.loop_site(l)?;
        let mut out = self.clone();
        let moved: Vec<Node> = out.loops[l.0].children.split_off(split);
        let new_id = LoopId(out.loops.len());
        let old_decl = out.loops[l.0].clone();
        let taken = |name: &String| self.loops.iter().any(|d| d.name == *name);
        let mut names = (2..).map(|k| format!("{}_{k}", old_decl.name));
        out.loops.push(LoopDecl {
            name: names.find(|name| !taken(name)).expect("a free name"),
            lower: old_decl.lower.clone(),
            upper: old_decl.upper.clone(),
            step: old_decl.step,
            children: moved.clone(),
            parallel: false,
        });
        // rewrite l -> new_id in the moved subtree
        rewrite_subtree(&mut out, &moved, &|a| rename_loop(a, l, new_id));
        // insert the new loop right after l in its parent's child list
        out.children_mut(parent).insert(idx + 1, Node::Loop(new_id));
        out.name = format!("{}_distributed", self.name);
        Ok((out, new_id))
    }

    /// Jam (fuse) two adjacent sibling loops: children `idx` and `idx + 1`
    /// of `parent` must both be loops with structurally identical bounds
    /// (after renaming the second's variable to the first's) and steps.
    /// The second loop's body is appended to the first's; references to
    /// the second loop's variable are rewritten. Returns the program and
    /// the two fused loops: the first, which now holds both bodies, and
    /// the second, whose declaration stays behind detached.
    ///
    /// # Errors
    /// `InvalidTarget` if the children are not adjacent sibling loops with
    /// identical bounds and steps.
    pub fn jam_loops(
        &self,
        parent: Option<LoopId>,
        idx: usize,
    ) -> Result<(Program, LoopId, LoopId), InlError> {
        let siblings = self.children(parent);
        if idx + 1 >= siblings.len() {
            return Err(InlError::invalid_target(
                self.parent_path(parent),
                format!(
                    "jam needs children {idx} and {} but there are only {}",
                    idx + 1,
                    siblings.len()
                ),
            ));
        }
        let (Node::Loop(a), Node::Loop(b)) = (siblings[idx], siblings[idx + 1]) else {
            return Err(InlError::invalid_target(
                format!(
                    "{}, children {idx} and {}",
                    self.parent_path(parent),
                    idx + 1
                ),
                "jam targets must both be loops",
            ));
        };
        let (da, db) = (&self.loops[a.0], &self.loops[b.0]);
        let rename = |aff: &Aff| rename_loop(aff, b, a);
        let rebound = |bd: &Bound| Bound {
            terms: bd.terms.iter().map(rename).collect(),
        };
        let mismatch = if rebound(&db.lower) != da.lower || rebound(&db.upper) != da.upper {
            Some("jam requires identical bounds")
        } else if da.step != db.step {
            Some("jam requires identical steps")
        } else {
            None
        };
        if let Some(why) = mismatch {
            return Err(InlError::invalid_target(
                format!("loops {} and {}", da.name, db.name),
                why,
            ));
        }
        let mut out = self.clone();
        // rewrite b -> a in b's subtree, then append children
        let moved = std::mem::take(&mut out.loops[b.0].children);
        rewrite_subtree(&mut out, &moved, &rename);
        out.loops[a.0].children.extend(moved);
        // remove b from the sibling list (the dead LoopDecl remains,
        // harmlessly detached)
        out.children_mut(parent).remove(idx + 1);
        out.name = format!("{}_jammed", self.name);
        Ok((out, a, b))
    }

    /// Split (strip-mine) loop `l` into an outer×tile pair: a fresh outer
    /// loop `{name}o` ranges over tile numbers and the original loop is
    /// nested inside it, confined to one tile. The original index keeps
    /// its **absolute** value — index reconstruction is the identity
    /// `l = l` with the tile relation `tile·o ≤ l ≤ tile·o + tile − 1`
    /// enforced by the inner bounds — so no subscript, guard, or rhs
    /// rewriting happens and every dependence distance on `l` is
    /// preserved exactly. Returns the program and the outer loop's id.
    ///
    /// Bound construction (divisor arithmetic on [`Aff`], consumed by the
    /// usual max-of-ceilings / min-of-floors [`Bound`] semantics):
    ///
    /// * outer lower: each original lower term `t` becomes
    ///   `(t + 1 − tile) / tile` — its ceiling is `floor(lower/tile)`,
    ///   the first tile with any point;
    /// * outer upper: each original upper term `t` becomes `t / tile` —
    ///   its floor is `floor(upper/tile)`, the last tile with any point;
    /// * inner: the original terms stay and two clamp terms are pushed,
    ///   lower `tile·o` and upper `tile·o + tile − 1`. The multi-term
    ///   `Bound` min/max natively expresses the partial last tile, so no
    ///   explicit min-guard statement is needed.
    ///
    /// # Errors
    /// `InvalidTarget` if `tile < 2`, `l` has a non-unit step, or `l` is
    /// detached from the program.
    pub fn split_loop(&self, l: LoopId, tile: Int) -> Result<(Program, LoopId), InlError> {
        let path = || self.parent_path(Some(l));
        if tile < 2 {
            return Err(InlError::invalid_target(
                path(),
                format!("tile size {tile} must be at least 2"),
            ));
        }
        if self.loops[l.0].step != 1 {
            return Err(InlError::invalid_target(
                path(),
                "cannot split a stepped loop",
            ));
        }
        let (parent, idx) = self.loop_site(l)?;
        let mut out = self.clone();
        let outer = LoopId(out.loops.len());
        let old = &out.loops[l.0];
        let lower = Bound {
            terms: old
                .lower
                .terms
                .iter()
                .map(|t| (t.clone() + Aff::konst(1 - tile)).exact_div(tile))
                .collect(),
        };
        let upper = Bound {
            terms: old.upper.terms.iter().map(|t| t.exact_div(tile)).collect(),
        };
        out.loops.push(LoopDecl {
            name: format!("{}o", old.name),
            lower,
            upper,
            step: 1,
            children: vec![Node::Loop(l)],
            parallel: false,
        });
        let clamp = Aff::var(VarKey::Loop(outer)) * tile;
        out.loops[l.0].lower.terms.push(clamp.clone());
        out.loops[l.0]
            .upper
            .terms
            .push(clamp + Aff::konst(tile - 1));
        // the outer loop takes the original's place in its parent
        out.children_mut(parent)[idx] = Node::Loop(outer);
        out.name = format!("{}_split", self.name);
        Ok((out, outer))
    }
}

/// `a` with loop `from`'s variable renamed to loop `to`'s.
fn rename_loop(a: &Aff, from: LoopId, to: LoopId) -> Aff {
    a.rename_loops(|id| if id == from { to } else { id })
}

/// Rewrite every affine expression in the subtree (nested loop bounds,
/// statement subscripts, guards, rhs) with `subst`.
fn rewrite_subtree(p: &mut Program, nodes: &[Node], subst: &dyn Fn(&Aff) -> Aff) {
    for &n in nodes {
        match n {
            Node::Loop(l) => {
                let children = p.loops[l.0].children.clone();
                let ld = &mut p.loops[l.0];
                ld.lower.terms = ld.lower.terms.iter().map(subst).collect();
                ld.upper.terms = ld.upper.terms.iter().map(subst).collect();
                rewrite_subtree(p, &children, subst);
            }
            Node::Stmt(s) => {
                let sd = &mut Arc::make_mut(&mut p.stmts)[s.0];
                sd.write.idxs = sd.write.idxs.iter().map(subst).collect();
                sd.rhs = sd.rhs.map_affs(subst);
                for g in &mut sd.guards {
                    match g {
                        crate::program::Guard::Ge(a)
                        | crate::program::Guard::Eq(a)
                        | crate::program::Guard::Div(a, _) => *a = subst(a),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn reorder_children_of_root_loop() {
        let p = zoo::simple_cholesky();
        let i = p.loops().next().unwrap();
        let q = p.reorder_children(Some(i), &[1, 0]);
        // S1 was first; now the J loop is first
        assert!(matches!(q.loop_decl(i).children[0], Node::Loop(_)));
        assert!(matches!(q.loop_decl(i).children[1], Node::Stmt(_)));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn distribute_simple_cholesky_structure() {
        // distributing the I loop of simple Cholesky yields the §4.2 shape
        let p = zoo::simple_cholesky();
        let i = p.loops().next().unwrap();
        let (q, new_loop) = p.distribute_loop(i, 1).unwrap();
        assert_eq!(q.root().len(), 2);
        assert_eq!(q.root()[1], Node::Loop(new_loop));
        assert_eq!(q.loop_decl(i).children.len(), 1);
        assert_eq!(q.loop_decl(new_loop).children.len(), 1);
        assert!(q.validate().is_ok(), "{:?}", q.validate());
        // the moved J loop's bound now references the new loop variable
        let Node::Loop(j) = q.loop_decl(new_loop).children[0] else {
            panic!()
        };
        let lower = &q.loop_decl(j).lower.terms[0];
        assert_eq!(lower.coeff(VarKey::Loop(new_loop)), 1);
        assert_eq!(lower.coeff(VarKey::Loop(i)), 0);
    }

    #[test]
    fn distribution_names_a_loop_no_loop_has() {
        // once I is distributed, I_2 is taken: distributing I again makes I_3
        let p = zoo::running_example();
        let named = |p: &Program, name: &str| p.loops().find(|&l| p.loop_decl(l).name == name);
        let (p, i2) = p.distribute_loop(named(&p, "I").unwrap(), 1).unwrap();
        let (p, j2) = p.distribute_loop(named(&p, "J").unwrap(), 1).unwrap();
        let (p, i3) = p.distribute_loop(named(&p, "I").unwrap(), 1).unwrap();
        let names = [i2, j2, i3].map(|l| p.loop_decl(l).name.clone());
        assert_eq!(names, ["I_2", "J_2", "I_3"]);
        assert!(p.validate().is_ok(), "{:?}", p.validate());
    }

    #[test]
    fn jam_round_trips_distribution() {
        let p = zoo::simple_cholesky();
        let i = p.loops().next().unwrap();
        let (q, _new) = p.distribute_loop(i, 1).unwrap();
        let (r, _, _) = q.jam_loops(None, 0).unwrap();
        assert_eq!(r.root().len(), 1);
        let Node::Loop(merged) = r.root()[0] else {
            panic!()
        };
        assert_eq!(r.loop_decl(merged).children.len(), 2);
        assert!(r.validate().is_ok(), "{:?}", r.validate());
        // pseudo-code equals the original's
        assert_eq!(r.to_pseudocode(), p.to_pseudocode());
    }

    #[test]
    fn split_matmul_k_structure() {
        let p = zoo::matmul();
        let k = p.loops().nth(2).unwrap();
        let (q, outer) = p.split_loop(k, 16).unwrap();
        assert!(q.validate().is_ok(), "{:?}", q.validate());
        assert_eq!(q.loop_decl(outer).name, "Ko");
        // outer replaced K in J's children; K is the outer's only child
        assert_eq!(q.loop_decl(outer).children, vec![Node::Loop(k)]);
        let j = p.loops().nth(1).unwrap();
        assert!(q.loop_decl(j).children.contains(&Node::Loop(outer)));
        assert!(!q.loop_decl(j).children.contains(&Node::Loop(k)));
        // K ∈ [1, N] ⇒ Ko lower ceil((1+1−16)/16) = floor(1/16) = 0,
        // upper floor(N/16); inner K gains the 16·Ko clamp pair
        assert_eq!(q.loop_decl(outer).lower.terms[0].eval(&|_| 0).ceil(), 0);
        assert_eq!(q.loop_decl(k).lower.terms.len(), 2);
        assert_eq!(q.loop_decl(k).upper.terms.len(), 2);
        assert_eq!(q.loop_decl(k).lower.terms[1].coeff(VarKey::Loop(outer)), 16);
        assert_eq!(q.loop_decl(k).upper.terms[1].constant(), 16 - 1);
    }

    #[test]
    fn split_covers_exactly_the_original_range() {
        // enumerate the split ranges concretely for lo=1, hi=21, tile=8:
        // tiles 0..=2, union of clamped inner ranges must be 1..=21 exactly
        let p = zoo::matmul();
        let k = p.loops().nth(2).unwrap();
        let (q, outer) = p.split_loop(k, 8).unwrap();
        let n = 21i128;
        let kd = q.loop_decl(k);
        let od = q.loop_decl(outer);
        let mut seen = Vec::new();
        let base = |v: VarKey| match v {
            VarKey::Param(_) => n,
            _ => 0,
        };
        let olo = od.lower.eval_lower(&base);
        let ohi = od.upper.eval_upper(&base);
        assert_eq!((olo, ohi), (0, 2));
        for o in olo..=ohi {
            let env = move |v: VarKey| match v {
                VarKey::Param(_) => n,
                VarKey::Loop(id) if id == outer => o,
                _ => 0,
            };
            let lo = kd.lower.eval_lower(&env);
            let hi = kd.upper.eval_upper(&env);
            seen.extend(lo..=hi);
        }
        assert_eq!(seen, (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn split_triangular_loop_validates() {
        // cholesky_kij's L loop has bounds referencing two outer loops
        let p = zoo::cholesky_kij();
        let l = p
            .loops()
            .find(|&l| p.loop_decl(l).name == "L")
            .expect("L loop");
        let (q, outer) = p.split_loop(l, 32).unwrap();
        assert!(q.validate().is_ok(), "{:?}", q.validate());
        // the outer's bounds carry divisor-32 terms
        assert!(q
            .loop_decl(outer)
            .lower
            .terms
            .iter()
            .all(|t| t.divisor() == 32));
    }

    #[test]
    fn split_rejects_degenerate_tile() {
        let p = zoo::matmul();
        let k = p.loops().nth(2).unwrap();
        let e = p.split_loop(k, 1).unwrap_err();
        assert_eq!(e.message(), "loop K: tile size 1 must be at least 2");
    }

    #[test]
    fn jam_rejects_mismatched_bounds() {
        let mut b = crate::ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt("S1", a, vec![Aff::var(i)], crate::Expr::konst(1.0));
        });
        b.hloop("I2", Aff::konst(2), Aff::param(n), |b| {
            let i = b.loop_var("I2");
            b.stmt("S2", a, vec![Aff::var(i)], crate::Expr::konst(2.0));
        });
        let p = b.finish();
        let e = p.jam_loops(None, 0).unwrap_err();
        assert_eq!(e.message(), "loops I and I2: jam requires identical bounds");
    }
}
