//! Fluent construction of [`Program`]s.

use crate::aff::{Aff, VarKey};
use crate::expr::{Access, Expr};
use crate::program::{
    ArrayDecl, ArrayId, Bound, Guard, LoopDecl, LoopId, Node, ParamId, Program, StmtDecl, StmtId,
};
use inl_linalg::Int;
use std::sync::Arc;

/// Builds a [`Program`] with nested closures mirroring the loop structure.
///
/// See the crate-level example. Loops opened with [`ProgramBuilder::hloop`]
/// have inclusive `do lo..hi` bounds and unit step, matching the paper's
/// pseudo-code.
pub struct ProgramBuilder {
    name: String,
    params: Vec<String>,
    loops: Vec<LoopDecl>,
    stmts: Vec<StmtDecl>,
    arrays: Vec<ArrayDecl>,
    root: Vec<Node>,
    stack: Vec<LoopId>,
    assumes: Vec<Aff>,
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            params: Vec::new(),
            loops: Vec::new(),
            stmts: Vec::new(),
            arrays: Vec::new(),
            root: Vec::new(),
            stack: Vec::new(),
            assumes: Vec::new(),
        }
    }

    /// Declare a symbolic parameter, assumed `≥ 1`.
    pub fn param(&mut self, name: impl Into<String>) -> ParamId {
        self.params.push(name.into());
        let p = ParamId(self.params.len() - 1);
        self.assumes.push(Aff::param(p) - Aff::konst(1));
        p
    }

    /// Add an assumption `aff ≥ 0` on the parameters.
    pub fn assume(&mut self, aff: Aff) {
        self.assumes.push(aff);
    }

    /// Declare an array with the given per-dimension extents (affine in
    /// parameters).
    pub fn array(&mut self, name: impl Into<String>, dims: &[Aff]) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            dims: dims.to_vec(),
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Open a `do name = lo..hi` loop (inclusive bounds, step 1), build its
    /// body in the closure, and close it.
    pub fn hloop(
        &mut self,
        name: impl Into<String>,
        lo: Aff,
        hi: Aff,
        body: impl FnOnce(&mut Self),
    ) -> LoopId {
        self.loop_full(name, Bound::single(lo), Bound::single(hi), 1, false, body)
    }

    /// Open a loop with general bounds (max-of-ceilings lower,
    /// min-of-floors upper), a step, and a parallel flag.
    pub fn loop_full(
        &mut self,
        name: impl Into<String>,
        lower: Bound,
        upper: Bound,
        step: Int,
        parallel: bool,
        body: impl FnOnce(&mut Self),
    ) -> LoopId {
        let id = LoopId(self.loops.len());
        self.loops.push(LoopDecl {
            name: name.into(),
            lower,
            upper,
            step,
            children: Vec::new(),
            parallel,
        });
        self.attach(Node::Loop(id));
        self.stack.push(id);
        body(self);
        self.stack.pop();
        id
    }

    /// Look up an *open* (currently enclosing) loop's variable by name.
    ///
    /// # Panics
    /// If no enclosing loop has that name.
    pub fn loop_var(&self, name: &str) -> VarKey {
        for &l in self.stack.iter().rev() {
            if self.loops[l.0].name == name {
                return VarKey::Loop(l);
            }
        }
        panic!("no enclosing loop named {name}");
    }

    /// The innermost currently-open loop.
    pub fn current_loop(&self) -> Option<LoopId> {
        self.stack.last().copied()
    }

    /// Add an atomic statement `array[idxs] = rhs` at the current position.
    pub fn stmt(
        &mut self,
        name: impl Into<String>,
        array: ArrayId,
        idxs: Vec<Aff>,
        rhs: Expr,
    ) -> StmtId {
        self.stmt_guarded(name, array, idxs, rhs, Vec::new())
    }

    /// Add a guarded atomic statement.
    pub fn stmt_guarded(
        &mut self,
        name: impl Into<String>,
        array: ArrayId,
        idxs: Vec<Aff>,
        rhs: Expr,
        guards: Vec<Guard>,
    ) -> StmtId {
        let id = StmtId(self.stmts.len());
        self.stmts.push(StmtDecl {
            name: name.into(),
            write: Access { array, idxs },
            rhs,
            guards,
        });
        self.attach(Node::Stmt(id));
        id
    }

    fn attach(&mut self, node: Node) {
        match self.stack.last() {
            Some(&l) => self.loops[l.0].children.push(node),
            None => self.root.push(node),
        }
    }

    /// Finish, validating structural invariants.
    ///
    /// # Panics
    /// If validation fails (programming error in the builder calls).
    pub fn finish(self) -> Program {
        let p = self.finish_unchecked();
        if let Err(e) = p.validate() {
            panic!("invalid program {}: {e}", p.name());
        }
        p
    }

    /// Finish without validation, with `src`'s parameters, arrays and
    /// assumptions in place of this builder's, of which none may have been
    /// declared: for a program generated from `src`, whose loops and
    /// statements name them by `src`'s ids. It shares them with `src`, as
    /// `src`'s clones do.
    ///
    /// # Panics
    /// If a parameter, array or assumption was declared, or a loop is open.
    pub fn finish_sharing(self, src: &Program) -> Program {
        assert!(self.stack.is_empty(), "finish called with open loops");
        assert!(
            self.params.is_empty() && self.arrays.is_empty() && self.assumes.is_empty(),
            "a program sharing another's declarations declares none"
        );
        Program {
            name: self.name,
            params: Arc::clone(&src.params),
            loops: self.loops,
            stmts: self.stmts.into(),
            arrays: Arc::clone(&src.arrays),
            root: self.root,
            assumes: Arc::clone(&src.assumes),
        }
    }

    /// Finish without validation (for tests that construct invalid
    /// programs deliberately).
    pub fn finish_unchecked(self) -> Program {
        assert!(self.stack.is_empty(), "finish called with open loops");
        Program {
            name: self.name,
            params: self.params.into(),
            loops: self.loops,
            stmts: self.stmts.into(),
            arrays: self.arrays.into(),
            root: self.root,
            assumes: self.assumes.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structure() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[Aff::param(n)]);
        b.hloop("I", Aff::konst(0), Aff::param(n) - Aff::konst(1), |b| {
            let i = b.loop_var("I");
            b.stmt("S1", a, vec![Aff::var(i)], Expr::konst(0.0));
            b.hloop("J", Aff::konst(0), Aff::var(i), |b| {
                let j = b.loop_var("J");
                b.stmt("S2", a, vec![Aff::var(j)], Expr::read(a, vec![Aff::var(j)]));
            });
            b.stmt("S3", a, vec![Aff::var(i)], Expr::konst(1.0));
        });
        let p = b.finish();
        assert_eq!(p.root().len(), 1);
        let Node::Loop(outer) = p.root()[0] else {
            panic!()
        };
        assert_eq!(p.loop_decl(outer).children.len(), 3);
        let names: Vec<_> = p
            .stmts_in_syntactic_order()
            .iter()
            .map(|&s| p.stmt_decl(s).name.clone())
            .collect();
        assert_eq!(names, vec!["S1", "S2", "S3"]);
    }

    #[test]
    #[should_panic(expected = "no enclosing loop")]
    fn loop_var_out_of_scope() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        b.hloop("I", Aff::konst(1), Aff::param(n), |_| {});
        let _ = b.loop_var("I"); // loop is closed now
    }

    #[test]
    fn multiple_top_level_loops() {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt("S1", a, vec![Aff::var(i)], Expr::konst(1.0));
        });
        b.hloop("I2", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I2");
            b.stmt("S2", a, vec![Aff::var(i)], Expr::konst(2.0));
        });
        let p = b.finish();
        assert_eq!(p.root().len(), 2);
    }
}
