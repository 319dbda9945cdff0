//! The program AST: loops, statements, arrays, parameters.

use crate::aff::{Aff, VarKey};
use crate::expr::{Access, Expr};
use inl_linalg::{InlError, InlErrorKind, Int};
use inl_poly::{LinExpr, System};
use std::sync::Arc;

/// Where a constraint system keeps each loop variable: its index, or
/// `None` for a loop the system has no variable for.
pub type Slot<'a> = &'a dyn Fn(LoopId) -> Option<usize>;

fn malformed(message: impl Into<String>) -> InlError {
    InlError::new(InlErrorKind::MalformedProgram, message)
}

/// Identifies a symbolic parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub usize);

/// Identifies a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub usize);

/// Identifies an atomic statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub usize);

/// Identifies an array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub usize);

/// A child of a loop (or of the virtual root): a nested loop or a statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    /// A nested loop.
    Loop(LoopId),
    /// An atomic statement.
    Stmt(StmtId),
}

/// One side of a loop bound: for a lower bound the value is
/// `max over terms of ceil(expr_num / div)`; for an upper bound
/// `min over terms of floor(expr_num / div)`. Each term is an [`Aff`]
/// whose own divisor provides `div`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Bound {
    /// The bound terms; must be non-empty.
    pub terms: Vec<Aff>,
}

impl Bound {
    /// A single-term bound.
    pub fn single(a: Aff) -> Self {
        Bound { terms: vec![a] }
    }

    /// Evaluate as a lower bound (max of ceilings).
    pub fn eval_lower(&self, lookup: &dyn Fn(VarKey) -> Int) -> Int {
        self.terms
            .iter()
            .map(|a| a.eval(lookup).ceil())
            .max()
            .expect("empty bound")
    }

    /// Evaluate as an upper bound (min of floors).
    pub fn eval_upper(&self, lookup: &dyn Fn(VarKey) -> Int) -> Int {
        self.terms
            .iter()
            .map(|a| a.eval(lookup).floor())
            .min()
            .expect("empty bound")
    }
}

/// A guard on a statement: the statement instance executes only when the
/// guard holds. Produced by code generation (§5.5: singular-loop conditions
/// and lattice-membership tests).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Guard {
    /// `expr ≥ 0` (the expression's divisor must be 1).
    Ge(Aff),
    /// `expr = 0` (the expression's divisor must be 1).
    Eq(Aff),
    /// `modulus` divides `expr` (numerator form; divisor must be 1).
    Div(Aff, Int),
}

impl Guard {
    /// The guard with `f` applied to its expression.
    pub fn map_aff(&self, f: impl Fn(&Aff) -> Aff) -> Guard {
        match self {
            Guard::Ge(a) => Guard::Ge(f(a)),
            Guard::Eq(a) => Guard::Eq(f(a)),
            Guard::Div(a, m) => Guard::Div(f(a), *m),
        }
    }
}

/// A loop declaration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LoopDecl {
    /// Source-level name of the index variable.
    pub name: String,
    /// Lower bound (max of ceilings).
    pub lower: Bound,
    /// Upper bound (min of floors).
    pub upper: Bound,
    /// Step (must be ≥ 1; non-unit steps arise from non-unimodular
    /// transformations).
    pub step: Int,
    /// Ordered children.
    pub children: Vec<Node>,
    /// True if the loop has been proven to carry no dependences and may be
    /// executed in parallel.
    pub parallel: bool,
}

/// An atomic statement: `write ← rhs`, possibly guarded.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StmtDecl {
    /// Source-level label (e.g. `"S1"`).
    pub name: String,
    /// The single array element written.
    pub write: Access,
    /// The right-hand side.
    pub rhs: Expr,
    /// Guards; all must hold for the instance to execute.
    pub guards: Vec<Guard>,
}

/// An array declaration: name and per-dimension extents (affine in the
/// parameters). Valid indices for dimension `d` are `0 .. extent_d`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Extent of each dimension, affine in the parameters only.
    pub dims: Vec<Aff>,
}

/// An imperfectly nested loop program (one AST, possibly with several
/// top-level items under a virtual root).
///
/// `==` and `Hash` are structural over every field — name, declarations,
/// tree shape, assumptions, `f64` literals by bit pattern — so equal
/// programs are interchangeable inputs to any deterministic analysis
/// (`inl_core::depend::analyze` memoises on this).
///
/// The declarations surgery leaves alone — parameters, arrays, assumptions
/// and statements — are shared by a program's clones (a statement is copied
/// once one of them edits it): a clone copies the loops and the tree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) params: Arc<[String]>,
    pub(crate) loops: Vec<LoopDecl>,
    pub(crate) stmts: Arc<Vec<StmtDecl>>,
    pub(crate) arrays: Arc<[ArrayDecl]>,
    pub(crate) root: Vec<Node>,
    /// Assumptions on the parameters, each `aff ≥ 0` (e.g. `N - 1 ≥ 0`).
    /// Legality's exact tests and code generation's bound comparisons
    /// reason under these.
    pub(crate) assumes: Arc<[Aff]>,
}

impl Program {
    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter names, indexed by [`ParamId`].
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Loop declaration.
    pub fn loop_decl(&self, l: LoopId) -> &LoopDecl {
        &self.loops[l.0]
    }

    /// Statement declaration.
    pub fn stmt_decl(&self, s: StmtId) -> &StmtDecl {
        &self.stmts[s.0]
    }

    /// Array declaration.
    pub fn array_decl(&self, a: ArrayId) -> &ArrayDecl {
        &self.arrays[a.0]
    }

    /// All loop ids.
    pub fn loops(&self) -> impl Iterator<Item = LoopId> {
        (0..self.loops.len()).map(LoopId)
    }

    /// All statement ids.
    pub fn stmts(&self) -> impl Iterator<Item = StmtId> {
        (0..self.stmts.len()).map(StmtId)
    }

    /// All array ids.
    pub fn arrays(&self) -> impl Iterator<Item = ArrayId> {
        (0..self.arrays.len()).map(ArrayId)
    }

    /// Top-level nodes (children of the virtual root).
    pub fn root(&self) -> &[Node] {
        &self.root
    }

    /// The children of `parent`; the top-level nodes for `None`.
    pub fn children(&self, parent: Option<LoopId>) -> &[Node] {
        match parent {
            None => &self.root,
            Some(l) => &self.loop_decl(l).children,
        }
    }

    /// Parameter assumptions (`aff ≥ 0` each).
    pub fn assumes(&self) -> &[Aff] {
        &self.assumes
    }

    /// The assumptions as a constraint system over any space whose first
    /// `nparams()` variables are the parameters.
    ///
    /// # Errors
    /// `MalformedProgram` for an assumption with a divisor or one that
    /// names a loop variable, both of which [`Program::validate`] rejects.
    pub fn assumption_system(&self, space: usize) -> Result<System, InlError> {
        let mut sys = System::new(space);
        for a in self.assumes.iter() {
            if a.divisor() != 1 {
                return Err(malformed("an assumption has a divisor"));
            }
            sys.add_ge(self.aff_expr(a, space, &|_| None)?);
        }
        Ok(sys)
    }

    /// Number of parameters.
    pub fn nparams(&self) -> usize {
        self.params.len()
    }

    /// Number of loop declarations (compiler-facing: sizes the loop-variable
    /// register file; includes loops detached from the tree by surgery).
    pub fn nloops(&self) -> usize {
        self.loops.len()
    }

    /// Number of statement declarations.
    pub fn nstmts(&self) -> usize {
        self.stmts.len()
    }

    /// The loops surrounding a statement, outside-in.
    pub fn loops_surrounding(&self, s: StmtId) -> Vec<LoopId> {
        let mut path = Vec::new();
        self.find_path(Node::Stmt(s), &mut path);
        path
    }

    /// The loops surrounding a loop, outside-in (excluding itself).
    pub fn loops_surrounding_loop(&self, l: LoopId) -> Vec<LoopId> {
        let mut path = Vec::new();
        self.find_path(Node::Loop(l), &mut path);
        path
    }

    fn find_path(&self, target: Node, path: &mut Vec<LoopId>) -> bool {
        fn walk(p: &Program, nodes: &[Node], target: Node, path: &mut Vec<LoopId>) -> bool {
            for &n in nodes {
                if n == target {
                    return true;
                }
                if let Node::Loop(l) = n {
                    path.push(l);
                    if walk(p, &p.loops[l.0].children, target, path) {
                        return true;
                    }
                    path.pop();
                }
            }
            false
        }
        walk(self, &self.root, target, path)
    }

    /// Statements in syntactic order (depth-first, left-to-right): the
    /// `⪯ₛ` relation of Definition 1.
    pub fn stmts_in_syntactic_order(&self) -> Vec<StmtId> {
        fn walk(p: &Program, nodes: &[Node], out: &mut Vec<StmtId>) {
            for &n in nodes {
                match n {
                    Node::Stmt(s) => out.push(s),
                    Node::Loop(l) => walk(p, &p.loops[l.0].children, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &self.root, &mut out);
        out
    }

    /// True iff `a ⪯ₛ b` (syntactic order, Definition 1; reflexive).
    pub fn syntactically_before(&self, a: StmtId, b: StmtId) -> bool {
        let order = self.stmts_in_syntactic_order();
        let pa = order
            .iter()
            .position(|&s| s == a)
            .expect("stmt not in program");
        let pb = order
            .iter()
            .position(|&s| s == b)
            .expect("stmt not in program");
        pa <= pb
    }

    /// Size of the program's constraint-variable space: parameters first,
    /// then loop variables.
    pub fn space(&self) -> usize {
        self.params.len() + self.loops.len()
    }

    /// Constraint-space index of a parameter.
    pub fn param_var(&self, p: ParamId) -> usize {
        p.0
    }

    /// Constraint-space index of a loop variable.
    pub fn loop_var_index(&self, l: LoopId) -> usize {
        self.params.len() + l.0
    }

    /// The numerator of `a` as a [`LinExpr`] over `nvars` variables:
    /// parameter `p` at index `p.0`, loop `l` at `slot(l)`. The divisor is
    /// the caller's to apply.
    ///
    /// This, [`Program::assumption_system`] and the appenders below are
    /// the one place where bounds, steps, guards and assumptions become
    /// constraints.
    ///
    /// # Errors
    /// `MalformedProgram` for a variable with no index below `nvars`;
    /// overflow when two terms share an index and their sum leaves `Int`.
    pub fn aff_expr(&self, a: &Aff, nvars: usize, slot: Slot<'_>) -> Result<LinExpr, InlError> {
        let mut row = LinExpr::zero(nvars);
        self.add_aff(&mut row, 1, a, slot)?;
        Ok(row)
    }

    /// Add `k` times the numerator of `a` to `row`, placing `a`'s variables
    /// as [`Program::aff_expr`] does: a constraint row is built in its own
    /// allocation, with no temporary per term.
    ///
    /// # Errors
    /// Those of [`Program::aff_expr`]; overflow when a scaled term or a sum
    /// leaves `Int`.
    pub fn add_aff(
        &self,
        row: &mut LinExpr,
        k: Int,
        a: &Aff,
        slot: Slot<'_>,
    ) -> Result<(), InlError> {
        let oops = || InlError::overflow("affine coefficient");
        let scaled = |c: Int| c.checked_mul(k).ok_or_else(oops);
        for &(v, c) in a.terms() {
            let i = self.var_index(v, row.nvars(), slot)?;
            let sum = row.coeff(i).checked_add(scaled(c)?).ok_or_else(oops)?;
            row.set_coeff(i, sum);
        }
        let constant = row.constant_term().checked_add(scaled(a.constant())?);
        row.set_constant(constant.ok_or_else(oops)?);
        Ok(())
    }

    /// Where `slot` puts `v` in a system of `nvars` variables.
    fn var_index(&self, v: VarKey, nvars: usize, slot: Slot<'_>) -> Result<usize, InlError> {
        let i = match v {
            VarKey::Param(p) => Some(self.param_var(p)),
            VarKey::Loop(l) => slot(l),
        };
        i.filter(|&i| i < nvars).ok_or_else(|| {
            let name = match v {
                VarKey::Param(p) => self.params.get(p.0),
                VarKey::Loop(l) => self.loops.get(l.0).map(|d| &d.name),
            };
            malformed(format!(
                "{} has no variable in this constraint system",
                name.map_or("an undeclared variable", |n| n.as_str())
            ))
        })
    }

    /// Append loop `l`'s bounds to `sys`: `d·i - e ≥ 0` for each lower term
    /// `⌈e/d⌉` and `e - d·i ≥ 0` for each upper term `⌊e/d⌋`, with `i` and
    /// the loops the bounds name placed by `slot`.
    pub fn append_bounds(
        &self,
        l: LoopId,
        sys: &mut System,
        slot: Slot<'_>,
    ) -> Result<(), InlError> {
        let ld = &self.loops[l.0];
        let iv = self.var_index(VarKey::Loop(l), sys.nvars(), slot)?;
        self.append_bound_terms(iv, &ld.lower.terms, &ld.upper.terms, sys, slot)
    }

    /// Append the bounds `lower`/`upper` of the variable at index `iv` to
    /// `sys`, as [`Program::append_bounds`] appends a loop's: for a loop
    /// whose bounds are not (yet) declared in this program.
    pub fn append_bound_terms(
        &self,
        iv: usize,
        lower: &[Aff],
        upper: &[Aff],
        sys: &mut System,
        slot: Slot<'_>,
    ) -> Result<(), InlError> {
        let n = sys.nvars();
        // `sign·(d·i − e)`: `d ≥ 1`, so neither `d` nor `−d` overflows
        let row = |t: &Aff, sign: Int| -> Result<LinExpr, InlError> {
            let mut row = LinExpr::zero(n);
            row.set_coeff(iv, sign * t.divisor());
            self.add_aff(&mut row, -sign, t, slot)?;
            Ok(row)
        };
        for t in lower {
            sys.add_ge(row(t, 1)?);
        }
        for t in upper {
            sys.add_ge(row(t, -1)?);
        }
        Ok(())
    }

    /// Append statement `s`'s iteration domain to `sys` (§3: "loop
    /// bounds"): each surrounding loop's bounds outside-in, with
    /// `i = lo + step·q` after those of a stepped loop, then `guards` —
    /// `a ≥ 0`, `a = 0`, and `Div(a, m)` as `a = m·q`. Each `q` is a new
    /// variable appended to `sys`, in that order; `slot` places the loops.
    ///
    /// # Errors
    /// `Unsupported` for a stepped loop whose lower bound is a max or has
    /// a divisor; `MalformedProgram` for a guard with a divisor; those of
    /// [`Program::aff_expr`].
    pub fn append_domain<'g>(
        &self,
        s: StmtId,
        guards: impl IntoIterator<Item = &'g Guard>,
        sys: &mut System,
        slot: Slot<'_>,
    ) -> Result<(), InlError> {
        // a new last variable of `sys`: its index
        let fresh = |sys: &mut System| {
            *sys = sys.extend(sys.nvars() + 1);
            sys.nvars() - 1
        };
        // `row − m·q` for a fresh `q`, which `row` does not mention
        let minus_fresh = |mut row: LinExpr, q: usize, m: Int| {
            row.set_coeff(q, m.checked_neg()?);
            Some(row)
        };
        let oops = || InlError::overflow("affine coefficient");
        for l in self.loops_surrounding(s) {
            self.append_bounds(l, sys, slot)?;
            let ld = &self.loops[l.0];
            if ld.step != 1 {
                let lo = match ld.lower.terms.as_slice() {
                    [lo] if lo.divisor() == 1 => lo,
                    _ => {
                        return Err(InlError::new(
                            InlErrorKind::Unsupported,
                            format!(
                                "loop {}: non-unit step with a max/divided lower bound",
                                ld.name
                            ),
                        ))
                    }
                };
                let q = fresh(sys);
                let n = sys.nvars();
                let mut row = LinExpr::zero(n);
                row.set_coeff(self.var_index(VarKey::Loop(l), n, slot)?, 1);
                self.add_aff(&mut row, -1, lo, slot)?;
                sys.add_eq(minus_fresh(row, q, ld.step).ok_or_else(oops)?);
            }
        }
        for g in guards {
            let (Guard::Ge(a) | Guard::Eq(a) | Guard::Div(a, _)) = g;
            if a.divisor() != 1 {
                return Err(malformed("a guard has a divisor"));
            }
            match g {
                Guard::Ge(a) => sys.add_ge(self.aff_expr(a, sys.nvars(), slot)?),
                Guard::Eq(a) => sys.add_eq(self.aff_expr(a, sys.nvars(), slot)?),
                Guard::Div(a, m) => {
                    let q = fresh(sys);
                    let e = self.aff_expr(a, sys.nvars(), slot)?;
                    sys.add_eq(minus_fresh(e, q, *m).ok_or_else(oops)?);
                }
            }
        }
        Ok(())
    }

    /// Mark a loop parallel (or not). The caller asserts the loop carries
    /// no dependence — typically established via the framework's
    /// parallel-slot analysis.
    pub fn set_loop_parallel(&mut self, l: LoopId, parallel: bool) {
        self.loops[l.0].parallel = parallel;
    }

    /// Append a guard to a statement (used by statement sinking).
    pub fn stmts_guard_push(&mut self, s: StmtId, guard: Guard) {
        Arc::make_mut(&mut self.stmts)[s.0].guards.push(guard);
    }

    /// Replace a loop's child list (structural surgery; the caller is
    /// responsible for keeping each node in exactly one place — validated
    /// by [`Program::validate`]).
    pub fn set_loop_children(&mut self, l: LoopId, children: Vec<Node>) {
        self.loops[l.0].children = children;
    }

    /// Validate structural invariants; returns an error description on the
    /// first violation. Called by the builder; also useful after manual
    /// surgery on a program.
    pub fn validate(&self) -> Result<(), String> {
        // Assumptions are affine in the parameters alone.
        self.assumption_system(self.nparams())
            .map_err(|e| e.message().to_string())?;
        // Every loop and statement appears exactly once in the tree.
        let mut loop_seen = vec![0usize; self.loops.len()];
        let mut stmt_seen = vec![0usize; self.stmts.len()];
        fn walk(
            p: &Program,
            nodes: &[Node],
            loop_seen: &mut [usize],
            stmt_seen: &mut [usize],
        ) -> Result<(), String> {
            for &n in nodes {
                match n {
                    Node::Loop(l) => {
                        if l.0 >= loop_seen.len() {
                            return Err(format!("dangling loop id {:?}", l));
                        }
                        loop_seen[l.0] += 1;
                        walk(p, &p.loops[l.0].children, loop_seen, stmt_seen)?;
                    }
                    Node::Stmt(s) => {
                        if s.0 >= stmt_seen.len() {
                            return Err(format!("dangling stmt id {:?}", s));
                        }
                        stmt_seen[s.0] += 1;
                    }
                }
            }
            Ok(())
        }
        walk(self, &self.root, &mut loop_seen, &mut stmt_seen)?;
        // A loop may be detached (0 occurrences) after surgery such as
        // jamming, but may never appear twice.
        for (i, &c) in loop_seen.iter().enumerate() {
            if c > 1 {
                return Err(format!("loop {i} appears {c} times in the tree"));
            }
        }
        for (i, &c) in stmt_seen.iter().enumerate() {
            if c != 1 {
                return Err(format!("stmt {i} appears {c} times in the tree"));
            }
        }
        // Bounds may reference parameters and strictly-outer loops only
        // (skipping detached loops, whose bounds are meaningless).
        for l in self.loops() {
            if loop_seen[l.0] == 0 {
                continue;
            }
            let outer = self.loops_surrounding_loop(l);
            let ld = &self.loops[l.0];
            for t in ld.lower.terms.iter().chain(&ld.upper.terms) {
                for v in t.vars() {
                    if let VarKey::Loop(dep) = v {
                        if !outer.contains(&dep) {
                            return Err(format!(
                                "bound of loop {} references non-outer loop {}",
                                ld.name, self.loops[dep.0].name
                            ));
                        }
                    }
                }
            }
            if ld.step < 1 {
                return Err(format!("loop {} has non-positive step", ld.name));
            }
        }
        // Statement accesses reference declared arrays with correct arity
        // and only surrounding loop variables.
        for s in self.stmts() {
            let surround = self.loops_surrounding(s);
            let sd = &self.stmts[s.0];
            let check_access = |acc: &Access| -> Result<(), String> {
                if acc.array.0 >= self.arrays.len() {
                    return Err(format!("stmt {} references undeclared array", sd.name));
                }
                let decl = &self.arrays[acc.array.0];
                if acc.idxs.len() != decl.dims.len() {
                    return Err(format!(
                        "stmt {} indexes array {} with {} subscripts (declared {})",
                        sd.name,
                        decl.name,
                        acc.idxs.len(),
                        decl.dims.len()
                    ));
                }
                for idx in &acc.idxs {
                    for v in idx.vars() {
                        if let VarKey::Loop(dep) = v {
                            if !surround.contains(&dep) {
                                return Err(format!(
                                    "stmt {} subscript references loop {} that does not surround it",
                                    sd.name, self.loops[dep.0].name
                                ));
                            }
                        }
                    }
                }
                Ok(())
            };
            check_access(&sd.write)?;
            let mut reads = Ok(());
            sd.rhs.for_each_read(&mut |r| {
                if reads.is_ok() {
                    reads = check_access(r);
                }
            });
            reads?;
            for g in &sd.guards {
                let a = match g {
                    Guard::Ge(a) | Guard::Eq(a) | Guard::Div(a, _) => a,
                };
                if a.divisor() != 1 {
                    return Err(format!("stmt {} guard has a divisor", sd.name));
                }
                for v in a.vars() {
                    if let VarKey::Loop(dep) = v {
                        if !surround.contains(&dep) {
                            return Err(format!(
                                "stmt {} guard references loop {} that does not surround it",
                                sd.name, self.loops[dep.0].name
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn simple_cholesky_structure() {
        let p = zoo::simple_cholesky();
        assert_eq!(p.stmts().count(), 2);
        assert_eq!(p.loops().count(), 2);
        assert!(p.validate().is_ok());
        let order = p.stmts_in_syntactic_order();
        assert_eq!(
            order
                .iter()
                .map(|&s| p.stmt_decl(s).name.clone())
                .collect::<Vec<_>>(),
            vec!["S1", "S2"]
        );
        // S1 is under I only; S2 under I and J
        let s1 = order[0];
        let s2 = order[1];
        assert_eq!(p.loops_surrounding(s1).len(), 1);
        assert_eq!(p.loops_surrounding(s2).len(), 2);
        assert!(p.syntactically_before(s1, s2));
        assert!(!p.syntactically_before(s2, s1));
        assert!(p.syntactically_before(s1, s1));
    }

    #[test]
    fn domain_triangular() {
        let p = zoo::simple_cholesky();
        let s2 = p.stmts_in_syntactic_order()[1];
        let mut sys = p.assumption_system(p.space()).unwrap();
        let slot = |l: LoopId| Some(p.loop_var_index(l));
        p.append_domain(s2, &p.stmt_decl(s2).guards, &mut sys, &slot)
            .unwrap();
        // space: 1 param (N) + 2 loops
        assert_eq!(sys.nvars(), 3);
        // point (N=4, I=2, J=3) is in S2's iteration space
        assert!(sys.contains(&[4, 2, 3]));
        // J must exceed I
        assert!(!sys.contains(&[4, 2, 2]));
        assert!(!sys.contains(&[4, 0, 1]));
        assert!(!sys.contains(&[4, 2, 5]));
    }

    #[test]
    fn validate_catches_misuse() {
        // hand-build a program where a statement indexes with a non-
        // surrounding loop variable
        let mut b = crate::ProgramBuilder::new("bad");
        let n = b.param("N");
        let a = b.array("A", &[Aff::param(n)]);
        let mut captured = None;
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            captured = Some(b.loop_var("I"));
            let i = captured.unwrap();
            b.stmt("S1", a, vec![Aff::var(i)], Expr::konst(1.0));
        });
        // second top-level loop whose statement uses the first loop's var
        b.hloop("K", Aff::konst(1), Aff::param(n), |b| {
            b.stmt("S2", a, vec![Aff::var(captured.unwrap())], Expr::konst(2.0));
        });
        let p = b.finish_unchecked();
        assert!(p.validate().is_err());
    }
}
