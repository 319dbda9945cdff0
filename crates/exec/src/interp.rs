//! The reference interpreter.
//!
//! Executes a program exactly in its AST order: loops run from their lower
//! to their upper bound (inclusive, with step), guards are evaluated per
//! statement instance, subscripts must evaluate to integers (divisor
//! expressions from non-unimodular code generation are guarded by `Div`
//! guards so inexact divisions never reach an access).
//!
//! [`Interpreter::new`] resolves the program text once — every variable to
//! a slot of one value vector, every affine expression to a row over those
//! slots, every access to its array's position — and [`Interpreter::run`]
//! walks that form. It stays a walker of its own over `inl-ir`: it is what
//! the VM is tested against, so it shares none of the VM's lowering.

use crate::machine::Machine;
use inl_ir::{self as ir, Aff, LoopId, Program, StmtId, VarKey};
use inl_linalg::{Int, Rational};

/// Per-instance observation hook: `(statement, loop environment)`.
pub type InstanceHook<'p> = Box<dyn FnMut(StmtId, &[Option<Int>]) + 'p>;

/// Interpreter over one program.
pub struct Interpreter<'p> {
    program: &'p Program,
    /// Optional hook invoked before each executed statement instance with
    /// the current loop environment (indexed by `LoopId`, `None` outside
    /// the loop). The environment is kept only during a run that starts
    /// with a hook set.
    pub on_instance: Option<InstanceHook<'p>>,
    root: Vec<Node<'p>>,
}

/// An [`Aff`] over value slots (`params ++ loop variables`).
struct Row<'p> {
    /// The expression this row stands for; [`Aff::eval`] on it is the one
    /// definition of the wide arithmetic.
    src: &'p Aff,
    /// The numerator in 64 bits, when every coefficient and the constant fit.
    narrow: Option<Narrow>,
    div: Int,
}

struct Narrow {
    /// `(slot, coefficient)`.
    terms: Box<[(usize, i64)]>,
    constant: i64,
}

struct Access<'p> {
    array: usize,
    idxs: Box<[Row<'p>]>,
}

enum Expr<'p> {
    Const(f64),
    Index(Row<'p>),
    Read(Access<'p>),
    Neg(Box<Expr<'p>>),
    Sqrt(Box<Expr<'p>>),
    Add(Box<Expr<'p>>, Box<Expr<'p>>),
    Sub(Box<Expr<'p>>, Box<Expr<'p>>),
    Mul(Box<Expr<'p>>, Box<Expr<'p>>),
    Div(Box<Expr<'p>>, Box<Expr<'p>>),
}

enum Guard<'p> {
    Ge(Row<'p>),
    Eq(Row<'p>),
    Div(Row<'p>, Int),
}

struct Stmt<'p> {
    id: StmtId,
    guards: Box<[Guard<'p>]>,
    rhs: Expr<'p>,
    write: Access<'p>,
}

struct Loop<'p> {
    id: LoopId,
    lower: Box<[Row<'p>]>,
    upper: Box<[Row<'p>]>,
    step: Int,
    children: Vec<Node<'p>>,
}

enum Node<'p> {
    Loop(Loop<'p>),
    Stmt(Stmt<'p>),
}

/// Resolves the tree; `in_scope[l]` while the walk is inside loop `l`.
struct Resolver<'p> {
    program: &'p Program,
    in_scope: Vec<bool>,
}

impl<'p> Resolver<'p> {
    fn nodes(&mut self, nodes: &[ir::Node]) -> Vec<Node<'p>> {
        nodes
            .iter()
            .map(|&n| match n {
                ir::Node::Loop(l) => Node::Loop(self.looop(l)),
                ir::Node::Stmt(s) => Node::Stmt(self.stmt(s)),
            })
            .collect()
    }

    fn looop(&mut self, l: LoopId) -> Loop<'p> {
        let ld = self.program.loop_decl(l);
        let lower = ld.lower.terms.iter().map(|a| self.row(a)).collect();
        let upper = ld.upper.terms.iter().map(|a| self.row(a)).collect();
        self.in_scope[l.0] = true;
        let children = self.nodes(&ld.children);
        self.in_scope[l.0] = false;
        Loop {
            id: l,
            lower,
            upper,
            step: ld.step,
            children,
        }
    }

    fn stmt(&self, s: StmtId) -> Stmt<'p> {
        let sd = self.program.stmt_decl(s);
        let guards = sd.guards.iter().map(|g| match g {
            ir::Guard::Ge(a) => Guard::Ge(self.row(a)),
            ir::Guard::Eq(a) => Guard::Eq(self.row(a)),
            ir::Guard::Div(a, k) => Guard::Div(self.row(a), *k),
        });
        Stmt {
            id: s,
            guards: guards.collect(),
            rhs: self.expr(&sd.rhs),
            write: self.access(&sd.write),
        }
    }

    fn expr(&self, e: &'p ir::Expr) -> Expr<'p> {
        let sub = |x: &'p ir::Expr| Box::new(self.expr(x));
        match e {
            ir::Expr::Const(v) => Expr::Const(*v),
            ir::Expr::Index(a) => Expr::Index(self.row(a)),
            ir::Expr::Read(acc) => Expr::Read(self.access(acc)),
            ir::Expr::Neg(x) => Expr::Neg(sub(x)),
            ir::Expr::Sqrt(x) => Expr::Sqrt(sub(x)),
            ir::Expr::Add(a, b) => Expr::Add(sub(a), sub(b)),
            ir::Expr::Sub(a, b) => Expr::Sub(sub(a), sub(b)),
            ir::Expr::Mul(a, b) => Expr::Mul(sub(a), sub(b)),
            ir::Expr::Div(a, b) => Expr::Div(sub(a), sub(b)),
        }
    }

    fn access(&self, acc: &'p ir::Access) -> Access<'p> {
        let decl = self.program.array_decl(acc.array);
        assert_eq!(
            acc.idxs.len(),
            decl.dims.len(),
            "array {}: arity mismatch",
            decl.name
        );
        Access {
            array: acc.array.0,
            idxs: acc.idxs.iter().map(|a| self.row(a)).collect(),
        }
    }

    fn row(&self, a: &'p Aff) -> Row<'p> {
        let slot = |v: VarKey| match v {
            VarKey::Param(p) => {
                assert!(p.0 < self.program.nparams(), "undeclared parameter");
                self.program.param_var(p)
            }
            VarKey::Loop(l) => {
                assert!(self.in_scope[l.0], "loop variable read outside its loop");
                self.program.loop_var_index(l)
            }
        };
        let mut terms = Vec::with_capacity(a.terms().len());
        let mut fits = true;
        for &(v, c) in a.terms() {
            let slot = slot(v);
            match i64::try_from(c) {
                Ok(c) => terms.push((slot, c)),
                Err(_) => fits = false,
            }
        }
        let constant = i64::try_from(a.constant()).ok().filter(|_| fits);
        Row {
            src: a,
            narrow: constant.map(|constant| Narrow {
                terms: terms.into(),
                constant,
            }),
            div: a.divisor(),
        }
    }
}

impl<'p> Interpreter<'p> {
    /// Create an interpreter for `program`.
    ///
    /// # Panics
    /// On what the text alone shows to be wrong: an access whose subscript
    /// count is not its array's arity, or a loop variable read outside its
    /// loop.
    pub fn new(program: &'p Program) -> Self {
        let mut resolver = Resolver {
            program,
            in_scope: vec![false; program.nloops()],
        };
        Interpreter {
            program,
            on_instance: None,
            root: resolver.nodes(program.root()),
        }
    }

    /// Execute the program on the machine.
    pub fn run(&mut self, m: &mut Machine) {
        let _span = inl_obs::span("exec.interpret");
        let p = self.program;
        assert_eq!(m.params().len(), p.nparams(), "parameter arity mismatch");
        for a in p.arrays() {
            let (decl, arr) = (p.array_decl(a), m.array(a));
            assert_eq!(
                arr.dims.len(),
                decl.dims.len(),
                "array {}: arity mismatch",
                decl.name
            );
        }
        let mut vals = vec![0; p.space()];
        vals[..p.nparams()].copy_from_slice(m.params());
        let hook = self.on_instance.as_mut();
        let mut walk = Walk {
            program: p,
            wide: vals.iter().filter(|&&v| i64::try_from(v).is_err()).count(),
            vals,
            env: vec![None; if hook.is_some() { p.nloops() } else { 0 }],
            hook,
            m,
            instances: 0,
        };
        walk.nodes(&self.root);
        if walk.instances > 0 {
            inl_obs::counter_add!("exec.instances", walk.instances);
        }
    }
}

/// The state of one run.
struct Walk<'a, 'p> {
    program: &'p Program,
    m: &'a mut Machine,
    /// `params ++ loop variables`, indexed by slot.
    vals: Vec<Int>,
    /// How many bound values have no 64-bit image; the narrow rows read the
    /// low halves of `vals` only while this is zero.
    wide: usize,
    hook: Option<&'a mut InstanceHook<'p>>,
    /// The hook's loop environment; empty without a hook.
    env: Vec<Option<Int>>,
    /// Executed statement instances, credited to `exec.instances` once.
    instances: u64,
}

impl Row<'_> {
    #[inline]
    fn eval(&self, w: &Walk<'_, '_>) -> Rational {
        match self.eval64(w) {
            Some(num) if self.div == 1 => Rational::int(num as Int),
            Some(num) => Rational::new(num as Int, self.div),
            None => w.eval_wide(self.src),
        }
    }

    /// The value as a subscript; `None` when inexact, negative or past `usize`.
    #[inline]
    fn subscript(&self, w: &Walk<'_, '_>) -> Option<usize> {
        match self.eval64(w) {
            Some(num) if self.div == 1 => usize::try_from(num).ok(),
            _ => {
                let v = self.eval(w);
                usize::try_from(v.num()).ok().filter(|_| v.is_integer())
            }
        }
    }

    /// The numerator in 64-bit arithmetic; `None` where that cannot hold it.
    #[inline]
    fn eval64(&self, w: &Walk<'_, '_>) -> Option<i64> {
        let narrow = self.narrow.as_ref().filter(|_| w.wide == 0)?;
        narrow
            .terms
            .iter()
            .try_fold(narrow.constant, |acc, &(slot, c)| {
                acc.checked_add(c.checked_mul(w.vals[slot] as i64)?)
            })
    }
}

impl<'p> Walk<'_, 'p> {
    #[cold]
    fn eval_wide(&self, a: &Aff) -> Rational {
        a.eval(&|v| match v {
            VarKey::Param(p) => self.vals[self.program.param_var(p)],
            VarKey::Loop(l) => self.vals[self.program.loop_var_index(l)],
        })
    }

    fn nodes(&mut self, nodes: &[Node<'p>]) {
        for n in nodes {
            match n {
                Node::Loop(l) => self.looop(l),
                Node::Stmt(s) => self.stmt(s),
            }
        }
    }

    fn looop(&mut self, l: &Loop<'p>) {
        let lo = l.lower.iter().map(|r| r.eval(self).ceil()).max();
        let hi = l.upper.iter().map(|r| r.eval(self).floor()).min();
        let (lo, hi) = (lo.expect("empty bound"), hi.expect("empty bound"));
        // Every value in between has a 64-bit image iff both ends have one.
        let wide = usize::from(i64::try_from(lo).is_err() || i64::try_from(hi).is_err());
        self.wide += wide;
        let slot = self.program.loop_var_index(l.id);
        let mut i = lo;
        while i <= hi {
            self.vals[slot] = i;
            if let Some(e) = self.env.get_mut(l.id.0) {
                *e = Some(i);
            }
            self.nodes(&l.children);
            i += l.step;
        }
        if let Some(e) = self.env.get_mut(l.id.0) {
            *e = None;
        }
        self.wide -= wide;
    }

    fn stmt(&mut self, s: &Stmt<'p>) {
        for g in s.guards.iter() {
            let pass = match g {
                Guard::Ge(a) => a.eval(self).signum() >= 0,
                Guard::Eq(a) => a.eval(self).is_zero(),
                Guard::Div(a, k) => {
                    let v = a.eval(self);
                    debug_assert!(v.is_integer());
                    v.num() % *k == 0
                }
            };
            if !pass {
                return;
            }
        }
        self.instances += 1;
        if let Some(hook) = &mut self.hook {
            hook(s.id, &self.env);
        }
        let value = self.expr(&s.rhs);
        let cell = self.cell(&s.write);
        self.m.arrays_mut()[s.write.array].data[cell] = value;
    }

    /// The row-major position of an access in its array.
    #[inline]
    fn cell(&self, acc: &Access<'p>) -> usize {
        let arr = &self.m.arrays()[acc.array];
        let mut flat = 0;
        for (row, &ext) in acc.idxs.iter().zip(&arr.dims) {
            match row.subscript(self) {
                Some(i) if i < ext => flat = flat * ext + i,
                _ => self.bad_subscript(acc),
            }
        }
        flat
    }

    /// Names the first fault of an access: an inexact or negative subscript
    /// in any dimension before an out-of-bounds one.
    #[cold]
    fn bad_subscript(&self, acc: &Access<'p>) -> ! {
        let arr = &self.m.arrays()[acc.array];
        let subscript = |row: &Row<'p>| {
            let v = row.eval(self);
            assert!(v.is_integer(), "subscript {:?} not integral", row.src);
            assert!(v.num() >= 0, "negative subscript {}", v.num());
            v.num()
        };
        let idx: Vec<Int> = acc.idxs.iter().map(subscript).collect();
        for (d, (&i, &ext)) in idx.iter().zip(&arr.dims).enumerate() {
            assert!(
                i < ext as Int,
                "array {}: index {i} out of bounds {ext} in dimension {d}",
                arr.name
            );
        }
        unreachable!("a subscript of array {} was refused", arr.name)
    }

    fn expr(&self, e: &Expr<'p>) -> f64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Index(a) => {
                let r = a.eval(self);
                r.num() as f64 / r.den() as f64
            }
            Expr::Read(acc) => self.m.arrays()[acc.array].data[self.cell(acc)],
            Expr::Neg(x) => -self.expr(x),
            Expr::Sqrt(x) => self.expr(x).sqrt(),
            Expr::Add(a, b) => self.expr(a) + self.expr(b),
            Expr::Sub(a, b) => self.expr(a) - self.expr(b),
            Expr::Mul(a, b) => self.expr(a) * self.expr(b),
            Expr::Div(a, b) => self.expr(a) / self.expr(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    #[test]
    fn simple_cholesky_computes() {
        // N = 1: A(1) = sqrt(A(1)); no inner iterations
        let p = zoo::simple_cholesky();
        let mut m = Machine::new(&p, &[1], &|_, _| 16.0);
        Interpreter::new(&p).run(&mut m);
        assert_eq!(m.array_by_name("A").unwrap()[1], 4.0);
        // N = 2: A(1)=sqrt(A(1)); A(2)=A(2)/A(1); A(2)=sqrt(A(2))
        let mut m2 = Machine::new(&p, &[2], &|_, _| 16.0);
        Interpreter::new(&p).run(&mut m2);
        let a = m2.array_by_name("A").unwrap();
        assert_eq!(a[1], 4.0);
        assert_eq!(a[2], 2.0); // sqrt(16/4)
    }

    #[test]
    fn wavefront_values() {
        // A[i][j] = A[i-1][j] + A[i][j-1] over zero boundary except
        // A[0][*] = A[*][0] = 1 gives binomial-like growth
        let p = zoo::wavefront();
        let mut m = Machine::new(&p, &[3], &|_, idx| {
            if idx[0] == 0 || idx[1] == 0 {
                1.0
            } else {
                0.0
            }
        });
        Interpreter::new(&p).run(&mut m);
        let a = m.arrays().iter().find(|a| a.name == "A").unwrap();
        assert_eq!(a.get(&[1, 1]), 2.0);
        assert_eq!(a.get(&[2, 1]), 3.0);
        assert_eq!(a.get(&[2, 2]), 6.0);
        assert_eq!(a.get(&[3, 3]), 20.0);
    }

    #[test]
    fn guards_filter_instances() {
        use inl_ir::{Aff, Expr, Guard, ProgramBuilder};
        // do I = 1..N: if (I mod 2 == 0) X(I) = 1
        let mut b = ProgramBuilder::new("guarded");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt_guarded(
                "S",
                x,
                vec![Aff::var(i)],
                Expr::konst(1.0),
                vec![Guard::Div(Aff::var(i), 2)],
            );
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[5], &|_, _| 0.0);
        Interpreter::new(&p).run(&mut m);
        let x = m.array_by_name("X").unwrap();
        assert_eq!(x, &[0.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn hook_sees_every_instance() {
        let p = zoo::simple_cholesky();
        let counter = std::cell::Cell::new(0usize);
        let mut interp = Interpreter::new(&p);
        interp.on_instance = Some(Box::new(|_, _| counter.set(counter.get() + 1)));
        let mut m = Machine::new(&p, &[4], &|_, _| 9.0);
        interp.run(&mut m);
        drop(interp);
        // N=4: S1 runs 4 times; S2 runs 3+2+1 = 6 times
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn empty_ranges_execute_nothing() {
        let p = zoo::perfect_nest();
        // N = 1: inner loop J = 2..1 is empty
        let mut m = Machine::new(&p, &[1], &|_, _| 7.0);
        Interpreter::new(&p).run(&mut m);
        assert_eq!(m.array_by_name("A").unwrap(), &[7.0, 7.0]);
    }
}
