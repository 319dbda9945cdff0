//! The AST → bytecode compiler.
//!
//! One pass over the program tree. Everything the interpreter re-derives
//! per statement instance is resolved here, once:
//!
//! * affine expressions become [`Row`]s over the integer register file;
//! * loop bounds become row ranges evaluated by a single [`Instr::Loop`]
//!   header;
//! * expressions become two-address code over `f64` value registers,
//!   allocated stack-wise (an operator overwrites its left operand's
//!   register and frees its right's, so the file stays as deep as the
//!   expression tree);
//! * array accesses become entries in the access table, lowered to
//!   offsets within their arrays when parameters are bound.

use crate::bytecode::{
    AccessDesc, ArrayDesc, CompiledProgram, GuardKind, IReg, Instr, LoopMeta, Pc, Reg, Row, RowId,
    RowRange,
};
use inl_ir::{Access, Aff, Bound, Expr, Guard, LoopId, Node, Program, StmtId, VarKey};
use inl_linalg::Int;

/// Narrow an IR integer (`i128`) to a VM register value.
///
/// # Panics
/// If the value does not fit `i64` (far beyond any realistic program).
fn c64(v: Int) -> i64 {
    i64::try_from(v).expect("value exceeds the VM's i64 range")
}

/// Compile a program to bytecode. The result is symbolic in the
/// parameters; bind them with [`CompiledProgram::bind`] to execute.
///
/// ```
/// let p = inl_ir::zoo::simple_cholesky();
/// let cp = inl_vm::compile(&p);
/// // Compiled once, bindable for any parameter value.
/// assert_eq!(cp.nparams, 1);
/// assert!(cp.bind(&[4]).arrays[0].len > cp.bind(&[2]).arrays[0].len);
/// ```
///
/// # Panics
/// If the program fails structural validation (dangling nodes, guards
/// with divisors, …) — compile only validated programs.
pub fn compile(p: &Program) -> CompiledProgram {
    let _span = inl_obs::span("vm.compile");
    let mut c = Compiler {
        p,
        nparams: p.nparams(),
        code: Vec::new(),
        rows: Vec::new(),
        accesses: Vec::new(),
        arrays: Vec::new(),
        loops: vec![None; p.nloops()],
        stmts: vec![None; p.nstmts()],
        next_reg: 0,
        max_reg: 0,
    };
    for a in p.arrays() {
        let decl = p.array_decl(a);
        let dims = decl
            .dims
            .iter()
            .map(|d| {
                assert_eq!(d.divisor(), 1, "array extent with divisor");
                assert!(
                    d.vars().all(|v| matches!(v, VarKey::Param(_))),
                    "array extent references a loop variable"
                );
                c.push_row(d)
            })
            .collect();
        c.arrays.push(ArrayDesc {
            name: decl.name.clone(),
            dims,
        });
    }
    c.emit_nodes(p.root());
    CompiledProgram {
        name: p.name().to_string(),
        nparams: c.nparams,
        nloops: p.nloops(),
        nfregs: c.max_reg,
        code: c.code,
        rows: c.rows,
        accesses: c.accesses,
        arrays: c.arrays,
        loops: c.loops,
        stmts: c.stmts,
    }
}

struct Compiler<'p> {
    p: &'p Program,
    nparams: usize,
    code: Vec<Instr>,
    rows: Vec<Row>,
    accesses: Vec<AccessDesc>,
    arrays: Vec<ArrayDesc>,
    loops: Vec<Option<LoopMeta>>,
    stmts: Vec<Option<(Pc, Pc)>>,
    /// Next free value register (stack discipline, reset per statement).
    next_reg: usize,
    /// High-water mark of the value register file.
    max_reg: usize,
}

impl Compiler<'_> {
    fn ireg(&self, v: VarKey) -> IReg {
        let idx = match v {
            VarKey::Param(p) => p.0,
            VarKey::Loop(l) => self.nparams + l.0,
        };
        IReg::try_from(idx).expect("register file overflow")
    }

    fn push_row(&mut self, a: &Aff) -> RowId {
        let row = Row {
            terms: a
                .terms()
                .iter()
                .map(|&(v, c)| (self.ireg(v), c64(c)))
                .collect(),
            konst: c64(a.constant()),
            div: c64(a.divisor()),
        };
        // The arena is tiny (a handful of rows per loop/stmt); dedup keeps
        // the disassembly readable and the cache footprint minimal.
        if let Some(i) = self.rows.iter().position(|r| *r == row) {
            return i as RowId;
        }
        self.rows.push(row);
        (self.rows.len() - 1) as RowId
    }

    /// Push a bound's terms as a contiguous run of rows. Bound rows are
    /// never deduplicated (the range must stay contiguous).
    fn push_bound(&mut self, b: &Bound) -> RowRange {
        let start = self.rows.len() as RowId;
        for t in &b.terms {
            let row = Row {
                terms: t
                    .terms()
                    .iter()
                    .map(|&(v, c)| (self.ireg(v), c64(c)))
                    .collect(),
                konst: c64(t.constant()),
                div: c64(t.divisor()),
            };
            self.rows.push(row);
        }
        (start, u16::try_from(b.terms.len()).expect("bound too wide"))
    }

    fn push_access(&mut self, acc: &Access) -> u32 {
        let dims = acc.idxs.iter().map(|a| self.push_row(a)).collect();
        self.accesses.push(AccessDesc {
            array: acc.array.0 as u32,
            dims,
        });
        (self.accesses.len() - 1) as u32
    }

    fn emit_nodes(&mut self, nodes: &[Node]) {
        for &n in nodes {
            match n {
                Node::Loop(l) => self.emit_loop(l),
                Node::Stmt(s) => self.emit_stmt(s),
            }
        }
    }

    fn emit_loop(&mut self, l: LoopId) {
        let ld = self.p.loop_decl(l);
        let lo = self.push_bound(&ld.lower);
        let hi = self.push_bound(&ld.upper);
        let var = self.ireg(VarKey::Loop(l));
        let step = c64(ld.step);
        assert!(step >= 1, "loop step must be positive");
        let header = self.code.len() as Pc;
        self.code.push(Instr::Loop {
            var,
            lo,
            hi,
            step,
            exit: 0, // patched below
        });
        let body_start = self.code.len() as Pc;
        let children = ld.children.clone();
        self.emit_nodes(&children);
        let body_end = self.code.len() as Pc;
        self.code.push(Instr::Next {
            var,
            step,
            back: body_start,
        });
        let exit = self.code.len() as Pc;
        if let Instr::Loop { exit: e, .. } = &mut self.code[header as usize] {
            *e = exit;
        }
        self.loops[l.0] = Some(LoopMeta {
            var,
            step,
            parallel: ld.parallel,
            header,
            body: (body_start, body_end),
            exit,
            lo,
            hi,
        });
    }

    fn emit_stmt(&mut self, s: StmtId) {
        let sd = self.p.stmt_decl(s).clone();
        let start = self.code.len() as Pc;
        let mut guard_pcs = Vec::with_capacity(sd.guards.len());
        for g in &sd.guards {
            let (aff, kind) = match g {
                Guard::Ge(a) => (a, GuardKind::Ge),
                Guard::Eq(a) => (a, GuardKind::Eq),
                Guard::Div(a, k) => (a, GuardKind::Div(c64(*k))),
            };
            debug_assert_eq!(aff.divisor(), 1, "guard with divisor");
            let row = self.push_row(aff);
            guard_pcs.push(self.code.len());
            self.code.push(Instr::Guard {
                row,
                kind,
                skip: 0, // patched below
            });
        }
        self.next_reg = 0;
        let src = self.emit_expr(&sd.rhs);
        let acc = self.push_access(&sd.write);
        self.code.push(Instr::Store { src, acc });
        let end = self.code.len() as Pc;
        for pc in guard_pcs {
            if let Instr::Guard { skip, .. } = &mut self.code[pc] {
                *skip = end;
            }
        }
        self.stmts[s.0] = Some((start, end));
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        Reg::try_from(r).expect("value register file overflow")
    }

    /// Emit two-address code for an expression; returns the register
    /// holding the result. Binary operators write into the left operand's
    /// register and free the right's.
    fn emit_expr(&mut self, e: &Expr) -> Reg {
        match e {
            Expr::Const(v) => {
                let dst = self.alloc();
                self.code.push(Instr::Const {
                    dst,
                    bits: v.to_bits(),
                });
                dst
            }
            Expr::Index(a) => {
                let dst = self.alloc();
                let row = self.push_row(a);
                self.code.push(Instr::Idx { dst, row });
                dst
            }
            Expr::Read(acc) => {
                let dst = self.alloc();
                let acc = self.push_access(acc);
                self.code.push(Instr::Load { dst, acc });
                dst
            }
            Expr::Neg(x) => {
                let dst = self.emit_expr(x);
                self.code.push(Instr::Neg { dst });
                dst
            }
            Expr::Sqrt(x) => {
                let dst = self.emit_expr(x);
                self.code.push(Instr::Sqrt { dst });
                dst
            }
            Expr::Add(a, b) => self.emit_binop(a, b, |dst, rhs| Instr::Add { dst, rhs }),
            Expr::Sub(a, b) => self.emit_binop(a, b, |dst, rhs| Instr::Sub { dst, rhs }),
            Expr::Mul(a, b) => self.emit_binop(a, b, |dst, rhs| Instr::Mul { dst, rhs }),
            Expr::Div(a, b) => self.emit_binop(a, b, |dst, rhs| Instr::Div { dst, rhs }),
        }
    }

    fn emit_binop(&mut self, a: &Expr, b: &Expr, mk: fn(Reg, Reg) -> Instr) -> Reg {
        let dst = self.emit_expr(a);
        let rhs = self.emit_expr(b);
        self.code.push(mk(dst, rhs));
        self.next_reg -= 1; // free rhs
        dst
    }
}
