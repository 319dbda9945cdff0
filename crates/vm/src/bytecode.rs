//! The bytecode format: affine rows, instructions, and the two program
//! stages (symbolic [`CompiledProgram`], parameter-bound [`BoundProgram`]).
//!
//! # Register files
//!
//! The VM has two register files:
//!
//! * **integer registers** — one `i64` per program variable, parameters
//!   first (`0 .. nparams`), then loop variables (`nparams + LoopId.0`).
//!   Parameters are loaded once at bind time and never change; loop
//!   registers are driven by [`Instr::Loop`]/[`Instr::Next`].
//! * **value registers** — a small `f64` file holding expression
//!   temporaries, allocated stack-wise per statement at compile time.
//!
//! # Affine rows
//!
//! Every affine expression of the IR (bounds, guards, subscripts, index
//! values) compiles to a [`Row`]: a sparse list of `(integer register,
//! coefficient)` terms, a constant, and a positive divisor. Evaluating a
//! row is one integer dot product — no rationals, no hashing, no
//! allocation.
//!
//! # Array storage
//!
//! Each array stays in **its own row-major `f64` slice** — the caller's
//! storage, in `ArrayId` order; binding computes each array's extents and
//! strides. An access whose subscripts all have divisor 1 collapses into a
//! *single* row computing the offset within its array directly (strides
//! folded into the coefficients); accesses with divisor subscripts
//! (non-unimodular code generation) keep per-dimension rows with
//! exact-divisibility checks. Either way an access names its array and
//! carries no base.
//!
//! # Trip kernels
//!
//! Binding also lowers every innermost loop with a straight-line body to a
//! [`TripKernel`]: the loop's own body range over *slots*, each slot one
//! access whose offset advances by a fixed delta per trip. The body ops
//! are two-address as [`crate::compile()`] emits them, so there is one
//! instruction set: the header runs the body as it stands over a column of
//! trips (see [`mod@crate::run`]); every other loop stays on the
//! dispatcher. A body with one `Store` is also kept split around each load
//! that may be of the cell one trip hands to the next ([`CarriedKernel`]).

use inl_ir::{LoopId, Program};
use inl_linalg::Int;

/// Index of an `f64` value register.
pub type Reg = u16;
/// Index of an `i64` integer register (parameters then loop variables).
pub type IReg = u16;
/// Index into a program's row arena.
pub type RowId = u32;
/// Instruction address.
pub type Pc = u32;

/// A contiguous run of rows in the arena: `(start, len)`. Loop bounds are
/// `max`/`min` over such a run (one row per bound term).
pub type RowRange = (RowId, u16);

/// A sparse affine row `(Σ cᵢ·reg_i + konst) / div` over the integer
/// register file, with `div ≥ 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// `(integer register, coefficient)` terms.
    pub terms: Vec<(IReg, i64)>,
    /// Constant term (numerator).
    pub konst: i64,
    /// Positive divisor.
    pub div: i64,
}

impl Row {
    /// Numerator value at the current register file (no division applied).
    #[inline]
    pub fn num(&self, iregs: &[i64]) -> i64 {
        let mut acc = self.konst;
        for &(r, c) in &self.terms {
            acc += c * iregs[r as usize];
        }
        acc
    }
}

/// Mathematical floor of `n / d` for `d > 0`.
#[inline]
pub fn floor_div(n: i64, d: i64) -> i64 {
    n.div_euclid(d)
}

/// Mathematical ceiling of `n / d` for `d > 0`.
#[inline]
pub fn ceil_div(n: i64, d: i64) -> i64 {
    -(-n).div_euclid(d)
}

/// A guard's comparison kind (the row's divisor is always 1 — the IR
/// validator rejects guards with divisors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardKind {
    /// `row ≥ 0`.
    Ge,
    /// `row = 0`.
    Eq,
    /// `k` divides `row`.
    Div(i64),
}

/// One VM instruction. The stream is flat; control flow is explicit
/// through the `exit`/`back`/`skip` addresses. The ten body operations
/// (`Const` … `Store`) are two-address — an operator overwrites its left
/// operand — so a trip executor can apply each to a whole column of trips
/// in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Loop header: evaluate the lower bound (max of ceilings over `lo`)
    /// into integer register `var` and the upper bound (min of floors over
    /// `hi`) into the loop's bound slot; jump to `exit` when the range is
    /// empty.
    Loop {
        /// Loop-variable register.
        var: IReg,
        /// Lower-bound rows.
        lo: RowRange,
        /// Upper-bound rows.
        hi: RowRange,
        /// Step (≥ 1).
        step: i64,
        /// First instruction after the loop.
        exit: Pc,
    },
    /// Loop latch: `var += step`; jump to `back` (the first body
    /// instruction) while `var` has not passed the stored upper bound.
    Next {
        /// Loop-variable register.
        var: IReg,
        /// Step (≥ 1).
        step: i64,
        /// First body instruction.
        back: Pc,
    },
    /// Statement guard: jump to `skip` (past the statement) unless the
    /// condition holds.
    Guard {
        /// Guard expression row (divisor 1).
        row: RowId,
        /// Comparison kind.
        kind: GuardKind,
        /// First instruction after the statement.
        skip: Pc,
    },
    /// Load an `f64` literal (stored as bits for `Eq`/`Hash`).
    Const {
        /// Destination value register.
        dst: Reg,
        /// `f64::to_bits` of the literal.
        bits: u64,
    },
    /// The value of an affine row as `f64` (`Expr::Index`): exact-rational
    /// semantics matching the interpreter.
    Idx {
        /// Destination value register.
        dst: Reg,
        /// The affine row (may carry a divisor).
        row: RowId,
    },
    /// Array read through a bound access into a value register.
    Load {
        /// Destination value register.
        dst: Reg,
        /// Index into the bound access table.
        acc: u32,
    },
    /// `dst = -dst`.
    Neg {
        /// Operand and destination value register.
        dst: Reg,
    },
    /// `dst = sqrt(dst)`.
    Sqrt {
        /// Operand and destination value register.
        dst: Reg,
    },
    /// `dst = dst + rhs`.
    Add {
        /// Left operand and destination.
        dst: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = dst - rhs`.
    Sub {
        /// Left operand and destination.
        dst: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = dst * rhs`.
    Mul {
        /// Left operand and destination.
        dst: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = dst / rhs`.
    Div {
        /// Left operand and destination.
        dst: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Array write; ends a statement instance (this is where
    /// `vm.instances` counts).
    Store {
        /// Source value register.
        src: Reg,
        /// Index into the bound access table.
        acc: u32,
    },
}

/// The operation kind of an [`Instr`], without operands — the unit the
/// VM profiler aggregates over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opcode {
    Loop,
    Next,
    Guard,
    Const,
    Idx,
    Load,
    Neg,
    Sqrt,
    Add,
    Sub,
    Mul,
    Div,
    Store,
}

impl Opcode {
    /// Every opcode, in declaration order.
    pub const ALL: [Opcode; 13] = [
        Opcode::Loop,
        Opcode::Next,
        Opcode::Guard,
        Opcode::Const,
        Opcode::Idx,
        Opcode::Load,
        Opcode::Neg,
        Opcode::Sqrt,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Store,
    ];

    /// Mnemonic, matching the disassembly.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Loop => "loop",
            Opcode::Next => "next",
            Opcode::Guard => "guard",
            Opcode::Const => "const",
            Opcode::Idx => "idx",
            Opcode::Load => "load",
            Opcode::Neg => "neg",
            Opcode::Sqrt => "sqrt",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Store => "store",
        }
    }
}

impl Instr {
    /// This instruction's [`Opcode`].
    pub fn opcode(&self) -> Opcode {
        match self {
            Instr::Loop { .. } => Opcode::Loop,
            Instr::Next { .. } => Opcode::Next,
            Instr::Guard { .. } => Opcode::Guard,
            Instr::Const { .. } => Opcode::Const,
            Instr::Idx { .. } => Opcode::Idx,
            Instr::Load { .. } => Opcode::Load,
            Instr::Neg { .. } => Opcode::Neg,
            Instr::Sqrt { .. } => Opcode::Sqrt,
            Instr::Add { .. } => Opcode::Add,
            Instr::Sub { .. } => Opcode::Sub,
            Instr::Mul { .. } => Opcode::Mul,
            Instr::Div { .. } => Opcode::Div,
            Instr::Store { .. } => Opcode::Store,
        }
    }
}

/// A symbolic (pre-binding) array access: per-dimension subscript rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessDesc {
    /// The array (by `ArrayId.0`).
    pub array: u32,
    /// One row per dimension, in declaration order.
    pub dims: Vec<RowId>,
}

/// A symbolic array declaration: extents as rows over the parameter
/// registers only.
#[derive(Clone, Debug)]
pub struct ArrayDesc {
    /// Source-level name.
    pub name: String,
    /// Extent rows (divisor 1, parameters only).
    pub dims: Vec<RowId>,
}

/// Compile-time metadata for one loop: where its instructions live, and
/// whether its header may run its trips across threads.
#[derive(Clone, Copy, Debug)]
pub struct LoopMeta {
    /// The loop-variable integer register.
    pub var: IReg,
    /// Step (≥ 1).
    pub step: i64,
    /// The IR's `parallel` flag: no trip touches a cell another trip
    /// stores, so above one thread the header runs the body's trips in
    /// chunks on workers (the fan-out of [`mod@crate::run`]).
    pub parallel: bool,
    /// Address of the [`Instr::Loop`] header.
    pub header: Pc,
    /// Body instruction range `[start, end)` (excludes header and latch).
    pub body: (Pc, Pc),
    /// First instruction after the loop (also the header's `exit`).
    pub exit: Pc,
    /// Lower-bound rows.
    pub lo: RowRange,
    /// Upper-bound rows.
    pub hi: RowRange,
}

/// A program compiled to bytecode, still symbolic in the parameters.
/// Bind parameters with [`CompiledProgram::bind`] to make it runnable.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Source program name.
    pub name: String,
    /// Number of parameters (integer registers `0 .. nparams`).
    pub nparams: usize,
    /// Number of loop variables (integer registers `nparams ..`).
    pub nloops: usize,
    /// Size of the `f64` value register file.
    pub nfregs: usize,
    /// The instruction stream.
    pub code: Vec<Instr>,
    /// Row arena.
    pub rows: Vec<Row>,
    /// Symbolic accesses (lowered to [`FlatAcc`] at bind time).
    pub accesses: Vec<AccessDesc>,
    /// Array declarations.
    pub arrays: Vec<ArrayDesc>,
    /// Per-loop metadata (`None` for loops detached from the tree).
    pub loops: Vec<Option<LoopMeta>>,
    /// Per-statement instruction ranges `[start, end)`.
    pub stmts: Vec<Option<(Pc, Pc)>>,
}

/// One array's shape: the slice the VM runs on for it must have `len`
/// cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Source-level name.
    pub name: String,
    /// Concrete extents.
    pub dims: Vec<usize>,
    /// Total cell count (`Π dims`).
    pub len: usize,
}

/// One dimension of a slow-path (divisor-carrying) access.
#[derive(Clone, Debug)]
pub struct DimAcc {
    /// Subscript row.
    pub row: RowId,
    /// Row-major stride of this dimension.
    pub stride: usize,
    /// Extent (for the bounds check).
    pub extent: usize,
}

/// A parameter-bound array access: an offset within the array it names.
#[derive(Clone, Debug)]
pub enum FlatAcc {
    /// Fast path: all subscripts had divisor 1, so the strides fold into
    /// one row computing the offset directly. The offset is checked against
    /// the array's length.
    Flat {
        /// Merged `(integer register, coefficient)` terms.
        terms: Vec<(IReg, i64)>,
        /// Constant term.
        konst: i64,
        /// The array accessed (index into [`BoundProgram::arrays`]).
        array: u32,
    },
    /// Slow path: per-dimension rows with exact-divisibility and
    /// per-dimension bounds checks (mirrors the interpreter).
    Dims {
        /// Per-dimension accesses.
        dims: Vec<DimAcc>,
        /// The array accessed (index into [`BoundProgram::arrays`]).
        array: u32,
    },
}

/// Value registers a [`TripKernel`] body may use.
pub const KERNEL_REGS: usize = 8;
/// Distinct accesses a [`TripKernel`] body may make.
pub const KERNEL_SLOTS: usize = 8;

/// The register that stands for the value handed from trip to trip in a
/// [`CarriedKernel`]'s chain: one past the kernel file.
pub const CARRY: Reg = KERNEL_REGS as Reg;

impl Instr {
    /// The value registers a body operation names, a binary operator's
    /// left operand first (control flow names none).
    fn regs_mut(&mut self) -> [Option<&mut Reg>; 2] {
        match self {
            Instr::Const { dst, .. }
            | Instr::Idx { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Neg { dst }
            | Instr::Sqrt { dst }
            | Instr::Store { src: dst, .. } => [Some(dst), None],
            Instr::Add { dst, rhs }
            | Instr::Sub { dst, rhs }
            | Instr::Mul { dst, rhs }
            | Instr::Div { dst, rhs } => [Some(dst), Some(rhs)],
            Instr::Loop { .. } | Instr::Next { .. } | Instr::Guard { .. } => [None, None],
        }
    }
}

/// A kernel body split around one load — the *carried* load, of the cell
/// trip `t` hands to trip `t + 1`: the cell every trip stores (a reduction)
/// or the cell the previous trip stored (a distance-1 recurrence). Whether a
/// loop entry's addresses make `slot` that cell is decided per entry
/// ([`crate::run::carried_slot`]); this is the half fixed by the body.
#[derive(Clone, Debug, PartialEq)]
pub struct CarriedKernel {
    /// The slot of the carried load, loaded once in the body.
    pub slot: u8,
    /// The slot of the body's one `Store`.
    pub store: u8,
    /// The ops no value of the carried load reaches, in body order, each
    /// value they define in a register column of its own: the chain finds
    /// every operand where its op left it.
    pub ops: Vec<Instr>,
    /// The operators from the carried load to the `Store`, in body order and
    /// with the body's operand order: each names [`CARRY`] — the value so
    /// far, and where its result goes, whichever side it is on — and, when
    /// binary, a finished column.
    pub chain: Vec<Instr>,
    /// The column that receives each trip's stored value.
    pub out: Reg,
}

impl CarriedKernel {
    /// Split `body`, which has one `Store` and so ends in it, around the
    /// load of slot `carried` (`slot_of` as in [`TripKernel::slot_of`]);
    /// `None` unless the body loads it once, stores the value the chain ends
    /// in, and defines no more values outside the chain than there are
    /// columns. Relies on the register discipline of [`crate::compile()`]: a
    /// register is written before it is read, and neither overwritten while
    /// its value is due nor read again after an operator took it as its
    /// right operand.
    fn split(slot_of: &[u8], body: &[Instr], carried: u8) -> Option<CarriedKernel> {
        // where the value of each body register is: a column, or `CARRY`
        let mut names = [0; KERNEL_REGS];
        let (mut ops, mut chain, mut out) = (Vec::new(), Vec::new(), 0);
        let (mut loaded, mut columns) = (false, 0..KERNEL_REGS as Reg);
        for &(mut op) in body {
            match op {
                Instr::Load { dst, acc } if slot_of[acc as usize] == carried => {
                    if std::mem::replace(&mut loaded, true) {
                        return None;
                    }
                    names[dst as usize] = CARRY;
                    continue;
                }
                Instr::Store { src, acc } => {
                    let of_chain = names[src as usize] == CARRY;
                    return of_chain.then_some(CarriedKernel {
                        slot: carried,
                        store: slot_of[acc as usize],
                        ops,
                        chain,
                        out,
                    });
                }
                Instr::Const { dst, .. } | Instr::Idx { dst, .. } | Instr::Load { dst, .. } => {
                    names[dst as usize] = columns.next()?
                }
                _ => {}
            }
            // The op over where its operands are (the first it names is its
            // destination); it belongs to the chain when one of them is the
            // carry, which its result then is.
            let (mut dst, mut in_chain, mut column) = (None, false, out);
            for r in op.regs_mut().into_iter().flatten() {
                dst = dst.or(Some(*r as usize));
                *r = names[*r as usize];
                match *r {
                    CARRY => in_chain = true,
                    col => column = col,
                }
            }
            if in_chain {
                names[dst?] = CARRY;
                // A column the chain reads is free from the trip that read
                // it on.
                out = column;
                chain.push(op);
            } else {
                ops.push(op);
            }
        }
        None
    }
}

/// One distinct access of a kernel body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Index into [`BoundProgram::accs`] (always a [`FlatAcc::Flat`]).
    pub acc: u32,
    /// The array accessed (index into [`BoundProgram::arrays`]).
    pub array: u32,
    /// Change of the flat offset per trip: the loop register's coefficient
    /// times the loop's step.
    pub delta: i64,
    /// Some op of the body stores through this slot.
    pub stored: bool,
}

/// An innermost loop lowered for the trip executors: its own straight-line
/// body over at most [`KERNEL_REGS`] value registers, and the table that
/// turns the body's accesses into at most [`KERNEL_SLOTS`] slots.
#[derive(Clone, Debug, PartialEq)]
pub struct TripKernel {
    /// The loop's body `[start, end)` in [`CompiledProgram::code`]: the ops
    /// the executors run, as they stand.
    pub body: (Pc, Pc),
    /// The body's distinct accesses.
    pub slots: Vec<Slot>,
    /// The slot of each access of the body, parallel to
    /// [`BoundProgram::accs`] (0 for the accesses of other loops).
    pub slot_of: Vec<u8>,
    /// The change per trip of each `Idx` row of the body.
    pub idx_deltas: Vec<(RowId, i64)>,
    /// `Store` ops per trip (what one trip adds to `vm.instances`).
    pub stores: u32,
    /// The body split around each load that may turn out, at a loop entry,
    /// to be of the one cell the trips hand on: empty unless the body has
    /// one `Store`; then the stored slot's own load when it stands still (a
    /// reduction), else every read of its array that moves with it.
    pub carried: Vec<CarriedKernel>,
}

impl TripKernel {
    /// The change per trip of `row`, the row of an `Idx` op of the body.
    pub fn idx_delta(&self, row: RowId) -> i64 {
        let of_row = self.idx_deltas.iter().find(|d| d.0 == row);
        of_row.expect("an Idx row of the kernel's body").1
    }
}

/// A [`CompiledProgram`] with parameters bound: array layout computed,
/// accesses lowered, ready to execute on one `f64` slice per array.
#[derive(Clone, Debug)]
pub struct BoundProgram<'c> {
    /// The underlying bytecode.
    pub cp: &'c CompiledProgram,
    /// Bound parameter values.
    pub params: Vec<i64>,
    /// Per-array layout, in `ArrayId` order.
    pub arrays: Vec<ArrayLayout>,
    /// Lowered accesses, parallel to `cp.accesses`.
    pub accs: Vec<FlatAcc>,
    /// Trip kernels, parallel to `cp.loops`: `Some` for every innermost
    /// loop whose body qualifies — fixed here, by the body alone; which
    /// executor runs a loop entry is decided from that entry's addresses.
    pub kernels: Vec<Option<TripKernel>>,
}

impl CompiledProgram {
    /// Bind parameter values: compute array layouts and lower every access
    /// to its flat form.
    ///
    /// ```
    /// let p = inl_ir::zoo::simple_cholesky();
    /// let cp = inl_vm::compile(&p);
    /// let bp = cp.bind(&[3]); // N = 3
    /// let mut a = vec![9.0; bp.arrays[0].len];
    /// inl_vm::run(&bp, &mut [&mut a[..]]);
    /// assert_eq!(a[1], 3.0); // A[1] = sqrt(9)
    /// ```
    ///
    /// # Panics
    /// On parameter arity mismatch, non-positive extents, values that do
    /// not fit the VM's `i64` registers, or a cell count that overflows
    /// `usize`.
    pub fn bind(&self, params: &[Int]) -> BoundProgram<'_> {
        assert_eq!(params.len(), self.nparams, "parameter arity mismatch");
        let params: Vec<i64> = params
            .iter()
            .map(|&p| i64::try_from(p).expect("parameter out of i64 range"))
            .collect();
        // Extent rows reference parameter registers only (enforced at
        // compile time), so a params-prefixed scratch file suffices.
        let mut scratch = params.clone();
        scratch.resize(self.nparams + self.nloops, 0);
        let arrays: Vec<ArrayLayout> = self
            .arrays
            .iter()
            .map(|a| {
                let dims: Vec<usize> = a
                    .dims
                    .iter()
                    .map(|&r| {
                        let row = &self.rows[r as usize];
                        debug_assert_eq!(row.div, 1, "array extent with divisor");
                        let ext = row.num(&scratch);
                        assert!(ext > 0, "array {} has non-positive extent {ext}", a.name);
                        ext as usize
                    })
                    .collect();
                let len = dims
                    .iter()
                    .try_fold(1usize, |n, &ext| n.checked_mul(ext))
                    .unwrap_or_else(|| panic!("array {}: extents {dims:?} overflow usize", a.name));
                ArrayLayout {
                    name: a.name.clone(),
                    dims,
                    len,
                }
            })
            .collect();
        let accs: Vec<FlatAcc> = self
            .accesses
            .iter()
            .map(|acc| self.lower_access(acc, &arrays))
            .collect();
        let kernels = self
            .loops
            .iter()
            .map(|meta| self.lower_kernel(meta.as_ref()?, &accs))
            .collect();
        BoundProgram {
            cp: self,
            params,
            arrays,
            accs,
            kernels,
        }
    }

    fn lower_access(&self, acc: &AccessDesc, arrays: &[ArrayLayout]) -> FlatAcc {
        let layout = &arrays[acc.array as usize];
        // row-major strides: stride_d = Π extents after d
        let mut strides = vec![1usize; layout.dims.len()];
        for d in (0..layout.dims.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * layout.dims[d + 1];
        }
        let fast = acc.dims.iter().all(|&r| self.rows[r as usize].div == 1);
        if fast {
            // merge stride_d · row_d into one offset row
            let mut terms: Vec<(IReg, i64)> = Vec::new();
            let mut konst = 0;
            for (&r, &stride) in acc.dims.iter().zip(&strides) {
                let row = &self.rows[r as usize];
                konst += row.konst * stride as i64;
                for &(reg, c) in &row.terms {
                    match terms.iter_mut().find(|(tr, _)| *tr == reg) {
                        Some((_, tc)) => *tc += c * stride as i64,
                        None => terms.push((reg, c * stride as i64)),
                    }
                }
            }
            terms.retain(|&(_, c)| c != 0);
            FlatAcc::Flat {
                terms,
                konst,
                array: acc.array,
            }
        } else {
            FlatAcc::Dims {
                dims: acc
                    .dims
                    .iter()
                    .zip(&strides)
                    .zip(&layout.dims)
                    .map(|((&row, &stride), &extent)| DimAcc {
                        row,
                        stride,
                        extent,
                    })
                    .collect(),
                array: acc.array,
            }
        }
    }

    /// Lower a loop's body to a [`TripKernel`], or `None` when it has to
    /// stay on the dispatcher: an inner loop or a `Guard` in the body (a
    /// skipped access must not be range-checked), a [`FlatAcc::Dims`]
    /// access or a divisor `Idx` row (neither is affine in the trip), a
    /// per-trip delta that overflows, or more registers or accesses than
    /// the executors' fixed files hold. What [`crate::compile()`] makes
    /// true of every body is not checked again: an operator's operands are
    /// distinct registers, and a register is written before it is read.
    fn lower_kernel(&self, meta: &LoopMeta, accs: &[FlatAcc]) -> Option<TripKernel> {
        let per_trip = |terms: &[(IReg, i64)]| {
            let coef = terms.iter().find(|t| t.0 == meta.var).map_or(0, |t| t.1);
            coef.checked_mul(meta.step)
        };
        let mut slots: Vec<Slot> = Vec::new();
        let mut slot = |acc: u32, stored: bool| {
            let FlatAcc::Flat { terms, .. } = &accs[acc as usize] else {
                return None;
            };
            let desc = &self.accesses[acc as usize];
            let known = |s: &Slot| self.accesses[s.acc as usize] == *desc;
            let i = match slots.iter().position(known) {
                Some(i) => i,
                None if slots.len() == KERNEL_SLOTS => return None,
                None => {
                    slots.push(Slot {
                        acc,
                        array: desc.array,
                        delta: per_trip(terms)?,
                        stored: false,
                    });
                    slots.len() - 1
                }
            };
            slots[i].stored |= stored;
            Some(i as u8)
        };
        let body = &self.code[meta.body.0 as usize..meta.body.1 as usize];
        let mut slot_of = vec![0u8; accs.len()];
        let (mut idx_deltas, mut stores) = (Vec::new(), 0);
        for &(mut instr) in body {
            let past_file = |r: &mut Reg| *r as usize >= KERNEL_REGS;
            if instr.regs_mut().into_iter().flatten().any(past_file) {
                return None;
            }
            match instr {
                Instr::Loop { .. } | Instr::Next { .. } | Instr::Guard { .. } => return None,
                Instr::Idx { row, .. } => {
                    let r = &self.rows[row as usize];
                    if r.div != 1 {
                        return None;
                    }
                    idx_deltas.push((row, per_trip(&r.terms)?));
                }
                Instr::Load { acc, .. } => slot_of[acc as usize] = slot(acc, false)?,
                Instr::Store { acc, .. } => {
                    stores += 1;
                    slot_of[acc as usize] = slot(acc, true)?;
                }
                _ => {}
            }
        }
        let mut k = TripKernel {
            body: meta.body,
            slots,
            slot_of,
            idx_deltas,
            stores,
            carried: Vec::new(),
        };
        if let (1, Some(w)) = (k.stores, k.slots.iter().find(|s| s.stored)) {
            let hands_on = |s: &Slot| match w.delta {
                0 => s == w,
                _ => s != w && (s.array, s.delta) == (w.array, w.delta),
            };
            k.carried = (0..k.slots.len())
                .filter(|&i| hands_on(&k.slots[i]))
                .filter_map(|i| CarriedKernel::split(&k.slot_of, body, i as u8))
                .collect();
        }
        Some(k)
    }

    /// Metadata for a loop, if it is attached to the program tree.
    pub fn loop_meta(&self, l: LoopId) -> Option<&LoopMeta> {
        self.loops[l.0].as_ref()
    }

    /// Total instruction count.
    pub fn ninstrs(&self) -> usize {
        self.code.len()
    }

    /// Human-readable disassembly (one instruction per line), used in docs
    /// and tests. Register names resolve through the source program.
    pub fn disasm(&self, p: &Program) -> String {
        use std::fmt::Write;
        let ireg_name = |r: IReg| -> String {
            let r = r as usize;
            if r < self.nparams {
                p.params()[r].clone()
            } else {
                p.loop_decl(LoopId(r - self.nparams)).name.clone()
            }
        };
        let row_str = |id: RowId| -> String {
            let row = &self.rows[id as usize];
            let mut s = String::new();
            for (i, &(r, c)) in row.terms.iter().enumerate() {
                let name = ireg_name(r);
                if i == 0 {
                    match c {
                        1 => write!(s, "{name}").unwrap(),
                        -1 => write!(s, "-{name}").unwrap(),
                        _ => write!(s, "{c}*{name}").unwrap(),
                    }
                } else if c >= 0 {
                    write!(
                        s,
                        " + {}",
                        if c == 1 { name } else { format!("{c}*{name}") }
                    )
                    .unwrap();
                } else {
                    let c = -c;
                    write!(
                        s,
                        " - {}",
                        if c == 1 { name } else { format!("{c}*{name}") }
                    )
                    .unwrap();
                }
            }
            if row.terms.is_empty() {
                write!(s, "{}", row.konst).unwrap();
            } else if row.konst > 0 {
                write!(s, " + {}", row.konst).unwrap();
            } else if row.konst < 0 {
                write!(s, " - {}", -row.konst).unwrap();
            }
            if row.div != 1 {
                s = format!("({s})/{}", row.div);
            }
            s
        };
        let range_str = |(start, len): RowRange| -> String {
            (start..start + len as u32)
                .map(row_str)
                .collect::<Vec<_>>()
                .join(", ")
        };
        let acc_str = |a: u32| -> String {
            let acc = &self.accesses[a as usize];
            format!(
                "{}[{}]",
                self.arrays[acc.array as usize].name,
                acc.dims
                    .iter()
                    .map(|&r| row_str(r))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let mut out = String::new();
        for (pc, i) in self.code.iter().enumerate() {
            let line = match *i {
                Instr::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    exit,
                } => format!(
                    "loop {} = max({}) .. min({}) step {step} exit @{exit}",
                    ireg_name(var),
                    range_str(lo),
                    range_str(hi)
                ),
                Instr::Next { var, step, back } => {
                    format!("next {} += {step} back @{back}", ireg_name(var))
                }
                Instr::Guard { row, kind, skip } => {
                    let cond = match kind {
                        GuardKind::Ge => format!("{} >= 0", row_str(row)),
                        GuardKind::Eq => format!("{} == 0", row_str(row)),
                        GuardKind::Div(k) => format!("{k} | {}", row_str(row)),
                    };
                    format!("guard {cond} else @{skip}")
                }
                Instr::Const { dst, bits } => format!("r{dst} = {}", f64::from_bits(bits)),
                Instr::Idx { dst, row } => format!("r{dst} = idx({})", row_str(row)),
                Instr::Load { dst, acc } => format!("r{dst} = load {}", acc_str(acc)),
                Instr::Neg { dst } => format!("r{dst} = -r{dst}"),
                Instr::Sqrt { dst } => format!("r{dst} = sqrt(r{dst})"),
                Instr::Add { dst, rhs } => format!("r{dst} = r{dst} + r{rhs}"),
                Instr::Sub { dst, rhs } => format!("r{dst} = r{dst} - r{rhs}"),
                Instr::Mul { dst, rhs } => format!("r{dst} = r{dst} * r{rhs}"),
                Instr::Div { dst, rhs } => format!("r{dst} = r{dst} / r{rhs}"),
                Instr::Store { src, acc } => format!("store r{src} -> {}", acc_str(acc)),
            };
            out.push_str(&format!("{pc:4}: {line}\n"));
        }
        out
    }
}

/// Lower bound of a row range: max of ceilings (a divisor-1 row is not
/// divided).
#[inline]
pub(crate) fn eval_lo(rows: &[Row], (start, len): RowRange, iregs: &[i64]) -> i64 {
    let mut best = i64::MIN;
    for row in &rows[start as usize..start as usize + len as usize] {
        let num = row.num(iregs);
        best = best.max(if row.div == 1 {
            num
        } else {
            ceil_div(num, row.div)
        });
    }
    best
}

/// Upper bound of a row range: min of floors (a divisor-1 row is not
/// divided).
#[inline]
pub(crate) fn eval_hi(rows: &[Row], (start, len): RowRange, iregs: &[i64]) -> i64 {
    let mut best = i64::MAX;
    for row in &rows[start as usize..start as usize + len as usize] {
        let num = row.num(iregs);
        best = best.min(if row.div == 1 {
            num
        } else {
            floor_div(num, row.div)
        });
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_ceil_division() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(8, 2), 4);
        assert_eq!(floor_div(-8, 2), -4);
    }

    #[test]
    fn row_eval() {
        let row = Row {
            terms: vec![(0, 2), (2, -1)],
            konst: 5,
            div: 1,
        };
        assert_eq!(row.num(&[3, 99, 4]), 2 * 3 - 4 + 5);
    }
}
