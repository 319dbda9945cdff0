//! The virtual machine: a flat dispatch loop over bound bytecode.
//!
//! The per-instance hot path is integer dot products (tiny sparse rows),
//! indexed `f64` loads/stores into one flat buffer, and three-address
//! arithmetic — no allocation, no hashing, no rationals (except the exact
//! [`Instr::Idx`] slow path, which replicates the interpreter's rational
//! semantics bit-for-bit).
//!
//! [`exec_range`] executes an arbitrary `[start, end)` slice of the
//! instruction stream, which is what lets the parallel executor drive
//! loop *bodies* directly: it evaluates a parallel loop's bounds itself,
//! sets the loop-variable register, and runs the body range per
//! iteration on a [`SharedBuf`] visible to all workers.

use crate::bytecode::{eval_hi, eval_lo, BoundProgram, FlatAcc, GuardKind, Instr, Pc};
use inl_linalg::{Int, Rational};
use std::marker::PhantomData;

/// The mutable execution state of one VM activation: integer registers
/// (parameters then loop variables), per-loop upper-bound slots, and the
/// `f64` value register file.
///
/// Cloning a state gives an independent activation over the same bound
/// program — the parallel executor clones one per worker.
#[derive(Clone, Debug)]
pub struct VmState {
    /// Integer registers: `params ++ loop vars`.
    pub iregs: Vec<i64>,
    /// Upper-bound slot per loop variable (filled by [`Instr::Loop`]).
    pub his: Vec<i64>,
    /// `f64` value registers.
    fregs: Vec<f64>,
    /// Number of parameter registers (offset of the loop-var file).
    nparams: usize,
}

impl BoundProgram<'_> {
    /// A fresh execution state: parameters loaded, loop variables zeroed.
    pub fn new_state(&self) -> VmState {
        let mut iregs = self.params.clone();
        iregs.resize(self.cp.nparams + self.cp.nloops, 0);
        VmState {
            iregs,
            his: vec![0; self.cp.nloops],
            fregs: vec![0.0; self.cp.nfregs],
            nparams: self.cp.nparams,
        }
    }
}

/// A shared view of the flat array buffer that many VM activations may
/// read and write concurrently.
///
/// # Safety
/// Bounds are checked on every access, but *aliasing* is the caller's
/// contract: concurrent writers must target disjoint cells (the parallel
/// executor only runs loops proven dependence-free, which is exactly that
/// guarantee).
#[derive(Clone, Copy)]
pub struct SharedBuf<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

unsafe impl Send for SharedBuf<'_> {}
unsafe impl Sync for SharedBuf<'_> {}

impl<'a> SharedBuf<'a> {
    /// Wrap a mutable buffer for the duration of its borrow.
    pub fn new(data: &'a mut [f64]) -> Self {
        SharedBuf {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    #[inline]
    fn read(&self, i: usize) -> f64 {
        assert!(i < self.len, "flat read out of bounds: {i} >= {}", self.len);
        unsafe { *self.ptr.add(i) }
    }

    #[inline]
    fn write(&self, i: usize, v: f64) {
        assert!(
            i < self.len,
            "flat write out of bounds: {i} >= {}",
            self.len
        );
        unsafe { *self.ptr.add(i) = v }
    }
}

/// Resolve a bound access to a flat buffer offset at the current register
/// file. Fast path: one merged row plus a segment check. Slow path
/// (divisor subscripts): per-dimension exact-divisibility and bounds
/// checks, mirroring the interpreter.
#[inline]
fn addr(bp: &BoundProgram, acc: u32, iregs: &[i64]) -> usize {
    match &bp.accs[acc as usize] {
        FlatAcc::Flat {
            terms,
            konst,
            start,
            end,
        } => {
            let mut off = *konst;
            for &(r, c) in terms {
                off += c * iregs[r as usize];
            }
            let off = off as usize;
            assert!(
                (*start..*end).contains(&off),
                "flat access outside its array segment"
            );
            off
        }
        FlatAcc::Dims { dims, base } => {
            let mut off = *base;
            for d in dims {
                let row = &bp.cp.rows[d.row as usize];
                let num = row.num(iregs);
                assert!(num % row.div == 0, "subscript not integral");
                let v = num / row.div;
                assert!(v >= 0, "negative subscript {v}");
                let v = v as usize;
                assert!(v < d.extent, "subscript {v} out of bounds {}", d.extent);
                off += v * d.stride;
            }
            off
        }
    }
}

/// Execute instructions `[start, end)` against a state and buffer.
///
/// The `vm.instrs` / `vm.instances` counters are accumulated locally and
/// flushed **once** on return (batched far coarser than per innermost
/// trip), so telemetry costs nothing on the per-instance path. When
/// [`crate::profile`] is enabled (checked once per call), the dispatch
/// loop additionally counts executions per instruction address into a
/// local vector and flushes it to the profile sink on return — the same
/// batching discipline.
pub fn exec_range(bp: &BoundProgram, st: &mut VmState, buf: &SharedBuf<'_>, start: Pc, end: Pc) {
    if crate::profile::enabled() {
        let mut counts = vec![0u64; bp.cp.code.len()];
        exec_range_impl::<true>(bp, st, buf, start, end, &mut counts);
        crate::profile::record_loop_bodies(bp.cp, &counts);
        crate::profile::flush(bp.cp.id, &counts);
    } else {
        exec_range_impl::<false>(bp, st, buf, start, end, &mut []);
    }
}

/// The dispatch loop, monomorphised over profiling so the per-pc counting
/// costs nothing when off.
fn exec_range_impl<const PROFILE: bool>(
    bp: &BoundProgram,
    st: &mut VmState,
    buf: &SharedBuf<'_>,
    start: Pc,
    end: Pc,
    counts: &mut [u64],
) {
    let code = &bp.cp.code;
    let rows = &bp.cp.rows;
    let mut instrs: u64 = 0;
    let mut instances: u64 = 0;
    let mut pc = start;
    while pc < end {
        instrs += 1;
        if PROFILE {
            counts[pc as usize] += 1;
        }
        match code[pc as usize] {
            Instr::Loop {
                var,
                lo,
                hi,
                step: _,
                exit,
            } => {
                let lo_v = eval_lo(rows, lo, &st.iregs);
                let hi_v = eval_hi(rows, hi, &st.iregs);
                if lo_v > hi_v {
                    pc = exit;
                } else {
                    st.iregs[var as usize] = lo_v;
                    st.his[var as usize - st.nparams] = hi_v;
                    pc += 1;
                }
            }
            Instr::Next { var, step, back } => {
                let v = st.iregs[var as usize] + step;
                if v <= st.his[var as usize - st.nparams] {
                    st.iregs[var as usize] = v;
                    pc = back;
                } else {
                    pc += 1;
                }
            }
            Instr::Guard { row, kind, skip } => {
                let num = rows[row as usize].num(&st.iregs);
                let pass = match kind {
                    GuardKind::Ge => num >= 0,
                    GuardKind::Eq => num == 0,
                    GuardKind::Div(k) => num % k == 0,
                };
                pc = if pass { pc + 1 } else { skip };
            }
            Instr::Const { dst, bits } => {
                st.fregs[dst as usize] = f64::from_bits(bits);
                pc += 1;
            }
            Instr::Idx { dst, row } => {
                let r = &rows[row as usize];
                let num = r.num(&st.iregs);
                st.fregs[dst as usize] = if r.div == 1 {
                    num as f64
                } else {
                    // Exact-rational semantics, matching the interpreter:
                    // reduce num/div by the gcd before the float division.
                    let q = Rational::new(num as Int, r.div as Int);
                    q.num() as f64 / q.den() as f64
                };
                pc += 1;
            }
            Instr::Load { dst, acc } => {
                st.fregs[dst as usize] = buf.read(addr(bp, acc, &st.iregs));
                pc += 1;
            }
            Instr::Neg { dst, src } => {
                st.fregs[dst as usize] = -st.fregs[src as usize];
                pc += 1;
            }
            Instr::Sqrt { dst, src } => {
                st.fregs[dst as usize] = st.fregs[src as usize].sqrt();
                pc += 1;
            }
            Instr::Add { dst, a, b } => {
                st.fregs[dst as usize] = st.fregs[a as usize] + st.fregs[b as usize];
                pc += 1;
            }
            Instr::Sub { dst, a, b } => {
                st.fregs[dst as usize] = st.fregs[a as usize] - st.fregs[b as usize];
                pc += 1;
            }
            Instr::Mul { dst, a, b } => {
                st.fregs[dst as usize] = st.fregs[a as usize] * st.fregs[b as usize];
                pc += 1;
            }
            Instr::Div { dst, a, b } => {
                st.fregs[dst as usize] = st.fregs[a as usize] / st.fregs[b as usize];
                pc += 1;
            }
            Instr::Store { src, acc } => {
                instances += 1;
                buf.write(addr(bp, acc, &st.iregs), st.fregs[src as usize]);
                pc += 1;
            }
        }
    }
    if instrs > 0 {
        inl_obs::counter_add!("vm.instrs", instrs);
        inl_obs::hist_record!("vm.exec_range.instrs", instrs);
    }
    if instances > 0 {
        inl_obs::counter_add!("vm.instances", instances);
    }
}

/// Execute the whole program against a flat buffer of exactly
/// [`BoundProgram::total_len`] cells.
pub fn run(bp: &BoundProgram, data: &mut [f64]) {
    assert_eq!(data.len(), bp.total_len, "buffer/layout length mismatch");
    let mut st = bp.new_state();
    let buf = SharedBuf::new(data);
    exec_range(bp, &mut st, &buf, 0, bp.cp.code.len() as Pc);
}
