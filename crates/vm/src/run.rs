//! The virtual machine: a flat dispatch loop over bound bytecode, and two
//! trip executors that run the same body ops for the innermost loops
//! binding lowered to a [`TripKernel`].
//!
//! On the dispatcher the per-instance path is integer dot products (tiny
//! sparse rows), indexed `f64` loads/stores into one flat buffer, and
//! two-address arithmetic — no allocation, no hashing, no rationals
//! (except the exact [`Instr::Idx`] slow path, which replicates the
//! interpreter's rational semantics bit-for-bit).
//!
//! # Trip kernels
//!
//! The `Loop` header of a kernel loop can run all the loop's trips itself
//! and jump to its exit. At entry it resolves every slot's first offset with
//! the dispatcher's own address computation (segment assert included) and
//! asserts the *last* trip's offset against the same segment: an offset is
//! affine in the trip, so every trip between lies between, and a guard-free
//! body performs every access on every trip, so nothing is checked that
//! would not have run. It then picks an [`Executor`] from the address spans
//! alone ([`trips_are_independent`], [`carried_slot`]):
//!
//! * **columns** — each op applied to up to [`COLUMN`] trips at once over
//!   register columns, when no cell a trip stores is touched by any other
//!   trip. A cell that is stored then sees the accesses of one trip only,
//!   in that trip's op order, and every other cell is only read, so the
//!   result is the dispatcher's bit for bit;
//! * **carried** — when the one cell a trip reads that another trip stores
//!   is handed from each trip to the next (`C[I,J] += …` under `K`;
//!   `A[I,J−1]` under `J`): the ops that never see that cell's load run in
//!   columns as above, then the chain from the load to the store runs trip
//!   by trip over the finished columns with the cell in a register, each op
//!   in the body's own operand order — the values every operation sees,
//!   and so the bits, are the dispatcher's. A recurrence scatters the
//!   column of results; a reduction writes its cell once, at exit.
//!
//! An entry whose spans allow neither falls through to the dispatcher, which
//! runs the body and the latch trip by trip; its trips are counted under
//! `vm.trips.dispatch`, a lane no zoo program or benchmark kernel has ever
//! filled. Which loops are kernels is fixed by their bodies at bind time and
//! there is nothing to switch: the interpreter is the oracle for every
//! executor.
//!
//! [`exec_range`] executes an arbitrary `[start, end)` slice of the
//! instruction stream, which is what lets the parallel executor drive
//! loop *bodies* directly: it evaluates a parallel loop's bounds itself,
//! sets the loop-variable register, and runs the body range per
//! iteration on a [`SharedBuf`] visible to all workers.

use crate::bytecode::{
    eval_hi, eval_lo, BoundProgram, FlatAcc, GuardKind, Instr, Pc, Reg, Row, Slot, TripKernel,
    CARRY, KERNEL_REGS, KERNEL_SLOTS,
};
use crate::profile::Samples;
use inl_linalg::{Int, Rational};
use std::marker::PhantomData;

/// Trips one dispatch of the column executor covers.
pub const COLUMN: usize = 128;

/// The column executor's register file: one column of trips per register.
type Columns = [[f64; COLUMN]; KERNEL_REGS];

/// A state's [`Columns`], allocated by the first kernel that runs in
/// columns. Cloning yields an empty scratch: it holds no value that
/// outlives a loop entry, and the parallel executor clones a state per
/// chunk per wavefront.
#[derive(Debug, Default)]
struct ColumnScratch(Option<Box<Columns>>);

impl Clone for ColumnScratch {
    fn clone(&self) -> Self {
        ColumnScratch(None)
    }
}

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
    /// The column executor's registers (not copied by `clone`).
    cols: ColumnScratch,
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
            cols: ColumnScratch::default(),
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

    /// The lowest of the `n ≥ 1` cells `first, first + stride, …`, after
    /// asserting the first and the last of them inside the buffer (an
    /// affine index stays between its two ends).
    #[inline]
    fn lowest(&self, n: usize, first: i64, stride: i64) -> usize {
        let ends = i64::try_from(n - 1)
            .ok()
            .and_then(|reach| reach.checked_mul(stride))
            .and_then(|d| first.checked_add(d))
            .map(|last| (first.min(last), first.max(last)));
        match ends {
            Some((lo, hi)) if lo >= 0 && (hi as usize) < self.len => lo as usize,
            _ => panic!(
                "flat access out of bounds: {n} cells from {first} by {stride} >= {}",
                self.len
            ),
        }
    }

    /// Read one cell per element of `out`, `stride` cells apart from `first`.
    #[inline]
    fn gather(&self, out: &mut [f64], first: i64, stride: i64) {
        if out.is_empty() {
            return;
        }
        let lo = self.lowest(out.len(), first, stride);
        // SAFETY: `lowest` asserted every cell read inside the buffer;
        // `out` is a register column, never part of the buffer.
        unsafe {
            match stride {
                0 => out.fill(*self.ptr.add(lo)),
                1 => std::ptr::copy_nonoverlapping(self.ptr.add(lo), out.as_mut_ptr(), out.len()),
                _ => {
                    for (t, o) in out.iter_mut().enumerate() {
                        *o = *self.ptr.offset((first + t as i64 * stride) as isize);
                    }
                }
            }
        }
    }

    /// Write one cell per element of `src`, `stride` cells apart from `first`.
    #[inline]
    fn scatter(&self, src: &[f64], first: i64, stride: i64) {
        if src.is_empty() {
            return;
        }
        let lo = self.lowest(src.len(), first, stride);
        // SAFETY: `lowest` asserted every cell written inside the buffer;
        // `src` is a register column, never part of the buffer.
        unsafe {
            match stride {
                1 => std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(lo), src.len()),
                _ => {
                    for (t, &v) in src.iter().enumerate() {
                        *self.ptr.offset((first + t as i64 * stride) as isize) = v;
                    }
                }
            }
        }
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

/// Which trip executor ran the trips of one kernel loop entry. The
/// discriminant indexes the trip lanes of [`Samples::trips`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// Each op over a column of trips: no trip touches another's cells.
    Columns,
    /// Columns around one cell carried from trip to trip in a register.
    Carried,
}

/// Whether slot `s` *keeps off* the cells the stored slot `w` writes on other
/// trips — the four ways [`trips_are_independent`] lists.
fn keeps_off(slots: &[Slot], first: &[i64], last: &[i64], w: usize, s: usize) -> bool {
    let span = |i: usize| (first[i].min(last[i]), first[i].max(last[i]));
    let ((wlo, whi), (slo, shi)) = (span(w), span(s));
    let (dw, apart) = (slots[w].delta, first[s] - first[w]);
    slots[s].array != slots[w].array
        || shi < wlo
        || whi < slo
        || slots[s].delta == dw && dw != 0 && (apart == 0 || apart % dw != 0)
}

/// Decide from the address spans alone whether the trips of one loop entry
/// may run in columns: slot `i` is at offset `first[i]` on the first trip
/// and `last[i]` on the last, `slots[i].delta` apart from trip to trip.
///
/// True iff every *stored* slot `w` moves (`delta ≠ 0`) and every other slot
/// *keeps off* the cells `w` stores on other trips: it is on another array;
/// or covers a span disjoint from `w`'s; or moves by `w`'s delta from the
/// same first cell — it touches, on each trip, exactly the cell `w` stores
/// on that trip — or from one that is not a multiple of the delta away, so
/// that the two walks interleave and never meet. Then the cell a trip
/// stores is touched by no other trip, so running op by op over many trips
/// performs, on every cell, the same accesses in the same order as running
/// trip by trip.
pub fn trips_are_independent(slots: &[Slot], first: &[i64], last: &[i64]) -> bool {
    (0..slots.len()).all(|w| {
        !slots[w].stored
            || slots[w].delta != 0
                && (0..slots.len()).all(|s| s == w || keeps_off(slots, first, last, w, s))
    })
}

/// Decide from the address spans alone whether the trips of one loop entry
/// are independent but for *one* cell handed from each trip to the next,
/// and return the slot whose load reads it.
///
/// `Some` iff exactly one slot `w` is stored and the slots that do not keep
/// off `w`'s cells (as [`trips_are_independent`] has it) are: none, and `w`
/// stands still — every trip stores the cell the one before stored (a
/// reduction; the slot is `w` itself) — or, `w` moving, one read slot `c`
/// with `w`'s delta that is on each trip where `w` was on the trip before,
/// `first_w − first_c = delta` (a distance-1 recurrence; the slot is `c`;
/// the other way round, `c` reads what is yet to be stored and nothing is
/// handed on). Then a trip reads no cell another trip stores except through
/// that slot, where it reads what the trip before stored. Whether the body
/// loads the slot once and stores what it computes from it is for
/// [`TripKernel::carried`] to say.
pub fn carried_slot(slots: &[Slot], first: &[i64], last: &[i64]) -> Option<usize> {
    let mut stored = (0..slots.len()).filter(|&w| slots[w].stored);
    let (w, None) = (stored.next()?, stored.next()) else {
        return None;
    };
    let mut meets = (0..slots.len()).filter(|&s| s != w && !keeps_off(slots, first, last, w, s));
    match (slots[w].delta, meets.next(), meets.next()) {
        (0, None, _) => Some(w),
        (dw, Some(c), None) if dw != 0 => {
            (slots[c].delta == dw && first[w] - first[c] == dw).then_some(c)
        }
        _ => None,
    }
}

/// Index a kernel register or slot file. The lowering admits nothing past
/// the files ([`KERNEL_REGS`] = [`KERNEL_SLOTS`] = 8); the mask lets the
/// compiler drop the bounds check from the per-trip path.
#[inline(always)]
fn ix(i: impl Into<usize>) -> usize {
    const { assert!(KERNEL_REGS == 8 && KERNEL_SLOTS == 8) };
    i.into() & 7
}

/// Run all `trips` of a kernel loop whose register `var` holds the first
/// trip's value, leaving in it the last trip's — what the dispatcher's latch
/// leaves — and return the executor that ran them; `None`, with no trip run,
/// when the address spans allow neither and the trips are the dispatcher's.
fn run_trips(
    bp: &BoundProgram,
    k: &TripKernel,
    (var, step): (usize, i64),
    st: &mut VmState,
    buf: &SharedBuf<'_>,
    trips: u64,
) -> Option<Executor> {
    let reach = (trips - 1) as i64;
    let mut first = [0i64; KERNEL_SLOTS];
    let mut last = [0i64; KERNEL_SLOTS];
    for (i, s) in k.slots.iter().enumerate() {
        first[i] = addr(bp, s.acc, &st.iregs) as i64;
        let seg = &bp.arrays[s.array as usize];
        last[i] = reach
            .checked_mul(s.delta)
            .and_then(|d| first[i].checked_add(d))
            .filter(|l| (seg.base as i64..(seg.base + seg.len) as i64).contains(l))
            .expect("flat access outside its array segment");
    }
    let (first_n, last_n) = (&first[..k.slots.len()], &last[..k.slots.len()]);
    let carried = if trips_are_independent(&k.slots, first_n, last_n) {
        None
    } else {
        let c = carried_slot(&k.slots, first_n, last_n)?;
        Some(k.carried.iter().find(|split| ix(split.slot) == c)?)
    };
    // In columns: the whole body, or the ops around the carried load and
    // then, trip by trip, the chain from it to the store.
    let body = &bp.cp.code[k.body.0 as usize..k.body.1 as usize];
    let ops = carried.map_or(body, |c| &c.ops);
    let mut carry = carried.map_or(0.0, |c| buf.read(first[ix(c.slot)] as usize));
    let cols = st
        .cols
        .0
        .get_or_insert_with(|| Box::new([[0.0; COLUMN]; KERNEL_REGS]));
    let lo = st.iregs[var];
    // each slot's offset on the first trip of a block
    let mut at = first;
    for done in (0..trips).step_by(COLUMN) {
        let n = (trips - done).min(COLUMN as u64) as usize;
        st.iregs[var] = lo + done as i64 * step;
        for ((a, f), s) in at.iter_mut().zip(&first).zip(&k.slots) {
            *a = f + done as i64 * s.delta;
        }
        column_trips(k, ops, &bp.cp.rows, &st.iregs, buf, cols, &at, n);
        if let Some(c) = carried {
            carry = chain_trips(&c.chain, cols, c.out, n, carry);
            let delta = k.slots[ix(c.store)].delta;
            if delta != 0 {
                buf.scatter(&cols[ix(c.out)][..n], at[ix(c.store)], delta);
            }
        }
    }
    st.iregs[var] = lo + reach * step;
    Some(match carried {
        None => Executor::Columns,
        Some(c) => {
            // A reduction's cell takes the last trip's value, once.
            if k.slots[ix(c.store)].delta == 0 {
                buf.write(first[ix(c.store)] as usize, carry);
            }
            Executor::Carried
        }
    })
}

/// `dst ∘= rhs` over the first `n` trips of two distinct register columns.
#[inline(always)]
fn zip_columns(cols: &mut Columns, n: usize, dst: Reg, rhs: Reg, f: impl Fn(f64, f64) -> f64) {
    let [d, r] = cols
        .get_disjoint_mut([ix(dst), ix(rhs)])
        .expect("a kernel operator has distinct operands");
    for (x, y) in d[..n].iter_mut().zip(&r[..n]) {
        *x = f(*x, *y);
    }
}

/// `n ≤ COLUMN` consecutive trips of `ops` — kernel `k`'s body, or the part
/// of it around a carried load — op by op over register columns. `at` holds
/// each slot's offset on the first of them, the loop register its value on
/// the first of them.
#[allow(clippy::too_many_arguments)]
fn column_trips(
    k: &TripKernel,
    ops: &[Instr],
    rows: &[Row],
    iregs: &[i64],
    buf: &SharedBuf<'_>,
    cols: &mut Columns,
    at: &[i64; KERNEL_SLOTS],
    n: usize,
) {
    for op in ops {
        match *op {
            Instr::Const { dst, bits } => cols[ix(dst)][..n].fill(f64::from_bits(bits)),
            Instr::Idx { dst, row } => {
                let (num, delta) = (rows[row as usize].num(iregs), k.idx_delta(row));
                for (t, x) in cols[ix(dst)][..n].iter_mut().enumerate() {
                    *x = (num + t as i64 * delta) as f64;
                }
            }
            Instr::Load { dst, acc } => {
                let slot = ix(k.slot_of[acc as usize]);
                buf.gather(&mut cols[ix(dst)][..n], at[slot], k.slots[slot].delta)
            }
            Instr::Neg { dst } => cols[ix(dst)][..n].iter_mut().for_each(|x| *x = -*x),
            Instr::Sqrt { dst } => cols[ix(dst)][..n].iter_mut().for_each(|x| *x = x.sqrt()),
            Instr::Add { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x + y),
            Instr::Sub { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x - y),
            Instr::Mul { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x * y),
            Instr::Div { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x / y),
            Instr::Store { src, acc } => {
                let slot = ix(k.slot_of[acc as usize]);
                buf.scatter(&cols[ix(src)][..n], at[slot], k.slots[slot].delta)
            }
            Instr::Loop { .. } | Instr::Next { .. } | Instr::Guard { .. } => {
                unreachable!("a kernel body is straight-line")
            }
        }
    }
}

/// The chain of a carried kernel over `n ≤ COLUMN` consecutive trips, trip
/// by trip: `carry` enters as the value the trip before the first of them
/// handed on and returns as what the last hands on; column `out` receives
/// what each trip stores. A chain of one operator — the usual body, `cell ∘=
/// expression` — runs as a loop of its own over the operand column, the
/// carry in a machine register.
fn chain_trips(chain: &[Instr], cols: &mut Columns, out: Reg, n: usize, mut carry: f64) -> f64 {
    #[inline(always)]
    fn fold(col: &mut [f64], mut carry: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
        for x in col {
            carry = f(carry, *x);
            *x = carry;
        }
        carry
    }
    match *chain {
        [Instr::Add { dst: CARRY, rhs }] => fold(&mut cols[ix(rhs)][..n], carry, |c, x| c + x),
        [Instr::Sub { dst: CARRY, rhs }] => fold(&mut cols[ix(rhs)][..n], carry, |c, x| c - x),
        [Instr::Mul { dst: CARRY, rhs }] => fold(&mut cols[ix(rhs)][..n], carry, |c, x| c * x),
        [Instr::Div { dst: CARRY, rhs }] => fold(&mut cols[ix(rhs)][..n], carry, |c, x| c / x),
        [Instr::Add { dst, rhs: CARRY }] => fold(&mut cols[ix(dst)][..n], carry, |c, x| x + c),
        [Instr::Sub { dst, rhs: CARRY }] => fold(&mut cols[ix(dst)][..n], carry, |c, x| x - c),
        [Instr::Mul { dst, rhs: CARRY }] => fold(&mut cols[ix(dst)][..n], carry, |c, x| x * c),
        [Instr::Div { dst, rhs: CARRY }] => fold(&mut cols[ix(dst)][..n], carry, |c, x| x / c),
        _ => {
            // `t` is a trip: one entry of each column a chain op reads
            #[allow(clippy::needless_range_loop)]
            for t in 0..n {
                for op in chain {
                    // an operand: the carry so far, or a finished column's entry
                    let v = |r: Reg| if r == CARRY { carry } else { cols[ix(r)][t] };
                    carry = match *op {
                        Instr::Neg { .. } => -carry,
                        Instr::Sqrt { .. } => carry.sqrt(),
                        Instr::Add { dst, rhs } => v(dst) + v(rhs),
                        Instr::Sub { dst, rhs } => v(dst) - v(rhs),
                        Instr::Mul { dst, rhs } => v(dst) * v(rhs),
                        Instr::Div { dst, rhs } => v(dst) / v(rhs),
                        _ => unreachable!("a chain op is an operator"),
                    };
                }
                cols[ix(out)][t] = carry;
            }
            carry
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
        let mut counts = Samples::zeroed(bp.cp.code.len());
        exec_range_impl::<true>(bp, st, buf, start, end, &mut counts);
        crate::profile::record_loop_bodies(bp.cp, &counts);
        crate::profile::flush(bp.cp.id, &counts);
    } else {
        exec_range_impl::<false>(bp, st, buf, start, end, &mut Samples::default());
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
    counts: &mut Samples,
) {
    let code = &bp.cp.code;
    let rows = &bp.cp.rows;
    let mut instrs: u64 = 0;
    let mut instances: u64 = 0;
    // trips each executor ran, indexed by `Executor`, and trips of kernel
    // loops handed back to the dispatcher
    let (mut kernel_trips, mut handed_back) = ([0u64; 2], 0u64);
    let mut pc = start;
    while pc < end {
        instrs += 1;
        if PROFILE {
            counts.pcs[pc as usize] += 1;
        }
        match code[pc as usize] {
            Instr::Loop {
                var,
                lo,
                hi,
                step,
                exit,
            } => {
                let lo_v = eval_lo(rows, lo, &st.iregs);
                let hi_v = eval_hi(rows, hi, &st.iregs);
                let l = var as usize - st.nparams;
                if lo_v > hi_v {
                    pc = exit;
                } else {
                    st.iregs[var as usize] = lo_v;
                    st.his[l] = hi_v;
                    match &bp.kernels[l] {
                        None => pc += 1,
                        Some(k) => {
                            let trips = ((hi_v - lo_v) / step) as u64 + 1;
                            match run_trips(bp, k, (var as usize, step), st, buf, trips) {
                                // neither executor may run this entry: the
                                // body below does, trip by trip
                                None => {
                                    handed_back += trips;
                                    pc += 1;
                                }
                                // The header ran every trip and accounts
                                // for what the dispatcher would have
                                // executed: body and latch once per trip.
                                Some(mode) => {
                                    kernel_trips[mode as usize] += trips;
                                    instrs += trips * (exit - pc - 1) as u64;
                                    instances += trips * k.stores as u64;
                                    if PROFILE {
                                        counts.trips[pc as usize][mode as usize] += trips;
                                        for c in &mut counts.pcs[pc as usize + 1..exit as usize] {
                                            *c += trips;
                                        }
                                    }
                                    pc = exit;
                                }
                            }
                        }
                    }
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
            Instr::Neg { dst } => {
                st.fregs[dst as usize] = -st.fregs[dst as usize];
                pc += 1;
            }
            Instr::Sqrt { dst } => {
                st.fregs[dst as usize] = st.fregs[dst as usize].sqrt();
                pc += 1;
            }
            Instr::Add { dst, rhs } => {
                st.fregs[dst as usize] += st.fregs[rhs as usize];
                pc += 1;
            }
            Instr::Sub { dst, rhs } => {
                st.fregs[dst as usize] -= st.fregs[rhs as usize];
                pc += 1;
            }
            Instr::Mul { dst, rhs } => {
                st.fregs[dst as usize] *= st.fregs[rhs as usize];
                pc += 1;
            }
            Instr::Div { dst, rhs } => {
                st.fregs[dst as usize] /= st.fregs[rhs as usize];
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
    let [columns, carried] = kernel_trips;
    if columns > 0 {
        inl_obs::counter_add!("vm.trips.columns", columns);
    }
    if carried > 0 {
        inl_obs::counter_add!("vm.trips.carried", carried);
    }
    if handed_back > 0 {
        inl_obs::counter_add!("vm.trips.dispatch", handed_back);
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
