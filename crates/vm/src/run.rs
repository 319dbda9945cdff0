//! The virtual machine: a flat dispatch loop over bound bytecode, and two
//! trip executors that run the same body ops for the innermost loops
//! binding lowered to a [`TripKernel`].
//!
//! The VM runs in the caller's own arrays, one slice each ([`SharedBuf`]):
//! an access is an offset within the array it names, checked against that
//! array's real length, and nothing is copied in or out. On the dispatcher
//! the per-instance path is integer dot products (tiny sparse rows),
//! indexed `f64` loads/stores, and two-address arithmetic — no allocation,
//! no hashing, no rationals (except the exact [`Instr::Idx`] slow path,
//! which replicates the interpreter's rational semantics bit-for-bit).
//!
//! # Trip kernels
//!
//! The `Loop` header of a kernel loop, the one way into a trip kernel, can
//! run all the loop's trips itself and jump to its exit. At entry it
//! resolves every slot's first offset and asserts it and the *last* trip's
//! offset inside the slot's array: an offset is affine in the trip, so every
//! trip between lies between, and a guard-free body performs every access on
//! every trip, so nothing is checked that would not have run — and nothing
//! is checked again, op by op, while the trips run. It then picks an
//! [`Executor`] from the address spans alone ([`trips_are_independent`],
//! [`carried_slot`]):
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
//! # Parallel loops
//!
//! Above one thread ([`run_threads`]), the header of a loop marked
//! `parallel` — one whose trips the dependence framework certified
//! independent — comes before the kernel header above. Two or more trips it
//! splits into chunks of `ceil(trips / threads)` on scoped workers, each a
//! clone of the state that dispatches the body range once per trip on one
//! thread over the same [`SharedBuf`]; a single trip it runs inline. It credits what a
//! one-thread run counts and leaves the register and bound slot as the
//! latch leaves them. Such a loop's trips never enter a trip kernel.

use crate::bytecode::{
    eval_hi, eval_lo, BoundProgram, FlatAcc, GuardKind, IReg, Instr, LoopMeta, Pc, Reg, Row, Slot,
    TripKernel, CARRY, KERNEL_REGS, KERNEL_SLOTS,
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
/// outlives a loop entry, and a parallel loop's header clones a state per
/// chunk per entry.
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
/// program — a parallel loop's header clones one per worker.
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

/// A shared view of a program's arrays — the caller's storage, one slice
/// per array — that many VM activations may read and write concurrently.
///
/// # Safety
/// Bounds are checked against each array's length, but *aliasing* is the
/// caller's contract: concurrent writers must target disjoint cells. The
/// only concurrent writers are the workers of a `parallel`-marked loop, and
/// the mark is the dependence framework's certificate of exactly that.
pub struct SharedBuf<'a> {
    /// Each array's first cell and length, in `ArrayId` order.
    arrays: Box<[(*mut f64, usize)]>,
    _marker: PhantomData<&'a mut [f64]>,
}

// SAFETY: `arrays` points into slices borrowed exclusively for `'a`, and
// every access is checked against its array's length (or, in a kernel entry,
// proved inside before it runs); which thread touches which cell is the
// aliasing contract above.
unsafe impl Send for SharedBuf<'_> {}
// SAFETY: as for `Send`: `&SharedBuf` only reads and writes `f64` cells.
unsafe impl Sync for SharedBuf<'_> {}

impl<'a> SharedBuf<'a> {
    /// Share `arrays`, one slice per array in `ArrayId` order, for the
    /// duration of their borrow.
    pub fn new(arrays: &'a mut [&mut [f64]]) -> Self {
        SharedBuf {
            arrays: arrays
                .iter_mut()
                .map(|a| (a.as_mut_ptr(), a.len()))
                .collect(),
            _marker: PhantomData,
        }
    }

    /// Assert one slice per array of `bp`, each of its layout's length.
    fn check(&self, bp: &BoundProgram) {
        let lens = self.arrays.iter().map(|a| a.1);
        assert!(
            lens.eq(bp.arrays.iter().map(|a| a.len)),
            "buffer/layout length mismatch"
        );
    }

    /// Cells in `array`.
    #[inline]
    fn len(&self, array: u32) -> usize {
        self.arrays[array as usize].1
    }

    /// The cell at `offset` in `array`, after asserting it inside.
    #[inline]
    fn cell(&self, array: u32, offset: usize) -> *mut f64 {
        let (first, len) = self.arrays[array as usize];
        assert!(offset < len, "flat access outside its array segment");
        // SAFETY: inside the array, which `'a` borrows.
        unsafe { first.add(offset) }
    }

    #[inline]
    fn read(&self, array: u32, offset: usize) -> f64 {
        // SAFETY: `cell` asserted the cell inside its array.
        unsafe { *self.cell(array, offset) }
    }

    #[inline]
    fn write(&self, array: u32, offset: usize, v: f64) {
        // SAFETY: `cell` asserted the cell inside its array.
        unsafe { *self.cell(array, offset) = v }
    }

    /// Read one cell of `array` per element of `out`, `stride` cells apart
    /// from `first`.
    ///
    /// # Safety
    /// Those cells are inside the array: the entry's header proved its first
    /// and last trip's offsets, and an affine offset stays between them.
    #[inline]
    unsafe fn gather(&self, array: u32, out: &mut [f64], first: i64, stride: i64) {
        let at = self.arrays[array as usize].0.offset(first as isize);
        // `out` is a register column, never part of an array.
        match stride {
            0 => out.fill(*at),
            1 => std::ptr::copy_nonoverlapping(at, out.as_mut_ptr(), out.len()),
            _ => {
                for (t, o) in out.iter_mut().enumerate() {
                    *o = *at.offset(t as isize * stride as isize);
                }
            }
        }
    }

    /// Write one cell of `array` per element of `src`, `stride` cells apart
    /// from `first`.
    ///
    /// # Safety
    /// As for [`SharedBuf::gather`].
    #[inline]
    unsafe fn scatter(&self, array: u32, src: &[f64], first: i64, stride: i64) {
        let at = self.arrays[array as usize].0.offset(first as isize);
        match stride {
            1 => std::ptr::copy_nonoverlapping(src.as_ptr(), at, src.len()),
            _ => {
                for (t, &v) in src.iter().enumerate() {
                    *at.offset(t as isize * stride as isize) = v;
                }
            }
        }
    }
}

/// The value of an offset row at the current register file.
#[inline]
fn offset(terms: &[(IReg, i64)], konst: i64, iregs: &[i64]) -> i64 {
    let mut off = konst;
    for &(r, c) in terms {
        off += c * iregs[r as usize];
    }
    off
}

/// Resolve a bound access to its array and the offset within it at the
/// current register file. Fast path: one merged row, checked against the
/// array's length where the cell is read or written (a negative offset
/// wraps past any length). Slow path (divisor subscripts): per-dimension
/// exact-divisibility and bounds checks, mirroring the interpreter.
#[inline]
fn addr(bp: &BoundProgram, acc: u32, iregs: &[i64]) -> (u32, usize) {
    match &bp.accs[acc as usize] {
        FlatAcc::Flat {
            terms,
            konst,
            array,
        } => (*array, offset(terms, *konst, iregs) as usize),
        FlatAcc::Dims { dims, array } => {
            let mut off = 0;
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
            (*array, off)
        }
    }
}

/// A kernel slot's offset at the current register file.
#[inline]
fn slot_offset(bp: &BoundProgram, s: &Slot, iregs: &[i64]) -> i64 {
    match &bp.accs[s.acc as usize] {
        FlatAcc::Flat { terms, konst, .. } => offset(terms, *konst, iregs),
        FlatAcc::Dims { .. } => unreachable!("a kernel's accesses are flat"),
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

/// What a dispatch has run, flushed to the counters once per
/// [`exec_range`], [`run_threads`] or [`run_profiled`].
#[derive(Default)]
struct Tally {
    instrs: u64,
    instances: u64,
    /// Trips each executor ran, indexed by [`Executor`].
    kernel_trips: [u64; 2],
    /// Trips of kernel loops handed back to the dispatcher.
    handed_back: u64,
    /// Executions per instruction address, when profiling (empty
    /// otherwise).
    samples: Samples,
}

impl Tally {
    /// Add what a worker's unprofiled dispatch ran.
    fn absorb(&mut self, w: &Tally) {
        self.instrs += w.instrs;
        self.instances += w.instances;
        self.kernel_trips[0] += w.kernel_trips[0];
        self.kernel_trips[1] += w.kernel_trips[1];
        self.handed_back += w.handed_back;
    }

    fn flush(&self) {
        if self.instrs > 0 {
            inl_obs::counter_add!("vm.instrs", self.instrs);
        }
        if self.instances > 0 {
            inl_obs::counter_add!("vm.instances", self.instances);
        }
        let [columns, carried] = self.kernel_trips;
        if columns > 0 {
            inl_obs::counter_add!("vm.trips.columns", columns);
        }
        if carried > 0 {
            inl_obs::counter_add!("vm.trips.carried", carried);
        }
        if self.handed_back > 0 {
            inl_obs::counter_add!("vm.trips.dispatch", self.handed_back);
        }
    }
}

/// Enter kernel loop `meta` for `trips` trips, its register holding the
/// first trip's value and slot `i` at `first[i]`. Asserts every slot's first
/// and last offset inside its array before any trip runs — the proof every
/// gather and scatter of the entry relies on — then picks the executor from
/// the address spans. True when it ran the trips, leaving in the register
/// the last trip's value — what the dispatcher's latch leaves — and
/// crediting what the dispatcher would have executed, body and latch once
/// per trip; false, with no trip run, when the spans allow neither executor
/// and the trips are the dispatcher's.
#[allow(clippy::too_many_arguments)]
fn enter<const PROFILE: bool>(
    bp: &BoundProgram,
    k: &TripKernel,
    meta: &LoopMeta,
    first: [i64; KERNEL_SLOTS],
    trips: u64,
    st: &mut VmState,
    buf: &SharedBuf<'_>,
    tally: &mut Tally,
) -> bool {
    let reach = (trips - 1) as i64;
    let mut last = [0i64; KERNEL_SLOTS];
    for (i, s) in k.slots.iter().enumerate() {
        let inside = 0..buf.len(s.array) as i64;
        last[i] = reach
            .checked_mul(s.delta)
            .and_then(|d| first[i].checked_add(d))
            .filter(|l| inside.contains(l) && inside.contains(&first[i]))
            .expect("flat access outside its array segment");
    }
    let (first_n, last_n) = (&first[..k.slots.len()], &last[..k.slots.len()]);
    let carried = if trips_are_independent(&k.slots, first_n, last_n) {
        None
    } else {
        let c = carried_slot(&k.slots, first_n, last_n);
        match c.and_then(|c| k.carried.iter().find(|split| ix(split.slot) == c)) {
            Some(split) => Some(split),
            None => {
                tally.handed_back += trips;
                return false;
            }
        }
    };
    // In columns: the whole body, or the ops around the carried load and
    // then, trip by trip, the chain from it to the store.
    let body = &bp.cp.code[k.body.0 as usize..k.body.1 as usize];
    let ops = carried.map_or(body, |c| &c.ops);
    let carry_at = |slot: u8| (k.slots[ix(slot)].array, first[ix(slot)] as usize);
    let mut carry = carried.map_or(0.0, |c| {
        let (array, offset) = carry_at(c.slot);
        buf.read(array, offset)
    });
    let cols = st
        .cols
        .0
        .get_or_insert_with(|| Box::new([[0.0; COLUMN]; KERNEL_REGS]));
    let (var, step) = (meta.var as usize, meta.step);
    let lo = st.iregs[var];
    // each slot's offset on the first trip of a block
    let mut at = first;
    for done in (0..trips).step_by(COLUMN) {
        let n = (trips - done).min(COLUMN as u64) as usize;
        st.iregs[var] = lo + done as i64 * step;
        for ((a, f), s) in at.iter_mut().zip(&first).zip(&k.slots) {
            *a = f + done as i64 * s.delta;
        }
        // SAFETY: the `n` trips from `at` lie between `first` and `last`,
        // asserted inside their arrays above.
        unsafe {
            column_trips(k, ops, &bp.cp.rows, &st.iregs, buf, cols, &at, n);
            if let Some(c) = carried {
                carry = chain_trips(&c.chain, cols, c.out, n, carry);
                let s = &k.slots[ix(c.store)];
                if s.delta != 0 {
                    buf.scatter(s.array, &cols[ix(c.out)][..n], at[ix(c.store)], s.delta);
                }
            }
        }
    }
    st.iregs[var] = lo + reach * step;
    let mode = match carried {
        None => Executor::Columns,
        Some(c) => {
            // A reduction's cell takes the last trip's value, once.
            if k.slots[ix(c.store)].delta == 0 {
                let (array, offset) = carry_at(c.store);
                buf.write(array, offset, carry);
            }
            Executor::Carried
        }
    };
    let (header, exit) = (meta.header as usize, meta.exit as usize);
    tally.kernel_trips[mode as usize] += trips;
    tally.instrs += trips * (exit - header - 1) as u64;
    tally.instances += trips * k.stores as u64;
    if PROFILE {
        tally.samples.trips[header][mode as usize] += trips;
        for c in &mut tally.samples.pcs[header + 1..exit] {
            *c += trips;
        }
    }
    true
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

/// `1 ≤ n ≤ COLUMN` consecutive trips of `ops` — kernel `k`'s body, or the
/// part of it around a carried load — op by op over register columns. `at`
/// holds each slot's offset on the first of them, the loop register its
/// value on the first of them.
///
/// # Safety
/// Every slot's `n` cells from `at` are inside its array.
#[allow(clippy::too_many_arguments)]
unsafe fn column_trips(
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
                let s = &k.slots[slot];
                buf.gather(s.array, &mut cols[ix(dst)][..n], at[slot], s.delta)
            }
            Instr::Neg { dst } => cols[ix(dst)][..n].iter_mut().for_each(|x| *x = -*x),
            Instr::Sqrt { dst } => cols[ix(dst)][..n].iter_mut().for_each(|x| *x = x.sqrt()),
            Instr::Add { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x + y),
            Instr::Sub { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x - y),
            Instr::Mul { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x * y),
            Instr::Div { dst, rhs } => zip_columns(cols, n, dst, rhs, |x, y| x / y),
            Instr::Store { src, acc } => {
                let slot = ix(k.slot_of[acc as usize]);
                let s = &k.slots[slot];
                buf.scatter(s.array, &cols[ix(src)][..n], at[slot], s.delta)
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

/// Run the `trips ≥ 2` trips of `parallel`-marked loop `meta`, whose
/// register holds the first trip's value, in chunks of `ceil(trips /
/// threads)` on scoped workers: each a clone of `st` that dispatches the
/// body range once per trip, on one thread, into a tally of its own, added
/// to `tally` when it is joined. Credits the latch once per trip — the
/// header is already counted — and leaves in the register the last trip's
/// value, as the latch does.
fn fan_out(
    bp: &BoundProgram,
    meta: &LoopMeta,
    trips: u64,
    threads: usize,
    st: &mut VmState,
    buf: &SharedBuf<'_>,
    tally: &mut Tally,
) {
    inl_obs::counter_add!("exec.par.wavefronts", 1);
    let _wavefront = inl_obs::span_args(
        "exec.par.wavefront",
        &[("iters", trips as i64), ("threads", threads as i64)],
    );
    let (var, step, (start, end)) = (meta.var as usize, meta.step, meta.body);
    let lo = st.iregs[var];
    let chunk = trips.div_ceil(threads as u64);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..trips)
            .step_by(chunk as usize)
            .map(|first| {
                let (ch_lo, count) = (lo + first as i64 * step, chunk.min(trips - first));
                let ch_hi = ch_lo + (count - 1) as i64 * step;
                // A clone copies the registers only (the column scratch is
                // per state and allocated on first use).
                let mut wst = st.clone();
                scope.spawn(move || {
                    let _chunk =
                        inl_obs::span_args("exec.par.chunk", &[("lo", ch_lo), ("hi", ch_hi)]);
                    let mut own = Tally::default();
                    for t in 0..count as i64 {
                        wst.iregs[var] = ch_lo + t * step;
                        dispatch::<false>(bp, &mut wst, buf, start, end, &mut own, 1);
                    }
                    own
                })
            })
            .collect();
        for w in workers {
            let own = w.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            tally.absorb(&own);
        }
    });
    st.iregs[var] = lo + (trips - 1) as i64 * step;
    tally.instrs += trips;
}

/// Execute instructions `[start, end)` on one thread against a state and
/// one slice per array (asserted once per call: one per array, each of its
/// layout's length).
///
/// The `vm.instrs` / `vm.instances` counters are accumulated locally and
/// flushed **once** on return (batched far coarser than per innermost
/// trip), so telemetry costs nothing on the per-instance path.
pub fn exec_range(bp: &BoundProgram, st: &mut VmState, buf: &SharedBuf<'_>, start: Pc, end: Pc) {
    buf.check(bp);
    let mut tally = Tally::default();
    dispatch::<false>(bp, st, buf, start, end, &mut tally, 1);
    tally.flush();
}

/// The dispatch loop, monomorphised over profiling so the per-pc counting
/// costs nothing when off. Above one `threads`, an unprofiled dispatch runs
/// the trips of `parallel`-marked loops across workers ([`fan_out`]).
fn dispatch<const PROFILE: bool>(
    bp: &BoundProgram,
    st: &mut VmState,
    buf: &SharedBuf<'_>,
    start: Pc,
    end: Pc,
    tally: &mut Tally,
    threads: usize,
) {
    let code = &bp.cp.code;
    let rows = &bp.cp.rows;
    let mut pc = start;
    while pc < end {
        tally.instrs += 1;
        if PROFILE {
            tally.samples.pcs[pc as usize] += 1;
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
                    let trips = ((hi_v - lo_v) / step) as u64 + 1;
                    let meta = || bp.cp.loops[l].as_ref().expect("an attached loop");
                    pc = if !PROFILE && threads > 1 && meta().parallel {
                        if trips > 1 {
                            fan_out(bp, meta(), trips, threads, st, buf, tally);
                            exit
                        } else {
                            // one trip: the body below, inline
                            pc + 1
                        }
                    } else if let Some(k) = &bp.kernels[l] {
                        let mut first = [0i64; KERNEL_SLOTS];
                        for (f, s) in first.iter_mut().zip(&k.slots) {
                            *f = slot_offset(bp, s, &st.iregs);
                        }
                        match enter::<PROFILE>(bp, k, meta(), first, trips, st, buf, tally) {
                            true => exit,
                            // neither executor may run this entry: the body
                            // below does, trip by trip
                            false => pc + 1,
                        }
                    } else {
                        pc + 1
                    };
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
                let (array, offset) = addr(bp, acc, &st.iregs);
                st.fregs[dst as usize] = buf.read(array, offset);
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
                tally.instances += 1;
                let (array, offset) = addr(bp, acc, &st.iregs);
                buf.write(array, offset, st.fregs[src as usize]);
                pc += 1;
            }
        }
    }
}

/// Execute the whole program in place on `arrays`: one slice per array, in
/// `ArrayId` order, each of its layout's length (asserted). One thread:
/// [`run_threads`] with `1`.
pub fn run(bp: &BoundProgram, arrays: &mut [&mut [f64]]) {
    run_threads(bp, arrays, 1);
}

/// [`run`] with up to `threads` workers per entry of a `parallel`-marked
/// loop (`0`: one per core). Every other loop, and a marked loop at one
/// thread, runs as [`run`] runs it; the counters are credited the same.
///
/// Trusts the marks: distinct trips of a marked loop must not write a cell
/// another trip reads or writes — what the dependence framework certifies.
/// Running a loop wrongly marked is a data race.
pub fn run_threads(bp: &BoundProgram, arrays: &mut [&mut [f64]], threads: usize) {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let buf = SharedBuf::new(arrays);
    buf.check(bp);
    let mut tally = Tally::default();
    let end = bp.cp.code.len() as Pc;
    dispatch::<false>(bp, &mut bp.new_state(), &buf, 0, end, &mut tally, threads);
    tally.flush();
}

/// [`run`], counting as it goes how often each instruction executed and
/// how many trips each trip executor ran, and return those counts: the
/// input of every [`crate::profile`] view. The counters are flushed as
/// [`run`] flushes them; the samples belong to this run alone.
pub fn run_profiled(bp: &BoundProgram, arrays: &mut [&mut [f64]]) -> Samples {
    let buf = SharedBuf::new(arrays);
    buf.check(bp);
    let mut tally = Tally {
        samples: Samples::zeroed(bp.cp.code.len()),
        ..Tally::default()
    };
    let end = bp.cp.code.len() as Pc;
    dispatch::<true>(bp, &mut bp.new_state(), &buf, 0, end, &mut tally, 1);
    tally.flush();
    tally.samples
}
