//! # inl-vm
//!
//! A compiling bytecode VM for executing transformed loop nests — the
//! framework's second execution backend, next to the tree-walking
//! interpreter in `inl-exec`.
//!
//! The interpreter pays, per statement instance: a closure-based variable
//! lookup, exact-`Rational` affine evaluation, and a heap-allocated
//! `Vec<usize>` per array access. That overhead drowns out the locality
//! effects the paper's E7 experiment exists to measure. `inl-vm` pre-lowers
//! all of it at compile time:
//!
//! * affine bounds, guards, and subscripts → integer **coefficient rows**
//!   over a flat register file (parameters + loop variables);
//! * multi-dimensional array accesses → a precomputed **offset row**
//!   (strides folded into the coefficients) into the array's own row-major
//!   `f64` slice — the caller's storage, run in place;
//! * expressions → stack-free **two-address code** over `f64` value
//!   registers (an operator overwrites its left operand);
//! * loops → `Loop`/`Next` header/latch instructions with explicit jump
//!   targets;
//! * innermost loops with a straight-line body → **trip kernels**
//!   ([`bytecode::TripKernel`]): the header runs all the loop's trips
//!   itself over the same body ops, each access's flat offset stepped by a
//!   fixed delta instead of re-derived, a whole column of trips per
//!   dispatch, when no trip touches a cell another trip stores — or only
//!   the one cell each trip hands to the next, which then rides in a
//!   register.
//!
//! The per-instance hot path is integer multiply-adds and indexed loads —
//! zero allocation, zero hashing — and, inside a kernel, not even a
//! dispatch per instruction.
//!
//! ## Two-stage lowering
//!
//! [`compile()`](compile()) produces a [`CompiledProgram`] that is still *symbolic* in
//! the program parameters (array extents are affine in `N`).
//! [`CompiledProgram::bind`] fixes parameter values: it computes each
//! array's extents and length (row-major, `ArrayId` order — the order the
//! `inl-exec` `Machine` allocates them) and lowers every access to a
//! [`bytecode::FlatAcc`], an offset within the array it names.
//! [`run()`](run()) then executes in place on one `&mut [f64]` per array.
//!
//! ```
//! use inl_ir::zoo;
//!
//! let p = zoo::simple_cholesky();
//! let cp = inl_vm::compile(&p);
//! let bp = cp.bind(&[2]);                 // N = 2
//! let mut a = vec![16.0; bp.arrays[0].len]; // A, extent N+1
//! inl_vm::run(&bp, &mut [&mut a[..]]);
//! assert_eq!(a[1], 4.0); // sqrt(16)
//! assert_eq!(a[2], 2.0); // sqrt(16/4)
//! ```
//!
//! ## Equivalence discipline
//!
//! The VM is **bitwise-identical** to the interpreter by construction:
//! the same f64 operations in the same order, guards as integer sign
//! tests on the same numerators, and [`bytecode::Instr::Idx`] replicating
//! the interpreter's reduce-then-divide rational semantics. The
//! differential tests in the workspace root assert this over every zoo
//! program and randomly transformed variants.
//!
//! ## Innermost-loop kernels
//!
//! Where most of the time goes is the innermost loop, and there the
//! dispatcher pays one dispatch per instruction per trip and a from-scratch
//! address per access. [`CompiledProgram::bind`] therefore lowers every
//! innermost loop whose body is straight-line — no guard, flat accesses and
//! divisor-1 index rows only, at most [`bytecode::KERNEL_REGS`] value
//! registers and [`bytecode::KERNEL_SLOTS`] distinct accesses — to a
//! [`bytecode::TripKernel`]: the loop's own body range and a slot table,
//! no second encoding of the ops. The loop's header ([`mod@run`]) proves
//! the first and the last trip's offsets inside their array segments
//! (affine in between), then runs the trips in *columns* of up to
//! [`run::COLUMN`] when the address spans show that no trip touches a cell
//! another trip stores ([`run::trips_are_independent`]), or *carried* when
//! the only such cell is one that each trip hands to the next — a
//! reduction's accumulator, a distance-1 recurrence ([`run::carried_slot`],
//! and [`bytecode::CarriedKernel`] for the half the body fixes): columns
//! for the ops that never see it, then one pass over them with the cell in
//! a register. An entry that allows neither is handed back to the
//! dispatcher. That header makes every entry of a kernel, one each time the
//! dispatcher reaches it. Counters and profile are credited the
//! dispatcher's closed form, so they do not depend on the executor; every
//! other loop, and every statement outside an innermost loop, stays on the
//! dispatcher. There is nothing to
//! configure, and the interpreter is the oracle for all of it
//! (`tests/trip_kernels.rs`). The kernel — slots with first offset and
//! stride, straight-line two-address ops — is also the lowered form a
//! native-code printer would print.
//!
//! ## Parallel execution
//!
//! A loop the IR marks `parallel` — §7's DOALL, certified by the dependence
//! framework — keeps the mark in its [`bytecode::LoopMeta`].
//! [`run_threads`] runs the program as [`run()`] does, except that above one
//! thread such a loop's header fans its trips out itself: two or more trips
//! go in chunks of `ceil(trips / threads)` to scoped workers, each a cloned
//! [`VmState`] that dispatches the body range once per trip, on one thread,
//! against the [`SharedBuf`] — one pointer and length per array — that all
//! of them share; a single trip runs inline. The fan-out is counted as a
//! one-thread run counts it (the header once, the body and the latch once
//! per trip), under an `exec.par.wavefront` span per entry and an
//! `exec.par.chunk` span per worker; `exec.par.wavefronts` counts the
//! entries. Above one thread a marked loop's trips never run in a trip
//! kernel.
//!
//! ## Telemetry
//!
//! Compilation runs under an `inl-obs` `vm.compile` span; execution
//! batches the `vm.instrs` / `vm.instances` counters, and the trips each
//! kernel executor ran (`vm.trips.columns` / `vm.trips.carried`; a kernel
//! header's trips handed back to the dispatcher count under
//! `vm.trips.dispatch`), locally and flushes once per [`exec_range`] or
//! [`run_threads`] call — a fan-out's workers add theirs to it when joined.
//! [`run_profiled`] is [`run()`] that also counts executions per instruction
//! address and returns the counts, [`profile::Samples`], from which the
//! [`profile`] module derives hot opcode/statement/loop tables — the loop
//! table says which executor ran each loop. A profile is a value of the run
//! that made it: nothing is switched on, and nothing is kept.

pub mod bytecode;
pub mod compile;
pub mod profile;
pub mod run;

pub use bytecode::{BoundProgram, CompiledProgram, GuardKind, Instr, Opcode, Row};
pub use compile::compile;
pub use run::{exec_range, run, run_profiled, run_threads, SharedBuf, VmState};

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::{zoo, Aff, Expr, Guard, ProgramBuilder};

    /// Fresh arrays filled with `init(array_name, multi_index)`, mirroring
    /// `Machine::new`'s initialisation contract.
    fn init_buf(bp: &BoundProgram, init: &dyn Fn(&str, &[usize]) -> f64) -> Vec<Vec<f64>> {
        let fill = |a: &bytecode::ArrayLayout| {
            let mut idx = vec![0usize; a.dims.len()];
            (0..a.len)
                .map(|i| {
                    let mut rem = i;
                    for (d, &ext) in a.dims.iter().enumerate().rev() {
                        idx[d] = rem % ext;
                        rem /= ext;
                    }
                    init(&a.name, &idx)
                })
                .collect()
        };
        bp.arrays.iter().map(fill).collect()
    }

    /// Run the whole program in place on `arrays`.
    fn run_on(bp: &BoundProgram, arrays: &mut [Vec<f64>]) {
        let mut slices: Vec<&mut [f64]> = arrays.iter_mut().map(Vec::as_mut_slice).collect();
        run(bp, &mut slices);
    }

    /// Read one cell of `name` at a multi-index.
    fn cell(bp: &BoundProgram, buf: &[Vec<f64>], name: &str, idx: &[usize]) -> f64 {
        let i = bp.arrays.iter().position(|a| a.name == name).unwrap();
        let a = &bp.arrays[i];
        assert_eq!(idx.len(), a.dims.len());
        let mut off = 0;
        for (d, &i) in idx.iter().enumerate() {
            assert!(i < a.dims[d]);
            off = off * a.dims[d] + i;
        }
        buf[i][off]
    }

    #[test]
    fn simple_cholesky_computes() {
        let p = zoo::simple_cholesky();
        let cp = compile(&p);
        // N = 1: A(1) = sqrt(A(1)); no inner iterations
        let bp = cp.bind(&[1]);
        let mut buf = init_buf(&bp, &|_, _| 16.0);
        run_on(&bp, &mut buf);
        assert_eq!(cell(&bp, &buf, "A", &[1]), 4.0);
        // N = 2: A(1)=sqrt(A(1)); A(2)=A(2)/A(1); A(2)=sqrt(A(2))
        let bp = cp.bind(&[2]);
        let mut buf = init_buf(&bp, &|_, _| 16.0);
        run_on(&bp, &mut buf);
        assert_eq!(cell(&bp, &buf, "A", &[1]), 4.0);
        assert_eq!(cell(&bp, &buf, "A", &[2]), 2.0); // sqrt(16/4)
    }

    #[test]
    fn wavefront_values() {
        let p = zoo::wavefront();
        let cp = compile(&p);
        let bp = cp.bind(&[3]);
        let mut buf = init_buf(&bp, &|_, idx| {
            if idx[0] == 0 || idx[1] == 0 {
                1.0
            } else {
                0.0
            }
        });
        run_on(&bp, &mut buf);
        assert_eq!(cell(&bp, &buf, "A", &[1, 1]), 2.0);
        assert_eq!(cell(&bp, &buf, "A", &[2, 1]), 3.0);
        assert_eq!(cell(&bp, &buf, "A", &[2, 2]), 6.0);
        assert_eq!(cell(&bp, &buf, "A", &[3, 3]), 20.0);
    }

    #[test]
    fn guards_filter_instances() {
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
        let cp = compile(&p);
        let bp = cp.bind(&[5]);
        let mut buf = init_buf(&bp, &|_, _| 0.0);
        run_on(&bp, &mut buf);
        assert_eq!(buf[0], [0.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_ranges_execute_nothing() {
        let p = zoo::perfect_nest();
        let cp = compile(&p);
        // N = 1: inner loop J = 2..1 is empty
        let bp = cp.bind(&[1]);
        let mut buf = init_buf(&bp, &|_, _| 7.0);
        run_on(&bp, &mut buf);
        assert_eq!(buf[0], [7.0, 7.0]);
    }

    #[test]
    fn instance_counters_match_instance_count() {
        let p = zoo::simple_cholesky();
        let cp = compile(&p);
        let bp = cp.bind(&[4]);
        let mut buf = init_buf(&bp, &|_, _| 9.0);
        // A thread-local capture, not the process-global registry: the
        // other tests of this binary run the VM on their own threads at
        // the same time and would bump a global `vm.instances` too.
        let ((), seen) = inl_obs::capture::with(|| run_on(&bp, &mut buf));
        // N=4: S1 runs 4 times; S2 runs 3+2+1 = 6 times
        assert_eq!(seen.counters.get("vm.instances"), Some(&10));
        assert!(seen.counters["vm.instrs"] >= 10);
    }

    #[test]
    fn disasm_mentions_structure() {
        let p = zoo::simple_cholesky();
        let cp = compile(&p);
        let d = cp.disasm(&p);
        assert!(d.contains("loop I"));
        assert!(d.contains("loop J"));
        assert!(d.contains("store"));
        assert!(d.contains("sqrt"));
    }

    #[test]
    #[should_panic(expected = "array X: extents [4294967296, 4294967296] overflow usize")]
    fn bind_names_the_array_whose_cell_count_overflows() {
        let mut b = ProgramBuilder::new("huge");
        let n = b.param("N");
        b.array("X", &[Aff::param(n), Aff::param(n)]);
        compile(&b.finish()).bind(&[1 << 32]);
    }

    #[test]
    fn flat_accesses_merge_strides() {
        // Every zoo access has divisor-1 subscripts → all lower to Flat.
        let p = zoo::matmul();
        let cp = compile(&p);
        let bp = cp.bind(&[4]);
        assert!(bp
            .accs
            .iter()
            .all(|a| matches!(a, bytecode::FlatAcc::Flat { .. })));
    }
}
