//! Backend selection: the tree-walking [`Interpreter`] vs the compiling
//! bytecode VM (`inl-vm`).
//!
//! Both backends are bitwise-identical on legal programs — the VM performs
//! the same `f64` operations in the same order — so callers pick purely on
//! speed/debuggability grounds: the interpreter is the readable ground
//! truth, the VM is the fast path for benchmarking real problem sizes.
//!
//! The glue lives here rather than in `inl-vm` because the VM executes on
//! one `f64` slice per array and knows nothing of [`Machine`]; [`VmRunner`]
//! checks that the machine's arrays are the program's (count, names and
//! extents, in the `ArrayId` order both sides use) and hands their storage
//! to the bytecode, which runs in it in place — nothing is copied.

use crate::interp::Interpreter;
use crate::machine::{ArrayData, Machine};
use inl_ir::Program;
use inl_vm::bytecode::ArrayLayout;
use inl_vm::profile::Samples;
use inl_vm::{BoundProgram, CompiledProgram};

/// Which execution engine to run a program on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The reference tree-walking interpreter.
    #[default]
    Interp,
    /// The compiling bytecode VM.
    Vm,
}

impl Backend {
    /// Execute `p` on `m` with this backend. The VM path compiles on every
    /// call — to amortize compilation over many runs, hold a [`VmRunner`].
    ///
    /// ```
    /// use inl_exec::{Backend, Machine};
    ///
    /// let p = inl_ir::zoo::simple_cholesky();
    /// let mut a = Machine::new(&p, &[2], &|_, _| 16.0);
    /// let mut b = Machine::new(&p, &[2], &|_, _| 16.0);
    /// Backend::Interp.run(&p, &mut a);
    /// Backend::Vm.run(&p, &mut b);
    /// // Both backends are bitwise identical.
    /// assert_eq!(a.arrays()[0].data, b.arrays()[0].data);
    /// ```
    pub fn run(self, p: &Program, m: &mut Machine) {
        match self {
            Backend::Interp => Interpreter::new(p).run(m),
            Backend::Vm => VmRunner::new(p).run(m),
        }
    }
}

/// A program compiled once for the VM backend, runnable many times (the
/// `compile once, execute per parameter binding` shape the benches use).
pub struct VmRunner {
    compiled: CompiledProgram,
}

impl VmRunner {
    /// Compile `p` to bytecode (under the `vm.compile` obs span).
    pub fn new(p: &Program) -> Self {
        VmRunner {
            compiled: inl_vm::compile(p),
        }
    }

    /// The underlying bytecode (for disassembly and the profile views).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Execute on a machine, on one thread: [`VmRunner::run_threads`] with
    /// `1`.
    ///
    /// As with the interpreter, a run that panics midway — an access out
    /// of bounds, a subscript that is not integral — leaves the writes made
    /// before the panic in the machine.
    ///
    /// # Panics
    /// Unless the machine holds exactly the program's arrays, in order, with
    /// the program's names and extents at its parameters.
    pub fn run(&self, m: &mut Machine) {
        self.run_threads(m, 1);
    }

    /// Execute on a machine: bind the machine's parameters and run the
    /// bytecode in the machine's own arrays, the trips of every loop marked
    /// `parallel` across up to `threads` workers (`0`: one per core; see
    /// [`inl_vm::run_threads`]).
    ///
    /// Trusts the marks: distinct trips of a marked loop must not write a
    /// cell another trip reads or writes. That is what the dependence
    /// framework certifies (`inl_core::parallel::parallel_slots`); running a
    /// loop wrongly marked is a data race.
    ///
    /// # Panics
    /// As [`VmRunner::run`].
    pub fn run_threads(&self, m: &mut Machine, threads: usize) {
        let _span = inl_obs::span("exec.vm");
        let bp = self.compiled.bind(m.params());
        inl_vm::run_threads(&bp, &mut arrays_of(&bp, m), threads);
    }

    /// [`VmRunner::run`], returning how often each instruction executed
    /// (see [`inl_vm::run_profiled`] and the [`crate::profile`] views).
    ///
    /// # Panics
    /// As [`VmRunner::run`].
    pub fn run_profiled(&self, m: &mut Machine) -> Samples {
        let _span = inl_obs::span("exec.vm");
        let bp = self.compiled.bind(m.params());
        inl_vm::run_profiled(&bp, &mut arrays_of(&bp, m))
    }
}

/// The machine's array storage, in `ArrayId` order, after asserting that
/// the machine holds exactly `bp`'s arrays: as many, with the same names
/// and extents.
fn arrays_of<'m>(bp: &BoundProgram<'_>, m: &'m mut Machine) -> Vec<&'m mut [f64]> {
    let arrays = m.arrays_mut();
    assert_eq!(arrays.len(), bp.arrays.len(), "array count mismatch");
    let of_layout = |(arr, layout): (&'m mut ArrayData, &ArrayLayout)| {
        assert_eq!(layout.name, arr.name, "array order mismatch");
        assert_eq!(layout.dims, arr.dims, "array shape mismatch");
        arr.data.as_mut_slice()
    };
    arrays.iter_mut().zip(&bp.arrays).map(of_layout).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_fresh;
    use inl_ir::{zoo, Aff, Bound, Expr, Guard, ProgramBuilder};

    fn spdish(_: &str, idx: &[usize]) -> f64 {
        if idx.len() == 2 && idx[0] == idx[1] {
            (idx[0] + 10) as f64
        } else {
            1.0 / ((idx.iter().sum::<usize>() + 1) as f64)
        }
    }

    #[test]
    fn vm_matches_interpreter_on_every_zoo_program() {
        for (name, make) in zoo::ALL {
            let p = make();
            // distinct sizes per parameter (rect_wavefront takes two)
            let params: Vec<inl_linalg::Int> =
                (0..p.nparams()).map(|k| 7 + 2 * k as i128).collect();
            let a = run_fresh(&p, &params, &spdish);
            let mut b = Machine::new(&p, &params, &spdish);
            Backend::Vm.run(&p, &mut b);
            a.same_state(&b)
                .unwrap_or_else(|e| panic!("{name}: VM differs: {e}"));
        }
    }

    #[test]
    fn vm_runner_amortizes_compilation() {
        let p = zoo::cholesky_kij();
        let runner = VmRunner::new(&p);
        for n in [2, 5, 9] {
            let mut vm = Machine::new(&p, &[n], &spdish);
            runner.run(&mut vm);
            let interp = run_fresh(&p, &[n], &spdish);
            interp.same_state(&vm).expect("bitwise identical");
        }
    }

    #[test]
    fn backend_default_is_interpreter() {
        assert_eq!(Backend::default(), Backend::Interp);
    }

    /// Each array's storage: where its cells are, and how many fit.
    fn storage(m: &Machine) -> Vec<(*const f64, usize)> {
        let of = |a: &ArrayData| (a.data.as_ptr(), a.data.capacity());
        m.arrays().iter().map(of).collect()
    }

    #[test]
    fn the_vm_runs_in_the_machines_own_arrays_at_any_thread_count() {
        let mut p = zoo::matmul();
        let outer = p.loops().next().unwrap();
        p.set_loop_parallel(outer, true);
        let reference = run_fresh(&p, &[9], &spdish);
        for threads in [1, 2] {
            let mut m = Machine::new(&p, &[9], &spdish);
            let before = storage(&m);
            VmRunner::new(&p).run_threads(&mut m, threads);
            assert_eq!(storage(&m), before, "{threads} threads");
            reference.same_state(&m).expect("bitwise identical");
        }
    }

    /// A dependence-free doubly nested initialization, marked parallel.
    fn parallel_init_program() -> Program {
        let mut b = ProgramBuilder::new("parinit");
        let n = b.param("N");
        let ext = Aff::param(n) + Aff::konst(1);
        let a = b.array("A", &[ext.clone(), ext.clone()]);
        b.loop_full(
            "I",
            Bound::single(Aff::konst(1)),
            Bound::single(Aff::param(n)),
            1,
            true, // parallel
            |b| {
                let i = b.loop_var("I");
                b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
                    let j = b.loop_var("J");
                    b.stmt(
                        "S",
                        a,
                        vec![Aff::var(i), Aff::var(j)],
                        Expr::index(Aff::var(i) * 100 + Aff::var(j)),
                    );
                });
            },
        );
        b.finish()
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = parallel_init_program();
        let seq = run_fresh(&p, &[17], &|_, _| -1.0);
        for threads in [1, 2, 4, 8] {
            let mut par = Machine::new(&p, &[17], &|_, _| -1.0);
            VmRunner::new(&p).run_threads(&mut par, threads);
            seq.same_state(&par)
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        }
    }

    #[test]
    fn sequential_fallback_when_not_marked() {
        // wavefront is NOT parallel; the VM must run it sequentially at any
        // thread count and agree with the interpreter
        let p = zoo::wavefront();
        let init = |_: &str, idx: &[usize]| {
            if idx[0] == 0 || idx[1] == 0 {
                1.0
            } else {
                0.0
            }
        };
        let seq = run_fresh(&p, &[8], &init);
        let mut par = Machine::new(&p, &[8], &init);
        VmRunner::new(&p).run_threads(&mut par, 4);
        seq.same_state(&par).expect("identical");
    }

    #[test]
    fn guarded_statement_in_parallel_loop_matches_interpreter() {
        // do I = 1..N parallel: if (2 | I) X(I) = I — a `Div` guard under
        // a wavefront, the guard a tree-walking copy once evaluated
        // differently from the interpreter
        let mut b = ProgramBuilder::new("parguard");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
        b.loop_full(
            "I",
            Bound::single(Aff::konst(1)),
            Bound::single(Aff::param(n)),
            1,
            true, // parallel
            |b| {
                let i = b.loop_var("I");
                b.stmt_guarded(
                    "S",
                    x,
                    vec![Aff::var(i)],
                    Expr::index(Aff::var(i)),
                    vec![Guard::Div(Aff::var(i), 2)],
                );
            },
        );
        let p = b.finish();
        let seq = run_fresh(&p, &[9], &|_, _| -1.0);
        let mut par = Machine::new(&p, &[9], &|_, _| -1.0);
        VmRunner::new(&p).run_threads(&mut par, 2);
        seq.same_state(&par).expect("bitwise identical");
        let x = seq.array_by_name("X").unwrap();
        assert_eq!(&x[..5], &[-1.0, -1.0, 2.0, -1.0, 4.0]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let p = parallel_init_program();
        let mut m = Machine::new(&p, &[5], &|_, _| 0.0);
        VmRunner::new(&p).run_threads(&mut m, 0);
        let a = m.arrays().iter().find(|a| a.name == "A").unwrap();
        assert_eq!(a.get(&[3, 4]), 304.0);
    }

    #[test]
    fn a_run_that_panics_midway_keeps_its_earlier_writes() {
        // X[0] = 5; do I = 1..N+1: X[I] = 1 over X of N+1 cells: the
        // loop's last trip is out of bounds, and its header says so first.
        let mut b = inl_ir::ProgramBuilder::new("midway");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
        b.stmt("S1", x, vec![Aff::konst(0)], Expr::konst(5.0));
        b.hloop("I", Aff::konst(1), Aff::param(n) + Aff::konst(1), |b| {
            let i = b.loop_var("I");
            b.stmt("S2", x, vec![Aff::var(i)], Expr::konst(1.0));
        });
        let p = b.finish();
        let mut m = Machine::new(&p, &[4], &|_, _| 0.0);
        let runner = VmRunner::new(&p);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(&mut m)));
        assert!(run.is_err(), "X[N+1] is out of bounds");
        assert_eq!(m.arrays()[0].data, [5.0, 0.0, 0.0, 0.0, 0.0]);
    }

    /// `do I = 1..N: A[I] = B[I] + 1`, `B` called `name` and `extra` cells
    /// longer than `A`.
    fn plus_one(name: &str, extra: inl_linalg::Int) -> Program {
        let mut b = inl_ir::ProgramBuilder::new("plus_one");
        let n = b.param("N");
        let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
        let bb = b.array(name, &[Aff::param(n) + Aff::konst(1 + extra)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            let rhs = Expr::add(Expr::read(bb, vec![Aff::var(i)]), Expr::konst(1.0));
            b.stmt("S", a, vec![Aff::var(i)], rhs);
        });
        b.finish()
    }

    /// Run `plus_one("B", 0)` on a machine built for `other`, on `threads`
    /// threads.
    fn run_on_machine_of(other: &Program, threads: usize) {
        let p = plus_one("B", 0);
        let mut m = Machine::new(other, &[4], &spdish);
        VmRunner::new(&p).run_threads(&mut m, threads);
    }

    /// `plus_one` without its `B`.
    fn only_a() -> Program {
        let mut b = inl_ir::ProgramBuilder::new("only_a");
        let n = b.param("N");
        b.array("A", &[Aff::param(n) + Aff::konst(1)]);
        b.finish()
    }

    #[test]
    #[should_panic(expected = "array count mismatch")]
    fn vm_refuses_a_machine_missing_an_array() {
        run_on_machine_of(&only_a(), 1);
    }

    #[test]
    #[should_panic(expected = "array order mismatch")]
    fn vm_refuses_a_machine_with_a_renamed_array() {
        run_on_machine_of(&plus_one("C", 0), 1);
    }

    #[test]
    #[should_panic(expected = "array shape mismatch")]
    fn vm_refuses_a_machine_with_a_reshaped_array() {
        run_on_machine_of(&plus_one("B", 1), 1);
    }

    #[test]
    #[should_panic(expected = "array count mismatch")]
    fn a_threaded_run_refuses_a_machine_missing_an_array() {
        run_on_machine_of(&only_a(), 2);
    }

    #[test]
    #[should_panic(expected = "array order mismatch")]
    fn a_threaded_run_refuses_a_machine_with_a_renamed_array() {
        run_on_machine_of(&plus_one("C", 0), 2);
    }

    #[test]
    #[should_panic(expected = "array shape mismatch")]
    fn a_threaded_run_refuses_a_machine_with_a_reshaped_array() {
        run_on_machine_of(&plus_one("B", 1), 2);
    }
}
