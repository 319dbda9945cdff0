//! Backend selection: the tree-walking [`Interpreter`] vs the compiling
//! bytecode VM (`inl-vm`).
//!
//! Both backends are bitwise-identical on legal programs — the VM performs
//! the same `f64` operations in the same order — so callers pick purely on
//! speed/debuggability grounds: the interpreter is the readable ground
//! truth, the VM is the fast path for benchmarking real problem sizes.
//!
//! The glue lives here rather than in `inl-vm` because the VM executes a
//! *flat* `f64` buffer and knows nothing of [`Machine`]; [`VmRunner`]
//! copies the machine's arrays into a flat buffer (same `ArrayId` order
//! both sides use), runs the bytecode, and copies the results back.

use crate::interp::Interpreter;
use crate::machine::Machine;
use inl_ir::Program;
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

    /// The underlying bytecode (for disassembly or direct driving).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Execute on a machine: bind the machine's parameters, copy arrays
    /// into the VM's flat buffer, run, copy back.
    pub fn run(&self, m: &mut Machine) {
        let _span = inl_obs::span("exec.vm");
        let bp = self.compiled.bind(m.params());
        let mut buf = copy_in(&bp, m);
        inl_vm::run(&bp, &mut buf);
        copy_out(&bp, &buf, m);
    }
}

/// Flatten the machine's arrays into one VM buffer (both sides lay arrays
/// out row-major in `ArrayId` order, so this is a straight concatenation).
pub(crate) fn copy_in(bp: &BoundProgram<'_>, m: &Machine) -> Vec<f64> {
    let mut buf = vec![0.0; bp.total_len];
    for (layout, arr) in bp.arrays.iter().zip(m.arrays()) {
        assert_eq!(layout.name, arr.name, "array order mismatch");
        assert_eq!(layout.dims, arr.dims, "array shape mismatch");
        buf[layout.base..layout.base + layout.len].copy_from_slice(&arr.data);
    }
    buf
}

/// Copy the VM buffer back into the machine's arrays.
pub(crate) fn copy_out(bp: &BoundProgram<'_>, buf: &[f64], m: &mut Machine) {
    for (layout, arr) in bp.arrays.iter().zip(m.arrays_mut()) {
        arr.data
            .copy_from_slice(&buf[layout.base..layout.base + layout.len]);
    }
}

/// Run a program to completion on a fresh machine with the chosen backend.
pub fn run_fresh_with(
    backend: Backend,
    p: &Program,
    params: &[inl_linalg::Int],
    init: &dyn Fn(&str, &[usize]) -> f64,
) -> Machine {
    let mut m = Machine::new(p, params, init);
    backend.run(p, &mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

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
            let a = run_fresh_with(Backend::Interp, &p, &params, &spdish);
            let b = run_fresh_with(Backend::Vm, &p, &params, &spdish);
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
            let interp = run_fresh_with(Backend::Interp, &p, &[n], &spdish);
            interp.same_state(&vm).expect("bitwise identical");
        }
    }

    #[test]
    fn backend_default_is_interpreter() {
        assert_eq!(Backend::default(), Backend::Interp);
    }
}
