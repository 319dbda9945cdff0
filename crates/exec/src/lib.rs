//! # inl-exec
//!
//! Execution of `inl-ir` programs: a reference interpreter, execution
//! traces, equivalence checking, and the bytecode VM on a [`Machine`]
//! ([`VmRunner`]), which runs loops the framework has proven
//! dependence-free across threads.
//!
//! The interpreter is the framework's ground truth: a *legal* loop
//! transformation preserves, per memory location, the order of every write
//! and of every read relative to the writes around it — so original and
//! transformed programs must produce **bitwise identical** array states,
//! even in floating point. The test-suites across this workspace lean on
//! that: run both programs, compare bits.
//!
//! ```
//! use inl_exec::{Interpreter, Machine};
//! use inl_ir::zoo;
//!
//! let p = zoo::simple_cholesky();
//! // N = 4; A starts as a diagonally dominant vector
//! let mut m = Machine::new(&p, &[4], &|_, idx| 2.0 + idx[0] as f64);
//! Interpreter::new(&p).run(&mut m);
//! assert!(m.array_by_name("A").unwrap()[1] > 0.0);
//! ```

pub mod backend;
pub mod interp;
pub mod machine;
pub mod trace;

pub use backend::{Backend, VmRunner};
/// Views of the samples [`VmRunner::run_profiled`] returns, for callers
/// that ask which executor ran a program's loops.
pub use inl_vm::profile;
pub use interp::Interpreter;
pub use machine::{ArrayData, Machine};
pub use trace::{run_traced, InstanceRecord, Trace, TraceSummary};

/// Run a program to completion on a fresh machine and return the machine.
pub fn run_fresh(
    p: &inl_ir::Program,
    params: &[inl_linalg::Int],
    init: &dyn Fn(&str, &[usize]) -> f64,
) -> Machine {
    let mut m = Machine::new(p, params, init);
    Interpreter::new(p).run(&mut m);
    m
}

/// Check that two programs (e.g. source and transformed) produce bitwise
/// identical final array states from the same initial machine. Arrays are
/// matched by name. Returns a description of the first difference.
pub fn equivalent(
    a: &inl_ir::Program,
    b: &inl_ir::Program,
    params: &[inl_linalg::Int],
    init: &dyn Fn(&str, &[usize]) -> f64,
) -> Result<(), String> {
    let ma = run_fresh(a, params, init);
    let mb = run_fresh(b, params, init);
    ma.same_state(&mb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    #[test]
    fn cholesky_forms_agree() {
        // right-looking KIJ and hand-written left-looking Cholesky compute
        // bitwise identical factors
        let init = |_: &str, idx: &[usize]| {
            // symmetric positive definite-ish: strong diagonal
            if idx[0] == idx[1] {
                (idx[0] + 10) as f64
            } else {
                1.0 / ((idx[0] + idx[1] + 1) as f64)
            }
        };
        equivalent(
            &zoo::cholesky_kij(),
            &zoo::cholesky_left_looking(),
            &[6],
            &init,
        )
        .expect("factors agree");
    }

    #[test]
    fn distributed_cholesky_differs() {
        // the §4.2 distribution is illegal for Cholesky: the distributed
        // program must NOT be equivalent (pivots are applied in a
        // different order relative to the updates)
        let init = |_: &str, idx: &[usize]| 2.0 + idx[0] as f64;
        let r = equivalent(
            &zoo::simple_cholesky(),
            &zoo::distributed_simple_cholesky(),
            &[5],
            &init,
        );
        assert!(
            r.is_err(),
            "illegal distribution changed semantics, must differ"
        );
    }
}
