//! Parallel execution of loops the framework has proven dependence-free.
//!
//! Loops marked `parallel` in the IR (set by the user or by
//! `inl-core::parallel` analysis results) execute their iterations across
//! worker threads; everything else runs sequentially in AST order.
//!
//! The executor holds no statement semantics of its own: it compiles the
//! program once for the bytecode VM and drives it — evaluating a parallel
//! loop's bounds, setting the loop-variable register, and running the
//! loop *body* range per iteration on each worker. The sequential
//! [`crate::Interpreter`] is the one reference those results are compared
//! against.
//!
//! # Safety contract
//!
//! The executor trusts the `parallel` flags: distinct iterations of a
//! parallel loop must not write the same array cell, and no iteration may
//! read a cell another writes. That is precisely what the dependence
//! framework certifies (a loop slot with no carried dependence —
//! [`inl_core`-level `parallel_slots`]); executing a loop wrongly marked
//! parallel is a data race. The machine's arrays are shared across threads,
//! in place, through [`inl_vm::SharedBuf`] for exactly this reason.

use crate::backend::arrays_of;
use crate::machine::Machine;
use inl_ir::{LoopId, Node, Program};
use inl_vm::bytecode::BoundProgram;
use inl_vm::{exec_range, SharedBuf, VmState};

/// Executes a program, running `parallel`-marked loops across threads.
pub struct ParallelExecutor<'p> {
    program: &'p Program,
    nthreads: usize,
}

impl<'p> ParallelExecutor<'p> {
    /// Create an executor with the given worker count (`0` = available
    /// parallelism).
    pub fn new(program: &'p Program, nthreads: usize) -> Self {
        let nthreads = if nthreads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            nthreads
        };
        ParallelExecutor { program, nthreads }
    }

    /// Execute on the machine: compile once, then run wavefronts by
    /// dispatching parallel-loop *body* ranges across workers, all in the
    /// machine's own arrays. Sequential subtrees with no parallel loop below
    /// them run as straight bytecode.
    ///
    /// # Panics
    /// As [`crate::VmRunner::run`]: unless the machine holds exactly the
    /// program's arrays; a panic midway leaves earlier writes in place.
    pub fn run(&self, m: &mut Machine) {
        let _span = inl_obs::span("exec.parallel");
        let compiled = inl_vm::compile(self.program);
        let bp = compiled.bind(m.params());
        let mut arrays = arrays_of(&bp, m);
        let buf = SharedBuf::new(&mut arrays);
        let mut st = bp.new_state();
        vm_nodes(
            self.program,
            &bp,
            self.program.root(),
            &mut st,
            &buf,
            self.nthreads,
        );
    }
}

/// Explain-record one wavefront dispatch of a `parallel`-marked loop
/// (stage `exec`): the wavefront width, worker count, and chunking.
fn record_wavefront(name: &str, width: usize, nthreads: usize, chunk: usize) {
    if !inl_obs::explain_enabled() {
        return;
    }
    inl_obs::explain::note(
        "exec",
        format!("loop {name}"),
        format!(
            "dispatched a {width}-iteration wavefront across {nthreads} worker(s), \
             chunk size {chunk}"
        ),
    )
    .feature("wavefront_width", width as i64)
    .feature("threads", nthreads as i64)
    .feature("chunk", chunk as i64);
}

/// True iff the subtree rooted at `l` contains a parallel loop.
fn subtree_has_parallel(p: &Program, l: LoopId) -> bool {
    let ld = p.loop_decl(l);
    ld.parallel
        || ld.children.iter().any(|&n| match n {
            Node::Loop(inner) => subtree_has_parallel(p, inner),
            Node::Stmt(_) => false,
        })
}

fn vm_nodes(
    p: &Program,
    bp: &BoundProgram<'_>,
    nodes: &[Node],
    st: &mut VmState,
    buf: &SharedBuf<'_>,
    nthreads: usize,
) {
    for &n in nodes {
        match n {
            Node::Loop(l) => vm_loop(p, bp, l, st, buf, nthreads),
            Node::Stmt(s) => {
                let (start, end) = bp.cp.stmt_range(s).expect("detached stmt");
                exec_range(bp, st, buf, start, end);
            }
        }
    }
}

fn vm_loop(
    p: &Program,
    bp: &BoundProgram<'_>,
    l: LoopId,
    st: &mut VmState,
    buf: &SharedBuf<'_>,
    nthreads: usize,
) {
    let meta = *bp.cp.loop_meta(l).expect("detached loop");
    // No parallelism below: hand the whole loop (header, body, latch) to
    // the VM's dispatch loop.
    if nthreads <= 1 || !subtree_has_parallel(p, l) {
        exec_range(bp, st, buf, meta.header, meta.exit);
        return;
    }
    let ld = p.loop_decl(l);
    let (lo, hi) = bp.loop_bounds(l, &st.iregs);
    if lo > hi {
        return;
    }
    // The range is walked arithmetically, never materialised: the skewed
    // wavefront enters here 2N times with up to N iterations each.
    let iters = ((hi - lo) / meta.step) as usize + 1;
    if ld.parallel && iters > 1 {
        inl_obs::counter_add!("exec.par.wavefronts", 1);
        let _wf = inl_obs::span_args(
            "exec.par.wavefront",
            &[("iters", iters as i64), ("threads", nthreads as i64)],
        );
        let chunk = iters.div_ceil(nthreads);
        record_wavefront(&ld.name, iters, nthreads, chunk);
        std::thread::scope(|scope| {
            for first in (0..iters).step_by(chunk) {
                let count = chunk.min(iters - first);
                let ch_lo = lo + first as i64 * meta.step;
                let ch_hi = ch_lo + (count - 1) as i64 * meta.step;
                // A clone copies the registers only (the VM's column
                // scratch is per state and allocated on first use).
                let mut thread_st = st.clone();
                scope.spawn(move || {
                    let _chunk =
                        inl_obs::span_args("exec.par.chunk", &[("lo", ch_lo), ("hi", ch_hi)]);
                    let busy = std::time::Instant::now();
                    for i in (ch_lo..=ch_hi).step_by(meta.step as usize) {
                        thread_st.iregs[meta.var as usize] = i;
                        // inner parallel loops run sequentially inside a
                        // worker, i.e. as plain bytecode
                        vm_nodes(p, bp, &ld.children, &mut thread_st, buf, 1);
                    }
                    inl_obs::counter_add!(
                        "exec.par.thread_busy_ns",
                        busy.elapsed().as_nanos() as u64
                    );
                });
            }
        });
    } else {
        for i in (lo..=hi).step_by(meta.step as usize) {
            st.iregs[meta.var as usize] = i;
            vm_nodes(p, bp, &ld.children, st, buf, nthreads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use inl_ir::{zoo, Aff, Bound, Expr, Guard, ProgramBuilder};

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
        let mut seq = Machine::new(&p, &[17], &|_, _| -1.0);
        Interpreter::new(&p).run(&mut seq);
        for threads in [1, 2, 4, 8] {
            let mut par = Machine::new(&p, &[17], &|_, _| -1.0);
            ParallelExecutor::new(&p, threads).run(&mut par);
            seq.same_state(&par)
                .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        }
    }

    #[test]
    fn sequential_fallback_when_not_marked() {
        // wavefront is NOT parallel; executor must run it sequentially and
        // agree with the interpreter
        let p = zoo::wavefront();
        let init = |_: &str, idx: &[usize]| {
            if idx[0] == 0 || idx[1] == 0 {
                1.0
            } else {
                0.0
            }
        };
        let mut seq = Machine::new(&p, &[8], &init);
        Interpreter::new(&p).run(&mut seq);
        let mut par = Machine::new(&p, &[8], &init);
        ParallelExecutor::new(&p, 4).run(&mut par);
        seq.same_state(&par).expect("identical");
    }

    #[test]
    fn guarded_statement_in_parallel_loop_matches_interpreter() {
        // do I = 1..N parallel: if (2 | I) X(I) = I — a `Div` guard under
        // a wavefront, the guard the deleted tree-walking copy evaluated
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
        let mut seq = Machine::new(&p, &[9], &|_, _| -1.0);
        Interpreter::new(&p).run(&mut seq);
        let mut par = Machine::new(&p, &[9], &|_, _| -1.0);
        ParallelExecutor::new(&p, 2).run(&mut par);
        seq.same_state(&par).expect("bitwise identical");
        let x = seq.array_by_name("X").unwrap();
        assert_eq!(&x[..5], &[-1.0, -1.0, 2.0, -1.0, 4.0]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let p = parallel_init_program();
        let mut m = Machine::new(&p, &[5], &|_, _| 0.0);
        ParallelExecutor::new(&p, 0).run(&mut m);
        let a = m.arrays().iter().find(|a| a.name == "A").unwrap();
        assert_eq!(a.get(&[3, 4]), 304.0);
    }
}
