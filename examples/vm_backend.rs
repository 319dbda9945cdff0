//! The bytecode VM backend: compile a loop nest once to flat register
//! bytecode, then run it many times — and check it is bitwise identical
//! to the reference interpreter.
//!
//! ```sh
//! cargo run --example vm_backend          # one-shot run on the interpreter
//! cargo run --example vm_backend -- vm    # the same run on the VM
//! ```

use inl::exec::{run_fresh, Backend, Machine, VmRunner};
use inl::ir::zoo;

fn main() {
    let p = zoo::cholesky_kij();

    // `Backend` is the one-shot entry point; the first argument picks it
    // (`vm`, anything else or nothing: the reference interpreter).
    let backend = match std::env::args().nth(1).as_deref() {
        Some("vm") => Backend::Vm,
        _ => Backend::Interp,
    };
    println!("backend: {backend:?}");
    let mut m = Machine::new(&p, &[6], &zoo::spd_init);
    backend.run(&p, &mut m);
    println!("A[0..4] = {:?}\n", &m.array_by_name("A").unwrap()[..4]);

    // The two-stage lowering, spelled out. `compile` is parameter-
    // symbolic: bounds, guards and subscripts become integer coefficient
    // rows over a flat register file.
    let cp = inl::vm::compile(&p);
    println!(
        "compiled {}: {} instructions, {} f64 registers",
        p.name(),
        cp.ninstrs(),
        cp.nfregs
    );
    println!("{}", cp.disasm(&p));

    // `VmRunner` wraps compile-once / run-per-parameter-binding; `bind`
    // happens inside `run` against the machine's parameters.
    let runner = VmRunner::new(&p);
    for n in [2i128, 4, 8, 16] {
        let interp = run_fresh(&p, &[n], &zoo::spd_init);
        let mut vm = Machine::new(&p, &[n], &zoo::spd_init);
        runner.run(&mut vm);
        println!(
            "N={n:2}: VM bitwise-identical to interpreter? {}",
            interp.same_state(&vm).is_ok()
        );
    }
}
