//! The paper's §1/§4.1 argument, made runnable: the classical strategy —
//! sink every statement into the innermost loop, then transform the
//! resulting perfect nest — breaks down on exactly the loops the paper
//! cares about, while the direct instance-vector framework handles them.
//!
//! ```sh
//! cargo run --example sinking_vs_direct
//! ```

use inl::core::complete::complete_transform;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::sink::sink_statements;
use inl::exec::equivalent;
use inl::ir::zoo;
use inl::linalg::IVec;

fn main() {
    // Case 1: a nest where sinking works — §2's running example. The
    // statement after the inner loop sinks with a "last iteration" guard.
    let p = zoo::running_example();
    println!("== {} ==\n{}", p.name(), p.to_pseudocode());
    match sink_statements(&p) {
        Ok(q) => {
            println!("sinks to a perfect nest:\n{}", q.to_pseudocode());
            equivalent(&p, &q, &[6], &|_, _| 0.0).expect("identical");
            println!("verified identical ✓\n");
        }
        Err(e) => println!("unexpected: {e}\n"),
    }

    // Case 2: simplified Cholesky — the inner loop J = I+1..N is EMPTY at
    // I = N, so the sunk pivot sqrt would never execute. Sinking must
    // refuse; the paper's framework transforms it directly.
    let p = zoo::simple_cholesky();
    println!("== {} ==\n{}", p.name(), p.to_pseudocode());
    match sink_statements(&p) {
        Err(e) => {
            println!("sinking REFUSED: {}", e.message());
            println!("(at I = N the inner loop runs zero times — the sunk sqrt would be lost)\n");
        }
        Ok(q) => println!("unexpected: sank to\n{}", q.to_pseudocode()),
    }

    // Case 3: full Cholesky — the outer loop has TWO loop children; no
    // perfect nest exists without loop distribution, and §1 notes
    // distribution is illegal for the factorizations. Direct completion
    // still permutes its loops.
    let p = zoo::cholesky_kij();
    println!("== {} ==\n{}", p.name(), p.to_pseudocode());
    match sink_statements(&p) {
        Err(e) => println!("sinking IMPOSSIBLE: {}", e.message()),
        Ok(q) => println!("unexpected: sank to\n{}", q.to_pseudocode()),
    }
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let l = p.loops().find(|&l| p.loop_decl(l).name == "L").unwrap();
    let partial = vec![IVec::unit(layout.len(), layout.loop_position(l))];
    let c = complete_transform(&p, &layout, &deps, &partial).expect("direct framework succeeds");
    let result = inl::codegen::generate(&p, &layout, &deps, &c.matrix).expect("codegen");
    println!(
        "\n…while the direct framework permutes it to left-looking form:\n{}",
        result.program.to_pseudocode()
    );
    let spd = zoo::spd_init;
    equivalent(&p, &result.program, &[12], &spd).expect("identical");
    println!("verified identical ✓");
}
