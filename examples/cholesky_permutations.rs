//! The paper's motivating claim (§1): "All six permutations of these three
//! loops compute the same result, but their performance, even on sequential
//! machines, can be quite different."
//!
//! This example enumerates every assignment of Cholesky's loop positions
//! to loop slots, lets the completion procedure find a legal statement
//! order for each, generates code, validates it by execution, and times
//! the variants.
//!
//! ```sh
//! cargo run --release --example cholesky_permutations
//! ```

use inl::codegen::generate;
use inl::core::complete::{complete_transform, order_rows};
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::exec::{run_fresh, Interpreter, Machine};
use inl::ir::zoo;
use inl::linalg::permutations;
use std::time::Instant;

fn main() {
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let names = ["K", "J", "L", "I"];

    let spd = zoo::spd_init;
    let n: i128 = 120;

    // reference result
    let reference = run_fresh(&p, &[n], &spd);

    println!("variant (slot order) | legal | verified | time at N={n}");
    println!("---------------------|-------|----------|-------------");
    for pm in permutations(&[0, 1, 2, 3]) {
        let label: String = pm.iter().map(|&i| names[i]).collect();
        let rows = order_rows(&p, &layout, &label).expect("a permutation of the loop names");
        let Ok(completion) = complete_transform(&p, &layout, &deps, &rows) else {
            println!("{label:>20} |  no   |    —     |      —");
            continue;
        };
        let result = match generate(&p, &layout, &deps, &completion.matrix) {
            Ok(r) => r,
            Err(e) => {
                println!("{label:>20} |  yes  | codegen failed: {e:?}");
                continue;
            }
        };
        // verify
        let mut m = Machine::new(&result.program, &[n], &spd);
        Interpreter::new(&result.program).run(&mut m);
        let ok = reference.same_state(&m).is_ok();
        // time
        let mut m2 = Machine::new(&result.program, &[n], &spd);
        let t0 = Instant::now();
        Interpreter::new(&result.program).run(&mut m2);
        let dt = t0.elapsed();
        println!(
            "{label:>20} |  yes  |   {}    | {dt:>9.2?}",
            if ok { "✓" } else { "✗" }
        );
    }
}
