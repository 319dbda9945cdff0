//! The paper's motivating claim (§1): "All six permutations of these three
//! loops compute the same result, but their performance, even on sequential
//! machines, can be quite different."
//!
//! This example enumerates every assignment of Cholesky's loop positions
//! to loop slots, lets the completion procedure find a legal statement
//! order for each, generates code, validates it by execution, and times
//! the variants on both backends: on the interpreter, whose per-instance
//! overhead hides the difference, and on the VM at N=300, where what is
//! left between them is the memory walk — the last column names each
//! variant's hottest innermost loop and the trip executor that ran it: in
//! columns down a row or a column of the matrix, or carried, reducing into
//! one cell held in a register.
//!
//! ```sh
//! cargo run --release --example cholesky_permutations
//! ```

use inl::codegen::generate;
use inl::core::complete::complete_transform;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::recipe::Recipe;
use inl::exec::{run_fresh, Interpreter, Machine, VmRunner};
use inl::ir::{zoo, Program};
use inl::linalg::permutations;
use inl::vm::profile;
use std::time::Instant;

/// One more run, profiled: the kernel loop with the most body instructions
/// and which trip executor ran it (`mixed`: with the share of its trips that
/// the header handed back to the dispatcher).
fn hottest_kernel(runner: &VmRunner, p: &Program, template: &Machine) -> String {
    let counts = runner.run_profiled(&mut template.clone());
    let loops = profile::loop_profiles(runner.compiled(), Some(p), &counts);
    let Some(hot) = loops.iter().find(|l| l.mode() != "dispatch") else {
        return "dispatch".into();
    };
    match hot.mode() {
        "mixed" => format!(
            "{} mixed, {:.1}% dispatch",
            hot.name,
            hot.trips_dispatch() as f64 / hot.iterations as f64 * 100.0
        ),
        mode => format!("{} {mode}", hot.name),
    }
}

fn main() {
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let names = ["K", "J", "L", "I"];

    let spd = zoo::spd_init;
    let n: i128 = 120;
    let vm_n: i128 = 300;

    // reference results: the source program on the interpreter
    let reference = run_fresh(&p, &[n], &spd);
    let vm_reference = run_fresh(&p, &[vm_n], &spd);

    println!("variant (slot order) | legal | verified | interp N={n} | VM N={vm_n} | hottest loop");
    println!("---------------------|-------|----------|--------------|----------|-------------");
    let (mut vm_times, mut all_verified) = (Vec::new(), true);
    for pm in permutations(&[0, 1, 2, 3]) {
        let label: String = pm.iter().map(|&i| names[i]).collect();
        let recipe: Recipe = label.parse().expect("an order");
        let rows = recipe.rows(&p, &layout).expect("the four loops");
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
        let mut ok = reference.same_state(&m).is_ok();
        // time
        let mut m2 = Machine::new(&result.program, &[n], &spd);
        let t0 = Instant::now();
        Interpreter::new(&result.program).run(&mut m2);
        let dt = t0.elapsed();
        // the same code on the VM, verified against the interpreter's
        // image of the source program; quietest of five runs
        let runner = VmRunner::new(&result.program);
        let template = Machine::new(&result.program, &[vm_n], &spd);
        let mut vm_dt = std::time::Duration::MAX;
        for _ in 0..5 {
            let mut m3 = template.clone();
            let t0 = Instant::now();
            runner.run(&mut m3);
            vm_dt = vm_dt.min(t0.elapsed());
            ok &= vm_reference.same_state(&m3).is_ok();
        }
        vm_times.push(vm_dt);
        all_verified &= ok;
        println!(
            "{label:>20} |  yes  |   {}    | {dt:>12.2?} | {vm_dt:>9.2?} | {}",
            if ok { "✓" } else { "✗" },
            hottest_kernel(&runner, &result.program, &template)
        );
    }
    let (fastest, slowest) = (vm_times.iter().min(), vm_times.iter().max());
    if let Some((fastest, slowest)) = fastest.zip(slowest) {
        println!(
            "VM, N={vm_n}: {fastest:.2?} to {slowest:.2?}, {:.1}x between the fastest and the \
             slowest legal variant",
            slowest.as_secs_f64() / fastest.as_secs_f64()
        );
    }
    // CI runs this: a variant that diverged from the reference fails it
    if !all_verified {
        std::process::exit(1);
    }
}
