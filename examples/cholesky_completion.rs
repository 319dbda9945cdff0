//! §6's worked example: complete a partial transformation of full
//! (right-looking) Cholesky factorization into the traditional left-looking
//! form, generate the code, and validate against both the source and a
//! hand-written left-looking implementation.
//!
//! ```sh
//! cargo run --example cholesky_completion
//! ```

use inl::codegen::generate;
use inl::core::complete::complete_transform;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::perstmt::schedule_all;
use inl::exec::equivalent;
use inl::ir::zoo;
use inl::linalg::IVec;

fn main() {
    let p = zoo::cholesky_kij();
    println!("== right-looking Cholesky (KIJ) ==\n{}", p.to_pseudocode());

    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    println!(
        "instance vectors are {}-dimensional; {} dependence columns:\n{}",
        layout.len(),
        deps.deps.len(),
        deps.display()
    );

    // Partial transformation: make the position of the updated column (the
    // L loop's slot, which reaches S1/S2 through the diagonal padding) the
    // outermost loop. One row; the completion procedure does the rest.
    let l = p.loops().find(|&l| p.loop_decl(l).name == "L").unwrap();
    let partial = vec![IVec::unit(layout.len(), layout.loop_position(l))];
    println!("partial transformation: first row = unit selector of the L position\n");

    let completion = complete_transform(&p, &layout, &deps, &partial).expect("completable");
    println!("== completed matrix ==\n{}", completion.matrix);

    // Per-statement transformations: all non-singular, no augmentation
    // (the paper's §6 observation).
    let schedules = schedule_all(&p, &layout, &completion.matrix, &deps, &completion.report)
        .expect("schedulable");
    for s in &schedules {
        println!(
            "per-statement transform of {}: N_S =\n{}  (augmented rows: {})",
            p.stmt_decl(s.stmt).name,
            s.n_s,
            s.n_aug
        );
    }

    let result = generate(&p, &layout, &deps, &completion.matrix).expect("codegen");
    println!(
        "== generated left-looking program ==\n{}",
        result.program.to_pseudocode()
    );

    let spd = zoo::spd_init;
    for n in [2, 8, 32] {
        equivalent(&p, &result.program, &[n], &spd).expect("matches source");
        equivalent(&zoo::cholesky_left_looking(), &result.program, &[n], &spd)
            .expect("matches hand-written left-looking");
        println!("N = {n:3}: identical to source AND to hand-written left-looking ✓");
    }
}
