//! Matrix multiplication is the contrast case to Cholesky: a *perfect*
//! nest whose only dependence is the reduction on `C[I][J]` carried by the
//! `K` loop, so **all six** loop permutations are legal. In the instance-
//! vector framework this falls out of the same machinery the imperfect
//! nests use (Lemma 2: perfect nests degenerate to iteration vectors).

use inl::codegen::generate;
use inl::core::complete::complete_transform;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::legal::check_legal;
use inl::core::parallel::parallel_slots;
use inl::exec::equivalent;
use inl::ir::zoo;
use inl::linalg::{IMat, IVec};

fn init(name: &str, idx: &[usize]) -> f64 {
    match name {
        "A" => (idx[0] * 3 + idx[1]) as f64 * 0.25,
        "B" => (idx[0] + idx[1] * 2) as f64 * 0.5,
        _ => 0.0,
    }
}

fn permutations3() -> Vec<[usize; 3]> {
    vec![
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ]
}

#[test]
fn all_six_matmul_permutations_legal_and_identical() {
    let p = zoo::matmul();
    let layout = InstanceLayout::new(&p);
    assert_eq!(layout.len(), 3, "perfect nest: iteration vectors");
    let deps = analyze(&p, &layout).expect("analysis");
    let mut legal_count = 0;
    for pm in permutations3() {
        // rows: slot r takes old position pm[r]
        let rows: Vec<IVec> = pm.iter().map(|&q| IVec::unit(3, q)).collect();
        let c = complete_transform(&p, &layout, &deps, &rows)
            .unwrap_or_else(|e| panic!("{pm:?} should be legal: {e:?}"));
        legal_count += 1;
        let result = generate(&p, &layout, &deps, &c.matrix).expect("codegen");
        for n in [1, 2, 5] {
            equivalent(&p, &result.program, &[n], &init).unwrap_or_else(|e| {
                panic!("{pm:?}, N={n}: {e}\n{}", result.program.to_pseudocode())
            });
        }
    }
    assert_eq!(legal_count, 6, "matmul admits all six permutations");
}

#[test]
fn matmul_parallel_dimensions() {
    // under the identity schedule, I and J are parallel (the reduction is
    // carried only by K)
    let p = zoo::matmul();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let id = IMat::identity(3);
    let report = check_legal(&p, &layout, &deps, &id).expect("legality");
    assert!(report.is_legal());
    let slots = parallel_slots(&layout, &deps, &id);
    assert_eq!(slots, vec![0, 1], "I and J parallel, K sequential");
}

#[test]
fn matmul_reversals_all_legal() {
    // a pure reduction is insensitive to any loop direction — but
    // floating-point addition is not associative, so only the K-preserving
    // reversals are bitwise identical. Reversing I or J is legal AND
    // bitwise identical (they're DOALL); reversing K is legal
    // (accumulation order flips) but produces a different rounding — the
    // legality test correctly accepts it because the *dependence* is
    // respected only if... it is NOT: C[I][J] chain is flow-dependent, so
    // reversing K must be rejected.
    let p = zoo::matmul();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    for (slot, expect_legal) in [(0usize, true), (1, true), (2, false)] {
        let mut m = IMat::identity(3);
        m[(slot, slot)] = -1;
        let r = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert_eq!(
            r.is_legal(),
            expect_legal,
            "reversal of slot {slot}: {:?}",
            r.violations
        );
        if expect_legal {
            let result = generate(&p, &layout, &deps, &m).expect("codegen");
            for n in [1, 4] {
                equivalent(&p, &result.program, &[n], &init).expect("identical");
            }
        }
    }
}
