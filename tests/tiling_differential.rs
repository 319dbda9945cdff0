//! Differential property tests for loop splitting (`inl::core::tiling`).
//!
//! Strip-mining is order-preserving, so a split program must be
//! **observationally identical** to its source — same cells, same final
//! values — and, like every program, **bitwise identical** across the
//! interpreter and VM backends. This file checks both, for *any* legal
//! split of *any* step-1 loop of *any* zoo program, at random tile sizes
//! and parameter bindings, under the same two adversarial initial-state
//! regimes the VM differential uses.

use inl::core::tiling::{split, split_legal};
use inl::exec::{run_fresh, Machine, VmRunner};
use inl::ir::{zoo, LoopId, Program};
use proptest::prelude::*;

fn arb_zoo() -> impl Strategy<Value = Program> {
    (0..zoo::ALL.len()).prop_map(|i| zoo::ALL[i].1())
}

/// Non-integer initial values: every arithmetic op's rounding matters.
fn frac_init(_: &str, idx: &[usize]) -> f64 {
    let mix: usize = idx
        .iter()
        .enumerate()
        .map(|(d, &i)| (d + 2) * (i + 1))
        .sum();
    mix as f64 * 0.375 + 0.5
}

/// Integer initial values from a wrapping-`i64` mixing function (see
/// `vm_differential.rs` for why `>> 40`).
fn int_init(name: &str, idx: &[usize]) -> f64 {
    let mut h: i64 = name.len() as i64;
    for &i in idx {
        h = h
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as i64)
            .wrapping_add(1442695040888963407);
    }
    ((h >> 40) as f64).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any legal split of any step-1 zoo loop re-executes bitwise
    /// identically to its source program, on both backends.
    #[test]
    fn legal_splits_are_bitwise_identical_on_both_backends(
        (p, which, tile, ns) in arb_zoo().prop_flat_map(|p| {
            let nloops = p.loops().count();
            let ns = prop::collection::vec(1i64..10, p.nparams());
            (Just(p), 0..nloops, 2i64..=64, ns)
        })
    ) {
        let l = LoopId(which);
        if p.loop_decl(l).step != 1 {
            return Ok(()); // splitting is defined for step-1 loops only
        }
        let r = split(&p, l, tile as i128).expect("step-1 split");
        let report = split_legal(&r).expect("legality analysis");
        prop_assert!(
            report.is_legal(),
            "strip-mining {} of {} must be order-preserving",
            p.loop_decl(l).name, p.name()
        );
        let params: Vec<i128> = ns.iter().map(|&n| n as i128).collect();
        for (regime, init) in [
            ("frac", &frac_init as &dyn Fn(&str, &[usize]) -> f64),
            ("i64-wrap", &int_init),
        ] {
            let src = run_fresh(&p, &params, init);
            let tiled = run_fresh(&r.program, &params, init);
            prop_assert!(
                src.same_state(&tiled).is_ok(),
                "split of {} diverged from source ({regime} init, tile {tile}, params {params:?}): {}",
                p.name(), src.same_state(&tiled).unwrap_err()
            );
            let mut vm = Machine::new(&r.program, &params, init);
            VmRunner::new(&r.program).run(&mut vm);
            prop_assert!(
                tiled.same_state(&vm).is_ok(),
                "split of {} differs across backends ({regime} init, tile {tile}): {}",
                p.name(), tiled.same_state(&vm).unwrap_err()
            );
        }
    }
}
