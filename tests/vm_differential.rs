//! Differential property tests for the bytecode VM (`inl-vm`).
//!
//! The VM is a second backend and must be **bitwise identical** to the
//! reference interpreter — same `f64` operations in the same order — on:
//!
//! * every zoo program,
//! * random legal transformations of zoo programs (whatever `generate`
//!   accepts, including non-unimodular results with `Div` guards and
//!   divisor subscripts, which exercise the VM's slow access path),
//! * random parameter bindings,
//!
//! under two initial-state regimes (and, for loops marked `parallel`, at 1,
//! 2, 4 and 8 threads):
//!
//! * **fractional f64** — cells start at non-integer values, so rounding
//!   of every arithmetic op matters;
//! * **i64-wrapping integers** — cells start at (exactly representable)
//!   integers produced by a wrapping-`i64` mixing function, the adversarial
//!   case for sign/magnitude handling in subscript and index arithmetic.

use inl::codegen::generate;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::parallel::parallel_slots;
use inl::core::transform::Transform;
use inl::exec::{run_fresh, Machine, VmRunner};
use inl::ir::{zoo, Program};
use proptest::prelude::*;

fn arb_zoo() -> impl Strategy<Value = Program> {
    (0..zoo::ALL.len()).prop_map(|i| zoo::ALL[i].1())
}

/// A random transformation sequence over the program's loops/statements
/// (same shape as the framework-level property tests).
fn arb_transforms(p: &Program) -> impl Strategy<Value = Vec<Transform>> {
    let loops: Vec<_> = p.loops().collect();
    let stmts: Vec<_> = p.stmts().collect();
    let single = (
        0..5usize,
        0..loops.len(),
        0..loops.len(),
        -2..=2i64,
        0..stmts.len(),
    )
        .prop_map(move |(kind, a, b, f, s)| match kind {
            0 => Transform::Interchange(loops[a], loops[b % loops.len().max(1)]),
            1 => Transform::Reverse(loops[a]),
            2 => Transform::Skew {
                target: loops[a],
                source: loops[b % loops.len()],
                factor: f as i128,
            },
            3 => Transform::Scale {
                target: loops[a],
                factor: (f.unsigned_abs() as i128) + 1,
            },
            _ => Transform::Align {
                stmt: stmts[s],
                looop: loops[a],
                offset: f as i128,
            },
        });
    prop::collection::vec(single, 1..3)
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

/// Integer initial values from a wrapping-`i64` mixing function; the
/// `>> 40` keeps magnitudes ≲ 2²³ so every value (and products of a few)
/// is exactly representable in f64.
fn int_init(name: &str, idx: &[usize]) -> f64 {
    let mut h: i64 = name.len() as i64;
    for &i in idx {
        h = h
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as i64)
            .wrapping_add(1442695040888963407);
    }
    ((h >> 40) as f64).max(1.0) // keep pivots nonzero-ish for divisions
}

/// Assert VM ≡ interpreter, bitwise, on `p` under both init regimes.
fn assert_vm_identical(p: &Program, params: &[i128], ctx: &str) -> Result<(), TestCaseError> {
    for (regime, init) in [
        ("frac", &frac_init as &dyn Fn(&str, &[usize]) -> f64),
        ("i64-wrap", &int_init),
    ] {
        let a = run_fresh(p, params, init);
        let mut b = Machine::new(p, params, init);
        VmRunner::new(p).run(&mut b);
        prop_assert!(
            a.same_state(&b).is_ok(),
            "{ctx}: VM differs from interpreter ({regime} init, params {params:?}): {}",
            a.same_state(&b).unwrap_err()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// VM ≡ interpreter on zoo programs at random parameter bindings.
    #[test]
    fn vm_matches_interpreter_on_zoo(
        (p, ns) in arb_zoo().prop_flat_map(|p| {
            let ns = prop::collection::vec(1i64..8, p.nparams());
            (Just(p), ns)
        })
    ) {
        let params: Vec<i128> = ns.iter().map(|&n| n as i128).collect();
        assert_vm_identical(&p, &params, p.name())?;
    }

    /// VM ≡ interpreter on framework-generated variants of zoo programs
    /// under random transformation sequences (whenever the framework
    /// accepts the transformation and generates code).
    #[test]
    fn vm_matches_interpreter_on_transformed_zoo(
        (p, seq, ns) in arb_zoo().prop_flat_map(|p| {
            let t = arb_transforms(&p);
            let ns = prop::collection::vec(1i64..6, p.nparams());
            (Just(p), t, ns)
        })
    ) {
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let Ok(m) = Transform::compose(&p, &layout, &seq) else {
            return Ok(()); // structurally invalid transform
        };
        let Ok(result) = generate(&p, &layout, &deps, &m) else {
            return Ok(()); // rejected as illegal or unsupported: fine
        };
        let params: Vec<i128> = ns.iter().map(|&n| n as i128).collect();
        assert_vm_identical(
            &result.program,
            &params,
            &format!("{} under {seq:?}", p.name()),
        )?;
    }
}

/// The skewed wavefront with its inner loop marked DOALL, as the framework
/// certifies it (§7): every dependence is carried by the outer loop.
fn skewed_wavefront() -> Program {
    let p = zoo::wavefront();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let loops: Vec<_> = p.loops().collect();
    let skew = Transform::Skew {
        target: loops[0],
        source: loops[1],
        factor: 1,
    }
    .matrix(&p, &layout);
    assert_eq!(parallel_slots(&layout, &deps, &skew), [1], "inner DOALL");
    let mut q = generate(&p, &layout, &deps, &skew)
        .expect("codegen")
        .program;
    let inner = q.loops().nth(1).expect("an inner loop");
    assert_eq!(q.loops_surrounding_loop(inner).len(), 1);
    q.set_loop_parallel(inner, true);
    q
}

/// Threads sharing one machine's arrays, bit for bit the interpreter's image
/// at 1, 2, 4 and 8 threads: the skewed wavefront fans out its inner loop
/// once per anti-diagonal; `row_prefix_sums` and `matmul` fan out their
/// outer loop, whose workers run *carried* kernels — `row_prefix_sums` hands
/// `B[I,J−1]` on along each row, `matmul` keeps `C[I,J]` in a register
/// under `K` and stores it once at loop exit instead of once a trip, which
/// the disjoint-cells contract of `SharedBuf` allows.
#[test]
fn parallel_workers_run_carried_kernels_bitwise() {
    let (wavefront, n) = (skewed_wavefront(), 60);
    let reference = run_fresh(&wavefront, &[n], &frac_init);
    let runner = VmRunner::new(&wavefront);
    for threads in [1, 2, 4, 8] {
        let mut m = Machine::new(&wavefront, &[n], &frac_init);
        runner.run_threads(&mut m, threads);
        reference
            .same_state(&m)
            .unwrap_or_else(|e| panic!("skewed wavefront on {threads} threads: {e}"));
    }

    for (make, n) in [
        (zoo::row_prefix_sums as fn() -> Program, 150),
        (zoo::matmul, 40),
    ] {
        let mut p = make();
        let outer = p.loops().next().expect("an outer loop");
        assert_eq!(p.loop_decl(outer).name, "I");
        p.set_loop_parallel(outer, true);
        let reference = run_fresh(&p, &[n], &frac_init);

        // The executor of a loop entry is a function of its addresses, not
        // of the thread that runs it: every innermost trip is carried.
        let mut m = Machine::new(&p, &[n], &frac_init);
        let ((), seen) = inl::obs::capture::with(|| VmRunner::new(&p).run(&mut m));
        let carried = seen.counters.get("vm.trips.carried").copied();
        let innermost = if p.name() == "matmul" {
            n * n * n
        } else {
            n * n
        };
        assert_eq!(carried, Some(innermost as u64), "{}", p.name());
        assert!(!seen.counters.contains_key("vm.trips.dispatch"));

        let runner = VmRunner::new(&p);
        for threads in [1, 2, 4, 8] {
            let mut m = Machine::new(&p, &[n], &frac_init);
            runner.run_threads(&mut m, threads);
            reference
                .same_state(&m)
                .unwrap_or_else(|e| panic!("{} on {threads} threads: {e}", p.name()));
        }
    }
}
