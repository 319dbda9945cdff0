//! The tentpole property: the whole pipeline — dependence analysis,
//! legality, completion, structural operations, sinking, codegen — never
//! panics on input-dependent paths. Every random input must produce
//! either a result or a typed error.
//!
//! Case counts: `INL_FUZZ_CASES` (CI sets 2000 per property); local runs
//! default to a fast smoke count.

use inl_codegen::{generate, PlanTable};
use inl_core::complete::complete_transform;
use inl_core::depend::{analyze, constant_entry, DepEntry};
use inl_core::legal::{check_legal, check_structural, LegalityReport};
use inl_core::recipe::{Shape, Step};
use inl_core::sink::sink_statements;
use inl_core::structural::{distribute, jam};
use inl_core::tiling;
use inl_exec::{equivalent, run_fresh, VmRunner};
use inl_fuzz::{
    analyzed, arb_inner_loop, arb_matrix, arb_program, compile, fuzz_config, fuzz_init, Compiled,
};
use inl_linalg::{IMat, IVec, InlErrorKind};
use inl_poly::{var_bounds, Feasibility, LinExpr};
use proptest::prelude::*;
use proptest::test_runner::{TestRng, TestRunner};

proptest! {
    #![proptest_config(fuzz_config(64))]

    /// Random program × random matrix: depend → legal → codegen returns,
    /// with a typed rejection or a generated program — never a panic.
    #[test]
    fn pipeline_never_panics(
        (p, m) in arb_program().prop_flat_map(|p| {
            let n = inl_core::instance::InstanceLayout::new(&p).len();
            (Just(p), arb_matrix(n, 2))
        }),
    ) {
        match compile(&p, &m) {
            Compiled::Ok(_) | Compiled::Rejected(_) => {}
        }
    }

    /// Differential agreement: whatever compiles runs bitwise identically
    /// under the tree interpreter and the bytecode VM, and — since the
    /// legality gate passed — matches the source program.
    #[test]
    fn compiled_programs_agree(
        (p, m, n) in arb_program().prop_flat_map(|p| {
            let k = inl_core::instance::InstanceLayout::new(&p).len();
            (Just(p), arb_matrix(k, 1), 1i64..5)
        }),
    ) {
        if let Compiled::Ok(result) = compile(&p, &m) {
            let params = [n as i128];
            // source vs generated under the interpreter
            prop_assert_eq!(
                equivalent(&p, &result.program, &params, &fuzz_init).map_err(|e| format!("src vs gen: {e}")),
                Ok(())
            );
            // interpreter vs VM on the generated program
            let mi = run_fresh(&result.program, &params, &fuzz_init);
            let mut mv = inl_exec::Machine::new(&result.program, &params, &fuzz_init);
            VmRunner::new(&result.program).run(&mut mv);
            prop_assert_eq!(
                mi.same_state(&mv).map_err(|e| format!("interp vs vm: {e}")),
                Ok(())
            );
        }
    }

    /// Completion: random partial rows (skews, entries in edge columns,
    /// dependent rows) either complete to a matrix whose report, read off
    /// the completion's walk, is the checker's — the same child
    /// permutations, no violation, the same self-dependences left to
    /// augmentation — or fail with a typed error.
    #[test]
    fn completion_never_panics(
        (p, rows) in arb_program().prop_flat_map(|p| {
            let n = inl_core::instance::InstanceLayout::new(&p).len();
            let row = proptest::collection::vec(0..5usize, n)
                .prop_map(|cs| IVec::from(cs.iter().map(|&c| c as i128 - 2).collect::<Vec<_>>()));
            (Just(p), proptest::collection::vec(row, 1..3))
        }),
    ) {
        let Ok((layout, deps)) = analyzed(&p) else { return Ok(()); };
        if let Ok(c) = complete_transform(&p, &layout, &deps, &rows) {
            let report = check_legal(&p, &layout, &deps, &c.matrix)
                .map_err(|e| TestCaseError::fail(format!("legality after completion: {e}")))?;
            prop_assert!(report.is_legal(), "completion returned an illegal matrix");
            prop_assert!(c.report.violations.is_empty());
            prop_assert_eq!(&c.report.unsatisfied_self, &report.unsatisfied_self);
            let perms = |r: &LegalityReport| r.new_ast.as_ref().ok().map(|a| a.child_perms.clone());
            prop_assert_eq!(perms(&c.report), perms(&report));
        }
    }
}

/// Structural operations: arbitrary (mostly invalid) distribute, jam and
/// split targets report typed `InlError`s, the legality walk decides every
/// valid distribution or jam, the proof of every valid split (strip-mining
/// keeps the source order) finds it legal, and sinking returns a typed
/// error or a program — no panics, no asserts. The loop is split in the
/// source and in each step's target, where a jam may have left it
/// detached. Half the programs are drawn from `arb_inner_loop`, whose
/// inner loop is stepped two times in three, so the split's refusal of a
/// stepped loop is reached in every run.
#[test]
fn structural_ops_never_panic() {
    let mut stepped = 0u64;
    TestRunner::new(fuzz_config(64)).run_cases(|rng| {
        let p = match rng.below(2) {
            0 => arb_inner_loop().generate(rng).0,
            _ => arb_program().generate(rng),
        };
        let (li, split, idx) = (
            rng.below(4) as usize,
            rng.below(4) as usize,
            rng.below(4) as usize,
        );
        let tile = rng.below(42) as i128 - 2;
        let Ok((layout, deps)) = analyzed(&p) else {
            return Ok(());
        };
        let loops: Vec<_> = p.loops().collect();
        let l = loops[li.min(loops.len() - 1)];
        let parent = p.loops_surrounding_loop(l).first().copied();
        let steps = [
            distribute(&p, &layout, l, split),
            jam(&p, &layout, parent, idx),
        ];
        for r in steps.iter().flatten() {
            let _ = check_structural(&p, &layout, &deps, r, "step");
        }
        for q in std::iter::once(&p).chain(steps.iter().flatten().map(|r| &r.target)) {
            match tiling::split(q, l, tile) {
                Ok(r) => {
                    if let Ok(report) = tiling::split_legal(&r) {
                        prop_assert!(report.is_legal(), "{}: split {tile}", p.name());
                    }
                }
                Err(e) => {
                    prop_assert_eq!(e.kind(), InlErrorKind::InvalidTarget, "{}", e);
                    stepped += e.message().contains("cannot split a stepped loop") as u64;
                }
            }
        }
        let _ = sink_statements(&p);
        Ok(())
    });
    assert!(stepped > 0, "no split of a stepped loop was refused");
}

/// Every distribution and jam of a generated program that Definition 6
/// accepts leaves the source's memory image, bit for bit, on the
/// interpreter; both kinds are accepted somewhere, and jams are vetoed too.
#[test]
fn structural_steps_the_walk_accepts_are_equivalent() {
    let mut seen = [[0u64; 2]; 2]; // [distribution, jam] × [vetoed, accepted]
    TestRunner::new(fuzz_config(64)).run_cases(|rng| {
        let p = arb_program().generate(rng);
        let n = 1 + rng.below(5) as i128;
        let Ok(source) = Shape::source(p.clone()) else {
            return Ok(());
        };
        for step in Step::candidates(&p) {
            let shape = source
                .apply(&step)
                .map_err(|e| TestCaseError::fail(format!("{}: {step}: {e}", p.name())))?;
            seen[matches!(step, Step::Jam { .. }) as usize][shape.is_some() as usize] += 1;
            if let Some(shape) = shape {
                prop_assert_eq!(
                    equivalent(&p, &shape.program, &[n], &fuzz_init)
                        .map_err(|e| format!("{} {step} at N = {n}: {e}", p.name())),
                    Ok(())
                );
            }
        }
        Ok(())
    });
    let [dist, jams] = seen;
    assert!(dist[1] > 0 && jams[0] > 0 && jams[1] > 0, "{seen:?}");
}

/// Every distribution and jam of a generated program that Definition 6
/// accepts carries its parent's dependences over (`Shape::apply`): the
/// matrix equals a fresh analysis of the shape's program, columns, order
/// and systems included. Every entry of it, and of the source's, is
/// `constant_entry`'s answer, or else the projection of its Δ over its own
/// system.
#[test]
fn shape_dependences_are_a_fresh_analysis_and_their_projections() {
    let mut mapped = 0u64;
    TestRunner::new(fuzz_config(64)).run_cases(|rng| {
        let p = arb_program().generate(rng);
        let Ok(source) = Shape::source(p.clone()) else {
            return Ok(());
        };
        entries_are_projections(&source, p.name())?;
        for step in Step::candidates(&p) {
            let Ok(Some(shape)) = source.apply(&step) else {
                continue;
            };
            let what = format!("{} {step}", p.name());
            inl_poly::cache::clear();
            let fresh = analyze(&shape.program, &shape.layout)
                .map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
            prop_assert_eq!(&shape.deps, &fresh, "{}", what);
            entries_are_projections(&shape, &what)?;
            mapped += 1;
        }
        Ok(())
    });
    assert!(mapped > 0, "no distribution or jam was accepted");
}

/// The oracle of every entry: `constant_entry`, else the bounds of `t`
/// over the dependence's system extended by `t = expr`. Not `expr_bounds`,
/// which answers a difference entry by shortest paths: this row keeps the
/// oracle on Fourier–Motzkin.
fn entries_are_projections(shape: &Shape, what: &str) -> Result<(), TestCaseError> {
    let nparams = shape.program.nparams();
    for (k, d) in shape.deps.deps.iter().enumerate() {
        let feas = match d.certain {
            true => Feasibility::NonEmpty,
            false => Feasibility::Unknown,
        };
        for (i, &entry) in d.entries.iter().enumerate() {
            let fail = |e| TestCaseError::fail(format!("{what}: dep {k} entry {i}: {e}"));
            let expr = d
                .checked_delta_expr(&shape.layout, nparams, i)
                .map_err(fail)?;
            let want = match constant_entry(&expr, feas) {
                Some(e) => e,
                None => {
                    let n = d.system.nvars();
                    let mut ext = d.system.extend(n + 1);
                    let t = LinExpr::var(n + 1, n);
                    ext.add_eq(t.checked_sub(&expr.extend(n + 1)).map_err(fail)?);
                    let (lo, hi) = var_bounds(&ext, n).map_err(fail)?;
                    DepEntry { lo, hi }
                }
            };
            prop_assert_eq!(entry, want, "{}: dep {} entry {}", what, k, i);
        }
    }
    Ok(())
}

/// The key the scheduler ranks on, read off a leaf's statement plans with
/// nothing built, is what `generate` reports: both `Ok` and equal, field
/// for field, or both an error of the same kind. The leaves, of the source and
/// of every distribution and jam the legality walk accepts: every loop
/// order with random signs, completed; two random partial rows, completed;
/// a random matrix, legal or not. One plan table per shape, so leaves
/// share plans as the scheduler's do, and the table gets them through the
/// plan memo, while `generate` runs with the memos bypassed and makes every
/// plan afresh: a key that left out something its plan reads shows here.
#[test]
fn the_plan_key_is_what_generate_reports() {
    let (mut agreed, mut refused) = (0u64, 0u64);
    TestRunner::new(fuzz_config(64)).run_cases(|rng| {
        let p = arb_program().generate(rng);
        let Ok(source) = Shape::source(p.clone()) else {
            return Ok(());
        };
        let steps = Step::candidates(&p);
        let shapes = steps
            .iter()
            .filter_map(|step| source.apply(step).ok().flatten());
        for shape in std::iter::once(source.clone()).chain(shapes) {
            let (q, layout, deps) = (&shape.program, &shape.layout, &shape.deps);
            let n = layout.len();
            let mut partials: Vec<Vec<IVec>> = Vec::new();
            let loops: Vec<usize> = layout.loops().map(|(pos, _)| pos).collect();
            for order in permutations(&loops) {
                let sign = |pos: usize| match rng.below(2) {
                    0 => IVec::unit(n, pos),
                    _ => -&IVec::unit(n, pos),
                };
                partials.push(order.into_iter().map(sign).collect());
            }
            let cell = |rng: &mut TestRng| rng.below(5) as i128 - 2;
            let row = |rng: &mut TestRng| IVec::from((0..n).map(|_| cell(rng)).collect::<Vec<_>>());
            partials.push(vec![row(rng), row(rng)]);
            let mut leaves: Vec<(IMat, LegalityReport)> = partials
                .iter()
                .filter_map(|rows| complete_transform(q, layout, deps, rows).ok())
                .map(|c| (c.matrix, c.report))
                .collect();
            let m = arb_matrix(n, 2).generate(rng);
            if let Ok(report) = check_legal(q, layout, deps, &m) {
                leaves.push((m, report));
            }
            let mut table = PlanTable::new(q, layout, deps);
            let plans: Vec<Vec<usize>> = leaves.iter().map(|(m, r)| table.intern(m, r)).collect();
            for ((m, report), plans) in leaves.iter().zip(&plans) {
                let what = format!("{} under {m:?}", q.name());
                inl_poly::cache::set_cache_enabled(false);
                let generated = generate(q, layout, deps, m).map(|r| r.features.predicted);
                inl_poly::cache::set_cache_enabled(true);
                match (generated, table.predict(m, report, plans)) {
                    (Ok(generated), Ok(keyed)) => {
                        prop_assert_eq!(keyed, generated, "{}", what);
                        agreed += 1;
                    }
                    (Err(generated), Err(keyed)) => {
                        prop_assert_eq!(keyed.kind(), generated.kind(), "{}: {}", what, keyed);
                        refused += 1;
                    }
                    (generated, keyed) => {
                        let why = format!("{what}: generate {generated:?}, plan key {keyed:?}");
                        return Err(TestCaseError::fail(why));
                    }
                }
            }
        }
        Ok(())
    });
    assert!(
        agreed > 0 && refused > 0,
        "{agreed} agreed, {refused} refused"
    );
}

/// Every order of `items`.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

/// Guard-free inner loops — what the VM enters as trip kernels: a column of
/// trips at a time, around one carried cell, or handed back to the
/// dispatcher, as their address spans allow — leave the interpreter's memory
/// image, bit for bit, and between them take all three ways. `J` is entered
/// once per trip of `I`, by the dispatcher's header; most cases must lower
/// it to a kernel.
#[test]
fn inner_loops_agree_on_both_backends() {
    const LANES: [&str; 3] = ["vm.trips.columns", "vm.trips.carried", "vm.trips.dispatch"];
    let (mut trips, mut cases, mut kernel) = ([0u64; 3], 0u64, 0u64);
    TestRunner::new(fuzz_config(64)).run_cases(|rng| {
        let (p, n) = arb_inner_loop().generate(rng);
        let mi = run_fresh(&p, &[n], &fuzz_init);
        let mut mv = inl_exec::Machine::new(&p, &[n], &fuzz_init);
        let runner = VmRunner::new(&p);
        let ((), seen) = inl_obs::capture::with(|| runner.run(&mut mv));
        for (sum, lane) in trips.iter_mut().zip(LANES) {
            *sum += seen.counters.get(lane).copied().unwrap_or(0);
        }
        cases += 1;
        kernel += runner.compiled().bind(&[n]).kernels[1].is_some() as u64;
        prop_assert_eq!(
            mi.same_state(&mv)
                .map_err(|e| format!("{} at N = {n}: {e}", p.name())),
            Ok(())
        );
        Ok(())
    });
    assert!(trips.iter().all(|&lane| lane > 0), "{LANES:?}: {trips:?}");
    assert!(
        2 * kernel > cases,
        "{kernel} of {cases} lowered J to a kernel"
    );
}
