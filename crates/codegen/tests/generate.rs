//! Code generation tests: every generated program is *executed* and its
//! final state compared bitwise against the source program's — the
//! strongest check a legal transformation admits.

use inl_codegen::{generate, generate_seq, PlanTable};
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_core::transform::Transform;
use inl_exec::equivalent;
use inl_ir::zoo::{self, spd_init};
use inl_ir::{LoopId, Program, StmtId};
use inl_linalg::IMat;

fn looop(p: &Program, name: &str) -> LoopId {
    p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
}
fn stmt(p: &Program, name: &str) -> StmtId {
    p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
}

/// Generate for a matrix and check execution equivalence at several sizes.
fn check_matrix(p: &Program, m: &IMat, init: &dyn Fn(&str, &[usize]) -> f64) -> Program {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    let result = generate(p, &layout, &deps, m).expect("codegen succeeds");
    for n in [1, 2, 3, 5, 8] {
        equivalent(p, &result.program, &[n], init).unwrap_or_else(|e| {
            panic!(
                "N={n}: {e}\nsource:\n{}\ntarget:\n{}",
                p.to_pseudocode(),
                result.program.to_pseudocode()
            )
        });
    }
    result.program
}

#[test]
fn identity_reproduces_source() {
    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let m = IMat::identity(layout.len());
    let t = check_matrix(&p, &m, &spd_init);
    // same loop structure
    assert_eq!(t.loops().count(), 2);
    assert_eq!(t.stmts().count(), 2);
}

#[test]
fn paper_section5_skew_example() {
    // §5.4/5.5: skew I by -J on the augmentation example. S1 collapses to
    // the first outer iteration and receives an extra loop; the generated
    // code must execute identically.
    let p = zoo::augmentation_example();
    let m = Transform::Skew {
        target: looop(&p, "I"),
        source: looop(&p, "J"),
        factor: -1,
    };
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let mat = m.matrix(&p, &layout);
    let result = generate(&p, &layout, &deps, &mat).expect("codegen");
    let t = &result.program;
    // S1 gained exactly one augmented loop: it is now nested in 2 loops
    let s1_new = result.stmt_map[stmt(&p, "S1").0];
    assert_eq!(t.loops_surrounding(s1_new).len(), 2);
    // the paper's generated outer loop runs 1-N..0
    for n in [1, 2, 3, 6] {
        equivalent(&p, t, &[n], &|_, _| 0.25).unwrap_or_else(|e| {
            panic!("N={n}: {e}\n{}", t.to_pseudocode());
        });
    }
}

#[test]
fn left_looking_cholesky_codegen() {
    // §6's headline: the completed left-looking matrix generates code that
    // computes the same factorization bitwise.
    let p = zoo::cholesky_kij();
    let c = IMat::from_rows(&[
        &[0, 0, 0, 0, 0, 1, 0][..],
        &[0, 0, 1, 0, 0, 0, 0],
        &[0, 0, 0, 1, 0, 0, 0],
        &[0, 1, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 1, 0, 0],
        &[1, 0, 0, 0, 0, 0, 0],
        &[0, 0, 0, 0, 0, 0, 1],
    ]);
    let t = check_matrix(&p, &c, &spd_init);
    // statement order in the generated program is S3, S1, S2
    let names: Vec<String> = t
        .stmts_in_syntactic_order()
        .iter()
        .map(|&s| t.stmt_decl(s).name.clone())
        .collect();
    assert_eq!(names, vec!["S3", "S1", "S2"]);
}

#[test]
fn simple_cholesky_left_looking_via_transforms() {
    // reorder children + interchange on the 2-loop Cholesky fragment
    let p = zoo::simple_cholesky();
    let i = looop(&p, "I");
    let j = looop(&p, "J");
    let result = generate_seq(
        &p,
        &[
            Transform::ReorderChildren {
                parent: Some(i),
                perm: vec![1, 0],
            },
            Transform::Interchange(i, j),
        ],
    )
    .expect("codegen");
    for n in [1, 2, 3, 7] {
        equivalent(&p, &result.program, &[n], &spd_init).unwrap_or_else(|e| {
            panic!("N={n}: {e}\n{}", result.program.to_pseudocode());
        });
    }
}

#[test]
fn wavefront_skew_codegen() {
    // skew outer by inner: classic wavefront schedule; executed identically
    let p = zoo::wavefront();
    let i = looop(&p, "I");
    let j = looop(&p, "J");
    let result = generate_seq(
        &p,
        &[Transform::Skew {
            target: i,
            source: j,
            factor: 1,
        }],
    )
    .expect("codegen");
    let init = |_: &str, idx: &[usize]| {
        if idx[0] == 0 || idx[1] == 0 {
            1.0
        } else {
            0.0
        }
    };
    for n in [1, 2, 3, 6] {
        equivalent(&p, &result.program, &[n], &init).unwrap_or_else(|e| {
            panic!("N={n}: {e}\n{}", result.program.to_pseudocode());
        });
    }
}

#[test]
fn reversal_of_parallel_dimension() {
    // in the independent_pair program the loop carries nothing: reversal
    // is legal and must still execute identically
    let p = zoo::independent_pair();
    let i = p.loops().next().unwrap();
    let result = generate_seq(&p, &[Transform::Reverse(i)]).expect("codegen");
    for n in [1, 2, 5] {
        equivalent(&p, &result.program, &[n], &|_, _| 0.0).unwrap_or_else(|e| {
            panic!("N={n}: {e}\n{}", result.program.to_pseudocode());
        });
    }
}

#[test]
fn scaling_generates_divisibility_guards() {
    // scaling a loop by 2 is non-unimodular: the generated loop ranges
    // over the scaled space with divisibility guards; execution identical
    let p = zoo::independent_pair();
    let i = p.loops().next().unwrap();
    let result = generate_seq(
        &p,
        &[Transform::Scale {
            target: i,
            factor: 2,
        }],
    )
    .expect("codegen");
    let t = &result.program;
    let has_div_guard = t.stmts().any(|s| {
        t.stmt_decl(s)
            .guards
            .iter()
            .any(|g| matches!(g, inl_ir::Guard::Div(_, _)))
    });
    assert!(
        has_div_guard,
        "expected divisibility guards:\n{}",
        t.to_pseudocode()
    );
    for n in [1, 2, 5] {
        equivalent(&p, t, &[n], &|_, _| 0.0).unwrap_or_else(|e| {
            panic!("N={n}: {e}\n{}", t.to_pseudocode());
        });
    }
}

#[test]
fn illegal_matrix_rejected() {
    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let rev = Transform::Reverse(looop(&p, "I")).matrix(&p, &layout);
    let e = generate(&p, &layout, &deps, &rev).expect_err("illegal");
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::Infeasible);
    assert!(e.message().contains("projected entry 0 is negative"), "{e}");
}

#[test]
fn alignment_codegen() {
    // align S1 backward by -1 w.r.t. I — wait, that moves each sqrt one
    // outer iteration earlier, which breaks the S2@(I-1,·)→S1@I chain?
    // A(I) is written by S2@(i, I) for i < I; S1@I must come after all of
    // them. Aligned to slot I-1, S1@I runs during outer value I-1 ≥ i…
    // only i ≤ I-1 — the latest is S2@(I-1, I) at outer I-1, same slot;
    // child order: S1 comes before the J loop, so S1@I would run before
    // S2@(I-1, I): illegal. Verify the generator agrees, then use the
    // legal direction on an independent program.
    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let s1 = stmt(&p, "S1");
    let i = looop(&p, "I");
    let m = Transform::Align {
        stmt: s1,
        looop: i,
        offset: -1,
    }
    .matrix(&p, &layout);
    assert!(
        generate(&p, &layout, &deps, &m).is_err(),
        "backward alignment of the pivot must be illegal"
    );

    // alignment on independent statements is always legal
    let q = zoo::independent_pair();
    let qs1 = stmt(&q, "S1");
    let qi = q.loops().next().unwrap();
    let result = generate_seq(
        &q,
        &[Transform::Align {
            stmt: qs1,
            looop: qi,
            offset: 3,
        }],
    )
    .expect("codegen");
    for n in [1, 4, 7] {
        equivalent(&q, &result.program, &[n], &|_, _| 0.0).unwrap_or_else(|e| {
            panic!("N={n}: {e}\n{}", result.program.to_pseudocode());
        });
    }
}

#[test]
fn lu_identity_and_interchange() {
    // LU: identity works; interchanging the two independent I loops'…
    // actually interchange K with inner loops is illegal; test identity +
    // a legal inner interchange (I2 and J of the update loop: both carry
    // nothing between themselves)
    let p = zoo::lu_kij();
    let layout = InstanceLayout::new(&p);
    let m = IMat::identity(layout.len());
    check_matrix(&p, &m, &spd_init);
    let i2 = looop(&p, "I2");
    let j = looop(&p, "J");
    let result = generate_seq(&p, &[Transform::Interchange(i2, j)]).expect("codegen");
    for n in [1, 2, 3, 6] {
        equivalent(&p, &result.program, &[n], &spd_init).unwrap_or_else(|e| {
            panic!("N={n}: {e}\n{}", result.program.to_pseudocode());
        });
    }
}

#[test]
fn generated_pseudocode_matches_paper_shape() {
    // the §5.5 generated code: outer loop 1-N..0 with S2's skewed nest and
    // S1 guarded at outer == 0 under an extra loop
    let p = zoo::augmentation_example();
    let result = generate_seq(
        &p,
        &[Transform::Skew {
            target: looop(&p, "I"),
            source: looop(&p, "J"),
            factor: -1,
        }],
    )
    .expect("codegen");
    let code = result.program.to_pseudocode();
    // the outer loop's bounds include 1-N (lower) and 0 (upper)
    assert!(
        code.contains("1..") || code.contains("- N") || code.contains("-N"),
        "{code}"
    );
    // S1 sits under a guard (its outer position is pinned to 0)
    let s1_new = result.stmt_map[stmt(&p, "S1").0];
    let t = &result.program;
    let has_eq_guard =
        !t.stmt_decl(s1_new).guards.is_empty() || t.loops_surrounding(s1_new).len() > 1;
    assert!(has_eq_guard, "{code}");
}

#[test]
fn infeasible_domain_degrades_to_typed_error() {
    // A guard that contradicts the loop bounds (i >= 1 vs i <= 0) makes the
    // statement's iteration polyhedron empty. A non-unimodular schedule
    // (scaling) forces real Fourier-Motzkin combination, which detects the
    // contradiction mid-projection. Codegen must surface a typed error --
    // never a panic -- on this input-dependent path.
    use inl_ir::{Aff, Expr, ProgramBuilder};
    let mut b = ProgramBuilder::new("emptydom");
    let n = b.param("N");
    let x = b.array(
        "X",
        &[Aff::param(n) + Aff::konst(2), Aff::param(n) + Aff::konst(2)],
    );
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt_guarded(
                "S1",
                x,
                vec![Aff::var(i), Aff::var(j)],
                Expr::index(Aff::var(i)),
                vec![inl_ir::Guard::Ge(Aff::konst(0) - Aff::var(i))],
            );
        });
    });
    let p = b.finish();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let mut m = IMat::identity(layout.len());
    m[(0, 0)] = 2;
    m[(1, 1)] = 2;
    let e = generate(&p, &layout, &deps, &m).expect_err("unbounded");
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed);
    assert!(e.message().starts_with("loop slot "), "{e}");
    assert!(e.message().ends_with(" has no bound on one side"), "{e}");
}

#[test]
fn a_stepped_source_loop_is_unsupported() {
    use inl_ir::{Aff, Bound, Expr, ProgramBuilder};
    use inl_linalg::InlErrorKind;
    let mut b = ProgramBuilder::new("stepped");
    let n = b.param("N");
    let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
    let (lo, hi) = (Bound::single(Aff::konst(1)), Bound::single(Aff::param(n)));
    b.loop_full("I", lo, hi, 2, false, |b| {
        let i = b.loop_var("I");
        b.stmt("S1", x, vec![Aff::var(i)], Expr::konst(1.0));
    });
    let p = b.finish();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let e = generate(&p, &layout, &deps, &IMat::identity(layout.len())).expect_err("stepped");
    assert_eq!(e.kind(), InlErrorKind::Unsupported);
    assert_eq!(e.message(), "loop I: non-unit steps unsupported by codegen");
}

#[test]
fn the_plan_key_is_what_generate_reports() {
    // the scheduler ranks on the key read off the statement plans, nothing
    // built, and trusts it to be what `generate` would report: guard
    // simplification may not move the predicted cost, whether it drops
    // every guard (identity), most of them (interchanges, skew) or has to
    // keep some (scaling), with or without augmented loops
    let mut checked = 0;
    let mut check = |p: &Program, m: &IMat| {
        let layout = InstanceLayout::new(p);
        let deps = analyze(p, &layout).expect("analysis");
        let report = inl_core::legal::check_legal(p, &layout, &deps, m).expect("legality");
        let mut table = PlanTable::new(p, &layout, &deps);
        let plans = table.intern(m, &report);
        let ranked_on = table.predict(m, &report, &plans).expect("ranks");
        let whole = generate(p, &layout, &deps, m).expect("generates");
        assert_eq!(ranked_on, whole.features.predicted, "{}", p.name());
        checked += 1;
    };
    for &(_, ctor) in zoo::ALL {
        let p = ctor();
        check(&p, &IMat::identity(InstanceLayout::new(&p).len()));
    }
    let p = zoo::wavefront();
    let layout = InstanceLayout::new(&p);
    let (i, j) = (looop(&p, "I"), looop(&p, "J"));
    let skew = Transform::Skew {
        target: i,
        source: j,
        factor: 1,
    };
    check(&p, &skew.matrix(&p, &layout));
    let p = zoo::independent_pair();
    let layout = InstanceLayout::new(&p);
    let scale = Transform::Scale {
        target: p.loops().next().unwrap(),
        factor: 2,
    };
    check(&p, &scale.matrix(&p, &layout));
    let p = zoo::lu_kij();
    let layout = InstanceLayout::new(&p);
    let swap = Transform::Interchange(looop(&p, "I2"), looop(&p, "J"));
    check(&p, &swap.matrix(&p, &layout));
    // §5.4's skew, which gives S1 an augmented loop
    let p = zoo::augmentation_example();
    let layout = InstanceLayout::new(&p);
    let skew = Transform::Skew {
        target: looop(&p, "I"),
        source: looop(&p, "J"),
        factor: -1,
    };
    check(&p, &skew.matrix(&p, &layout));
    assert_eq!(checked, zoo::ALL.len() + 4);
}
