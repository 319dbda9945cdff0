//! `Program::append_domain` is the one definition of a statement's
//! iteration domain, for dependence analysis, code generation and sinking.
//! Its integer points must be exactly the iterations the interpreter runs
//! the statement at, and what it cannot model must be a typed error.

#[path = "oracle/domain_points.rs"]
mod oracle;

use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_ir::{zoo, Aff, Bound, Expr, Guard, Program, ProgramBuilder};
use inl_linalg::InlErrorKind;

#[test]
fn every_zoo_domain_is_what_the_interpreter_runs() {
    for (name, build) in zoo::ALL {
        let p = build();
        let params = if p.nparams() == 2 {
            vec![4, 5]
        } else {
            vec![4]
        };
        let checked = oracle::check_domains(&p, &params).unwrap_or_else(|e| panic!("{e}"));
        assert!(checked > 0, "{name} ran nothing");
    }
}

/// `do I = 1..N step 2 { S1; do J = I..N { if 3 | I + J: S2 } }`, with `lo`
/// as I's lower bound.
fn stepped(lo: Bound) -> Program {
    let mut b = ProgramBuilder::new("stepped");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    let c = b.array("C", &[Aff::param(n) + Aff::konst(1)]);
    b.loop_full("I", lo, Bound::single(Aff::param(n)), 2, false, |b| {
        let i = b.loop_var("I");
        b.stmt("S1", a, vec![Aff::var(i)], Expr::konst(1.0));
        b.hloop("J", Aff::var(i), Aff::param(n), |b| {
            let j = b.loop_var("J");
            let guard = Guard::Div(Aff::var(i) + Aff::var(j), 3);
            b.stmt_guarded("S2", c, vec![Aff::var(j)], Expr::konst(2.0), vec![guard]);
        });
    });
    b.finish()
}

#[test]
fn a_step_and_a_divisibility_guard_are_what_the_interpreter_runs() {
    let p = stepped(Bound::single(Aff::konst(1)));
    for n in 1..=7 {
        oracle::check_domains(&p, &[n]).unwrap_or_else(|e| panic!("{e}"));
    }
    // I ∈ {1, 3, 5, 7}, and 3 | I + J picks 5 of the 16 (I, J) with J ≥ I
    assert_eq!(oracle::check_domains(&p, &[7]), Ok(4 + 5));
}

#[test]
fn a_step_over_a_max_lower_bound_is_unsupported() {
    let lower = Bound {
        terms: vec![Aff::konst(1), Aff::konst(2)],
    };
    let p = stepped(lower);
    let err = analyze(&p, &InstanceLayout::new(&p)).expect_err("a typed error");
    assert_eq!(err.kind(), InlErrorKind::Unsupported);
    assert_eq!(
        err.message(),
        "loop I: non-unit step with a max/divided lower bound"
    );
}
