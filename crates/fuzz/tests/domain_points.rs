//! The point oracle of `inl-core`'s `domain_points.rs` over generated
//! programs: the integer points of every statement's domain, built by
//! `Program::append_domain`, are the iterations the interpreter runs it
//! at. The programs `generate` emits carry `Div` guards, divided bounds and
//! divided subscripts; `arb_inner_loop` makes stepped loops.
//!
//! Case counts: `INL_FUZZ_CASES` (CI sets 2000 per property); local runs
//! default to a fast smoke count.

#[path = "../../core/tests/oracle/domain_points.rs"]
mod oracle;

use inl_fuzz::{arb_inner_loop, arb_matrix, arb_program, compile, fuzz_config, Compiled};
use inl_ir::{Guard, Program};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

fn has_div_guard(p: &Program) -> bool {
    p.stmts().any(|s| {
        p.stmt_decl(s)
            .guards
            .iter()
            .any(|g| matches!(g, Guard::Div(..)))
    })
}

#[test]
fn generated_domains_are_what_the_interpreter_runs() {
    let (mut generated, mut divided) = (0u64, 0u64);
    TestRunner::new(fuzz_config(64)).run_cases(|rng| {
        let p = arb_program().generate(rng);
        let k = inl_core::instance::InstanceLayout::new(&p).len();
        let m = arb_matrix(k, 2).generate(rng);
        let n = (1i64..5).generate(rng) as i128;
        oracle::check_domains(&p, &[n]).map_err(TestCaseError::fail)?;
        if let Compiled::Ok(result) = compile(&p, &m) {
            oracle::check_domains(&result.program, &[n]).map_err(TestCaseError::fail)?;
            generated += 1;
            divided += has_div_guard(&result.program) as u64;
        }
        Ok(())
    });
    assert!(
        divided > 0,
        "none of {generated} generated programs has a Div guard"
    );
}

#[test]
fn stepped_domains_are_what_the_interpreter_runs() {
    let mut stepped = 0u64;
    TestRunner::new(fuzz_config(64)).run_cases(|rng| {
        let (p, n) = arb_inner_loop().generate(rng);
        oracle::check_domains(&p, &[n]).map_err(TestCaseError::fail)?;
        stepped += p.loops().any(|l| p.loop_decl(l).step != 1) as u64;
        Ok(())
    });
    assert!(stepped > 0, "no case has a stepped loop");
}
