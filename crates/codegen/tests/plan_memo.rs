//! The process-wide plan and guard memos behind `inl_codegen::generate`
//! and `PlanTable`: a plan is answered from store only for an equal program
//! and layout, a stored plan generates what a made one does, and both memos
//! live and die with the switch and `clear()` of `inl_poly::cache`, each
//! under a bound on the values it holds over every program.
//!
//! The memo and its counters are process-global, so this is its own test
//! binary and every test holds one lock.

use inl_codegen::{
    generate, generate_with_report, guard_memo_stats, plan_memo_stats, CodegenResult, GUARD_CAP,
    PLAN_CAP,
};
use inl_core::complete::complete_transform;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_core::memo::MemoStats;
use inl_ir::{zoo, Aff, Expr, Program, ProgramBuilder};
use inl_linalg::{IMat, IVec, Int};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Hold the lock; memos on and empty.
fn begin() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    inl_poly::cache::set_cache_enabled(true);
    inl_poly::cache::clear();
    guard
}

/// `(hits, misses)` of the plan memo gained since `before`.
fn gained(before: MemoStats) -> (u64, u64) {
    let now = plan_memo_stats();
    (now.hits - before.hits, now.misses - before.misses)
}

/// `p` under the identity.
fn identity(p: &Program) -> CodegenResult {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    let m = IMat::identity(layout.len());
    generate(p, &layout, &deps, &m).expect("generates")
}

/// `(hits, misses)` of the guard memo gained since `before`.
fn guards_gained(before: MemoStats) -> (u64, u64) {
    let now = guard_memo_stats();
    (now.hits - before.hits, now.misses - before.misses)
}

/// What [`identity`] gives with the memos bypassed: ground truth.
fn bypassed(p: &Program) -> CodegenResult {
    inl_poly::cache::set_cache_enabled(false);
    let before = (plan_memo_stats(), guard_memo_stats());
    let r = identity(p);
    assert_eq!(
        (plan_memo_stats(), guard_memo_stats()),
        before,
        "a bypassed generate touches no memo"
    );
    inl_poly::cache::set_cache_enabled(true);
    r
}

fn same(a: &CodegenResult, b: &CodegenResult) -> bool {
    a.program == b.program && a.stmt_map == b.stmt_map && a.features == b.features
}

/// `zoo::simple_cholesky` with `J` running from `I + j_from`.
fn cholesky(j_from: Int) -> Program {
    let mut b = ProgramBuilder::new("simple_cholesky");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        let rhs = Expr::sqrt(Expr::read(a, vec![Aff::var(i)]));
        b.stmt("S1", a, vec![Aff::var(i)], rhs);
        b.hloop("J", Aff::var(i) + Aff::konst(j_from), Aff::param(n), |b| {
            let j = b.loop_var("J");
            let rhs = Expr::div(
                Expr::read(a, vec![Aff::var(j)]),
                Expr::read(a, vec![Aff::var(i)]),
            );
            b.stmt("S2", a, vec![Aff::var(j)], rhs);
        });
    });
    b.finish()
}

#[test]
fn two_programs_differing_in_one_bound_never_share_a_plan() {
    let _g = begin();
    let base = cholesky(1);
    assert_eq!(base, zoo::simple_cholesky(), "the knob at rest is the zoo");
    let before = plan_memo_stats();
    let first = identity(&base);
    assert_eq!(gained(before), (0, 2), "cold: both statements' plans made");
    // the same rows of `M` for both statements, one bound apart
    let edited = cholesky(2);
    let before = plan_memo_stats();
    let other = identity(&edited);
    assert_eq!(gained(before), (0, 2), "an edited program makes its own");
    assert!(same(&other, &bypassed(&edited)));
    assert!(!same(&other, &first), "the bound shows in the code");
    // an equal program built again shares them
    let before = plan_memo_stats();
    let again = identity(&cholesky(1));
    assert_eq!(gained(before), (2, 0));
    assert!(same(&again, &first));
}

#[test]
fn a_completions_report_generates_what_a_checked_matrix_does() {
    let _g = begin();
    for (name, build) in zoo::ALL {
        let p = build();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        // the loops innermost first
        let mut loops: Vec<_> = p.loops().collect();
        loops.reverse();
        let rows: Vec<IVec> = loops
            .iter()
            .map(|&l| IVec::unit(layout.len(), layout.loop_position(l)))
            .collect();
        let Ok(c) = complete_transform(&p, &layout, &deps, &rows) else {
            continue;
        };
        let checked = generate(&p, &layout, &deps, &c.matrix);
        let reported = generate_with_report(&p, &layout, &deps, &c.matrix, &c.report);
        match (checked, reported) {
            (Ok(a), Ok(b)) => assert!(same(&a, &b), "{name}"),
            (a, b) => assert_eq!(
                a.err().map(|e| e.kind()),
                b.err().map(|e| e.kind()),
                "{name}"
            ),
        }
    }
}

#[test]
fn clear_empties_and_the_switch_bypasses_the_plan_memo() {
    let _g = begin();
    let p = zoo::lu_kij();
    let truth = bypassed(&p);
    let (before, guards_before) = (plan_memo_stats(), guard_memo_stats());
    assert!(same(&identity(&p), &truth));
    let (_, made) = gained(before);
    assert!(made > 0);
    assert_eq!(plan_memo_stats().entries, made);
    assert_eq!(
        guards_gained(guards_before),
        (0, made),
        "one proof a statement"
    );
    assert_eq!(guard_memo_stats().entries, made);
    assert!(same(&identity(&p), &truth));
    assert_eq!(gained(before), (made, made), "warm: every plan found");
    assert_eq!(
        guards_gained(guards_before),
        (made, made),
        "and every proof"
    );
    inl_poly::cache::clear();
    assert_eq!(
        (plan_memo_stats().entries, guard_memo_stats().entries),
        (0, 0),
        "clear() empties the plan and guard memos"
    );
    let (before, guards_before) = (plan_memo_stats(), guard_memo_stats());
    assert!(same(&identity(&p), &truth));
    assert_eq!(gained(before), (0, made), "clear() forces every plan again");
    assert_eq!(guards_gained(guards_before), (0, made), "and every proof");
}

/// One statement, `A(I) = A(I - k) + 1`: a distinct program, and so a
/// distinct plan, per `k`.
fn recurrence(k: Int) -> Program {
    let mut b = ProgramBuilder::new("recurrence");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        let rhs = Expr::add(
            Expr::read(a, vec![Aff::var(i) - Aff::konst(k)]),
            Expr::konst(1.0),
        );
        b.stmt("S", a, vec![Aff::var(i)], rhs);
    });
    b.finish()
}

// One statement a program below: a proof per plan, and both memos flush
// at once.
const _: () = assert!(GUARD_CAP == PLAN_CAP);

#[test]
fn the_plan_memo_is_bounded_over_every_program() {
    let _g = begin();
    let guards_before = guard_memo_stats();
    let before = plan_memo_stats();
    let first = identity(&recurrence(0));
    for k in 1..PLAN_CAP as Int {
        identity(&recurrence(k));
    }
    let full = plan_memo_stats();
    assert_eq!(full.entries, PLAN_CAP as u64, "one plan per program");
    assert_eq!(full.evictions, before.evictions, "no flush below the cap");
    assert_eq!(gained(before), (0, PLAN_CAP as u64));

    // One more program's plan: the whole generation goes, it stays.
    let over = recurrence(PLAN_CAP as Int);
    let made = identity(&over);
    let flushed = plan_memo_stats();
    assert_eq!(flushed.entries, 1);
    assert_eq!(flushed.evictions, before.evictions + PLAN_CAP as u64);
    let guards = guard_memo_stats();
    assert_eq!(guards.entries, 1);
    assert_eq!(guards.evictions, guards_before.evictions + GUARD_CAP as u64);
    assert!(same(&made, &bypassed(&over)));
    assert!(same(&identity(&over), &made));
    assert_eq!(gained(flushed), (1, 0), "the newcomer is stored");
    // A flushed program's plan is made again, to the same code.
    let before = plan_memo_stats();
    assert!(same(&identity(&recurrence(0)), &first));
    assert_eq!(gained(before), (0, 1));
}
