//! Difference systems — every row `±x + k` or `x − y + k` — are answered
//! by shortest paths before canonicalization and the query cache. On
//! random ones (inequalities and equalities, parameters, negative cycles,
//! unbounded sides) `is_empty` and `expr_bounds` must give exactly what
//! Fourier–Motzkin gives, and what enumerating a small box gives; any
//! other system, and any query on one the path turns down, must be
//! answered by elimination without the path's counter moving.
//!
//! Two more entries take the same systems: `project_scan`, which runs
//! elimination's steps on compact rows and must return the terms
//! `scan_bounds` of `fm::project` returns, in their order, and
//! `difference::Closure`, whose guard verdicts must be `is_empty`'s.

use inl_linalg::Int;
use inl_poly::difference::Closure;
use inl_poly::{
    cache, expr_bounds, fm, is_empty, project_scan, scan_bounds, var_bounds, Feasibility, LinExpr,
    System, VarBounds,
};
use proptest::prelude::*;
use std::sync::Mutex;

const NVARS: usize = 3;

/// The largest constant [`diff_system`] writes: the box bound.
const K: Int = 3;

/// Telemetry is process-global, and the counter assertions below need the
/// only queries between two reads to be their own.
static OBS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|e| e.into_inner())
}

fn v(i: usize) -> LinExpr {
    LinExpr::var(NVARS, i)
}

fn k(c: Int) -> LinExpr {
    LinExpr::constant(NVARS, c)
}

/// A random difference row: `x_p − x_q + c` with `p, q` a variable or the
/// constant (index `NVARS`), never both the constant.
fn diff_row() -> impl Strategy<Value = LinExpr> {
    (0..=NVARS, 0..=NVARS, -2i64..=2).prop_map(|(p, q, c)| {
        let term = |i: usize| if i == NVARS { k(0) } else { v(i) };
        let (p, q) = if p == q { (p, NVARS) } else { (p, q) };
        let q = if p == NVARS && q == NVARS { 0 } else { q };
        term(p) - term(q) + k(c as Int)
    })
}

/// A random difference system: inequalities, at most one equality, and
/// `−b ≤ x ≤ b` on each variable with odds 3 in 4; variable 0 reads as a
/// parameter when it is left unboxed.
fn diff_system() -> impl Strategy<Value = (System, bool)> {
    (
        prop::collection::vec(diff_row(), 0..6),
        prop::collection::vec(diff_row(), 0..2),
        prop::collection::vec(0u8..4, NVARS),
        1i64..=K as i64,
    )
        .prop_map(|(ges, eqs, boxed, b)| {
            let mut s = System::new(NVARS);
            for (i, _) in boxed.iter().enumerate().filter(|(_, &on)| on > 0) {
                s.add_ge(v(i) + k(b as Int));
                s.add_ge(k(b as Int) - v(i));
            }
            for e in ges {
                s.add_ge(e);
            }
            for e in eqs {
                s.add_eq(e);
            }
            (s, boxed.iter().all(|&on| on > 0))
        })
}

/// Elimination's verdict: the chain onto no variable, which `is_empty`'s
/// elimination follows, is exact on a difference system.
fn fm_verdict(s: &System) -> Feasibility {
    let (end, exact) = fm::project(s, &[]).expect("small systems cannot overflow");
    match (end.is_trivially_empty(), exact) {
        (true, _) => Feasibility::Empty,
        (false, true) => Feasibility::NonEmpty,
        (false, false) => Feasibility::Unknown,
    }
}

/// Elimination's bounds of `expr`: `var_bounds` of `t` over the system
/// extended by `t = expr`, a three-variable row the path never takes.
fn fm_bounds(s: &System, expr: &LinExpr) -> (Option<Int>, Option<Int>) {
    let n = s.nvars();
    let mut ext = s.extend(n + 1);
    ext.add_eq(LinExpr::var(n + 1, n) - expr.extend(n + 1));
    var_bounds(&ext, n).expect("small systems cannot overflow")
}

/// The integer points of `s` in `[−r, r]^NVARS`.
fn points(s: &System, r: Int) -> Vec<[Int; NVARS]> {
    let span = -r..=r;
    let mut out = Vec::new();
    for a in span.clone() {
        for b in span.clone() {
            for c in span.clone() {
                if s.contains(&[a, b, c]) {
                    out.push([a, b, c]);
                }
            }
        }
    }
    out
}

fn counter(name: &'static str) -> u64 {
    inl_obs::counter(name).get()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Feasibility is elimination's verdict and the box's: a feasible
    /// difference system with constants of at most `K` has a point within
    /// `NVARS · K` of the origin (shortest paths have at most `NVARS`
    /// edges), so the box decides.
    #[test]
    fn feasibility_is_eliminations_and_the_boxes((s, _) in diff_system()) {
        let _g = lock();
        let got = is_empty(&s);
        prop_assert_eq!(got, fm_verdict(&s), "{:?}", s);
        let found = !points(&s, NVARS as Int * K).is_empty();
        prop_assert_eq!(got == Feasibility::NonEmpty, found, "{:?}", s);
    }

    /// Bounds are elimination's, unbounded sides included; over a system
    /// that boxes every variable they are the box's extremes.
    #[test]
    fn bounds_are_eliminations_and_the_boxes(
        (s, all_boxed) in diff_system(),
        e in diff_row(),
    ) {
        let _g = lock();
        let got = expr_bounds(&s, &e).expect("small systems cannot overflow");
        prop_assert_eq!(got, fm_bounds(&s, &e), "{:?} over {:?}", e, s);
        let feasible = is_empty(&s) == Feasibility::NonEmpty;
        if all_boxed && feasible {
            let values: Vec<Int> = points(&s, K).iter().map(|x| e.eval(x)).collect();
            let want = (values.iter().min().copied(), values.iter().max().copied());
            prop_assert_eq!(got, want, "{:?} over {:?}", e, s);
        }
    }
}

/// `1 ≤ i ≤ N`, `i < j ≤ N`, `i' = i`: the paper's §3 shape.
fn triangle() -> System {
    let mut s = System::new(NVARS);
    s.add_ge(v(1) - k(1));
    s.add_ge(v(0) - v(1));
    s.add_ge(v(2) - v(1) - k(1));
    s.add_ge(v(0) - v(2));
    s
}

#[test]
fn a_difference_query_skips_elimination_and_the_cache() {
    let _g = lock();
    inl_obs::set_enabled(true);
    cache::clear();
    let s = triangle();
    let (answers, elims, lookups) = (
        counter("poly.difference.answers"),
        counter("poly.fm.eliminations"),
        cache::stats().hits + cache::stats().misses,
    );
    assert_eq!(is_empty(&s), Feasibility::NonEmpty);
    assert_eq!(expr_bounds(&s, &(v(2) - v(1))), Ok((Some(1), None)));
    assert_eq!(expr_bounds(&s, &(k(4) - v(0))), Ok((None, Some(2))));
    assert_eq!(counter("poly.difference.answers"), answers + 3);
    assert_eq!(counter("poly.fm.eliminations"), elims);
    assert_eq!(cache::stats().hits + cache::stats().misses, lookups);
}

#[test]
fn a_negative_cycle_is_empty() {
    let _g = lock();
    // j ≥ i + 1 and i ≥ j, each within 1 ≤ · ≤ N
    let mut s = triangle();
    s.add_ge(v(1) - v(2));
    assert_eq!(is_empty(&s), Feasibility::Empty);
    assert_eq!(fm_verdict(&s), Feasibility::Empty);
    // An equality closes a cycle too: i = j + 1 against j ≥ i + 1.
    let mut t = triangle();
    t.add_eq(v(1) - v(2) - k(1));
    assert_eq!(is_empty(&t), Feasibility::Empty);
}

/// Systems outside the path — a non-unit coefficient, a three-variable
/// row, two variables of one sign, a constant past `2^40`, more variables
/// than the inequality budget allows — and bounds the path turns down on a
/// difference system — an entry constant past `2^40`, an infeasible
/// system — are answered by elimination (it eliminates, on a cold cache)
/// and the path's counter stays put.
#[test]
fn anything_else_is_answered_by_elimination() {
    let _g = lock();
    inl_obs::set_enabled(true);
    let wide: Int = 1 << 41;
    // (what, system, entry, whether the system itself is outside the path)
    let mut cases: Vec<(&str, System, LinExpr, bool)> = Vec::new();
    for (what, row) in [
        ("non-unit", v(0) * 2 - v(1)),
        ("three variables", v(0) - v(1) - v(2) + k(4)),
        ("same sign", v(0) + v(1)),
        ("wide constant", v(0) - v(1) + k(wide)),
    ] {
        let mut s = triangle();
        s.add_ge(row);
        cases.push((what, s, v(2) - v(1), true));
    }
    cases.push(("wide entry", triangle(), v(2) - v(1) + k(wide), false));
    let mut infeasible = triangle();
    infeasible.add_ge(v(1) - v(2));
    cases.push(("infeasible", infeasible, v(2) - v(1), false));
    // x_{i+1} ≥ x_i over 17 variables: 17·18 directions is past the budget.
    let n = 17;
    let mut chain = System::new(n);
    for i in 0..n - 1 {
        chain.add_ge(LinExpr::var(n, i + 1) - LinExpr::var(n, i));
    }
    let last = LinExpr::var(n, n - 1) - LinExpr::var(n, 0);
    cases.push(("17 variables", chain, last, true));

    for (what, s, e, outside) in cases {
        cache::clear();
        let (answers, elims) = (
            counter("poly.difference.answers"),
            counter("poly.fm.eliminations"),
        );
        let feas = outside.then(|| is_empty(&s));
        let bounds = expr_bounds(&s, &e);
        assert_eq!(counter("poly.difference.answers"), answers, "{what}");
        assert!(counter("poly.fm.eliminations") > elims, "{what}");
        if s.nvars() == NVARS {
            if let Some(feas) = feas {
                assert_eq!(feas, fm_verdict(&s), "{what}");
            }
            assert_eq!(bounds, Ok(fm_bounds(&s, &e)), "{what}");
        }
    }
}

/// Variables of the systems the scan oracle draws.
const WIDE: usize = 6;

/// A random difference row over [`WIDE`] variables: `x_p − x_q + c`, `p`
/// or `q` the constant at index `WIDE`.
fn wide_row() -> impl Strategy<Value = LinExpr> {
    (0..=WIDE, 0..=WIDE, -3i64..=3).prop_map(|(p, q, c)| {
        let term = |i: usize| match i == WIDE {
            true => LinExpr::constant(WIDE, 0),
            false => LinExpr::var(WIDE, i),
        };
        let (p, q) = if p == q { (p, WIDE) } else { (p, q) };
        let q = if p == WIDE && q == WIDE { 0 } else { q };
        term(p) - term(q) + LinExpr::constant(WIDE, c as Int)
    })
}

/// A plan-shaped query: a difference system (small constants over few
/// variables, so dominated rows and rows that elimination duplicates are
/// common, and equalities that chain into substitutions), the variables
/// it is projected onto, and a loop order over some of them. Each
/// variable is eliminated, kept as a parameter or kept as a loop.
fn scan_case() -> impl Strategy<Value = (System, Vec<usize>, Vec<usize>)> {
    (
        prop::collection::vec(wide_row(), 0..12),
        prop::collection::vec(wide_row(), 0..4),
        prop::collection::vec(0u8..3, WIDE),
        prop::collection::vec(0u64..1000, WIDE),
    )
        .prop_map(|(ges, eqs, roles, rank)| {
            let mut s = System::new(WIDE);
            for e in ges {
                s.add_ge(e);
            }
            for e in eqs {
                s.add_eq(e);
            }
            let keep: Vec<usize> = (0..WIDE).filter(|&v| roles[v] > 0).collect();
            let mut order: Vec<usize> = (0..WIDE).filter(|&v| roles[v] == 2).collect();
            order.sort_by_key(|&v| rank[v]);
            (s, keep, order)
        })
}

/// Elimination's scan: `scan_bounds` of the cached projection.
fn fm_scan(
    s: &System,
    keep: &[usize],
    order: &[usize],
) -> Result<Vec<VarBounds>, inl_poly::InlError> {
    let (projected, _) = fm::project(s, keep)?;
    scan_bounds(&projected, order)
}

/// `project_scan` of a difference system: the row path answers (its
/// counter moves by one, elimination's does not) with elimination's terms
/// in elimination's order, lowers and uppers.
fn assert_row_scan(s: &System, keep: &[usize], order: &[usize]) -> Result<(), TestCaseError> {
    let (answers, elims) = (
        counter("poly.difference.answers"),
        counter("poly.fm.eliminations"),
    );
    let got = project_scan(s, keep, order);
    prop_assert_eq!(counter("poly.difference.answers"), answers + 1, "{:?}", s);
    prop_assert_eq!(counter("poly.fm.eliminations"), elims, "{:?}", s);
    prop_assert_eq!(
        got,
        fm_scan(s, keep, order),
        "{:?} keep {:?} order {:?}",
        s,
        keep,
        order
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random difference systems, feasible and not: the row path's terms
    /// are elimination's, term for term and in order.
    #[test]
    fn the_row_scan_is_eliminations((s, keep, order) in scan_case()) {
        let _g = lock();
        inl_obs::set_enabled(true);
        assert_row_scan(&s, &keep, &order)?;
    }

    /// The closure's verdict on `a ≥ 0` is whether `is_empty` finds `a ≤
    /// −1` infeasible over the system, and on `a = 0` whether it finds
    /// both `a ≥ 1` and `a ≤ −1` infeasible.
    #[test]
    fn the_closure_implies_what_is_empty_refutes(
        (s, _) in diff_system(),
        rows in prop::collection::vec(diff_row(), 1..6),
    ) {
        let _g = lock();
        let closure = Closure::of(&s).expect("a difference system");
        let refuted = |e: LinExpr| {
            let mut t = s.clone();
            t.add_ge(e);
            is_empty(&t) == Feasibility::Empty
        };
        for a in rows {
            let ge = refuted(-a.clone() - k(1));
            let le = refuted(a.clone() - k(1));
            prop_assert_eq!(closure.implies(&a, false), Some(ge), "{:?} over {:?}", a, s);
            prop_assert_eq!(closure.implies(&a, true), Some(ge && le), "{:?} over {:?}", a, s);
        }
    }
}

#[test]
fn the_row_scan_covers_chains_and_empty_systems() {
    let _g = lock();
    inl_obs::set_enabled(true);
    let (n, x) = (WIDE, |i| LinExpr::var(WIDE, i));
    let c = |k: Int| LinExpr::constant(n, k);
    // x0 = x1 + 1 = x2 + 3 = x3 − 2 over 0 ≤ x3 ≤ x4: each elimination
    // substitutes, and the kept x4 bounds the rest through the chain
    let mut chain = System::new(n);
    chain.add_eq(x(0) - x(1) - c(1));
    chain.add_eq(x(1) - x(2) - c(2));
    chain.add_eq(x(3) - x(2) - c(5));
    chain.add_ge(x(3));
    chain.add_ge(x(4) - x(3));
    chain.add_ge(x(4) - x(3) + c(2));
    assert_row_scan(&chain, &[0, 4, 5], &[4, 0]).unwrap();
    assert_row_scan(&chain, &[0, 1, 2, 3, 4, 5], &[4, 3, 2, 1, 0]).unwrap();
    // a negative cycle: elimination reaches a false constant row
    let mut cycle = System::new(n);
    cycle.add_ge(x(1) - x(0));
    cycle.add_ge(x(0) - x(1) - c(1));
    cycle.add_ge(x(2) - x(1));
    assert_row_scan(&cycle, &[2], &[2]).unwrap();
    assert_row_scan(&cycle, &[0, 2], &[2, 0]).unwrap();
    // no rows at all, and no loops
    assert_row_scan(&System::new(n), &[1], &[1]).unwrap();
    assert_row_scan(&chain, &[5], &[]).unwrap();
}

/// What the row path turns down — a non-unit coefficient, a split's
/// `T·vo` row, three variables, two of one sign, a constant past `2^40`, a
/// system already empty, more than 16 variables — is scanned by
/// elimination, with its terms, and the path's counter stays put.
#[test]
fn the_row_scan_leaves_everything_else_to_elimination() {
    let _g = lock();
    inl_obs::set_enabled(true);
    let (n, x) = (WIDE, |i| LinExpr::var(WIDE, i));
    let c = |k: Int| LinExpr::constant(n, k);
    let mut base = System::new(n);
    base.add_ge(x(0) - c(1));
    base.add_ge(x(1) - x(0));
    base.add_ge(x(5) - x(1));
    let mut cases: Vec<(&str, System, Vec<usize>, Vec<usize>)> = Vec::new();
    for (what, row) in [
        ("non-unit", x(1) * 2 - x(0)),
        ("a split's T·vo", x(1) - x(2) * 16),
        ("three variables", x(0) - x(1) - x(2) + c(4)),
        ("same sign", x(0) + x(1)),
        ("wide constant", x(0) - x(1) + c(1 << 41)),
        ("already empty", c(-1)),
    ] {
        let mut s = base.clone();
        s.add_ge(row);
        cases.push((what, s, vec![1, 2, 5], vec![2, 1]));
    }
    let wide = 17;
    let mut chain = System::new(wide);
    for i in 0..wide - 1 {
        chain.add_ge(LinExpr::var(wide, i + 1) - LinExpr::var(wide, i));
    }
    cases.push(("17 variables", chain, vec![0, 16], vec![16]));
    for (what, s, keep, order) in cases {
        cache::clear();
        let answers = counter("poly.difference.answers");
        let got = project_scan(&s, &keep, &order);
        assert_eq!(counter("poly.difference.answers"), answers, "{what}");
        assert_eq!(got, fm_scan(&s, &keep, &order), "{what}");
    }
}

/// The closure answers only a difference row, over a difference system:
/// anything else stays with `is_empty`, guard by guard.
#[test]
fn the_closure_takes_difference_rows_only() {
    let _g = lock();
    let s = triangle();
    let closure = Closure::of(&s).expect("a difference system");
    assert_eq!(closure.implies(&(v(2) - v(1) - k(1)), false), Some(true));
    assert_eq!(closure.implies(&(v(2) - v(1) - k(2)), false), Some(false));
    assert_eq!(closure.implies(&(v(0) - v(1)), true), Some(false));
    assert_eq!(closure.implies(&(v(2) * 2 - v(1)), false), None);
    assert_eq!(closure.implies(&(v(0) + v(1)), false), None);
    let mut skew = triangle();
    skew.add_ge(v(2) - v(1) * 2);
    assert!(Closure::of(&skew).is_none());
    let mut empty = triangle();
    empty.add_ge(v(1) - v(2));
    let closure = Closure::of(&empty).expect("a difference system");
    assert_eq!(closure.implies(&(v(1) - v(2) - k(7)), true), Some(true));
}
