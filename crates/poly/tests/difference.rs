//! Difference systems — every row `±x + k` or `x − y + k` — are answered
//! by shortest paths before canonicalization and the query cache. On
//! random ones (inequalities and equalities, parameters, negative cycles,
//! unbounded sides) `is_empty` and `expr_bounds` must give exactly what
//! Fourier–Motzkin gives, and what enumerating a small box gives; any
//! other system, and any query on one the path turns down, must be
//! answered by elimination without the path's counter moving.

use inl_linalg::Int;
use inl_poly::{cache, expr_bounds, fm, is_empty, var_bounds, Feasibility, LinExpr, System};
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
