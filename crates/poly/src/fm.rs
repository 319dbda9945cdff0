//! Fourier–Motzkin elimination with integer tightening, projection,
//! per-variable bounds, and Omega-style feasibility.
//!
//! This is the dependence-analysis engine the paper delegates to "any
//! integer linear programming tool, such as the Omega tool-kit". Soundness
//! contract:
//!
//! * [`eliminate`]'s result is a *superset* of the true integer projection
//!   (the "real shadow", with gcd tightening). Emptiness of the result
//!   therefore proves emptiness of the original set.
//! * Each elimination step records whether it was *exact* (Pugh's condition:
//!   one of the combined coefficients is 1). An all-exact elimination chain
//!   computes the integer projection exactly.
//! * [`is_empty`] additionally consults the *dark shadow* (a subset of the
//!   projection): a feasible dark shadow proves non-emptiness even when some
//!   step was inexact.
//!
//! Six fast paths keep the queries cheap without changing any answer,
//! error or verdict:
//!
//! * *64-bit arithmetic where it cannot overflow.* [`inl_linalg::gcd`] runs
//!   on `u64` when both magnitudes fit, and [`LinExpr`]'s checked multiply
//!   forms an `i64 × i64` product directly (it fits `i128`), falling back
//!   to `i128::checked_mul`; [`System::add_ge`]/[`System::add_eq`] skip the
//!   divide when a row's content is 1.
//! * *Borrowed rows.* `eliminate_one` classifies borrowed `(±1, &row)`
//!   pairs, so an equality's two halves are one row and nothing is cloned
//!   or negated; each combination is one [`LinExpr::checked_combine`] pass
//!   (the same products up to sign, so the same overflows), and a split
//!   equality is recognised entry by entry. An equality with an `Int::MIN`
//!   entry, whose negation does not exist, fails with the negation's
//!   overflow error.
//! * *The dark shadow only when it can decide.* The real chain runs alone;
//!   only a chain that ends inexact and not empty needs the dark shadow,
//!   which then eliminates the variables in the order the real chain chose,
//!   so its result does not depend on when it runs.
//! * The fourth, a constant dependence entry read without a projection,
//!   lives in `inl_core::depend::constant_entry`.
//! * The fifth skips elimination altogether for *difference systems*,
//!   where shortest paths decide. When every row is `±x + k`
//!   or `x − y + k` (and every constant within `±2^40`), [`is_empty`]
//!   asks whether the constraint graph has a negative cycle, and
//!   [`expr_bounds`] of an entry `x − y + c` over a feasible such system
//!   reads two shortest-path distances (`crate::difference`). The answers
//!   are elimination's: the matrix of such a system is totally unimodular,
//!   so its rational optima are integral, and elimination on it is exact —
//!   every combined coefficient is ±1, so each step is Pugh-exact and no
//!   gcd tightening applies — and computes exactly those rational
//!   projections. A size guard keeps the systems the path takes below the
//!   inequality budget, where elimination would fail instead of answering.
//!   Code generation reads its guard implications off one closure of the
//!   same graph (`crate::difference::Closure`).
//! * The sixth runs this module's own steps on such a system's rows. A
//!   scan's bound terms depend on the elimination path, so no shortest
//!   path can stand in for [`project`] followed by
//!   [`crate::bounds::scan_bounds`]; [`crate::bounds::project_scan`]
//!   replays canonicalization, `pick_var`'s order, `eliminate_one` and
//!   the scan's read-off on `(p, q, k)` rows with `i64` constants, and
//!   returns the same terms in the same order. Anything outside the class
//!   (a split's tile rows, skews, more than 16 variables, an `i64`
//!   overflow) is projected and scanned here, as before.
//!
//! Otherwise the public queries — [`project`], [`is_empty`],
//! [`var_bounds`], and [`expr_bounds`] through it — first rewrite the input
//! into its canonical form ([`System::canonicalized`]: sign-normalized
//! rows, dominated inequalities pruned, rows sorted and deduplicated) and
//! then answer as a pure function of that canonical system, memoized
//! process-wide by [`crate::cache`]. Because canonicalization runs whether
//! or not the cache is enabled, cached and uncached runs produce identical
//! answers. A difference query, and a plan of a difference system, is
//! answered before canonicalization and never reaches the cache: the
//! shortest paths and the row steps cost less than a lookup.

use crate::cache::{self, Answer, Query};
use crate::{difference, LinExpr, System};
use inl_linalg::{gcd, InlError, InlErrorKind, Int};

/// Outcome of the integer feasibility test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// Certainly no integer point.
    Empty,
    /// Certainly at least one integer point.
    NonEmpty,
    /// Rationally feasible, but integer feasibility could not be decided
    /// (inexact elimination and empty dark shadow). Callers treat this as
    /// "may be non-empty", which is conservative for dependence analysis.
    Unknown,
}

/// Safety valve: beyond this many inequalities, elimination bails out
/// (treated as `Unknown` by feasibility, and as a typed
/// [`InlErrorKind::Budget`] error by projection, since loop nests never
/// get near it).
pub(crate) const MAX_INEQS: usize = 20_000;

/// Eliminate variable `var` by Fourier–Motzkin. Returns the resulting
/// system (same variable space, `var` unconstrained/unused) and whether the
/// elimination was exact over the integers. Fails with a typed
/// [`InlError`] on coefficient overflow or inequality-budget exhaustion
/// instead of panicking.
pub fn eliminate(sys: &System, var: usize) -> Result<(System, bool), InlError> {
    eliminate_one(sys, var, false)
}

/// Core single-system elimination. `dark` selects the dark-shadow variant
/// (each lower/upper combination is strengthened by `(a-1)(b-1)`).
fn eliminate_one(sys: &System, var: usize, dark: bool) -> Result<(System, bool), InlError> {
    inl_obs::counter_add!("poly.fm.eliminations", 1);
    let n = sys.nvars();
    let mut out = System::new(n);
    if sys.is_trivially_empty() {
        out.add_ge(LinExpr::constant(n, -1));
        return Ok((out, true));
    }

    // First try an exact substitution using an equality with a ±1
    // coefficient on `var` (always integer-exact).
    for eq in sys.eqs() {
        let c = eq.coeff(var);
        if c == 1 || c == -1 {
            // c·var + rest = 0  =>  var = -rest/c = -c·rest (c = ±1)
            let mut rest = eq.clone();
            rest.set_coeff(var, 0);
            let replacement = rest.checked_scale(-c)?; // -rest when c=1, rest when c=-1
            return Ok((sys.checked_substitute(var, &replacement)?, true));
        }
    }

    // Every remaining equality stands for `e ≥ 0` and `-e ≥ 0`; a row with
    // an `Int::MIN` entry has no negation, whether or not it mentions var.
    if sys
        .eqs()
        .iter()
        .any(|e| e.constant_term() == Int::MIN || e.coeffs().contains(&Int::MIN))
    {
        return Err(InlError::overflow("linear expression negation"));
    }
    let on_var = |e: &LinExpr| e.coeff(var) != 0;
    if !sys.eqs().iter().any(on_var) && !sys.ineqs().iter().any(on_var) {
        // var unconstrained: drop nothing
        for eq in sys.eqs() {
            out.add_eq(eq.clone());
        }
        for e in sys.ineqs() {
            out.add_ge(e.clone());
        }
        return Ok((out, true));
    }
    // Non-unit equalities being split means exactness is lost unless their
    // coefficient on var is 0 (handled above) — track it.
    let mut exact = !sys.eqs().iter().any(on_var);
    for eq in sys.eqs() {
        if eq.coeff(var) == 0 {
            out.add_eq(eq.clone());
        }
    }

    // Bound rows are borrowed, never cloned: `(s, row)` stands for
    // `s·row ≥ 0` with `s = ±1`, so an equality's two halves are the same
    // row under both signs. Lowers have a positive coefficient on var,
    // uppers a negative one. Both lists run over the inequalities, then
    // each equality's `e` and `-e`; the output rows come out in the order
    // of their pairs, which later steps see (the first unit equality is
    // the one substituted).
    let mut lowers: Vec<(Int, &LinExpr)> = Vec::new();
    let mut uppers: Vec<(Int, &LinExpr)> = Vec::new();
    for e in sys.ineqs() {
        match e.coeff(var).signum() {
            0 => {
                if !is_split_eq(sys.eqs(), e) {
                    out.add_ge(e.clone());
                }
            }
            1.. => lowers.push((1, e)),
            _ => uppers.push((1, e)),
        }
    }
    for q in sys.eqs() {
        // A half with coefficient 0 is the equality itself, kept above.
        match q.coeff(var).signum() {
            0 => {}
            1.. => {
                lowers.push((1, q));
                uppers.push((-1, q));
            }
            _ => {
                uppers.push((1, q));
                lowers.push((-1, q));
            }
        }
    }
    // `s · coefficient` cannot overflow: `s = -1` only pairs with an
    // equality, whose entries were checked negatable above.
    for &(sl, l) in &lowers {
        let a = sl * l.coeff(var);
        for &(su, u) in &uppers {
            let b = (su * u.coeff(var))
                .checked_neg()
                .ok_or_else(|| InlError::overflow("fm upper coefficient"))?; // b > 0
            if a != 1 && b != 1 {
                exact = false;
            }
            // `p·(sl·l) + q·(su·u)` is `l.checked_combine(sl·p, u, su·q)`:
            // the same products up to sign, so the same overflows.
            let comb = if dark {
                // Dark shadow keeps the *original* multipliers — the
                // strengthened row (b·l + a·u) - (a-1)(b-1) is not
                // gcd-reducible without changing its meaning.
                let mut c = l.checked_combine(sl * b, u, su * a)?;
                let slack = (a - 1)
                    .checked_mul(b - 1)
                    .and_then(|s| c.constant_term().checked_sub(s))
                    .ok_or_else(|| InlError::overflow("fm dark-shadow slack"))?;
                c.set_constant(slack);
                c
            } else {
                // Real shadow: gcd-reduce the multipliers. Every entry of
                // (b·l + a·u) is divisible by g = gcd(a, b), so
                // (b/g)·l + (a/g)·u equals the combination divided by g
                // exactly — same row after `add_ge` content-normalization,
                // with g² less intermediate coefficient growth.
                let g = gcd(a, b); // a, b > 0 ⇒ g ≥ 1
                l.checked_combine(sl * (b / g), u, su * (a / g))?
            };
            debug_assert_eq!(comb.coeff(var), 0);
            out.add_ge(comb);
            if out.ineqs().len() > MAX_INEQS {
                return Err(InlError::new(
                    InlErrorKind::Budget,
                    format!("fourier-motzkin blow-up: more than {MAX_INEQS} inequalities"),
                ));
            }
        }
    }
    out.prune_dominated();
    Ok((out, exact))
}

/// True iff the inequality `e ≥ 0` is one half of an equality of `eqs`:
/// `e` is an equality row or its negation, compared entry by entry rather
/// than by building the negated row (`eqs` holds no `Int::MIN` entry).
fn is_split_eq(eqs: &[LinExpr], e: &LinExpr) -> bool {
    eqs.iter().any(|q| {
        q == e
            || (e.constant_term() == -q.constant_term()
                && e.coeffs().iter().zip(q.coeffs()).all(|(&x, &y)| x == -y))
    })
}

/// Pick the next variable to eliminate from `vars`: fewest lower×upper
/// products (greedy minimum-fill heuristic). Counts signs directly off the
/// equalities and inequalities (an equality contributes one lower and one
/// upper), so no row negation — and hence no overflow — is involved.
fn pick_var(sys: &System, vars: &[usize]) -> usize {
    let mut best = (usize::MAX, 0usize);
    for (idx, &v) in vars.iter().enumerate() {
        // An exact equality substitution is always the cheapest move.
        if sys
            .eqs()
            .iter()
            .any(|e| e.coeff(v) == 1 || e.coeff(v) == -1)
        {
            return idx;
        }
        let eq_nz = sys.eqs().iter().filter(|e| e.coeff(v) != 0).count();
        let lo = sys.ineqs().iter().filter(|e| e.coeff(v) > 0).count() + eq_nz;
        let hi = sys.ineqs().iter().filter(|e| e.coeff(v) < 0).count() + eq_nz;
        let cost = lo * hi;
        if cost < best.0 {
            best = (cost, idx);
        }
    }
    best.1
}

/// Project the system onto the variables in `keep`: eliminate every other
/// variable. The result lives in the *same* variable space (eliminated
/// variables simply no longer appear); the boolean reports whether the whole
/// chain was integer-exact. Errors (overflow, inequality budget) are
/// deterministic functions of the canonical input, so they memoize exactly
/// like successful answers.
///
/// The input is canonicalized first and the answer memoized (see
/// [`crate::cache`]); repeated projections of equivalent systems are free.
pub fn project(sys: &System, keep: &[usize]) -> Result<(System, bool), InlError> {
    let mut keep_key: Vec<usize> = keep.iter().copied().filter(|&v| v < sys.nvars()).collect();
    keep_key.sort_unstable();
    keep_key.dedup();
    let canon = sys.canonicalized();
    let keep_for_core = keep_key.clone();
    match cache::memo(canon, Query::Project(keep_key), move |c| {
        Answer::Project(project_core(c, &keep_for_core))
    }) {
        Answer::Project(r) => r,
        _ => unreachable!("project answered with a non-projection"),
    }
}

/// Elimination loop on an already-canonicalized system.
fn project_core(sys: &System, keep: &[usize]) -> Result<(System, bool), InlError> {
    let keep_set: std::collections::HashSet<usize> = keep.iter().copied().collect();
    let mut vars: Vec<usize> = (0..sys.nvars()).filter(|v| !keep_set.contains(v)).collect();
    let mut cur = sys.clone();
    let mut exact = true;
    while !vars.is_empty() {
        if cur.is_trivially_empty() {
            break;
        }
        let idx = pick_var(&cur, &vars);
        let v = vars.swap_remove(idx);
        let (next, ex) = eliminate(&cur, v)?;
        exact &= ex;
        cur = next;
    }
    Ok((cur, exact))
}

/// Integer feasibility of the system.
///
/// A difference system is decided by shortest paths (see the module docs);
/// any other is canonicalized first and the verdict memoized (see
/// [`crate::cache`]). The `poly.feasibility` span fires on every call,
/// whichever answers, so telemetry counts queries, not cache state.
pub fn is_empty(sys: &System) -> Feasibility {
    let _span = inl_obs::span("poly.feasibility");
    if sys.is_trivially_empty() {
        return Feasibility::Empty;
    }
    if let Some(f) = difference::is_empty(sys) {
        return f;
    }
    let canon = sys.canonicalized();
    match cache::memo(canon, Query::Feasibility, |c| {
        Answer::Feasibility(is_empty_core(c))
    }) {
        Answer::Feasibility(f) => f,
        _ => unreachable!("feasibility answered with a non-verdict"),
    }
}

/// Shadow-chasing feasibility on an already-canonicalized system.
///
/// The real shadow runs first. Only a chain that ends inexact and not
/// empty needs the dark shadow, and only then is it computed, by replaying
/// the real chain's elimination order ([`dark_shadow_nonempty`]): the dark
/// shadow of a given order is the same whenever it is computed.
///
/// An overflow or budget failure in either shadow degrades the verdict
/// instead of failing the query: a dead dark shadow merely loses the
/// non-emptiness witness, a dead real shadow yields `Unknown` ("may be
/// non-empty"), which is the conservative answer for dependence analysis.
fn is_empty_core(sys: &System) -> Feasibility {
    let mut real = sys.clone();
    let mut exact = true;
    let mut vars: Vec<usize> = (0..sys.nvars()).collect();
    let mut order = Vec::with_capacity(vars.len());
    while !vars.is_empty() {
        if real.is_trivially_empty() {
            return Feasibility::Empty;
        }
        let idx = pick_var(&real, &vars);
        let v = vars.swap_remove(idx);
        let (r, ex) = match eliminate_one(&real, v, false) {
            Ok(res) => res,
            Err(_) => {
                inl_obs::counter_add!("poly.feasibility.aborted", 1);
                return Feasibility::Unknown;
            }
        };
        order.push(v);
        exact &= ex;
        real = r;
    }
    if real.is_trivially_empty() {
        Feasibility::Empty
    } else if exact {
        inl_obs::counter_add!("poly.feasibility.exact_hits", 1);
        Feasibility::NonEmpty
    } else if dark_shadow_nonempty(sys, &order) {
        inl_obs::counter_add!("poly.fm.dark_shadow_fallbacks", 1);
        Feasibility::NonEmpty
    } else {
        inl_obs::counter_add!("poly.feasibility.unknown", 1);
        Feasibility::Unknown
    }
}

/// The dark shadow of `sys` after eliminating `order`, one variable at a
/// time: true iff it is not empty, which proves an integer point. A chain
/// that fails (overflow, budget) or empties abandons the witness, never the
/// verdict.
fn dark_shadow_nonempty(sys: &System, order: &[usize]) -> bool {
    let mut dark = sys.clone();
    for &v in order {
        if dark.is_trivially_empty() {
            return false;
        }
        match eliminate_one(&dark, v, true) {
            Ok((d, _)) => dark = d,
            Err(_) => return false,
        }
    }
    !dark.is_trivially_empty()
}

/// Integer bounds of variable `var` over the system: eliminate every other
/// variable, then read off constant constraints on `var`.
///
/// The returned interval *contains* the set of values `var` takes on
/// integer points of the system (it is the tightened real shadow, hence
/// conservative). `None` means unbounded on that side. If the system is
/// infeasible the interval may be contradictory (`lo > hi`) — callers that
/// care should test [`is_empty`] first.
///
/// The input is canonicalized first and the interval memoized (see
/// [`crate::cache`]); the inner projection goes through the cached
/// [`project`], so a bounds query also warms the projection entry.
pub fn var_bounds(sys: &System, var: usize) -> Result<(Option<Int>, Option<Int>), InlError> {
    let canon = sys.canonicalized();
    match cache::memo(canon, Query::VarBounds(var), |c| {
        Answer::VarBounds(var_bounds_core(c, var))
    }) {
        Answer::VarBounds(r) => r,
        _ => unreachable!("var_bounds answered with a non-interval"),
    }
}

/// Bounds read-off on an already-canonicalized system.
fn var_bounds_core(sys: &System, var: usize) -> Result<(Option<Int>, Option<Int>), InlError> {
    let (proj, _) = project(sys, &[var])?;
    if proj.is_trivially_empty() {
        return Ok((Some(1), Some(0))); // canonical contradictory interval
    }
    let mut lo: Option<Int> = None;
    let mut hi: Option<Int> = None;
    let tighten_lo = |lo: &mut Option<Int>, v: Int| {
        *lo = Some(lo.map_or(v, |x| x.max(v)));
    };
    let tighten_hi = |hi: &mut Option<Int>, v: Int| {
        *hi = Some(hi.map_or(v, |x| x.min(v)));
    };
    let err = || InlError::overflow("bounds read-off");
    for e in proj.checked_to_ineqs()? {
        let a = e.coeff(var);
        let c = e.constant_term();
        match a.signum() {
            0 => {}
            1.. => tighten_lo(
                &mut lo,
                inl_linalg::ceil_div(c.checked_neg().ok_or_else(err)?, a),
            ),
            _ => tighten_hi(
                &mut hi,
                inl_linalg::floor_div(c, a.checked_neg().ok_or_else(err)?),
            ),
        }
    }
    Ok((lo, hi))
}

/// Integer bounds of an arbitrary linear expression over the system:
/// introduces a fresh variable `t = expr` and computes [`var_bounds`] on it.
/// An entry `x − y + c` over a feasible difference system is read off
/// shortest paths instead, with the same answer (see the module docs).
///
/// # Panics
/// If `expr` is not over the system's variable space (a programming
/// error, not an input condition).
pub fn expr_bounds(sys: &System, expr: &LinExpr) -> Result<(Option<Int>, Option<Int>), InlError> {
    let n = sys.nvars();
    assert_eq!(expr.nvars(), n, "expr_bounds: arity mismatch");
    if let Some(bounds) = difference::expr_bounds(sys, expr) {
        return Ok(bounds);
    }
    let mut ext = sys.extend(n + 1);
    let t = LinExpr::var(n + 1, n);
    ext.add_eq(t.checked_sub(&expr.extend(n + 1))?);
    var_bounds(&ext, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: usize, i: usize) -> LinExpr {
        LinExpr::var(n, i)
    }
    fn k(n: usize, c: Int) -> LinExpr {
        LinExpr::constant(n, c)
    }

    /// 1 <= x <= 10, 1 <= y <= x
    fn triangle() -> System {
        let n = 2;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 1));
        s.add_ge(k(n, 10) - v(n, 0));
        s.add_ge(v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 1));
        s
    }

    #[test]
    fn eliminate_basic() {
        let (res, exact) = eliminate(&triangle(), 1).unwrap();
        assert!(exact);
        // y gone; x constraints survive: 1 <= x <= 10 (x >= 1 also from x >= y >= 1)
        assert!(res.contains(&[1, 999]));
        assert!(res.contains(&[10, 999]));
        assert!(!res.contains(&[0, 999]));
        assert!(!res.contains(&[11, 999]));
    }

    #[test]
    fn var_bounds_triangle() {
        let s = triangle();
        assert_eq!(var_bounds(&s, 0), Ok((Some(1), Some(10))));
        assert_eq!(var_bounds(&s, 1), Ok((Some(1), Some(10))));
    }

    #[test]
    fn expr_bounds_diag() {
        let n = 2;
        let s = triangle();
        // x - y ranges over 0..=9
        assert_eq!(
            expr_bounds(&s, &(v(n, 0) - v(n, 1))),
            Ok((Some(0), Some(9)))
        );
        // x + y ranges over 2..=20
        assert_eq!(
            expr_bounds(&s, &(v(n, 0) + v(n, 1))),
            Ok((Some(2), Some(20)))
        );
    }

    #[test]
    fn unbounded_sides() {
        let n = 1;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 3)); // x >= 3
        assert_eq!(var_bounds(&s, 0), Ok((Some(3), None)));
        let empty_constraints = System::new(n);
        assert_eq!(var_bounds(&empty_constraints, 0), Ok((None, None)));
    }

    #[test]
    fn feasibility_simple() {
        assert_eq!(is_empty(&triangle()), Feasibility::NonEmpty);
        let n = 1;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 5));
        s.add_ge(k(n, 3) - v(n, 0));
        assert_eq!(is_empty(&s), Feasibility::Empty);
    }

    #[test]
    fn feasibility_integer_gap() {
        // 2 <= 2x <= 3 has no integer solution (x would be 1.5-ish);
        // tightening: 2x >= 2 -> x >= 1; 2x <= 3 -> x <= 1; so x = 1, but
        // then 2x = 2 which satisfies both. Careful: 2x <= 3 tightens to
        // x <= 1 and 2*1 = 2 <= 3 holds. So this IS feasible.
        let n = 1;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) * 2 - k(n, 2));
        s.add_ge(k(n, 3) - v(n, 0) * 2);
        assert_eq!(is_empty(&s), Feasibility::NonEmpty);
        // 3 <= 2x <= 3: 2x = 3 impossible
        let mut t = System::new(n);
        t.add_ge(v(n, 0) * 2 - k(n, 3));
        t.add_ge(k(n, 3) - v(n, 0) * 2);
        assert_eq!(is_empty(&t), Feasibility::Empty);
    }

    #[test]
    fn feasibility_eq_gcd() {
        // 2x + 4y = 5: gcd test fires
        let n = 2;
        let mut s = System::new(n);
        s.add_eq(v(n, 0) * 2 + v(n, 1) * 4 - k(n, 5));
        assert_eq!(is_empty(&s), Feasibility::Empty);
    }

    #[test]
    fn projection_keeps_relation() {
        // {(x, y, z) : z = x + y, 0 <= x, y <= 2} projected onto (x, z)
        let n = 3;
        let mut s = System::new(n);
        s.add_eq(v(n, 2) - v(n, 0) - v(n, 1));
        s.add_ge(v(n, 0));
        s.add_ge(k(n, 2) - v(n, 0));
        s.add_ge(v(n, 1));
        s.add_ge(k(n, 2) - v(n, 1));
        let (p, exact) = project(&s, &[0, 2]).unwrap();
        assert!(exact);
        // x <= z <= x + 2 must hold in the projection
        assert!(p.contains(&[1, 0, 2]));
        assert!(p.contains(&[1, 0, 1]));
        assert!(!p.contains(&[1, 0, 4]));
        assert!(!p.contains(&[1, 0, 0]));
    }

    #[test]
    fn paper_section3_directions() {
        // do I = 1..N { S1: A(I)=...; do J = I+1..N { S2: ...A(I)... } }
        // flow dep S1 -> S2 on A(I): vars 0:N 1:Iw 2:Ir 3:Jr
        let n = 4;
        let mut s = System::new(n);
        s.add_ge(v(n, 1) - k(n, 1)); // Iw >= 1
        s.add_ge(v(n, 0) - v(n, 1)); // Iw <= N
        s.add_ge(v(n, 2) - k(n, 1)); // Ir >= 1
        s.add_ge(v(n, 0) - v(n, 2)); // Ir <= N
        s.add_ge(v(n, 3) - v(n, 2) - k(n, 1)); // Jr >= Ir + 1
        s.add_ge(v(n, 0) - v(n, 3)); // Jr <= N
        s.add_ge(v(n, 2) - v(n, 1)); // read after write: Iw <= Ir
        s.add_eq(v(n, 2) - v(n, 1)); // same location: Ir = Iw
        assert_eq!(is_empty(&s), Feasibility::NonEmpty);
        // Δ1 = Ir - Iw = 0 exactly
        assert_eq!(
            expr_bounds(&s, &(v(n, 2) - v(n, 1))),
            Ok((Some(0), Some(0)))
        );
        // Δ2 = Jr - Iw >= 1, unbounded above: direction "+"
        assert_eq!(expr_bounds(&s, &(v(n, 3) - v(n, 1))), Ok((Some(1), None)));
    }

    #[test]
    fn empty_system_bounds_contradictory() {
        let n = 1;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 5));
        s.add_ge(k(n, 3) - v(n, 0));
        let (lo, hi) = var_bounds(&s, 0).unwrap();
        assert!(lo.unwrap() > hi.unwrap());
    }

    #[test]
    fn dark_shadow_decides_nonempty() {
        // 0 <= 3x - 6y <= 0 with 1 <= x <= 9: x = 2y feasible (x=2,y=1).
        // Eliminating y via the equality route is non-unit, so exactness is
        // lost; dark shadow or substitution must still decide NonEmpty.
        let n = 2;
        let mut s = System::new(n);
        s.add_eq(v(n, 0) - v(n, 1) * 2); // x = 2y (unit on x though!)
        s.add_ge(v(n, 0) - k(n, 1));
        s.add_ge(k(n, 9) - v(n, 0));
        assert_eq!(is_empty(&s), Feasibility::NonEmpty);
    }

    /// `2y ≥ x` and `3y ≤ x + c` with `lo ≤ x ≤ 20`: eliminating `y` first
    /// (one lower × one upper, the cheapest) combines coefficients 2 and 3,
    /// so the real chain is inexact and the verdict rests on the dark
    /// shadow `x ≤ c - 2`.
    fn two_three(c: Int, lo: Int) -> System {
        let n = 2;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, lo));
        s.add_ge(k(n, 20) - v(n, 0));
        s.add_ge(v(n, 1) * 2 - v(n, 0));
        s.add_ge(v(n, 0) + k(n, c) - v(n, 1) * 3);
        s.canonicalized()
    }

    /// The real chain's verdict inputs: whether it ended empty and whether
    /// it was exact (`project_core` onto nothing follows `is_empty_core`'s
    /// elimination order).
    fn real_chain(s: &System) -> (bool, bool) {
        let (end, exact) = project_core(s, &[]).unwrap();
        (end.is_trivially_empty(), exact)
    }

    #[test]
    fn dark_replay_decides_nonempty() {
        let s = two_three(10, 0);
        assert_eq!(real_chain(&s), (false, false), "inexact, not empty");
        assert!(dark_shadow_nonempty(&s, &[1, 0]));
        assert_eq!(is_empty_core(&s), Feasibility::NonEmpty);
    }

    #[test]
    fn dark_replay_that_ends_empty_is_unknown() {
        // Real shadow 1 ≤ x ≤ 2, dark shadow 1 ≤ x ≤ 0. (x, y) = (2, 1) is
        // a point, so `Unknown` is the conservative answer, not a wrong one.
        let s = two_three(1, 1);
        assert!(s.contains(&[2, 1]));
        assert_eq!(real_chain(&s), (false, false));
        assert!(!dark_shadow_nonempty(&s, &[1, 0]));
        assert_eq!(is_empty_core(&s), Feasibility::Unknown);
    }

    #[test]
    fn dark_replay_that_overflows_is_unknown() {
        // `A·y ≥ x` and `A·y ≤ x + 1` with A = 2^64: the real step divides
        // both multipliers by gcd(A, A) = A; the dark step scales by A
        // itself, and A² leaves i128.
        let n = 2;
        let a: Int = 1 << 64;
        let mut s = System::new(n);
        s.add_ge(v(n, 0));
        s.add_ge(k(n, 10) - v(n, 0));
        s.add_ge(v(n, 1) * a - v(n, 0));
        s.add_ge(v(n, 0) + k(n, 1) - v(n, 1) * a);
        let s = s.canonicalized();
        assert!(s.contains(&[0, 0]));
        assert_eq!(real_chain(&s), (false, false));
        let err = eliminate_one(&s, 1, true).unwrap_err();
        assert_eq!(err.kind(), InlErrorKind::Overflow);
        assert!(!dark_shadow_nonempty(&s, &[1, 0]));
        assert_eq!(is_empty_core(&s), Feasibility::Unknown);
    }

    #[test]
    fn split_equalities_are_recognised_without_negating() {
        let n = 2;
        let q = v(n, 0) * 2 - v(n, 1) * 3 + k(n, 4);
        let eqs = [q.clone()];
        assert!(is_split_eq(&eqs, &q));
        assert!(is_split_eq(&eqs, &-q.clone()));
        assert!(!is_split_eq(&eqs, &(-q.clone() + k(n, 1))));
        assert!(!is_split_eq(&eqs, &(q + v(n, 0))));
        assert!(!is_split_eq(&[], &v(n, 0)));
    }

    #[test]
    fn an_unnegatable_equality_still_overflows() {
        // x + MIN·y = 0 has no ±1 coefficient on y, so eliminating y splits
        // it, and its negation leaves i128 — as it did when the split rows
        // were built.
        let n = 2;
        let mut s = System::new(n);
        s.add_eq(LinExpr::from_parts(vec![3, Int::MIN], 0));
        s.add_ge(v(n, 1));
        let err = eliminate(&s, 1).unwrap_err();
        assert_eq!(err.kind(), InlErrorKind::Overflow);
        assert_eq!(
            err,
            LinExpr::from_parts(vec![3, Int::MIN], 0)
                .checked_neg()
                .unwrap_err()
        );
    }

    #[test]
    fn projection_of_empty_is_empty() {
        let n = 2;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 5));
        s.add_ge(k(n, 3) - v(n, 0));
        s.add_eq(v(n, 1) - v(n, 0));
        let (p, _) = project(&s, &[1]).unwrap();
        assert!(
            p.is_trivially_empty() || is_empty(&p) == Feasibility::Empty,
            "projection of empty set should be empty"
        );
    }
}
