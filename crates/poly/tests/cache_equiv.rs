//! Differential properties for the query cache: every poly query answered
//! through the memo cache must be identical to the uncached answer —
//! feasibility verdicts, projected systems, and variable bounds. Both
//! paths canonicalize unconditionally, so the comparison is exact
//! equality, not just equivalence up to row order.

use inl_linalg::{InlError, Int};
use inl_poly::{cache, is_empty, project, var_bounds, LinExpr, System};
use proptest::prelude::*;
use std::sync::Mutex;

const NVARS: usize = 3;

/// The cache enable flag is process-global; property cases that toggle it
/// must not interleave with each other.
static CACHE_TOGGLE: Mutex<()> = Mutex::new(());

fn small_constraint() -> impl Strategy<Value = LinExpr> {
    (prop::collection::vec(-3i64..=3, NVARS), -8i64..=8).prop_map(|(coeffs, c)| {
        LinExpr::from_parts(coeffs.into_iter().map(|x| x as Int).collect(), c as Int)
    })
}

/// A random system with inequalities, an optional equality, and box
/// constraints keeping everything bounded.
fn small_system() -> impl Strategy<Value = System> {
    (
        prop::collection::vec(small_constraint(), 0..5),
        prop::collection::vec(small_constraint(), 0..2),
        1i64..=6,
    )
        .prop_map(|(ges, eqs, box_)| boxed(ges, eqs, box_))
}

/// `-box ≤ x_v ≤ box` for every variable, then `ges ≥ 0` and `eqs = 0`.
fn boxed(ges: Vec<LinExpr>, eqs: Vec<LinExpr>, box_: i64) -> System {
    let mut s = System::new(NVARS);
    for v in 0..NVARS {
        s.add_ge(LinExpr::var(NVARS, v) + LinExpr::constant(NVARS, box_ as Int));
        s.add_ge(LinExpr::constant(NVARS, box_ as Int) - LinExpr::var(NVARS, v));
    }
    for c in ges {
        s.add_ge(c);
    }
    for e in eqs {
        s.add_eq(e);
    }
    s
}

/// Coefficients around the 64-bit fast paths' edge (and 0, for sparse
/// rows): products leave `i64`, chains leave `i128`, so the comparison
/// below also covers the `i128` fallback and cached `Overflow` errors.
const WIDE: [Int; 13] = [
    0,
    1,
    -1,
    2,
    -2,
    3,
    -3,
    1 << 31,
    -(1 << 31),
    1 << 62,
    -(1 << 62),
    i64::MAX as Int,
    -(i64::MAX as Int),
];

fn wide_constraint() -> impl Strategy<Value = LinExpr> {
    (prop::collection::vec(0..WIDE.len(), NVARS), -8i64..=8).prop_map(|(idx, c)| {
        LinExpr::from_parts(idx.into_iter().map(|i| WIDE[i]).collect(), c as Int)
    })
}

/// [`small_system`] with [`wide_constraint`] rows.
fn wide_system() -> impl Strategy<Value = System> {
    (
        prop::collection::vec(wide_constraint(), 1..5),
        prop::collection::vec(wide_constraint(), 0..2),
        1i64..=6,
    )
        .prop_map(|(ges, eqs, box_)| boxed(ges, eqs, box_))
}

/// All three public queries against `s`, in one bundle for comparison.
/// `Result`s are compared as-is: a cached error must equal the uncached
/// one.
type ProjectAnswer = Result<(System, bool), InlError>;
type BoundsAnswer = Vec<Result<(Option<Int>, Option<Int>), InlError>>;

fn query_all(s: &System, keep: &[usize]) -> (ProjectAnswer, inl_poly::Feasibility, BoundsAnswer) {
    (
        project(s, keep),
        is_empty(s),
        (0..NVARS).map(|v| var_bounds(s, v)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Cold miss, warm hit, and cache-off all answer identically.
    #[test]
    fn cached_queries_equal_uncached(s in small_system(), keep_mask in 0usize..(1 << NVARS)) {
        let keep: Vec<usize> = (0..NVARS).filter(|v| keep_mask & (1 << v) != 0).collect();
        let _g = CACHE_TOGGLE.lock().unwrap();

        cache::set_cache_enabled(false);
        let uncached = query_all(&s, &keep);

        cache::set_cache_enabled(true);
        cache::clear();
        let cold = query_all(&s, &keep); // misses: computed, then inserted
        let warm = query_all(&s, &keep); // hits: answered from the map

        cache::set_cache_enabled(true);
        prop_assert_eq!(&cold, &uncached, "cold cache pass diverged");
        prop_assert_eq!(&warm, &uncached, "warm cache pass diverged");
    }

    /// The same, over wide coefficients: answers that take the `i128`
    /// fallback and errors that leave `i128` are cached exactly.
    #[test]
    fn wide_cached_queries_equal_uncached(s in wide_system(), keep_mask in 0usize..(1 << NVARS)) {
        let keep: Vec<usize> = (0..NVARS).filter(|v| keep_mask & (1 << v) != 0).collect();
        let _g = CACHE_TOGGLE.lock().unwrap();

        cache::set_cache_enabled(false);
        let uncached = query_all(&s, &keep);

        cache::set_cache_enabled(true);
        cache::clear();
        let cold = query_all(&s, &keep);
        let warm = query_all(&s, &keep);

        prop_assert_eq!(&cold, &uncached, "cold cache pass diverged");
        prop_assert_eq!(&warm, &uncached, "warm cache pass diverged");
    }

    /// Canonicalization preserves the solution set exactly.
    #[test]
    fn canonical_form_same_solutions(s in small_system()) {
        let canon = s.canonicalized();
        for x in -7i64..=7 {
            for y in -7i64..=7 {
                for z in -7i64..=7 {
                    let pt = [x as Int, y as Int, z as Int];
                    prop_assert_eq!(
                        s.contains(&pt),
                        canon.contains(&pt),
                        "solution set changed at {:?}",
                        pt
                    );
                }
            }
        }
    }

    /// The canonical form is insertion-order independent and idempotent —
    /// the property that makes it a sound cache key.
    #[test]
    fn canonical_form_order_independent(cons in prop::collection::vec(small_constraint(), 0..6)) {
        let mut fwd = System::new(NVARS);
        let mut rev = System::new(NVARS);
        for c in &cons {
            fwd.add_ge(c.clone());
        }
        for c in cons.iter().rev() {
            rev.add_ge(c.clone());
        }
        let cf = fwd.canonicalized();
        let cr = rev.canonicalized();
        prop_assert_eq!(&cf, &cr, "insertion order leaked into the canonical form");
        prop_assert_eq!(&cf.canonicalized(), &cf, "canonicalization not idempotent");
    }
}
