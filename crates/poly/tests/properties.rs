//! Property-based tests for the integer-programming substrate. Everything
//! the dependence analysis and code generator conclude rests on these
//! soundness properties of Fourier–Motzkin elimination.

use inl_linalg::{InlError, InlErrorKind, Int};
use inl_poly::{expr_bounds, fm, is_empty, scan_bounds, Feasibility, LinExpr, System};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const NVARS: usize = 3;

/// A random constraint `Σ aᵢxᵢ + c ≥ 0` with small coefficients.
fn small_constraint() -> impl Strategy<Value = LinExpr> {
    (prop::collection::vec(-3i64..=3, NVARS), -8i64..=8).prop_map(|(coeffs, c)| {
        LinExpr::from_parts(coeffs.into_iter().map(|x| x as Int).collect(), c as Int)
    })
}

/// A random system, biased towards feasible ones by adding box constraints.
fn small_system() -> impl Strategy<Value = System> {
    (prop::collection::vec(small_constraint(), 0..5), 1i64..=6).prop_map(|(cons, box_)| {
        let mut s = System::new(NVARS);
        for v in 0..NVARS {
            // -box <= x_v <= box keeps everything bounded
            s.add_ge(LinExpr::var(NVARS, v) + LinExpr::constant(NVARS, box_ as Int));
            s.add_ge(LinExpr::constant(NVARS, box_ as Int) - LinExpr::var(NVARS, v));
        }
        for c in cons {
            s.add_ge(c);
        }
        s
    })
}

/// Coefficient magnitudes around the 64-bit fast paths' edge: small ones,
/// `2^31`, `2^62` and `i64::MAX`, either sign (and 0, for sparse rows).
/// Products of two of them leave `i64`, so elimination takes the `i128`
/// fallback, and chains of them leave `i128`, so queries fail with typed
/// errors.
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

/// A random constraint with coefficients drawn from [`WIDE`].
fn wide_constraint() -> impl Strategy<Value = LinExpr> {
    (prop::collection::vec(0..WIDE.len(), NVARS), -8i64..=8).prop_map(|(idx, c)| {
        LinExpr::from_parts(idx.into_iter().map(|i| WIDE[i]).collect(), c as Int)
    })
}

/// [`small_system`] with [`wide_constraint`] rows inside the box.
fn wide_system() -> impl Strategy<Value = System> {
    (prop::collection::vec(wide_constraint(), 1..5), 1i64..=6).prop_map(|(cons, box_)| {
        let mut s = System::new(NVARS);
        for v in 0..NVARS {
            s.add_ge(LinExpr::var(NVARS, v) + LinExpr::constant(NVARS, box_ as Int));
            s.add_ge(LinExpr::constant(NVARS, box_ as Int) - LinExpr::var(NVARS, v));
        }
        for c in cons {
            s.add_ge(c);
        }
        s
    })
}

/// A failed query must say why in a type: coefficient overflow, or the
/// inequality budget.
fn typed(e: &InlError) -> bool {
    matches!(e.kind(), InlErrorKind::Overflow | InlErrorKind::Budget)
}

/// `pt` satisfies `s`, or evaluating a row at it leaves `i128` (a
/// projection's coefficients can be far wider than the input's).
fn holds_or_overflows(s: &System, pt: &[Int]) -> bool {
    match s.checked_contains(pt) {
        Ok(inside) => inside,
        Err(e) => e.kind() == InlErrorKind::Overflow,
    }
}

/// Brute-force enumerate integer points of a bounded system.
fn enumerate(s: &System, bound: Int) -> Vec<[Int; NVARS]> {
    let mut out = Vec::new();
    for x in -bound..=bound {
        for y in -bound..=bound {
            for z in -bound..=bound {
                if s.contains(&[x, y, z]) {
                    out.push([x, y, z]);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 120, ..ProptestConfig::default() })]

    /// Eliminating a variable keeps every point's projection.
    #[test]
    fn elimination_preserves_points(s in small_system(), var in 0usize..NVARS) {
        let (proj, _) = fm::eliminate(&s, var).expect("small systems cannot overflow");
        for pt in enumerate(&s, 8) {
            prop_assert!(
                proj.contains(&pt),
                "point {pt:?} lost by eliminating x{var}"
            );
        }
    }

    /// Feasibility agrees with brute force.
    #[test]
    fn feasibility_sound(s in small_system()) {
        let pts = enumerate(&s, 8);
        match is_empty(&s) {
            Feasibility::Empty => prop_assert!(pts.is_empty(), "claimed empty but has {pts:?}"),
            Feasibility::NonEmpty => prop_assert!(!pts.is_empty(), "claimed non-empty but is empty"),
            Feasibility::Unknown => {} // conservative; allowed either way
        }
    }

    /// Bounds of an expression cover every feasible point's value.
    #[test]
    fn expr_bounds_cover(s in small_system(), e in small_constraint()) {
        let pts = enumerate(&s, 8);
        prop_assume!(!pts.is_empty());
        let (lo, hi) = expr_bounds(&s, &e).expect("small systems cannot overflow");
        for pt in pts {
            let v = e.eval(&pt);
            if let Some(l) = lo {
                prop_assert!(l <= v, "lower bound {l} exceeds value {v} at {pt:?}");
            }
            if let Some(h) = hi {
                prop_assert!(v <= h, "value {v} exceeds upper bound {h} at {pt:?}");
            }
        }
    }

    /// Projection keeps every point's kept coordinates.
    #[test]
    fn projection_preserves_points(s in small_system(), keep in 0usize..NVARS) {
        let (proj, _) = fm::project(&s, &[keep]).expect("small systems cannot overflow");
        for pt in enumerate(&s, 8) {
            prop_assert!(proj.contains(&pt), "projected point {pt:?} lost");
        }
    }

    /// Scanning bounds enumerate a superset of the integer points, and the
    /// original constraints filter it back exactly (the guard discipline
    /// code generation relies on).
    #[test]
    fn scan_bounds_cover_set(s in small_system()) {
        let pts = enumerate(&s, 8);
        prop_assume!(!pts.is_empty());
        let order = [0usize, 1, 2];
        let bounds = scan_bounds(&s, &order).expect("small systems cannot overflow");
        let mut scanned = Vec::new();
        let mut pt = [0 as Int; NVARS];
        let (Some(l0), Some(h0)) = (bounds[0].eval_lower(&pt), bounds[0].eval_upper(&pt)) else {
            return Err(TestCaseError::fail("unbounded outer despite box"));
        };
        for x in l0..=h0 {
            pt[0] = x;
            let (Some(l1), Some(h1)) = (bounds[1].eval_lower(&pt), bounds[1].eval_upper(&pt)) else {
                continue;
            };
            for y in l1..=h1 {
                pt[1] = y;
                let (Some(l2), Some(h2)) =
                    (bounds[2].eval_lower(&pt), bounds[2].eval_upper(&pt))
                else {
                    continue;
                };
                for z in l2..=h2 {
                    pt[2] = z;
                    if s.contains(&pt) {
                        scanned.push(pt);
                    }
                }
            }
        }
        scanned.sort();
        let mut expected = pts;
        expected.sort();
        prop_assert_eq!(scanned, expected, "scan+filter must enumerate the exact set");
    }

    /// Wide coefficients: eliminating a variable keeps every point, or
    /// fails with a typed error.
    #[test]
    fn wide_elimination_preserves_points(s in wide_system(), var in 0usize..NVARS) {
        match fm::eliminate(&s, var) {
            Ok((proj, _)) => {
                for pt in enumerate(&s, 8) {
                    prop_assert!(holds_or_overflows(&proj, &pt), "point {pt:?} lost by eliminating x{var}");
                }
            }
            Err(e) => prop_assert!(typed(&e), "untyped failure {e:?}"),
        }
    }

    /// Wide coefficients: feasibility agrees with brute force.
    #[test]
    fn wide_feasibility_sound(s in wide_system()) {
        let pts = enumerate(&s, 8);
        match is_empty(&s) {
            Feasibility::Empty => prop_assert!(pts.is_empty(), "claimed empty but has {pts:?}"),
            Feasibility::NonEmpty => prop_assert!(!pts.is_empty(), "claimed non-empty but is empty"),
            Feasibility::Unknown => {}
        }
    }

    /// Wide coefficients: bounds of an expression cover every feasible
    /// point's value, or the query fails with a typed error.
    #[test]
    fn wide_expr_bounds_cover(s in wide_system(), e in wide_constraint()) {
        let pts = enumerate(&s, 8);
        prop_assume!(!pts.is_empty());
        match expr_bounds(&s, &e) {
            Ok((lo, hi)) => {
                for pt in pts {
                    let v = e.eval(&pt);
                    prop_assert!(lo.is_none_or(|l| l <= v), "lower bound {lo:?} exceeds {v} at {pt:?}");
                    prop_assert!(hi.is_none_or(|h| v <= h), "{v} exceeds upper bound {hi:?} at {pt:?}");
                }
            }
            Err(err) => prop_assert!(typed(&err), "untyped failure {err:?}"),
        }
    }

    /// Wide coefficients: projection keeps every point's kept coordinates,
    /// or fails with a typed error.
    #[test]
    fn wide_projection_preserves_points(s in wide_system(), keep in 0usize..NVARS) {
        match fm::project(&s, &[keep]) {
            Ok((proj, _)) => {
                for pt in enumerate(&s, 8) {
                    prop_assert!(holds_or_overflows(&proj, &pt), "projected point {pt:?} lost");
                }
            }
            Err(e) => prop_assert!(typed(&e), "untyped failure {e:?}"),
        }
    }

    /// Integer tightening never *adds* integer points.
    #[test]
    fn tightening_preserves_integer_semantics(
        coeffs in prop::collection::vec(-4i64..=4, NVARS),
        c in -10i64..=10,
        pt in prop::collection::vec(-6i64..=6, NVARS),
    ) {
        let e = LinExpr::from_parts(
            coeffs.iter().map(|&x| x as Int).collect(),
            c as Int,
        );
        let mut s = System::new(NVARS);
        s.add_ge(e.clone());
        let p: Vec<Int> = pt.iter().map(|&x| x as Int).collect();
        // containment in the normalized system == raw constraint truth
        let raw = e.eval(&p) >= 0;
        prop_assert_eq!(s.contains(&p) || s.is_trivially_empty(), raw || s.is_trivially_empty());
        if !s.is_trivially_empty() {
            prop_assert_eq!(s.contains(&p), raw);
        }
    }
}

/// The wide strategy reaches what it is for: elimination steps that
/// succeed with coefficients outside `i64` (the `i128` fallback of the
/// 64-bit fast paths) and projections that fail with a typed overflow.
#[test]
fn wide_systems_reach_the_i128_fallback_and_typed_overflow() {
    let strategy = wide_system();
    let mut rng = TestRng::new(0x5EED);
    let leaves_i64 = |e: &LinExpr| e.coeffs().iter().any(|&c| i64::try_from(c).is_err());
    let (mut wide_ok, mut overflow) = (0, 0);
    for _ in 0..400 {
        let s = strategy.generate(&mut rng);
        if let Ok((step, _)) = fm::eliminate(&s, NVARS - 1) {
            if step.ineqs().iter().any(leaves_i64) {
                wide_ok += 1;
            }
        }
        match fm::project(&s, &[0]) {
            Ok(_) => {}
            Err(e) if e.kind() == InlErrorKind::Overflow => overflow += 1,
            Err(e) => panic!("unexpected failure {e:?}"),
        }
    }
    assert!(wide_ok > 0, "no projection kept a coefficient outside i64");
    assert!(overflow > 0, "no projection overflowed");
}
