//! Property-based tests for the exact linear-algebra substrate. The
//! framework's soundness rests on these identities holding exactly, so we
//! hammer them with random small matrices (the size regime loop
//! transformations live in).

use inl_linalg::{ext_gcd, gauss, gcd, lcm, IMat, IVec, Int, Rational};
use proptest::prelude::*;

fn small_matrix(n: usize) -> impl Strategy<Value = IMat> {
    prop::collection::vec(-4i64..=4, n * n)
        .prop_map(move |v| IMat::from_fn(n, n, |i, j| v[i * n + j] as Int))
}

fn small_vec(n: usize) -> impl Strategy<Value = IVec> {
    prop::collection::vec(-6i64..=6, n).prop_map(|v| v.into_iter().map(|x| x as Int).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn gcd_divides_and_bezout(a in -100i64..=100, b in -100i64..=100) {
        let (a, b) = (a as Int, b as Int);
        let g = gcd(a, b);
        if g != 0 {
            prop_assert_eq!(a % g, 0);
            prop_assert_eq!(b % g, 0);
        }
        let (g2, x, y) = ext_gcd(a, b);
        prop_assert_eq!(g2, g);
        prop_assert_eq!(a * x + b * y, g);
        if a != 0 && b != 0 {
            let l = lcm(a, b).expect("small inputs cannot overflow");
            prop_assert_eq!(l % a, 0);
            prop_assert_eq!(l % b, 0);
            prop_assert_eq!(g * l, (a * b).abs());
        }
    }

    #[test]
    fn det_is_multiplicative(a in small_matrix(3), b in small_matrix(3)) {
        prop_assert_eq!(a.mul(&b).det(), a.det() * b.det());
    }

    #[test]
    fn det_of_transpose(a in small_matrix(4)) {
        prop_assert_eq!(a.det(), a.transpose().det());
    }

    #[test]
    fn inverse_roundtrip(a in small_matrix(3)) {
        match gauss::inverse_rational(&a).expect("small entries cannot overflow") {
            None => prop_assert_eq!(a.det(), 0),
            Some(inv) => {
                prop_assert_ne!(a.det(), 0);
                // A · A⁻¹ = I over the rationals
                let qa = gauss::QMat::from_imat(&a);
                for col in 0..3 {
                    let col_v: Vec<Rational> =
                        (0..3).map(|r| inv.rows[r][col]).collect();
                    let prod = qa.mul_vec(&col_v);
                    for (r, x) in prod.iter().enumerate() {
                        let expect = if r == col { Rational::ONE } else { Rational::ZERO };
                        prop_assert_eq!(*x, expect);
                    }
                }
            }
        }
    }

    #[test]
    fn nullspace_vectors_annihilate(a in small_matrix(3)) {
        let ns = gauss::nullspace_int(&a).expect("small entries cannot overflow");
        prop_assert_eq!(ns.len(), 3 - gauss::rank(&a));
        for v in ns {
            prop_assert!(a.mul_vec(&v).is_zero());
            prop_assert!(!v.is_zero());
            prop_assert_eq!(v.content(), 1);
        }
    }

    #[test]
    fn rank_bounds(a in small_matrix(4)) {
        let r = gauss::rank(&a);
        prop_assert!(r <= 4);
        prop_assert_eq!(r == 4, a.det() != 0);
    }

    #[test]
    fn solve_satisfies_system(a in small_matrix(3), b in small_vec(3)) {
        if let Ok(Some(x)) = gauss::solve_rational(&a, &b) {
            for i in 0..3 {
                let mut acc = Rational::ZERO;
                for (j, xv) in x.iter().enumerate() {
                    acc += Rational::int(a[(i, j)]) * *xv;
                }
                prop_assert_eq!(acc, Rational::int(b[i]));
            }
        }
    }

    #[test]
    fn rational_field_axioms(
        an in -20i64..=20, ad in 1i64..=9,
        bn in -20i64..=20, bd in 1i64..=9,
        cn in -20i64..=20, cd in 1i64..=9,
    ) {
        let a = Rational::new(an as Int, ad as Int);
        let b = Rational::new(bn as Int, bd as Int);
        let c = Rational::new(cn as Int, cd as Int);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + Rational::ZERO, a);
        prop_assert_eq!(a * Rational::ONE, a);
        if !b.is_zero() {
            prop_assert_eq!((a / b) * b, a);
        }
        // floor/ceil sandwich
        prop_assert!(Rational::int(a.floor()) <= a);
        prop_assert!(a <= Rational::int(a.ceil()));
        prop_assert!(a.ceil() - a.floor() <= 1);
    }

    #[test]
    fn lex_cmp_is_total_order(a in small_vec(4), b in small_vec(4), c in small_vec(4)) {
        use inl_linalg::lex::lex_cmp;
        use std::cmp::Ordering;
        // antisymmetry
        prop_assert_eq!(lex_cmp(&a, &b), lex_cmp(&b, &a).reverse());
        // transitivity (via sorting consistency)
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort_by(lex_cmp);
        prop_assert_ne!(lex_cmp(&v[0], &v[1]), Ordering::Greater);
        prop_assert_ne!(lex_cmp(&v[1], &v[2]), Ordering::Greater);
        prop_assert_ne!(lex_cmp(&v[0], &v[2]), Ordering::Greater);
    }
}
