//! # inl-linalg
//!
//! Exact integer and rational linear algebra for the `inl` loop-transformation
//! framework.
//!
//! Loop transformations are represented by integer matrices acting on integer
//! instance vectors (Kodukula & Pingali, SC 1996). Everything the framework
//! does with those matrices — legality tests, rank computations for the
//! augmentation procedure, non-singular per-statement transforms — must be
//! *exact*: a rounding error of 1 changes which iterations a loop executes.
//! This crate therefore provides:
//!
//! * [`InlError`] — the structured, recoverable error type shared by the
//!   whole pipeline; fallible operations report it rather than panicking;
//! * [`Rational`] — exact rationals over `i128` (sufficient for the matrix
//!   sizes that arise from loop nests; all operations are overflow-checked
//!   and the fallible entry points report [`InlError`] rather than wrap);
//! * [`IMat`] / [`IVec`] — dense integer matrices/vectors with exact
//!   elimination: rank, determinant, rational inverse, solving, integer
//!   nullspace bases;
//! * [`lex`] — lexicographic order utilities on integer vectors.
//!
//! # Example
//!
//! ```
//! use inl_linalg::{IMat, IVec};
//!
//! // The paper's loop-interchange matrix for the simplified Cholesky nest.
//! let m = IMat::from_rows(&[
//!     &[0, 0, 0, 1][..],
//!     &[0, 1, 0, 0],
//!     &[0, 0, 1, 0],
//!     &[1, 0, 0, 0],
//! ]);
//! assert_eq!(m.det(), -1); // a permutation: unimodular
//! let v = IVec::from(vec![2, 0, 1, 2]); // instance vector of S1 at I=2
//! assert_eq!(m.mul_vec(&v).as_slice(), &[2, 0, 1, 2]);
//! ```

pub mod error;
pub mod gauss;
pub mod lex;
pub mod matrix;
pub mod rational;
pub mod vector;

pub use error::{InlError, InlErrorKind};
pub use gauss::{inverse_rational, nullspace_int, rank, solve_rational};
pub use lex::lex_cmp;
pub use matrix::IMat;
pub use rational::Rational;
pub use vector::IVec;

/// The integer type used throughout the framework.
///
/// `i128` gives comfortable headroom for the products that appear in
/// fraction-free elimination of loop-transformation matrices (whose entries
/// are small: skew factors, ±1, alignment offsets).
pub type Int = i128;

/// Greatest common divisor (always non-negative; `gcd(0, 0) == 0`).
///
/// Computed on unsigned magnitudes, so `Int::MIN` inputs are handled
/// exactly: `gcd(Int::MIN, 1) == 1`, `gcd(Int::MIN, 2) == 2`. The single
/// unrepresentable case — a mathematical gcd of `2^127`, reachable only
/// from `{Int::MIN, 0}` and `{Int::MIN, Int::MIN}` — degrades to `1`
/// (skipping normalization is always sound; dividing by a wrong gcd is
/// not). Downstream products involving such magnitudes then hit checked
/// arithmetic and report [`InlErrorKind::Overflow`] rather than silently
/// mis-normalizing.
///
/// When both magnitudes fit in `u64` (every coefficient a loop nest
/// produces) the loop runs on `u64`: Euclid's remainders never exceed
/// their inputs, so it computes the same value with a 64-bit divide.
#[inline]
pub fn gcd(a: Int, b: Int) -> Int {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    if let (Ok(mut x), Ok(mut y)) = (u64::try_from(a), u64::try_from(b)) {
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        return Int::from(x);
    }
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    Int::try_from(a).unwrap_or(1)
}

/// Least common multiple (non-negative; `lcm(x, 0) == Ok(0)`).
///
/// Fails with [`InlErrorKind::Overflow`] when the magnitude of the result
/// exceeds `Int::MAX` — including `lcm(Int::MIN, 1)`, whose mathematical
/// value `2^127` is one past the representable range.
#[inline]
pub fn lcm(a: Int, b: Int) -> Result<Int, InlError> {
    if a == 0 || b == 0 {
        return Ok(0);
    }
    (a / gcd(a, b))
        .checked_mul(b)
        .and_then(Int::checked_abs)
        .ok_or_else(|| InlError::overflow("lcm"))
}

/// All orderings of a small slice, in lexicographic order of positions
/// (the first ordering is the slice itself).
pub fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let x = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, x.clone());
            out.push(tail);
        }
    }
    out
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y == g == gcd(a, b)`,
/// `g >= 0`.
///
/// `Int::MIN` inputs are handled whenever the gcd itself is representable
/// (e.g. `ext_gcd(Int::MIN, 3)`); the unrepresentable gcd-of-`2^127`
/// corner degrades like [`gcd`], returning `(1, 0, 0)` with no valid
/// Bézout identity — callers that divide by the gcd skip the reduction.
pub fn ext_gcd(a: Int, b: Int) -> (Int, Int, Int) {
    if b == 0 {
        match a.checked_abs() {
            Some(g) => {
                if a < 0 {
                    (g, -1, 0)
                } else {
                    (g, 1, 0)
                }
            }
            // a == Int::MIN: gcd 2^127 unrepresentable, same corner as `gcd`.
            None => (1, 0, 0),
        }
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        // g = b*x + (a % b)*y = a*y + b*(x - (a/b)*y)
        (g, y, x - (a / b) * y)
    }
}

/// Floor division (rounds towards negative infinity), as needed for integer
/// loop bounds: `floor_div(-3, 2) == -2`.
#[inline]
pub fn floor_div(a: Int, b: Int) -> Int {
    debug_assert!(b != 0, "floor_div by zero");
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division (rounds towards positive infinity): `ceil_div(3, 2) == 2`.
#[inline]
pub fn ceil_div(a: Int, b: Int) -> Int {
    debug_assert!(b != 0, "ceil_div by zero");
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Mathematical modulus: result is in `[0, |b|)`.
#[inline]
pub fn modulo(a: Int, b: Int) -> Int {
    let r = a % b;
    if r < 0 {
        r + b.abs()
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), Ok(12));
        assert_eq!(lcm(-4, 6), Ok(12));
        assert_eq!(lcm(0, 6), Ok(0));
        assert_eq!(lcm(7, 7), Ok(7));
    }

    #[test]
    fn gcd_min_edges() {
        // |Int::MIN| is not representable, but every gcd against MIN with a
        // representable result must be exact.
        assert_eq!(gcd(Int::MIN, 1), 1);
        assert_eq!(gcd(1, Int::MIN), 1);
        assert_eq!(gcd(Int::MIN, 2), 2);
        assert_eq!(gcd(Int::MIN, 3), 1);
        assert_eq!(gcd(Int::MIN, Int::MAX), 1);
        assert_eq!(gcd(Int::MIN, 1 << 20), 1 << 20);
    }

    /// The plain `u128` Euclid the 64-bit path must agree with.
    fn gcd_u128(a: Int, b: Int) -> Int {
        let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        Int::try_from(a).unwrap_or(1)
    }

    #[test]
    fn gcd_64_bit_path_agrees_at_its_boundary() {
        let max64 = Int::from(u64::MAX);
        let edges = [
            0,
            1,
            -1,
            2,
            3,
            12,
            -18,
            Int::from(i64::MAX),
            Int::from(i64::MIN),
            max64 - 1,
            max64,
            -max64,
            max64 + 1,
            -(max64 + 1),
            max64 + 2,
            (max64 + 1) * 6,
            1 << 100,
            Int::MAX,
            Int::MIN + 1,
            Int::MIN,
        ];
        for &a in &edges {
            for &b in &edges {
                assert_eq!(gcd(a, b), gcd_u128(a, b), "gcd({a}, {b})");
            }
        }
        assert_eq!(gcd(max64, max64 + 1), 1);
        assert_eq!(gcd(Int::from(i64::MIN), 6), 2);
        assert_eq!(gcd((max64 + 1) * 6, (max64 + 1) * 4), (max64 + 1) * 2);
        // The documented unrepresentable case: a gcd of 2^127 degrades to 1.
        assert_eq!(gcd(Int::MIN, 0), 1);
        assert_eq!(gcd(0, Int::MIN), 1);
        assert_eq!(gcd(Int::MIN, Int::MIN), 1);
        assert_eq!(gcd(Int::MAX, 0), Int::MAX);
    }

    #[test]
    fn lcm_min_edges() {
        // lcm(MIN, 1) = 2^127 is one past Int::MAX: typed overflow, not a
        // wrapped `.abs()`.
        assert_eq!(lcm(Int::MIN, 1).unwrap_err().kind(), InlErrorKind::Overflow);
        assert_eq!(lcm(1, Int::MIN).unwrap_err().kind(), InlErrorKind::Overflow);
        assert_eq!(
            lcm(Int::MIN, Int::MIN).unwrap_err().kind(),
            InlErrorKind::Overflow
        );
        assert_eq!(lcm(Int::MIN, 0), Ok(0));
        assert_eq!(lcm(Int::MAX, Int::MAX), Ok(Int::MAX));
        assert_eq!(lcm(Int::MIN / 2, 2), Ok(Int::MIN / -2));
        assert_eq!(
            lcm(Int::MIN / 2, 3).unwrap_err().kind(),
            InlErrorKind::Overflow
        );
    }

    #[test]
    fn ext_gcd_min_edges() {
        for b in [1, 2, 3, 5, Int::MAX] {
            let (g, x, y) = ext_gcd(Int::MIN, b);
            assert_eq!(g, gcd(Int::MIN, b), "gcd mismatch for (MIN,{b})");
            assert_eq!(
                Int::MIN.wrapping_mul(x).wrapping_add(b.wrapping_mul(y)),
                g,
                "bezout identity fails for (MIN,{b})"
            );
        }
    }

    #[test]
    fn ext_gcd_identity() {
        for (a, b) in [
            (12, 18),
            (-12, 18),
            (0, 7),
            (7, 0),
            (1, 1),
            (240, 46),
            (-5, -15),
        ] {
            let (g, x, y) = ext_gcd(a, b);
            assert_eq!(g, gcd(a, b), "gcd mismatch for ({a},{b})");
            assert_eq!(a * x + b * y, g, "bezout identity fails for ({a},{b})");
        }
    }

    #[test]
    fn floor_ceil_div() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(floor_div(-7, -2), 3);
        assert_eq!(floor_div(6, 3), 2);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(7, -2), -3);
        assert_eq!(ceil_div(-7, -2), 4);
        assert_eq!(ceil_div(6, 3), 2);
    }

    #[test]
    fn modulo_range() {
        assert_eq!(modulo(7, 3), 1);
        assert_eq!(modulo(-7, 3), 2);
        assert_eq!(modulo(-7, -3), 2);
        assert_eq!(modulo(6, 3), 0);
    }
}
