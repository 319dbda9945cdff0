//! Exact rational numbers over [`Int`].
//!
//! Used wherever the framework needs non-integer intermediate values:
//! rational matrix inverses for loop-bound generation, Fourier–Motzkin
//! pivoting, and the per-statement transformation algebra. The denominator is
//! kept positive and the fraction fully reduced, so equality is structural.

use crate::{gcd, InlError, InlErrorKind, Int};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) == 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: Int,
    den: Int,
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Construct `num / den`, reducing to lowest terms.
    ///
    /// # Panics
    /// If `den == 0`.
    pub fn new(num: Int, den: Int) -> Self {
        assert!(den != 0, "rational with zero denominator");
        // Already reduced, and what the interpreter's `Aff::eval` passes
        // for every subscript of every instance.
        if den == 1 {
            return Rational { num, den };
        }
        let g = gcd(num, den);
        if g == 0 {
            return Rational { num: 0, den: 1 };
        }
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// An integer as a rational.
    #[inline]
    pub fn int(n: Int) -> Self {
        Rational { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    #[inline]
    pub fn num(&self) -> Int {
        self.num
    }

    /// Denominator (always positive).
    #[inline]
    pub fn den(&self) -> Int {
        self.den
    }

    /// True iff the value is an integer.
    #[inline]
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Sign: -1, 0 or 1.
    #[inline]
    pub fn signum(&self) -> Int {
        self.num.signum()
    }

    /// Floor to the nearest integer towards negative infinity.
    pub fn floor(&self) -> Int {
        crate::floor_div(self.num, self.den)
    }

    /// Ceiling to the nearest integer towards positive infinity.
    pub fn ceil(&self) -> Int {
        crate::ceil_div(self.num, self.den)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// If the value is zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Absolute value.
    ///
    /// # Panics
    /// In debug builds if the numerator is `Int::MIN` (magnitude `2^127`
    /// unrepresentable); boundary validation keeps such values out of the
    /// pipeline. Use [`Ord`] for magnitude comparisons instead — it never
    /// overflows.
    pub fn abs(&self) -> Self {
        debug_assert!(self.num != Int::MIN, "rational abs overflow");
        Rational {
            num: self.num.wrapping_abs(),
            den: self.den,
        }
    }

    /// Overflow-checked addition; the fallible counterpart of `+`.
    pub fn checked_add(self, rhs: Rational) -> Result<Rational, InlError> {
        let num = self
            .num
            .checked_mul(rhs.den)
            .and_then(|a| rhs.num.checked_mul(self.den).and_then(|b| a.checked_add(b)))
            .ok_or_else(|| InlError::overflow("rational add"))?;
        let den = self
            .den
            .checked_mul(rhs.den)
            .ok_or_else(|| InlError::overflow("rational add"))?;
        Ok(Rational::new(num, den))
    }

    /// Overflow-checked subtraction; the fallible counterpart of `-`.
    pub fn checked_sub(self, rhs: Rational) -> Result<Rational, InlError> {
        self.checked_add(rhs.checked_neg()?)
    }

    /// Overflow-checked multiplication; the fallible counterpart of `*`.
    pub fn checked_mul(self, rhs: Rational) -> Result<Rational, InlError> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .ok_or_else(|| InlError::overflow("rational mul"))?;
        let den = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .ok_or_else(|| InlError::overflow("rational mul"))?;
        Ok(Rational::new(num, den))
    }

    /// Overflow-checked division. Fails with [`InlErrorKind::IllFormed`] on
    /// division by zero, [`InlErrorKind::Overflow`] on range exhaustion.
    pub fn checked_div(self, rhs: Rational) -> Result<Rational, InlError> {
        if rhs.num == 0 {
            return Err(InlError::new(
                InlErrorKind::IllFormed,
                "rational division by zero",
            ));
        }
        if rhs.num == Int::MIN {
            // recip would need den = |MIN|.
            return Err(InlError::overflow("rational div"));
        }
        self.checked_mul(rhs.recip())
    }

    /// Overflow-checked negation (fails only on a numerator of `Int::MIN`).
    pub fn checked_neg(self) -> Result<Rational, InlError> {
        let num = self
            .num
            .checked_neg()
            .ok_or_else(|| InlError::overflow("rational neg"))?;
        Ok(Rational { num, den: self.den })
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<Int> for Rational {
    fn from(n: Int) -> Self {
        Rational::int(n)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs)
            .expect("rational add overflow: fallible paths use checked_add")
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs)
            .expect("rational mul overflow: fallible paths use checked_mul")
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a * b⁻¹ is the definition
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.checked_neg()
            .expect("rational neg overflow: fallible paths use checked_neg")
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    /// Total order, overflow-immune for every representable pair.
    ///
    /// Naive cross-multiplication `num·den'` exceeds `i128` for large but
    /// perfectly comparable values, so magnitudes are compared by
    /// continued-fraction descent instead: compare integer parts, and when
    /// they tie, compare the reciprocal remainder fractions with the order
    /// flipped (Euclid's algorithm on the two fractions in lock-step). No
    /// intermediate ever exceeds the inputs.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ls, rs) = (self.num.signum(), other.num.signum());
        if ls != rs {
            return ls.cmp(&rs);
        }
        if ls == 0 {
            return Ordering::Equal;
        }
        let mag = cmp_pos_frac(
            self.num.unsigned_abs(),
            self.den.unsigned_abs(),
            other.num.unsigned_abs(),
            other.den.unsigned_abs(),
        );
        if ls > 0 {
            mag
        } else {
            mag.reverse()
        }
    }
}

/// Compare `a/b` with `c/d` for positive `a, b, c, d` without widening.
fn cmp_pos_frac(mut a: u128, mut b: u128, mut c: u128, mut d: u128) -> Ordering {
    loop {
        let (q1, r1) = (a / b, a % b);
        let (q2, r2) = (c / d, c % d);
        if q1 != q2 {
            return q1.cmp(&q2);
        }
        match (r1 == 0, r2 == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            // a/b = q + r1/b and c/d = q + r2/d: the comparison reduces to
            // r1/b vs r2/d, i.e. d/r2 vs b/r1 with the order flipped.
            (false, false) => (a, b, c, d) = (d, r2, b, r1),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        let r = Rational::new(6, -4);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 2);
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
    }

    #[test]
    fn unit_denominator_shortcut_is_the_reduced_form() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        for n in [0, 1, -1, 42, -42, Int::MIN + 1, Int::MAX] {
            let fast = Rational::new(n, 1);
            assert_eq!((fast.num(), fast.den()), (n, 1));
            // -n / -1 and, where it fits, 2n / 2 take the gcd path.
            let mut reduced = vec![Rational::new(-n, -1)];
            reduced.extend(n.checked_mul(2).map(|d| Rational::new(d, 2)));
            for slow in reduced {
                assert_eq!(fast, slow);
                assert_eq!(fast.cmp(&slow), Ordering::Equal);
                assert_eq!(hasher.hash_one(fast), hasher.hash_one(slow));
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert!(Rational::new(2, 4) == Rational::new(1, 2));
    }

    #[test]
    fn cmp_large_values_no_overflow() {
        // Cross-multiplication of these overflows i128; the
        // continued-fraction comparison must still order them correctly.
        let a = Rational::new(Int::MAX, 2);
        let b = Rational::new(Int::MAX - 1, 2);
        assert!(b < a);
        assert!(a > b);
        assert_eq!(a.cmp(&a), Ordering::Equal);

        let c = Rational::new(Int::MAX, 3);
        assert!(c < a, "MAX/3 < MAX/2");

        let d = Rational::new(-(Int::MAX), 2);
        let e = Rational::new(-(Int::MAX - 1), 2);
        assert!(d < e, "more negative is smaller");

        // Mixed signs and zero never even reach magnitude comparison.
        assert!(d < Rational::ZERO);
        assert!(Rational::ZERO < a);
        assert!(d < c);

        // Huge numerators against huge denominators.
        let f = Rational::new(Int::MAX, Int::MAX - 2);
        let g = Rational::new(Int::MAX - 1, Int::MAX - 2);
        assert!(g < f);
        assert!(f > Rational::ONE && g > Rational::ONE);

        // MIN numerator (reduced) participates safely.
        let h = Rational::new(Int::MIN, 2);
        let i = Rational::new(Int::MIN / 2 + 1, 1);
        assert!(h < i);
    }

    #[test]
    fn cmp_agrees_with_cross_multiplication_when_small() {
        let vals: Vec<Rational> = [-7, -3, -1, 0, 1, 2, 5]
            .iter()
            .flat_map(|&n| [1, 2, 3, 7].iter().map(move |&d| Rational::new(n, d)))
            .collect();
        for x in &vals {
            for y in &vals {
                let expect = (x.num() * y.den()).cmp(&(y.num() * x.den()));
                assert_eq!(x.cmp(y), expect, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn checked_arithmetic_reports_overflow() {
        let big = Rational::new(Int::MAX, 1);
        assert_eq!(
            big.checked_add(big).unwrap_err().kind(),
            crate::InlErrorKind::Overflow
        );
        assert_eq!(
            big.checked_mul(big).unwrap_err().kind(),
            crate::InlErrorKind::Overflow
        );
        assert_eq!(
            Rational::new(Int::MIN, 1).checked_neg().unwrap_err().kind(),
            crate::InlErrorKind::Overflow
        );
        assert_eq!(
            Rational::ONE
                .checked_div(Rational::ZERO)
                .unwrap_err()
                .kind(),
            crate::InlErrorKind::IllFormed
        );
        assert_eq!(
            Rational::new(1, 2).checked_sub(Rational::new(1, 3)),
            Ok(Rational::new(1, 6))
        );
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(6, 3).floor(), 2);
        assert_eq!(Rational::new(6, 3).ceil(), 2);
    }

    #[test]
    fn recip_and_int() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert!(Rational::int(5).is_integer());
        assert!(!Rational::new(5, 2).is_integer());
        assert_eq!(Rational::new(-3, 4).signum(), -1);
    }
}
