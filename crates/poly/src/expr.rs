//! Linear expressions over indexed variables.

use inl_linalg::{gcd, InlError, Int};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// `a · b`, or `None` when the product leaves `Int`. Two factors that fit
/// in `i64` multiply as one 64 × 64 → 128-bit product, which cannot
/// overflow; wider factors take `i128::checked_mul`.
#[inline]
fn mul(a: Int, b: Int) -> Option<Int> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(x), Ok(y)) => Some(Int::from(x) * Int::from(y)),
        _ => a.checked_mul(b),
    }
}

/// A linear expression `Σ coeffs[i]·xᵢ + constant` over a fixed number of
/// variables. The variable space is positional; callers decide what each
/// index means (loop variables, symbolic parameters, Δ variables, …).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LinExpr {
    coeffs: Vec<Int>,
    constant: Int,
}

impl LinExpr {
    /// The zero expression over `n` variables.
    pub fn zero(n: usize) -> Self {
        LinExpr {
            coeffs: vec![0; n],
            constant: 0,
        }
    }

    /// The constant expression `c` over `n` variables.
    pub fn constant(n: usize, c: Int) -> Self {
        LinExpr {
            coeffs: vec![0; n],
            constant: c,
        }
    }

    /// The single variable `xᵢ` over `n` variables.
    pub fn var(n: usize, i: usize) -> Self {
        let mut coeffs = vec![0; n];
        coeffs[i] = 1;
        LinExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Build from raw parts.
    pub fn from_parts(coeffs: Vec<Int>, constant: Int) -> Self {
        LinExpr { coeffs, constant }
    }

    /// Number of variables in the space.
    pub fn nvars(&self) -> usize {
        self.coeffs.len()
    }

    /// Coefficient of variable `i`.
    #[inline]
    pub fn coeff(&self, i: usize) -> Int {
        self.coeffs[i]
    }

    /// Set the coefficient of variable `i`.
    pub fn set_coeff(&mut self, i: usize, c: Int) {
        self.coeffs[i] = c;
    }

    /// The constant term.
    #[inline]
    pub fn constant_term(&self) -> Int {
        self.constant
    }

    /// Set the constant term.
    pub fn set_constant(&mut self, c: Int) {
        self.constant = c;
    }

    /// The coefficient vector.
    pub fn coeffs(&self) -> &[Int] {
        &self.coeffs
    }

    /// True iff all coefficients are zero (a pure constant).
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// True iff identically zero.
    pub fn is_zero(&self) -> bool {
        self.constant == 0 && self.is_constant()
    }

    /// Indices of variables with non-zero coefficients.
    pub fn support(&self) -> impl Iterator<Item = usize> + '_ {
        self.coeffs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, _)| i)
    }

    /// Gcd of all coefficients (not the constant); 0 if constant.
    pub fn coeff_content(&self) -> Int {
        self.coeffs.iter().fold(0, |acc, &c| gcd(acc, c))
    }

    /// Evaluate at a point (must supply all variables); convenience wrapper
    /// over [`LinExpr::checked_eval`] for trusted (small-entry) inputs.
    ///
    /// # Panics
    /// On overflow; fallible paths use [`LinExpr::checked_eval`].
    pub fn eval(&self, point: &[Int]) -> Int {
        self.checked_eval(point)
            .expect("eval overflow: fallible paths use checked_eval")
    }

    /// Overflow-checked evaluation at a point.
    ///
    /// # Panics
    /// If `point` does not supply all variables (an arity mismatch is a
    /// programming error, not an input condition).
    pub fn checked_eval(&self, point: &[Int]) -> Result<Int, InlError> {
        assert_eq!(point.len(), self.coeffs.len(), "eval: wrong arity");
        let mut acc = self.constant;
        for (&c, &x) in self.coeffs.iter().zip(point) {
            acc = mul(c, x)
                .and_then(|t| acc.checked_add(t))
                .ok_or_else(|| InlError::overflow("linear expression evaluation"))?;
        }
        Ok(acc)
    }

    /// Substitute variable `i` with expression `e`; convenience wrapper
    /// over [`LinExpr::checked_substitute`] for trusted inputs.
    ///
    /// # Panics
    /// On overflow; fallible paths use [`LinExpr::checked_substitute`].
    pub fn substitute(&self, i: usize, e: &LinExpr) -> LinExpr {
        self.checked_substitute(i, e)
            .expect("substitute overflow: fallible paths use checked_substitute")
    }

    /// Overflow-checked substitution of variable `i` with expression `e`
    /// (which must live in the same variable space and have zero
    /// coefficient on `i` itself).
    ///
    /// # Panics
    /// On arity mismatch or a self-referential replacement (programming
    /// errors, not input conditions).
    pub fn checked_substitute(&self, i: usize, e: &LinExpr) -> Result<LinExpr, InlError> {
        assert_eq!(self.nvars(), e.nvars(), "substitute: arity mismatch");
        assert_eq!(
            e.coeff(i),
            0,
            "substitute: replacement mentions the variable"
        );
        let c = self.coeffs[i];
        if c == 0 {
            return Ok(self.clone());
        }
        let err = || InlError::overflow("substitution");
        let mut out = self.clone();
        out.coeffs[i] = 0;
        for j in 0..out.coeffs.len() {
            out.coeffs[j] = mul(c, e.coeffs[j])
                .and_then(|t| out.coeffs[j].checked_add(t))
                .ok_or_else(err)?;
        }
        out.constant = mul(c, e.constant)
            .and_then(|t| out.constant.checked_add(t))
            .ok_or_else(err)?;
        Ok(out)
    }

    /// Overflow-checked addition.
    pub fn checked_add(&self, rhs: &LinExpr) -> Result<LinExpr, InlError> {
        assert_eq!(self.nvars(), rhs.nvars(), "add: arity mismatch");
        let err = || InlError::overflow("linear expression addition");
        Ok(LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| a.checked_add(b).ok_or_else(err))
                .collect::<Result<_, _>>()?,
            constant: self.constant.checked_add(rhs.constant).ok_or_else(err)?,
        })
    }

    /// Overflow-checked subtraction.
    pub fn checked_sub(&self, rhs: &LinExpr) -> Result<LinExpr, InlError> {
        assert_eq!(self.nvars(), rhs.nvars(), "sub: arity mismatch");
        let err = || InlError::overflow("linear expression subtraction");
        Ok(LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| a.checked_sub(b).ok_or_else(err))
                .collect::<Result<_, _>>()?,
            constant: self.constant.checked_sub(rhs.constant).ok_or_else(err)?,
        })
    }

    /// Overflow-checked negation.
    pub fn checked_neg(&self) -> Result<LinExpr, InlError> {
        let err = || InlError::overflow("linear expression negation");
        Ok(LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| a.checked_neg().ok_or_else(err))
                .collect::<Result<_, _>>()?,
            constant: self.constant.checked_neg().ok_or_else(err)?,
        })
    }

    /// Overflow-checked scaling by a constant.
    pub fn checked_scale(&self, k: Int) -> Result<LinExpr, InlError> {
        let err = || InlError::overflow("linear expression scaling");
        Ok(LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| mul(a, k).ok_or_else(err))
                .collect::<Result<_, _>>()?,
            constant: mul(self.constant, k).ok_or_else(err)?,
        })
    }

    /// Overflow-checked `p·self + q·other`, built in one pass with one
    /// allocation (the Fourier–Motzkin combination of a lower and an upper
    /// bound row). Fails exactly when `self.checked_scale(p)`,
    /// `other.checked_scale(q)` or their `checked_add` would, and with the
    /// same error: on a failure the composition is replayed to report it.
    pub fn checked_combine(&self, p: Int, other: &LinExpr, q: Int) -> Result<LinExpr, InlError> {
        assert_eq!(self.nvars(), other.nvars(), "combine: arity mismatch");
        let term = |a: Int, b: Int| mul(a, p)?.checked_add(mul(b, q)?);
        let fused = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&a, &b)| term(a, b))
            .collect::<Option<Vec<Int>>>()
            .zip(term(self.constant, other.constant));
        match fused {
            Some((coeffs, constant)) => Ok(LinExpr { coeffs, constant }),
            None => self.checked_scale(p)?.checked_add(&other.checked_scale(q)?),
        }
    }

    /// Extend the variable space to `n` variables (new variables have
    /// coefficient 0). `n` must be ≥ the current arity.
    pub fn extend(&self, n: usize) -> LinExpr {
        assert!(n >= self.nvars());
        let mut coeffs = self.coeffs.clone();
        coeffs.resize(n, 0);
        LinExpr {
            coeffs,
            constant: self.constant,
        }
    }

    /// Render with variable names supplied by `name`.
    pub fn display_with<'a>(&'a self, name: &'a dyn Fn(usize) -> String) -> LinExprDisplay<'a> {
        LinExprDisplay { expr: self, name }
    }
}

/// Helper for [`LinExpr::display_with`].
pub struct LinExprDisplay<'a> {
    expr: &'a LinExpr,
    name: &'a dyn Fn(usize) -> String,
}

impl fmt::Display for LinExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, &c) in self.expr.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let n = (self.name)(i);
            if first {
                match c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    _ => write!(f, "{c}*{n}")?,
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {n}")?;
                } else {
                    write!(f, " + {c}*{n}")?;
                }
            } else if c == -1 {
                write!(f, " - {n}")?;
            } else {
                write!(f, " - {}*{n}", -c)?;
            }
        }
        let k = self.expr.constant;
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        Ok(())
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |i: usize| format!("x{i}");
        write!(f, "{}", self.display_with(&name))
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        self.checked_add(&rhs)
            .expect("add overflow: fallible paths use checked_add")
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self.checked_sub(&rhs)
            .expect("sub overflow: fallible paths use checked_sub")
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.checked_neg()
            .expect("neg overflow: fallible paths use checked_neg")
    }
}

impl Mul<Int> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: Int) -> LinExpr {
        self.checked_scale(k)
            .expect("mul overflow: fallible paths use checked_scale")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_eval() {
        let n = 3;
        let e = LinExpr::var(n, 0) * 2 - LinExpr::var(n, 2) + LinExpr::constant(n, 5);
        assert_eq!(e.coeff(0), 2);
        assert_eq!(e.coeff(1), 0);
        assert_eq!(e.coeff(2), -1);
        assert_eq!(e.constant_term(), 5);
        assert_eq!(e.eval(&[10, 99, 3]), 22);
        assert!(!e.is_constant());
        assert!(LinExpr::constant(2, 7).is_constant());
        assert!(LinExpr::zero(2).is_zero());
    }

    #[test]
    fn substitute_var() {
        // x0 + 2*x1, substitute x1 := x2 - 1  =>  x0 + 2*x2 - 2
        let n = 3;
        let e = LinExpr::var(n, 0) + LinExpr::var(n, 1) * 2;
        let r = LinExpr::var(n, 2) - LinExpr::constant(n, 1);
        let s = e.substitute(1, &r);
        assert_eq!(s.coeff(0), 1);
        assert_eq!(s.coeff(1), 0);
        assert_eq!(s.coeff(2), 2);
        assert_eq!(s.constant_term(), -2);
    }

    #[test]
    fn extend() {
        let e = LinExpr::var(2, 0) + LinExpr::var(2, 1) * 3;
        let x = e.extend(5);
        assert_eq!(x.nvars(), 5);
        assert_eq!((x.coeff(0), x.coeff(1), x.coeff(4)), (1, 3, 0));
    }

    #[test]
    fn display() {
        let n = 3;
        let name = |i: usize| ["N", "i", "j"][i].to_string();
        let e = LinExpr::var(n, 1) * 2 - LinExpr::var(n, 2) - LinExpr::constant(n, 3);
        assert_eq!(format!("{}", e.display_with(&name)), "2*i - j - 3");
        assert_eq!(format!("{}", LinExpr::zero(n).display_with(&name)), "0");
        let f = -LinExpr::var(n, 0) + LinExpr::constant(n, 1);
        assert_eq!(format!("{}", f.display_with(&name)), "-N + 1");
    }

    /// Magnitudes around the 64-bit fast path's edge and the `i128` edge.
    const EDGES: [Int; 16] = [
        0,
        1,
        -1,
        3,
        -7,
        1 << 31,
        i64::MAX as Int,
        i64::MIN as Int,
        i64::MAX as Int + 1,
        i64::MIN as Int - 1,
        u64::MAX as Int,
        1 << 64,
        -(1 << 100),
        Int::MAX,
        Int::MIN,
        Int::MIN + 1,
    ];

    #[test]
    fn fast_multiply_agrees_with_checked_mul() {
        for &a in &EDGES {
            for &b in &EDGES {
                assert_eq!(mul(a, b), a.checked_mul(b), "{a} * {b}");
            }
        }
        assert_eq!(
            mul(i64::MIN as Int, i64::MIN as Int),
            Some(1 << 126),
            "the largest 64 × 64 product fits"
        );
        assert_eq!(mul(Int::MAX, 2), None);
    }

    #[test]
    fn fused_combination_agrees_with_scale_then_add() {
        let reference = |l: &LinExpr, p: Int, u: &LinExpr, q: Int| {
            l.checked_scale(p)
                .and_then(|a| u.checked_scale(q).and_then(|b| a.checked_add(&b)))
        };
        let mut oks = 0;
        let mut errs = 0;
        for &x in &EDGES {
            for &y in &EDGES {
                let l = LinExpr::from_parts(vec![x, 1, -2], y);
                let u = LinExpr::from_parts(vec![y, -3, x], 5);
                for (p, q) in [(1, 1), (2, 3), (1 << 40, 7), (Int::MAX, 1), (1, Int::MIN)] {
                    let fused = l.checked_combine(p, &u, q);
                    assert_eq!(fused, reference(&l, p, &u, q), "{l:?}·{p} + {u:?}·{q}");
                    if fused.is_ok() {
                        oks += 1;
                    } else {
                        errs += 1;
                    }
                }
            }
        }
        assert!(
            oks > 0 && errs > 0,
            "both outcomes covered: {oks} ok, {errs} err"
        );
        // A sum that overflows although both products fit.
        let big = LinExpr::from_parts(vec![Int::MAX], 0);
        let err = big.checked_combine(1, &big, 1).unwrap_err();
        assert_eq!(err.kind(), inl_linalg::InlErrorKind::Overflow);
        assert_eq!(err, big.checked_add(&big).unwrap_err());
    }

    #[test]
    fn content() {
        let n = 2;
        let e = LinExpr::var(n, 0) * 4 + LinExpr::var(n, 1) * 6 + LinExpr::constant(n, 3);
        assert_eq!(e.coeff_content(), 2);
        assert_eq!(LinExpr::constant(n, 5).coeff_content(), 0);
    }
}
