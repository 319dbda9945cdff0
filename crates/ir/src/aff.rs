//! Sparse affine expressions over program variables.
//!
//! [`Aff`] is the expression language of the IR: loop bounds, array
//! subscripts and guards are all affine functions of symbolic parameters
//! and enclosing loop variables. Unlike [`inl_poly::LinExpr`], `Aff` is
//! sparse (it names variables by [`VarKey`], not position) so it can be
//! written before the program's full variable space is known, and it carries
//! an optional positive divisor so non-unimodular code generation can
//! express `(i' + j') / 2`-style recovered indices (the interpreter checks
//! exact divisibility at runtime; guards generated alongside make it hold).

use crate::program::{LoopId, ParamId};
use inl_linalg::{gcd, Int, Rational};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A variable of the program: a symbolic parameter or a loop index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarKey {
    /// A symbolic size parameter (e.g. `N`).
    Param(ParamId),
    /// A loop index variable.
    Loop(LoopId),
}

/// A sparse affine expression `(Σ cᵢ·vᵢ + k) / div` with `div ≥ 1`.
///
/// The division is exact-rational: [`Aff::eval`] returns a [`Rational`].
/// Contexts that require integers (array subscripts) check divisibility at
/// runtime; loop bounds apply context-dependent floor/ceil instead.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Aff {
    /// Sorted by `VarKey`, no zero coefficients, no duplicate keys.
    terms: Vec<(VarKey, Int)>,
    constant: Int,
    div: Int,
}

impl Aff {
    /// The constant expression `k`.
    pub fn konst(k: Int) -> Self {
        Aff {
            terms: vec![],
            constant: k,
            div: 1,
        }
    }

    /// The zero expression.
    pub fn zero() -> Self {
        Aff::konst(0)
    }

    /// A single variable.
    pub fn var(v: VarKey) -> Self {
        Aff {
            terms: vec![(v, 1)],
            constant: 0,
            div: 1,
        }
    }

    /// A parameter variable.
    pub fn param(p: ParamId) -> Self {
        Aff::var(VarKey::Param(p))
    }

    /// A loop variable.
    pub fn loop_var(l: LoopId) -> Self {
        Aff::var(VarKey::Loop(l))
    }

    /// Build from terms (need not be sorted/deduped) and a constant.
    pub fn from_terms(terms: Vec<(VarKey, Int)>, constant: Int) -> Self {
        Aff {
            terms: merged(terms),
            constant,
            div: 1,
        }
    }

    /// The terms, sorted by variable.
    pub fn terms(&self) -> &[(VarKey, Int)] {
        &self.terms
    }

    /// The constant term (numerator part).
    pub fn constant(&self) -> Int {
        self.constant
    }

    /// The divisor (`≥ 1`).
    pub fn divisor(&self) -> Int {
        self.div
    }

    /// Coefficient of a variable (0 if absent).
    pub fn coeff(&self, v: VarKey) -> Int {
        self.terms
            .binary_search_by_key(&v, |&(k, _)| k)
            .map_or(0, |i| self.terms[i].1)
    }

    /// True iff no variables occur.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Divide by a positive constant (stacked onto the existing divisor,
    /// then normalized by the gcd of all numerator entries).
    ///
    /// # Panics
    /// If `d <= 0`.
    pub fn exact_div(&self, d: Int) -> Aff {
        assert!(d > 0, "divisor must be positive");
        let mut out = self.clone();
        out.div = out.div.checked_mul(d).expect("divisor overflow");
        out.normalize();
        out
    }

    fn normalize(&mut self) {
        if self.div == 1 {
            return;
        }
        let mut g = self.div;
        g = gcd(g, self.constant);
        for &(_, c) in &self.terms {
            g = gcd(g, c);
        }
        if g > 1 {
            self.div /= g;
            self.constant /= g;
            for t in &mut self.terms {
                t.1 /= g;
            }
        }
    }

    /// Evaluate at a point, looking variables up through `lookup`.
    pub fn eval(&self, lookup: &dyn Fn(VarKey) -> Int) -> Rational {
        let num = self
            .terms
            .iter()
            .map(|&(v, c)| c.checked_mul(lookup(v)).expect("aff eval overflow"))
            .fold(self.constant, |acc, t| {
                acc.checked_add(t).expect("aff eval overflow")
            });
        Rational::new(num, self.div)
    }

    /// Evaluate, requiring an integral result; `None` if the division is
    /// inexact at this point.
    pub fn eval_int(&self, lookup: &dyn Fn(VarKey) -> Int) -> Option<Int> {
        let r = self.eval(lookup);
        r.is_integer().then(|| r.num())
    }

    /// Substitute loop variables: loop `l` becomes `subst(l)`, or stays
    /// when that is `None` (parameters are kept). Each replacement may
    /// itself have a divisor; the result is normalized.
    pub fn substitute_loops<'r>(&self, subst: impl Fn(LoopId) -> Option<&'r Aff>) -> Aff {
        let replacement = |v: VarKey| match v {
            VarKey::Param(_) => None,
            VarKey::Loop(l) => subst(l),
        };
        // common denominator: den (lcm of replacement divisors)
        let mut den: Int = 1;
        let mut len = 0;
        for &(v, _) in &self.terms {
            match replacement(v) {
                None => len += 1,
                Some(r) => {
                    den = den
                        .checked_mul(r.div / gcd(den, r.div).max(1))
                        .expect("lcm overflow");
                    len += r.terms.len();
                }
            }
        }
        let mut terms = Vec::with_capacity(len);
        let mut constant = self.constant * den;
        for &(v, c) in &self.terms {
            match replacement(v) {
                None => terms.push((v, c * den)),
                Some(r) => {
                    let scale = c * (den / r.div);
                    terms.extend(r.terms.iter().map(|&(v, rc)| (v, rc * scale)));
                    constant += r.constant * scale;
                }
            }
        }
        let mut out = Aff {
            terms: merged(terms),
            constant,
            div: den * self.div,
        };
        out.normalize();
        out
    }

    /// Rename loop variables: loop `l` becomes loop `to(l)`.
    pub fn rename_loops(&self, to: impl Fn(LoopId) -> LoopId) -> Aff {
        let rename = |&(v, c): &(VarKey, Int)| match v {
            VarKey::Param(_) => (v, c),
            VarKey::Loop(l) => (VarKey::Loop(to(l)), c),
        };
        let mut out = Aff {
            terms: merged(self.terms.iter().map(rename).collect()),
            ..*self
        };
        out.normalize();
        out
    }

    /// All variables mentioned.
    pub fn vars(&self) -> impl Iterator<Item = VarKey> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// The numerator as a divisor-free expression: `numerator() / divisor()
    /// == self` as exact rationals. Useful for turning `e/d ≥ 0` into the
    /// equivalent integer constraint `e ≥ 0` (the divisor is positive).
    pub fn numerator(mut self) -> Aff {
        self.div = 1;
        self
    }
}

/// `terms` sorted by variable, each variable's coefficients summed, and
/// zero sums dropped: the one merge of every sum of terms.
fn merged(mut terms: Vec<(VarKey, Int)>) -> Vec<(VarKey, Int)> {
    terms.sort_unstable_by_key(|&(v, _)| v);
    terms.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
    terms.retain(|&(_, c)| c != 0);
    terms
}

impl Add for Aff {
    type Output = Aff;
    fn add(self, rhs: Aff) -> Aff {
        let d1 = self.div;
        let d2 = rhs.div;
        let l = d1 / gcd(d1, d2).max(1) * d2; // lcm
        let (s1, s2) = (l / d1, l / d2);
        let mut terms = self.terms;
        for t in &mut terms {
            t.1 *= s1;
        }
        terms.extend(rhs.terms.iter().map(|&(v, c)| (v, c * s2)));
        let mut out = Aff {
            terms: merged(terms),
            constant: self.constant * s1 + rhs.constant * s2,
            div: l,
        };
        out.normalize();
        out
    }
}

impl Sub for Aff {
    type Output = Aff;
    fn sub(self, rhs: Aff) -> Aff {
        self + (-rhs)
    }
}

impl Neg for Aff {
    type Output = Aff;
    fn neg(mut self) -> Aff {
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<Int> for Aff {
    type Output = Aff;
    fn mul(mut self, k: Int) -> Aff {
        if k == 0 {
            return Aff::konst(0);
        }
        for t in &mut self.terms {
            t.1 *= k;
        }
        self.constant *= k;
        self.normalize();
        self
    }
}

impl fmt::Debug for Aff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |v: VarKey| match v {
            VarKey::Param(p) => format!("p{}", p.0),
            VarKey::Loop(l) => format!("L{}", l.0),
        };
        write!(f, "{}", self.display_with(&name))
    }
}

impl Aff {
    /// Render with names supplied by `name`.
    pub fn display_with<'a, N: fmt::Display>(
        &'a self,
        name: &'a dyn Fn(VarKey) -> N,
    ) -> AffDisplay<'a, N> {
        AffDisplay { aff: self, name }
    }
}

/// Helper for [`Aff::display_with`].
pub struct AffDisplay<'a, N> {
    aff: &'a Aff,
    name: &'a dyn Fn(VarKey) -> N,
}

impl<N: fmt::Display> fmt::Display for AffDisplay<'_, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.aff.div != 1 {
            write!(f, "(")?;
        }
        let mut first = true;
        for &(v, c) in &self.aff.terms {
            let n = (self.name)(v);
            if first {
                match c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    _ => write!(f, "{c}*{n}")?,
                }
                first = false;
            } else if c == 1 {
                write!(f, " + {n}")?;
            } else if c == -1 {
                write!(f, " - {n}")?;
            } else if c > 0 {
                write!(f, " + {c}*{n}")?;
            } else {
                write!(f, " - {}*{n}", -c)?;
            }
        }
        let k = self.aff.constant;
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        if self.aff.div != 1 {
            write!(f, ")/{}", self.aff.div)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{LoopId, ParamId};

    fn l(i: usize) -> VarKey {
        VarKey::Loop(LoopId(i))
    }
    fn p(i: usize) -> VarKey {
        VarKey::Param(ParamId(i))
    }

    #[test]
    fn arithmetic_and_dedup() {
        let a = Aff::var(l(0)) + Aff::var(l(1)) * 2 + Aff::konst(3);
        let b = Aff::var(l(0)) * -1 + Aff::var(l(1)) + Aff::konst(1);
        let s = a.clone() + b;
        assert_eq!(s.coeff(l(0)), 0);
        assert_eq!(s.coeff(l(1)), 3);
        assert_eq!(s.constant(), 4);
        assert_eq!(s.terms().len(), 1); // zero coefficient removed
        let d = a.clone() - a;
        assert!(d.is_constant());
        assert_eq!(d.constant(), 0);
    }

    #[test]
    fn eval_simple() {
        let e = Aff::var(l(0)) * 2 - Aff::var(p(0)) + Aff::konst(1);
        let lookup = |v: VarKey| match v {
            VarKey::Loop(LoopId(0)) => 5,
            VarKey::Param(ParamId(0)) => 3,
            _ => unreachable!(),
        };
        assert_eq!(e.eval(&lookup), Rational::int(8));
        assert_eq!(e.eval_int(&lookup), Some(8));
    }

    #[test]
    fn division_semantics() {
        let e = (Aff::var(l(0)) + Aff::var(l(1))).exact_div(2);
        let mk = |a: Int, b: Int| move |v: VarKey| if v == l(0) { a } else { b };
        assert_eq!(e.eval_int(&mk(3, 5)), Some(4));
        assert_eq!(e.eval_int(&mk(3, 4)), None);
        assert_eq!(e.eval(&mk(3, 4)), Rational::new(7, 2));
    }

    #[test]
    fn divisor_normalization() {
        // (2x + 4)/2 == x + 2
        let e = (Aff::var(l(0)) * 2 + Aff::konst(4)).exact_div(2);
        assert_eq!(e.divisor(), 1);
        assert_eq!(e.coeff(l(0)), 1);
        assert_eq!(e.constant(), 2);
    }

    #[test]
    fn add_with_divisors() {
        // x/2 + x/3 = 5x/6
        let a = Aff::var(l(0)).exact_div(2);
        let b = Aff::var(l(0)).exact_div(3);
        let s = a + b;
        assert_eq!(s.divisor(), 6);
        assert_eq!(s.coeff(l(0)), 5);
    }

    #[test]
    fn substitute_loops_basic() {
        // expr = i + 2j + 1 with i := u - v, j := v  =>  u + v + 1
        let e = Aff::var(l(0)) + Aff::var(l(1)) * 2 + Aff::konst(1);
        let (u_minus_v, v) = (Aff::var(l(10)) - Aff::var(l(11)), Aff::var(l(11)));
        let r = e.substitute_loops(|id: LoopId| match id.0 {
            0 => Some(&u_minus_v),
            1 => Some(&v),
            _ => unreachable!(),
        });
        assert_eq!(r.coeff(l(10)), 1);
        assert_eq!(r.coeff(l(11)), 1);
        assert_eq!(r.constant(), 1);
        assert_eq!(r.divisor(), 1);
    }

    #[test]
    fn substitute_loops_with_divisor() {
        // expr = i, i := u/2  =>  u/2
        let e = Aff::var(l(0)) + Aff::param(ParamId(0));
        let half_u = Aff::var(l(10)).exact_div(2);
        let r = e.substitute_loops(|_| Some(&half_u));
        assert_eq!(r.divisor(), 2);
        assert_eq!(r.coeff(l(10)), 1);
        assert_eq!(r.coeff(p(0)), 2);
    }

    #[test]
    fn sums_merge_terms_once() {
        // 2i + 3j - 2i + k = 3j + k, sorted, with no zero term
        let e = Aff::from_terms(vec![(l(0), 2), (l(2), 1), (l(1), 3), (l(0), -2)], 4);
        assert_eq!(e.terms(), [(l(1), 3), (l(2), 1)]);
        assert_eq!(e.clone() - e.clone(), Aff::zero());
        // renaming i to j merges their terms and renormalizes
        let r = (Aff::var(l(0)) + Aff::var(l(1))).exact_div(2);
        let r = r.rename_loops(|id| if id.0 == 0 { LoopId(1) } else { id });
        assert_eq!(r, Aff::var(l(1)));
        // a loop with no replacement stays
        let kept = (Aff::var(l(0)) * 3).substitute_loops(|_| None);
        assert_eq!(kept, Aff::var(l(0)) * 3);
    }

    #[test]
    fn display_names() {
        let name = |v: VarKey| match v {
            VarKey::Loop(LoopId(0)) => "i".to_string(),
            VarKey::Loop(LoopId(1)) => "j".to_string(),
            VarKey::Param(ParamId(0)) => "N".to_string(),
            _ => "?".to_string(),
        };
        let e = Aff::param(ParamId(0)) - Aff::var(l(0)) - Aff::konst(1);
        assert_eq!(format!("{}", e.display_with(&name)), "N - i - 1");
        let d = (Aff::var(l(0)) + Aff::var(l(1))).exact_div(2);
        assert_eq!(format!("{}", d.display_with(&name)), "(i + j)/2");
    }
}
