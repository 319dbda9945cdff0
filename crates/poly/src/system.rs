//! Conjunctions of affine constraints.

use crate::LinExpr;
use inl_linalg::{floor_div, InlError, Int};
use std::fmt;

/// A conjunction of affine constraints over a fixed variable space:
/// each equality `e = 0` and each inequality `e ≥ 0`.
///
/// The system is kept *normalized*: inequalities are divided by the gcd of
/// their coefficients with the constant floored (integer tightening — sound
/// because solutions are integral), equalities whose gcd does not divide the
/// constant mark the system as trivially infeasible.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct System {
    nvars: usize,
    eqs: Vec<LinExpr>,
    ineqs: Vec<LinExpr>,
    /// Set when a constraint reduced to `false` (e.g. `-1 ≥ 0`).
    trivially_empty: bool,
}

impl System {
    /// The unconstrained system over `n` variables.
    pub fn new(n: usize) -> Self {
        System {
            nvars: n,
            eqs: Vec::new(),
            ineqs: Vec::new(),
            trivially_empty: false,
        }
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The equalities (`e = 0`).
    pub fn eqs(&self) -> &[LinExpr] {
        &self.eqs
    }

    /// The inequalities (`e ≥ 0`).
    pub fn ineqs(&self) -> &[LinExpr] {
        &self.ineqs
    }

    /// True iff a constraint already reduced to `false`.
    pub fn is_trivially_empty(&self) -> bool {
        self.trivially_empty
    }

    /// Add the equality `e = 0`.
    pub fn add_eq(&mut self, e: LinExpr) {
        assert_eq!(e.nvars(), self.nvars, "add_eq: arity mismatch");
        let g = e.coeff_content();
        if g == 0 {
            if e.constant_term() != 0 {
                self.trivially_empty = true;
            }
            return;
        }
        if e.constant_term() % g != 0 {
            // gcd test: no integer solution
            self.trivially_empty = true;
            return;
        }
        let norm = if g == 1 {
            e
        } else {
            LinExpr::from_parts(
                e.coeffs().iter().map(|&c| c / g).collect(),
                e.constant_term() / g,
            )
        };
        if !self.eqs.contains(&norm) {
            self.eqs.push(norm);
        }
    }

    /// Add the inequality `e ≥ 0`, with integer tightening.
    pub fn add_ge(&mut self, e: LinExpr) {
        assert_eq!(e.nvars(), self.nvars, "add_ge: arity mismatch");
        let g = e.coeff_content();
        if g == 0 {
            if e.constant_term() < 0 {
                self.trivially_empty = true;
            }
            return;
        }
        // Σ(aᵢ/g)xᵢ ≥ ceil(-c/g)  ⇔  Σ(aᵢ/g)xᵢ + floor(c/g) ≥ 0; content 1
        // leaves the row as it is.
        let norm = if g == 1 {
            e
        } else {
            LinExpr::from_parts(
                e.coeffs().iter().map(|&c| c / g).collect(),
                floor_div(e.constant_term(), g),
            )
        };
        if !self.ineqs.contains(&norm) {
            self.ineqs.push(norm);
        }
    }

    /// Extend the variable space to `n ≥ nvars` variables.
    pub fn extend(&self, n: usize) -> System {
        System {
            nvars: n,
            eqs: self.eqs.iter().map(|e| e.extend(n)).collect(),
            ineqs: self.ineqs.iter().map(|e| e.extend(n)).collect(),
            trivially_empty: self.trivially_empty,
        }
    }

    /// Substitute variable `i` with expression `r` everywhere; convenience
    /// wrapper over [`System::checked_substitute`] for trusted inputs.
    ///
    /// # Panics
    /// On overflow; fallible paths use [`System::checked_substitute`].
    pub fn substitute(&self, i: usize, r: &LinExpr) -> System {
        self.checked_substitute(i, r)
            .expect("substitute overflow: fallible paths use checked_substitute")
    }

    /// Overflow-checked substitution of variable `i` with expression `r`
    /// everywhere.
    pub fn checked_substitute(&self, i: usize, r: &LinExpr) -> Result<System, InlError> {
        let mut out = System::new(self.nvars);
        out.trivially_empty = self.trivially_empty;
        for e in &self.eqs {
            out.add_eq(e.checked_substitute(i, r)?);
        }
        for e in &self.ineqs {
            out.add_ge(e.checked_substitute(i, r)?);
        }
        Ok(out)
    }

    /// True iff the integer point satisfies every constraint; convenience
    /// wrapper over [`System::checked_contains`] for trusted inputs.
    ///
    /// # Panics
    /// On evaluation overflow; fallible paths use
    /// [`System::checked_contains`].
    pub fn contains(&self, point: &[Int]) -> bool {
        self.checked_contains(point)
            .expect("contains overflow: fallible paths use checked_contains")
    }

    /// Overflow-checked point membership test.
    pub fn checked_contains(&self, point: &[Int]) -> Result<bool, InlError> {
        if self.trivially_empty {
            return Ok(false);
        }
        for e in &self.eqs {
            if e.checked_eval(point)? != 0 {
                return Ok(false);
            }
        }
        for e in &self.ineqs {
            if e.checked_eval(point)? < 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// All constraints as inequalities (each equality contributing two), for
    /// use by elimination; negating an equality can overflow on an
    /// `Int::MIN` coefficient.
    pub fn checked_to_ineqs(&self) -> Result<Vec<LinExpr>, InlError> {
        let mut out = self.ineqs.clone();
        for e in &self.eqs {
            out.push(e.clone());
            out.push(e.checked_neg()?);
        }
        Ok(out)
    }

    /// Remove inequalities implied by another single inequality
    /// (same coefficients, weaker constant). Cheap syntactic pruning that
    /// keeps Fourier–Motzkin from exploding.
    pub fn prune_dominated(&mut self) {
        let mut keep: Vec<LinExpr> = Vec::with_capacity(self.ineqs.len());
        'outer: for e in std::mem::take(&mut self.ineqs) {
            for k in keep.iter_mut() {
                if k.coeffs() == e.coeffs() {
                    // same hyperplane direction: keep the tighter one
                    if e.constant_term() < k.constant_term() {
                        *k = e.clone();
                    }
                    continue 'outer;
                }
            }
            keep.push(e);
        }
        self.ineqs = keep;
    }

    /// The canonical form of this system: the same solution set, with a
    /// representation that depends only on the *set* of constraints, not
    /// on the order or redundancy with which they were added.
    ///
    /// * Equalities are sign-normalized (the first nonzero coefficient is
    ///   made positive — sound because `e = 0 ⇔ -e = 0`), sorted, and
    ///   deduplicated.
    /// * Inequalities are pruned of same-direction dominated rows
    ///   ([`System::prune_dominated`]), sorted, and deduplicated.
    /// * A trivially empty system canonicalizes to the bare empty system
    ///   (no rows, flag set) regardless of what it accumulated.
    ///
    /// This is the hashable key used by the query cache in [`crate::cache`]
    /// and the preprocessing step of every cached query, so two systems
    /// built along different paths share cached answers. The function is
    /// idempotent.
    pub fn canonicalized(&self) -> System {
        if self.trivially_empty {
            let mut s = System::new(self.nvars);
            s.trivially_empty = true;
            return s;
        }
        let row_cmp = |a: &LinExpr, b: &LinExpr| {
            a.coeffs()
                .cmp(b.coeffs())
                .then(a.constant_term().cmp(&b.constant_term()))
        };
        let mut eqs: Vec<LinExpr> = self
            .eqs
            .iter()
            .map(|e| match e.coeffs().iter().find(|&&c| c != 0) {
                // An `Int::MIN` coefficient cannot be negated; keeping the
                // row unnormalized is sound (e = 0 ⇔ -e = 0 — it only costs
                // cache sharing for that pathological key).
                Some(&c) if c < 0 => e.checked_neg().unwrap_or_else(|_| e.clone()),
                _ => e.clone(),
            })
            .collect();
        eqs.sort_by(row_cmp);
        eqs.dedup();
        let mut out = System {
            nvars: self.nvars,
            eqs,
            ineqs: self.ineqs.clone(),
            trivially_empty: false,
        };
        out.prune_dominated();
        out.ineqs.sort_by(row_cmp);
        out.ineqs.dedup();
        out
    }

    /// Project onto the kept variables — convenience wrapper around
    /// [`crate::fm::project`] (Fourier–Motzkin with integer tightening).
    /// Returns the projection and whether it is exact over the integers.
    ///
    /// ```
    /// use inl_poly::{LinExpr, System};
    ///
    /// // 1 <= x <= 5 && y = x + 2, projected onto y alone
    /// let mut s = System::new(2);
    /// s.add_ge(LinExpr::var(2, 0) - LinExpr::constant(2, 1));
    /// s.add_ge(LinExpr::constant(2, 5) - LinExpr::var(2, 0));
    /// s.add_eq(LinExpr::var(2, 1) - LinExpr::var(2, 0) - LinExpr::constant(2, 2));
    /// let (proj, exact) = s.project(&[1]).unwrap();
    /// assert!(exact);
    /// assert!(proj.contains(&[0, 3]) && proj.contains(&[0, 7]));
    /// assert!(!proj.contains(&[0, 2]) && !proj.contains(&[0, 8]));
    /// ```
    pub fn project(&self, keep: &[usize]) -> Result<(System, bool), InlError> {
        crate::fm::project(self, keep)
    }

    /// Render with variable names supplied by `name`.
    pub fn display_with<'a>(&'a self, name: &'a dyn Fn(usize) -> String) -> SystemDisplay<'a> {
        SystemDisplay { sys: self, name }
    }
}

/// Helper for [`System::display_with`].
pub struct SystemDisplay<'a> {
    sys: &'a System,
    name: &'a dyn Fn(usize) -> String,
}

impl fmt::Display for SystemDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sys.trivially_empty {
            return write!(f, "false");
        }
        let mut first = true;
        for e in &self.sys.eqs {
            if !first {
                write!(f, " && ")?;
            }
            write!(f, "{} = 0", e.display_with(self.name))?;
            first = false;
        }
        for e in &self.sys.ineqs {
            if !first {
                write!(f, " && ")?;
            }
            write!(f, "{} >= 0", e.display_with(self.name))?;
            first = false;
        }
        if first {
            write!(f, "true")?;
        }
        Ok(())
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |i: usize| format!("x{i}");
        write!(f, "{}", self.display_with(&name))
    }
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

    #[test]
    fn tightening_on_add() {
        let mut s = System::new(1);
        // 2x - 1 >= 0 tightens to x - 1 >= 0 over the integers
        s.add_ge(v(1, 0) * 2 - k(1, 1));
        assert_eq!(s.ineqs().len(), 1);
        assert_eq!(s.ineqs()[0].coeff(0), 1);
        assert_eq!(s.ineqs()[0].constant_term(), -1);
        assert!(s.contains(&[1]));
        assert!(!s.contains(&[0]));
    }

    #[test]
    fn gcd_test_on_equality() {
        let mut s = System::new(1);
        // 2x = 1 has no integer solution
        s.add_eq(v(1, 0) * 2 - k(1, 1));
        assert!(s.is_trivially_empty());
    }

    #[test]
    fn constant_constraints() {
        let mut s = System::new(1);
        s.add_ge(k(1, 3)); // 3 >= 0, dropped
        assert!(s.ineqs().is_empty());
        s.add_ge(k(1, -1)); // -1 >= 0: false
        assert!(s.is_trivially_empty());
        let mut t = System::new(1);
        t.add_eq(k(1, 0)); // fine
        assert!(!t.is_trivially_empty());
        t.add_eq(k(1, 2)); // 2 = 0: false
        assert!(t.is_trivially_empty());
    }

    #[test]
    fn content_one_rows_are_kept_as_given() {
        // Content 1 skips the divide; content > 1 divides. Either way the
        // stored row is the one the divide-always rule gives.
        let n = 2;
        let divided = |e: &LinExpr, g: Int, floor: bool| {
            let c = e.constant_term();
            LinExpr::from_parts(
                e.coeffs().iter().map(|&a| a / g).collect(),
                if floor { floor_div(c, g) } else { c / g },
            )
        };
        for (e, g) in [
            (v(n, 0) * 3 - v(n, 1) * 2 - k(n, 7), 1),
            (v(n, 0) - k(n, 5), 1),
            (v(n, 0) * 4 - v(n, 1) * 6 - k(n, 7), 2),
            (v(n, 0) * -9 + v(n, 1) * 3 + k(n, 6), 3),
        ] {
            assert_eq!(e.coeff_content(), g);
            let mut s = System::new(n);
            s.add_ge(e.clone());
            assert_eq!(s.ineqs(), &[divided(&e, g, true)][..], "add_ge {e:?}");
            let mut t = System::new(n);
            t.add_eq(e.clone());
            if e.constant_term() % g == 0 {
                assert_eq!(t.eqs(), &[divided(&e, g, false)][..], "add_eq {e:?}");
            } else {
                assert!(t.is_trivially_empty(), "add_eq {e:?}");
            }
        }
    }

    #[test]
    fn contains_point() {
        // 1 <= x <= 3 && y = x + 1
        let n = 2;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 1));
        s.add_ge(k(n, 3) - v(n, 0));
        s.add_eq(v(n, 1) - v(n, 0) - k(n, 1));
        assert!(s.contains(&[2, 3]));
        assert!(!s.contains(&[2, 2]));
        assert!(!s.contains(&[4, 5]));
    }

    #[test]
    fn dedup_and_dominance() {
        let n = 1;
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 1));
        s.add_ge(v(n, 0) - k(n, 1)); // duplicate
        assert_eq!(s.ineqs().len(), 1);
        s.add_ge(v(n, 0) - k(n, 3)); // tighter
        s.prune_dominated();
        assert_eq!(s.ineqs().len(), 1);
        assert_eq!(s.ineqs()[0].constant_term(), -3);
    }

    #[test]
    fn substitute_system() {
        // 1 <= x <= N with x := y + 1 becomes 0 <= y <= N - 1
        let n = 3; // x, N, y
        let mut s = System::new(n);
        s.add_ge(v(n, 0) - k(n, 1));
        s.add_ge(v(n, 1) - v(n, 0));
        let r = v(n, 2) + k(n, 1);
        let t = s.substitute(0, &r);
        assert!(t.contains(&[999, 5, 0])); // x ignored now
        assert!(t.contains(&[999, 5, 4]));
        assert!(!t.contains(&[999, 5, 5]));
        assert!(!t.contains(&[999, 5, -1]));
    }
}
