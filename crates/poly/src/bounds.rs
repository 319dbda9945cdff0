//! Loop-bound extraction for code generation (§5.5 of the paper).
//!
//! Given a polyhedron describing the transformed iteration space of a
//! statement and an ordering of the loop variables (outside-in), produce for
//! each loop variable a set of lower bounds (`max` of ceiling-divided affine
//! forms in outer variables) and upper bounds (`min` of floor-divided
//! forms), in the manner of Ancourt & Irigoin's polyhedron scanning.

use crate::{difference, fm, LinExpr, System};
use inl_linalg::{InlError, Int};

/// One bound term: the affine expression `expr` (over the full variable
/// space, but only mentioning variables legal at this loop level) divided by
/// `div ≥ 1`. A lower bound means `x ≥ ceil(expr / div)`; an upper bound
/// means `x ≤ floor(expr / div)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundTerm {
    /// Affine expression in outer loop variables and parameters.
    pub expr: LinExpr,
    /// Positive divisor (1 for ordinary bounds).
    pub div: Int,
}

/// Bounds of one loop variable: `max(lowers) ≤ x ≤ min(uppers)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarBounds {
    /// Lower bound terms (`x ≥ ceil(expr/div)`); empty means unbounded below.
    pub lowers: Vec<BoundTerm>,
    /// Upper bound terms (`x ≤ floor(expr/div)`); empty means unbounded above.
    pub uppers: Vec<BoundTerm>,
}

impl VarBounds {
    /// Evaluate the lower bound at a point (entries for outer vars/params
    /// must be filled in; the rest are ignored by construction).
    /// `None` if unbounded below.
    ///
    /// # Panics
    /// On evaluation overflow; fallible paths use
    /// [`VarBounds::checked_eval_lower`].
    pub fn eval_lower(&self, point: &[Int]) -> Option<Int> {
        self.checked_eval_lower(point)
            .expect("bound eval overflow: fallible paths use checked_eval_lower")
    }

    /// Overflow-checked lower-bound evaluation; `Ok(None)` if unbounded
    /// below.
    pub fn checked_eval_lower(&self, point: &[Int]) -> Result<Option<Int>, InlError> {
        let mut best: Option<Int> = None;
        for b in &self.lowers {
            let v = inl_linalg::ceil_div(b.expr.checked_eval(point)?, b.div);
            best = Some(best.map_or(v, |x| x.max(v)));
        }
        Ok(best)
    }

    /// Evaluate the upper bound at a point. `None` if unbounded above.
    ///
    /// # Panics
    /// On evaluation overflow; fallible paths use
    /// [`VarBounds::checked_eval_upper`].
    pub fn eval_upper(&self, point: &[Int]) -> Option<Int> {
        self.checked_eval_upper(point)
            .expect("bound eval overflow: fallible paths use checked_eval_upper")
    }

    /// Overflow-checked upper-bound evaluation; `Ok(None)` if unbounded
    /// above.
    pub fn checked_eval_upper(&self, point: &[Int]) -> Result<Option<Int>, InlError> {
        let mut best: Option<Int> = None;
        for b in &self.uppers {
            let v = inl_linalg::floor_div(b.expr.checked_eval(point)?, b.div);
            best = Some(best.map_or(v, |x| x.min(v)));
        }
        Ok(best)
    }
}

/// Compute scanning bounds for the loop variables `order` (outside-in) over
/// the polyhedron `sys`. Any variable of the system not listed in `order`
/// is treated as a symbolic parameter, allowed to appear in every bound.
///
/// Returns one [`VarBounds`] per entry of `order`. The bounds of
/// `order[k]` mention only parameters and `order[..k]`.
///
/// The computation runs Fourier–Motzkin from the innermost variable
/// outwards: the innermost variable's bounds are read off the original
/// system, then it is eliminated, and so on. Elimination can only *add*
/// redundant iterations at outer levels (the real shadow is a superset), so
/// statements still need their membership guards unless the elimination was
/// exact — which it is for the unimodular transforms that dominate in
/// practice.
///
/// Each level reads the rows in place — the inequalities, then each
/// equality as `e ≥ 0` and `−e ≥ 0` — and fails, as negating it would, on
/// an equality with an `Int::MIN` entry.
pub fn scan_bounds(sys: &System, order: &[usize]) -> Result<Vec<VarBounds>, InlError> {
    let mut cur = sys.clone();
    let mut out: Vec<VarBounds> = vec![VarBounds::default(); order.len()];
    for k in (0..order.len()).rev() {
        let var = order[k];
        let unnegatable =
            |e: &LinExpr| e.constant_term() == Int::MIN || e.coeffs().contains(&Int::MIN);
        if cur.eqs().iter().any(unnegatable) {
            return Err(InlError::overflow("linear expression negation"));
        }
        let halves = cur.eqs().iter().flat_map(|e| [(1, e), (-1, e)]);
        let mut vb = VarBounds::default();
        for (s, e) in cur.ineqs().iter().map(|e| (1, e)).chain(halves) {
            // s·e = a·x + rest ≥ 0
            let a = s * e.coeff(var);
            if a == 0 {
                continue;
            }
            debug_assert!(
                e.support()
                    .all(|v| v == var || !order[k + 1..].contains(&v)),
                "constraint on {var} mentions an inner variable"
            );
            let mut rest = if s == 1 { e.clone() } else { e.checked_neg()? };
            rest.set_coeff(var, 0);
            if a > 0 {
                // x ≥ ceil(-rest / a)
                vb.lowers.push(BoundTerm {
                    expr: rest.checked_neg()?,
                    div: a,
                });
            } else {
                // x ≤ floor(rest / -a)
                vb.uppers.push(BoundTerm {
                    expr: rest,
                    div: a
                        .checked_neg()
                        .ok_or_else(|| InlError::overflow("bound divisor"))?,
                });
            }
        }
        dedup_terms(&mut vb.lowers);
        dedup_terms(&mut vb.uppers);
        out[k] = vb;
        let (next, _exact) = fm::eliminate(&cur, var)?;
        cur = next;
    }
    Ok(out)
}

/// [`scan_bounds`] over `order` of the projection of `sys` onto `keep`
/// ([`fm::project`]): the bounds a loop nest scanning the projection
/// takes. A difference system runs elimination's own steps on compact rows
/// instead (`crate::difference`), with the same terms in the same order;
/// any other system, and any error, is elimination's.
pub fn project_scan(
    sys: &System,
    keep: &[usize],
    order: &[usize],
) -> Result<Vec<VarBounds>, InlError> {
    if let Some(bounds) = difference::project_scan(sys, keep, order) {
        return Ok(bounds);
    }
    let (projected, _exact) = fm::project(sys, keep)?;
    scan_bounds(&projected, order)
}

fn dedup_terms(terms: &mut Vec<BoundTerm>) {
    let mut seen: Vec<BoundTerm> = Vec::with_capacity(terms.len());
    for t in std::mem::take(terms) {
        if !seen.contains(&t) {
            seen.push(t);
        }
    }
    *terms = seen;
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
    fn scan_bounds_ok(sys: &System, order: &[usize]) -> Vec<VarBounds> {
        scan_bounds(sys, order).expect("small systems cannot overflow")
    }

    #[test]
    fn rectangular() {
        // vars: 0:N (param), 1:i, 2:j ; 1<=i<=N, 1<=j<=N
        let n = 3;
        let mut s = System::new(n);
        s.add_ge(v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 1));
        s.add_ge(v(n, 2) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 2));
        let b = scan_bounds_ok(&s, &[1, 2]);
        // i: 1 <= i <= N
        assert_eq!(b[0].eval_lower(&[10, 0, 0]), Some(1));
        assert_eq!(b[0].eval_upper(&[10, 0, 0]), Some(10));
        // j: 1 <= j <= N regardless of i
        assert_eq!(b[1].eval_lower(&[10, 5, 0]), Some(1));
        assert_eq!(b[1].eval_upper(&[10, 5, 0]), Some(10));
    }

    #[test]
    fn triangular() {
        // 1 <= i <= N, i+1 <= j <= N (the paper's inner J loop)
        let n = 3;
        let mut s = System::new(n);
        s.add_ge(v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 1));
        s.add_ge(v(n, 2) - v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 2));
        let b = scan_bounds_ok(&s, &[1, 2]);
        // outer i: 1 <= i <= N - 1 (from i + 1 <= j <= N after elimination)
        assert_eq!(b[0].eval_lower(&[10, 0, 0]), Some(1));
        assert_eq!(b[0].eval_upper(&[10, 0, 0]), Some(9));
        // inner j at i = 4: 5 <= j <= 10
        assert_eq!(b[1].eval_lower(&[10, 4, 0]), Some(5));
        assert_eq!(b[1].eval_upper(&[10, 4, 0]), Some(10));
    }

    #[test]
    fn interchanged_triangular() {
        // same set scanned j outer, i inner: 2 <= j <= N, 1 <= i <= j-1
        let n = 3;
        let mut s = System::new(n);
        s.add_ge(v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 1));
        s.add_ge(v(n, 2) - v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 2));
        let b = scan_bounds_ok(&s, &[2, 1]);
        assert_eq!(b[0].eval_lower(&[10, 0, 0]), Some(2));
        assert_eq!(b[0].eval_upper(&[10, 0, 0]), Some(10));
        // at j = 7: 1 <= i <= 6
        assert_eq!(b[1].eval_lower(&[10, 0, 7]), Some(1));
        assert_eq!(b[1].eval_upper(&[10, 0, 7]), Some(6));
    }

    #[test]
    fn divided_bounds() {
        // 0 <= 2i <= N: i in 0..floor(N/2)
        let n = 2;
        let mut s = System::new(n);
        s.add_ge(v(n, 1) * 2);
        s.add_ge(v(n, 0) - v(n, 1) * 2);
        let b = scan_bounds_ok(&s, &[1]);
        assert_eq!(b[0].eval_lower(&[7, 0]), Some(0));
        assert_eq!(b[0].eval_upper(&[7, 0]), Some(3));
        // note: add_ge tightening already divides 2i >= 0 by 2, but the
        // upper bound keeps its divisor
        assert!(b[0].uppers.iter().any(|t| t.div == 2) || b[0].eval_upper(&[7, 0]) == Some(3));
    }

    #[test]
    fn bounds_enumerate_exact_set() {
        // brute-force check: scanning the triangular set enumerates exactly
        // the original points
        let n = 3;
        let mut s = System::new(n);
        s.add_ge(v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 1));
        s.add_ge(v(n, 2) - v(n, 1) - k(n, 1));
        s.add_ge(v(n, 0) - v(n, 2));
        let b = scan_bounds_ok(&s, &[1, 2]);
        let nval = 6;
        let mut scanned = Vec::new();
        let mut pt = [nval, 0, 0];
        let (ilo, ihi) = (b[0].eval_lower(&pt).unwrap(), b[0].eval_upper(&pt).unwrap());
        for i in ilo..=ihi {
            pt[1] = i;
            let (jlo, jhi) = (b[1].eval_lower(&pt).unwrap(), b[1].eval_upper(&pt).unwrap());
            for j in jlo..=jhi {
                scanned.push((i, j));
            }
        }
        let mut expected = Vec::new();
        for i in 1..=nval {
            for j in i + 1..=nval {
                expected.push((i, j));
            }
        }
        assert_eq!(scanned, expected);
    }
}
