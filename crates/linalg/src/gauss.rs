//! Exact elimination: rank, determinant, solving, inverses and nullspaces.
//!
//! These are the primitives behind the paper's machinery: `rank` drives the
//! augmentation procedure (§5.4), `inverse_rational` drives loop-bound
//! generation for non-singular per-statement transforms (§5.5),
//! `nullspace_int` finds candidate parallel loops (§7: "parallelizing a loop
//! requires finding a row in the nullspace of the dependence matrix"), and
//! `express_in_row_space` recovers the coefficients `m_1..m_l` that define the
//! guard of a *singular loop* (§5.5).
//!
//! Every elimination here is overflow-checked: entry growth during exact
//! elimination is input-dependent, so each public routine reports
//! [`InlError`] rather than panicking when `i128` is exhausted.

use crate::{IMat, IVec, InlError, Int, Rational};

/// A matrix of rationals, used internally for elimination and returned where
/// exact non-integer results are meaningful (e.g. `M⁻¹`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QMat {
    /// Row-major entries.
    pub rows: Vec<Vec<Rational>>,
}

impl QMat {
    /// Convert from an integer matrix.
    pub fn from_imat(m: &IMat) -> Self {
        QMat {
            rows: (0..m.nrows())
                .map(|i| m.row_slice(i).iter().map(|&x| Rational::int(x)).collect())
                .collect(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.rows.first().map_or(0, |r| r.len())
    }

    /// Multiply by a rational vector; convenience wrapper over
    /// [`QMat::checked_mul_vec`] for trusted (small-entry) inputs.
    ///
    /// # Panics
    /// On overflow; fallible paths use [`QMat::checked_mul_vec`].
    pub fn mul_vec(&self, v: &[Rational]) -> Vec<Rational> {
        self.checked_mul_vec(v)
            .expect("rational mul_vec overflow: fallible paths use checked_mul_vec")
    }

    /// Overflow-checked multiplication by a rational vector.
    pub fn checked_mul_vec(&self, v: &[Rational]) -> Result<Vec<Rational>, InlError> {
        self.rows
            .iter()
            .map(|r| {
                let mut acc = Rational::ZERO;
                for (&a, &b) in r.iter().zip(v) {
                    acc = acc.checked_add(a.checked_mul(b)?)?;
                }
                Ok(acc)
            })
            .collect()
    }
}

/// Reduced row echelon form in place; returns pivot column of each pivot row.
fn rref(m: &mut QMat) -> Result<Vec<usize>, InlError> {
    let (nr, nc) = (m.nrows(), m.ncols());
    let mut pivots = Vec::new();
    let mut r = 0;
    for c in 0..nc {
        if r == nr {
            break;
        }
        // find a pivot
        let Some(p) = (r..nr).find(|&i| !m.rows[i][c].is_zero()) else {
            continue;
        };
        m.rows.swap(r, p);
        let inv = m.rows[r][c].recip();
        for x in m.rows[r].iter_mut() {
            *x = x.checked_mul(inv)?;
        }
        for i in 0..nr {
            if i != r && !m.rows[i][c].is_zero() {
                let f = m.rows[i][c];
                for j in 0..nc {
                    let sub = m.rows[r][j].checked_mul(f)?;
                    m.rows[i][j] = m.rows[i][j].checked_sub(sub)?;
                }
            }
        }
        pivots.push(c);
        r += 1;
    }
    Ok(pivots)
}

/// Rank of an integer matrix over the rationals; convenience wrapper over
/// [`checked_rank`] for trusted (small-entry) inputs.
///
/// # Panics
/// On overflow; fallible paths use [`checked_rank`].
pub fn rank(m: &IMat) -> usize {
    checked_rank(m).expect("rank overflow: fallible paths use checked_rank")
}

/// Overflow-checked rank of an integer matrix over the rationals.
pub fn checked_rank(m: &IMat) -> Result<usize, InlError> {
    let mut q = QMat::from_imat(m);
    Ok(rref(&mut q)?.len())
}

/// Determinant via fraction-free (Bareiss) elimination; convenience wrapper
/// over [`checked_det`] for trusted (small-entry) inputs.
///
/// # Panics
/// If `m` is not square, or on overflow; fallible paths use [`checked_det`].
pub fn det(m: &IMat) -> Int {
    checked_det(m).expect("determinant overflow: fallible paths use checked_det")
}

/// Overflow-checked determinant via fraction-free (Bareiss) elimination.
///
/// # Panics
/// If `m` is not square (a programming error, not an input condition).
pub fn checked_det(m: &IMat) -> Result<Int, InlError> {
    assert!(m.is_square(), "det of non-square matrix");
    let n = m.nrows();
    if n == 0 {
        return Ok(1);
    }
    let mut a: Vec<Vec<Int>> = (0..n).map(|i| m.row_slice(i).to_vec()).collect();
    let mut sign: Int = 1;
    let mut prev: Int = 1;
    for k in 0..n - 1 {
        if a[k][k] == 0 {
            let Some(p) = (k + 1..n).find(|&i| a[i][k] != 0) else {
                return Ok(0);
            };
            a.swap(k, p);
            sign = -sign;
        }
        for i in k + 1..n {
            for j in k + 1..n {
                let num = a[k][k]
                    .checked_mul(a[i][j])
                    .and_then(|x| a[i][k].checked_mul(a[k][j]).map(|y| (x, y)))
                    .and_then(|(x, y)| x.checked_sub(y))
                    .ok_or_else(|| InlError::overflow("bareiss elimination"))?;
                a[i][j] = num / prev; // exact by Bareiss' theorem
            }
            a[i][k] = 0;
        }
        prev = a[k][k];
    }
    Ok(sign * a[n - 1][n - 1])
}

/// Solve `A·x = b` over the rationals. `Ok(None)` if inconsistent; if
/// underdetermined, returns one particular solution (free variables = 0).
/// Fails with [`InlError`] only on arithmetic overflow.
pub fn solve_rational(a: &IMat, b: &IVec) -> Result<Option<Vec<Rational>>, InlError> {
    assert_eq!(a.nrows(), b.len(), "solve: dimension mismatch");
    let (nr, nc) = (a.nrows(), a.ncols());
    let mut aug = QMat {
        rows: (0..nr)
            .map(|i| {
                let mut row: Vec<Rational> =
                    a.row_slice(i).iter().map(|&x| Rational::int(x)).collect();
                row.push(Rational::int(b[i]));
                row
            })
            .collect(),
    };
    let pivots = rref(&mut aug)?;
    // inconsistent iff a pivot lands in the augmented column
    if pivots.last() == Some(&nc) {
        return Ok(None);
    }
    let mut x = vec![Rational::ZERO; nc];
    for (r, &c) in pivots.iter().enumerate() {
        x[c] = aug.rows[r][nc];
    }
    Ok(Some(x))
}

/// Exact inverse of a square integer matrix, as rationals.
/// `Ok(None)` if singular; [`InlError`] on arithmetic overflow.
pub fn inverse_rational(m: &IMat) -> Result<Option<QMat>, InlError> {
    assert!(m.is_square(), "inverse of non-square matrix");
    let n = m.nrows();
    let mut aug = QMat {
        rows: (0..n)
            .map(|i| {
                let mut row: Vec<Rational> =
                    m.row_slice(i).iter().map(|&x| Rational::int(x)).collect();
                for j in 0..n {
                    row.push(if i == j {
                        Rational::ONE
                    } else {
                        Rational::ZERO
                    });
                }
                row
            })
            .collect(),
    };
    let pivots = rref(&mut aug)?;
    // All n pivots must land in the left (coefficient) block; a singular
    // matrix pushes a pivot into the appended identity columns.
    if pivots.iter().filter(|&&c| c < n).count() != n {
        return Ok(None);
    }
    Ok(Some(QMat {
        rows: aug.rows.into_iter().map(|r| r[n..].to_vec()).collect(),
    }))
}

/// An integer basis of the (right) nullspace of `m`: vectors `v` with
/// `m·v = 0`. Each basis vector is primitive (content 1). Empty if the
/// nullspace is trivial. Fails with [`InlError`] on arithmetic overflow.
pub fn nullspace_int(m: &IMat) -> Result<Vec<IVec>, InlError> {
    let nc = m.ncols();
    let mut q = QMat::from_imat(m);
    let pivots = rref(&mut q)?;
    let pivot_set: std::collections::HashSet<usize> = pivots.iter().copied().collect();
    let free: Vec<usize> = (0..nc).filter(|c| !pivot_set.contains(c)).collect();
    let mut basis = Vec::with_capacity(free.len());
    for &f in &free {
        // x[f] = 1, other free vars 0, pivot vars from rref rows
        let mut x = vec![Rational::ZERO; nc];
        x[f] = Rational::ONE;
        for (r, &c) in pivots.iter().enumerate() {
            x[c] = q.rows[r][f].checked_neg()?;
        }
        // clear denominators
        let mut den: Int = 1;
        for v in &x {
            den = crate::lcm(den, v.den())?.max(1);
        }
        let iv: IVec = x
            .iter()
            .map(|v| {
                v.num()
                    .checked_mul(den / v.den())
                    .ok_or_else(|| InlError::overflow("nullspace denominator clearing"))
            })
            .collect::<Result<Vec<Int>, InlError>>()?
            .into();
        basis.push(iv.primitive());
    }
    Ok(basis)
}

/// If `target` lies in the row space of `rows`, return coefficients `m_j`
/// with `target = Σ m_j · rows[j]` (`Ok(None)` if it does not). Used to
/// derive the guards of singular loops in §5.5.
pub fn express_in_row_space(
    rows: &[IVec],
    target: &IVec,
) -> Result<Option<Vec<Rational>>, InlError> {
    if rows.is_empty() {
        return Ok(if target.is_zero() { Some(vec![]) } else { None });
    }
    // Solve Rᵀ · m = target where Rᵀ has the rows as columns.
    let n = rows[0].len();
    let a = IMat::from_fn(n, rows.len(), |i, j| rows[j][i]);
    solve_rational(&a, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[Int]]) -> IMat {
        IMat::from_rows(rows)
    }

    #[test]
    fn det_small() {
        assert_eq!(det(&IMat::identity(3)), 1);
        assert_eq!(det(&m(&[&[2, 0], &[0, 3]])), 6);
        assert_eq!(det(&m(&[&[1, 2], &[2, 4]])), 0);
        assert_eq!(det(&m(&[&[0, 1], &[1, 0]])), -1);
        // needs a pivot swap mid-way (expansion: 1·1 − 2·(−3) + 3·(−2) = 1)
        assert_eq!(det(&m(&[&[1, 2, 3], &[2, 4, 7], &[3, 5, 9]])), 1);
    }

    #[test]
    fn det_paper_interchange() {
        // interchange matrix from §4.1: permutation, det = -1
        let t = m(&[&[0, 0, 0, 1], &[0, 1, 0, 0], &[0, 0, 1, 0], &[1, 0, 0, 0]]);
        assert_eq!(det(&t), -1);
    }

    #[test]
    fn det_overflow_is_typed() {
        let big = Int::MAX / 2;
        let a = m(&[&[big, big], &[big, -big]]);
        assert_eq!(
            checked_det(&a).unwrap_err().kind(),
            crate::InlErrorKind::Overflow
        );
    }

    #[test]
    fn rank_cases() {
        assert_eq!(rank(&IMat::identity(4)), 4);
        assert_eq!(rank(&m(&[&[1, 2], &[2, 4]])), 1);
        assert_eq!(rank(&m(&[&[0, 0], &[0, 0]])), 0);
        assert_eq!(rank(&m(&[&[1, 0, 1], &[0, 1, 1]])), 2);
        // the paper's rank-0 per-statement transform for S1 under skewing: [0]
        assert_eq!(rank(&m(&[&[0]])), 0);
    }

    #[test]
    fn solve_consistent() {
        let a = m(&[&[1, 1], &[1, -1]]);
        let x = solve_rational(&a, &IVec::from(vec![3, 1]))
            .unwrap()
            .unwrap();
        assert_eq!(x, vec![Rational::int(2), Rational::int(1)]);
    }

    #[test]
    fn solve_inconsistent() {
        let a = m(&[&[1, 1], &[2, 2]]);
        assert!(solve_rational(&a, &IVec::from(vec![1, 3]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn solve_underdetermined() {
        let a = m(&[&[1, 1, 0]]);
        let x = solve_rational(&a, &IVec::from(vec![5])).unwrap().unwrap();
        // particular solution must satisfy the equation
        assert_eq!(x[0] + x[1], Rational::int(5));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = m(&[&[1, -1], &[0, 1]]); // skew
        let inv = inverse_rational(&a).unwrap().unwrap();
        let int = |r: &[Int]| r.iter().map(|&x| Rational::int(x)).collect::<Vec<_>>();
        assert_eq!(inv.rows, [int(&[1, 1]), int(&[0, 1])]);
        // non-unimodular: inverse has fractions
        let s = m(&[&[2, 0], &[0, 1]]);
        let sinv = inverse_rational(&s).unwrap().unwrap();
        assert_eq!(sinv.rows[0][0], Rational::new(1, 2));
        assert!(inverse_rational(&m(&[&[1, 2], &[2, 4]])).unwrap().is_none());
    }

    #[test]
    fn nullspace_simple() {
        // x + y = 0 has nullspace spanned by (1, -1)
        let ns = nullspace_int(&m(&[&[1, 1]])).unwrap();
        assert_eq!(ns.len(), 1);
        let v = &ns[0];
        assert_eq!(v[0] + v[1], 0);
        assert_ne!(v[0], 0);
        // full-rank square matrix: trivial nullspace
        assert!(nullspace_int(&IMat::identity(3)).unwrap().is_empty());
        // zero matrix: full nullspace
        assert_eq!(nullspace_int(&m(&[&[0, 0, 0]])).unwrap().len(), 3);
    }

    #[test]
    fn nullspace_is_nullspace() {
        let a = m(&[&[1, 2, 3], &[0, 1, 1]]);
        for v in nullspace_int(&a).unwrap() {
            assert!(a.mul_vec(&v).is_zero(), "not in nullspace: {v}");
        }
        assert_eq!(nullspace_int(&a).unwrap().len(), 1);
    }

    #[test]
    fn express_rows() {
        let rows = vec![IVec::from(vec![1, 0, 1]), IVec::from(vec![0, 1, 1])];
        let target = IVec::from(vec![2, 3, 5]);
        let c = express_in_row_space(&rows, &target).unwrap().unwrap();
        assert_eq!(c, vec![Rational::int(2), Rational::int(3)]);
        assert!(express_in_row_space(&rows, &IVec::from(vec![0, 0, 1]))
            .unwrap()
            .is_none());
        assert_eq!(
            express_in_row_space(&[], &IVec::zeros(3)).unwrap(),
            Some(vec![])
        );
        assert!(express_in_row_space(&[], &IVec::from(vec![1, 0]))
            .unwrap()
            .is_none());
    }
}
