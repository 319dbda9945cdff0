//! Dense integer matrices.
//!
//! Transformation matrices, dependence matrices and embedding matrices are
//! all [`IMat`]s. Entries are [`Int`] (`i128`); elimination routines that
//! need fractions live in [`crate::gauss`].

use crate::{IVec, InlError, Int};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major integer matrix.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<Int>,
}

impl IMat {
    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// If rows have unequal lengths.
    pub fn from_rows<R: AsRef<[Int]>>(rows: &[R]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.as_ref().len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r.as_ref());
        }
        IMat {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Build an `rows × cols` matrix from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Int) -> Self {
        let mut m = IMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// The permutation matrix `P` with `P * e_j = e_{perm[j]}`; i.e. applying
    /// `P` to a vector moves the entry at position `j` to position `perm[j]`.
    ///
    /// # Panics
    /// If `perm` is not a permutation of `0..n`.
    pub fn permutation(perm: &[usize]) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        let mut m = IMat::zeros(n, n);
        for (j, &i) in perm.iter().enumerate() {
            assert!(i < n && !seen[i], "not a permutation");
            seen[i] = true;
            m[(i, j)] = 1;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// True iff square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> IVec {
        IVec::from(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Row `i` as a slice.
    pub fn row_slice(&self, i: usize) -> &[Int] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> IVec {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Append a row.
    ///
    /// # Panics
    /// If the row length differs from `ncols` (unless the matrix is empty).
    pub fn push_row(&mut self, row: &IVec) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row: length mismatch");
        self.data.extend_from_slice(row.as_slice());
        self.rows += 1;
    }

    /// Matrix × vector; convenience wrapper over
    /// [`IMat::checked_mul_vec`] for trusted (small-entry) inputs.
    ///
    /// # Panics
    /// If `v.len() != ncols` or the product overflows; fallible paths use
    /// [`IMat::checked_mul_vec`].
    pub fn mul_vec(&self, v: &IVec) -> IVec {
        self.checked_mul_vec(v)
            .expect("mul_vec overflow: fallible paths use checked_mul_vec")
    }

    /// Overflow-checked matrix × vector.
    ///
    /// # Panics
    /// If `v.len() != ncols` (an arity mismatch is a programming error).
    pub fn checked_mul_vec(&self, v: &IVec) -> Result<IVec, InlError> {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows).map(|i| self.row(i).checked_dot(v)).collect()
    }

    /// Matrix × matrix; convenience wrapper over [`IMat::checked_mul`] for
    /// trusted (small-entry) inputs.
    ///
    /// # Panics
    /// If inner dimensions disagree or the product overflows; fallible
    /// paths use [`IMat::checked_mul`].
    pub fn mul(&self, rhs: &IMat) -> IMat {
        self.checked_mul(rhs)
            .expect("matmul overflow: fallible paths use checked_mul")
    }

    /// Overflow-checked matrix × matrix.
    ///
    /// # Panics
    /// If inner dimensions disagree (a programming error).
    pub fn checked_mul(&self, rhs: &IMat) -> Result<IMat, InlError> {
        assert_eq!(self.cols, rhs.rows, "mul: dimension mismatch");
        let mut out = IMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] = a
                        .checked_mul(rhs[(k, j)])
                        .and_then(|prod| out[(i, j)].checked_add(prod))
                        .ok_or_else(|| InlError::overflow("matrix multiply"))?;
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> IMat {
        IMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Determinant via fraction-free (Bareiss) elimination; convenience
    /// wrapper over [`IMat::checked_det`] for trusted (small-entry) inputs.
    ///
    /// # Panics
    /// If the matrix is not square, or on overflow; fallible paths use
    /// [`IMat::checked_det`].
    pub fn det(&self) -> Int {
        self.checked_det()
            .expect("determinant overflow: fallible paths use checked_det")
    }

    /// Overflow-checked determinant.
    ///
    /// # Panics
    /// If the matrix is not square (a programming error).
    pub fn checked_det(&self) -> Result<Int, InlError> {
        crate::gauss::checked_det(self)
    }

    /// Rank over the rationals; convenience wrapper over
    /// [`IMat::checked_rank`] for trusted (small-entry) inputs.
    ///
    /// # Panics
    /// On overflow; fallible paths use [`IMat::checked_rank`].
    pub fn rank(&self) -> usize {
        self.checked_rank()
            .expect("rank overflow: fallible paths use checked_rank")
    }

    /// Overflow-checked rank over the rationals.
    pub fn checked_rank(&self) -> Result<usize, InlError> {
        crate::gauss::checked_rank(self)
    }

    /// True iff square with determinant ±1.
    ///
    /// Panic-free: a determinant whose computation overflows cannot be
    /// proven unimodular, so the answer is conservatively `false`.
    pub fn is_unimodular(&self) -> bool {
        self.is_square() && matches!(self.checked_det(), Ok(1) | Ok(-1))
    }

    /// True iff this is a permutation matrix.
    pub fn is_permutation(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let n = self.rows;
        let mut col_seen = vec![false; n];
        for i in 0..n {
            let mut ones = 0;
            for j in 0..n {
                match self[(i, j)] {
                    0 => {}
                    1 => {
                        if col_seen[j] {
                            return false;
                        }
                        col_seen[j] = true;
                        ones += 1;
                    }
                    _ => return false,
                }
            }
            if ones != 1 {
                return false;
            }
        }
        true
    }
}

impl Index<(usize, usize)> for IMat {
    type Output = Int;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Int {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for IMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Int {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[")?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_mul() {
        let i3 = IMat::identity(3);
        let m = IMat::from_rows(&[&[1, 2, 3][..], &[4, 5, 6], &[7, 8, 9]]);
        assert_eq!(i3.mul(&m), m);
        assert_eq!(m.mul(&i3), m);
        let v = IVec::from(vec![1, 0, -1]);
        assert_eq!(m.mul_vec(&v).as_slice(), &[-2, -2, -2]);
    }

    #[test]
    fn permutation_roundtrip() {
        let perm = vec![2, 0, 1];
        let p = IMat::permutation(&perm);
        assert!(p.is_permutation());
        // applying p moves entry j to position perm[j]
        let v = IVec::from(vec![10, 20, 30]);
        let pv = p.mul_vec(&v);
        assert_eq!(pv.as_slice(), &[20, 30, 10]);
        assert_eq!(pv[perm[0]], v[0]);
    }

    #[test]
    fn not_a_permutation() {
        assert!(!IMat::from_rows(&[&[1, 1][..], &[0, 0]]).is_permutation());
        assert!(!IMat::from_rows(&[&[2, 0][..], &[0, 1]]).is_permutation());
        assert!(!IMat::from_rows(&[&[1, 0, 0][..], &[0, 1, 0]]).is_permutation());
        assert!(IMat::identity(4).is_permutation());
    }

    #[test]
    fn transpose() {
        let m = IMat::from_rows(&[&[1, 2][..], &[3, 4], &[5, 6]]);
        assert_eq!(
            m.transpose(),
            IMat::from_rows(&[&[1, 3, 5][..], &[2, 4, 6]])
        );
    }

    #[test]
    fn unimodular() {
        assert!(IMat::identity(3).is_unimodular());
        assert!(IMat::from_rows(&[&[1, 1][..], &[0, 1]]).is_unimodular()); // skew
        assert!(!IMat::from_rows(&[&[2, 0][..], &[0, 1]]).is_unimodular()); // scale
    }

    #[test]
    fn push_row() {
        let mut m = IMat::zeros(0, 0);
        m.push_row(&IVec::from(vec![1, 2]));
        m.push_row(&IVec::from(vec![3, 4]));
        assert_eq!(m, IMat::from_rows(&[&[1, 2][..], &[3, 4]]));
    }
}
