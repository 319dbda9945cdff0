//! Dense integer vectors.
//!
//! Instance vectors, dependence vectors and matrix rows are all [`IVec`]s.

use crate::{gcd, InlError, Int};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense integer vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct IVec(Vec<Int>);

impl IVec {
    /// The zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        IVec(vec![0; n])
    }

    /// The `i`-th unit vector of length `n`.
    pub fn unit(n: usize, i: usize) -> Self {
        let mut v = vec![0; n];
        v[i] = 1;
        IVec(v)
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[Int] {
        &self.0
    }

    /// Consume into the underlying `Vec`.
    pub fn into_vec(self) -> Vec<Int> {
        self.0
    }

    /// Iterate over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Int> {
        self.0.iter()
    }

    /// True iff all entries are zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&x| x == 0)
    }

    /// Dot product; convenience wrapper over [`IVec::checked_dot`] for
    /// trusted (small-entry) inputs.
    ///
    /// # Panics
    /// If lengths differ or the product overflows; fallible paths use
    /// [`IVec::checked_dot`].
    pub fn dot(&self, other: &IVec) -> Int {
        self.checked_dot(other)
            .expect("dot overflow: fallible paths use checked_dot")
    }

    /// Overflow-checked dot product.
    ///
    /// # Panics
    /// If lengths differ (an arity mismatch is a programming error, not an
    /// input condition).
    pub fn checked_dot(&self, other: &IVec) -> Result<Int, InlError> {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        let mut acc: Int = 0;
        for (&a, &b) in self.0.iter().zip(&other.0) {
            acc = a
                .checked_mul(b)
                .and_then(|x| acc.checked_add(x))
                .ok_or_else(|| InlError::overflow("dot product"))?;
        }
        Ok(acc)
    }

    /// Index of the first non-zero entry ("height" in the paper's
    /// `Complete` procedure, Fig. 7), or `None` for the zero vector.
    pub fn height(&self) -> Option<usize> {
        self.0.iter().position(|&x| x != 0)
    }

    /// Gcd of all entries (non-negative; 0 for the zero vector).
    pub fn content(&self) -> Int {
        self.0.iter().fold(0, |acc, &x| gcd(acc, x))
    }

    /// Divide out the gcd of all entries, making the vector primitive.
    /// The zero vector is returned unchanged.
    pub fn primitive(&self) -> IVec {
        let g = self.content();
        if g <= 1 {
            self.clone()
        } else {
            IVec(self.0.iter().map(|&x| x / g).collect())
        }
    }

    /// Keep only the entries at `positions` (in the given order).
    pub fn project(&self, positions: &[usize]) -> IVec {
        IVec(positions.iter().map(|&p| self.0[p]).collect())
    }

    /// Concatenate with another vector.
    pub fn concat(&self, other: &IVec) -> IVec {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        IVec(v)
    }

    /// Scale by a constant; convenience wrapper over
    /// [`IVec::checked_scale`] for trusted (small-entry) inputs.
    ///
    /// # Panics
    /// On overflow; fallible paths use [`IVec::checked_scale`].
    pub fn scale(&self, k: Int) -> IVec {
        self.checked_scale(k)
            .expect("scale overflow: fallible paths use checked_scale")
    }

    /// Overflow-checked scaling by a constant.
    pub fn checked_scale(&self, k: Int) -> Result<IVec, InlError> {
        self.0
            .iter()
            .map(|&x| {
                x.checked_mul(k)
                    .ok_or_else(|| InlError::overflow("vector scale"))
            })
            .collect::<Result<Vec<Int>, InlError>>()
            .map(IVec)
    }
}

impl From<Vec<Int>> for IVec {
    fn from(v: Vec<Int>) -> Self {
        IVec(v)
    }
}

impl From<&[Int]> for IVec {
    fn from(v: &[Int]) -> Self {
        IVec(v.to_vec())
    }
}

impl FromIterator<Int> for IVec {
    fn from_iter<T: IntoIterator<Item = Int>>(iter: T) -> Self {
        IVec(iter.into_iter().collect())
    }
}

impl Index<usize> for IVec {
    type Output = Int;
    fn index(&self, i: usize) -> &Int {
        &self.0[i]
    }
}

impl IndexMut<usize> for IVec {
    fn index_mut(&mut self, i: usize) -> &mut Int {
        &mut self.0[i]
    }
}

impl Add for &IVec {
    type Output = IVec;
    fn add(self, rhs: &IVec) -> IVec {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        IVec(self.0.iter().zip(&rhs.0).map(|(&a, &b)| a + b).collect())
    }
}

impl Sub for &IVec {
    type Output = IVec;
    fn sub(self, rhs: &IVec) -> IVec {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        IVec(self.0.iter().zip(&rhs.0).map(|(&a, &b)| a - b).collect())
    }
}

impl Neg for &IVec {
    type Output = IVec;
    fn neg(self) -> IVec {
        IVec(self.0.iter().map(|&a| -a).collect())
    }
}

impl Mul<Int> for &IVec {
    type Output = IVec;
    fn mul(self, k: Int) -> IVec {
        self.scale(k)
    }
}

impl fmt::Debug for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let v = IVec::from(vec![1, 0, -2]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_zero());
        assert!(IVec::zeros(4).is_zero());
        assert_eq!(IVec::unit(3, 1).as_slice(), &[0, 1, 0]);
    }

    #[test]
    fn dot_and_arith() {
        let a = IVec::from(vec![1, 2, 3]);
        let b = IVec::from(vec![4, -5, 6]);
        assert_eq!(a.dot(&b), 4 - 10 + 18);
        assert_eq!((&a + &b).as_slice(), &[5, -3, 9]);
        assert_eq!((&a - &b).as_slice(), &[-3, 7, -3]);
        assert_eq!((-&a).as_slice(), &[-1, -2, -3]);
        assert_eq!((&a * 3).as_slice(), &[3, 6, 9]);
    }

    #[test]
    fn height() {
        assert_eq!(IVec::from(vec![0, 0, 5, 1]).height(), Some(2));
        assert_eq!(IVec::zeros(3).height(), None);
        assert_eq!(IVec::from(vec![-1]).height(), Some(0));
    }

    #[test]
    fn primitive() {
        assert_eq!(
            IVec::from(vec![4, -6, 8]).primitive().as_slice(),
            &[2, -3, 4]
        );
        assert_eq!(IVec::from(vec![0, 0]).primitive().as_slice(), &[0, 0]);
        assert_eq!(IVec::from(vec![3, 5]).primitive().as_slice(), &[3, 5]);
    }

    #[test]
    fn project_concat() {
        let v = IVec::from(vec![10, 20, 30, 40]);
        assert_eq!(v.project(&[3, 0]).as_slice(), &[40, 10]);
        assert_eq!(v.project(&[]).len(), 0);
        let w = IVec::from(vec![1, 2]);
        assert_eq!(v.concat(&w).as_slice(), &[10, 20, 30, 40, 1, 2]);
    }
}
