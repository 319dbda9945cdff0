//! Lexicographic order on integer vectors.
//!
//! Execution order of dynamic instances corresponds to lexicographic order on
//! instance vectors (Theorem 1 of the paper), and the legality condition
//! (Definition 6) requires projected transformed dependence vectors to be
//! lexicographically positive or zero.

use crate::IVec;
use std::cmp::Ordering;

/// Lexicographic comparison of two equal-length vectors.
///
/// # Panics
/// If lengths differ (comparing instance vectors of different programs is a
/// bug).
pub fn lex_cmp(a: &IVec, b: &IVec) -> Ordering {
    assert_eq!(a.len(), b.len(), "lex_cmp: length mismatch");
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_order() {
        let a = IVec::from(vec![1, 2, 3]);
        let b = IVec::from(vec![1, 3, 0]);
        assert_eq!(lex_cmp(&a, &b), Ordering::Less);
        assert_eq!(lex_cmp(&b, &a), Ordering::Greater);
        assert_eq!(lex_cmp(&a, &a), Ordering::Equal);
    }

    #[test]
    fn execution_order_is_lexicographic() {
        let a = IVec::from(vec![2, 0, 1, 2]);
        let b = IVec::from(vec![2, 1, 0, 3]);
        assert_eq!(lex_cmp(&a, &b), Ordering::Less);
    }
}
