//! Statement bodies: array accesses and arithmetic expressions.

use crate::aff::Aff;
use crate::program::ArrayId;
use std::hash::{Hash, Hasher};

/// A subscripted array reference `A[e₁, …, e_d]` with affine subscripts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// The array.
    pub array: ArrayId,
    /// One affine subscript per dimension.
    pub idxs: Vec<Aff>,
}

/// The right-hand side of an atomic statement.
///
/// Expressions are real enough to execute (so transformed programs can be
/// checked for bitwise-equal results) but deliberately minimal: affine index
/// values, array reads, and the arithmetic that matrix factorizations need.
///
/// Equality and hashing are structural, with `f64` literals compared by
/// **bit pattern** (`0.0 ≠ -0.0`, a NaN equals itself): two expressions are
/// equal exactly when they compute bitwise-identical values everywhere,
/// which makes `Eq` lawful and lets a [`crate::Program`] key a memo.
#[derive(Clone, Debug)]
pub enum Expr {
    /// A floating-point literal.
    Const(f64),
    /// The value of an affine expression of loop variables/parameters,
    /// converted to a value. (Used by "A(I,J) = f()"-style synthetic
    /// statements — a deterministic function of the iteration point.)
    Index(Aff),
    /// An array read.
    Read(Access),
    /// Negation.
    Neg(Box<Expr>),
    /// Square root (Cholesky's pivot).
    Sqrt(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
}

impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        use Expr::*;
        match (self, other) {
            (Const(a), Const(b)) => a.to_bits() == b.to_bits(),
            (Index(a), Index(b)) => a == b,
            (Read(a), Read(b)) => a == b,
            (Neg(a), Neg(b)) | (Sqrt(a), Sqrt(b)) => a == b,
            (Add(a, b), Add(c, d))
            | (Sub(a, b), Sub(c, d))
            | (Mul(a, b), Mul(c, d))
            | (Div(a, b), Div(c, d)) => a == c && b == d,
            _ => false,
        }
    }
}

impl Eq for Expr {}

impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        use Expr::*;
        std::mem::discriminant(self).hash(state);
        match self {
            Const(v) => v.to_bits().hash(state),
            Index(a) => a.hash(state),
            Read(acc) => acc.hash(state),
            Neg(e) | Sqrt(e) => e.hash(state),
            Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) => {
                a.hash(state);
                b.hash(state);
            }
        }
    }
}

#[allow(clippy::should_implement_trait)] // constructors build AST nodes, not arithmetic
impl Expr {
    /// A constant.
    pub fn konst(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// An affine index value.
    pub fn index(a: Aff) -> Expr {
        Expr::Index(a)
    }

    /// An array read.
    pub fn read(array: ArrayId, idxs: Vec<Aff>) -> Expr {
        Expr::Read(Access { array, idxs })
    }

    /// `sqrt(e)`.
    pub fn sqrt(e: Expr) -> Expr {
        Expr::Sqrt(Box::new(e))
    }

    /// `-e`.
    pub fn neg(e: Expr) -> Expr {
        Expr::Neg(Box::new(e))
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `a / b`.
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    /// Visit every array read in the expression, left-to-right, borrowed.
    pub fn for_each_read<'a>(&'a self, f: &mut impl FnMut(&'a Access)) {
        match self {
            Expr::Const(_) | Expr::Index(_) => {}
            Expr::Read(a) => f(a),
            Expr::Neg(e) | Expr::Sqrt(e) => e.for_each_read(f),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.for_each_read(f);
                b.for_each_read(f);
            }
        }
    }

    /// Rewrite every affine expression (subscripts and index values) with
    /// `f`. Used by code generation to substitute old loop variables with
    /// expressions in the new ones.
    pub fn map_affs(&self, f: &dyn Fn(&Aff) -> Aff) -> Expr {
        match self {
            Expr::Const(v) => Expr::Const(*v),
            Expr::Index(a) => Expr::Index(f(a)),
            Expr::Read(acc) => Expr::Read(Access {
                array: acc.array,
                idxs: acc.idxs.iter().map(f).collect(),
            }),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_affs(f))),
            Expr::Sqrt(e) => Expr::Sqrt(Box::new(e.map_affs(f))),
            Expr::Add(a, b) => Expr::Add(Box::new(a.map_affs(f)), Box::new(b.map_affs(f))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(a.map_affs(f)), Box::new(b.map_affs(f))),
            Expr::Mul(a, b) => Expr::Mul(Box::new(a.map_affs(f)), Box::new(b.map_affs(f))),
            Expr::Div(a, b) => Expr::Div(Box::new(a.map_affs(f)), Box::new(b.map_affs(f))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayId, LoopId};
    use crate::VarKey;

    #[test]
    fn reads_are_visited_in_order() {
        let a = ArrayId(0);
        let i = Aff::var(VarKey::Loop(LoopId(0)));
        let e = Expr::add(
            Expr::read(a, vec![i.clone()]),
            Expr::mul(
                Expr::read(a, vec![i.clone() + Aff::konst(1)]),
                Expr::konst(2.0),
            ),
        );
        let mut reads = Vec::new();
        e.for_each_read(&mut |r| reads.push(r));
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].idxs[0], i);
        assert_eq!(reads[1].idxs[0], i + Aff::konst(1));
    }

    #[test]
    fn map_affs_rewrites_everywhere() {
        let a = ArrayId(0);
        let i = Aff::var(VarKey::Loop(LoopId(0)));
        let e = Expr::sub(Expr::read(a, vec![i.clone()]), Expr::index(i.clone()));
        let shifted = e.map_affs(&|x| x.clone() + Aff::konst(10));
        let mut reads = Vec::new();
        shifted.for_each_read(&mut |r| reads.push(r.clone()));
        assert_eq!(reads[0].idxs[0], i.clone() + Aff::konst(10));
        match shifted {
            Expr::Sub(_, idx) => match *idx {
                Expr::Index(x) => assert_eq!(x, i + Aff::konst(10)),
                _ => panic!("expected index"),
            },
            _ => panic!("expected sub"),
        }
    }
}
