//! The program zoo: every example used in the paper, plus classic kernels.
//!
//! Each function builds a fresh [`Program`]; the symbolic parameter `N` is
//! bound at execution time.

use crate::aff::Aff;
use crate::builder::ProgramBuilder;
use crate::expr::Expr;
use crate::program::Program;

/// §3's running example — the "highly simplified version of Cholesky
/// factorization":
///
/// ```text
/// do I = 1..N
///   S1: A(I) = sqrt(A(I))
///   do J = I+1..N
///     S2: A(J) = A(J) / A(I)
/// ```
pub fn simple_cholesky() -> Program {
    let mut b = ProgramBuilder::new("simple_cholesky");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.stmt(
            "S1",
            a,
            vec![Aff::var(i)],
            Expr::sqrt(Expr::read(a, vec![Aff::var(i)])),
        );
        b.hloop("J", Aff::var(i) + Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S2",
                a,
                vec![Aff::var(j)],
                Expr::div(
                    Expr::read(a, vec![Aff::var(j)]),
                    Expr::read(a, vec![Aff::var(i)]),
                ),
            );
        });
    });
    b.finish()
}

/// §2's running example with concrete inner bounds (`J = I..N`):
///
/// ```text
/// do I = 1..N
///   do J = I..N
///     S1: X(I,J) = val(I+J)
///     S2: Y(I,J) = X(I,J) * 2
///   S3: Z(I) = val(I)
/// ```
pub fn running_example() -> Program {
    let mut b = ProgramBuilder::new("running_example");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let x = b.array("X", &[ext.clone(), ext.clone()]);
    let y = b.array("Y", &[ext.clone(), ext.clone()]);
    let z = b.array("Z", std::slice::from_ref(&ext));
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::var(i), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S1",
                x,
                vec![Aff::var(i), Aff::var(j)],
                Expr::index(Aff::var(i) + Aff::var(j)),
            );
            b.stmt(
                "S2",
                y,
                vec![Aff::var(i), Aff::var(j)],
                Expr::mul(
                    Expr::read(x, vec![Aff::var(i), Aff::var(j)]),
                    Expr::konst(2.0),
                ),
            );
        });
        b.stmt("S3", z, vec![Aff::var(i)], Expr::index(Aff::var(i)));
    });
    b.finish()
}

/// §2.2 / Fig. 3's perfectly nested loop:
///
/// ```text
/// do I = 1..N
///   do J = I+1..N
///     S1: A(J) = A(J) / A(I)
/// ```
pub fn perfect_nest() -> Program {
    let mut b = ProgramBuilder::new("perfect_nest");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::var(i) + Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S1",
                a,
                vec![Aff::var(j)],
                Expr::div(
                    Expr::read(a, vec![Aff::var(j)]),
                    Expr::read(a, vec![Aff::var(i)]),
                ),
            );
        });
    });
    b.finish()
}

/// §5.4's augmentation example:
///
/// ```text
/// do I = 1..N
///   S1: B(I) = B(I-1) + A(I-1,I+1)
///   do J = I..N
///     S2: A(I,J) = f()          — modelled as val(I + 2·J)
/// ```
pub fn augmentation_example() -> Program {
    let mut b = ProgramBuilder::new("augmentation_example");
    let n = b.param("N");
    let a = b.array(
        "A",
        &[Aff::param(n) + Aff::konst(1), Aff::param(n) + Aff::konst(2)],
    );
    let bb = b.array("B", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.stmt(
            "S1",
            bb,
            vec![Aff::var(i)],
            Expr::add(
                Expr::read(bb, vec![Aff::var(i) - Aff::konst(1)]),
                Expr::read(
                    a,
                    vec![Aff::var(i) - Aff::konst(1), Aff::var(i) + Aff::konst(1)],
                ),
            ),
        );
        b.hloop("J", Aff::var(i), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S2",
                a,
                vec![Aff::var(i), Aff::var(j)],
                Expr::index(Aff::var(i) + Aff::var(j) * 2),
            );
        });
    });
    b.finish()
}

/// §6's full Cholesky factorization (right-looking, KIJ form):
///
/// ```text
/// do K = 1..N
///   S1: A[K][K] = sqrt(A[K][K])
///   do I = K+1..N
///     S2: A[I][K] = A[I][K] / A[K][K]
///   do J = K+1..N
///     do L = K+1..J
///       S3: A[J][L] = A[J][L] - A[J][K] * A[L][K]
/// ```
pub fn cholesky_kij() -> Program {
    let mut b = ProgramBuilder::new("cholesky_kij");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let a = b.array("A", &[ext.clone(), ext.clone()]);
    b.hloop("K", Aff::konst(1), Aff::param(n), |b| {
        let k = b.loop_var("K");
        b.stmt(
            "S1",
            a,
            vec![Aff::var(k), Aff::var(k)],
            Expr::sqrt(Expr::read(a, vec![Aff::var(k), Aff::var(k)])),
        );
        b.hloop("I", Aff::var(k) + Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt(
                "S2",
                a,
                vec![Aff::var(i), Aff::var(k)],
                Expr::div(
                    Expr::read(a, vec![Aff::var(i), Aff::var(k)]),
                    Expr::read(a, vec![Aff::var(k), Aff::var(k)]),
                ),
            );
        });
        b.hloop("J", Aff::var(k) + Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.hloop("L", Aff::var(k) + Aff::konst(1), Aff::var(j), |b| {
                let l = b.loop_var("L");
                b.stmt(
                    "S3",
                    a,
                    vec![Aff::var(j), Aff::var(l)],
                    Expr::sub(
                        Expr::read(a, vec![Aff::var(j), Aff::var(l)]),
                        Expr::mul(
                            Expr::read(a, vec![Aff::var(j), Aff::var(k)]),
                            Expr::read(a, vec![Aff::var(l), Aff::var(k)]),
                        ),
                    ),
                );
            });
        });
    });
    b.finish()
}

/// The paper's §6 *result*: traditional left-looking Cholesky, produced by
/// completing the K↔J interchange. Kept in the zoo so tests can compare
/// the framework's output against the ground truth.
///
/// ```text
/// do K = 1..N
///   do J = K..N
///     do L = 1..K-1
///       S3: A[J][K] = A[J][K] - A[J][L] * A[K][L]
///   S1: A[K][K] = sqrt(A[K][K])
///   do I = K+1..N
///     S2: A[I][K] = A[I][K] / A[K][K]
/// ```
pub fn cholesky_left_looking() -> Program {
    let mut b = ProgramBuilder::new("cholesky_left_looking");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let a = b.array("A", &[ext.clone(), ext.clone()]);
    b.hloop("K", Aff::konst(1), Aff::param(n), |b| {
        let k = b.loop_var("K");
        b.hloop("J", Aff::var(k), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.hloop("L", Aff::konst(1), Aff::var(k) - Aff::konst(1), |b| {
                let l = b.loop_var("L");
                b.stmt(
                    "S3",
                    a,
                    vec![Aff::var(j), Aff::var(k)],
                    Expr::sub(
                        Expr::read(a, vec![Aff::var(j), Aff::var(k)]),
                        Expr::mul(
                            Expr::read(a, vec![Aff::var(j), Aff::var(l)]),
                            Expr::read(a, vec![Aff::var(k), Aff::var(l)]),
                        ),
                    ),
                );
            });
        });
        b.stmt(
            "S1",
            a,
            vec![Aff::var(k), Aff::var(k)],
            Expr::sqrt(Expr::read(a, vec![Aff::var(k), Aff::var(k)])),
        );
        b.hloop("I", Aff::var(k) + Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt(
                "S2",
                a,
                vec![Aff::var(i), Aff::var(k)],
                Expr::div(
                    Expr::read(a, vec![Aff::var(i), Aff::var(k)]),
                    Expr::read(a, vec![Aff::var(k), Aff::var(k)]),
                ),
            );
        });
    });
    b.finish()
}

/// LU factorization without pivoting (KIJ form) — another imperfectly
/// nested matrix factorization:
///
/// ```text
/// do K = 1..N
///   do I = K+1..N
///     S1: A[I][K] = A[I][K] / A[K][K]
///   do I2 = K+1..N
///     do J = K+1..N
///       S2: A[I2][J] = A[I2][J] - A[I2][K] * A[K][J]
/// ```
pub fn lu_kij() -> Program {
    let mut b = ProgramBuilder::new("lu_kij");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let a = b.array("A", &[ext.clone(), ext.clone()]);
    b.hloop("K", Aff::konst(1), Aff::param(n), |b| {
        let k = b.loop_var("K");
        b.hloop("I", Aff::var(k) + Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt(
                "S1",
                a,
                vec![Aff::var(i), Aff::var(k)],
                Expr::div(
                    Expr::read(a, vec![Aff::var(i), Aff::var(k)]),
                    Expr::read(a, vec![Aff::var(k), Aff::var(k)]),
                ),
            );
        });
        b.hloop("I2", Aff::var(k) + Aff::konst(1), Aff::param(n), |b| {
            let i2 = b.loop_var("I2");
            b.hloop("J", Aff::var(k) + Aff::konst(1), Aff::param(n), |b| {
                let j = b.loop_var("J");
                b.stmt(
                    "S2",
                    a,
                    vec![Aff::var(i2), Aff::var(j)],
                    Expr::sub(
                        Expr::read(a, vec![Aff::var(i2), Aff::var(j)]),
                        Expr::mul(
                            Expr::read(a, vec![Aff::var(i2), Aff::var(k)]),
                            Expr::read(a, vec![Aff::var(k), Aff::var(j)]),
                        ),
                    ),
                );
            });
        });
    });
    b.finish()
}

/// A perfectly nested wavefront recurrence (both loops carry dependences;
/// skewing exposes an inner parallel loop):
///
/// ```text
/// do I = 1..N
///   do J = 1..N
///     S1: A[I][J] = A[I-1][J] + A[I][J-1]
/// ```
pub fn wavefront() -> Program {
    let mut b = ProgramBuilder::new("wavefront");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let a = b.array("A", &[ext.clone(), ext.clone()]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S1",
                a,
                vec![Aff::var(i), Aff::var(j)],
                Expr::add(
                    Expr::read(a, vec![Aff::var(i) - Aff::konst(1), Aff::var(j)]),
                    Expr::read(a, vec![Aff::var(i), Aff::var(j) - Aff::konst(1)]),
                ),
            );
        });
    });
    b.finish()
}

/// Square matrix multiplication `C += A·B` — a perfectly nested loop whose
/// only dependence is the reduction on `C[I][J]` carried by `K`, so *all
/// six* loop permutations are legal (the contrast case to Cholesky):
///
/// ```text
/// do I = 1..N
///   do J = 1..N
///     do K = 1..N
///       S1: C[I][J] = C[I][J] + A[I][K] * B[K][J]
/// ```
pub fn matmul() -> Program {
    let mut b = ProgramBuilder::new("matmul");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let c = b.array("C", &[ext.clone(), ext.clone()]);
    let a = b.array("A", &[ext.clone(), ext.clone()]);
    let bb = b.array("B", &[ext.clone(), ext.clone()]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.hloop("K", Aff::konst(1), Aff::param(n), |b| {
                let k = b.loop_var("K");
                b.stmt(
                    "S1",
                    c,
                    vec![Aff::var(i), Aff::var(j)],
                    Expr::add(
                        Expr::read(c, vec![Aff::var(i), Aff::var(j)]),
                        Expr::mul(
                            Expr::read(a, vec![Aff::var(i), Aff::var(k)]),
                            Expr::read(bb, vec![Aff::var(k), Aff::var(j)]),
                        ),
                    ),
                );
            });
        });
    });
    b.finish()
}

/// A rectangular (two-parameter) wavefront — exercises multi-parameter
/// analysis and code generation:
///
/// ```text
/// do I = 1..M
///   do J = 1..N
///     S1: A[I][J] = A[I-1][J] + A[I][J-1]
/// ```
pub fn rect_wavefront() -> Program {
    let mut b = ProgramBuilder::new("rect_wavefront");
    let m = b.param("M");
    let n = b.param("N");
    let a = b.array(
        "A",
        &[Aff::param(m) + Aff::konst(1), Aff::param(n) + Aff::konst(1)],
    );
    b.hloop("I", Aff::konst(1), Aff::param(m), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S1",
                a,
                vec![Aff::var(i), Aff::var(j)],
                Expr::add(
                    Expr::read(a, vec![Aff::var(i) - Aff::konst(1), Aff::var(j)]),
                    Expr::read(a, vec![Aff::var(i), Aff::var(j) - Aff::konst(1)]),
                ),
            );
        });
    });
    b.finish()
}

/// Row-wise prefix sums — every dependence stays inside one row, so the
/// outer loop is DOALL (its direction spans the dependence matrix's
/// nullspace):
///
/// ```text
/// do I = 1..N
///   do J = 1..N
///     S1: B[I][J] = B[I][J-1] + A[I][J]
/// ```
pub fn row_prefix_sums() -> Program {
    let mut b = ProgramBuilder::new("row_prefix_sums");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let a = b.array("A", &[ext.clone(), ext.clone()]);
    let bb = b.array("B", &[ext.clone(), ext.clone()]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S1",
                bb,
                vec![Aff::var(i), Aff::var(j)],
                Expr::add(
                    Expr::read(bb, vec![Aff::var(i), Aff::var(j) - Aff::konst(1)]),
                    Expr::read(a, vec![Aff::var(i), Aff::var(j)]),
                ),
            );
        });
    });
    b.finish()
}

/// The §4.2 distribution result — simplified Cholesky after (illegal-in-
/// general, here structural-only) loop distribution. Used to exercise the
/// distribution/jamming matrix representations:
///
/// ```text
/// do I = 1..N
///   S1: A(I) = sqrt(A(I))
/// do I2 = 1..N
///   do J = I2+1..N
///     S2: A(J) = A(J) / A(I2)
/// ```
pub fn distributed_simple_cholesky() -> Program {
    let mut b = ProgramBuilder::new("distributed_simple_cholesky");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.stmt(
            "S1",
            a,
            vec![Aff::var(i)],
            Expr::sqrt(Expr::read(a, vec![Aff::var(i)])),
        );
    });
    b.hloop("I2", Aff::konst(1), Aff::param(n), |b| {
        let i2 = b.loop_var("I2");
        b.hloop("J", Aff::var(i2) + Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S2",
                a,
                vec![Aff::var(j)],
                Expr::div(
                    Expr::read(a, vec![Aff::var(j)]),
                    Expr::read(a, vec![Aff::var(i2)]),
                ),
            );
        });
    });
    b.finish()
}

/// Two independent statement groups under one loop — legal to distribute,
/// used to test distribution legality:
///
/// ```text
/// do I = 1..N
///   S1: X(I) = val(I)
///   S2: Y(I) = val(2·I)
/// ```
pub fn independent_pair() -> Program {
    let mut b = ProgramBuilder::new("independent_pair");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let x = b.array("X", std::slice::from_ref(&ext));
    let y = b.array("Y", std::slice::from_ref(&ext));
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.stmt("S1", x, vec![Aff::var(i)], Expr::index(Aff::var(i)));
        b.stmt("S2", y, vec![Aff::var(i)], Expr::index(Aff::var(i) * 2));
    });
    b.finish()
}

/// A zoo entry: the wire name clients use, and the program constructor.
pub type ZooEntry = (&'static str, fn() -> Program);

/// Every zoo program under its wire name, in the order services list and
/// sweeps visit them. This is the one table: the compile service, the
/// scheduler sweep, and the differential tests all iterate it.
pub const ALL: &[ZooEntry] = &[
    ("simple_cholesky", simple_cholesky),
    ("running_example", running_example),
    ("perfect_nest", perfect_nest),
    ("augmentation_example", augmentation_example),
    ("cholesky_kij", cholesky_kij),
    ("cholesky_left_looking", cholesky_left_looking),
    ("lu_kij", lu_kij),
    ("wavefront", wavefront),
    ("matmul", matmul),
    ("rect_wavefront", rect_wavefront),
    ("row_prefix_sums", row_prefix_sums),
    ("distributed_simple_cholesky", distributed_simple_cholesky),
    ("independent_pair", independent_pair),
];

/// Deterministic array initializer for measurement and bitwise
/// equivalence checks: symmetric positive-definite-ish for 2-D arrays, so
/// the Cholesky-family programs stay numerically stable.
pub fn spd_init(_: &str, idx: &[usize]) -> f64 {
    if idx.len() == 2 {
        if idx[0] == idx[1] {
            (idx[0] + 10) as f64
        } else {
            1.0 / ((idx[0] + idx[1] + 2) as f64)
        }
    } else {
        2.0 + idx[0] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_zoo_programs_validate() {
        for (name, make) in ALL {
            let p = make();
            assert_eq!(p.name(), *name, "wire name is the program's name");
            assert!(p.validate().is_ok(), "{name} fails validation");
        }
    }

    #[test]
    fn cholesky_kij_shape() {
        let p = cholesky_kij();
        assert_eq!(p.loops().count(), 4);
        assert_eq!(p.stmts().count(), 3);
        assert_eq!(p.root().len(), 1);
        let s3 = p.stmts().find(|&s| p.stmt_decl(s).name == "S3").unwrap();
        assert_eq!(p.loops_surrounding(s3).len(), 3); // K, J, L
    }

    #[test]
    fn distributed_has_two_roots() {
        let p = distributed_simple_cholesky();
        assert_eq!(p.root().len(), 2);
    }
}
