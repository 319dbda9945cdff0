//! Property-based tests on the framework's invariants:
//!
//! * Theorem 1: execution order = lexicographic order on instance vectors,
//!   for *random* imperfectly nested programs;
//! * legality soundness: any legal transformation of a random program over
//!   a random transformation sequence generates code that executes
//!   bitwise identically;
//! * dependence soundness: if the checker declares a matrix legal with no
//!   unsatisfied dependences, execution agrees.

use inl::codegen::generate;
use inl::core::depend::analyze;
use inl::core::instance::InstanceLayout;
use inl::core::transform::Transform;
use inl::exec::{equivalent, run_traced};
use inl::ir::{Aff, Expr, Program, ProgramBuilder};
use inl::linalg::lex::lex_cmp;
use proptest::prelude::*;
use std::cmp::Ordering;

/// A random imperfectly nested program over one parameter N and one or two
/// arrays. The generator chooses a shape (how statements and an inner loop
/// interleave) and per-statement affine accesses with small offsets.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        0..3usize,       // shape selector
        -1..=1i64,       // read offset a
        -1..=1i64,       // read offset b
        prop::bool::ANY, // inner loop triangular?
        prop::bool::ANY, // second statement reads x or y
    )
        .prop_map(|(shape, oa, ob, triangular, cross)| {
            build_program(shape, oa as i128, ob as i128, triangular, cross)
        })
}

fn build_program(shape: usize, oa: i128, ob: i128, triangular: bool, cross: bool) -> Program {
    let mut b = ProgramBuilder::new(format!("rand_{shape}_{oa}_{ob}_{triangular}_{cross}"));
    let n = b.param("N");
    // generous extents so offsets of ±1 stay in range (indices shifted +2)
    let ext = Aff::param(n) + Aff::konst(4);
    let x = b.array("X", &[ext.clone(), ext.clone()]);
    let y = b.array("Y", &[ext.clone(), ext.clone()]);
    let sh = |v: Aff| v + Aff::konst(2); // index shift
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        if shape != 1 {
            b.stmt(
                "S1",
                x,
                vec![sh(Aff::var(i)), sh(Aff::var(i))],
                Expr::add(
                    Expr::read(x, vec![sh(Aff::var(i) + Aff::konst(oa)), sh(Aff::var(i))]),
                    Expr::konst(1.0),
                ),
            );
        }
        let jlo = if triangular {
            Aff::var(i)
        } else {
            Aff::konst(1)
        };
        b.hloop("J", jlo, Aff::param(n), |b| {
            let i = b.loop_var("I");
            let j = b.loop_var("J");
            let src = if cross { x } else { y };
            b.stmt(
                "S2",
                y,
                vec![sh(Aff::var(i)), sh(Aff::var(j))],
                Expr::add(
                    Expr::read(src, vec![sh(Aff::var(i) + Aff::konst(ob)), sh(Aff::var(j))]),
                    Expr::index(Aff::var(i) + Aff::var(j)),
                ),
            );
        });
        if shape == 2 {
            b.stmt(
                "S3",
                x,
                vec![sh(Aff::var(i)), sh(Aff::konst(0))],
                Expr::read(y, vec![sh(Aff::var(i)), sh(Aff::konst(1))]),
            );
        }
    });
    b.finish()
}

/// A random transformation sequence over the program's loops/statements.
fn arb_transforms(p: &Program) -> impl Strategy<Value = Vec<Transform>> {
    let loops: Vec<_> = p.loops().collect();
    let stmts: Vec<_> = p.stmts().collect();
    let single = (
        0..5usize,
        0..loops.len(),
        0..loops.len(),
        -2..=2i64,
        0..stmts.len(),
    )
        .prop_map(move |(kind, a, b, f, s)| match kind {
            0 => Transform::Interchange(loops[a], loops[b % loops.len().max(1)]),
            1 => Transform::Reverse(loops[a]),
            2 => Transform::Skew {
                target: loops[a],
                source: loops[b % loops.len()],
                factor: f as i128,
            },
            3 => Transform::Scale {
                target: loops[a],
                factor: (f.unsigned_abs() as i128) + 1,
            },
            _ => Transform::Align {
                stmt: stmts[s],
                looop: loops[a],
                offset: f as i128,
            },
        });
    prop::collection::vec(single, 1..3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Theorem 1 holds on random programs.
    #[test]
    fn execution_order_is_lex_order((p, n) in arb_program().prop_flat_map(|p| (Just(p), 1i64..5))) {
        let layout = InstanceLayout::new(&p);
        let (_, trace) = run_traced(&p, &[n as i128], &|_, _| 0.0);
        let vecs: Vec<_> = trace
            .instances
            .iter()
            .map(|r| layout.instance_vector(r.stmt, &r.iter))
            .collect();
        for w in vecs.windows(2) {
            prop_assert_eq!(lex_cmp(&w[0], &w[1]), Ordering::Less);
        }
    }

    /// Soundness: whenever the framework accepts a transformation and
    /// generates code, execution is bitwise identical.
    #[test]
    fn legal_codegen_is_semantics_preserving(
        (p, seq) in arb_program().prop_flat_map(|p| {
            let t = arb_transforms(&p);
            (Just(p), t)
        })
    ) {
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let Ok(m) = Transform::compose(&p, &layout, &seq) else {
            return Ok(()); // structurally invalid transform (e.g. alignment without edge)
        };
        let Ok(result) = generate(&p, &layout, &deps, &m) else {
            return Ok(()); // rejected as illegal or unsupported: fine
        };
        for n in [1i128, 2, 4] {
            let r = equivalent(&p, &result.program, &[n], &|_, idx| {
                (idx[0] * 7 + idx.get(1).copied().unwrap_or(0) * 3 + 1) as f64 * 0.125
            });
            prop_assert!(
                r.is_ok(),
                "seq {:?} on {}: {}\nsource:\n{}\ntarget:\n{}",
                seq,
                p.name(),
                r.unwrap_err(),
                p.to_pseudocode(),
                result.program.to_pseudocode()
            );
        }
    }

    /// The dependence matrix always has lexicographically non-negative
    /// instance-vector differences (execution order).
    #[test]
    fn dependences_are_lex_nonnegative(p in arb_program()) {
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        for d in deps.deps.iter() {
            let lead = d.entries.iter().find(|e| !e.is_zero());
            if let Some(e) = lead {
                prop_assert!(
                    e.lo.is_some_and(|l| l >= 0),
                    "dependence with lex-negative difference: {}",
                    deps.display()
                );
            }
        }
    }
}
