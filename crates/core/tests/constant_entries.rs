//! Dependence entries read off without a projection: a constant Δ over a
//! polyhedron with a proven integer point (`Dependence::certain`) is taken
//! as that constant by `depend::constant_entry`, a Δ that an equality of
//! such a polyhedron fixes as the value it is fixed to, and the columns a
//! distribution or jam keeps take their parent's entries. Every entry of
//! every zoo program, of every distribution and jam the legality walk
//! accepts of it, and of three splits of its innermost reuse loop must be
//! what Fourier–Motzkin projects on the dependence's own system, and
//! `constant_entry`'s answer wherever it has one.

use inl_core::depend::{constant_entry, DepEntry};
use inl_core::recipe::{Shape, Step};
use inl_core::tiling;
use inl_ir::zoo;
use inl_poly::{var_bounds, Feasibility, LinExpr, System};

/// The entry `expr` over `sys` as elimination projects it: the bounds of
/// `t` over `sys` extended by `t = expr`. `expr_bounds` answers a
/// difference entry by shortest paths; this row keeps the oracle on
/// Fourier–Motzkin.
fn projection(sys: &System, expr: &LinExpr) -> DepEntry {
    let n = sys.nvars();
    let mut ext = sys.extend(n + 1);
    ext.add_eq(LinExpr::var(n + 1, n) - expr.extend(n + 1));
    let (lo, hi) = var_bounds(&ext, n).expect("projection");
    DepEntry { lo, hi }
}

/// `(entries read off, entries projected)` of one shape.
fn check(what: &str, shape: &Shape) -> (usize, usize) {
    let (p, layout) = (&shape.program, &shape.layout);
    let (mut read_off, mut projected) = (0, 0);
    for (k, d) in shape.deps.deps.iter().enumerate() {
        let feas = if d.certain {
            Feasibility::NonEmpty
        } else {
            Feasibility::Unknown
        };
        for i in 0..layout.len() {
            let expr = d
                .checked_delta_expr(layout, p.nparams(), i)
                .expect("delta expression");
            let projection = projection(&d.system, &expr);
            assert_eq!(
                d.entries[i], projection,
                "{what}: dep {k} entry {i} differs from its projection"
            );
            match constant_entry(&expr, feas) {
                Some(e) => {
                    assert_eq!(e, projection, "{what}: dep {k} entry {i} read off wrongly");
                    read_off += 1;
                }
                None => projected += 1,
            }
        }
    }
    (read_off, projected)
}

#[test]
fn every_entry_read_off_equals_its_projection() {
    let (mut read_off, mut projected, mut shapes, mut splits) = (0, 0, 0, 0);
    for (name, build) in zoo::ALL {
        let p = build();
        let source = Shape::source(p.clone()).expect("analysis");
        let mut steps = Step::candidates(&p);
        if let Some(l) = tiling::innermost_reuse_loop(&p) {
            let r#loop = p.loop_decl(l).name.clone();
            let split = |tile| Step::Split {
                r#loop: r#loop.clone(),
                tile,
            };
            steps.extend([2, 8, 32].map(split));
        }
        let mut made = vec![(name.to_string(), source.clone())];
        for step in steps {
            if let Some(shape) = source.apply(&step).expect("applies") {
                made.push((format!("{name} {step}"), shape));
            }
        }
        for (what, shape) in made {
            let (r, q) = check(&what, &shape);
            read_off += r;
            projected += q;
            shapes += 1;
            splits += what.contains("tile(") as usize;
        }
    }
    assert_eq!(splits, 21, "three splits of each of seven reuse loops");
    assert!(
        shapes > zoo::ALL.len() + splits,
        "no distribution or jam was accepted"
    );
    // The shortcut must keep firing: a change that sends every constant
    // entry back to Fourier–Motzkin would leave this at 0.
    assert!(
        read_off > 0,
        "no entry was read off ({projected} projected)"
    );
    assert!(projected > 0, "some entry still needs a projection");
}

#[test]
fn only_a_certain_constant_is_read_off() {
    use inl_linalg::Int;
    use inl_poly::LinExpr;
    let c = LinExpr::constant(3, -2);
    assert_eq!(
        constant_entry(&c, Feasibility::NonEmpty),
        Some(DepEntry::dist(-2))
    );
    assert_eq!(constant_entry(&c, Feasibility::Unknown), None);
    assert_eq!(constant_entry(&c, Feasibility::Empty), None);
    let x = LinExpr::var(3, 1) + LinExpr::constant(3, 1);
    assert_eq!(constant_entry(&x, Feasibility::NonEmpty), None);
    // `t - Int::MIN` overflows; the projection reports it.
    let min = LinExpr::constant(3, Int::MIN);
    assert_eq!(constant_entry(&min, Feasibility::NonEmpty), None);
}
