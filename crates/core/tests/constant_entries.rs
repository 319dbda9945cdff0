//! Dependence entries read off without a projection: a constant Δ over a
//! polyhedron with a proven integer point (`Dependence::certain`) is taken
//! as that constant by `depend::constant_entry`. Every such entry of every
//! zoo program, and of the split of its innermost reuse loop, must be what
//! `expr_bounds` computes on the dependence's system; so must every other
//! entry, which the analysis still projects.

use inl_core::depend::{analyze, constant_entry, DepEntry};
use inl_core::instance::InstanceLayout;
use inl_core::tiling;
use inl_ir::{zoo, Program};
use inl_poly::{expr_bounds, Feasibility};

/// `(entries read off, entries projected)` of one analysed program.
fn check(what: &str, p: &Program, layout: &InstanceLayout) -> (usize, usize) {
    let deps = analyze(p, layout).expect("analysis");
    let (mut read_off, mut projected) = (0, 0);
    for (k, d) in deps.deps.iter().enumerate() {
        let feas = if d.certain {
            Feasibility::NonEmpty
        } else {
            Feasibility::Unknown
        };
        for i in 0..layout.len() {
            let expr = d
                .checked_delta_expr(layout, p.nparams(), i)
                .expect("delta expression");
            let (lo, hi) = expr_bounds(&d.system, &expr).expect("projection");
            let projection = DepEntry { lo, hi };
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
    let (mut read_off, mut projected, mut splits) = (0, 0, 0);
    for (name, build) in zoo::ALL {
        let p = build();
        let (r, q) = check(name, &p, &InstanceLayout::new(&p));
        read_off += r;
        projected += q;
        if let Some(l) = tiling::innermost_reuse_loop(&p) {
            let s = tiling::split(&p, l, 16).expect("split");
            let what = format!("{name} tile({})", p.loop_decl(l).name);
            let (r, q) = check(&what, &s.program, &s.layout);
            read_off += r;
            projected += q;
            splits += 1;
        }
    }
    assert!(splits > 0, "some zoo program has a reuse loop to split");
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
