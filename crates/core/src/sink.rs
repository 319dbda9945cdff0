//! Statement sinking — the baseline the paper argues *against*.
//!
//! §4.1: "the commonly used strategy of performing transformations after
//! sinking all statements into the innermost loop will in general change
//! the index space". This module implements that classical strategy so the
//! repo can compare it with the paper's direct approach:
//!
//! * a statement before (after) a sibling loop is moved into the loop,
//!   guarded by "first (last) iteration";
//! * this is only *possible* when each loop has a single loop child
//!   (otherwise no perfect nest exists without distribution), and only
//!   *correct* when the inner loop's range is provably non-empty — exactly
//!   the two failure modes matrix factorizations hit, which is the paper's
//!   motivation for transforming imperfect nests directly.

use inl_ir::{Aff, Guard, LoopId, Node, Program, VarKey};
use inl_linalg::{InlError, InlErrorKind};
use inl_poly::{is_empty, Feasibility, LinExpr};

/// A loop this baseline cannot sink through: [`InlErrorKind::Unsupported`]
/// with the reason, which is also the explain record's.
#[track_caller]
fn unsupported(reason: String) -> InlError {
    InlError::new(InlErrorKind::Unsupported, reason)
}

/// Sink every statement into the innermost loop, producing a perfect nest.
///
/// Returns the transformed program or the reason the strategy breaks down:
/// `Unsupported` when a loop branches, may have an empty range, has
/// multi-term bounds or a non-unit step.
pub fn sink_statements(p: &Program) -> Result<Program, InlError> {
    let mut cur = p.clone();
    let mut sunk = 0i64;
    loop {
        let target = match find_sinkable(&cur) {
            Ok(Some(t)) => t,
            Ok(None) => {
                if inl_obs::explain_enabled() {
                    inl_obs::explain::accept(
                        "sink",
                        format!("program {}", p.name()),
                        format!("perfect nest reached after {sunk} sink steps"),
                    )
                    .feature("sink_steps", sunk);
                }
                return Ok(cur);
            }
            Err(e) => {
                if inl_obs::explain_enabled() {
                    inl_obs::explain::reject("sink", format!("program {}", p.name()), e.message())
                        .feature("sink_steps", sunk);
                }
                return Err(e);
            }
        };
        let outer_name = cur.loop_decl(target).name.clone();
        match sink_one(&cur, target) {
            Ok(next) => {
                if inl_obs::explain_enabled() {
                    inl_obs::explain::note(
                        "sink",
                        format!("loop {outer_name}"),
                        "sank statement children into the single loop child under first/last-iteration guards",
                    );
                }
                sunk += 1;
                cur = next;
            }
            Err(e) => {
                if inl_obs::explain_enabled() {
                    inl_obs::explain::reject("sink", format!("loop {outer_name}"), e.message())
                        .feature("sink_steps", sunk);
                }
                return Err(e);
            }
        }
    }
}

/// Find a loop whose children mix statements with exactly one loop.
/// `Ok(None)` when the program is already perfectly nested.
fn find_sinkable(p: &Program) -> Result<Option<LoopId>, InlError> {
    for l in p.loops() {
        // skip detached loops
        if p.loops_surrounding_loop(l).is_empty() && !p.root().contains(&Node::Loop(l)) {
            continue;
        }
        let children = &p.loop_decl(l).children;
        let nloops = children
            .iter()
            .filter(|c| matches!(c, Node::Loop(_)))
            .count();
        let nstmts = children.len() - nloops;
        if nloops >= 2 {
            return Err(unsupported(format!(
                "loop {} has two or more loop children: no perfect nest without distribution",
                p.loop_decl(l).name
            )));
        }
        if nloops == 1 && nstmts > 0 {
            return Ok(Some(l));
        }
    }
    // also the virtual root must not branch for a perfect nest, but a
    // multi-loop root is a sequence of perfect nests — acceptable output
    Ok(None)
}

/// Sink the statement children of `outer` into its single loop child.
fn sink_one(p: &Program, outer: LoopId) -> Result<Program, InlError> {
    let mut out = p.clone();
    let children = p.loop_decl(outer).children.clone();
    let Some((loop_pos, inner)) = children.iter().enumerate().find_map(|(i, &c)| match c {
        Node::Loop(l) => Some((i, l)),
        _ => None,
    }) else {
        return Err(InlError::invalid_target(
            format!("loop {}", p.loop_decl(outer).name),
            "sink target has no loop child",
        ));
    };
    let inner_decl = p.loop_decl(inner).clone();
    let iname = &inner_decl.name;
    if inner_decl.step != 1 {
        return Err(unsupported(format!("loop {iname} has a non-unit step")));
    }
    let complex = || {
        unsupported(format!(
            "loop {iname} has multi-term bounds: no single affine first/last-iteration guard"
        ))
    };
    if inner_decl.lower.terms.len() != 1 || inner_decl.upper.terms.len() != 1 {
        return Err(complex());
    }
    let lo = inner_decl.lower.terms[0].clone();
    let hi = inner_decl.upper.terms[0].clone();
    if lo.divisor() != 1 || hi.divisor() != 1 {
        return Err(complex());
    }

    // The range must be provably non-empty in the outer context.
    if range_may_be_empty(p, inner)? {
        return Err(unsupported(format!(
            "inner loop {iname} may have an empty range: a sunk statement could be skipped"
        )));
    }

    let second_loop = || {
        InlError::invalid_target(
            format!("loop {}", p.loop_decl(outer).name),
            "sink target has more than one loop child",
        )
    };
    let ivar = Aff::var(VarKey::Loop(inner));
    let mut new_inner_children = Vec::new();
    // statements before the loop: guard "first iteration" (i == lo)
    for &c in &children[..loop_pos] {
        let Node::Stmt(s) = c else {
            return Err(second_loop());
        };
        out.stmts_guard_push(s, Guard::Eq(ivar.clone() - lo.clone()));
        new_inner_children.push(c);
    }
    new_inner_children.extend(&inner_decl.children);
    // statements after the loop: guard "last iteration" (i == hi)
    for &c in &children[loop_pos + 1..] {
        let Node::Stmt(s) = c else {
            return Err(second_loop());
        };
        out.stmts_guard_push(s, Guard::Eq(ivar.clone() - hi.clone()));
        new_inner_children.push(c);
    }
    out.set_loop_children(inner, new_inner_children);
    out.set_loop_children(outer, vec![Node::Loop(inner)]);
    Ok(out)
}

/// Can the loop's range be empty for some feasible outer iteration?
fn range_may_be_empty(p: &Program, l: LoopId) -> Result<bool, InlError> {
    let space = p.space();
    let slot = |o: LoopId| Some(p.loop_var_index(o));
    let mut sys = p.assumption_system(space)?;
    for o in p.loops_surrounding_loop(l) {
        p.append_bounds(o, &mut sys, &slot)?;
    }
    // emptiness: upper <= lower - 1 (single-term bounds checked by caller)
    let ld = p.loop_decl(l);
    let lo = p.aff_expr(&ld.lower.terms[0], space, &slot)?;
    let hi = p.aff_expr(&ld.upper.terms[0], space, &slot)?;
    sys.add_ge(
        lo.checked_sub(&hi)?
            .checked_sub(&LinExpr::constant(space, 1))?,
    );
    Ok(is_empty(&sys) != Feasibility::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    #[test]
    fn running_example_sinks_to_perfect_nest() {
        // J = I..N is never empty (I <= N), so sinking S3 (after the J
        // loop) works with a "last iteration" guard
        let p = zoo::running_example();
        let q = sink_statements(&p).expect("sinkable");
        // perfect: the I loop has a single loop child carrying everything
        let i = q.loops().next().unwrap();
        assert_eq!(q.loop_decl(i).children.len(), 1);
        let inl_ir::Node::Loop(j) = q.loop_decl(i).children[0] else {
            panic!("expected loop child")
        };
        assert_eq!(q.loop_decl(j).children.len(), 3); // S1, S2, S3(guarded)
        assert!(q.validate().is_ok(), "{:?}", q.validate());
        // and it computes the same thing
        inl_exec::equivalent(&p, &q, &[5], &|_, _| 0.0).expect("identical");
        inl_exec::equivalent(&p, &q, &[1], &|_, _| 0.0).expect("identical at N=1");
    }

    #[test]
    fn cholesky_sinking_fails_on_empty_range() {
        // the paper's motivation: J = I+1..N is empty at I = N, so the
        // pivot sqrt would be lost — sinking must refuse
        let p = zoo::simple_cholesky();
        let e = sink_statements(&p).expect_err("refuses");
        assert_eq!(e.kind(), InlErrorKind::Unsupported);
        assert_eq!(
            e.message(),
            "inner loop J may have an empty range: a sunk statement could be skipped"
        );
    }

    #[test]
    fn full_cholesky_sinking_fails_on_branching() {
        // K has two loop children (I and J nests): no perfect nest without
        // distribution — which §1 notes is illegal here anyway
        let p = zoo::cholesky_kij();
        let e = sink_statements(&p).expect_err("refuses");
        assert_eq!(e.kind(), InlErrorKind::Unsupported);
        assert!(
            e.message()
                .starts_with("loop K has two or more loop children"),
            "{e}"
        );
    }

    #[test]
    fn already_perfect_nest_is_untouched() {
        let p = zoo::perfect_nest();
        let q = sink_statements(&p).expect("no-op");
        assert_eq!(p.to_pseudocode(), q.to_pseudocode());
    }

    #[test]
    fn sunk_guards_reference_inner_variable() {
        let p = zoo::running_example();
        let q = sink_statements(&p).expect("sinkable");
        let s3 = q.stmts().find(|&s| q.stmt_decl(s).name == "S3").unwrap();
        assert_eq!(q.stmt_decl(s3).guards.len(), 1);
        assert!(matches!(q.stmt_decl(s3).guards[0], Guard::Eq(_)));
    }
}
