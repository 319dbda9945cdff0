//! Loop splitting (strip-mining) and its legality proof.
//!
//! Tiling sits *outside* the paper's matrix framework: a split is not a
//! linear map on instance vectors (the tile number is `floor(i/T)`), so
//! it cannot be expressed as one of §4's matrices. Instead it is a
//! structural pre-pass, like distribution and jamming in
//! [`crate::structural`]: `inl-ir` surgery builds the split program (one
//! index becomes an outer×tile pair whose reconstruction `i = i` is
//! enforced by clamp bounds, see [`Program::split_loop`]), and legality
//! is proved through the ordinary dependence-projection machinery — a
//! split is legal iff the dependence projections of the *reconstructed*
//! (split) program stay lexicographically non-negative under the
//! identity transformation. Because the inner loop keeps the original
//! index's absolute value, strip-mining preserves execution order
//! exactly and the proof always succeeds on a valid program; running it
//! through [`check_legal`] keeps the evidence honest (explain records
//! under the `tile` stage carry the projection counts) and guards
//! against surgery bugs.
//!
//! [`innermost_reuse_loop`] names *where* a split can pay: the deepest
//! loop in which some access of a statement it surrounds is invariant, so
//! every iteration re-touches that access's working set and confining the
//! loop to a tile shrinks the reuse distance past the cache cliff. Only a
//! `tile(…)` label ([`crate::recipe`]) splits; the scheduler searches none.

use crate::depend::{analyze, DependenceMatrix};
use crate::instance::InstanceLayout;
use crate::legal::{check_legal, LegalityReport};
use inl_ir::{Access, LoopId, Program, VarKey};
use inl_linalg::{IMat, InlError, Int};

/// A split program with the bookkeeping its legality proof needs.
#[derive(Clone, Debug)]
pub struct SplitResult {
    /// The split program (statement ids preserved; the original loop id
    /// survives as the tile-confined inner loop).
    pub program: Program,
    /// The split loop: same id and name, now confined to one tile inside
    /// a fresh tile-number loop.
    pub split: LoopId,
    /// The tile size.
    pub tile: Int,
    /// Layout of the split program.
    pub layout: InstanceLayout,
}

/// The deepest loop that carries temporal reuse: some array access (write
/// or read) of a statement nested inside it mentions the loop's variable
/// in **no** subscript, so every iteration of that loop re-touches the
/// access's working set. Returns `None` when every access varies with
/// every surrounding loop (splitting cannot create reuse) — ties on depth
/// go to the earliest-declared loop for determinism. Stepped loops are
/// never candidates (the surgery refuses to split them).
pub fn innermost_reuse_loop(p: &Program) -> Option<LoopId> {
    let mut best: Option<(usize, LoopId)> = None;
    for s in p.stmts() {
        let sd = p.stmt_decl(s);
        let mut accesses: Vec<&Access> = vec![&sd.write];
        sd.rhs.for_each_read(&mut |r| accesses.push(r));
        for &l in &p.loops_surrounding(s) {
            if p.loop_decl(l).step != 1 {
                continue;
            }
            let v = VarKey::Loop(l);
            let carries = accesses
                .iter()
                .any(|a| a.idxs.iter().all(|idx| idx.coeff(v) == 0));
            if !carries {
                continue;
            }
            let depth = p.loops_surrounding_loop(l).len();
            let better = match best {
                None => true,
                Some((bd, bl)) => depth > bd || (depth == bd && l.0 < bl.0),
            };
            if better {
                best = Some((depth, l));
            }
        }
    }
    best.map(|(_, l)| l)
}

/// Split loop `l` by `tile` and build the split program's layout.
///
/// Fails with [`InlErrorKind::InvalidTarget`](inl_linalg::InlErrorKind)
/// when [`Program::split_loop`] does: `tile < 2`, `l` is a stepped loop, or
/// `l` is detached from the program.
pub fn split(p: &Program, l: LoopId, tile: Int) -> Result<SplitResult, InlError> {
    let (program, _) = p.split_loop(l, tile)?;
    let layout = InstanceLayout::new(&program);
    Ok(SplitResult {
        program,
        split: l,
        tile,
        layout,
    })
}

/// Prove the split legal: analyze the split program's dependences and
/// check that every projection stays lexicographically non-negative under
/// the identity transformation — i.e. the reconstructed (outer×tile)
/// order is still the source order. Emits explain records under the
/// `tile` stage.
pub fn split_legal(r: &SplitResult) -> Result<LegalityReport, InlError> {
    split_legal_with_deps(r).map(|(report, _)| report)
}

/// [`split_legal`], handing back the split program's dependence matrix the
/// proof analysed, so a caller that goes on to transform the split program
/// (`Shape::apply` for a `tile(…)` label) does not analyse it again.
pub fn split_legal_with_deps(
    r: &SplitResult,
) -> Result<(LegalityReport, DependenceMatrix), InlError> {
    let deps = analyze(&r.program, &r.layout)?;
    let m = IMat::identity(r.layout.len());
    let report = check_legal(&r.program, &r.layout, &deps, &m)?;
    if inl_obs::explain_enabled() {
        let inner = &r.program.loop_decl(r.split).name;
        let subject = format!("split loop {inner} by {}", r.tile);
        if report.is_legal() {
            inl_obs::explain::accept(
                "tile",
                subject,
                format!(
                    "all {} reconstructed dependence projections stay lexicographically \
                     non-negative under the outer×tile order",
                    deps.deps.len()
                ),
            )
            .feature("deps", deps.deps.len() as i64)
            .feature("tile", r.tile as i64);
        } else {
            let why = match &report.new_ast {
                Err(e) => format!("the split layout has no Fig. 5 block structure: {e}"),
                Ok(_) => format!(
                    "{} reconstructed dependence projections go lexicographically \
                     negative under the outer×tile order",
                    report.violations.len()
                ),
            };
            inl_obs::explain::reject("tile", subject, why)
                .feature("deps", deps.deps.len() as i64)
                .feature("violations", report.violations.len() as i64)
                .feature("tile", r.tile as i64);
        }
    }
    Ok((report, deps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;
    use inl_linalg::InlErrorKind;

    fn loop_named(p: &Program, name: &str) -> LoopId {
        p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
    }

    #[test]
    fn reuse_loop_is_the_deepest_invariant_carrier() {
        // matmul: C(i,j) is invariant in K, the deepest loop
        let p = zoo::matmul();
        assert_eq!(innermost_reuse_loop(&p), Some(loop_named(&p, "K")));
        // cholesky_kij: A(j,k) is invariant in L (depth 2, under K and J)
        let p = zoo::cholesky_kij();
        assert_eq!(innermost_reuse_loop(&p), Some(loop_named(&p, "L")));
        // simple_cholesky: A(i) is invariant in J
        let p = zoo::simple_cholesky();
        assert_eq!(innermost_reuse_loop(&p), Some(loop_named(&p, "J")));
        // wavefront: every access varies with both loops — nothing to tile
        assert_eq!(innermost_reuse_loop(&zoo::wavefront()), None);
    }

    #[test]
    fn split_is_always_legal_across_the_zoo() {
        // strip-mining preserves execution order, so the reconstructed
        // projections must stay lex-non-negative for every zoo program
        // that has a reuse-carrying loop
        for ctor in [
            zoo::simple_cholesky,
            zoo::perfect_nest,
            zoo::cholesky_kij,
            zoo::cholesky_left_looking,
            zoo::lu_kij,
            zoo::matmul,
        ] {
            let p = ctor();
            let l = innermost_reuse_loop(&p).expect("reuse loop");
            for tile in [2, 16, 64] {
                let r = split(&p, l, tile).expect("split");
                assert!(r.program.validate().is_ok(), "{:?}", r.program.validate());
                let report = split_legal(&r).expect("analysis");
                assert!(
                    report.is_legal(),
                    "{} tile {tile}: {:?}",
                    p.name(),
                    report.violations
                );
            }
        }
    }

    #[test]
    fn split_rejects_bad_targets_typed() {
        use inl_ir::{Aff, Bound, Expr, ProgramBuilder};
        let p = zoo::matmul();
        let k = loop_named(&p, "K");
        // a loop of step 2
        let mut b = ProgramBuilder::new("stepped");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
        let (lo, hi) = (Bound::single(Aff::konst(1)), Bound::single(Aff::param(n)));
        b.loop_full("I", lo, hi, 2, false, |b| {
            let i = b.loop_var("I");
            b.stmt("S1", x, vec![Aff::var(i)], Expr::konst(1.0));
        });
        let stepped = b.finish();
        let i = loop_named(&stepped, "I");
        // jamming I with I2 leaves I2's declaration behind, detached
        let (jammed, _, i2) = zoo::distributed_simple_cholesky()
            .jam_loops(None, 0)
            .expect("jams");
        for (p, l, tile, complaint) in [
            (&p, k, 1, "loop K: tile size 1 must be at least 2"),
            (&stepped, i, 4, "loop I: cannot split a stepped loop"),
            (
                &jammed,
                i2,
                4,
                "loop I2: loop is not attached to the program",
            ),
        ] {
            let e = split(p, l, tile).unwrap_err();
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
            assert_eq!(e.message(), complaint);
        }
    }
}
