//! Static cost features of a generated variant.
//!
//! The auto-scheduler (`inl-sched`) ranks legal variants *without running
//! them*, using integer features computed from the dependence matrix, the
//! transformation, and the generated program. Everything here is exact
//! integer arithmetic over structures the pipeline already built — no
//! timing, no floating point — so ranking is deterministic and
//! reproducible across machines, and the same numbers double as explain
//! evidence (`inl_obs::explain` features on the `codegen` stage).
//!
//! Feature definitions (see DESIGN.md → "The auto-scheduler" for the
//! formulas and rationale):
//!
//! * **`reuse_penalty`** — locality proxy. For every statement of the
//!   *generated* program and every access (the write plus all reads),
//!   look at the innermost surrounding loop variable `v` — skipping
//!   loops that provably run **at most one trip** per surrounding
//!   iteration (a lower/upper term pair whose difference is a constant
//!   below 1, e.g. the `⌈(e−T+1)/T⌉..⌊e/T⌋` pair a permutation leaves
//!   when it sinks a split's tile-number loop inside its tile loop).
//!   Such a loop contributes no locality: every access is trivially
//!   "invariant" across its single iteration, and without the skip a
//!   degenerate tiled order would zero out its deepest statement's
//!   penalty and game the ranking:
//!   - `v` appears in no subscript → 0 (the access is invariant in the
//!     innermost loop: temporal reuse);
//!   - `v` appears only in the **last** subscript with |coeff| = 1 → 1
//!     (unit stride through the row-major minor dimension);
//!   - `v` appears only in the last subscript with |coeff| > 1 → 8
//!     (strided within the minor dimension);
//!   - `v` appears in any **non-last** subscript → 64 (row jumps: each
//!     iteration moves a whole minor-dimension stride).
//!
//!   Each statement's access penalties are weighted by
//!   `4096^depth` (depth = number of surrounding loops in the generated
//!   program), so penalties in deeper — more frequently executed — code
//!   dominate penalties in setup code, whatever the parameter values.
//! * **`max_write_stride`** — the largest |coefficient| of any loop
//!   variable in any write subscript of the generated program.
//! * **`parallel_slots` / `wavefront`** — how many loop slots the
//!   dependence projections certify as DOALL under this transformation,
//!   and whether the outermost parallelism sits strictly inside the nest
//!   (a wavefront schedule: synchronization per outer iteration).
//! * **`guards`** — guards surviving guard simplification; each is a
//!   per-instance branch in the inner loops.
//! * **`bounds_scanned` / `loops_augmented`** — generation work counts,
//!   kept for explain parity (they describe compile cost, not run cost).
//! * **`tile_reuse`** — how many accesses a split (strip-mine) genuinely
//!   blocks. A loop `v` is *tile-confined* when its generated bounds
//!   carry the clamp pair `T·vo ≤ v ≤ T·vo + T − 1` left by
//!   `Program::split_loop` (coefficient `T ≥ 2` on an outer loop `vo`).
//!   An access counts when it mentions a tile-confined `v` in a
//!   **non-last** subscript (the row-jump class, whose working set is a
//!   whole slab) *and* is invariant in some other loop nested inside
//!   `vo` — then each sweep of that invariant loop re-touches only the
//!   tile-sized slab instead of the full extent, which is exactly the
//!   reuse-distance reduction tiling buys. `reuse_penalty` alone cannot
//!   see this (the extra outer loop deepens the nest, so the
//!   depth-weighted penalty *grows* under a split).

use inl_core::depend::{DepKind, DependenceMatrix};
use inl_core::instance::{InstanceLayout, Position};
use inl_core::legal::NewAst;
use inl_ir::{Aff, Program, VarKey};
use inl_linalg::IMat;

/// Weight base for statement depth in [`CostFeatures::reuse_penalty`]:
/// any single access at depth `d+1` outweighs every access at depth `d`.
const DEPTH_WEIGHT: i64 = 4096;

/// Per-access penalty for a non-unit stride in the minor dimension.
const STRIDED_PENALTY: i64 = 8;

/// Per-access penalty for an innermost variable in a major dimension.
const ROW_JUMP_PENALTY: i64 = 64;

/// Integer cost features of one generated variant (see the module docs
/// for definitions). Lower is better for every field except
/// `parallel_slots`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostFeatures {
    /// Number of dependences in the source program's dependence matrix.
    pub deps: i64,
    /// How many of those are certain (distance known exactly).
    pub deps_certain: i64,
    /// Statements in the generated program.
    pub stmts: i64,
    /// Scan bounds computed during generation (compile cost).
    pub bounds_scanned: i64,
    /// Loops added by augmentation (§5.4) during generation.
    pub loops_augmented: i64,
    /// Guards surviving simplification, summed over statements.
    pub guards: i64,
    /// Loop slots certified DOALL under this transformation.
    pub doall: Vec<usize>,
    /// `true` when the outermost DOALL slot is strictly inside the nest
    /// (inner parallelism only — a wavefront schedule).
    pub wavefront: bool,
    /// Largest |coefficient| of a loop variable in any write subscript.
    pub max_write_stride: i64,
    /// Depth-weighted locality penalty over all accesses (module docs).
    pub reuse_penalty: i64,
    /// Accesses whose row-jump slab a strip-mine confines to one tile
    /// that is re-swept by an inner invariant loop (module docs). Higher
    /// is better; 0 for every untiled variant.
    pub tile_reuse: i64,
}

impl CostFeatures {
    /// Number of certified DOALL slots (`doall.len()` as a feature value).
    pub fn parallel_slots(&self) -> i64 {
        self.doall.len() as i64
    }

    /// The simplification-invariant part (see [`AccessFeatures`]).
    pub fn access(&self) -> AccessFeatures {
        AccessFeatures {
            max_write_stride: self.max_write_stride,
            reuse_penalty: self.reuse_penalty,
            tile_reuse: self.tile_reuse,
        }
    }
}

/// Does loop `l` provably run at most one trip per surrounding
/// iteration? True when some lower term `lt` and upper term `ut` differ
/// by a variable-free constant below 1: the trip count
/// `⌊ut⌋ − ⌈lt⌉ + 1` is then at most 1 for every surrounding iteration.
fn single_trip(out: &Program, l: inl_ir::LoopId) -> bool {
    let ld = out.loop_decl(l);
    ld.lower.terms.iter().any(|lt| {
        ld.upper.terms.iter().any(|ut| {
            let diff = ut.clone() - lt.clone();
            diff.terms().is_empty() && diff.constant() < diff.divisor()
        })
    })
}

/// The outer (tile-number) loop confining `v`, if `v`'s bounds carry a
/// split's clamp pair `T·vo ≤ v ≤ T·vo + T − 1` with `T ≥ 2`.
fn tile_confinement(out: &Program, v: inl_ir::LoopId) -> Option<VarKey> {
    let ld = out.loop_decl(v);
    let single_loop_term = |a: &Aff| -> Option<(VarKey, i128)> {
        if a.divisor() != 1 || a.terms().len() != 1 {
            return None;
        }
        let &(vo, t) = &a.terms()[0];
        matches!(vo, VarKey::Loop(_)).then_some((vo, t))
    };
    for lo in &ld.lower.terms {
        if lo.constant() != 0 {
            continue;
        }
        let Some((vo, t)) = single_loop_term(lo) else {
            continue;
        };
        if t < 2 {
            continue;
        }
        let clamped = ld.upper.terms.iter().any(|up| {
            up.constant() == t - 1
                && single_loop_term(&(up.clone() - Aff::konst(t - 1)))
                    .is_some_and(|(vu, tu)| vu == vo && tu == t)
        });
        if clamped {
            return Some(vo);
        }
    }
    None
}

/// Does strip-mining pay off for this access? See the module docs'
/// `tile_reuse` definition. `surrounding` are the loops around the
/// statement in the generated program, outermost first.
fn access_tile_reuse(out: &Program, surrounding: &[inl_ir::LoopId], idxs: &[Aff]) -> bool {
    for (k, a) in idxs.iter().enumerate() {
        if k + 1 == idxs.len() {
            continue; // last subscript: minor-dimension, not a slab jump
        }
        for &(v, c) in a.terms() {
            let (VarKey::Loop(vl), true) = (v, c != 0) else {
                continue;
            };
            let Some(vo) = tile_confinement(out, vl) else {
                continue;
            };
            let reused = surrounding.iter().any(|&m| {
                m != vl
                    && out
                        .loops_surrounding_loop(m)
                        .iter()
                        .any(|&q| VarKey::Loop(q) == vo)
                    && idxs.iter().all(|ix| ix.coeff(VarKey::Loop(m)) == 0)
            });
            if reused {
                return true;
            }
        }
    }
    false
}

/// Penalty of one access with respect to loop variable `innermost`.
fn access_penalty(idxs: &[Aff], innermost: VarKey) -> i64 {
    let mut penalty = 0i64;
    for (k, a) in idxs.iter().enumerate() {
        let coeff = a
            .terms()
            .iter()
            .find(|(v, _)| *v == innermost)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        if coeff == 0 {
            continue;
        }
        let last = k + 1 == idxs.len();
        penalty = penalty.max(if !last {
            ROW_JUMP_PENALTY
        } else if coeff.unsigned_abs() == 1 {
            1
        } else {
            STRIDED_PENALTY
        });
    }
    penalty
}

/// The features that read only the generated program's loop bounds,
/// subscripts and nesting. Guard simplification rewrites none of those
/// (it only drops statement guards), so the values are the same on a
/// variant lowered through `Builder::build()` and on the finished one —
/// which is what lets the scheduler rank every leaf on them before
/// simplifying any (see [`crate::generate::BuiltVariant`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessFeatures {
    /// See [`CostFeatures::max_write_stride`].
    pub max_write_stride: i64,
    /// See [`CostFeatures::reuse_penalty`].
    pub reuse_penalty: i64,
    /// See [`CostFeatures::tile_reuse`].
    pub tile_reuse: i64,
}

/// Compute the [`AccessFeatures`] of the generated program `out`.
pub(crate) fn access_features(out: &Program) -> AccessFeatures {
    let mut f = AccessFeatures::default();
    for s in out.stmts() {
        let sd = out.stmt_decl(s);
        for a in &sd.write.idxs {
            for &(v, c) in a.terms() {
                if matches!(v, VarKey::Loop(_)) {
                    let mag = c.unsigned_abs().min(i64::MAX as u128) as i64;
                    f.max_write_stride = f.max_write_stride.max(mag);
                }
            }
        }

        let surrounding = out.loops_surrounding(s);
        let depth = surrounding.len() as u32;
        // locality is decided by the innermost loop that actually
        // iterates; single-trip loops are transparent
        let effective_inner = surrounding
            .iter()
            .rev()
            .find(|&&m| !single_trip(out, m))
            .copied();
        if let Some(inner) = effective_inner {
            let innermost = VarKey::Loop(inner);
            let weight = DEPTH_WEIGHT.saturating_pow(depth);
            let mut accesses: Vec<&[Aff]> = vec![&sd.write.idxs];
            let mut reads = Vec::new();
            sd.rhs.collect_reads(&mut reads);
            for r in &reads {
                accesses.push(&r.idxs);
            }
            for idxs in accesses {
                f.reuse_penalty = f
                    .reuse_penalty
                    .saturating_add(access_penalty(idxs, innermost).saturating_mul(weight));
                if access_tile_reuse(out, &surrounding, idxs) {
                    f.tile_reuse += 1;
                }
            }
        }
    }
    f
}

/// Compute the cost features of a generated variant.
///
/// `out` is the *generated* program (after guard simplification); the
/// remaining arguments describe the source program's dependence structure
/// and the transformation, exactly as they reached code generation.
pub fn cost_features(
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    ast: &NewAst,
    out: &Program,
    bounds_scanned: i64,
    loops_augmented: i64,
) -> CostFeatures {
    let deps_certain = deps.deps.iter().filter(|d| d.certain).count() as i64;
    let doall = inl_core::parallel::parallel_slots(layout, deps, ast, m);
    let first_loop_slot = layout
        .positions()
        .iter()
        .position(|pos| matches!(pos, Position::Loop(_)));
    let wavefront = match (doall.first(), first_loop_slot) {
        (Some(&s), Some(f)) => s > f,
        _ => false,
    };
    let access = access_features(out);
    CostFeatures {
        deps: deps.deps.len() as i64,
        deps_certain,
        stmts: out.stmts().count() as i64,
        bounds_scanned,
        loops_augmented,
        guards: out
            .stmts()
            .map(|s| out.stmt_decl(s).guards.len() as i64)
            .sum(),
        doall,
        wavefront,
        max_write_stride: access.max_write_stride,
        reuse_penalty: access.reuse_penalty,
        tile_reuse: access.tile_reuse,
    }
}

/// Kind counts of a dependence matrix, for explain details.
pub(crate) fn dep_kind_counts(deps: &DependenceMatrix) -> (i64, i64, i64) {
    let (mut flow, mut anti, mut output) = (0i64, 0i64, 0i64);
    for d in &deps.deps {
        match d.kind {
            DepKind::Flow => flow += 1,
            DepKind::Anti => anti += 1,
            DepKind::Output => output += 1,
        }
    }
    (flow, anti, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_core::depend::analyze;
    use inl_ir::zoo;

    #[test]
    fn identity_matmul_features() {
        // matmul C(i,j) += A(i,k)·B(k,j) under identity (i,j,k): C is
        // invariant in k (0), A walks its last subscript k unit-stride
        // (1), B's k sits in the first subscript (row jump, 64).
        let p = zoo::matmul();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = IMat::identity(layout.len());
        let r = crate::generate(&p, &layout, &deps, &m).expect("generates");
        let f = &r.features;
        assert_eq!(f.stmts, 1);
        let weight = DEPTH_WEIGHT.pow(3);
        // write C(i,j): 0 · two reads of C: 0 each · A(i,k): 1 · B(k,j): 64
        assert_eq!(f.reuse_penalty, (1 + ROW_JUMP_PENALTY) * weight);
        assert_eq!(f.max_write_stride, 1);
        assert_eq!(f.deps, deps.deps.len() as i64);
        // no loop is tile-confined in an unsplit program
        assert_eq!(f.tile_reuse, 0);
    }

    #[test]
    fn tile_reuse_counts_confined_slab_accesses() {
        use inl_ir::{Bound, Expr, ProgramBuilder};
        // hand-build the good tiled matmul order (Ko, I, K, J): K is
        // confined to [16·Ko, 16·Ko + 15] and B(k,j)'s slab is re-swept
        // by the invariant loop I inside Ko
        let mut b = ProgramBuilder::new("tiled_matmul");
        let n = b.param("N");
        let dims = [Aff::param(n) + Aff::konst(1), Aff::param(n) + Aff::konst(1)];
        let c = b.array("C", &dims);
        let a = b.array("A", &dims);
        let bb = b.array("B", &dims);
        b.hloop(
            "Ko",
            (Aff::konst(1) + Aff::konst(1 - 16)).exact_div(16),
            Aff::param(n).exact_div(16),
            |b| {
                let ko = b.loop_var("Ko");
                b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
                    b.loop_full(
                        "K",
                        Bound {
                            terms: vec![Aff::konst(1), Aff::var(ko) * 16],
                        },
                        Bound {
                            terms: vec![Aff::param(n), Aff::var(ko) * 16 + Aff::konst(15)],
                        },
                        1,
                        false,
                        |b| {
                            b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
                                let (i, j, k) = (b.loop_var("I"), b.loop_var("J"), b.loop_var("K"));
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
                        },
                    );
                });
            },
        );
        let p = b.finish();
        assert!(p.validate().is_ok(), "{:?}", p.validate());
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = IMat::identity(layout.len());
        let r = crate::generate(&p, &layout, &deps, &m).expect("generates");
        // only B(k,j) counts: K in a non-last subscript, confined by Ko,
        // and B is invariant in I (inside Ko); A(i,k) has K in the last
        // subscript, C(i,j) mentions no confined loop
        assert_eq!(r.features.tile_reuse, 1);
    }

    #[test]
    fn access_penalty_classes() {
        use inl_ir::ProgramBuilder;
        // build a tiny program just to obtain loop VarKeys
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n), Aff::param(n)]);
        b.hloop("I", Aff::konst(0), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt(
                "S",
                x,
                vec![Aff::var(i), Aff::var(i)],
                inl_ir::Expr::konst(0.0),
            );
        });
        let p = b.finish();
        let i = VarKey::Loop(p.loops().next().unwrap());
        let n0 = Aff::konst(0);
        let unit = Aff::var(i);
        let strided = Aff::var(i) * 3;
        assert_eq!(access_penalty(&[n0.clone(), n0.clone()], i), 0);
        assert_eq!(access_penalty(&[n0.clone(), unit.clone()], i), 1);
        assert_eq!(
            access_penalty(&[n0.clone(), strided.clone()], i),
            STRIDED_PENALTY
        );
        assert_eq!(access_penalty(&[unit.clone(), n0], i), ROW_JUMP_PENALTY);
        // worst class wins when both subscripts use the variable
        assert_eq!(access_penalty(&[unit.clone(), unit], i), ROW_JUMP_PENALTY);
    }
}
