//! Per-statement transformations and augmentation (§5.4–5.5 of the paper).
//!
//! A legal matrix `M` induces, for every statement `S` nested in `k`
//! loops, a `k × k` **per-statement transformation** `M_S` (Definition 7)
//! mapping `S`'s iteration vector to the values of the new loops
//! surrounding it — plus an offset vector from the alignment constants.
//! `M_S` need not have full rank (the paper's skewing example maps every
//! instance of `S1` to iteration 0 of the new outer loop), in which case
//! the `Complete` procedure (Fig. 7) appends rows — extra *innermost* loops
//! around `S` — that carry the self-dependences `M` left unsatisfied, then
//! fills with nullspace rows up to rank `k`.
//!
//! From the augmented `T_S`, the **non-singular per-statement
//! transformation** `N_S` (Definition 8) keeps the rows that grow the rank;
//! the deleted *singular* rows are recorded together with the coefficients
//! expressing them over the kept rows (these become runtime guards,
//! `i_k = Σ m_j·i_j`, in generated code — Definition 9 / §5.5).

use crate::depend::{DepEntry, DependenceMatrix};
use crate::instance::InstanceLayout;
use crate::legal::LegalityReport;
use inl_ir::{Program, StmtId};
use inl_linalg::{gauss, IMat, IVec, InlError, InlErrorKind, Int, Rational};

/// The complete scheduling recipe for one statement under a legal matrix.
#[derive(Clone, Debug)]
pub struct StmtSchedule {
    /// The statement.
    pub stmt: StmtId,
    /// New-AST loop slot positions surrounding the statement, outside-in
    /// (ascending vector positions). Length `k`.
    pub slot_positions: Vec<usize>,
    /// `T'_S`: `l × k` full-rank-`k` row matrix; row `r` gives the value of
    /// the `r`-th loop around the statement in the transformed program as
    /// `rows[r] · i + offsets[r]`. The first `k` rows correspond to
    /// `slot_positions`; the last `n_aug` rows are the augmentation loops
    /// (innermost, synthesized around the statement).
    pub rows: IMat,
    /// Constant offsets per row (alignment constants; augmented rows get 0).
    pub offsets: IVec,
    /// Number of augmented rows.
    pub n_aug: usize,
    /// For each row: `None` if the row is part of `N_S`; otherwise the
    /// coefficients expressing it over the *previous* `N_S` rows
    /// (ordered as in `n_s_rows`), which codegen turns into an equality
    /// guard.
    pub singular: Vec<Option<Vec<Rational>>>,
    /// Row indices (into `rows`) forming `N_S`, in order.
    pub n_s_rows: Vec<usize>,
    /// `N_S`: the `k × k` non-singular per-statement transformation.
    pub n_s: IMat,
}

/// Compute `M_S` and `g_S` (the projection of `M·E_S` / `M·f_S` onto the
/// statement's new loop slots), before augmentation: only those `k` rows
/// of the products are formed.
///
/// # Panics
/// If an entry of those rows overflows (as `IMat::mul` does).
pub fn raw_per_stmt(layout: &InstanceLayout, m: &IMat, s: StmtId) -> (Vec<usize>, IMat, IVec) {
    let (e, f) = layout.embedding(s);
    // Slots are pinned: the new loops surrounding s are the same loop slots
    // as in the source layout, in ascending position order.
    let slots = {
        let mut v = layout.stmt_loop_positions(s);
        v.sort_unstable();
        v
    };
    // row `p` of `M` times the column `col`, summed in `IMat::mul`'s order
    let dot = |p: usize, col: &dyn Fn(usize) -> Int| {
        let mut terms = m.row_slice(p).iter().enumerate();
        terms
            .try_fold(0 as Int, |acc, (j, &a)| {
                acc.checked_add(a.checked_mul(col(j))?)
            })
            .expect("M_S overflow: completed rows have small entries")
    };
    let k = slots.len();
    let ms = IMat::from_fn(k, k, |r, c| dot(slots[r], &|j| e[(j, c)]));
    let gs: IVec = slots.iter().map(|&p| dot(p, &|j| f[j])).collect();
    (slots, ms, gs)
}

/// Project a dependence's entries onto the statement's iteration dimensions
/// (outside-in). Only meaningful for self-dependences.
fn project_self_dep(
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    dep_idx: usize,
) -> Vec<DepEntry> {
    let d = &deps.deps[dep_idx];
    debug_assert_eq!(d.src, d.dst);
    layout
        .stmt_loop_positions(d.src)
        .iter()
        .map(|&p| d.entries[p])
        .collect()
}

/// An unsatisfied self-dependence whose leading entry is ambiguous: the
/// `Complete` procedure's unit rows cannot be proven to carry it.
#[track_caller]
fn ambiguous(dep: usize) -> InlError {
    InlError::new(
        InlErrorKind::Unsupported,
        format!("self-dependence {dep} has an ambiguous leading entry"),
    )
}

/// Build the full schedule for a statement: per-statement transform,
/// `Complete` augmentation (Fig. 7), and `N_S` extraction.
pub fn schedule_stmt(
    layout: &InstanceLayout,
    m: &IMat,
    deps: &DependenceMatrix,
    report: &LegalityReport,
    s: StmtId,
) -> Result<StmtSchedule, InlError> {
    let (slots, ms, gs) = raw_per_stmt(layout, m, s);
    let k = slots.len();

    // unsatisfied self deps of this statement, projected
    let mut pending: Vec<(usize, Vec<DepEntry>)> = report
        .unsatisfied_self
        .iter()
        .filter(|&&i| deps.deps[i].src == s)
        .map(|&i| (i, project_self_dep(layout, deps, i)))
        .collect();

    let mut rows = ms.clone();
    let mut offsets = gs.clone();
    let mut n_aug = 0usize;

    // --- Procedure Complete (Fig. 7) ---
    let mut rank = gauss::checked_rank(&rows)?;
    while rank < k && !pending.is_empty() {
        // Height: first dimension at which some pending vector is nonzero.
        // All-zero pending vectors cannot be carried by any unit row; the
        // ambiguity error (rather than a panic) lets callers recover.
        let Some(h) = (0..k).find(|&dim| pending.iter().any(|(_, v)| !v[dim].is_zero())) else {
            return Err(ambiguous(pending[0].0));
        };
        // Every pending vector with height h must have a provably positive
        // entry there (self-dependences are lexicographically positive).
        for (idx, v) in &pending {
            let height = (0..k).find(|&dim| !v[dim].is_zero());
            if height == Some(h) && !v[h].is_positive() {
                return Err(ambiguous(*idx));
            }
        }
        rows.push_row(&IVec::unit(k, h));
        offsets = offsets.concat(&IVec::zeros(1));
        n_aug += 1;
        pending.retain(|(_, v)| (0..k).find(|&dim| !v[dim].is_zero()) != Some(h));
        rank = gauss::checked_rank(&rows)?;
    }
    // Fill to rank k with nullspace rows (line 15 of Fig. 7).
    if rank < k {
        for v in gauss::nullspace_int(&rows)? {
            if gauss::checked_rank(&rows)? == k {
                break;
            }
            rows.push_row(&v);
            offsets = offsets.concat(&IVec::zeros(1));
            n_aug += 1;
        }
        rank = gauss::checked_rank(&rows)?;
    }
    if rank != k {
        return Err(InlError::new(
            InlErrorKind::RankDeficient,
            format!("augmentation did not reach rank {k}"),
        ));
    }

    // --- N_S extraction (Definition 8) ---
    let mut n_s_rows = Vec::with_capacity(k);
    let mut kept: Vec<IVec> = Vec::with_capacity(k);
    let mut singular = Vec::with_capacity(rows.nrows());
    for r in 0..rows.nrows() {
        let row = rows.row(r);
        match gauss::express_in_row_space(&kept, &row)? {
            Some(coeffs) => singular.push(Some(coeffs)),
            None => {
                kept.push(row);
                n_s_rows.push(r);
                singular.push(None);
            }
        }
    }
    let n_s = IMat::from_rows(
        &kept
            .iter()
            .map(|v| v.as_slice().to_vec())
            .collect::<Vec<_>>(),
    );
    debug_assert_eq!(n_s.nrows(), k);
    debug_assert!(n_s.checked_det().map(|d| d != 0).unwrap_or(true));

    Ok(StmtSchedule {
        stmt: s,
        slot_positions: slots,
        rows,
        offsets,
        n_aug,
        singular,
        n_s_rows,
        n_s,
    })
}

/// Schedules for every statement of the program.
pub fn schedule_all(
    p: &Program,
    layout: &InstanceLayout,
    m: &IMat,
    deps: &DependenceMatrix,
    report: &LegalityReport,
) -> Result<Vec<StmtSchedule>, InlError> {
    p.stmts()
        .map(|s| schedule_stmt(layout, m, deps, report, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::analyze;
    use crate::legal::check_legal;
    use crate::transform::Transform;
    use inl_ir::{zoo, LoopId};

    fn looop(p: &Program, name: &str) -> LoopId {
        p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
    }
    fn stmt(p: &Program, name: &str) -> StmtId {
        p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
    }

    /// The paper's §5.4 example: skew I by -J.
    fn skew_setup() -> (
        Program,
        InstanceLayout,
        DependenceMatrix,
        IMat,
        LegalityReport,
    ) {
        let p = zoo::augmentation_example();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = Transform::Skew {
            target: looop(&p, "I"),
            source: looop(&p, "J"),
            factor: -1,
        }
        .matrix(&p, &layout);
        let report = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert!(report.is_legal());
        (p, layout, deps, m, report)
    }

    #[test]
    fn paper_per_stmt_transforms() {
        // §5.4: M_S1 = [0], M_S2 = [[1, -1], [0, 1]]
        let (p, layout, _, m, _) = skew_setup();
        let s1 = stmt(&p, "S1");
        let s2 = stmt(&p, "S2");
        let (_, ms1, g1) = raw_per_stmt(&layout, &m, s1);
        assert_eq!(ms1, IMat::from_rows(&[&[0][..]]));
        assert!(g1.is_zero());
        let (_, ms2, g2) = raw_per_stmt(&layout, &m, s2);
        assert_eq!(ms2, IMat::from_rows(&[&[1, -1][..], &[0, 1]]));
        assert!(g2.is_zero());
    }

    #[test]
    fn paper_augmentation_of_s1() {
        // §5.4: the augmentation completes S1's [0] to [[0], [1]] — a new
        // innermost loop carrying its self dependence — with N_S1 = [1].
        let (p, layout, deps, m, report) = skew_setup();
        let s1 = stmt(&p, "S1");
        let sched = schedule_stmt(&layout, &m, &deps, &report, s1).unwrap();
        assert_eq!(sched.n_aug, 1);
        assert_eq!(sched.rows, IMat::from_rows(&[&[0][..], &[1]]));
        assert_eq!(sched.n_s, IMat::from_rows(&[&[1][..]]));
        assert_eq!(sched.n_s_rows, vec![1]);
        // row 0 is singular: 0 = (empty combination)
        assert_eq!(sched.singular[0], Some(vec![]));
        assert_eq!(sched.singular[1], None);
    }

    #[test]
    fn s2_needs_no_augmentation() {
        // §5.4: N_S2 = [[1, -1], [0, 1]] directly.
        let (p, layout, deps, m, report) = skew_setup();
        let s2 = stmt(&p, "S2");
        let sched = schedule_stmt(&layout, &m, &deps, &report, s2).unwrap();
        assert_eq!(sched.n_aug, 0);
        assert_eq!(sched.n_s, IMat::from_rows(&[&[1, -1][..], &[0, 1]]));
        assert!(sched.singular.iter().all(|s| s.is_none()));
    }

    #[test]
    fn left_looking_cholesky_all_nonsingular() {
        // §6: "the per-statement transformation in this case is
        // non-singular for each statement and no augmentation is
        // necessary"
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let c = IMat::from_rows(&[
            &[0, 0, 0, 0, 0, 1, 0][..],
            &[0, 0, 1, 0, 0, 0, 0],
            &[0, 0, 0, 1, 0, 0, 0],
            &[0, 1, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 0, 0],
            &[1, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 1],
        ]);
        let report = check_legal(&p, &layout, &deps, &c).expect("legality");
        assert!(report.is_legal());
        for s in p.stmts() {
            let sched = schedule_stmt(&layout, &c, &deps, &report, s).unwrap();
            assert_eq!(
                sched.n_aug,
                0,
                "{} needed augmentation",
                p.stmt_decl(s).name
            );
            assert!(sched.singular.iter().all(|x| x.is_none()));
            assert!(sched.n_s.is_unimodular());
        }
        // and the per-statement map of S3 is the left-looking permutation
        // (k, j, l) -> (l, j, k)
        let s3 = stmt(&p, "S3");
        let sched = schedule_stmt(&layout, &c, &deps, &report, s3).unwrap();
        assert_eq!(
            sched.rows,
            IMat::from_rows(&[&[0, 0, 1][..], &[0, 1, 0], &[1, 0, 0]])
        );
    }

    #[test]
    fn identity_schedules_are_identity() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = IMat::identity(layout.len());
        let report = check_legal(&p, &layout, &deps, &m).expect("legality");
        for s in p.stmts() {
            let sched = schedule_stmt(&layout, &m, &deps, &report, s).unwrap();
            let k = sched.slot_positions.len();
            assert_eq!(sched.rows, IMat::identity(k));
            assert!(sched.offsets.is_zero());
            assert_eq!(sched.n_aug, 0);
        }
    }

    #[test]
    fn alignment_offsets_propagate() {
        // align S1 by -1 w.r.t. I (run the sqrt one iteration early —
        // legality aside, offsets must land in g_S)
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let s1 = stmt(&p, "S1");
        let i = looop(&p, "I");
        let m = Transform::Align {
            stmt: s1,
            looop: i,
            offset: -1,
        }
        .matrix(&p, &layout);
        let (_, ms1, g1) = raw_per_stmt(&layout, &m, s1);
        assert_eq!(ms1, IMat::from_rows(&[&[1][..]]));
        assert_eq!(g1.as_slice(), &[-1]);
        // S2 unaffected
        let s2 = stmt(&p, "S2");
        let (_, _, g2) = raw_per_stmt(&layout, &m, s2);
        assert!(g2.is_zero());
    }
}
