//! Parallel loop discovery (§7 of the paper).
//!
//! "The linear framework allows us to look for good transformations
//! efficiently (for example, parallelizing a loop requires finding a row in
//! the nullspace of the dependence matrix)."
//!
//! Two notions:
//!
//! * **Outer parallelism** ([`parallel_rows`]): a row `r` with `r · d = 0`
//!   for *every* dependence can be made the outermost loop and run DOALL —
//!   every dependence stays within one of its iterations. This is the
//!   nullspace computation the paper describes.
//! * **Inner parallelism** ([`parallel_slots`]): under a transformation
//!   `M`, a loop slot is parallel when every dependence is either already
//!   carried (strictly positive) by an outer slot or zero at this slot.
//!   The classic wavefront — whose dependence matrix has a trivial
//!   nullspace, so *no* outer loop can be parallel — gets an inner parallel
//!   loop after skewing the outer loop by the inner.

use crate::depend::{DepEntry, Dependence, DependenceMatrix};
use crate::instance::{InstanceLayout, Position};
use crate::project::{common_positions, row_dot};
use inl_ir::StmtId;
use inl_linalg::{gauss, IMat, IVec, InlError, Int};

/// Integer basis of rows `r` with `r · d = 0` for every dependence `d`
/// (outer-parallel candidate directions).
///
/// Entries that are not exact distances (directions like `+`) cannot be
/// multiplied by a nonzero coefficient and still give a guaranteed zero, so
/// positions where any dependence is inexact are pinned to zero.
pub fn parallel_rows(
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
) -> Result<Vec<IVec>, InlError> {
    let n = layout.len();
    let mut constraint = IMat::zeros(0, 0);
    let mut inexact = vec![false; n];
    for d in deps.deps.iter() {
        let mut row = IVec::zeros(n);
        for (j, e) in d.entries.iter().enumerate() {
            match e.as_dist() {
                Some(c) => row[j] = c,
                None => inexact[j] = true,
            }
        }
        constraint.push_row(&row);
    }
    for (j, &bad) in inexact.iter().enumerate() {
        if bad {
            constraint.push_row(&IVec::unit(n, j));
        }
    }
    if constraint.nrows() == 0 {
        // no dependences at all: every loop position row qualifies
        let rows: Vec<IVec> = layout.loops().map(|(i, _)| IVec::unit(n, i)).collect();
        record_outer_rows(&rows, 0);
        return Ok(rows);
    }
    let rows: Vec<IVec> = gauss::nullspace_int(&constraint)?
        .into_iter()
        // a useful parallel row must touch at least one loop position
        .filter(|v| layout.loops().any(|(i, _)| v[i] != 0))
        .collect();
    record_outer_rows(&rows, deps.deps.len());
    Ok(rows)
}

/// Explain-record the outcome of the outer-DOALL nullspace search.
fn record_outer_rows(rows: &[IVec], ndeps: usize) {
    if !inl_obs::explain_enabled() {
        return;
    }
    if rows.is_empty() {
        inl_obs::explain::reject(
            "parallel",
            "outer DOALL search",
            format!(
                "the {ndeps}-dependence matrix has a trivial nullspace over the loop \
                 positions: no outer loop direction is dependence-free (wavefront candidate)"
            ),
        )
        .feature("deps", ndeps as i64)
        .feature("basis_rows", 0);
    } else {
        let basis: Vec<String> = rows.iter().map(crate::provenance::row_text).collect();
        inl_obs::explain::accept(
            "parallel",
            "outer DOALL search",
            format!(
                "{} nullspace direction(s) orthogonal to all {ndeps} dependences",
                rows.len()
            ),
        )
        .detail("basis", basis.join("; "))
        .feature("deps", ndeps as i64)
        .feature("basis_rows", rows.len() as i64);
    }
}

/// Where one dependence stands at a loop, given the loop's row and the rows
/// of the loops around it, outside-in.
enum AtLoop {
    /// Carried strictly positive by the `k`-th outer row.
    Carried(usize),
    /// Exactly zero at the loop.
    Zero,
    /// Maybe nonzero at the loop, and no outer row provably carries it.
    Blocks(DepEntry),
}

/// Walk `d` through the `outer` rows until one carries it strictly
/// positive, then read its entry at `row`. A row on which `d` is
/// non-negative lets the walk go on: the instances it is positive on are
/// carried there, the others are zero and meet the next row. An entry that
/// may be negative ends the walk: it cannot prove carrying.
fn at_loop<'r>(outer: impl IntoIterator<Item = &'r [Int]>, row: &[Int], d: &Dependence) -> AtLoop {
    for (k, r) in outer.into_iter().enumerate() {
        let e = row_dot(r, &d.entries);
        if e.is_positive() {
            return AtLoop::Carried(k);
        }
        if e.lo.is_none_or(|lo| lo < 0) {
            break;
        }
    }
    match row_dot(row, &d.entries) {
        e if e.is_zero() => AtLoop::Zero,
        e => AtLoop::Blocks(e),
    }
}

/// Is loop slot `q` DOALL under the legal transformation `m`? The verdict of
/// [`parallel_slots`] for one slot, without its explain records.
pub fn slot_is_parallel(
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    q: usize,
) -> bool {
    deps.deps.iter().all(|d| {
        let common = common_positions(layout, d);
        !common.contains(&q) || !matches!(slot_verdict(&common, m, q, d), AtLoop::Blocks(_))
    })
}

/// [`at_loop`] for slot `q`, the earlier common slots as the outer rows.
fn slot_verdict(common: &[usize], m: &IMat, q: usize, d: &Dependence) -> AtLoop {
    let outer = common
        .iter()
        .take_while(|&&r| r < q)
        .map(|&r| m.row_slice(r));
    at_loop(outer, m.row_slice(q), d)
}

/// Is an *augmented* loop of `stmt` (§5.4: an innermost loop code generation
/// adds around one statement whose schedule under `m` is singular) DOALL?
/// `rows` are the statement's augmented rows over the instance vector, the
/// outermost first and the loop's own last. Only `stmt`'s self-dependences
/// reach across the loop's trips; each must be carried strictly positive by
/// one of the statement's slots or an outer augmented row, or be exactly
/// zero on the loop's row.
pub fn augmented_loop_is_parallel(
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    stmt: StmtId,
    rows: &[IVec],
) -> bool {
    let Some((row, outer_aug)) = rows.split_last() else {
        return false;
    };
    deps.deps
        .iter()
        .filter(|d| d.src == stmt && d.dst == stmt)
        .all(|d| {
            let common = common_positions(layout, d);
            let outer = common
                .iter()
                .map(|&r| m.row_slice(r))
                .chain(outer_aug.iter().map(|r| r.as_slice()));
            !matches!(at_loop(outer, row.as_slice(), d), AtLoop::Blocks(_))
        })
}

/// The loop slots (vector positions) that can run in parallel under the
/// legal transformation `m`: slot `q` is parallel iff every dependence
/// whose source/target share `q` is either carried strictly positive by the
/// earlier common slots (non-negative on each until one is strictly
/// positive) or exactly zero at `q`.
///
/// Conservative: inconclusive intervals disqualify the slot.
pub fn parallel_slots(layout: &InstanceLayout, deps: &DependenceMatrix, m: &IMat) -> Vec<usize> {
    let explain = inl_obs::explain_enabled();
    let mut out = Vec::new();
    'slots: for (q, pos) in layout.positions().iter().enumerate() {
        if !matches!(pos, Position::Loop(_)) {
            continue;
        }
        let mut evidence: Vec<String> = Vec::new();
        for (di, d) in deps.deps.iter().enumerate() {
            let common = common_positions(layout, d);
            if !common.contains(&q) {
                continue;
            }
            match slot_verdict(&common, m, q, d) {
                AtLoop::Carried(k) => {
                    if explain {
                        evidence.push(format!(
                            "{} carried strictly positive at earlier slot {}",
                            crate::provenance::dep_label_short(di, d),
                            common[k]
                        ));
                    }
                }
                AtLoop::Blocks(e) => {
                    if explain {
                        inl_obs::explain::reject(
                            "parallel",
                            format!("new loop slot {q}"),
                            format!(
                                "{} has nonzero entry {e} at this slot and no earlier slot \
                                 provably carries it",
                                crate::provenance::dep_label_short(di, d),
                            ),
                        )
                        .detail("dep_row", crate::provenance::dep_row(d))
                        .feature("slot", q as i64)
                        .feature("deps", deps.deps.len() as i64);
                    }
                    continue 'slots;
                }
                AtLoop::Zero => {
                    if explain {
                        evidence.push(format!(
                            "{} is exactly zero at this slot",
                            crate::provenance::dep_label_short(di, d)
                        ));
                    }
                }
            }
        }
        if explain {
            let rec = inl_obs::explain::accept(
                "parallel",
                format!("new loop slot {q}"),
                "DOALL: every dependence sharing this slot is carried strictly \
                 positive earlier or exactly zero here",
            )
            .feature("slot", q as i64)
            .feature("deps", deps.deps.len() as i64);
            if !evidence.is_empty() {
                rec.detail("evidence", evidence.join("; "));
            }
        }
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::analyze;
    use crate::legal::check_legal;
    use crate::transform::Transform;
    use inl_ir::zoo;

    /// True iff `row · d = 0` for every dependence (using exact entries
    /// only): the oracle every row of [`parallel_rows`]' basis is checked
    /// against. Conservative: an inexact entry — or a dot product that
    /// overflows — disqualifies the row.
    fn is_parallel_row(deps: &DependenceMatrix, row: &IVec) -> bool {
        deps.deps.iter().all(|d| {
            let mut acc: inl_linalg::Int = 0;
            for (j, &c) in row.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                match d.entries[j]
                    .as_dist()
                    .and_then(|v| c.checked_mul(v))
                    .and_then(|t| acc.checked_add(t))
                {
                    Some(next) => acc = next,
                    None => return false,
                }
            }
            acc == 0
        })
    }

    #[test]
    fn wavefront_has_no_outer_parallelism() {
        // deps (1,0) and (0,1) span the whole space: the nullspace is
        // trivial, so no single loop direction is dependence-free. This is
        // exactly why the wavefront needs skewing.
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        assert!(parallel_rows(&layout, &deps).expect("rows").is_empty());
        assert!(!is_parallel_row(&deps, &IVec::from(vec![1, -1])));
        assert!(!is_parallel_row(&deps, &IVec::from(vec![1, 1])));
    }

    #[test]
    fn skewed_wavefront_inner_loop_is_parallel() {
        // after skewing the outer loop by the inner (outer' = i + j), both
        // unit dependences are carried at level 0 and the inner loop can
        // run DOALL — the classic wavefront schedule
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let loops: Vec<_> = p.loops().collect();
        let m = Transform::Skew {
            target: loops[0],
            source: loops[1],
            factor: 1,
        }
        .matrix(&p, &layout);
        let report = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert!(report.is_legal());
        let slots = parallel_slots(&layout, &deps, &m);
        assert_eq!(slots, vec![1], "inner slot parallel, outer not");
        // without the skew, nothing is parallel
        let id = IMat::identity(2);
        assert!(check_legal(&p, &layout, &deps, &id)
            .expect("legality")
            .is_legal());
        assert!(parallel_slots(&layout, &deps, &id).is_empty());
    }

    #[test]
    fn independent_statements_fully_parallel() {
        let p = zoo::independent_pair();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        assert!(deps.deps.is_empty());
        let rows = parallel_rows(&layout, &deps).expect("rows");
        assert!(!rows.is_empty(), "dependence-free loop has parallel rows");
        let id = IMat::identity(layout.len());
        assert!(check_legal(&p, &layout, &deps, &id)
            .expect("legality")
            .is_legal());
        let slots = parallel_slots(&layout, &deps, &id);
        assert_eq!(slots.len(), 1, "the single loop slot is parallel");
    }

    #[test]
    fn cholesky_outer_not_parallel() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i_unit = IVec::unit(layout.len(), 0);
        assert!(!is_parallel_row(&deps, &i_unit));
        // under the identity schedule, the inner J loop IS parallel (the
        // divisions of one pivot step are independent)
        let id = IMat::identity(layout.len());
        assert!(check_legal(&p, &layout, &deps, &id)
            .expect("legality")
            .is_legal());
        let slots = parallel_slots(&layout, &deps, &id);
        let jpos = 3;
        assert!(slots.contains(&jpos), "inner J loop parallel: {slots:?}");
        assert!(!slots.contains(&0), "outer I loop sequential");
    }

    #[test]
    fn carrying_walks_on_through_non_negative_outer_entries() {
        // rows 0 and 1 outside slot 2, where the dependence may take any
        // value (so only carrying can certify the slot). `[0,+∞)` then
        // `[1,+∞)`: the pairs positive on row 0 are carried there and the
        // rest, zero on row 0, on row 1 — the slot is DOALL (the walk used
        // to stop at row 0's non-zero entry). `[-1,+∞)` on row 0 proves
        // nothing: the slot stays blocked.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let n = layout.len();
        let (m, common): (IMat, Vec<usize>) = (IMat::identity(n), (0..n).collect());
        let any = DepEntry { lo: None, hi: None };
        let verdict = |row0: DepEntry| {
            let mut d = deps.deps[0].clone();
            d.entries = vec![DepEntry::dist(0); n];
            d.entries[..3].copy_from_slice(&[row0, DepEntry::plus(), any]);
            slot_verdict(&common, &m, 2, &d)
        };
        let from = |lo| DepEntry {
            lo: Some(lo),
            hi: None,
        };
        assert!(matches!(verdict(from(0)), AtLoop::Carried(1)));
        assert!(matches!(verdict(from(1)), AtLoop::Carried(0)));
        assert!(matches!(verdict(from(-1)), AtLoop::Blocks(e) if e == any));
        assert!(matches!(verdict(any), AtLoop::Blocks(_)));
    }

    #[test]
    fn parallel_rows_are_orthogonal_to_exact_deps() {
        for p in [zoo::augmentation_example(), zoo::independent_pair()] {
            let layout = InstanceLayout::new(&p);
            let deps = analyze(&p, &layout).expect("analysis");
            for r in parallel_rows(&layout, &deps).expect("rows") {
                assert!(
                    is_parallel_row(&deps, &r),
                    "{}: row {r} not parallel",
                    p.name()
                );
            }
        }
    }
}
