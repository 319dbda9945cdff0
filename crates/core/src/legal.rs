//! Legality of transformation matrices (§5.1–5.3 of the paper).
//!
//! A square matrix `M` is a legal transformation (Definition 6) iff
//!
//! 1. it has the **block structure** of Fig. 5, from which the transformed
//!    AST can be recovered (Fig. 6's `NewAST`): for every node, the edge
//!    rows form a permutation of that node's edge columns (giving the new
//!    child order), and subtree blocks only map to their own new location;
//! 2. for every dependence `d` from `S1` to `S2`, the projection `P` of
//!    `M·d` onto the loops common to `S1` and `S2` is lexicographically
//!    positive, or zero with `S1 ⪯ₛ S2` in the new AST.
//!
//! `P = 0` with `S1 = S2` is allowed — the dependence is *unsatisfied* and
//! must be carried by the extra loops the augmentation step adds (§5.4).
//!
//! The dependence test walks each dependence through the rows of `M` on
//! the projection stepper (`project.rs`) that the completion procedure
//! also uses: interval arithmetic over the distance/direction entries
//! (fast, conservative), falling back to exact feasibility queries on the
//! retained dependence polyhedra when the intervals are inconclusive.
//!
//! [`check_legal`] decides a matrix made elsewhere: a [`crate::transform`]
//! composition, code generation's input, a split. A completion never
//! comes here: its matrix was built on the walk, so its report is read off
//! the walk's states (`complete.rs`), and of the block structure only
//! non-singularity needs checking (`nonsingular`, shared with
//! [`recover_ast`]).
//!
//! Distribution and jamming (§4.2) are decided by the same walk
//! ([`check_structural`]). Their matrices are non-square and there is no
//! AST to recover: the step's surgery built the target program, and
//! condition 2 reads the common loops and the order `⪯ₛ` in that target.

use crate::depend::{Dependence, DependenceMatrix};
use crate::instance::{InstanceLayout, Position};
use crate::project::{common_positions, row_dot, DepState, RowEffect};
use crate::structural::StructuralResult;
use inl_ir::{LoopId, Program};
use inl_linalg::{IMat, InlError};
use std::collections::HashMap;
use std::sync::Arc;

/// The recovered transformed AST (Fig. 6): the source program with each
/// node's children permuted. Every slot keeps its position, so a loop sits
/// at the same vector position in both programs.
#[derive(Clone, Debug)]
pub struct NewAst {
    /// Structurally transformed program (bounds/bodies still the source
    /// ones — code generation rewrites them; syntactic order is already
    /// the new one).
    pub program: Program,
    /// Its layout.
    pub layout: InstanceLayout,
    /// Child permutation per node (`None` key = virtual root): old child
    /// index → new child index. Identity permutations included.
    pub child_perms: HashMap<Option<LoopId>, Vec<usize>>,
}

/// The nodes a transformation can reorder the children of: the virtual
/// root and every loop `layout` embeds (a loop detached by surgery, e.g.
/// after jamming, has no layout slots and no children in the tree).
pub(crate) fn tree_nodes<'a>(
    p: &'a Program,
    layout: &'a InstanceLayout,
) -> impl Iterator<Item = Option<LoopId>> + 'a {
    let embedded = |l: &LoopId| layout.positions().contains(&Position::Loop(*l));
    std::iter::once(None).chain(p.loops().filter(embedded).map(Some))
}

impl NewAst {
    /// `p` with each node's children permuted by `child_perms`, which names
    /// every node of [`tree_nodes`], laid out on `layout`'s positions.
    pub(crate) fn rebuild(
        p: &Program,
        layout: &InstanceLayout,
        child_perms: HashMap<Option<LoopId>, Vec<usize>>,
    ) -> NewAst {
        let _span = inl_obs::span("legal.recover_ast");
        // node identities are stable under reordering
        let mut program = p.clone();
        for (node, perm) in &child_perms {
            if perm.iter().enumerate().any(|(i, &x)| i != x) {
                program = program.reorder_children(*node, perm);
            }
        }
        // pinned-slot layout: same position vector, interpreted against
        // the reordered program
        let layout = InstanceLayout::with_positions(&program, layout.positions().to_vec());
        NewAst {
            program,
            layout,
            child_perms,
        }
    }
}

/// Why a dependence is violated.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Index into `deps.deps`.
    pub dep: usize,
    /// Human-readable description.
    pub reason: String,
}

/// Result of [`check_legal`].
#[derive(Clone, Debug)]
pub struct LegalityReport {
    /// The recovered AST, or the block-structure error. Shared: the leaves
    /// of one search that order children alike hold one AST.
    pub new_ast: Result<Arc<NewAst>, String>,
    /// Violated dependences.
    pub violations: Vec<Violation>,
    /// Indices of self-dependences left unsatisfied (`P = 0`, `S1 = S2`);
    /// the augmentation procedure must carry these.
    pub unsatisfied_self: Vec<usize>,
}

impl LegalityReport {
    /// True iff the matrix is a legal transformation.
    pub fn is_legal(&self) -> bool {
        self.new_ast.is_ok() && self.violations.is_empty()
    }
}

/// Recover the transformed AST from the block structure of `m`
/// (Fig. 6's `NewAST`). Fails with a description if `m` lacks the
/// structure.
///
/// The convention (read off the paper's §6 worked example) is that
/// statement reordering permutes only a node's **edge positions**; subtree
/// slots stay pinned. So the check is: for every node with ≥ 2 children,
/// the rows at that node's edge positions must be unit selectors of that
/// same node's edge columns, jointly forming a permutation — which *is*
/// the new child order. Loop rows are unconstrained here (they are vetted
/// by the dependence test and the per-statement rank machinery).
pub fn recover_ast(p: &Program, layout: &InstanceLayout, m: &IMat) -> Result<NewAst, String> {
    Ok(NewAst::rebuild(p, layout, child_perms(p, layout, m)?))
}

/// The child permutation of every node of [`tree_nodes`] that the edge
/// rows of `m` spell, once `m` is square, non-singular and of the block
/// structure: what [`recover_ast`] reads before it rebuilds the program.
fn child_perms(
    p: &Program,
    layout: &InstanceLayout,
    m: &IMat,
) -> Result<HashMap<Option<LoopId>, Vec<usize>>, String> {
    let n = layout.len();
    if m.nrows() != n || m.ncols() != n {
        return Err(format!(
            "matrix is {}×{}, expected {n}×{n}",
            m.nrows(),
            m.ncols()
        ));
    }
    nonsingular(m)?;
    let mut perms: HashMap<Option<LoopId>, Vec<usize>> = HashMap::new();
    for node in tree_nodes(p, layout) {
        let c = p.children(node).len();
        let name = match node {
            None => "<root>".to_string(),
            Some(l) => p.loop_decl(l).name.clone(),
        };
        let mut perm: Vec<usize> = (0..c).collect();
        if c >= 2 {
            let edge_pos: Vec<usize> = (0..c)
                .map(|j| {
                    layout
                        .edge_position(node, j)
                        .ok_or_else(|| format!("node {name} missing edge positions"))
                })
                .collect::<Result<_, _>>()?;
            let edge_set: std::collections::HashSet<usize> = edge_pos.iter().copied().collect();
            for j_row in 0..c {
                let row = edge_pos[j_row];
                let mut hit = None;
                for (col, &v) in m.row_slice(row).iter().enumerate() {
                    match v {
                        0 => {}
                        1 if edge_set.contains(&col) && hit.is_none() => hit = Some(col),
                        _ => {
                            return Err(format!(
                                "edge row {row} of node {name} is not a unit edge selector"
                            ));
                        }
                    }
                }
                let Some(colpos) = hit else {
                    return Err(format!("edge row {row} of node {name} selects no edge"));
                };
                let j_col = edge_pos.iter().position(|&e| e == colpos).unwrap();
                // new vector's slot for child j_row gets old child j_col's
                // edge: old child j_col becomes new child j_row
                perm[j_col] = j_row;
            }
            let mut seen = vec![false; c];
            for &i in &perm {
                if seen[i] {
                    return Err(format!(
                        "edge rows of node {name} do not form a permutation"
                    ));
                }
                seen[i] = true;
            }
            // edge columns must not be written with ±1-breaking values by
            // OTHER edge rows — already ensured; loop rows may read edge
            // columns (alignment), which is fine.
        }
        perms.insert(node, perm);
    }
    Ok(perms)
}

/// The one non-singularity check of a transformation matrix, and its
/// messages: [`recover_ast`] makes it, and so does a completion whose rows
/// are not a signed permutation.
pub(crate) fn nonsingular(m: &IMat) -> Result<(), String> {
    match m.checked_det() {
        Ok(0) => Err("matrix is singular".to_string()),
        Ok(_) => Ok(()),
        Err(_) => Err("determinant computation overflows".to_string()),
    }
}

/// Outcome of one dependence under the transformation.
enum DepStatus {
    Satisfied,
    UnsatisfiedSelf,
    Violated(String),
}

/// Check legality of `m` (Definition 6).
///
/// Errors only when the exact polyhedral fallback overflows `i128`; the
/// interval fast path degrades conservatively instead.
pub fn check_legal(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
) -> Result<LegalityReport, InlError> {
    let _span = inl_obs::span("legal.check");
    let new_ast = recover_ast(p, layout, m).map(Arc::new);
    let walked = match &new_ast {
        Ok(ast) => walk(p, layout, deps, m, &ast.program, &ast.layout)?,
        Err(_) => Walked::default(),
    };
    walked.count();
    let report = LegalityReport {
        new_ast,
        violations: walked.violations,
        unsatisfied_self: walked.unsatisfied_self,
    };
    if inl_obs::explain_enabled() {
        match &report.new_ast {
            Err(e) => {
                let subject = format!("transformation {}", crate::provenance::matrix_text(m));
                let why = format!("no Fig. 5 block structure: {e}");
                inl_obs::explain::reject("legal", subject, why)
                    .feature("deps", deps.deps.len() as i64);
            }
            Ok(_) => record_legal(p, deps, m, &report),
        }
    }
    Ok(report)
}

/// The `legal` record of [`check_legal`] for `report`, which holds the
/// recovered AST of `m`. Only called with the explain layer enabled.
pub(crate) fn record_legal(
    p: &Program,
    deps: &DependenceMatrix,
    m: &IMat,
    report: &LegalityReport,
) {
    let Ok(ast) = &report.new_ast else {
        return;
    };
    let subject = format!("transformation {}", crate::provenance::matrix_text(m));
    let verdicts = (&report.violations[..], &report.unsatisfied_self[..]);
    record_verdict("legal", subject, p, deps, m, &ast.layout, verdicts);
}

/// Panic unless `report`, which a walk of the rows of `m` read off its
/// carried states without checking `m`, is what [`check_legal`] finds for
/// `m`: the same child permutations, no violation and the same
/// self-dependences left to augmentation. Opens no span and counts and
/// records nothing, so a debug build traces what a release build does.
#[cfg(debug_assertions)]
pub(crate) fn assert_walk_agrees(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    report: &LegalityReport,
) {
    let ast = report.new_ast.as_ref().expect("a walk recovers its AST");
    let perms = child_perms(p, layout, m).expect("a walk's matrix has the block structure");
    assert_eq!(perms, ast.child_perms, "child permutations of {m:?}");
    let walked = walk(p, layout, deps, m, &ast.program, &ast.layout).expect("legality");
    let violations = (&report.violations, &walked.violations);
    assert!(
        violations.0.is_empty() && violations.1.is_empty(),
        "{m:?}: {violations:?}"
    );
    assert_eq!(walked.unsatisfied_self, report.unsatisfied_self, "{m:?}");
}

/// Definition 6 for the structural step (§4.2) that made `r` of `p`: the
/// walk of [`check_legal`] over the rows of the step's non-square matrix,
/// at the loops each dependence's statements share in the target program,
/// with the target's syntactic order deciding where every such row can be
/// zero. The verdict is recorded under the `structural` stage, naming the
/// step `step` (a label prefix such as `dist(I@1)`).
pub fn check_structural(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    r: &StructuralResult,
    step: &str,
) -> Result<bool, InlError> {
    let (m, target) = (&r.matrix, &r.target_layout);
    let walked = walk(p, layout, deps, m, &r.target, target)?;
    walked.count();
    if inl_obs::explain_enabled() {
        let subject = format!("shape {step} of {}", p.name());
        let verdicts = (&walked.violations[..], &walked.unsatisfied_self[..]);
        record_verdict("structural", subject, p, deps, m, target, verdicts);
    }
    Ok(walked.violations.is_empty())
}

/// Feed the decision-provenance layer: one record per verdict, under
/// `stage`, carrying the violating dependence row (Def. 6 failure) or the
/// proving projections `M·d` on success. `target` lays out the program `m`
/// maps `p` onto. Only called with the explain layer enabled.
fn record_verdict(
    stage: &'static str,
    subject: String,
    p: &Program,
    deps: &DependenceMatrix,
    m: &IMat,
    target: &InstanceLayout,
    (violations, unsatisfied_self): (&[Violation], &[usize]),
) {
    use crate::provenance::{dep_label, dep_row};
    let projected = |d: &Dependence| -> String {
        let proj: Vec<String> = common_positions(target, d)
            .iter()
            .map(|&row| row_dot(m.row_slice(row), &d.entries).to_string())
            .collect();
        format!("[{}]", proj.join(" "))
    };
    if let Some(v) = violations.first() {
        let d = &deps.deps[v.dep];
        let mut rec = inl_obs::explain::reject(
            stage,
            subject,
            format!("{}: {}", dep_label(p, v.dep, d), v.reason),
        )
        .detail("dep_row", dep_row(d))
        .detail("projected_row", projected(d))
        .feature("deps", deps.deps.len() as i64)
        .feature("violations", violations.len() as i64);
        if violations.len() > 1 {
            let others: Vec<String> = violations[1..]
                .iter()
                .map(|v| {
                    format!(
                        "{}: {} (row {})",
                        dep_label(p, v.dep, &deps.deps[v.dep]),
                        v.reason,
                        dep_row(&deps.deps[v.dep])
                    )
                })
                .collect();
            rec = rec.detail("other_violations", others.join("; "));
        }
        drop(rec);
        return;
    }
    let proof: Vec<String> = deps
        .deps
        .iter()
        .enumerate()
        .map(|(idx, d)| {
            let tag = if unsatisfied_self.contains(&idx) {
                " (self, left to augmentation)"
            } else {
                ""
            };
            format!(
                "{}: row {} projects to {}{}",
                dep_label(p, idx, d),
                dep_row(d),
                projected(d),
                tag
            )
        })
        .collect();
    inl_obs::explain::accept(
        stage,
        subject,
        format!(
            "all {} dependences lexicographically satisfied, {} self-dependences to augmentation",
            deps.deps.len(),
            unsatisfied_self.len()
        ),
    )
    .detail("proof", proof.join("; "))
    .feature("deps", deps.deps.len() as i64)
    .feature("unsatisfied_self", unsatisfied_self.len() as i64);
}

/// What [`walk`] found.
#[derive(Default)]
struct Walked {
    violations: Vec<Violation>,
    /// The self-dependences left to augmentation.
    unsatisfied_self: Vec<usize>,
    /// Dependences walked, and those whose walk needed the polyhedron.
    deps: usize,
    exact: usize,
}

impl Walked {
    /// Count the walk: `legal.exact_fallbacks` for the dependences that
    /// needed the polyhedron, `legal.fast_path_hits` for the rest.
    fn count(&self) {
        let fast = self.deps - self.exact;
        if self.exact > 0 {
            inl_obs::counter_add!("legal.exact_fallbacks", self.exact);
        }
        if fast > 0 {
            inl_obs::counter_add!("legal.fast_path_hits", fast);
        }
    }
}

/// Definition 6's dependence test, the one walk behind [`check_legal`] and
/// [`check_structural`]: every dependence of `p` through the rows of `m` at
/// the loops its source and target share in `target` (laid out by
/// `target_layout`), outside-in, on the shared projection stepper.
fn walk(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    target: &Program,
    target_layout: &InstanceLayout,
) -> Result<Walked, InlError> {
    let mut walked = Walked::default();
    for (idx, d) in deps.deps.iter().enumerate() {
        let st = DepState::new(idx, d, common_positions(target_layout, d));
        let (status, exact) = check_dep(layout, p.nparams(), m, st, target)?;
        walked.deps += 1;
        walked.exact += usize::from(exact);
        match status {
            DepStatus::Satisfied => {}
            DepStatus::UnsatisfiedSelf => walked.unsatisfied_self.push(idx),
            DepStatus::Violated(reason) => walked.violations.push(Violation { dep: idx, reason }),
        }
    }
    Ok(walked)
}

/// Walk one dependence through the rows of `m` at its common loops; the
/// verdict, and whether a row needed the polyhedron.
fn check_dep(
    layout: &InstanceLayout,
    nparams: usize,
    m: &IMat,
    mut st: DepState<'_>,
    target: &Program,
) -> Result<(DepStatus, bool), InlError> {
    // once a row has needed the polyhedron, a violation is reported as an
    // instance of it rather than as an interval
    let mut exact = false;
    let mut status = None;
    for k in 0..st.common.len() {
        let step = st.step(layout, nparams, m.row_slice(st.common[k]))?;
        exact |= step.exact;
        status = match step.effect {
            RowEffect::Satisfies => Some(DepStatus::Satisfied),
            RowEffect::Invalid => Some(DepStatus::Violated(if exact {
                format!("dependence instance with negative projected entry {k} exists")
            } else {
                format!("projected entry {k} is negative ({})", step.value)
            })),
            stays_active => {
                st.commit(stays_active);
                None
            }
        };
        if status.is_some() {
            break;
        }
    }
    // every common row can be zero at once: the target's syntactic order
    // decides
    Ok((status.unwrap_or_else(|| zero_case(target, st.dep)), exact))
}

fn zero_case(target: &Program, d: &Dependence) -> DepStatus {
    if d.src == d.dst {
        DepStatus::UnsatisfiedSelf
    } else if target.syntactically_before(d.src, d.dst) {
        DepStatus::Satisfied
    } else {
        DepStatus::Violated(
            "projection is zero but statements are reordered against the dependence".to_string(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::{check_prefix, PrefixCheck};
    use crate::depend::analyze;
    use crate::transform::Transform;
    use inl_ir::{zoo, StmtId};
    use inl_linalg::IVec;

    /// Group a report's unsatisfied self-dependences by statement.
    fn unsatisfied_by_stmt(
        deps: &DependenceMatrix,
        report: &LegalityReport,
    ) -> HashMap<StmtId, Vec<usize>> {
        let mut map: HashMap<StmtId, Vec<usize>> = HashMap::new();
        for &idx in &report.unsatisfied_self {
            map.entry(deps.deps[idx].src).or_default().push(idx);
        }
        map
    }

    fn looop(p: &Program, name: &str) -> LoopId {
        p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
    }
    fn stmt(p: &Program, name: &str) -> StmtId {
        p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
    }

    #[test]
    fn identity_is_legal() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = IMat::identity(layout.len());
        let r = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert!(r.is_legal(), "{:?}", r.violations);
        assert!(r.unsatisfied_self.is_empty());
    }

    #[test]
    fn cholesky_interchange_needs_statement_reorder() {
        // A naked I↔J interchange of the simplified Cholesky is ILLEGAL:
        // at new outer value v, S1@v (the sqrt) would run before
        // S2@(i, v), but S2@(i, v) writes the A(v) that S1@v consumes.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = looop(&p, "I");
        let j = looop(&p, "J");
        let inter = Transform::Interchange(i, j).matrix(&p, &layout);
        let r = check_legal(&p, &layout, &deps, &inter).expect("legality");
        assert!(!r.is_legal(), "naked interchange must be illegal");
        // Interchange combined with moving the J loop before S1 (the
        // left-looking form: all updates of column v, then its sqrt) is
        // legal — this is §6's point that loop permutation of matrix
        // factorizations needs the full framework.
        let m = Transform::compose(
            &p,
            &layout,
            &[
                Transform::ReorderChildren {
                    parent: Some(i),
                    perm: vec![1, 0],
                },
                Transform::Interchange(i, j),
            ],
        )
        .unwrap();
        let r2 = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert!(r2.is_legal(), "{:?}", r2.violations);
        // and the recovered AST puts S2's loop first
        let ast = r2.new_ast.unwrap();
        let order = ast.program.stmts_in_syntactic_order();
        assert_eq!(ast.program.stmt_decl(order[0]).name, "S2");
    }

    #[test]
    fn reversal_of_carried_loop_is_illegal() {
        // reversing the I loop of the simplified Cholesky reverses the
        // flow dependence from S1 to S2 in later iterations
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = Transform::Reverse(looop(&p, "I")).matrix(&p, &layout);
        let r = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert!(!r.is_legal());
    }

    #[test]
    fn wavefront_interchange_legal_reversal_illegal() {
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = looop(&p, "I");
        let j = looop(&p, "J");
        let inter = Transform::Interchange(i, j).matrix(&p, &layout);
        assert!(check_legal(&p, &layout, &deps, &inter)
            .expect("legality")
            .is_legal());
        let rev = Transform::Reverse(i).matrix(&p, &layout);
        assert!(!check_legal(&p, &layout, &deps, &rev)
            .expect("legality")
            .is_legal());
        // skewing J by I keeps all dependences lexicographically positive
        let skew = Transform::Skew {
            target: j,
            source: i,
            factor: 1,
        }
        .matrix(&p, &layout);
        assert!(check_legal(&p, &layout, &deps, &skew)
            .expect("legality")
            .is_legal());
    }

    #[test]
    fn paper_skew_example_legal_with_unsatisfied_self_dep() {
        // §5.4: M = skew of I by -J on the augmentation example is legal,
        // and S1's self dependence is left unsatisfied (to be carried by
        // the added loop).
        let p = zoo::augmentation_example();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = Transform::Skew {
            target: looop(&p, "I"),
            source: looop(&p, "J"),
            factor: -1,
        }
        .matrix(&p, &layout);
        let r = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert!(r.is_legal(), "{:?}", r.violations);
        let s1 = stmt(&p, "S1");
        let unsat = unsatisfied_by_stmt(&deps, &r);
        assert!(
            unsat.contains_key(&s1),
            "S1 should have unsatisfied self deps: {:?}",
            r.unsatisfied_self
        );
    }

    #[test]
    fn statement_reorder_against_dependence_is_illegal() {
        // moving S2's loop before S1 breaks the S1 -> S2 flow dependence at
        // equal I
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let i = looop(&p, "I");
        let m = Transform::ReorderChildren {
            parent: Some(i),
            perm: vec![1, 0],
        }
        .matrix(&p, &layout);
        let r = check_legal(&p, &layout, &deps, &m).expect("legality");
        assert!(!r.is_legal());
    }

    #[test]
    fn recover_ast_reads_child_permutation() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = looop(&p, "I");
        let m = Transform::ReorderChildren {
            parent: Some(i),
            perm: vec![1, 0],
        }
        .matrix(&p, &layout);
        let ast = recover_ast(&p, &layout, &m).unwrap();
        assert_eq!(ast.child_perms[&Some(i)], vec![1, 0]);
        // in the new AST the J loop comes first
        let order = ast.program.stmts_in_syntactic_order();
        assert_eq!(ast.program.stmt_decl(order[0]).name, "S2");
    }

    #[test]
    fn recover_ast_rejects_garbage() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        // singular
        let z = IMat::zeros(4, 4);
        assert!(recover_ast(&p, &layout, &z).is_err());
        // edge row smeared into loop columns
        let mut m = IMat::identity(4);
        m[(1, 0)] = 1; // edge row reads the I loop
        assert!(recover_ast(&p, &layout, &m).is_err());
        // wrong size
        assert!(recover_ast(&p, &layout, &IMat::identity(3)).is_err());
    }

    #[test]
    fn paper_section6_left_looking_matrix_is_legal() {
        // §6's worked example: transform right-looking (KIJ) Cholesky to
        // the traditional left-looking form. The paper prints a matrix C
        // whose loop rows are inconsistent with the position layout its
        // own §3 vectors and §6 dependence matrix fix (see EXPERIMENTS.md,
        // E6); in that layout — [K, e₃, e₂, e₁, J, L, I] — the correct
        // left-looking matrix has the same edge rows and the loop rows:
        //   new outer ← old L position (the column being updated, reaching
        //               every statement through the diagonal padding),
        //   new J slot ← old J, new L slot ← old K, new I slot ← old I.
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let c = IMat::from_rows(&[
            &[0, 0, 0, 0, 0, 1, 0][..], // outer = old L position
            &[0, 0, 1, 0, 0, 0, 0],     // edge rows: children (S1, I, J)
            &[0, 0, 0, 1, 0, 0, 0],     //   permuted to (J, S1, I)
            &[0, 1, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 0, 0], // J slot = old J
            &[1, 0, 0, 0, 0, 0, 0], // L slot = old K
            &[0, 0, 0, 0, 0, 0, 1], // I slot = old I
        ]);
        let r = check_legal(&p, &layout, &deps, &c).expect("legality");
        assert!(r.is_legal(), "violations: {:?}", r.violations);
        assert!(
            r.unsatisfied_self.is_empty(),
            "per-statement transforms are nonsingular"
        );
        let ast = r.new_ast.unwrap();
        let k = looop(&p, "K");
        // old children (S1, I, J) → new order (J, S1, I): perm [1, 2, 0]
        assert_eq!(ast.child_perms[&Some(k)], vec![1, 2, 0]);
        let order = ast.program.stmts_in_syntactic_order();
        let names: Vec<_> = order
            .iter()
            .map(|&s| ast.program.stmt_decl(s).name.clone())
            .collect();
        assert_eq!(names, vec!["S3", "S1", "S2"]);
    }

    #[test]
    fn paper_section6_printed_matrix_is_rejected() {
        // The literally-printed C of §6 (first row selecting the old J
        // position) reverses the flow from S3's column-k updates to S2's
        // column-k division in our (paper-§3-faithful) layout; the checker
        // must catch it.
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let c = IMat::from_rows(&[
            &[0, 0, 0, 0, 1, 0, 0][..],
            &[0, 0, 1, 0, 0, 0, 0],
            &[0, 0, 0, 1, 0, 0, 0],
            &[0, 1, 0, 0, 0, 0, 0],
            &[1, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 0, 1, 0],
            &[0, 0, 0, 0, 0, 0, 1],
        ]);
        let r = check_legal(&p, &layout, &deps, &c).expect("legality");
        assert!(!r.is_legal());
    }

    #[test]
    fn forward_alignment_breaking_flow_is_illegal() {
        // aligning S1 forward by 1 w.r.t. I delays each pivot sqrt to the
        // next outer iteration; S2@(I, ·) reads A(I) written by S1@I, so
        // the flow dependence is reversed.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let s1 = stmt(&p, "S1");
        let i = looop(&p, "I");
        let fwd = Transform::Align {
            stmt: s1,
            looop: i,
            offset: 1,
        }
        .matrix(&p, &layout);
        let r = check_legal(&p, &layout, &deps, &fwd).expect("legality");
        assert!(!r.is_legal());
    }

    #[test]
    fn prefix_violation_iff_projection_violation() {
        // One stepper, walked two ways — slot by slot over candidate rows
        // (check_prefix) and dependence by dependence over a finished
        // matrix (check_legal) — must tell the same story for every signed
        // full-depth loop permutation: the prefix is cut iff the matrix
        // assembled from those rows has a projection violation, and the
        // dependence the cut names is one of the violated ones.
        for (name, make) in zoo::ALL {
            let p = make();
            let layout = InstanceLayout::new(&p);
            let slots: Vec<usize> = layout.loops().map(|(pos, _)| pos).collect();
            if slots.len() > 4 {
                continue;
            }
            let deps = analyze(&p, &layout).expect("analysis");
            let n = layout.len();
            for order in inl_linalg::permutations(&slots) {
                for signs in 0..1u32 << slots.len() {
                    let rows: Vec<IVec> = order
                        .iter()
                        .enumerate()
                        .map(|(k, &q)| {
                            let unit = IVec::unit(n, q);
                            if signs >> k & 1 == 1 {
                                -&unit
                            } else {
                                unit
                            }
                        })
                        .collect();
                    // the rows at the loop slots, identity at the edge slots
                    let mut m = IMat::identity(n);
                    for (&slot, row) in slots.iter().zip(&rows) {
                        for (j, &v) in row.iter().enumerate() {
                            m[(slot, j)] = v;
                        }
                    }
                    let report = check_legal(&p, &layout, &deps, &m).expect("legality");
                    assert!(report.new_ast.is_ok(), "{name}: signed permutation");
                    // a zero projection against the syntactic order is the
                    // completion's business (child reordering), not a cut
                    let negative: Vec<usize> = report
                        .violations
                        .iter()
                        .filter(|v| !v.reason.starts_with("projection is zero"))
                        .map(|v| v.dep)
                        .collect();
                    match check_prefix(&p, &layout, &deps, &rows).expect("prefix") {
                        PrefixCheck::Legal => assert!(
                            negative.is_empty(),
                            "{name} {rows:?}: prefix legal, check_legal violates {negative:?}"
                        ),
                        PrefixCheck::Violation { dep, .. } => assert!(
                            negative.contains(&dep),
                            "{name} {rows:?}: prefix names dep {dep}, check_legal {negative:?}"
                        ),
                    }
                }
            }
        }
    }
}
