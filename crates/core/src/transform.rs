//! Loop transformations as matrices (§4 of the paper).
//!
//! Every transformation is an integer matrix acting on instance vectors.
//! Linear transformations (permutation, reversal, skewing, scaling) touch
//! only loop positions; AST transformations (statement reordering) permute
//! edge positions and subtree blocks; statement alignment adds an offset to
//! a loop position *conditioned on* an edge position — which is exactly a
//! matrix entry at (loop row, edge column), since edge labels are 0/1
//! indicators of "the instance lies in this subtree".
//!
//! Sequences compose by matrix product ([`Transform::compose`]); the
//! non-square distribution/jamming matrices live in [`crate::structural`].

use crate::instance::InstanceLayout;
use inl_ir::{LoopId, Node, Program, StmtId};
use inl_linalg::{IMat, InlError, Int};

/// A loop transformation expressible as a square matrix on instance vectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transform {
    /// Swap two loops (§4.1's permutation example).
    Interchange(LoopId, LoopId),
    /// Reverse a loop: identity with `-1` on the loop's diagonal entry.
    Reverse(LoopId),
    /// Skew `target` by `factor` times `source`: identity plus `factor` at
    /// `(target row, source column)`.
    Skew {
        /// Row: the loop being modified.
        target: LoopId,
        /// Column: the loop whose value is added.
        source: LoopId,
        /// The multiple (may be negative; the paper's §4.1 example uses -1).
        factor: Int,
    },
    /// Scale a loop by a positive factor: identity with `factor` on the
    /// diagonal. Non-unimodular (`|det| = factor`).
    Scale {
        /// The loop being scaled.
        target: LoopId,
        /// The (positive) scale factor.
        factor: Int,
    },
    /// Reorder the children of a node (`None` = virtual root): `perm[j]`
    /// is the new index of old child `j` (§4.2's statement reordering).
    ReorderChildren {
        /// The parent whose children move.
        parent: Option<LoopId>,
        /// Old index → new index.
        perm: Vec<usize>,
    },
    /// Align statement `stmt` by `offset` with respect to loop `looop`
    /// (§4.3): identity plus `offset` at (loop row, distinguishing edge
    /// column of the subtree containing `stmt`).
    Align {
        /// The statement whose instances shift.
        stmt: StmtId,
        /// The loop whose index is shifted for those instances.
        looop: LoopId,
        /// The shift amount.
        offset: Int,
    },
}

/// A transformation its target cannot take: `InvalidTarget` with the reason.
#[track_caller]
fn invalid(reason: &str) -> InlError {
    InlError::invalid_target("transform", reason)
}

impl Transform {
    /// Build the matrix. Panics on invalid input; see [`Transform::try_matrix`].
    pub fn matrix(&self, p: &Program, layout: &InstanceLayout) -> IMat {
        self.try_matrix(p, layout).expect("invalid transformation")
    }

    /// Build the `n × n` matrix representing this transformation for the
    /// given program layout.
    pub fn try_matrix(&self, p: &Program, layout: &InstanceLayout) -> Result<IMat, InlError> {
        let n = layout.len();
        match self {
            Transform::Interchange(a, b) => {
                let mut m = IMat::identity(n);
                let (pa, pb) = (layout.loop_position(*a), layout.loop_position(*b));
                m[(pa, pa)] = 0;
                m[(pb, pb)] = 0;
                m[(pa, pb)] = 1;
                m[(pb, pa)] = 1;
                Ok(m)
            }
            Transform::Reverse(l) => {
                let mut m = IMat::identity(n);
                let pl = layout.loop_position(*l);
                m[(pl, pl)] = -1;
                Ok(m)
            }
            Transform::Skew {
                target,
                source,
                factor,
            } => {
                let mut m = IMat::identity(n);
                m[(layout.loop_position(*target), layout.loop_position(*source))] = *factor;
                Ok(m)
            }
            Transform::Scale { target, factor } => {
                if *factor < 1 {
                    return Err(invalid("scale factors must be >= 1"));
                }
                let mut m = IMat::identity(n);
                let pl = layout.loop_position(*target);
                m[(pl, pl)] = *factor;
                Ok(m)
            }
            Transform::ReorderChildren { parent, perm } => reorder_matrix(p, layout, *parent, perm),
            Transform::Align {
                stmt,
                looop,
                offset,
            } => {
                let path = p.loops_surrounding(*stmt);
                let Some(depth) = path.iter().position(|l| l == looop) else {
                    return Err(invalid(
                        "the alignment loop does not surround the statement",
                    ));
                };
                // Find the deepest edge position on the path from `looop`
                // down to the statement whose parent has ≥ 2 children.
                let mut edge = None;
                for d in depth..path.len() {
                    let parent = path[d];
                    let children = &p.loop_decl(parent).children;
                    let target: Node = if d + 1 < path.len() {
                        Node::Loop(path[d + 1])
                    } else {
                        Node::Stmt(*stmt)
                    };
                    let child_idx = children
                        .iter()
                        .position(|&c| node_contains(p, c, target))
                        .expect("path child");
                    if let Some(e) = layout.edge_position(Some(parent), child_idx) {
                        edge = Some(e);
                    }
                }
                let Some(e) = edge else {
                    return Err(invalid(
                        "no edge distinguishes the statement's subtree below the loop",
                    ));
                };
                let mut m = IMat::identity(n);
                m[(layout.loop_position(*looop), e)] = *offset;
                Ok(m)
            }
        }
    }

    /// Compose a sequence of transformations (applied left to right: the
    /// first element of `seq` is applied first) into a single matrix.
    pub fn compose(
        p: &Program,
        layout: &InstanceLayout,
        seq: &[Transform],
    ) -> Result<IMat, InlError> {
        let mut m = IMat::identity(layout.len());
        for t in seq {
            // matrices stack on the left as transformations compose
            m = t.try_matrix(p, layout)?.checked_mul(&m)?;
        }
        Ok(m)
    }
}

pub(crate) fn node_contains(p: &Program, n: Node, target: Node) -> bool {
    if n == target {
        return true;
    }
    match n {
        Node::Stmt(_) => false,
        Node::Loop(l) => p
            .loop_decl(l)
            .children
            .iter()
            .any(|&c| node_contains(p, c, target)),
    }
}

/// Matrix for reordering the children of `parent` by `perm` (old index →
/// new index).
///
/// Statement reordering permutes only the node's **edge positions**:
/// subtree slots stay pinned (this is the convention of the paper's §6
/// matrix — the transformed AST reads its new child order from the edge
/// permutation while every loop keeps its vector position). The matrix is
/// the identity except that the row of `Edge{parent, perm[j]}` selects the
/// column of `Edge{parent, j}`.
fn reorder_matrix(
    p: &Program,
    layout: &InstanceLayout,
    parent: Option<LoopId>,
    perm: &[usize],
) -> Result<IMat, InlError> {
    let nchildren = p.children(parent).len();
    let mut seen = vec![false; nchildren];
    let bijection = perm.len() == nchildren
        && perm
            .iter()
            .all(|&i| i < nchildren && !std::mem::replace(&mut seen[i], true));
    if !bijection {
        return Err(invalid("permutation is not a bijection of the children"));
    }
    let n = layout.len();
    let mut m = IMat::identity(n);
    for (j, &nj) in perm.iter().enumerate() {
        // Fixed points need no matrix change — and skipping them keeps the
        // single-child identity permutation (which has no edge positions)
        // from reaching the lookups below. Moved children imply
        // nchildren >= 2, so their edge positions are present.
        if j == nj {
            continue;
        }
        let from = layout.edge_position(parent, j).expect("edge position");
        let to = layout.edge_position(parent, nj).expect("edge position");
        m[(to, to)] = 0;
        m[(to, from)] = 1;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    fn stmt(p: &Program, name: &str) -> StmtId {
        p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
    }
    fn looop(p: &Program, name: &str) -> LoopId {
        p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
    }

    #[test]
    fn paper_interchange_matrix() {
        // §4.1: interchanging I and J in the simplified Cholesky nest
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let m = Transform::Interchange(looop(&p, "I"), looop(&p, "J")).matrix(&p, &layout);
        let expected = IMat::from_rows(&[
            &[0, 0, 0, 1][..],
            &[0, 1, 0, 0],
            &[0, 0, 1, 0],
            &[1, 0, 0, 0],
        ]);
        assert_eq!(m, expected);
        // action on the paper's instance vectors (I=i, J=j):
        let s1 = stmt(&p, "S1");
        let s2 = stmt(&p, "S2");
        let v1 = layout.instance_vector(s1, &[5]);
        assert_eq!(m.mul_vec(&v1), v1, "S1's vectors are coincidentally fixed");
        let v2 = layout.instance_vector(s2, &[5, 8]);
        assert_eq!(m.mul_vec(&v2).as_slice(), &[8, 1, 0, 5]);
    }

    #[test]
    fn paper_skew_matrix() {
        // §4.1: skewing the outer loop by -1 times the inner loop
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let m = Transform::Skew {
            target: looop(&p, "I"),
            source: looop(&p, "J"),
            factor: -1,
        }
        .matrix(&p, &layout);
        let expected = IMat::from_rows(&[
            &[1, 0, 0, -1][..],
            &[0, 1, 0, 0],
            &[0, 0, 1, 0],
            &[0, 0, 0, 1],
        ]);
        assert_eq!(m, expected);
        // S1 at I=i maps to outer position i - i = 0 (all instances land in
        // the first iteration of the new outer loop — the paper's point)
        let s1 = stmt(&p, "S1");
        let t = m.mul_vec(&layout.instance_vector(s1, &[7]));
        assert_eq!(t[0], 0);
        assert_eq!(t[3], 7);
    }

    #[test]
    fn paper_statement_reorder_matrix() {
        // §4.2: reorder S1 and the J loop under the I loop
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = looop(&p, "I");
        let m = Transform::ReorderChildren {
            parent: Some(i),
            perm: vec![1, 0],
        }
        .matrix(&p, &layout);
        let expected = IMat::from_rows(&[
            &[1, 0, 0, 0][..],
            &[0, 0, 1, 0],
            &[0, 1, 0, 0],
            &[0, 0, 0, 1],
        ]);
        assert_eq!(m, expected);
        // S1 now second: edge labels swap
        let s1 = stmt(&p, "S1");
        let v = m.mul_vec(&layout.instance_vector(s1, &[3]));
        assert_eq!(v.as_slice(), &[3, 1, 0, 3]);
    }

    #[test]
    fn paper_alignment_matrix() {
        // §4.3: align S1 by +1 with respect to the I loop. The offset
        // lands at (I's row, S1's distinguishing edge column) so that S1
        // maps to I+1 while S2 is untouched.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let m = Transform::Align {
            stmt: stmt(&p, "S1"),
            looop: looop(&p, "I"),
            offset: 1,
        }
        .matrix(&p, &layout);
        let s1 = stmt(&p, "S1");
        let s2 = stmt(&p, "S2");
        let t1 = m.mul_vec(&layout.instance_vector(s1, &[4]));
        assert_eq!(t1[0], 5, "S1's I entry shifts by 1");
        let v2 = layout.instance_vector(s2, &[4, 6]);
        assert_eq!(m.mul_vec(&v2), v2, "S2 untouched");
    }

    #[test]
    fn reversal_and_scaling() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let j = looop(&p, "J");
        let r = Transform::Reverse(j).matrix(&p, &layout);
        assert_eq!(r[(3, 3)], -1);
        assert_eq!(r.det(), -1);
        let s = Transform::Scale {
            target: j,
            factor: 2,
        }
        .matrix(&p, &layout);
        assert_eq!(s[(3, 3)], 2);
        assert_eq!(s.det(), 2);
        assert!(Transform::Scale {
            target: j,
            factor: 0
        }
        .try_matrix(&p, &layout)
        .is_err());
    }

    #[test]
    fn alignment_requires_distinguishing_edge() {
        // in a perfect nest no edge distinguishes the only statement
        let p = zoo::perfect_nest();
        let layout = InstanceLayout::new(&p);
        let s = p.stmts().next().unwrap();
        let l = p.loops().next().unwrap();
        let e = Transform::Align {
            stmt: s,
            looop: l,
            offset: 1,
        }
        .try_matrix(&p, &layout)
        .expect_err("no edge");
        assert_eq!(e.kind(), inl_linalg::InlErrorKind::InvalidTarget);
        assert_eq!(
            e.message(),
            "transform: no edge distinguishes the statement's subtree below the loop"
        );
    }

    #[test]
    fn compose_is_matrix_product() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = looop(&p, "I");
        let j = looop(&p, "J");
        let t1 = Transform::Interchange(i, j);
        let t2 = Transform::Reverse(i);
        let c = Transform::compose(&p, &layout, &[t1.clone(), t2.clone()]).unwrap();
        let m1 = t1.matrix(&p, &layout);
        let m2 = t2.matrix(&p, &layout);
        assert_eq!(c, m2.mul(&m1));
    }

    #[test]
    fn reorder_rejects_bad_perms() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = looop(&p, "I");
        for perm in [vec![0], vec![0, 0], vec![0, 2]] {
            let e = Transform::ReorderChildren {
                parent: Some(i),
                perm,
            }
            .try_matrix(&p, &layout)
            .expect_err("not a bijection");
            assert_eq!(e.kind(), inl_linalg::InlErrorKind::InvalidTarget);
            assert_eq!(
                e.message(),
                "transform: permutation is not a bijection of the children"
            );
        }
    }

    #[test]
    fn interchange_preserves_entries() {
        // a permutation matrix times an instance vector permutes entries
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let k = looop(&p, "K");
        let j = looop(&p, "J");
        let m = Transform::Interchange(k, j).matrix(&p, &layout);
        assert!(m.is_permutation());
        let s3 = stmt(&p, "S3");
        let v = layout.instance_vector(s3, &[2, 5, 3]);
        let t = m.mul_vec(&v);
        let mut a = v.as_slice().to_vec();
        let mut b = t.as_slice().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
