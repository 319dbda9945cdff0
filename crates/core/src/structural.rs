//! Loop distribution and jamming (§4.2 of the paper).
//!
//! Distribution and jamming change the number of instance-vector positions,
//! so they are represented by **non-square** matrices: distribution
//! replicates the distributed loop's position (the new program has two
//! loops whose values both come from the old loop's position), and jamming
//! merges two loop positions into one.
//!
//! Each operation returns the matrix *and* the structurally transformed
//! target program (built by `inl-ir`'s surgery). Legality is Definition 6
//! on that matrix, decided by the walk every transformation goes through
//! ([`crate::legal::check_structural`]).

use crate::instance::{InstanceLayout, Position};
use inl_ir::{LoopId, Program};
use inl_linalg::{IMat, InlError, Int};

/// The result of a structural transformation: the (generally non-square)
/// matrix, the target program, and its layout.
#[derive(Clone, Debug)]
pub struct StructuralResult {
    /// Maps old instance vectors to new ones: `v_new = matrix · v_old`.
    pub matrix: IMat,
    /// The transformed program (statement ids preserved).
    pub target: Program,
    /// Layout of the transformed program.
    pub target_layout: InstanceLayout,
}

/// Distribute loop `l` at `split` and build the distribution matrix.
///
/// Fails with [`InlErrorKind::InvalidTarget`](inl_linalg::InlErrorKind) when
/// [`Program::distribute_loop`] does: `split` does not cut `l`'s children
/// into two non-empty parts or `l` is detached from the program.
pub fn distribute(
    p: &Program,
    layout: &InstanceLayout,
    l: LoopId,
    split: usize,
) -> Result<StructuralResult, InlError> {
    let (target, new_loop) = p.distribute_loop(l, split)?;
    let (parent, t) = p.loop_site(l)?;
    let target_layout = InstanceLayout::new(&target);
    let n_old = layout.len();
    let n_new = target_layout.len();
    let old_children = p.loop_decl(l).children.len();

    let mut m = IMat::zeros(n_new, n_old);
    for (new_pos, slot) in target_layout.positions().iter().enumerate() {
        match *slot {
            Position::Loop(x) => {
                let src = if x == new_loop { l } else { x };
                m[(new_pos, layout.loop_position(src))] = 1;
            }
            Position::Edge {
                parent: q,
                child: c,
            } => {
                if q == parent {
                    // the parent's child list grew by one at index t
                    if c < t {
                        m[(new_pos, layout.edge_position(q, c).expect("edge"))] = 1;
                    } else if c == t || c == t + 1 {
                        // indicator "in first part" / "in second part":
                        // sum of the old loop's child edges of that part
                        let range = if c == t {
                            0..split
                        } else {
                            split..old_children
                        };
                        for j in range {
                            let e = layout
                                .edge_position(Some(l), j)
                                .expect("distributed loop had child edges");
                            m[(new_pos, e)] = 1;
                        }
                    } else {
                        m[(new_pos, layout.edge_position(q, c - 1).expect("edge"))] = 1;
                    }
                } else if q == Some(l) {
                    // first part kept children 0..split
                    m[(new_pos, layout.edge_position(Some(l), c).expect("edge"))] = 1;
                } else if q == Some(new_loop) {
                    m[(
                        new_pos,
                        layout.edge_position(Some(l), c + split).expect("edge"),
                    )] = 1;
                } else {
                    m[(new_pos, layout.edge_position(q, c).expect("edge"))] = 1;
                }
            }
        }
    }
    Ok(StructuralResult {
        matrix: m,
        target,
        target_layout,
    })
}

/// Jam (fuse) adjacent sibling loops — children `idx` and `idx + 1` of
/// `parent` — and build the jamming matrix.
///
/// Fails with [`InlErrorKind::InvalidTarget`](inl_linalg::InlErrorKind) when
/// [`Program::jam_loops`] does: the targets are not both loops, are not
/// adjacent siblings of `parent`, or have mismatched bounds/steps.
pub fn jam(
    p: &Program,
    layout: &InstanceLayout,
    parent: Option<LoopId>,
    idx: usize,
) -> Result<StructuralResult, InlError> {
    let (target, a, b) = p.jam_loops(parent, idx)?;
    let ma = p.loop_decl(a).children.len();
    let target_layout = InstanceLayout::new(&target);
    let n_old = layout.len();
    let n_new = target_layout.len();

    let mut m = IMat::zeros(n_new, n_old);
    let parent_pos: Option<usize> = parent.map(|q| layout.loop_position(q));
    // indicator rows: "instance lies under old child `c` of `parent`" —
    // needed when a fused part had a single child (no own edges).
    let under_old_sibling = |m: &mut IMat, row: usize, c: usize, sign: Int| {
        match layout.edge_position(parent, c) {
            Some(e) => m[(row, e)] += sign,
            None => {
                // parent had a single child: the indicator is constant 1,
                // which cannot appear in a linear matrix. This cannot
                // happen here: parent has at least the two loops a and b.
                unreachable!("parent of jammed loops has >= 2 children");
            }
        }
    };
    for (new_pos, slot) in target_layout.positions().iter().enumerate() {
        match *slot {
            Position::Loop(x) => {
                if x == a {
                    // merged loop value: pos(a) + pos(b) − pad
                    m[(new_pos, layout.loop_position(a))] += 1;
                    m[(new_pos, layout.loop_position(b))] += 1;
                    if let Some(pp) = parent_pos {
                        m[(new_pos, pp)] -= 1;
                    }
                } else {
                    m[(new_pos, layout.loop_position(x))] = 1;
                }
            }
            Position::Edge {
                parent: q,
                child: c,
            } => {
                if q == parent {
                    // the parent's child list shrank by one at idx+1
                    if c < idx {
                        m[(new_pos, layout.edge_position(q, c).expect("edge"))] = 1;
                    } else if c == idx {
                        under_old_sibling(&mut m, new_pos, idx, 1);
                        under_old_sibling(&mut m, new_pos, idx + 1, 1);
                    } else {
                        m[(new_pos, layout.edge_position(q, c + 1).expect("edge"))] = 1;
                    }
                } else if q == Some(a) {
                    // merged children: a's children first, then b's
                    if c < ma {
                        match layout.edge_position(Some(a), c) {
                            Some(e) => m[(new_pos, e)] = 1,
                            // a had a single child: indicator = "under a"
                            None => under_old_sibling(&mut m, new_pos, idx, 1),
                        }
                    } else {
                        match layout.edge_position(Some(b), c - ma) {
                            Some(e) => m[(new_pos, e)] = 1,
                            None => under_old_sibling(&mut m, new_pos, idx + 1, 1),
                        }
                    }
                } else {
                    m[(new_pos, layout.edge_position(q, c).expect("edge"))] = 1;
                }
            }
        }
    }
    Ok(StructuralResult {
        matrix: m,
        target,
        target_layout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depend::analyze;
    use crate::legal::check_structural;
    use inl_ir::{zoo, StmtId};
    use inl_linalg::IVec;

    fn stmt(p: &Program, name: &str) -> StmtId {
        p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
    }

    /// Definition 6's verdict on the step that made `r` of `p`.
    fn legal(p: &Program, layout: &InstanceLayout, r: &StructuralResult) -> bool {
        let deps = analyze(p, layout).expect("analysis");
        check_structural(p, layout, &deps, r, "step").expect("walks")
    }

    #[test]
    fn distribution_matrix_maps_instances() {
        // §4.2: distributing the I loop of simplified Cholesky. The paper's
        // 5×4 matrix maps S1 and S2 instances into the two-loop program.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = p.loops().next().unwrap();
        let r = distribute(&p, &layout, i, 1).expect("distributes");
        assert_eq!(r.matrix.nrows(), 5);
        assert_eq!(r.matrix.ncols(), 4);
        let s1 = stmt(&p, "S1");
        let s2 = stmt(&p, "S2");
        // S1 at I=4 maps to the first loop at I=4
        let v1 = r.matrix.mul_vec(&layout.instance_vector(s1, &[4]));
        let (d1, it1) = r.target_layout.decode(&r.target, &v1).expect("decodable");
        assert_eq!(d1, s1);
        assert_eq!(it1, vec![4]);
        // S2 at (4, 6) maps to the second loop nest at (4, 6)
        let v2 = r.matrix.mul_vec(&layout.instance_vector(s2, &[4, 6]));
        let (d2, it2) = r.target_layout.decode(&r.target, &v2).expect("decodable");
        assert_eq!(d2, s2);
        assert_eq!(it2, vec![4, 6]);
        // and all S1 instances now precede all S2 instances
        let early = r.matrix.mul_vec(&layout.instance_vector(s1, &[9]));
        let late = r.matrix.mul_vec(&layout.instance_vector(s2, &[1, 2]));
        assert_eq!(
            inl_linalg::lex::lex_cmp(&early, &late),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn distribution_illegal_for_cholesky() {
        // the paper: "loop distribution … is not legal in any of the matrix
        // factorization codes"
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = p.loops().next().unwrap();
        let r = distribute(&p, &layout, i, 1).expect("distributes");
        assert!(!legal(&p, &layout, &r));
    }

    #[test]
    fn distribution_legal_for_independent_statements() {
        let p = zoo::independent_pair();
        let layout = InstanceLayout::new(&p);
        let i = p.loops().next().unwrap();
        let r = distribute(&p, &layout, i, 1).expect("distributes");
        assert!(legal(&p, &layout, &r));
        assert!(r.target.validate().is_ok());
        assert_eq!(r.target.root().len(), 2);
    }

    #[test]
    fn jam_matrix_reverses_distribution() {
        // §4.2: jamming the distributed simplified Cholesky restores the
        // original instance vectors.
        let p = zoo::distributed_simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let r = jam(&p, &layout, None, 0).expect("jams");
        assert_eq!(r.matrix.nrows(), 4);
        assert_eq!(r.matrix.ncols(), 5);
        let s1 = stmt(&p, "S1");
        let s2 = stmt(&p, "S2");
        let v1 = r.matrix.mul_vec(&layout.instance_vector(s1, &[4]));
        let (d1, it1) = r.target_layout.decode(&r.target, &v1).unwrap();
        assert_eq!((d1, it1), (s1, vec![4]));
        let v2 = r.matrix.mul_vec(&layout.instance_vector(s2, &[4, 6]));
        let (d2, it2) = r.target_layout.decode(&r.target, &v2).unwrap();
        assert_eq!((d2, it2), (s2, vec![4, 6]));
        // jammed program prints like the original simple_cholesky
        assert_eq!(
            r.target.to_pseudocode(),
            zoo::simple_cholesky().to_pseudocode()
        );
    }

    #[test]
    fn jamming_distributed_cholesky_is_illegal() {
        // The distributed simple-Cholesky program (§4.2's *structural*
        // example — the paper notes distribution is illegal for the real
        // Cholesky) executes every S1 before every S2, so S2 at (I2, I)
        // with I2 < I reads the A(I) that S1 already wrote. Jamming would
        // move that read before the write: the fused target index I2 is
        // smaller than the source index I, so jamming is illegal — it
        // would change the distributed program's (different!) semantics.
        let p = zoo::distributed_simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let r = jam(&p, &layout, None, 0).expect("jams");
        assert!(!legal(&p, &layout, &r));
    }

    #[test]
    fn jamming_reversal_detected() {
        // S2 in the second loop reads X(I+1), written by the first loop:
        // fusing would execute the read of X(i+1) at fused iteration i
        // before its write at iteration i+1 — illegal.
        use inl_ir::{Aff, Expr, ProgramBuilder};
        let mut b = ProgramBuilder::new("backward");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n) + Aff::konst(2)]);
        let y = b.array("Y", &[Aff::param(n) + Aff::konst(2)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt("S1", x, vec![Aff::var(i)], Expr::index(Aff::var(i)));
        });
        b.hloop("I2", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I2");
            b.stmt(
                "S2",
                y,
                vec![Aff::var(i)],
                Expr::read(x, vec![Aff::var(i) + Aff::konst(1)]),
            );
        });
        let p = b.finish();
        let layout = InstanceLayout::new(&p);
        let r = jam(&p, &layout, None, 0).expect("jams");
        assert!(!legal(&p, &layout, &r));
        // while the same shape reading X(I-1) is legal to fuse
        let mut b = ProgramBuilder::new("forward");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n) + Aff::konst(2)]);
        let y = b.array("Y", &[Aff::param(n) + Aff::konst(2)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt("S1", x, vec![Aff::var(i)], Expr::index(Aff::var(i)));
        });
        b.hloop("I2", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I2");
            b.stmt(
                "S2",
                y,
                vec![Aff::var(i)],
                Expr::read(x, vec![Aff::var(i) - Aff::konst(1)]),
            );
        });
        let q = b.finish();
        let qlayout = InstanceLayout::new(&q);
        let r = jam(&q, &qlayout, None, 0).expect("jams");
        assert!(legal(&q, &qlayout, &r));
    }

    #[test]
    fn jam_invalid_targets_report_node_path() {
        use inl_linalg::InlErrorKind;
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = p.loops().next().unwrap();
        // children of I are [S1, J-loop]: child 0 is not a loop
        let e = jam(&p, &layout, Some(i), 0).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        assert!(e.to_string().contains("loop I"), "{e}");
        // the root has a single child: no adjacent sibling to jam
        let e = jam(&p, &layout, None, 0).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
    }

    #[test]
    fn jam_mismatched_bounds_rejected() {
        use inl_ir::{Aff, Bound, Expr, ProgramBuilder};
        use inl_linalg::InlErrorKind;
        // the second loop's lower bound and step, and the complaint
        for (lo2, step2, complaint) in [
            (2, 1, "loops I and I2: jam requires identical bounds"),
            (1, 2, "loops I and I2: jam requires identical steps"),
        ] {
            let mut b = ProgramBuilder::new("mismatched");
            let n = b.param("N");
            let x = b.array("X", &[Aff::param(n) + Aff::konst(2)]);
            b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
                let i = b.loop_var("I");
                b.stmt("S1", x, vec![Aff::var(i)], Expr::index(Aff::var(i)));
            });
            let (lo, hi) = (Bound::single(Aff::konst(lo2)), Bound::single(Aff::param(n)));
            b.loop_full("I2", lo, hi, step2, false, |b| {
                let i = b.loop_var("I2");
                b.stmt("S2", x, vec![Aff::var(i)], Expr::index(Aff::var(i)));
            });
            let p = b.finish();
            let layout = InstanceLayout::new(&p);
            let e = jam(&p, &layout, None, 0).unwrap_err();
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
            assert_eq!(e.message(), complaint);
        }
    }

    #[test]
    fn distribute_invalid_split_rejected() {
        use inl_linalg::InlErrorKind;
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = p.loops().next().unwrap();
        // the I loop has exactly 2 children: only split = 1 is in range
        for split in [0, 2, 99] {
            let e = distribute(&p, &layout, i, split).unwrap_err();
            assert_eq!(e.kind(), InlErrorKind::InvalidTarget, "split {split}");
        }
    }

    #[test]
    fn distribute_then_jam_round_trips_instances() {
        // Figure 4 semantics: matrices act on *instance vectors of their
        // source program*; padded positions are not transformed
        // consistently, so composing across programs requires decoding and
        // re-encoding (L⁻¹ then L) between the two steps.
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let i = p.loops().next().unwrap();
        let d = distribute(&p, &layout, i, 1).expect("distributes");
        let j = jam(&d.target, &d.target_layout, None, 0).expect("jams");
        for s in p.stmts() {
            let k = layout.stmt_loops(s).len();
            let iter: Vec<inl_linalg::Int> = (0..k as inl_linalg::Int).map(|x| x + 2).collect();
            let v = layout.instance_vector(s, &iter);
            // step 1: distribute, decode, re-encode
            let (s1, it1) = d
                .target_layout
                .decode(&d.target, &d.matrix.mul_vec(&v))
                .expect("distributed instance decodable");
            let v1 = d.target_layout.instance_vector(s1, &it1);
            // step 2: jam, decode
            let (s2, it2) = j
                .target_layout
                .decode(&j.target, &j.matrix.mul_vec(&v1))
                .expect("jammed instance decodable");
            assert_eq!(s2, s);
            let orig: Vec<_> = IVec::from(iter.as_slice()).into_vec();
            assert_eq!(it2, orig);
        }
    }
}
