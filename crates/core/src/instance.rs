//! Instance vectors (§2 of the paper).
//!
//! A dynamic instance of a statement in an imperfectly nested loop is a
//! partially labeled AST; the function **L** maps it to an integer
//! **instance vector** such that lexicographic order on instance vectors is
//! execution order (Theorem 1). The layout of vector positions is fixed per
//! program:
//!
//! for a node `N` with children `n₁ … n_m`,
//! `R(N) = label(N) // label(e_m) // … // label(e₁) // R(n_m) // … // R(n₁)`
//!
//! — children and their edges appear in *reverse* order, so instances of
//! later children compare lexicographically greater. Two refinements from
//! the paper:
//!
//! * **ε optimization** (§2.2): a node with a single child contributes no
//!   edge positions, so instance vectors of perfectly nested loops degenerate
//!   to ordinary iteration vectors;
//! * **padding** (procedure **M**): loop positions not on the path to the
//!   statement are labeled with the nearest labeled ancestor's value (the
//!   "diagonal embedding"); positions with no labeled ancestor get 0, and
//!   unlabeled edges get 0.
//!
//! Because padding is an affine function of the statement's iteration
//! vector, every statement `S` has an **embedding** `v = E_S·i + f_S`
//! ([`InstanceLayout::embedding`]) — the bridge between the paper's AST
//! formulation and plain linear algebra.

use inl_ir::{LoopId, Node, Program, StmtId};
use inl_linalg::{IMat, IVec, Int};

/// What one position of an instance vector denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Position {
    /// The index value of a loop.
    Loop(LoopId),
    /// The edge label for child `child` (0-based, left-to-right) of
    /// `parent` (`None` = the virtual root). Only present when the parent
    /// has ≥ 2 children (ε optimization).
    Edge {
        /// Parent node (`None` for the virtual root).
        parent: Option<LoopId>,
        /// Child index, 0-based left-to-right.
        child: usize,
    },
}

/// Per-statement embedding data.
#[derive(Clone, Debug)]
struct StmtEmbed {
    /// Surrounding loops, outside-in.
    loops: Vec<LoopId>,
    /// `E_S`: n × k selector matrix (loop positions pick an iteration
    /// entry — possibly a padded duplicate; edge positions are zero rows).
    e: IMat,
    /// `f_S`: the constant edge labels.
    f: IVec,
}

/// The instance-vector layout of a program: the meaning of each vector
/// position, plus the per-statement embeddings.
#[derive(Clone, Debug)]
pub struct InstanceLayout {
    positions: Vec<Position>,
    /// Position of each loop's index value, indexed by `LoopId`.
    loop_pos: Vec<usize>,
    stmt_embed: Vec<StmtEmbed>,
}

impl InstanceLayout {
    /// Compute the canonical layout of a program (Equation 1's emit order).
    pub fn new(p: &Program) -> Self {
        let mut positions = Vec::new();
        emit_children(p, None, p.root(), &mut positions);
        Self::with_positions(p, positions)
    }

    /// Build a layout with an explicit position vector.
    ///
    /// Used for *transformed* ASTs: statement reordering permutes only the
    /// edge labels — subtree slots stay at their source positions (this is
    /// the convention of the paper's §6 matrix), so the transformed
    /// program's layout reuses the source position vector rather than the
    /// canonical emit order. Lexicographic order remains execution order
    /// because edges of a node still precede its subtrees and ancestors
    /// still precede descendants.
    pub fn with_positions(p: &Program, positions: Vec<Position>) -> Self {
        let mut loop_pos = vec![usize::MAX; p.loops().count()];
        for (i, pos) in positions.iter().enumerate() {
            if let Position::Loop(l) = pos {
                loop_pos[l.0] = i;
            }
        }
        let mut layout = InstanceLayout {
            positions,
            loop_pos,
            stmt_embed: Vec::new(),
        };
        layout.stmt_embed = p.stmts().map(|s| layout.embed_stmt(p, s)).collect();
        layout
    }

    /// Instance-vector length `n`.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True iff the program has no loops or edges at all.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The meaning of every position.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// `(position, loop)` of every loop the layout embeds, outside-in.
    pub fn loops(&self) -> impl Iterator<Item = (usize, LoopId)> + '_ {
        let positions = self.positions.iter().enumerate();
        positions.filter_map(|(pos, what)| match *what {
            Position::Loop(l) => Some((pos, l)),
            Position::Edge { .. } => None,
        })
    }

    /// The position holding a loop's index value.
    pub fn loop_position(&self, l: LoopId) -> usize {
        let p = self.loop_pos[l.0];
        assert_ne!(p, usize::MAX, "loop {l:?} not in layout");
        p
    }

    /// The position of an edge label, if it exists (parents with a single
    /// child have no edge positions).
    pub fn edge_position(&self, parent: Option<LoopId>, child: usize) -> Option<usize> {
        self.positions
            .iter()
            .position(|&p| p == Position::Edge { parent, child })
    }

    /// Positions of the loops surrounding a statement, outside-in.
    pub fn stmt_loop_positions(&self, s: StmtId) -> Vec<usize> {
        self.stmt_embed[s.0]
            .loops
            .iter()
            .map(|&l| self.loop_position(l))
            .collect()
    }

    /// The loops surrounding a statement, outside-in (cached).
    pub fn stmt_loops(&self, s: StmtId) -> &[LoopId] {
        &self.stmt_embed[s.0].loops
    }

    /// The embedding `(E_S, f_S)` with `L(instance) = E_S·i + f_S` for the
    /// iteration vector `i` (outside-in).
    pub fn embedding(&self, s: StmtId) -> (&IMat, &IVec) {
        (&self.stmt_embed[s.0].e, &self.stmt_embed[s.0].f)
    }

    /// **L**: the instance vector of statement `s` at iteration `iter`
    /// (values of the surrounding loops, outside-in).
    pub fn instance_vector(&self, s: StmtId, iter: &[Int]) -> IVec {
        let emb = &self.stmt_embed[s.0];
        assert_eq!(
            iter.len(),
            emb.loops.len(),
            "instance_vector: wrong iteration arity"
        );
        let iv = IVec::from(iter);
        &emb.e.mul_vec(&iv) + &emb.f
    }

    /// **L⁻¹** step 1: identify which statement an instance vector belongs
    /// to, from its edge labels. Returns `None` if the edge labels match no
    /// statement (or are not 0/1).
    pub fn statement_of(&self, p: &Program, iv: &IVec) -> Option<StmtId> {
        assert_eq!(iv.len(), self.len(), "statement_of: wrong vector length");
        p.stmts().find(|&s| {
            let emb = &self.stmt_embed[s.0];
            self.positions.iter().enumerate().all(|(i, pos)| match pos {
                Position::Edge { .. } => iv[i] == emb.f[i],
                Position::Loop(_) => true,
            })
        })
    }

    /// **L⁻¹** (Definition 5): decode an instance vector into a statement
    /// and its iteration vector (outside-in), ignoring padded positions.
    pub fn decode(&self, p: &Program, iv: &IVec) -> Option<(StmtId, Vec<Int>)> {
        let s = self.statement_of(p, iv)?;
        let iter = self.stmt_embed[s.0]
            .loops
            .iter()
            .map(|&l| iv[self.loop_position(l)])
            .collect();
        Some((s, iter))
    }

    fn embed_stmt(&self, p: &Program, s: StmtId) -> StmtEmbed {
        let loops = p.loops_surrounding(s);
        let k = loops.len();
        let n = self.len();
        let mut e = IMat::zeros(n, k);
        let mut f = IVec::zeros(n);
        // Path-of-children: for each loop on the path (and the root), which
        // child index continues towards s.
        for (i, pos) in self.positions.iter().enumerate() {
            match *pos {
                Position::Loop(l) => {
                    if let Some(idx) = loops.iter().position(|&x| x == l) {
                        // a real loop of s
                        e[(i, idx)] = 1;
                    } else {
                        // padded: nearest labeled ancestor of l that
                        // surrounds s
                        let ancestors = p.loops_surrounding_loop(l);
                        let lab = ancestors
                            .iter()
                            .rev()
                            .find_map(|a| loops.iter().position(|&x| x == *a));
                        if let Some(idx) = lab {
                            e[(i, idx)] = 1;
                        } // else: no labeled ancestor — padded with 0
                    }
                }
                Position::Edge { parent, child } => {
                    // 1 iff the path from parent towards s goes through
                    // `child`.
                    let on_path = match parent {
                        None => {
                            // which top-level subtree contains s?
                            child_index_towards(p, p.root(), s) == Some(child)
                        }
                        Some(l) => {
                            if loops.contains(&l) {
                                child_index_towards(p, &p.loop_decl(l).children, s) == Some(child)
                            } else {
                                false
                            }
                        }
                    };
                    if on_path {
                        f[i] = 1;
                    }
                }
            }
        }
        StmtEmbed { loops, e, f }
    }
}

/// Which child of `nodes` contains (or is) statement `s`?
fn child_index_towards(p: &Program, nodes: &[Node], s: StmtId) -> Option<usize> {
    fn contains(p: &Program, n: Node, s: StmtId) -> bool {
        match n {
            Node::Stmt(x) => x == s,
            Node::Loop(l) => p.loop_decl(l).children.iter().any(|&c| contains(p, c, s)),
        }
    }
    nodes.iter().position(|&n| contains(p, n, s))
}

fn emit_children(p: &Program, parent: Option<LoopId>, children: &[Node], out: &mut Vec<Position>) {
    let m = children.len();
    if m >= 2 {
        for j in (0..m).rev() {
            out.push(Position::Edge { parent, child: j });
        }
    }
    for j in (0..m).rev() {
        if let Node::Loop(l) = children[j] {
            out.push(Position::Loop(l));
            emit_children(p, Some(l), &p.loop_decl(l).children, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;
    use inl_linalg::lex::lex_cmp;
    use std::cmp::Ordering;

    impl InstanceLayout {
        /// The padded positions of a statement (Definition 4): the
        /// positions of the loops that do not surround it.
        fn padded_positions(&self, s: StmtId) -> Vec<usize> {
            let surrounds = |l| self.stmt_loops(s).contains(&l);
            (0..self.len())
                .filter(|&i| matches!(self.positions[i], Position::Loop(l) if !surrounds(l)))
                .collect()
        }
    }

    fn stmt_by_name(p: &Program, name: &str) -> StmtId {
        p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
    }

    #[test]
    fn simple_cholesky_layout_matches_paper() {
        // §3: S1 instances are [I, 0, 1, I]', S2 instances are [I, 1, 0, J]'
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        assert_eq!(layout.len(), 4);
        let s1 = stmt_by_name(&p, "S1");
        let s2 = stmt_by_name(&p, "S2");
        assert_eq!(layout.instance_vector(s1, &[7]).as_slice(), &[7, 0, 1, 7]);
        assert_eq!(
            layout.instance_vector(s2, &[7, 9]).as_slice(),
            &[7, 1, 0, 9]
        );
        // the J position of S1 is padded (Definition 4 / Lemma 1)
        let jpos = 3;
        assert_eq!(layout.padded_positions(s1), &[jpos]);
        assert!(layout.padded_positions(s2).is_empty());
    }

    #[test]
    fn perfect_nest_reduces_to_iteration_vectors() {
        // Lemma 2 + §2.2: with the ε optimization, a perfect nest's
        // instance vectors are exactly its iteration vectors.
        let p = zoo::perfect_nest();
        let layout = InstanceLayout::new(&p);
        assert_eq!(layout.len(), 2);
        let s1 = p.stmts().next().unwrap();
        assert_eq!(layout.instance_vector(s1, &[3, 5]).as_slice(), &[3, 5]);
        assert!(layout.padded_positions(s1).is_empty());
    }

    #[test]
    fn cholesky_kij_is_seven_dimensional() {
        // §6: the transformation matrices for full Cholesky are 7×7.
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        assert_eq!(layout.len(), 7);
        // position order: K, e(K,2), e(K,1), e(K,0), J, L, I
        assert!(matches!(layout.positions()[0], Position::Loop(_)));
        assert_eq!(
            layout.positions()[1],
            Position::Edge {
                parent: Some(inl_ir::LoopId(0)),
                child: 2
            }
        );
    }

    #[test]
    fn execution_order_is_lexicographic_order() {
        // Theorem 1 on the §2 running example: enumerate all dynamic
        // instances in execution order and check L is strictly increasing
        // and injective.
        let p = zoo::running_example();
        let layout = InstanceLayout::new(&p);
        let s1 = stmt_by_name(&p, "S1");
        let s2 = stmt_by_name(&p, "S2");
        let s3 = stmt_by_name(&p, "S3");
        let n = 4;
        let mut vectors = Vec::new();
        for i in 1..=n {
            for j in i..=n {
                vectors.push(layout.instance_vector(s1, &[i, j]));
                vectors.push(layout.instance_vector(s2, &[i, j]));
            }
            vectors.push(layout.instance_vector(s3, &[i]));
        }
        for w in vectors.windows(2) {
            assert_eq!(
                lex_cmp(&w[0], &w[1]),
                Ordering::Less,
                "execution order not lexicographic: {} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn l_inverse_roundtrip() {
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        for s in p.stmts() {
            let k = layout.stmt_loops(s).len();
            let iter: Vec<Int> = (0..k as Int).map(|x| 3 + 2 * x).collect();
            let iv = layout.instance_vector(s, &iter);
            let (s2, iter2) = layout.decode(&p, &iv).expect("decodable");
            assert_eq!(s, s2);
            assert_eq!(iter, iter2);
        }
    }

    #[test]
    fn embedding_is_affine() {
        // E_S·i + f_S agrees with instance_vector everywhere
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        for s in p.stmts() {
            let (e, f) = layout.embedding(s);
            let k = layout.stmt_loops(s).len();
            for trial in 0..5 {
                let iter: Vec<Int> = (0..k as Int).map(|x| trial * 3 + x + 1).collect();
                let via_embed = &e.mul_vec(&IVec::from(iter.as_slice())) + f;
                assert_eq!(via_embed, layout.instance_vector(s, &iter));
            }
        }
    }

    #[test]
    fn distributed_program_has_root_edges() {
        let p = zoo::distributed_simple_cholesky();
        let layout = InstanceLayout::new(&p);
        // positions: e(root,1), e(root,0), I2, J, I
        assert_eq!(layout.len(), 5);
        assert_eq!(layout.edge_position(None, 0), Some(1));
        assert_eq!(layout.edge_position(None, 1), Some(0));
        let s1 = stmt_by_name(&p, "S1");
        let s2 = stmt_by_name(&p, "S2");
        // S1 (first loop): root edge 0 set; sibling subtree padded with 0
        let v1 = layout.instance_vector(s1, &[4]);
        assert_eq!(v1.as_slice(), &[0, 1, 0, 0, 4]);
        let v2 = layout.instance_vector(s2, &[4, 6]);
        assert_eq!(v2.as_slice(), &[1, 0, 4, 6, 0]);
        // execution order: all of loop 1 before all of loop 2
        assert_eq!(lex_cmp(&v1, &v2), Ordering::Less);
    }

    #[test]
    fn padding_is_diagonal_embedding() {
        // §2: "iteration I of statement S3 is mapped to iteration (I, I)"
        let p = zoo::running_example();
        let layout = InstanceLayout::new(&p);
        let s3 = stmt_by_name(&p, "S3");
        let v = layout.instance_vector(s3, &[5]);
        // layout: I, e(I,1), e(I,0), J, e(J,1), e(J,0)
        // S3 is child 1 of I; J position padded with I's value
        let jpos = layout
            .positions()
            .iter()
            .position(|&pp| matches!(pp, Position::Loop(l) if p.loop_decl(l).name == "J"))
            .unwrap();
        assert_eq!(v[jpos], 5);
        assert!(layout.padded_positions(s3).contains(&jpos));
    }
}
