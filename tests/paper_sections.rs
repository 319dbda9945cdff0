//! Integration tests reproducing the paper's worked examples end-to-end
//! (experiments E1–E5 of DESIGN.md), exercising the public API exactly the
//! way the paper's prose walks through them.

use inl::core::depend::{analyze, DepEntry};
use inl::core::instance::InstanceLayout;
use inl::core::legal::check_legal;
use inl::core::transform::Transform;
use inl::exec::{equivalent, run_traced};
use inl::ir::{zoo, LoopId, Program, StmtId};
use inl::linalg::{lex::lex_cmp, IMat};
use std::cmp::Ordering;

fn looop(p: &Program, name: &str) -> LoopId {
    p.loops().find(|&l| p.loop_decl(l).name == name).unwrap()
}
fn stmt(p: &Program, name: &str) -> StmtId {
    p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
}

// ---------------------------------------------------------------- E1 (§2)

#[test]
fn e1_instance_vectors_encode_program_order() {
    // Figure 1/2: the §2 running example's dynamic instances, enumerated by
    // actually executing the program, map to strictly increasing instance
    // vectors (Theorem 1), and L is injective.
    let p = zoo::running_example();
    let layout = InstanceLayout::new(&p);
    let (_, trace) = run_traced(&p, &[5], &|_, _| 0.0);
    let vectors: Vec<_> = trace
        .instances
        .iter()
        .map(|r| layout.instance_vector(r.stmt, &r.iter))
        .collect();
    assert!(!vectors.is_empty());
    for w in vectors.windows(2) {
        assert_eq!(lex_cmp(&w[0], &w[1]), Ordering::Less);
    }
    // injectivity over the executed set
    let mut sorted: Vec<_> = vectors.iter().map(|v| v.as_slice().to_vec()).collect();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), vectors.len(), "L must be one-to-one");
}

#[test]
fn e1_l_inverse_roundtrips_execution() {
    // Definition 5: L⁻¹ recovers exactly the instance that executed.
    let p = zoo::running_example();
    let layout = InstanceLayout::new(&p);
    let (_, trace) = run_traced(&p, &[4], &|_, _| 0.0);
    for r in &trace.instances {
        let iv = layout.instance_vector(r.stmt, &r.iter);
        let (s, iter) = layout.decode(&p, &iv).expect("decodable");
        assert_eq!(s, r.stmt);
        assert_eq!(iter, r.iter);
    }
}

// ---------------------------------------------------------------- E2 (§2.2)

#[test]
fn e2_epsilon_optimization_for_perfect_nests() {
    // Figure 3: with the single-edge optimization, instance vectors of a
    // perfectly nested loop are its iteration vectors.
    let p = zoo::perfect_nest();
    let layout = InstanceLayout::new(&p);
    assert_eq!(layout.len(), 2, "no edge positions remain");
    let s1 = p.stmts().next().unwrap();
    assert_eq!(layout.instance_vector(s1, &[2, 9]).as_slice(), &[2, 9]);
}

// ---------------------------------------------------------------- E3 (§3)

#[test]
fn e3_dependence_matrix_of_simplified_cholesky() {
    // §3: the flow dependence from S1 to S2 is [0, 1, -1, +]'.
    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let dm = analyze(&p, &layout).expect("analysis");
    assert!(dm.has_column(&[
        DepEntry::dist(0),
        DepEntry::dist(1),
        DepEntry::dist(-1),
        DepEntry::plus()
    ]));
    // every dependence keeps the retained polyhedron non-empty
    for d in dm.deps.iter() {
        assert!(
            inl::poly::is_empty(&d.system) != inl::poly::Feasibility::Empty,
            "stored dependence with empty polyhedron"
        );
    }
}

// ---------------------------------------------------------------- E4 (§4)

#[test]
fn e4_transformation_matrices_act_as_printed() {
    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let (i, j) = (looop(&p, "I"), looop(&p, "J"));
    let (s1, s2) = (stmt(&p, "S1"), stmt(&p, "S2"));

    // permutation (§4.1): S2's [I,1,0,J] -> [J,1,0,I]
    let perm = Transform::Interchange(i, j).matrix(&p, &layout);
    assert_eq!(
        perm.mul_vec(&layout.instance_vector(s2, &[3, 8]))
            .as_slice(),
        &[8, 1, 0, 3]
    );
    // skewing (§4.1): S1 lands at outer 0
    let skew = Transform::Skew {
        target: i,
        source: j,
        factor: -1,
    }
    .matrix(&p, &layout);
    assert_eq!(skew.mul_vec(&layout.instance_vector(s1, &[6]))[0], 0);
    // statement reordering (§4.2) is the printed matrix
    let reorder = Transform::ReorderChildren {
        parent: Some(i),
        perm: vec![1, 0],
    }
    .matrix(&p, &layout);
    assert_eq!(
        reorder,
        IMat::from_rows(&[
            &[1, 0, 0, 0][..],
            &[0, 0, 1, 0],
            &[0, 1, 0, 0],
            &[0, 0, 0, 1]
        ])
    );
    // alignment (§4.3): S1's I entry shifts, S2 untouched
    let align = Transform::Align {
        stmt: s1,
        looop: i,
        offset: 1,
    }
    .matrix(&p, &layout);
    assert_eq!(align.mul_vec(&layout.instance_vector(s1, &[4]))[0], 5);
    let v2 = layout.instance_vector(s2, &[4, 6]);
    assert_eq!(align.mul_vec(&v2), v2);
}

#[test]
fn e4_distribution_and_jamming_matrices() {
    // §4.2: distribution is a 5×4 matrix; jamming its 4×5 inverse action.
    let p = zoo::simple_cholesky();
    let layout = InstanceLayout::new(&p);
    let i = looop(&p, "I");
    let d = inl::core::structural::distribute(&p, &layout, i, 1).expect("distribute");
    assert_eq!((d.matrix.nrows(), d.matrix.ncols()), (5, 4));
    let j = inl::core::structural::jam(&d.target, &d.target_layout, None, 0).expect("jam");
    assert_eq!((j.matrix.nrows(), j.matrix.ncols()), (4, 5));
    // and Definition 6 on the distribution matrix agrees with the paper:
    // distribution is illegal for Cholesky
    let deps = analyze(&p, &layout).expect("analysis");
    let legal = inl::core::legal::check_structural(&p, &layout, &deps, &d, "dist(I@1)");
    assert!(!legal.expect("legality"));
}

// ---------------------------------------------------------------- E5 (§5)

#[test]
fn e5_skew_codegen_executes_identically() {
    // §5.4–5.5 worked example, end to end through the public API.
    let p = zoo::augmentation_example();
    let result = inl::codegen::generate_seq(
        &p,
        &[Transform::Skew {
            target: looop(&p, "I"),
            source: looop(&p, "J"),
            factor: -1,
        }],
    )
    .expect("codegen");
    for n in [1, 2, 4, 9] {
        equivalent(&p, &result.program, &[n], &|_, _| 0.5)
            .unwrap_or_else(|e| panic!("N={n}: {e}\n{}", result.program.to_pseudocode()));
    }
    // the augmented loop exists: S1 is nested two deep in the target
    let s1_new = result.stmt_map[stmt(&p, "S1").0];
    assert_eq!(result.program.loops_surrounding(s1_new).len(), 2);
}

#[test]
fn e5_legality_report_flags_unsatisfied_self_deps() {
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
    assert!(!report.unsatisfied_self.is_empty());
}
