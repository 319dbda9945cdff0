//! Robustness tests for the execution layer: non-unit steps, guard
//! combinations, deep nests, empty programs, and executor agreement.

use inl_exec::{run_fresh, run_traced, Interpreter, Machine, VmRunner};
use inl_ir::{zoo, Aff, Bound, Expr, Guard, ProgramBuilder};

#[test]
fn non_unit_steps_execute_correct_lattice() {
    // do I = 1..N step 3: X(I) = 1
    let mut b = ProgramBuilder::new("stepped");
    let n = b.param("N");
    let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
    b.loop_full(
        "I",
        Bound::single(Aff::konst(1)),
        Bound::single(Aff::param(n)),
        3,
        false,
        |b| {
            let i = b.loop_var("I");
            b.stmt("S", x, vec![Aff::var(i)], Expr::konst(1.0));
        },
    );
    let p = b.finish();
    let m = run_fresh(&p, &[10], &|_, _| 0.0);
    let x = m.array_by_name("X").unwrap();
    for (i, &v) in x.iter().enumerate() {
        let expect = i >= 1 && (i - 1) % 3 == 0;
        assert_eq!(v == 1.0, expect, "index {i}");
    }
}

#[test]
fn stacked_guards_all_must_hold() {
    // X(I) = 1 iff I >= 3 AND I even
    let mut b = ProgramBuilder::new("guards");
    let n = b.param("N");
    let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.stmt_guarded(
            "S",
            x,
            vec![Aff::var(i)],
            Expr::konst(1.0),
            vec![
                Guard::Ge(Aff::var(i) - Aff::konst(3)),
                Guard::Div(Aff::var(i), 2),
            ],
        );
    });
    let p = b.finish();
    let m = run_fresh(&p, &[8], &|_, _| 0.0);
    let x = m.array_by_name("X").unwrap();
    assert_eq!(x, &[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
}

#[test]
fn three_dimensional_arrays() {
    let mut b = ProgramBuilder::new("cube");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(1);
    let a = b.array("A", &[ext.clone(), ext.clone(), ext.clone()]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.hloop("K", Aff::konst(1), Aff::param(n), |b| {
                let k = b.loop_var("K");
                b.stmt(
                    "S",
                    a,
                    vec![Aff::var(i), Aff::var(j), Aff::var(k)],
                    Expr::index(Aff::var(i) * 100 + Aff::var(j) * 10 + Aff::var(k)),
                );
            });
        });
    });
    let p = b.finish();
    let m = run_fresh(&p, &[3], &|_, _| -1.0);
    let a = m.arrays().iter().find(|a| a.name == "A").unwrap();
    assert_eq!(a.get(&[2, 3, 1]), 231.0);
    assert_eq!(a.get(&[0, 0, 0]), -1.0); // untouched boundary
}

#[test]
fn executors_agree_on_every_zoo_program() {
    // sequential interpreter vs. the VM at two threads (no loop is marked,
    // so every loop runs in order): bitwise identical across the zoo
    for (_, make) in zoo::ALL {
        let p = make();
        let params: Vec<i128> = vec![5; p.nparams()];
        let init = |_: &str, idx: &[usize]| (idx.iter().sum::<usize>() + 2) as f64 * 1.75;
        let mut a = Machine::new(&p, &params, &init);
        Interpreter::new(&p).run(&mut a);
        let mut b = Machine::new(&p, &params, &init);
        VmRunner::new(&p).run_threads(&mut b, 2);
        a.same_state(&b)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
    }
}

#[test]
fn trace_multiset_invariant_under_legal_transform() {
    // a legal transformation permutes the dynamic instances but never adds
    // or drops one
    use inl_core::transform::Transform;
    let p = zoo::wavefront();
    let loops: Vec<_> = p.loops().collect();
    let result = inl_codegen::generate_seq(
        &p,
        &[Transform::Skew {
            target: loops[0],
            source: loops[1],
            factor: 1,
        }],
    )
    .expect("codegen");
    let init = |_: &str, _: &[usize]| 1.0;
    let (_, t1) = run_traced(&p, &[5], &init);
    let (_, t2) = run_traced(&result.program, &[5], &init);
    assert_eq!(t1.len(), t2.len());
    // statement names with iteration multisets must coincide after mapping
    // target iterations back is nontrivial; counts per statement suffice
    for s in p.stmts() {
        let name = &p.stmt_decl(s).name;
        let c1 = t1.count_stmt(s);
        let s2 = result.stmt_map[s.0];
        let c2 = t2.count_stmt(s2);
        assert_eq!(c1, c2, "instance count of {name}");
    }
}

#[test]
fn zero_iteration_programs() {
    // loops whose ranges are empty at runtime execute nothing, including
    // guards and subscripts that would be out of bounds if evaluated
    let mut b = ProgramBuilder::new("empty");
    let n = b.param("N");
    let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::param(n) + Aff::konst(5), Aff::param(n), |b| {
        let i = b.loop_var("I");
        // would be out of bounds if executed
        b.stmt(
            "S",
            x,
            vec![Aff::var(i) + Aff::konst(100)],
            Expr::konst(1.0),
        );
    });
    let p = b.finish_unchecked();
    let m = run_fresh(&p, &[3], &|_, _| 7.0);
    assert!(m.array_by_name("X").unwrap().iter().all(|&v| v == 7.0));
}
