//! The interpreter against the definition it resolves.
//!
//! `define` below is §2 of the paper read off the program text: dynamic
//! instances in execution order, every value through `Aff::eval`, every
//! bound through `Bound::eval_lower`/`eval_upper`, every cell through
//! `ArrayData::get`/`set` — the walker `Interpreter` was before it resolved
//! names ahead of the run. The two must leave the same bits, execute the
//! same number of instances and, on a faulty program, die of the same
//! message; the table at the end covers what the 64-bit rows add.

use inl_codegen::generate_seq;
use inl_core::transform::Transform;
use inl_exec::{Interpreter, Machine};
use inl_fuzz::{arb_inner_loop, arb_program, fuzz_config, fuzz_init};
use inl_ir::{zoo, Aff, Expr, Guard, Node, Program, ProgramBuilder, VarKey};
use inl_linalg::Int;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `p` on `m` by the definition; returns the instances executed.
fn define(p: &Program, m: &mut Machine) -> u64 {
    let (params, mut env) = (m.params().to_vec(), vec![None; p.nloops()]);
    let mut instances = 0;
    define_nodes(p, p.root(), &params, &mut env, m, &mut instances);
    instances
}

fn define_nodes(
    p: &Program,
    nodes: &[Node],
    params: &[Int],
    env: &mut Vec<Option<Int>>,
    m: &mut Machine,
    instances: &mut u64,
) {
    for &n in nodes {
        let look = |v: VarKey| match v {
            VarKey::Param(q) => params[q.0],
            VarKey::Loop(l) => env[l.0].expect("loop variable read outside its loop"),
        };
        match n {
            Node::Loop(l) => {
                let ld = p.loop_decl(l);
                let (lo, hi) = (ld.lower.eval_lower(&look), ld.upper.eval_upper(&look));
                let mut i = lo;
                while i <= hi {
                    env[l.0] = Some(i);
                    define_nodes(p, &ld.children, params, env, m, instances);
                    i += ld.step;
                }
                env[l.0] = None;
            }
            Node::Stmt(s) => {
                let sd = p.stmt_decl(s);
                let holds = |g: &Guard| match g {
                    Guard::Ge(a) => a.eval(&look).signum() >= 0,
                    Guard::Eq(a) => a.eval(&look).is_zero(),
                    Guard::Div(a, k) => a.eval(&look).num() % *k == 0,
                };
                if !sd.guards.iter().all(holds) {
                    continue;
                }
                *instances += 1;
                let value = define_expr(&sd.rhs, &look, m);
                let at = subscripts(&sd.write.idxs, &look);
                m.array_mut(sd.write.array).set(&at, value);
            }
        }
    }
}

fn subscripts(idxs: &[Aff], look: &dyn Fn(VarKey) -> Int) -> Vec<usize> {
    let one = |a: &Aff| {
        let v = a.eval_int(look);
        let v = v.unwrap_or_else(|| panic!("subscript {a:?} not integral"));
        assert!(v >= 0, "negative subscript {v}");
        v as usize
    };
    idxs.iter().map(one).collect()
}

fn define_expr(e: &Expr, look: &dyn Fn(VarKey) -> Int, m: &Machine) -> f64 {
    let of = |x: &Expr| define_expr(x, look, m);
    match e {
        Expr::Const(v) => *v,
        Expr::Index(a) => {
            let r = a.eval(look);
            r.num() as f64 / r.den() as f64
        }
        Expr::Read(acc) => m.array(acc.array).get(&subscripts(&acc.idxs, look)),
        Expr::Neg(x) => -of(x),
        Expr::Sqrt(x) => of(x).sqrt(),
        Expr::Add(a, b) => of(a) + of(b),
        Expr::Sub(a, b) => of(a) - of(b),
        Expr::Mul(a, b) => of(a) * of(b),
        Expr::Div(a, b) => of(a) / of(b),
    }
}

/// Both walkers from the same initial memory: the same bits, the same
/// `exec.instances`.
fn agree(p: &Program, params: &[Int]) -> Result<(), String> {
    let mut by_definition = Machine::new(p, params, &fuzz_init);
    let mut resolved = by_definition.clone();
    let defined = define(p, &mut by_definition);
    let ((), counted) = inl_obs::capture::with(|| Interpreter::new(p).run(&mut resolved));
    let counted = counted.counters.get("exec.instances").copied().unwrap_or(0);
    let at = format!("{} at {params:?}", p.name());
    if counted != defined {
        return Err(format!(
            "{at}: {counted} instances, the definition {defined}"
        ));
    }
    by_definition
        .same_state(&resolved)
        .map_err(|e| format!("{at}: {e}"))
}

#[test]
fn zoo_at_three_sizes() {
    for (_, make) in zoo::ALL {
        let p = make();
        for n in [1, 6, 13] {
            let params: Vec<Int> = (0..p.nparams()).map(|k| n + 2 * k as Int).collect();
            agree(&p, &params).unwrap();
        }
    }
}

/// Scalings and scaled skews of every zoo loop: what the framework accepts
/// comes back with `Div` guards and divisor subscripts (non-unit steps it
/// never writes; `arb_inner_loop` has them).
#[test]
fn non_unimodular_generated_code() {
    let (mut div_guards, mut divisors) = (0, 0);
    for (_, make) in zoo::ALL {
        let p = make();
        let loops: Vec<_> = p.loops().collect();
        for (k, &target) in loops.iter().enumerate() {
            let source = loops[(k + 1) % loops.len()];
            let scale = |factor| Transform::Scale { target, factor };
            let skew = Transform::Skew {
                target,
                source,
                factor: 1,
            };
            for seq in [vec![scale(2)], vec![scale(3)], vec![skew, scale(2)]] {
                let Ok(generated) = generate_seq(&p, &seq) else {
                    continue; // illegal here, or a self-skew
                };
                let g = &generated.program;
                for s in g.stmts().map(|s| g.stmt_decl(s)) {
                    let is_div = |g: &&Guard| matches!(g, Guard::Div(..));
                    div_guards += s.guards.iter().filter(is_div).count();
                    let divided = |a: &&Aff| a.divisor() != 1;
                    divisors += s.write.idxs.iter().filter(divided).count();
                }
                let params: Vec<Int> = (0..g.nparams()).map(|k| 5 + k as Int).collect();
                agree(g, &params).unwrap();
            }
        }
    }
    assert!(
        div_guards > 0 && divisors > 0,
        "{div_guards} Div guards, {divisors} divided subscripts"
    );
}

proptest! {
    #![proptest_config(fuzz_config(64))]

    #[test]
    fn random_imperfect_nests((p, n) in (arb_program(), 1i64..8)) {
        prop_assert_eq!(agree(&p, &[n as Int]), Ok(()));
    }

    #[test]
    fn random_inner_loops((p, n) in arb_inner_loop()) {
        prop_assert_eq!(agree(&p, &[n]), Ok(()));
    }
}

// ------------------------------------------------------------------ edges

const TWO_63: Int = 1 << 63;

/// `do I = lo..hi { X[sub(I, N, M)] = (I − lo) + N }` over `X[extent]`,
/// under the parameters `N`, `M`; unvalidated, so that a faulty subscript
/// gets as far as the walkers. The sum is taken in `f64`: a value cut to its
/// low 64 bits shows in it, where a subscript's wrapped sum would not.
fn one_loop(lo: Aff, hi: Aff, extent: Int, sub: impl Fn(Aff, Aff, Aff) -> Aff) -> Program {
    let mut b = ProgramBuilder::new("edge");
    let (n, m) = (Aff::param(b.param("N")), Aff::param(b.param("M")));
    let x = b.array("X", &[Aff::konst(extent)]);
    b.hloop("I", lo.clone(), hi, |b| {
        let i = Aff::var(b.loop_var("I"));
        let value = Expr::add(Expr::index(i.clone() - lo.clone()), Expr::index(n.clone()));
        b.stmt("S", x, vec![sub(i, n.clone(), m.clone())], value);
    });
    b.finish_unchecked()
}

#[test]
fn values_and_coefficients_beyond_64_bits() {
    let k = Aff::konst;
    // a coefficient of 2⁶⁴: the row has no 64-bit form
    let wide_coefficient = one_loop(k(3), k(3), 8, |i, n, _| (i - n) * (1 << 64) + k(2));
    agree(&wide_coefficient, &[3, 1]).unwrap();
    // parameters of 2⁷⁰ under coefficients of ±1
    let wide_parameters = one_loop(k(1), k(3), 8, |i, n, m| i + n - m);
    agree(&wide_parameters, &[1 << 70, (1 << 70) - 2]).unwrap();
    // 2⁶²·I − 2⁶²·N + 1 at N = 3: each product is past i64, the sum is not
    let wide_products = one_loop(k(3), k(3), 8, |i, n, _| (i - n) * (1 << 62) + k(1));
    agree(&wide_products, &[3, 1]).unwrap();
    // a loop that walks out of the 64-bit range, and one that walks into it
    let leaves = one_loop(k(TWO_63 - 3), k(TWO_63 + 2), 8, |i, _, _| i - k(TWO_63 - 3));
    agree(&leaves, &[1, 1]).unwrap();
    let enters = one_loop(k(-TWO_63 - 3), k(-TWO_63 + 2), 8, |i, n, _| {
        i + k(TWO_63 - 1) + n * 4
    });
    agree(&enters, &[1, 1]).unwrap();
}

/// 64-bit values again after a loop that had none: a wide loop around a
/// narrow one, then a narrow sibling.
#[test]
fn the_narrow_rows_resume_after_a_wide_loop() {
    let mut b = ProgramBuilder::new("resume");
    b.param("N");
    let x = b.array("X", &[Aff::konst(4), Aff::konst(4)]);
    b.hloop("I", Aff::konst(TWO_63 - 1), Aff::konst(TWO_63 + 1), |b| {
        let wide = Aff::var(b.loop_var("I"));
        let i = wide.clone() - Aff::konst(TWO_63 - 1);
        b.hloop("J", Aff::konst(0), Aff::konst(2), |b| {
            let j = Aff::var(b.loop_var("J"));
            let value = Expr::index(wide.clone() + j.clone());
            b.stmt("S1", x, vec![i.clone(), j], value);
        });
    });
    b.hloop("K", Aff::konst(0), Aff::konst(3), |b| {
        let k = Aff::var(b.loop_var("K"));
        let diagonal = Expr::read(x, vec![k.clone(), k.clone()]);
        b.stmt("S2", x, vec![k, Aff::konst(3)], diagonal);
    });
    agree(&b.finish(), &[1]).unwrap();
}

/// The message `run` dies of.
fn fault(run: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the program is faulty");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |s| s.to_string()),
    }
}

#[test]
fn faults_are_the_definitions() {
    let k = Aff::konst;
    let mut two_dims = ProgramBuilder::new("oob");
    let n = Aff::param(two_dims.param("N"));
    let x = two_dims.array("X", &[k(4), k(6)]);
    two_dims.stmt("S", x, vec![k(9), n - k(3)], Expr::konst(0.0));
    let table = [
        (
            one_loop(k(1), k(3), 8, |i, _, _| i - k(2)),
            "negative subscript -1",
        ),
        (
            one_loop(k(1), k(3), 3, |i, _, _| i),
            "array X: index 3 out of bounds 3 in dimension 0",
        ),
        // X[9, N − 3] over X[4, 6]: the sign of every subscript is looked at
        // before the extent of any
        (two_dims.finish_unchecked(), "negative subscript -2"),
        (
            one_loop(k(1), k(3), 8, |i, _, _| i.exact_div(2)),
            "subscript (L0)/2 not integral",
        ),
        // 2¹²⁶·I at I = 2: past i128, from a row with no 64-bit form
        (
            one_loop(k(2), k(2), 8, |i, _, _| i * (1 << 126)),
            "aff eval overflow",
        ),
        // 2⁶²·I at I = 2¹⁰⁰: past i128, from a narrow row over a wide value
        (
            one_loop(k(1 << 100), k(1 << 100), 8, |i, _, _| i * (1 << 62)),
            "aff eval overflow",
        ),
    ];
    for (p, expected) in &table {
        let params = [1, 1][..p.nparams()].to_vec();
        let m = Machine::new(p, &params, &fuzz_init);
        let defined = fault(|| {
            define(p, &mut m.clone());
        });
        let resolved = fault(|| Interpreter::new(p).run(&mut m.clone()));
        assert_eq!(resolved, defined);
        assert!(resolved.contains(expected), "{resolved:?} for {expected:?}");
    }
}

/// `v as usize` used to fold a subscript of 2⁶⁴ + 1 onto cell 1.
#[test]
#[should_panic(expected = "array X: index 18446744073709551617 out of bounds 8 in dimension 0")]
fn a_subscript_beyond_usize_is_out_of_bounds() {
    let at = Aff::konst((1 << 64) + 1);
    let p = one_loop(at.clone(), at, 8, |i, _, _| i);
    Interpreter::new(&p).run(&mut Machine::new(&p, &[1, 1], &fuzz_init));
}

#[test]
#[should_panic(expected = "loop variable read outside its loop")]
fn a_loop_variable_outside_its_loop_is_refused_unrun() {
    // `I`'s own upper bound reads `I`; the loop above it never iterates
    let mut b = ProgramBuilder::new("escaped");
    b.param("N");
    let x = b.array("X", &[Aff::konst(4)]);
    b.hloop("Z", Aff::konst(1), Aff::konst(0), |b| {
        let mut i = None;
        b.hloop("I", Aff::konst(1), Aff::konst(2), |b| {
            i = Some(Aff::var(b.loop_var("I")));
            b.stmt("S", x, vec![Aff::konst(0)], Expr::konst(0.0));
        });
        b.stmt("T", x, vec![i.unwrap()], Expr::konst(0.0));
    });
    let _ = Interpreter::new(&b.finish_unchecked());
}

#[test]
#[should_panic(expected = "array X: arity mismatch")]
fn a_subscript_count_that_is_not_the_arity_is_refused_unrun() {
    let mut b = ProgramBuilder::new("arity");
    b.param("N");
    let x = b.array("X", &[Aff::konst(4), Aff::konst(4)]);
    b.hloop("Z", Aff::konst(1), Aff::konst(0), |b| {
        b.stmt("S", x, vec![Aff::konst(5)], Expr::konst(0.0));
    });
    let _ = Interpreter::new(&b.finish_unchecked());
}

/// One `Interpreter`, three runs: hooked, bare, hooked again. The hook sees
/// every instance under its loops' values and nothing of the bare run.
#[test]
fn a_hook_set_and_unset_between_runs() {
    let p = zoo::simple_cholesky();
    let seen = std::cell::RefCell::new(Vec::new());
    let mut interp = Interpreter::new(&p);
    let fresh = Machine::new(&p, &[4], &fuzz_init);
    let run = |interp: &mut Interpreter<'_>| {
        let mut m = fresh.clone();
        interp.run(&mut m);
        m
    };
    interp.on_instance = Some(Box::new(|s, env| seen.borrow_mut().push((s, env.to_vec()))));
    let first = run(&mut interp);
    let hooked = seen.borrow().clone();
    assert_eq!(hooked.len(), 10);
    assert_eq!(hooked[0].1, vec![Some(1), None]);
    assert_eq!(hooked[1].1, vec![Some(1), Some(2)]);
    interp.on_instance = None;
    first.same_state(&run(&mut interp)).unwrap();
    assert_eq!(seen.borrow().len(), 10);
    interp.on_instance = Some(Box::new(|s, env| seen.borrow_mut().push((s, env.to_vec()))));
    first.same_state(&run(&mut interp)).unwrap();
    assert_eq!(seen.borrow()[10..], hooked[..]);
}
