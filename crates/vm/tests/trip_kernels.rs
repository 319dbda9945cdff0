//! Trip kernels against the interpreter: an innermost loop the VM runs as
//! a kernel — in columns or scalar — must leave the memory image, the
//! counters, the profile and the loop's registers exactly as the
//! dispatcher would. Nothing switches kernels off, so the oracle is the
//! interpreter (bitwise, `Machine::same_state`) and, for counts, the
//! dispatcher's closed form.

use inl_exec::{Interpreter, Machine, VmRunner};
use inl_ir::{Aff, Bound, Expr, Guard, LoopId, Program, ProgramBuilder};
use inl_linalg::Int;
use inl_vm::bytecode::{Slot, KERNEL_SLOTS};
use inl_vm::run::{trips_are_independent, COLUMN};
use inl_vm::{exec_range, profile, SharedBuf};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic, index- and array-dependent, never zero, and in sevenths:
/// every sum and product rounds, so a changed operation order shows in the
/// bits (`zoo::spd_init` fills a vector with small integers, whose sums are
/// exact in any order).
fn init(name: &str, idx: &[usize]) -> f64 {
    let h = idx
        .iter()
        .fold(name.len() as u64, |h, &i| h * 31 + i as u64 + 1);
    ((h % 97) as f64 + 1.0) / 7.0
}

/// Run `p` on both backends from copies of `start`; the first difference.
fn agree_from(p: &Program, runner: &VmRunner, start: &Machine) -> Result<(), String> {
    let (mut interp, mut vm) = (start.clone(), start.clone());
    Interpreter::new(p).run(&mut interp);
    runner.run(&mut vm);
    interp.same_state(&vm)
}

fn agree(p: &Program, runner: &VmRunner, n: Int) -> Result<(), String> {
    agree_from(p, runner, &Machine::new(p, &[n], &init))
}

// ---------------------------------------------------------------------
// (a) the adversarial table
// ---------------------------------------------------------------------

/// `do J = 1..N step s`
/// `  S1: A[wa·J+wc] = A[ra·J+rc] + 0.5·B[sa·J+sc]`
/// `  S2: B[J] = 0.25·A[sa·J+sc] + B[J−1]` (when `second`)
/// over two arrays of `4N+16` cells, every subscript shifted by `2N+8` so
/// that coefficients down to −2 stay in range.
fn adversarial_body(
    step: Int,
    [(wa, wc), (ra, rc), (sa, sc)]: [(Int, Int); 3],
    second: bool,
) -> Program {
    let mut b = ProgramBuilder::new("adversarial");
    let n = b.param("N");
    let ext = [Aff::param(n) * 4 + Aff::konst(16)];
    let a = b.array("A", &ext);
    let bb = b.array("B", &ext);
    let (lo, hi) = (Bound::single(Aff::konst(1)), Bound::single(Aff::param(n)));
    b.loop_full("J", lo, hi, step, false, |b| {
        let j = b.loop_var("J");
        let at = |coef: Int, off: Int| {
            vec![Aff::var(j) * coef + Aff::param(n) * 2 + Aff::konst(8 + off)]
        };
        b.stmt(
            "S1",
            a,
            at(wa, wc),
            Expr::add(
                Expr::read(a, at(ra, rc)),
                Expr::mul(Expr::konst(0.5), Expr::read(bb, at(sa, sc))),
            ),
        );
        if second {
            b.stmt(
                "S2",
                bb,
                at(1, 0),
                Expr::add(
                    Expr::mul(Expr::konst(0.25), Expr::read(a, at(sa, sc))),
                    Expr::read(bb, at(1, -1)),
                ),
            );
        }
    });
    b.finish()
}

/// 15 000 bodies — carried flow, anti and output dependences at distances
/// 1 to 3, reductions (`wa = 0`), reversed strides, interleaved spans that
/// never alias, dependences between the two statements in both directions
/// — at six trip counts around the column width: every one must leave the
/// interpreter's memory image, whichever executor its spans select. (With
/// the classifier forced to "columns", 26 932 of the 90 000 cases differ.)
/// An unoptimised build walks every seventh body.
#[test]
fn adversarial_bodies_match_the_interpreter_at_every_trip_count() {
    const SIZES: [Int; 6] = [
        1,
        3,
        COLUMN as Int - 1,
        COLUMN as Int,
        COLUMN as Int + 1,
        300,
    ];
    // Every body declares the same two arrays: one initial image per size.
    let first_body = adversarial_body(1, [(0, 0); 3], false);
    let starts = SIZES.map(|n| Machine::new(&first_body, &[n], &init));
    let (mut bodies, mut cases, mut trips) = (0u64, 0u64, 0u64);
    let mut mismatches = Vec::new();
    let ((), seen) = inl_obs::capture::with(|| {
        for step in [1, 2] {
            for coefs in 0..125 {
                let (wa, ra, sa) = (coefs / 25 - 2, coefs / 5 % 5 - 2, coefs % 5 - 2);
                for offs in 0..30 {
                    let wc = offs / 15;
                    let rc = [-2, -1, 0, 1, 3][(offs / 3 % 5) as usize];
                    let sc = [-1, 0, 2][(offs % 3) as usize];
                    for second in [false, true] {
                        bodies += 1;
                        if cfg!(debug_assertions) && bodies % 7 != 0 {
                            continue;
                        }
                        let shape = [(wa, wc), (ra, rc), (sa, sc)];
                        let p = adversarial_body(step, shape, second);
                        let runner = VmRunner::new(&p);
                        for (n, start) in SIZES.iter().zip(&starts) {
                            cases += 1;
                            trips += ((n - 1) / step + 1) as u64;
                            if let Err(e) = agree_from(&p, &runner, start) {
                                mismatches
                                    .push(format!("step {step} {shape:?} S2 {second} N {n}: {e}"));
                            }
                        }
                    }
                }
            }
        }
    });
    assert_eq!(bodies, 15_000);
    assert!(cfg!(debug_assertions) || cases == 90_000);
    assert!(
        mismatches.is_empty(),
        "{} of {cases} cases differ, first: {}",
        mismatches.len(),
        mismatches[0]
    );
    // Every trip ran in a kernel, and the table reaches both executors.
    let (columns, scalar) = (
        seen.counters["vm.trips.columns"],
        seen.counters["vm.trips.scalar"],
    );
    assert_eq!(columns + scalar, trips);
    assert!(
        columns > trips / 10 && scalar > trips / 10,
        "{columns} columns, {scalar} scalar"
    );
}

// ---------------------------------------------------------------------
// (b) the classifier on hand-built slots
// ---------------------------------------------------------------------

/// Classify `(array, first offset, delta, stored)` slots over `trips` trips.
fn independent(slots: &[(u32, i64, i64, bool)], trips: i64) -> bool {
    let built: Vec<Slot> = slots
        .iter()
        .map(|&(array, _, delta, stored)| Slot {
            acc: 0,
            array,
            delta,
            stored,
        })
        .collect();
    let first: Vec<i64> = slots.iter().map(|s| s.1).collect();
    let last: Vec<i64> = slots.iter().map(|s| s.1 + (trips - 1) * s.2).collect();
    trips_are_independent(&built, &first, &last)
}

#[test]
fn classifier_picks_columns_only_when_no_trip_touches_anothers_cells() {
    // A[J] = f(A[J]): the load is the stored cell itself, trip for trip.
    assert!(independent(&[(0, 10, 1, false), (0, 10, 1, true)], 100));
    // A[c] = …: every trip stores the same cell.
    assert!(!independent(&[(0, 5, 0, true), (1, 10, 1, false)], 100));
    // A[J] = f(A[J−1]): a trip reads what the previous one stored.
    assert!(!independent(&[(0, 10, 1, true), (0, 9, 1, false)], 100));
    // … and the same two spans on different arrays never meet.
    assert!(independent(&[(0, 10, 1, true), (1, 9, 1, false)], 100));
    // Same array, disjoint spans; a reversed stride spans the same cells.
    assert!(independent(&[(0, 10, 1, true), (0, 110, 1, false)], 100));
    assert!(!independent(&[(0, 10, 1, true), (0, 109, 1, false)], 100));
    assert!(independent(&[(0, 109, -1, true), (0, 110, 1, false)], 100));
    assert!(!independent(&[(0, 109, -1, true), (0, 10, 1, false)], 100));
    // Same first cell, another stride: the spans overlap, not identical.
    assert!(!independent(&[(0, 10, 1, true), (0, 10, 2, false)], 100));
    // A[2J] against A[2J+1] never alias, but their spans interleave: the
    // rule looks at spans only and stays scalar.
    assert!(!independent(&[(0, 10, 2, true), (0, 11, 2, false)], 100));
    // Two stored slots are each checked against the other.
    assert!(independent(&[(0, 10, 1, true), (0, 200, 1, true)], 100));
    assert!(!independent(&[(0, 10, 1, true), (0, 12, 1, true)], 100));
    // Loads alone are independent whatever they overlap.
    assert!(independent(&[(0, 5, 0, false), (0, 5, 1, false)], 100));
    assert!(independent(&[], 100));
}

// ---------------------------------------------------------------------
// (c) the hoisted segment check
// ---------------------------------------------------------------------

/// `do J = lo..hi: A[J + off] = 1` with `A` of `N+1` cells followed by `B`,
/// so that an offset past `A` is still inside the buffer: only the segment
/// assert can catch it.
fn fill_loop(lo: Int, hi_past_n: Int, off: Int) -> Program {
    let mut b = ProgramBuilder::new("fill");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    b.array("B", &[Aff::param(n) * 200]);
    b.hloop(
        "J",
        Aff::konst(lo),
        Aff::param(n) + Aff::konst(hi_past_n),
        |b| {
            let j = b.loop_var("J");
            b.stmt(
                "S",
                a,
                vec![Aff::var(j) + Aff::konst(off)],
                Expr::konst(1.0),
            );
        },
    );
    b.finish()
}

#[test]
fn out_of_segment_last_trip_panics_before_any_trip_runs() {
    // J = 1..N+5 over A[0..=N]: the first trip is inside, the last is not.
    let p = fill_loop(1, 5, 0);
    let cp = inl_vm::compile(&p);
    let bp = cp.bind(&[10]);
    assert!(bp.kernels[0].is_some());
    let mut buf = vec![7.0; bp.total_len];
    let err = catch_unwind(AssertUnwindSafe(|| inl_vm::run(&bp, &mut buf)))
        .expect_err("the last trip is outside A");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or(err.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("flat access outside its array segment"),
        "{msg}"
    );
    assert!(buf.iter().all(|&v| v == 7.0), "a trip ran before the check");
}

#[test]
fn empty_range_runs_nothing_and_asserts_nothing() {
    // J = 5..N−3 at N = 4 is empty, and A[J + 1000] would be far outside.
    let p = fill_loop(5, -3, 1000);
    let cp = inl_vm::compile(&p);
    let bp = cp.bind(&[4]);
    assert!(bp.kernels[0].is_some());
    let mut buf = vec![7.0; bp.total_len];
    let ((), seen) = inl_obs::capture::with(|| inl_vm::run(&bp, &mut buf));
    assert!(buf.iter().all(|&v| v == 7.0));
    assert_eq!(seen.counters.get("vm.instrs"), Some(&1)); // the header
    assert_eq!(seen.counters.get("vm.instances"), None);
}

// ---------------------------------------------------------------------
// (d) counters and profile equal the dispatcher's closed form
// (e) the loop's registers after the last trip
// ---------------------------------------------------------------------

/// `do I = 1..4 { do J = 2..N step 2 { S1: X[I,J] = X[I,J] + Y[I,J]·2;
/// S2: Y[I,J] = X[I,J] + carry } }` where `carry` is `Y[I,J−2]` (what the
/// previous trip of the step-2 loop stored: scalar) or `Y[I,J]` (columns).
fn two_statement_nest(recurrence: bool) -> Program {
    let mut b = ProgramBuilder::new("nest");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(3);
    let x = b.array("X", &[Aff::konst(5), ext.clone()]);
    let y = b.array("Y", &[Aff::konst(5), ext]);
    b.hloop("I", Aff::konst(1), Aff::konst(4), |b| {
        let i = b.loop_var("I");
        let (lo, hi) = (Bound::single(Aff::konst(2)), Bound::single(Aff::param(n)));
        b.loop_full("J", lo, hi, 2, false, |b| {
            let j = b.loop_var("J");
            let at = |off: Int| vec![Aff::var(i), Aff::var(j) + Aff::konst(off)];
            b.stmt(
                "S1",
                x,
                at(0),
                Expr::add(
                    Expr::read(x, at(0)),
                    Expr::mul(Expr::read(y, at(0)), Expr::konst(2.0)),
                ),
            );
            let carry = if recurrence { at(-2) } else { at(0) };
            b.stmt(
                "S2",
                y,
                at(0),
                Expr::add(Expr::read(x, at(0)), Expr::read(y, carry)),
            );
        });
    });
    b.finish()
}

#[test]
fn counters_and_profile_equal_the_dispatchers_closed_form() {
    for (recurrence, mode) in [(true, "scalar"), (false, "columns")] {
        let p = two_statement_nest(recurrence);
        let n = 2 * COLUMN as Int + 77; // J = 2, 4, …: more than one column
        let trips = ((n - 2) / 2 + 1) as u64;
        let cp = inl_vm::compile(&p);
        let bp = cp.bind(&[n]);
        let (outer, inner) = (
            *cp.loop_meta(LoopId(0)).unwrap(),
            *cp.loop_meta(LoopId(1)).unwrap(),
        );
        assert!(bp.kernels[0].is_none(), "I holds a loop");
        assert!(bp.kernels[1].is_some());
        let body_len = (inner.body.1 - inner.body.0) as u64;

        let mut buf = vec![1.5; bp.total_len];
        profile::set_enabled(true);
        let ((), seen) = inl_obs::capture::with(|| inl_vm::run(&bp, &mut buf));
        profile::set_enabled(false);

        // I's header, then per I trip: J's header, J's trips, I's latch.
        let instrs = 1 + 4 * (1 + trips * (body_len + 1) + 1);
        assert_eq!(seen.counters["vm.instrs"], instrs);
        assert_eq!(seen.counters["vm.instances"], 4 * trips * 2);
        let other = if recurrence { "columns" } else { "scalar" };
        assert_eq!(
            seen.counters[format!("vm.trips.{mode}").as_str()],
            4 * trips
        );
        assert!(!seen
            .counters
            .contains_key(format!("vm.trips.{other}").as_str()));

        let counts = profile::pc_counts(&cp).expect("profiled");
        assert_eq!(counts.iter().sum::<u64>(), instrs);
        for pc in 0..cp.ninstrs() as u32 {
            let expected = match pc {
                _ if pc == outer.header => 1,
                _ if pc == inner.header || pc == inner.exit => 4, // J's header, I's latch
                _ => 4 * trips,                                   // J's body and latch
            };
            assert_eq!(counts[pc as usize], expected, "{mode}: pc {pc}");
        }
        let loops = profile::loop_profiles(&cp, Some(&p), &counts);
        let by_name = |name: &str| loops.iter().find(|l| l.name == name).unwrap();
        assert_eq!(by_name("I").mode(), "dispatch");
        let j = by_name("J");
        assert_eq!(
            (j.mode(), j.header_execs, j.iterations),
            (mode, 4, 4 * trips)
        );
        assert_eq!(j.trips_columns + j.trips_scalar, 4 * trips);
        let tables = profile::render_tables(&cp, Some(&p));
        assert!(tables.contains("mode") && tables.contains(mode), "{tables}");
    }
}

#[test]
fn loop_registers_hold_the_last_trip_after_a_kernel() {
    for recurrence in [true, false] {
        let p = two_statement_nest(recurrence);
        let cp = inl_vm::compile(&p);
        // odd N: the bound is not itself an iteration of the step-2 loop
        for n in [2, 3, 9, 2 * COLUMN as Int + 77] {
            let bp = cp.bind(&[n]);
            let inner = *cp.loop_meta(LoopId(1)).unwrap();
            let mut buf = vec![1.5; bp.total_len];
            let mut st = bp.new_state();
            st.iregs[cp.loop_meta(LoopId(0)).unwrap().var as usize] = 3; // I
            exec_range(
                &bp,
                &mut st,
                &SharedBuf::new(&mut buf),
                inner.header,
                inner.exit,
            );
            let last = if n % 2 == 0 { n } else { n - 1 };
            assert_eq!(st.iregs[inner.var as usize], last as i64);
            assert_eq!(st.his[1], n as i64);
        }
    }
}

// ---------------------------------------------------------------------
// which loops become kernels
// ---------------------------------------------------------------------

/// `do J = 2..N step s: X[J] = rhs`, optionally guarded.
fn one_statement(
    step: Int,
    rhs: impl FnOnce(inl_ir::ArrayId, Aff) -> Expr,
    guards: Vec<Guard>,
) -> Program {
    let mut b = ProgramBuilder::new("one");
    let n = b.param("N");
    let x = b.array("X", &[Aff::param(n) * 2 + Aff::konst(12)]);
    let (lo, hi) = (Bound::single(Aff::konst(2)), Bound::single(Aff::param(n)));
    b.loop_full("J", lo, hi, step, false, |b| {
        let j = Aff::var(b.loop_var("J"));
        b.stmt_guarded("S", x, vec![j.clone()], rhs(x, j), guards);
    });
    b.finish()
}

#[test]
fn only_straight_line_affine_bodies_become_kernels() {
    let kernel_of = |p: &Program| inl_vm::compile(p).bind(&[6]).kernels[0].clone();
    // X[J] + X[J+1] + … : `count` reads, the first of them the stored cell
    let reads = |count: Int| {
        move |x, j: Aff| {
            (1..count).fold(Expr::read(x, vec![j.clone()]), |e, k| {
                Expr::add(e, Expr::read(x, vec![j.clone() + Aff::konst(k)]))
            })
        }
    };
    let always = || vec![Guard::Div(Aff::konst(0), 2)];
    let full = KERNEL_SLOTS as Int;

    // X[J] = X[J] + X[J+1]: three accesses, two distinct.
    let k = kernel_of(&one_statement(2, reads(2), vec![])).expect("straight-line body");
    assert_eq!((k.slots.len(), k.stores, k.ops.len()), (2, 1, 4));
    assert!(k.slots[0].stored && !k.slots[1].stored);
    assert!(
        k.slots.iter().all(|s| s.delta == 2),
        "coefficient 1 × step 2"
    );

    let cases: [(&str, bool, Program); 7] = [
        (
            "as many accesses as slots",
            true,
            one_statement(1, reads(full), vec![]),
        ),
        (
            "one access more",
            false,
            one_statement(1, reads(full + 1), vec![]),
        ),
        (
            "a divisor-1 index value",
            true,
            one_statement(1, |_, j| Expr::index(j * 3), vec![]),
        ),
        // The dispatcher checks an access only when it is performed and
        // keeps the interpreter's exact-rational index semantics.
        (
            "a guard, even one that always holds",
            false,
            one_statement(1, reads(2), always()),
        ),
        (
            "a divisor index value",
            false,
            one_statement(1, |_, j| Expr::index(j.exact_div(2)), vec![]),
        ),
        (
            "a divisor subscript, integral on every trip",
            false,
            one_statement(2, |x, j| Expr::read(x, vec![j.exact_div(2)]), vec![]),
        ),
        (
            "a divisor that normalises away",
            true,
            one_statement(1, |x, j| Expr::read(x, vec![(j * 2).exact_div(2)]), vec![]),
        ),
    ];
    for (what, kernel, p) in &cases {
        assert_eq!(kernel_of(p).is_some(), *kernel, "{what}");
        // Whichever executor runs it, the image is the interpreter's.
        let runner = VmRunner::new(p);
        for n in [1, 6, COLUMN as Int + 3] {
            agree(p, &runner, n).unwrap_or_else(|e| panic!("{what}, N {n}: {e}"));
        }
    }
}
