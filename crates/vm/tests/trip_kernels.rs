//! Trip kernels against the interpreter: an innermost loop the VM runs as
//! a kernel — in columns or carried — or hands back to the dispatcher must
//! leave the memory image, the counters, the profile and the loop's
//! registers exactly as the dispatcher would. Nothing switches kernels off,
//! so the oracle is the interpreter (bitwise, `Machine::same_state`) and,
//! for counts, the dispatcher's closed form.

use inl_exec::{Interpreter, Machine, VmRunner};
use inl_ir::{Aff, ArrayId, Bound, Expr, Guard, LoopId, Program, ProgramBuilder, VarKey};
use inl_linalg::Int;
use inl_vm::bytecode::{Slot, KERNEL_SLOTS};
use inl_vm::run::{carried_slot, trips_are_independent, COLUMN};
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

/// Who may run the trips of a kernel loop entry: the two trip executors, or
/// the dispatcher the header hands them back to.
const LANES: [&str; 3] = ["columns", "carried", "dispatch"];

/// The trips of kernel loops a capture saw run on each of [`LANES`].
fn lanes(seen: &inl_obs::capture::Capture) -> [u64; 3] {
    LANES.map(|lane| {
        let lane = format!("vm.trips.{lane}");
        seen.counters.get(lane.as_str()).copied().unwrap_or(0)
    })
}

// ---------------------------------------------------------------------
// the nests the tables' bodies run in
// ---------------------------------------------------------------------

/// The outer loops both tables also run under ([`inner_range`] says what
/// each does to the entries of `J`).
const OUTERS: [&str; 5] = ["constant", "triangular", "tiled", "empty", "meets"];

/// `O`'s bounds for `OUTERS[kind]`.
fn outer_range(kind: usize, n: Aff) -> (Bound, Bound) {
    let (lo, hi) = match OUTERS[kind] {
        "constant" => (Aff::konst(1), Aff::konst(3)),
        "triangular" => (Aff::konst(0), Aff::konst(3)),
        "tiled" => (Aff::konst(0), n.exact_div(16)),
        _ => (Aff::konst(1), Aff::konst(7)),
    };
    (Bound::single(lo), Bound::single(hi))
}

/// `J`'s bounds at `O = o` for `OUTERS[kind]`, `J` of step `s`, always
/// inside `1..N`: all of it; from `O + 1`, a trip shorter each outer trip;
/// a tile, `max(1, 16·O)..min(16·O + 15, N)`; a few trips, none on the first
/// outer trip and the last, `max(1, 3·O − 9)..min(N, 2·O − 3)`; and `O`, then
/// `8 − O`, trips — 1, 2, 3, 4, 3, 2, 1 — so that spans a short entry keeps
/// apart meet on a longer one, and one header sends entries through columns,
/// then to the dispatcher, then through columns again.
fn inner_range(kind: usize, o: Aff, n: Aff, s: Int) -> (Bound, Bound) {
    let k = Aff::konst;
    let (lo, hi) = match OUTERS[kind] {
        "constant" => (vec![k(1)], vec![n]),
        "triangular" => (vec![o + k(1)], vec![n]),
        "tiled" => (vec![k(1), o.clone() * 16], vec![o * 16 + k(15), n]),
        "empty" => (vec![k(1), o.clone() * 3 - k(9)], vec![n, o * 2 - k(3)]),
        _ => (vec![k(1)], vec![o.clone() * s, (k(8) - o) * s]),
    };
    (Bound { terms: lo }, Bound { terms: hi })
}

/// A program of the tables: `do J = 1..N step s { body }` over two arrays
/// `A`, `B` of `4N+16` cells — or, for `outer = Some(kind)`, that loop under
/// the `O` of `OUTERS[kind]`, with [`inner_range`]'s bounds, over arrays of
/// `4N+32`. `body` gets the arrays, `J`, `N`, and what every subscript adds
/// besides: nothing, or `O` — one cell further each outer trip.
fn table_program(
    name: &str,
    step: Int,
    outer: Option<usize>,
    body: impl FnOnce(&mut ProgramBuilder, [ArrayId; 2], Aff, Aff, Aff),
) -> Program {
    let mut b = ProgramBuilder::new(name);
    let n = Aff::param(b.param("N"));
    let ext = [n.clone() * 4 + Aff::konst(if outer.is_some() { 32 } else { 16 })];
    let arrays = [b.array("A", &ext), b.array("B", &ext)];
    let inner = |b: &mut ProgramBuilder, (lo, hi): (Bound, Bound), shift: Aff| {
        b.loop_full("J", lo, hi, step, false, |b| {
            let j = Aff::var(b.loop_var("J"));
            body(b, arrays, j, n.clone(), shift)
        });
    };
    match outer {
        None => {
            let range = (Bound::single(Aff::konst(1)), Bound::single(n.clone()));
            inner(&mut b, range, Aff::konst(0))
        }
        Some(kind) => {
            let (lo, hi) = outer_range(kind, n.clone());
            b.loop_full("O", lo, hi, 1, false, |b| {
                let o = Aff::var(b.loop_var("O"));
                inner(b, inner_range(kind, o.clone(), n.clone(), step), o)
            });
        }
    }
    b.finish()
}

/// The entries of `J` in a program of the tables under `O` at `N = n`: on
/// each trip of `O`, `(O, J's first value, trips)` — no trip when the entry
/// is empty.
fn entries(p: &Program, n: Int) -> Vec<(Int, Int, Int)> {
    let (o, j) = (p.loop_decl(LoopId(0)), p.loop_decl(LoopId(1)));
    let param = |_: VarKey| n;
    let outer = o.lower.eval_lower(&param)..=o.upper.eval_upper(&param);
    outer
        .map(|ov| {
            let at = |v: VarKey| if matches!(v, VarKey::Param(_)) { n } else { ov };
            let (lo, hi) = (j.lower.eval_lower(&at), j.upper.eval_upper(&at));
            (ov, lo, if lo > hi { 0 } else { (hi - lo) / j.step + 1 })
        })
        .collect()
}

/// A subscript `coef·J + ncoef·N + off` of the tables, before the `2N+8`
/// shift.
type Sub = (Int, Int, Int);

/// Where subscript `sub` is at `J = j`, before the `2N+8` shift.
fn at(sub: Sub, n: Int, j: Int) -> Int {
    sub.0 * j + sub.1 * n + sub.2
}

// ---------------------------------------------------------------------
// (a) the adversarial table
// ---------------------------------------------------------------------

/// `S1: A[wa·J+wc] = A[ra·J+rc] + 0.5·B[sa·J+sc]`
/// `S2: B[J] = 0.25·A[sa·J+sc] + B[J−1]` (when `second`)
/// as a [`table_program`], every subscript shifted by `2N+8` so that
/// coefficients down to −2 stay in range.
fn adversarial_body(
    step: Int,
    [(wa, wc), (ra, rc), (sa, sc)]: [(Int, Int); 3],
    second: bool,
    outer: Option<usize>,
) -> Program {
    table_program("adversarial", step, outer, |b, [a, bb], j, n, shift| {
        let at = |coef: Int, off: Int| {
            vec![j.clone() * coef + shift.clone() + n.clone() * 2 + Aff::konst(8 + off)]
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
    })
}

/// The adversarial table's 15 000 bodies, as `(step, [(wa, wc), (ra, rc),
/// (sa, sc)], second)`: carried flow, anti and output dependences at
/// distances 1 to 3, reductions (`wa = 0`), reversed strides, interleaved
/// spans that never alias, dependences between the two statements in both
/// directions.
fn adversarial_bodies() -> impl Iterator<Item = (Int, [(Int, Int); 3], bool)> {
    let shapes = (0..125).flat_map(|coefs| {
        let (wa, ra, sa) = (coefs / 25 - 2, coefs / 5 % 5 - 2, coefs % 5 - 2);
        (0..30).map(move |offs| {
            let wc = offs / 15;
            let rc = [-2, -1, 0, 1, 3][(offs / 3 % 5) as usize];
            let sc = [-1, 0, 2][(offs % 3) as usize];
            [(wa, wc), (ra, rc), (sa, sc)]
        })
    });
    [1, 2].into_iter().flat_map(move |step| {
        let bodies = shapes
            .clone()
            .flat_map(|shape| [false, true].map(|second| (shape, second)));
        bodies.map(move |(shape, second)| (step, shape, second))
    })
}

/// The 15 000 bodies at six trip counts around the column width: every one
/// must leave the interpreter's memory image, whichever lane its spans
/// select. (With the classifier forced to "columns", 26 932 of the 90 000
/// cases differ.) An unoptimised build walks every seventh body.
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
    let first_body = adversarial_body(1, [(0, 0); 3], false, None);
    let starts = SIZES.map(|n| Machine::new(&first_body, &[n], &init));
    let (mut bodies, mut cases, mut trips) = (0u64, 0u64, 0u64);
    let mut mismatches = Vec::new();
    let ((), seen) = inl_obs::capture::with(|| {
        for (step, shape, second) in adversarial_bodies() {
            bodies += 1;
            if cfg!(debug_assertions) && bodies % 7 != 0 {
                continue;
            }
            let p = adversarial_body(step, shape, second, None);
            let runner = VmRunner::new(&p);
            for (n, start) in SIZES.iter().zip(&starts) {
                cases += 1;
                trips += ((n - 1) / step + 1) as u64;
                if let Err(e) = agree_from(&p, &runner, start) {
                    mismatches.push(format!("step {step} {shape:?} S2 {second} N {n}: {e}"));
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
    // Every trip entered through a kernel header, and the table reaches
    // every lane.
    let lanes = lanes(&seen);
    assert_eq!(lanes.iter().sum::<u64>(), trips);
    assert!(lanes.iter().all(|&lane| lane > trips / 100), "{lanes:?}");
}

/// How a body of the carried table combines `l`, the read of `A` that may
/// be of the cell handed on, with `x` = `B[J]`: on either side of each
/// operator (the two that do not commute give a swapped operand away),
/// under one operator, two, a unary one, none, and with `x` read twice so
/// that the columns around the chain need more registers than the body.
const SHAPES: [fn(Expr, Expr) -> Expr; 14] = [
    |l, x| Expr::add(l, x),
    |l, x| Expr::add(x, l),
    |l, x| Expr::sub(l, x),
    |l, x| Expr::sub(x, l),
    |l, x| Expr::mul(l, x),
    |l, x| Expr::mul(x, l),
    |l, x| Expr::div(l, x),
    |l, x| Expr::div(x, l),
    |l, x| Expr::mul(Expr::add(l, x), Expr::konst(0.5)),
    |l, x| Expr::sub(x, Expr::mul(Expr::konst(0.5), l)),
    |l, x| Expr::add(Expr::neg(l), x),
    |l, x| Expr::mul(Expr::sqrt(l), x),
    |l, _| l,
    |l, x| Expr::div(Expr::mul(x.clone(), Expr::konst(0.5)), Expr::add(l, x)),
];

/// A body of the carried table, `A[w] = SHAPES[shape](A[l], B[J]) (+ Y[y])`
/// under `J` of step `step`, where `Y` is array `y.0` (0 is `A`).
#[derive(Clone, Copy, Debug)]
struct Carried {
    step: Int,
    shape: usize,
    w: Sub,
    l: Sub,
    y: Option<(usize, Sub)>,
}

impl Carried {
    /// The table's 2 240 bodies: every shape of [`SHAPES`] over a store that
    /// moves forwards, by two, backwards or not at all, the read one trip
    /// behind it, two behind, one ahead or on it, alone or beside a second
    /// read that is elsewhere, interleaved, or in the way.
    fn all() -> impl Iterator<Item = Carried> {
        (1..=2)
            .flat_map(|step| [1, 2, -1, 0].map(|wa| (step, wa)))
            .flat_map(|(s, wa)| [1, 2, -1, 0].map(|behind| (s, wa, behind)))
            .flat_map(|(s, wa, b)| (0..SHAPES.len()).map(move |shape| (s, wa, b, shape)))
            .flat_map(|(s, wa, b, sh)| (0..5).map(move |second| (s, wa, b, sh, second)))
            .map(|(step, wa, behind, shape, second)| {
                let delta = wa * step;
                // the read `behind` trips behind the store; beside a store
                // that stands still, the cell itself (0) or another one
                let l = (wa, 0, if wa == 0 { behind } else { -behind * delta });
                let y = match second {
                    0 => None,
                    1 => Some((1, (1, 0, -1))),
                    // past the end of the store's walk
                    2 => Some((0, (wa, -wa, if wa > 0 { -3 } else { 3 }))),
                    // two trips behind the store; over the cell that stands still
                    3 if wa == 0 => Some((0, (1, 0, -1))),
                    3 => Some((0, (wa, 0, -2 * delta))),
                    // a cell on: between the store's cells when it strides
                    _ => Some((0, (wa, 0, 1))),
                };
                Carried {
                    step,
                    shape,
                    w: (wa, 0, 0),
                    l,
                    y,
                }
            })
    }

    /// The body as a [`table_program`].
    fn program(&self, outer: Option<usize>) -> Program {
        table_program("carried", self.step, outer, |b, arrays, j, n, shift| {
            let at = |(coef, ncoef, off): Sub| {
                vec![
                    j.clone() * coef
                        + shift.clone()
                        + n.clone() * (2 + ncoef)
                        + Aff::konst(8 + off),
                ]
            };
            let rhs = SHAPES[self.shape](
                Expr::read(arrays[0], at(self.l)),
                Expr::read(arrays[1], at((1, 0, 0))),
            );
            let rhs = match self.y {
                Some((array, sub)) => Expr::add(rhs, Expr::read(arrays[array], at(sub))),
                None => rhs,
            };
            b.stmt("S", arrays[0], at(self.w), rhs);
        })
    }

    /// The lane (an index into [`LANES`]) a cell-by-cell walk of the body's
    /// distinct accesses allows an entry of `trips` trips from `J = lo`.
    fn lane(&self, n: Int, lo: Int, trips: Int) -> usize {
        let x_loads = if self.shape == 13 { 2 } else { 1 };
        let mut reads = vec![((0, self.l), 1), ((1, (1, 0, 0)), x_loads)];
        reads.extend(self.y.map(|y| (y, 1)));
        let mut slots = vec![(0usize, self.w)];
        for (access, _) in &reads {
            if !slots.contains(access) {
                slots.push(*access);
            }
        }
        let loads = |slot: usize| -> u32 {
            let of = |r: &&(_, u32)| r.0 == slots[slot];
            reads.iter().filter(of).map(|r| r.1).sum()
        };
        let spec = |&(array, sub): &(usize, Sub)| {
            let (first, delta) = (at(sub, n, lo), sub.0 * self.step);
            (
                array as u32,
                first as i64,
                delta as i64,
                (array, sub) == (0, self.w),
            )
        };
        let specs: Vec<SlotSpec> = slots.iter().map(spec).collect();
        let lane = match simulate(&specs, trips as i64) {
            Trips::Independent => "columns",
            Trips::HandedOn(c) if loads(c) == 1 => "carried",
            _ => "dispatch",
        };
        LANES.iter().position(|&l| l == lane).unwrap()
    }

    /// Whether `y` reads `A` where `l` does at `J = lo`.
    fn reads_l_twice(&self, n: Int, lo: Int) -> bool {
        let l = at(self.l, n, lo);
        self.y
            .is_some_and(|(array, y)| array == 0 && at(y, n, lo) == l)
    }
}

/// Seeds for the cell `l` first reads: none, NaN, both infinities, −0.0.
const SEEDS: [Option<f64>; 5] = [
    None,
    Some(f64::NAN),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
    Some(-0.0),
];

/// The carried table's bodies at trip counts that end a block of columns one
/// short, exactly, one over and twice over, from seeds a register must hand
/// on bit for bit. Each case must leave the interpreter's image *and* run on
/// the lane a cell-by-cell walk of its addresses allows: no near miss
/// carried, no handed-on cell left to the dispatcher.
#[test]
fn carried_bodies_match_the_interpreter_on_the_executor_their_cells_allow() {
    const TRIPS: [Int; 5] = [
        1,
        COLUMN as Int - 1,
        COLUMN as Int,
        COLUMN as Int + 1,
        2 * COLUMN as Int + 1,
    ];
    let (mut bodies, mut cases) = (0u64, 0u64);
    let mut ran = [0u64; 3];
    let mut wrong = Vec::new();
    for c in Carried::all() {
        bodies += 1;
        if cfg!(debug_assertions) && bodies % 7 != 0 {
            continue;
        }
        let p = c.program(None);
        let runner = VmRunner::new(&p);
        for trips in TRIPS {
            let n = (trips - 1) * c.step + 1;
            let expected = c.lane(n, 1, trips);
            let start = Machine::new(&p, &[n], &init);
            // Where the first trip's `l` reads. A NaN that also arrives
            // through `y` meets its own negation in shape 10, and which
            // sign such a sum keeps is the compiler's choice per call site.
            let seeded = at(c.l, n, 1);
            let twice = c.reads_l_twice(n, 1);
            for seed in SEEDS {
                cases += 1;
                let mut start = start.clone();
                if let Some(seed) = seed.filter(|s| !(s.is_nan() && twice)) {
                    let cell = (seeded + 2 * n + 8) as usize;
                    start.array_mut(ArrayId(0)).set(&[cell], seed);
                }
                let (agreed, seen) = inl_obs::capture::with(|| agree_from(&p, &runner, &start));
                let lanes = lanes(&seen);
                let mut on = [0u64; 3];
                on[expected] = trips as u64;
                ran[expected] += 1;
                let what = format!("{c:?} trips {trips} seed {seed:?}");
                if let Err(e) = agreed {
                    wrong.push(format!("{what}: {e}"));
                } else if lanes != on {
                    wrong.push(format!("{what}: ran {lanes:?}, not {}", LANES[expected]));
                }
            }
        }
    }
    assert_eq!(bodies, 2 * 4 * 4 * 14 * 5);
    assert!(cfg!(debug_assertions) || cases == bodies * 25);
    assert!(
        wrong.is_empty(),
        "{} of {cases} cases are wrong, first: {}",
        wrong.len(),
        wrong[0]
    );
    assert!(ran.iter().all(|&r| r > cases / 10), "{ran:?} of {cases}");
}

// ---------------------------------------------------------------------
// (f) both tables under an outer loop
// ---------------------------------------------------------------------

/// Every body of both tables under each of [`OUTERS`] at `N = COLUMN + 2`
/// (the triangular entries run 130, 129, 128 and 127 trips), each with one
/// of [`SEEDS`] in the cell its first load of `A` reads first: `J` must be
/// a kernel, entered by the dispatcher's header once per trip of `O`, the
/// image the interpreter's, and every trip counted on one lane — for the
/// carried table, on the lane a cell-by-cell walk allows *that entry*, so
/// that one header's entries go different ways exactly when their addresses
/// do. An unoptimised build walks every seventh body.
#[test]
fn kernel_entries_under_outer_loops_match_the_interpreter_on_every_body_of_both_tables() {
    const N: Int = COLUMN as Int + 2;
    let (mut bodies, mut cases, mut mixed) = (0usize, 0u64, 0u64);
    // trips each lane ran, per outer loop
    let mut ran = [[0u64; 3]; OUTERS.len()];
    let mut wrong = Vec::new();
    // Run `p` from `seed` at `first`, a cell of `A` (a subscript of its first
    // read); `expected` is each entry's lane, when the table knows it.
    let mut case = |p: &Program,
                    kind: usize,
                    first: Sub,
                    seed: Option<f64>,
                    expected: &dyn Fn(Int, Int) -> Option<usize>,
                    what: String| {
        let runner = VmRunner::new(p);
        assert!(
            runner.compiled().bind(&[N]).kernels[1].is_some(),
            "{what}: J is a kernel"
        );
        let entries = entries(p, N);
        let mut start = Machine::new(p, &[N], &init);
        if let Some(seed) = seed {
            let &(o, lo, _) = entries
                .iter()
                .find(|e| e.2 > 0)
                .expect("an entry that runs");
            let cell = at(first, N, lo) + 2 * N + 8 + o;
            start.array_mut(ArrayId(0)).set(&[cell as usize], seed);
        }
        let (agreed, seen) = inl_obs::capture::with(|| agree_from(p, &runner, &start));
        let lanes = lanes(&seen);
        let mut on = [0u64; 3];
        let mut known = true;
        for &(_, lo, trips) in entries.iter().filter(|e| e.2 > 0) {
            match expected(lo, trips) {
                Some(lane) => on[lane] += trips as u64,
                None => known = false,
            }
        }
        let all: u64 = entries.iter().map(|e| e.2 as u64).sum();
        cases += 1;
        for (r, l) in ran[kind].iter_mut().zip(lanes) {
            *r += l;
        }
        mixed += (OUTERS[kind] == "meets" && lanes[0] > 0 && lanes[2] > 0) as u64;
        let what = format!("{what} under {}", OUTERS[kind]);
        if let Err(e) = agreed {
            wrong.push(format!("{what}: {e}"));
        } else if lanes.iter().sum::<u64>() != all || known && lanes != on {
            wrong.push(format!("{what}: ran {lanes:?}, not {on:?}"));
        }
    };
    for (step, shape, second) in adversarial_bodies() {
        bodies += 1;
        if cfg!(debug_assertions) && bodies % 7 != 0 {
            continue;
        }
        for kind in 0..OUTERS.len() {
            let p = adversarial_body(step, shape, second, Some(kind));
            let read = (shape[1].0, 0, shape[1].1);
            let seed = SEEDS[(bodies + kind) % SEEDS.len()];
            let what = format!("step {step} {shape:?} S2 {second} seed {seed:?}");
            case(&p, kind, read, seed, &|_, _| None, what);
        }
    }
    for c in Carried::all() {
        bodies += 1;
        if cfg!(debug_assertions) && bodies % 7 != 0 {
            continue;
        }
        for kind in 0..OUTERS.len() {
            let p = c.program(Some(kind));
            // Two reads of `A` may meet NaNs of opposite signs (see the
            // carried table): only the seeds that make no NaN then.
            let seed = SEEDS[(bodies + kind) % SEEDS.len()]
                .filter(|s| *s == 0.0 || c.y.is_none_or(|y| y.0 != 0));
            let what = format!("{c:?} seed {seed:?}");
            case(
                &p,
                kind,
                c.l,
                seed,
                &|lo, trips| Some(c.lane(N, lo, trips)),
                what,
            );
        }
    }
    assert_eq!(bodies, 15_000 + 2_240);
    assert!(
        wrong.is_empty(),
        "{} of {cases} cases are wrong, first: {}",
        wrong.len(),
        wrong[0]
    );
    for (kind, ran) in OUTERS.iter().zip(ran) {
        assert!(ran.iter().all(|&trips| trips > 0), "{kind}: {ran:?}");
    }
    assert!(mixed > cases / 100, "{mixed} of {cases}");
}

// ---------------------------------------------------------------------
// (b) the classifier on hand-built slots
// ---------------------------------------------------------------------

/// A slot on hand-built addresses: `(array, first offset, delta, stored)`.
type SlotSpec = (u32, i64, i64, bool);

/// What a loop entry's trips are to one another.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trips {
    /// No trip touches a cell another trip stores.
    Independent,
    /// … except through this slot, which reads what the trip before stored.
    HandedOn(usize),
    Entangled,
}

/// What the two classifiers make of `slots` over `trips` trips.
fn classify(slots: &[SlotSpec], trips: i64) -> Trips {
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
    let carried = carried_slot(&built, &first, &last);
    if trips_are_independent(&built, &first, &last) {
        Trips::Independent
    } else {
        carried.map_or(Trips::Entangled, Trips::HandedOn)
    }
}

fn independent(slots: &[SlotSpec], trips: i64) -> bool {
    classify(slots, trips) == Trips::Independent
}

/// The same question answered with no reasoning about spans or residues:
/// walk every slot over every trip and see which cells meet.
fn simulate(slots: &[SlotSpec], trips: i64) -> Trips {
    let cell = |s: usize, t: i64| (slots[s].0, slots[s].1 + t * slots[s].2);
    let stored: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].3).collect();
    // (s, u, t): on trip u slot s is at the cell a stored slot writes on trip t ≠ u
    let mut meets = Vec::new();
    for &w in &stored {
        for s in 0..slots.len() {
            for (u, t) in (0..trips).flat_map(|u| (0..trips).map(move |t| (u, t))) {
                if u != t && cell(s, u) == cell(w, t) {
                    meets.push((s, u, t));
                }
            }
        }
    }
    // A stored slot that stands still hands its cell on however few the
    // trips: columns would store it once a trip, all at once.
    let still = stored.iter().any(|&w| slots[w].2 == 0);
    if meets.is_empty() && !still {
        return Trips::Independent;
    }
    let [w] = stored[..] else {
        return Trips::Entangled;
    };
    let (c, handed_on) = if still {
        // one cell, stored by every trip: no other slot may ever be there
        let elsewhere = |s| s == w || (0..trips).all(|u| cell(s, u) != cell(w, 0));
        (w, (0..slots.len()).all(elsewhere))
    } else {
        // every meeting is slot c finding what the trip before stored
        let c = meets[0].0;
        let behind = (slots[c].2, slots[w].1 - slots[c].1) == (slots[w].2, slots[w].2);
        (
            c,
            behind && meets.iter().all(|&(s, u, t)| s == c && u == t + 1),
        )
    };
    if handed_on {
        Trips::HandedOn(c)
    } else {
        Trips::Entangled
    }
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
    // Two stored slots are each checked against the other.
    assert!(independent(&[(0, 10, 1, true), (0, 200, 1, true)], 100));
    assert!(!independent(&[(0, 10, 1, true), (0, 12, 1, true)], 100));
    // Loads alone are independent whatever they overlap.
    assert!(independent(&[(0, 5, 0, false), (0, 5, 1, false)], 100));
    assert!(independent(&[], 100));
}

#[test]
fn equal_strides_meet_only_a_multiple_of_the_stride_apart() {
    // A[2J] against A[2J+1]: the spans interleave, the cells never meet.
    assert!(independent(&[(0, 10, 2, true), (0, 11, 2, false)], 100));
    assert!(independent(&[(0, 10, 2, true), (0, 9, 2, false)], 100));
    // Two columns of one matrix, 40 cells a row, walked down together.
    assert!(independent(&[(0, 7, 40, true), (0, 3, 40, false)], 30));
    // A multiple of the stride apart, one walk reaches the other's cells …
    assert!(!independent(&[(0, 10, 2, true), (0, 12, 2, false)], 100));
    assert!(!independent(&[(0, 10, 2, true), (0, 6, 2, false)], 100));
    // … unless it starts past where the other ends.
    assert!(independent(&[(0, 10, 2, true), (0, 210, 2, false)], 100));
    // Walking backwards changes neither answer.
    assert!(independent(&[(0, 300, -3, true), (0, 299, -3, false)], 100));
    assert!(independent(&[(0, 300, -3, true), (0, 301, -3, false)], 100));
    assert!(!independent(
        &[(0, 300, -3, true), (0, 303, -3, false)],
        100
    ));
    assert!(!independent(
        &[(0, 300, -3, true), (0, 294, -3, false)],
        100
    ));
    // Unequal strides have no common residue to tell them apart: spans.
    assert!(!independent(&[(0, 10, 2, true), (0, 11, 4, false)], 100));
    assert!(!independent(&[(0, 10, 2, true), (0, 11, -2, false)], 100));
    assert!(independent(&[(0, 10, 2, true), (0, 209, 4, false)], 100));
}

#[test]
fn classifier_hands_one_cell_on_or_leaves_the_dispatcher_its_trips() {
    use Trips::{Entangled, HandedOn};
    // C[I,J] += A[I,K]·B[K,J] under K: one cell, its own load, two walks.
    let matmul = [(0, 5, 0, true), (1, 0, 1, false), (2, 5, 40, false)];
    assert_eq!(classify(&matmul, 40), HandedOn(0));
    assert_eq!(classify(&matmul, 1), HandedOn(0));
    // … and a second reader of that cell, here on trip 3 of a walk over it.
    assert_eq!(
        classify(&[(0, 5, 0, true), (0, 3, 1, false)], 40),
        Entangled
    );
    assert_eq!(
        classify(&[(0, 5, 0, true), (0, 5, 0, false)], 40),
        Entangled
    );
    assert_eq!(
        classify(&[(0, 5, 0, true), (0, 6, 1, false)], 40),
        HandedOn(0)
    );
    // A[I,J] = A[I−1,J] + A[I,J−1] under J: the row above never meets.
    let wavefront = [(0, 41, 1, true), (0, 1, 1, false), (0, 40, 1, false)];
    assert_eq!(classify(&wavefront, 39), HandedOn(2));
    // … under I, down a column, it is the row above that is handed on.
    let down = [(0, 41, 40, true), (0, 1, 40, false), (0, 40, 40, false)];
    assert_eq!(classify(&down, 39), HandedOn(1));
    // Backwards, the cell handed on is the one above.
    assert_eq!(
        classify(&[(0, 50, -1, true), (0, 51, -1, false)], 40),
        HandedOn(1)
    );
    // Distance 2, and the cell the *next* trip stores, are not handed on.
    assert_eq!(
        classify(&[(0, 10, 1, true), (0, 8, 1, false)], 40),
        Entangled
    );
    assert_eq!(
        classify(&[(0, 10, 1, true), (0, 11, 1, false)], 40),
        Entangled
    );
    assert_eq!(
        classify(&[(0, 10, 2, true), (0, 9, 2, false)], 40),
        Trips::Independent
    );
    // Two readers of what the trip before stored; a second stored slot.
    let twice = [(0, 10, 1, true), (0, 9, 1, false), (0, 9, 1, false)];
    assert_eq!(classify(&twice, 40), Entangled);
    let two_stores = [(0, 10, 1, true), (0, 9, 1, false), (1, 0, 1, true)];
    assert_eq!(classify(&two_stores, 40), Entangled);
    // The stored cell's own load rides along.
    let with_own = [(0, 10, 1, true), (0, 10, 1, false), (0, 9, 1, false)];
    assert_eq!(classify(&with_own, 40), HandedOn(2));
}

/// Every stored slot against up to two others over all small firsts, deltas
/// and trip counts: what the classifiers say is what the cell-by-cell walk
/// says — exactly where every slot of an array moves alike, the one case the
/// rules decide from more than spans, and never more than the walk allows
/// elsewhere.
#[test]
fn classifiers_agree_with_a_cell_by_cell_walk_of_every_small_case() {
    let others: Vec<SlotSpec> = (0..2u32)
        .flat_map(|array| (0..6).map(move |first| (array, first)))
        .flat_map(|(array, first)| (-2..=2).map(move |delta| (array, first, delta, false)))
        .collect();
    let (mut cases, mut handed_on, mut exact) = (0u64, 0u64, 0u64);
    for (first, delta) in (0..6).flat_map(|f| (-2..=2).map(move |d| (f, d))) {
        let w = (0, first, delta, true);
        let mut check = |slots: &[SlotSpec]| {
            for trips in 1..=5 {
                let (says, walk) = (classify(slots, trips), simulate(slots, trips));
                let alike = |s: &SlotSpec| slots.iter().all(|o| o.0 != s.0 || o.2 == s.2);
                cases += 1;
                handed_on += matches!(says, Trips::HandedOn(_)) as u64;
                if slots.iter().all(alike) {
                    exact += 1;
                    assert_eq!(says, walk, "{slots:?} over {trips} trips");
                } else {
                    assert!(
                        says == walk || says == Trips::Entangled,
                        "{slots:?} over {trips} trips: {says:?}, the walk says {walk:?}"
                    );
                }
            }
        };
        check(&[w]);
        for &a in &others {
            check(&[w, a]);
            for &b in &others {
                check(&[w, a, b]);
                check(&[w, a, (b.0, b.1, b.2, true)]);
            }
        }
    }
    assert!(
        handed_on > cases / 100 && exact > cases / 10,
        "{handed_on} {exact} of {cases}"
    );
}

// ---------------------------------------------------------------------
// (c) the hoisted segment check
// ---------------------------------------------------------------------

/// One vector per array of `bp`, every cell `v`.
fn filled(bp: &inl_vm::BoundProgram, v: f64) -> Vec<Vec<f64>> {
    bp.arrays.iter().map(|a| vec![v; a.len]).collect()
}

/// The slices the VM runs on, one per array.
fn slices(arrays: &mut [Vec<f64>]) -> Vec<&mut [f64]> {
    arrays.iter_mut().map(Vec::as_mut_slice).collect()
}

/// `do J = lo..hi: A[J + off] = 1` with `A` of `N+1` cells beside a larger
/// `B`: an offset past `A`'s end must be caught by `A`'s own length.
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
    let mut arrays = filled(&bp, 7.0);
    let err = catch_unwind(AssertUnwindSafe(|| {
        inl_vm::run(&bp, &mut slices(&mut arrays))
    }))
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
    assert!(
        arrays.iter().flatten().all(|&v| v == 7.0),
        "a trip ran before the check"
    );
}

#[test]
fn empty_range_runs_nothing_and_asserts_nothing() {
    // J = 5..N−3 at N = 4 is empty, and A[J + 1000] would be far outside.
    let p = fill_loop(5, -3, 1000);
    let cp = inl_vm::compile(&p);
    let bp = cp.bind(&[4]);
    assert!(bp.kernels[0].is_some());
    let mut arrays = filled(&bp, 7.0);
    let ((), seen) = inl_obs::capture::with(|| inl_vm::run(&bp, &mut slices(&mut arrays)));
    assert!(arrays.iter().flatten().all(|&v| v == 7.0));
    assert_eq!(seen.counters.get("vm.instrs"), Some(&1)); // the header
    assert_eq!(seen.counters.get("vm.instances"), None);
}

// ---------------------------------------------------------------------
// (d) counters and profile equal the dispatcher's closed form
// (e) the loop's registers after the last trip
// ---------------------------------------------------------------------

/// `do I = 1..4 { do J = lo..N step 2 { S1: X[I,J] = X[I,J] + Y[I,J]·2;
/// S2: Y[I,J] = X[I,J] + carry } }` where `carry` is `Y[I,J−2]` (what the
/// previous trip of the step-2 loop stored: handed back to the dispatcher,
/// or carried when S2 is the `only` statement) or `Y[I,J]` (columns), and
/// `lo` is 2, or `4I − 2` when `triangular` — J's entries then shorten by
/// two trips an `I` and run out at `N < 14`. `I`'s body is only `J`, and
/// the dispatcher's header of `J` makes every entry.
fn nest(only: bool, recurrence: bool, triangular: bool) -> Program {
    let mut b = ProgramBuilder::new("nest");
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(3);
    let x = b.array("X", &[Aff::konst(5), ext.clone()]);
    let y = b.array("Y", &[Aff::konst(5), ext]);
    b.hloop("I", Aff::konst(1), Aff::konst(4), |b| {
        let i = b.loop_var("I");
        let lo = match triangular {
            true => Aff::var(i) * 4 - Aff::konst(2),
            false => Aff::konst(2),
        };
        let (lo, hi) = (Bound::single(lo), Bound::single(Aff::param(n)));
        b.loop_full("J", lo, hi, 2, false, |b| {
            let j = b.loop_var("J");
            let at = |off: Int| vec![Aff::var(i), Aff::var(j) + Aff::konst(off)];
            if !only {
                b.stmt(
                    "S1",
                    x,
                    at(0),
                    Expr::add(
                        Expr::read(x, at(0)),
                        Expr::mul(Expr::read(y, at(0)), Expr::konst(2.0)),
                    ),
                );
            }
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

/// J's first value and trip count on each trip of `I` in [`nest`] (no trip:
/// the entry is empty).
fn nest_entries(triangular: bool, n: Int) -> [(Int, u64); 4] {
    [1, 2, 3, 4].map(|i| {
        let lo = if triangular { 4 * i - 2 } else { 2 };
        (lo, if lo > n { 0 } else { ((n - lo) / 2 + 1) as u64 })
    })
}

/// The nests the closed form is checked on: more than one column an entry,
/// entries that shorten, and (at `N = 12`) an outer trip whose entry is
/// empty — every entry still at least two trips, so that the recurrence of
/// the `dispatch` nest is never a single trip the columns may take.
const NESTS: [(bool, Int); 3] = [
    (false, 2 * COLUMN as Int + 77),
    (true, 2 * COLUMN as Int + 77),
    (true, 12),
];

#[test]
fn counters_and_profile_equal_the_dispatchers_closed_form() {
    for (only, recurrence, mode) in [
        (false, true, "dispatch"),
        (true, true, "carried"),
        (false, false, "columns"),
    ] {
        for (triangular, n) in NESTS {
            let p = nest(only, recurrence, triangular);
            let trips = nest_entries(triangular, n).map(|e| e.1);
            let all: u64 = trips.iter().sum();
            let cp = inl_vm::compile(&p);
            let bp = cp.bind(&[n]);
            let (outer, inner) = (
                *cp.loop_meta(LoopId(0)).unwrap(),
                *cp.loop_meta(LoopId(1)).unwrap(),
            );
            assert!(bp.kernels[0].is_none(), "I holds a loop");
            assert!(bp.kernels[1].is_some());
            let body_len = (inner.body.1 - inner.body.0) as u64;

            let mut arrays = filled(&bp, 1.5);
            let (counts, seen) =
                inl_obs::capture::with(|| inl_vm::run_profiled(&bp, &mut slices(&mut arrays)));
            let what = format!("{mode}, triangular {triangular}, N {n}");

            // I's header, then per I trip: J's header, J's trips, I's latch.
            let instrs = 1 + 4 * 2 + all * (body_len + 1);
            assert_eq!(seen.counters["vm.instrs"], instrs, "{what}");
            let stores = if only { 1 } else { 2 };
            assert_eq!(seen.counters["vm.instances"], all * stores, "{what}");
            let ran = LANES.map(|lane| if lane == mode { all } else { 0 });
            assert_eq!(lanes(&seen), ran, "{what}");

            assert_eq!(counts.iter().sum::<u64>(), instrs, "{what}");
            for pc in 0..cp.ninstrs() as u32 {
                let expected = match pc {
                    _ if pc == outer.header => 1,
                    _ if pc == inner.header || pc == inner.exit => 4, // J's header, I's latch
                    _ => all,                                         // J's body and latch
                };
                assert_eq!(counts[pc as usize], expected, "{what}: pc {pc}");
            }
            let loops = profile::loop_profiles(&cp, Some(&p), &counts);
            let by_name = |name: &str| loops.iter().find(|l| l.name == name).unwrap();
            assert_eq!(by_name("I").mode(), "dispatch");
            let j = by_name("J");
            assert_eq!(
                (j.mode(), j.header_execs, j.iterations),
                (mode, 4, all),
                "{what}"
            );
            assert_eq!(j.trips_columns + j.trips_carried + j.trips_dispatch(), all);
            let tables = profile::render_tables(&cp, Some(&p), &counts);
            assert!(tables.contains("mode") && tables.contains(mode), "{tables}");
        }
    }
}

#[test]
fn loop_registers_hold_the_last_trip_after_a_kernel() {
    // what the run leaves in a register nothing set
    const UNSET: i64 = -77;
    for (only, recurrence) in [(false, true), (true, true), (false, false)] {
        for triangular in [false, true] {
            let p = nest(only, recurrence, triangular);
            let cp = inl_vm::compile(&p);
            let (outer, inner) = (
                *cp.loop_meta(LoopId(0)).unwrap(),
                *cp.loop_meta(LoopId(1)).unwrap(),
            );
            // odd N: the bound is not itself an iteration of the step-2
            // loop; N < 14: the triangular nest's last entries are empty,
            // at N = 1 all of them
            for n in [1, 2, 3, 9, 12, 2 * COLUMN as Int + 77] {
                let bp = cp.bind(&[n]);
                let mut arrays = filled(&bp, 1.5);
                let mut arrays = slices(&mut arrays);
                let buf = SharedBuf::new(&mut arrays);
                let last = |lo: Int| (lo + (n - lo) / 2 * 2) as i64;
                let what = format!("only {only}, triangular {triangular}, N {n}");

                // J alone, entered by the dispatcher at I = 3
                let mut st = bp.new_state();
                st.iregs[outer.var as usize] = 3;
                let (lo, trips) = nest_entries(triangular, n)[2];
                (st.iregs[inner.var as usize], st.his[1]) = (UNSET, UNSET);
                exec_range(&bp, &mut st, &buf, inner.header, inner.exit);
                let expected = match trips {
                    0 => (UNSET, UNSET),
                    _ => (last(lo), n as i64),
                };
                assert_eq!(
                    (st.iregs[inner.var as usize], st.his[1]),
                    expected,
                    "{what}"
                );

                // the whole nest: I at its last trip and bound, J and its
                // bound as the last entry that was not empty left them
                let mut st = bp.new_state();
                (st.iregs[inner.var as usize], st.his[1]) = (UNSET, UNSET);
                exec_range(&bp, &mut st, &buf, outer.header, outer.exit);
                let entered = nest_entries(triangular, n).into_iter().rfind(|e| e.1 > 0);
                let expected = [
                    (4, 4),
                    entered.map_or((UNSET, UNSET), |(lo, _)| (last(lo), n as i64)),
                ];
                let left = [0, 1].map(|l| {
                    let var = [outer.var, inner.var][l] as usize;
                    (st.iregs[var], st.his[l])
                });
                assert_eq!(left, expected, "{what}");
            }
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
    assert_eq!((k.slots.len(), k.stores, k.body.1 - k.body.0), (2, 1, 4));
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
        // Kernel or not, the image is the interpreter's.
        let runner = VmRunner::new(p);
        for n in [1, 6, COLUMN as Int + 3] {
            agree(p, &runner, n).unwrap_or_else(|e| panic!("{what}, N {n}: {e}"));
        }
    }
}

#[test]
fn bodies_split_around_each_load_that_may_be_handed_on() {
    use inl_vm::bytecode::{Instr, CARRY};
    let innermost = |p: &Program, n: Int| {
        let bound = inl_vm::compile(p).bind(&[n]).kernels;
        bound.into_iter().flatten().next().expect("a kernel")
    };
    // C[I,J] = C[I,J] + A[I,K]·B[K,J] under K: the product in columns, then
    // one addition a trip into the cell's register.
    let k = innermost(&inl_ir::zoo::matmul(), 9);
    let [split] = &k.carried[..] else {
        panic!("{:?}", k.carried)
    };
    assert!(k.slots[split.slot as usize].stored && split.slot == split.store);
    assert_eq!(split.ops.len(), 3, "two loads and a product");
    assert!(matches!(split.ops[2], Instr::Mul { .. }));
    let sum = Instr::Add {
        dst: CARRY,
        rhs: split.out,
    };
    assert_eq!(split.chain, [sum]);
    // A[I,J] = A[I−1,J] + A[I,J−1]: either read may be the one behind the
    // store, as the left operand or the right.
    let k = innermost(&inl_ir::zoo::wavefront(), 9);
    let sides: Vec<_> = k.carried.iter().map(|s| s.chain.clone()).collect();
    let (carry_col, col_carry) = (
        Instr::Add { dst: CARRY, rhs: 0 },
        Instr::Add { dst: 0, rhs: CARRY },
    );
    assert_eq!(sides, [vec![carry_col], vec![col_carry]]);
    // Nothing to hand on: a second load of the cell, a store beside it, a
    // store that moves with no read moving along.
    let twice = |x, j: Aff| {
        let behind = || Expr::read(x, vec![j.clone() - Aff::konst(1)]);
        Expr::mul(behind(), behind())
    };
    assert!(innermost(&one_statement(1, twice, vec![]), 9)
        .carried
        .is_empty());
    assert!(innermost(&nest(false, true, false), 9).carried.is_empty());
    let fill = one_statement(1, |_, j| Expr::index(j), vec![]);
    assert!(innermost(&fill, 9).carried.is_empty());
}

/// Per zoo program: attached loops, loops that lower to kernels, and bodies
/// split around a load that may be handed on — as recorded at the commit
/// before `lower_kernel` stopped re-checking the shapes `compile` emits (an
/// operator overwrites its left operand, a register is written before it is
/// read). Trusting the compiler dropped no kernel.
#[test]
fn every_zoo_loop_that_was_a_kernel_still_is() {
    const RECORDED: [(&str, usize, usize, usize); 13] = [
        ("simple_cholesky", 2, 1, 0),
        ("running_example", 2, 1, 0),
        ("perfect_nest", 2, 1, 0),
        ("augmentation_example", 2, 1, 0),
        ("cholesky_kij", 4, 2, 0),
        ("cholesky_left_looking", 4, 2, 1),
        ("lu_kij", 4, 2, 1),
        ("wavefront", 2, 1, 2),
        ("matmul", 3, 1, 1),
        ("rect_wavefront", 2, 1, 2),
        ("row_prefix_sums", 2, 1, 1),
        ("distributed_simple_cholesky", 3, 2, 0),
        ("independent_pair", 1, 1, 0),
    ];
    let lowered: Vec<_> = inl_ir::zoo::ALL
        .iter()
        .map(|&(name, ctor)| {
            let p = ctor();
            let cp = inl_vm::compile(&p);
            let kernels = cp.bind(&vec![9; p.nparams()]).kernels;
            let splits = kernels.iter().flatten().map(|k| k.carried.len()).sum();
            let loops = cp.loops.iter().flatten().count();
            (name, loops, kernels.iter().flatten().count(), splits)
        })
        .collect();
    assert_eq!(lowered, RECORDED);
}
