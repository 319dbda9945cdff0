//! # inl-fuzz
//!
//! Crash-hunting fuzz harness for the transformation pipeline. The
//! contract under test is the panic-free guarantee: on *every*
//! input-dependent path — arbitrary programs, arbitrary (often illegal or
//! degenerate) transformation matrices, extreme coefficients — the
//! pipeline must either succeed or return a typed error. A panic is a bug.
//!
//! The harness has three layers, mirroring the pipeline:
//!
//! 1. **No panic** (`compile`): random program × random matrix through
//!    depend → legal → codegen; random partial rows through completion;
//!    random targets through the structural operations and sinking.
//! 2. **Differential agreement**: whatever compiles must execute bitwise
//!    identically under the tree interpreter and the bytecode VM, and
//!    match the source program whenever the legality checker accepted the
//!    matrix with no unsatisfied dependences.
//! 3. **Error, not crash**: the polyhedral and linear-algebra substrates
//!    survive near-`i128`-extreme coefficients, reporting
//!    [`inl_linalg::InlError`] instead of overflowing.
//!
//! Case counts come from the `INL_FUZZ_CASES` environment variable
//! (see [`fuzz_cases`]); CI runs each property with 2000 cases, local
//! `cargo test` defaults to a quick smoke run.
//!
//! Crashes found by the harness are minimized into committed regression
//! tests in `tests/regressions.rs`.

use inl_codegen::{generate, CodegenResult};
use inl_core::depend::{analyze, DependenceMatrix};
use inl_core::instance::InstanceLayout;
use inl_ir::{Aff, Bound, Expr, Program, ProgramBuilder};
use inl_linalg::{IMat, Int};
use inl_poly::{LinExpr, System};
use proptest::prelude::*;
use proptest::test_runner::Config;

/// Number of cases per property: `INL_FUZZ_CASES` when set (CI uses
/// 2000), else `local_default`. A value that is set but not a positive
/// integer warns once per process to stderr and falls back to the default.
pub fn fuzz_cases(local_default: u32) -> u32 {
    const VAR: &str = "INL_FUZZ_CASES";
    let Ok(raw) = std::env::var(VAR) else {
        return local_default;
    };
    match raw.trim().parse::<std::num::NonZeroU32>() {
        Ok(n) => n.get(),
        Err(_) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "inl-fuzz: ignoring malformed {VAR}={raw:?} (expected a positive \
                     integer); using default {local_default}"
                )
            });
            local_default
        }
    }
}

/// A proptest config honoring [`fuzz_cases`].
pub fn fuzz_config(local_default: u32) -> Config {
    Config {
        cases: fuzz_cases(local_default),
        ..Config::default()
    }
}

/// Outcome of pushing one program × matrix through the whole pipeline.
pub enum Compiled {
    /// Codegen succeeded; carries the source and the result.
    Ok(Box<CodegenResult>),
    /// A stage rejected the input with a typed error (the expected
    /// outcome for most random matrices).
    Rejected(String),
}

/// Run depend → legal → codegen on `(p, m)`. Every failure mode must
/// surface as `Rejected` — a panic anywhere in here is exactly the class
/// of bug this crate hunts.
pub fn compile(p: &Program, m: &IMat) -> Compiled {
    let layout = InstanceLayout::new(p);
    let deps = match analyze(p, &layout) {
        Ok(d) => d,
        Err(e) => return Compiled::Rejected(format!("analyze: {e}")),
    };
    // `generate` checks legality once and reports an illegal matrix as
    // `Infeasible`
    match generate(p, &layout, &deps, m) {
        Ok(r) => Compiled::Ok(Box::new(r)),
        Err(e) => Compiled::Rejected(format!("codegen: {e}")),
    }
}

/// Dependence analysis products for a program (helper for tests that need
/// the layout and matrix separately).
pub fn analyzed(p: &Program) -> Result<(InstanceLayout, DependenceMatrix), String> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).map_err(|e| e.to_string())?;
    Ok((layout, deps))
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Parameters of a generated program; kept as a value so failures print a
/// reproducible recipe.
#[derive(Clone, Debug)]
pub struct ProgramRecipe {
    /// Shape selector: which statements surround the inner loop.
    pub shape: usize,
    /// Per-statement read offsets (±2).
    pub oa: Int,
    /// Second read offset.
    pub ob: Int,
    /// Inner loop lower bound is the outer variable (triangular).
    pub triangular: bool,
    /// Second statement reads the first statement's array.
    pub cross: bool,
    /// Guard selector: 0 = none, 1 = `i ≤ j`, 2 = `2 | i`, 3 = both.
    pub guard: usize,
    /// Add a second, sibling loop nest after the first.
    pub sibling: bool,
}

/// Build the program described by a recipe. Extents leave slack so ±2
/// offsets stay in range.
pub fn build_program(r: &ProgramRecipe) -> Program {
    let mut b = ProgramBuilder::new(format!(
        "fuzz_{}_{}_{}_{}{}{}{}",
        r.shape, r.oa, r.ob, r.triangular as u8, r.cross as u8, r.guard, r.sibling as u8
    ));
    let n = b.param("N");
    let ext = Aff::param(n) + Aff::konst(6);
    let x = b.array("X", &[ext.clone(), ext.clone()]);
    let y = b.array("Y", &[ext.clone(), ext.clone()]);
    let sh = |v: Aff| v + Aff::konst(3);
    let recipe = r.clone();
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        if recipe.shape != 1 {
            b.stmt(
                "S1",
                x,
                vec![sh(Aff::var(i)), sh(Aff::var(i))],
                Expr::add(
                    Expr::read(
                        x,
                        vec![sh(Aff::var(i) + Aff::konst(recipe.oa)), sh(Aff::var(i))],
                    ),
                    Expr::konst(1.0),
                ),
            );
        }
        let jlo = if recipe.triangular {
            Aff::var(i)
        } else {
            Aff::konst(1)
        };
        b.hloop("J", jlo, Aff::param(n), |b| {
            let i = b.loop_var("I");
            let j = b.loop_var("J");
            let src = if recipe.cross { x } else { y };
            let mut guards = Vec::new();
            if recipe.guard & 1 != 0 {
                guards.push(inl_ir::Guard::Ge(Aff::var(j) - Aff::var(i)));
            }
            if recipe.guard & 2 != 0 {
                guards.push(inl_ir::Guard::Div(Aff::var(i), 2));
            }
            b.stmt_guarded(
                "S2",
                y,
                vec![sh(Aff::var(i)), sh(Aff::var(j))],
                Expr::add(
                    Expr::read(
                        src,
                        vec![sh(Aff::var(i) + Aff::konst(recipe.ob)), sh(Aff::var(j))],
                    ),
                    Expr::index(Aff::var(i) + Aff::var(j)),
                ),
                guards,
            );
        });
        if recipe.shape == 2 {
            b.stmt(
                "S3",
                x,
                vec![sh(Aff::var(i)), sh(Aff::konst(0))],
                Expr::read(y, vec![sh(Aff::var(i)), sh(Aff::konst(1))]),
            );
        }
    });
    if r.sibling {
        b.hloop("K", Aff::konst(1), Aff::param(n), |b| {
            let k = b.loop_var("K");
            b.stmt(
                "S4",
                x,
                vec![sh(Aff::var(k)), sh(Aff::konst(1))],
                Expr::read(y, vec![sh(Aff::var(k)), sh(Aff::var(k))]),
            );
        });
    }
    b.finish()
}

/// Random imperfectly nested programs: shapes, triangular bounds, guards
/// (including divisibility), sibling nests.
pub fn arb_program() -> impl Strategy<Value = Program> {
    (
        0..3usize,
        -2..=2i64,
        -2..=2i64,
        prop::bool::ANY,
        prop::bool::ANY,
        0..4usize,
        prop::bool::ANY,
    )
        .prop_map(|(shape, oa, ob, triangular, cross, guard, sibling)| {
            build_program(&ProgramRecipe {
                shape,
                oa: oa as Int,
                ob: ob as Int,
                triangular,
                cross,
                guard,
                sibling,
            })
        })
}

/// One subscript `a·J + b·I + c` of a generated inner loop, as `(a, b, c)`.
pub type Subscript = (Int, Int, Int);

/// How a generated statement combines its two reads: the first on either
/// side of each operator, under one operator or two — a lone statement whose
/// first read is the cell the trip before stored runs with that cell in a
/// register, and a swapped or reassociated operand shows in the bits.
const INNER_SHAPES: [fn(Expr, Expr) -> Expr; 10] = [
    |r1, r2| Expr::add(r1, Expr::mul(Expr::konst(0.5), r2)),
    |r1, r2| Expr::add(Expr::mul(Expr::konst(0.5), r2), r1),
    |r1, r2| Expr::sub(r1, r2),
    |r1, r2| Expr::sub(r2, r1),
    |r1, r2| Expr::mul(r1, r2),
    |r1, r2| Expr::mul(r2, r1),
    |r1, r2| Expr::div(r1, r2),
    |r1, r2| Expr::div(r2, r1),
    |r1, r2| Expr::mul(Expr::add(r1, r2), Expr::konst(0.5)),
    |r1, r2| Expr::sub(r2, Expr::mul(Expr::konst(0.5), r1)),
];

/// Parameters of a generated two-deep nest whose inner loop is guard-free —
/// the loops the VM runs as trip kernels, in columns, around one carried
/// cell or trip by trip according to their address spans; kept as a value so
/// failures print a reproducible recipe.
#[derive(Clone, Debug)]
pub struct InnerLoopRecipe {
    /// One to three statements `W[w] = shape(R1[r1], R2[r2])`: the
    /// subscripts `[w, r1, r2]` and a selector — bit `k < 3`, whether the
    /// `k`-th of them indexes `Y` rather than `X`; the bits above, which of
    /// the ten shapes (`R1[r1] + 0.5·R2[r2]` is shape 0).
    pub stmts: Vec<(usize, [Subscript; 3])>,
    /// Inner lower bound is the outer variable (triangular).
    pub triangular: bool,
    /// Inner step.
    pub step: Int,
}

/// Build `do I = 1..3 { do J = (1 | I)..N step s { stmts } }` over two
/// arrays of `4N+16` cells, every subscript shifted by `2N+8` so that
/// `|a| ≤ 2`, `|b| ≤ 1`, `|c| ≤ 3` stay in range. `I`'s body is only `J`:
/// wherever `J` lowers to a trip kernel, the VM enters it once per trip of
/// `I`.
pub fn build_inner_loop(r: &InnerLoopRecipe) -> Program {
    let mut b = ProgramBuilder::new(format!("fuzz_inner_{r:?}"));
    let n = b.param("N");
    let ext = [Aff::param(n) * 4 + Aff::konst(16)];
    let arrays = [b.array("X", &ext), b.array("Y", &ext)];
    b.hloop("I", Aff::konst(1), Aff::konst(3), |b| {
        let i = b.loop_var("I");
        let lo = if r.triangular {
            Aff::var(i)
        } else {
            Aff::konst(1)
        };
        let (lo, hi) = (Bound::single(lo), Bound::single(Aff::param(n)));
        b.loop_full("J", lo, hi, r.step, false, |b| {
            let j = b.loop_var("J");
            for (k, &(sel, subs)) in r.stmts.iter().enumerate() {
                let at = |which: usize| {
                    let (a, bi, c) = subs[which];
                    let sub = Aff::var(j) * a + Aff::var(i) * bi + Aff::param(n) * 2;
                    (arrays[sel >> which & 1], vec![sub + Aff::konst(8 + c)])
                };
                let ((w, widx), (r1, r1idx), (r2, r2idx)) = (at(0), at(1), at(2));
                let shape = INNER_SHAPES[(sel >> 3) % INNER_SHAPES.len()];
                b.stmt(
                    format!("S{}", k + 1),
                    w,
                    widx,
                    shape(Expr::read(r1, r1idx), Expr::read(r2, r2idx)),
                );
            }
        });
    });
    b.finish()
}

/// Random guard-free inner loops, each with the `N` to run it at: strided
/// and triangular `J` ranges whose trip counts straddle the VM's column
/// width (1–6, 125–130, 254–259), subscripts that carry dependences at
/// small distances in both directions, reduce into one cell (`a = 0`), run
/// backwards, or never meet, under every operator with the reads on either
/// side; a third of the statements read the cell their store wrote a trip
/// earlier.
pub fn arb_inner_loop() -> impl Strategy<Value = (Program, Int)> {
    let sub =
        (-2..=2i64, -1..=1i64, -3..=3i64).prop_map(|(a, b, c)| (a as Int, b as Int, c as Int));
    let stmt = (
        0..8 * INNER_SHAPES.len(),
        0..3usize,
        (sub.clone(), sub.clone(), sub),
    );
    (
        prop::collection::vec(stmt, 1..=3),
        prop::bool::ANY,
        1..=3i64,
        (0..3usize, 0..6i64, 0..3i64),
    )
        .prop_map(|(stmts, triangular, step, (band, trips, short))| {
            // One statement in three reads, as its first operand, what its
            // store wrote a trip earlier — the cell it reduces into when the
            // store stands still — where that subscript stays in range.
            let link =
                |(sel, link, (w, r1, r2)): (usize, usize, (Subscript, Subscript, Subscript))| {
                    let behind = (w.0, w.1, w.2 - w.0 * step as Int);
                    if link == 0 && behind.2.abs() <= 3 {
                        // R1's array bit takes W's
                        (sel & !2 | (sel & 1) << 1, [w, behind, r2])
                    } else {
                        (sel, [w, r1, r2])
                    }
                };
            let stmts = stmts.into_iter().map(link).collect();
            let trips = [1, 125, 254][band] + trips;
            // the bound falls on, or up to `step − 1` short of, an iteration
            let n = (trips * step - short % step).max(1);
            let recipe = InnerLoopRecipe {
                stmts,
                triangular,
                step: step as Int,
            };
            (build_inner_loop(&recipe), n as Int)
        })
}

/// A random square integer matrix with entries in `[-bound, bound]` —
/// deliberately *not* restricted to legal or unimodular transformations,
/// so singular, illegal, and structurally malformed matrices all flow
/// through the checker and codegen.
pub fn arb_matrix(n: usize, bound: i64) -> impl Strategy<Value = IMat> {
    let span = (2 * bound + 1) as usize;
    prop::collection::vec(0..span, n * n).prop_map(move |cells| {
        let mut m = IMat::zeros(n, n);
        for (k, c) in cells.iter().enumerate() {
            m[(k / n, k % n)] = *c as Int - bound as Int;
        }
        m
    })
}

/// A random constraint system over `nvars` variables. `magnitude` selects
/// the coefficient range; pass something near `i128::MAX` to hunt
/// overflow escalation bugs in Fourier–Motzkin and feasibility checks.
pub fn arb_system(nvars: usize, rows: usize, magnitude: Int) -> impl Strategy<Value = System> {
    let coeff = prop::collection::vec(0u64..7, nvars + 1);
    prop::collection::vec((coeff, proptest::strategy::Just(())), 1..=rows).prop_map(move |picked| {
        let mut s = System::new(nvars);
        for (cells, ()) in picked {
            let coeffs: Vec<Int> = cells[..nvars]
                .iter()
                .map(|&c| match c {
                    0 => 0,
                    1 => 1,
                    2 => -1,
                    3 => magnitude,
                    4 => -magnitude,
                    5 => magnitude / 2,
                    _ => 2,
                })
                .collect();
            let konst = match cells[nvars] {
                0 | 1 => 0,
                2 => 1,
                3 => -1,
                4 => magnitude,
                _ => -magnitude,
            };
            let e = LinExpr::from_parts(coeffs, konst);
            if cells[nvars] % 2 == 0 {
                s.add_ge(e);
            } else {
                s.add_eq(e);
            }
        }
        s
    })
}

/// Initial array contents used by the differential tests: deterministic,
/// index-dependent, never zero (so missed writes show up).
pub fn fuzz_init(_: &str, idx: &[usize]) -> f64 {
    let mut h: u64 = 0x9E37_79B9;
    for &i in idx {
        h = h.wrapping_mul(31).wrapping_add(i as u64 + 1);
    }
    ((h % 97) as f64 + 1.0) / 7.0
}
