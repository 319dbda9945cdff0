//! Static cost features of a generated variant, and the cost the
//! auto-scheduler ranks it on.
//!
//! The auto-scheduler (`inl-sched`) ranks legal variants *without running
//! them*, using integer features computed from the dependence matrix, the
//! transformation, and the generated loop nest — a `Nest` read off the
//! statement plans before anything is built: one walk, `predict`, over the
//! nest the scheduler ranks and [`crate::generate()`] emits. Everything here
//! is exact integer arithmetic over structures the pipeline already built —
//! no timing, no floating point — so ranking is deterministic and
//! reproducible across machines, and the same numbers double as explain
//! evidence (`inl_obs::explain` features on the `codegen` stage).
//!
//! # The predicted cost
//!
//! [`PredictedCost`] is one additive figure per variant (DESIGN.md → "Cost
//! model (exact formulas)" has the fitted constants and the sweep they came
//! from):
//!
//! ```text
//! cost = Σ_statements instances × per-trip cost
//!      + Σ_innermost loops entries × (ENTRY + BOUND × bound terms)
//!      + Σ_other loops entries × (NEST + BOUND × bound terms)
//! ```
//!
//! * **Trip lengths.** A loop whose bounds hold a lower/upper term pair a
//!   variable-free constant `c` apart runs at most `⌊c⌋ + 1` trips: `T` for
//!   a split's tile loop (`T·vo ≤ v ≤ T·vo + T − 1`), one for the
//!   tile-number loop a permutation sinks inside its tile loop. A loop with
//!   a divided bound term (`⌈(e−T+1)/T⌉..⌊e/T⌋`, a tile-number loop) runs
//!   [`NOMINAL_EXTENT`]` / T`; every other loop [`NOMINAL_EXTENT`]. A
//!   statement's instances are the product over its loops, an innermost
//!   loop's entries the product over the loops around it.
//! * **Executor** of an innermost loop — the one the VM's trip kernels will
//!   pick (`inl_vm::run`): *columns* when `inl_core::parallel` certifies the
//!   loop DOALL and every store moves with it; *carried* when its one
//!   statement hands one cell from trip to trip — a reduction (the store
//!   stands still and is read back: the cell stays in a register, read and
//!   written once per entry) or a distance-1 recurrence (a read is the store
//!   one trip back) — costed by the latency of the operators on the chain
//!   from that read to the store; *dispatch* otherwise, and for a
//!   statement whose loop also holds a loop. A body the VM cannot lower to a
//!   kernel (a divided subscript or index value, more accesses or registers
//!   than a kernel's files hold) is dispatched.
//! * **Per-trip cost**: the access classes of the write and every read with
//!   respect to the innermost loop that iterates more than once (invariant,
//!   unit stride, strided within the minor dimension, row jump), the
//!   operators (division and square root dearer), plus the chain latency of
//!   a carried loop or the per-instruction cost of the dispatcher.
//!
//! Tile size enters through the trip lengths alone: a bigger `T` makes a
//! tile-innermost variant's entries fewer, and no capacity term credits a
//! slab (at the nominal extent every zoo working set fits in L2).
//!
//! # Guards
//!
//! [`CostFeatures::guards`] counts the guards surviving guard
//! simplification; each is a per-instance branch in the inner loops. It is
//! not part of the ranking: no zoo variant keeps one
//! (`tests/search_sound.rs` checks all of them), and a kernel body with a
//! guard would run on the dispatcher, which the predicted cost would then
//! have to charge.

use crate::plan::StmtPlan;
use inl_core::depend::DependenceMatrix;
use inl_core::instance::InstanceLayout;
use inl_ir::{Access, Aff, Expr, LoopId, StmtId, VarKey};
use inl_linalg::IMat;
use std::cmp::Reverse;
use std::fmt;

/// Trips of a loop whose bounds are parametric: the one nominal extent the
/// model assumes for every `N`.
pub const NOMINAL_EXTENT: i64 = 64;

/// Per trip and access, by [`access_class`]: invariant, unit stride,
/// strided, row jump. Every constant here was fitted once against the
/// regret report of an N = 128 sweep, committed as `fit/cost_n128.csv`
/// (the test `the_constants_are_the_fit_of_the_committed_sweep` reruns the
/// fit; DESIGN.md → "Cost model (exact formulas)"), in units of
/// [`ENTRY`]` / 600`. No zoo access is strided: that class sits between its
/// neighbours, unfitted.
const ACCESS: [i64; 4] = [0, 3, 5, 6];

/// Per trip and operator (constant, index value, `+ − × neg`) in columns.
const OP: i64 = 6;

/// Per trip and `÷` or `√` in columns.
const SLOW_OP: i64 = 10;

/// Per trip and operator on a carried chain: the latency of `+ − × neg`.
const CHAIN: i64 = 5;

/// Per trip and `÷` or `√` on a carried chain.
const SLOW_CHAIN: i64 = 43;

/// Per trip and instruction on the dispatcher.
const DISPATCH: i64 = 81;

/// Per entry of an innermost loop — range proof, choice of executor:
/// ≈ 60 ns measured (PR 25), the scale the others are fitted in.
const ENTRY: i64 = 600;

/// Per entry of a loop that holds a loop: its header on the dispatcher.
const NEST: i64 = 304;

/// Per entry of any loop and term of its bounds: each entry evaluates every
/// term of the `max` and the `min`.
const BOUND: i64 = 37;

/// Accesses and value registers a trip kernel holds (`inl_vm`'s
/// `KERNEL_SLOTS` and `KERNEL_REGS`).
const KERNEL_FILE: usize = 8;

/// Integer cost features of one generated variant (module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostFeatures {
    /// Guards surviving simplification, summed over statements.
    pub guards: i64,
    /// The predicted cost and its terms.
    pub predicted: PredictedCost,
}

/// The trip executor the VM is predicted to run an innermost loop on (the
/// names are `inl_vm::profile::LoopProfile::mode`'s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// Each op over a column of trips.
    Columns,
    /// Columns around one cell handed from trip to trip.
    Carried,
    /// One instruction at a time.
    Dispatch,
}

impl Executor {
    /// `"columns"`, `"carried"` or `"dispatch"`.
    pub fn name(self) -> &'static str {
        match self {
            Executor::Columns => "columns",
            Executor::Carried => "carried",
            Executor::Dispatch => "dispatch",
        }
    }
}

/// One innermost loop of a generated program, as the model sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InnerLoop {
    /// The loop, in the generated program.
    pub id: LoopId,
    /// The executor its trips are predicted to run on.
    pub executor: Executor,
    /// Nominal trips per entry.
    pub trips: i64,
    /// Nominal entries.
    pub entries: i64,
}

/// The figure the scheduler ranks every leaf on, with its three terms
/// (module docs). Read off loop bounds, subscripts, nesting, the matrix and
/// the dependences — nothing guard simplification touches, and nothing the
/// statement plans do not already hold — so a leaf ranked from its plans
/// ([`crate::PlanTable::predict`]) predicts what its finished form does.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictedCost {
    /// Σ over statements of instances × per-trip cost.
    pub trip_cost: i64,
    /// Σ over innermost loops of entries × the per-entry cost.
    pub entry_cost: i64,
    /// Σ over the loops that hold a loop of entries × their per-entry
    /// cost: the overhead of the nest around the innermost loops.
    pub nest_cost: i64,
    /// Every innermost loop, in program order.
    pub inner: Vec<InnerLoop>,
}

impl PredictedCost {
    /// The ranking figure: the three terms.
    pub fn total(&self) -> i64 {
        self.trip_cost
            .saturating_add(self.entry_cost)
            .saturating_add(self.nest_cost)
    }

    /// The innermost loop with the most nominal trips, the first in program
    /// order among equals.
    pub fn hottest(&self) -> Option<&InnerLoop> {
        self.inner
            .iter()
            .min_by_key(|l| Reverse(l.trips.saturating_mul(l.entries)))
    }
}

impl fmt::Display for PredictedCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cost={} trips={} entries={} nest={}",
            self.total(),
            self.trip_cost,
            self.entry_cost,
            self.nest_cost
        )
    }
}

/// Where a loop of the generated program comes from: what its DOALL
/// certificate is computed over.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LoopOrigin {
    /// Loop slot `q` of the transformation (row `q` of the matrix).
    Slot(usize),
    /// Augmented loop `level` (§5.4) of one source statement, outermost
    /// 0: its rows are the statement plan's.
    Aug { stmt: StmtId, level: usize },
}

/// A generated loop nest as the model reads it: off the statement plans
/// before anything is built (`crate::plan::plan_nest`), and what the
/// `Builder` emits.
pub(crate) enum Nest<'a> {
    Loop(NestLoop<'a>),
    /// A source statement: its write and right-hand side.
    Stmt {
        stmt: StmtId,
        write: &'a Access,
        rhs: &'a Expr,
    },
}

/// One loop of a [`Nest`].
pub(crate) struct NestLoop<'a> {
    /// The loop's id in the generated program.
    pub(crate) id: LoopId,
    /// The loop variable the bounds and subscripts inside name it by.
    pub(crate) var: LoopId,
    /// The terms of its `max` and `min` bounds.
    pub(crate) lower: &'a [Aff],
    pub(crate) upper: &'a [Aff],
    pub(crate) origin: LoopOrigin,
    pub(crate) children: Vec<Nest<'a>>,
}

/// At most how many trips a loop runs per entry when two of its bound terms
/// are a variable-free constant apart: `⌊ut − lt⌋ + 1`, between 1 and the
/// nominal extent.
fn bounded_trips(lower: &[Aff], upper: &[Aff]) -> Option<i64> {
    let pairs = lower.iter().flat_map(|lt| {
        upper.iter().filter_map(move |ut| {
            let diff = ut.clone() - lt.clone();
            diff.terms()
                .is_empty()
                .then(|| diff.constant().div_euclid(diff.divisor()) + 1)
        })
    });
    pairs
        .min()
        .map(|t| t.clamp(1, NOMINAL_EXTENT as i128) as i64)
}

/// Nominal trips per entry of a loop with these bound terms (module docs).
fn nominal_trips(lower: &[Aff], upper: &[Aff]) -> i64 {
    bounded_trips(lower, upper).unwrap_or_else(|| {
        let terms = lower.iter().chain(upper);
        let tile = terms.map(Aff::divisor).max().unwrap_or(1);
        (NOMINAL_EXTENT / tile.clamp(1, NOMINAL_EXTENT as i128) as i64).max(1)
    })
}

/// Class of one access with respect to loop variable `v`: 0 invariant, 1
/// unit stride through the minor dimension, 2 strided within it, 3 a row
/// jump (`v` in a non-last subscript). The worst subscript decides.
fn access_class(idxs: &[Aff], v: VarKey) -> usize {
    let last = idxs.len().saturating_sub(1);
    let per_dim = idxs.iter().enumerate().map(|(k, a)| match a.coeff(v) {
        0 => 0,
        _ if k < last => 3,
        1 | -1 => 1,
        _ => 2,
    });
    per_dim.max().unwrap_or(0)
}

/// Value registers the VM's stack allocation gives an expression.
fn registers(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Index(_) | Expr::Read(_) => 1,
        Expr::Neg(x) | Expr::Sqrt(x) => registers(x),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
            registers(a).max(1 + registers(b))
        }
    }
}

/// Per-trip cost of an expression's operators in columns, and its
/// instruction count on the dispatcher.
fn ops(e: &Expr) -> (i64, i64) {
    let (own, kids): (i64, &[&Expr]) = match e {
        Expr::Const(_) | Expr::Index(_) => (OP, &[]),
        Expr::Read(_) => (0, &[]),
        Expr::Neg(x) => (OP, &[&**x]),
        Expr::Sqrt(x) => (SLOW_OP, &[&**x]),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => (OP, &[&**a, &**b]),
        Expr::Div(a, b) => (SLOW_OP, &[&**a, &**b]),
    };
    kids.iter()
        .map(|k| ops(k))
        .fold((own, 1), |(c, n), (kc, kn)| (c + kc, n + kn))
}

/// Latency of the operators from the one read of `carried` in `e` up to
/// `e`'s root, or `None` when `e` reads it other than exactly once.
fn chain_latency(e: &Expr, carried: &Access) -> Option<i64> {
    fn walk(e: &Expr, carried: &Access, found: &mut Vec<i64>) -> bool {
        let (lat, kids): (i64, &[&Expr]) = match e {
            Expr::Read(a) => return a == carried,
            Expr::Const(_) | Expr::Index(_) => return false,
            Expr::Neg(x) => (CHAIN, &[&**x]),
            Expr::Sqrt(x) => (SLOW_CHAIN, &[&**x]),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => (CHAIN, &[&**a, &**b]),
            Expr::Div(a, b) => (SLOW_CHAIN, &[&**a, &**b]),
        };
        let on_chain = kids.iter().any(|k| walk(k, carried, found));
        if on_chain {
            found.push(lat);
        }
        on_chain
    }
    let mut reads_of_carried = 0;
    e.for_each_read(&mut |r| reads_of_carried += usize::from(r == carried));
    if reads_of_carried != 1 {
        return None;
    }
    let mut found = Vec::new();
    walk(e, carried, &mut found);
    Some(found.iter().sum())
}

/// What the model needs to certify an innermost loop DOALL.
pub(crate) struct Certify<'a> {
    pub(crate) layout: &'a InstanceLayout,
    pub(crate) deps: &'a DependenceMatrix,
    pub(crate) m: &'a IMat,
    /// The statements' plans, by statement: an augmented loop's rows.
    pub(crate) plans: &'a [&'a StmtPlan],
}

impl Certify<'_> {
    fn doall(&self, origin: LoopOrigin) -> bool {
        let (layout, deps, m) = (self.layout, self.deps, self.m);
        match origin {
            LoopOrigin::Slot(q) => inl_core::parallel::slot_is_parallel(layout, deps, m, q),
            LoopOrigin::Aug { stmt, level } => {
                let rows = &self.plans[stmt.0].augs[level].rows;
                inl_core::parallel::augmented_loop_is_parallel(layout, deps, m, stmt, rows)
            }
        }
    }
}

/// How the trips of an innermost loop's body run.
struct Kernel {
    executor: Executor,
    /// Latency per trip of a carried chain.
    latency: i64,
    /// The cell a reduction holds in a register across the trips: read and
    /// written once per entry, not per trip.
    held: Option<Access>,
}

impl Kernel {
    const DISPATCH: Kernel = Kernel {
        executor: Executor::Dispatch,
        latency: 0,
        held: None,
    };
}

/// How the trips of innermost loop `l`, whose body is the statements
/// `body` (write, right-hand side), run (module docs).
fn kernel(l: &NestLoop, body: &[(&Access, &Expr)], cert: &Certify) -> Kernel {
    let mut accesses: Vec<&Access> = Vec::new();
    for &(write, rhs) in body {
        accesses.push(write);
        rhs.for_each_read(&mut |r| accesses.push(r));
    }
    let mut distinct: Vec<&Access> = Vec::new();
    for &a in &accesses {
        if !distinct.contains(&a) {
            distinct.push(a);
        }
    }
    let integral = accesses
        .iter()
        .flat_map(|a| &a.idxs)
        .all(|ix| ix.divisor() == 1)
        && body.iter().all(|(_, rhs)| index_values_integral(rhs));
    let fits = integral
        && distinct.len() <= KERNEL_FILE
        && body.iter().all(|(_, rhs)| registers(rhs) <= KERNEL_FILE);
    if !fits {
        return Kernel::DISPATCH;
    }
    let v = VarKey::Loop(l.var);
    let moves = |a: &Access| a.idxs.iter().any(|ix| ix.coeff(v) != 0);
    if body.iter().all(|(w, _)| moves(w)) && cert.doall(l.origin) {
        return Kernel {
            executor: Executor::Columns,
            ..Kernel::DISPATCH
        };
    }
    let [(w, rhs)] = body[..] else {
        return Kernel::DISPATCH;
    };
    // the cell handed on: the stored one when it stands still, else the one
    // the trip before stored
    let carried = Access {
        array: w.array,
        idxs: w
            .idxs
            .iter()
            .map(|ix| ix.clone() - Aff::konst(ix.coeff(v)))
            .collect(),
    };
    match chain_latency(rhs, &carried) {
        Some(latency) => Kernel {
            executor: Executor::Carried,
            latency,
            held: (!moves(w)).then(|| w.clone()),
        },
        None => Kernel::DISPATCH,
    }
}

/// Whether every index value of `e` is an integer row (the VM's kernels
/// step no divided row).
fn index_values_integral(e: &Expr) -> bool {
    match e {
        Expr::Index(a) => a.divisor() == 1,
        Expr::Const(_) | Expr::Read(_) => true,
        Expr::Neg(x) | Expr::Sqrt(x) => index_values_integral(x),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
            index_values_integral(a) && index_values_integral(b)
        }
    }
}

/// Per-trip cost of the statement `write = rhs` run as `kernel` says, its
/// accesses classed by `inner`, the variable of the innermost loop around
/// it that iterates more than once.
fn per_trip(write: &Access, rhs: &Expr, inner: Option<VarKey>, kernel: &Kernel) -> i64 {
    let mut access: i64 = 0;
    let mut add = |a: &Access| {
        if kernel.held.as_ref() != Some(a) {
            access += ACCESS[inner.map_or(0, |v| access_class(&a.idxs, v))];
        }
    };
    add(write);
    rhs.for_each_read(&mut add);
    let (op_cost, instrs) = ops(rhs);
    access
        + match kernel.executor {
            Executor::Columns => op_cost,
            Executor::Carried => op_cost + kernel.latency,
            // the ops, the store and the latch, one dispatch each
            Executor::Dispatch => (instrs + 2) * DISPATCH,
        }
}

/// The walk that sums [`PredictedCost`] over a nest.
struct Predict<'a> {
    cert: &'a Certify<'a>,
    cost: PredictedCost,
}

impl Predict<'_> {
    /// `nodes` sit inside `path` (loop variable, nominal trips); `kernel`
    /// is how their loop runs when it is innermost.
    fn walk(&mut self, nodes: &[Nest], path: &mut Vec<(VarKey, i64)>, kernel: Option<&Kernel>) {
        // how often each of `nodes` runs: a loop's entries, a statement's
        // instances
        let runs: i64 = path.iter().fold(1i64, |n, &(_, t)| n.saturating_mul(t));
        for n in nodes {
            match n {
                Nest::Loop(l) => {
                    let trips = nominal_trips(l.lower, l.upper);
                    let bounds = BOUND * (l.lower.len() + l.upper.len()) as i64;
                    let body: Vec<(&Access, &Expr)> = l
                        .children
                        .iter()
                        .filter_map(|c| match c {
                            Nest::Stmt { write, rhs, .. } => Some((*write, *rhs)),
                            Nest::Loop(_) => None,
                        })
                        .collect();
                    let inner = if body.len() < l.children.len() {
                        let nest = runs.saturating_mul(NEST + bounds);
                        self.cost.nest_cost = self.cost.nest_cost.saturating_add(nest);
                        None
                    } else {
                        let k = self::kernel(l, &body, self.cert);
                        self.cost.inner.push(InnerLoop {
                            id: l.id,
                            executor: k.executor,
                            trips,
                            entries: runs,
                        });
                        let entry = runs.saturating_mul(ENTRY + bounds);
                        self.cost.entry_cost = self.cost.entry_cost.saturating_add(entry);
                        Some(k)
                    };
                    path.push((VarKey::Loop(l.var), trips));
                    self.walk(&l.children, path, inner.as_ref());
                    path.pop();
                }
                Nest::Stmt { write, rhs, .. } => {
                    let k = kernel.unwrap_or(&Kernel::DISPATCH);
                    let iterating = path.iter().rev().find(|&&(_, t)| t > 1).map(|&(v, _)| v);
                    let trip = per_trip(write, rhs, iterating, k);
                    self.cost.trip_cost = self
                        .cost
                        .trip_cost
                        .saturating_add(runs.saturating_mul(trip));
                }
            }
        }
    }
}

/// The [`PredictedCost`] of a generated nest, lowered from the source
/// program of `cert`'s layout and dependences under its matrix.
pub(crate) fn predict(nest: &[Nest], cert: &Certify) -> PredictedCost {
    let mut p = Predict {
        cert,
        cost: PredictedCost::default(),
    };
    p.walk(nest, &mut Vec::new(), None);
    p.cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_core::depend::analyze;
    use inl_ir::zoo;

    #[test]
    fn identity_matmul_prediction() {
        // matmul C(i,j) += A(i,k)·B(k,j) under identity (i,j,k): `K` is
        // innermost and carries the reduction into C(i,j) — one `+` on the
        // chain, C held in a register. Per trip: A(i,k) unit, B(k,j) a row
        // jump; `×` and `+` one op each.
        let p = zoo::matmul();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = IMat::identity(layout.len());
        let r = crate::generate(&p, &layout, &deps, &m).expect("generates");
        let f = &r.features.predicted;
        let e = NOMINAL_EXTENT;
        assert_eq!(f.inner.len(), 1);
        assert_eq!(f.inner[0].executor, Executor::Carried);
        assert_eq!((f.inner[0].trips, f.inner[0].entries), (e, e * e));
        let trip = ACCESS[1] + ACCESS[3] + 2 * OP + CHAIN;
        assert_eq!(f.trip_cost, e * e * e * trip);
        // every loop is `1..N`: one lower and one upper bound term
        assert_eq!(f.entry_cost, e * e * (ENTRY + 2 * BOUND));
        // I is entered once, J once per trip of I
        assert_eq!(f.nest_cost, (1 + e) * (NEST + 2 * BOUND));
        assert_eq!(f.total(), f.trip_cost + f.entry_cost + f.nest_cost);
    }

    /// The sweep the constants were fitted on (DESIGN.md → "Cost model"):
    /// one row per ranked zoo variant at N = 128 — the measured ns (min of
    /// three sweeps), the model's terms split by constant (trips × accesses
    /// of each class, operators, chain operators, dispatched instructions,
    /// innermost entries, nest entries, entries × bound terms), and the
    /// predicted cost those add up to.
    const FIT_TABLE: &str = include_str!("../fit/cost_n128.csv");

    /// The constants in the table's column order.
    fn constants() -> [i64; 12] {
        let [inv, unit, strided, row] = ACCESS;
        [
            inv, unit, strided, row, OP, SLOW_OP, CHAIN, SLOW_CHAIN, DISPATCH, ENTRY, NEST, BOUND,
        ]
    }

    /// A fit-table row: program, ns, terms, predicted cost.
    type FitRow = (String, f64, [i64; 12], i64);

    fn fit_rows() -> Vec<FitRow> {
        let mut lines = FIT_TABLE.lines();
        assert!(lines
            .next()
            .is_some_and(|h| h.starts_with("program,label,ns,")));
        lines
            .map(|line| {
                let f: Vec<&str> = line.split(',').collect();
                let int = |s: &str| s.parse::<i64>().expect(line);
                let terms = std::array::from_fn(|i| int(f[3 + i]));
                (f[0].to_string(), int(f[2]) as f64, terms, int(f[15]))
            })
            .collect()
    }

    fn dot(k: &[i64; 12], terms: &[i64; 12]) -> i64 {
        k.iter().zip(terms).map(|(a, b)| a * b).sum()
    }

    /// The fit's loss: least squares on log time with one free offset per
    /// program (only a program's variants are compared with each other).
    fn loss(k: &[i64; 12], rows: &[&FitRow]) -> f64 {
        let mut programs: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        programs.dedup();
        programs
            .iter()
            .map(|&p| {
                let res: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.0 == p)
                    .map(|r| (dot(k, &r.2) as f64).ln() - r.1.ln())
                    .collect();
                let mean = res.iter().sum::<f64>() / res.len() as f64;
                res.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            })
            .sum()
    }

    /// The fit: coordinate descent on [`loss`] from `k`, `ENTRY` (column 9)
    /// held as the scale, the access classes kept ordered and each slow constant at
    /// least its fast one; steps of ±1, 2, 4, 8, or ±10 %, 30 % from 60 up.
    fn descend(mut k: [i64; 12], rows: &[&FitRow]) -> [i64; 12] {
        let ordered = |k: &[i64; 12]| {
            k.iter().all(|&c| c >= 0) && k[..4].is_sorted() && k[4] <= k[5] && k[6] <= k[7]
        };
        let mut best = loss(&k, rows);
        let mut improved = true;
        while improved {
            improved = false;
            for i in (0..12).filter(|&i| i != 9) {
                let small = k[i] < 60;
                let steps: &[f64] = match small {
                    true => &[-8.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0],
                    false => &[-0.3, -0.1, 0.1, 0.3],
                };
                for &s in steps {
                    let mut t = k;
                    t[i] = match small {
                        true => k[i] + s as i64,
                        false => (k[i] as f64 * (1.0 + s)).round() as i64,
                    };
                    let l = match ordered(&t) {
                        true => loss(&t, rows),
                        false => f64::INFINITY,
                    };
                    if l < best - 1e-9 {
                        (k, best, improved) = (t, l, true);
                    }
                }
            }
        }
        k
    }

    #[test]
    fn the_constants_are_the_fit_of_the_committed_sweep() {
        let rows = fit_rows();
        assert_eq!(rows.len(), 283, "every ranked zoo leaf");
        for r in &rows {
            assert_eq!(dot(&constants(), &r.2), r.3, "{r:?}");
        }
        // the tier a pick is made in: within 1.5× of the program's best
        let best = |p: &str| {
            rows.iter()
                .filter(|r| r.0 == p)
                .map(|r| r.1)
                .fold(f64::MAX, f64::min)
        };
        let tier: Vec<&FitRow> = rows.iter().filter(|r| r.1 <= 1.5 * best(&r.0)).collect();
        assert_eq!(tier.len(), 88);
        // the fit started from the constants of a first fit to an earlier
        // sweep, and the descent from there ends at the committed ones
        let start = [0, 3, 5, 6, 1, 8, 9, 43, 37, 600, 254, 28];
        assert_eq!(descend(start, &tier), constants(), "refit");
    }

    #[test]
    fn trip_lengths_read_the_bounds() {
        // the tile loop runs T trips, the tile-number loop N/T, the rest
        // the nominal extent
        let p = zoo::matmul();
        let k = p.loops().find(|&l| p.loop_decl(l).name == "K").expect("K");
        let split = inl_core::tiling::split(&p, k, 16).expect("splits").program;
        let trips = |name: &str| {
            let l = split.loops().find(|&l| split.loop_decl(l).name == name);
            let ld = split.loop_decl(l.expect(name));
            nominal_trips(&ld.lower.terms, &ld.upper.terms)
        };
        assert_eq!(trips("K"), 16);
        assert_eq!(trips("Ko"), NOMINAL_EXTENT / 16);
        assert_eq!(trips("I"), NOMINAL_EXTENT);
    }

    #[test]
    fn access_classes() {
        use inl_ir::ProgramBuilder;
        // build a tiny program just to obtain loop VarKeys
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n), Aff::param(n)]);
        b.hloop("I", Aff::konst(0), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.stmt("S", x, vec![Aff::var(i), Aff::var(i)], Expr::konst(0.0));
        });
        let p = b.finish();
        let i = VarKey::Loop(p.loops().next().unwrap());
        let n0 = Aff::konst(0);
        let unit = Aff::var(i);
        let strided = Aff::var(i) * 3;
        assert_eq!(access_class(&[n0.clone(), n0.clone()], i), 0);
        assert_eq!(access_class(&[n0.clone(), unit.clone()], i), 1);
        assert_eq!(access_class(&[n0.clone(), strided], i), 2);
        assert_eq!(access_class(&[unit.clone(), n0], i), 3);
        // worst class wins when both subscripts use the variable
        assert_eq!(access_class(&[unit.clone(), unit], i), 3);
    }

    #[test]
    fn chains_run_from_the_handed_on_read_to_the_store() {
        // simple_cholesky's S2 `A[J] = A[J] / A[I]` along `I` hands A[J] on
        // through one division; matmul's `C += A·B` along `K` through one
        // addition (the product is off the chain); a cell read twice is
        // no chain the VM carries
        let s2 = zoo::simple_cholesky().stmt_decl(StmtId(1)).clone();
        assert_eq!(chain_latency(&s2.rhs, &s2.write), Some(SLOW_CHAIN));
        let s1 = zoo::matmul().stmt_decl(StmtId(0)).clone();
        assert_eq!(chain_latency(&s1.rhs, &s1.write), Some(CHAIN));
        let twice = Expr::mul(Expr::Read(s2.write.clone()), s2.rhs.clone());
        assert_eq!(chain_latency(&twice, &s2.write), None);
        // and the source order runs the divisions in columns along `J`
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let id = IMat::identity(layout.len());
        let r = crate::generate(&p, &layout, &deps, &id).expect("generates");
        let hot = r.features.predicted.hottest().expect("an inner loop");
        assert_eq!(hot.executor, Executor::Columns);
    }
}
