//! Statement plans: everything code generation works out for one statement
//! before a loop is emitted, the plan memo that makes each distinct plan
//! once per process, the guard memo that proves a statement's guards in a
//! leaf once per process, and the per-shape table the scheduler ranks from.
//!
//! A statement's schedule under `M` (§5.4–5.5: `M_S`, its augmentation to
//! `T'_S`, `N_S`) reads only the statement's own rows of `M`, their offsets
//! and the self-dependences `M` leaves unsatisfied: its [`PlanKey`]. So
//! does everything derived from it — the projected system and its scanned
//! bounds, the recovered indices `i = N_S⁻¹(v − off)` and the statement's
//! accesses through them. A [`StmtPlan`] holds all of that over *row
//! placeholders*: the loop of slot position `q` is named `LoopId(q)`, the
//! statement's augmented row `r` is `LoopId(n + r)` (`n` the layout's
//! length), never a target program's `LoopId`. So every leaf of a program
//! that gives a statement the same rows shares its plan.
//!
//! Plans are memoised beside the dependence analysis, as the second table
//! of `inl_core::memo`: per program and layout (found by hash, confirmed by
//! `==`), then per [`PlanKey`], which carries the pending self-dependences'
//! entries rather than their indices, so a `generate` handed some other
//! matrix can never get a plan made for another one. Both
//! [`crate::generate()`] and [`PlanTable`] get every plan through the memo
//! (`Plans::get`, the one caller of [`make_plan`]). The switch and
//! `clear()` of `inl_poly::cache` bypass and empty it with the analysis
//! memo, and [`PLAN_CAP`] bounds the plans it holds over every program.
//! Only made plans are stored: an error is made again when asked again.
//!
//! A statement's guards (§5.5) are derived from its plan ([`plan_guards`])
//! and proved against its domain in a leaf that is built — the program's
//! assumptions, the merged bounds of its slots and the bounds of its
//! augmented loops ([`leaf_domain`]) — before anything is emitted. The
//! verdict, the kept guards over placeholders and the number dropped, is a
//! function of a [`GuardKey`] (the plan's key and those merged bounds): the
//! third table of `inl_core::memo`, under the same switch and `clear()`,
//! bounded by [`GUARD_CAP`] (`Plans::guards`, the one caller of
//! [`prove_guards`]). Ranking proves no guard.

use crate::cost::{Certify, LoopOrigin, Nest, NestLoop, PredictedCost};
use crate::generate::{build, merge_slots, unbounded, CodegenResult};
use inl_core::depend::{DepEntry, DependenceMatrix};
use inl_core::instance::InstanceLayout;
use inl_core::legal::{LegalityReport, NewAst};
use inl_core::memo::{Memo, MemoStats, Scope};
use inl_core::perstmt::{raw_per_stmt, schedule_stmt, StmtSchedule};
use inl_ir::program::Slot;
use inl_ir::{Access, Aff, Expr, Guard, LoopId, Node, Program, StmtId, VarKey};
use inl_linalg::{gauss, lcm, IMat, IVec, InlError, InlErrorKind, Int};
use inl_poly::difference::Closure;
use inl_poly::{is_empty, project_scan, BoundTerm, Feasibility, LinExpr, System};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Lower/upper bound term lists of one loop, over the shared space
/// `[params | layout positions]`.
pub(crate) type SlotBounds = (Vec<(LinExpr, Int)>, Vec<(LinExpr, Int)>);

/// Lower/upper bound terms of one loop slot over placeholders, shared by
/// the plan that scanned them and every leaf whose merge keeps them.
pub(crate) type SlotAffs = (Arc<[Aff]>, Arc<[Aff]>);

/// What [`schedule_stmt`] reads of a leaf for one statement: the
/// statement, `M_S`, `g_S` and the unsatisfied self-dependences of the
/// statement, by content. Equal keys of one program and layout make equal
/// plans.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    stmt: StmtId,
    ms: IMat,
    gs: IVec,
    /// The entries of the pending self-dependences at the statement's loop
    /// positions, one dependence after another: their content, not their
    /// indices into some matrix, so a key never stands for another
    /// matrix's columns.
    pending: Vec<DepEntry>,
}

impl PlanKey {
    fn new(
        layout: &InstanceLayout,
        deps: &DependenceMatrix,
        m: &IMat,
        report: &LegalityReport,
        s: StmtId,
    ) -> PlanKey {
        let (_, ms, gs) = raw_per_stmt(layout, m, s);
        let loops = layout.stmt_loops(s);
        let pending = report.unsatisfied_self.iter().map(|&i| &deps.deps[i]);
        PlanKey {
            stmt: s,
            ms,
            gs,
            pending: pending
                .filter(|d| d.src == s)
                .flat_map(|d| loops.iter().map(|&l| d.entries[layout.loop_position(l)]))
                .collect(),
        }
    }
}

/// One statement's schedule, bounds and rewritten body over row
/// placeholders (module docs).
pub(crate) struct StmtPlan {
    /// The key the plan was made for.
    pub(crate) key: Arc<PlanKey>,
    pub(crate) sched: StmtSchedule,
    /// Bound terms of each slot row, over the shared space.
    pub(crate) slots: Vec<SlotBounds>,
    /// The same terms over placeholders.
    pub(crate) slot_affs: Vec<SlotAffs>,
    /// The augmented loops around the statement, outermost first.
    pub(crate) augs: Vec<AugLoop>,
    /// `i = N_S⁻¹(v − off)`: one expression per old loop, over placeholders.
    pub(crate) old_exprs: Vec<Aff>,
    /// The statement's write through `old_exprs`.
    pub(crate) write: Access,
    /// Its right-hand side through `old_exprs`.
    pub(crate) rhs: Expr,
}

/// One augmented loop (§5.4) of a plan.
pub(crate) struct AugLoop {
    /// Its bound terms over placeholders.
    pub(crate) lower: Vec<Aff>,
    pub(crate) upper: Vec<Aff>,
    /// The augmented rows so far over the instance vector, outermost first,
    /// this loop's own last: what its DOALL certificate is computed over.
    pub(crate) rows: Vec<IVec>,
}

/// The placeholder of row `r` of `sched` (module docs).
pub(crate) fn row_loop(sched: &StmtSchedule, n: usize, r: usize) -> LoopId {
    match sched.slot_positions.get(r) {
        Some(&q) => LoopId(q),
        None => LoopId(n + r),
    }
}

/// A bound term over the shared space (tail included) as an `Aff` over
/// placeholders: variable `np + j` is `LoopId(j)`.
pub(crate) fn placeholder_aff(t: &(LinExpr, Int), np: usize) -> Aff {
    let var = |i: usize| match i < np {
        true => VarKey::Param(inl_ir::ParamId(i)),
        false => VarKey::Loop(LoopId(i - np)),
    };
    let terms = t.0.coeffs().iter().enumerate().filter(|&(_, &c)| c != 0);
    let acc = Aff::from_terms(
        terms.map(|(i, &c)| (var(i), c)).collect(),
        t.0.constant_term(),
    );
    match t.1 {
        1 => acc,
        d => acc.exact_div(d),
    }
}

/// The row of `sched` whose placeholder is `l`: the inverse of
/// [`row_loop`].
pub(crate) fn row_of(sched: &StmtSchedule, n: usize, l: LoopId) -> Option<usize> {
    match l.0.checked_sub(n) {
        None => sched.slot_positions.iter().position(|&q| q == l.0),
        Some(r) => (sched.slot_positions.len()..sched.rows.nrows())
            .contains(&r)
            .then_some(r),
    }
}

/// `a` with source loop `old_loops[q]` replaced by `old_exprs[q]`.
pub(crate) fn through(old_exprs: &[Aff], old_loops: &[LoopId], a: &Aff) -> Aff {
    // a loop not ours stays (impossible after validation)
    a.substitute_loops(|l| Some(&old_exprs[old_loops.iter().position(|&x| x == l)?]))
}

/// Make the plan of `key`, a key of the leaf `(m, report)`: the
/// statement's schedule, the projection and scan of its polyhedron
/// `{domain(i), v = T'_S·i + off}`, and its body through `N_S⁻¹`.
pub(crate) fn make_plan(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    report: &LegalityReport,
    key: &PlanKey,
) -> Result<StmtPlan, InlError> {
    let s = key.stmt;
    let sched = schedule_stmt(layout, m, deps, report, s)?;
    let np = p.nparams();
    let n = layout.len();
    let old_loops = layout.stmt_loops(s);
    let kold = old_loops.len();
    let k = sched.slot_positions.len();
    let knew = sched.rows.nrows();
    let space = np + kold + knew;
    let mut sys = p.assumption_system(space)?;
    if let Some(&l) = old_loops.iter().find(|&&l| p.loop_decl(l).step != 1) {
        let name = &p.loop_decl(l).name;
        let why = format!("loop {name}: non-unit steps unsupported by codegen");
        return Err(InlError::new(InlErrorKind::Unsupported, why));
    }
    // A `Div` guard is left out: that only widens the bounds, and the
    // rewritten guard is emitted on the target statement.
    let guards = p.stmt_decl(s).guards.iter();
    let slot = |l: LoopId| Some(np + old_loops.iter().position(|&x| x == l)?);
    p.append_domain(
        s,
        guards.filter(|g| !matches!(g, Guard::Div(..))),
        &mut sys,
        &slot,
    )?;
    // v_r = rows_r · i + off_r
    let neg = |c: Int| {
        c.checked_neg()
            .ok_or_else(|| InlError::overflow("schedule row"))
    };
    for r in 0..knew {
        let mut coeffs = vec![0; space];
        coeffs[np + kold + r] = 1;
        for (q, &c) in sched.rows.row_slice(r).iter().enumerate() {
            coeffs[np + q] = neg(c)?;
        }
        sys.add_eq(LinExpr::from_parts(coeffs, neg(sched.offsets[r])?));
    }
    // eliminate old iteration variables, then scan the new ones
    let keep: Vec<usize> = (0..np).chain(np + kold..space).collect();
    let order: Vec<usize> = (np + kold..space).collect();
    let bounds = project_scan(&sys, &keep, &order)?;
    inl_obs::counter_add!("codegen.plan.bounds_scanned", bounds.len());
    inl_obs::counter_add!("codegen.plan.loops_augmented", sched.n_aug);

    let local = Local {
        sched: &sched,
        np,
        kold,
        n,
    };
    let global = |terms: &[BoundTerm]| -> Result<Vec<(LinExpr, Int)>, InlError> {
        terms
            .iter()
            .map(|t| Ok((local.globalize(&t.expr)?, t.div)))
            .collect()
    };
    let slots: Vec<SlotBounds> = bounds[..k]
        .iter()
        .map(|vb| Ok((global(&vb.lowers)?, global(&vb.uppers)?)))
        .collect::<Result<_, InlError>>()?;
    let affs = |side: &[(LinExpr, Int)]| side.iter().map(|t| placeholder_aff(t, np)).collect();
    let slot_affs = slots.iter().map(|(lo, hi)| (affs(lo), affs(hi))).collect();
    let tail = |terms: &[BoundTerm]| -> Result<Vec<Aff>, InlError> {
        let global = |t: &BoundTerm| Ok((local.globalize_tail(&t.expr)?, t.div));
        terms
            .iter()
            .map(|t| Ok(placeholder_aff(&global(t)?, np)))
            .collect()
    };
    let mut augs = Vec::with_capacity(knew - k);
    let mut rows: Vec<IVec> = Vec::new();
    for (r, vb) in bounds.iter().enumerate().skip(k) {
        let (lower, upper) = (tail(&vb.lowers)?, tail(&vb.uppers)?);
        if lower.is_empty() || upper.is_empty() {
            let name = &p.stmt_decl(s).name;
            return Err(unbounded(format!("augmented loop {r} of {name}")));
        }
        // the augmented row over the instance vector
        let mut row = IVec::zeros(n);
        for (i, &old) in old_loops.iter().enumerate() {
            row[layout.loop_position(old)] = sched.rows[(r, i)];
        }
        rows.push(row);
        augs.push(AugLoop {
            lower,
            upper,
            rows: rows.clone(),
        });
    }

    let old_exprs = recovered_indices(&sched, n)?;
    let sd = p.stmt_decl(s);
    let through = |a: &Aff| through(&old_exprs, old_loops, a);
    let write = Access {
        array: sd.write.array,
        idxs: sd.write.idxs.iter().map(through).collect(),
    };
    let rhs = sd.rhs.map_affs(&through);
    Ok(StmtPlan {
        key: Arc::new(key.clone()),
        sched,
        slots,
        slot_affs,
        augs,
        old_exprs,
        write,
        rhs,
    })
}

/// `i = N_S⁻¹ · (v − off)`, one `Aff` per old loop dimension, over row
/// placeholders.
fn recovered_indices(sched: &StmtSchedule, n: usize) -> Result<Vec<Aff>, InlError> {
    let inv = gauss::inverse_rational(&sched.n_s)?.ok_or_else(|| {
        InlError::new(
            InlErrorKind::RankDeficient,
            "per-statement transform N_S is singular",
        )
    })?;
    let mut old_exprs: Vec<Aff> = Vec::with_capacity(inv.rows.len());
    for row in &inv.rows {
        // common denominator of the row
        let den = row
            .iter()
            .try_fold(1, |acc, x| lcm(acc, x.den()).map(|l| l.max(1)))?;
        let mut acc = Aff::konst(0);
        let mut constant: Int = 0;
        for (j, &coef) in row.iter().enumerate() {
            if coef.is_zero() {
                continue;
            }
            let r = sched.n_s_rows[j];
            let c = coef
                .num()
                .checked_mul(den / coef.den())
                .ok_or_else(|| InlError::overflow("schedule coefficient"))?;
            acc = acc + Aff::loop_var(row_loop(sched, n, r)) * c;
            constant = c
                .checked_mul(sched.offsets[r])
                .and_then(|t| constant.checked_sub(t))
                .ok_or_else(|| InlError::overflow("schedule offset"))?;
        }
        acc = acc + Aff::konst(constant);
        if den != 1 {
            acc = acc.exact_div(den);
        }
        old_exprs.push(acc);
    }
    Ok(old_exprs)
}

/// The guards of the statement of `plan`, over placeholders, in the order
/// they are emitted (§5.5): (a) divisibility of each recovered index, (b)
/// each singular row's equality over the rows of `N_S`, (c) the source
/// bounds of each old loop through `N_S⁻¹`, (d) the source guards through
/// it. Derived for a plan that is built, never for ranking.
pub(crate) fn plan_guards(
    p: &Program,
    layout: &InstanceLayout,
    plan: &StmtPlan,
) -> Result<Vec<Guard>, InlError> {
    let sched = &plan.sched;
    let s = sched.stmt;
    let old_loops = layout.stmt_loops(s);
    let n = layout.len();
    let row = |r: usize| Aff::loop_var(row_loop(sched, n, r));
    let subst = |a: &Aff| through(&plan.old_exprs, old_loops, a);
    let mut guards: Vec<Guard> = Vec::new();
    // (a) divisibility of each recovered old index
    for e in &plan.old_exprs {
        if e.divisor() > 1 {
            guards.push(Guard::Div(e.clone().numerator(), e.divisor()));
        }
    }
    // (b) singular-row equalities: v_r - off_r = Σ m_j (v_kj - off_kj)
    for (r, sing) in sched.singular.iter().enumerate() {
        let Some(coeffs) = sing else { continue };
        let den = coeffs
            .iter()
            .try_fold(1, |acc, x| lcm(acc, x.den()).map(|l| l.max(1)))?;
        let mut e = (row(r) - Aff::konst(sched.offsets[r])) * den;
        for (j, coef) in coeffs.iter().enumerate() {
            if coef.is_zero() {
                continue;
            }
            let rj = sched.n_s_rows[j];
            let c = coef
                .num()
                .checked_mul(den / coef.den())
                .ok_or_else(|| InlError::overflow("singular-row coefficient"))?;
            e = e - (row(rj) - Aff::konst(sched.offsets[rj])) * c;
        }
        guards.push(Guard::Eq(e.numerator()));
    }
    // (c) original bounds re-derived through the substitution, which takes
    // each old loop to its entry of `old_exprs`
    for (&l, iv) in old_loops.iter().zip(&plan.old_exprs) {
        let ld = p.loop_decl(l);
        for t in &ld.lower.terms {
            // d·i - t ≥ 0
            let e = iv.clone() * t.divisor() - subst(&t.clone().numerator());
            guards.push(Guard::Ge(e.numerator()));
        }
        for t in &ld.upper.terms {
            let e = subst(&t.clone().numerator()) - iv.clone() * t.divisor();
            guards.push(Guard::Ge(e.numerator()));
        }
    }
    // (d) original statement guards, rewritten
    for g in &p.stmt_decl(s).guards {
        guards.push(match g {
            Guard::Ge(a) => Guard::Ge(subst(a).numerator()),
            Guard::Eq(a) => Guard::Eq(subst(a).numerator()),
            Guard::Div(a, md) => {
                let sa = subst(a);
                // (e/d) mod m == 0 with guaranteed divisibility of d: check
                // m·d | e (conservative exactness: the separate Div guard
                // for d already holds when this runs)
                let d = sa.divisor();
                Guard::Div(sa.numerator(), md * d)
            }
        });
    }
    Ok(guards)
}

/// A statement's guards in a leaf, proved (§5.5's "standard
/// optimizations"): those its domain there does not imply, over
/// placeholders, and how many it implies.
pub(crate) struct Guards {
    pub(crate) kept: Vec<Guard>,
    pub(crate) dropped: usize,
}

/// What a statement's [`Guards`] read of a leaf: its plan's key and the
/// merged bounds of its slots, outermost first. A merge may widen a slot
/// beyond the statement's own bounds, so the plan's key alone is not
/// enough.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct GuardKey {
    plan: Arc<PlanKey>,
    slots: Vec<SlotAffs>,
}

/// Prove the guards of `plan` in a leaf that merges its slots to `slots`
/// (outermost first): [`unimplied`] on [`leaf_domain`]. A domain that
/// cannot be built keeps every guard.
fn prove_guards(
    p: &Program,
    layout: &InstanceLayout,
    plan: &StmtPlan,
    slots: &[SlotAffs],
) -> Result<Guards, InlError> {
    let guards = plan_guards(p, layout, plan)?;
    let (np, n) = (p.nparams(), layout.len());
    let slot = |l: LoopId| Some(np + row_of(&plan.sched, n, l)?);
    let Ok(domain) = leaf_domain(p, plan, slots, &slot) else {
        return Ok(Guards {
            kept: guards,
            dropped: 0,
        });
    };
    let total = guards.len();
    let kept = unimplied(p, &domain, &slot, guards);
    Ok(Guards {
        dropped: total - kept.len(),
        kept,
    })
}

/// The statement of `plan`'s domain in a leaf that merges its slots to
/// `slots`, before its guards: the program's assumptions, those bounds and
/// the bounds of its augmented loops, over `[params | its rows]` — its
/// slots outermost first, then its augmented rows — with placeholders
/// placed by `slot`.
fn leaf_domain(
    p: &Program,
    plan: &StmtPlan,
    slots: &[SlotAffs],
    slot: Slot<'_>,
) -> Result<System, InlError> {
    let np = p.nparams();
    let mut sys = p.assumption_system(np + plan.sched.rows.nrows())?;
    let slots = slots.iter().map(|(lo, hi)| (&lo[..], &hi[..]));
    let augs = plan.augs.iter().map(|a| (&a.lower[..], &a.upper[..]));
    for (r, (lo, hi)) in slots.chain(augs).enumerate() {
        p.append_bound_terms(np + r, lo, hi, &mut sys, slot)?;
    }
    Ok(sys)
}

/// The guards of `guards` that the domain `sys` does not imply, with `p`
/// placing their variables by `slot`. A difference domain is closed once
/// ([`Closure`]) and each difference guard read off it; any other guard is
/// refuted by [`is_empty`] on the domain with its negation added. A `Div`
/// guard always stays.
pub(crate) fn unimplied(
    p: &Program,
    sys: &System,
    slot: Slot<'_>,
    mut guards: Vec<Guard>,
) -> Vec<Guard> {
    let closure = Closure::of(sys);
    let space = sys.nvars();
    // `e ≥ 1` has no point in the domain; overflow while forming the query
    // proves nothing
    let refuted = |e: Result<LinExpr, InlError>| {
        let Ok(mut e) = e else {
            return false;
        };
        let Some(c) = e.constant_term().checked_sub(1) else {
            return false;
        };
        e.set_constant(c);
        let mut t = sys.clone();
        t.add_ge(e);
        is_empty(&t) == Feasibility::Empty
    };
    guards.retain(|g| {
        let (a, eq) = match g {
            Guard::Ge(a) => (a, false),
            Guard::Eq(a) => (a, true),
            Guard::Div(_, _) => return true,
        };
        let Ok(e) = p.aff_expr(a, space, slot) else {
            return true;
        };
        if let Some(implied) = closure.as_ref().and_then(|c| c.implies(&e, eq)) {
            return !implied;
        }
        // keep unless ¬(a ≥ 0) is infeasible in context, and for an
        // equality ¬(a ≤ 0) too
        match eq {
            false => !refuted(e.checked_neg()),
            true => !refuted(Ok(e.clone())) || !refuted(e.checked_neg()),
        }
    });
    guards
}

/// A plan's local space `[params | old iters | new vars]`, for moving its
/// scan bounds into the shared space.
pub(crate) struct Local<'a> {
    pub(crate) sched: &'a StmtSchedule,
    pub(crate) np: usize,
    pub(crate) kold: usize,
    /// The layout's length.
    pub(crate) n: usize,
}

impl Local<'_> {
    /// Translate a bound from the local space into the shared space
    /// `[params | layout positions]`: coefficients keyed by parameter or by
    /// *slot position*. Fails when an augmented variable appears
    /// (augmented loops are innermost and never feed shared-slot bounds);
    /// [`Self::globalize_tail`] keeps them.
    pub(crate) fn globalize(&self, e: &LinExpr) -> Result<LinExpr, InlError> {
        let shared = self.np + self.n;
        let out = self.globalize_tail(e)?;
        if out.coeffs()[shared..].iter().any(|&c| c != 0) {
            return Err(InlError::new(
                InlErrorKind::IllFormed,
                "shared-slot bound references an augmented variable",
            ));
        }
        Ok(LinExpr::from_parts(
            out.coeffs()[..shared].to_vec(),
            out.constant_term(),
        ))
    }

    /// Like [`Self::globalize`], but keeps a per-statement tail for
    /// augmented variables: space `[params | layout positions | this
    /// statement's rows]`.
    pub(crate) fn globalize_tail(&self, e: &LinExpr) -> Result<LinExpr, InlError> {
        let (np, n) = (self.np, self.n);
        let mut coeffs: Vec<Int> = vec![0; np + n + self.sched.rows.nrows()];
        let oops = || InlError::overflow("globalized bound coefficient");
        for (i, &c) in e.coeffs().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let to = if i < np {
                i
            } else if i < np + self.kold {
                return Err(InlError::new(
                    InlErrorKind::IllFormed,
                    "bound references an eliminated old iteration variable",
                ));
            } else {
                np + row_loop(self.sched, n, i - np - self.kold).0
            };
            coeffs[to] = coeffs[to].checked_add(c).ok_or_else(oops)?;
        }
        Ok(LinExpr::from_parts(coeffs, e.constant_term()))
    }
}

/// The legal AST a report carries: an illegal matrix is `Infeasible`.
pub(crate) fn legal_ast(report: &LegalityReport) -> Result<&NewAst, InlError> {
    let illegal = |why: String| InlError::new(InlErrorKind::Infeasible, why);
    let ast = report.new_ast.as_ref().map_err(|e| illegal(e.clone()))?;
    if !report.violations.is_empty() {
        return Err(illegal(format!("{:?}", report.violations)));
    }
    Ok(ast)
}

/// The nest of the target program of a leaf, read off its AST, its
/// statements' plans and its merged slot bounds, over placeholders: what
/// the ranking walks and what the `Builder` emits. Loops are numbered in
/// pre-order from `*next`, as `ProgramBuilder` numbers them (the `Builder`
/// checks).
pub(crate) fn plan_nest<'a>(
    ast: &NewAst,
    plans: &[&'a StmtPlan],
    slot_bounds: &'a [Option<SlotAffs>],
    nodes: &[Node],
    next: &mut usize,
) -> Result<Vec<Nest<'a>>, InlError> {
    let n = slot_bounds.len(); // one entry per layout position
    let mut out = Vec::with_capacity(nodes.len());
    for &node in nodes {
        match node {
            Node::Loop(l) => {
                let qpos = ast.layout.loop_position(l);
                let (lo, hi) = slot_bounds[qpos]
                    .as_ref()
                    .ok_or_else(|| unbounded(format!("slot {qpos}")))?;
                let id = LoopId(*next);
                *next += 1;
                let children = &ast.program.loop_decl(l).children;
                out.push(Nest::Loop(NestLoop {
                    id,
                    var: LoopId(qpos),
                    lower: lo,
                    upper: hi,
                    origin: LoopOrigin::Slot(qpos),
                    children: plan_nest(ast, plans, slot_bounds, children, next)?,
                }));
            }
            Node::Stmt(s) => {
                let plan = plans[s.0];
                let k = plan.sched.slot_positions.len();
                let first = *next;
                *next += plan.augs.len();
                let mut nest = Nest::Stmt {
                    stmt: s,
                    write: &plan.write,
                    rhs: &plan.rhs,
                };
                for (a, aug) in plan.augs.iter().enumerate().rev() {
                    nest = Nest::Loop(NestLoop {
                        id: LoopId(first + a),
                        var: LoopId(n + k + a),
                        lower: &aug.lower,
                        upper: &aug.upper,
                        origin: LoopOrigin::Aug { stmt: s, level: a },
                        children: vec![nest],
                    });
                }
                out.push(nest);
            }
        }
    }
    Ok(out)
}

/// The [`PredictedCost`] of the leaf `(m, ast)` from its statements' plans
/// (indexed by statement): merge the slot bounds, read the nest off the
/// plans, and walk it. Nothing is built.
pub(crate) fn predict_from_plans(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    ast: &NewAst,
    plans: &[&StmtPlan],
) -> Result<PredictedCost, InlError> {
    let slot_bounds = merge_slots(p, layout, plans)?;
    let _span = inl_obs::span("codegen.predict");
    let nest = plan_nest(ast, plans, &slot_bounds, ast.program.root(), &mut 0)?;
    let cert = Certify {
        layout,
        deps,
        m,
        plans,
    };
    Ok(crate::cost::predict(&nest, &cert))
}

/// Entry cap of the plan memo: statement plans over every program, with
/// one counted generation flush when reached (`inl_core::memo`). Once-over
/// work on the zoo holds about a hundred (every loop order of the three
/// deep programs and `matmul`, 41; a schedule of each zoo program, 108);
/// re-scheduled variants rank thousands of leaves, and `inl-fuzz` feeds
/// programs without end.
pub const PLAN_CAP: usize = 4096;

/// The plan memo: the second table of the compile side's memo mechanism,
/// beside the analysis memo, under the same switch and `clear()`.
static PLANS: Memo<Arc<PlanKey>, Arc<StmtPlan>> = Memo::new(PLAN_CAP);

/// Snapshot the plan memo's counters.
pub fn plan_memo_stats() -> MemoStats {
    PLANS.stats()
}

/// Entry cap of the guard memo: proved guards of a statement in a leaf,
/// over every program, with one counted generation flush when reached. A
/// built leaf asks for one per statement, and leaves that give a statement
/// the same plan and the same merged bounds share it: the 42 legal orders
/// of `compile_orders` ask for 102 and prove 43.
pub const GUARD_CAP: usize = 4096;

/// The guard memo: the third table of the compile side's memo mechanism.
static GUARDS: Memo<GuardKey, Arc<Guards>> = Memo::new(GUARD_CAP);

/// Snapshot the guard memo's counters.
pub fn guard_memo_stats() -> MemoStats {
    GUARDS.stats()
}

/// Where the plans of one shape `(p, layout, deps)` and the proved guards
/// of its leaves come from: the plan and guard memos, and [`make_plan`]
/// and [`prove_guards`] on a miss or with the switch off.
pub(crate) struct Plans<'a> {
    pub(crate) p: &'a Program,
    pub(crate) layout: &'a InstanceLayout,
    pub(crate) deps: &'a DependenceMatrix,
    memo: Option<Scope<'a, Arc<PlanKey>, Arc<StmtPlan>>>,
    guard_memo: Option<Scope<'a, GuardKey, Arc<Guards>>>,
}

impl<'a> Plans<'a> {
    pub(crate) fn new(
        p: &'a Program,
        layout: &'a InstanceLayout,
        deps: &'a DependenceMatrix,
    ) -> Self {
        let memo = PLANS.scope(p, layout.positions());
        Plans {
            p,
            layout,
            deps,
            guard_memo: memo.as_ref().map(|scope| scope.sibling(&GUARDS)),
            memo,
        }
    }

    /// The key of statement `s` under the leaf `(m, report)`.
    pub(crate) fn key(&self, m: &IMat, report: &LegalityReport, s: StmtId) -> PlanKey {
        PlanKey::new(self.layout, self.deps, m, report, s)
    }

    /// The plan of `key`, a key of the leaf `(m, report)`. The
    /// `codegen.plan` span fires on every call, hit or miss;
    /// `codegen.plan.memo.*` count the lookups, and the scan counters of
    /// [`make_plan`] fire only when a plan is made.
    pub(crate) fn get(
        &self,
        key: &PlanKey,
        m: &IMat,
        report: &LegalityReport,
    ) -> Result<Arc<StmtPlan>, InlError> {
        let _span = inl_obs::span("codegen.plan");
        let make = || make_plan(self.p, self.layout, self.deps, m, report, key).map(Arc::new);
        let Some(memo) = &self.memo else {
            return make();
        };
        if let Some(plan) = memo.get(key) {
            inl_obs::counter_add!("codegen.plan.memo.hit", 1);
            return Ok(plan);
        }
        inl_obs::counter_add!("codegen.plan.memo.miss", 1);
        let plan = make()?;
        let evicted = memo.insert(Arc::clone(&plan.key), Arc::clone(&plan));
        if evicted > 0 {
            inl_obs::counter_add!("codegen.plan.memo.evictions", evicted as u64);
        }
        Ok(plan)
    }

    /// The proved guards of `plan`'s statement in a leaf whose merged slot
    /// bounds are `slot_bounds` (by slot position). The `codegen.guards`
    /// span fires on every call, hit or miss; `codegen.guards.memo.*`
    /// count the lookups, and `codegen.guards_simplified` the guards
    /// dropped.
    pub(crate) fn guards(
        &self,
        plan: &StmtPlan,
        slot_bounds: &[Option<SlotAffs>],
    ) -> Result<Arc<Guards>, InlError> {
        let _span = inl_obs::span("codegen.guards");
        let slots = plan.sched.slot_positions.iter().map(|&q| {
            let merged = slot_bounds[q].clone();
            merged.ok_or_else(|| unbounded(format!("slot {q}")))
        });
        let key = GuardKey {
            plan: Arc::clone(&plan.key),
            slots: slots.collect::<Result<_, _>>()?,
        };
        let got = self.proved(plan, key)?;
        inl_obs::counter_add!("codegen.guards_simplified", got.dropped);
        Ok(got)
    }

    /// The guards of `key`, `plan`'s statement in a leaf: from the guard
    /// memo, or proved.
    fn proved(&self, plan: &StmtPlan, key: GuardKey) -> Result<Arc<Guards>, InlError> {
        let make = || prove_guards(self.p, self.layout, plan, &key.slots).map(Arc::new);
        let Some(memo) = &self.guard_memo else {
            return make();
        };
        if let Some(got) = memo.get(&key) {
            inl_obs::counter_add!("codegen.guards.memo.hit", 1);
            return Ok(got);
        }
        inl_obs::counter_add!("codegen.guards.memo.miss", 1);
        let got = make()?;
        let evicted = memo.insert(key, Arc::clone(&got));
        if evicted > 0 {
            inl_obs::counter_add!("codegen.guards.memo.evictions", evicted as u64);
        }
        Ok(got)
    }
}

/// The statement plans of one shape's leaves, each distinct one asked of
/// the plan memo once, when a leaf first needs it and on whichever thread
/// ranks that leaf. A plan is a function of its key alone, so the table
/// holds the same plans at any thread count, and with the memo switched
/// off it still makes each distinct plan once per table.
pub struct PlanTable<'a> {
    plans: Plans<'a>,
    index: HashMap<PlanKey, usize>,
    entries: Vec<Entry<'a>>,
}

/// One distinct key: the leaf it was first seen in, whose matrix and
/// report make its plan, and the plan once asked for.
struct Entry<'a> {
    m: &'a IMat,
    report: &'a LegalityReport,
    key: PlanKey,
    plan: OnceLock<Result<Arc<StmtPlan>, InlError>>,
}

impl<'a> PlanTable<'a> {
    /// An empty table for the shape `(p, layout, deps)`.
    pub fn new(p: &'a Program, layout: &'a InstanceLayout, deps: &'a DependenceMatrix) -> Self {
        PlanTable {
            plans: Plans::new(p, layout, deps),
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }

    /// Enter the leaf `(m, report)`: the index of each statement's plan, in
    /// statement order. Makes nothing.
    pub fn intern(&mut self, m: &'a IMat, report: &'a LegalityReport) -> Vec<usize> {
        self.plans
            .p
            .stmts()
            .map(|s| {
                let key = self.plans.key(m, report, s);
                if let Some(&i) = self.index.get(&key) {
                    return i;
                }
                let i = self.entries.len();
                self.index.insert(key.clone(), i);
                self.entries.push(Entry {
                    m,
                    report,
                    key,
                    plan: OnceLock::new(),
                });
                i
            })
            .collect()
    }

    /// The ranking key of the leaf `(m, report)`, whose plans
    /// [`intern`](Self::intern) returned: the predicted cost
    /// [`generate`](crate::generate()) reports for `m`, or the error it fails
    /// with, with no program built. Asks for the plans not asked for yet.
    pub fn predict(
        &self,
        m: &IMat,
        report: &LegalityReport,
        plans: &[usize],
    ) -> Result<PredictedCost, InlError> {
        let ast = legal_ast(report)?;
        let plans = self.plans(plans)?;
        let Plans {
            p, layout, deps, ..
        } = self.plans;
        predict_from_plans(p, layout, deps, m, ast, &plans)
    }

    /// Build the leaf `(m, report)` from the plans it was ranked on: what
    /// [`generate`](crate::generate()) returns for `m`, with no legality
    /// check and no plan asked for again.
    pub fn generate(
        &self,
        m: &IMat,
        report: &LegalityReport,
        plans: &[usize],
    ) -> Result<CodegenResult, InlError> {
        let _span = inl_obs::span("codegen.generate");
        let ast = legal_ast(report)?;
        let plans = self.plans(plans)?;
        build(&self.plans, m, ast, &plans)
    }

    fn plans(&self, plans: &[usize]) -> Result<Vec<&StmtPlan>, InlError> {
        plans.iter().map(|&i| self.plan(i)).collect()
    }

    fn plan(&self, i: usize) -> Result<&StmtPlan, InlError> {
        let e = &self.entries[i];
        let got = e.plan.get_or_init(|| self.plans.get(&e.key, e.m, e.report));
        got.as_deref().map_err(Clone::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_core::depend::analyze;
    use inl_core::legal::check_legal;
    use inl_ir::zoo;

    /// `simple_cholesky` under the identity: its layout, dependences,
    /// matrix, report, and the index of a self-dependence of `S2`.
    fn cholesky_leaf() -> (
        InstanceLayout,
        DependenceMatrix,
        IMat,
        LegalityReport,
        usize,
    ) {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = IMat::identity(layout.len());
        let report = check_legal(&p, &layout, &deps, &m).expect("legality");
        let s2 = StmtId(1);
        let d = deps.deps.iter().position(|d| d.src == s2 && d.dst == s2);
        (layout, deps, m, report, d.expect("S2 depends on itself"))
    }

    #[test]
    fn the_same_rows_with_another_pending_set_are_another_key() {
        let (layout, deps, m, mut report, d) = cholesky_leaf();
        let key = |report: &LegalityReport| PlanKey::new(&layout, &deps, &m, report, StmtId(1));
        report.unsatisfied_self.clear();
        let none = key(&report);
        report.unsatisfied_self.push(d);
        let one = key(&report);
        assert_eq!(
            (&none.ms, &none.gs),
            (&one.ms, &one.gs),
            "the same M_S and g_S"
        );
        assert!(none != one, "a pending self-dependence is part of the key");
        // another statement's key reads none of S2's pending dependences
        let s1 = |report: &LegalityReport| PlanKey::new(&layout, &deps, &m, report, StmtId(0));
        let kept = s1(&report);
        report.unsatisfied_self.clear();
        assert!(s1(&report) == kept);
    }

    #[test]
    fn a_key_holds_pending_entries_not_indices() {
        let (layout, deps, m, mut report, d) = cholesky_leaf();
        report.unsatisfied_self = vec![d];
        let key = |deps: &DependenceMatrix| PlanKey::new(&layout, deps, &m, &report, StmtId(1));
        let stored = key(&deps);
        // the same index into a matrix whose column there differs
        let mut columns = deps.deps.to_vec();
        columns[d]
            .entries
            .iter_mut()
            .for_each(|e| *e = DepEntry::plus());
        let other = DependenceMatrix {
            n: deps.n,
            deps: columns.into(),
        };
        assert!(key(&other) != stored, "another column, another key");
        // the same column at another index
        let mut columns = deps.deps.to_vec();
        columns.swap(0, d);
        let moved = DependenceMatrix {
            n: deps.n,
            deps: columns.into(),
        };
        report.unsatisfied_self = vec![0];
        let key = PlanKey::new(&layout, &moved, &m, &report, StmtId(1));
        assert!(key == stored, "the same column, the same key");
    }

    #[test]
    fn a_wider_merged_bound_is_another_guard_key_and_keeps_a_guard() {
        let p = zoo::simple_cholesky();
        let (layout, deps, m, report, _) = cholesky_leaf();
        let plans = Plans::new(&p, &layout, &deps);
        let plan = |s| plans.get(&plans.key(&m, &report, s), &m, &report);
        let (s1, s2) = (plan(StmtId(0)).expect("S1"), plan(StmtId(1)).expect("S2"));
        let slot_bounds = merge_slots(&p, &layout, &[&s1, &s2]).expect("merges");
        let own = plans.guards(&s2, &slot_bounds).expect("proved");
        assert!(
            own.kept.is_empty(),
            "the loops of the source imply its bounds"
        );
        // `J` from 1 rather than from `I + 1`: `J ≥ I + 1` is no longer implied
        let mut wider = slot_bounds.clone();
        let j = s2.sched.slot_positions[1];
        let (_, upper) = wider[j].clone().expect("J is a slot");
        wider[j] = Some((Arc::from([Aff::konst(1)]), upper));
        let widened = plans.guards(&s2, &wider).expect("proved");
        assert_eq!(widened.kept.len(), 1, "{:?}", widened.kept);
        assert_eq!(widened.dropped + 1, own.dropped);
    }

    #[test]
    fn bound_on_eliminated_old_var_is_typed_error() {
        // A scan bound referencing an old (pre-transformation) iteration
        // variable means projection broke off early; the globalizers must
        // report IllFormed instead of panicking.
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        let m = IMat::identity(layout.len());
        let report = check_legal(&p, &layout, &deps, &m).expect("legality");
        let sched = schedule_stmt(&layout, &m, &deps, &report, StmtId(0)).expect("schedule");
        let np = p.nparams();
        let kold = layout.stmt_loops(sched.stmt).len();
        let local = Local {
            sched: &sched,
            np,
            kold,
            n: layout.len(),
        };
        let space = np + kold + sched.rows.nrows();
        let bad = LinExpr::var(space, np); // slot np = first old iteration var
        let err = local.globalize_tail(&bad).unwrap_err();
        assert_eq!(err.kind(), InlErrorKind::IllFormed);
        assert!(
            err.to_string()
                .contains("eliminated old iteration variable"),
            "{err}"
        );
        let err = local.globalize(&bad).unwrap_err();
        assert_eq!(err.kind(), InlErrorKind::IllFormed);
    }
}
