//! The code generator. See the crate docs for the pipeline overview.
//!
//! Three stages after the legality check: each statement's plan
//! (`crate::plan`), the merge of the bounds of the loops statements share
//! (`merge_slots`), then the nest read off the plans (`plan::plan_nest`).
//! The scheduler ranks on the predicted cost walked over that nest
//! (`plan::predict_from_plans`); [`generate`] walks the same nest for the
//! cost and emits it as the target program (`Builder`).

use crate::cost::{Certify, LoopOrigin, Nest};
use crate::plan::{legal_ast, placeholder_aff, plan_nest, row_loop, through, Plans, StmtPlan};
use inl_core::depend::{analyze, DependenceMatrix};
use inl_core::instance::{InstanceLayout, Position};
use inl_core::legal::{check_legal, LegalityReport, NewAst};
use inl_core::transform::Transform;
use inl_ir::{Access, Aff, Bound, Expr, Guard, LoopId, Program, ProgramBuilder, StmtId, VarKey};
use inl_linalg::{lcm, IMat, InlError, InlErrorKind, Int};
use inl_poly::difference::Closure;
use inl_poly::{is_empty, Feasibility, LinExpr, System};
use std::sync::Arc;

/// Merged lower/upper bound terms of one shared loop slot, over
/// placeholders (`crate::plan`).
pub(crate) type SlotAffs = (Vec<Aff>, Vec<Aff>);

/// The generated program, with the mapping from source to target
/// statements and the variant's static cost features.
#[derive(Clone, Debug)]
pub struct CodegenResult {
    /// The transformed program.
    pub program: Program,
    /// `stmt_map[source.0]` = target statement id.
    pub stmt_map: Vec<StmtId>,
    /// Static cost features of the variant (see [`crate::cost`]): the
    /// guards left after simplification and the predicted cost the
    /// auto-scheduler ranks on.
    pub features: crate::cost::CostFeatures,
}

/// Generate the transformed program for a matrix `m`: check it
/// ([`check_legal`]), then [`generate_with_report`]. An illegal `m` is an
/// `Infeasible` error; bounds two statements sharing a loop cannot merge
/// are `Unsupported`.
pub fn generate(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
) -> Result<CodegenResult, InlError> {
    let _span = inl_obs::span("codegen.generate");
    let report = check_legal(p, layout, deps, m)?;
    from_plans(p, layout, deps, m, &report)
}

/// Generate the transformed program for `m` from its legality report (a
/// completion's, `inl_core::complete::Completion::report`), with no
/// legality check: get each statement's plan from the plan memo and build
/// the leaf from them with the one build [`crate::PlanTable::generate`]
/// shares. What [`generate`] returns for `m`, when `report` is
/// [`check_legal`]'s for it.
pub fn generate_with_report(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    report: &LegalityReport,
) -> Result<CodegenResult, InlError> {
    let _span = inl_obs::span("codegen.generate");
    from_plans(p, layout, deps, m, report)
}

fn from_plans(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    report: &LegalityReport,
) -> Result<CodegenResult, InlError> {
    let ast = legal_ast(report)?;
    let plans = Plans::new(p, layout, deps);
    let got: Vec<Arc<StmtPlan>> = p
        .stmts()
        .map(|s| plans.get(&plans.key(m, report, s), m, report))
        .collect::<Result<_, _>>()?;
    build(
        p,
        layout,
        deps,
        m,
        ast,
        &got.iter().map(|p| &**p).collect::<Vec<_>>(),
    )
}

/// Emit the leaf `(m, ast)` from its statements' plans (by statement):
/// merge the bounds of the loops statements share, read the nest off the
/// plans, walk it once for the predicted cost and once to emit the
/// program, then drop the guards the enclosing bounds imply. [`generate`]
/// and [`crate::PlanTable::generate`] both end here.
pub(crate) fn build(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    ast: &NewAst,
    plans: &[&StmtPlan],
) -> Result<CodegenResult, InlError> {
    let slot_bounds = merge_slots(p, layout, plans)?;
    let ast_span = inl_obs::span("codegen.ast");
    let nest = plan_nest(ast, plans, &slot_bounds, ast.program.root(), &mut 0)?;
    let builder = Builder {
        src: p,
        layout,
        plans,
    };
    let (mut program, stmt_map) = builder.build(&nest)?;
    drop(ast_span);
    let cert = Certify {
        layout,
        deps,
        m,
        plans,
    };
    let predicted = crate::cost::predict(&nest, &cert);
    simplify_guards(&mut program);
    let guards = program
        .stmts()
        .map(|s| program.stmt_decl(s).guards.len() as i64)
        .sum();
    let out = CodegenResult {
        program,
        stmt_map,
        features: crate::cost::CostFeatures { guards, predicted },
    };
    if inl_obs::explain_enabled() {
        record_cost_features(p, layout, deps, m, plans, &out);
    }
    Ok(out)
}

/// Attach the finished variant's features to the explain stream (stage
/// `codegen`): dependence-matrix summary, parallel/wavefront shape under
/// this transformation, generation work counts and the predicted cost.
/// Everything here but the features is computed for this record alone.
fn record_cost_features(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    plans: &[&StmtPlan],
    out: &CodegenResult,
) {
    use inl_core::depend::DepKind;
    use inl_core::provenance;
    let f = &out.features;
    let count = |kind: DepKind| deps.deps.iter().filter(|d| d.kind == kind).count();
    let (flow, anti, output) = (
        count(DepKind::Flow),
        count(DepKind::Anti),
        count(DepKind::Output),
    );
    let ndeps = deps.deps.len() as i64;
    let deps_certain = deps.deps.iter().filter(|d| d.certain).count() as i64;
    let doall = inl_core::parallel::parallel_slots(layout, deps, m);
    let loop_slots: Vec<usize> = layout.loops().map(|(q, _)| q).collect();
    // inner parallelism only: a wavefront schedule
    let wavefront = matches!((doall.first(), loop_slots.first()), (Some(s), Some(f)) if s > f);
    // one scanned bound per new loop of a statement
    let bounds_scanned: usize = plans.iter().map(|pl| pl.sched.rows.nrows()).sum();
    let loops_augmented: usize = plans.iter().map(|pl| pl.sched.n_aug).sum();
    let rec = inl_obs::explain::note(
        "codegen",
        format!("program {} under {}", p.name(), provenance::matrix_text(m)),
        format!(
            "generated {} statements over {} loop slot(s); {} DOALL slot(s)",
            out.stmt_map.len(),
            loop_slots.len(),
            doall.len()
        ),
    )
    .detail(
        "dep_summary",
        format!("{ndeps} deps ({flow} flow, {anti} anti, {output} output; {deps_certain} certain)"),
    )
    .feature("deps", ndeps)
    .feature("deps_certain", deps_certain)
    .feature("stmts", out.stmt_map.len() as i64)
    .feature("bounds_scanned", bounds_scanned as i64)
    .feature("loops_augmented", loops_augmented as i64)
    .feature("guards_emitted", f.guards)
    .feature("parallel_slots", doall.len() as i64)
    .feature("wavefront", wavefront as i64)
    .feature("predicted_cost", f.predicted.total())
    .feature("trip_cost", f.predicted.trip_cost)
    .feature("entry_cost", f.predicted.entry_cost)
    .feature("nest_cost", f.predicted.nest_cost);
    if !doall.is_empty() {
        let listed: Vec<String> = doall.iter().map(|q| q.to_string()).collect();
        rec.detail("doall_slots", listed.join(" "));
    }
}

/// A loop left with no bound on one side: `IllFormed`.
#[track_caller]
pub(crate) fn unbounded(what: String) -> InlError {
    InlError::new(
        InlErrorKind::IllFormed,
        format!("{what} has no bound on one side"),
    )
}

/// Convenience: compose a transformation sequence, analyze, and generate.
pub fn generate_seq(p: &Program, seq: &[Transform]) -> Result<CodegenResult, InlError> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout)?;
    let m = Transform::compose(p, &layout, seq)?;
    generate(p, &layout, &deps, &m)
}

/// The bounds of every loop slot of the leaf whose statements' plans are
/// `plans` (by statement), by slot position: each member statement's
/// scanned bounds for the slot, merged by proving pairwise `≤` under the
/// program's assumptions, over placeholders. `None` at a position no
/// statement's loop holds.
pub(crate) fn merge_slots(
    p: &Program,
    layout: &InstanceLayout,
    plans: &[&StmtPlan],
) -> Result<Vec<Option<SlotAffs>>, InlError> {
    let _span = inl_obs::span("codegen.merge");
    let np = p.nparams();
    let assumptions = p.assumption_system(np)?;
    let mut slot_bounds = vec![None; layout.len()];
    for (qi, pos) in layout.positions().iter().enumerate() {
        if !matches!(pos, Position::Loop(_)) {
            continue;
        }
        // the statements under this slot, each with its bounds for it
        let mut members = plans.iter().filter_map(|plan| {
            let r = plan.sched.slot_positions.iter().position(|&sp| sp == qi)?;
            Some(&plan.slots[r])
        });
        let Some((mut lo, mut hi)) = members.next().map(|(l, h)| (&l[..], &h[..])) else {
            continue;
        };
        let incomparable = |side: &str| {
            let why = format!("slot {qi} {side}: incomparable bound sets");
            InlError::new(InlErrorKind::Unsupported, why)
        };
        for (l, h) in members {
            lo = merge_side(lo, l, true, &assumptions).ok_or_else(|| incomparable("lower"))?;
            hi = merge_side(hi, h, false, &assumptions).ok_or_else(|| incomparable("upper"))?;
        }
        if lo.is_empty() || hi.is_empty() {
            return Err(unbounded(format!("loop slot {qi}")));
        }
        let affs = |side: &[(LinExpr, Int)]| side.iter().map(|t| placeholder_aff(t, np)).collect();
        slot_bounds[qi] = Some((affs(lo), affs(hi)));
    }
    Ok(slot_bounds)
}

/// Merge bound-term lists from two statements on one side.
/// `lower = true`: result must be `≤` both maxima; prefer the provably
/// smaller side. `lower = false`: result must be `≥` both minima.
fn merge_side<'x>(
    a: &'x [(LinExpr, Int)],
    b: &'x [(LinExpr, Int)],
    lower: bool,
    assumptions: &System,
) -> Option<&'x [(LinExpr, Int)]> {
    if a.iter().all(|t| b.contains(t)) && b.iter().all(|t| a.contains(t)) {
        return Some(a);
    }
    // All globalized terms share one space; extend the assumptions into it
    // once rather than per prove_le query.
    let space = a
        .first()
        .or_else(|| b.first())
        .map_or(assumptions.nvars(), |t| t.0.nvars());
    let assumptions = assumptions.extend(space);
    // prove: max(a) <= max(b) (lower) or min(a) >= min(b) (upper) — then
    // keeping `a` is sound for the union; and vice versa.
    let a_covers_b = side_dominates(a, b, lower, &assumptions);
    if a_covers_b {
        return Some(a);
    }
    if side_dominates(b, a, lower, &assumptions) {
        return Some(b);
    }
    None
}

/// For lower bounds: does `max(keep) ≤ max(other)` always hold? (Then
/// `keep` is a sound lower bound for the union.) It does if for every term
/// `k` of `keep` there is a term `o` of `other` with `k ≤ o`... which is
/// necessary only against the other statement's *range*; we use the
/// sufficient pairwise check `∀k ∃o: k ≤ o` for lowers and `∀k ∃o: k ≥ o`
/// for uppers.
fn side_dominates(
    keep: &[(LinExpr, Int)],
    other: &[(LinExpr, Int)],
    lower: bool,
    assumptions: &System,
) -> bool {
    keep.iter().all(|k| {
        other.iter().any(|o| {
            if lower {
                prove_le(k, o, assumptions)
            } else {
                prove_le(o, k, assumptions)
            }
        })
    })
}

/// Prove `a/da ≤ b/db` for all parameter values satisfying the
/// assumptions (conservative: free variables universally quantified, and
/// arithmetic overflow while forming the query counts as "not proven").
/// `assumptions` must already live in the terms' variable space.
fn prove_le(a: &(LinExpr, Int), b: &(LinExpr, Int), assumptions: &System) -> bool {
    let space = a.0.nvars();
    debug_assert_eq!(assumptions.nvars(), space, "prove_le: space mismatch");
    // counterexample: a·db − b·da ≥ 1
    let Ok(mut counter) = a.0.checked_combine(b.1, &b.0, -a.1) else {
        return false;
    };
    let Some(c) = counter.constant_term().checked_sub(1) else {
        return false;
    };
    counter.set_constant(c);
    let mut sys = assumptions.clone();
    sys.add_ge(counter);
    is_empty(&sys) == Feasibility::Empty
}

/// Emits the target program from the nest `plan_nest` reads off the plans,
/// renaming each loop's placeholder to the loop it opens.
struct Builder<'x> {
    src: &'x Program,
    layout: &'x InstanceLayout,
    /// The statements' plans, by statement.
    plans: &'x [&'x StmtPlan],
}

/// What the `Builder` fills in as it emits: the target loop open for each
/// placeholder, the names of the loops open around the emission point,
/// and the source-to-target statement map.
struct Emitted {
    open: Vec<Option<LoopId>>,
    names: Vec<String>,
    stmt_map: Vec<StmtId>,
}

impl Builder<'_> {
    /// The target program of `nest`, and `stmt_map` (as
    /// [`CodegenResult::stmt_map`]); its guards are not yet simplified.
    fn build(&self, nest: &[Nest]) -> Result<(Program, Vec<StmtId>), InlError> {
        let mut b = ProgramBuilder::new(format!("{}_transformed", self.src.name()));
        for name in self.src.params() {
            b.param(name.clone());
        }
        for a in self.src.assumes() {
            b.assume(a.clone());
        }
        for a in self.src.arrays() {
            let d = self.src.array_decl(a);
            b.array(d.name.clone(), &d.dims);
        }
        // one placeholder per slot position and per row of the widest plan
        let rows = self.plans.iter().map(|pl| pl.sched.rows.nrows()).max();
        let mut e = Emitted {
            open: vec![None; self.layout.len() + rows.unwrap_or(0)],
            names: Vec::new(),
            stmt_map: vec![StmtId(usize::MAX); self.plans.len()],
        };
        self.emit(&mut b, nest, &mut e)?;
        let program = b.finish_unchecked();
        if let Err(e) = program.validate() {
            let why = format!("generated program invalid: {e}");
            return Err(InlError::new(InlErrorKind::Infeasible, why));
        }
        Ok((program, e.stmt_map))
    }

    fn emit(
        &self,
        b: &mut ProgramBuilder,
        nodes: &[Nest],
        e: &mut Emitted,
    ) -> Result<(), InlError> {
        for node in nodes {
            match node {
                Nest::Loop(l) => {
                    let bound =
                        |side: &[Aff], open: &[Option<LoopId>]| -> Result<Bound, InlError> {
                            let terms = side.iter().map(|a| rename(a, open));
                            Ok(Bound {
                                terms: terms.collect::<Result<_, _>>()?,
                            })
                        };
                    let (lower, upper) = (bound(l.lower, &e.open)?, bound(l.upper, &e.open)?);
                    let name = match l.origin {
                        LoopOrigin::Slot(q) => match self.source_name(q) {
                            Some(name) => name,
                            None => self.fresh_name(format!("t{q}"), &e.names),
                        },
                        LoopOrigin::Aug { stmt, level } => {
                            let stmt = self.src.stmt_decl(stmt).name.to_lowercase();
                            self.fresh_name(format!("{stmt}_a{level}"), &e.names)
                        }
                    };
                    e.names.push(name.clone());
                    let mut res: Result<(), InlError> = Ok(());
                    b.loop_full(name, lower, upper, 1, false, |b| {
                        let id = b.current_loop().expect("inside loop");
                        assert_eq!(id, l.id, "the nest numbers loops as the builder does");
                        let outer = e.open[l.var.0].replace(id);
                        res = self.emit(b, &l.children, e);
                        e.open[l.var.0] = outer;
                    });
                    e.names.pop();
                    res?;
                }
                &Nest::Stmt { stmt, write, rhs } => {
                    e.stmt_map[stmt.0] = self.emit_stmt(b, stmt, write, rhs, &e.open)?;
                }
            }
        }
        Ok(())
    }

    /// `base`, or the first of `base_2`, `base_3`, … that names neither a
    /// loop of `open` (the loops around the new one) nor a source loop,
    /// whose name [`Builder::source_name`] may give a loop inside it.
    fn fresh_name(&self, base: String, open: &[String]) -> String {
        let taken = |name: &String| {
            open.contains(name)
                || self
                    .src
                    .loops()
                    .any(|l| self.src.loop_decl(l).name == *name)
        };
        if !taken(&base) {
            return base;
        }
        let mut suffixed = (2..).map(|k| format!("{base}_{k}"));
        suffixed.find(|name| !taken(name)).expect("a free name")
    }

    /// The name of a slot loop when every statement schedules the slot as
    /// exactly one source loop (identity row): that loop's. `None` asks
    /// for a fresh `t<pos>`.
    fn source_name(&self, qpos: usize) -> Option<String> {
        let mut source: Option<usize> = None;
        let mut uniform = true;
        for plan in self.plans {
            let Some(r) = plan.sched.slot_positions.iter().position(|&sp| sp == qpos) else {
                continue;
            };
            if plan.sched.offsets[r] != 0 {
                uniform = false;
                break;
            }
            // identity selector of some old loop dimension?
            let row = plan.sched.rows.row_slice(r).iter().enumerate();
            let mut nz = row.filter(|&(_, &c)| c != 0);
            if let (Some((i, 1)), None) = (nz.next(), nz.next()) {
                let old = self.layout.stmt_loops(plan.sched.stmt)[i];
                let oldpos = self.layout.loop_position(old);
                match source {
                    None => source = Some(oldpos),
                    Some(x) if x == oldpos => {}
                    _ => {
                        uniform = false;
                        break;
                    }
                }
            } else {
                uniform = false;
                break;
            }
        }
        match self.layout.positions()[source.filter(|_| uniform)?] {
            Position::Loop(l) => Some(self.src.loop_decl(l).name.clone()),
            _ => None,
        }
    }

    /// Emit statement `s` — `write = rhs` over placeholders, with its
    /// guards — inside the loops `open` holds; its target id.
    fn emit_stmt(
        &self,
        b: &mut ProgramBuilder,
        s: StmtId,
        write: &Access,
        rhs: &Expr,
        open: &[Option<LoopId>],
    ) -> Result<StmtId, InlError> {
        let plan = self.plans[s.0];
        let sched = &plan.sched;
        let old_loops = self.layout.stmt_loops(s);
        let n = self.layout.len();
        // every loop of the statement is open around it
        let real = |a: &Aff| rename(a, open).expect("a statement's loops are open around it");
        let row = |r: usize| real(&Aff::loop_var(row_loop(sched, n, r)));
        // i = N_S⁻¹ · (v − off) over the target loops
        let old_exprs: Vec<Aff> = plan.old_exprs.iter().map(real).collect();
        let subst = |a: &Aff| through(&old_exprs, old_loops, a);

        // guards
        let mut guards: Vec<Guard> = Vec::new();
        // (a) divisibility of each recovered old index
        for e in &old_exprs {
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
        // (c) original bounds re-derived through the substitution, which
        // takes each old loop to its entry of `old_exprs`
        for (&l, iv) in old_loops.iter().zip(&old_exprs) {
            let ld = self.src.loop_decl(l);
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
        for g in &self.src.stmt_decl(s).guards {
            guards.push(match g {
                Guard::Ge(a) => Guard::Ge(subst(a).numerator()),
                Guard::Eq(a) => Guard::Eq(subst(a).numerator()),
                Guard::Div(a, md) => {
                    let sa = subst(a);
                    // (e/d) mod m == 0 with guaranteed divisibility of d:
                    // check m·d | e (conservative exactness: the separate
                    // Div guard for d already holds when this runs)
                    let d = sa.divisor();
                    Guard::Div(sa.numerator(), md * d)
                }
            });
        }

        // body
        let sd = self.src.stmt_decl(s);
        let write_idxs: Vec<Aff> = write.idxs.iter().map(real).collect();
        let rhs = rhs.map_affs(&real);
        let target_array = inl_ir::ArrayId(write.array.0); // arrays copied in order
        Ok(b.stmt_guarded(sd.name.clone(), target_array, write_idxs, rhs, guards))
    }
}

/// `a`, over placeholders, over the target program's loops: placeholder
/// `ph` is the loop `open[ph]`.
fn rename(a: &Aff, open: &[Option<LoopId>]) -> Result<Aff, InlError> {
    let target = |l: LoopId| open.get(l.0).copied().flatten();
    if a.vars()
        .any(|v| matches!(v, VarKey::Loop(l) if target(l).is_none()))
    {
        let why = "bound references a loop that is not open";
        return Err(InlError::new(InlErrorKind::IllFormed, why));
    }
    Ok(a.rename_loops(|l| target(l).expect("open")))
}

/// Drop guards implied by the enclosing loops' bounds (and the program
/// assumptions): the paper's "standard optimizations" step, §5.5.
fn simplify_guards(program: &mut Program) {
    let stmts: Vec<StmtId> = program.stmts().collect();
    for s in stmts {
        if let Some(kept) = unimplied_guards(program, s) {
            let dropped = program.stmt_decl(s).guards.len() - kept.len();
            inl_obs::counter_add!("codegen.guards_simplified", dropped);
            program.set_stmt_guards(s, kept);
        }
    }
}

/// The guards of `s` that its domain without them does not imply; `None`
/// when that domain cannot be built, so every guard stays. A difference
/// domain is closed once ([`Closure`]) and each difference guard read off
/// it; any other guard is refuted by [`is_empty`] on the domain with its
/// negation added.
fn unimplied_guards(program: &Program, s: StmtId) -> Option<Vec<Guard>> {
    let slot = |l: LoopId| Some(program.loop_var_index(l));
    let mut sys = program.assumption_system(program.space()).ok()?;
    program.append_domain(s, [], &mut sys, &slot).ok()?;
    let closure = Closure::of(&sys);
    let space = sys.nvars();
    let to_expr = |a: &Aff| program.aff_expr(a, space, &slot);
    // `e ≥ 1` has no point in the domain; overflow while forming the
    // query proves nothing
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
    let kept = program
        .stmt_decl(s)
        .guards
        .iter()
        .filter(|g| {
            let (a, eq) = match g {
                Guard::Ge(a) => (a, false),
                Guard::Eq(a) => (a, true),
                Guard::Div(_, _) => return true,
            };
            let Ok(e) = to_expr(a) else {
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
        })
        .cloned()
        .collect();
    Some(kept)
}
