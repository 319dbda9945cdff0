//! The code generator. See the crate docs for the pipeline overview.
//!
//! Four stages after the legality check: each statement's plan
//! (`crate::plan`), the merge of the bounds of the loops statements share
//! (`merge_slots`), each statement's guards proved against its domain in
//! the leaf (`Plans::guards`), then the nest read off the plans
//! (`plan::plan_nest`). The scheduler ranks on the predicted cost walked
//! over that nest (`plan::predict_from_plans`), and proves no guard;
//! [`generate`] walks the same nest for the cost and emits it as the target
//! program with the guards kept (`Builder`).

use crate::cost::{Certify, LoopOrigin, Nest};
use crate::plan::{legal_ast, plan_nest, Guards, Plans, SlotAffs, StmtPlan};
use inl_core::depend::{analyze, DependenceMatrix};
use inl_core::instance::{InstanceLayout, Position};
use inl_core::legal::{check_legal, LegalityReport, NewAst};
use inl_core::transform::Transform;
use inl_ir::{Access, Aff, Bound, Expr, LoopId, Program, ProgramBuilder, StmtId, VarKey};
use inl_linalg::{IMat, InlError, InlErrorKind, Int};
use inl_poly::{is_empty, Feasibility, LinExpr, System};
use std::sync::Arc;

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
        &plans,
        m,
        ast,
        &got.iter().map(|p| &**p).collect::<Vec<_>>(),
    )
}

/// Emit the leaf `(m, ast)` of the shape `source` from its statements'
/// plans (by statement): merge the bounds of the loops statements share,
/// prove each statement's guards against its domain in the leaf, read the
/// nest off the plans, and walk it once for the predicted cost and once to
/// emit the program with the guards kept. [`generate`] and
/// [`crate::PlanTable::generate`] both end here.
pub(crate) fn build(
    source: &Plans,
    m: &IMat,
    ast: &NewAst,
    plans: &[&StmtPlan],
) -> Result<CodegenResult, InlError> {
    let Plans {
        p, layout, deps, ..
    } = *source;
    let slot_bounds = merge_slots(p, layout, plans)?;
    let guards: Vec<Arc<Guards>> = plans
        .iter()
        .map(|plan| source.guards(plan, &slot_bounds))
        .collect::<Result<_, _>>()?;
    let ast_span = inl_obs::span("codegen.ast");
    let nest = plan_nest(ast, plans, &slot_bounds, ast.program.root(), &mut 0)?;
    let builder = Builder {
        src: p,
        layout,
        plans,
        guards: &guards,
    };
    let (program, stmt_map) = builder.build(&nest)?;
    drop(ast_span);
    #[cfg(debug_assertions)]
    oracle::assert_guards_proved(p, layout, plans, &program, &stmt_map);
    let cert = Certify {
        layout,
        deps,
        m,
        plans,
    };
    let predicted = crate::cost::predict(&nest, &cert);
    let guards = guards.iter().map(|g| g.kept.len() as i64).sum();
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
/// program's assumptions, over placeholders (those of the plan whose terms
/// the merge keeps, shared). `None` at a position no statement's loop
/// holds.
pub(crate) fn merge_slots(
    p: &Program,
    layout: &InstanceLayout,
    plans: &[&StmtPlan],
) -> Result<Vec<Option<SlotAffs>>, InlError> {
    let _span = inl_obs::span("codegen.merge");
    let assumptions = p.assumption_system(p.nparams())?;
    let mut slot_bounds = vec![None; layout.len()];
    for (qi, pos) in layout.positions().iter().enumerate() {
        if !matches!(pos, Position::Loop(_)) {
            continue;
        }
        // the statements under this slot, each with its bounds for it
        let mut members = plans.iter().filter_map(|plan| {
            let r = plan.sched.slot_positions.iter().position(|&sp| sp == qi)?;
            let ((lo, hi), (lo_affs, hi_affs)) = (&plan.slots[r], &plan.slot_affs[r]);
            Some(((&lo[..], lo_affs), (&hi[..], hi_affs)))
        });
        let Some((mut lo, mut hi)) = members.next() else {
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
        if lo.0.is_empty() || hi.0.is_empty() {
            return Err(unbounded(format!("loop slot {qi}")));
        }
        slot_bounds[qi] = Some((Arc::clone(lo.1), Arc::clone(hi.1)));
    }
    Ok(slot_bounds)
}

/// Merge bound-term lists from two statements on one side, each beside
/// what it stands for (`T`). `lower = true`: result must be `≤` both
/// maxima; prefer the provably smaller side. `lower = false`: result must
/// be `≥` both minima.
fn merge_side<'x, T>(
    a: (&'x [(LinExpr, Int)], T),
    b: (&'x [(LinExpr, Int)], T),
    lower: bool,
    assumptions: &System,
) -> Option<(&'x [(LinExpr, Int)], T)> {
    let (ta, tb) = (a.0, b.0);
    if ta.iter().all(|t| tb.contains(t)) && tb.iter().all(|t| ta.contains(t)) {
        return Some(a);
    }
    // All globalized terms share one space; extend the assumptions into it
    // once rather than per prove_le query.
    let space = ta
        .first()
        .or_else(|| tb.first())
        .map_or(assumptions.nvars(), |t| t.0.nvars());
    let assumptions = assumptions.extend(space);
    // prove: max(a) <= max(b) (lower) or min(a) >= min(b) (upper) — then
    // keeping `a` is sound for the union; and vice versa.
    if side_dominates(ta, tb, lower, &assumptions) {
        return Some(a);
    }
    if side_dominates(tb, ta, lower, &assumptions) {
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
    /// The statements' proved guards, by statement.
    guards: &'x [Arc<Guards>],
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
    /// [`CodegenResult::stmt_map`]). It shares the source's parameters,
    /// arrays and assumptions.
    fn build(&self, nest: &[Nest]) -> Result<(Program, Vec<StmtId>), InlError> {
        let mut b = ProgramBuilder::new(format!("{}_transformed", self.src.name()));
        // one placeholder per slot position and per row of the widest plan
        let rows = self.plans.iter().map(|pl| pl.sched.rows.nrows()).max();
        let mut e = Emitted {
            open: vec![None; self.layout.len() + rows.unwrap_or(0)],
            names: Vec::new(),
            stmt_map: vec![StmtId(usize::MAX); self.plans.len()],
        };
        self.emit(&mut b, nest, &mut e)?;
        let program = b.finish_sharing(self.src);
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

    /// Emit statement `s` — `write = rhs` and its kept guards, over
    /// placeholders — inside the loops `open` holds; its target id.
    fn emit_stmt(
        &self,
        b: &mut ProgramBuilder,
        s: StmtId,
        write: &Access,
        rhs: &Expr,
        open: &[Option<LoopId>],
    ) -> Result<StmtId, InlError> {
        // every loop of the statement is open around it
        let real = |a: &Aff| rename(a, open).expect("a statement's loops are open around it");
        let guards = self.guards[s.0].kept.iter().map(|g| g.map_aff(real));
        let write_idxs: Vec<Aff> = write.idxs.iter().map(real).collect();
        let rhs = rhs.map_affs(&real);
        let name = self.src.stmt_decl(s).name.clone();
        let target_array = inl_ir::ArrayId(write.array.0); // the source's arrays
        Ok(b.stmt_guarded(name, target_array, write_idxs, rhs, guards.collect()))
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

/// The guard oracle of debug builds: each statement's full guard list,
/// proved on its domain in the emitted program, against the guards proved
/// before emission (`crate::plan`).
#[cfg(debug_assertions)]
mod oracle {
    use crate::plan::{plan_guards, row_of, unimplied, StmtPlan};
    use inl_core::instance::InstanceLayout;
    use inl_ir::{Guard, LoopId, Program, StmtId};

    /// Each statement of `program`, the leaf built from `plans`, holds the
    /// guards a fresh proof on its domain in `program` keeps of its plan's
    /// full guard list.
    pub(super) fn assert_guards_proved(
        p: &Program,
        layout: &InstanceLayout,
        plans: &[&StmtPlan],
        program: &Program,
        stmt_map: &[StmtId],
    ) {
        for (plan, &t) in plans.iter().zip(stmt_map) {
            // row `r` of the plan is the `r`-th loop around its statement
            let around = program.loops_surrounding(t);
            let target = |l: LoopId| {
                around[row_of(&plan.sched, layout.len(), l).expect("a row of the statement")]
            };
            let full = plan_guards(p, layout, plan).expect("derived before emission");
            let full: Vec<Guard> = full
                .iter()
                .map(|g| g.map_aff(|a| a.rename_loops(target)))
                .collect();
            let kept = unimplied_guards(program, t, full.clone()).unwrap_or(full);
            assert_eq!(
                program.stmt_decl(t).guards,
                kept,
                "{}: the guards proved before emission differ from a proof on the program\n{}",
                program.stmt_decl(t).name,
                program.to_pseudocode()
            );
        }
    }

    /// The guards of `guards` that the domain of `s` in `program` does not
    /// imply; `None` when that domain cannot be built.
    fn unimplied_guards(program: &Program, s: StmtId, guards: Vec<Guard>) -> Option<Vec<Guard>> {
        let slot = |l: LoopId| Some(program.loop_var_index(l));
        let mut sys = program.assumption_system(program.space()).ok()?;
        program.append_domain(s, [], &mut sys, &slot).ok()?;
        Some(unimplied(program, &sys, &slot, guards))
    }
}
