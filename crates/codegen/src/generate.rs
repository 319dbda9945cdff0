//! The code generator. See the crate docs for the pipeline overview.

use crate::cost::LoopOrigin;
use inl_core::depend::{analyze, DependenceMatrix};
use inl_core::instance::{InstanceLayout, Position};
use inl_core::legal::{check_legal, LegalityReport, NewAst};
use inl_core::perstmt::{schedule_all, StmtSchedule};
use inl_core::transform::Transform;
use inl_ir::{Aff, Bound, Guard, LoopId, Node, Program, ProgramBuilder, StmtId, VarKey};
use inl_linalg::{gauss, lcm, IMat, IVec, InlError, InlErrorKind, Int};
use inl_poly::{fm, is_empty, scan_bounds, Feasibility, LinExpr, System, VarBounds};
use std::cell::RefCell;
use std::collections::HashMap;

/// Lower/upper bound term lists for one loop slot, in the shared space.
type SlotBounds = (Vec<(LinExpr, Int)>, Vec<(LinExpr, Int)>);

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

/// Everything known about one statement during generation.
struct StmtPlan {
    sched: StmtSchedule,
    /// Scan bounds for each of the statement's new loops (slots then
    /// augmented), over the local space `[params | old iters | new vars]`.
    bounds: Vec<VarBounds>,
    /// Local-space size and offsets.
    np: usize,
    kold: usize,
}

/// Generate the transformed program for a legal matrix `m`: check it
/// ([`check_legal`], the one check), [`build`], then
/// `BuiltVariant::finish` — two halves in sequence, and the only way a
/// variant is ever finished, whoever asks.
pub fn generate(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
) -> Result<CodegenResult, InlError> {
    let _span = inl_obs::span("codegen.generate");
    let report = check_legal(p, layout, deps, m)?;
    Ok(build(p, layout, deps, m, &report)?.finish(p, layout, deps, m))
}

/// A variant lowered as far as the target [`Program`] — per-statement
/// schedules, Fourier–Motzkin bounds, merge, emission — but
/// with its guards not yet simplified and no cost features computed.
///
/// The program stays private: the only thing readable here is
/// [`BuiltVariant::predicted`], which guard simplification provably leaves
/// alone, so no caller can see an unsimplified guard count.
pub struct BuiltVariant {
    result: CodegenResult,
    /// Where each loop of the target program comes from, by `LoopId`.
    origins: Vec<Option<LoopOrigin>>,
    bounds_scanned: i64,
    loops_augmented: i64,
}

impl BuiltVariant {
    /// The cost the scheduler ranks every leaf on. Equal to the finished
    /// variant's [`crate::cost::CostFeatures::predicted`]. Takes the
    /// arguments [`build`] was given.
    pub fn predicted(
        &self,
        layout: &InstanceLayout,
        deps: &DependenceMatrix,
        m: &IMat,
    ) -> crate::cost::PredictedCost {
        crate::cost::predict(&self.result.program, &self.origins, layout, deps, m)
    }

    /// The second half of [`generate`]: drop the guards the enclosing
    /// bounds imply and compute the cost features. Takes the arguments
    /// [`build`] was given.
    pub(crate) fn finish(
        mut self,
        p: &Program,
        layout: &InstanceLayout,
        deps: &DependenceMatrix,
        m: &IMat,
    ) -> CodegenResult {
        let predicted = self.predicted(layout, deps, m);
        let out = &mut self.result.program;
        simplify_guards(out);
        let guards = out
            .stmts()
            .map(|s| out.stmt_decl(s).guards.len() as i64)
            .sum();
        self.result.features = crate::cost::CostFeatures { guards, predicted };
        if inl_obs::explain_enabled() {
            self.record_cost_features(p, layout, deps, m);
        }
        self.result
    }

    /// Attach the finished variant's features to the explain stream (stage
    /// `codegen`): dependence-matrix summary, parallel/wavefront shape under
    /// this transformation, generation work counts and the predicted cost.
    /// Everything here but the features is computed for this record alone.
    fn record_cost_features(
        &self,
        p: &Program,
        layout: &InstanceLayout,
        deps: &DependenceMatrix,
        m: &IMat,
    ) {
        use inl_core::depend::DepKind;
        use inl_core::provenance;
        let (out, f) = (&self.result, &self.result.features);
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
            format!(
                "{ndeps} deps ({flow} flow, {anti} anti, {output} output; {deps_certain} certain)"
            ),
        )
        .feature("deps", ndeps)
        .feature("deps_certain", deps_certain)
        .feature("stmts", out.stmt_map.len() as i64)
        .feature("bounds_scanned", self.bounds_scanned)
        .feature("loops_augmented", self.loops_augmented)
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
}

/// The first half of [`generate`]: everything through `Builder::build()`,
/// for `m` and the [`LegalityReport`] that proved it ([`check_legal`]'s, or
/// the one [`inl_core::complete::Completion`] carries) — `m` is not checked
/// again. A report of an illegal matrix is an `Infeasible` error; bounds
/// two statements sharing a loop cannot merge are `Unsupported`.
pub fn build(
    p: &Program,
    layout: &InstanceLayout,
    deps: &DependenceMatrix,
    m: &IMat,
    report: &LegalityReport,
) -> Result<BuiltVariant, InlError> {
    let illegal = |why: String| InlError::new(InlErrorKind::Infeasible, why);
    let ast = report.new_ast.as_ref().map_err(|e| illegal(e.clone()))?;
    if !report.violations.is_empty() {
        return Err(illegal(format!("{:?}", report.violations)));
    }
    let schedules = schedule_all(p, layout, ast, m, deps, report)?;

    // --- per-statement polyhedra and scan bounds ---
    let np = p.nparams();
    let mut plans: Vec<StmtPlan> = Vec::with_capacity(schedules.len());
    let mut bounds_scanned = 0i64;
    let mut loops_augmented = 0i64;
    for sched in schedules {
        let s = sched.stmt;
        let old_loops = layout.stmt_loops(s).to_vec();
        let kold = old_loops.len();
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
        for r in 0..knew {
            let mut e = LinExpr::var(space, np + kold + r);
            for (q, &c) in sched.rows.row_slice(r).iter().enumerate() {
                e = e.checked_sub(&LinExpr::var(space, np + q).checked_scale(c)?)?;
            }
            e = e.checked_sub(&LinExpr::constant(space, sched.offsets[r]))?;
            sys.add_eq(e);
        }
        // eliminate old iteration variables
        let keep: Vec<usize> = (0..np).chain(np + kold..space).collect();
        let (projected, _exact) = fm::project(&sys, &keep)?;
        let order: Vec<usize> = (np + kold..space).collect();
        let bounds = scan_bounds(&projected, &order)?;
        inl_obs::counter_add!("codegen.bounds_scanned", bounds.len());
        inl_obs::counter_add!("codegen.loops_augmented", sched.n_aug);
        bounds_scanned += bounds.len() as i64;
        loops_augmented += sched.n_aug as i64;
        plans.push(StmtPlan {
            sched,
            bounds,
            np,
            kold,
        });
    }

    // --- merge bounds for shared loop slots ---
    // Which statements sit under each loop slot (position) in the new AST?
    let assumptions = p.assumption_system(np)?;
    let mut slot_bounds: HashMap<usize, SlotBounds> = HashMap::new();
    for (qi, pos) in layout.positions().iter().enumerate() {
        if !matches!(pos, Position::Loop(_)) {
            continue;
        }
        // statements under this slot, with the index of the slot in their
        // schedule
        let members: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .filter_map(|(pi, plan)| {
                plan.sched
                    .slot_positions
                    .iter()
                    .position(|&sp| sp == qi)
                    .map(|r| (pi, r))
            })
            .collect();
        if members.is_empty() {
            continue;
        }
        // canonicalize each member's bound terms into the shared space
        // [params | slot positions...]: we translate LinExprs over local
        // spaces into (coeff per global slot, const, div) keyed by slot
        // position.
        let canon = |pi: usize, r: usize, lower: bool| -> Result<Vec<(LinExpr, Int)>, InlError> {
            let plan = &plans[pi];
            let vb = &plan.bounds[r];
            let terms = if lower { &vb.lowers } else { &vb.uppers };
            terms
                .iter()
                .map(|t| Ok((globalize(&t.expr, plan, layout, np)?, t.div)))
                .collect()
        };
        let mut lo = canon(members[0].0, members[0].1, true)?;
        let mut hi = canon(members[0].0, members[0].1, false)?;
        let incomparable = |side: &str| {
            let why = format!("slot {qi} {side}: incomparable bound sets");
            InlError::new(InlErrorKind::Unsupported, why)
        };
        for &(pi, r) in &members[1..] {
            lo = merge_side(lo, canon(pi, r, true)?, true, &assumptions)
                .ok_or_else(|| incomparable("lower"))?;
            hi = merge_side(hi, canon(pi, r, false)?, false, &assumptions)
                .ok_or_else(|| incomparable("upper"))?;
        }
        if lo.is_empty() || hi.is_empty() {
            return Err(unbounded(format!("loop slot {qi}")));
        }
        slot_bounds.insert(qi, (lo, hi));
    }

    // --- build the target program ---
    let builder = Builder {
        src: p,
        layout,
        ast,
        plans: &plans,
        slot_bounds: &slot_bounds,
        np,
        origins: RefCell::new(Vec::new()),
    };
    let result = builder.build()?;
    let mut origins = vec![None; result.program.nloops()];
    for (l, origin) in builder.origins.into_inner() {
        origins[l.0] = Some(origin);
    }
    Ok(BuiltVariant {
        result,
        origins,
        bounds_scanned,
        loops_augmented,
    })
}

/// A loop left with no bound on one side: `IllFormed`.
#[track_caller]
fn unbounded(what: String) -> InlError {
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

/// Translate a bound LinExpr from a plan's local space into the shared
/// space `[params | layout positions]`: coefficients keyed by parameter or
/// by *slot position*. Fails when an augmented variable appears (augmented
/// loops are innermost and never feed shared-slot bounds); use
/// [`globalize_tail`] for per-statement augmented-loop bounds.
fn globalize(
    e: &LinExpr,
    plan: &StmtPlan,
    layout: &InstanceLayout,
    np: usize,
) -> Result<LinExpr, InlError> {
    let n = layout.len();
    let out = globalize_tail(e, plan, layout, np)?;
    for i in np + n..out.nvars() {
        if out.coeff(i) != 0 {
            return Err(InlError::new(
                InlErrorKind::IllFormed,
                "shared-slot bound references an augmented variable",
            ));
        }
    }
    Ok(LinExpr::from_parts(
        out.coeffs()[..np + n].to_vec(),
        out.constant_term(),
    ))
}

/// Like [`globalize`], but keeps a per-statement tail for augmented
/// variables: space `[params | layout positions | this statement's rows]`.
fn globalize_tail(
    e: &LinExpr,
    plan: &StmtPlan,
    layout: &InstanceLayout,
    np: usize,
) -> Result<LinExpr, InlError> {
    let n = layout.len();
    let shared = np + n + plan.sched.rows.nrows();
    let mut coeffs: Vec<Int> = vec![0; shared];
    let oops = || InlError::overflow("globalized bound coefficient");
    for (i, &c) in e.coeffs().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if i < np {
            coeffs[i] = coeffs[i].checked_add(c).ok_or_else(oops)?;
        } else if i < plan.np + plan.kold {
            return Err(InlError::new(
                InlErrorKind::IllFormed,
                "bound references an eliminated old iteration variable",
            ));
        } else {
            let r = i - plan.np - plan.kold;
            if r < plan.sched.slot_positions.len() {
                let slot = np + plan.sched.slot_positions[r];
                coeffs[slot] = coeffs[slot].checked_add(c).ok_or_else(oops)?;
            } else {
                // augmented variable: keep in the per-statement tail
                coeffs[np + n + r] = coeffs[np + n + r].checked_add(c).ok_or_else(oops)?;
            }
        }
    }
    Ok(LinExpr::from_parts(coeffs, e.constant_term()))
}

/// Merge bound-term lists from two statements on one side.
/// `lower = true`: result must be `≤` both maxima; prefer the provably
/// smaller side. `lower = false`: result must be `≥` both minima.
fn merge_side(
    a: Vec<(LinExpr, Int)>,
    b: Vec<(LinExpr, Int)>,
    lower: bool,
    assumptions: &System,
) -> Option<Vec<(LinExpr, Int)>> {
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
    let a_covers_b = side_dominates(&a, &b, lower, &assumptions);
    if a_covers_b {
        return Some(a);
    }
    if side_dominates(&b, &a, lower, &assumptions) {
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
    let counter =
        a.0.checked_scale(b.1)
            .and_then(|x| x.checked_sub(&b.0.checked_scale(a.1)?))
            .and_then(|x| x.checked_sub(&LinExpr::constant(space, 1)));
    let Ok(counter) = counter else {
        return false;
    };
    let mut sys = assumptions.clone();
    sys.add_ge(counter);
    is_empty(&sys) == Feasibility::Empty
}

/// Builder state for emitting the target program.
struct Builder<'x> {
    src: &'x Program,
    layout: &'x InstanceLayout,
    ast: &'x NewAst,
    plans: &'x [StmtPlan],
    slot_bounds: &'x HashMap<usize, SlotBounds>,
    np: usize,
    /// Every loop opened so far, with where it comes from.
    origins: RefCell<Vec<(LoopId, LoopOrigin)>>,
}

impl Builder<'_> {
    fn build(&self) -> Result<CodegenResult, InlError> {
        let mut b = ProgramBuilder::new(format!("{}_transformed", self.src.name()));
        for name in self.src.params() {
            b.param(name.clone());
        }
        for a in self.src.assumes() {
            b.assume(a.clone());
        }
        let mut arrays = Vec::new();
        for a in self.src.arrays() {
            let d = self.src.array_decl(a);
            arrays.push(b.array(d.name.clone(), &d.dims));
        }
        // map: slot position -> target LoopId (filled as loops open)
        let mut slot_loop: HashMap<usize, LoopId> = HashMap::new();
        let mut stmt_map = vec![StmtId(usize::MAX); self.src.stmts().count()];
        let root: Vec<Node> = self.ast.program.root().to_vec();
        self.emit_nodes(&mut b, &root, &mut slot_loop, &mut stmt_map)?;
        let program = b.finish_unchecked();
        if let Err(e) = program.validate() {
            let why = format!("generated program invalid: {e}");
            return Err(InlError::new(InlErrorKind::Infeasible, why));
        }
        Ok(CodegenResult {
            program,
            stmt_map,
            features: crate::cost::CostFeatures::default(),
        })
    }

    fn emit_nodes(
        &self,
        b: &mut ProgramBuilder,
        nodes: &[Node],
        slot_loop: &mut HashMap<usize, LoopId>,
        stmt_map: &mut [StmtId],
    ) -> Result<(), InlError> {
        for &n in nodes {
            match n {
                Node::Loop(l) => {
                    // slot position of this loop in the pinned layout
                    let qpos = self.ast.layout.loop_position(l);
                    let (lo, hi) = self
                        .slot_bounds
                        .get(&qpos)
                        .ok_or_else(|| unbounded(format!("slot {qpos}")))?;
                    let name = self.slot_name(qpos);
                    let lower = Bound {
                        terms: lo
                            .iter()
                            .map(|t| self.to_aff(t, slot_loop, None))
                            .collect::<Result<_, _>>()?,
                    };
                    let upper = Bound {
                        terms: hi
                            .iter()
                            .map(|t| self.to_aff(t, slot_loop, None))
                            .collect::<Result<_, _>>()?,
                    };
                    let children = self.ast.program.loop_decl(l).children.clone();
                    let mut res: Result<(), InlError> = Ok(());
                    b.loop_full(name, lower, upper, 1, false, |b| {
                        let id = b.current_loop().expect("inside loop");
                        slot_loop.insert(qpos, id);
                        self.origins.borrow_mut().push((id, LoopOrigin::Slot(qpos)));
                        res = self.emit_nodes(b, &children, slot_loop, stmt_map);
                    });
                    res?;
                }
                Node::Stmt(s) => {
                    self.emit_stmt(b, s, slot_loop, stmt_map)?;
                }
            }
        }
        Ok(())
    }

    /// Name a slot loop: reuse the source loop's name when every statement
    /// schedules this slot as exactly that loop (identity row), otherwise
    /// a fresh `t<pos>`.
    fn slot_name(&self, qpos: usize) -> String {
        let mut source: Option<usize> = None;
        let mut uniform = true;
        for plan in self.plans {
            let Some(r) = plan.sched.slot_positions.iter().position(|&sp| sp == qpos) else {
                continue;
            };
            let row = plan.sched.rows.row(r);
            if plan.sched.offsets[r] != 0 {
                uniform = false;
                break;
            }
            // identity selector of some old loop dimension?
            let nz: Vec<usize> = (0..row.len()).filter(|&i| row[i] != 0).collect();
            if nz.len() == 1 && row[nz[0]] == 1 {
                let old = self.layout.stmt_loops(plan.sched.stmt)[nz[0]];
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
        match (uniform, source) {
            (true, Some(oldpos)) => {
                if let Position::Loop(l) = self.layout.positions()[oldpos] {
                    self.src.loop_decl(l).name.clone()
                } else {
                    format!("t{qpos}")
                }
            }
            _ => format!("t{qpos}"),
        }
    }

    /// Convert a globalized bound term into a target-program `Aff`.
    /// `aug_ctx` maps aug tail indices to target loop ids (for aug-loop
    /// bounds referencing outer augs).
    fn to_aff(
        &self,
        t: &(LinExpr, Int),
        slot_loop: &HashMap<usize, LoopId>,
        aug_ctx: Option<&HashMap<usize, LoopId>>,
    ) -> Result<Aff, InlError> {
        let n = self.layout.len();
        let ill = |what: &str| InlError::new(InlErrorKind::IllFormed, what.to_string());
        let mut acc = Aff::konst(t.0.constant_term());
        for (i, &c) in t.0.coeffs().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let v = if i < self.np {
                VarKey::Param(inl_ir::ParamId(i))
            } else if i < self.np + n {
                let qpos = i - self.np;
                VarKey::Loop(
                    *slot_loop
                        .get(&qpos)
                        .ok_or_else(|| ill("bound references a loop slot that is not yet open"))?,
                )
            } else {
                let r = i - self.np - n;
                VarKey::Loop(
                    *aug_ctx
                        .ok_or_else(|| {
                            ill("bound references an augmented variable outside its statement")
                        })?
                        .get(&r)
                        .ok_or_else(|| {
                            ill("bound references an augmented loop that is not yet open")
                        })?,
                )
            };
            acc = acc + Aff::var(v) * c;
        }
        if t.1 != 1 {
            acc = acc.exact_div(t.1);
        }
        Ok(acc)
    }

    fn emit_stmt(
        &self,
        b: &mut ProgramBuilder,
        s: StmtId,
        slot_loop: &mut HashMap<usize, LoopId>,
        stmt_map: &mut [StmtId],
    ) -> Result<(), InlError> {
        let plan = self
            .plans
            .iter()
            .find(|pl| pl.sched.stmt == s)
            .expect("plan");
        let sched = &plan.sched;
        let k = sched.slot_positions.len();
        let knew = sched.rows.nrows();

        // open augmented loops (innermost around the statement)
        let mut aug_ctx: HashMap<usize, LoopId> = HashMap::new();
        self.emit_aug_loops(b, plan, k, &mut aug_ctx, slot_loop, s, stmt_map)?;
        if knew == k {
            // no augs: emit directly
            self.emit_stmt_body(b, s, plan, slot_loop, &aug_ctx, stmt_map)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_aug_loops(
        &self,
        b: &mut ProgramBuilder,
        plan: &StmtPlan,
        r: usize,
        aug_ctx: &mut HashMap<usize, LoopId>,
        slot_loop: &mut HashMap<usize, LoopId>,
        s: StmtId,
        stmt_map: &mut [StmtId],
    ) -> Result<(), InlError> {
        let knew = plan.sched.rows.nrows();
        if r >= knew {
            if plan.sched.n_aug > 0 {
                self.emit_stmt_body(b, s, plan, slot_loop, aug_ctx, stmt_map)?;
            }
            return Ok(());
        }
        let vb = &plan.bounds[r];
        let lo: Vec<Aff> = vb
            .lowers
            .iter()
            .map(|t| {
                self.to_aff(
                    &(globalize_tail(&t.expr, plan, self.layout, self.np)?, t.div),
                    slot_loop,
                    Some(aug_ctx),
                )
            })
            .collect::<Result<_, _>>()?;
        let hi: Vec<Aff> = vb
            .uppers
            .iter()
            .map(|t| {
                self.to_aff(
                    &(globalize_tail(&t.expr, plan, self.layout, self.np)?, t.div),
                    slot_loop,
                    Some(aug_ctx),
                )
            })
            .collect::<Result<_, _>>()?;
        if lo.is_empty() || hi.is_empty() {
            return Err(unbounded(format!(
                "augmented loop {r} of {}",
                self.src.stmt_decl(s).name
            )));
        }
        let name = format!(
            "{}_a{}",
            self.src.stmt_decl(s).name.to_lowercase(),
            r - plan.sched.slot_positions.len()
        );
        // the augmented rows so far, over the instance vector
        let k = plan.sched.slot_positions.len();
        let aug_rows: Vec<IVec> = (k..=r)
            .map(|a| {
                let mut row = IVec::zeros(self.layout.len());
                for (i, &old) in self.layout.stmt_loops(s).iter().enumerate() {
                    row[self.layout.loop_position(old)] = plan.sched.rows[(a, i)];
                }
                row
            })
            .collect();
        let mut res: Result<(), InlError> = Ok(());
        b.loop_full(
            name,
            Bound { terms: lo },
            Bound { terms: hi },
            1,
            false,
            |b| {
                let id = b.current_loop().expect("inside loop");
                aug_ctx.insert(r, id);
                self.origins.borrow_mut().push((
                    id,
                    LoopOrigin::Aug {
                        stmt: s,
                        rows: aug_rows.clone(),
                    },
                ));
                res = self.emit_aug_loops(b, plan, r + 1, aug_ctx, slot_loop, s, stmt_map);
            },
        );
        res
    }

    fn emit_stmt_body(
        &self,
        b: &mut ProgramBuilder,
        s: StmtId,
        plan: &StmtPlan,
        slot_loop: &HashMap<usize, LoopId>,
        aug_ctx: &HashMap<usize, LoopId>,
        stmt_map: &mut [StmtId],
    ) -> Result<(), InlError> {
        let sched = &plan.sched;
        let k = sched.slot_positions.len();
        let old_loops = self.layout.stmt_loops(s);

        // target loop variable for row r of the schedule
        let target_var = |r: usize| -> VarKey {
            if r < k {
                VarKey::Loop(*slot_loop.get(&sched.slot_positions[r]).expect("slot open"))
            } else {
                VarKey::Loop(*aug_ctx.get(&r).expect("aug open"))
            }
        };

        // i = N_S⁻¹ · (v - off), one Aff per old loop dim
        let inv = gauss::inverse_rational(&sched.n_s)?.ok_or_else(|| {
            InlError::new(
                InlErrorKind::RankDeficient,
                "per-statement transform N_S is singular",
            )
        })?;
        let kq = sched.n_s.nrows();
        let mut old_exprs: Vec<Aff> = Vec::with_capacity(kq);
        for q in 0..kq {
            // common denominator of row q
            let den = inv.rows[q]
                .iter()
                .try_fold(1, |acc, x| lcm(acc, x.den()).map(|l| l.max(1)))?;
            let mut acc = Aff::konst(0);
            let mut constant: Int = 0;
            for (j, &coef) in inv.rows[q].iter().enumerate() {
                if coef.is_zero() {
                    continue;
                }
                let r = sched.n_s_rows[j];
                let c = coef
                    .num()
                    .checked_mul(den / coef.den())
                    .ok_or_else(|| InlError::overflow("schedule coefficient"))?;
                acc = acc + Aff::var(target_var(r)) * c;
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
        let subst = |a: &Aff| -> Aff {
            a.substitute_loops(&|l: LoopId| {
                match old_loops.iter().position(|&x| x == l) {
                    Some(q) => old_exprs[q].clone(),
                    None => Aff::var(VarKey::Loop(l)), // not ours (impossible after validation)
                }
            })
        };

        // guards
        let mut guards: Vec<Guard> = Vec::new();
        // (a) divisibility of each recovered old index
        for e in &old_exprs {
            if e.divisor() > 1 {
                guards.push(Guard::Div(e.numerator(), e.divisor()));
            }
        }
        // (b) singular-row equalities: v_r - off_r = Σ m_j (v_kj - off_kj)
        for (r, sing) in sched.singular.iter().enumerate() {
            let Some(coeffs) = sing else { continue };
            let den = coeffs
                .iter()
                .try_fold(1, |acc, x| lcm(acc, x.den()).map(|l| l.max(1)))?;
            let mut e = (Aff::var(target_var(r)) - Aff::konst(sched.offsets[r])) * den;
            for (j, coef) in coeffs.iter().enumerate() {
                if coef.is_zero() {
                    continue;
                }
                let rj = sched.n_s_rows[j];
                let c = coef
                    .num()
                    .checked_mul(den / coef.den())
                    .ok_or_else(|| InlError::overflow("singular-row coefficient"))?;
                e = e - (Aff::var(target_var(rj)) - Aff::konst(sched.offsets[rj])) * c;
            }
            guards.push(Guard::Eq(e.numerator()));
        }
        // (c) original bounds re-derived through the substitution
        for &l in old_loops {
            let ld = self.src.loop_decl(l);
            let iv = subst(&Aff::var(VarKey::Loop(l)));
            for t in &ld.lower.terms {
                // d·i - t ≥ 0
                let e = iv.clone() * t.divisor() - subst(&t.numerator());
                guards.push(Guard::Ge(e.numerator()));
            }
            for t in &ld.upper.terms {
                let e = subst(&t.numerator()) - iv.clone() * t.divisor();
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
                    Guard::Div(sa.numerator(), md * sa.divisor())
                }
            });
        }

        // body
        let sd = self.src.stmt_decl(s);
        let write_idxs: Vec<Aff> = sd.write.idxs.iter().map(&subst).collect();
        let rhs = sd.rhs.map_affs(&subst);
        let target_array = inl_ir::ArrayId(sd.write.array.0); // arrays copied in order
        let new_id = b.stmt_guarded(sd.name.clone(), target_array, write_idxs, rhs, guards);
        stmt_map[s.0] = new_id;
        Ok(())
    }
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
/// when that domain cannot be built, so every guard stays.
fn unimplied_guards(program: &Program, s: StmtId) -> Option<Vec<Guard>> {
    let slot = |l: LoopId| Some(program.loop_var_index(l));
    let mut sys = program.assumption_system(program.space()).ok()?;
    program.append_domain(s, [], &mut sys, &slot).ok()?;
    let space = sys.nvars();
    let to_expr = |a: &Aff| program.aff_expr(a, space, &slot);
    let kept = program
        .stmt_decl(s)
        .guards
        .iter()
        .filter(|g| match g {
            Guard::Ge(a) => {
                // keep unless ¬(a ≥ 0) is infeasible in context;
                // overflow while forming the query keeps the guard
                let Ok(e) = to_expr(a)
                    .and_then(|x| x.checked_neg())
                    .and_then(|x| x.checked_sub(&LinExpr::constant(space, 1)))
                else {
                    return true;
                };
                let mut neg = sys.clone();
                neg.add_ge(e);
                is_empty(&neg) != Feasibility::Empty
            }
            Guard::Eq(a) => {
                let above = to_expr(a).and_then(|x| x.checked_sub(&LinExpr::constant(space, 1)));
                let below = to_expr(a)
                    .and_then(|x| x.checked_neg())
                    .and_then(|x| x.checked_sub(&LinExpr::constant(space, 1)));
                let (Ok(above), Ok(below)) = (above, below) else {
                    return true;
                };
                let mut pos = sys.clone();
                pos.add_ge(above);
                let mut negs = sys.clone();
                negs.add_ge(below);
                is_empty(&pos) != Feasibility::Empty || is_empty(&negs) != Feasibility::Empty
            }
            Guard::Div(_, _) => true,
        })
        .cloned()
        .collect();
    Some(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_core::depend::analyze;
    use inl_core::instance::InstanceLayout;
    use inl_ir::zoo;

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
        let ast = report.new_ast.as_ref().unwrap();
        let schedules = schedule_all(&p, &layout, ast, &m, &deps, &report).expect("schedule");
        let sched = schedules.into_iter().next().unwrap();
        let np = p.nparams();
        let kold = layout.stmt_loops(sched.stmt).len();
        let plan = StmtPlan {
            sched,
            bounds: Vec::new(),
            np,
            kold,
        };
        let space = np + kold + plan.sched.rows.nrows();
        let bad = LinExpr::var(space, np); // slot np = first old iteration var
        let err = globalize_tail(&bad, &plan, &layout, np).unwrap_err();
        assert_eq!(err.kind(), InlErrorKind::IllFormed);
        assert!(
            err.to_string()
                .contains("eliminated old iteration variable"),
            "{err}"
        );
        let err = globalize(&bad, &plan, &layout, np).unwrap_err();
        assert_eq!(err.kind(), InlErrorKind::IllFormed);
    }
}
