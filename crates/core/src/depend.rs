//! Dependence analysis over instance vectors (§3 of the paper).
//!
//! For every pair of accesses to the same array (at least one a write), a
//! conflict polyhedron is built over `[parameters | source iteration |
//! target iteration]`: both statements' domains
//! ([`inl_ir::Program::append_domain`]), subscript equality, and
//! precedence. Precedence ("read after write" etc.) is a disjunction
//! over *levels* — either the instances differ at the q-th common loop, or
//! they agree on all common loops and the source statement is syntactically
//! earlier — so each feasible level yields one dependence column.
//!
//! Each dependence records:
//!
//! * the distance/direction **entries** of the instance-vector difference
//!   (target − source), obtained by projecting the polyhedron onto each Δ
//!   with Fourier–Motzkin (this is what the paper computes with the Omega
//!   toolkit, e.g. `[0, 1, -1, +]'` for the flow dependence of §3);
//! * the **polyhedron itself**, kept for the exact legality fallback.
//!
//! # Work done once
//!
//! Every answer below is the one the full procedure gives; only the work
//! that would repeat a known answer is skipped:
//!
//! * an access pair whose subscripts equal an earlier pair's of the same
//!   statement pair has that pair's polyhedra, so its columns are the ones
//!   the dedup would drop: it is not built;
//! * a level whose precedence contradicts a common loop's Δ that an
//!   equality of the base system fixes (`A[K]` on both sides fixes K's Δ at
//!   0, so K carries nothing) is pruned without a feasibility query;
//! * over a polyhedron with a proven integer point, an entry whose Δ is a
//!   constant ([`constant_entry`]), or differs from an equality row by one,
//!   is read off as that distance instead of projected;
//! * a distribution or jam keeps its parent's columns for every statement
//!   pair it leaves as it was (`map`, called by
//!   [`crate::recipe::Shape::apply`]); only the pairs it joins or separates
//!   are analysed. A split is analysed afresh: its bounds are not a
//!   renaming.
//!
//! # The analysis memo
//!
//! The matrix is a function of the program and its layout alone, and the
//! compile service, the batch compiler and the scheduler ask for the same
//! few programs' matrices over and over, so [`analyze`] is memoised
//! process-wide, and `map` consults and fills the same memo. It is one of
//! the two tables of the compile side's one memo mechanism
//! ([`crate::memo`]; the other holds `inl_codegen`'s statement plans): the
//! key is the *value* `(Program, layout.positions())` (`Program: Eq + Hash`
//! is structural, name included), found by hash and confirmed by `==`, so a
//! program that differs in one bound, guard, subscript or assumption can
//! never be answered with another's matrix. A mapped matrix is the one
//! [`analyze`] would store. The columns are immutable and shared
//! (`Arc<[Dependence]>`): a hit hands out the matrix the miss computed,
//! column slice and all, and allocates nothing. Only `Ok` results are
//! stored. `inl_poly::cache::set_cache_enabled(false)` bypasses it,
//! `inl_poly::cache::clear()` empties it, and it is bounded by
//! [`MEMO_CAP`] matrices with a counted generation flush.
//!
//! Telemetry: the `depend.analyze` span and the `depend.map` span (and so
//! their timeline slices) fire on every call, hit or miss — requested
//! analyses stay countable — while the work counters fire only when the
//! work is done, i.e. on a miss or a bypass. `depend.pairs_tested` counts
//! the access pairs whose polyhedra are built: not those skipped for
//! repeating an earlier pair's subscripts, nor those of statement pairs a
//! map carries over. `depend.levels_pruned` counts levels ruled out by a
//! fixed Δ or an empty polyhedron, `depend.base_infeasible` access pairs
//! with an empty base system, `depend.polyhedra_retained` the columns
//! built before the dedup. `depend.memo.hit` / `depend.memo.miss` /
//! `depend.memo.evictions` say which it was, and the always-on
//! [`memo_stats`] mirrors them. The `depend.` counter family is therefore
//! warmth-dependent, and `inl_obs::capture::deterministic_projection` drops
//! it as it drops `poly.`.

use crate::instance::InstanceLayout;
use crate::memo::Memo;
pub use crate::memo::MemoStats;
use inl_ir::{LoopId, Program, StmtId};
use inl_linalg::{InlError, Int};
use inl_poly::{expr_bounds, is_empty, Feasibility, LinExpr, System};
use std::fmt;
use std::sync::Arc;

/// One entry of a dependence vector: an integer interval containing every
/// value the corresponding instance-vector difference takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DepEntry {
    /// Greatest known lower bound (`None` = unbounded below).
    pub lo: Option<Int>,
    /// Least known upper bound (`None` = unbounded above).
    pub hi: Option<Int>,
}

impl DepEntry {
    /// An exact distance.
    pub fn dist(c: Int) -> Self {
        DepEntry {
            lo: Some(c),
            hi: Some(c),
        }
    }

    /// The `+` direction (`≥ 1`).
    pub fn plus() -> Self {
        DepEntry {
            lo: Some(1),
            hi: None,
        }
    }

    /// Exact distance, if the interval is a single point.
    pub fn as_dist(&self) -> Option<Int> {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// True iff this entry is exactly 0.
    pub fn is_zero(&self) -> bool {
        self.as_dist() == Some(0)
    }

    /// True iff every value in the interval is ≥ 1.
    pub fn is_positive(&self) -> bool {
        self.lo.is_some_and(|l| l >= 1)
    }

    /// True iff every value in the interval is ≤ -1.
    pub fn is_negative(&self) -> bool {
        self.hi.is_some_and(|h| h <= -1)
    }
}

impl fmt::Display for DepEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.lo, self.hi) {
            (Some(a), Some(b)) if a == b => write!(f, "{a}"),
            (Some(1), None) => write!(f, "+"),
            (None, Some(-1)) => write!(f, "-"),
            (Some(0), None) => write!(f, "0+"),
            (None, Some(0)) => write!(f, "0-"),
            (None, None) => write!(f, "*"),
            (Some(a), None) => write!(f, ">={a}"),
            (None, Some(b)) => write!(f, "<={b}"),
            (Some(a), Some(b)) => write!(f, "[{a},{b}]"),
        }
    }
}

/// The classic dependence kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// Write → read (true dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

/// One dependence: from an instance of `src` to a later instance of `dst`.
#[derive(Clone, Debug, PartialEq)]
pub struct Dependence {
    /// Source statement (earlier in execution).
    pub src: StmtId,
    /// Target statement.
    pub dst: StmtId,
    /// Kind.
    pub kind: DepKind,
    /// Precedence level: the dependence is carried by the `level`-th common
    /// loop (0-based, outside-in); a level equal to the number of common
    /// loops means the
    /// instances share all common loop values and the dependence is
    /// loop-independent (satisfied by syntactic order).
    pub level: usize,
    /// The instance-vector difference `L(dst) − L(src)`, abstracted to
    /// intervals (distances and directions).
    pub entries: Vec<DepEntry>,
    /// The conflict polyhedron over `[params | src iters | dst iters]`
    /// (plus any existential variables appended at the end).
    pub system: System,
    /// `src`'s surrounding loops, outside-in (variable slots
    /// `nparams .. nparams+k_src` of `system`).
    pub src_loops: Vec<LoopId>,
    /// `dst`'s surrounding loops (following slots).
    pub dst_loops: Vec<LoopId>,
    /// True if integer feasibility was proven (vs. conservatively assumed).
    pub certain: bool,
}

impl Dependence {
    /// The instance-vector difference at position `i` as a [`LinExpr`] over
    /// the dependence polyhedron's variable space; an error on coefficient
    /// overflow.
    pub fn checked_delta_expr(
        &self,
        layout: &InstanceLayout,
        nparams: usize,
        i: usize,
    ) -> Result<LinExpr, InlError> {
        let space = self.system.nvars();
        let (es, fs) = layout.embedding(self.src);
        let (et, ft) = layout.embedding(self.dst);
        let ks = self.src_loops.len();
        let mut coeffs: Vec<Int> = vec![0; space];
        let oops = || InlError::overflow("dependence delta coefficient");
        for j in 0..self.dst_loops.len() {
            let slot = nparams + ks + j;
            coeffs[slot] = coeffs[slot].checked_add(et[(i, j)]).ok_or_else(oops)?;
        }
        for j in 0..ks {
            coeffs[nparams + j] = coeffs[nparams + j]
                .checked_sub(es[(i, j)])
                .ok_or_else(oops)?;
        }
        let c = ft[i].checked_sub(fs[i]).ok_or_else(oops)?;
        Ok(LinExpr::from_parts(coeffs, c))
    }
}

/// All dependences of a program.
#[derive(Clone, Debug, PartialEq)]
pub struct DependenceMatrix {
    /// Instance-vector length.
    pub n: usize,
    /// The dependences (columns of the paper's dependence matrix), shared
    /// by every clone of the matrix: the analysis memo hands them out.
    pub deps: Arc<[Dependence]>,
}

impl DependenceMatrix {
    /// True iff some column has the given entries (used to compare against
    /// the paper's published matrices, which may order columns differently).
    pub fn has_column(&self, entries: &[DepEntry]) -> bool {
        self.deps.iter().any(|d| d.entries == entries)
    }

    /// Render as the paper does: one column per dependence.
    pub fn display(&self) -> String {
        let mut out = String::new();
        for i in 0..self.n {
            out.push('[');
            for (j, d) in self.deps.iter().enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{}", d.entries[i]));
            }
            out.push_str("]\n");
        }
        out
    }
}

/// Entry cap of the analysis memo: one counted generation flush when
/// reached (`crate::memo`). A process that schedules the zoo holds
/// 18 entries (its 13 programs, and the 5 shapes the scheduler maps of
/// them); the bound is for `inl-fuzz` and the property tests, which feed it
/// programs without end.
pub const MEMO_CAP: usize = 256;

/// The analysis memo: one matrix per program and layout, under the key `()`.
static ANALYSES: Memo<(), DependenceMatrix> = Memo::new(MEMO_CAP);

/// Snapshot the analysis memo's counters.
pub fn memo_stats() -> MemoStats {
    ANALYSES.stats()
}

/// Compute the dependence matrix of a program (the general procedure of
/// §3: "performs this analysis for all pairs of reads and writes").
///
/// Memoised process-wide on `(p, layout.positions())` — see the module
/// docs: the first call for a program analyses it, every later call for an
/// equal program and layout shares that matrix's columns.
///
/// Errors only when exact arithmetic on the program's constraints leaves
/// the `i128` range (or a polyhedral budget is exhausted) — dependence
/// *construction* cannot be soundly approximated, so overflow here is
/// reported rather than degraded.
pub fn analyze(p: &Program, layout: &InstanceLayout) -> Result<DependenceMatrix, InlError> {
    let _span = inl_obs::span("depend.analyze");
    memoised(p, layout, || analyze_uncached(p, layout))
}

/// The dependence matrix of `p`, which a distribution or jam made of
/// `parent` (laid out as `parent_layout`, with dependences `parent_deps`):
/// equal to [`analyze`]`(p, layout)`, and stored in the same memo.
///
/// These steps only rename loops — same bounds, same variable slots — so a
/// statement pair that keeps both statements' depths, its number of common
/// loops and its syntactic order has the parent's polyhedra constraint for
/// constraint, and keeps the parent's columns with `src_loops`/`dst_loops`
/// from `layout`. Each entry is [`constant_entry`], or else the parent's
/// entry at a position with an equal Δ. Every pair the step joins or
/// separates is analysed afresh, and so is a pair with an entry neither
/// gives: the parent's matrix has lost the columns its dedup dropped, and
/// they stay dropped only while every entry is a function of the parent's.
pub(crate) fn map(
    parent: &Program,
    parent_layout: &InstanceLayout,
    parent_deps: &DependenceMatrix,
    p: &Program,
    layout: &InstanceLayout,
) -> Result<DependenceMatrix, InlError> {
    let _span = inl_obs::span("depend.map");
    let from = (parent, parent_layout, parent_deps);
    memoised(p, layout, || {
        let mut deps = Vec::new();
        for src in p.stmts() {
            for dst in p.stmts() {
                match carried(from, p, layout, src, dst)? {
                    Some(columns) => deps.extend(columns),
                    None => deps.extend(analyze_stmt_pair(p, layout, src, dst)?),
                }
            }
        }
        Ok(dedup(layout.len(), deps))
    })
}

/// The parent's columns of the statement pair `(src, dst)` with entries
/// over `layout`, or `None` when the pair must be analysed afresh.
fn carried(
    (parent, parent_layout, parent_deps): (&Program, &InstanceLayout, &DependenceMatrix),
    p: &Program,
    layout: &InstanceLayout,
    src: StmtId,
    dst: StmtId,
) -> Result<Option<Vec<Dependence>>, InlError> {
    let depth = |l: &InstanceLayout, s: StmtId| l.stmt_loops(s).len();
    let same_pair = depth(parent_layout, src) == depth(layout, src)
        && depth(parent_layout, dst) == depth(layout, dst)
        && common_loops(parent_layout, src, dst) == common_loops(layout, src, dst)
        && parent.syntactically_before(src, dst) == p.syntactically_before(src, dst);
    if !same_pair {
        return Ok(None);
    }
    let nparams = p.nparams();
    let deltas = |d: &Dependence, l: &InstanceLayout| -> Result<Vec<LinExpr>, InlError> {
        (0..l.len())
            .map(|i| d.checked_delta_expr(l, nparams, i))
            .collect()
    };
    let mut columns = Vec::new();
    for d in parent_deps
        .deps
        .iter()
        .filter(|d| d.src == src && d.dst == dst)
    {
        let mut column = Dependence {
            entries: Vec::with_capacity(layout.len()),
            src_loops: layout.stmt_loops(src).to_vec(),
            dst_loops: layout.stmt_loops(dst).to_vec(),
            ..d.clone()
        };
        let parent_deltas = deltas(d, parent_layout)?;
        for delta in deltas(&column, layout)? {
            let constant = constant_entry(&delta, Feasibility::NonEmpty).filter(|_| d.certain);
            let same = parent_deltas.iter().position(|e| *e == delta);
            column.entries.push(match (constant, same) {
                (Some(e), _) => e,
                (None, Some(j)) => d.entries[j],
                (None, None) => return Ok(None),
            });
        }
        columns.push(column);
    }
    Ok(Some(columns))
}

/// How many loops `src` and `dst` share, outside-in.
fn common_loops(layout: &InstanceLayout, src: StmtId, dst: StmtId) -> usize {
    let (a, b) = (layout.stmt_loops(src), layout.stmt_loops(dst));
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Answer from the memo when it holds an equal `(p, layout.positions())`,
/// else run `compute` and store its matrix.
fn memoised(
    p: &Program,
    layout: &InstanceLayout,
    compute: impl FnOnce() -> Result<DependenceMatrix, InlError>,
) -> Result<DependenceMatrix, InlError> {
    let Some(scope) = ANALYSES.scope(p, layout.positions()) else {
        return compute();
    };
    if let Some(deps) = scope.get(&()) {
        inl_obs::counter_add!("depend.memo.hit", 1);
        return Ok(deps);
    }
    inl_obs::counter_add!("depend.memo.miss", 1);
    let deps = compute()?;
    let evicted = scope.insert((), deps.clone());
    if evicted > 0 {
        inl_obs::counter_add!("depend.memo.evictions", evicted as u64);
    }
    Ok(deps)
}

/// The analysis itself: a pure function of `(p, layout)`.
fn analyze_uncached(p: &Program, layout: &InstanceLayout) -> Result<DependenceMatrix, InlError> {
    let mut deps = Vec::new();
    for src in p.stmts() {
        for dst in p.stmts() {
            deps.extend(analyze_stmt_pair(p, layout, src, dst)?);
        }
    }
    Ok(dedup(layout.len(), deps))
}

/// The columns of every access pair of `(src, dst)`, before the dedup. An
/// access pair with an earlier pair's subscripts has that pair's polyhedra
/// and entries, so the dedup would drop all of its columns: it is skipped.
fn analyze_stmt_pair(
    p: &Program,
    layout: &InstanceLayout,
    src: StmtId,
    dst: StmtId,
) -> Result<Vec<Dependence>, InlError> {
    // access pairs: (kind, src subscripts, dst subscripts, array)
    let sd = p.stmt_decl(src);
    let dd = p.stmt_decl(dst);

    let mut pairs: Vec<(DepKind, &inl_ir::Access, &inl_ir::Access)> = Vec::new();
    // write -> read: flow
    dd.rhs.for_each_read(&mut |r| {
        if r.array == sd.write.array {
            pairs.push((DepKind::Flow, &sd.write, r));
        }
    });
    // read -> write: anti
    sd.rhs.for_each_read(&mut |r| {
        if r.array == dd.write.array {
            pairs.push((DepKind::Anti, r, &dd.write));
        }
    });
    // write -> write: output
    if sd.write.array == dd.write.array {
        pairs.push((DepKind::Output, &sd.write, &dd.write));
    }

    let mut out = Vec::new();
    for (k, &(kind, asrc, adst)) in pairs.iter().enumerate() {
        let repeated = pairs[..k]
            .iter()
            .any(|&(_, s, d)| s.idxs == asrc.idxs && d.idxs == adst.idxs);
        if !repeated {
            out.extend(analyze_pair(p, layout, src, dst, kind, asrc, adst)?);
        }
    }
    Ok(out)
}

/// Different access pairs (and kinds) often induce identical columns;
/// legality only cares about src/dst/level/entries, so collapse those and
/// keep the first kind observed.
fn dedup(n: usize, deps: Vec<Dependence>) -> DependenceMatrix {
    let mut uniq: Vec<Dependence> = Vec::new();
    for d in deps {
        if !uniq.iter().any(|u| {
            u.src == d.src && u.dst == d.dst && u.level == d.level && u.entries == d.entries
        }) {
            uniq.push(d);
        }
    }
    DependenceMatrix {
        n,
        deps: uniq.into(),
    }
}

/// The entry of a Δ expression that needs no projection: a constant `c`
/// over a polyhedron with a proven integer point is exactly `c`.
///
/// This is the answer [`expr_bounds`] gives: a `NonEmpty` verdict means the
/// real-shadow chain eliminated every variable without error, the chain
/// that projects onto `t = c` eliminates the same variables in the same
/// order (the row `t - c = 0` mentions none of them), and what is left is
/// that one row, read off as `[c, c]`. `c = Int::MIN` is left to the
/// projection, which reports the overflow of `t - c`. Edge positions and
/// positions padded from a loop the pair does not share are constants; an
/// `Unknown` polyhedron keeps the projection (its chain may have failed).
pub fn constant_entry(expr: &LinExpr, feas: Feasibility) -> Option<DepEntry> {
    let c = expr.constant_term();
    (feas == Feasibility::NonEmpty && expr.is_constant() && c != Int::MIN)
        .then(|| DepEntry::dist(c))
}

fn analyze_pair(
    p: &Program,
    layout: &InstanceLayout,
    src: StmtId,
    dst: StmtId,
    kind: DepKind,
    asrc: &inl_ir::Access,
    adst: &inl_ir::Access,
) -> Result<Vec<Dependence>, InlError> {
    inl_obs::counter_add!("depend.pairs_tested", 1);
    let nparams = p.nparams();
    let src_loops = layout.stmt_loops(src).to_vec();
    let dst_loops = layout.stmt_loops(dst).to_vec();
    let (ks, kd) = (src_loops.len(), dst_loops.len());
    // [params | src iteration | dst iteration | src, then dst, existentials]
    let src_slot = |l: LoopId| Some(nparams + src_loops.iter().position(|&x| x == l)?);
    let dst_slot = |l: LoopId| Some(nparams + ks + dst_loops.iter().position(|&x| x == l)?);
    let mut base_sys = p.assumption_system(nparams + ks + kd)?;
    p.append_domain(src, &p.stmt_decl(src).guards, &mut base_sys, &src_slot)?;
    p.append_domain(dst, &p.stmt_decl(dst).guards, &mut base_sys, &dst_slot)?;
    let space = base_sys.nvars();

    // subscript equality, cross-multiplying divisors
    for (is_, id_) in asrc.idxs.iter().zip(&adst.idxs) {
        let mut row = LinExpr::zero(space);
        p.add_aff(&mut row, id_.divisor(), is_, &src_slot)?;
        p.add_aff(&mut row, -is_.divisor(), id_, &dst_slot)?;
        base_sys.add_eq(row);
    }

    // One feasibility test on the shared base system prunes every level at
    // once: each level polyhedron only adds constraints to base_sys, so an
    // empty base means an empty level system for all of them (disjoint
    // access ranges, contradictory guards, unsatisfiable subscripts).
    if is_empty(&base_sys) == Feasibility::Empty {
        inl_obs::counter_add!("depend.base_infeasible", 1);
        return Ok(Vec::new());
    }

    // precedence levels over common loops
    let ncommon = common_loops(layout, src, dst);
    // the Δ of the q-th common loop, which both statements place at q,
    // plus `c`
    let delta = |q: usize, c: Int| {
        let mut row = LinExpr::constant(space, c);
        row.set_coeff(nparams + ks + q, 1);
        row.set_coeff(nparams + q, -1);
        row
    };
    // A common loop's Δ that an equality of the base system fixes (equal
    // subscripts `A[K]` on both sides fix K's at 0) rules out, with no
    // feasibility query, every level whose precedence contradicts it.
    let fixed: Vec<Option<Int>> = (0..ncommon)
        .map(|q| fixed_value(&base_sys, &delta(q, 0)))
        .collect();
    let mut out = Vec::new();
    for level in 0..=ncommon {
        if level == ncommon {
            // loop-independent: requires src strictly before dst syntactically
            if src == dst || !p.syntactically_before(src, dst) {
                continue;
            }
        }
        let outer_equal = fixed[..level].iter().all(|&c| c.is_none_or(|c| c == 0));
        let may_carry = fixed.get(level).is_none_or(|&c| c.is_none_or(|c| c >= 1));
        if !(outer_equal && may_carry) {
            inl_obs::counter_add!("depend.levels_pruned", 1);
            continue;
        }
        let mut sys = base_sys.clone();
        for q in 0..level {
            sys.add_eq(delta(q, 0));
        }
        if level < ncommon {
            sys.add_ge(delta(level, -1));
        }
        let feas = is_empty(&sys);
        if feas == Feasibility::Empty {
            inl_obs::counter_add!("depend.levels_pruned", 1);
            continue;
        }
        inl_obs::counter_add!("depend.polyhedra_retained", 1);
        // abstract each instance-vector difference position
        let mut dep = Dependence {
            src,
            dst,
            kind,
            level,
            entries: Vec::with_capacity(layout.len()),
            system: sys,
            src_loops: src_loops.clone(),
            dst_loops: dst_loops.clone(),
            certain: feas == Feasibility::NonEmpty,
        };
        for i in 0..layout.len() {
            let expr = dep.checked_delta_expr(layout, nparams, i)?;
            let read_off = constant_entry(&expr, feas).or_else(|| {
                let v = fixed_value(&dep.system, &expr).filter(|_| dep.certain)?;
                Some(DepEntry::dist(v))
            });
            let entry = match read_off {
                Some(e) => e,
                None => {
                    let (lo, hi) = expr_bounds(&dep.system, &expr)?;
                    DepEntry { lo, hi }
                }
            };
            dep.entries.push(entry);
        }
        out.push(dep);
    }
    Ok(out)
}

/// The value an equality of `sys` fixes `expr` to: `expr` (or `−expr`)
/// minus an equality row `r = 0` is a constant. Over a polyhedron with a
/// proven integer point that value is the entry [`expr_bounds`] projects,
/// read off as [`constant_entry`] reads a constant Δ; `None` when no row
/// qualifies or the value leaves `Int`.
fn fixed_value(sys: &System, expr: &LinExpr) -> Option<Int> {
    let c = expr.constant_term();
    sys.eqs().iter().find_map(|r| {
        let negated = || {
            let mut pairs = r.coeffs().iter().zip(expr.coeffs());
            pairs.all(|(&a, &b)| b.checked_neg() == Some(a))
        };
        if r.coeffs() == expr.coeffs() {
            c.checked_sub(r.constant_term())
        } else if negated() {
            c.checked_add(r.constant_term())
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    fn stmt(p: &Program, name: &str) -> StmtId {
        p.stmts().find(|&s| p.stmt_decl(s).name == name).unwrap()
    }

    #[test]
    fn paper_section3_matrix() {
        // The paper's §3 dependence matrix for the simplified Cholesky:
        //   [0  1  0]
        //   [1 -1  0]
        //   [-1 1  0]
        //   [+  0  1]
        // columns: three dependences (order may differ in our analysis).
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let dm = analyze(&p, &layout).expect("analysis");
        let col = |a: DepEntry, b: DepEntry, c: DepEntry, d: DepEntry| vec![a, b, c, d];
        use DepEntry as E;
        // flow S1 -> S2 through A(I): [0, 1, -1, +] — exactly the paper's
        // first column.
        assert!(
            dm.has_column(&col(E::dist(0), E::dist(1), E::dist(-1), E::plus())),
            "missing flow column; got\n{}",
            dm.display()
        );
        // paper column 2 is [1, -1, 1, 0] (S2 -> S1): the paper reports the
        // *value-based* distance 1 (only the last write of A(J) reaches the
        // read); our memory-based analysis soundly reports the subsuming
        // direction [+, -1, 1, 0].
        assert!(
            dm.has_column(&col(E::plus(), E::dist(-1), E::dist(1), E::dist(0))),
            "missing column subsuming [1,-1,1,0]; got\n{}",
            dm.display()
        );
        // paper column 3 abstracts the S2 self dependences; our analysis
        // must find an S2 self dependence carried by the I loop with the
        // same J (the A(J) write-to-write/read chain):
        assert!(
            dm.deps.iter().any(|d| d.src == d.dst
                && p.stmt_decl(d.src).name == "S2"
                && d.entries[0].is_positive()
                && d.entries[3].is_zero()),
            "missing S2 self dependence; got\n{}",
            dm.display()
        );
    }

    #[test]
    fn flow_dep_is_certain_and_carries_system() {
        let p = zoo::simple_cholesky();
        let layout = InstanceLayout::new(&p);
        let dm = analyze(&p, &layout).expect("analysis");
        let s1 = stmt(&p, "S1");
        let s2 = stmt(&p, "S2");
        let flow = dm
            .deps
            .iter()
            .find(|d| d.src == s1 && d.dst == s2 && d.kind == DepKind::Flow)
            .expect("flow dep exists");
        assert!(flow.certain);
        // its polyhedron contains (N=4, Iw=2, Ir=2, Jr=3)
        assert!(flow.system.contains(&[4, 2, 2, 3]));
        assert!(!flow.system.contains(&[4, 2, 3, 4])); // different location
    }

    #[test]
    fn no_dependence_between_disjoint_arrays() {
        let p = zoo::independent_pair();
        let layout = InstanceLayout::new(&p);
        let dm = analyze(&p, &layout).expect("analysis");
        // X and Y never conflict; each statement writes disjoint cells
        // (val(I) to X(I)): the only candidate is an output self-dep on the
        // same cell, infeasible at distinct iterations.
        assert!(
            dm.deps.is_empty(),
            "independent statements should have no deps; got\n{}",
            dm.display()
        );
    }

    #[test]
    fn wavefront_has_unit_distances() {
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let dm = analyze(&p, &layout).expect("analysis");
        // flow deps (1,0) and (0,1)
        use DepEntry as E;
        assert!(dm.has_column(&[E::dist(1), E::dist(0)]), "{}", dm.display());
        assert!(dm.has_column(&[E::dist(0), E::dist(1)]), "{}", dm.display());
        // no negative-distance columns (all deps lexicographically positive)
        for d in dm.deps.iter() {
            assert!(
                d.entries[0].is_positive() || d.entries[0].is_zero(),
                "dep not lexicographically positive: {}",
                dm.display()
            );
        }
    }

    #[test]
    fn cholesky_kij_has_paper_columns() {
        // §6's published 7-row dependence matrix contains (among others)
        // the column [0 0 + 1 / 0 1 0 -1 / ...]ᵀ — spot-check two.
        let p = zoo::cholesky_kij();
        let layout = InstanceLayout::new(&p);
        let dm = analyze(&p, &layout).expect("analysis");
        assert!(!dm.deps.is_empty());
        // every dependence is lexicographically non-negative as an
        // instance-vector difference (execution order!)
        for d in dm.deps.iter() {
            let first_nonzero = d.entries.iter().find(|e| !e.is_zero());
            if let Some(e) = first_nonzero {
                assert!(
                    e.lo.is_some_and(|l| l >= 0),
                    "dependence difference not lex-positive:\n{}",
                    dm.display()
                );
            }
        }
        // S1 -> S2 flow via A[k][k] at the same k
        let s1 = stmt(&p, "S1");
        let s2 = stmt(&p, "S2");
        assert!(dm
            .deps
            .iter()
            .any(|d| d.src == s1 && d.dst == s2 && d.kind == DepKind::Flow));
    }

    #[test]
    fn a_jam_analyses_only_the_statement_pairs_it_joins() {
        // jam(I+J) of cholesky_kij gives S2 and S3 a second common loop,
        // jam(I+I2) of lu_kij its two inner statements: those two pairs are
        // analysed, every other pair keeps its parent's columns
        use crate::recipe::{Shape, Step};
        for (p, first, second, kept) in [
            (zoo::cholesky_kij(), "I", "J", 7),
            (zoo::lu_kij(), "I", "I2", 2),
        ] {
            let source = Shape::source(p).expect("analysis");
            let (first, second) = (first.into(), second.into());
            let jam = Step::Jam { first, second };
            let shape = source.apply(&jam).expect("applies").expect("legal");
            let parent = (&source.program, &source.layout, &source.deps);
            let (mut carried_pairs, mut analysed) = (0, 0);
            for src in shape.program.stmts() {
                for dst in shape.program.stmts() {
                    match carried(parent, &shape.program, &shape.layout, src, dst) {
                        Ok(Some(_)) => carried_pairs += 1,
                        Ok(None) => analysed += 1,
                        Err(e) => panic!("{jam}: {e}"),
                    }
                }
            }
            assert_eq!((carried_pairs, analysed), (kept, 2), "{jam}");
        }
    }

    #[test]
    fn levels_partition_precedence() {
        // in the wavefront nest, the (1,0) dep is carried at level 0 and
        // the (0,1) dep at level 1
        let p = zoo::wavefront();
        let layout = InstanceLayout::new(&p);
        let dm = analyze(&p, &layout).expect("analysis");
        let d10 = dm
            .deps
            .iter()
            .find(|d| d.entries[0] == DepEntry::dist(1))
            .unwrap();
        assert_eq!(d10.level, 0);
        let d01 = dm
            .deps
            .iter()
            .find(|d| d.entries[0] == DepEntry::dist(0) && d.entries[1] == DepEntry::dist(1))
            .unwrap();
        assert_eq!(d01.level, 1);
    }
}
