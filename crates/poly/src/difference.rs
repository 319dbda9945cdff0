//! Difference systems answered by shortest paths or on compact rows
//! instead of by elimination over heap rows.
//!
//! A *difference system* is one whose every row is `±x + k` or
//! `x − y + k`. Read it as a constraint graph: node 0 is the constant,
//! node `i + 1` is variable `i`, and a row `x_p − x_q + k ≥ 0`, which says
//! `x_q ≤ x_p + k`, is the edge `p → q` of weight `k` (an equality gives
//! both edges). Then
//!
//! * the system is feasible iff the graph has no negative cycle
//!   (Bellman–Ford from a virtual source joined to every node), and
//! * over a feasible system `x_p − x_q` ranges over exactly
//!   `[−d(p→q), d(q→p)]`, `d` the shortest-path distance; a side with no
//!   path is unbounded.
//!
//! Both answers are integral (integer weights, and a potential is a path
//! sum), and they are the ones [`crate::fm`] computes: see its module docs
//! for why. Three entries take such systems:
//!
//! * [`crate::fm::is_empty`] and [`crate::fm::expr_bounds`] read one answer
//!   per query, before canonicalization and the cache;
//! * a [`Closure`] is one Floyd–Warshall pass whose distances answer the
//!   range of any number of difference rows (code generation's guard
//!   implications);
//! * [`crate::bounds::project_scan`] reads no shortest path: a loop scan's
//!   bound terms depend on the elimination path, so it runs elimination's
//!   own steps — canonicalization, variable choice, substitution,
//!   combination, pruning and the scan's read-off — on `(p, q, k)` rows
//!   with `i64` constants, and returns the terms
//!   [`crate::bounds::scan_bounds`] of [`crate::fm::project`] returns, in
//!   their order.
//!
//! Each answers `None` for anything else, and the caller takes the
//! elimination path:
//!
//! * a row with a coefficient other than ±1, or with three variables, or
//!   two of the same sign;
//! * a constant outside `±2^40` (`MAX_CONST`), so no distance nears the
//!   end of `i64` (at most 17 passes over at most `MAX_INEQS` edges) and
//!   no elimination on the system can overflow (the row steps check their
//!   sums all the same);
//! * a system so large that elimination could exceed its inequality
//!   budget (`within_budget`), where its answer is a failure, not a
//!   verdict — which also caps a row system at 16 variables;
//! * for bounds, an infeasible system, whose contradictory interval is
//!   elimination's to shape.

use crate::bounds::{BoundTerm, VarBounds};
use crate::fm::{Feasibility, MAX_INEQS};
use crate::{LinExpr, System};
use inl_linalg::Int;
use std::cmp::Ordering;

/// The largest constant magnitude a row or an entry may carry.
const MAX_CONST: Int = 1 << 40;

/// The most variables a system within [`within_budget`] can have.
const MAX_VARS: usize = 16;

/// The difference row `x_p − x_q + k` over nodes: 0 is the constant, `i +
/// 1` is variable `i`. A constant row is `(0, 0, k)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    p: usize,
    q: usize,
    k: i64,
}

impl Row {
    /// `x_p − x_q + k`, with the two variables cancelling when `p == q`.
    fn new(p: usize, q: usize, k: i64) -> Row {
        match p == q {
            true => Row { p: 0, q: 0, k },
            false => Row { p, q, k },
        }
    }

    /// The row `e`; `None` when it is not a difference row or `k` is out
    /// of range.
    fn of(e: &LinExpr) -> Option<Row> {
        let (mut p, mut q) = (0, 0);
        for (i, &c) in e.coeffs().iter().enumerate() {
            match c {
                0 => {}
                1 if p == 0 => p = i + 1,
                -1 if q == 0 => q = i + 1,
                _ => return None,
            }
        }
        let k = e.constant_term();
        (-MAX_CONST..=MAX_CONST)
            .contains(&k)
            .then_some(Row { p, q, k: k as i64 })
    }

    fn neg(self) -> Option<Row> {
        Some(Row::new(self.q, self.p, self.k.checked_neg()?))
    }

    fn is_constant(self) -> bool {
        self.p == self.q
    }

    fn mentions(self, x: usize) -> bool {
        self.p == x || self.q == x
    }

    /// `x := x_y + d` in this row.
    fn substitute(self, x: usize, y: usize, d: i64) -> Option<Row> {
        Some(match (self.p == x, self.q == x) {
            (true, _) => Row::new(y, self.q, self.k.checked_add(d)?),
            (_, true) => Row::new(self.p, y, self.k.checked_sub(d)?),
            _ => self,
        })
    }

    /// The dense coefficient vector: rows compare as
    /// [`System::canonicalized`] compares them, coefficients first.
    fn coeffs(self) -> [i8; MAX_VARS] {
        let mut c = [0; MAX_VARS];
        if self.p > 0 {
            c[self.p - 1] = 1;
        }
        if self.q > 0 {
            c[self.q - 1] = -1;
        }
        c
    }

    fn cmp(&self, other: &Row) -> Ordering {
        let key = |r: &Row| (r.coeffs(), r.k);
        key(self).cmp(&key(other))
    }

    /// `x_node + c` over `n` variables.
    fn expr(node: usize, c: i64, n: usize) -> LinExpr {
        let mut e = LinExpr::constant(n, Int::from(c));
        if node > 0 {
            e.set_coeff(node - 1, 1);
        }
        e
    }
}

/// True iff Fourier–Motzkin on a difference system with `ineqs`
/// inequalities over `vars` variables stays within [`MAX_INEQS`].
///
/// Every row elimination produces is a path sum `x_p − x_q + k`, also on
/// the system [`crate::fm::expr_bounds`] extends by `t = x_p' − x_q' + c`
/// (substituting that equality maps path sums to path sums). After a step
/// prunes dominated rows, one row is left per direction, and there are
/// `vars·(vars + 1)` of them; a substitution never adds rows. So no step
/// starts from more than `m = max(ineqs, vars·(vars + 1))` rows, and its
/// output holds at most `m + m²/4` before pruning.
fn within_budget(ineqs: usize, vars: usize) -> bool {
    let m = ineqs.max(vars * (vars + 1));
    m + m * m / 4 <= MAX_INEQS
}

/// A difference system's constraint graph.
struct Graph {
    /// Node 0 and one node per variable the system mentions.
    nodes: usize,
    /// `(p, q, k)`: `x_q ≤ x_p + k`.
    edges: Vec<Row>,
    /// The graph's node of each system node, when it has one.
    index: Vec<Option<usize>>,
    /// How many inequalities the system has.
    ineqs: usize,
}

impl Graph {
    /// The graph of `sys` and the nodes of `entry` in it, or `None` when
    /// `sys` is not a difference system within the guards. Only the
    /// variables the rows or the entry mention become nodes, so the budget
    /// counts them and no pass runs over an absent one.
    fn of(sys: &System, entry: [usize; 2]) -> Option<(Graph, [usize; 2])> {
        if sys.is_trivially_empty() {
            return None;
        }
        let (ineqs, eqs) = (sys.ineqs(), sys.eqs());
        let mut index = vec![None; sys.nvars() + 1];
        index[0] = Some(0);
        let mut nodes = 1;
        let mut node = |n: usize| {
            *index[n].get_or_insert_with(|| {
                nodes += 1;
                nodes - 1
            })
        };
        let mut edges = Vec::with_capacity(ineqs.len() + 2 * eqs.len());
        for e in ineqs {
            let r = Row::of(e)?;
            edges.push(Row::new(node(r.p), node(r.q), r.k));
        }
        for e in eqs {
            let r = Row::of(e)?;
            let (p, q) = (node(r.p), node(r.q));
            edges.extend([Row::new(p, q, r.k), Row::new(q, p, -r.k)]);
        }
        let entry = entry.map(node);
        let fits = edges.len() <= MAX_INEQS && within_budget(ineqs.len(), nodes - 1);
        let g = Graph {
            nodes,
            edges,
            index,
            ineqs: ineqs.len(),
        };
        fits.then_some((g, entry))
    }

    /// Bellman–Ford from a virtual source at distance 0 from every node:
    /// shortest paths have at most `nodes − 1` edges, so a change in pass
    /// `nodes` is a negative cycle. Stops at the first quiet pass.
    fn has_negative_cycle(&self) -> bool {
        let mut d = vec![0i64; self.nodes];
        for _ in 0..self.nodes {
            let mut changed = false;
            for &Row { p, q, k } in &self.edges {
                if d[p] + k < d[q] {
                    d[q] = d[p] + k;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
        }
        true
    }

    /// Shortest-path distances from `s` (`None`: unreachable), on a graph
    /// without a negative cycle.
    fn distances(&self, s: usize) -> Vec<Option<i64>> {
        let mut d = vec![None; self.nodes];
        d[s] = Some(0);
        for _ in 1..self.nodes {
            let mut changed = false;
            for &Row { p, q, k } in &self.edges {
                if let Some(dp) = d[p] {
                    if d[q].is_none_or(|dq| dp + k < dq) {
                        d[q] = Some(dp + k);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        d
    }
}

/// Counts one query this path answered.
fn answered<T>(answer: T) -> Option<T> {
    inl_obs::counter_add!("poly.difference.answers", 1);
    Some(answer)
}

/// The integer feasibility of a difference system; `None` for any other.
pub(crate) fn is_empty(sys: &System) -> Option<Feasibility> {
    let (g, _) = Graph::of(sys, [0, 0])?;
    answered(match g.has_negative_cycle() {
        true => Feasibility::Empty,
        false => Feasibility::NonEmpty,
    })
}

/// The bounds of a difference entry `x_p − x_q + c` over a feasible
/// difference system; `None` for any other query.
pub(crate) fn expr_bounds(sys: &System, expr: &LinExpr) -> Option<(Option<Int>, Option<Int>)> {
    let Row { p, q, k: c } = Row::of(expr)?;
    let (g, [p, q]) = Graph::of(sys, [p, q])?;
    if g.has_negative_cycle() {
        return None;
    }
    let lo = g.distances(p)[q].map(|d| Int::from(c - d));
    let hi = g.distances(q)[p].map(|d| Int::from(c + d));
    answered((lo, hi))
}

/// All-pairs shortest paths of one difference system: the range of every
/// difference row over it, read without a query per row.
///
/// Its verdicts are the ones [`crate::is_empty`] gives on the system with
/// the row's negation added (`min a ≥ 0` iff `a < 0` is infeasible there),
/// and it takes only systems on which that query would itself be answered
/// by shortest paths, one row and two variables more included.
pub struct Closure {
    index: Vec<Option<usize>>,
    nodes: usize,
    /// `d[p·nodes + q]`, the distance `p → q` (`None`: no path).
    d: Vec<Option<i64>>,
    /// The system has no integer point (a negative cycle).
    empty: bool,
}

impl Closure {
    /// The closure of `sys` by Floyd–Warshall; `None` when `sys` is not a
    /// difference system within the guards (module docs).
    pub fn of(sys: &System) -> Option<Closure> {
        let (g, _) = Graph::of(sys, [0, 0])?;
        if g.edges.len() >= MAX_INEQS || !within_budget(g.ineqs + 1, g.nodes + 1) {
            return None;
        }
        let n = g.nodes;
        let mut d = vec![None; n * n];
        for i in 0..n {
            d[i * n + i] = Some(0);
        }
        for &Row { p, q, k } in &g.edges {
            let e = &mut d[p * n + q];
            *e = Some(e.map_or(k, |x: i64| x.min(k)));
        }
        let mut empty = false;
        for m in 0..n {
            for i in 0..n {
                let Some(dim) = d[i * n + m] else { continue };
                for j in 0..n {
                    let Some(dmj) = d[m * n + j] else { continue };
                    let s = dim.checked_add(dmj)?;
                    if d[i * n + j].is_none_or(|x| s < x) {
                        d[i * n + j] = Some(s);
                    }
                }
            }
            // A negative cycle shows on the diagonal as soon as its
            // highest node is pivoted; stopping there keeps every sum a
            // path sum, far from the end of `i64`.
            empty = (0..n).any(|i| d[i * n + i] < Some(0));
            if empty {
                break;
            }
        }
        Some(Closure {
            index: g.index,
            nodes: n,
            d,
            empty,
        })
    }

    /// True iff `a ≥ 0` holds at every integer point of the system (and
    /// `a ≤ 0` too, when `eq`): an empty system implies everything, and
    /// otherwise `a = x_p − x_q + c` ranges over `[c − d(p→q), c +
    /// d(q→p)]`. `None` when `a` is not a difference row over the
    /// system's variables.
    pub fn implies(&self, a: &LinExpr, eq: bool) -> Option<bool> {
        let Row { p, q, k: c } = Row::of(a)?;
        let (p, q) = (*self.index.get(p)?, *self.index.get(q)?);
        if self.empty {
            return answered(true);
        }
        let dist = |from: Option<usize>, to: Option<usize>| self.d[from? * self.nodes + to?];
        let lo = dist(p, q).map(|d| Int::from(c) - Int::from(d));
        let hi = dist(q, p).map(|d| Int::from(c) + Int::from(d));
        let ge = lo.is_some_and(|lo| lo >= 0);
        answered(ge && (!eq || hi.is_some_and(|hi| hi <= 0)))
    }
}

/// A difference system as [`System`] holds it: equalities and
/// inequalities in insertion order, and the flag of a row that reduced to
/// `false`. Each step below is the [`System`] or [`crate::fm`] step of the
/// same name, specialised to rows whose coefficients are ±1; a sum that
/// leaves `i64` is `None`.
#[derive(Clone, Default)]
struct Rows {
    eqs: Vec<Row>,
    ineqs: Vec<Row>,
    empty: bool,
}

impl Rows {
    fn add_eq(&mut self, r: Row) {
        if r.is_constant() {
            self.empty |= r.k != 0;
        } else if !self.eqs.contains(&r) {
            self.eqs.push(r);
        }
    }

    fn add_ge(&mut self, r: Row) {
        if r.is_constant() {
            self.empty |= r.k < 0;
        } else if !self.ineqs.contains(&r) {
            self.ineqs.push(r);
        }
    }

    fn prune_dominated(&mut self) {
        let mut keep: Vec<Row> = Vec::with_capacity(self.ineqs.len());
        'outer: for e in std::mem::take(&mut self.ineqs) {
            for k in keep.iter_mut() {
                if (k.p, k.q) == (e.p, e.q) {
                    k.k = k.k.min(e.k);
                    continue 'outer;
                }
            }
            keep.push(e);
        }
        self.ineqs = keep;
    }

    /// Equalities sign-normalised (first coefficient positive), both lists
    /// sorted and deduplicated, the inequalities pruned first.
    fn canonicalized(&self) -> Option<Rows> {
        if self.empty {
            return Some(Rows {
                empty: true,
                ..Rows::default()
            });
        }
        let mut eqs = Vec::with_capacity(self.eqs.len());
        for &r in &self.eqs {
            let first_negative = r.q != 0 && (r.p == 0 || r.q < r.p);
            eqs.push(if first_negative { r.neg()? } else { r });
        }
        eqs.sort_by(Row::cmp);
        eqs.dedup();
        let mut out = Rows {
            eqs,
            ineqs: self.ineqs.clone(),
            empty: false,
        };
        out.prune_dominated();
        out.ineqs.sort_by(Row::cmp);
        out.ineqs.dedup();
        Some(out)
    }

    /// The next variable (as an index into `vars`) to eliminate: the first
    /// with an equality, or the fewest lower × upper products.
    fn pick_var(&self, vars: &[usize]) -> usize {
        let mut best = (usize::MAX, 0);
        for (idx, &v) in vars.iter().enumerate() {
            let x = v + 1;
            if self.eqs.iter().any(|r| r.mentions(x)) {
                return idx;
            }
            let lo = self.ineqs.iter().filter(|r| r.p == x).count();
            let hi = self.ineqs.iter().filter(|r| r.q == x).count();
            if lo * hi < best.0 {
                best = (lo * hi, idx);
            }
        }
        best.1
    }

    /// Eliminate node `x`: substitute the first equality on it, or combine
    /// every lower with every upper and prune. `None` past the budget.
    fn eliminate(&self, x: usize) -> Option<Rows> {
        let mut out = Rows::default();
        if self.empty {
            out.empty = true;
            return Some(out);
        }
        if let Some(eq) = self.eqs.iter().find(|r| r.mentions(x)) {
            // x_p − x_q + k = 0 gives x = x_q − k, or x = x_p + k
            let (y, d) = match eq.p == x {
                true => (eq.q, eq.k.checked_neg()?),
                false => (eq.p, eq.k),
            };
            for r in &self.eqs {
                out.add_eq(r.substitute(x, y, d)?);
            }
            for r in &self.ineqs {
                out.add_ge(r.substitute(x, y, d)?);
            }
            return Some(out);
        }
        for &r in &self.eqs {
            out.add_eq(r);
        }
        if !self.ineqs.iter().any(|r| r.mentions(x)) {
            for &r in &self.ineqs {
                out.add_ge(r);
            }
            return Some(out);
        }
        let (mut lowers, mut uppers) = (Vec::new(), Vec::new());
        for &r in &self.ineqs {
            if r.p == x {
                lowers.push(r);
            } else if r.q == x {
                uppers.push(r);
            } else if !self.eqs.iter().any(|&q| q == r || q.neg() == Some(r)) {
                out.add_ge(r);
            }
        }
        for l in &lowers {
            for u in &uppers {
                out.add_ge(Row::new(u.p, l.q, l.k.checked_add(u.k)?));
                if out.ineqs.len() > MAX_INEQS {
                    return None;
                }
            }
        }
        out.prune_dominated();
        Some(out)
    }
}

/// [`crate::bounds::scan_bounds`] of [`crate::fm::project`]`(sys, keep)`
/// over `order`, term for term and in order, run on rows; `None` when
/// `sys` is not a difference system within the guards (module docs).
pub(crate) fn project_scan(
    sys: &System,
    keep: &[usize],
    order: &[usize],
) -> Option<Vec<VarBounds>> {
    let n = sys.nvars();
    let fits = within_budget(sys.ineqs().len(), n) && order.iter().all(|&v| v < n);
    if sys.is_trivially_empty() || !fits {
        return None;
    }
    let rows = |es: &[LinExpr]| es.iter().map(Row::of).collect::<Option<Vec<Row>>>();
    let mut cur = Rows {
        eqs: rows(sys.eqs())?,
        ineqs: rows(sys.ineqs())?,
        empty: false,
    }
    .canonicalized()?;
    let mut vars: Vec<usize> = (0..n).filter(|v| !keep.contains(v)).collect();
    while !vars.is_empty() && !cur.empty {
        let v = vars.swap_remove(cur.pick_var(&vars));
        cur = cur.eliminate(v + 1)?;
    }
    // scan, innermost first: each row on `x` — the inequalities, then
    // each equality and its negation — gives a lower `x_q − k` (`x` its
    // `p`) or an upper `x_p + k` (`x` its `q`), duplicates dropped
    let mut terms: Vec<[Vec<(usize, i64)>; 2]> = vec![Default::default(); order.len()];
    for (level, &v) in order.iter().enumerate().rev() {
        let x = v + 1;
        let [lowers, uppers] = &mut terms[level];
        let mut read = |r: Row| -> Option<()> {
            let (side, term) = match (r.p == x, r.q == x) {
                (true, _) => (&mut *lowers, (r.q, r.k.checked_neg()?)),
                (_, true) => (&mut *uppers, (r.p, r.k)),
                _ => return Some(()),
            };
            if !side.contains(&term) {
                side.push(term);
            }
            Some(())
        };
        for &r in &cur.ineqs {
            read(r)?;
        }
        for &r in &cur.eqs {
            read(r)?;
            read(r.neg()?)?;
        }
        cur = cur.eliminate(x)?;
    }
    let bound = |&(node, c): &(usize, i64)| BoundTerm {
        expr: Row::expr(node, c, n),
        div: 1,
    };
    let bounds = terms.iter().map(|[lowers, uppers]| VarBounds {
        lowers: lowers.iter().map(bound).collect(),
        uppers: uppers.iter().map(bound).collect(),
    });
    answered(bounds.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: usize, i: usize) -> LinExpr {
        LinExpr::var(n, i)
    }
    fn k(n: usize, c: Int) -> LinExpr {
        LinExpr::constant(n, c)
    }

    fn ends(e: &LinExpr) -> Option<(usize, usize, i64)> {
        Row::of(e).map(|r| (r.p, r.q, r.k))
    }

    #[test]
    fn rows_read_as_edges() {
        let n = 3;
        assert_eq!(ends(&(v(n, 0) - v(n, 2) + k(n, 4))), Some((1, 3, 4)));
        assert_eq!(ends(&(k(n, 7) - v(n, 1))), Some((0, 2, 7)));
        assert_eq!(ends(&(v(n, 1) - k(n, 1))), Some((2, 0, -1)));
        assert_eq!(ends(&k(n, 5)), Some((0, 0, 5)));
        assert_eq!(ends(&(v(n, 0) + v(n, 1))), None);
        assert_eq!(ends(&(v(n, 0) * 2 - v(n, 1))), None);
        assert_eq!(ends(&(v(n, 0) - v(n, 1) - v(n, 2))), None);
        assert_eq!(ends(&(v(n, 0) + k(n, MAX_CONST))), Some((1, 0, 1 << 40)));
        assert_eq!(ends(&(v(n, 0) - k(n, MAX_CONST + 1))), None);
        assert_eq!(ends(&(v(n, 0) + k(n, Int::MIN))), None);
    }

    #[test]
    fn the_budget_bounds_the_size() {
        assert!(within_budget(10, 9));
        assert!(within_budget(272, 16));
        assert!(!within_budget(10, 17));
        assert!(!within_budget(300, 3));
    }
}
