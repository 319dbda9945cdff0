//! Difference systems answered by shortest paths instead of elimination.
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
//! for why. [`is_empty`] and [`expr_bounds`] answer `None` for anything
//! else, and the caller takes the elimination path:
//!
//! * a row with a coefficient other than ±1, or with three variables, or
//!   two of the same sign;
//! * a constant outside `±2^40` ([`MAX_CONST`]), so no distance nears the
//!   end of `i64` (at most 17 passes over at most [`MAX_INEQS`] edges) and
//!   no elimination on the system can overflow;
//! * a system so large that elimination could exceed its inequality
//!   budget ([`within_budget`]), where its answer is a failure, not a
//!   verdict;
//! * for bounds, an infeasible system, whose contradictory interval is
//!   elimination's to shape.

use crate::fm::{Feasibility, MAX_INEQS};
use crate::{LinExpr, System};
use inl_linalg::Int;

/// The largest constant magnitude a row or an entry may carry.
const MAX_CONST: Int = 1 << 40;

/// A difference system's constraint graph.
struct Graph {
    /// Node 0 and one node per variable the system mentions.
    nodes: usize,
    /// `(p, q, k)`: `x_q ≤ x_p + k`.
    edges: Vec<(usize, usize, i64)>,
}

/// The row `e` as `x_p − x_q + k`, node 0 standing in for an absent
/// variable; `None` when it is not a difference row or `k` is out of range.
fn ends(e: &LinExpr) -> Option<(usize, usize, i64)> {
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
        .then_some((p, q, k as i64))
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

impl Graph {
    /// The graph of `sys` and the nodes of `entry` in it, or `None` when
    /// `sys` is not a difference system within the guards. Only the
    /// variables the rows or the entry mention become nodes, so the budget
    /// counts them and no pass runs over an absent one.
    fn of(sys: &System, entry: [usize; 2]) -> Option<(Graph, [usize; 2])> {
        if sys.is_trivially_empty() {
            return None;
        }
        let mut index = vec![None; sys.nvars() + 1];
        index[0] = Some(0);
        let mut nodes = 1;
        let mut node = |n: usize| {
            *index[n].get_or_insert_with(|| {
                nodes += 1;
                nodes - 1
            })
        };
        let mut edges = Vec::with_capacity(sys.ineqs().len() + 2 * sys.eqs().len());
        for e in sys.ineqs() {
            let (p, q, k) = ends(e)?;
            edges.push((node(p), node(q), k));
        }
        for e in sys.eqs() {
            let (p, q, k) = ends(e)?;
            let (p, q) = (node(p), node(q));
            edges.extend([(p, q, k), (q, p, -k)]);
        }
        let entry = entry.map(node);
        let fits = edges.len() <= MAX_INEQS && within_budget(sys.ineqs().len(), nodes - 1);
        fits.then_some((Graph { nodes, edges }, entry))
    }

    /// Bellman–Ford from a virtual source at distance 0 from every node:
    /// shortest paths have at most `nodes − 1` edges, so a change in pass
    /// `nodes` is a negative cycle. Stops at the first quiet pass.
    fn has_negative_cycle(&self) -> bool {
        let mut d = vec![0i64; self.nodes];
        for _ in 0..self.nodes {
            let mut changed = false;
            for &(p, q, k) in &self.edges {
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
            for &(p, q, k) in &self.edges {
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
    let (p, q, c) = ends(expr)?;
    let (g, [p, q]) = Graph::of(sys, [p, q])?;
    if g.has_negative_cycle() {
        return None;
    }
    let lo = g.distances(p)[q].map(|d| Int::from(c - d));
    let hi = g.distances(q)[p].map(|d| Int::from(c + d));
    answered((lo, hi))
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
