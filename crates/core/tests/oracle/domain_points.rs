//! The point oracle for `Program::append_domain`: the integer points of a
//! statement's domain, found from its constraint system alone, are the
//! iteration vectors the interpreter records for that statement.
//!
//! Shared by `inl-core`'s zoo test and `inl-fuzz`'s property, which
//! include this file by path.

use inl_exec::run_traced;
use inl_ir::{LoopId, Program, StmtId};
use inl_linalg::Int;
use inl_poly::{expr_bounds, is_empty, Feasibility, LinExpr, System};

/// Fix the variables from `first` on to `values`.
fn fix(sys: &mut System, first: usize, values: &[Int]) {
    let n = sys.nvars();
    for (k, &v) in values.iter().enumerate() {
        sys.add_eq(LinExpr::var(n, first + k) - LinExpr::constant(n, v));
    }
}

/// The integer points of `s`'s domain at `params` — the values of its
/// surrounding loops, outside-in — in lexicographic order. Each point of
/// the box the system's projections bound is tested with the parameters
/// and loop variables fixed, so `is_empty` decides only the existential
/// variables of steps and `Div` guards.
pub fn domain_points(p: &Program, s: StmtId, params: &[Int]) -> Result<Vec<Vec<Int>>, String> {
    let loops = p.loops_surrounding(s);
    let np = p.nparams();
    let slot = |l: LoopId| Some(np + loops.iter().position(|&x| x == l)?);
    let mut sys = p
        .assumption_system(np + loops.len())
        .map_err(|e| e.to_string())?;
    p.append_domain(s, &p.stmt_decl(s).guards, &mut sys, &slot)
        .map_err(|e| e.to_string())?;
    fix(&mut sys, 0, params);
    if is_empty(&sys) == Feasibility::Empty {
        return Ok(Vec::new());
    }
    let mut range = Vec::new();
    for k in 0..loops.len() {
        let var = LinExpr::var(sys.nvars(), np + k);
        match expr_bounds(&sys, &var).map_err(|e| e.to_string())? {
            (Some(lo), Some(hi)) => range.push((lo, hi)),
            _ => return Err(format!("loop {k} of {} is unbounded", p.stmt_decl(s).name)),
        }
    }
    let mut points = Vec::new();
    let mut point: Vec<Int> = range.iter().map(|r| r.0).collect();
    loop {
        let mut at = sys.clone();
        fix(&mut at, np, &point);
        match is_empty(&at) {
            Feasibility::NonEmpty => points.push(point.clone()),
            Feasibility::Empty => {}
            Feasibility::Unknown => return Err(format!("{point:?} is undecided")),
        }
        // the next point of the box, last loop fastest
        let Some(k) = (0..point.len()).rev().find(|&k| point[k] < range[k].1) else {
            return Ok(points);
        };
        point[k] += 1;
        for (v, r) in point[k + 1..].iter_mut().zip(&range[k + 1..]) {
            *v = r.0;
        }
    }
}

/// Hold the oracle on every statement of `p` at `params`; the number of
/// points checked.
pub fn check_domains(p: &Program, params: &[Int]) -> Result<usize, String> {
    let (_, trace) = run_traced(p, params, &|_, _| 0.0);
    let mut checked = 0;
    for s in p.stmts() {
        let mut traced: Vec<Vec<Int>> = trace
            .instances
            .iter()
            .filter(|r| r.stmt == s)
            .map(|r| r.iter.clone())
            .collect();
        traced.sort();
        let points = domain_points(p, s, params)?;
        if points != traced {
            return Err(format!(
                "{} {} at {params:?}: domain {points:?}, interpreter {traced:?}",
                p.name(),
                p.stmt_decl(s).name
            ));
        }
        checked += points.len();
    }
    Ok(checked)
}
