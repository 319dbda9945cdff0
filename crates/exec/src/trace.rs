//! Execution traces: the dynamic-instance sequence of a run.
//!
//! A trace is the list of executed statement instances in order, which is
//! exactly the sequence of dynamic instances of §2 of the paper. Traces let
//! tests check the *order-theoretic* claims directly: Theorem 1 (execution
//! order = lexicographic order on instance vectors) and Theorem 2 (legal
//! transformations preserve dependence order).

use crate::interp::Interpreter;
use crate::machine::Machine;
use inl_ir::{LoopId, Program, StmtId};
use inl_linalg::Int;

/// One executed statement instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceRecord {
    /// The statement.
    pub stmt: StmtId,
    /// Values of the surrounding loops, outside-in.
    pub iter: Vec<Int>,
}

/// A full execution trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Executed instances, in execution order.
    pub instances: Vec<InstanceRecord>,
}

impl Trace {
    /// Number of executed instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True iff nothing executed.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Count instances of one statement.
    pub fn count_stmt(&self, s: StmtId) -> usize {
        self.instances.iter().filter(|r| r.stmt == s).count()
    }

    /// Aggregate the trace: per-statement instance counts plus a loop-depth
    /// histogram. The `observability` example prints it beside the
    /// pipeline report.
    pub fn summary(&self, p: &Program) -> TraceSummary {
        let mut per_stmt: Vec<(String, usize)> = Vec::new();
        let mut depth_histogram: Vec<usize> = Vec::new();
        for r in &self.instances {
            let name = &p.stmt_decl(r.stmt).name;
            match per_stmt.iter_mut().find(|(n, _)| n == name) {
                Some((_, c)) => *c += 1,
                None => per_stmt.push((name.clone(), 1)),
            }
            let depth = r.iter.len();
            if depth_histogram.len() <= depth {
                depth_histogram.resize(depth + 1, 0);
            }
            depth_histogram[depth] += 1;
        }
        per_stmt.sort();
        TraceSummary {
            total: self.instances.len(),
            per_stmt,
            depth_histogram,
        }
    }

    /// The multiset of instances (sorted), for comparing coverage between
    /// a program and its transformation (same instances, different order).
    pub fn sorted_multiset(&self, p: &Program) -> Vec<(String, Vec<Int>)> {
        let mut v: Vec<(String, Vec<Int>)> = self
            .instances
            .iter()
            .map(|r| (p.stmt_decl(r.stmt).name.clone(), r.iter.clone()))
            .collect();
        v.sort();
        v
    }
}

/// Aggregated view of a [`Trace`]; see [`Trace::summary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total executed instances.
    pub total: usize,
    /// `(statement name, instance count)`, sorted by name.
    pub per_stmt: Vec<(String, usize)>,
    /// `depth_histogram[d]` = instances executed under exactly `d`
    /// surrounding loops.
    pub depth_histogram: Vec<usize>,
}

impl TraceSummary {
    /// Convert to JSON.
    pub fn to_json(&self) -> inl_obs::Json {
        use inl_obs::Json;
        let mut obj = Json::object();
        obj.insert("instances", Json::Int(self.total as u64));
        let mut stmts = Json::object();
        for (name, c) in &self.per_stmt {
            stmts.insert(name.clone(), Json::Int(*c as u64));
        }
        obj.insert("per_stmt", stmts);
        obj.insert(
            "depth_histogram",
            Json::Array(
                self.depth_histogram
                    .iter()
                    .map(|&c| Json::Int(c as u64))
                    .collect(),
            ),
        );
        obj
    }
}

/// Run a program, recording the trace alongside the final machine state.
pub fn run_traced(
    p: &Program,
    params: &[Int],
    init: &dyn Fn(&str, &[usize]) -> f64,
) -> (Machine, Trace) {
    let mut machine = Machine::new(p, params, init);
    let trace = std::cell::RefCell::new(Trace::default());
    let surrounding: Vec<Vec<LoopId>> = p.stmts().map(|s| p.loops_surrounding(s)).collect();
    {
        let mut interp = Interpreter::new(p);
        interp.on_instance = Some(Box::new(|s, env| {
            let iter: Vec<Int> = surrounding[s.0]
                .iter()
                .map(|l| env[l.0].expect("surrounding loop bound"))
                .collect();
            trace
                .borrow_mut()
                .instances
                .push(InstanceRecord { stmt: s, iter });
        }));
        interp.run(&mut machine);
    }
    (machine, trace.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    #[test]
    fn trace_counts_match_loop_bounds() {
        let p = zoo::simple_cholesky();
        let (_, t) = run_traced(&p, &[5], &|_, _| 4.0);
        let stmts: Vec<_> = p.stmts().collect();
        assert_eq!(t.count_stmt(stmts[0]), 5); // S1 per outer iteration
        assert_eq!(t.count_stmt(stmts[1]), 4 + 3 + 2 + 1); // triangular S2
    }

    #[test]
    fn trace_order_is_lexicographic_on_instance_vectors() {
        // Theorem 1, now validated against a real execution
        use inl_core::instance::InstanceLayout;
        let p = zoo::running_example();
        let layout = InstanceLayout::new(&p);
        let (_, t) = run_traced(&p, &[4], &|_, _| 0.0);
        let vectors: Vec<_> = t
            .instances
            .iter()
            .map(|r| layout.instance_vector(r.stmt, &r.iter))
            .collect();
        for w in vectors.windows(2) {
            assert_eq!(
                inl_linalg::lex::lex_cmp(&w[0], &w[1]),
                std::cmp::Ordering::Less,
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn summary_counts_stmts_and_depths() {
        // simple_cholesky at N=5: S1 runs once per outer iteration (depth
        // 1), S2 triangularly under both loops (depth 2).
        let p = zoo::simple_cholesky();
        let (_, t) = run_traced(&p, &[5], &|_, _| 4.0);
        let s = t.summary(&p);
        assert_eq!(s.total, 15);
        assert_eq!(
            s.per_stmt,
            vec![("S1".to_string(), 5), ("S2".to_string(), 10)]
        );
        assert_eq!(s.depth_histogram, vec![0, 5, 10]);
        let json = s.to_json();
        assert_eq!(
            json.get("instances").and_then(inl_obs::Json::as_u64),
            Some(15)
        );
    }

    #[test]
    fn multiset_comparison() {
        let p = zoo::simple_cholesky();
        let (_, t1) = run_traced(&p, &[4], &|_, _| 4.0);
        let (_, t2) = run_traced(&p, &[4], &|_, _| 9.0);
        assert_eq!(t1.sorted_multiset(&p), t2.sorted_multiset(&p));
        assert!(!t1.is_empty());
        assert_eq!(t1.len(), 4 + 6);
    }
}
