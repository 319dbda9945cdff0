//! VM opcode profiles: per-instruction-address execution counts of one
//! run, and the tables derived from them.
//!
//! [`crate::run_profiled`] runs a program like [`crate::run()`] and returns
//! its [`Samples`]: a monomorphised copy of the dispatch loop adds one
//! unconditional array increment per instruction, the plain copy that
//! [`crate::run()`] and [`crate::exec_range`] use is untouched, and there is
//! no mode to switch and no store to read back — a profile is a value of
//! the run that made it, so two runs of one program on two threads get one
//! each.
//!
//! Because bytecode is static, per-pc counts are a complete profile:
//! opcode totals ([`opcode_totals`]), per-statement instance/instruction
//! counts ([`hot_statements`] — a statement's `Store` count *is* its
//! instance count), and per-loop-body iteration/instruction counts
//! ([`loop_profiles`]) are all derived views.

use crate::bytecode::{CompiledProgram, Opcode};
use crate::run::Executor;
use inl_ir::{LoopId, Program, StmtId};
use std::ops::Deref;

/// What profiling samples per instruction address. Dereferences to the
/// execution counts, the input of every derived view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Samples {
    /// Times each instruction executed.
    pub pcs: Vec<u64>,
    /// At a kernel loop's header: trips each trip executor ran, indexed by
    /// [`Executor`].
    pub trips: Vec<[u64; 2]>,
}

impl Samples {
    /// All-zero samples for a program of `ninstrs` instructions.
    pub fn zeroed(ninstrs: usize) -> Self {
        Samples {
            pcs: vec![0; ninstrs],
            trips: vec![[0; 2]; ninstrs],
        }
    }
}

impl Deref for Samples {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.pcs
    }
}

/// Total executions of one opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpcodeTotal {
    pub opcode: Opcode,
    /// Times any instruction of this opcode executed.
    pub executed: u64,
    /// Distinct instruction addresses of this opcode that executed.
    pub sites: u64,
}

/// Aggregate per-pc counts into per-opcode totals, hottest first
/// (zero-count opcodes omitted).
pub fn opcode_totals(cp: &CompiledProgram, counts: &[u64]) -> Vec<OpcodeTotal> {
    let mut executed = [0u64; Opcode::ALL.len()];
    let mut sites = [0u64; Opcode::ALL.len()];
    for (instr, &c) in cp.code.iter().zip(counts) {
        if c > 0 {
            let op = instr.opcode() as usize;
            executed[op] += c;
            sites[op] += 1;
        }
    }
    let mut out: Vec<OpcodeTotal> = Opcode::ALL
        .iter()
        .filter(|&&op| executed[op as usize] > 0)
        .map(|&op| OpcodeTotal {
            opcode: op,
            executed: executed[op as usize],
            sites: sites[op as usize],
        })
        .collect();
    out.sort_by(|a, b| b.executed.cmp(&a.executed).then(a.opcode.cmp(&b.opcode)));
    out
}

/// Execution profile of one statement's instruction range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StmtProfile {
    /// Statement label (from the source program when given, else `S<id>`).
    pub name: String,
    /// Instances executed (= the statement's `Store` count).
    pub instances: u64,
    /// Instructions executed inside the statement's range, including
    /// guards that rejected the instance.
    pub instrs: u64,
}

/// Per-statement execution counts, hottest (most instructions) first.
/// Statements that never executed are omitted.
pub fn hot_statements(
    cp: &CompiledProgram,
    p: Option<&Program>,
    counts: &[u64],
) -> Vec<StmtProfile> {
    let mut out = Vec::new();
    for (idx, range) in cp.stmts.iter().enumerate() {
        let Some((s, e)) = *range else { continue };
        let range = counts.get(s as usize..e as usize).unwrap_or(&[]);
        let instrs: u64 = range.iter().sum();
        if instrs == 0 {
            continue;
        }
        // The range ends with the statement's single Store.
        let instances = range.last().copied().unwrap_or(0);
        let name = match p {
            Some(p) => p.stmt_decl(StmtId(idx)).name.clone(),
            None => format!("S{idx}"),
        };
        out.push(StmtProfile {
            name,
            instances,
            instrs,
        });
    }
    out.sort_by(|a, b| b.instrs.cmp(&a.instrs).then(a.name.cmp(&b.name)));
    out
}

/// Execution profile of one loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopProfile {
    /// Loop-variable name (from the source program when given, else `L<id>`).
    pub name: String,
    /// Times the header ([`crate::bytecode::Instr::Loop`]) executed. Zero
    /// when a driver ran the body directly (the parallel executor does).
    pub header_execs: u64,
    /// Body iterations (executions of the first body instruction).
    pub iterations: u64,
    /// Instructions executed inside the body range.
    pub body_instrs: u64,
    /// Iterations the column executor ran (see [`mod@crate::run`]).
    pub trips_columns: u64,
    /// Iterations the carried executor ran.
    pub trips_carried: u64,
}

impl LoopProfile {
    /// Iterations the dispatcher ran, one instruction at a time: all of
    /// them unless the loop is a kernel.
    pub fn trips_dispatch(&self) -> u64 {
        self.iterations - self.trips_columns - self.trips_carried
    }

    /// Which executor ran the loop's iterations: `dispatch`, `columns`,
    /// `carried`, or `mixed` when entries of a kernel loop went different
    /// ways.
    pub fn mode(&self) -> &'static str {
        match (
            self.trips_columns,
            self.trips_carried,
            self.trips_dispatch(),
        ) {
            (0, 0, _) => "dispatch",
            (_, 0, 0) => "columns",
            (0, _, 0) => "carried",
            _ => "mixed",
        }
    }
}

/// Execution counts of loop `l` (of the program `cp` was compiled from),
/// or `None` when its body never executed.
pub fn loop_profile(
    cp: &CompiledProgram,
    p: Option<&Program>,
    counts: &Samples,
    l: LoopId,
) -> Option<LoopProfile> {
    let meta = cp.loop_meta(l)?;
    let (s, e) = meta.body;
    let body = counts.get(s as usize..e as usize).unwrap_or(&[]);
    let body_instrs: u64 = body.iter().sum();
    if body_instrs == 0 {
        return None;
    }
    let name = match p {
        Some(p) => p.loop_decl(l).name.clone(),
        None => format!("L{}", l.0),
    };
    let trips = counts
        .trips
        .get(meta.header as usize)
        .copied()
        .unwrap_or_default();
    Some(LoopProfile {
        name,
        header_execs: counts.get(meta.header as usize).copied().unwrap_or(0),
        iterations: body.first().copied().unwrap_or(0),
        body_instrs,
        trips_columns: trips[Executor::Columns as usize],
        trips_carried: trips[Executor::Carried as usize],
    })
}

/// Per-loop execution counts, hottest body first. Loops whose body never
/// executed are omitted.
pub fn loop_profiles(
    cp: &CompiledProgram,
    p: Option<&Program>,
    counts: &Samples,
) -> Vec<LoopProfile> {
    let mut out: Vec<LoopProfile> = (0..cp.loops.len())
        .filter_map(|idx| loop_profile(cp, p, counts, LoopId(idx)))
        .collect();
    out.sort_by(|a, b| b.body_instrs.cmp(&a.body_instrs).then(a.name.cmp(&b.name)));
    out
}

/// Render the "hot opcodes / hot statements / hot loops" tables of one
/// profiled run of `cp`.
pub fn render_tables(cp: &CompiledProgram, p: Option<&Program>, counts: &Samples) -> String {
    let mut out = String::new();
    let ops = opcode_totals(cp, counts);
    let total: u64 = ops.iter().map(|o| o.executed).sum();
    out.push_str(&format!(
        "hot opcodes ({}, {} instructions executed)\n",
        cp.name, total
    ));
    out.push_str("  opcode  executed      sites  share\n");
    for o in &ops {
        out.push_str(&format!(
            "  {:<6}  {:>12}  {:>5}  {:>5.1}%\n",
            o.opcode.name(),
            o.executed,
            o.sites,
            o.executed as f64 / total.max(1) as f64 * 100.0
        ));
    }
    let stmts = hot_statements(cp, p, counts);
    if !stmts.is_empty() {
        out.push_str("hot statements\n");
        out.push_str("  stmt      instances        instrs  instrs/instance\n");
        for s in &stmts {
            out.push_str(&format!(
                "  {:<8}  {:>9}  {:>12}  {:>15.1}\n",
                s.name,
                s.instances,
                s.instrs,
                s.instrs as f64 / s.instances.max(1) as f64
            ));
        }
    }
    let loops = loop_profiles(cp, p, counts);
    if !loops.is_empty() {
        out.push_str("hot loops\n");
        out.push_str("  loop   headers  iterations   body instrs  mode\n");
        for l in &loops {
            out.push_str(&format!(
                "  {:<5}  {:>7}  {:>10}  {:>12}  {}\n",
                l.name,
                l.header_execs,
                l.iterations,
                l.body_instrs,
                l.mode()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, run, run_profiled, BoundProgram};
    use inl_ir::zoo;

    /// Arrays for `bp` whose every cell is `v`.
    fn filled(bp: &BoundProgram, v: f64) -> Vec<Vec<f64>> {
        bp.arrays.iter().map(|a| vec![v; a.len]).collect()
    }

    fn slices(arrays: &mut [Vec<f64>]) -> Vec<&mut [f64]> {
        arrays.iter_mut().map(Vec::as_mut_slice).collect()
    }

    #[test]
    fn a_profiled_run_computes_and_counts_what_a_plain_run_does() {
        let p = zoo::cholesky_kij();
        let cp = compile(&p);
        let bp = cp.bind(&[9]);
        let (mut plain, mut profiled) = (filled(&bp, 9.0), filled(&bp, 9.0));
        let ((), plain_seen) = inl_obs::capture::with(|| run(&bp, &mut slices(&mut plain)));
        let (counts, seen) =
            inl_obs::capture::with(|| run_profiled(&bp, &mut slices(&mut profiled)));
        let bits = |a: &[Vec<f64>]| a.concat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&profiled));
        assert_eq!(plain_seen.counters, seen.counters);
        assert_eq!(counts.iter().sum::<u64>(), seen.counters["vm.instrs"]);
    }

    #[test]
    fn profile_counts_match_known_cholesky_shape() {
        let p = zoo::simple_cholesky();
        let cp = compile(&p);
        let bp = cp.bind(&[4]);
        let counts = run_profiled(&bp, &mut slices(&mut filled(&bp, 9.0)));

        // N=4: S1 (sqrt) runs 4 times; S2 (divide) runs 3+2+1 = 6 times.
        let stmts = hot_statements(&cp, Some(&p), &counts);
        let by_name = |n: &str| stmts.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("S1").instances, 4);
        assert_eq!(by_name("S2").instances, 6);

        let ops = opcode_totals(&cp, &counts);
        let op = |o: Opcode| ops.iter().find(|t| t.opcode == o).map_or(0, |t| t.executed);
        assert_eq!(op(Opcode::Store), 10);
        assert_eq!(op(Opcode::Sqrt), 4);
        assert_eq!(op(Opcode::Div), 6);
        // Totals agree with the dispatch loop's own tally.
        let executed: u64 = ops.iter().map(|t| t.executed).sum();
        assert_eq!(executed, counts.iter().sum::<u64>());
        assert!(ops.windows(2).all(|w| w[0].executed >= w[1].executed));

        // Inner loop J: 6 iterations, driven through its header.
        let loops = loop_profiles(&cp, Some(&p), &counts);
        let j = loops.iter().find(|l| l.name == "J").unwrap();
        assert_eq!(j.iterations, 6);
        assert!(j.header_execs > 0);

        let tables = render_tables(&cp, Some(&p), &counts);
        assert!(tables.contains("hot opcodes"));
        assert!(tables.contains("store"));
        assert!(tables.contains("S2"));
    }

    #[test]
    fn a_profile_belongs_to_its_run() {
        // One compiled program, two runs on two threads at once, each on
        // its own size: each run's samples are what a lone run of the same
        // input returns, nothing of the other's merged in.
        let p = zoo::cholesky_kij();
        let cp = compile(&p);
        let lone = |n| {
            let bp = cp.bind(&[n]);
            run_profiled(&bp, &mut slices(&mut filled(&bp, 7.0)))
        };
        let sizes = [6, 11];
        let expected = sizes.map(lone);
        let start = std::sync::Barrier::new(sizes.len());
        let together = std::thread::scope(|scope| {
            let runs = sizes.map(|n| {
                let (cp, start) = (&cp, &start);
                scope.spawn(move || {
                    let bp = cp.bind(&[n]);
                    let mut arrays = filled(&bp, 7.0);
                    start.wait();
                    run_profiled(&bp, &mut slices(&mut arrays))
                })
            });
            runs.map(|r| r.join().expect("profiled run"))
        });
        assert_eq!(together, expected);
        assert_ne!(expected[0], expected[1]);
    }
}
