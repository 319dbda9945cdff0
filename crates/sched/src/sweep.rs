//! Zoo-wide scheduling sweep: run [`crate::schedule`] over every zoo
//! program, *measure* every returned variant on the VM backend, and
//! compare the cost model's choice against reality.
//!
//! This is the machinery behind the `inl-sched` CLI and the committed
//! `baselines/BENCH_sched.json` CI gate: the search counters and the
//! chosen label in each [`SweepEntry`] are deterministic and go into the
//! gate document ([`bench_json`]); the measured times and the profiled
//! executors only feed the printed tables — the regret report
//! ([`render_regret`]) sets each variant's predicted cost beside what the
//! VM did with it.

use crate::{schedule_with, SchedConfig, SearchStats};
use inl_codegen::PredictedCost;
use inl_core::recipe::Recipe;
use inl_exec::profile::{self, LoopProfile, Samples};
use inl_exec::{run_fresh, Machine, VmRunner};
use inl_ir::zoo::{self, spd_init};
use inl_ir::{LoopId, Node, Program};
use inl_linalg::{InlError, Int};
use inl_obs::Json;
use std::cmp::Reverse;
use std::time::Instant;

/// Problem size used by the sweep: large enough that loop-order locality
/// effects are visible on the VM, small enough that measuring every
/// returned variant of every zoo program stays in CI budget.
pub const SWEEP_N: Int = 56;

/// One sweep target: wire name, constructor, measurement parameters.
pub type SweepTarget = (&'static str, fn() -> Program, &'static [Int]);

/// The programs the sweep schedules: the whole [`zoo::ALL`] table, each
/// with its measurement parameters ([`SWEEP_N`], smaller where the program
/// is cubic in a 2-D size or takes two parameters).
pub fn sweep_targets() -> Vec<SweepTarget> {
    zoo::ALL
        .iter()
        .map(|&(name, ctor)| {
            let params: &[Int] = match name {
                "matmul" => &[28],
                "rect_wavefront" => &[28, 36],
                _ => &[SWEEP_N],
            };
            (name, ctor, params)
        })
        .collect()
}

/// One measured variant: the scheduler's rank order is the `Vec` order
/// in [`SweepEntry::measured`].
#[derive(Clone, Debug)]
pub struct MeasuredVariant {
    /// The variant's display label.
    pub label: String,
    /// The variant's recipe.
    pub recipe: Recipe,
    /// The predicted cost's terms and innermost loops.
    pub predicted: PredictedCost,
    /// Name of the predicted hottest innermost loop.
    pub predicted_loop: String,
    /// What one profiled VM run showed of the hottest innermost loop.
    pub observed: Option<LoopProfile>,
    /// Minimum wall time over the sweep's repetitions, nanoseconds.
    pub ns: u64,
}

/// The profile of `p`'s hottest innermost loop — the one whose body ran
/// the most iterations, the first in program order among equals — in a
/// profiled run of `runner`.
fn hottest_observed(runner: &VmRunner, p: &Program, counts: &Samples) -> Option<LoopProfile> {
    let cp = runner.compiled();
    let innermost = p.loops().filter(|&l| {
        let children = &p.loop_decl(l).children;
        !children.iter().any(|c| matches!(c, Node::Loop(_)))
    });
    innermost
        .filter_map(|l: LoopId| profile::loop_profile(cp, Some(p), counts, l))
        .min_by_key(|l| Reverse(l.iterations))
}

/// The sweep's verdict on one program.
#[derive(Clone, Debug)]
pub struct SweepEntry {
    /// Program name (zoo wire name).
    pub name: String,
    /// Search counters (deterministic, in the gate document).
    pub stats: SearchStats,
    /// Label of the chosen (cost-minimal) variant.
    pub chosen: String,
    /// Pseudocode of the chosen variant (what `inl-sched --show` prints).
    pub chosen_pseudocode: String,
    /// Every legal variant in rank order, with its measured runtime.
    pub measured: Vec<MeasuredVariant>,
    /// Measured runtime of the chosen variant, nanoseconds.
    pub chosen_ns: u64,
    /// Fastest measured variant, nanoseconds.
    pub best_ns: u64,
    /// Label of the fastest measured variant.
    pub best_label: String,
    /// Slowest measured variant, nanoseconds.
    pub worst_ns: u64,
    /// `true` when the chosen variant's final machine state is bitwise
    /// identical to the source program's.
    pub bitwise_identical: bool,
    /// Variant pairs where cost order and measured order agree.
    pub concordant: u64,
    /// Variant pairs where they disagree.
    pub discordant: u64,
}

impl SweepEntry {
    /// Chosen-vs-best slowdown in percent (`0` = chosen is the measured
    /// best).
    pub fn chosen_vs_best_pct(&self) -> u64 {
        if self.best_ns == 0 {
            return 0;
        }
        (self.chosen_ns.saturating_sub(self.best_ns)) * 100 / self.best_ns
    }

    /// Rank agreement between the cost model and measurement, in percent
    /// of variant pairs (`100` = perfectly concordant).
    pub fn rank_agreement_pct(&self) -> u64 {
        let pairs = self.concordant + self.discordant;
        if pairs == 0 {
            return 100;
        }
        self.concordant * 100 / pairs
    }
}

/// Schedule one program, finish every variant and keep each one's best
/// of `reps` (at least one) timed runs.
pub fn sweep_program(
    name: &str,
    p: &Program,
    params: &[Int],
    cfg: &SchedConfig,
    reps: usize,
) -> Result<SweepEntry, InlError> {
    let _span = inl_obs::span("sched.sweep");
    let result = schedule_with(p, cfg)?;

    // the schedule finished only its pick; measuring needs every variant's
    // program, so finish them all now, against the analyses the result
    // already holds
    let variants = result.materialise_all(cfg.threads)?;
    // compile every variant once, then one untimed warmup run each: the
    // first execution pays cold caches and page faults that would
    // otherwise skew min-of-reps
    let runners: Vec<VmRunner> = variants.iter().map(|v| VmRunner::new(&v.program)).collect();
    for (v, runner) in variants.iter().zip(&runners) {
        let mut warm = Machine::new(&v.program, params, &spd_init);
        runner.run(&mut warm);
    }
    // interleave the timed reps across variants (rep-major, not
    // variant-major): back-to-back timing of one variant confounds its
    // runtime with drift — frequency ramp-up, cache state — and the
    // drift always lands on whichever variant runs first (the chosen
    // one, since variants are measured in rank order)
    let mut best_ns_per: Vec<u64> = vec![u64::MAX; variants.len()];
    for _ in 0..reps.max(1) {
        for ((v, runner), best) in variants.iter().zip(&runners).zip(&mut best_ns_per) {
            let mut m = Machine::new(&v.program, params, &spd_init);
            let t = Instant::now();
            runner.run(&mut m);
            *best = (*best).min(t.elapsed().as_nanos() as u64);
        }
    }
    let measured: Vec<MeasuredVariant> = variants
        .iter()
        .zip(&runners)
        .zip(best_ns_per)
        .map(|((v, runner), ns)| {
            // one more, untimed and profiled: which executor ran each variant
            let counts = runner.run_profiled(&mut Machine::new(&v.program, params, &spd_init));
            let predicted = v.features.predicted.clone();
            let predicted_loop = predicted
                .hottest()
                .map_or_else(String::new, |h| v.program.loop_decl(h.id).name.clone());
            MeasuredVariant {
                label: v.label.clone(),
                recipe: v.recipe.clone(),
                predicted,
                predicted_loop,
                observed: hottest_observed(runner, &v.program, &counts),
                ns,
            }
        })
        .collect();

    let (chosen_ns, best_ns, best_label, worst_ns) = measured_extremes(name, &measured)?;

    // rank order vs measured order: count concordant pairs. A pair tied on
    // the predicted cost — ordered by reversal count and label only —
    // carries no performance claim and counts as concordant
    let mut concordant = 0u64;
    let mut discordant = 0u64;
    for i in 0..measured.len() {
        for j in (i + 1)..measured.len() {
            let tied = measured[i].predicted.total() == measured[j].predicted.total();
            if tied || measured[i].ns <= measured[j].ns {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }

    let source = run_fresh(p, params, &spd_init);
    let transformed = run_fresh(&result.chosen().program, params, &spd_init);
    let bitwise_identical = source.same_state(&transformed).is_ok();

    let chosen = result.chosen().label.clone();
    let chosen_pseudocode = result.chosen().pseudocode.clone();
    Ok(SweepEntry {
        name: name.to_string(),
        stats: result.stats,
        chosen,
        chosen_pseudocode,
        measured,
        chosen_ns,
        best_ns,
        best_label,
        worst_ns,
        bitwise_identical,
        concordant,
        discordant,
    })
}

/// Chosen/best/worst summary of a measured-variant list, as
/// `(chosen_ns, best_ns, best_label, worst_ns)`.
///
/// An empty list is a typed error, not a panic: `schedule_with`
/// guarantees at least one variant today, but the panic-free policy
/// (PR 5) applies to this path too — a future caller handing in an
/// empty measurement sweep must get an [`InlError`] it can report, not
/// an abort of the whole zoo sweep.
pub fn measured_extremes(
    name: &str,
    measured: &[MeasuredVariant],
) -> Result<(u64, u64, String, u64), InlError> {
    let (Some(first), Some(best)) = (measured.first(), measured.iter().min_by_key(|m| m.ns)) else {
        return Err(InlError::invalid_target(
            format!("sweep of {name}"),
            "no measured variants: the schedule produced an empty variant list",
        ));
    };
    let worst_ns = measured.iter().map(|m| m.ns).max().unwrap_or(best.ns);
    Ok((first.ns, best.ns, best.label.clone(), worst_ns))
}

/// Render the sweep as the markdown table the `inl-sched` CLI prints.
pub fn render_table(entries: &[SweepEntry]) -> String {
    let mut out = String::new();
    out.push_str(
        "| program | visited | exhaustive | unvisited | legal | chosen | vs best | rank agree | bitwise |\n",
    );
    out.push_str(
        "|---------|---------|------------|-----------|-------|--------|---------|------------|--------|\n",
    );
    for e in entries {
        out.push_str(&format!(
            "| {} | {} | {} | {}% | {} | {} | +{}% | {}% | {} |\n",
            e.name,
            e.stats.nodes_visited,
            e.stats.nodes_exhaustive,
            e.stats.unvisited_pct(),
            e.measured.len(),
            e.chosen,
            e.chosen_vs_best_pct(),
            e.rank_agreement_pct(),
            if e.bitwise_identical { "yes" } else { "NO" },
        ));
    }
    out
}

/// The first field of the ranking key that separates `a` from `b`, in the
/// order the sort compares them — predicted cost, reversals, label — with
/// both values. The predicted cost's three terms follow it as context only
/// (the key compares their sum):
/// `"predicted_cost 130170 vs 296378 (trips 86656 vs 250496, …)"`.
pub fn separating_term(a: &MeasuredVariant, b: &MeasuredVariant) -> String {
    let (pa, pb) = (&a.predicted, &b.predicted);
    if pa.total() != pb.total() {
        return format!(
            "predicted_cost {} vs {} (trips {} vs {}, entries {} vs {}, nest {} vs {})",
            pa.total(),
            pb.total(),
            pa.trip_cost,
            pb.trip_cost,
            pa.entry_cost,
            pb.entry_cost,
            pa.nest_cost,
            pb.nest_cost
        );
    }
    let (ra, rb) = (a.recipe.reversals(), b.recipe.reversals());
    if ra != rb {
        return format!("reversals {ra} vs {rb}");
    }
    format!("label {} vs {}", a.label, b.label)
}

/// One variant as the regret report shows it: label, measured time, the
/// predicted cost's terms, the predicted executor and trips per entry of
/// the hottest innermost loop, and what the profiled VM run did with its
/// hottest innermost loop (executor, iterations per header execution).
pub fn regret_row(m: &MeasuredVariant) -> String {
    let predicted = match m.predicted.hottest() {
        Some(h) => format!("{} {} x{}", m.predicted_loop, h.executor.name(), h.trips),
        None => "-".to_string(),
    };
    let observed = match &m.observed {
        Some(o) => format!(
            "{} {} x{:.1}",
            o.name,
            o.mode(),
            o.iterations as f64 / o.header_execs.max(1) as f64
        ),
        None => "-".to_string(),
    };
    format!(
        "{:<28} {:>10} ns  {:>36}  {:<22} {observed}",
        m.label,
        m.ns,
        m.predicted.to_string(),
        predicted,
    )
}

/// The regret report of one program: every variant in rank order
/// ([`regret_row`]), then the chosen row beside the measured-best row and
/// the first term that separated them ([`separating_term`]).
pub fn render_regret(e: &SweepEntry) -> String {
    let mut out = format!(
        "  {:<28} {:>13}  {:>36}  {:<22} {}\n",
        "variant", "measured", "predicted cost", "predicted hottest", "vm hottest (trips/entry)"
    );
    for m in &e.measured {
        out.push_str(&format!("  {}\n", regret_row(m)));
    }
    let best = e.measured.iter().find(|m| m.label == e.best_label);
    if let (Some(chosen), Some(best)) = (e.measured.first(), best) {
        out.push_str(&format!(
            "  chosen {}\n  best   {}\n",
            regret_row(chosen),
            regret_row(best)
        ));
        if chosen.label == best.label {
            out.push_str("  the chosen variant is the measured best\n");
        } else {
            out.push_str(&format!(
                "  +{}% off the best; ranked ahead on {}\n",
                e.chosen_vs_best_pct(),
                separating_term(chosen, best)
            ));
        }
    }
    out
}

/// The gate document (`baselines/BENCH_sched.json`): per program the
/// search counters, the chosen label and the bitwise bit, plus one
/// `{name, error}` row per program whose sweep failed, the error as its
/// kind and message (a partial sweep still produces a document; the caller
/// signals the failures through its exit code). Everything in it is a
/// deterministic function of the source — no measured time, no source
/// location — so two sweeps on any host write the same bytes and CI gates
/// it with `diff -u`.
pub fn bench_json(entries: &[SweepEntry], errors: &[(String, InlError)]) -> Json {
    let mut programs = Vec::with_capacity(entries.len());
    for e in entries {
        let mut o = Json::object();
        o.insert("name", Json::Str(e.name.clone()));
        o.insert("nodes_visited", Json::Int(e.stats.nodes_visited));
        o.insert("nodes_exhaustive", Json::Int(e.stats.nodes_exhaustive));
        o.insert("pruned_subtrees", Json::Int(e.stats.pruned_subtrees));
        o.insert("pruned_nodes", Json::Int(e.stats.pruned_nodes));
        o.insert("twin_nodes", Json::Int(e.stats.twin_nodes));
        o.insert("legal_variants", Json::Int(e.stats.legal_variants));
        o.insert("shapes", Json::Int(e.stats.shapes));
        o.insert(
            "completion_failures",
            Json::Int(e.stats.completion_failures),
        );
        o.insert("bitwise_identical", Json::Bool(e.bitwise_identical));
        o.insert("chosen", Json::Str(e.chosen.clone()));
        programs.push(o);
    }
    let mut doc = Json::object();
    doc.insert("version", Json::Int(1));
    doc.insert("programs", Json::Array(programs));
    let rows = errors
        .iter()
        .map(|(name, error)| {
            let mut o = Json::object();
            o.insert("name", Json::Str(name.clone()));
            o.insert("error", Json::Str(error.summary()));
            o
        })
        .collect();
    doc.insert("errors", Json::Array(rows));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> SchedConfig {
        SchedConfig {
            threads: 1,
            ..SchedConfig::default()
        }
    }

    #[test]
    fn sweep_entry_is_bitwise_and_ranked() {
        let e = sweep_program(
            "running_example",
            &zoo::running_example(),
            &[12],
            &quiet_cfg(),
            1,
        )
        .expect("sweeps");
        assert!(e.bitwise_identical, "chosen variant diverged");
        assert!(e.stats.pruned_subtrees > 0);
        assert!(!e.measured.is_empty());
        assert_eq!(e.chosen, e.measured[0].label);
        assert!(e.worst_ns >= e.best_ns);
    }

    #[test]
    fn empty_measured_list_is_a_typed_error_not_a_panic() {
        let err = measured_extremes("ghost", &[]).expect_err("empty list must not rank");
        let msg = err.to_string();
        assert!(msg.contains("sweep of ghost"), "names the sweep: {msg}");
        assert!(
            msg.contains("no measured variants"),
            "states the cause: {msg}"
        );
    }

    #[test]
    fn gate_document_is_deterministic_and_byte_identical_across_sweeps() {
        let doc = || {
            let e = sweep_program("matmul", &zoo::matmul(), &[6], &quiet_cfg(), 1).expect("sweeps");
            bench_json(&[e], &[])
        };
        let first = doc();
        assert_eq!(first.to_pretty_string(), doc().to_pretty_string());
        assert_eq!(first.deterministic(), first, "holds a measured field");
        let Some(Json::Array(progs)) = first.get("programs") else {
            panic!("programs array")
        };
        assert_eq!(progs.len(), 1);
        for key in [
            "nodes_visited",
            "nodes_exhaustive",
            "pruned_subtrees",
            "twin_nodes",
            "legal_variants",
            "chosen",
            "bitwise_identical",
        ] {
            assert!(progs[0].get(key).is_some(), "missing gated field {key}");
        }
        assert!(
            matches!(first.get("errors"), Some(Json::Array(a)) if a.is_empty()),
            "clean sweep carries an empty errors array"
        );
    }

    #[test]
    fn failed_programs_become_error_rows() {
        let err = measured_extremes("ghost", &[]).expect_err("empty list must not rank");
        let doc = bench_json(&[], &[("ghost".to_string(), err)]);
        let parsed = Json::parse(&doc.to_pretty_string()).expect("round-trips");
        let rows = match parsed.get("errors") {
            Some(Json::Array(a)) => a,
            _ => panic!("errors array"),
        };
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0].get("name"), Some(Json::Str(s)) if s == "ghost"));
        let Some(Json::Str(error)) = rows[0].get("error") else {
            panic!("error string")
        };
        assert_eq!(
            error,
            "invalid target: sweep of ghost: no measured variants: the schedule produced an \
             empty variant list"
        );
        assert!(
            !error.contains(".rs:"),
            "a source location in the gate document: {error}"
        );
    }

    #[test]
    fn table_renders_every_program() {
        let e =
            sweep_program("wavefront", &zoo::wavefront(), &[10], &quiet_cfg(), 1).expect("sweeps");
        let table = render_table(&[e]);
        assert!(table.contains("| wavefront |"));
        assert!(table.contains("rank agree"));
    }
}
