//! The predicted cost against what it predicts, over every row of
//! `crates/codegen/fit/cost_n128.csv` — the sweep the constants were
//! fitted on — each replayed from its label (`Recipe::replay`): the leaves
//! the scheduler ranks, and tiled leaves, which it does not build.
//!
//! * **Executor oracle.** For every row, the innermost loops the model
//!   lists are, by id and in order, the generated program's loops that
//!   hold no loop, and the executor it predicts for each is the one a
//!   profiled VM run at N = 12 used (`LoopProfile::mode`): the model never
//!   promises columns, or a carried chain, that the VM does not run.
//! * **No saturation.** No term of the key saturates on any row: the
//!   saturating `4096^depth` weighting it replaced left 28 of 63
//!   `cholesky_kij` leaves pinned at `i64::MAX`, unordered.
//! * **The fit table is this model.** Every row costs what the table says,
//!   so the table's terms are the ones the model computes today (the
//!   codegen test `the_constants_are_the_fit_of_the_committed_sweep`
//!   reruns the fit), and the scheduler ranks exactly the untiled rows.
//! * **No tiled row wins.** Why the search has no tile axis, read off the
//!   same table.

use inl_codegen::{generate, PlanTable, PredictedCost};
use inl_core::complete::Completion;
use inl_core::recipe::{Recipe, Shape, Step};
use inl_exec::profile;
use inl_exec::{Machine, VmRunner};
use inl_ir::{zoo, LoopId, Node, Program};
use inl_sched::schedule;
use std::collections::BTreeMap;

/// `(program, label, predicted cost)` per row of the fit table.
fn fit_rows() -> Vec<(&'static str, Recipe, i64)> {
    let table = include_str!("../../codegen/fit/cost_n128.csv");
    let rows = table.lines().skip(1).map(|line| {
        let cells: Vec<&str> = line.split(',').collect();
        let recipe = cells[1].parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        (
            cells[0],
            recipe,
            cells[15].parse().expect("a predicted cost"),
        )
    });
    rows.collect()
}

fn is_tiled(recipe: &Recipe) -> bool {
    matches!(recipe.shape, Some(Step::Split { .. }))
}

/// The leaf `recipe` names in zoo program `name`: its shape and completion.
fn replay(name: &str, recipe: &Recipe) -> (Shape, Completion) {
    let (_, make) = zoo::ALL.iter().find(|(n, _)| *n == name).expect(name);
    let source = Shape::source(make()).expect("analyses");
    let replayed = recipe
        .replay(source)
        .unwrap_or_else(|e| panic!("{name} {recipe}: {e}"));
    replayed.unwrap_or_else(|why| panic!("{name} {recipe}: {why}"))
}

/// The predicted cost of the leaf, as the scheduler ranks one: read off
/// its statement plans, nothing built.
fn predicted(name: &str, recipe: &Recipe) -> PredictedCost {
    let (shape, c) = replay(name, recipe);
    let mut table = PlanTable::new(&shape.program, &shape.layout, &shape.deps);
    let plans = table.intern(&c.matrix, &c.report);
    let ranked = table.predict(&c.matrix, &c.report, &plans);
    ranked.unwrap_or_else(|e| panic!("{name} {recipe}: {e}"))
}

/// The loops of `p` from `nodes` down that hold no loop, in program order.
fn innermost_loops(p: &Program, nodes: &[Node], out: &mut Vec<LoopId>) {
    for &n in nodes {
        if let Node::Loop(l) = n {
            let children = &p.loop_decl(l).children;
            if children.iter().any(|c| matches!(c, Node::Loop(_))) {
                innermost_loops(p, children, out);
            } else {
                out.push(l);
            }
        }
    }
}

#[test]
fn predicted_executors_are_the_ones_the_vm_runs() {
    let (mut loops, mut variants) = (0, 0);
    let mut by_executor = BTreeMap::new();
    for (name, recipe, _) in fit_rows() {
        let (shape, c) = replay(name, &recipe);
        let v = generate(&shape.program, &shape.layout, &shape.deps, &c.matrix).expect("generates");
        variants += 1;
        // a wrong id would only make `loop_profile` below find no loop
        let mut innermost = Vec::new();
        innermost_loops(&v.program, v.program.root(), &mut innermost);
        let predicted: Vec<LoopId> = v.features.predicted.inner.iter().map(|l| l.id).collect();
        assert_eq!(predicted, innermost, "{name} {recipe}: innermost loops");
        let params = vec![12; v.program.nparams()];
        let runner = VmRunner::new(&v.program);
        let counts = runner.run_profiled(&mut Machine::new(&v.program, &params, &zoo::spd_init));
        let cp = runner.compiled();
        for inner in &v.features.predicted.inner {
            let Some(seen) = profile::loop_profile(cp, Some(&v.program), &counts, inner.id) else {
                continue; // no trip at N = 12
            };
            loops += 1;
            *by_executor.entry(seen.mode()).or_insert(0) += 1;
            assert_eq!(
                inner.executor.name(),
                seen.mode(),
                "{name} {recipe}: loop {} ({seen:?})\n{}",
                seen.name,
                v.program.to_pseudocode()
            );
        }
    }
    assert_eq!(variants, 283, "every row of the fit table");
    assert!(loops > variants, "{loops} innermost loops");
    // both trip executors occur, so the oracle tells them apart; no zoo
    // kernel loop falls to the dispatcher (`vm.trips.dispatch` is absent
    // from the counter gate)
    assert_eq!(by_executor.len(), 2, "{by_executor:?}");
    assert!(by_executor["carried"] > 100 && by_executor["columns"] > 300);
}

#[test]
fn no_term_of_the_key_saturates_on_a_zoo_leaf() {
    // headroom: every term stays below 2^48, 2^15 times short of i64::MAX
    let bound = 1i64 << 48;
    let rows = fit_rows();
    for (name, recipe, _) in &rows {
        let c = predicted(name, recipe);
        for (term, value) in [
            ("trip_cost", c.trip_cost),
            ("entry_cost", c.entry_cost),
            ("nest_cost", c.nest_cost),
            ("total", c.total()),
        ] {
            assert!(
                (0..bound).contains(&value) && c.total() > 0,
                "{name} {recipe}: {term} = {value}"
            );
        }
    }
    assert_eq!(rows.len(), 283);
}

#[test]
fn every_ranked_leaf_costs_what_the_fit_table_says() {
    let rows = fit_rows();
    for (name, recipe, cost) in &rows {
        assert_eq!(
            predicted(name, recipe).total(),
            *cost,
            "{name} {recipe}: refit"
        );
    }
    // the scheduler ranks exactly the untiled rows, at their costs
    for &(name, ctor) in zoo::ALL {
        let variants = schedule(&ctor()).expect("schedules").variants;
        for v in &variants {
            let row = rows.iter().find(|(n, r, _)| *n == name && *r == v.recipe);
            let (_, _, cost) = row.unwrap_or_else(|| panic!("{name} {}: no row", v.label));
            assert_eq!(v.predicted.total(), *cost, "{name} {}: refit", v.label);
        }
        let untiled = rows.iter().filter(|(n, r, _)| *n == name && !is_tiled(r));
        assert_eq!(variants.len(), untiled.count(), "{name}: ranked leaves");
    }
    assert_eq!(rows.len(), 283);
}

#[test]
fn no_tiled_row_is_the_cheapest_of_its_program() {
    // cheapest [untiled, tiled] cost per program
    let mut cheapest: BTreeMap<&str, [Option<i64>; 2]> = BTreeMap::new();
    for (name, recipe, cost) in fit_rows() {
        let slot = &mut cheapest.entry(name).or_default()[is_tiled(&recipe) as usize];
        *slot = Some(slot.map_or(cost, |c| c.min(cost)));
    }
    let mut tiled_programs = 0;
    for (name, [untiled, tiled]) in cheapest {
        let Some(tiled) = tiled else { continue };
        tiled_programs += 1;
        let untiled = untiled.expect("an untiled row");
        assert!(
            tiled > untiled,
            "{name}: a tiled leaf costs {tiled}, the cheapest untiled one {untiled}. The key \
             now lets a tile win, so the search needs its tile axis back, with a capacity \
             term and a tile-size chooser (ROADMAP item 14)"
        );
    }
    assert_eq!(tiled_programs, 7, "zoo programs with tiled rows");
}
