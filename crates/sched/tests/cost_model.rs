//! The predicted cost against what it predicts.
//!
//! * **Executor oracle.** For every ranked leaf of every zoo program, the
//!   executor the model predicts for each innermost loop is the one a
//!   profiled VM run at N = 12 used (`LoopProfile::mode`): the model never
//!   promises columns, or a carried chain, that the VM does not run.
//! * **No saturation.** No term of the key saturates on any zoo leaf: the
//!   saturating `4096^depth` weighting it replaced left 28 of 63
//!   `cholesky_kij` leaves pinned at `i64::MAX`, unordered.
//! * **The fit table is this model.** Every ranked zoo leaf costs what its
//!   row of `crates/codegen/fit/cost_n128.csv` — the sweep the constants
//!   were fitted on — says, so the table's terms are the ones the model
//!   computes today (the codegen test
//!   `the_constants_are_the_fit_of_the_committed_sweep` reruns the fit).

use inl_exec::profile;
use inl_exec::{Machine, VmRunner};
use inl_ir::zoo;
use inl_sched::schedule;

#[test]
fn predicted_executors_are_the_ones_the_vm_runs() {
    let (mut loops, mut variants) = (0, 0);
    let mut by_executor = std::collections::BTreeMap::new();
    for &(name, ctor) in zoo::ALL {
        let p = ctor();
        let params = vec![12; p.nparams()];
        let result = schedule(&p).expect("schedules");
        for v in result.materialise_all(0).expect("finishes") {
            variants += 1;
            let runner = VmRunner::new(&v.program);
            let counts =
                runner.run_profiled(&mut Machine::new(&v.program, &params, &zoo::spd_init));
            let cp = runner.compiled();
            for inner in &v.features.predicted.inner {
                let Some(seen) = profile::loop_profile(cp, Some(&v.program), &counts, inner.id)
                else {
                    continue; // no trip at N = 12
                };
                loops += 1;
                *by_executor.entry(seen.mode()).or_insert(0) += 1;
                assert_eq!(
                    inner.executor.name(),
                    seen.mode(),
                    "{name} {}: loop {} ({seen:?})\n{}",
                    v.label,
                    seen.name,
                    v.pseudocode
                );
            }
        }
    }
    assert_eq!(variants, 283, "every ranked leaf");
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
    let mut leaves = 0;
    for &(name, ctor) in zoo::ALL {
        for v in schedule(&ctor()).expect("schedules").variants {
            leaves += 1;
            let c = &v.predicted;
            for (term, value) in [
                ("trip_cost", c.trip_cost),
                ("entry_cost", c.entry_cost),
                ("nest_cost", c.nest_cost),
                ("total", c.total()),
            ] {
                assert!(
                    (0..bound).contains(&value) && c.total() > 0,
                    "{name} {}: {term} = {value}",
                    v.label
                );
            }
        }
    }
    assert_eq!(leaves, 283);
}

#[test]
fn every_ranked_leaf_costs_what_the_fit_table_says() {
    let table = include_str!("../../codegen/fit/cost_n128.csv");
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let mut leaves = 0;
    for &(name, ctor) in zoo::ALL {
        for v in schedule(&ctor()).expect("schedules").variants {
            leaves += 1;
            let row = rows.iter().find(|r| r[0] == name && r[1] == v.label);
            let row = row.unwrap_or_else(|| panic!("{name} {}: no row", v.label));
            let total = v.predicted.total().to_string();
            assert_eq!(row[15], total, "{name} {}: refit", v.label);
        }
    }
    assert_eq!((leaves, rows.len()), (283, 283));
}
