//! The scheduler's decision provenance, counted exactly — in a test binary
//! of its own, because the explain store is process-global: a sibling test
//! that schedules while this one has the layer on would add its records to
//! the count.

use inl_ir::zoo;
use inl_obs::explain::Verdict;
use inl_sched::{schedule_with, SchedConfig};

#[test]
fn explain_records_pruned_subtrees() {
    let cfg = SchedConfig {
        threads: 1,
        ..SchedConfig::default()
    };
    inl_obs::set_explain_enabled(true);
    inl_obs::explain::reset();
    let r = schedule_with(&zoo::augmentation_example(), &cfg).expect("schedules");
    let records = inl_obs::explain::snapshot();
    inl_obs::set_explain_enabled(false);
    inl_obs::explain::reset();
    let rejects = |stage: &str| -> Vec<_> {
        let at = |rec: &&inl_obs::explain::Record| rec.stage == stage;
        let rejected = records.iter().filter(at);
        rejected
            .filter(|rec| rec.verdict == Verdict::Reject)
            .collect()
    };
    let (rejects, structural) = (rejects("sched"), rejects("structural"));
    // a leaf's report is read off the search's walk, which writes the
    // `legal` record a check of the leaf's matrix writes: one accept per
    // legal leaf, each with its proof
    let legal: Vec<_> = records.iter().filter(|rec| rec.stage == "legal").collect();
    assert_eq!(legal.len() as u64, r.stats.legal_variants);
    assert!(legal
        .iter()
        .all(|rec| rec.verdict == Verdict::Accept && rec.details.contains_key("proof")));
    assert_eq!(
        rejects.len() as u64,
        r.stats.pruned_subtrees + r.stats.completion_failures,
        "one reject per pruned subtree / failed completion"
    );
    // a skipped twin is no verdict on legality and leaves no record:
    // 2 prunings here, 4 twin nodes
    assert_eq!(rejects.len(), 2);
    assert_eq!(r.stats.twin_nodes, 4);
    // the illegal distribution is the legality walk's verdict, naming the
    // dependence it reverses
    assert_eq!(structural.len(), 1);
    assert_eq!(
        structural[0].subject,
        "shape dist(I@1) of augmentation_example"
    );
    assert!(
        structural[0].reason.contains("dep "),
        "{}",
        structural[0].reason
    );
    assert!(
        rejects
            .iter()
            .any(|rec| rec.reason.contains("dep ") && rec.details.contains_key("dep_row")),
        "at least one pruning decision names the killing dependence"
    );
    assert!(records.iter().any(|rec| rec.stage == "sched"
        && rec.verdict == Verdict::Accept
        && rec.subject.contains(&r.chosen().label)));
    // the one build, the pick's, reports its own generation work, whatever
    // the ranking made: one scanned bound per loop around each statement,
    // augmented ones those the source statement did not have
    let codegen: Vec<_> = records
        .iter()
        .filter(|rec| rec.stage == "codegen")
        .collect();
    assert_eq!(codegen.len(), 1);
    let loops_around = |p: &inl_ir::Program| -> i64 {
        p.stmts().map(|s| p.loops_surrounding(s).len() as i64).sum()
    };
    let (out, source) = (&r.chosen().program, zoo::augmentation_example());
    let features = &codegen[0].features;
    assert_eq!(features["bounds_scanned"], loops_around(out));
    assert_eq!(
        features["loops_augmented"],
        loops_around(out) - loops_around(&source)
    );
}
