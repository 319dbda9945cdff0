//! The pipeline's own output as input: every ranked variant of every zoo
//! program is itself a legal program, with `min`/`max` bounds, guards and
//! augmented loops the zoo does not have. Scheduling it again must work,
//! and its re-pick must compute what the source computes.
//!
//! Generation 1, at one thread: every ranked variant re-schedules without
//! error; its re-pick leaves the source's memory image on the interpreter
//! and on the VM at small sizes (N = 7; `rect_wavefront`'s M = 7, N = 6);
//! and each program's pick is a fixed point, re-scheduled at the predicted
//! cost it was picked at. No variant and no re-pick opens a loop inside
//! one of the same name, save a single-trip wrapper that reads the loop it
//! shadows (`do K = K..K`). An unoptimised build re-schedules every seventh
//! non-pick variant and every pick; the release build, as CI runs it,
//! re-schedules all of them.
//!
//! Generation 2 by label: where a variant names each of its loops once,
//! every label its re-schedule ranks replays (`Recipe::replay`, as the
//! service compiles an order) to the matrix it was ranked with. Where two
//! of its loops share a name, a label is ambiguous (ROADMAP items 22, 23).

use inl_core::recipe::{Recipe, Shape};
use inl_exec::{run_fresh, Machine, VmRunner};
use inl_ir::{zoo, Aff, Bound, Program};
use inl_linalg::Int;
use inl_sched::{schedule_with, SchedConfig, ScheduleResult};
use std::collections::HashSet;

/// Both backends' final memory image of `p` run at `params` from
/// `zoo::spd_init`.
fn images(p: &Program, params: &[Int]) -> (Machine, Machine) {
    let interp = run_fresh(p, params, &zoo::spd_init);
    let mut vm = Machine::new(p, params, &zoo::spd_init);
    VmRunner::new(p).run(&mut vm);
    (interp, vm)
}

/// The loops of `p` named like a loop that encloses them, except the
/// single-trip wrappers whose bounds are the enclosing loop's index (ROADMAP
/// item 22): their names.
fn shadowing(p: &Program) -> Vec<String> {
    let mut found = Vec::new();
    for l in p.loops() {
        let d = p.loop_decl(l);
        for outer in p.loops_surrounding_loop(l) {
            let reads_outer = |b: &Bound| b.terms == [Aff::loop_var(outer)];
            let wrapper = reads_outer(&d.lower) && reads_outer(&d.upper);
            if p.loop_decl(outer).name == d.name && !wrapper {
                found.push(d.name.clone());
            }
        }
    }
    found
}

/// Whether no two loops of `p` share a name.
fn names_each_loop_once(p: &Program) -> bool {
    let mut seen = HashSet::new();
    p.loops().all(|l| seen.insert(&p.loop_decl(l).name))
}

/// Replay every label `again` ranks for program `p` from `p`; the labels
/// replayed.
fn replay_labels(p: &Program, again: &ScheduleResult) -> u64 {
    let source = Shape::source(p.clone()).expect("a variant analyses");
    for ranked in &again.variants {
        let recipe: Recipe = ranked.label.parse().expect("a label parses");
        let replayed = recipe.replay(source.clone());
        let what = || format!("{} {}", p.name(), ranked.label);
        let replayed = replayed.unwrap_or_else(|e| panic!("{}: {e}", what()));
        let (_, c) = replayed.unwrap_or_else(|why| panic!("{}: {why}", what()));
        assert_eq!(c.matrix, ranked.matrix, "{}", what());
    }
    again.variants.len() as u64
}

#[test]
fn every_variant_reschedules_and_its_repick_computes_the_source() {
    let cfg = SchedConfig {
        threads: 1,
        ..SchedConfig::default()
    };
    let (mut variants, mut rescheduled, mut fixed_points) = (0u64, 0, 0);
    let (mut once_named, mut replayed) = (0, 0);
    for &(name, ctor) in zoo::ALL {
        let p = ctor();
        let params: Vec<Int> = (0..p.nparams()).map(|i| 7 - i as Int).collect();
        let (source, _) = images(&p, &params);
        let result = schedule_with(&p, &cfg).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for (i, ranked) in result.variants.iter().enumerate() {
            variants += 1;
            if cfg!(debug_assertions) && i != 0 && variants % 7 != 0 {
                continue;
            }
            let v = result.materialise(i).expect("a ranked variant finishes");
            let shadowed = shadowing(&v.program);
            assert!(shadowed.is_empty(), "{name} {}: {shadowed:?}", v.label);
            let again = schedule_with(&v.program, &cfg)
                .unwrap_or_else(|e| panic!("{name} {}: re-schedule failed: {e:?}", v.label));
            rescheduled += 1;
            if names_each_loop_once(&v.program) {
                once_named += 1;
                replayed += replay_labels(&v.program, &again);
            }
            let repick = &again.chosen().program;
            let shadowed = shadowing(repick);
            assert!(
                shadowed.is_empty(),
                "{name} {} -> {}: {shadowed:?} shadow an enclosing loop",
                v.label,
                again.chosen().label
            );
            let (interp, vm) = images(repick, &params);
            for (backend, image) in [("interpreter", &interp), ("VM", &vm)] {
                if let Err(e) = source.same_state(image) {
                    panic!(
                        "{name} {} -> {}: the re-pick diverged from the source on the {backend}: {e}",
                        v.label,
                        again.chosen().label
                    );
                }
            }
            if i == 0 {
                assert_eq!(
                    again.variants[0].predicted.total(),
                    ranked.predicted.total(),
                    "{name}: the pick {} is not a fixed point (re-picked {})",
                    v.label,
                    again.chosen().label
                );
                fixed_points += 1;
            }
        }
    }
    assert_eq!(fixed_points, zoo::ALL.len(), "every pick is a fixed point");
    if !cfg!(debug_assertions) {
        assert_eq!(rescheduled, variants, "every variant re-scheduled");
        assert_eq!((once_named, replayed), (54, 15_213), "labels replayed");
    }
    assert_eq!(variants, 81, "ranked variants of the zoo");
}
