//! The pipeline's own output as input: every ranked variant of every zoo
//! program is itself a legal program, with `min`/`max` bounds, guards and
//! augmented loops the zoo does not have. Scheduling it again must work,
//! and its re-pick must compute what the source computes.
//!
//! Generation 1, at one thread: every ranked variant re-schedules without
//! error; its re-pick leaves the source's memory image on the interpreter
//! and on the VM at small sizes (N = 7; `rect_wavefront`'s M = 7, N = 6);
//! and each program's pick is a fixed point, re-scheduled at the predicted
//! cost it was picked at. An unoptimised build re-schedules every seventh
//! non-pick variant and every pick; the release build, as CI runs it,
//! re-schedules all of them.

use inl_exec::{run_fresh, Machine, VmRunner};
use inl_ir::{zoo, Program};
use inl_linalg::Int;
use inl_sched::{schedule_with, SchedConfig};

/// Both backends' final memory image of `p` run at `params` from
/// `zoo::spd_init`.
fn images(p: &Program, params: &[Int]) -> (Machine, Machine) {
    let interp = run_fresh(p, params, &zoo::spd_init);
    let mut vm = Machine::new(p, params, &zoo::spd_init);
    VmRunner::new(p).run(&mut vm);
    (interp, vm)
}

#[test]
fn every_variant_reschedules_and_its_repick_computes_the_source() {
    let cfg = SchedConfig {
        threads: 1,
        ..SchedConfig::default()
    };
    let (mut variants, mut rescheduled, mut fixed_points) = (0u64, 0, 0);
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
            let again = schedule_with(&v.program, &cfg)
                .unwrap_or_else(|e| panic!("{name} {}: re-schedule failed: {e:?}", v.label));
            rescheduled += 1;
            let repick = &again.chosen().program;
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
    }
    assert_eq!(variants, 81, "ranked variants of the zoo");
}
