//! Where Fourier–Motzkin elimination is still used by a schedule.
//!
//! Shortest paths answer a difference system's feasibility and bounds, and
//! a difference plan's scan replays elimination's steps on compact rows,
//! so a cold schedule of the zoo eliminates only where a plan leaves that
//! class: the reversed variants of `running_example` and `cholesky_kij`,
//! whose plans hold a reversal row `x + y = 0` (a sum, not a difference).
//! The counts are pinned so that a change which takes those rows into a
//! shortest-path class shows here as a fall, and one which pushes other
//! plans out of it as a rise. Its own test binary: the analysis memo is
//! process-wide, and every schedule here must start cold.

use inl_ir::zoo;
use inl_sched::{schedule_with, SchedConfig};

#[test]
fn a_cold_schedule_eliminates_only_in_reversed_plans() {
    let cfg = SchedConfig {
        threads: 1,
        ..SchedConfig::default()
    };
    let mut eliminating = Vec::new();
    for &(name, ctor) in zoo::ALL {
        let p = ctor();
        inl_poly::cache::clear();
        // One thread: the whole schedule runs inside this thread's capture.
        let (result, seen) = inl_obs::capture::with(|| schedule_with(&p, &cfg));
        result.unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let elims = seen
            .counters
            .get("poly.fm.eliminations")
            .copied()
            .unwrap_or(0);
        if elims > 0 {
            eliminating.push((name, elims));
        }
    }
    assert_eq!(
        eliminating,
        [("running_example", 15), ("cholesky_kij", 10)],
        "programs whose cold schedule runs Fourier–Motzkin elimination"
    );
}
