//! The `tile` explain records of `inl_core::tiling::split_legal` — in a
//! test binary of its own, because the explain store is process-global:
//! a sibling test with the layer on would add its records to the count.

use inl_core::instance::{InstanceLayout, Position};
use inl_core::tiling::{innermost_reuse_loop, split, split_legal, SplitResult};
use inl_ir::zoo;
use inl_obs::explain::{self, Verdict};

#[test]
fn split_legality_is_recorded_under_the_tile_stage() {
    let p = zoo::simple_cholesky();
    let r = split(&p, innermost_reuse_loop(&p).expect("J carries reuse"), 16).expect("splits");
    // strip-mining keeps the source order, so only a split whose bookkeeping
    // is wrong can fail the proof: here the layout files `I`'s two edge
    // positions under the root, and no longer describes the split nest
    let positions = r.layout.positions().iter().map(|&pos| match pos {
        Position::Edge { child, .. } => Position::Edge {
            parent: None,
            child,
        },
        other => other,
    });
    let broken = SplitResult {
        layout: InstanceLayout::with_positions(&r.program, positions.collect()),
        ..r.clone()
    };

    inl_obs::set_explain_enabled(true);
    explain::reset();
    let legal = split_legal(&r).expect("analyses");
    let illegal = split_legal(&broken).expect("analyses");
    let records = explain::snapshot();
    inl_obs::set_explain_enabled(false);
    explain::reset();

    assert!(legal.is_legal(), "{:?}", legal.violations);
    assert!(!illegal.is_legal());
    let tile: Vec<_> = records.iter().filter(|rec| rec.stage == "tile").collect();
    let verdicts: Vec<Verdict> = tile.iter().map(|rec| rec.verdict).collect();
    assert_eq!(verdicts, [Verdict::Accept, Verdict::Reject], "{tile:?}");
    for rec in &tile {
        assert_eq!(rec.subject, "split loop J by 16");
        assert_eq!(rec.features["tile"], 16);
        assert!(rec.features["deps"] > 0, "{rec:?}");
    }
    let (accept, reject) = (tile[0], tile[1]);
    assert!(accept
        .reason
        .contains("stay lexicographically non-negative"));
    assert!(
        reject.reason.contains("no Fig. 5 block structure"),
        "{}",
        reject.reason
    );
}
