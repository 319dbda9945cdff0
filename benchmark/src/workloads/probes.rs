//! Probes of single layers that no workload operation isolates, used only
//! in traced runs. All of them call public functions from outside.

use crate::common::{analyzed, order_rows, timed};
use inl_core::complete::{check_prefix, complete_transform, PrefixCheck};
use inl_core::depend::DependenceMatrix;
use inl_core::instance::{InstanceLayout, Position};
use inl_core::tiling;
use inl_ir::{LoopId, Program};
use inl_linalg::{IMat, IVec};
use inl_obs::PipelineReport;

/// Tile sizes of the scheduler's default configuration.
pub const TILE_SIZES: [inl_ir::Int; 3] = [16, 32, 64];

/// The strip-mined shapes the scheduler's tile axis adds for `p`.
pub fn tile_shapes(p: &Program) -> Vec<Program> {
    let Some(l) = tiling::innermost_reuse_loop(p) else {
        return Vec::new();
    };
    TILE_SIZES
        .iter()
        .filter_map(|&t| {
            let r = tiling::split(p, l, t).ok()?;
            tiling::split_legal(&r)
                .ok()?
                .is_legal()
                .then_some(r.program)
        })
        .collect()
}

/// What walking one shape's permutation × reversal tree from outside cost.
#[derive(Default)]
pub struct Mirror {
    pub prefix_calls: u64,
    pub prefix_s: f64,
    pub complete_calls: u64,
    pub complete_s: f64,
    /// Completed matrices of the legal leaves, labelled by visit order.
    pub legal: Vec<(String, IMat)>,
}

struct Walk<'a> {
    p: &'a Program,
    layout: &'a InstanceLayout,
    deps: &'a DependenceMatrix,
    loops: Vec<LoopId>,
    max_depth: usize,
    out: Mirror,
}

impl Walk<'_> {
    fn descend(&mut self, rows: &mut Vec<IVec>, used: &mut [bool]) {
        for i in 0..self.loops.len() {
            if used[i] {
                continue;
            }
            for sign in [1i64, -1] {
                let unit = IVec::unit(self.layout.len(), self.layout.loop_position(self.loops[i]));
                rows.push(if sign > 0 { unit } else { -&unit });
                used[i] = true;
                let (verdict, dt) = timed(|| check_prefix(self.p, self.layout, self.deps, rows));
                self.out.prefix_calls += 1;
                self.out.prefix_s += dt;
                if matches!(verdict, Ok(PrefixCheck::Legal)) {
                    if rows.len() == self.loops.len() {
                        let (done, dt) =
                            timed(|| complete_transform(self.p, self.layout, self.deps, rows));
                        self.out.complete_calls += 1;
                        self.out.complete_s += dt;
                        if let Ok(c) = done {
                            let label = format!("v{}", self.out.legal.len());
                            self.out.legal.push((label, c.matrix));
                        }
                    } else if rows.len() < self.max_depth {
                        self.descend(rows, used);
                    }
                }
                rows.pop();
                used[i] = false;
            }
        }
    }
}

/// Walk the same pruned tree the scheduler walks for one shape — every
/// signed selector prefix, subtrees cut at the first illegal prefix — down
/// to `max_depth` rows, timing each `check_prefix` and each leaf completion.
pub fn mirror_search(p: &Program, max_depth: usize) -> Mirror {
    let (layout, deps) = analyzed(p);
    let loops: Vec<LoopId> = p
        .loops()
        .filter(|&l| layout.positions().contains(&Position::Loop(l)))
        .collect();
    let mut walk = Walk {
        p,
        layout: &layout,
        deps: &deps,
        max_depth: max_depth.min(loops.len()),
        loops,
        out: Mirror::default(),
    };
    let mut used = vec![false; walk.loops.len()];
    walk.descend(&mut Vec::new(), &mut used);
    walk.out
}

/// Mean time in µs to split `p`'s innermost reuse loop, over the default
/// tile sizes; 0 when the program has no such loop.
pub fn split_us(p: &Program) -> f64 {
    let Some(l) = tiling::innermost_reuse_loop(p) else {
        return 0.0;
    };
    let (_, dt) = timed(|| {
        for t in TILE_SIZES {
            std::hint::black_box(tiling::split(p, l, t).ok());
        }
    });
    dt * 1e6 / TILE_SIZES.len() as f64
}

/// Legal matrices of the untransformed shape of `p`: every loop order that
/// completes.
pub fn legal_orders(p: &Program) -> Vec<(String, IMat)> {
    let (layout, deps) = analyzed(p);
    let loops: Vec<LoopId> = p.loops().collect();
    crate::common::permutations(&loops)
        .into_iter()
        .filter_map(|order| {
            let label: String = order
                .iter()
                .map(|&l| p.loop_decl(l).name.as_str())
                .collect();
            complete_transform(p, &layout, &deps, &order_rows(&layout, &order))
                .ok()
                .map(|c| (label, c.matrix))
        })
        .collect()
}

/// Total ms the program's own telemetry recorded in spans whose innermost
/// name is `leaf`, restricted to paths starting with `under` when given.
pub fn obs_span_ms(report: &PipelineReport, leaf: &str, under: Option<&str>) -> f64 {
    report
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .filter(|(path, _)| under.is_none_or(|u| path.starts_with(u)))
        .map(|(_, s)| s.total_ns as f64 / 1e6)
        .sum()
}

/// Self time in ms of `poly.feasibility` spans: their total minus the
/// spans recorded directly beneath them.
pub fn obs_feasibility_self_ms(report: &PipelineReport) -> f64 {
    let mut total = 0.0;
    for (path, s) in &report.spans {
        if path.rsplit('/').next() == Some("poly.feasibility") {
            total += s.total_ns as f64;
        } else if let Some((parent, _)) = path.rsplit_once('/') {
            if parent.rsplit('/').next() == Some("poly.feasibility") {
                total -= s.total_ns as f64;
            }
        }
    }
    total.max(0.0) / 1e6
}

pub fn obs_counter(report: &PipelineReport, name: &str) -> f64 {
    report.counters.get(name).copied().unwrap_or(0) as f64
}
