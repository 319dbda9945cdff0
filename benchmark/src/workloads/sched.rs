//! `sched_deep` and `sched_shallow`: the auto-scheduler, cold on the
//! programs whose search costs seconds, and warm on all the others.

use super::probes;
use crate::child::{Ctx, Load, OpTiming};
use crate::common::{analyzed, check_on_vm, reference, timed, zoo_program, Fnv, DEEP};
use crate::metrics::COUNTED;
use inl_exec::Machine;
use inl_ir::Program;
use inl_obs::PipelineReport;
use inl_sched::{schedule_with, SchedConfig, ScheduleResult, SearchStats};
use std::collections::BTreeMap;

/// Size at which a chosen variant is executed to check it against the
/// interpreter's run of the source program.
const CHECK_N: inl_linalg::Int = 12;

struct Entry {
    name: String,
    program: Program,
    reference: Machine,
    /// Fingerprint of the first result (chosen label, pseudocode, search
    /// counters); every later schedule of the program must reproduce it.
    expected: Option<String>,
    stats: SearchStats,
    code_bytes: u64,
    /// Schedule times in ms since tracing went on.
    traced_ms: Vec<f64>,
    /// The result of a traced cold schedule (see `op`).
    kept: Option<ScheduleResult>,
}

pub struct Sched {
    cfg: SchedConfig,
    entries: Vec<Entry>,
}

fn fingerprint(r: &ScheduleResult) -> String {
    let mut h = Fnv::default();
    h.write(r.chosen().label.as_bytes());
    h.write(r.chosen().pseudocode.as_bytes());
    h.write(format!("{:?}", r.stats).as_bytes());
    h.write(r.legal.join(",").as_bytes());
    h.hex()
}

impl Sched {
    fn new(names: &[&str]) -> Sched {
        Sched {
            // Built field by field, never `from_env`: the environment must
            // not reconfigure a run. One thread, as the service uses.
            cfg: SchedConfig {
                threads: 1,
                ..SchedConfig::default()
            },
            entries: names
                .iter()
                .map(|name| {
                    let program = zoo_program(name);
                    Entry {
                        name: name.to_string(),
                        reference: reference(&program, CHECK_N),
                        program,
                        expected: None,
                        stats: SearchStats::default(),
                        code_bytes: 0,
                        traced_ms: Vec::new(),
                        kept: None,
                    }
                })
                .collect(),
        }
    }

    /// One program, scheduled once in this process: what
    /// `inl-sched --program X` costs.
    pub fn deep(ctx: &mut Ctx) -> Sched {
        let name = ctx
            .program
            .clone()
            .expect("sched_deep child needs --program");
        Sched::new(&[&name])
    }

    /// Every zoo program except the three deep ones (a handful of the
    /// smallest at smoke scale); the cold first pass is returned in ms.
    pub fn shallow(ctx: &mut Ctx) -> (Sched, OpTiming) {
        let names: Vec<&str> = if ctx.smoke {
            vec![
                "augmentation_example",
                "wavefront",
                "row_prefix_sums",
                "independent_pair",
            ]
        } else {
            inl_serve::ZOO
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !DEEP.contains(n))
                .collect()
        };
        let mut load = Sched::new(&names);
        let cold = load.op(ctx);
        (load, cold)
    }
}

impl Load for Sched {
    fn parts(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    fn op(&mut self, ctx: &mut Ctx) -> OpTiming {
        let mut wall_s = 0.0;
        let mut samples = Vec::with_capacity(self.entries.len());
        for (i, e) in self.entries.iter_mut().enumerate() {
            ctx.tracer.next_op();
            let span = ctx.tracer.begin("sched.schedule");
            let (result, dt) = timed(|| schedule_with(&e.program, &self.cfg));
            ctx.tracer.end(span);
            wall_s += dt;
            samples.push((i, dt * 1e3));
            if ctx.tracer.on() {
                e.traced_ms.push(dt * 1e3);
            }
            let verdict = match &result {
                Err(err) => Err(format!("scheduling failed: {err}")),
                Ok(r) => {
                    let print = fingerprint(r);
                    match &e.expected {
                        Some(first) if *first == print => Ok(()),
                        Some(_) => Err("result differs from the first pass".to_string()),
                        None => {
                            e.expected = Some(print);
                            e.stats = r.stats.clone();
                            e.code_bytes = r.chosen().pseudocode.len() as u64;
                            check_on_vm(&r.chosen().program, &e.reference)
                                .map_err(|why| format!("chosen {}: {why}", r.chosen().label))
                        }
                    }
                }
            };
            ctx.check(|| format!("schedule {}", e.name), verdict);
            if ctx.trace && ctx.program.is_some() {
                // Held until the share estimate has run. Freeing a result's
                // 1 800 programs leaves the allocator in a state in which
                // the same compiles cost 1.8 times as much (3.4 against
                // 1.9 ms per variant, measured), and the estimate's probes
                // must run in the state the call itself ran in.
                e.kept = result.ok();
            }
        }
        OpTiming { wall_s, samples }
    }

    fn code_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.code_bytes).sum()
    }

    fn digest(&self) -> String {
        self.entries
            .iter()
            .map(|e| e.expected.clone().unwrap_or_default())
            .collect::<Vec<_>>()
            .join("-")
    }

    fn layers(&mut self, ctx: &mut Ctx, out: &mut BTreeMap<String, f64>) {
        // before any probe adds spans of its own
        let obs = PipelineReport::capture();
        let (mut total_ms, mut variants) = (0.0, 0u64);
        for e in &self.entries {
            let ms = crate::stats::quietest(&e.traced_ms);
            out.insert(format!("sched.schedule_ms.{}", e.name), ms);
            total_ms += ms;
            variants += e.stats.legal_variants;
            if COUNTED.contains(&e.name.as_str()) || ctx.smoke {
                out.insert(
                    format!("sched.nodes_visited.{}", e.name),
                    e.stats.nodes_visited as f64,
                );
                out.insert(
                    format!("sched.legal_variants.{}", e.name),
                    e.stats.legal_variants as f64,
                );
                out.insert(format!("sched.shapes.{}", e.name), e.stats.shapes as f64);
            }
        }
        out.insert(
            "sched.ms_per_variant".into(),
            total_ms / variants.max(1) as f64,
        );
        if ctx.program.is_some() {
            let e = &self.entries[0];
            estimate_shares(&e.program, &e.stats, total_ms, &obs, out);
        }
    }
}

/// Where one cold `schedule_with` call spent its time, estimated from
/// outside: time per call of each layer, measured here through the layer's
/// public function, times the number of calls the search counters report.
/// The four shares are measured independently, so their sum says how much
/// of the call the estimate explains. The same split read from the
/// program's own spans is reported beside it as `sched.obs.*`.
fn estimate_shares(
    p: &Program,
    stats: &SearchStats,
    schedule_ms: f64,
    obs: &PipelineReport,
    out: &mut BTreeMap<String, f64>,
) {
    // The identity shape and the tiled shapes can be rebuilt from outside;
    // their trees stand in for the distribution and jamming shapes too.
    let mut shapes = vec![p.clone()];
    shapes.extend(probes::tile_shapes(p));
    let (mut prefix_calls, mut prefix_s) = (0u64, 0.0);
    let (mut complete_calls, mut complete_s) = (0u64, 0.0);
    let (mut variant_ns, mut variant_n) = (0u64, 0u64);
    let mut held = Vec::new();
    for shape in &shapes {
        let m = probes::mirror_search(shape, usize::MAX);
        prefix_calls += m.prefix_calls;
        prefix_s += m.prefix_s;
        complete_calls += m.complete_calls;
        complete_s += m.complete_s;
        // Every legal variant through the batch compiler, all results held
        // as the scheduler holds them: a sample of one in eight costs 12 %
        // less per variant (1.85 against 2.07 ms), because the time per
        // variant grows with what is already held.
        let batch = inl_codegen::compile_batch(shape, &m.legal, 1);
        variant_ns += batch.iter().map(|v| v.wall_ns).sum::<u64>();
        variant_n += batch.len() as u64;
        held.push(batch);
    }
    drop(held);
    let per = |total: f64, n: u64| total / n.max(1) as f64;
    let prefix_ms = per(prefix_s * 1e3, prefix_calls) * stats.nodes_visited as f64;
    let complete_ms = per(complete_s * 1e3, complete_calls)
        * (stats.legal_variants + stats.completion_failures) as f64;
    let codegen_ms = per(variant_ns as f64 / 1e6, variant_n) * stats.legal_variants as f64;
    // Everything else: layout and analysis once per shape in the search and
    // once in shape enumeration, the tile splits with their legality proofs,
    // and one code generation per alignment tried.
    let (_, analyze_s) = timed(|| analyzed(p));
    let (_, tiles_s) = timed(|| probes::tile_shapes(p));
    let (layout, deps) = analyzed(p);
    let (_, generate_s) = timed(|| {
        inl_codegen::generate(p, &layout, &deps, &inl_linalg::IMat::identity(layout.len()))
    });
    let other_ms =
        ((stats.shapes + 1) as f64 * analyze_s + tiles_s + stats.align_tried as f64 * generate_s)
            * 1e3;
    out.insert("sched.est.prefix_share".into(), prefix_ms / schedule_ms);
    out.insert("sched.est.complete_share".into(), complete_ms / schedule_ms);
    out.insert("sched.est.codegen_share".into(), codegen_ms / schedule_ms);
    out.insert("sched.est.other_share".into(), other_ms / schedule_ms);

    let root = "sched.schedule";
    let total = probes::obs_span_ms(obs, root, None);
    if total > 0.0 {
        let prefix = probes::obs_span_ms(obs, "complete.prefix", Some(root));
        let complete = probes::obs_span_ms(obs, "complete.transform", Some(root));
        // batch jobs run on the batch driver's own thread: a root path
        let codegen = probes::obs_span_ms(obs, "batch.compile", None);
        out.insert("sched.obs.prefix_share".into(), prefix / total);
        out.insert("sched.obs.complete_share".into(), complete / total);
        out.insert("sched.obs.codegen_share".into(), codegen / total);
        out.insert(
            "sched.obs.other_share".into(),
            (total - prefix - complete - codegen) / total,
        );
    }
}
