//! `compile_orders`: the per-transformation compile path with no search in
//! it. Every loop order of four programs goes through layout → `analyze` →
//! `complete_transform` → `generate` → `to_pseudocode`; illegal orders
//! leave in completion, so the reject path is measured beside the accept
//! path. Poly, core and codegen bound; the poly cache is the mechanism
//! (compare `cold_ms` with `op_ms`).

use super::probes;
use crate::child::{Ctx, Load, OpTiming};
use crate::common::{
    check_on_vm, mean_us, order_rows, permutations, reference, timed, zoo_program, Fnv, DEEP,
};
use inl_codegen::generate;
use inl_core::complete::complete_transform;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_core::legal::check_legal;
use inl_exec::Machine;
use inl_ir::{LoopId, Program};
use inl_obs::PipelineReport;
use std::collections::BTreeMap;

const CHECK_N: inl_linalg::Int = 9;

struct Order {
    program: usize,
    label: String,
    loops: Vec<LoopId>,
    /// `Some(pseudocode)` for a legal order, `None` for a rejected one, as
    /// the first pass found it; later passes must agree byte for byte.
    expected: Option<Option<String>>,
}

pub struct CompileOrders {
    programs: Vec<(Program, Machine)>,
    orders: Vec<Order>,
    /// Visiting order of `orders`, reshuffled from the seed before each pass.
    visit: Vec<usize>,
}

impl CompileOrders {
    pub fn set_up(ctx: &mut Ctx) -> (CompileOrders, OpTiming) {
        let names: Vec<&str> = if ctx.smoke {
            vec!["simple_cholesky", "perfect_nest", "matmul"]
        } else {
            DEEP.iter().copied().chain(["matmul"]).collect()
        };
        let programs: Vec<(Program, Machine)> = names
            .iter()
            .map(|n| {
                let p = zoo_program(n);
                let r = reference(&p, CHECK_N);
                (p, r)
            })
            .collect();
        let mut orders = Vec::new();
        for (i, (p, _)) in programs.iter().enumerate() {
            let loops: Vec<LoopId> = p.loops().collect();
            for perm in permutations(&loops) {
                orders.push(Order {
                    program: i,
                    label: format!(
                        "{}/{}",
                        p.name(),
                        perm.iter()
                            .map(|&l| p.loop_decl(l).name.as_str())
                            .collect::<String>()
                    ),
                    loops: perm,
                    expected: None,
                });
            }
        }
        let visit = (0..orders.len()).collect();
        let mut load = CompileOrders {
            programs,
            orders,
            visit,
        };
        let cold = load.op(ctx);
        (load, cold)
    }

    /// The compile path for one loop order. `Ok(None)` is a rejected order.
    fn compile(
        p: &Program,
        order: &[LoopId],
        tr: &mut crate::trace::Tracer,
    ) -> Result<Option<Program>, String> {
        let s = tr.begin("core.layout");
        let layout = InstanceLayout::new(p);
        tr.end(s);
        let s = tr.begin("core.depend.analyze");
        let deps = analyze(p, &layout);
        tr.end(s);
        let deps = deps.map_err(|e| format!("analyze: {e}"))?;
        let rows = order_rows(&layout, order);
        let s = tr.begin("core.complete");
        let completed = complete_transform(p, &layout, &deps, &rows);
        tr.end(s);
        let Ok(completion) = completed else {
            return Ok(None);
        };
        if tr.on() {
            // `generate` checks legality itself; the same call made here
            // first, beside it, prices that part of it.
            let s = tr.begin("core.legal.check");
            std::hint::black_box(check_legal(p, &layout, &deps, &completion.matrix).ok());
            tr.end(s);
        }
        let s = tr.begin("codegen.generate");
        let generated = generate(p, &layout, &deps, &completion.matrix);
        tr.end(s);
        generated
            .map(|r| Some(r.program))
            .map_err(|e| format!("codegen of a completed order: {e:?}"))
    }
}

impl Load for CompileOrders {
    fn parts(&self) -> Vec<String> {
        self.orders.iter().map(|o| o.label.clone()).collect()
    }

    fn op(&mut self, ctx: &mut Ctx) -> OpTiming {
        ctx.rng.shuffle(&mut self.visit);
        let mut wall_s = 0.0;
        let mut samples = Vec::with_capacity(self.visit.len());
        for &i in &self.visit {
            let order = &mut self.orders[i];
            let (p, reference) = &self.programs[order.program];
            ctx.tracer.next_op();
            let op = ctx.tracer.begin(if order.expected == Some(None) {
                "compile.rejected"
            } else {
                "compile.legal"
            });
            let (text, dt) = timed(|| {
                Self::compile(p, &order.loops, &mut ctx.tracer).map(|generated| {
                    generated.map(|g| {
                        let s = ctx.tracer.begin("ir.pseudocode");
                        let text = g.to_pseudocode();
                        ctx.tracer.end(s);
                        (g, text)
                    })
                })
            });
            ctx.tracer.end(op);
            wall_s += dt;
            samples.push((i, dt * 1e3));
            let verdict = match text {
                Err(why) => Err(why),
                Ok(got) => {
                    let text = got.as_ref().map(|(_, t)| t);
                    match &order.expected {
                        Some(first) if first.as_ref() == text => Ok(()),
                        Some(_) => Err("output differs from the first pass".to_string()),
                        None => {
                            order.expected = Some(text.cloned());
                            // first sight of a legal order: execute what was
                            // generated and compare with the interpreter
                            got.map_or(Ok(()), |(g, _)| check_on_vm(&g, reference))
                        }
                    }
                }
            };
            ctx.check(|| format!("compile {}", order.label), verdict);
        }
        OpTiming { wall_s, samples }
    }

    fn code_bytes(&self) -> u64 {
        self.orders
            .iter()
            .filter_map(|o| o.expected.as_ref()?.as_ref())
            .map(|text| text.len() as u64)
            .sum()
    }

    fn digest(&self) -> String {
        let mut h = Fnv::default();
        for o in &self.orders {
            h.write(o.label.as_bytes());
            match &o.expected {
                Some(Some(text)) => h.write(text.as_bytes()),
                _ => h.write(b"rejected"),
            }
        }
        h.hex()
    }

    fn layers(&mut self, ctx: &mut Ctx, out: &mut BTreeMap<String, f64>) {
        let obs = PipelineReport::capture();
        let tr = &ctx.tracer;
        for (metric, span) in [
            ("core.layout_us", "core.layout"),
            ("core.depend.analyze_us", "core.depend.analyze"),
            ("core.legal.check_us", "core.legal.check"),
            ("ir.pseudocode_us", "ir.pseudocode"),
        ] {
            out.insert(metric.into(), tr.self_us(span));
        }
        // completion by outcome: the `core.complete` spans under each kind of op
        let spans = tr.spans();
        let mean_under = |parent: &str| {
            let durs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "core.complete")
                .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent))
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect();
            durs.iter().sum::<f64>() / durs.len().max(1) as f64
        };
        out.insert(
            "core.complete.complete_us".into(),
            mean_under("compile.legal"),
        );
        out.insert(
            "core.complete.reject_us".into(),
            mean_under("compile.rejected"),
        );
        // `generate` ran the legality check too; take the separate call's
        // time out of its self time
        let generate_us = tr.self_us("codegen.generate") - tr.self_us("core.legal.check");
        out.insert("codegen.generate_us".into(), generate_us.max(0.0));

        let legal = self
            .orders
            .iter()
            .filter(|o| matches!(o.expected, Some(Some(_))))
            .count();
        out.insert("core.complete.legal_orders".into(), legal as f64);
        out.insert(
            "core.complete.rejected_orders".into(),
            (self.orders.len() - legal) as f64,
        );
        out.insert("ir.pseudocode_bytes".into(), self.code_bytes() as f64);

        out.insert(
            "poly.fm.eliminations".into(),
            probes::obs_counter(&obs, "poly.fm.eliminations"),
        );
        out.insert(
            "poly.feasibility.calls".into(),
            obs.spans
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some("poly.feasibility"))
                .map(|(_, s)| s.count as f64)
                .sum(),
        );
        out.insert(
            "poly.feasibility.self_ms".into(),
            probes::obs_feasibility_self_ms(&obs),
        );

        // Probes of layers no compile op isolates. From here on the tracer
        // is off: the spans above are complete.
        ctx.tracer.set_on(false);
        let names: Vec<&str> = inl_serve::ZOO.iter().map(|(n, _)| *n).collect();
        out.insert(
            "ir.zoo_build_us".into(),
            mean_us(20, || {
                for n in &names {
                    std::hint::black_box(zoo_program(n));
                }
            }) / names.len() as f64,
        );
        let zoo: Vec<Program> = names.iter().map(|n| zoo_program(n)).collect();
        out.insert(
            "ir.pretty_us".into(),
            mean_us(20, || {
                for p in &zoo {
                    std::hint::black_box(p.to_pseudocode());
                }
            }) / zoo.len() as f64,
        );
        let (mut deps, mut prefix_calls, mut prefix_s) = (0usize, 0u64, 0.0);
        let (mut split_us, mut variant_ns, mut variants) = (0.0, 0u64, 0u64);
        let (mut loops_out, mut guards_out) = (0usize, 0i64);
        for (p, _) in &self.programs {
            deps += crate::common::analyzed(p).1.deps.len();
            // all signed selector prefixes of depth 1 and 2
            let m = probes::mirror_search(p, 2);
            prefix_calls += m.prefix_calls;
            prefix_s += m.prefix_s;
            split_us += probes::split_us(p) / self.programs.len() as f64;
            for v in inl_codegen::compile_batch(p, &probes::legal_orders(p), 1) {
                variant_ns += v.wall_ns;
                variants += 1;
                loops_out += v.program.nloops();
                guards_out += v.features.guards;
            }
        }
        out.insert("core.depend.deps".into(), deps as f64);
        out.insert(
            "core.complete.check_prefix_us".into(),
            prefix_s * 1e6 / prefix_calls.max(1) as f64,
        );
        out.insert("core.tiling.split_us".into(), split_us);
        out.insert(
            "codegen.batch.variant_us".into(),
            variant_ns as f64 / 1e3 / variants.max(1) as f64,
        );
        out.insert("codegen.loops_out".into(), loops_out as f64);
        out.insert("codegen.guards_out".into(), guards_out as f64);

        // One pass with the poly cache bypassed over one warm pass. Base:
        // the warm pass. The switch is flipped back before anything else runs.
        inl_obs::set_enabled(false);
        let warm = self.op(ctx).wall_s;
        inl_poly::cache::set_cache_enabled(false);
        let bypassed = self.op(ctx).wall_s;
        inl_poly::cache::set_cache_enabled(true);
        out.insert("poly.nocache_ratio".into(), bypassed / warm);
    }
}
