//! `exec_kernels`: run time of the code the framework generates. VM runs of
//! the source-order code of five programs, VM runs of the variants the
//! scheduler chooses for two of them (so schedule *quality* stays visible
//! next to schedule *time*), and interpreter runs at smaller sizes. VM and
//! exec bound: compiling is microseconds here and poly and the scheduler do
//! nothing in the timed part, so a change to search or poly must leave this
//! workload flat, and a VM or lowering change shows only here.

use super::probes;
use crate::child::{Ctx, Load, OpTiming};
use crate::common::{
    check_on_vm, generated_identity, init, mean_us, params_of, reference, timed, zoo_program, Fnv,
};
use inl_exec::{Interpreter, Machine, VmRunner};
use inl_ir::Program;
use inl_linalg::Int;
use inl_obs::PipelineReport;
use inl_sched::{schedule_with, SchedConfig};
use std::collections::BTreeMap;

/// Size at which every kernel's code is checked against the interpreter's
/// run of the untransformed source program.
const CHECK_N: Int = 24;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Source-order generated code on the VM.
    Vm,
    /// The scheduler's chosen variant on the VM.
    Chosen,
    /// Source-order generated code on the interpreter.
    Interp,
}

/// (program, size, kind), in run order. The sizes make one kernel run take
/// 6 to 25 ms and a pass 0.15 s. The host slows to 1.5 to 2 times the quiet
/// time for most of a noisy minute and is quiet for a tenth or a fifth of a
/// second in between: a run of 0.1 to 0.4 s (N=300 and N=2000, as first
/// written) meets no quiet window in a whole run, and ten runs then spread by
/// 38 %; a run of 15 ms meets one among its 100 samples.
const FULL: &[(&str, Int, Kind)] = &[
    ("cholesky_kij", 150, Kind::Vm),
    ("matmul", 100, Kind::Vm),
    ("lu_kij", 128, Kind::Vm),
    ("wavefront", 800, Kind::Vm),
    ("row_prefix_sums", 600, Kind::Vm),
    ("cholesky_kij", 150, Kind::Chosen),
    ("matmul", 100, Kind::Chosen),
    ("cholesky_kij", 64, Kind::Interp),
    ("matmul", 40, Kind::Interp),
    ("wavefront", 200, Kind::Interp),
    ("row_prefix_sums", 200, Kind::Interp),
];

const SMOKE: &[(&str, Int, Kind)] = &[
    ("simple_cholesky", 400, Kind::Vm),
    ("wavefront", 60, Kind::Vm),
    ("simple_cholesky", 400, Kind::Chosen),
    ("simple_cholesky", 100, Kind::Interp),
    ("wavefront", 30, Kind::Interp),
];

struct Kernel {
    name: &'static str,
    kind: Kind,
    code: Program,
    /// Compiled once in set-up; `None` for interpreter kernels.
    runner: Option<VmRunner>,
    /// Initial memory; every run starts from its contents.
    template: Machine,
    /// The memory the runs work in.
    work: Machine,
    /// Final memory of the first run; every later run must equal it.
    first: Option<Machine>,
    traced_ms: Vec<f64>,
}

pub struct ExecKernels {
    kernels: Vec<Kernel>,
    code_bytes: u64,
}

impl ExecKernels {
    pub fn set_up(ctx: &mut Ctx) -> (ExecKernels, OpTiming) {
        let table = if ctx.smoke { SMOKE } else { FULL };
        let cfg = SchedConfig {
            threads: 1,
            ..SchedConfig::default()
        };
        let mut code_bytes = 0;
        let mut kernels = Vec::new();
        for &(name, n, kind) in table {
            let source = zoo_program(name);
            let code = match kind {
                Kind::Chosen => schedule_with(&source, &cfg)
                    .unwrap_or_else(|e| panic!("set-up scheduling of {name}: {e}"))
                    .chosen()
                    .program
                    .clone(),
                _ => generated_identity(&source),
            };
            let answer = reference(&source, CHECK_N);
            let verdict = match kind {
                Kind::Interp => {
                    let mut m = Machine::new(&code, answer.params(), &init);
                    Interpreter::new(&code).run(&mut m);
                    answer.same_state(&m)
                }
                _ => check_on_vm(&code, &answer),
            };
            ctx.check(|| format!("{name} at check size {CHECK_N}"), verdict);
            code_bytes += code.to_pseudocode().len() as u64;
            let template = Machine::new(&code, &params_of(&code, n), &init);
            kernels.push(Kernel {
                name,
                kind,
                runner: (kind != Kind::Interp).then(|| VmRunner::new(&code)),
                work: template.clone(),
                template,
                code,
                first: None,
                traced_ms: Vec::new(),
            });
        }
        let mut load = ExecKernels {
            kernels,
            code_bytes,
        };
        let cold = load.op(ctx);
        // A legal variant leaves the very same memory image as source order.
        for k in load.kernels.iter().filter(|k| k.kind == Kind::Chosen) {
            let source = load
                .kernels
                .iter()
                .find(|s| s.kind == Kind::Vm && s.name == k.name)
                .expect("every chosen kernel has its source-order twin");
            let (a, b) = (source.first.as_ref(), k.first.as_ref());
            let verdict = a
                .zip(b)
                .map_or(Err("not run".into()), |(a, b)| a.same_state(b));
            ctx.check(|| format!("chosen {} equals source order", k.name), verdict);
        }
        (load, cold)
    }

    fn group_ms(&self, kind: Kind) -> f64 {
        self.kernels
            .iter()
            .filter(|k| k.kind == kind)
            .map(|k| crate::stats::quietest(&k.traced_ms))
            .sum()
    }
}

impl Load for ExecKernels {
    fn parts(&self) -> Vec<String> {
        self.kernels
            .iter()
            .map(|k| {
                let kind = match k.kind {
                    Kind::Vm => "vm",
                    Kind::Chosen => "chosen",
                    Kind::Interp => "interp",
                };
                format!("{}.{kind}", k.name)
            })
            .collect()
    }

    fn op(&mut self, ctx: &mut Ctx) -> OpTiming {
        let mut wall_s = 0.0;
        let mut samples = Vec::with_capacity(self.kernels.len());
        for (i, k) in self.kernels.iter_mut().enumerate() {
            // Every run starts from the template's contents, written into
            // the same working memory: fresh pages each run would put the
            // arrays at other physical addresses, and the kernel's cache
            // behaviour with them.
            let m = &mut k.work;
            for (w, t) in m.arrays_mut().iter_mut().zip(k.template.arrays()) {
                w.data.copy_from_slice(&t.data);
            }
            ctx.tracer.next_op();
            let span = ctx.tracer.begin(match k.kind {
                Kind::Vm => "exec.vm.source",
                Kind::Chosen => "exec.vm.chosen",
                Kind::Interp => "exec.interp",
            });
            let ((), dt) = timed(|| match &k.runner {
                Some(runner) => runner.run(m),
                None => Interpreter::new(&k.code).run(m),
            });
            ctx.tracer.end(span);
            wall_s += dt;
            samples.push((i, dt * 1e3));
            if ctx.tracer.on() {
                k.traced_ms.push(dt * 1e3);
            }
            let verdict = match &k.first {
                Some(first) => first.same_state(m),
                None => {
                    k.first = Some(m.clone());
                    Ok(())
                }
            };
            ctx.check(|| format!("run {}", k.name), verdict);
        }
        OpTiming { wall_s, samples }
    }

    fn code_bytes(&self) -> u64 {
        self.code_bytes
    }

    fn digest(&self) -> String {
        let mut h = Fnv::default();
        for k in &self.kernels {
            h.write(k.code.to_pseudocode().as_bytes());
            for a in k.first.iter().flat_map(|m| m.arrays()) {
                for v in &a.data {
                    h.write(&v.to_bits().to_le_bytes());
                }
            }
        }
        h.hex()
    }

    fn layers(&mut self, _ctx: &mut Ctx, out: &mut BTreeMap<String, f64>) {
        let obs = PipelineReport::capture();
        for k in &self.kernels {
            let ms = crate::stats::quietest(&k.traced_ms);
            let key = match k.kind {
                Kind::Vm => format!("vm.run_ms.{}", k.name),
                Kind::Chosen => format!("vm.run_ms.{}_chosen", k.name),
                Kind::Interp => format!("exec.interp.run_ms.{}", k.name),
            };
            out.insert(key, ms);
            if k.kind == Kind::Chosen {
                let source = self
                    .kernels
                    .iter()
                    .find(|s| s.kind == Kind::Vm && s.name == k.name)
                    .expect("twin");
                out.insert(
                    format!("exec.chosen_vs_source.{}", k.name),
                    ms / crate::stats::quietest(&source.traced_ms),
                );
            }
        }
        let vm_ms = self.group_ms(Kind::Vm);
        let chosen_ms = self.group_ms(Kind::Chosen);
        let interp_ms = self.group_ms(Kind::Interp);
        out.insert("exec.vm_pass_ms".into(), vm_ms);
        out.insert("exec.chosen_pass_ms".into(), chosen_ms);
        out.insert("exec.interp_pass_ms".into(), interp_ms);

        // The program's own counters over the traced passes: instructions
        // and statement instances executed on each backend.
        let vm_total_s: f64 = self
            .kernels
            .iter()
            .filter(|k| k.kind != Kind::Interp)
            .flat_map(|k| &k.traced_ms)
            .sum::<f64>()
            / 1e3;
        let interp_total_s: f64 = self
            .kernels
            .iter()
            .filter(|k| k.kind == Kind::Interp)
            .flat_map(|k| &k.traced_ms)
            .sum::<f64>()
            / 1e3;
        let instrs = probes::obs_counter(&obs, "vm.instrs");
        out.insert("vm.minstr_per_s".into(), instrs / 1e6 / vm_total_s);
        // time per statement instance, interpreter over VM; base: the VM
        let vm_instances = probes::obs_counter(&obs, "vm.instances");
        let interp_instances = probes::obs_counter(&obs, "exec.instances");
        out.insert(
            "exec.interp_vs_vm".into(),
            (interp_total_s / interp_instances) / (vm_total_s / vm_instances),
        );

        let compiled: Vec<&Kernel> = self.kernels.iter().filter(|k| k.runner.is_some()).collect();
        out.insert(
            "vm.compile_us".into(),
            mean_us(20, || {
                for k in &compiled {
                    std::hint::black_box(inl_vm::compile(&k.code));
                }
            }) / compiled.len() as f64,
        );
        out.insert(
            "vm.instrs_static".into(),
            compiled
                .iter()
                .map(|k| k.runner.as_ref().map_or(0, |r| r.compiled().ninstrs()) as f64)
                .sum(),
        );
        let ((), init_s) = timed(|| {
            for k in &self.kernels {
                std::hint::black_box(Machine::new(&k.code, k.template.params(), &init));
            }
        });
        out.insert("exec.machine_init_ms".into(), init_s * 1e3);
    }
}
