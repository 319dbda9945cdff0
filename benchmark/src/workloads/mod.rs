//! The six workloads. Each one stresses different layers, so that an
//! optimization shows on the workload that uses its mechanism and stays
//! flat on the one that bypasses it.

mod compile;
mod exec;
mod probes;
mod sched;
mod serve;

use crate::child::{Ctx, Load, OpTiming};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SchedDeep,
    SchedShallow,
    CompileOrders,
    ExecKernels,
    ServeMixed,
    ServeLight,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SchedDeep,
        Workload::SchedShallow,
        Workload::CompileOrders,
        Workload::ExecKernels,
        Workload::ServeMixed,
        Workload::ServeLight,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SchedDeep => "sched_deep",
            Workload::SchedShallow => "sched_shallow",
            Workload::CompileOrders => "compile_orders",
            Workload::ExecKernels => "exec_kernels",
            Workload::ServeMixed => "serve_mixed",
            Workload::ServeLight => "serve_light",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fresh processes per untraced run: each sets the workload up on its
    /// own and runs it cold once, and the measuring time is split among
    /// them. As many as two to four seconds of set-up buy (a set-up with its
    /// cold pass costs 4.5 s on `exec_kernels`, 0.9 s on `sched_shallow`,
    /// 0.6 s on `serve_mixed`, 0.2 s on `serve_light`, 0.1 s on
    /// `compile_orders`), and never fewer than four: the more set-ups,
    /// spread over the run, the surer that one of them met a quiet machine.
    /// All 136 runs of the driver must fit 3420 s, which is what keeps the
    /// numbers this low. (`sched_deep` runs passes instead.)
    pub fn rounds(self) -> usize {
        match self {
            Workload::SchedDeep | Workload::ExecKernels => 4,
            Workload::SchedShallow => 5,
            Workload::ServeMixed => 6,
            Workload::CompileOrders | Workload::ServeLight => 10,
        }
    }

    /// Whether two children of the workload may run at the same time, one
    /// per CPU: only where a child keeps one CPU busy and leaves the other
    /// alone. The serve workloads keep both busy (two clients, two server
    /// workers). `sched_shallow` needs the second CPU now and then:
    /// `compile_batch` starts a worker thread per call, `thread::scope`
    /// returns before that thread has left, and when the next call's worker
    /// starts before the last one has handed its malloc arena back, it gets a
    /// fresh arena. With both CPUs busy that happens more often, and the
    /// child's peak RSS flips between 21.8 and 25.8 MB (ten runs 11 % apart,
    /// against 0.5 % alone). One schedule per process (`sched_deep`) and two
    /// (`exec_kernels`) do not flip.
    pub fn two_at_a_time(self) -> bool {
        matches!(
            self,
            Workload::SchedDeep | Workload::CompileOrders | Workload::ExecKernels
        )
    }

    /// Whether the parts of an op share nothing (a process per program, a
    /// kernel per array set). Then the cold figure is taken part by part
    /// like the op time. Elsewhere the parts fill caches for each other,
    /// which part pays depends on their order, and the cold pass is taken
    /// whole.
    pub fn parts_independent(self) -> bool {
        matches!(self, Workload::SchedDeep | Workload::ExecKernels)
    }

    /// What one unit operation of the workload is, for the metric glossary.
    pub fn op(self) -> &'static str {
        match self {
            Workload::SchedDeep => "schedule the three deep programs, each in a fresh process",
            Workload::SchedShallow => "schedule the ten shallow programs back to back",
            Workload::CompileOrders => "compile all 78 loop orders of the four programs",
            Workload::ExecKernels => "run the 7 VM kernels and the 4 interpreter kernels",
            Workload::ServeMixed | Workload::ServeLight => {
                "one round trip of each distinct request of the mix, over the 2 connections"
            }
        }
    }
}

/// Build the workload's state and run its cold operation. Returns the
/// cold operation's timing, or `None` when every operation of the
/// workload is cold by design (`sched_deep`).
pub fn set_up(w: Workload, ctx: &mut Ctx) -> (Box<dyn Load>, Option<OpTiming>) {
    match w {
        Workload::SchedDeep => (Box::new(sched::Sched::deep(ctx)), None),
        Workload::SchedShallow => {
            let (load, cold) = sched::Sched::shallow(ctx);
            (Box::new(load), Some(cold))
        }
        Workload::CompileOrders => {
            let (load, cold) = compile::CompileOrders::set_up(ctx);
            (Box::new(load), Some(cold))
        }
        Workload::ExecKernels => {
            let (load, cold) = exec::ExecKernels::set_up(ctx);
            (Box::new(load), Some(cold))
        }
        Workload::ServeMixed => {
            let (load, cold) = serve::Serve::set_up(ctx, serve::Mix::Mixed);
            (Box::new(load), Some(cold))
        }
        Workload::ServeLight => {
            let (load, cold) = serve::Serve::set_up(ctx, serve::Mix::Light);
            (Box::new(load), Some(cold))
        }
    }
}
