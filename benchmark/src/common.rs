//! Pieces shared by the workloads: the zoo by name, array initial values,
//! the output check against the interpreter, and small measuring helpers.

use inl_core::depend::{analyze, DependenceMatrix};
use inl_core::instance::InstanceLayout;
use inl_exec::{Interpreter, Machine, VmRunner};
use inl_ir::{LoopId, Program};
use inl_linalg::{IMat, IVec, Int};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The three 4-deep programs whose search costs seconds.
pub const DEEP: [&str; 3] = ["cholesky_kij", "cholesky_left_looking", "lu_kij"];

/// Build a zoo program by its service name.
pub fn zoo_program(name: &str) -> Program {
    let (_, make) = inl_serve::ZOO
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no zoo program called {name}"));
    make()
}

/// Initial array contents: strongly diagonal, so the factorizations stay
/// in ordinary floating-point range at every size the benchmark uses.
pub fn init(_: &str, idx: &[usize]) -> f64 {
    if idx.len() == 2 {
        if idx[0] == idx[1] {
            (idx[0] + 10) as f64
        } else {
            1.0 / ((idx[0] + idx[1] + 2) as f64)
        }
    } else {
        2.0 + idx[0] as f64
    }
}

/// Parameter vector binding every parameter of `p` to `n`.
pub fn params_of(p: &Program, n: Int) -> Vec<Int> {
    vec![n; p.nparams()]
}

pub fn analyzed(p: &Program) -> (InstanceLayout, DependenceMatrix) {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).unwrap_or_else(|e| panic!("analyze {}: {e}", p.name()));
    (layout, deps)
}

/// The code the framework generates for the untransformed loop order.
pub fn generated_identity(p: &Program) -> Program {
    let (layout, deps) = analyzed(p);
    inl_codegen::generate(p, &layout, &deps, &IMat::identity(layout.len()))
        .unwrap_or_else(|e| panic!("identity codegen of {}: {e:?}", p.name()))
        .program
}

/// Unit selector rows placing `order`'s loops in the outer slots.
pub fn order_rows(layout: &InstanceLayout, order: &[LoopId]) -> Vec<IVec> {
    order
        .iter()
        .map(|&l| IVec::unit(layout.len(), layout.loop_position(l)))
        .collect()
}

/// All orderings of `items`, in lexicographic order of positions.
pub fn permutations<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// The reference answer of every output check: the *interpreter* running
/// the *untransformed source program*. Neither the code generator nor the
/// VM takes part in producing it.
pub fn reference(source: &Program, n: Int) -> Machine {
    let mut m = Machine::new(source, &params_of(source, n), &init);
    Interpreter::new(source).run(&mut m);
    m
}

/// Run `generated` on the VM at the reference's size and compare the final
/// memory image bit for bit.
pub fn check_on_vm(generated: &Program, reference: &Machine) -> Result<(), String> {
    let mut m = Machine::new(generated, reference.params(), &init);
    VmRunner::new(generated).run(&mut m);
    reference.same_state(&m)
}

/// FNV-1a over bytes: fingerprints outputs that must repeat exactly.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // separator, so ("ab","c") and ("a","bc") differ
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Wall-clock nanoseconds since the Unix epoch. The controller stamps this
/// before it spawns a child, and the child subtracts it when its set-up
/// ends, so set-up time includes process start and program loading.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_nanos()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where /proc is absent.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time one call, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Mean wall time in µs of `f` over `reps` calls.
pub fn mean_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}
