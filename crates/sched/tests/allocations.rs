//! A tripwire on heap traffic of the compile side: the number of
//! allocations (calls of `alloc`, `alloc_zeroed` and `realloc`) the
//! calling thread makes, counted by this binary's global allocator.
//!
//! - an `analyze` answered from the memo allocates nothing (the stored
//!   matrix is shared);
//! - three cold deep schedules, at one thread, each after
//!   `inl_poly::cache::clear()` in a process that has run them once;
//! - one warm pass over every loop order of the three deep programs and
//!   `matmul` (78 orders: layout → `analyze` → `complete_transform` →
//!   `generate` → `to_pseudocode`, rejected orders leaving at completion).
//!
//! The last two are held to a ceiling a little above the count measured
//! when it was set, so a change that brings back per-row temporaries or a
//! copying memo fails here first. Counts are printed (`--nocapture`).
//! Unoptimised builds allocate for their extra checks, so the tests run in
//! release builds only.

use inl_core::complete::complete_transform;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_ir::{zoo, LoopId, Program};
use inl_linalg::IVec;
use inl_sched::{schedule_with, SchedConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches only a
// thread-local `Cell` and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations this thread makes while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Ceiling on three cold deep schedules: 20 892 when it was set (35 985
/// while a memo hit copied its matrix and rows were built from temporaries).
const DEEP_SCHEDULES_CAP: u64 = 22_000;
/// Ceiling on one warm pass over the 78 orders: 15 672 when it was set,
/// plus the 1 589 of margin the ceiling had over 34 911 before statement
/// plans were memoised (71 141 before that, 20 770 before guards were
/// proved once and generated programs shared the source's declarations).
const ORDERS_PASS_CAP: u64 = 17_261;

const DEEP: [fn() -> Program; 3] = [zoo::cholesky_kij, zoo::cholesky_left_looking, zoo::lu_kij];

/// The memo is process-wide and one test clears it: tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    inl_poly::cache::set_cache_enabled(true);
    guard
}

fn one_thread() -> SchedConfig {
    SchedConfig {
        threads: 1,
        ..SchedConfig::default()
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "extra checks of unoptimised builds allocate"
)]
fn an_analysis_memo_hit_allocates_nothing() {
    let _g = serial();
    for (name, build) in zoo::ALL {
        let p = build();
        let layout = InstanceLayout::new(&p);
        let first = analyze(&p, &layout).expect("analysis");
        let (n, hit) = counted(|| analyze(&p, &layout).expect("analysis"));
        println!("analyze hit {name}: {n} allocations");
        assert_eq!(n, 0, "{name}: a memo hit allocates");
        assert_eq!(hit, first, "{name}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "extra checks of unoptimised builds allocate"
)]
fn three_cold_deep_schedules_stay_under_their_ceiling() {
    let _g = serial();
    let cfg = one_thread();
    let programs: Vec<Program> = DEEP.iter().map(|build| build()).collect();
    for p in &programs {
        schedule_with(p, &cfg).expect("schedules");
    }
    let mut total = 0;
    for p in &programs {
        inl_poly::cache::clear();
        let (n, r) = counted(|| schedule_with(p, &cfg));
        r.expect("schedules");
        println!("cold schedule {}: {n} allocations", p.name());
        total += n;
    }
    println!("three cold deep schedules: {total} allocations");
    assert!(
        total <= DEEP_SCHEDULES_CAP,
        "{total} > {DEEP_SCHEDULES_CAP}"
    );
}

/// All orderings of `items`.
fn permutations(items: &[LoopId]) -> Vec<Vec<LoopId>> {
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

/// One order through the compile path; the pseudocode of a legal one.
fn compile(p: &Program, order: &[LoopId]) -> Option<String> {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    let rows: Vec<IVec> = order
        .iter()
        .map(|&l| IVec::unit(layout.len(), layout.loop_position(l)))
        .collect();
    let completion = complete_transform(p, &layout, &deps, &rows).ok()?;
    let generated = inl_codegen::generate(p, &layout, &deps, &completion.matrix);
    Some(
        generated
            .expect("a completed order generates")
            .program
            .to_pseudocode(),
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "extra checks of unoptimised builds allocate"
)]
fn a_warm_pass_over_every_loop_order_stays_under_its_ceiling() {
    let _g = serial();
    let programs: Vec<Program> = DEEP
        .iter()
        .chain([&(zoo::matmul as fn() -> Program)])
        .map(|build| build())
        .collect();
    let orders: Vec<(&Program, Vec<LoopId>)> = programs
        .iter()
        .flat_map(|p| {
            permutations(&p.loops().collect::<Vec<_>>())
                .into_iter()
                .map(move |o| (p, o))
        })
        .collect();
    assert_eq!(orders.len(), 78);
    let pass = || {
        orders
            .iter()
            .map(|(p, o)| compile(p, o))
            .collect::<Vec<_>>()
    };
    let warm = pass();
    let (n, again) = counted(pass);
    assert_eq!(again, warm, "a pass compiles what the last one did");
    println!("warm pass over {} orders: {n} allocations", orders.len());
    assert!(n <= ORDERS_PASS_CAP, "{n} > {ORDERS_PASS_CAP}");
}
