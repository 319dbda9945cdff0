//! The process-wide memo behind `inl_core::depend::analyze`: what it may
//! answer from store (an *equal* program and layout, nothing else), that a
//! stored answer equals a computed one, and that it lives and dies with
//! the switch and `clear()` of `inl_poly::cache`, and its bound.
//!
//! The memo and its counters are process-global, so this is its own test
//! binary and every test holds one lock.

use inl_core::depend::{analyze, memo_stats, DependenceMatrix, MemoStats, MEMO_CAP};
use inl_core::instance::{InstanceLayout, Position};
use inl_core::legal::check_structural;
use inl_core::structural::{distribute, jam};
use inl_core::tiling;
use inl_ir::{zoo, Aff, Expr, Guard, LoopId, Node, Program, ProgramBuilder};
use inl_linalg::Int;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Hold the lock; memo on and empty.
fn begin() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    inl_poly::cache::set_cache_enabled(true);
    inl_poly::cache::clear();
    guard
}

fn analysed(p: &Program, layout: &InstanceLayout) -> DependenceMatrix {
    analyze(p, layout).expect("analysis")
}

/// The analysis with the memo bypassed: ground truth.
fn bypassed(p: &Program, layout: &InstanceLayout) -> DependenceMatrix {
    inl_poly::cache::set_cache_enabled(false);
    let before = memo_stats();
    let deps = analysed(p, layout);
    assert_eq!(memo_stats(), before, "a bypassed analysis touches no memo");
    inl_poly::cache::set_cache_enabled(true);
    deps
}

/// `(hits, misses)` gained since `before`.
fn gained(before: MemoStats) -> (u64, u64) {
    let now = memo_stats();
    (now.hits - before.hits, now.misses - before.misses)
}

/// The shapes a label can name: the program itself, its strip-mined reuse
/// loop (a `tile(…)` label; the search builds no tile shape), every legal
/// one-level distribution, every legal jam of adjacent sibling loops.
fn scheduler_shapes(p: &Program) -> Vec<(String, Program, InstanceLayout)> {
    let layout = InstanceLayout::new(p);
    let deps = analysed(p, &layout);
    let mut shapes = Vec::new();
    if let Some(l) = tiling::innermost_reuse_loop(p) {
        let r = tiling::split(p, l, 16).expect("split");
        shapes.push((
            format!("tile({})", p.loop_decl(l).name),
            r.program,
            r.layout,
        ));
    }
    for l in p.loops() {
        for split in 1..p.loop_decl(l).children.len() {
            let r = distribute(p, &layout, l, split).expect("distribute");
            let label = format!("dist({}@{split})", p.loop_decl(l).name);
            if check_structural(p, &layout, &deps, &r, &label).expect("distribution test") {
                shapes.push((label, r.target, r.target_layout));
            }
        }
    }
    let parents: Vec<Option<LoopId>> = std::iter::once(None).chain(p.loops().map(Some)).collect();
    for parent in parents {
        let siblings = match parent {
            None => p.root(),
            Some(q) => &p.loop_decl(q).children,
        };
        for idx in 0..siblings.len().saturating_sub(1) {
            if let (Node::Loop(_), Node::Loop(_)) = (siblings[idx], siblings[idx + 1]) {
                let Ok(r) = jam(p, &layout, parent, idx) else {
                    continue;
                };
                let label = format!("jam({idx})");
                if check_structural(p, &layout, &deps, &r, &label).expect("jamming test") {
                    shapes.push((label, r.target, r.target_layout));
                }
            }
        }
    }
    shapes.insert(0, (String::new(), p.clone(), layout));
    shapes
}

#[test]
fn cold_warm_and_bypassed_agree_on_every_zoo_shape() {
    let _g = begin();
    let mut kinds = std::collections::BTreeSet::new();
    for (name, build) in zoo::ALL {
        for (label, p, layout) in scheduler_shapes(&build()) {
            let what = format!("{name} {label}");
            kinds.insert(label.split('(').next().unwrap().to_string());
            let truth = bypassed(&p, &layout);

            inl_poly::cache::clear();
            assert_eq!(memo_stats().entries, 0, "{what}: clear() empties the memo");
            let before = memo_stats();
            let cold = analysed(&p, &layout);
            assert_eq!(gained(before), (0, 1), "{what}: cold call must miss");
            let warm = analysed(&p, &layout);
            // an equal program built separately is the same key
            let again = analysed(&p.clone(), &InstanceLayout::new(&p));
            assert_eq!(gained(before), (2, 1), "{what}: warm calls must hit");
            assert_eq!(memo_stats().entries, 1, "{what}");

            assert_eq!(cold, truth, "{what}: cold differs from bypassed");
            assert_eq!(warm, truth, "{what}: warm differs from bypassed");
            assert_eq!(
                again, truth,
                "{what}: rebuilt program differs from bypassed"
            );

            inl_poly::cache::clear();
            let before = memo_stats();
            assert_eq!(analysed(&p, &layout), truth, "{what}: after clear()");
            assert_eq!(gained(before), (0, 1), "{what}: clear() must force a miss");
        }
    }
    let kinds: Vec<&str> = kinds.iter().map(String::as_str).collect();
    assert_eq!(kinds, ["", "dist", "jam", "tile"], "shape kinds covered");
}

/// `zoo::simple_cholesky` with one knob per thing the analysis reads.
struct Cholesky {
    name: &'static str,
    /// `J` runs from `I + j_from`.
    j_from: Int,
    /// `S2` writes `A(J + write_shift)`.
    write_shift: Int,
    /// Assume `N ≥ this`.
    assume_n_at_least: Option<Int>,
    /// `S1` follows the `J` loop instead of preceding it.
    s1_last: bool,
}

impl Cholesky {
    const ZOO: Cholesky = Cholesky {
        name: "simple_cholesky",
        j_from: 1,
        write_shift: 0,
        assume_n_at_least: None,
        s1_last: false,
    };

    fn build(&self) -> Program {
        let mut b = ProgramBuilder::new(self.name);
        let n = b.param("N");
        if let Some(min) = self.assume_n_at_least {
            b.assume(Aff::param(n) - Aff::konst(min));
        }
        let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            let s1 = |b: &mut ProgramBuilder| {
                let rhs = Expr::sqrt(Expr::read(a, vec![Aff::var(i)]));
                b.stmt("S1", a, vec![Aff::var(i)], rhs);
            };
            if !self.s1_last {
                s1(b);
            }
            let lo = Aff::var(i) + Aff::konst(self.j_from);
            b.hloop("J", lo, Aff::param(n), |b| {
                let j = b.loop_var("J");
                b.stmt(
                    "S2",
                    a,
                    vec![Aff::var(j) + Aff::konst(self.write_shift)],
                    Expr::div(
                        Expr::read(a, vec![Aff::var(j)]),
                        Expr::read(a, vec![Aff::var(i)]),
                    ),
                );
            });
            if self.s1_last {
                s1(b);
            }
        });
        b.finish()
    }
}

#[test]
fn a_structural_edit_never_hits_another_programs_entry() {
    let _g = begin();
    let base = zoo::simple_cholesky();
    assert_eq!(Cholesky::ZOO.build(), base, "the knobs at rest are the zoo");
    let base_layout = InstanceLayout::new(&base);
    let before = memo_stats();
    let base_deps = analysed(&base, &base_layout);
    // two programs from one constructor are one key
    let twin = zoo::simple_cholesky();
    assert_eq!(analysed(&twin, &InstanceLayout::new(&twin)), base_deps);
    assert_eq!(gained(before), (1, 1));

    let mut guarded = base.clone();
    let s2 = guarded.stmts().nth(1).unwrap();
    let j = inl_ir::VarKey::Loop(guarded.loops().nth(1).unwrap());
    guarded.stmts_guard_push(s2, Guard::Ge(Aff::var(j) - Aff::konst(3)));
    let edits = [
        (
            "loop bound",
            Cholesky {
                j_from: 0,
                ..Cholesky::ZOO
            }
            .build(),
        ),
        ("guard", guarded),
        (
            "subscript",
            Cholesky {
                write_shift: 1,
                ..Cholesky::ZOO
            }
            .build(),
        ),
        (
            "assume",
            Cholesky {
                assume_n_at_least: Some(2),
                ..Cholesky::ZOO
            }
            .build(),
        ),
        (
            "statement order",
            Cholesky {
                s1_last: true,
                ..Cholesky::ZOO
            }
            .build(),
        ),
    ];
    for (what, edited) in &edits {
        assert_eq!(
            edited.name(),
            base.name(),
            "{what}: the name is not the key"
        );
        let layout = InstanceLayout::new(edited);
        let before = memo_stats();
        let deps = analysed(edited, &layout);
        assert_eq!(
            gained(before),
            (0, 1),
            "{what}: an edited program must miss"
        );
        assert_ne!(deps, base_deps, "{what}: answered with the zoo's matrix");
        assert_eq!(
            deps,
            bypassed(edited, &layout),
            "{what}: not its own matrix"
        );
        assert_eq!(analysed(edited, &layout), deps, "{what}");
        assert_eq!(
            gained(before),
            (1, 1),
            "{what}: the edited program hits itself"
        );
    }

    // `Program: Eq` is faithful, so a rename is a different key too; the
    // analysis reads no name, so the matrix it computes is the same.
    let renamed = Cholesky {
        name: "renamed",
        ..Cholesky::ZOO
    }
    .build();
    let before = memo_stats();
    assert_eq!(
        analysed(&renamed, &InstanceLayout::new(&renamed)),
        base_deps
    );
    assert_eq!(gained(before), (0, 1), "a renamed program must miss");

    // The layout is part of the key: same program, edge rows swapped.
    let mut positions = base_layout.positions().to_vec();
    assert!(matches!(positions[1], Position::Edge { .. }));
    assert!(matches!(positions[2], Position::Edge { .. }));
    positions.swap(1, 2);
    let custom = InstanceLayout::with_positions(&base, positions);
    let before = memo_stats();
    let custom_deps = analysed(&base, &custom);
    assert_eq!(gained(before), (0, 1), "a custom layout must miss");
    assert_ne!(custom_deps, base_deps);
    assert_eq!(custom_deps, bypassed(&base, &custom));
    // ... and did not displace the canonical layout's entry.
    let before = memo_stats();
    assert_eq!(analysed(&base, &base_layout), base_deps);
    assert_eq!(gained(before), (1, 0));
}

#[test]
fn hits_share_the_stored_columns_and_a_bypass_shares_nothing() {
    let _g = begin();
    for (name, build) in zoo::ALL {
        let p = build();
        let layout = InstanceLayout::new(&p);
        let truth = bypassed(&p, &layout);
        let stored = analysed(&p, &layout);
        // two hits on equal programs built separately
        let twin = build();
        let (first, second) = (
            analysed(&twin, &InstanceLayout::new(&twin)),
            analysed(&p, &layout),
        );
        assert!(
            Arc::ptr_eq(&first.deps, &stored.deps),
            "{name}: a hit copied"
        );
        assert!(Arc::ptr_eq(&first.deps, &second.deps), "{name}");
        assert_eq!(first, truth, "{name}: a hit differs from the analysis");

        inl_poly::cache::set_cache_enabled(false);
        let (a, b) = (analysed(&p, &layout), analysed(&p, &layout));
        inl_poly::cache::set_cache_enabled(true);
        assert!(!Arc::ptr_eq(&a.deps, &b.deps), "{name}: bypasses share");
        assert!(!Arc::ptr_eq(&a.deps, &stored.deps), "{name}: a bypass hit");
        assert_eq!((&a, &b), (&truth, &truth), "{name}");
    }
}

#[test]
fn racing_threads_on_a_cold_program_agree_and_leave_one_entry() {
    let _g = begin();
    const THREADS: usize = 8;
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let truth = bypassed(&p, &layout);
    inl_poly::cache::clear();
    let before = memo_stats();
    let barrier = Barrier::new(THREADS);
    let results: Vec<DependenceMatrix> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    analysed(&p, &layout)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for deps in &results {
        assert_eq!(*deps, truth);
    }
    let (hits, misses) = gained(before);
    assert_eq!(hits + misses, THREADS as u64);
    assert!(misses >= 1, "someone has to compute it");
    assert_eq!(
        memo_stats().entries,
        1,
        "racing inserts of one key collapse"
    );
}

/// A one-loop recurrence whose upper bound is `N - k`: cheap to analyse,
/// distinct for every `k`.
fn recurrence(k: Int) -> Program {
    let mut b = ProgramBuilder::new("recurrence");
    let n = b.param("N");
    let a = b.array("A", &[Aff::param(n) + Aff::konst(1)]);
    b.hloop("I", Aff::konst(1), Aff::param(n) - Aff::konst(k), |b| {
        let i = b.loop_var("I");
        b.stmt(
            "S1",
            a,
            vec![Aff::var(i)],
            Expr::read(a, vec![Aff::var(i) - Aff::konst(1)]),
        );
    });
    b.finish()
}

#[test]
fn the_memo_is_bounded_by_a_counted_generation_flush() {
    let _g = begin();
    let analysed_k = |k: Int| {
        let p = recurrence(k);
        let layout = InstanceLayout::new(&p);
        (analysed(&p, &layout), p, layout)
    };
    let before = memo_stats();
    let (first, ..) = analysed_k(0);
    for k in 1..MEMO_CAP as Int {
        analysed_k(k);
    }
    let full = memo_stats();
    assert_eq!(full.entries, MEMO_CAP as u64);
    assert_eq!(full.evictions, before.evictions, "no flush below the cap");
    assert_eq!(gained(before), (0, MEMO_CAP as u64));

    // One more distinct program: the whole generation goes, it stays.
    let (over, p, layout) = analysed_k(MEMO_CAP as Int);
    let flushed = memo_stats();
    assert_eq!(flushed.entries, 1);
    assert_eq!(flushed.evictions, before.evictions + MEMO_CAP as u64);
    assert_eq!(over, bypassed(&p, &layout));
    assert_eq!(analysed(&p, &layout), over);
    assert_eq!(gained(flushed), (1, 0), "the newcomer is stored");
    // A flushed program is analysed again, to the same answer.
    let before = memo_stats();
    assert_eq!(analysed_k(0).0, first);
    assert_eq!(gained(before), (0, 1));
}
