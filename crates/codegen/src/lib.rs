//! # inl-codegen
//!
//! Code generation from legal transformation matrices (§5.4–5.5 of the
//! paper): turn a source [`inl_ir::Program`], its dependence matrix, and a
//! legal matrix `M` into a new executable [`inl_ir::Program`].
//!
//! The pipeline:
//!
//! 1. **Legality & AST** — [`inl_core::legal::check_legal`] recovers the
//!    transformed AST (child reorderings) and the self-dependences left
//!    unsatisfied; [`generate()`] runs it, while [`generate_with_report`]
//!    and the scheduler's [`PlanTable`] take the report a completion
//!    carries instead.
//! 2. **Per-statement schedules** — [`inl_core::perstmt`] builds each
//!    statement's (possibly augmented) transformation `T'_S`, its
//!    non-singular core `N_S`, and the singular-row combinations. With the
//!    statement's bounds and its body through `N_S⁻¹` (steps 3 and 5) this
//!    is the statement's *plan*, a function of the statement's own rows of
//!    `M` alone, so each distinct plan is made once per process: every
//!    plan is got from the plan memo (a table of
//!    [`inl_core::memo`], beside the analysis memo; [`plan_memo_stats`]),
//!    [`PlanTable`] asks it once per distinct plan of a shape's leaves, and
//!    the predicted cost ([`cost`]) is read off the plans before anything
//!    is emitted.
//! 3. **Bounds** — for every statement, the polyhedron `{domain(i), v =
//!    T'_S·i + off}` is projected onto `(params, v)` by Fourier–Motzkin and
//!    scanned (Ancourt–Irigoin) to get per-loop bounds
//!    ([`inl_poly::project_scan`], whose steps run on compact rows when
//!    every constraint is a difference row); bounds of loops
//!    shared by several statements are merged by proving pairwise `≤` under
//!    the program's parameter assumptions.
//! 4. **Guards** — exactness does not rely on the (possibly over-
//!    approximate) scan bounds: each statement gets guards that re-derive
//!    its original bounds through `i = N_S⁻¹(v − off)` (integer `Ge`
//!    guards after clearing denominators), divisibility guards when `N_S`
//!    is non-unimodular, and equality guards for singular rows (§5.5's
//!    `i_k = Σ m_j·i_j`). Before a leaf is emitted, the guards its
//!    statement's domain there implies (the merged bounds of its loops and
//!    those of its augmented loops) are dropped: one shortest-path closure
//!    of the domain when it is a difference system, Fourier–Motzkin
//!    feasibility otherwise. The verdict is a function of the plan's key
//!    and those merged bounds, so it is proved once per process (the guard
//!    memo, the third table of [`inl_core::memo`]; [`guard_memo_stats`]),
//!    and only for leaves that are built: ranking proves none.
//! 5. **Bodies** — subscripts and expressions are rewritten with the same
//!    `N_S⁻¹` substitution (exact rational, guarded divisors).
//!
//! The result executes **bitwise identically** to the source program — the
//! `inl-exec` interpreter enforces this throughout the test-suite.

pub mod batch;
pub mod cost;
pub mod generate;
mod plan;

pub use batch::{batch_map, compile_batch, CompiledVariant};
pub use cost::{CostFeatures, Executor, InnerLoop, PredictedCost, NOMINAL_EXTENT};
pub use generate::{generate, generate_seq, generate_with_report, CodegenResult};
pub use plan::{guard_memo_stats, plan_memo_stats, PlanTable, GUARD_CAP, PLAN_CAP};
