//! # inl-core
//!
//! The primary contribution of *Kodukula & Pingali, "Transformations for
//! Imperfectly Nested Loops" (SC 1996)*: a linear-algebraic framework in
//! which **imperfectly nested** loops — matrix factorizations being the
//! motivating family — can be permuted, skewed, reversed, scaled, aligned,
//! reordered, distributed and jammed by integer matrices, just as perfectly
//! nested loops are in the classical unimodular framework.
//!
//! The module structure follows the paper:
//!
//! * [`instance`] (§2) — **instance vectors**: dynamic statement instances
//!   of an imperfectly nested loop mapped to equal-length integer vectors
//!   whose lexicographic order is execution order, including the
//!   single-edge ε optimization and the "diagonal embedding" padding;
//! * [`depend`] (§3) — dependence analysis over instance vectors using the
//!   `inl-poly` integer-programming substrate: distance/direction vectors
//!   and the retained dependence polyhedra;
//! * [`transform`] (§4) — matrices for permutation, reversal, skewing,
//!   scaling, statement reordering and alignment;
//! * [`structural`] (§4.2) — the non-square matrices for loop distribution
//!   and jamming, together with the corresponding AST surgery;
//! * [`tiling`] — loop splitting (strip-mining), a structural pre-pass
//!   *outside* the paper's matrix framework, proved legal through the
//!   same dependence-projection machinery;
//! * [`legal`] (§5.1–5.3) — block-structure validation, recovery of the
//!   transformed AST (Fig. 6), and the legality test of Definition 6 (fast
//!   interval arithmetic over direction entries, with an exact polyhedral
//!   fallback) for square and structural matrices alike;
//! * [`perstmt`] (§5.4) — per-statement transformations, the `Complete`
//!   augmentation procedure (Fig. 7), and non-singular per-statement
//!   transforms `N_S` (§5.5);
//! * [`complete`] (§6) — the completion procedure: extend a partial
//!   transformation (a few desired rows) to a complete legal matrix;
//! * [`recipe`] — variant recipes: a structural step and a signed loop
//!   order, the label the scheduler prints and the service reads;
//! * [`parallel`] (§7) — parallel loop discovery via the nullspace of the
//!   dependence matrix;
//! * [`sink`] — the classical statement-sinking baseline the paper's §4.1
//!   contrasts against (with its two failure modes made explicit).
//!
//! # Example: permuting the simplified Cholesky nest
//!
//! ```
//! use inl_core::depend::analyze;
//! use inl_core::instance::InstanceLayout;
//! use inl_core::legal::check_legal;
//! use inl_core::transform::Transform;
//! use inl_ir::zoo;
//!
//! let p = zoo::simple_cholesky();
//! let layout = InstanceLayout::new(&p);
//! let deps = analyze(&p, &layout)?;
//! let loops: Vec<_> = p.loops().collect();
//! // §4.1's I↔J interchange, combined with statement reordering so the
//! // column updates precede the pivot (the left-looking form):
//! let m = Transform::compose(&p, &layout, &[
//!     Transform::ReorderChildren { parent: Some(loops[0]), perm: vec![1, 0] },
//!     Transform::Interchange(loops[0], loops[1]),
//! ]).unwrap();
//! let report = check_legal(&p, &layout, &deps, &m)?;
//! assert!(report.is_legal());
//! # Ok::<(), inl_linalg::InlError>(())
//! ```

pub mod complete;
pub mod depend;
pub mod instance;
pub mod legal;
pub mod memo;
pub mod parallel;
pub mod perstmt;
mod project;
pub mod provenance;
pub mod recipe;
pub mod sink;
pub mod structural;
pub mod tiling;
pub mod transform;

pub use depend::{analyze, DepEntry, DepKind, Dependence, DependenceMatrix};
pub use instance::{InstanceLayout, Position};
pub use legal::{check_legal, LegalityReport};
pub use transform::Transform;
