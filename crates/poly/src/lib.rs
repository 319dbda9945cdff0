//! # inl-poly
//!
//! Affine constraint systems and exact integer linear arithmetic for the
//! `inl` loop-transformation framework.
//!
//! This crate plays the role the **Omega toolkit** [Pugh 1992] plays in the
//! paper: dependence analysis builds a system of integer linear constraints
//! (loop bounds, subscript equality, precedence), then *projects* it onto the
//! dependence-difference variables Δ to extract distance/direction
//! information, and *decides feasibility* to prune non-existent dependences.
//! Code generation uses the same machinery to compute transformed loop
//! bounds (Fourier–Motzkin elimination in the manner of Ancourt & Irigoin).
//!
//! The central types:
//!
//! * [`LinExpr`] — a linear expression `Σ aᵢ·xᵢ + c` over indexed variables;
//! * [`System`] — a conjunction of equalities (`= 0`) and inequalities
//!   (`≥ 0`), with normalization and gcd-based integer tightening;
//! * [`fm`] — Fourier–Motzkin elimination, projection, per-variable bounds,
//!   and an Omega-style feasibility test (real shadow + exactness tracking +
//!   dark shadow); feasibility and entry bounds of a *difference system*
//!   (every row `±x + k` or `x − y + k`) are read off shortest paths
//!   instead, with the same answers;
//! * [`bounds`] — extraction of loop bounds (`max`/`min` of affine forms
//!   with ceiling/floor divisions) for code generation;
//! * [`cache`] — the switch and epoch of the compile side's one memo, the
//!   dependence-analysis memo in `inl_core::depend`; every query here is
//!   answered from [`System::canonicalized`] form each time it is asked.
//!
//! # Example: the paper's §3 dependence system
//!
//! ```
//! use inl_poly::{LinExpr, System};
//!
//! // variables: 0:N, 1:Iw, 2:Ir, 3:Jr
//! let mut sys = System::new(4);
//! sys.add_ge(LinExpr::var(4, 1) - LinExpr::constant(4, 1));        // Iw >= 1
//! sys.add_ge(LinExpr::var(4, 0) - LinExpr::var(4, 1));             // Iw <= N
//! sys.add_ge(LinExpr::var(4, 2) - LinExpr::constant(4, 1));        // Ir >= 1
//! sys.add_ge(LinExpr::var(4, 0) - LinExpr::var(4, 2));             // Ir <= N
//! sys.add_ge(LinExpr::var(4, 3) - LinExpr::var(4, 2) - LinExpr::constant(4, 1)); // Jr > Ir
//! sys.add_ge(LinExpr::var(4, 0) - LinExpr::var(4, 3));             // Jr <= N
//! sys.add_eq(LinExpr::var(4, 2) - LinExpr::var(4, 1));             // same location: Ir = Iw
//! // Δ2 = Jr - Iw has lower bound 1 and no upper bound: direction "+"
//! let delta2 = LinExpr::var(4, 3) - LinExpr::var(4, 1);
//! let (lo, hi) = inl_poly::fm::expr_bounds(&sys, &delta2).unwrap();
//! assert_eq!(lo, Some(1));
//! assert_eq!(hi, None);
//! ```

#![warn(missing_docs)]

pub mod bounds;
pub mod cache;
pub mod difference;
pub mod expr;
pub mod fm;
pub mod system;

pub use bounds::{project_scan, scan_bounds, BoundTerm, VarBounds};
pub use cache::{cache_enabled, set_cache_enabled, CacheStats};
pub use expr::LinExpr;
pub use fm::{eliminate, expr_bounds, is_empty, project, var_bounds, Feasibility};
pub use system::System;

pub use inl_linalg::{InlError, InlErrorKind, Int};
