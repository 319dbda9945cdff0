//! # inl — transformations for imperfectly nested loops
//!
//! Umbrella crate re-exporting the whole framework (a reproduction of
//! Kodukula & Pingali, *Transformations for Imperfectly Nested Loops*,
//! SC 1996). See the individual crates for details:
//!
//! * [`linalg`] — exact integer/rational linear algebra
//! * [`poly`] — affine constraints, Fourier–Motzkin, integer feasibility
//! * [`ir`] — the loop-nest intermediate representation
//! * [`core`] — instance vectors, dependences, transformations, legality,
//!   completion
//! * [`codegen`] — code generation from transformation matrices
//! * [`exec`] — interpreter, traces, equivalence checks, parallel executor
//! * [`vm`] — compiling bytecode VM, the fast second execution backend
//! * [`obs`] — pipeline observability: spans, counters, reports

pub use inl_codegen as codegen;
pub use inl_core as core;
pub use inl_exec as exec;
pub use inl_ir as ir;
pub use inl_linalg as linalg;
pub use inl_obs as obs;
pub use inl_poly as poly;
pub use inl_vm as vm;

/// Commonly used items, for `use inl::prelude::*`.
pub mod prelude {
    pub use inl_codegen::generate;
    pub use inl_core::depend::DependenceMatrix;
    pub use inl_core::instance::InstanceLayout;
    pub use inl_core::legal::check_legal;
    pub use inl_core::transform::Transform;
    pub use inl_exec::{Interpreter, Machine};
    pub use inl_ir::{Program, ProgramBuilder};
    pub use inl_linalg::{IMat, IVec};
}
