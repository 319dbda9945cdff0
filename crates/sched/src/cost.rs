//! The variant-ranking key.
//!
//! [`Cost`] projects [`inl_codegen::CostFeatures`] onto an ordered tuple;
//! variants compare field by field, smaller is better:
//!
//! 1. `predicted` — the variant's predicted cost
//!    ([`inl_codegen::PredictedCost::total`]: instances × per-trip cost plus
//!    innermost-loop entries × per-entry cost, one additive integer);
//! 2. `guards` — each guard surviving simplification is a per-instance
//!    branch;
//! 3. `neg_parallel_slots` — with everything else equal, prefer the
//!    variant certifying more DOALL loop slots.
//!
//! The split is what the two-stage ranking rests on. The predicted cost
//! reads only the generated program's loop bounds, subscripts and nesting,
//! the matrix and the shape's dependences, none of which guard
//! simplification touches, so it is known for a variant whose guards were
//! never simplified; and fields 2–3 can only ever reorder variants *tied*
//! on it. The scheduler therefore ranks every leaf on the predicted cost
//! and computes a full [`Cost`] only inside the class tied at the minimum.
//!
//! Ties after all three fields are broken on reversal count, then on the
//! variant label, making the chosen variant deterministic for a given
//! program and configuration.

use inl_codegen::CostFeatures;
use std::fmt;

/// Ranking key of one finished variant (see the module docs; field order
/// is the comparison order).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cost {
    /// The predicted cost every leaf is ranked on.
    pub predicted: i64,
    /// Guards surviving simplification.
    pub guards: i64,
    /// Negated count of certified DOALL slots.
    pub neg_parallel_slots: i64,
}

impl Cost {
    /// Project the features onto the ranking key.
    pub fn of(f: &CostFeatures) -> Cost {
        Cost {
            predicted: f.predicted.total(),
            guards: f.guards,
            neg_parallel_slots: -f.parallel_slots(),
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cost={} guards={} doall={}",
            self.predicted, self.guards, -self.neg_parallel_slots
        )
    }
}
