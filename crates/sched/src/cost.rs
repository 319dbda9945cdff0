//! The variant-ranking key.
//!
//! [`Cost`] projects [`inl_codegen::CostFeatures`] onto an ordered tuple;
//! variants compare lexicographically, field by field, smaller is better.
//! The first three fields form the [`Leading`] key:
//!
//! 1. `neg_tile_reuse` — blocked-reuse credit (stored negated so more
//!    confined slabs sort first). This must lead: a split deepens the
//!    nest, so the depth-weighted `reuse_penalty` *grows* under tiling
//!    even when the tile confines a row-jumped slab to cache — the one
//!    effect tiling exists for. Every untiled variant scores 0 here, so
//!    their relative order is decided by the remaining fields exactly as
//!    before;
//! 2. `reuse_penalty` — depth-weighted locality penalty (dominant among
//!    untiled variants: it separates unit-stride inner loops from
//!    row-jumping ones, the effect the paper's "performance can be quite
//!    different" remark is about);
//! 3. `max_write_stride` — prefer dense, unit-stride stores;
//!
//! and the last two need the finished variant:
//!
//! 4. `guards` — each guard surviving simplification is a per-instance
//!    branch;
//! 5. `neg_parallel_slots` — with everything else equal, prefer the
//!    variant certifying more DOALL loop slots.
//!
//! The split is what the two-stage ranking rests on. The leading fields
//! read only the generated program's loop bounds, subscripts and nesting
//! ([`inl_codegen::AccessFeatures`]), which guard simplification does not
//! touch, so they are known for a variant whose guards were never
//! simplified; and because the order is lexicographic, fields 4–5 can
//! only ever reorder variants *tied* on the leading key. The scheduler
//! therefore ranks every leaf on [`Leading`] and computes a full [`Cost`]
//! only inside the class tied at the minimum.
//!
//! Ties after all five fields are broken on reversal count, then on the
//! variant label, making the chosen variant deterministic for a given
//! program and configuration.

use inl_codegen::{AccessFeatures, CostFeatures};
use std::fmt;

/// The simplification-invariant head of the ranking key (see the module
/// docs; field order is the comparison order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Leading {
    /// Negated blocked-reuse credit ([`CostFeatures::tile_reuse`]).
    pub neg_tile_reuse: i64,
    /// Depth-weighted locality penalty ([`CostFeatures::reuse_penalty`]).
    pub reuse_penalty: i64,
    /// Largest write-subscript loop coefficient.
    pub max_write_stride: i64,
}

impl Leading {
    /// Project a built variant's access features onto the leading key.
    pub fn of(f: &AccessFeatures) -> Leading {
        Leading {
            neg_tile_reuse: -f.tile_reuse,
            reuse_penalty: f.reuse_penalty,
            max_write_stride: f.max_write_stride,
        }
    }
}

impl fmt::Display for Leading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tile={} reuse={} stride={}",
            -self.neg_tile_reuse, self.reuse_penalty, self.max_write_stride
        )
    }
}

/// Lexicographic ranking key of one finished variant (see the module
/// docs; field order is the comparison order).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cost {
    /// The three fields every leaf is ranked on.
    pub leading: Leading,
    /// Guards surviving simplification.
    pub guards: i64,
    /// Negated count of certified DOALL slots.
    pub neg_parallel_slots: i64,
}

impl Cost {
    /// Project the features onto the ranking key.
    pub fn of(f: &CostFeatures) -> Cost {
        Cost {
            leading: Leading::of(&f.access()),
            guards: f.guards,
            neg_parallel_slots: -f.parallel_slots(),
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} guards={} doall={}",
            self.leading, self.guards, -self.neg_parallel_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let base = Cost {
            leading: Leading {
                neg_tile_reuse: 0,
                reuse_penalty: 10,
                max_write_stride: 1,
            },
            guards: 0,
            neg_parallel_slots: 0,
        };
        let worse_locality = Cost {
            leading: Leading {
                reuse_penalty: 11,
                max_write_stride: 0,
                ..base.leading
            },
            guards: 0,
            neg_parallel_slots: -3,
        };
        assert!(base < worse_locality, "locality dominates everything");
        let more_parallel = Cost {
            neg_parallel_slots: -1,
            ..base.clone()
        };
        assert!(more_parallel < base, "parallelism breaks exact ties");
        // blocked reuse outranks even a much smaller locality penalty:
        // the deeper tiled nest necessarily inflates reuse_penalty
        let tiled = Cost {
            leading: Leading {
                neg_tile_reuse: -1,
                reuse_penalty: 1_000_000,
                ..base.leading
            },
            ..base.clone()
        };
        assert!(tiled < base, "tile reuse dominates the ranking");
        // the tail can only reorder variants tied on the leading key
        let fewer_guards = Cost {
            guards: -5,
            ..worse_locality.clone()
        };
        assert!(base < fewer_guards, "no tail outranks a leading field");
    }
}
