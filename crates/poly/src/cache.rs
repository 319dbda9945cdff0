//! The compile side's memo switch and epoch.
//!
//! `inl-poly` memoises nothing: [`crate::fm`] answers every query from the
//! canonical system ([`crate::System::canonicalized`]) each time it is
//! asked. The compile side's memos are the two tables of `inl_core::memo`
//! (dependence analyses and statement plans), which read the two
//! process-wide values kept here: the switch ([`set_cache_enabled`]`(false)`
//! bypasses both) and the epoch ([`clear`] starts a new one, and each
//! drops entries stored under an older one). EXPERIMENTS.md E9 has the measurement that
//! retired the query cache this module once held.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Always zero: the query cache these counters described is gone. They
/// stay only because the system benchmark reads [`stats`] for its
/// `poly.cache.*` rows, until its next re-anchor deletes both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups: always 0.0.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Always-zero [`CacheStats`] (see there).
pub fn stats() -> CacheStats {
    CacheStats::default()
}

/// True iff the compile-side memo is on (the default). Answers are the
/// same either way.
pub fn cache_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the compile-side memo on or off. Used by the benchmark driver and
/// the differential tests to compare memoised and unmemoised runs in one
/// process.
pub fn set_cache_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Start a new [`epoch`], so the memos that stamp their entries with it
/// drop what they hold: the whole compile side goes cold.
pub fn clear() {
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// Number of [`clear`] calls so far. A memo in a crate above this one (the
/// tables of `inl_core::memo`) stamps its entries with the
/// epoch it filled them in and discards them once the epoch has moved, so
/// `clear()` makes the whole compile side cold without knowing who
/// memoises.
pub fn epoch() -> u64 {
    EPOCH.load(Ordering::Relaxed)
}
