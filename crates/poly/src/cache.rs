//! Process-wide memoization of the expensive polyhedral queries.
//!
//! Fourier–Motzkin projection, integer feasibility, and variable-bounds
//! queries ([`crate::fm`]) dominate the pipeline's compile-side time, and
//! the same sub-systems recur constantly: every statement pair in
//! dependence analysis shares bound constraints, every legality check
//! re-tests prefixes of the same dependence polyhedron, and a variant
//! sweep re-analyzes one source program twelve times. This module caches
//! query answers keyed by the *canonical form* of the constraint system
//! ([`crate::System::canonicalized`]) plus the query, so systems built
//! along different paths still share work.
//!
//! Correctness by construction: canonicalization runs unconditionally
//! inside the public `fm` entry points — with the cache on or off, every
//! query is answered as a deterministic function of the canonical system,
//! so disabling the cache ([`set_cache_enabled`]`(false)`) changes speed,
//! never answers. A difference system's feasibility and entry bounds are
//! answered by shortest paths before canonicalization (see [`crate::fm`])
//! and never reach the cache.
//!
//! The cache is a bounded map: when it reaches [`CACHE_CAP`] entries it is
//! cleared in one deterministic generation flush (no LRU order to depend
//! on timing), and the flushed entry count is reported as evictions.
//! Telemetry: `poly.cache.hit` / `poly.cache.miss` /
//! `poly.cache.insertions` / `poly.cache.evictions` counters via
//! [`inl_obs`], plus always-on local [`CacheStats`] for callers that want
//! hit rates without enabling observability.

use crate::fm::Feasibility;
use crate::System;
use inl_linalg::{InlError, Int};
use inl_obs::counter_add;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Entry cap: one deterministic full flush ("generation" eviction) when
/// reached. Generous enough that real pipelines never flush; the bound
/// exists so pathological sweeps cannot grow without limit.
pub const CACHE_CAP: usize = 32_768;

/// A memoizable query against a canonicalized [`System`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum Query {
    /// [`crate::fm::project`] onto these kept variables (sorted, deduped).
    Project(Vec<usize>),
    /// [`crate::fm::is_empty`] integer feasibility.
    Feasibility,
    /// [`crate::fm::var_bounds`] for one variable.
    VarBounds(usize),
}

/// The memoized answer for a [`Query`]. Fallible queries cache the whole
/// `Result`: an overflow or budget error is a deterministic function of
/// the canonical system, so re-asking must re-fail identically (and
/// cheaply).
#[derive(Clone)]
pub(crate) enum Answer {
    Project(Result<(System, bool), InlError>),
    Feasibility(Feasibility),
    VarBounds(Result<(Option<Int>, Option<Int>), InlError>),
}

/// Monotonic counters describing cache behaviour since process start (or
/// the last [`reset_stats`]). Tracked unconditionally — independent of
/// `inl-obs` enablement — so benchmark drivers can compute hit rates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute (cache enabled but entry absent).
    pub misses: u64,
    /// Entries written into the map.
    pub insertions: u64,
    /// Entries dropped by generation flushes at [`CACHE_CAP`].
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all cache-enabled queries (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Render as a JSON object — the shape shared by the report binary's
    /// `poly_cache` section and `inl-serve`'s `stats` response, so both
    /// views of the process-wide cache stay comparable.
    pub fn to_json(&self) -> inl_obs::Json {
        let mut o = inl_obs::Json::object();
        o.insert("enabled", inl_obs::Json::Bool(cache_enabled()));
        o.insert("hits", inl_obs::Json::Int(self.hits));
        o.insert("misses", inl_obs::Json::Int(self.misses));
        o.insert("insertions", inl_obs::Json::Int(self.insertions));
        o.insert("evictions", inl_obs::Json::Int(self.evictions));
        o.insert("entries", inl_obs::Json::Int(self.entries));
        o.insert("hit_rate", inl_obs::Json::Float(self.hit_rate()));
        o
    }
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INSERTIONS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

static ENABLED: AtomicBool = AtomicBool::new(true);
static EPOCH: AtomicU64 = AtomicU64::new(0);

fn map() -> &'static Mutex<HashMap<(System, Query), Answer>> {
    static MAP: OnceLock<Mutex<HashMap<(System, Query), Answer>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

/// True iff memoization is active (the default; canonicalization runs
/// either way, so answers are unaffected).
pub fn cache_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable memoization. Used by the benchmark driver and the
/// differential tests to compare cached and uncached runs in one process.
pub fn set_cache_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drop every cached entry (stats are kept; see [`reset_stats`]), and
/// start a new [`epoch`] so memos layered on this cache drop theirs.
pub fn clear() {
    map().lock().unwrap().clear();
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// Number of [`clear`] calls so far. A memo in a crate above this one (the
/// dependence-analysis memo in `inl-core`) stamps its entries with the
/// epoch it filled them in and discards them once the epoch has moved, so
/// `clear()` makes the whole compile side cold without knowing who
/// memoises on top of it.
pub fn epoch() -> u64 {
    EPOCH.load(Ordering::Relaxed)
}

/// Zero the [`CacheStats`] counters (the map itself is kept).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    INSERTIONS.store(0, Ordering::Relaxed);
    EVICTIONS.store(0, Ordering::Relaxed);
}

/// Snapshot the cache counters as JSON (see [`CacheStats::to_json`]).
pub fn stats_json() -> inl_obs::Json {
    stats().to_json()
}

/// Snapshot the cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        insertions: INSERTIONS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        entries: map().lock().unwrap().len() as u64,
    }
}

/// Insert with the generation-flush bound: when the map is full, clear it
/// wholesale (deterministic, no recency ordering) and count the dropped
/// entries as evictions. Returns the number of evicted entries. Public so
/// the memos layered on this cache (see [`epoch`]) are bounded by the same
/// rule, not a copy of it.
pub fn insert_bounded<K: Eq + Hash, V>(
    map: &mut HashMap<K, V>,
    key: K,
    value: V,
    cap: usize,
) -> usize {
    let mut evicted = 0;
    if map.len() >= cap {
        evicted = map.len();
        map.clear();
    }
    map.insert(key, value);
    evicted
}

/// Answer `query` about the already-canonicalized system `canon`, consulting
/// the memo cache when enabled. `compute` must be a pure function of its
/// argument; it runs outside the cache lock, so two threads racing on the
/// same cold key may both compute (both count as misses, last write wins —
/// harmless because answers are equal).
pub(crate) fn memo<F>(canon: System, query: Query, compute: F) -> Answer
where
    F: FnOnce(&System) -> Answer,
{
    if !cache_enabled() {
        return compute(&canon);
    }
    let key = (canon, query);
    if let Some(hit) = map().lock().unwrap().get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        counter_add!("poly.cache.hit", 1);
        return hit.clone();
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    counter_add!("poly.cache.miss", 1);
    let answer = compute(&key.0);
    let evicted = insert_bounded(&mut map().lock().unwrap(), key, answer.clone(), CACHE_CAP);
    INSERTIONS.fetch_add(1, Ordering::Relaxed);
    counter_add!("poly.cache.insertions", 1);
    if evicted > 0 {
        EVICTIONS.fetch_add(evicted as u64, Ordering::Relaxed);
        counter_add!("poly.cache.evictions", evicted as u64);
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_empty, var_bounds, LinExpr};
    use std::sync::Mutex;

    /// Cache state is process-global; tests that toggle or measure it must
    /// not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// `2y ≥ x`: a row with a coefficient of 2, so every query on a
    /// system holding it reaches the cache (difference systems are
    /// answered before it).
    fn half(s: &mut System) {
        s.add_ge(LinExpr::var(2, 1) * 2 - LinExpr::var(2, 0));
    }

    /// `lo ≤ x ≤ hi` and `2y ≥ x`: `x` ranges over `[lo, hi]`.
    fn interval(lo: Int, hi: Int) -> System {
        let mut s = System::new(2);
        s.add_ge(LinExpr::var(2, 0) - LinExpr::constant(2, lo));
        s.add_ge(LinExpr::constant(2, hi) - LinExpr::var(2, 0));
        half(&mut s);
        s
    }

    #[test]
    fn repeat_query_hits() {
        let _g = TEST_LOCK.lock().unwrap();
        set_cache_enabled(true);
        clear();
        reset_stats();
        let s = interval(3, 17);
        assert_eq!(var_bounds(&s, 0), Ok((Some(3), Some(17))));
        let before = stats();
        assert_eq!(var_bounds(&s, 0), Ok((Some(3), Some(17))));
        let after = stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn differently_built_systems_share_entries() {
        let _g = TEST_LOCK.lock().unwrap();
        set_cache_enabled(true);
        clear();
        reset_stats();
        // Same constraint set, different insertion order and a redundant row.
        let mut a = System::new(2);
        a.add_ge(LinExpr::var(2, 0) - LinExpr::constant(2, 2));
        a.add_ge(LinExpr::constant(2, 9) - LinExpr::var(2, 0));
        half(&mut a);
        let mut b = System::new(2);
        half(&mut b);
        b.add_ge(LinExpr::constant(2, 9) - LinExpr::var(2, 0));
        b.add_ge(LinExpr::var(2, 0) - LinExpr::constant(2, 2));
        b.add_ge(LinExpr::var(2, 0)); // dominated by x >= 2
        assert_eq!(is_empty(&a), is_empty(&b));
        let s = stats();
        assert_eq!(s.hits, 1, "second system must reuse the first's entry");
    }

    #[test]
    fn disabled_cache_neither_hits_nor_inserts() {
        let _g = TEST_LOCK.lock().unwrap();
        set_cache_enabled(false);
        clear();
        reset_stats();
        let s = interval(0, 5);
        let uncached = var_bounds(&s, 0);
        let again = var_bounds(&s, 0);
        assert_eq!(uncached, again);
        let st = stats();
        assert_eq!((st.hits, st.misses, st.insertions), (0, 0, 0));
        set_cache_enabled(true);
    }

    #[test]
    fn stats_json_snapshot_has_the_report_shape() {
        let _g = TEST_LOCK.lock().unwrap();
        set_cache_enabled(true);
        clear();
        reset_stats();
        let s = interval(0, 9);
        let _ = var_bounds(&s, 0); // miss + insert
        let _ = var_bounds(&s, 0); // hit
        let j = stats_json();
        assert_eq!(j.get("enabled"), Some(&inl_obs::Json::Bool(true)));
        // Counters are process-global and sibling tests also query the
        // cache, so assert monotone facts, not exact counts: the cold call
        // must miss, the identical warm call must hit.
        let hits = j.get("hits").and_then(inl_obs::Json::as_u64).unwrap();
        let misses = j.get("misses").and_then(inl_obs::Json::as_u64).unwrap();
        assert!(hits >= 1, "warm call must hit");
        assert!(misses >= 1, "cold call must miss");
        let rate = match j.get("hit_rate") {
            Some(inl_obs::Json::Float(f)) => *f,
            other => panic!("hit_rate should be a float, got {other:?}"),
        };
        assert!(rate > 0.0 && rate <= 1.0, "rate {rate}");
        // Every key the report binary's poly_cache section publishes.
        for key in ["insertions", "evictions", "entries"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn generation_flush_counts_evictions() {
        let mut m = HashMap::new();
        let mk = |c: Int| (interval(0, c).canonicalized(), Query::Feasibility);
        for i in 0..3 {
            assert_eq!(
                insert_bounded(&mut m, mk(i), Answer::Feasibility(Feasibility::NonEmpty), 3),
                0
            );
        }
        assert_eq!(m.len(), 3);
        // Fourth insert hits the cap: whole generation flushed, then inserted.
        assert_eq!(
            insert_bounded(&mut m, mk(3), Answer::Feasibility(Feasibility::NonEmpty), 3),
            3
        );
        assert_eq!(m.len(), 1);
    }
}
