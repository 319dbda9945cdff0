//! The compile side's process-wide memo: one mechanism, one table per use.
//!
//! Three answers of the compile side are functions of a program and its
//! layout, plus a small key, and are asked for over and over: the
//! dependence matrix ([`crate::depend::analyze`], no further key), a
//! statement's code plan (`inl_codegen`'s plan table, keyed by the
//! statement's rows of `M`, their offsets and its pending self-dependences)
//! and a statement's proved guards in a leaf (`inl_codegen`'s guard table,
//! keyed by the plan's key and the merged bounds of the statement's loops).
//! A [`Memo`] stores such answers once per process:
//!
//! * **Key.** Values are shelved per *value* `(Program,
//!   layout.positions())` and, on a program's shelf, per key `K`. A shelf is
//!   found by the pair's hash (`MemoHasher`) and confirmed by `==` on the
//!   stored pair, so a program that differs in one bound, guard, subscript
//!   or assumption can never be answered with another's value; a colliding
//!   pair replaces the shelf. A [`Scope`] hashes its pair once (its
//!   [`sibling`](Scope::sibling) in another table reuses the hash) and, once
//!   it has confirmed a shelf, finds it again by the shelf's serial number.
//! * **Switch and epoch.** While `inl_poly::cache::cache_enabled()` is false
//!   there is no scope (the caller computes); `inl_poly::cache::clear()`
//!   starts a new epoch, and a memo drops what it stored under an older one
//!   the next time it is locked. Every memo of the compile side follows the
//!   one switch and the one `clear()`.
//! * **Bound.** At most `cap` values are stored over all shelves: storing a
//!   new one into a full memo first drops every shelf in one step (a
//!   *generation flush*, counted as evictions, with no recency order so
//!   nothing depends on timing). Storing a key that is already stored
//!   replaces its value in place.
//! * **Counters.** [`MemoStats`] (hits, misses, entries, evictions) are
//!   kept whether or not `inl-obs` is on; the caller mirrors them into its
//!   own `inl-obs` counter family, whose names are literals.
//!
//! Values are stored and handed out by `Clone`; every table stores shared
//! values (`Arc`s), so a hit allocates nothing. A miss computes outside the
//! lock: threads racing on one key all compute, and the last store wins.

use crate::instance::Position;
use inl_ir::Program;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A process-wide memo of values of type `V`, per program and layout and
/// per key `K` (module docs).
pub struct Memo<K, V> {
    cap: usize,
    state: OnceLock<Mutex<State<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct State<K, V> {
    /// [`inl_poly::cache::epoch`] under which `shelves` were stored.
    epoch: u64,
    /// Values stored, over every shelf: what the cap bounds.
    len: usize,
    /// The serial number the next shelf gets; 0 is never given.
    next_serial: u64,
    /// Shelves by the hash of their `(program, positions)`.
    shelves: HashMap<u64, Shelf<K, V>>,
}

/// The values stored for one program and layout.
struct Shelf<K, V> {
    serial: u64,
    program: Program,
    positions: Vec<Position>,
    values: HashMap<K, V, BuildHasherDefault<MemoHasher>>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo that stores at most `cap` values.
    pub const fn new(cap: usize) -> Self {
        Memo {
            cap,
            state: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The memo's values for `(p, positions)`, or `None` while the switch is
    /// off. Hashes the pair; locks nothing.
    pub fn scope<'a>(
        &'a self,
        p: &'a Program,
        positions: &'a [Position],
    ) -> Option<Scope<'a, K, V>> {
        if !inl_poly::cache::cache_enabled() {
            return None;
        }
        Some(Scope {
            memo: self,
            program: p,
            positions,
            hash: BuildHasherDefault::<MemoHasher>::default().hash_one((p, positions)),
            serial: AtomicU64::new(0),
        })
    }

    /// Counters since process start, and the values stored now.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().len as u64,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Lock the memo, first dropping what was stored before the last
    /// `inl_poly::cache::clear()`.
    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        let epoch = inl_poly::cache::epoch();
        let mut state = self
            .state
            .get_or_init(|| {
                Mutex::new(State {
                    epoch,
                    len: 0,
                    next_serial: 1,
                    shelves: HashMap::new(),
                })
            })
            .lock()
            .expect("the memo lock is held across map operations only, which do not panic");
        if state.epoch != epoch {
            state.shelves.clear();
            state.len = 0;
            state.epoch = epoch;
        }
        state
    }
}

/// One program's and layout's view of a [`Memo`]: what a caller asking for
/// several keys of one program holds, so the program is hashed once and
/// compared once.
pub struct Scope<'a, K, V> {
    memo: &'a Memo<K, V>,
    program: &'a Program,
    positions: &'a [Position],
    hash: u64,
    /// Serial number of the shelf last confirmed to hold this pair; 0 before.
    serial: AtomicU64,
}

impl<'a, K: Eq + Hash, V: Clone> Scope<'a, K, V> {
    /// The same program's and layout's view of another memo, with the pair
    /// not hashed again.
    pub fn sibling<K2, V2>(&self, memo: &'a Memo<K2, V2>) -> Scope<'a, K2, V2> {
        Scope {
            memo,
            program: self.program,
            positions: self.positions,
            hash: self.hash,
            serial: AtomicU64::new(0),
        }
    }

    /// The value stored under `key` (or under a key that borrows as it),
    /// counted as a hit, or `None`, counted as a miss.
    pub fn get<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let mut state = self.memo.lock();
        let value = self
            .shelf(&mut state)
            .and_then(|s| s.values.get(key).cloned());
        let counter = match value {
            Some(_) => &self.memo.hits,
            None => &self.memo.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Store `value` under `key`; returns how many values a generation
    /// flush dropped to make room (0 unless the memo was full).
    pub fn insert(&self, key: K, value: V) -> usize {
        let mut guard = self.memo.lock();
        let state = &mut *guard;
        let stored = self.shelf(state).map(|s| s.values.contains_key(&key));
        let mut evicted = 0;
        if stored.is_none() {
            // a colliding pair's shelf gives way
            if let Some(old) = state.shelves.remove(&self.hash) {
                state.len -= old.values.len();
            }
        }
        if state.len >= self.memo.cap && stored != Some(true) {
            evicted = state.len;
            state.shelves.clear();
            state.len = 0;
            self.memo
                .evictions
                .fetch_add(evicted as u64, Ordering::Relaxed);
        }
        let shelf = state.shelves.entry(self.hash).or_insert_with(|| {
            let serial = state.next_serial;
            state.next_serial += 1;
            self.serial.store(serial, Ordering::Relaxed);
            Shelf {
                serial,
                program: self.program.clone(),
                positions: self.positions.to_vec(),
                values: HashMap::default(),
            }
        });
        if shelf.values.insert(key, value).is_none() {
            state.len += 1;
        }
        evicted
    }

    /// The shelf of this scope's pair, if one is stored.
    fn shelf<'s>(&self, state: &'s mut State<K, V>) -> Option<&'s mut Shelf<K, V>> {
        let shelf = state.shelves.get_mut(&self.hash)?;
        if shelf.serial != self.serial.load(Ordering::Relaxed) {
            if shelf.positions != self.positions || shelf.program != *self.program {
                return None;
            }
            self.serial.store(shelf.serial, Ordering::Relaxed);
        }
        Some(shelf)
    }
}

/// The memo's hash: each eight-byte word is folded in by a rotate, an xor
/// and a multiply (the Fx hash). A whole program is hashed per scope, where
/// SipHash costs more than the rest of a hit. A collision, crafted or not,
/// is only a miss: a shelf is confirmed by comparing its program, one hash
/// holds one shelf, and the map of shelves keeps the default hasher.
#[derive(Default)]
struct MemoHasher(u64);

impl Hasher for MemoHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let folded = self.0.rotate_left(5) ^ u64::from_le_bytes(word);
            self.0 = folded.wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Counters of a memo since process start, tracked whether or not `inl-obs`
/// is enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered with a stored value.
    pub hits: u64,
    /// Lookups that found no stored value (the caller then computes).
    pub misses: u64,
    /// Values currently stored.
    pub entries: u64,
    /// Values dropped by generation flushes at the memo's cap.
    pub evictions: u64,
}

impl MemoStats {
    /// Render as a JSON object: the `analysis_memo` section of the wire
    /// `Stats` reply.
    pub fn to_json(&self) -> inl_obs::Json {
        let mut o = inl_obs::Json::object();
        o.insert("hits", inl_obs::Json::Int(self.hits));
        o.insert("misses", inl_obs::Json::Int(self.misses));
        o.insert("entries", inl_obs::Json::Int(self.entries));
        o.insert("evictions", inl_obs::Json::Int(self.evictions));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceLayout;
    use inl_ir::zoo;

    /// A memo of its own, so the process-wide switch and epoch are the
    /// only state shared with other tests; neither is changed here.
    fn stored(memo: &Memo<u32, char>, p: &Program, keys: &[u32]) -> usize {
        let layout = InstanceLayout::new(p);
        let scope = memo.scope(p, layout.positions()).expect("the switch is on");
        keys.iter().map(|&k| scope.insert(k, 'a')).sum()
    }

    #[test]
    fn generation_flush_counts_evictions() {
        let memo = Memo::new(3);
        let (a, b) = (zoo::matmul(), zoo::wavefront());
        assert_eq!(stored(&memo, &a, &[0, 1]), 0);
        assert_eq!(stored(&memo, &b, &[0]), 0);
        assert_eq!(memo.stats().entries, 3);
        // The fourth value meets the cap: the whole generation, over both
        // programs, is flushed, then the value is stored.
        assert_eq!(stored(&memo, &b, &[1]), 3);
        assert_eq!((memo.stats().entries, memo.stats().evictions), (1, 3));
    }

    #[test]
    fn a_full_memo_replaces_a_stored_key_without_a_flush() {
        // The second of two workers storing the same miss: the full memo
        // keeps its generation.
        let memo = Memo::new(3);
        let p = zoo::matmul();
        let layout = InstanceLayout::new(&p);
        stored(&memo, &p, &[0, 1, 2]);
        let scope = memo.scope(&p, layout.positions()).expect("on");
        assert_eq!(scope.insert(1, 'b'), 0);
        assert_eq!(memo.stats().entries, 3);
        assert_eq!(scope.get(&1), Some('b'));
    }

    #[test]
    fn a_key_is_answered_only_for_an_equal_program() {
        let memo = Memo::new(8);
        let (a, b) = (zoo::matmul(), zoo::wavefront());
        stored(&memo, &a, &[7]);
        let layout = InstanceLayout::new(&b);
        let scope = memo.scope(&b, layout.positions()).expect("on");
        assert_eq!(scope.get(&7), None);
        let again = zoo::matmul();
        let layout = InstanceLayout::new(&again);
        let scope = memo.scope(&again, layout.positions()).expect("on");
        assert_eq!(scope.get(&7), Some('a'));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
