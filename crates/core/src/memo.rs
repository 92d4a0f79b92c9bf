//! Shared cross-request coalition memo (DESIGN.md §12).
//!
//! A [`CoalitionMemo`] deduplicates coalition evaluations across
//! explanations and requests: it is a bounded, thread-safe map from
//! `(model fingerprint, background fingerprint, instance fingerprint,
//! coalition mask)` to the coalition's value `v(S)`. Because every
//! estimator in the workspace is deterministic and a coalition value is a
//! pure function of that key, a hit can be substituted for an oracle call
//! without changing a single bit of the result — which is exactly the
//! paper's "treat explanation workloads like database workloads" thesis:
//! repeated serve traffic against the same model shares work instead of
//! recomputing it.
//!
//! Keys never dangle: retraining a model changes its persisted bytes and
//! therefore its fingerprint, so stale values are unreachable rather than
//! invalidated in place. Capacity pressure evicts the least recently used
//! coalition value, one at a time ([`crate::cache::Lru`]). Game keys are
//! interned to never-reused `u64` serials, so a value entry is keyed on
//! two words.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::{CacheStats, Lru};

/// FNV-1a offset basis (matches `serve::fingerprint_bytes`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (matches `serve::fingerprint_bytes`).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over the little-endian bytes of a slice of `f64`s. Used to
/// derive the background/instance components of a [`GameKey`]; bit-level
/// so that any value change (even a sign of zero) produces a new key.
pub fn fingerprint_f64s(values: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Identifies one cooperative game: which model, scored against which
/// background, explaining which instance. Coalition masks are keyed
/// *under* a `GameKey`, so two requests share memo entries exactly when
/// they would compute identical coalition values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GameKey {
    /// Fingerprint of the model's persisted bytes.
    pub model: u64,
    /// Fingerprint of the background matrix contents.
    pub background: u64,
    /// Fingerprint of the instance under explanation.
    pub instance: u64,
}

impl GameKey {
    /// Derives the key for `model_fingerprint` scored against `background`
    /// rows to explain `instance`.
    pub fn derive(model_fingerprint: u64, background: &xai_linalg::Matrix, instance: &[f64]) -> Self {
        Self {
            model: model_fingerprint,
            background: fingerprint_f64s(background.as_slice()),
            instance: fingerprint_f64s(instance),
        }
    }
}

/// A borrowed capability to use a [`CoalitionMemo`]: the memo plus the
/// model fingerprint of the request it rides on. `Copy` so it can travel
/// inside `ExplainRequest` without breaking that type's `Copy`.
#[derive(Clone, Copy)]
pub struct MemoHandle<'a> {
    /// The shared memo.
    pub memo: &'a CoalitionMemo,
    /// Fingerprint of the model this request explains.
    pub model_fingerprint: u64,
}

/// Bounded, thread-safe cross-request coalition-value memo: an
/// [`Lru`] keyed on `(game serial, coalition mask)`.
///
/// Each [`GameKey`] is interned to a `u64` serial in a second [`Lru`] of
/// the same capacity, which keeps a value entry at 16 bytes of key
/// instead of 32. Serials come from a counter and are never reused: a
/// game evicted from the intern table gets a fresh serial when it comes
/// back, and the values under its old serial become unreachable and age
/// out, so no value is ever served under the wrong game.
///
/// A `capacity` of `0` disables the memo: every lookup misses and inserts
/// are dropped, so callers can plumb one code path for both modes.
pub struct CoalitionMemo {
    lru: Lru<(u64, u64), f64>,
    serials: Lru<GameKey, u64>,
    next_serial: AtomicU64,
}

impl CoalitionMemo {
    /// A memo holding at most `capacity` coalition values.
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Lru::new(capacity),
            serials: Lru::new(capacity),
            next_serial: AtomicU64::new(0),
        }
    }

    /// The serial of `key`, interning it under a fresh one when it is not
    /// resident. A fresh serial has no values yet, so its lookups miss.
    fn serial(&self, key: &GameKey) -> u64 {
        self.serials.with(|map| match map.get(key) {
            Some(&serial) => serial,
            None => {
                let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
                map.insert(*key, serial);
                serial
            }
        })
    }

    /// Maximum resident entries (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Looks up `masks` under `key`, writing each found value into the
    /// matching `out` slot (missing slots are set to `None`). Returns the
    /// number of hits. Hit entries become the most recently used.
    pub fn get_many(&self, key: &GameKey, masks: &[u64], out: &mut [Option<f64>]) -> usize {
        assert_eq!(masks.len(), out.len(), "memo lookup arity mismatch");
        let serial = self.serial(key);
        self.lru.with(|map| {
            let mut hits = 0;
            for (&mask, slot) in masks.iter().zip(out.iter_mut()) {
                *slot = map.get(&(serial, mask)).copied();
                hits += usize::from(slot.is_some());
            }
            hits
        })
    }

    /// Publishes freshly evaluated coalition values. Values are pure
    /// functions of `(key, mask)`, so racing inserts of the same key are
    /// harmless — last write wins with identical bits.
    pub fn insert_many<I: IntoIterator<Item = (u64, f64)>>(&self, key: &GameKey, values: I) {
        let serial = self.serial(key);
        self.lru.with(|map| {
            for (mask, value) in values {
                map.insert((serial, mask), value);
            }
        });
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> GameKey {
        GameKey { model: n, background: n.wrapping_mul(31), instance: n.wrapping_mul(97) }
    }

    #[test]
    fn fingerprint_is_bit_sensitive() {
        assert_ne!(fingerprint_f64s(&[1.0, 2.0]), fingerprint_f64s(&[2.0, 1.0]));
        assert_ne!(fingerprint_f64s(&[0.0]), fingerprint_f64s(&[-0.0]));
        assert_eq!(fingerprint_f64s(&[1.5, -3.25]), fingerprint_f64s(&[1.5, -3.25]));
    }

    #[test]
    fn derive_distinguishes_every_component() {
        let bg = xai_linalg::Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let base = GameKey::derive(7, &bg, &[0.5, 0.5]);
        assert_ne!(base, GameKey::derive(8, &bg, &[0.5, 0.5]));
        assert_ne!(base, GameKey::derive(7, &bg, &[0.5, 0.6]));
        let bg2 = xai_linalg::Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.5]]);
        assert_ne!(base, GameKey::derive(7, &bg2, &[0.5, 0.5]));
        assert_eq!(base, GameKey::derive(7, &bg, &[0.5, 0.5]));
    }

    #[test]
    fn get_insert_round_trip_and_counters() {
        let memo = CoalitionMemo::new(64);
        let k = key(1);
        let mut out = vec![None; 3];
        assert_eq!(memo.get_many(&k, &[0b01, 0b10, 0b11], &mut out), 0);
        assert_eq!(out, vec![None, None, None]);
        memo.insert_many(&k, [(0b01, 1.5), (0b11, -2.25)]);
        assert_eq!(memo.get_many(&k, &[0b01, 0b10, 0b11], &mut out), 2);
        assert_eq!(out, vec![Some(1.5), None, Some(-2.25)]);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 4, 2));

        // A different game key shares nothing.
        assert_eq!(memo.get_many(&key(2), &[0b01], &mut out[..1]), 0);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let memo = CoalitionMemo::new(0);
        let k = key(1);
        memo.insert_many(&k, [(1, 9.0)]);
        let mut out = [Some(1.0)];
        assert_eq!(memo.get_many(&k, &[1], &mut out), 0);
        assert_eq!(out, [None]);
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.entries), (1, 0));
    }

    #[test]
    fn eviction_drops_oldest_and_keeps_newest() {
        let memo = CoalitionMemo::new(8);
        let k = key(1);
        for mask in 0..8u64 {
            memo.insert_many(&k, [(mask, mask as f64)]);
        }
        // Touch the four newest so recency is unambiguous, then overflow.
        let mut out = vec![None; 4];
        memo.get_many(&k, &[4, 5, 6, 7], &mut out);
        memo.insert_many(&k, [(8, 8.0)]);
        let stats = memo.stats();
        assert!(stats.evictions > 0, "overflow must evict");
        assert!(stats.entries <= 8);
        // The most recently touched survivors are still present.
        let mut fresh = vec![None; 5];
        let hits = memo.get_many(&k, &[4, 5, 6, 7, 8], &mut fresh);
        assert_eq!(hits, 5, "recently touched entries must survive eviction: {fresh:?}");
    }

    #[test]
    fn a_game_evicted_from_the_intern_table_never_sees_its_old_values() {
        let memo = CoalitionMemo::new(2);
        memo.insert_many(&key(1), [(5, 1.25)]);
        // Two more games push game 1 out of the two-entry intern table
        // (its value is still resident until the value table churns).
        memo.insert_many(&key(2), [(6, 2.5)]);
        let mut out = [None];
        memo.get_many(&key(3), &[7], &mut out);
        // Game 1 comes back under a fresh serial: its old value is not
        // served, and the miss is counted like any other.
        let before = memo.stats();
        assert_eq!(memo.get_many(&key(1), &[5], &mut out), 0);
        assert_eq!(out, [None]);
        let after = memo.stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (0, 1));
        // Values inserted under the new serial are served again.
        memo.insert_many(&key(1), [(5, 3.75)]);
        assert_eq!(memo.get_many(&key(1), &[5], &mut out), 1);
        assert_eq!(out, [Some(3.75)]);
    }

    #[test]
    fn concurrent_use_is_safe_and_deterministic() {
        let memo = std::sync::Arc::new(CoalitionMemo::new(1024));
        let k = key(3);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let memo = std::sync::Arc::clone(&memo);
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        let mask = (t * 50 + round) % 32;
                        memo.insert_many(&k, [(mask, mask as f64 * 0.5)]);
                        let mut out = [None];
                        if memo.get_many(&k, &[mask], &mut out) == 1 {
                            // Values are pure functions of the key: any hit
                            // must carry exactly the inserted bits.
                            assert_eq!(out[0], Some(mask as f64 * 0.5));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("memo soak thread panicked");
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 32);
        assert_eq!(stats.evictions, 0);
    }
}
