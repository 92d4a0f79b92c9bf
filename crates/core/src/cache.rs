//! The workspace's one cache primitive (DESIGN.md §5).
//!
//! [`Lru`] is a bounded, thread-safe map with **exact** least-recently-used
//! eviction and built-in hit, miss and eviction counters. Every cache in
//! the system is one: the serving engine's result cache, the cluster
//! runner's shard-result cache, the cross-request [`crate::CoalitionMemo`]
//! and the per-call utility memo in `xai-datavalue`. A capacity of `0`
//! disables a cache: lookups miss (and are counted) and inserts are
//! dropped, so callers keep one code path for both modes.
//!
//! One [`Mutex`] guards the whole map. [`Lru::with`] hands the guarded
//! [`LruMap`] to a closure, so a batch of lookups or inserts pays for one
//! lock acquisition.
//!
//! Layout: entries live in one `Vec`, doubly linked in recency order by
//! `u32` positions, so eviction takes the tail in O(1) and reuses its
//! slot in place. The key index is a linear-probing table of entry
//! positions kept at most half full; each slot also holds 32 bits of its
//! key's hash, so a probe loads no entry it cannot match; entries keep
//! no copy of it, and eviction rehashes the evicted key. Deletion
//! shifts the rest of the probe chain back instead of leaving a
//! tombstone, so a cache churning at capacity never grows its index —
//! a std `HashMap` index under the same churn fills with tombstones and
//! doubles its table, which costs the memo more resident memory than its
//! values.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Marks an empty index slot and the ends of the recency list.
const NIL: u32 = u32::MAX;

/// One index slot: a node position (`NIL` when empty) and the low 32
/// bits of its key's hash, so probing compares hashes without loading
/// nodes.
#[derive(Clone, Copy)]
struct Slot {
    node: u32,
    hash: u32,
}

const EMPTY: Slot = Slot { node: NIL, hash: 0 };

/// Counter snapshot of one cache, from [`Lru::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry (every lookup of a disabled cache).
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// One entry. Its hash is not stored: the index slot pointing at it
/// holds the 32 bits probing needs, and eviction rehashes the key.
struct Node<K, V> {
    key: K,
    value: V,
    /// Next more recently used node.
    prev: u32,
    /// Next less recently used node.
    next: u32,
}

/// The map behind an [`Lru`]'s lock; reached through [`Lru::with`].
pub struct LruMap<K, V> {
    capacity: usize,
    hasher: RandomState,
    nodes: Vec<Node<K, V>>,
    /// Linear-probing index over `nodes`. Empty until the first insert,
    /// then a power of two at least twice `nodes.len()`.
    slots: Vec<Slot>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node: the next to be evicted.
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq, V> LruMap<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            // Node positions are `u32` with `NIL` reserved, and the 32
            // stored hash bits must address an index twice the capacity.
            capacity: capacity.min(1 << 31),
            hasher: RandomState::new(),
            nodes: Vec::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, counting a hit or a miss. A hit becomes the most
    /// recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.find(key) {
            Some(n) => {
                self.hits += 1;
                self.touch(n);
                Some(&self.nodes[n].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts or replaces the value for `key` as the most recently used
    /// entry. A new key at capacity evicts the least recently used entry;
    /// returns whether one was evicted. A disabled cache drops the value.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let hash = self.hash(&key);
        if let Some(n) = self.find_hashed(hash, &key) {
            self.nodes[n].value = value;
            self.touch(n);
            return false;
        }
        let evicted = self.nodes.len() == self.capacity;
        let evictee_hash = if evicted { self.hash(&self.nodes[self.tail as usize].key) } else { 0 };
        // No key code (hash, eq) runs past this point, so a panic cannot
        // leave the links and the index disagreeing.
        let node = Node { key, value, prev: NIL, next: NIL };
        let n = if evicted {
            let n = self.tail as usize;
            self.unindex(n, evictee_hash);
            self.unlink(n);
            self.nodes[n] = node;
            self.evictions += 1;
            n
        } else {
            if (self.nodes.len() + 1) * 2 > self.slots.len() {
                self.grow();
            }
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.index(Slot { node: n as u32, hash });
        self.push_front(n);
        evicted
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.nodes.len() as u64,
        }
    }

    fn hash(&self, key: &K) -> u32 {
        // The low bits pick the home slot; 32 of them cover any index.
        self.hasher.hash_one(key) as u32
    }

    fn find(&self, key: &K) -> Option<usize> {
        self.find_hashed(self.hash(key), key)
    }

    fn find_hashed(&self, hash: u32, key: &K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        // Terminates: the table is at most half full.
        loop {
            let slot = self.slots[i];
            if slot.node == NIL {
                return None;
            }
            if slot.hash == hash && self.nodes[slot.node as usize].key == *key {
                return Some(slot.node as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the index (from 8 slots) and re-slots every node.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        for slot in old.into_iter().filter(|slot| slot.node != NIL) {
            self.index(slot);
        }
    }

    /// Puts `slot` in the first free position of its probe chain.
    fn index(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = slot.hash as usize & mask;
        while self.slots[i].node != NIL {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Removes node `n`, whose key hashes to `hash`, from the index by
    /// backward shift: each later member of the probe chain that may
    /// legally sit in the hole moves into it, so no tombstone is left
    /// behind.
    fn unindex(&mut self, n: usize, hash: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = hash as usize & mask;
        while self.slots[hole].node as usize != n {
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self.slots[i];
            if slot.node == NIL {
                break;
            }
            let home = slot.hash as usize & mask;
            // `slot` may move back to the hole only when the hole lies
            // between its home and its current position.
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
    }

    fn touch(&mut self, n: usize) {
        if self.head as usize != n {
            self.unlink(n);
            self.push_front(n);
        }
    }

    fn unlink(&mut self, n: usize) {
        let Node { prev, next, .. } = self.nodes[n];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            q => self.nodes[q as usize].prev = prev,
        }
    }

    fn push_front(&mut self, n: usize) {
        let old = self.head;
        self.nodes[n].prev = NIL;
        self.nodes[n].next = old;
        match old {
            NIL => self.tail = n as u32,
            h => self.nodes[h as usize].prev = n as u32,
        }
        self.head = n as u32;
    }
}

/// A bounded, thread-safe, exact-LRU cache with hit/miss/eviction
/// counters; see the module docs.
pub struct Lru<K, V> {
    capacity: usize,
    map: Mutex<LruMap<K, V>>,
}

impl<K: Hash + Eq, V> Lru<K, V> {
    /// A cache holding at most `capacity` entries: 0 disables it, and
    /// capacities above 2^31 are clamped to 2^31 (so `usize::MAX` is
    /// in effect unbounded).
    pub fn new(capacity: usize) -> Self {
        let map = LruMap::new(capacity);
        Self { capacity: map.capacity, map: Mutex::new(map) }
    }

    /// Maximum resident entries (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Runs `f` on the map under one lock acquisition.
    pub fn with<R>(&self, f: impl FnOnce(&mut LruMap<K, V>) -> R) -> R {
        f(&mut self.lock())
    }

    /// A clone of the value for `key`, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.with(|map| map.get(key).cloned())
    }

    /// [`LruMap::insert`] under the lock; returns whether an entry was
    /// evicted.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.with(|map| map.insert(key, value))
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().nodes.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    // Recovering a poisoned guard is sound: `LruMap` runs key code only
    // before it mutates, so the map is consistent between any two calls,
    // including where a `with` closure panicked.
    fn lock(&self) -> MutexGuard<'_, LruMap<K, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_rand::SplitMix64;

    /// The reference: a `Vec` ordered most recently used first.
    struct RefLru {
        capacity: usize,
        entries: Vec<(u64, u64)>,
    }

    impl RefLru {
        fn get(&mut self, key: u64) -> Option<u64> {
            let i = self.entries.iter().position(|&(k, _)| k == key)?;
            let entry = self.entries.remove(i);
            self.entries.insert(0, entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: u64, value: u64) -> bool {
            if self.capacity == 0 {
                return false;
            }
            if let Some(i) = self.entries.iter().position(|&(k, _)| k == key) {
                self.entries.remove(i);
                self.entries.insert(0, (key, value));
                return false;
            }
            let evicted = self.entries.len() == self.capacity;
            if evicted {
                self.entries.pop();
            }
            self.entries.insert(0, (key, value));
            evicted
        }
    }

    #[test]
    fn matches_a_reference_lru_op_for_op() {
        for capacity in [0usize, 1, 2, 3, 7, 64] {
            let lru = Lru::new(capacity);
            let mut reference = RefLru { capacity, entries: Vec::new() };
            let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
            let mut rng = SplitMix64::new(0x5eed ^ capacity as u64);
            // Keys range over about twice the capacity so gets both hit
            // and miss, and inserts both replace and evict.
            let key_space = 2 * capacity as u64 + 3;
            for op in 0..4000 {
                let key = rng.next() % key_space;
                if rng.next().is_multiple_of(2) {
                    let want = reference.get(key);
                    assert_eq!(lru.get(&key), want, "cap {capacity} op {op}: get {key}");
                    if want.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                } else {
                    let value = rng.next();
                    let want = reference.insert(key, value);
                    assert_eq!(
                        lru.insert(key, value),
                        want,
                        "cap {capacity} op {op}: insert {key}"
                    );
                    evictions += want as u64;
                }
                assert_eq!(lru.len(), reference.entries.len(), "cap {capacity} op {op}: len");
            }
            let stats = lru.stats();
            assert_eq!(
                stats,
                CacheStats { hits, misses, evictions, entries: reference.entries.len() as u64 },
                "cap {capacity}"
            );
            if capacity > 0 {
                assert!(hits > 0 && misses > 0 && evictions > 0, "cap {capacity}: {stats:?}");
            }
        }
    }

    #[test]
    fn eviction_churn_never_grows_the_index() {
        let capacity = 1024;
        let lru = Lru::new(capacity);
        for key in 0..100 * capacity as u64 {
            lru.insert(key, key);
            lru.with(|map| {
                assert!(map.slots.len() <= 2 * capacity, "index grew to {}", map.slots.len())
            });
        }
        // The newest `capacity` keys are exactly the resident ones.
        let last = 100 * capacity as u64;
        lru.with(|map| {
            for key in last - capacity as u64..last {
                assert_eq!(map.get(&key), Some(&key));
            }
            assert_eq!(map.get(&(last - capacity as u64 - 1)), None);
        });
        let stats = lru.stats();
        assert_eq!(stats.evictions, 99 * capacity as u64);
        assert_eq!(stats.entries, capacity as u64);
    }
}
