//! A bounded LRU map for the auditor's zone caches.
//!
//! The zone-snapshot and zone-query caches (DESIGN.md §12) are keyed by
//! a registry *generation* that every zone mutation bumps, so
//! invalidation is a single atomic increment and stale entries can
//! never be served (they simply stop matching and age out of the LRU).
//!
//! Everything is `std`-only and bounded: a cache miss costs one map
//! lookup, and the memory ceiling is `capacity × entry size` regardless
//! of how adversarial the key stream is.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A bounded least-recently-used map.
///
/// Recency is tracked with a monotonic tick per access; eviction removes
/// the entry with the smallest tick. Both `get` and `insert` are
/// `O(log capacity)`. Not thread-safe — wrap in a `Mutex` to share.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, (V, u64)>,
    /// tick → key, ordered oldest-first for eviction.
    order: BTreeMap<u64, K>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let tick = self.next_tick();
        match self.map.get_mut(key) {
            Some((_, old)) => {
                self.order.remove(old);
                self.order.insert(tick, key.clone());
                *old = tick;
                self.map.get(key).map(|(v, _)| v)
            }
            None => None,
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        let tick = self.next_tick();
        if let Some((_, old)) = self.map.remove(&key) {
            self.order.remove(&old);
        } else if self.map.len() >= self.capacity {
            if let Some((&oldest, _)) = self.order.iter().next() {
                if let Some(victim) = self.order.remove(&oldest) {
                    self.map.remove(&victim);
                }
            }
        }
        self.order.insert(tick, key.clone());
        self.map.insert(key, (value, tick));
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh "a"
        c.insert("c", 3); // evicts "b"
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_insert_refreshes_existing_key() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh, not a new entry
        c.insert("c", 3); // evicts "b" (oldest), not "a"
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn lru_capacity_clamped_to_one() {
        let mut c = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, "x");
        c.insert(2, "y");
        assert_eq!(c.len(), 1);
        assert!(c.get(&1).is_none());
        assert_eq!(c.get(&2), Some(&"y"));
    }
}
