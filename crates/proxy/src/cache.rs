//! The bounded-LRU map under the live proxy's object cache.
//!
//! The paper's simulation assumes "an infinitely large cache" (§6.1.1);
//! a capacity bound with LRU eviction is for experiments beyond the
//! paper. [`LruMap`] pairs a hash table with a `BTreeSet<(used, key)>`
//! recency index giving O(log n) eviction; each shard of the live
//! proxy's cache in `mutcon-live` is one.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

use mutcon_core::time::Timestamp;

/// One stored value plus its recency key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot<V, U> {
    value: V,
    used: U,
}

/// A map with optional capacity bound and least-recently-used eviction.
///
/// Recency is indexed by a `BTreeSet<(used, key)>` kept in lock-step with
/// the entry table, so eviction is O(log n) — no scans, no per-comparison
/// key clones. The recency key `U` is supplied by the caller on every
/// insert/touch (a virtual-time [`Timestamp`] for the simulator, a
/// monotonic sequence number for the live daemons), and ties on `used`
/// evict the smallest key in `K`'s order — for string-like keys, the
/// lexicographically smallest. When no capacity bound is set the recency
/// index is not maintained at all (the unbounded paper model pays
/// nothing).
#[derive(Debug, Clone)]
pub struct LruMap<K, V, U = Timestamp> {
    entries: HashMap<K, Slot<V, U>>,
    /// `(used, key)` pairs, one per entry; only maintained when a
    /// capacity bound is set.
    recency: BTreeSet<(U, K)>,
    capacity: Option<usize>,
}

// Hand-written so `Default` does not demand it of K/V/U (the derive
// would), matching `HashMap`/`BTreeSet`.
impl<K, V, U> Default for LruMap<K, V, U> {
    fn default() -> Self {
        LruMap {
            entries: HashMap::new(),
            recency: BTreeSet::new(),
            capacity: None,
        }
    }
}

impl<K, V, U> LruMap<K, V, U>
where
    K: Ord + Hash + Eq + Clone,
    U: Ord + Copy,
{
    /// An unbounded map: nothing is ever evicted.
    pub fn unbounded() -> Self {
        LruMap {
            entries: HashMap::new(),
            recency: BTreeSet::new(),
            capacity: None,
        }
    }

    /// A map holding at most `capacity` entries, evicting the least
    /// recently used.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruMap {
            capacity: Some(capacity),
            ..LruMap::unbounded()
        }
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up without refreshing recency.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key).map(|slot| &slot.value)
    }

    /// Whether `key` is resident and already the most recently used
    /// entry, i.e. a `touch` would not change the eviction order. On an
    /// unbounded map no recency is maintained, so every resident key
    /// trivially qualifies. Lets read paths skip the write lock a
    /// recency refresh would need (see `ShardedCache::get` in
    /// `mutcon-live`).
    pub fn is_most_recent<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some((stored_key, slot)) = self.entries.get_key_value(key) else {
            return false;
        };
        if self.capacity.is_none() {
            return true;
        }
        match self.recency.last() {
            Some((used, key)) => *used == slot.used && key == stored_key,
            None => false,
        }
    }

    /// Looks up and marks the entry as used at `now`.
    pub fn touch<Q>(&mut self, key: &Q, now: U) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.capacity.is_some() {
            let (stored_key, slot) = self.entries.get_key_value(key)?;
            if slot.used != now {
                let old = (slot.used, stored_key.clone());
                self.recency.remove(&old);
                self.recency.insert((now, old.1));
            }
        }
        let slot = self.entries.get_mut(key)?;
        slot.used = now;
        Some(&slot.value)
    }

    /// Inserts (or replaces) an entry used at `now`. When a capacity
    /// bound is set and would be exceeded, the least-recently-used
    /// *existing* entry is evicted first (a fresh insert never evicts
    /// itself, even if `now` orders before every resident entry) and
    /// returned.
    pub fn insert(&mut self, key: K, value: V, now: U) -> Option<(K, V)> {
        let slot = Slot { value, used: now };
        let Some(cap) = self.capacity else {
            self.entries.insert(key, slot);
            return None;
        };
        let mut evicted = None;
        match self.entries.insert(key.clone(), slot) {
            Some(old) => {
                // Replacement: re-key the existing recency slot.
                self.recency.remove(&(old.used, key.clone()));
            }
            None => {
                if self.entries.len() > cap {
                    // The LRU victim sits at the front of the ordered
                    // recency index: one O(log n) pop, no scan.
                    let victim = self
                        .recency
                        .pop_first()
                        .expect("bounded map over capacity has a recency entry");
                    let value = self
                        .entries
                        .remove(&victim.1)
                        .expect("recency index entry is resident");
                    evicted = Some((victim.1, value.value));
                }
            }
        }
        self.recency.insert((now, key));
        evicted
    }

    /// Removes an entry.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (stored_key, _) = self.entries.get_key_value(key)?;
        let stored_key = stored_key.clone();
        let slot = self.entries.remove(key)?;
        if self.capacity.is_some() {
            self.recency.remove(&(slot.used, stored_key));
        }
        Some(slot.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction() {
        let mut m: LruMap<&str, (), u64> = LruMap::with_capacity(2);
        m.insert("a", (), 1);
        m.insert("b", (), 2);
        // Touch a so b becomes LRU.
        m.touch("a", 3);
        m.insert("c", (), 4);
        assert_eq!(m.len(), 2);
        assert!(m.get("a").is_some());
        assert!(m.get("b").is_none());
        assert!(m.get("c").is_some());
    }

    #[test]
    fn lru_tie_break_is_lexicographic() {
        // Three entries stored at the same instant: ties on `used` evict
        // the smallest key, as a linear scan by (used, key) would.
        let mut m: LruMap<&str, (), u64> = LruMap::with_capacity(3);
        for name in ["b", "c", "a"] {
            m.insert(name, (), 5);
        }
        m.insert("d", (), 6);
        assert!(m.get("a").is_none(), "lexicographically smallest tie loses");
        assert!(m.get("b").is_some());
        assert!(m.get("c").is_some());
        assert!(m.get("d").is_some());
    }

    #[test]
    fn lru_matches_reference_scan_model() {
        // Randomized equivalence against O(n) scan semantics: evict min
        // by (last_used, key).
        use mutcon_sim::SimRng;

        let cap = 8;
        let mut map: LruMap<String, u64, u64> = LruMap::with_capacity(cap);
        let mut model: HashMap<String, u64> = HashMap::new();
        let mut rng = SimRng::seed_from_u64(0xCAC4E);
        let names: Vec<String> = (0..24).map(|i| format!("obj-{i:02}")).collect();

        for step in 0u64..2_000 {
            let now = step / 3; // deliberate ties
            let id = rng.pick(&names).clone();
            if rng.chance(0.5) {
                map.insert(id.clone(), step, now);
                if !model.contains_key(&id) && model.len() >= cap {
                    let victim = model
                        .iter()
                        .min_by_key(|(name, t)| (**t, (*name).clone()))
                        .map(|(name, _)| name.clone())
                        .expect("model not empty");
                    model.remove(&victim);
                }
                model.insert(id, now);
            } else {
                let hit = map.touch(&id, now).is_some();
                assert_eq!(hit, model.contains_key(&id), "step {step}");
                if hit {
                    model.insert(id, now);
                }
            }
            assert_eq!(map.len(), model.len(), "step {step}");
        }
        for id in &names {
            assert_eq!(map.get(id).is_some(), model.contains_key(id), "{id}");
        }
    }

    #[test]
    fn evict_returns_entry() {
        let mut m: LruMap<&str, u32, u64> = LruMap::unbounded();
        m.insert("a", 7, 1);
        assert_eq!(m.remove("a"), Some(7));
        assert_eq!(m.remove("a"), None);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: LruMap<&str, (), u64> = LruMap::with_capacity(0);
    }

    #[test]
    fn lru_map_generic_over_string_keys_and_sequence_clock() {
        // The live proxy's shard configuration: String keys, u64 ticks.
        let mut m: LruMap<String, u32, u64> = LruMap::with_capacity(2);
        assert_eq!(m.insert("/a".to_owned(), 1, 0), None);
        assert_eq!(m.insert("/b".to_owned(), 2, 1), None);
        // Borrowed lookups: no owned key needed.
        assert_eq!(m.get("/a"), Some(&1));
        assert_eq!(m.touch("/a", 2), Some(&1));
        let evicted = m.insert("/c".to_owned(), 3, 3);
        assert_eq!(evicted, Some(("/b".to_owned(), 2)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.capacity(), Some(2));
        assert!(m.get("/b").is_none());
        assert_eq!(m.remove("/a"), Some(1));
        assert_eq!(m.remove("/a"), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn lru_map_reports_most_recent_entries() {
        let mut m: LruMap<String, u32, u64> = LruMap::with_capacity(3);
        assert!(!m.is_most_recent("/a"), "absent keys are never most recent");
        m.insert("/a".to_owned(), 1, 0);
        assert!(m.is_most_recent("/a"));
        m.insert("/b".to_owned(), 2, 1);
        assert!(!m.is_most_recent("/a"));
        assert!(m.is_most_recent("/b"));
        m.touch("/a", 2);
        assert!(m.is_most_recent("/a"));
        assert!(!m.is_most_recent("/b"));
        // Unbounded maps keep no recency: every resident key qualifies.
        let mut u: LruMap<String, u32, u64> = LruMap::unbounded();
        u.insert("/x".to_owned(), 1, 0);
        u.insert("/y".to_owned(), 2, 1);
        assert!(u.is_most_recent("/x"));
        assert!(u.is_most_recent("/y"));
        assert!(!u.is_most_recent("/z"));
    }

    #[test]
    fn lru_map_fresh_insert_never_evicts_itself() {
        // An insert whose recency key orders before every resident entry
        // must evict the resident LRU, not the entry being inserted.
        let mut m: LruMap<String, u32, u64> = LruMap::with_capacity(2);
        m.insert("/x".to_owned(), 1, 10);
        m.insert("/y".to_owned(), 2, 20);
        let evicted = m.insert("/old".to_owned(), 3, 0);
        assert_eq!(evicted, Some(("/x".to_owned(), 1)));
        assert!(m.get("/old").is_some());
    }

    #[test]
    fn lru_map_replacement_rekeys_without_eviction() {
        let mut m: LruMap<String, u32, u64> = LruMap::with_capacity(2);
        m.insert("/a".to_owned(), 1, 0);
        m.insert("/b".to_owned(), 2, 1);
        // Replacing a resident key must not evict anything.
        assert_eq!(m.insert("/a".to_owned(), 10, 2), None);
        assert_eq!(m.len(), 2);
        // /b is now LRU.
        assert_eq!(m.insert("/c".to_owned(), 3, 3), Some(("/b".to_owned(), 2)));
    }

    #[test]
    fn lru_map_unbounded_skips_recency_maintenance() {
        let mut m: LruMap<String, u32, u64> = LruMap::unbounded();
        for i in 0..100u32 {
            m.insert(format!("/{i}"), i, 0); // identical recency keys: fine
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.capacity(), None);
        assert_eq!(m.touch("/7", 1), Some(&7));
        assert_eq!(m.remove("/7"), Some(7));
        assert_eq!(m.len(), 99);
    }
}
