//! The bounded map under the live proxy's object cache, with CLOCK
//! (second-chance) eviction.
//!
//! The paper's simulation assumes "an infinitely large cache" (§6.1.1);
//! a capacity bound is for experiments beyond the paper, and the
//! simulator never uses this map. Each shard of the live proxy's cache in
//! `mutcon-live` is one [`LruMap`]. A hit sets the entry's referenced bit
//! through `&self`, so a reader under a shared lock keeps recency without
//! a write lock or an allocation; a store at capacity sweeps a hand over
//! the entries, clearing set bits, and evicts the first entry whose bit
//! is clear.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// One stored value, its referenced bit and its place in the ring.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    referenced: AtomicBool,
    pos: usize,
}

/// A map with an optional capacity bound and CLOCK eviction.
///
/// Entries live in one hash table, so a lookup is one hash probe, bounded
/// or not. A bounded map also keeps a ring of its keys, which the hand
/// sweeps; an unbounded one keeps none. The recency type `U` is unused,
/// kept because `benchmark/` names it (as `LruMap<String, u64, u64>`).
#[derive(Debug)]
pub struct LruMap<K, V, U = ()> {
    entries: HashMap<K, Slot<V>>,
    /// One key per entry of a bounded map; `Slot::pos` is its index.
    ring: Vec<K>,
    /// The ring index the next sweep starts at.
    hand: usize,
    capacity: Option<usize>,
    recency: PhantomData<U>,
}

impl<K, V, U> LruMap<K, V, U>
where
    K: Hash + Eq + Clone,
{
    /// An unbounded map: nothing is ever evicted.
    pub fn unbounded() -> Self {
        LruMap {
            entries: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            capacity: None,
            recency: PhantomData,
        }
    }

    /// A map holding at most `capacity` entries.
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

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up and marks the entry referenced. The bit is loaded first
    /// and stored only if clear, so a hot entry's line is not rewritten
    /// on every hit. `Relaxed` is enough: the bit is cleared only by a
    /// sweep under `&mut self`, which the caller's lock orders after
    /// every reader.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.entries.get(key)?;
        if !slot.referenced.load(Relaxed) {
            slot.referenced.store(true, Relaxed);
        }
        Some(&slot.value)
    }

    /// [`LruMap::get`] for a caller that holds the map mutably, to
    /// replace the value in place: it keeps its ring place, and its bit is
    /// set.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.entries.get_mut(key)?;
        *slot.referenced.get_mut() = true;
        Some(&mut slot.value)
    }

    /// Inserts or replaces an entry; `now` is ignored, kept because
    /// `benchmark/` passes it. A replacement keeps its place and its bit.
    pub fn insert(&mut self, key: K, value: V, _now: U) -> Option<(K, V)> {
        if let Some(slot) = self.entries.get_mut(&key) {
            slot.value = value;
            return None;
        }
        self.insert_new(key, value)
    }

    /// Inserts a key the caller has just found absent (with the map held
    /// mutably since), without looking it up again. The entry starts
    /// unreferenced; at capacity it takes the ring place of the entry the
    /// sweep evicts, which is returned.
    pub fn insert_new(&mut self, key: K, value: V) -> Option<(K, V)> {
        let mut pos = self.ring.len();
        let mut evicted = None;
        match self.capacity {
            None => {}
            Some(cap) if pos < cap => self.ring.push(key.clone()),
            Some(cap) => {
                pos = self.sweep();
                self.hand = (pos + 1) % cap;
                let victim = std::mem::replace(&mut self.ring[pos], key.clone());
                let slot = self.entries.remove(&victim).expect("ring key resident");
                evicted = Some((victim, slot.value));
            }
        }
        let referenced = AtomicBool::new(false);
        let resident = self.entries.insert(
            key,
            Slot {
                value,
                referenced,
                pos,
            },
        );
        debug_assert!(resident.is_none(), "insert_new of a resident key");
        evicted
    }

    /// Moves the hand to the first unreferenced entry, clearing the bits
    /// it passes, and returns its ring index. Ends within one turn: a
    /// full turn leaves every bit clear.
    fn sweep(&mut self) -> usize {
        loop {
            let slot = self.entries.get_mut(&self.ring[self.hand]);
            if !std::mem::take(slot.expect("ring key resident").referenced.get_mut()) {
                return self.hand;
            }
            self.hand = (self.hand + 1) % self.ring.len();
        }
    }

    /// Removes an entry. On a bounded map the ring's last key takes its
    /// place.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.entries.remove(key)?;
        if self.capacity.is_some() {
            self.ring.swap_remove(slot.pos);
            if let Some(moved) = self.ring.get(slot.pos) {
                self.entries
                    .get_mut::<K>(moved)
                    .expect("ring key resident")
                    .pos = slot.pos;
            }
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
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
        // The hit marks "a": the sweep clears its bit and evicts "b".
        assert!(m.get("a").is_some());
        assert_eq!(m.insert("c", (), 3), Some(("b", ())));
        // Its bit is spent: with no hit since, "a" is the next victim.
        assert_eq!(m.insert("d", (), 4), Some(("a", ())));
        assert_eq!(m.len(), 2);
        assert!(m.get("c").is_some() && m.get("d").is_some());
    }

    #[test]
    fn clock_evicts_in_insertion_order_when_no_bit_is_set() {
        let mut m: LruMap<&str, (), u64> = LruMap::with_capacity(3);
        for name in ["b", "c", "a"] {
            m.insert(name, (), 5);
        }
        // The hand starts at the first place taken: "b", then "c".
        assert_eq!(m.insert("d", (), 6), Some(("b", ())));
        assert_eq!(m.insert("e", (), 7), Some(("c", ())));
        assert!(m.get("a").is_some() && m.get("d").is_some() && m.get("e").is_some());
    }

    /// A test-only CLOCK over one vector, found by linear scan: the map
    /// must evict what it evicts, step for step.
    #[derive(Default)]
    struct ClockModel {
        ring: Vec<(String, bool)>,
        hand: usize,
    }

    impl ClockModel {
        fn find(&self, id: &str) -> Option<usize> {
            self.ring.iter().position(|(name, _)| name == id)
        }

        fn get(&mut self, id: &str) -> bool {
            self.find(id).map(|at| self.ring[at].1 = true).is_some()
        }

        fn insert(&mut self, id: &str, cap: usize) -> Option<String> {
            if self.find(id).is_some() {
                return None;
            }
            if self.ring.len() < cap {
                self.ring.push((id.to_owned(), false));
                return None;
            }
            while std::mem::take(&mut self.ring[self.hand].1) {
                self.hand = (self.hand + 1) % cap;
            }
            let victim = std::mem::replace(&mut self.ring[self.hand], (id.to_owned(), false));
            self.hand = (self.hand + 1) % cap;
            Some(victim.0)
        }

        fn remove(&mut self, id: &str) -> bool {
            let Some(at) = self.find(id) else {
                return false;
            };
            self.ring.swap_remove(at);
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            true
        }
    }

    #[test]
    fn lru_matches_reference_scan_model() {
        use mutcon_sim::SimRng;

        let cap = 8;
        let mut map: LruMap<String, u64, u64> = LruMap::with_capacity(cap);
        let mut model = ClockModel::default();
        let mut rng = SimRng::seed_from_u64(0xCAC4E);
        let names: Vec<String> = (0..24).map(|i| format!("obj-{i:02}")).collect();

        for step in 0u64..2_000 {
            let id = rng.pick(&names).clone();
            let roll = rng.uniform();
            if roll < 0.45 {
                let evicted = map.insert(id.clone(), step, step).map(|(name, _)| name);
                assert_eq!(evicted, model.insert(&id, cap), "step {step}");
            } else if roll < 0.9 {
                assert_eq!(map.get(&id).is_some(), model.get(&id), "step {step}");
            } else {
                assert_eq!(map.remove(&id).is_some(), model.remove(&id), "step {step}");
            }
            assert_eq!(map.len(), model.ring.len(), "step {step}");
        }
        for id in &names {
            assert_eq!(map.get(id).is_some(), model.find(id).is_some(), "{id}");
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
        // The shape `benchmark/` times: String keys, u64 values and ticks.
        let mut m: LruMap<String, u32, u64> = LruMap::with_capacity(2);
        assert_eq!(m.insert("/a".to_owned(), 1, 0), None);
        assert_eq!(m.insert("/b".to_owned(), 2, 1), None);
        // Borrowed lookups: no owned key needed.
        assert_eq!(m.get("/a"), Some(&1));
        let evicted = m.insert("/c".to_owned(), 3, 3);
        assert_eq!(evicted, Some(("/b".to_owned(), 2)));
        assert_eq!(m.len(), 2);
        assert!(m.get("/b").is_none());
        assert_eq!(m.remove("/a"), Some(1));
        assert_eq!(m.remove("/a"), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn lru_map_fresh_insert_never_evicts_itself() {
        // Every resident entry is referenced: the sweep clears them all
        // and evicts the first, never the entry being inserted.
        let mut m: LruMap<String, u32> = LruMap::with_capacity(2);
        m.insert("/x".to_owned(), 1, ());
        m.insert("/y".to_owned(), 2, ());
        assert!(m.get("/x").is_some() && m.get("/y").is_some());
        let evicted = m.insert("/new".to_owned(), 3, ());
        assert_eq!(evicted, Some(("/x".to_owned(), 1)));
        assert!(m.get("/new").is_some());
    }

    #[test]
    fn lru_map_replacement_rekeys_without_eviction() {
        let mut m: LruMap<String, u32, u64> = LruMap::with_capacity(2);
        m.insert("/a".to_owned(), 1, 0);
        m.insert("/b".to_owned(), 2, 1);
        // Replacing a resident key must not evict anything.
        assert_eq!(m.insert("/a".to_owned(), 10, 2), None);
        assert_eq!(m.len(), 2);
        // "/a" keeps the first place and its clear bit: the hand takes it.
        assert_eq!(m.insert("/c".to_owned(), 3, 3), Some(("/a".to_owned(), 10)));
    }

    #[test]
    fn a_removal_moves_the_last_key_into_its_place() {
        let mut m: LruMap<String, u32> = LruMap::with_capacity(3);
        for (i, name) in ["/x", "/y", "/z"].into_iter().enumerate() {
            m.insert(name.to_owned(), i as u32, ());
        }
        // "/z" takes "/x"'s place at the hand, so it is the next victim.
        assert_eq!(m.remove("/x"), Some(0));
        m.insert("/w".to_owned(), 3, ());
        let evicted = m.insert("/v".to_owned(), 4, ());
        assert_eq!(evicted, Some(("/z".to_owned(), 2)));
        assert!(m.get("/y").is_some() && m.get("/w").is_some());
    }

    #[test]
    fn lru_map_unbounded_skips_recency_maintenance() {
        let mut m: LruMap<String, u32, u64> = LruMap::unbounded();
        for i in 0..100u32 {
            assert_eq!(m.insert(format!("/{i}"), i, 0), None);
        }
        assert_eq!(m.len(), 100);
        assert!(m.ring.is_empty(), "no ring without a bound");
        assert_eq!(m.get("/7"), Some(&7));
        assert_eq!(m.remove("/7"), Some(7));
        assert_eq!(m.len(), 99);
    }
}
