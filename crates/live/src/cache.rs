//! The live proxy's 16-way sharded object cache.
//!
//! The previous implementation guarded one `RwLock<HashMap>`: every
//! background TTR refresh took the single write lock and stalled all
//! concurrent client hits. Here the key space is split across
//! [`SHARD_COUNT`] independent shards by key hash, so a refresh write
//! serializes only the 1/16th of reads that share its shard. Each shard
//! reuses [`mutcon_proxy::cache::LruMap`] — an O(log n)
//! recency-indexed bounded map — so a capacity bound buys LRU eviction
//! without scans.
//!
//! Reads take the shard's read lock and hand out an `Arc` of the entry —
//! a refcount bump, no byte copying. LRU recency on the hit path is
//! refreshed *opportunistically* with `try_write`: under contention the
//! touch is skipped rather than making readers queue behind each other —
//! recency degrades gracefully, the capacity bound never does.
//!
//! Entries are immutable once stored and carry a **pre-rendered header
//! block** ([`CacheEntry::head`]) alongside the shared body: the wire
//! form of a hit is rendered once at store time (on the refresher or
//! miss-completion path, outside any shard lock), so serving a hit is
//! two shared slices handed to `writev` — zero per-request serialization
//! and zero body copies.
//!
//! ## The supersede flag and the per-reactor L1
//!
//! Every store installs a *new* `Arc<CacheEntry>`, so "is my copy still
//! the resident one" is one bit on the copy itself: a copy that leaves
//! its shard's map — replaced by a store, pushed out by the LRU bound, or
//! removed — is marked **superseded**, once and for good. The flag has
//! one writer, the shard's map mutation, under the shard write lock
//! (`Release`), and one reader, [`L1Cache::lookup`]
//! ([`CacheEntry::is_current`], one `Relaxed` load) — no shard lock on
//! the L1 hit path at all. A set flag means the copy *may* be stale; the
//! reader falls through to the shared cache and refills. A whole-cache
//! **generation** counter covers bulk invalidation (admin rule swaps).

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use mutcon_core::time::Timestamp;
use mutcon_http::date::write_http_date;
use mutcon_http::message::push_decimal;
use mutcon_proxy::cache::LruMap;
use mutcon_traces::json::Json;

use crate::metrics::{metrics, put, Counter};

/// Number of independent shards (a fixed power of two so the hash→shard
/// map is a mask).
pub const SHARD_COUNT: usize = 16;

/// One cached object copy as served to clients.
///
/// Immutable after construction: [`CacheEntry::new`] renders the serving
/// header block once, so every later hit reuses it. Fields are private to
/// keep the pre-rendered head in sync with what it describes. Neither
/// `Clone` nor `PartialEq`: the supersede flag is identity, and a clone
/// of the resident copy is not the resident copy.
#[derive(Debug)]
pub struct CacheEntry {
    body: Bytes,
    last_modified: Timestamp,
    value: Option<f64>,
    version: Option<String>,
    /// Pre-rendered response head: status line and headers (including
    /// `content-length`), **without** the terminating blank line, so the
    /// server can append per-response headers (`x-cache`,
    /// `connection: close`) before the body.
    head: Bytes,
    /// Set once, under its shard's write lock, when this copy leaves the
    /// map (see the module docs); never cleared.
    superseded: AtomicBool,
}

impl CacheEntry {
    /// Builds an entry, rendering its serving head once, straight into
    /// one buffer.
    ///
    /// The head is exactly what [`Response::write_head`] produces for the
    /// equivalent response: status line, `last-modified`,
    /// `x-last-modified-ms`, optional `x-object-value` /
    /// `x-object-version`, and the derived `content-length`.
    ///
    /// [`Response::write_head`]: mutcon_http::message::Response::write_head
    pub fn new(
        body: Bytes,
        last_modified: Timestamp,
        value: Option<f64>,
        version: Option<String>,
    ) -> CacheEntry {
        let mut head = Vec::with_capacity(192);
        head.extend_from_slice(b"HTTP/1.1 200 OK\r\nlast-modified: ");
        write_http_date(&mut head, last_modified);
        head.extend_from_slice(b"\r\nx-last-modified-ms: ");
        push_decimal(&mut head, last_modified.as_millis());
        if let Some(v) = value {
            // Writing into a `Vec` cannot fail.
            let _ = write!(head, "\r\nx-object-value: {v}");
        }
        if let Some(ver) = &version {
            head.extend_from_slice(b"\r\nx-object-version: ");
            head.extend_from_slice(ver.as_bytes());
        }
        if !body.is_empty() {
            head.extend_from_slice(b"\r\ncontent-length: ");
            push_decimal(&mut head, body.len() as u64);
        }
        head.extend_from_slice(b"\r\n");
        CacheEntry {
            body,
            last_modified,
            value,
            version,
            head: Bytes::from(head),
            superseded: AtomicBool::new(false),
        }
    }

    /// Whether this copy is still the one resident in the shared cache,
    /// as far as this thread can see. Relaxed is the point: a store not
    /// yet visible here is exactly the propagation window the paper's Δ
    /// tolerates, and the bytes served are the ones the caller already
    /// holds — no new memory is read on the strength of this load.
    pub fn is_current(&self) -> bool {
        !self.superseded.load(Ordering::Relaxed)
    }

    /// Marks a copy that just left its shard's map. `Release` pairs with
    /// the L1's load; only called under the shard write lock.
    fn supersede(&self) {
        self.superseded.store(true, Ordering::Release);
    }

    /// The object body (cloning is a refcount bump).
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// Millisecond-precise modification stamp.
    pub fn last_modified(&self) -> Timestamp {
        self.last_modified
    }

    /// The `x-object-value` payload, for value-bearing objects.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The `x-object-version` payload.
    pub fn version(&self) -> Option<&str> {
        self.version.as_deref()
    }

    /// The pre-rendered response head (no terminating blank line).
    pub fn head(&self) -> &Bytes {
        &self.head
    }
}

struct Shard {
    map: LruMap<String, Arc<CacheEntry>, u64>,
    /// Entries pushed out by the LRU bound (not replacements/removals),
    /// surfaced by the admin stats endpoint.
    evictions: u64,
    /// Copies this shard has superseded (replacements, evictions,
    /// removals — every L1-invalidating mutation).
    version_bumps: u64,
}

impl Shard {
    /// The one place a copy enters the map: marks the copy it replaces
    /// and the copy the LRU bound evicts to make room.
    fn store(&mut self, path: &str, entry: Arc<CacheEntry>, now: u64) {
        if let Some(replaced) = self.map.get(path) {
            replaced.supersede();
            self.version_bumps += 1;
        }
        if let Some((_, victim)) = self.map.insert(path.to_owned(), entry, now) {
            victim.supersede();
            self.evictions += 1;
            self.version_bumps += 1;
        }
    }
}

/// One shard's occupancy and eviction count, as reported by
/// [`ShardedCache::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Objects currently resident in the shard.
    pub len: usize,
    /// LRU evictions the shard has performed so far.
    pub evictions: u64,
    /// Copies superseded (L1-invalidating mutations) so far.
    pub version_bumps: u64,
}

metrics! {
    /// What the shared cache counts outside any shard lock. (What a shard
    /// counts under its own lock is in [`ShardStats`].)
    pub struct CacheMetrics {
        /// Hit-path lookups that skipped the recency write lock because the
        /// entry was already the shard's most recently used — reads that
        /// never queued on a shard write lock.
        touch_skips: Counter => "cache.touch_skips";
    }
}

/// A sharded, optionally bounded cache keyed by object path.
pub struct ShardedCache {
    shards: Vec<RwLock<Shard>>,
    /// Monotonic logical clock ordering recency across all shards.
    clock: AtomicU64,
    /// Bulk-invalidation generation: bumped by admin rule swaps; every
    /// reactor L1 drops wholesale when it observes a new value.
    generation: AtomicU64,
    metrics: CacheMetrics,
    /// Whether a capacity bound is set; the unbounded cache (the
    /// paper's model, and the default) has no recency to maintain, so
    /// its hit path never touches a write lock at all.
    bounded: bool,
}

/// The shard a path maps to. Public so tests (and ops tooling) can
/// construct colliding key sets — e.g. hammering one shard from four
/// reactor threads to probe the lock discipline.
pub fn shard_of(path: &str) -> usize {
    shard_index(path)
}

/// FNV-1a; hand-rolled because the default `RandomState` hasher cannot
/// hash a bare `&str` to a shard index without building a `Hasher` per
/// call anyway, and the workspace vendors no external hashers.
fn shard_index(path: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in path.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Fold the high bits in so the mask doesn't only see the low byte.
    ((hash ^ (hash >> 32)) as usize) & (SHARD_COUNT - 1)
}

/// Full 64-bit FNV-1a (the shard index above keeps only masked bits; the
/// L1's probe sequence wants the whole hash).
fn fnv1a(path: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in path.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ShardedCache {
    /// A cache bounded to roughly `capacity` objects in total (`None` =
    /// unbounded, the paper's infinite-cache model). The bound is
    /// enforced per shard at `ceil(capacity / SHARD_COUNT)`, so the
    /// worst-case total is within one object per shard of the target.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn new(capacity: Option<usize>) -> ShardedCache {
        let per_shard = capacity.map(|c| {
            assert!(c > 0, "cache capacity must be positive");
            c.div_ceil(SHARD_COUNT)
        });
        ShardedCache {
            shards: (0..SHARD_COUNT)
                .map(|_| {
                    RwLock::new(Shard {
                        map: match per_shard {
                            Some(cap) => LruMap::with_capacity(cap),
                            None => LruMap::unbounded(),
                        },
                        evictions: 0,
                        version_bumps: 0,
                    })
                })
                .collect(),
            clock: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            metrics: CacheMetrics::default(),
            bounded: per_shard.is_some(),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a copy; the returned `Arc` is a refcount bump, no byte
    /// copying. On a bounded cache LRU recency is refreshed only if the
    /// shard's write lock is free (see module docs) — and not at all
    /// when the entry is already the shard's most recently used, where a
    /// touch could not change the eviction order: the hottest key of a
    /// skewed workload serves entirely under the shared read lock.
    /// Unbounded caches read under the shared lock unconditionally.
    pub fn get(&self, path: &str) -> Option<Arc<CacheEntry>> {
        let shard = &self.shards[shard_index(path)];
        if self.bounded {
            {
                let guard = shard.read();
                if guard.map.is_most_recent(path) {
                    self.metrics.touch_skips.inc();
                    return guard.map.get(path).cloned();
                }
            }
            if let Some(mut guard) = shard.try_write() {
                let now = self.tick();
                return guard.map.touch(path, now).cloned();
            }
        }
        shard.read().map.get(path).cloned()
    }

    /// [`ShardedCache::get`]; kept because `benchmark/` (read-only here)
    /// calls it by this name.
    pub fn get_versioned(&self, path: &str) -> Option<Arc<CacheEntry>> {
        self.get(path)
    }

    /// Stores (or replaces) a copy, evicting the shard's LRU entry if
    /// the shard is at capacity. The replaced copy and the evicted one
    /// are superseded: every outstanding L1 copy of either is
    /// invalidated.
    pub fn insert(&self, path: &str, entry: CacheEntry) {
        let now = self.tick();
        self.shards[shard_index(path)].write().store(path, Arc::new(entry), now);
    }

    /// Stores a copy unless a strictly fresher one (by modification
    /// stamp) is already resident — the check and the insert happen
    /// under one shard write lock, so a slow fetch that raced a faster
    /// refresh can never clobber the newer copy. Returns the entry now
    /// resident (the given one, or the fresher incumbent).
    pub fn insert_if_newer(&self, path: &str, entry: CacheEntry) -> Arc<CacheEntry> {
        let now = self.tick();
        let entry = Arc::new(entry);
        let mut shard = self.shards[shard_index(path)].write();
        if let Some(existing) = shard.map.get(path) {
            if existing.last_modified > entry.last_modified {
                return Arc::clone(existing);
            }
        }
        shard.store(path, Arc::clone(&entry), now);
        entry
    }

    /// Drops a copy (the admin plane evicts paths whose refresh rule was
    /// removed — an unrefreshed copy would otherwise be served stale
    /// forever). Returns the removed entry, if one was resident; it is
    /// superseded, so outstanding L1 copies reject on their next
    /// validation.
    pub fn remove(&self, path: &str) -> Option<Arc<CacheEntry>> {
        let mut shard = self.shards[shard_index(path)].write();
        let removed = shard.map.remove(path)?;
        removed.supersede();
        shard.version_bumps += 1;
        Some(removed)
    }

    /// The bulk-invalidation generation. Relaxed: the L1 only needs to
    /// observe new values eventually-promptly, and a swap's own shard
    /// removals supersede their copies with `Release` ordering anyway.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Invalidates every reactor L1 wholesale (admin rule swaps call
    /// this: membership of the rule set changed, so conservatively no
    /// reactor-local copy should outlive the swap).
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Writes the `cache` section of the stats document: the cells, then
    /// what the shards count under their own locks, per shard and summed.
    pub fn render(&self, doc: &mut Json) {
        self.metrics.render(doc);
        let num = |n: u64| Json::Number(n as f64);
        let shards = self.shard_stats();
        let rows = shards.iter().map(|s| {
            let mut row = Json::Null;
            put(&mut row, "len", num(s.len as u64));
            put(&mut row, "evictions", num(s.evictions));
            put(&mut row, "version_bumps", num(s.version_bumps));
            row
        });
        put(doc, "cache.shards", Json::Array(rows.collect()));
        put(doc, "cache.objects", num(shards.iter().map(|s| s.len as u64).sum()));
        put(doc, "cache.evictions", num(shards.iter().map(|s| s.evictions).sum()));
        put(doc, "cache.version_bumps", num(shards.iter().map(|s| s.version_bumps).sum()));
        put(doc, "cache.generation", num(self.generation()));
    }

    /// Total copies superseded across all shards.
    pub fn version_bumps(&self) -> u64 {
        self.shards.iter().map(|s| s.read().version_bumps).sum()
    }

    /// Total cached objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of objects in one shard (tests assert the cross-shard
    /// bound with this).
    ///
    /// # Panics
    ///
    /// Panics if `index >= SHARD_COUNT`.
    pub fn shard_len(&self, index: usize) -> usize {
        self.shards[index].read().map.len()
    }

    /// Per-shard occupancy and eviction counts (the admin stats
    /// endpoint's view of the cache), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.read();
                ShardStats {
                    len: shard.map.len(),
                    evictions: shard.evictions,
                    version_bumps: shard.version_bumps,
                }
            })
            .collect()
    }

    /// Total LRU evictions across all shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.read().evictions).sum()
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &SHARD_COUNT)
            .field("len", &self.len())
            .finish()
    }
}

/// Slots a probe inspects per path: one cache line's worth of window.
/// Open addressing with a fixed window needs no tombstones — lookups
/// always scan the whole window, inserts evict the window's LRU slot
/// when every slot is taken.
const L1_PROBE: usize = 8;

struct L1Slot {
    path: String,
    entry: Arc<CacheEntry>,
    /// Local recency; only breaks eviction ties within a probe window.
    used: u64,
}

/// Outcome of an [`L1Cache::lookup`].
#[derive(Debug, Clone)]
pub enum L1Lookup {
    /// Resident and revalidated: the copy is provably current as of the
    /// flag load — the linearization point of an L1 serve.
    Hit(Arc<CacheEntry>),
    /// Resident but superseded — the shared cache mutated the path. The
    /// slot has been dropped; refill from L2.
    Stale,
    /// Not resident.
    Miss,
}

/// A reactor-local hot-object cache: an open-addressed `path →
/// Arc<CacheEntry>` map consulted before the shared [`ShardedCache`].
/// Owned by one reactor thread, so reads and writes are plain `&mut` —
/// no locks, no atomics except the single relaxed flag load that
/// revalidates a hit.
pub struct L1Cache {
    slots: Vec<Option<L1Slot>>,
    mask: u64,
    /// The shared cache's bulk-invalidation generation last observed;
    /// a change drops every slot before the lookup proceeds.
    generation: u64,
    tick: u64,
    len: usize,
}

impl L1Cache {
    /// An L1 holding roughly `capacity` objects (rounded up to a power
    /// of two, minimum one probe window).
    pub fn new(capacity: usize) -> L1Cache {
        let slots = capacity.max(L1_PROBE).next_power_of_two();
        L1Cache {
            slots: (0..slots).map(|_| None).collect(),
            mask: (slots - 1) as u64,
            generation: 0,
            tick: 0,
            len: 0,
        }
    }

    /// Looks up `path`, revalidating any resident copy against its
    /// supersede flag ([`CacheEntry::is_current`], the single
    /// revalidation load) and against the shared cache's bulk
    /// `generation` (a changed generation clears the whole L1).
    pub fn lookup(&mut self, path: &str, generation: u64) -> L1Lookup {
        if generation != self.generation {
            self.clear();
            self.generation = generation;
            return L1Lookup::Miss;
        }
        let base = fnv1a(path);
        for i in 0..L1_PROBE as u64 {
            let idx = ((base.wrapping_add(i)) & self.mask) as usize;
            let Some(slot) = &mut self.slots[idx] else {
                continue;
            };
            if slot.path != path {
                continue;
            }
            if slot.entry.is_current() {
                self.tick += 1;
                slot.used = self.tick;
                return L1Lookup::Hit(Arc::clone(&slot.entry));
            }
            self.slots[idx] = None;
            self.len -= 1;
            return L1Lookup::Stale;
        }
        L1Lookup::Miss
    }

    /// Refills after an L2 hit. A full probe window evicts its least
    /// recently used slot: `true` when it did. A slot that is reused
    /// keeps its `String`, so refilling a resident path allocates
    /// nothing.
    pub fn insert(&mut self, path: &str, entry: Arc<CacheEntry>) -> bool {
        let base = fnv1a(path);
        self.tick += 1;
        let mut empty = None;
        let mut lru: Option<(usize, u64)> = None;
        for i in 0..L1_PROBE as u64 {
            let idx = ((base.wrapping_add(i)) & self.mask) as usize;
            match &mut self.slots[idx] {
                Some(slot) if slot.path == path => {
                    slot.entry = entry;
                    slot.used = self.tick;
                    return false;
                }
                Some(slot) => {
                    if lru.map_or(true, |(_, used)| slot.used < used) {
                        lru = Some((idx, slot.used));
                    }
                }
                None => {
                    if empty.is_none() {
                        empty = Some(idx);
                    }
                }
            }
        }
        let idx = empty
            .or(lru.map(|(idx, _)| idx))
            .expect("a probe window has slots");
        match &mut self.slots[idx] {
            Some(slot) => {
                slot.path.clear();
                slot.path.push_str(path);
                slot.entry = entry;
                slot.used = self.tick;
                true
            }
            vacant => {
                *vacant = Some(L1Slot {
                    path: path.to_owned(),
                    entry,
                    used: self.tick,
                });
                self.len += 1;
                false
            }
        }
    }

    /// Drops every slot (bulk invalidation).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    /// Objects currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the L1 holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl std::fmt::Debug for L1Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L1Cache")
            .field("capacity", &self.slots.len())
            .field("len", &self.len)
            .field("generation", &self.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(stamp: u64) -> CacheEntry {
        CacheEntry::new(
            Bytes::copy_from_slice(format!("v{stamp}").as_bytes()),
            Timestamp::from_millis(stamp),
            Some(stamp as f64),
            Some(stamp.to_string()),
        )
    }

    #[test]
    fn round_trips_entries() {
        let cache = ShardedCache::new(None);
        assert!(cache.is_empty());
        assert!(cache.get("/a").is_none());
        cache.insert("/a", entry(1));
        let got = cache.get("/a").expect("stored");
        assert_eq!(got.last_modified(), Timestamp::from_millis(1));
        assert_eq!(&got.body()[..], b"v1");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_shares_one_entry_allocation() {
        let cache = ShardedCache::new(None);
        cache.insert("/a", entry(1));
        let first = cache.get("/a").unwrap();
        let second = cache.get("/a").unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "hits must hand out the same Arc, not clones"
        );
        // The bounded cache's try_write touch path must share too.
        let bounded = ShardedCache::new(Some(16));
        bounded.insert("/a", entry(1));
        let first = bounded.get("/a").unwrap();
        let second = bounded.get("/a").unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn entries_pre_render_their_serving_head() {
        let e = CacheEntry::new(
            Bytes::from("payload"),
            Timestamp::from_millis(784_111_777_123),
            Some(2.5),
            Some("v7".to_owned()),
        );
        let head = std::str::from_utf8(e.head()).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head:?}");
        assert!(head.contains("last-modified: "));
        assert!(head.contains("x-last-modified-ms: 784111777123\r\n"));
        assert!(head.contains("x-object-value: 2.5\r\n"));
        assert!(head.contains("x-object-version: v7\r\n"));
        assert!(head.contains("content-length: 7\r\n"));
        assert!(
            !head.ends_with("\r\n\r\n"),
            "head must leave room for per-response headers"
        );
        // Optional fields stay out of the head entirely.
        let bare = CacheEntry::new(Bytes::from("x"), Timestamp::from_millis(1), None, None);
        let head = std::str::from_utf8(bare.head()).unwrap();
        assert!(!head.contains("x-object-value"));
        assert!(!head.contains("x-object-version"));
    }

    /// The golden test for the direct render: byte for byte what the
    /// builder path (`Response::write_head` of the equivalent response)
    /// produces, over value × version × empty / non-empty body.
    #[test]
    fn head_equals_write_head_of_the_equivalent_response() {
        use mutcon_http::headers::HeaderName;
        use mutcon_http::message::Response;

        let stamps = [0, 999, 784_111_777_123, 4_102_444_800_000, 253_402_300_799_999];
        let values = [None, Some(0.0), Some(-2.5), Some(1e21), Some(f64::MIN_POSITIVE)];
        let versions = [None, Some(""), Some("0"), Some("v7 (beta)")];
        let bodies = [Bytes::new(), Bytes::from("x"), Bytes::from(vec![7u8; 8192])];
        for stamp in stamps.map(Timestamp::from_millis) {
            for value in values {
                for version in versions {
                    for body in &bodies {
                        let mut builder = Response::ok()
                            .last_modified(stamp)
                            .header("x-last-modified-ms", stamp.as_millis().to_string());
                        if let Some(v) = value {
                            builder = builder.header(HeaderName::X_OBJECT_VALUE, v.to_string());
                        }
                        if let Some(ver) = version {
                            builder = builder.header(HeaderName::X_OBJECT_VERSION, ver);
                        }
                        let golden = builder.body(body.clone()).build().head_bytes();
                        let entry =
                            CacheEntry::new(body.clone(), stamp, value, version.map(str::to_owned));
                        assert_eq!(
                            String::from_utf8_lossy(entry.head()),
                            String::from_utf8_lossy(&golden),
                            "{stamp:?} {value:?} {version:?} body {}",
                            body.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replacement_keeps_len() {
        let cache = ShardedCache::new(None);
        cache.insert("/a", entry(1));
        cache.insert("/a", entry(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.get("/a").unwrap().last_modified(),
            Timestamp::from_millis(2)
        );
    }

    #[test]
    fn insert_if_newer_never_rolls_back() {
        let cache = ShardedCache::new(None);
        // A slow fetch (stamp 5) loses to the resident fresher copy.
        cache.insert("/a", entry(10));
        let resident = cache.insert_if_newer("/a", entry(5));
        assert_eq!(resident.last_modified(), Timestamp::from_millis(10));
        assert_eq!(
            cache.get("/a").unwrap().last_modified(),
            Timestamp::from_millis(10)
        );
        // A fresher fetch replaces.
        let resident = cache.insert_if_newer("/a", entry(20));
        assert_eq!(resident.last_modified(), Timestamp::from_millis(20));
        assert_eq!(
            cache.get("/a").unwrap().last_modified(),
            Timestamp::from_millis(20)
        );
        // Equal stamps re-store (idempotent refresh).
        let resident = cache.insert_if_newer("/a", entry(20));
        assert_eq!(resident.last_modified(), Timestamp::from_millis(20));
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = ShardedCache::new(None);
        for i in 0..256 {
            cache.insert(&format!("/obj/{i}"), entry(i));
        }
        let populated = (0..SHARD_COUNT)
            .filter(|&s| cache.shard_len(s) > 0)
            .count();
        assert!(
            populated >= SHARD_COUNT / 2,
            "FNV spread only {populated}/{SHARD_COUNT} shards"
        );
        assert_eq!(cache.len(), 256);
    }

    #[test]
    fn capacity_bounds_hold_per_shard_and_in_total() {
        let capacity = 64;
        let cache = ShardedCache::new(Some(capacity));
        let per_shard = capacity / SHARD_COUNT; // 4
        for i in 0..10_000u64 {
            cache.insert(&format!("/spray/{i}"), entry(i));
        }
        for s in 0..SHARD_COUNT {
            assert!(
                cache.shard_len(s) <= per_shard,
                "shard {s} holds {} > {per_shard}",
                cache.shard_len(s)
            );
        }
        assert!(cache.len() <= capacity);
        assert!(cache.len() > 0);
    }

    #[test]
    fn recently_used_entries_survive_eviction_pressure() {
        let cache = ShardedCache::new(Some(SHARD_COUNT * 4));
        cache.insert("/hot", entry(0));
        for i in 0..5_000u64 {
            // Keep /hot recent while strangers pour into (among others)
            // its shard.
            let _ = cache.get("/hot");
            cache.insert(&format!("/cold/{i}"), entry(i));
        }
        assert!(
            cache.get("/hot").is_some(),
            "constantly-touched entry was evicted"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ShardedCache::new(Some(0));
    }

    #[test]
    fn remove_drops_the_entry() {
        let cache = ShardedCache::new(None);
        cache.insert("/a", entry(1));
        assert!(cache.remove("/a").is_some());
        assert!(cache.remove("/a").is_none());
        assert!(cache.get("/a").is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn hot_entry_reads_skip_the_write_lock() {
        let cache = ShardedCache::new(Some(SHARD_COUNT * 4));
        cache.insert("/hot", entry(1));
        assert_eq!(cache.metrics.touch_skips(), 0);
        // The freshly inserted entry is its shard's most recent: every
        // repeat read takes the skip path, and recency stays intact.
        for _ in 0..10 {
            assert!(cache.get("/hot").is_some());
        }
        assert_eq!(cache.metrics.touch_skips(), 10);
        // A second key in the same shard displaces /hot from the
        // recency tail; its next read must take the touch path again
        // (no new skip) and restore it.
        let colliding = (0..)
            .map(|i| format!("/hot/{i}"))
            .find(|p| shard_of(p) == shard_of("/hot"))
            .unwrap();
        cache.insert(&colliding, entry(2));
        let skips = cache.metrics.touch_skips();
        assert!(cache.get("/hot").is_some());
        assert_eq!(cache.metrics.touch_skips(), skips, "non-tail read must not skip");
        assert!(cache.get("/hot").is_some());
        assert_eq!(cache.metrics.touch_skips(), skips + 1, "touched entry skips again");
        // Unbounded caches have no recency to protect; no skip counting.
        let unbounded = ShardedCache::new(None);
        unbounded.insert("/a", entry(1));
        let _ = unbounded.get("/a");
        assert_eq!(unbounded.metrics.touch_skips(), 0);
    }

    #[test]
    fn touch_skip_preserves_lru_survival() {
        // The regression the counter guards: skipping the touch for the
        // most-recent entry must never let eviction pressure push out a
        // constantly-read key.
        let cache = ShardedCache::new(Some(SHARD_COUNT * 4));
        cache.insert("/hot", entry(0));
        for i in 0..5_000u64 {
            let _ = cache.get("/hot");
            cache.insert(&format!("/cold/{i}"), entry(i));
        }
        assert!(cache.get("/hot").is_some(), "hot entry evicted");
        assert!(cache.metrics.touch_skips() > 0, "skew never took the skip path");
    }

    /// Named for the counter (`version_bumps`): what is checked is that
    /// each of the four mutations supersedes exactly the copy it should.
    #[test]
    fn version_handles_bump_on_every_invalidating_mutation() {
        let cache = ShardedCache::new(None);
        // A first store supersedes nothing.
        cache.insert("/a", entry(1));
        assert_eq!(cache.version_bumps(), 0);
        let v1 = cache.get("/a").expect("resident");
        assert!(v1.is_current());

        // A replacement supersedes the copy it replaces, not the new one.
        cache.insert("/a", entry(2));
        assert!(!v1.is_current());
        let v2 = cache.get("/a").expect("resident");
        assert!(v2.is_current());

        // A stale `insert_if_newer` offer supersedes nothing.
        let resident = cache.insert_if_newer("/a", entry(1));
        assert!(Arc::ptr_eq(&resident, &v2));
        assert!(v2.is_current());
        assert_eq!(cache.version_bumps(), 1);

        // An accepted offer supersedes the incumbent.
        let v3 = cache.insert_if_newer("/a", entry(3));
        assert!(!v2.is_current());
        assert!(v3.is_current());

        // Removal supersedes the removed copy.
        cache.remove("/a");
        assert!(!v3.is_current());
        assert!(cache.get("/a").is_none());
        assert_eq!(cache.version_bumps(), 3, "two replacements + one removal");
    }

    #[test]
    fn lru_eviction_bumps_the_victims_version() {
        let cache = ShardedCache::new(Some(SHARD_COUNT)); // 1 per shard
        cache.insert("/seed/0", entry(0));
        let seed = cache.get("/seed/0").expect("resident");
        // Pour colliding strangers into its shard until it is evicted.
        for i in 0..200u64 {
            let path = format!("/spray/{i}");
            if shard_of(&path) == shard_of("/seed/0") {
                cache.insert(&path, entry(i));
            }
        }
        assert!(cache.get("/seed/0").is_none(), "victim still resident");
        assert!(
            !seed.is_current(),
            "eviction must invalidate outstanding L1 copies"
        );
        assert_eq!(
            cache.version_bumps(),
            cache.evictions(),
            "each eviction supersedes one copy, the victim"
        );
    }

    #[test]
    fn generation_bumps_are_observable() {
        let cache = ShardedCache::new(None);
        let g = cache.generation();
        cache.bump_generation();
        assert_eq!(cache.generation(), g + 1);
    }

    #[test]
    fn l1_round_trip_and_revalidation() {
        let cache = ShardedCache::new(None);
        let mut l1 = L1Cache::new(32);
        assert!(l1.is_empty());
        assert!(matches!(l1.lookup("/a", cache.generation()), L1Lookup::Miss));

        cache.insert("/a", entry(1));
        l1.insert("/a", cache.get("/a").unwrap());
        assert_eq!(l1.len(), 1);
        let L1Lookup::Hit(hit) = l1.lookup("/a", cache.generation()) else {
            panic!("valid entry must hit");
        };
        assert_eq!(&hit.body()[..], b"v1");

        // A store invalidates: next lookup rejects as stale and drops
        // the slot, the one after misses.
        cache.insert("/a", entry(2));
        assert!(matches!(l1.lookup("/a", cache.generation()), L1Lookup::Stale));
        assert!(matches!(l1.lookup("/a", cache.generation()), L1Lookup::Miss));
        assert!(l1.is_empty());

        // Refill serves the new copy.
        l1.insert("/a", cache.get("/a").unwrap());
        let L1Lookup::Hit(hit) = l1.lookup("/a", cache.generation()) else {
            panic!("refilled entry must hit");
        };
        assert_eq!(&hit.body()[..], b"v2");
    }

    #[test]
    fn l1_generation_change_clears_everything() {
        let cache = ShardedCache::new(None);
        let mut l1 = L1Cache::new(32);
        for i in 0..8u64 {
            let path = format!("/g/{i}");
            cache.insert(&path, entry(i));
            l1.insert(&path, cache.get(&path).unwrap());
        }
        assert_eq!(l1.len(), 8);
        cache.bump_generation();
        assert!(matches!(l1.lookup("/g/0", cache.generation()), L1Lookup::Miss));
        assert!(l1.is_empty(), "a new generation drops every slot");
        // Same generation again: refills are accepted as usual.
        l1.insert("/g/0", cache.get("/g/0").unwrap());
        assert!(matches!(l1.lookup("/g/0", cache.generation()), L1Lookup::Hit(_)));
    }

    #[test]
    fn l1_probe_window_evicts_lru_under_pressure() {
        let cache = ShardedCache::new(None);
        let mut l1 = L1Cache::new(L1_PROBE); // one window total
        let mut evictions = 0;
        for i in 0..(L1_PROBE as u64 + 4) {
            let path = format!("/p/{i}");
            cache.insert(&path, entry(i));
            evictions += u64::from(l1.insert(&path, cache.get(&path).unwrap()));
        }
        assert!(l1.len() <= L1_PROBE);
        assert_eq!(evictions, 4, "a full window evicts its LRU slot");
        // The most recent insert is resident.
        let last = format!("/p/{}", L1_PROBE as u64 + 3);
        assert!(matches!(l1.lookup(&last, cache.generation()), L1Lookup::Hit(_)));
    }

    #[test]
    fn l1_replaces_in_place_without_eviction() {
        let cache = ShardedCache::new(None);
        let mut l1 = L1Cache::new(32);
        cache.insert("/a", entry(1));
        assert!(!l1.insert("/a", cache.get("/a").unwrap()));
        cache.insert("/a", entry(2));
        assert!(!l1.insert("/a", cache.get("/a").unwrap()), "replaced, not evicted");
        assert_eq!(l1.len(), 1);
        let L1Lookup::Hit(hit) = l1.lookup("/a", cache.generation()) else {
            panic!("replaced entry must hit");
        };
        assert_eq!(&hit.body()[..], b"v2");
    }

    #[test]
    fn eviction_counters_track_lru_pressure_only() {
        let cache = ShardedCache::new(Some(SHARD_COUNT)); // 1 per shard
        assert_eq!(cache.evictions(), 0);
        for i in 0..100u64 {
            cache.insert(&format!("/spray/{i}"), entry(i));
        }
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), SHARD_COUNT);
        let total: u64 = stats.iter().map(|s| s.evictions).sum();
        assert_eq!(total, cache.evictions());
        assert!(total > 0, "100 inserts into 16 one-entry shards must evict");
        assert_eq!(stats.iter().map(|s| s.len).sum::<usize>(), cache.len());
        // Replacements and removals are not evictions.
        let unbounded = ShardedCache::new(None);
        unbounded.insert("/a", entry(1));
        unbounded.insert("/a", entry(2));
        unbounded.remove("/a");
        assert_eq!(unbounded.evictions(), 0);
    }
}
