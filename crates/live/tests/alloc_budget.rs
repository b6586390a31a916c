//! The miss path's allocation budget, stage by stage.
//!
//! A cache miss runs five library stages between the client's bytes and
//! the stored entry — request parse, upstream wire, response parse, the
//! store's header look-ups, `CacheEntry::new` — and then the first
//! `insert_if_newer`. Each is called here through the same public
//! functions the reactor (and the benchmark's per-layer replays) call,
//! under a counting allocator, and held to a budget. Allocation counts
//! repeat exactly from run to run, so this gate has no noise to know: a
//! stage that starts allocating per header again fails it on the first
//! run. The pool ledger's cycle around the upstream fetch has a budget of
//! its own.
//!
//! The counter is per thread, so the tests of this binary may run in
//! parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use mutcon_http::headers::HeaderName;
use mutcon_http::message::Response;
use mutcon_http::parse::{RequestParser, ResponseParser};
use mutcon_core::time::Timestamp;
use mutcon_live::cache::{shard_of, CacheEntry, L1Cache, ShardedCache, SHARD_COUNT};
use mutcon_live::client::{get_wire, ObjectStamps};
use mutcon_live::upstream::{PoolCore, Submit};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc` calls (the
/// default `realloc` and `alloc_zeroed` go through `alloc`, so a growing
/// `Vec` counts once per growth).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised, destructor-free thread-local, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations on `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `stage` and returns its result with the allocations it made.
fn counted<T>(stage: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = stage();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const PATH: &str = "/obj/000017";
const BODY_BYTES: usize = 8 * 1024;

/// What the benchmark's load generator sends for `PATH`.
fn client_request() -> Vec<u8> {
    format!("GET {PATH} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// What the benchmark's fixture origin answers: five lower-case headers
/// and an 8 KiB body.
fn origin_response() -> Vec<u8> {
    let mut wire = format!(
        "HTTP/1.1 200 OK\r\nx-last-modified-ms: 1700000000123\r\n\
         x-object-version: 7\r\ncontent-type: application/octet-stream\r\n\
         content-length: {BODY_BYTES}\r\nconnection: keep-alive\r\n\r\n"
    )
    .into_bytes();
    wire.resize(wire.len() + BODY_BYTES, b'x');
    wire
}

#[test]
fn each_stage_of_a_miss_stays_within_its_allocation_budget() {
    let request_wire = client_request();
    let response_wire = origin_response();
    let cache = ShardedCache::new(Some(1024));

    let (miss, whole_miss) = counted(|| {
        // Request parse: the head (target included) and its index.
        let (parsed, request_parse) = counted(|| RequestParser::new().advance(&request_wire));
        let (request, consumed) = parsed.expect("well-formed").expect("complete");
        assert_eq!(consumed, request_wire.len());
        assert_eq!(request.target(), PATH);
        assert!(request.wants_keep_alive());

        // Upstream wire: one buffer, which is also the coalescing key.
        let (wire, upstream_wire) = counted(|| get_wire(request.target(), "127.0.0.1:40000", None));
        assert!(wire.starts_with(b"GET /obj/000017 HTTP/1.1\r\nhost: 127.0.0.1:40000\r\n"));

        // Response parse: head, index, body.
        let (parsed, response_parse) = counted(|| ResponseParser::new().advance(&response_wire));
        let (mut response, consumed) = parsed.expect("well-formed").expect("complete");
        assert_eq!(consumed, response_wire.len());

        // What the reactor and the store ask of the headers.
        let (keep_alive, reactor_look_ups) = counted(|| {
            let keep_alive = response.wants_keep_alive();
            response.headers_mut().remove(HeaderName::CONNECTION);
            keep_alive
        });
        assert!(keep_alive);
        let (stamps, store_look_ups) = counted(|| ObjectStamps::of(&response));
        let look_ups = reactor_look_ups + store_look_ups;
        let last_modified = stamps.last_modified.expect("stamped");
        assert_eq!(last_modified.as_millis(), 1_700_000_000_123);
        assert_eq!(stamps.version, Some("7"));

        // The entry: the version string, the head, the head's `Bytes`.
        let (entry, entry_new) = counted(|| {
            CacheEntry::new(
                response.body().clone(),
                last_modified,
                stamps.value,
                stamps.version.map(str::to_owned),
            )
        });
        assert_eq!(entry.body().len(), BODY_BYTES);

        cache.insert_if_newer(PATH, entry);
        [
            request_parse,
            upstream_wire,
            response_parse,
            look_ups,
            entry_new,
        ]
    });

    let [request_parse, upstream_wire, response_parse, look_ups, entry_new] = miss;
    assert!(
        request_parse <= 2,
        "request parse: {request_parse} allocations"
    );
    assert!(
        upstream_wire <= 1,
        "upstream wire: {upstream_wire} allocations"
    );
    assert!(
        response_parse <= 3,
        "response parse: {response_parse} allocations"
    );
    assert_eq!(look_ups, 0, "store look-ups must not allocate");
    assert!(entry_new <= 3, "CacheEntry::new: {entry_new} allocations");
    assert!(whole_miss <= 14, "whole miss: {whole_miss} allocations");
}

fn entry(stamp: u64) -> CacheEntry {
    CacheEntry::new(Bytes::from_static(b"x"), Timestamp::from_millis(stamp), None, None)
}

/// What a store allocates for itself: the map's key and the entry's
/// `Arc`, plus the recency index's key on a bounded cache. Nothing is
/// kept per path beside the map, whether or not an L1 exists. The bounded
/// cache holds one object per shard, so its recency index is one node
/// that never splits and every store evicts.
#[test]
fn stores_and_l1_refills_stay_within_their_allocation_budgets() {
    let colliding: Vec<String> = (0..)
        .map(|i| format!("/obj/{i:06}"))
        .filter(|p| shard_of(p) == shard_of(PATH))
        .take(8)
        .collect();

    let bounded = ShardedCache::new(Some(SHARD_COUNT));
    bounded.insert(PATH, entry(0));
    for (stamp, path) in colliding.iter().enumerate() {
        let fresh = entry(stamp as u64);
        let (_, evicting) = counted(|| bounded.insert_if_newer(path, fresh));
        assert!(evicting <= 3, "evicting store: {evicting} allocations");
    }
    assert_eq!(bounded.evictions(), colliding.len() as u64);

    let unbounded = ShardedCache::new(None);
    unbounded.insert(PATH, entry(0)); // sizes the shard's table
    let fresh = entry(1);
    let (_, first) = counted(|| unbounded.insert_if_newer(&colliding[0], fresh));
    assert!(first <= 2, "first store of a path: {first} allocations");
    let fresh = entry(2);
    let (_, replacing) = counted(|| unbounded.insert_if_newer(&colliding[0], fresh));
    assert!(replacing <= 2, "replacing store: {replacing} allocations");

    // An L1 refill of a path that is already resident, as after every
    // refresh of a hot object, reuses the slot and its `String`.
    let mut l1 = L1Cache::new(32);
    let copy = unbounded.get(&colliding[0]).expect("stored above");
    l1.insert(&colliding[0], copy.clone());
    let (evicted, refill) = counted(|| l1.insert(&colliding[0], copy));
    assert!(!evicted);
    assert_eq!(refill, 0, "L1 refill of a resident path");
}

/// The pool ledger's share of a sequential miss, in steady state: the
/// job's request bytes and its waiter list. The origin's record (its
/// coalescing index, queue and idle list) was made by the first miss and
/// is not made again.
#[test]
fn a_pool_cycle_allocates_for_the_job_alone() {
    let addr = "127.0.0.1:40000".parse().expect("literal");
    let now = std::time::Instant::now();
    let mut pool: PoolCore<u32> = PoolCore::default();
    pool.note_opened(addr);
    pool.release_idle(addr, 7, now);
    let mut cycle = |waiter: u32| {
        let wire = get_wire(PATH, "127.0.0.1:40000", None);
        counted(|| {
            let Submit::New(job) = pool.submit(addr, wire, waiter) else {
                panic!("nothing to coalesce onto")
            };
            assert_eq!(pool.pop_queued(addr), Some(job));
            let conn = pool.claim_idle(addr).expect("parked by the cycle before");
            pool.assign(job, conn);
            let done = pool.complete(job).expect("live job");
            pool.release_idle(addr, conn, now);
            done.waiters.len()
        })
    };
    cycle(0); // the first miss makes the record and sizes its containers
    for waiter in 1..4 {
        let (waiters, allocations) = cycle(waiter);
        assert_eq!(waiters, 1);
        assert!(allocations <= 2, "pool cycle: {allocations} allocations");
    }
}

/// The serializing side: a response the engine renders per connection
/// (admin replies, pass-throughs) formats its status and length without
/// a `String`, and an empty `Bytes` is free.
#[test]
fn head_rendering_and_empty_bodies_do_not_allocate() {
    let response = Response::ok()
        .header(HeaderName::CONTENT_TYPE, "text/plain")
        .body(&b"hello"[..])
        .build();
    let mut out = Vec::with_capacity(256);
    let ((), render) = counted(|| response.write_head(&mut out));
    assert_eq!(render, 0, "write_head into a buffer with room");
    assert_eq!(
        out,
        b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 5\r\n"
    );
    let (empty, made) = counted(Bytes::new);
    assert!(empty.is_empty());
    assert_eq!(made, 0, "Bytes::new");
}
