//! Deterministic concurrency scenarios for the multi-reactor live proxy
//! and its keep-alive origin pool, driven by the in-process harness
//! (fake clock + scripted origin + seeded schedules; see `harness/`).
//!
//! Scenarios pin the reactor count explicitly and derive every schedule
//! from a fixed seed, so a failure replays bit-identically.

mod harness;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use bytes::Bytes;
use harness::{stamp_of, Behavior, FakeClock, ScriptedOrigin, CLOCK_BASE_MS};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_live::cache::{shard_of, CacheEntry, ShardedCache, SHARD_COUNT};
use mutcon_live::client::HttpClient;
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_http::types::StatusCode;
use mutcon_sim::rng::SimRng;

/// A proxy in front of a scripted origin with an explicit reactor count
/// and no refresher rules.
fn plain_proxy(origin: &ScriptedOrigin, reactors: usize) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        reactors: Some(reactors),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy")
}

/// Polls the proxy's counters until `misses` have registered (5 s cap).
fn wait_for_misses(proxy: &LiveProxy, misses: usize) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while proxy.stats().misses != misses as u64 {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {misses} misses; stats: {:?}",
            proxy.stats()
        );
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

/// Satellite regression test: 100 concurrent misses for one key must
/// produce exactly one origin fetch (N waiters, one keep-alive fetch).
/// The origin parks the single fetch behind a gate until every miss is
/// provably submitted, so the coalescing race is real, not luck.
#[test]
fn hundred_concurrent_misses_coalesce_into_one_origin_fetch() {
    const CLIENTS: usize = 100;

    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    origin.script("/hot", vec![Behavior::Hold]);
    // One reactor: coalescing is per-reactor, and this test asserts the
    // exact per-reactor guarantee.
    let proxy = plain_proxy(&origin, 1);
    let addr = proxy.local_addr();

    // All client threads park on a barrier before sending, so the slow
    // part (spawning 100 threads) happens *before* the origin fetch is
    // parked — the gate window stays far below the reactor's upstream
    // timeout.
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let readers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let client = HttpClient::with_timeout(StdDuration::from_secs(10));
                barrier.wait();
                let resp = client
                    .get(addr, "/hot", None)
                    .unwrap_or_else(|e| panic!("client {i}: {e}"));
                (resp.status(), stamp_of(&resp))
            })
        })
        .collect();

    // The fetch is parked at the origin; once the proxy has counted all
    // 100 misses, every waiter is coalesced onto that one job.
    origin.wait_for_held(1);
    wait_for_misses(&proxy, CLIENTS);
    origin.release_all();

    let mut stamps = Vec::new();
    for reader in readers {
        let (status, stamp) = reader.join().expect("reader panicked");
        assert_eq!(status, StatusCode::OK);
        stamps.push(stamp);
    }
    assert!(
        stamps.windows(2).all(|w| w[0] == w[1]),
        "every waiter must see the single fetched copy"
    );
    assert_eq!(
        origin.fetches("/hot"),
        1,
        "100 concurrent misses must coalesce into one origin fetch; log: {:?}",
        origin.log()
    );
    assert_eq!(
        origin.accepted(),
        1,
        "one pooled connection carries the one fetch"
    );
}

/// Sequential misses for different keys ride one pooled keep-alive
/// connection — the one-socket-per-miss era is over.
#[test]
fn sequential_misses_reuse_one_origin_connection() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = plain_proxy(&origin, 1);
    let client = HttpClient::new();
    for path in ["/p/1", "/p/2", "/p/3", "/p/4", "/p/5"] {
        let resp = client.get(proxy.local_addr(), path, None).expect(path);
        assert_eq!(resp.status(), StatusCode::OK, "{path}");
        assert_eq!(origin.fetches(path), 1, "{path} fetched exactly once");
    }
    assert_eq!(
        origin.accepted(),
        1,
        "five misses must share one keep-alive origin connection; log: {:?}",
        origin.log()
    );
}

/// Mid-transfer origin death: the waiter gets a clean 500 (no retry —
/// response bytes had arrived, so the socket was not merely stale), the
/// broken socket leaves the pool, and the next miss fetches fresh.
#[test]
fn mid_transfer_origin_death_fails_cleanly_then_recovers() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    origin.script("/frail", vec![Behavior::DieMidTransfer]);
    let proxy = plain_proxy(&origin, 1);
    let client = HttpClient::with_timeout(StdDuration::from_secs(10));

    let failed = client.get(proxy.local_addr(), "/frail", None).expect("response");
    assert_eq!(
        failed.status(),
        StatusCode::INTERNAL_SERVER_ERROR,
        "a truncated origin transfer must surface as a 500"
    );

    let recovered = client.get(proxy.local_addr(), "/frail", None).expect("response");
    assert_eq!(recovered.status(), StatusCode::OK, "the retry-by-client recovers");
    assert_eq!(origin.fetches("/frail"), 2);
    assert_eq!(
        origin.log(),
        vec![
            "fetch /frail #1".to_owned(),
            "die /frail".to_owned(),
            "fetch /frail #2".to_owned(),
        ],
        "the event sequence is exact"
    );
}

/// A `Connection: close` response must not be pooled; later misses open
/// a fresh origin connection.
#[test]
fn close_advertised_responses_are_not_pooled() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    origin.script("/one", vec![Behavior::CloseAdvertised]);
    let proxy = plain_proxy(&origin, 1);
    let client = HttpClient::new();

    let first = client.get(proxy.local_addr(), "/one", None).expect("first");
    assert_eq!(first.status(), StatusCode::OK);
    // `Connection` is hop-by-hop: the origin's close applies to the
    // pooled origin socket and must not leak through to the client.
    assert!(
        first.wants_keep_alive(),
        "origin's Connection: close leaked through the proxy"
    );
    let second = client.get(proxy.local_addr(), "/two", None).expect("second");
    assert_eq!(second.status(), StatusCode::OK);

    assert_eq!(origin.fetches("/one"), 1);
    assert_eq!(origin.fetches("/two"), 1);
    assert_eq!(
        origin.accepted(),
        2,
        "the closed socket must not serve the second fetch; log: {:?}",
        origin.log()
    );
}

/// Stale pooled sockets: the origin serves (seeding the pool), then
/// kills the parked connection. Whichever way the race falls — the
/// reactor reaps the EOF first, or reuses the stale socket and takes
/// the one-shot retry — the next miss succeeds with exactly one fetch.
/// Seeded delays vary the interleaving reproducibly.
#[test]
fn stale_pooled_sockets_recover_transparently() {
    let mut rng = SimRng::seed_from_u64(0xD00D_F00D);
    for round in 0..8 {
        let origin = ScriptedOrigin::start(FakeClock::new());
        let silent = round % 2 == 0;
        if silent {
            // The origin itself closes the socket right after the
            // response — the proxy may pool it before noticing the EOF.
            origin.script("/seed", vec![Behavior::SilentClose]);
        }
        let proxy = plain_proxy(&origin, 1);
        let client = HttpClient::with_timeout(StdDuration::from_secs(10));

        // Miss → fetch #1 → connection parked in the pool.
        let first = client.get(proxy.local_addr(), "/seed", None).expect("warm");
        assert_eq!(first.status(), StatusCode::OK, "round {round}");

        // The parked socket dies; depending on the (seeded) delay the
        // reactor may or may not have seen the EOF before the next miss
        // tries to reuse it.
        if !silent {
            origin.drop_connections();
        }
        let delay_us = rng.uniform_u64(0, 3_000);
        std::thread::sleep(StdDuration::from_micros(delay_us));

        let second = client.get(proxy.local_addr(), "/fresh", None).expect("fresh");
        assert_eq!(
            second.status(),
            StatusCode::OK,
            "round {round} (delay {delay_us} µs): a stale pooled socket must never \
             surface to the client; log: {:?}",
            origin.log()
        );
        assert_eq!(origin.fetches("/fresh"), 1, "round {round}");
        assert!(
            origin.accepted() >= 2,
            "round {round}: the stale socket cannot have served the second fetch"
        );
    }
}

/// Refresh-vs-read interleavings on the fake-clock timeline: while the
/// background refresher rewrites the hot object and seeded readers
/// hammer it from several reactors, every reader must observe complete,
/// monotonically nondecreasing copies bounded by the logical clock.
#[test]
fn refresh_vs_read_interleavings_stay_monotonic() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/obj", Duration::from_millis(20))],
        reactors: Some(2),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");
    let addr = proxy.local_addr();

    // Warm so readers start from a cached copy.
    let warm = HttpClient::new();
    assert_eq!(warm.get(addr, "/obj", None).unwrap().status(), StatusCode::OK);

    let stop = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let clock = clock.clone();
            std::thread::spawn(move || {
                let mut rng = SimRng::seed_from_u64(0xBEEF + r);
                let client = HttpClient::with_timeout(StdDuration::from_secs(10));
                let mut last = 0u64;
                let mut served = 0u32;
                while stop.load(Ordering::SeqCst) == 0 {
                    let resp = client
                        .get(addr, "/obj", None)
                        .unwrap_or_else(|e| panic!("reader {r}: {e}"));
                    assert_eq!(resp.status(), StatusCode::OK, "reader {r}");
                    assert!(!resp.body().is_empty(), "reader {r}: torn copy");
                    let stamp = stamp_of(&resp);
                    assert!(
                        stamp >= last,
                        "reader {r}: stamp went backwards ({last} → {stamp})"
                    );
                    assert!(
                        stamp >= CLOCK_BASE_MS && stamp <= CLOCK_BASE_MS + clock.now_ms(),
                        "reader {r}: stamp {stamp} outside the logical timeline (now {})",
                        clock.now_ms()
                    );
                    last = stamp;
                    served += 1;
                    if rng.chance(0.2) {
                        std::thread::sleep(StdDuration::from_micros(rng.uniform_u64(0, 500)));
                    }
                }
                served
            })
        })
        .collect();

    // The seeded schedule drives logical time while the readers run.
    let mut rng = SimRng::seed_from_u64(0xC10C_CA5E);
    for _ in 0..60 {
        clock.advance(rng.uniform_u64(1, 40));
        std::thread::sleep(StdDuration::from_millis(5));
    }
    stop.store(1, Ordering::SeqCst);

    let total: u32 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total > 100, "readers made little progress: {total}");
    let polls = proxy.stats().polls;
    assert!(polls > 5, "refresher barely ran: {polls} polls");
}

/// One scenario function, run twice with the same seed, must produce
/// bit-identical origin logs and client transcripts — the property that
/// makes every other failure in this file reproducible.
#[test]
fn seeded_scenario_replays_bit_identically() {
    fn run_scenario(seed: u64) -> (Vec<String>, Vec<String>) {
        let clock = FakeClock::new();
        let origin = ScriptedOrigin::start(clock.clone());
        let proxy = plain_proxy(&origin, 1);
        let client = HttpClient::new();
        let mut rng = SimRng::seed_from_u64(seed);
        let paths = ["/a", "/b", "/c", "/d", "/e", "/f"];
        let mut transcript = Vec::new();
        for _ in 0..60 {
            if rng.chance(0.3) {
                clock.advance(rng.uniform_u64(1, 100));
                continue;
            }
            let path = *rng.pick(&paths);
            let resp = client.get(proxy.local_addr(), path, None).expect("get");
            transcript.push(format!("{path} {} {}", resp.status(), stamp_of(&resp)));
        }
        (origin.log(), transcript)
    }

    let first = run_scenario(42);
    let second = run_scenario(42);
    assert_eq!(first.0, second.0, "origin event logs must replay identically");
    assert_eq!(first.1, second.1, "client transcripts must replay identically");
}

/// Keys that all hash into shard 0, for hammering one shard from
/// several threads.
fn colliding_keys(n: usize) -> Arc<Vec<String>> {
    let keys: Vec<String> = (0..)
        .map(|i| format!("/collide/{i}"))
        .filter(|k| shard_of(k) == 0)
        .take(n)
        .collect();
    assert_eq!(keys.len(), n);
    Arc::new(keys)
}

/// Satellite: `ShardedCache` monotonicity under multi-reactor writers.
/// Four threads with seeded schedules hammer keys that all collide into
/// ONE shard of an *unbounded* cache (no eviction, the paper's model):
/// `insert_if_newer` must never roll a key back, under any
/// interleaving — each thread checks both what it writes and what it
/// reads against the freshest stamp it has personally observed.
#[test]
fn sharded_cache_multi_writer_insert_if_newer_is_monotone() {
    const WRITERS: u64 = 4;
    const OPS: usize = 2_500;

    let keys = colliding_keys(8);
    let cache = Arc::new(ShardedCache::new(None));
    let stamp_source = Arc::new(AtomicU64::new(1));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let cache = Arc::clone(&cache);
            let stamps = Arc::clone(&stamp_source);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                let mut rng = SimRng::seed_from_u64(0x5EED_0000 + w);
                let mut last_seen: Vec<u64> = vec![0; keys.len()];
                for _ in 0..OPS {
                    let key_idx = rng.uniform_u64(0, keys.len() as u64) as usize;
                    let key = &keys[key_idx];
                    if rng.chance(0.7) {
                        // Writer path: the returned resident copy may be
                        // a fresher incumbent but never older than what
                        // this thread just offered, nor than anything it
                        // saw before.
                        let stamp = stamps.fetch_add(1, Ordering::SeqCst);
                        let entry = CacheEntry::new(
                            Bytes::copy_from_slice(stamp.to_string().as_bytes()),
                            Timestamp::from_millis(stamp),
                            None,
                            None,
                        );
                        let resident = cache.insert_if_newer(key, entry);
                        let got = resident.last_modified().as_millis();
                        assert!(
                            got >= stamp,
                            "writer {w}: insert_if_newer rolled {key} back ({stamp} → {got})"
                        );
                        assert!(
                            got >= last_seen[key_idx],
                            "writer {w}: resident stamp for {key} went backwards \
                             ({} → {got})",
                            last_seen[key_idx]
                        );
                        last_seen[key_idx] = got;
                    } else if let Some(entry) = cache.get(key) {
                        // Reader path: entries are never torn and never
                        // older than this thread last observed.
                        let got = entry.last_modified().as_millis();
                        assert_eq!(
                            std::str::from_utf8(&entry.body()[..]).unwrap(),
                            got.to_string(),
                            "writer {w}: torn entry for {key}"
                        );
                        assert!(
                            got >= last_seen[key_idx],
                            "writer {w}: read of {key} went backwards"
                        );
                        last_seen[key_idx] = got;
                    }
                }
            })
        })
        .collect();

    for writer in writers {
        writer.join().expect("writer panicked");
    }
    // Every hammered key is resident (unbounded cache) with an issued,
    // never-invented stamp.
    let issued = stamp_source.load(Ordering::SeqCst);
    for key in keys.iter() {
        let entry = cache.get(key).expect("unbounded cache never evicts");
        assert!(entry.last_modified().as_millis() < issued);
    }
}

/// Satellite: the per-shard LRU capacity bound under four concurrent
/// writer threads spraying one shard — the bound must hold at every
/// moment, not just after the dust settles. (Monotonicity is asserted
/// per offered stamp only: a bounded cache may evict and legitimately
/// re-admit an older stamp later.)
#[test]
fn sharded_cache_multi_writer_lru_bound_holds_under_contention() {
    const WRITERS: u64 = 4;
    const OPS: usize = 2_000;

    let keys = colliding_keys(24);
    // Capacity 2·SHARD_COUNT → 2 entries per shard; all traffic lands
    // in shard 0, so its bound is the one under stress.
    let cache = Arc::new(ShardedCache::new(Some(2 * SHARD_COUNT)));
    let stamp_source = Arc::new(AtomicU64::new(1));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let cache = Arc::clone(&cache);
            let stamps = Arc::clone(&stamp_source);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                let mut rng = SimRng::seed_from_u64(0xB0_0000 + w);
                for _ in 0..OPS {
                    let key = rng.pick(&keys);
                    if rng.chance(0.8) {
                        let stamp = stamps.fetch_add(1, Ordering::SeqCst);
                        let entry = CacheEntry::new(
                            Bytes::copy_from_slice(stamp.to_string().as_bytes()),
                            Timestamp::from_millis(stamp),
                            None,
                            None,
                        );
                        let resident = cache.insert_if_newer(key, entry);
                        assert!(
                            resident.last_modified().as_millis() >= stamp,
                            "writer {w}: resident copy older than the offered one"
                        );
                    } else {
                        let _ = cache.get(key);
                    }
                    // The hammered shard must respect its LRU bound at
                    // every moment.
                    let len = cache.shard_len(0);
                    assert!(len <= 2, "writer {w}: shard 0 grew to {len} > 2");
                }
            })
        })
        .collect();

    for writer in writers {
        writer.join().expect("writer panicked");
    }
    assert!(cache.shard_len(0) <= 2);
    assert!(cache.len() <= 2 * SHARD_COUNT);
}

/// Four reactors with four SO_REUSEPORT listener shards behind one
/// port: every connection is served no matter which shard the kernel
/// picks, misses coalesce to at most one fetch *per reactor*, and the
/// shared cache keeps all shards consistent.
#[test]
fn four_reactors_serve_and_bound_coalesced_fetches() {
    const CLIENTS: usize = 64;

    let origin = ScriptedOrigin::start(FakeClock::new());
    // One Hold per reactor that may fetch: with every possible fetch
    // parked, no reactor can cache the object early, so all 64 clients
    // provably miss before the gate opens.
    origin.script("/spread", vec![Behavior::Hold; 4]);
    let proxy = plain_proxy(&origin, 4);
    assert_eq!(proxy.reactor_count(), 4);
    let addr = proxy.local_addr();

    // Barrier for the same reason as the coalescing test: keep the
    // held-fetch window clear of the thread-spawn cost.
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let readers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let client = HttpClient::with_timeout(StdDuration::from_secs(10));
                barrier.wait();
                let resp = client
                    .get(addr, "/spread", None)
                    .unwrap_or_else(|e| panic!("client {i}: {e}"));
                assert_eq!(resp.status(), StatusCode::OK, "client {i}");
            })
        })
        .collect();

    // Wait until every client's miss is counted (the counter is shared
    // across reactors), then release the parked fetches.
    origin.wait_for_held(1);
    wait_for_misses(&proxy, CLIENTS);
    origin.release_all();
    for reader in readers {
        reader.join().expect("client panicked");
    }

    let fetches = origin.fetches("/spread");
    assert!(
        (1..=4).contains(&fetches),
        "misses must coalesce per reactor: {CLIENTS} clients, {fetches} fetches \
         across 4 reactors; log: {:?}",
        origin.log()
    );
}
