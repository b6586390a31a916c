//! Coherence scenarios for the proxy's one cache, driven by the
//! deterministic harness (fake clock + scripted origin + seeded
//! schedules; see `harness/`).
//!
//! A hit is served from the shared cache under its shard's read lock,
//! which is the read's linearization point; no reactor keeps a copy of
//! its own. These scenarios attack that from the outside: readers hammer
//! a path on one and on two reactors while the refresher stores newer
//! bodies, seeded runs must replay bit-identically, and a rules install
//! sends the next read of a path it un-rules to the origin while every
//! other cached copy stays a hit. The last scenario states the rule of
//! the copy cache `benchmark/` replays (`L1Cache`, kept for it) on the
//! two caches alone, without sockets.
//!
//! Reactor counts are inputs of the scenarios, pinned explicitly.

mod harness;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use bytes::Bytes;
use harness::{get, put, stamp_of, stats_counter, FakeClock, ScriptedOrigin, CLOCK_BASE_MS};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_http::types::StatusCode;
use mutcon_live::cache::{shard_of, CacheEntry, L1Cache, L1Lookup, ShardedCache, SHARD_COUNT};
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_sim::rng::SimRng;

/// A proxy on `reactors` reactors with an optional refresher rule set.
fn proxy(origin: &ScriptedOrigin, reactors: usize, rules: Vec<RefreshRule>) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        rules,
        reactors: Some(reactors),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy")
}

/// The refresher keeps storing newer bodies for the hot object (every
/// store a version bump) while seeded readers hammer it, on one reactor
/// and on two. Every reader must observe complete copies whose body
/// bytes match the version header, with stamps monotonically
/// nondecreasing and bounded by the logical clock.
#[test]
fn readers_never_see_old_bytes_after_a_version_bump() {
    for reactors in [1, 2] {
        readers_race_the_refresher(reactors);
    }
}

fn readers_race_the_refresher(reactors: usize) {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = proxy(
        &origin,
        reactors,
        vec![RefreshRule::new("/hot", Duration::from_millis(20))],
    );
    let addr = proxy.local_addr();

    // Warm so readers start from a cached copy.
    assert_eq!(get(addr, "/hot").unwrap().status(), StatusCode::OK);

    let stop = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let clock = clock.clone();
            std::thread::spawn(move || {
                let mut rng = SimRng::seed_from_u64(0x11AC + r);
                let mut last = 0u64;
                let mut served = 0u32;
                while stop.load(Ordering::SeqCst) == 0 {
                    let resp = get(addr, "/hot").unwrap_or_else(|e| panic!("reader {r}: {e}"));
                    assert_eq!(resp.status(), StatusCode::OK, "reader {r}");
                    let stamp = stamp_of(&resp);
                    // The body is stamped by the origin at fetch
                    // time; header and bytes must be the same
                    // version — a reader holding a newer header
                    // over older bytes caught a torn serve.
                    assert_eq!(
                        resp.body().as_ref(),
                        format!("path=/hot stamp={stamp}\n").as_bytes(),
                        "reader {r}: body bytes disagree with the version header"
                    );
                    assert!(
                        stamp >= last,
                        "reader {r}: stamp went backwards ({last} → {stamp})"
                    );
                    assert!(
                        stamp >= CLOCK_BASE_MS && stamp <= CLOCK_BASE_MS + clock.now_ms(),
                        "reader {r}: stamp {stamp} outside the logical timeline"
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

    // The seeded schedule drives logical time; each advance lets the
    // refresher fetch a newer stamp and bump the path's version.
    let mut rng = SimRng::seed_from_u64(0xC0DE_11AC);
    for _ in 0..60 {
        clock.advance(rng.uniform_u64(1, 40));
        std::thread::sleep(StdDuration::from_millis(5));
    }
    stop.store(1, Ordering::SeqCst);
    let total: u32 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(
        total > 100,
        "{reactors} reactors: readers made little progress: {total}"
    );

    // The readers must actually have been served from the cache while
    // it changed under them.
    let hits = stats_counter(addr, &["proxy", "hits"]);
    assert!(hits > 0, "{reactors} reactors: the run never hit the cache");
    let bumps = stats_counter(addr, &["cache", "version_bumps"]);
    assert!(
        bumps > 1,
        "{reactors} reactors: the refresher never bumped a version"
    );
}

/// One seeded scenario transcript: client-visible (path, status, stamp,
/// cache marker) per request plus the origin's event log.
fn seeded_transcript(seed: u64) -> (Vec<String>, Vec<String>) {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = proxy(&origin, 1, vec![]);
    let mut rng = SimRng::seed_from_u64(seed);
    let paths = ["/a", "/b", "/c", "/d", "/e", "/f"];
    let mut transcript = Vec::new();
    for _ in 0..60 {
        if rng.chance(0.3) {
            clock.advance(rng.uniform_u64(1, 100));
            continue;
        }
        let path = *rng.pick(&paths);
        let resp = get(proxy.local_addr(), path).expect("get");
        transcript.push(format!(
            "{path} {} {} {}",
            resp.status(),
            stamp_of(&resp),
            resp.headers().get("x-cache").unwrap_or("?"),
        ));
    }
    (origin.log(), transcript)
}

/// A seeded scenario must replay bit-identically — run to run, for
/// every seed.
#[test]
fn scenarios_replay_bit_identically_across_seeds() {
    for seed in [7u64, 42, 0xFEED] {
        let first = seeded_transcript(seed);
        let second = seeded_transcript(seed);
        assert_eq!(
            first.0, second.0,
            "seed {seed}: origin logs must replay identically"
        );
        assert_eq!(
            first.1, second.1,
            "seed {seed}: transcripts must replay identically"
        );
    }
}

/// One `GET` that must answer `200`; returns its `x-cache` marker.
fn served_from(proxy: &LiveProxy, path: &str) -> String {
    let resp = get(proxy.local_addr(), path).expect("get");
    assert_eq!(resp.status(), StatusCode::OK, "{path}");
    resp.headers().get("x-cache").unwrap_or("?").to_owned()
}

/// An install that un-rules a path evicts its copy, so the next `GET`
/// of it is a fresh origin fetch. A path the install does not touch
/// keeps its copy: its next `GET` is a hit, with no second fetch.
#[test]
fn an_install_that_unrules_a_path_sends_its_next_read_to_the_origin() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    // Δ = 60 s: after its first poll the path is not polled again here.
    let proxy = proxy(
        &origin,
        1,
        vec![RefreshRule::new("/a", Duration::from_secs(60))],
    );
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !(proxy.stats().polls >= 1
        && proxy.runtime().refresh_metrics().in_flight() == 0
        && proxy.cached_objects() == 1)
    {
        assert!(Instant::now() < deadline, "the first poll never finished");
        std::thread::sleep(StdDuration::from_millis(2));
    }
    assert_eq!(served_from(&proxy, "/a"), "hit");
    // `/b` has no rule: a miss caches it.
    assert_eq!(served_from(&proxy, "/b"), "miss");
    let (fetches_a, fetches_b) = (origin.fetches("/a"), origin.fetches("/b"));

    let body = br#"{"rules": []}"#.to_vec();
    let resp = put(proxy.local_addr(), "/admin/rules", body).expect("PUT");
    assert_eq!(resp.status(), StatusCode::OK);
    assert_eq!(served_from(&proxy, "/a"), "miss");
    assert_eq!(
        origin.fetches("/a"),
        fetches_a + 1,
        "the un-ruled path must be fetched afresh"
    );
    assert_eq!(served_from(&proxy, "/b"), "hit");
    assert_eq!(
        origin.fetches("/b"),
        fetches_b,
        "an install touches no other cached copy"
    );
}

/// The linearization rule, on the two caches alone: a copy superseded
/// before a lookup began is never an L1 hit. A writer stores stamps 1, 2,
/// 3, … and publishes each, per path, after the store; a reader loads the
/// published stamp, then does what a reactor does (L1 lookup; on miss or
/// stale, L2 `get` and refill) and must be about to serve that stamp or a
/// later one. The cache holds one object per shard and the paths collide
/// in pairs, so copies are superseded by eviction as well as by
/// replacement.
#[test]
fn a_copy_superseded_before_the_lookup_is_never_an_l1_hit() {
    const READERS: u64 = 2;
    const LOOKUPS: usize = 30_000;
    let mut paths: Vec<String> = Vec::new();
    for shard in 0..3 {
        let colliding = (0..)
            .map(|i| format!("/lin/{i}"))
            .filter(|p| shard_of(p) == shard);
        paths.extend(colliding.take(2));
    }
    let cache = ShardedCache::new(Some(SHARD_COUNT));
    let published: Vec<AtomicU64> = paths.iter().map(|_| AtomicU64::new(0)).collect();

    let (hits, stale) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (cache, paths, published) = (&cache, &paths, &published);
                scope.spawn(move || {
                    let mut rng = SimRng::seed_from_u64(0x11EA + r);
                    let mut l1 = L1Cache::new(8);
                    let (mut hits, mut stale) = (0u64, 0u64);
                    for _ in 0..LOOKUPS {
                        // Yields, not sleeps: on a one-CPU runner they are
                        // what interleaves lookups with single stores.
                        if rng.chance(1.0 / 16.0) {
                            std::thread::yield_now();
                        }
                        let p = rng.uniform_u64(0, paths.len() as u64) as usize;
                        let floor = published[p].load(Ordering::SeqCst);
                        let found = l1.get(&paths[p]);
                        stale += u64::from(matches!(found, L1Lookup::Stale));
                        let served = match found {
                            L1Lookup::Hit(copy) => {
                                hits += 1;
                                Some(copy)
                            }
                            L1Lookup::Stale | L1Lookup::Miss => {
                                cache.get(&paths[p]).inspect(|copy| {
                                    l1.insert(&paths[p], Arc::clone(copy));
                                })
                            }
                        };
                        // `None`: evicted; a reactor would go to the origin.
                        if let Some(copy) = served {
                            let stamp = copy.last_modified().as_millis();
                            assert!(
                                stamp >= floor,
                                "reader {r}: {} served at stamp {stamp}, superseded before the \
                                 lookup began (stamp {floor} was already published)",
                                paths[p]
                            );
                        }
                    }
                    (hits, stale)
                })
            })
            .collect();

        let mut rng = SimRng::seed_from_u64(0x11EA_5703);
        let mut stamp = 0u64;
        while readers.iter().any(|reader| !reader.is_finished()) {
            stamp += 1;
            let p = rng.uniform_u64(0, paths.len() as u64) as usize;
            let copy = CacheEntry::new(
                Bytes::new(),
                Timestamp::from_millis(stamp),
                None,
                None::<&str>,
            );
            cache.insert(&paths[p], copy);
            published[p].store(stamp, Ordering::SeqCst);
            std::thread::yield_now();
        }
        readers.into_iter().fold((0, 0), |(hits, stale), reader| {
            let (h, s) = reader.join().expect("reader");
            (hits + h, stale + s)
        })
    });
    assert!(hits > 0, "the readers never hit their L1s");
    assert!(stale > 0, "the readers never met a superseded copy");
    assert!(
        cache.evictions() > 0,
        "colliding paths never evicted each other"
    );
}
