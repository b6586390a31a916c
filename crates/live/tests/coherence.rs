//! L1 coherence scenarios for the per-reactor hot-object cache, driven
//! by the deterministic harness (fake clock + scripted origin + seeded
//! schedules; see `harness/`).
//!
//! The L1 serves validated copies with no locks on the read path; its
//! only correctness obligation is the supersede flag — an L1 entry is
//! served iff one atomic load says the L2 has not replaced, evicted or
//! removed that copy. These scenarios attack that rule from the outside:
//! readers hammer the L1 while the refresher stores newer bodies, seeded
//! runs must replay bit-identically, and an L1-disabled proxy must be
//! byte-indistinguishable from an L1-enabled one, and a rules install
//! touches an L1 copy only through that flag: it keeps the copy of a path
//! it leaves alone and rejects the copy of a path it un-rules. The last
//! scenario states the rule on the two caches alone, without sockets.
//!
//! Reactor counts and L1 capacities are inputs of the scenarios, pinned
//! explicitly.

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

/// A proxy with the L1 capacity pinned explicitly (`0` disables) and an
/// optional refresher rule set.
fn l1_proxy(
    origin: &ScriptedOrigin,
    reactors: usize,
    l1_objects: usize,
    rules: Vec<RefreshRule>,
) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        rules,
        reactors: Some(reactors),
        l1_objects: Some(l1_objects),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy")
}

/// The tentpole coherence scenario: the refresher keeps storing newer
/// bodies for the hot object (every store a version bump that must
/// invalidate each reactor's L1 copy) while seeded readers hammer it
/// through the L1 from several reactors. Every reader must observe
/// complete copies whose body bytes match the version header, with
/// stamps monotonically nondecreasing and bounded by the logical clock.
#[test]
fn l1_readers_never_see_old_bytes_after_a_version_bump() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/hot", Duration::from_millis(20))],
        reactors: Some(2),
        l1_objects: Some(128),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");
    let addr = proxy.local_addr();

    // Warm so readers start from a cached (and L1-refillable) copy.
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
                    // over older bytes caught a torn L1 serve.
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
    assert!(total > 100, "readers made little progress: {total}");

    // The readers must actually have exercised the L1.
    let hits = stats_counter(addr, &["cache", "l1", "hits"]);
    assert!(hits > 0, "the run never served from the L1");
    let bumps = stats_counter(addr, &["cache", "version_bumps"]);
    assert!(bumps > 1, "the refresher never bumped a version");
}

/// One seeded scenario transcript: client-visible (path, status, stamp,
/// cache marker) per request plus the origin's event log.
fn seeded_transcript(seed: u64, l1_objects: usize) -> (Vec<String>, Vec<String>) {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = l1_proxy(&origin, 1, l1_objects, vec![]);
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

/// With the L1 in the serving path, a seeded scenario must still replay
/// bit-identically — run to run, for every seed.
#[test]
fn l1_scenarios_replay_bit_identically_across_seeds() {
    for seed in [7u64, 42, 0xFEED] {
        let first = seeded_transcript(seed, 128);
        let second = seeded_transcript(seed, 128);
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

/// The L1 is a cache of a cache: disabling it must not change a single
/// client-visible byte of a seeded scenario — same statuses, same
/// stamps, same hit markers, same origin fetch sequence.
#[test]
fn l1_on_and_off_are_client_indistinguishable() {
    for seed in [3u64, 0xD15C] {
        let enabled = seeded_transcript(seed, 128);
        let disabled = seeded_transcript(seed, 0);
        assert_eq!(
            enabled.0, disabled.0,
            "seed {seed}: L1 must not change the origin fetch sequence"
        );
        assert_eq!(
            enabled.1, disabled.1,
            "seed {seed}: L1 must not change client-visible responses"
        );
    }
}

/// Parity under load: the refresher-vs-readers scenario
/// with the L1 disabled — the L1-enabled variant above must not be the
/// only configuration whose invariants hold.
#[test]
fn disabled_l1_keeps_the_same_invariants() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = l1_proxy(
        &origin,
        2,
        0,
        vec![RefreshRule::new("/hot", Duration::from_millis(20))],
    );
    let addr = proxy.local_addr();
    assert_eq!(get(addr, "/hot").unwrap().status(), StatusCode::OK);

    let mut rng = SimRng::seed_from_u64(0x0FF);
    let mut last = 0u64;
    for _ in 0..40 {
        clock.advance(rng.uniform_u64(1, 40));
        let resp = get(addr, "/hot").expect("get");
        assert_eq!(resp.status(), StatusCode::OK);
        let stamp = stamp_of(&resp);
        assert!(stamp >= last, "stamp went backwards ({last} → {stamp})");
        last = stamp;
    }

    assert_eq!(
        stats_counter(addr, &["cache", "l1", "capacity"]),
        0,
        "capacity 0 must disable the L1"
    );
    assert_eq!(stats_counter(addr, &["cache", "l1", "hits"]), 0);
    assert_eq!(stats_counter(addr, &["cache", "l1", "refills"]), 0);
}

/// One `GET` that must answer `200`; returns its `x-cache` marker.
fn served_from(proxy: &LiveProxy, path: &str) -> String {
    let resp = get(proxy.local_addr(), path).expect("get");
    assert_eq!(resp.status(), StatusCode::OK, "{path}");
    resp.headers().get("x-cache").unwrap_or("?").to_owned()
}

/// `PUT /admin/rules` with `body`, which must be accepted.
fn install(proxy: &LiveProxy, body: &str) {
    let resp = put(proxy.local_addr(), "/admin/rules", body.as_bytes().to_vec()).expect("PUT");
    assert_eq!(resp.status(), StatusCode::OK, "{body}");
}

/// An install that leaves a path alone leaves its L1 copy alone: the
/// copy was not superseded, so the next `GET` is an L1 hit, with no
/// refill and no second origin fetch.
#[test]
fn an_install_keeps_the_l1_copy_of_a_path_it_does_not_touch() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = l1_proxy(&origin, 1, 128, vec![]);
    let addr = proxy.local_addr();
    // A miss, an L2 hit that refills the L1, then an L1 hit.
    for _ in 0..3 {
        served_from(&proxy, "/a");
    }
    let l1 = |key: &str| stats_counter(addr, &["cache", "l1", key]);
    let (hits, refills) = (l1("hits"), l1("refills"));
    assert_eq!((hits, refills), (1, 1));

    install(&proxy, r#"{"rules": [{"path": "/b", "delta_ms": 60000}]}"#);
    assert_eq!(served_from(&proxy, "/a"), "hit");
    assert_eq!(l1("hits"), hits + 1, "the untouched copy must be an L1 hit");
    assert_eq!(l1("refills"), refills, "and must need no refill");
    assert_eq!(origin.fetches("/a"), 1);
}

/// An install that un-rules a path evicts its copy, and the eviction is
/// what the L1 sees: the next `GET` rejects the L1 copy as superseded
/// and goes to the origin.
#[test]
fn an_install_that_unrules_a_path_rejects_its_l1_copy() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    // Δ = 60 s: after its first poll the path is not polled again here.
    let proxy = l1_proxy(
        &origin,
        1,
        128,
        vec![RefreshRule::new("/a", Duration::from_secs(60))],
    );
    let addr = proxy.local_addr();
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !(proxy.stats().polls >= 1
        && proxy.runtime().refresh_metrics().in_flight() == 0
        && proxy.cached_objects() == 1)
    {
        assert!(Instant::now() < deadline, "the first poll never finished");
        std::thread::sleep(StdDuration::from_millis(2));
    }
    // An L2 hit that refills the L1, then an L1 hit.
    for _ in 0..2 {
        assert_eq!(served_from(&proxy, "/a"), "hit");
    }
    let l1 = |key: &str| stats_counter(addr, &["cache", "l1", key]);
    assert_eq!(l1("hits"), 1);
    let (stale, fetches) = (l1("stale_rejects"), origin.fetches("/a"));

    install(&proxy, r#"{"rules": []}"#);
    assert_eq!(served_from(&proxy, "/a"), "miss");
    assert_eq!(
        l1("stale_rejects"),
        stale + 1,
        "the evicted copy must reject"
    );
    assert_eq!(origin.fetches("/a"), fetches + 1);
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
