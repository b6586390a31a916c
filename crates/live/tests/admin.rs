//! The admin control plane + hot-swappable consistency runtime, driven
//! by the deterministic in-process harness (fake clock + scripted
//! origin; see `harness/`).
//!
//! The scenarios pin down the epoch semantics the tentpole promises:
//! a `PUT /admin/rules` takes effect in place (new Δ, new poll cadence)
//! while the sharded cache and every established keep-alive connection
//! survive; unchanged paths keep their accumulated adaptive-TTR state;
//! removed paths stop polling and an in-flight poll cannot resurrect
//! their evicted cache entry; and refresh-vs-read monotonicity holds
//! across epoch bumps.

mod harness;

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use bytes::BytesMut;
use harness::{stamp_of, Behavior, FakeClock, ScriptedOrigin, CLOCK_BASE_MS};
use mutcon_core::time::Duration;
use mutcon_live::client::HttpClient;
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_live::server::{default_reactors, DEFAULT_L1_OBJECTS, DEFAULT_REFRESH_WORKERS};
use mutcon_live::wire::read_response;
use mutcon_http::message::Request;
use mutcon_http::types::StatusCode;
use mutcon_sim::rng::SimRng;
use mutcon_traces::json::{self, Json};

fn proxy_with(origin: &ScriptedOrigin, rules: Vec<RefreshRule>, reactors: usize) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        rules,
        reactors: Some(reactors),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy")
}

/// Fetches and parses an admin JSON endpoint.
fn admin_get(proxy: &LiveProxy, path: &str) -> Json {
    let client = HttpClient::new();
    let resp = client.get(proxy.local_addr(), path, None).expect(path);
    assert_eq!(resp.status(), StatusCode::OK, "{path}");
    json::parse(std::str::from_utf8(resp.body()).expect("utf8")).expect("admin JSON")
}

/// PUTs a rules document; returns (status, parsed body).
fn put_rules(proxy: &LiveProxy, body: &str) -> (StatusCode, Json) {
    let client = HttpClient::new();
    let resp = client
        .put(proxy.local_addr(), "/admin/rules", body.as_bytes().to_vec())
        .expect("PUT /admin/rules");
    let parsed = json::parse(std::str::from_utf8(resp.body()).expect("utf8")).expect("JSON body");
    (resp.status(), parsed)
}

/// Waits (5 s cap) until `pred` on the proxy holds.
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

/// The acceptance scenario: a PUT changing Δ for one path takes effect —
/// visible in `GET /admin/rules` and in the refresher's poll cadence —
/// while the cache contents and all established keep-alive connections
/// survive the swap.
#[test]
fn put_changes_delta_in_place_without_dropping_cache_or_connections() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    // Δ = 60 s: after the first poll the refresher goes quiet for a
    // minute, so any post-PUT polling is attributable to the new rule.
    let proxy = proxy_with(
        &origin,
        vec![RefreshRule::new("/obj", Duration::from_secs(60))],
        2,
    );
    let addr = proxy.local_addr();

    // Warm: the refresher's first poll (or this miss) caches /obj.
    let warm = HttpClient::new();
    assert_eq!(warm.get(addr, "/obj", None).unwrap().status(), StatusCode::OK);
    wait_until("first poll + cached copy", || {
        proxy.stats().polls >= 1 && proxy.cached_objects() == 1
    });

    // Establish keep-alive connections and serve one hit on each.
    let mut conns: Vec<(TcpStream, BytesMut)> = (0..4)
        .map(|_| {
            let sock = TcpStream::connect(addr).expect("connect");
            sock.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
            (sock, BytesMut::new())
        })
        .collect();
    let wire = Request::get("/obj").build().to_bytes();
    let mut stamps = Vec::new();
    for (sock, buf) in &mut conns {
        sock.write_all(&wire).unwrap();
        let resp = read_response(sock, buf).unwrap();
        assert_eq!(resp.headers().get("x-cache"), Some("hit"));
        stamps.push(stamp_of(&resp));
    }

    // The old cadence really is quiet: no further polls for 60 s.
    let polls_before = proxy.stats().polls;
    std::thread::sleep(StdDuration::from_millis(150));
    assert_eq!(proxy.stats().polls, polls_before, "Δ=60s must not poll again yet");

    // Rules as the control plane sees them, pre-swap.
    let doc = admin_get(&proxy, "/admin/rules");
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(1));
    let rule = &doc.get("rules").unwrap().as_array().unwrap()[0];
    assert_eq!(rule.get("path").unwrap().as_str(), Some("/obj"));
    assert_eq!(rule.get("delta_ms").unwrap().as_u64(), Some(60_000));
    assert!(rule.get("limd").unwrap().as_str().unwrap().contains("delta_ms=60000"));

    // The swap: Δ 60 s → 25 ms.
    let (status, body) =
        put_rules(&proxy, r#"{"rules": [{"path": "/obj", "delta_ms": 25}]}"#);
    assert_eq!(status, StatusCode::OK, "{body}");
    assert_eq!(body.get("epoch").unwrap().as_u64(), Some(2));
    assert_eq!(
        body.get("changed").unwrap().as_array().unwrap()[0].as_str(),
        Some("/obj")
    );

    // Takes effect #1: the control plane reports the new Δ and epoch.
    let doc = admin_get(&proxy, "/admin/rules");
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(2));
    let rule = &doc.get("rules").unwrap().as_array().unwrap()[0];
    assert_eq!(rule.get("delta_ms").unwrap().as_u64(), Some(25));

    // Takes effect #2: the poll cadence follows the new Δ — the quiet
    // 60-second schedule turns into a ~25 ms one.
    wait_until("polls under the new 25 ms cadence", || {
        proxy.stats().polls >= polls_before + 5
    });

    // Survival: the same keep-alive sockets still serve, from the same
    // cached copy (the fake clock never advanced, so the stamp is
    // bit-identical to the pre-swap one).
    for ((sock, buf), stamp) in conns.iter_mut().zip(&stamps) {
        sock.write_all(&wire).unwrap();
        let resp = read_response(sock, buf)
            .expect("established keep-alive connection must survive the swap");
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.headers().get("x-cache"), Some("hit"), "cache survived");
        assert_eq!(stamp_of(&resp), *stamp, "same cached copy as before the swap");
    }
    assert_eq!(proxy.cached_objects(), 1, "the swap dropped no cache entries");
    assert_eq!(proxy.stats().reloads, 1);
}

/// A rule removed while its poll is parked at the origin: the completing
/// poll must not resurrect the evicted cache entry, and the path stops
/// polling.
#[test]
fn removed_path_in_flight_poll_cannot_resurrect_cache_entry() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = proxy_with(
        &origin,
        vec![RefreshRule::new("/gone", Duration::from_millis(30))],
        1,
    );

    // First poll caches the object.
    wait_until("refresher caches /gone", || proxy.cached_objects() == 1);

    // Park the *next* poll behind the gate, then remove the rule while
    // that poll is in flight.
    origin.script("/gone", vec![Behavior::Hold]);
    origin.wait_for_held(1);
    let (status, body) = put_rules(&proxy, r#"{"rules": []}"#);
    assert_eq!(status, StatusCode::OK);
    assert_eq!(
        body.get("removed").unwrap().as_array().unwrap()[0].as_str(),
        Some("/gone")
    );
    assert_eq!(proxy.cached_objects(), 0, "removal evicts the cache entry");

    // Release the parked poll: its 200 arrives for a path that is no
    // longer ruled.
    origin.release_all();
    std::thread::sleep(StdDuration::from_millis(150));
    assert_eq!(
        proxy.cached_objects(),
        0,
        "the in-flight poll must not resurrect the evicted entry"
    );
    let doc = admin_get(&proxy, "/admin/rules");
    assert!(doc.get("rules").unwrap().as_array().unwrap().is_empty());

    // And polling for the removed path has stopped entirely.
    let polls = proxy.stats().polls;
    std::thread::sleep(StdDuration::from_millis(120));
    assert_eq!(proxy.stats().polls, polls, "a removed path must stop polling");
}

/// Unchanged paths carry their accumulated adaptive-TTR state across a
/// swap; changed/added paths rebuild from scratch.
#[test]
fn unchanged_paths_preserve_adaptive_ttr_state_across_swap() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = proxy_with(
        &origin,
        vec![
            RefreshRule::new("/keep", Duration::from_millis(20)),
            RefreshRule::new("/drop", Duration::from_millis(20)),
        ],
        1,
    );

    // The fake clock never advances, so after the first poll every poll
    // is a 304 and LIMD grows the TTR linearly — accumulated adaptive
    // state worth preserving.
    let keep_status = |proxy: &LiveProxy| {
        proxy
            .runtime()
            .status()
            .into_iter()
            .find(|s| s.path == "/keep")
    };
    wait_until("/keep TTR growth", || {
        keep_status(&proxy)
            .is_some_and(|s| s.polls >= 4 && s.ttr > Duration::from_millis(20))
    });
    let before = keep_status(&proxy).expect("/keep status");

    // Swap: /keep identical, /drop removed, /add new.
    let (status, _) = put_rules(
        &proxy,
        r#"{"rules": [{"path": "/keep", "delta_ms": 20},
                      {"path": "/add", "delta_ms": 20}]}"#,
    );
    assert_eq!(status, StatusCode::OK);

    wait_until("scheduler adopts epoch 2", || {
        proxy.runtime().status().iter().any(|s| s.path == "/add")
    });
    let after = keep_status(&proxy).expect("/keep status after swap");
    assert!(
        after.ttr >= before.ttr,
        "unchanged /keep lost its grown TTR: {:?} → {:?}",
        before.ttr,
        after.ttr
    );
    assert!(after.polls >= before.polls, "poll count must carry over");
    assert_eq!(after.rule_epoch, 1, "unchanged rule keeps its original epoch");

    let statuses = proxy.runtime().status();
    let add = statuses.iter().find(|s| s.path == "/add").unwrap();
    assert_eq!(add.rule_epoch, 2, "added rule belongs to the new epoch");
    assert!(!statuses.iter().any(|s| s.path == "/drop"), "removed rule gone");

    // /drop's cached copy was evicted with its rule: the next client
    // read is a miss (refetched fresh), not a stale never-refreshed hit.
    let client = HttpClient::new();
    let resp = client.get(proxy.local_addr(), "/drop", None).unwrap();
    assert_eq!(resp.headers().get("x-cache"), Some("miss"));
}

/// Validation: bad rule sets are rejected with 400 + reason and change
/// nothing; the same validator guards `LiveProxy::start`.
#[test]
fn bad_rules_are_rejected_by_put_and_by_start() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = proxy_with(
        &origin,
        vec![RefreshRule::new("/obj", Duration::from_millis(500))],
        1,
    );

    for (body, needle) in [
        // Duplicate paths: the silent last-wins of old ProxyConfig is gone.
        (
            r#"{"rules": [{"path": "/a", "delta_ms": 5}, {"path": "/a", "delta_ms": 9}]}"#,
            "duplicate",
        ),
        (r#"{"rules": [{"path": "/a", "delta_ms": 0}]}"#, "positive"),
        (
            r#"{"rules": [{"path": "/a", "delta_ms": 100, "ttr_max_ms": 50}]}"#,
            "ttr",
        ),
        (r#"{"rules": [{"path": "relative", "delta_ms": 5}]}"#, "start with"),
        (r#"not json at all"#, "invalid JSON"),
        (r#"{"rules": 5}"#, "rules"),
        (
            r#"{"rules": [], "group": {"delta_ms": 5, "policy": "wat"}}"#,
            "group",
        ),
    ] {
        let (status, parsed) = put_rules(&proxy, body);
        assert_eq!(status, StatusCode::BAD_REQUEST, "{body}");
        let reason = parsed.get("error").unwrap().as_str().unwrap();
        assert!(reason.contains(needle), "{reason:?} lacks {needle:?}");
    }
    // Nothing changed.
    let doc = admin_get(&proxy, "/admin/rules");
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(1));
    assert_eq!(proxy.stats().reloads, 0);

    // The same validator runs at startup: duplicates are a config error.
    let err = LiveProxy::start(ProxyConfig {
        rules: vec![
            RefreshRule::new("/dup", Duration::from_millis(5)),
            RefreshRule::new("/dup", Duration::from_millis(9)),
        ],
        reactors: Some(1),
        ..ProxyConfig::new(origin.addr())
    })
    .expect_err("duplicate paths must be rejected at start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("duplicate"));

    // Unknown admin endpoints 404; wrong methods 405.
    let client = HttpClient::new();
    let resp = client.get(proxy.local_addr(), "/admin/nope", None).unwrap();
    assert_eq!(resp.status(), StatusCode::NOT_FOUND);
    let resp = client
        .put(proxy.local_addr(), "/admin/stats", &b"{}"[..])
        .unwrap();
    assert_eq!(resp.status(), StatusCode::METHOD_NOT_ALLOWED);
}

/// Bodies that used to take the reactor thread down are refused with a
/// reason: nesting past the parser's limit (a stack overflow) and
/// tolerances past the ceiling (64·Δ overflowed). With one reactor, the
/// `GET` on a fresh connection after each is the proof it lives.
#[test]
fn hostile_rules_bodies_are_refused_without_hurting_the_reactor() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = proxy_with(
        &origin,
        vec![RefreshRule::new("/obj", Duration::from_millis(500))],
        1,
    );
    // Nested deep enough to run a recursive parser out of stack.
    let deep = "[".repeat(200_000);
    for (body, needle) in [
        (deep.as_str(), "nested too deeply"),
        (
            r#"{"rules": [{"path": "/a", "delta_ms": 1000000000000000000}]}"#,
            "delta exceeds",
        ),
        (
            r#"{"rules": [{"path": "/a", "delta_ms": 5, "ttr_max_ms": 18000000000000000000}]}"#,
            "ttr_max exceeds",
        ),
        (
            r#"{"rules": [], "group": {"delta_ms": 1000000000000000000}}"#,
            "group delta exceeds",
        ),
    ] {
        let (status, parsed) = put_rules(&proxy, body);
        assert_eq!(status, StatusCode::BAD_REQUEST, "{needle}");
        let reason = parsed.get("error").unwrap().as_str().unwrap();
        assert!(reason.contains(needle), "{reason:?} lacks {needle:?}");
        let doc = admin_get(&proxy, "/admin/rules");
        assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(1), "{needle}");
    }
}

/// A cache bound of zero objects is a config error like every other bad
/// setting, not a panic.
#[test]
fn a_zero_object_cache_is_rejected_at_start() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let err = LiveProxy::start(ProxyConfig {
        cache_objects: Some(0),
        ..ProxyConfig::new(origin.addr())
    })
    .expect_err("a zero-object cache must be rejected at start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("cache_objects"));
}

/// `GET /admin/stats` reports the threaded-through counters: per-shard
/// cache state, per-reactor connections, origin-pool activity.
#[test]
fn admin_stats_reports_shards_reactors_and_pool_counters() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = proxy_with(&origin, vec![], 2);
    let client = HttpClient::new();

    // Generate misses (pool opens + possibly reuses) and hits.
    for i in 0..6 {
        let resp = client.get(proxy.local_addr(), &format!("/s/{i}"), None).unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
    }
    let resp = client.get(proxy.local_addr(), "/s/0", None).unwrap();
    assert_eq!(resp.headers().get("x-cache"), Some("hit"));

    let doc = admin_get(&proxy, "/admin/stats");
    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("objects").unwrap().as_u64(), Some(6));
    assert_eq!(cache.get("shards").unwrap().as_array().unwrap().len(), 16);
    assert_eq!(cache.get("evictions").unwrap().as_u64(), Some(0));
    let reactors = doc.get("reactors").unwrap().as_array().unwrap();
    assert_eq!(reactors.len(), 2);
    let accepted: u64 = reactors
        .iter()
        .map(|r| r.get("accepted").unwrap().as_u64().unwrap())
        .sum();
    assert!(accepted >= 7, "every client connection is accounted: {accepted}");
    let pool = doc.get("origin_pool").unwrap();
    assert!(pool.get("opened").unwrap().as_u64().unwrap() >= 1);
    let proxy_counters = doc.get("proxy").unwrap();
    assert_eq!(proxy_counters.get("misses").unwrap().as_u64(), Some(6));
    assert!(proxy_counters.get("hits").unwrap().as_u64().unwrap() >= 1);
}

/// `ProxyConfig::new(addr)` with nothing else set runs on the coded
/// defaults: `None` resolves to a constant, not to anything outside the
/// configuration.
#[test]
fn unset_config_fields_resolve_to_the_documented_defaults() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = LiveProxy::start(ProxyConfig::new(origin.addr())).expect("start proxy");
    assert_eq!(proxy.reactor_count(), default_reactors());
    // The scheduler thread records its pool width as it starts.
    wait_until("the refresh plane to start", || {
        proxy.runtime().refresh_metrics().workers() > 0
    });
    let doc = admin_get(&proxy, "/admin/stats");
    let refresh = doc.get("refresh").unwrap();
    assert_eq!(
        refresh.get("workers").unwrap().as_u64(),
        Some(DEFAULT_REFRESH_WORKERS as u64)
    );
    let l1 = doc.get("cache").unwrap().get("l1").unwrap();
    assert_eq!(l1.get("capacity").unwrap().as_u64(), Some(DEFAULT_L1_OBJECTS as u64));
}

/// With `admin_token` set, every `/admin/*` endpoint demands a matching
/// bearer token, compared whole; the data plane stays open.
#[test]
fn admin_endpoints_demand_the_configured_bearer_token() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/obj", Duration::from_millis(500))],
        reactors: Some(1),
        admin_token: Some("s3cret".to_owned()),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");
    let addr = proxy.local_addr();

    // A GET with an optional `authorization` header, over a raw socket
    // (the convenience client never sends credentials).
    let raw_get = |path: &str, auth: Option<&str>| {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(StdDuration::from_secs(5))).unwrap();
        let mut builder = Request::get(path);
        if let Some(credentials) = auth {
            builder = builder.header("authorization", credentials);
        }
        sock.write_all(&builder.build().to_bytes()).unwrap();
        let mut buf = BytesMut::new();
        read_response(&mut sock, &mut buf).expect("response")
    };

    // No credentials, wrong scheme, wrong token (shorter, longer, and
    // of equal length differing in the first or the last byte): 401
    // with a challenge.
    for auth in [
        None,
        Some("Basic s3cret"),
        Some("Bearer nope"),
        Some("Bearer"),
        Some("Bearer s3cret1"),
        Some("Bearer s3creT"),
        Some("Bearer S3cret"),
    ] {
        let resp = raw_get("/admin/stats", auth);
        assert_eq!(resp.status(), StatusCode::UNAUTHORIZED, "auth {auth:?}");
        assert_eq!(
            resp.headers().get("www-authenticate"),
            Some("Bearer"),
            "401 must carry the challenge (auth {auth:?})"
        );
    }

    // The matching token opens every admin endpoint.
    let resp = raw_get("/admin/stats", Some("Bearer s3cret"));
    assert_eq!(resp.status(), StatusCode::OK);
    let resp = raw_get("/admin/rules", Some("Bearer s3cret"));
    assert_eq!(resp.status(), StatusCode::OK);

    // Mutations are gated too: an unauthenticated PUT changes nothing.
    let client = HttpClient::new();
    let resp = client
        .put(addr, "/admin/rules", &br#"{"rules": []}"#[..])
        .unwrap();
    assert_eq!(resp.status(), StatusCode::UNAUTHORIZED);
    let doc = json::parse(
        std::str::from_utf8(raw_get("/admin/rules", Some("Bearer s3cret")).body()).unwrap(),
    )
    .unwrap();
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(1), "PUT was rejected");

    // The data plane never asks for auth.
    assert_eq!(client.get(addr, "/obj", None).unwrap().status(), StatusCode::OK);
}

/// SIGHUP re-reads the configured rules file through the same
/// validated install path as `PUT /admin/rules`; a bad file is counted
/// and changes nothing.
#[test]
fn sighup_rereads_the_rules_file() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let rules_path = std::env::temp_dir().join(format!(
        "mutcon-sighup-{}-{:x}.json",
        std::process::id(),
        &origin as *const _ as usize
    ));
    std::fs::write(
        &rules_path,
        r#"{"rules": [{"path": "/hup", "delta_ms": 40}]}"#,
    )
    .expect("write rules file");

    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/initial", Duration::from_millis(500))],
        reactors: Some(1),
        rules_file: Some(rules_path.clone()),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");

    // The file is a reload source, not a startup source.
    let doc = admin_get(&proxy, "/admin/rules");
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(1));

    mutcon_sim::signal::raise_sighup().expect("raise SIGHUP");
    wait_until("SIGHUP reload to land", || proxy.stats().reloads == 1);
    let doc = admin_get(&proxy, "/admin/rules");
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(2));
    let rule = &doc.get("rules").unwrap().as_array().unwrap()[0];
    assert_eq!(rule.get("path").unwrap().as_str(), Some("/hup"));
    assert_eq!(rule.get("delta_ms").unwrap().as_u64(), Some(40));
    wait_until("the reloaded rule to start polling", || {
        origin.fetches("/hup") >= 1
    });

    // A broken file: the reload is rejected, counted, and nothing moves.
    std::fs::write(&rules_path, "not json at all").expect("write bad rules file");
    mutcon_sim::signal::raise_sighup().expect("raise SIGHUP");
    wait_until("bad reload to be counted", || {
        proxy.stats().reload_errors == 1
    });
    let doc = admin_get(&proxy, "/admin/rules");
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(2), "bad file changed nothing");
    assert_eq!(proxy.stats().reloads, 1);

    drop(proxy);
    let _ = std::fs::remove_file(&rules_path);
}

/// Refresh-vs-read monotonicity must hold *across epoch bumps*: seeded
/// readers hammer the hot object while a control thread keeps swapping
/// its Δ — stamps never go backwards and no request ever fails.
#[test]
fn refresh_vs_read_monotonicity_holds_across_epoch_bumps() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = proxy_with(
        &origin,
        vec![RefreshRule::new("/obj", Duration::from_millis(20))],
        2,
    );
    let addr = proxy.local_addr();
    let warm = HttpClient::new();
    assert_eq!(warm.get(addr, "/obj", None).unwrap().status(), StatusCode::OK);

    let stop = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let stop = Arc::clone(&stop);
            let clock = clock.clone();
            std::thread::spawn(move || {
                let mut rng = SimRng::seed_from_u64(0xAD31 + r);
                let client = HttpClient::with_timeout(StdDuration::from_secs(10));
                let mut last = 0u64;
                let mut served = 0u32;
                while stop.load(Ordering::SeqCst) == 0 {
                    let resp = client
                        .get(addr, "/obj", None)
                        .unwrap_or_else(|e| panic!("reader {r}: {e}"));
                    assert_eq!(resp.status(), StatusCode::OK, "reader {r}");
                    let stamp = stamp_of(&resp);
                    assert!(
                        stamp >= last,
                        "reader {r}: stamp went backwards across an epoch bump \
                         ({last} → {stamp})"
                    );
                    assert!(
                        stamp >= CLOCK_BASE_MS && stamp <= CLOCK_BASE_MS + clock.now_ms(),
                        "reader {r}: stamp {stamp} outside the logical timeline"
                    );
                    last = stamp;
                    served += 1;
                    if rng.chance(0.2) {
                        std::thread::sleep(StdDuration::from_micros(rng.uniform_u64(0, 400)));
                    }
                }
                served
            })
        })
        .collect();

    // The control thread: advance logical time and keep swapping Δ.
    let mut rng = SimRng::seed_from_u64(0xE90C);
    let mut reloads = 0u64;
    for round in 0..30 {
        clock.advance(rng.uniform_u64(1, 40));
        if round % 3 == 0 {
            let delta = if (round / 3) % 2 == 0 { 35 } else { 20 };
            let (status, _) = put_rules(
                &proxy,
                &format!(r#"{{"rules": [{{"path": "/obj", "delta_ms": {delta}}}]}}"#),
            );
            assert_eq!(status, StatusCode::OK, "round {round}");
            reloads += 1;
        }
        std::thread::sleep(StdDuration::from_millis(5));
    }
    stop.store(1, Ordering::SeqCst);
    let total: u32 = readers.into_iter().map(|r| r.join().expect("reader")).sum();

    assert!(total > 100, "readers made little progress: {total}");
    assert_eq!(proxy.stats().reloads, reloads);
    let doc = admin_get(&proxy, "/admin/rules");
    assert_eq!(doc.get("epoch").unwrap().as_u64(), Some(1 + reloads));
    assert!(proxy.stats().polls > 5, "refresher ran throughout");
}
