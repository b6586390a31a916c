//! Concurrency scenarios for the refresh plane: reactor 0 stepping the
//! one scheduler, its polls riding the origin pool beside the misses,
//! driven by the in-process harness (fake clock + scripted origin; see
//! `harness/`).
//!
//! Every scenario runs one reactor, so polls and client requests share
//! it.

mod harness;

use std::time::{Duration as StdDuration, Instant};

use harness::{
    get, get_json, stamp_of, wait_until, Behavior, Client, FakeClock, ScriptedOrigin, CLOCK_BASE_MS,
};
use mutcon_core::time::Duration;
use mutcon_http::types::StatusCode;
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_live::runtime::POLL_WIDTH;
use mutcon_traces::json::Json;

/// The reactor's `UPSTREAM_TIMEOUT`: a fetch that makes no progress
/// this long fails (found by its once-a-second sweep).
const UPSTREAM_TIMEOUT: StdDuration = StdDuration::from_secs(5);
/// The reactor's longest sleep with nothing due (`TICK`).
const TICK: StdDuration = StdDuration::from_millis(200);
/// How long a dropped reactor keeps serving its in-flight work
/// (`DRAIN_GRACE`).
const DRAIN_GRACE: StdDuration = StdDuration::from_millis(250);

/// A one-reactor proxy over a scripted origin with one rule per `paths`
/// entry (Δ = `delta_ms`).
fn refresh_proxy(origin: &ScriptedOrigin, paths: &[&str], delta_ms: u64) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        rules: paths
            .iter()
            .map(|p| RefreshRule::new(*p, Duration::from_millis(delta_ms)))
            .collect(),
        reactors: Some(1),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy")
}

/// Every path's first poll parked behind the gate: the origin observes
/// the polls *overlapping*, since each is a pooled fetch of its own, and
/// a client miss meanwhile still gets through the pool they share.
#[test]
fn polls_overlap_origin_latency_within_the_pool_width() {
    let paths = ["/p0", "/p1", "/p2", "/p3"];
    let origin = ScriptedOrigin::start(FakeClock::new());
    for p in &paths {
        origin.script(p, vec![Behavior::Hold]);
    }
    let proxy = refresh_proxy(&origin, &paths, 20);
    origin.wait_for_held(4);
    let miss = get(proxy.local_addr(), "/unruled").expect("a miss beside the held polls");
    assert_eq!(miss.status(), StatusCode::OK);
    assert_eq!(miss.headers().get("x-cache"), Some("miss"));
    origin.release_all();
    assert!(
        origin.max_concurrent() >= 5,
        "4 held polls and a miss must overlap; max_concurrent = {}",
        origin.max_concurrent()
    );
    drop(proxy);
}

/// A backlog far wider than the plane, all due at once and all parked
/// at the origin: exactly the plane's width of polls is handed out, on
/// the wire, over that many pooled sockets; once released the backlog
/// drains through those sockets with exactly one fetch — and one
/// recorded drift sample — per path.
#[test]
fn a_due_backlog_drains_once_per_path_within_the_poll_width() {
    const BACKLOG: u64 = 256;
    const WIDTH: u64 = POLL_WIDTH as u64;
    let paths: Vec<String> = (0..BACKLOG).map(|i| format!("/b{i}")).collect();
    let origin = ScriptedOrigin::start(FakeClock::new());
    for p in &paths {
        origin.script(p, vec![Behavior::Hold]);
    }
    // Δ = 1 min: no path comes due a second time inside the test.
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let proxy = refresh_proxy(&origin, &refs, 60_000);

    origin.wait_for_held(WIDTH);
    let metrics = proxy.runtime().refresh_metrics();
    std::thread::sleep(StdDuration::from_millis(50));
    assert_eq!(
        origin.held(),
        WIDTH,
        "only the plane's width of polls may be on the wire"
    );
    assert_eq!(metrics.in_flight(), WIDTH, "and only that many handed out");
    let engine = proxy.engine_metrics();
    assert_eq!(
        engine.pool_opened(),
        WIDTH,
        "one pooled socket per poll out"
    );
    origin.release_all();
    // Every poll stores its response, so a full cache is a drained backlog.
    wait_until("the backlog to drain", || {
        proxy.cached_objects() as u64 == BACKLOG
    });

    assert_eq!(
        origin.max_concurrent(),
        WIDTH,
        "polls on the wire must fill, and never exceed, the width"
    );
    for p in &paths {
        assert_eq!(origin.fetches(p), 1, "{p} must be fetched exactly once");
    }
    assert_eq!(proxy.stats().polls, BACKLOG);
    assert_eq!(metrics.drift().count, BACKLOG);
    wait_until("the last poll finished", || metrics.in_flight() == 0);
    assert_eq!(
        engine.pool_opened(),
        WIDTH,
        "the waiting polls ride the parked sockets"
    );
    drop(proxy);
}

/// Polls past the width wait in the schedule, not in the origin pool's
/// queue: with 64 due polls held at the origin, a client miss on an
/// unruled path is fetched beside the held ones at once.
#[test]
fn a_miss_is_answered_while_a_poll_backlog_is_held() {
    const BACKLOG: u64 = 64;
    let paths: Vec<String> = (0..BACKLOG).map(|i| format!("/q{i}")).collect();
    let origin = ScriptedOrigin::start(FakeClock::new());
    for p in &paths {
        origin.script(p, vec![Behavior::Hold]);
    }
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let proxy = refresh_proxy(&origin, &refs, 60_000);
    origin.wait_for_held(POLL_WIDTH as u64);

    let started = Instant::now();
    let miss = Client::new(proxy.local_addr(), StdDuration::from_secs(2))
        .get("/unruled", None)
        .expect("a miss answered while the polls are held");
    assert_eq!(miss.status(), StatusCode::OK);
    assert_eq!(miss.headers().get("x-cache"), Some("miss"));
    assert!(
        started.elapsed() < StdDuration::from_secs(2),
        "the miss took {:?}",
        started.elapsed()
    );
    assert_eq!(
        origin.held(),
        POLL_WIDTH as u64,
        "every poll out is still held"
    );
    assert_eq!(
        origin.max_concurrent(),
        POLL_WIDTH as u64 + 1,
        "the held polls and the miss"
    );
    assert_eq!(
        proxy.stats().polls,
        POLL_WIDTH as u64,
        "the rest wait in the schedule"
    );
    origin.release_all();
    drop(proxy);
}

/// A path whose poll is parked at the origin must not be polled again —
/// not by its own schedule, and not by a rule swap that marks it due
/// immediately. The deferred due entry fires only after the in-flight
/// poll completes.
#[test]
fn an_in_flight_path_is_never_double_polled() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    origin.script("/held", vec![Behavior::Hold]);
    let proxy = refresh_proxy(&origin, &["/held", "/free"], 10);
    origin.wait_for_held(1);

    // Swap in a changed rule for the held path: its state rebuilds and
    // it becomes due immediately — while still on the wire.
    proxy
        .runtime()
        .install(
            vec![
                RefreshRule::new("/held", Duration::from_millis(25)),
                RefreshRule::new("/free", Duration::from_millis(10)),
            ],
            None,
        )
        .expect("valid rules");

    // The free path keeps polling (the pool is not wedged) while the
    // held path stays at exactly one origin fetch. Advance the clock so
    // LIMD sees /free changing and keeps its TTR tight — the whole
    // parked phase must finish well inside the reactor's upstream
    // timeout, or the held poll times out and legitimately retries.
    let free_before = origin.fetches("/free");
    wait_until("/free to keep polling past the held path", || {
        clock.advance(5);
        origin.fetches("/free") >= free_before + 3
    });
    assert_eq!(
        origin.fetches("/held"),
        1,
        "an in-flight path must never be double-polled"
    );

    origin.release_all();
    wait_until("the deferred due entry to fire after release", || {
        origin.fetches("/held") >= 2
    });
    drop(proxy);
}

/// A due entry deferred behind its own in-flight poll must not hide the
/// other paths' due times from the reactor: with `/held` hung at the
/// origin and marked due again, `/free` is still polled when its TTR
/// lapses — long before the held poll's upstream timeout.
#[test]
fn a_deferred_path_does_not_stall_paths_due_later() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    origin.script("/held", vec![Behavior::Hold]);
    let proxy = refresh_proxy(&origin, &["/held", "/free"], 100);
    origin.wait_for_held(1);
    wait_until("/free's first poll", || origin.fetches("/free") == 1);

    // A changed rule makes /held due immediately while still on the
    // wire, so its entry is deferred; /free is next due one TTR out.
    let swapped = Instant::now();
    proxy
        .runtime()
        .install(
            vec![
                RefreshRule::new("/held", Duration::from_millis(25)),
                RefreshRule::new("/free", Duration::from_millis(100)),
            ],
            None,
        )
        .expect("valid rules");

    wait_until("/free's second poll at its due time", || {
        assert!(
            swapped.elapsed() < StdDuration::from_secs(1),
            "the reactor slept through /free's due time behind the held path"
        );
        origin.fetches("/free") >= 2
    });
    assert_eq!(origin.held(), 1, "/held is still parked at the origin");
    assert_eq!(origin.fetches("/held"), 1, "and was not polled again");

    origin.release_all();
    drop(proxy);
}

/// A rule removed while its poll is on the wire must not resurrect the
/// path: the late response is discarded and the cache entry stays gone.
/// The discarded `200` is not a failed poll in either error counter.
#[test]
fn a_removed_path_is_not_resurrected_by_its_in_flight_poll() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = refresh_proxy(&origin, &["/keep", "/gone"], 10);

    // Scheduled polls self-populate the cache.
    wait_until("both ruled paths cached", || proxy.cached_objects() == 2);

    // Park /gone's next poll, then remove its rule mid-flight.
    origin.script("/gone", vec![Behavior::Hold]);
    wait_until("/gone parked at the origin", || origin.held() >= 1);
    proxy
        .runtime()
        .install(
            vec![RefreshRule::new("/keep", Duration::from_millis(10))],
            None,
        )
        .expect("valid rules");
    assert_eq!(
        proxy.cached_objects(),
        1,
        "/gone is evicted when the install returns"
    );

    // A newer stamp, so the held poll reads a 200 rather than a 304.
    clock.advance(1_000);
    origin.release_all();
    // The released poll's 200 must be discarded, not stored; give the
    // completion ample time to land before asserting.
    std::thread::sleep(StdDuration::from_millis(100));
    assert_eq!(
        proxy.cached_objects(),
        1,
        "a dead rule's in-flight poll must not resurrect its entry"
    );
    assert!(
        proxy.runtime().status().iter().all(|s| s.path != "/gone"),
        "removed path must vanish from the live status"
    );
    assert_eq!(
        (
            proxy.runtime().refresh_metrics().errors(),
            proxy.stats().errors
        ),
        (0, 0),
        "no poll failed, read through either accessor"
    );
    drop(proxy);
}

/// An origin that refuses every request for a while: the proxy keeps
/// serving its cached copy as a hit, counts the failed polls, and serves
/// a fresh stamp once the origin answers again.
#[test]
fn proxy_survives_origin_faults() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/fast", Duration::from_millis(100))
            .ttr_max(Duration::from_millis(400))],
        reactors: Some(1),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");
    wait_until("/fast cached", || proxy.cached_objects() == 1);

    // Break the origin: every request is read and refused without a byte,
    // and the sockets already open die with it.
    origin.script("/fast", vec![Behavior::Reject; 1_000]);
    origin.drop_connections();
    wait_until("a failed poll", || proxy.stats().errors > 0);
    let during = get(proxy.local_addr(), "/fast").expect("read during the fault");
    assert_eq!(during.headers().get("x-cache"), Some("hit"));

    // Heal the origin with a newer version: refreshing resumes.
    clock.advance(1_000);
    origin.script("/fast", vec![]);
    wait_until("the fresh stamp served", || {
        stamp_of(&get(proxy.local_addr(), "/fast").expect("read after")) == clock.stamp_ms()
    });
    // No failed poll kept its slot in the width.
    let metrics = proxy.runtime().refresh_metrics();
    wait_until("no poll out", || metrics.in_flight() == 0);
    drop(proxy);
}

/// A body longer than declared: `/a`'s poll carries a whole second
/// response behind its own. That pooled socket must not carry the next
/// polls, or each would store the answer to the request before it (`/b`
/// the smuggled `WRONG`, `/c` the copy of `/b`).
#[test]
fn a_response_smuggled_behind_a_poll_is_not_the_next_polls_answer() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    origin.script("/a", vec![Behavior::Overlong]);
    // Δ = 1 min: each path is polled once inside the test.
    let proxy = refresh_proxy(&origin, &["/a"], 60_000);
    wait_until("/a's poll stored", || proxy.cached_objects() == 1);
    let rules = ["/a", "/b", "/c"].map(|p| RefreshRule::new(p, Duration::from_millis(60_000)));
    proxy
        .runtime()
        .install(rules.to_vec(), None)
        .expect("valid rules");
    wait_until("/b and /c polled and stored", || {
        proxy.cached_objects() == 3
    });

    for path in ["/a", "/b", "/c"] {
        let resp = get(proxy.local_addr(), path).expect(path);
        assert_eq!(resp.headers().get("x-cache"), Some("hit"), "{path}");
        assert_eq!(
            std::str::from_utf8(resp.body()).expect("utf8"),
            format!("path={path} stamp={CLOCK_BASE_MS}\n"),
            "{path} holds another path's answer; log: {:?}",
            origin.log()
        );
        assert_eq!(stamp_of(&resp), CLOCK_BASE_MS, "{path}");
        assert_eq!(origin.fetches(path), 1, "{path}");
    }
    assert_eq!(proxy.stats().errors, 0);
    drop(proxy);
}

/// `status()` and `GET /admin/rules` are read from the scheduler under
/// the plane's lock, so a snapshot taken on another thread while the
/// reactor polls and rule sets swap underneath is always one whole
/// epoch: sorted, duplicate-free, and exactly one of the two path sets —
/// never a blend, never a path from the other set. Every row of the
/// document has its live state, installed no later than its epoch.
#[test]
fn status_is_a_whole_epoch_while_rule_sets_swap_under_polling() {
    // 64 paths each, half of them shared; both in ascending order.
    let paths = |range: std::ops::Range<u32>| -> Vec<String> {
        range.map(|i| format!("/s{i:03}")).collect()
    };
    let rules = |paths: &[String]| -> Vec<RefreshRule> {
        paths
            .iter()
            .map(|p| RefreshRule::new(p.clone(), Duration::from_millis(5)))
            .collect()
    };
    let (paths_one, paths_two) = (paths(0..64), paths(32..96));
    let (one, two) = (rules(&paths_one), rules(&paths_two));

    let origin = ScriptedOrigin::start(FakeClock::new());
    let refs: Vec<&str> = paths_one.iter().map(String::as_str).collect();
    let proxy = refresh_proxy(&origin, &refs, 5);
    let runtime = proxy.runtime();
    assert_eq!(
        runtime.status().len(),
        paths_one.len(),
        "the first epoch is in force at start"
    );

    // One deadline for both threads, so a failing reader cannot leave
    // the installer spinning.
    let deadline = Instant::now() + StdDuration::from_millis(600);
    let snapshots = std::thread::scope(|scope| {
        scope.spawn(|| {
            for round in 0.. {
                if Instant::now() >= deadline {
                    break;
                }
                let next = if round % 2 == 0 { &two } else { &one };
                runtime.install(next.clone(), None).expect("valid rules");
                std::thread::sleep(StdDuration::from_millis(3));
            }
        });
        let reader = scope.spawn(|| {
            let mut seen = [0u32; 2];
            let mut documents = 0u32;
            // Equality with an ascending list covers sortedness and
            // duplicates too.
            let mut count = |snapshot: Vec<String>| {
                if snapshot == paths_one {
                    seen[0] += 1;
                } else if snapshot == paths_two {
                    seen[1] += 1;
                } else {
                    panic!("a snapshot that is neither rule set: {snapshot:?}");
                }
            };
            while Instant::now() < deadline {
                count(runtime.status().into_iter().map(|s| s.path).collect());
                let doc = get_json(proxy.local_addr(), "/admin/rules");
                let epoch = doc.get("epoch").and_then(Json::as_u64).expect("epoch");
                let rows = doc.get("rules").and_then(Json::as_array).expect("rules");
                for row in rows {
                    for key in ["delta_ms", "ttr_ms", "polls", "rule_epoch"] {
                        assert!(
                            row.get(key).and_then(Json::as_u64).is_some(),
                            "{key} in {row}"
                        );
                    }
                    let rule_epoch = row.get("rule_epoch").and_then(Json::as_u64).unwrap();
                    assert!(
                        rule_epoch <= epoch,
                        "row from epoch {rule_epoch} in epoch {epoch}: {row}"
                    );
                }
                count(
                    rows.iter()
                        .map(|r| r.get("path").and_then(Json::as_str).unwrap().to_owned())
                        .collect(),
                );
                documents += 1;
            }
            assert!(documents > 0);
            seen
        });
        reader.join().expect("reader")
    });
    assert!(
        snapshots[0] > 0 && snapshots[1] > 0,
        "the reader must have seen both epochs: {snapshots:?}"
    );
    assert!(
        proxy.stats().polls > 0,
        "the reactor kept polling throughout"
    );
    drop(proxy);
}

/// Polls parked at the origin are in-flight work a dropped reactor
/// drains, but only for its grace period: the drop returns soon after.
#[test]
fn a_proxy_with_polls_on_the_wire_drops_within_the_drain_grace() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let paths = ["/h0", "/h1", "/h2"];
    for p in &paths {
        origin.script(p, vec![Behavior::Hold]);
    }
    let proxy = refresh_proxy(&origin, &paths, 10);
    origin.wait_for_held(3);
    let dropped = Instant::now();
    drop(proxy);
    assert!(
        dropped.elapsed() < DRAIN_GRACE + StdDuration::from_millis(500),
        "dropping a proxy with polls on the wire took {:?}",
        dropped.elapsed()
    );
}

/// An install on an idle proxy, whose reactor sleeps a whole `TICK` with
/// nothing due, wakes it: each new rule's first poll reaches the origin
/// far sooner than the sleep would end on its own.
#[test]
fn an_install_wakes_the_idle_plane_at_once() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = refresh_proxy(&origin, &[], 10);
    let mut rules = Vec::new();
    for round in 0..8u64 {
        // Land each install somewhere inside a sleep.
        std::thread::sleep(StdDuration::from_millis(20 + 7 * round));
        let path = format!("/w{round}");
        rules.push(RefreshRule::new(path.clone(), Duration::from_secs(60)));
        let installed = Instant::now();
        proxy
            .runtime()
            .install(rules.clone(), None)
            .expect("valid rules");
        wait_until("the new rule's first poll", || origin.fetches(&path) == 1);
        assert!(
            installed.elapsed() < TICK / 2,
            "round {round}: the first poll came {:?} after the install",
            installed.elapsed()
        );
    }
    drop(proxy);
}

/// A poll the origin never answers, on a reused pooled socket: client
/// hits on the same reactor go on unhindered, the poll fails at the
/// reactor's upstream timeout without a retry (a slow origin is not a
/// stale socket), counts as a failed poll, and the path is polled again
/// only after its back-off.
#[test]
fn a_poll_the_origin_never_answers_times_out_without_stalling_hits() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    // The first poll parks its socket; the second reuses it and hangs.
    origin.script("/stall", vec![Behavior::Serve, Behavior::Hold]);
    let proxy = refresh_proxy(&origin, &["/stall"], 200);
    let addr = proxy.local_addr();
    assert_eq!(get(addr, "/cached").expect("warm").status(), StatusCode::OK);
    origin.wait_for_held(1);
    let stalled = Instant::now();
    let engine = proxy.engine_metrics();
    assert!(
        engine.pool_reuses() >= 1,
        "the held poll rides a parked socket"
    );

    while proxy.stats().errors == 0 {
        let started = Instant::now();
        let hit = get(addr, "/cached").expect("a hit during the stall");
        assert_eq!(hit.headers().get("x-cache"), Some("hit"));
        assert!(
            started.elapsed() < StdDuration::from_millis(200),
            "a hit waited {:?} behind the stalled poll",
            started.elapsed()
        );
        assert!(
            stalled.elapsed() < UPSTREAM_TIMEOUT * 2,
            "the stalled poll never failed"
        );
        std::thread::sleep(StdDuration::from_millis(20));
    }
    let failed = Instant::now();
    assert!(
        stalled.elapsed() >= UPSTREAM_TIMEOUT - StdDuration::from_millis(100),
        "the poll failed after {:?}, before the upstream timeout",
        stalled.elapsed()
    );
    assert_eq!(proxy.runtime().refresh_metrics().errors(), 1);
    assert_eq!(engine.pool_retries(), 0, "a timeout is never retried");
    assert_eq!(origin.fetches("/stall"), 2, "nor sent again at once");

    // Backed off by min(Δ, 200 ms), then polled (and served) again.
    wait_until("the poll after the back-off", || {
        origin.fetches("/stall") == 3
    });
    assert!(
        failed.elapsed() >= StdDuration::from_millis(100),
        "the failed path was polled again after only {:?}",
        failed.elapsed()
    );
    // The timed-out poll did not keep its slot in the width.
    let metrics = proxy.runtime().refresh_metrics();
    wait_until("no poll out", || metrics.in_flight() == 0);
    origin.release_all();
    drop(proxy);
}

/// Client reads racing the refresher's stores never observe time running
/// backwards: the served stamp is monotone non-decreasing per path.
#[test]
fn refresh_vs_read_stamps_stay_monotone() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = refresh_proxy(&origin, &["/m"], 5);
    wait_until("/m cached", || proxy.cached_objects() == 1);

    let mut last = 0u64;
    for round in 0..50 {
        clock.advance(3);
        let resp = get(proxy.local_addr(), "/m").expect("read /m");
        let stamp = stamp_of(&resp);
        assert!(
            stamp >= last,
            "round {round}: stamp went backwards ({stamp} < {last})"
        );
        last = stamp;
    }
    drop(proxy);
}

/// The `refresh` section of `GET /admin/stats` reflects the running
/// plane: poll totals in step with the proxy counter, and a drift
/// histogram that actually recorded the polls.
#[test]
fn admin_stats_exports_the_refresh_plane() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = refresh_proxy(&origin, &["/a", "/b"], 10);
    wait_until("a healthy batch of polls", || proxy.stats().polls >= 10);

    let doc = get_json(proxy.local_addr(), "/admin/stats");
    let refresh = doc.get("refresh").expect("refresh section");

    let num = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("refresh.{key} missing in {v}"))
    };
    assert!(
        refresh.get("workers").is_none(),
        "the plane runs no workers"
    );
    assert!(num(refresh, "polls") >= 10);
    let drift = refresh.get("drift").expect("drift histogram");
    assert!(num(drift, "count") >= 10, "every poll records its drift");
    assert!(
        drift.get("p99_ms").and_then(Json::as_f64).expect("p99") >= 0.0
            && drift.get("max_ms").and_then(Json::as_f64).expect("max") >= 0.0
    );
    drop(proxy);
}
