//! Concurrency scenarios for the refresh plane: the poll workers and
//! the one lock they share, driven by the in-process harness (fake
//! clock + scripted origin; see `harness/`).
//!
//! Every scenario pins `refresh_workers` explicitly.

mod harness;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration as StdDuration, Instant};

use harness::{stamp_of, Behavior, FakeClock, ScriptedOrigin};
use mutcon_core::time::Duration;
use mutcon_live::client::HttpClient;
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_traces::json::{parse, Json};

/// A proxy over a scripted origin with `workers` poll workers and one
/// rule per `paths` entry (Δ = `delta_ms`).
fn refresh_proxy(
    origin: &ScriptedOrigin,
    workers: usize,
    paths: &[&str],
    delta_ms: u64,
) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        rules: paths
            .iter()
            .map(|p| RefreshRule::new(*p, Duration::from_millis(delta_ms)))
            .collect(),
        reactors: Some(1),
        refresh_workers: Some(workers),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy")
}

/// Waits (5 s cap) until `pred` holds.
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

/// With workers=4 and every path's first poll parked behind the gate,
/// the origin must observe the polls *overlapping* — the whole point of
/// the pool. With workers=1 the same scenario must never overlap.
#[test]
fn poll_workers_overlap_origin_latency_and_a_single_worker_does_not() {
    let paths = ["/p0", "/p1", "/p2", "/p3"];

    // Concurrent leg: 4 workers, 4 parked polls at once.
    let origin = ScriptedOrigin::start(FakeClock::new());
    for p in &paths {
        origin.script(p, vec![Behavior::Hold]);
    }
    let proxy = refresh_proxy(&origin, 4, &paths, 20);
    origin.wait_for_held(4);
    origin.release_all();
    assert!(
        origin.max_concurrent() >= 4,
        "4 workers with 4 due paths must overlap polls; max_concurrent = {}",
        origin.max_concurrent()
    );
    drop(proxy);

    // Serial leg: 1 worker can never have two polls on the wire.
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = refresh_proxy(&origin, 1, &paths, 5);
    wait_until("20 polls through the single worker", || {
        proxy.stats().polls >= 20
    });
    assert_eq!(
        origin.max_concurrent(),
        1,
        "one worker must serialize every poll"
    );
    drop(proxy);
}

/// A backlog far wider than the pool, all due at once and all parked at
/// the origin: the pool never puts more polls on the wire than it has
/// workers, and once released it drains the backlog with exactly one
/// fetch — and one recorded drift sample — per path.
#[test]
fn a_due_backlog_drains_once_per_path_within_the_pool_width() {
    const BACKLOG: u64 = 256;
    const WORKERS: u64 = 4;
    let paths: Vec<String> = (0..BACKLOG).map(|i| format!("/b{i}")).collect();
    let origin = ScriptedOrigin::start(FakeClock::new());
    for p in &paths {
        origin.script(p, vec![Behavior::Hold]);
    }
    // Δ = 1 min: no path comes due a second time inside the test.
    let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
    let proxy = refresh_proxy(&origin, WORKERS as usize, &refs, 60_000);

    origin.wait_for_held(WORKERS);
    assert_eq!(
        proxy.runtime().refresh_metrics().drift().count,
        WORKERS,
        "only the pool's width of polls may have started"
    );
    origin.release_all();
    // Every poll stores its response, so a full cache is a drained backlog.
    wait_until("the backlog to drain", || {
        proxy.cached_objects() as u64 == BACKLOG
    });

    assert_eq!(
        origin.max_concurrent(),
        WORKERS,
        "polls on the wire must fill, and never exceed, the pool"
    );
    for p in &paths {
        assert_eq!(origin.fetches(p), 1, "{p} must be fetched exactly once");
    }
    assert_eq!(proxy.stats().polls, BACKLOG);
    assert_eq!(proxy.runtime().refresh_metrics().drift().count, BACKLOG);
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
    let proxy = refresh_proxy(&origin, 4, &["/held", "/free"], 10);
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
    // parked phase must finish well inside the poll client's timeout,
    // or the held poll times out and legitimately retries.
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

/// A due entry deferred behind its own in-flight poll must not park the
/// scheduler past the other paths' due times: with `/held` hung at the
/// origin and marked due again, `/free` is still polled when its TTR
/// lapses — long before the held poll's 2 s client timeout, the only
/// other event that would wake a scheduler parked without a deadline.
#[test]
fn a_deferred_path_does_not_stall_paths_due_later() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    origin.script("/held", vec![Behavior::Hold]);
    let proxy = refresh_proxy(&origin, 4, &["/held", "/free"], 100);
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
            "the scheduler slept through /free's due time behind the held path"
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
#[test]
fn a_removed_path_is_not_resurrected_by_its_in_flight_poll() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = refresh_proxy(&origin, 4, &["/keep", "/gone"], 10);

    // Scheduled polls self-populate the cache.
    wait_until("both ruled paths cached", || proxy.cached_objects() == 2);

    // Park /gone's next poll, then remove its rule mid-flight.
    origin.script("/gone", vec![Behavior::Hold]);
    wait_until("/gone parked at the origin", || origin.held() >= 1);
    proxy
        .runtime()
        .install(vec![RefreshRule::new("/keep", Duration::from_millis(10))], None)
        .expect("valid rules");
    wait_until("/gone evicted on rule removal", || {
        proxy.cached_objects() == 1
    });

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
    drop(proxy);
}

/// `status()` is read from the scheduler under the workers' lock, so a
/// snapshot taken while four workers poll and rule sets swap underneath
/// is always one whole epoch: sorted, duplicate-free, and exactly one of
/// the two path sets — never a blend, never a path from the other set.
#[test]
fn status_is_a_whole_epoch_while_rule_sets_swap_under_four_workers() {
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
    let proxy = refresh_proxy(&origin, 4, &refs, 5);
    let runtime = proxy.runtime();
    wait_until("the first epoch to be adopted", || !runtime.status().is_empty());

    let stop = AtomicBool::new(false);
    let snapshots = std::thread::scope(|scope| {
        scope.spawn(|| {
            for round in 0.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let next = if round % 2 == 0 { &two } else { &one };
                runtime.install(next.clone(), None).expect("valid rules");
                std::thread::sleep(StdDuration::from_millis(3));
            }
        });
        let reader = scope.spawn(|| {
            let mut seen = [0u32; 2];
            let deadline = Instant::now() + StdDuration::from_millis(600);
            while Instant::now() < deadline {
                let snapshot: Vec<String> = runtime.status().into_iter().map(|s| s.path).collect();
                // Equality with an ascending list covers sortedness and
                // duplicates too.
                if snapshot == paths_one {
                    seen[0] += 1;
                } else if snapshot == paths_two {
                    seen[1] += 1;
                } else {
                    panic!("a snapshot that is neither rule set: {snapshot:?}");
                }
            }
            stop.store(true, Ordering::SeqCst);
            seen
        });
        reader.join().expect("reader")
    });
    assert!(
        snapshots[0] > 0 && snapshots[1] > 0,
        "the reader must have seen both epochs: {snapshots:?}"
    );
    assert!(proxy.stats().polls > 0, "the workers kept polling throughout");
    drop(proxy);
}

/// With no rules every worker waits on the condvar with no deadline;
/// only the drop's wake can end that, and it must reach all of them.
#[test]
fn a_proxy_whose_workers_are_all_parked_drops_promptly() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = refresh_proxy(&origin, 4, &[], 10);
    wait_until("the workers to start", || {
        proxy.runtime().refresh_metrics().workers() == 4
    });
    // Let all four reach their wait.
    std::thread::sleep(StdDuration::from_millis(50));
    let dropped = Instant::now();
    drop(proxy);
    assert!(
        dropped.elapsed() < StdDuration::from_millis(500),
        "dropping an idle proxy took {:?}",
        dropped.elapsed()
    );
}

/// Client reads racing the worker pool never observe time running
/// backwards: the served stamp is monotone non-decreasing per path.
#[test]
fn refresh_vs_read_stamps_stay_monotone() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock.clone());
    let proxy = refresh_proxy(&origin, 4, &["/m"], 5);
    wait_until("/m cached", || proxy.cached_objects() == 1);

    let client = HttpClient::new();
    let mut last = 0u64;
    for round in 0..50 {
        clock.advance(3);
        let resp = client.get(proxy.local_addr(), "/m", None).expect("read /m");
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
/// pool: configured worker count, poll totals in step with the proxy
/// counter, and a drift histogram that actually recorded the polls.
#[test]
fn admin_stats_exports_the_refresh_plane() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = refresh_proxy(&origin, 4, &["/a", "/b"], 10);
    wait_until("a healthy batch of polls", || proxy.stats().polls >= 10);

    let client = HttpClient::new();
    let resp = client
        .get(proxy.local_addr(), "/admin/stats", None)
        .expect("admin stats");
    let doc = parse(std::str::from_utf8(resp.body()).expect("utf8")).expect("json");
    let refresh = doc.get("refresh").expect("refresh section");

    let num = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("refresh.{key} missing in {v}"))
    };
    assert_eq!(num(refresh, "workers"), 4);
    assert!(num(refresh, "polls") >= 10);
    let drift = refresh.get("drift").expect("drift histogram");
    assert!(num(drift, "count") >= 10, "every poll records its drift");
    assert!(
        drift.get("p99_ms").and_then(Json::as_f64).expect("p99") >= 0.0
            && drift.get("max_ms").and_then(Json::as_f64).expect("max") >= 0.0
    );
    drop(proxy);
}
