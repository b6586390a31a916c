//! End-to-end tests: a real origin and a real proxy on localhost TCP,
//! running the LIMD + mutual-consistency machinery in wall-clock time.

mod harness;

use std::time::Duration as StdDuration;

use harness::Client;
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;
use mutcon_http::types::StatusCode;
use mutcon_live::client::{last_modified_ms, X_LAST_MODIFIED_MS};
use mutcon_live::origin::LiveOrigin;
use mutcon_live::proxy::{GroupRule, LiveProxy, ProxyConfig, RefreshRule};
use mutcon_traces::{UpdateEvent, UpdateTrace};

/// An object updated every `period_ms` for `total_ms`.
fn ticking_trace(name: &str, period_ms: u64, total_ms: u64) -> UpdateTrace {
    let mut events = vec![UpdateEvent::valued(Timestamp::ZERO, Value::new(100.0))];
    let mut t = period_ms;
    let mut v = 100.0;
    while t <= total_ms {
        v += 0.25;
        events.push(UpdateEvent::valued(
            Timestamp::from_millis(t),
            Value::new(v),
        ));
        t += period_ms;
    }
    UpdateTrace::new(
        name,
        Timestamp::ZERO,
        Timestamp::from_millis(total_ms),
        events,
    )
    .unwrap()
}

/// A static object (initial version only).
fn static_trace(name: &str, total_ms: u64) -> UpdateTrace {
    UpdateTrace::new(
        name,
        Timestamp::ZERO,
        Timestamp::from_millis(total_ms),
        vec![UpdateEvent::temporal(Timestamp::ZERO)],
    )
    .unwrap()
}

#[test]
fn proxy_keeps_cached_object_fresh() {
    let origin = LiveOrigin::builder()
        .object("/fast", ticking_trace("fast", 40, 60_000))
        .start()
        .unwrap();
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/fast", Duration::from_millis(120))],
        ..ProxyConfig::new(origin.local_addr())
    })
    .unwrap();

    let mut client = Client::new(proxy.local_addr(), StdDuration::from_secs(5));
    // Warm the cache, then let the refresher run for a while.
    let first = client.get("/fast", None).unwrap();
    assert_eq!(first.status(), StatusCode::OK);
    std::thread::sleep(StdDuration::from_millis(800));

    // The cached copy must be recent: within Δ plus scheduling slack.
    let resp = client.get("/fast", None).unwrap();
    assert_eq!(resp.status(), StatusCode::OK);
    assert_eq!(resp.headers().get("x-cache"), Some("hit"));
    let lm = last_modified_ms(&resp).expect("cached copy is stamped");
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let staleness = now_ms.saturating_sub(lm.as_millis());
    assert!(
        staleness < 1_000,
        "cached copy is {staleness} ms stale — refresher not keeping up"
    );

    let stats = proxy.stats();
    assert!(stats.polls > 3, "refresher barely polled: {stats:?}");
    assert!(stats.refreshes > 1);
    assert!(stats.hits >= 1);
}

#[test]
fn limd_backs_off_for_static_objects() {
    let origin = LiveOrigin::builder()
        .object("/static", static_trace("static", 120_000))
        .start()
        .unwrap();
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/static", Duration::from_millis(50))
            .ttr_max(Duration::from_millis(400))],
        ..ProxyConfig::new(origin.local_addr())
    })
    .unwrap();

    std::thread::sleep(StdDuration::from_millis(900));
    let polls = proxy.stats().polls;
    // Strict every-Δ polling would be ~18 polls in 900 ms; LIMD's linear
    // growth must do visibly better.
    assert!(
        polls < 15,
        "LIMD did not back off on a static object: {polls} polls"
    );
    assert!(polls >= 2);
}

#[test]
fn triggered_polls_keep_related_objects_in_step() {
    let origin = LiveOrigin::builder()
        .object("/story", ticking_trace("story", 60, 60_000))
        .object("/photo", ticking_trace("photo", 60, 60_000))
        .start()
        .unwrap();
    // Asymmetric Δs: the story polls often, the photo rarely — so the
    // photo's freshness between its own polls comes from Mt triggers.
    // (With identical Δs the pool polls both members in lockstep and
    // the coordinator rightly coalesces every would-be trigger.)
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![
            RefreshRule::new("/story", Duration::from_millis(100)),
            RefreshRule::new("/photo", Duration::from_millis(600)),
        ],
        group: Some(GroupRule {
            delta: Duration::from_millis(30),
            policy: MtPolicy::TriggeredPolls,
        }),
        ..ProxyConfig::new(origin.local_addr())
    })
    .unwrap();

    std::thread::sleep(StdDuration::from_millis(900));
    let stats = proxy.stats();
    assert!(
        stats.triggered > 0,
        "updates should have triggered cross-object polls: {stats:?}"
    );

    // Both copies should be present and stamped close together.
    let mut client = Client::new(proxy.local_addr(), StdDuration::from_secs(5));
    let story = client.get("/story", None).unwrap();
    let photo = client.get("/photo", None).unwrap();
    let lm_story = last_modified_ms(&story).unwrap();
    let lm_photo = last_modified_ms(&photo).unwrap();
    let skew = lm_story.abs_diff(lm_photo);
    assert!(
        skew < Duration::from_millis(600),
        "cached copies {skew} apart"
    );
}

#[test]
fn stats_endpoint_and_miss_path() {
    let origin = LiveOrigin::builder()
        .object("/obj", ticking_trace("obj", 50, 60_000))
        .start()
        .unwrap();
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![], // no refresher: every first access is a miss
        ..ProxyConfig::new(origin.local_addr())
    })
    .unwrap();
    let mut client = Client::new(proxy.local_addr(), StdDuration::from_secs(5));

    // Miss then hit.
    let first = client.get("/obj", None).unwrap();
    assert_eq!(first.status(), StatusCode::OK);
    assert_eq!(first.headers().get("x-cache"), Some("miss"));
    assert!(first.headers().contains(X_LAST_MODIFIED_MS));
    let second = client.get("/obj", None).unwrap();
    assert_eq!(second.headers().get("x-cache"), Some("hit"));

    // Unknown objects pass the origin's 404 through.
    let missing = client.get("/nope", None).unwrap();
    assert_eq!(missing.status(), StatusCode::NOT_FOUND);

    // The counters reflect the traffic.
    let stats = proxy.stats();
    assert_eq!((stats.hits, stats.misses), (1, 2), "stats: {stats:?}");
}

/// A path no rule covers is static by contract: its first stamped `200`
/// is stored and served as a hit, with no poll, however the origin moves
/// on. A rule installed for it later makes its first poll refresh the
/// copy.
#[test]
fn an_unruled_path_is_static_until_a_rule_covers_it() {
    let moved = UpdateTrace::new(
        "a",
        Timestamp::ZERO,
        Timestamp::from_millis(120_000),
        vec![
            UpdateEvent::temporal(Timestamp::ZERO),
            UpdateEvent::temporal(Timestamp::from_millis(200)),
        ],
    )
    .unwrap();
    let origin = LiveOrigin::builder().object("/a", moved).start().unwrap();
    let proxy = LiveProxy::start(ProxyConfig::new(origin.local_addr())).unwrap();
    let mut client = Client::new(proxy.local_addr(), StdDuration::from_secs(5));
    let stamp = |client: &mut Client| {
        let resp = client.get("/a", None).unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        let cache = resp.headers().get("x-cache").unwrap().to_owned();
        (cache, last_modified_ms(&resp).expect("stamped"))
    };

    let (cache, first) = stamp(&mut client);
    assert_eq!(cache, "miss");
    // Past the origin's second version: the proxy does not look.
    std::thread::sleep(StdDuration::from_millis(400));
    assert_eq!(stamp(&mut client), ("hit".to_owned(), first));
    assert_eq!(proxy.stats().polls, 0);

    let rules = r#"{"rules": [{"path": "/a", "delta_ms": 10000}]}"#;
    let resp = harness::put(proxy.local_addr(), "/admin/rules", rules).unwrap();
    assert_eq!(resp.status(), StatusCode::OK);
    let refresh = proxy.runtime().refresh_metrics();
    harness::wait_until("the rule's first poll", || {
        refresh.polls() == 1 && refresh.in_flight() == 0
    });
    let (cache, second) = stamp(&mut client);
    assert_eq!(cache, "hit");
    assert_eq!(second.as_millis(), first.as_millis() + 200);
    assert_eq!(proxy.stats().polls, 1);
}
