//! Overload control end to end: the double-death stale-retry path, and
//! hot config swaps through `PUT /admin/overload` — on the deterministic
//! in-process harness (fake clock + scripted origin; see `harness/`).

mod harness;

use std::time::{Duration as StdDuration, Instant};

use harness::{get, put, Behavior, FakeClock, ScriptedOrigin};
use mutcon_live::proxy::{LiveProxy, ProxyConfig};
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

/// Installs an overload config through the admin plane, asserting the
/// PUT is accepted.
fn put_overload(proxy: &LiveProxy, body: &str) {
    let resp = put(proxy.local_addr(), "/admin/overload", body.as_bytes().to_vec())
        .expect("PUT /admin/overload");
    assert_eq!(
        resp.status(),
        StatusCode::OK,
        "install rejected: {}",
        String::from_utf8_lossy(resp.body())
    );
}

/// Waits (5 s cap) until `pred` holds.
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

/// Satellite regression: the double-death case of the one-shot
/// stale-socket retry. A reused pooled connection dies before its first
/// response byte (the origin silently closed it while parked) and the
/// retry's fresh connection *also* dies pre-first-byte. The waiter must
/// get a prompt, clean error — never a stall. Seeded delays vary the
/// reap-vs-reuse race reproducibly; recovery is asserted every round.
#[test]
fn double_death_fails_fast_with_a_clean_error() {
    let mut rng = SimRng::seed_from_u64(0xDEAD_2);
    for round in 0..8 {
        let origin = ScriptedOrigin::start(FakeClock::new());
        // Seed the pool with a connection the origin then silently
        // closes (stale while parked)...
        origin.script("/warm", vec![Behavior::SilentClose]);
        // ...and make the origin kill the next fetch's connection before
        // writing a single byte. If the stale socket is reused first,
        // this rejection lands on the one-shot retry's fresh socket —
        // the double death. If the reactor reaped the EOF already, the
        // rejection hits the first fresh socket (no retry budget:
        // served == 0). Either way: clean error, no stall.
        origin.script("/frail", vec![Behavior::Reject]);
        let proxy = plain_proxy(&origin, 1);

        let warm = get(proxy.local_addr(), "/warm").expect("warm");
        assert_eq!(warm.status(), StatusCode::OK, "round {round}");

        let delay_us = rng.uniform_u64(0, 3_000);
        std::thread::sleep(StdDuration::from_micros(delay_us));

        let started = Instant::now();
        let failed = get(proxy.local_addr(), "/frail").expect("response");
        assert_eq!(
            failed.status(),
            StatusCode::INTERNAL_SERVER_ERROR,
            "round {round} (delay {delay_us} µs): a double death must surface as a \
             clean error; log: {:?}",
            origin.log()
        );
        assert!(
            started.elapsed() < StdDuration::from_secs(5),
            "round {round}: the waiter stalled instead of failing fast"
        );

        // The pool recovered: the next miss opens fresh and succeeds.
        let after = get(proxy.local_addr(), "/frail").expect("recovery");
        assert_eq!(after.status(), StatusCode::OK, "round {round}: no recovery");
    }
}

/// `GET`/`PUT /admin/overload` round-trips the config text, rejects
/// invalid bodies without changing anything, and a pool-limiter install
/// shows up in the stats plane with the algorithm spec.
#[test]
fn overload_admin_round_trips_and_rejects_bad_bodies() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = plain_proxy(&origin, 1);
    let addr = proxy.local_addr();

    // Defaults render the pool limiter off and the park-and-503 settings.
    let resp = get(addr, "/admin/overload").expect("GET overload");
    assert_eq!(resp.status(), StatusCode::OK);
    let text = String::from_utf8_lossy(resp.body()).into_owned();
    assert_eq!(text, "pool=off\nretry_after_secs=1\npark_deadline_ms=1000\n");

    // Install a pool limiter; the GET must echo the spec back.
    put_overload(&proxy, "pool=aimd:max=8\nretry_after_secs=3\n");
    let installed = get(addr, "/admin/overload").expect("GET overload");
    let text = String::from_utf8_lossy(installed.body()).into_owned();
    assert!(text.contains("pool=aimd:min=1,max=8,"), "{text}");
    assert!(text.contains("retry_after_secs=3"), "{text}");

    // Garbage, the algorithms that no longer exist and the keys that no
    // longer exist (pacing, per-path admission) are each rejected, and
    // change nothing; a removed key is named in the refusal.
    for bad in [
        "pool=tcp-bbr\n",
        "pool=vegas\n",
        "admission=gradient\n",
        "shed_delay_ms=25\n",
        "admission=aimd\n",
        "admission_initial=32\n",
    ] {
        let resp = put(addr, "/admin/overload", bad.as_bytes().to_vec()).expect("PUT bad overload");
        assert_eq!(resp.status(), StatusCode::BAD_REQUEST, "{bad}");
        let key = bad.split('=').next().unwrap();
        if key != "pool" {
            let reason = String::from_utf8_lossy(resp.body());
            assert!(reason.contains(&format!("`{key}`")), "{bad}: {reason}");
        }
        let resp = get(addr, "/admin/overload").expect("GET overload");
        assert_eq!(
            resp.body(),
            installed.body(),
            "rejected PUT `{}` must change nothing",
            bad.trim()
        );
    }

    // Traffic still flows, and the reactor's adopted pool limiter (with
    // its recorded fetch samples) surfaces in `/admin/stats`.
    let resp = get(addr, "/one").expect("one");
    assert_eq!(resp.status(), StatusCode::OK);
    wait_until("the pool limiter to surface in stats", || {
        let resp = get(addr, "/admin/stats").expect("stats");
        let text = String::from_utf8_lossy(resp.body()).into_owned();
        text.contains("\"algorithm\":\"aimd:") && text.contains("\"samples_ok\":1")
    });
}
