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

/// `GET`/`PUT /admin/overload` round-trips the two park-and-503 settings
/// and rejects invalid bodies without changing anything; a key that is
/// not one of the two (`pool`, the admission keys) is refused by name.
#[test]
fn overload_admin_round_trips_and_rejects_bad_bodies() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = plain_proxy(&origin, 1);
    let addr = proxy.local_addr();

    // Defaults render the two park-and-503 settings, and nothing else.
    let resp = get(addr, "/admin/overload").expect("GET overload");
    assert_eq!(resp.status(), StatusCode::OK);
    let text = String::from_utf8_lossy(resp.body()).into_owned();
    assert_eq!(text, "retry_after_secs=1\npark_deadline_ms=1000\n");

    // Install new values; the GET must echo them back.
    put_overload(&proxy, "retry_after_secs=3\npark_deadline_ms=250\n");
    let installed = get(addr, "/admin/overload").expect("GET overload");
    let text = String::from_utf8_lossy(installed.body()).into_owned();
    assert_eq!(text, "retry_after_secs=3\npark_deadline_ms=250\n");

    // Every other key is rejected by name, and changes nothing.
    for bad in [
        "pool=aimd\n",
        "pool=off\n",
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
        let reason = String::from_utf8_lossy(resp.body());
        assert!(reason.contains(&format!("`{key}`")), "{bad}: {reason}");
        let resp = get(addr, "/admin/overload").expect("GET overload");
        assert_eq!(
            resp.body(),
            installed.body(),
            "rejected PUT `{}` must change nothing",
            bad.trim()
        );
    }

    // Traffic still flows.
    let resp = get(addr, "/one").expect("one");
    assert_eq!(resp.status(), StatusCode::OK);
}
