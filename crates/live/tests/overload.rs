//! Origin overload end to end: the double-death stale-retry path, on the
//! deterministic in-process harness (fake clock + scripted origin; see
//! `harness/`).

mod harness;

use std::time::{Duration as StdDuration, Instant};

use harness::{get, Behavior, FakeClock, ScriptedOrigin};
use mutcon_http::types::StatusCode;
use mutcon_live::proxy::{LiveProxy, ProxyConfig};
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

/// Satellite regression: the double-death case of the one-shot
/// stale-socket retry. A reused pooled connection dies before its first
/// response byte (the origin silently closed it while parked) and the
/// retry's fresh connection *also* dies pre-first-byte. The waiter must
/// get a prompt, clean error — never a stall. Seeded delays vary the
/// reap-vs-reuse race reproducibly; recovery is asserted every round.
#[test]
fn double_death_fails_fast_with_a_clean_error() {
    let mut rng = SimRng::seed_from_u64(0xDEAD2);
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
