//! Adaptive overload control end to end: flash-crowd admission shedding
//! with partition isolation and preserved miss coalescing, the bound on
//! the partition table, tickets that outlive an off→on swap, the
//! double-death stale-retry path, and hot config swaps through
//! `PUT /admin/overload` — all on the deterministic in-process harness
//! (fake clock + scripted origin; see `harness/`).

mod harness;

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use bytes::BytesMut;
use harness::{get, get_json, put, Behavior, FakeClock, ScriptedOrigin};
use mutcon_live::overload::{MAX_PARTITIONS, OVERFLOW_PARTITION};
use mutcon_live::proxy::{LiveProxy, ProxyConfig};
use mutcon_live::wire::{read_response, write_request};
use mutcon_http::message::Request;
use mutcon_http::types::StatusCode;
use mutcon_sim::rng::SimRng;
use mutcon_traces::json::Json;

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

/// Throws `clients` simultaneous GETs for `path` at the proxy; each
/// thread yields its status and `Retry-After` header.
fn flash_crowd(
    addr: std::net::SocketAddr,
    path: &'static str,
    clients: usize,
) -> Vec<std::thread::JoinHandle<(StatusCode, Option<String>)>> {
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    (0..clients)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let resp = get(addr, path).unwrap_or_else(|e| panic!("client {i}: {e}"));
                let retry_after = resp.headers().get("retry-after").map(str::to_owned);
                (resp.status(), retry_after)
            })
        })
        .collect()
}

/// Joins a [`flash_crowd`] into `(ok, shed)`; every shed response must
/// carry `Retry-After`, and any other status fails the test.
fn tally(crowd: Vec<std::thread::JoinHandle<(StatusCode, Option<String>)>>) -> (usize, usize) {
    let (mut ok, mut shed) = (0, 0);
    for reader in crowd {
        let (status, retry_after) = reader.join().expect("reader panicked");
        match status {
            StatusCode::OK => ok += 1,
            StatusCode::TOO_MANY_REQUESTS => {
                shed += 1;
                assert_eq!(retry_after.as_deref(), Some("1"), "shed without Retry-After");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    (ok, shed)
}

/// The acceptance scenario: a flash crowd — 100 simultaneous clients on
/// one cold key — against an admission limit of 2. Exactly the limit's
/// worth of requests are admitted (and coalesce onto ONE origin fetch);
/// everyone else gets a clean `429` + `Retry-After`; a request for a
/// different path-partition sails through while the hot partition is
/// saturated; the shed counters surface in `/admin/stats`; and a second
/// crowd on the same partition is admitted to the same limit again —
/// the first wave's permits were released, not leaked.
#[test]
fn flash_crowd_sheds_cleanly_and_still_coalesces() {
    const CLIENTS: usize = 100;
    const LIMIT: usize = 2;

    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    origin.script("/hot/obj", vec![Behavior::Hold]);
    // One reactor: admission state and coalescing are per-reactor, and
    // this test asserts the exact per-reactor guarantee.
    let proxy = plain_proxy(&origin, 1);
    let addr = proxy.local_addr();

    // Admission on: at most 2 in flight per partition (min=max pins the
    // limit so the algorithm cannot adapt it mid-test).
    put_overload(&proxy, &format!("admission=aimd:min={LIMIT},max={LIMIT}\n"));

    let readers = flash_crowd(addr, "/hot/obj", CLIENTS);

    // The admitted requests are parked on the held origin fetch; all
    // other requests must shed. Once shed + admitted accounts for every
    // client, the crowd has fully arrived.
    origin.wait_for_held(1);
    wait_until("the crowd to shed", || {
        proxy.overload().shed() as usize == CLIENTS - LIMIT
    });

    // Partition isolation: the hot partition is saturated, but a
    // request in another partition is admitted and served.
    let cold = get(addr, "/cold/obj").expect("cold partition");
    assert_eq!(
        cold.status(),
        StatusCode::OK,
        "a saturated hot partition must not starve the others"
    );

    origin.release_all();
    let (ok, shed) = tally(readers);
    assert_eq!(ok, LIMIT, "exactly the admission limit's worth succeed");
    assert_eq!(shed, CLIENTS - LIMIT);
    assert_eq!(proxy.overload().shed() as usize, shed);

    // Miss coalescing survived admission: the admitted requests shared
    // ONE origin fetch.
    assert_eq!(
        origin.fetches("/hot/obj"),
        1,
        "admitted flash-crowd misses must still coalesce; log: {:?}",
        origin.log()
    );

    // Second wave, admission still on: a fresh cold key in the same
    // partition. Leaked permits would shed the whole crowd.
    origin.close_gate();
    origin.script("/hot/fresh", vec![Behavior::Hold]);
    let readers = flash_crowd(addr, "/hot/fresh", CLIENTS);
    origin.wait_for_held(1);
    wait_until("the second crowd to shed", || {
        proxy.overload().shed() as usize == 2 * (CLIENTS - LIMIT)
    });
    origin.release_all();
    let (ok, shed) = tally(readers);
    assert_eq!(ok, LIMIT, "the second wave is admitted to the limit again");
    assert_eq!(shed, CLIENTS - LIMIT);
    assert_eq!(origin.fetches("/hot/fresh"), 1);

    // The counters and the hot partition's state surface in the stats
    // plane (published by the reactor between loop turns).
    wait_until("the stats plane to show the shed partition", || {
        let resp = get(addr, "/admin/stats").expect("stats");
        let text = String::from_utf8_lossy(resp.body()).into_owned();
        text.contains("\"overload\"") && text.contains("\"/hot\"")
    });

    // Hot-swap admission off: the previously shed path now flows
    // freely (served from cache after the fetch).
    put_overload(&proxy, "admission=off\n");
    let before = proxy.overload().shed();
    for _ in 0..10 {
        let resp = get(addr, "/hot/obj").expect("after off");
        assert_eq!(resp.status(), StatusCode::OK);
    }
    assert_eq!(proxy.overload().shed(), before, "admission off must not shed");
}

/// The `(partition, in_flight)` pairs each reactor reports in the
/// `overload` section of `GET /admin/stats`, one `Vec` per reactor.
fn stats_partitions(proxy: &LiveProxy) -> Vec<Vec<(String, u64)>> {
    let doc = get_json(proxy.local_addr(), "/admin/stats");
    fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
        json.get(key).unwrap_or_else(|| panic!("no `{key}` in {json}"))
    }
    field(field(&doc, "overload"), "reactors")
        .as_array()
        .expect("reactors")
        .iter()
        .map(|reactor| {
            field(reactor, "partitions")
                .as_array()
                .expect("partitions")
                .iter()
                .map(|p| {
                    let name = field(p, "partition").as_str().expect("name").to_owned();
                    (name, field(p, "in_flight").as_u64().expect("in_flight"))
                })
                .collect()
        })
        .collect()
}

/// Satellite regression: the admission key is the first path segment,
/// which clients choose. A scan over thousands of distinct one-segment
/// paths must not grow the per-reactor table (and every stats snapshot
/// of it) without bound: past `MAX_PARTITIONS` names, new ones share the
/// overflow partition — which still holds a crowd to the limit and still
/// gives its permits back.
#[test]
fn a_path_scan_cannot_grow_the_admission_table() {
    const SCAN: usize = 3_000;
    const CLIENTS: usize = 20;
    const LIMIT: usize = 2;

    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = plain_proxy(&origin, 1);
    let addr = proxy.local_addr();
    put_overload(&proxy, &format!("admission=aimd:min={LIMIT},max={LIMIT}\n"));

    // One keep-alive connection, one request in flight at a time: below
    // the limit in every partition, so the scan itself is never shed.
    let mut scanner = harness::client(addr);
    for i in 0..SCAN {
        let resp = scanner.get(&format!("/scan{i}"), None).expect("scan");
        assert!(
            matches!(
                resp.status(),
                StatusCode::OK | StatusCode::NOT_FOUND | StatusCode::TOO_MANY_REQUESTS
            ),
            "/scan{i}: {}",
            resp.status()
        );
    }
    assert_eq!(scanner.reconnects(), 0, "the scan must stay on its one connection");

    let reactors = stats_partitions(&proxy);
    assert_eq!(reactors.len(), 1);
    for partitions in &reactors {
        assert!(
            partitions.len() <= MAX_PARTITIONS + 1,
            "{} partitions retained after a {SCAN}-path scan",
            partitions.len()
        );
        assert!(
            partitions.iter().any(|(name, _)| name == OVERFLOW_PARTITION),
            "the scan's tail must be charged to the overflow partition"
        );
    }

    // A crowd on a path first seen after the table filled is charged to
    // the overflow partition, and is held to the limit like any other.
    origin.script("/late/obj", vec![Behavior::Hold]);
    let shed_before = proxy.overload().shed() as usize;
    let readers = flash_crowd(addr, "/late/obj", CLIENTS);
    origin.wait_for_held(1);
    wait_until("the overflow crowd to shed", || {
        proxy.overload().shed() as usize == shed_before + CLIENTS - LIMIT
    });
    origin.release_all();
    let (ok, shed) = tally(readers);
    assert_eq!(ok, LIMIT, "exactly the admission limit's worth succeed");
    assert_eq!(shed, CLIENTS - LIMIT);

    // Every permit came back, the overflow partition's included.
    wait_until("every partition to drain", || {
        stats_partitions(&proxy)
            .iter()
            .flatten()
            .all(|(_, in_flight)| *in_flight == 0)
    });
}

/// Satellite regression: turning admission off drops every partition, so
/// a ticket charged before that belongs to a table that is gone. A is
/// admitted on `/p` and held at the origin while admission goes off and
/// on again; B then takes the new `/p`'s only place. A's release must
/// not give B's place away (it used to find the new partition by name
/// and decrement it), so C is still shed and the stats plane shows B's
/// one request in flight.
#[test]
fn a_ticket_from_before_an_off_on_swap_releases_nothing() {
    const LIMITED: &str = "admission=aimd:min=1,max=1\nadmission_initial=1\n";

    let origin = ScriptedOrigin::start(FakeClock::new());
    origin.script("/p/a", vec![Behavior::Hold]);
    origin.script("/p/b", vec![Behavior::Hold]);
    let proxy = plain_proxy(&origin, 1);
    let addr = proxy.local_addr();
    let send = |path: &str| {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(StdDuration::from_secs(10))).unwrap();
        write_request(&mut sock, &Request::get(path).build()).expect("send");
        sock
    };

    put_overload(&proxy, LIMITED);
    let mut a = send("/p/a");
    origin.wait_for_held(1);
    put_overload(&proxy, "admission=off\n");
    put_overload(&proxy, LIMITED);
    let mut b = send("/p/b");
    origin.wait_for_held(2);

    origin.release("/p/a");
    let mut buf = BytesMut::new();
    assert_eq!(read_response(&mut a, &mut buf).expect("A").status(), StatusCode::OK);

    let c = get(addr, "/p/c").expect("C");
    assert_eq!(c.status(), StatusCode::TOO_MANY_REQUESTS, "B holds /p's only place");
    assert_eq!(stats_partitions(&proxy), vec![vec![("/p".to_owned(), 1)]]);

    origin.release_all();
    let mut buf = BytesMut::new();
    assert_eq!(read_response(&mut b, &mut buf).expect("B").status(), StatusCode::OK);
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

    // Defaults render with both limiters off.
    let resp = get(addr, "/admin/overload").expect("GET overload");
    assert_eq!(resp.status(), StatusCode::OK);
    let text = String::from_utf8_lossy(resp.body()).into_owned();
    assert!(text.contains("admission=off"), "{text}");
    assert!(text.contains("pool=off"), "{text}");

    // Install a pool limiter; the GET must echo the spec back.
    put_overload(&proxy, "pool=aimd:max=8\nretry_after_secs=3\n");
    let installed = get(addr, "/admin/overload").expect("GET overload");
    let text = String::from_utf8_lossy(installed.body()).into_owned();
    assert!(text.contains("pool=aimd:min=1,max=8,"), "{text}");
    assert!(text.contains("retry_after_secs=3"), "{text}");

    // Garbage, the algorithms that no longer exist and the pacing key
    // that no longer exists are each rejected, and change nothing.
    for bad in ["pool=tcp-bbr\n", "pool=vegas\n", "admission=gradient\n", "shed_delay_ms=25\n"] {
        let resp = put(addr, "/admin/overload", bad.as_bytes().to_vec()).expect("PUT bad overload");
        assert_eq!(resp.status(), StatusCode::BAD_REQUEST, "{bad}");
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
