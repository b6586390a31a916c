//! Load-shaped smoke tests for the readiness-driven proxy: one reactor
//! thread must sustain hundreds of concurrent client sockets, and the
//! 16-way sharded cache must stay consistent while the background
//! refresher writes during concurrent reads.

mod harness;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration as StdDuration, Instant};

use bytes::BytesMut;
use harness::{read_response, Client};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;
use mutcon_http::message::Request;
use mutcon_http::types::StatusCode;
use mutcon_live::client::last_modified_ms;
use mutcon_live::origin::LiveOrigin;
use mutcon_live::proxy::{LiveProxy, ProxyConfig, RefreshRule};
use mutcon_traces::{UpdateEvent, UpdateTrace};

/// An object updated every `period_ms` for `total_ms`.
fn ticking_trace(name: &str, period_ms: u64, total_ms: u64) -> UpdateTrace {
    let mut events = vec![UpdateEvent::valued(Timestamp::ZERO, Value::new(1.0))];
    let mut t = period_ms;
    let mut v = 1.0;
    while t <= total_ms {
        v += 0.5;
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

/// The acceptance bar: ≥ 500 clients hold connections open *at the same
/// time*, each with a request in flight, and every one is answered by
/// the single reactor thread.
#[test]
fn five_hundred_concurrent_connections_through_one_reactor() {
    const CONNS: usize = 520;

    let origin = LiveOrigin::builder()
        .object("/obj", ticking_trace("obj", 50, 120_000))
        .start()
        .unwrap();
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/obj", Duration::from_millis(100))],
        ..ProxyConfig::new(origin.local_addr())
    })
    .unwrap();

    // Warm the cache so the load below is the pure hit path.
    let mut warm = Client::new(proxy.local_addr(), StdDuration::from_secs(5));
    assert_eq!(warm.get("/obj", None).unwrap().status(), StatusCode::OK);

    // Phase 1: open every connection and keep all of them open.
    let mut socks: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let sock =
            TcpStream::connect(proxy.local_addr()).unwrap_or_else(|e| panic!("connect #{i}: {e}"));
        sock.set_read_timeout(Some(StdDuration::from_secs(30)))
            .unwrap();
        socks.push(sock);
    }

    // Phase 2: put a request in flight on every socket before reading a
    // single response — all CONNS connections are now simultaneously
    // active inside the one reactor.
    let wire = Request::get("/obj").build().to_bytes();
    for sock in &mut socks {
        sock.write_all(&wire).unwrap();
    }

    // Phase 3: collect every response.
    let started = Instant::now();
    let mut hits = 0usize;
    for (i, sock) in socks.iter_mut().enumerate() {
        let mut buf = BytesMut::new();
        let resp = read_response(sock, &mut buf).unwrap_or_else(|e| panic!("response #{i}: {e}"));
        assert_eq!(resp.status(), StatusCode::OK, "connection #{i}");
        assert!(!resp.body().is_empty(), "connection #{i} got an empty body");
        if resp.headers().get("x-cache") == Some("hit") {
            hits += 1;
        }
    }
    assert!(
        hits >= CONNS * 9 / 10,
        "warm object should be served from cache: {hits}/{CONNS} hits"
    );
    // A stalled reactor shows up as the 30 s read timeouts tripping;
    // getting here at all means no connection starved. Sanity-bound the
    // total anyway.
    assert!(
        started.elapsed() < StdDuration::from_secs(20),
        "draining {CONNS} responses took {:?}",
        started.elapsed()
    );

    // Keep-alive: the same half-thousand sockets all serve a second
    // round.
    for sock in &mut socks {
        sock.write_all(&wire).unwrap();
    }
    for (i, sock) in socks.iter_mut().enumerate() {
        let mut buf = BytesMut::new();
        let resp =
            read_response(sock, &mut buf).unwrap_or_else(|e| panic!("round 2 response #{i}: {e}"));
        assert_eq!(resp.status(), StatusCode::OK, "round 2 connection #{i}");
    }

    let stats = proxy.stats();
    assert!(
        stats.hits as usize >= CONNS,
        "expected ≥ {CONNS} cache hits, saw {}",
        stats.hits
    );
}

/// Refresh-during-read consistency: while the refresher rewrites the
/// object at a high rate, concurrent readers must only ever observe
/// complete, monotonically-advancing copies.
#[test]
fn refreshes_during_reads_stay_consistent() {
    let origin = LiveOrigin::builder()
        .object("/hot", ticking_trace("hot", 20, 120_000))
        .start()
        .unwrap();
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![RefreshRule::new("/hot", Duration::from_millis(40))],
        cache_objects: Some(64),
        ..ProxyConfig::new(origin.local_addr())
    })
    .unwrap();
    let addr = proxy.local_addr();

    // Warm.
    let mut warm = Client::new(addr, StdDuration::from_secs(5));
    assert_eq!(warm.get("/hot", None).unwrap().status(), StatusCode::OK);

    let readers: Vec<_> = (0..8)
        .map(|r| {
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).unwrap();
                sock.set_read_timeout(Some(StdDuration::from_secs(10)))
                    .unwrap();
                let wire = Request::get("/hot").build().to_bytes();
                let mut last_seen = Timestamp::ZERO;
                let deadline = Instant::now() + StdDuration::from_millis(600);
                let mut served = 0u32;
                while Instant::now() < deadline {
                    sock.write_all(&wire).unwrap();
                    let mut buf = BytesMut::new();
                    let resp = read_response(&mut sock, &mut buf)
                        .unwrap_or_else(|e| panic!("reader {r}: {e}"));
                    assert_eq!(resp.status(), StatusCode::OK, "reader {r}");
                    // A torn entry would lose its stamp or its body.
                    let lm = last_modified_ms(&resp)
                        .unwrap_or_else(|| panic!("reader {r}: unstamped response"));
                    assert!(!resp.body().is_empty(), "reader {r}: empty body");
                    // The cache only ever replaces entries with fresher
                    // ones, so one connection's view moves forward.
                    assert!(
                        lm >= last_seen,
                        "reader {r}: stamp went backwards ({last_seen} → {lm})"
                    );
                    last_seen = lm;
                    served += 1;
                }
                served
            })
        })
        .collect();

    let mut total_reads = 0u32;
    for handle in readers {
        total_reads += handle.join().expect("reader panicked");
    }
    let stats = proxy.stats();
    assert!(
        total_reads > 50,
        "readers made little progress: {total_reads}"
    );
    assert!(
        stats.refreshes > 3,
        "refresher should have rewritten the entry during the reads: {stats:?}"
    );
}

/// A dead origin plus thousands of pipelined cache-miss requests in one
/// burst: every failed fetch must produce a 500 iteratively (a
/// recursive resume would overflow the reactor stack) and the
/// connection must survive the whole burst.
#[test]
fn pipelined_miss_burst_against_dead_origin_is_iterative() {
    const BURST: usize = 3_000;

    // Bind, learn the port, drop: nobody listens there afterwards.
    let dead_origin = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let proxy = LiveProxy::start(ProxyConfig {
        ..ProxyConfig::new(dead_origin)
    })
    .unwrap();

    let mut sock = TcpStream::connect(proxy.local_addr()).unwrap();
    sock.set_read_timeout(Some(StdDuration::from_secs(30)))
        .unwrap();
    let mut burst = Vec::new();
    for i in 0..BURST {
        burst.extend(Request::get(format!("/miss/{i}")).build().to_bytes());
    }
    sock.write_all(&burst).unwrap();

    let mut buf = BytesMut::new();
    for i in 0..BURST {
        let resp =
            read_response(&mut sock, &mut buf).unwrap_or_else(|e| panic!("response #{i}: {e}"));
        assert_eq!(
            resp.status(),
            StatusCode::INTERNAL_SERVER_ERROR,
            "response #{i}"
        );
    }
    assert_eq!(proxy.stats().misses, BURST as u64);
}

/// A bounded sharded cache under a key-space much larger than its
/// capacity keeps serving misses correctly (every response fetched
/// through the reactor's upstream path) while evicting.
#[test]
fn bounded_cache_misses_fetch_through_reactor() {
    let mut builder = LiveOrigin::builder();
    for i in 0..64 {
        builder = builder.object(format!("/o/{i}"), ticking_trace("o", 500, 120_000));
    }
    let origin = builder.start().unwrap();
    let proxy = LiveProxy::start(ProxyConfig {
        rules: vec![],           // no refresher: every path exercises the miss path
        cache_objects: Some(16), // far below the 64-object key space
        ..ProxyConfig::new(origin.local_addr())
    })
    .unwrap();

    let mut client = Client::new(proxy.local_addr(), StdDuration::from_secs(5));
    for round in 0..3 {
        for i in 0..64 {
            let resp = client
                .get(&format!("/o/{i}"), None)
                .unwrap_or_else(|e| panic!("round {round} /o/{i}: {e}"));
            assert_eq!(resp.status(), StatusCode::OK, "round {round} /o/{i}");
        }
    }
    // The shard bound holds: at most 16 + one-per-shard slack.
    assert!(
        proxy.cached_objects() <= 32,
        "bounded cache grew to {}",
        proxy.cached_objects()
    );
    let stats = proxy.stats();
    assert!(
        stats.misses > 64,
        "eviction should force repeat misses: {stats:?}"
    );
    assert_eq!(stats.errors, 0);
}
