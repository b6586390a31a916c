//! Wire-path tests: the zero-copy hit path over real sockets.
//!
//! The module tests in `mutcon_live::vectored` prove the gather-write
//! state machine correct at every split point against in-memory sinks;
//! these scenarios put the same machinery behind real TCP and assert
//! the end-to-end promises the engine makes:
//!
//! * a cache hit moves **zero** body bytes through a copy — the
//!   `body_copies` counter stays flat over any number of hits — and
//!   each hit response leaves in a single `writev` when the socket
//!   cooperates;
//! * per-reactor buffer pooling recycles read/write buffers across
//!   connection lifetimes with a bounded pool high-water mark;
//! * responses are bit-identical across connections and across partial
//!   vectored writes (a megabyte body forced through a slow reader);
//! * `/admin/stats` exposes the wire counters;
//! * interest coalescing keeps `epoll_ctl` traffic sublinear in
//!   requests under keep-alive.

mod harness;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use bytes::BytesMut;
use harness::{FakeClock, ScriptedOrigin};
use mutcon_live::client::{HttpClient, X_LAST_MODIFIED_MS};
use mutcon_live::proxy::{LiveProxy, ProxyConfig};
use mutcon_live::wire::{read_request, read_response, write_response};
use mutcon_http::message::{Request, Response};
use mutcon_http::types::StatusCode;
use mutcon_traces::json::{self, Json};

/// A proxy with no refresher rules: first access to a path is a miss,
/// every later access is a pure cache hit.
fn hit_only_proxy(origin_addr: SocketAddr, reactors: usize) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        reactors: Some(reactors),
        ..ProxyConfig::new(origin_addr)
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

fn connect(addr: SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(StdDuration::from_secs(10))).unwrap();
    sock
}

/// Reads exactly one `Content-Length`-delimited response off the wire,
/// returning its raw bytes (head + blank line + body) untouched, so
/// scenarios can compare responses bit-for-bit.
fn read_raw_response(sock: &mut TcpStream) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = sock.read(&mut chunk).expect("read head");
        assert!(n > 0, "peer closed mid-head");
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..head_end]).expect("ascii head");
    let len: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            if name.eq_ignore_ascii_case("content-length") {
                value.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("content-length present");
    while raw.len() < head_end + len {
        let n = sock.read(&mut chunk).expect("read body");
        assert!(n > 0, "peer closed mid-body");
        raw.extend_from_slice(&chunk[..n]);
    }
    // Requests are strictly sequential in these tests, so nothing may
    // trail the response.
    assert_eq!(raw.len(), head_end + len, "unexpected pipelined surplus");
    raw
}

/// The acceptance scenario for the zero-copy tentpole: over N cache
/// hits on a keep-alive connection, the engine copies **zero** body
/// bytes (the shared `Arc` body is vectored straight to the socket)
/// and issues at least one gather write per response.
#[test]
fn hits_copy_no_body_bytes_and_leave_via_writev() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = hit_only_proxy(origin.addr(), 4);

    // Warm: the one and only origin fetch.
    let warm = HttpClient::new();
    let first = warm.get(proxy.local_addr(), "/obj", None).unwrap();
    assert_eq!(first.status(), StatusCode::OK);
    assert_eq!(first.headers().get("x-cache"), Some("miss"));

    let metrics = Arc::clone(proxy.engine_metrics());
    let copies_before = metrics.body_copies();
    let writev_before = metrics.writev_calls();

    const HITS: u64 = 32;
    let mut sock = connect(proxy.local_addr());
    let mut buf = BytesMut::new();
    let request = Request::get("/obj").build().to_bytes();
    for _ in 0..HITS {
        sock.write_all(&request).unwrap();
        let resp = read_response(&mut sock, &mut buf).expect("hit response");
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.headers().get("x-cache"), Some("hit"));
        assert!(!resp.body().is_empty());
    }

    assert_eq!(
        metrics.body_copies() - copies_before,
        0,
        "the hit path must never copy body bytes"
    );
    // The reactor folds flush stats into the shared metrics right after
    // the writev whose bytes we just read, so the final increment can
    // trail the client's read by a beat.
    wait_until("writev counters settle", || {
        metrics.writev_calls() - writev_before >= HITS
    });
    assert_eq!(origin.fetches("/obj"), 1, "hits must not touch the origin");
}

/// Buffer pooling across connection lifetimes: short-lived connections
/// recycle their read/write buffers through the reactor-local pool
/// (reuses dominate, the pool's high-water mark stays bounded) and
/// every connection reads back bit-identical hit bytes.
#[test]
fn pooled_buffers_recycle_across_connections_with_identical_bytes() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    // One reactor: successive connections land in the same pool.
    let proxy = hit_only_proxy(origin.addr(), 1);
    let metrics = Arc::clone(proxy.engine_metrics());
    let request = Request::get("/obj").build().to_bytes();

    let gauge = |metrics: &mutcon_live::server::EngineMetrics| -> usize {
        metrics.reactor_connections().into_iter().sum()
    };

    // Warm on its own connection; its buffers seed the pool on close.
    {
        let mut sock = connect(proxy.local_addr());
        sock.write_all(&request).unwrap();
        let raw = read_raw_response(&mut sock);
        assert!(raw.windows(13).any(|w| w == b"x-cache: miss"));
    }
    wait_until("warm connection reaped", || gauge(&metrics) == 0);

    let reuses_before = metrics.buf_reuses();
    let mut first_hit: Option<Vec<u8>> = None;
    const CONNS: usize = 8;
    for _ in 0..CONNS {
        let mut sock = connect(proxy.local_addr());
        sock.write_all(&request).unwrap();
        let raw = read_raw_response(&mut sock);
        assert!(raw.windows(12).any(|w| w == b"x-cache: hit"));
        match &first_hit {
            Some(expected) => assert_eq!(
                raw, *expected,
                "hits must be bit-identical across connections"
            ),
            None => first_hit = Some(raw),
        }
        drop(sock);
        // The close must be reaped before the next accept, so the next
        // connection draws from the recycled buffers.
        wait_until("connection reaped", || gauge(&metrics) == 0);
    }

    let reuses = metrics.buf_reuses() - reuses_before;
    assert!(
        reuses >= CONNS as u64,
        "expected pooled-buffer reuse across {CONNS} connections, saw {reuses}"
    );
    let high_water = metrics.buf_pool_high_water();
    assert!(
        (1..=64).contains(&high_water),
        "pool high-water out of bounds: {high_water}"
    );
}

/// An origin that serves `body` for every GET, keep-alive, stamped with
/// a fixed modification time (one blocking thread per connection — the
/// system under test is the proxy's write path, not this fixture).
fn big_body_origin(body: Arc<Vec<u8>>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { break };
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut buf = BytesMut::new();
                while let Ok(Some(_request)) = read_request(&mut stream, &mut buf) {
                    let response = Response::ok()
                        .header(X_LAST_MODIFIED_MS, "1000000000000")
                        .keep_alive()
                        .body(body.as_ref().clone())
                        .build();
                    if write_response(&mut stream, &response).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

/// The partial-write gauntlet over a real socket: a megabyte body can
/// never leave in one `writev` (it dwarfs the socket send buffer), so
/// the plan must survive many partial gather writes — including the
/// head/body boundary landing mid-`writev` — and still deliver the
/// exact cached bytes, with zero body copies.
#[test]
fn megabyte_hit_survives_partial_writes_byte_for_byte() {
    let body: Arc<Vec<u8>> = Arc::new(
        (0..1024 * 1024)
            .map(|i: u32| (i.wrapping_mul(31).wrapping_add(7) % 251) as u8)
            .collect(),
    );
    let origin_addr = big_body_origin(Arc::clone(&body));
    let proxy = hit_only_proxy(origin_addr, 1);
    let metrics = Arc::clone(proxy.engine_metrics());
    let request = Request::get("/big").build().to_bytes();

    // Warm (miss): pulls the megabyte from the origin into the cache.
    {
        let mut sock = connect(proxy.local_addr());
        sock.write_all(&request).unwrap();
        let raw = read_raw_response(&mut sock);
        assert!(raw.ends_with(&body[body.len() - 64..]));
    }

    let copies_before = metrics.body_copies();
    let writev_before = metrics.writev_calls();

    // Two hits on one keep-alive connection, each read only after a
    // pause so the kernel send buffer fills and the engine's flush sees
    // real short writes and `WouldBlock`.
    let mut sock = connect(proxy.local_addr());
    let mut first_hit: Option<Vec<u8>> = None;
    for _ in 0..2 {
        sock.write_all(&request).unwrap();
        std::thread::sleep(StdDuration::from_millis(100));
        let raw = read_raw_response(&mut sock);
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        assert!(raw[..head_end]
            .windows(12)
            .any(|w| w == b"x-cache: hit"));
        assert_eq!(&raw[head_end..], &body[..], "body must survive intact");
        match &first_hit {
            Some(expected) => assert_eq!(raw, *expected, "hits must be bit-identical"),
            None => first_hit = Some(raw),
        }
    }

    assert_eq!(
        metrics.body_copies() - copies_before,
        0,
        "a megabyte hit body must never be copied"
    );
    wait_until("partial flushes gather-write", || {
        metrics.writev_calls() - writev_before >= 2
    });
}

/// `/admin/stats` surfaces the wire counters for operators.
#[test]
fn admin_stats_exposes_wire_counters() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = hit_only_proxy(origin.addr(), 4);
    let client = HttpClient::new();

    // A miss and a hit so the counters have something to show.
    client.get(proxy.local_addr(), "/obj", None).unwrap();
    let hit = client.get(proxy.local_addr(), "/obj", None).unwrap();
    assert_eq!(hit.headers().get("x-cache"), Some("hit"));

    let resp = client.get(proxy.local_addr(), "/admin/stats", None).unwrap();
    assert_eq!(resp.status(), StatusCode::OK);
    let doc: Json =
        json::parse(std::str::from_utf8(resp.body()).unwrap()).expect("stats JSON");
    let wire = doc.get("wire").expect("wire section");
    for key in [
        "write_calls",
        "writev_calls",
        "accept_batches",
        "body_copies",
        "buf_reuses",
        "buf_allocs",
        "buf_pool_high_water",
        "epoll_ctl_calls",
        "interest_coalesced",
        "l1_hits",
        "l1_stale_rejects",
        "write_stalls",
    ] {
        assert!(
            wire.get(key).and_then(Json::as_u64).is_some(),
            "wire.{key} missing from /admin/stats"
        );
    }
    assert!(wire.get("writev_calls").unwrap().as_u64().unwrap() >= 1);
    assert!(wire.get("buf_allocs").unwrap().as_u64().unwrap() >= 1);
    assert!(wire.get("accept_batches").unwrap().as_u64().unwrap() >= 1);
}

/// `/admin/stats` surfaces the L1 hierarchy counters — capacity and the
/// hit/stale/refill story.
#[test]
fn admin_stats_exposes_l1_and_cache_counters() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = LiveProxy::start(ProxyConfig {
        reactors: Some(1),
        l1_objects: Some(64),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");
    let client = HttpClient::new();

    // A miss (stores to L2), an L2 hit (refills the L1), then two L1
    // hits — the refill protocol only promotes on a validated L2 hit.
    client.get(proxy.local_addr(), "/obj", None).unwrap();
    for _ in 0..3 {
        let hit = client.get(proxy.local_addr(), "/obj", None).unwrap();
        assert_eq!(hit.headers().get("x-cache"), Some("hit"));
    }

    let resp = client.get(proxy.local_addr(), "/admin/stats", None).unwrap();
    let doc: Json =
        json::parse(std::str::from_utf8(resp.body()).unwrap()).expect("stats JSON");
    let cache = doc.get("cache").expect("cache section");
    for key in ["objects", "evictions", "generation", "version_bumps", "touch_skips"] {
        assert!(
            cache.get(key).and_then(Json::as_u64).is_some(),
            "cache.{key} missing from /admin/stats"
        );
    }
    let l1 = cache.get("l1").expect("cache.l1 section");
    let counter = |key: &str| l1.get(key).and_then(Json::as_u64).unwrap_or_else(|| {
        panic!("cache.l1.{key} missing from /admin/stats")
    });
    assert_eq!(counter("capacity"), 64);
    assert!(counter("hits") >= 2, "both repeat reads must be L1 hits");
    assert!(counter("refills") >= 1, "the miss must refill the L1");
    let _ = (counter("stale_rejects"), counter("evictions"));
    // The wire section mirrors the serve-path counters.
    let wire = doc.get("wire").expect("wire section");
    assert_eq!(
        wire.get("l1_hits").and_then(Json::as_u64),
        l1.get("hits").and_then(Json::as_u64),
        "wire.l1_hits and cache.l1.hits are the same counter"
    );
    // Per-shard version bumps are itemized too.
    let shards = cache.get("shards").and_then(Json::as_array).expect("shards");
    assert!(shards
        .iter()
        .all(|s| s.get("version_bumps").and_then(Json::as_u64).is_some()));
}

/// The interest-coalescing acceptance: over a burst of keep-alive
/// requests, `epoll_ctl_calls` grows **sublinearly in requests** — the
/// per-connection interest cell nets each request's READABLE →
/// (WRITABLE) → READABLE round-trip out to nothing by flush time, so
/// the kernel sees per-*connection* registration traffic, not
/// per-request traffic.
#[test]
fn epoll_ctl_calls_grow_sublinearly_in_requests() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = hit_only_proxy(origin.addr(), 1);
    let metrics = Arc::clone(proxy.engine_metrics());

    // Warm the cache so the measured burst is all keep-alive hits.
    let warm = HttpClient::new();
    warm.get(proxy.local_addr(), "/obj", None).unwrap();

    let mut sock = connect(proxy.local_addr());
    let mut buf = BytesMut::new();
    let request = Request::get("/obj").build().to_bytes();
    // First request on the fresh connection: its accept-time ADD and
    // any first-flight MODs land before the measured window.
    sock.write_all(&request).unwrap();
    read_response(&mut sock, &mut buf).expect("first hit");
    wait_until("pre-burst counters settle", || metrics.writev_calls() >= 2);

    const REQUESTS: u64 = 200;
    let ctl_before = metrics.epoll_ctl_calls();
    for _ in 0..REQUESTS {
        sock.write_all(&request).unwrap();
        let resp = read_response(&mut sock, &mut buf).expect("hit response");
        assert_eq!(resp.headers().get("x-cache"), Some("hit"));
    }
    // The counters fold into the shared metrics once per event-loop
    // turn; give the final turn a beat to land, then hold the bound.
    std::thread::sleep(StdDuration::from_millis(20));
    let ctl = metrics.epoll_ctl_calls() - ctl_before;
    assert!(
        ctl <= REQUESTS / 4,
        "epoll_ctl must be amortized under keep-alive: {ctl} ctl calls for {REQUESTS} requests"
    );
}

/// A request whose body the parser cannot delimit closes the connection
/// unanswered: the chunk bytes of a `Transfer-Encoding: chunked` POST
/// must never be parsed as the next pipelined request, so neither the
/// POST nor the GET riding behind it gets a response.
#[test]
fn chunked_post_closes_the_connection_instead_of_desyncing() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = hit_only_proxy(origin.addr(), 1);

    let mut sock = connect(proxy.local_addr());
    sock.write_all(
        b"POST /obj HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n\
          GET /obj HTTP/1.1\r\n\r\n",
    )
    .unwrap();

    // Everything the proxy sends before it closes (a reset counts as a
    // close: the bytes read so far are what the client got).
    let mut answered = Vec::new();
    match sock.read_to_end(&mut answered) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("the proxy must close the connection: {e}"),
    }
    assert!(
        answered.is_empty(),
        "expected a bare close, got {:?}",
        String::from_utf8_lossy(&answered)
    );
    assert_eq!(origin.fetches("/obj"), 0, "the pipelined GET must not run");
}

/// The miss-path twin of `epoll_ctl_calls_grow_sublinearly_in_requests`:
/// a client's read interest stays armed while its fetch is at the
/// origin, so a keep-alive connection's misses reach the kernel's
/// interest list no more often than its hits do. (Dropping the interest
/// for the fetch and re-arming it after cost two `epoll_ctl` per miss.)
#[test]
fn epoll_ctl_calls_stay_flat_over_keep_alive_misses() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = hit_only_proxy(origin.addr(), 1);
    let metrics = Arc::clone(proxy.engine_metrics());

    let mut sock = connect(proxy.local_addr());
    let mut buf = BytesMut::new();
    // First miss: the client's ADD, the origin socket's ADD and its
    // connect-time MOD all land before the measured window.
    sock.write_all(&Request::get("/miss/warm").build().to_bytes()).unwrap();
    read_response(&mut sock, &mut buf).expect("first miss");
    wait_until("pre-burst counters settle", || metrics.pool_opened() >= 1);
    std::thread::sleep(StdDuration::from_millis(20));

    const MISSES: u64 = 200;
    let ctl_before = metrics.epoll_ctl_calls();
    for i in 0..MISSES {
        sock.write_all(&Request::get(format!("/miss/{i}")).build().to_bytes()).unwrap();
        let resp = read_response(&mut sock, &mut buf).expect("miss response");
        assert_eq!(resp.headers().get("x-cache"), Some("miss"));
    }
    std::thread::sleep(StdDuration::from_millis(20));
    let ctl = metrics.epoll_ctl_calls() - ctl_before;
    assert!(
        ctl <= MISSES / 8,
        "a miss must not toggle the client's interest: {ctl} ctl calls for {MISSES} misses"
    );
    assert_eq!(metrics.pool_opened(), 1, "every miss rode the one pooled origin socket");
}

/// CPU time (user + system, in clock ticks) the thread named `comm` has
/// used so far.
fn thread_cpu_ticks(comm: &str) -> u64 {
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if name.trim_end() != comm {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
        // Fields after the parenthesised comm; utime and stime are the
        // 14th and 15th of the line, the 12th and 13th from there.
        let rest = stat.rsplit_once(')').expect("comm in parentheses").1;
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok()).expect("cpu field");
        return tick() + tick();
    }
    panic!("no thread named {comm}");
}

/// A client that half-closes while its miss is held at the origin is
/// still owed — and gets — the response. Its read interest is dropped at
/// the EOF: the poller is level-triggered, so an armed interest would
/// report that EOF on every loop turn for as long as the origin takes.
/// The engine is driven directly so its one reactor thread has a name of
/// its own to find in procfs.
#[test]
fn half_closed_client_gets_its_held_miss_without_a_spinning_reactor() {
    use mutcon_live::cache::L1Cache;
    use mutcon_live::client::get_wire;
    use mutcon_live::server::{EngineConfig, EventLoop, Reply, Service, ServiceResult};

    struct FetchEverything(SocketAddr);
    impl Service for FetchEverything {
        fn respond(&self, request: &Request, _l1: &mut L1Cache) -> ServiceResult {
            ServiceResult::Upstream {
                addr: self.0,
                request: get_wire(request.target(), "origin", None),
                finish: Box::new(|fetched| {
                    Reply::Full(fetched.unwrap_or_else(|_| {
                        Response::builder(StatusCode::INTERNAL_SERVER_ERROR).build()
                    }))
                }),
            }
        }
    }

    let origin = ScriptedOrigin::start(FakeClock::new());
    origin.script("/held", vec![harness::Behavior::Hold]);
    let engine = EventLoop::start(
        "eofhold",
        Arc::new(FetchEverything(origin.addr())),
        EngineConfig { reactors: 1, ..EngineConfig::default() },
    )
    .expect("start engine");

    let mut sock = connect(engine.local_addr());
    sock.write_all(&Request::get("/held").build().to_bytes()).unwrap();
    origin.wait_for_held(1);
    sock.shutdown(std::net::Shutdown::Write).unwrap();

    let before = thread_cpu_ticks("eofhold-r0");
    std::thread::sleep(StdDuration::from_millis(500));
    let spent = thread_cpu_ticks("eofhold-r0") - before;
    // A reactor woken by the EOF on every turn burns the whole hold
    // (about 50 ticks of 10 ms); one that disarmed sleeps through it.
    assert!(spent <= 10, "the reactor spun on the client's EOF: {spent} ticks in 500 ms");

    origin.release_all();
    let mut buf = BytesMut::new();
    let resp = read_response(&mut sock, &mut buf).expect("the owed response");
    assert_eq!(resp.status(), StatusCode::OK);
    assert!(resp.body().starts_with(b"path=/held "));
    let mut rest = Vec::new();
    assert_eq!(sock.read_to_end(&mut rest).unwrap(), 0, "then the drained connection closes");
}

/// Read interest stays armed behind a pending miss, but not without
/// bound: a client that keeps pipelining while its first request waits
/// at the origin is read up to the engine's buffering limit (256 KiB)
/// and then left to the kernel's socket buffers, which push back on the
/// sender.
#[test]
fn pipelining_flood_behind_a_pending_miss_stops_being_read() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    origin.script("/held", vec![harness::Behavior::Hold]);
    let proxy = hit_only_proxy(origin.addr(), 1);

    let mut sock = connect(proxy.local_addr());
    sock.write_all(&Request::get("/held").build().to_bytes()).unwrap();
    origin.wait_for_held(1);

    // Far more than the engine's limit plus anything the kernel will
    // queue on a loopback socket nobody reads (tcp_rmem + tcp_wmem
    // ceilings: 32 + 4 MiB here).
    const FLOOD_CAP: usize = 64 << 20;
    let chunk = Request::get("/flood").build().to_bytes().repeat(1024);
    sock.set_nonblocking(true).unwrap();
    let mut sent = 0usize;
    let mut last_progress = Instant::now();
    while sent < FLOOD_CAP && last_progress.elapsed() < StdDuration::from_millis(300) {
        match sock.write(&chunk) {
            Ok(n) => {
                sent += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(StdDuration::from_millis(5));
            }
            Err(e) => panic!("flood write: {e}"),
        }
    }
    assert!(
        sent < FLOOD_CAP,
        "the proxy read all {sent} pipelined bytes behind a pending miss"
    );

    // The held request is still answered first, whatever queued behind it.
    sock.set_nonblocking(false).unwrap();
    origin.release_all();
    let mut buf = BytesMut::new();
    let resp = read_response(&mut sock, &mut buf).expect("held response");
    assert!(resp.body().starts_with(b"path=/held "));
}

/// A request larger than the engine's read buffer is refused with `413`
/// once the buffer is full, then the connection closes. (It used to hang
/// until the 30 s idle sweep: the read loop stopped draining at 256 KiB
/// while the parser waited for the rest.)
#[test]
fn oversized_request_body_gets_a_413_and_a_close() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = hit_only_proxy(origin.addr(), 1);
    let mut sock = connect(proxy.local_addr());
    let wire = Request::builder(mutcon_http::types::Method::Put, "/admin/rules")
        .body(vec![b' '; 300_000])
        .build()
        .to_bytes();
    let started = Instant::now();
    // The refusal may land while the tail of the body is still being
    // written; a failed write then is as good as a completed one.
    let _ = sock.write_all(&wire);
    let mut buf = BytesMut::new();
    let resp = read_response(&mut sock, &mut buf).expect("the 413");
    assert!(started.elapsed() < StdDuration::from_secs(1), "answered in {:?}", started.elapsed());
    assert_eq!(resp.status(), StatusCode::PAYLOAD_TOO_LARGE);
    assert!(!resp.wants_keep_alive(), "the refusal announces the close");
    let mut rest = Vec::new();
    match sock.read_to_end(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }
    // The limit is on one body, not on the connection: the next client
    // is served.
    let resp = HttpClient::new().get(proxy.local_addr(), "/after", None).unwrap();
    assert_eq!(resp.status(), StatusCode::OK);
}

/// A client sending one byte every 100 ms is never idle, so the 30 s
/// idle sweep would hold its slot for as long as it cared to go on. The
/// request deadline (5 s from the first byte) answers it `408` and
/// closes at the first sweep after that, counts it as a slow request,
/// and leaves the idle keep-alive connection next to it alone.
#[test]
fn a_byte_at_a_time_request_gets_a_408_at_the_deadline() {
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = hit_only_proxy(origin.addr(), 1);
    let mut idle = connect(proxy.local_addr());
    idle.write_all(b"GET /obj HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
    read_raw_response(&mut idle);

    let mut slow = connect(proxy.local_addr());
    slow.set_read_timeout(Some(StdDuration::from_millis(100))).unwrap();
    let head = format!("GET /obj HTTP/1.1\r\nhost: x\r\nx-padding: {}\r\n\r\n", "p".repeat(200));
    let started = Instant::now();
    let mut raw = Vec::new();
    for byte in head.bytes() {
        // After the refusal the proxy may already have closed.
        let _ = slow.write_all(&[byte]);
        let mut chunk = [0u8; 512];
        match slow.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("slow client read: {e}"),
        }
    }
    let took = started.elapsed();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "after {took:?}: {text:?}");
    assert!(text.contains("connection: close\r\n"), "{text:?}");
    // The deadline, one sweep interval, one loop tick.
    assert!(
        (StdDuration::from_secs(5)..StdDuration::from_millis(6_600)).contains(&took),
        "closed after {took:?}"
    );
    assert_eq!(proxy.engine_metrics().slow_requests(), 1);

    idle.write_all(b"GET /obj HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
    let again = read_raw_response(&mut idle);
    assert!(again.starts_with(b"HTTP/1.1 200 OK\r\n"), "the idle connection was closed too");
}
