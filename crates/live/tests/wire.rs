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
//! * responses are bit-identical across connections and across partial
//!   vectored writes (a megabyte body forced through a slow reader);
//! * `/admin/stats` exposes the wire counters;
//! * keep-alive hits and misses issue no `epoll_ctl`: a socket's
//!   interest reaches the kernel when it changes, not per request;
//! * a request that fits the read buffer exactly is served, and one a
//!   byte larger is refused, however its bytes arrive;
//! * a client that stops reading mid-body stalls only its own
//!   connection.

mod harness;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use bytes::BytesMut;
use harness::{
    get, get_json, read_request, read_response, wait_until, write_response, Client, FakeClock,
    ScriptedOrigin,
};
use mutcon_http::message::{Request, Response};
use mutcon_http::types::StatusCode;
use mutcon_live::client::X_LAST_MODIFIED_MS;
use mutcon_live::proxy::{LiveProxy, ProxyConfig};
use mutcon_traces::json::Json;

/// A proxy with no refresher rules: first access to a path is a miss,
/// every later access is a pure cache hit.
fn hit_only_proxy(origin_addr: SocketAddr, reactors: usize) -> LiveProxy {
    LiveProxy::start(ProxyConfig {
        reactors: Some(reactors),
        ..ProxyConfig::new(origin_addr)
    })
    .expect("start proxy")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(StdDuration::from_secs(10)))
        .unwrap();
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
    let first = get(proxy.local_addr(), "/obj").unwrap();
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

/// Eight fresh connections in turn, each opened after the last one
/// closed, read back bit-identical hit bytes, and each allocates its own
/// two buffers.
#[test]
fn fresh_connections_read_bit_identical_hit_bytes() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = hit_only_proxy(origin.addr(), 1);
    let metrics = Arc::clone(proxy.engine_metrics());
    let request = Request::get("/obj").build().to_bytes();

    let gauge = |metrics: &mutcon_live::server::EngineMetrics| -> usize {
        metrics.reactor_connections().into_iter().sum()
    };

    {
        let mut sock = connect(proxy.local_addr());
        sock.write_all(&request).unwrap();
        let raw = read_raw_response(&mut sock);
        assert!(raw.windows(13).any(|w| w == b"x-cache: miss"));
    }
    wait_until("warm connection reaped", || gauge(&metrics) == 0);

    let allocs_before = metrics.buf_allocs();
    let mut first_hit: Option<Vec<u8>> = None;
    for _ in 0..8 {
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
        wait_until("connection reaped", || gauge(&metrics) == 0);
    }
    assert_eq!(
        metrics.buf_allocs() - allocs_before,
        16,
        "two buffers per accepted client"
    );
}

/// An origin that serves `body` for GETs under `/big` and a short body
/// for anything else, keep-alive, stamped with a fixed modification time
/// (one blocking thread per connection — the system under test is the
/// proxy's write path, not this fixture).
fn big_body_origin(body: Arc<Vec<u8>>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { break };
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut buf = BytesMut::new();
                while let Ok(Some(request)) = read_request(&mut stream, &mut buf) {
                    let body = match request.target().starts_with("/big") {
                        true => body.as_ref().clone(),
                        false => b"small".to_vec(),
                    };
                    let response = Response::ok()
                        .header(X_LAST_MODIFIED_MS, "1000000000000")
                        .keep_alive()
                        .body(body)
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
        assert!(raw[..head_end].windows(12).any(|w| w == b"x-cache: hit"));
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

    // A miss and a hit so the counters have something to show.
    get(proxy.local_addr(), "/obj").unwrap();
    let hit = get(proxy.local_addr(), "/obj").unwrap();
    assert_eq!(hit.headers().get("x-cache"), Some("hit"));

    let doc = get_json(proxy.local_addr(), "/admin/stats");
    let wire = doc.get("wire").expect("wire section");
    for key in [
        "write_calls",
        "writev_calls",
        "accept_batches",
        "body_copies",
        "buf_allocs",
        "epoll_ctl_calls",
        "write_stalls",
    ] {
        assert!(
            wire.get(key).and_then(Json::as_u64).is_some(),
            "wire.{key} missing from /admin/stats"
        );
    }
    assert!(wire.get("writev_calls").unwrap().as_u64().unwrap() >= 1);
    // Two buffers for each of the three clients, one for the origin socket.
    assert_eq!(wire.get("buf_allocs").and_then(Json::as_u64), Some(7));
    assert!(wire.get("accept_batches").unwrap().as_u64().unwrap() >= 1);
}

/// `/admin/stats` surfaces the cache's counters, summed and per shard,
/// and has no L1 section: the shared cache is the proxy's one tier.
#[test]
fn admin_stats_exposes_cache_counters() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = LiveProxy::start(ProxyConfig {
        reactors: Some(1),
        ..ProxyConfig::new(origin.addr())
    })
    .expect("start proxy");

    // A miss that stores the copy, then three hits on it.
    get(proxy.local_addr(), "/obj").unwrap();
    for _ in 0..3 {
        let hit = get(proxy.local_addr(), "/obj").unwrap();
        assert_eq!(hit.headers().get("x-cache"), Some("hit"));
    }

    let doc = get_json(proxy.local_addr(), "/admin/stats");
    let cache = doc.get("cache").expect("cache section");
    for key in ["objects", "evictions", "version_bumps", "touch_skips"] {
        assert!(
            cache.get(key).and_then(Json::as_u64).is_some(),
            "cache.{key} missing from /admin/stats"
        );
    }
    assert_eq!(cache.get("objects").and_then(Json::as_u64), Some(1));
    assert!(cache.get("l1").is_none(), "the proxy has no L1 to report");
    let hits = doc.get("proxy").and_then(|p| p.get("hits"));
    assert_eq!(hits.and_then(Json::as_u64), Some(3));
    // Per-shard version bumps are itemized too.
    let shards = cache
        .get("shards")
        .and_then(Json::as_array)
        .expect("shards");
    assert!(shards
        .iter()
        .all(|s| s.get("version_bumps").and_then(Json::as_u64).is_some()));
}

/// `epoll_ctl` is paid per connection, not per request: a keep-alive
/// hit leaves the client's interest READABLE, where it found it, so 200
/// hits on one connection add no `epoll_ctl` at all. The count is taken
/// at the call, so the figure is exact the moment a response is read.
#[test]
fn epoll_ctl_calls_grow_sublinearly_in_requests() {
    let clock = FakeClock::new();
    let origin = ScriptedOrigin::start(clock);
    let proxy = hit_only_proxy(origin.addr(), 1);
    let metrics = Arc::clone(proxy.engine_metrics());

    // Warm the cache so the measured burst is all keep-alive hits.
    get(proxy.local_addr(), "/obj").unwrap();

    let mut sock = connect(proxy.local_addr());
    let mut buf = BytesMut::new();
    let request = Request::get("/obj").build().to_bytes();
    // First request on the fresh connection: its accept-time ADD lands
    // before the measured window.
    sock.write_all(&request).unwrap();
    read_response(&mut sock, &mut buf).expect("first hit");

    const REQUESTS: u64 = 200;
    let ctl_before = metrics.epoll_ctl_calls();
    for _ in 0..REQUESTS {
        sock.write_all(&request).unwrap();
        let resp = read_response(&mut sock, &mut buf).expect("hit response");
        assert_eq!(resp.headers().get("x-cache"), Some("hit"));
    }
    let ctl = metrics.epoll_ctl_calls() - ctl_before;
    assert_eq!(
        ctl, 0,
        "{ctl} epoll_ctl calls for {REQUESTS} keep-alive hits"
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
/// origin, and the pooled origin socket stays READABLE between fetches,
/// so 200 keep-alive misses add no `epoll_ctl` at all. (Dropping the
/// client's interest for the fetch and re-arming it after cost two
/// `epoll_ctl` per miss.)
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
    sock.write_all(&Request::get("/miss/warm").build().to_bytes())
        .unwrap();
    read_response(&mut sock, &mut buf).expect("first miss");

    const MISSES: u64 = 200;
    let ctl_before = metrics.epoll_ctl_calls();
    for i in 0..MISSES {
        sock.write_all(&Request::get(format!("/miss/{i}")).build().to_bytes())
            .unwrap();
        let resp = read_response(&mut sock, &mut buf).expect("miss response");
        assert_eq!(resp.headers().get("x-cache"), Some("miss"));
    }
    let ctl = metrics.epoll_ctl_calls() - ctl_before;
    assert_eq!(
        ctl, 0,
        "{ctl} epoll_ctl calls for {MISSES} keep-alive misses"
    );
    assert_eq!(
        metrics.pool_opened(),
        1,
        "every miss rode the one pooled origin socket"
    );
}

/// CPU time (user + system, in clock ticks) the thread named `comm` has
/// used so far.
fn thread_cpu_ticks(comm: &str) -> u64 {
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if name.trim_end() != comm {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("task stat");
        // Fields after the parenthesised comm; utime and stime are the
        // 14th and 15th of the line, the 12th and 13th from there.
        let rest = stat.rsplit_once(')').expect("comm in parentheses").1;
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let mut tick = || {
            fields
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .expect("cpu field")
        };
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
    use mutcon_live::client::get_wire;
    use mutcon_live::server::{EventLoop, Service, ServiceResult};

    struct FetchEverything(SocketAddr);
    impl Service for FetchEverything {
        fn respond(&mut self, request: &Request) -> ServiceResult {
            ServiceResult::Upstream {
                addr: self.0,
                request: get_wire(request.target(), "origin", None),
            }
        }
    }

    let origin = ScriptedOrigin::start(FakeClock::new());
    origin.script("/held", vec![harness::Behavior::Hold]);
    let engine = EventLoop::start("eofhold", 1, |_, _| {
        Box::new(FetchEverything(origin.addr()))
    })
    .expect("start engine");

    let mut sock = connect(engine.local_addr());
    sock.write_all(&Request::get("/held").build().to_bytes())
        .unwrap();
    origin.wait_for_held(1);
    sock.shutdown(std::net::Shutdown::Write).unwrap();

    let before = thread_cpu_ticks("eofhold-r0");
    std::thread::sleep(StdDuration::from_millis(500));
    let spent = thread_cpu_ticks("eofhold-r0") - before;
    // A reactor woken by the EOF on every turn burns the whole hold
    // (about 50 ticks of 10 ms); one that disarmed sleeps through it.
    assert!(
        spent <= 10,
        "the reactor spun on the client's EOF: {spent} ticks in 500 ms"
    );

    origin.release_all();
    let mut buf = BytesMut::new();
    let resp = read_response(&mut sock, &mut buf).expect("the owed response");
    assert_eq!(resp.status(), StatusCode::OK);
    assert!(resp.body().starts_with(b"path=/held "));
    let mut rest = Vec::new();
    assert_eq!(
        sock.read_to_end(&mut rest).unwrap(),
        0,
        "then the drained connection closes"
    );
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
    sock.write_all(&Request::get("/held").build().to_bytes())
        .unwrap();
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
    assert!(
        started.elapsed() < StdDuration::from_secs(1),
        "answered in {:?}",
        started.elapsed()
    );
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
    let resp = get(proxy.local_addr(), "/after").unwrap();
    assert_eq!(resp.status(), StatusCode::OK);
}

/// A `PUT /obj` whose wire form is exactly `len` bytes.
fn put_of_len(len: usize) -> Vec<u8> {
    let wire = |body: usize| {
        Request::builder(mutcon_http::types::Method::Put, "/obj")
            .body(vec![b'x'; body])
            .build()
            .to_bytes()
    };
    // Half the length has as many digits in `content-length` as the
    // final body will.
    let head = wire(len / 2).len() - len / 2;
    let bytes = wire(len - head);
    assert_eq!(bytes.len(), len);
    bytes
}

/// The read buffer's bound (256 KiB) is exact. A request of exactly that
/// size is served: a `PUT /obj` gets its `405`. One a byte larger is
/// refused `413` and closed, even when its last two bytes arrive after
/// the rest, so that no read lines up with the end of the buffer.
#[test]
fn a_request_one_byte_over_the_read_buffer_is_refused_however_it_arrives() {
    const MAX_BUFFERED: usize = 256 * 1024;
    let origin = ScriptedOrigin::start(FakeClock::new());
    let proxy = hit_only_proxy(origin.addr(), 1);

    let mut sock = connect(proxy.local_addr());
    sock.write_all(&put_of_len(MAX_BUFFERED)).unwrap();
    let resp = read_response(&mut sock, &mut BytesMut::new()).expect("the 405");
    assert_eq!(resp.status(), StatusCode::METHOD_NOT_ALLOWED);

    let mut sock = connect(proxy.local_addr());
    let wire = put_of_len(MAX_BUFFERED + 1);
    let (most, last) = wire.split_at(MAX_BUFFERED - 1);
    sock.write_all(most).unwrap();
    std::thread::sleep(StdDuration::from_millis(50));
    sock.write_all(last).unwrap();
    let resp = read_response(&mut sock, &mut BytesMut::new()).expect("the 413");
    assert_eq!(resp.status(), StatusCode::PAYLOAD_TOO_LARGE);
    assert!(!resp.wants_keep_alive(), "the refusal announces the close");
    let mut rest = Vec::new();
    match sock.read_to_end(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }
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
    idle.write_all(b"GET /obj HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    read_raw_response(&mut idle);

    let mut slow = connect(proxy.local_addr());
    slow.set_read_timeout(Some(StdDuration::from_millis(100)))
        .unwrap();
    let head = format!(
        "GET /obj HTTP/1.1\r\nhost: x\r\nx-padding: {}\r\n\r\n",
        "p".repeat(200)
    );
    let started = Instant::now();
    let mut raw = Vec::new();
    for byte in head.bytes() {
        // After the refusal the proxy may already have closed.
        let _ = slow.write_all(&[byte]);
        let mut chunk = [0u8; 512];
        match slow.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("slow client read: {e}"),
        }
    }
    let took = started.elapsed();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "after {took:?}: {text:?}"
    );
    assert!(text.contains("connection: close\r\n"), "{text:?}");
    // The deadline, one sweep interval, one loop tick.
    assert!(
        (StdDuration::from_secs(5)..StdDuration::from_millis(6_600)).contains(&took),
        "closed after {took:?}"
    );
    assert_eq!(proxy.engine_metrics().slow_requests(), 1);

    idle.write_all(b"GET /obj HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let again = read_raw_response(&mut idle);
    assert!(
        again.starts_with(b"HTTP/1.1 200 OK\r\n"),
        "the idle connection was closed too"
    );
}

/// A client that asks for a 12 MiB hit and then reads nothing (ROADMAP
/// 5) stalls only its own connection: on the one reactor, another
/// client's hits keep coming back promptly while the stalls are counted,
/// and when the reader drops its socket the reactor closes the
/// connection.
#[test]
fn a_client_that_stops_reading_mid_body_stalls_only_itself() {
    let body: Arc<Vec<u8>> = Arc::new(vec![b'x'; 12 << 20]);
    let proxy = hit_only_proxy(big_body_origin(body), 1);
    let metrics = Arc::clone(proxy.engine_metrics());
    let request = Request::get("/big").build().to_bytes();

    // Warm both objects.
    let mut warm = connect(proxy.local_addr());
    warm.write_all(&request).unwrap();
    read_raw_response(&mut warm);
    drop(warm);
    let mut hits = Client::new(proxy.local_addr(), StdDuration::from_secs(10));
    assert_eq!(hits.get("/small", None).unwrap().status(), StatusCode::OK);

    let stalls = metrics.write_stalls();
    let mut stuck = connect(proxy.local_addr());
    stuck.write_all(&request).unwrap();
    wait_until("the stuck reader's flush to stall", || {
        metrics.write_stalls() > stalls
    });

    for i in 0..100 {
        let started = Instant::now();
        let resp = hits.get("/small", None).unwrap();
        assert_eq!(resp.body(), &b"small"[..]);
        let took = started.elapsed();
        assert!(took < StdDuration::from_secs(1), "hit {i} took {took:?}");
    }

    // Unread bytes make the close a reset, which the reactor sees at once.
    drop(stuck);
    wait_until("the stuck connection to close", || {
        metrics.reactor_connections().iter().sum::<usize>() == 1
    });
}
