//! Deterministic in-process concurrency harness for the live proxy.
//!
//! Real sockets and real reactor threads are inherently racy; this
//! harness pins down everything *else* so concurrency scenarios either
//! have deterministic outcomes by construction or reproduce
//! bit-identically from a seed:
//!
//! * [`FakeClock`] — a shared logical clock in milliseconds. The
//!   scripted origin stamps every response from it, so "time" advances
//!   only when a scenario says so; trace replay and wall-clock jitter
//!   are out of the picture.
//! * [`ScriptedOrigin`] — a real TCP origin whose per-path behavior is
//!   scripted: serve, park the request behind a gate ([`Behavior::Hold`]),
//!   die mid-transfer, advertise `Connection: close`, or serve and then
//!   silently drop the socket (seeding the proxy's pool with a stale
//!   connection). It counts fetches per path and appends every
//!   observable action to an ordered event log.
//! * Seeded schedules — scenarios derive all choices (paths, op order,
//!   clock steps) from a `mutcon_sim::rng::SimRng` seed, so a failing
//!   run replays exactly.
//! * [`Client`] and the blocking message reads and writes (`wire.rs`) —
//!   how the tests speak HTTP; the proxy itself has no blocking client.
//!
//! The origin intentionally uses one blocking thread per connection:
//! the *system under test* is the proxy's multi-reactor engine, and the
//! fixture must stay simple enough to be obviously correct.

// The harness is compiled once per test binary; not every binary uses
// every fixture helper.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use mutcon_http::message::{Request, Response};
use mutcon_http::types::{Method, StatusCode};
use mutcon_live::client::{validator_ms, X_LAST_MODIFIED_MS};
use mutcon_traces::json::{self, Json};

mod wire;
// Each test binary uses its own share of these.
#[allow(unused_imports)]
pub use wire::{read_request, read_response, write_request, write_response, Client};

/// A keep-alive client with the scenarios' 10 s timeout.
pub fn client(addr: SocketAddr) -> Client {
    Client::new(addr, Duration::from_secs(10))
}

/// One `GET` on a fresh connection: a client per request, so every
/// request is one accept and no stale-socket retry can hide a fault.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    client(addr).get(path, None)
}

/// One `PUT` with `body` on a fresh connection.
pub fn put(addr: SocketAddr, path: &str, body: impl Into<Bytes>) -> io::Result<Response> {
    client(addr).put(path, body)
}

/// `GET path` on a fresh connection, which must answer `200` with JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Json {
    let resp = get(addr, path).expect(path);
    assert_eq!(resp.status(), StatusCode::OK, "{path}");
    json::parse(std::str::from_utf8(resp.body()).expect("utf8")).expect("JSON body")
}

/// Waits until `pred` holds, looking every 2 ms; fails naming `what`
/// after 5 s.
pub fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One `u64` of `GET /admin/stats`, by key path.
pub fn stats_counter(addr: SocketAddr, path: &[&str]) -> u64 {
    let doc = get_json(addr, "/admin/stats");
    let mut node = &doc;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("stats key {path:?}"));
    }
    node.as_u64()
        .unwrap_or_else(|| panic!("stats key {path:?} not a number"))
}

/// Base Unix-epoch-ish stamp for fake-clock time 0 (an arbitrary,
/// readable constant — determinism matters, the epoch does not).
pub const CLOCK_BASE_MS: u64 = 1_000_000_000_000;

/// A shared logical clock. Starts at 0 ms; only [`FakeClock::advance`]
/// moves it.
#[derive(Debug, Clone, Default)]
pub struct FakeClock(Arc<AtomicU64>);

impl FakeClock {
    /// A clock at 0 ms.
    pub fn new() -> FakeClock {
        FakeClock::default()
    }

    /// Current logical time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Moves time forward.
    pub fn advance(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }

    /// The modification stamp the origin reports at the current time.
    pub fn stamp_ms(&self) -> u64 {
        CLOCK_BASE_MS + self.now_ms()
    }
}

/// What the scripted origin does with the next request for a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// `200 OK`, keep-alive, stamped from the fake clock.
    Serve,
    /// Park the request until [`ScriptedOrigin::release_all`], then
    /// serve normally. Lets a scenario hold N coalesced misses in
    /// flight at once.
    Hold,
    /// Write a partial response (head + truncated body) and drop the
    /// socket.
    DieMidTransfer,
    /// Serve with `Connection: close` (the proxy must not pool this
    /// socket).
    CloseAdvertised,
    /// Serve keep-alive, then silently drop the socket — the proxy may
    /// have already parked it, creating a stale pooled connection.
    SilentClose,
    /// Read the request, then close without writing a single byte — the
    /// pre-first-byte death a *fresh* connection can suffer (and the
    /// second death of the double-death scenario: a stale-socket retry
    /// whose replacement also dies).
    Reject,
    /// Serve keep-alive with a complete second response smuggled behind
    /// the declared body, in the same write: a body longer than declared.
    /// A client that reads the extra bytes as its next answer stores it
    /// under the wrong path.
    Overlong,
}

struct Gate {
    open: Mutex<bool>,
    /// Paths let through while the gate is closed
    /// ([`ScriptedOrigin::release`]); locked inside `open`.
    passed: Mutex<Vec<String>>,
    cv: Condvar,
}

struct Inner {
    clock: FakeClock,
    /// Per-path queues of scripted behaviors; when a queue runs dry the
    /// path falls back to [`Behavior::Serve`].
    scripts: Mutex<HashMap<String, Vec<Behavior>>>,
    fetches: Mutex<HashMap<String, u64>>,
    /// Requests currently being served (high-water mark in
    /// `max_in_flight`) — the overlap gauge concurrency scenarios
    /// assert against.
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    /// How many requests are currently parked behind the gate.
    held: AtomicU64,
    log: Mutex<Vec<String>>,
    gate: Gate,
    /// Live server-side sockets, for [`ScriptedOrigin::drop_connections`].
    conns: Mutex<Vec<TcpStream>>,
    accepted: AtomicU64,
    stop: Arc<AtomicBool>,
}

/// A scripted TCP origin. See the module docs.
pub struct ScriptedOrigin {
    addr: SocketAddr,
    inner: Arc<Inner>,
}

impl ScriptedOrigin {
    /// Starts the origin on an ephemeral localhost port.
    pub fn start(clock: FakeClock) -> ScriptedOrigin {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted origin");
        let addr = listener.local_addr().expect("local addr");
        let inner = Arc::new(Inner {
            clock,
            scripts: Mutex::new(HashMap::new()),
            fetches: Mutex::new(HashMap::new()),
            in_flight: AtomicU64::new(0),
            max_in_flight: AtomicU64::new(0),
            held: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            gate: Gate {
                open: Mutex::new(false),
                passed: Mutex::new(Vec::new()),
                cv: Condvar::new(),
            },
            conns: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            stop: Arc::new(AtomicBool::new(false)),
        });
        let accept_inner = Arc::clone(&inner);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_inner.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { break };
                accept_inner.accepted.fetch_add(1, Ordering::SeqCst);
                if let Ok(clone) = stream.try_clone() {
                    accept_inner.conns.lock().unwrap().push(clone);
                }
                let conn_inner = Arc::clone(&accept_inner);
                std::thread::spawn(move || serve_connection(stream, &conn_inner));
            }
        });
        ScriptedOrigin { addr, inner }
    }

    /// The origin's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scripts the next behaviors for `path` (consumed in order; the
    /// path serves normally once the script runs dry).
    pub fn script(&self, path: &str, behaviors: Vec<Behavior>) {
        self.inner
            .scripts
            .lock()
            .unwrap()
            .insert(path.to_owned(), behaviors);
    }

    /// Opens the [`Behavior::Hold`] gate, releasing every parked
    /// request; it stays open until [`ScriptedOrigin::close_gate`].
    pub fn release_all(&self) {
        *self.inner.gate.open.lock().unwrap() = true;
        self.inner.gate.cv.notify_all();
    }

    /// Lets the [`Behavior::Hold`] requests for `path` through, parked
    /// or yet to come, while every other path stays behind the gate.
    pub fn release(&self, path: &str) {
        let _open = self.inner.gate.open.lock().unwrap();
        self.inner.gate.passed.lock().unwrap().push(path.to_owned());
        self.inner.gate.cv.notify_all();
    }

    /// Closes the gate again, so later [`Behavior::Hold`] requests park
    /// (a scenario with a second held wave).
    pub fn close_gate(&self) {
        *self.inner.gate.open.lock().unwrap() = false;
    }

    /// How many requests are currently parked behind the gate.
    pub fn held(&self) -> u64 {
        self.inner.held.load(Ordering::SeqCst)
    }

    /// Blocks until at least `n` requests are parked behind the gate
    /// (5 s cap so a broken scenario fails loudly instead of hanging).
    pub fn wait_for_held(&self, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.held() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "gate never saw {n} held request(s); held = {}",
                self.held()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Origin fetches observed for `path`.
    pub fn fetches(&self, path: &str) -> u64 {
        self.inner
            .fetches
            .lock()
            .unwrap()
            .get(path)
            .copied()
            .unwrap_or(0)
    }

    /// Total connections the origin accepted.
    pub fn accepted(&self) -> u64 {
        self.inner.accepted.load(Ordering::SeqCst)
    }

    /// The most requests this origin ever served simultaneously — the
    /// proof (or refutation) that a client overlapped its requests.
    pub fn max_concurrent(&self) -> u64 {
        self.inner.max_in_flight.load(Ordering::SeqCst)
    }

    /// The ordered event log ("fetch /x #1", "die /x", …).
    pub fn log(&self) -> Vec<String> {
        self.inner.log.lock().unwrap().clone()
    }

    /// Forcibly drops every established connection (origin restart /
    /// idle-socket cull): pooled proxy sockets go stale.
    pub fn drop_connections(&self) {
        let mut conns = self.inner.conns.lock().unwrap();
        for conn in conns.drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for ScriptedOrigin {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.release_all();
        self.drop_connections();
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }
}

impl std::fmt::Debug for ScriptedOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedOrigin")
            .field("addr", &self.addr)
            .finish()
    }
}

/// One blocking connection loop on the origin side.
fn serve_connection(mut stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let mut buf = BytesMut::new();
    loop {
        let request = match read_request(&mut stream, &mut buf) {
            Ok(Some(request)) => request,
            Ok(None) | Err(_) => return, // peer done (or harness killed us)
        };
        let keep_going = serve_request(&mut stream, inner, &request);
        if !keep_going {
            return;
        }
    }
}

/// Handles one request; returns whether the connection continues.
fn serve_request(stream: &mut TcpStream, inner: &Inner, request: &Request) -> bool {
    let path = request.target().to_owned();
    if request.method() != &Method::Get {
        let resp = Response::builder(StatusCode::METHOD_NOT_ALLOWED).build();
        return write_response(stream, &resp).is_ok();
    }

    let fetch_no = {
        let mut fetches = inner.fetches.lock().unwrap();
        let n = fetches.entry(path.clone()).or_insert(0);
        *n += 1;
        *n
    };
    inner
        .log
        .lock()
        .unwrap()
        .push(format!("fetch {path} #{fetch_no}"));

    // Overlap gauge: count this request as in flight until the function
    // returns, whichever exit path it takes.
    struct InFlight<'a>(&'a AtomicU64);
    impl Drop for InFlight<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let now_in_flight = inner.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    inner
        .max_in_flight
        .fetch_max(now_in_flight, Ordering::SeqCst);
    let _in_flight = InFlight(&inner.in_flight);

    let behavior = {
        let mut scripts = inner.scripts.lock().unwrap();
        match scripts.get_mut(&path) {
            Some(queue) if !queue.is_empty() => queue.remove(0),
            _ => Behavior::Serve,
        }
    };

    if behavior == Behavior::Hold {
        inner.held.fetch_add(1, Ordering::SeqCst);
        let mut open = inner.gate.open.lock().unwrap();
        while !*open && !inner.gate.passed.lock().unwrap().contains(&path) {
            let (guard, timeout) = inner
                .gate
                .cv
                .wait_timeout(open, Duration::from_secs(10))
                .unwrap();
            open = guard;
            if timeout.timed_out() {
                break; // broken scenario; serve anyway so nothing hangs
            }
        }
        drop(open);
        inner.held.fetch_sub(1, Ordering::SeqCst);
        inner.log.lock().unwrap().push(format!("release {path}"));
    }

    if behavior == Behavior::Reject {
        inner.log.lock().unwrap().push(format!("reject {path}"));
        // No response bytes at all: an explicit shutdown delivers the
        // EOF even though the connection registry clones the socket.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }

    if behavior == Behavior::DieMidTransfer {
        inner.log.lock().unwrap().push(format!("die {path}"));
        // A plausible head, then far fewer body bytes than promised.
        let _ = stream.write_all(
            b"HTTP/1.1 200 OK\r\ncontent-length: 4096\r\nconnection: keep-alive\r\n\r\ntruncated",
        );
        let _ = stream.flush();
        // An explicit shutdown (not just a drop): the connection
        // registry holds a clone of this socket, so only a shutdown
        // actually delivers the EOF to the peer.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }

    let stamp = inner.clock.stamp_ms();
    let body = format!("path={path} stamp={stamp}\n");
    let mut builder = Response::ok()
        .header(X_LAST_MODIFIED_MS, stamp.to_string())
        .body(body.into_bytes());
    builder = match behavior {
        Behavior::CloseAdvertised => builder.connection_close(),
        _ => builder.keep_alive(),
    };

    // Conditional serving on the fake-clock timeline.
    let response = match validator_ms(request) {
        Some(v) if v.as_millis() >= stamp => Response::not_modified()
            .header(X_LAST_MODIFIED_MS, stamp.to_string())
            .keep_alive()
            .build(),
        _ => builder.build(),
    };
    if behavior == Behavior::Overlong {
        inner.log.lock().unwrap().push(format!("overlong {path}"));
        let mut wire = response.to_bytes();
        wire.extend_from_slice(
            format!("HTTP/1.1 200 OK\r\n{X_LAST_MODIFIED_MS}: {stamp}\r\ncontent-length: 5\r\n\r\nWRONG")
                .as_bytes(),
        );
        return stream.write_all(&wire).is_ok();
    }
    if write_response(stream, &response).is_err() {
        return false;
    }
    match behavior {
        Behavior::CloseAdvertised => {
            inner.log.lock().unwrap().push(format!("close {path}"));
            // See DieMidTransfer: shutdown, because a clone of the
            // socket lives in the connection registry.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            false
        }
        Behavior::SilentClose => {
            inner
                .log
                .lock()
                .unwrap()
                .push(format!("silent-close {path}"));
            let _ = stream.shutdown(std::net::Shutdown::Both);
            false
        }
        _ => true,
    }
}

/// Extracts the origin stamp from a proxied response (the harness
/// always sets the millisecond extension header).
pub fn stamp_of(response: &Response) -> u64 {
    response
        .headers()
        .get(X_LAST_MODIFIED_MS)
        .and_then(|v| v.trim().parse().ok())
        .expect("harness responses carry x-last-modified-ms")
}
