//! The readiness-driven connection engine shared by the live origin and
//! the live proxy.
//!
//! The engine runs **one reactor per core** by default
//! ([`default_reactors`]; [`EventLoop::start`] takes the count): each
//! reactor thread owns its own level-triggered epoll [`Poller`], its own
//! [`Waker`], its own connection slab, its own keep-alive origin
//! pool, its own [`Service`] instance — and its own
//! `SO_REUSEPORT` listener on the shared port, so the kernel
//! load-balances incoming connections across reactors with no shared
//! accept lock. Within a reactor every connection is a state machine
//! driven by readiness events — no thread per connection, no worker
//! pool:
//!
//! ```text
//!             ┌──────────────────────────────────────────────┐
//!             ▼                                              │ keep-alive /
//! accept ─▶ READING ──request parsed──▶ dispatch             │ pipelined next
//!             │                        │       │             │ request
//!             │ EOF / parse error      │       │ Upstream    │
//!             ▼                        ▼       ▼             │
//!           closed                 WRITING ◀─ AWAITING ──────┤
//!             ▲                        │      ORIGIN         │
//!             │                        │   (pooled keep-     │
//!             └────────peer gone───────┘    alive socket) ───┘
//! ```
//!
//! A client's side of that diagram is a `ClientConn`, and an origin
//! socket's is an `OriginConn`; neither holds a socket, and the reactor
//! moves bytes between them and the sockets. A parsed request is handed
//! to the reactor's own [`Service`] instance, which answers with a
//! [`Reply`] (*WRITING*) or by fetching from an upstream origin; state it
//! keeps per reactor is a plain field no other thread touches. Upstream
//! fetches go through the reactor's **keep-alive origin pool**
//! ([`crate::upstream`]): identical concurrent misses coalesce onto one
//! fetch (N waiters, one origin round trip), finished connections park
//! for reuse instead of closing, idle pooled sockets are reaped, and a
//! fetch on a pooled socket the origin silently closed is retried once
//! on a fresh one. The pool opens at most
//! [`crate::upstream::MAX_CONNS_PER_ORIGIN`] sockets per origin; further
//! fetches queue for the next free one. However a fetch ends, it ends in
//! one place: the job leaves the ledger, and if any client still waits,
//! [`Service::fetched`] turns the outcome into one [`Reply`] that every
//! waiter gets. `Connection: close` is honored in both directions
//! ([`mutcon_http::connection`]).
//!
//! A service may also fetch for itself: at every wake the reactor asks
//! it for [`Service::own_work`], submits what it starts as pool jobs the
//! service waits on, hands each outcome to [`Service::own_fetched`], and
//! sleeps no later than the instant the service names. Another thread
//! wakes a reactor early through its waker (`EventLoop::waker`). The
//! engine knows nothing of what the service schedules: the live proxy's
//! reactor 0 sends its refresh polls this way.
//!
//! A reactor reads the clock once per turn, when its wait returns: the
//! service, the activity stamps and every timer take that instant, so a
//! timer is a function of the reactor's state and `now`.
//!
//! *WRITING* goes through the zero-copy send path ([`crate::vectored`]):
//! every [`Reply`] is a head rendered once (a cache hit's at store time)
//! and a shared body; the head is copied into the connection's reusable
//! buffer and the body gathered behind it into one `writev(2)`, so no
//! body byte is copied.
//! A connection owns its read and write buffers from accept to close, and
//! the accept loop drains the whole backlog per listener wakeup with
//! std's `TcpListener::accept`, one metrics store per batch.
//! [`EngineMetrics`] counts the syscalls so the effect is observable
//! from `/admin/stats`.
//!
//! Concurrent-connection capacity is bounded by `MAX_CONNS`, split
//! evenly across reactors: a reactor at its share drops its listener's
//! readiness interest, parking further clients in the kernel backlog
//! until a slot frees. That is the engine's one overload policy, and it
//! is fixed: a client parked for `PARK_DEADLINE` is accepted, told
//! `503` with `Retry-After: 1` and closed. A shed
//! pass that empties the backlog watches the listener again, so the next
//! client to arrive at the bound parks with a deadline of its own and an
//! empty backlog costs no wake. On shutdown every reactor is woken and
//! drains: it stops accepting, finishes flushing in-flight responses
//! (bounded by a short grace period), then closes everything and joins.

use std::io;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use mutcon_http::headers::HeaderName;
use mutcon_http::message::{Request, Response};
use mutcon_http::types::StatusCode;
use mutcon_proxy::schedule::POLL_WIDTH;
use mutcon_sim::reactor::{
    connect_nonblocking, listen_reuseport, raise_nofile_limit, Event, Events, Interest, Poller,
    Waker,
};

use crate::conn::{discard_input, ClientConn, Next, OriginConn, Received};
use crate::metrics::{metrics, Cell, Counter, Gauge};
use crate::upstream::{JobId, PoolCore, Submit};
use crate::vectored::FlushStats;

/// Concurrent-connection bound of every event loop, split exactly across
/// its reactors. Sized for "hundreds of sockets through one process"
/// with headroom.
pub(crate) const MAX_CONNS: usize = 1024;

/// The capacity of the L1 `benchmark/` replays in its layer figures;
/// kept because `benchmark/` (read-only here) reads it. The proxy has
/// no L1: its one cache is the shared cache ([`crate::cache`]).
pub const DEFAULT_L1_OBJECTS: usize = 128;

/// The worker count `benchmark/` drives
/// [`crate::runtime::ConsistencyRuntime::run`] with; kept because
/// `benchmark/` (read-only here) reads it. It is the plane's width,
/// [`POLL_WIDTH`], so no worker waits for a slot. The live proxy runs no
/// poll workers: its polls are reactor 0's pooled fetches.
pub const DEFAULT_REFRESH_WORKERS: usize = POLL_WIDTH;

/// Ceiling on the reactor count — beyond this the listeners outnumber
/// any plausible load.
pub(crate) const MAX_REACTORS: usize = 64;

/// The default reactor count: one per available core, capped at
/// `MAX_REACTORS`.
pub fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_REACTORS)
}

/// Close client connections with no traffic for this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Fail upstream fetches that make no progress for this long (a miss's
/// and a refresh poll's alike).
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(5);
/// Reap pooled origin connections idle longer than this.
const POOL_IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll-loop tick when nothing else bounds the wait (idle sweeping,
/// shutdown responsiveness); a service's own next instant
/// ([`Service::own_work`]) and the park deadline shorten it.
const TICK: Duration = Duration::from_millis(200);
/// How long a shutting-down reactor keeps serving to flush in-flight
/// responses before closing everything.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// How long a client may wait parked in the kernel backlog of a reactor
/// at its connection bound before it is accepted, told `503` and closed.
pub(crate) const PARK_DEADLINE: Duration = Duration::from_secs(1);
/// What a client parked past [`PARK_DEADLINE`] is told before the close,
/// rendered once: `503` with `Retry-After: 1` (seconds).
const PARKED_503: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
    retry-after: 1\r\nconnection: close\r\ncontent-length: 0\r\n\r\n";
/// Most parked backlog connections drained with a `503` per deadline
/// pass (bounds the time the reactor spends off its event loop).
const PARK_SHED_BATCH: usize = 64;

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const TOKEN_BASE: usize = 2;

/// Splits `max_conns` connection slots exactly across `reactors` shards:
/// the first `max_conns % reactors` shards take one extra slot, so the
/// shares always sum to `max_conns` and never differ by more than one.
/// Callers must pass `1 <= reactors <= max_conns` (the constructor
/// passes [`MAX_CONNS`] and at most [`MAX_REACTORS`]); the audit tests
/// below pin the exactness over non-divisible combinations.
fn split_conns(max_conns: usize, reactors: usize) -> Vec<usize> {
    debug_assert!(reactors >= 1 && reactors <= max_conns);
    (0..reactors)
        .map(|i| max_conns / reactors + usize::from(i < max_conns % reactors))
        .collect()
}

/// A response a [`Service`] hands the engine to write: an answer to a
/// request, or the outcome of a fetch that every waiting client gets.
/// Its head is rendered once and its body is shared, so a clone per
/// waiter is two refcount bumps. The engine copies the head into the
/// connection's write buffer (~150 bytes) and gathers the body behind it
/// with `writev`; no body byte is copied.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status line + headers, ending after the last header's CRLF (no
    /// terminating blank line) and with no `Connection` header: the
    /// engine adds `connection: close\r\n` when the client asked for it.
    pub head: Bytes,
    /// Per-response header lines (e.g. `x-cache: hit\r\n`), appended
    /// after `head`.
    pub extra: &'static [u8],
    /// The shared body slice — cloned by refcount bump, never copied.
    pub body: Bytes,
}

/// Renders a response's head once. `Connection` is hop-by-hop (RFC 7230
/// §6.1): the engine decides it per client connection, so whatever the
/// response carried is dropped.
impl From<Response> for Reply {
    fn from(mut response: Response) -> Reply {
        response.headers_mut().remove(HeaderName::CONNECTION);
        Reply {
            head: Bytes::from(response.head_bytes()),
            extra: b"",
            body: response.body().clone(),
        }
    }
}

/// What a [`Service`] wants done with a parsed request.
#[derive(Debug)]
pub enum ServiceResult {
    /// Write this reply now.
    Reply(Reply),
    /// Fetch from an upstream server first; [`Service::fetched`] turns
    /// its response into the client's. The fetch goes through the
    /// reactor's keep-alive origin pool; identical concurrent fetches
    /// coalesce.
    Upstream {
        /// Upstream address (the origin).
        addr: SocketAddr,
        /// The serialized request to send upstream — also the key
        /// identical concurrent fetches coalesce on.
        request: Vec<u8>,
    },
}

/// Request handler plugged into an [`EventLoop`]. Each reactor owns one
/// instance, built for it by the constructor [`EventLoop::start`] takes,
/// and calls it from its own thread only: state a service keeps per
/// reactor is a plain field, with no lock. It must not block (upstream
/// I/O goes through [`ServiceResult::Upstream`]).
pub trait Service: Send + 'static {
    /// Handles one parsed request.
    fn respond(&mut self, request: &Request) -> ServiceResult;

    /// Turns the outcome of a [`ServiceResult::Upstream`] fetch, sent as
    /// `request`, into the reply for the clients waiting on it. Called
    /// once per finished fetch that still has waiters, however many
    /// misses coalesced onto it; each waiter gets a clone. The default
    /// relays the response, or a bare `500` if the fetch failed.
    fn fetched(&mut self, request: &[u8], result: io::Result<Response>) -> Reply {
        let _ = request;
        result
            .unwrap_or_else(|_| Response::builder(StatusCode::INTERNAL_SERVER_ERROR).build())
            .into()
    }

    /// Fetches the service starts for itself, not for a client. The
    /// reactor asks at every wake, including one its waker
    /// (`EventLoop::waker`) causes: each `start(addr, request)` becomes a
    /// job on the reactor's origin pool, with the service as its waiter
    /// (so it coalesces, queues at the per-origin cap and times out like a
    /// miss). The reactor sleeps no later than the instant returned. The
    /// default starts nothing.
    fn own_work(
        &mut self,
        now: Instant,
        start: &mut dyn FnMut(SocketAddr, Vec<u8>),
    ) -> Option<Instant> {
        let _ = (now, start);
        None
    }

    /// The outcome of a fetch [`Service::own_work`] started, sent as
    /// `request` and finished at `now`; called before
    /// [`Service::fetched`] when clients coalesced onto the same job.
    fn own_fetched(&mut self, request: &[u8], result: &io::Result<Response>, now: Instant) {
        let _ = (request, result, now);
    }
}

/// Who waits on an origin pool job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiter {
    /// A client connection, by slab index.
    Client(usize),
    /// The reactor's service ([`Service::own_work`]).
    Service,
}

metrics! {
    /// Lightweight always-on counters an event loop's reactors maintain, for
    /// the admin control plane (`GET /admin/stats`). The loop builds them
    /// and lends them to each [`Service`] it constructs. Per-reactor slots
    /// are sized at `MAX_REACTORS`, the most reactors a loop runs, so
    /// the struct's shape does not depend on the count; all cells are
    /// relaxed atomics — observability, not synchronization.
    pub struct EngineMetrics {
        /// Upstream fetches served on a parked keep-alive origin connection.
        pool_reuses: Counter => "origin_pool.reuses";
        /// Upstream fetches coalesced onto an identical in-flight fetch.
        pool_coalesced: Counter => "origin_pool.coalesced";
        /// Origin sockets opened across all reactors.
        pool_opened: Counter => "origin_pool.opened";
        /// Fetches requeued because a reused pooled socket died before the
        /// first response byte.
        pool_retries: Counter => "origin_pool.retries";
        /// Plain `write(2)` calls made flushing client responses.
        write_calls: Counter => "wire.write_calls";
        /// `writev(2)` calls made flushing client responses.
        writev_calls: Counter => "wire.writev_calls";
        /// Listener wakeups handled; each drains the whole accept backlog.
        accept_batches: Counter => "wire.accept_batches";
        /// Response bodies copied into a write buffer: none, since every
        /// body is sent as a shared slice, so it reads 0. Kept because
        /// `benchmark/` reads it.
        body_copies: Counter => "wire.body_copies";
        /// Buffers allocated for new connections: two per accepted client,
        /// one per opened origin socket. Kept because `benchmark/` reads it.
        buf_allocs: Counter => "wire.buf_allocs";
        /// `epoll_ctl` ADD + MOD issued, counted at the call: one ADD per
        /// socket, one MOD per change of a socket's interest, none per
        /// request.
        epoll_ctl_calls: Counter => "wire.epoll_ctl_calls";
        /// Flush passes that ended with the socket still unwritable: a
        /// stalled client holds only its own connection.
        write_stalls: Counter => "wire.write_stalls";
        /// Requests still incomplete `REQUEST_TIMEOUT` (5 s) after their
        /// first byte, answered `408` and closed.
        slow_requests: Counter => "wire.slow_requests";
        /// Parked backlog connections drained with `503`.
        parked_shed: Counter => "overload.parked_shed";
    }
    plus {
        /// How many reactors report.
        reactors: Gauge = Gauge::default(),
        /// Client connections currently open, per reactor.
        conns: Vec<Gauge> = (0..MAX_REACTORS).map(|_| Gauge::default()).collect(),
        /// Client connections ever accepted, per reactor.
        accepted: Vec<Counter> = (0..MAX_REACTORS).map(|_| Counter::default()).collect(),
    }
}

impl EngineMetrics {
    /// How many reactors report into these counters.
    pub fn reactor_count(&self) -> usize {
        self.reactors.value() as usize
    }

    /// Client connections currently open, one entry per reactor.
    pub fn reactor_connections(&self) -> Vec<usize> {
        self.conns[..self.reactor_count()]
            .iter()
            .map(|conns| conns.value() as usize)
            .collect()
    }

    /// Client connections ever accepted, one entry per reactor.
    pub(crate) fn reactor_accepted(&self) -> Vec<u64> {
        self.accepted[..self.reactor_count()]
            .iter()
            .map(Cell::value)
            .collect()
    }

    /// `"epoll"` once per reactor; kept because `benchmark/` (read-only
    /// here) prints it in its report header.
    pub fn reactor_backends(&self) -> Vec<&'static str> {
        vec!["epoll"; self.reactor_count()]
    }

    /// Always 0: the proxy sheds no request by path. Parked connections
    /// drained with `503` are [`EngineMetrics::parked_shed`]. Kept
    /// because `benchmark/` (read-only here) reads it.
    pub fn shed(&self) -> u64 {
        0
    }

    /// Always 0: the proxy has no L1, so no request is an L1 hit. Kept
    /// because `benchmark/` (read-only here) reads it.
    pub fn l1_hits(&self) -> u64 {
        0
    }

    /// Always 0: the proxy has no L1 copy to reject. Kept because
    /// `benchmark/` (read-only here) reads it.
    pub fn l1_stale_rejects(&self) -> u64 {
        0
    }

    /// Always 0: the proxy has no L1 to refill. Kept because
    /// `benchmark/` (read-only here) reads it.
    pub fn l1_refills(&self) -> u64 {
        0
    }
}

struct ReactorHandle {
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

/// A running event loop: N reactor threads behind one shared port.
/// Shuts down gracefully (waking, draining and joining every reactor)
/// on drop.
pub struct EventLoop {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactors: Vec<ReactorHandle>,
    metrics: Arc<EngineMetrics>,
}

impl EventLoop {
    /// Binds localhost listeners on a shared ephemeral port, one per
    /// reactor, and starts `reactors` reactor threads (clamped to
    /// `1..=MAX_REACTORS`; [`default_reactors`] is one per core).
    /// `new_service(i, metrics)` is called once per reactor, in reactor
    /// order (reactor 0's instance first), with the loop's counters; each
    /// reactor owns the instance it gets.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll setup failures.
    pub fn start(
        name: &str,
        reactors: usize,
        mut new_service: impl FnMut(usize, &Arc<EngineMetrics>) -> Box<dyn Service>,
    ) -> io::Result<EventLoop> {
        // Lift the soft fd limit to the hard one once per process: a loop
        // at its bound holds more sockets than the usual 1024 default.
        static RAISE_NOFILE: Once = Once::new();
        RAISE_NOFILE.call_once(|| match raise_nofile_limit() {
            Ok((before, after)) if after > before => {
                eprintln!("mutcon-live: raised RLIMIT_NOFILE {before} -> {after}");
            }
            Ok(_) => {}
            Err(err) => eprintln!("mutcon-live: could not raise RLIMIT_NOFILE: {err}"),
        });
        let reactors = reactors.clamp(1, MAX_REACTORS);
        // The first listener picks the ephemeral port; its SO_REUSEPORT
        // siblings join it, one per reactor.
        let first = listen_reuseport(SocketAddr::from(([127, 0, 0, 1], 0)))?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(listen_reuseport(addr)?);
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(EngineMetrics::default());
        metrics.reactors.set(reactors as u64);
        let mut handles = Vec::with_capacity(reactors);
        // Each shard enforces its share on its own, since the kernel's
        // SO_REUSEPORT balancing ignores occupancy.
        let shares = split_conns(MAX_CONNS, reactors);
        for (i, listener) in listeners.into_iter().enumerate() {
            let reactor = Reactor {
                poller: Poller::new()?,
                waker: Waker::new()?,
                listener,
                service: new_service(i, &metrics),
                shutdown: Arc::clone(&shutdown),
                max_conns: shares[i],
                conns: Vec::new(),
                free: Vec::new(),
                clients: 0,
                freed_this_batch: Vec::new(),
                pool: PoolCore::default(),
                scratch: vec![0; 16 * 1024],
                driving: None,
                metrics: Arc::clone(&metrics),
                reactor_index: i,
                paused_since: None,
            };
            reactor.register(reactor.waker.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
            reactor.register(
                reactor.listener.as_raw_fd(),
                TOKEN_LISTENER,
                Interest::READABLE,
            )?;
            let waker = reactor.waker.clone();
            let thread = std::thread::Builder::new()
                .name(format!("{name}-r{i}"))
                .spawn(move || reactor.run())?;
            handles.push(ReactorHandle {
                waker,
                thread: Some(thread),
            });
        }
        Ok(EventLoop {
            addr,
            shutdown,
            reactors: handles,
            metrics,
        })
    }

    /// The shared listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many reactor threads serve this loop.
    pub fn reactor_count(&self) -> usize {
        self.reactors.len()
    }

    /// A handle that interrupts reactor `i`'s wait, so that it asks its
    /// service for [`Service::own_work`] at once.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`EventLoop::reactor_count`].
    pub(crate) fn waker(&self, i: usize) -> Waker {
        self.reactors[i].waker.clone()
    }

    /// The loop's always-on counters, the ones each service was built
    /// with.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for handle in &self.reactors {
            handle.waker.wake();
        }
        for handle in &mut self.reactors {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("addr", &self.addr)
            .field("reactors", &self.reactors.len())
            .finish()
    }
}

/// A connection to an upstream origin, owned by the reactor's pool.
struct UpstreamState {
    /// The origin this connection belongs to.
    addr: SocketAddr,
    /// The pool job being fetched, or `None` while parked idle. Its
    /// request bytes live in the job.
    job: Option<JobId>,
    connected: bool,
    /// The exchange on the socket: what is written, read and parsed.
    http: OriginConn,
}

enum Kind {
    Client(ClientConn),
    Upstream(UpstreamState),
}

struct Conn {
    stream: TcpStream,
    /// The interest the kernel holds for the socket.
    interest: Interest,
    last_activity: Instant,
    kind: Kind,
}

struct Reactor {
    /// The reactor's epoll instance. Every `epoll_ctl` goes through
    /// [`Reactor::register`], [`Reactor::set_interest`] or
    /// [`Reactor::listener_interest`], which count it at the call.
    poller: Poller,
    /// Interrupts the wait for shutdown; its clone is the loop's handle.
    waker: Waker,
    listener: TcpListener,
    service: Box<dyn Service>,
    shutdown: Arc<AtomicBool>,
    max_conns: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Client connections currently open (upstream sockets don't count
    /// against the accept bound).
    clients: usize,
    /// Slots freed while processing the current event batch. Reuse is
    /// deferred to the end of the batch so a stale event queued for a
    /// closed connection's token can never be applied to a new
    /// connection occupying the same slot (it finds `None` instead).
    freed_this_batch: Vec<usize>,
    /// The keep-alive origin pool ledger (see [`crate::upstream`]).
    pool: PoolCore<Waiter>,
    /// Where every socket read lands first: zeroed once, not per event.
    scratch: Vec<u8>,
    /// The client currently inside `drive_client`, if any. Completions
    /// delivered to it are queued, not recursively resumed — the active
    /// drive loop picks them up, keeping pipelined bursts iterative.
    driving: Option<usize>,
    /// Shared observability counters (see [`EngineMetrics`]).
    metrics: Arc<EngineMetrics>,
    /// This reactor's slot in the per-reactor metric arrays.
    reactor_index: usize,
    /// When `pause_accepting` parked the listener, or when the last shed
    /// pass left clients parked; [`PARK_DEADLINE`] later the backlog is
    /// drained with `503`s instead of making parked clients wait forever.
    /// `None` exactly while the kernel holds the listener's `READABLE`
    /// interest ([`Reactor::accepting`]).
    paused_since: Option<Instant>,
}

/// An accept error that concerns one connection, not the listener: a
/// signal, or a peer that reset before it was accepted. The next accept
/// may succeed at once.
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
    )
}

/// Reads what `stream` (a nonblocking socket) has into `buf` through
/// `scratch`, at most `limit` bytes in all. Stops at a short read, which
/// drained the socket (the level-triggered poller raises a new event for
/// more data or EOF), or at `WouldBlock`; `Ok(true)` if the peer sent EOF.
fn read_into(
    mut stream: impl Read,
    scratch: &mut [u8],
    buf: &mut BytesMut,
    limit: usize,
) -> io::Result<bool> {
    let mut room = limit;
    while room > 0 {
        let len = room.min(scratch.len());
        let chunk = &mut scratch[..len];
        match stream.read(chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                room -= n;
                if n < chunk.len() {
                    break;
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// How long a reactor that turned at `now` may wait: until the service's
/// `due` or the parked backlog's shed, whichever comes first, and never
/// longer than [`TICK`].
fn wait_timeout(now: Instant, due: Option<Instant>, shed_at: Option<Instant>) -> Duration {
    due.into_iter()
        .chain(shed_at)
        .map(|at| at.saturating_duration_since(now))
        .fold(TICK, Duration::min)
}

impl Reactor {
    /// Serves until shutdown, then drains; reads the clock once per turn.
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        // The first wait returns at once, so the service is asked for its
        // own work before the reactor first sleeps.
        let mut timeout = Duration::ZERO;
        let mut last_sweep = None;
        while !self.shutdown.load(Ordering::SeqCst) {
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            let now = Instant::now();
            timeout = self.turn(&events, now, last_sweep.get_or_insert(now));
        }
        self.drain(&mut events);
        // Dropping the slab closes every socket.
    }

    /// One loop turn at `now`: applies the event batch, sheds the parked
    /// backlog past its deadline, sweeps if a second of `now` has passed
    /// since `last_sweep`, and asks the service for its own work. Returns
    /// how long the next wait may last.
    fn turn(&mut self, events: &Events, now: Instant, last_sweep: &mut Instant) -> Duration {
        self.dispatch(events, now);
        self.check_park_deadline(now);
        if now.duration_since(*last_sweep) >= Duration::from_secs(1) {
            self.sweep_idle(now);
            *last_sweep = now;
        }
        // Last, so that what ended above (a completion, a timeout) is
        // in the service's next instant.
        let due = self.own_work(now);
        wait_timeout(now, due, self.shed_at())
    }

    /// Applies one event batch at `now`.
    fn dispatch(&mut self, events: &Events, now: Instant) {
        for event in events.iter() {
            match event.token {
                TOKEN_LISTENER => self.accept_ready(now),
                TOKEN_WAKER => self.waker.drain(),
                token => self.conn_event(token - TOKEN_BASE, event, now),
            }
        }
        // Freed slots become reusable only once every event of the
        // batch has been applied (see `freed_this_batch`).
        self.free.append(&mut self.freed_this_batch);
    }

    /// Submits the fetches the service starts itself and pumps their
    /// origins; returns the instant the service next wants asking. Asks
    /// again after a pump, which may have ended a fetch (a connect that
    /// failed at once) and so moved that instant.
    fn own_work(&mut self, now: Instant) -> Option<Instant> {
        loop {
            let (pool, metrics) = (&mut self.pool, &self.metrics);
            let mut origins: Vec<SocketAddr> = Vec::new();
            let due = self
                .service
                .own_work(now, &mut |addr, request| match pool.submit(
                    addr,
                    request,
                    Waiter::Service,
                ) {
                    Submit::Coalesced(_) => metrics.pool_coalesced.inc(),
                    Submit::New(_) if !origins.contains(&addr) => origins.push(addr),
                    Submit::New(_) => {}
                });
            if origins.is_empty() {
                return due;
            }
            for addr in origins {
                self.pump_origin(addr, now);
            }
        }
    }

    /// Graceful-shutdown tail: stop accepting, keep serving until every
    /// in-flight response is flushed or the grace period lapses.
    fn drain(&mut self, events: &mut Events) {
        let mut now = Instant::now();
        self.pause_accepting(now);
        let deadline = now + DRAIN_GRACE;
        while self.has_inflight() && now < deadline {
            let timeout = (deadline - now).min(Duration::from_millis(10));
            if self.poller.wait(events, Some(timeout)).is_err() {
                break;
            }
            now = Instant::now();
            self.dispatch(events, now);
        }
    }

    /// Whether any connection still owes work (unflushed response bytes
    /// or an upstream fetch in flight).
    fn has_inflight(&self) -> bool {
        self.conns.iter().flatten().any(|conn| match &conn.kind {
            Kind::Client(client) => client.in_flight(),
            Kind::Upstream(up) => up.job.is_some(),
        })
    }

    /// Adds `fd` to the poller under `token`: one counted
    /// `epoll_ctl(ADD)`.
    fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.poller.register(fd, token, interest)?;
        self.metrics.epoll_ctl_calls.inc();
        Ok(())
    }

    /// Takes a free slab slot for `stream` and registers the socket under
    /// the slot's token; if that fails the slot goes straight back. No
    /// `EPOLL_CTL_DEL` ever follows: closing the socket in
    /// [`Reactor::release_slot`] is what removes the registration.
    fn register_slot(&mut self, stream: &TcpStream, interest: Interest) -> io::Result<usize> {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let registered = self.register(stream.as_raw_fd(), idx + TOKEN_BASE, interest);
        if registered.is_err() {
            self.free.push(idx);
        }
        registered.map(|()| idx)
    }

    /// Moves connection `idx`'s kernel interest to `interest`: one counted
    /// `epoll_ctl(MOD)` when it differs from what the kernel holds,
    /// nothing when it does not. The caller handles a failure.
    fn set_interest(&mut self, idx: usize, interest: Interest) -> io::Result<()> {
        let Some(conn) = self.conns[idx].as_mut() else {
            return Ok(());
        };
        if conn.interest == interest {
            return Ok(());
        }
        self.poller
            .modify(conn.stream.as_raw_fd(), idx + TOKEN_BASE, interest)?;
        conn.interest = interest;
        self.metrics.epoll_ctl_calls.inc();
        Ok(())
    }

    /// Moves the listener's kernel interest: one counted
    /// `epoll_ctl(MOD)`. `false` if it failed, so `paused_since` (which
    /// records what the kernel holds) stays as it was and the next pause
    /// or resume tries again.
    fn listener_interest(&self, interest: Interest) -> bool {
        let fd = self.listener.as_raw_fd();
        let modified = self.poller.modify(fd, TOKEN_LISTENER, interest).is_ok();
        if modified {
            self.metrics.epoll_ctl_calls.inc();
        }
        modified
    }

    /// Whether the listener is watched: not paused at the bound.
    fn accepting(&self) -> bool {
        self.paused_since.is_none()
    }

    fn pause_accepting(&mut self, now: Instant) {
        if self.accepting() && self.listener_interest(Interest::NONE) {
            self.paused_since = Some(now);
        }
    }

    fn resume_accepting(&mut self) {
        if !self.accepting()
            && self.clients < self.max_conns
            && self.listener_interest(Interest::READABLE)
        {
            self.paused_since = None;
        }
    }

    /// Accepts one connection from the backlog and makes it nonblocking;
    /// `WouldBlock` once the backlog is empty.
    fn accept(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Drains the whole accept backlog in one batch. Each connection is
    /// made nonblocking and gets its own read and write buffers; shared
    /// metrics are stored once per batch, not once per connection, and
    /// the listener's epoll interest is only touched when the batch hits
    /// the connection bound (a failed pause is retried at the next
    /// wakeup). An accept that fails for want of a resource (`EMFILE`,
    /// `ENFILE`, `ENOBUFS`, …) is that bound too: the level-triggered
    /// listener would otherwise wake every wait at once with the backlog
    /// still there, so it pauses, and the parked clients get their
    /// [`PARK_DEADLINE`] as at the bound.
    fn accept_ready(&mut self, now: Instant) {
        let mut batch: u64 = 0;
        while self.accepting() {
            if self.clients >= self.max_conns {
                self.pause_accepting(now);
                break;
            }
            match self.accept() {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let Ok(idx) = self.register_slot(&stream, Interest::READABLE) else {
                        continue;
                    };
                    self.conns[idx] = Some(Conn {
                        stream,
                        interest: Interest::READABLE,
                        last_activity: now,
                        kind: Kind::Client(ClientConn::default()),
                    });
                    self.clients += 1;
                    batch += 1;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if is_transient_accept_error(e) => continue,
                Err(_) => {
                    self.pause_accepting(now);
                    break;
                }
            }
        }
        if batch > 0 {
            self.metrics.conns[self.reactor_index].set(self.clients as u64);
            self.metrics.accepted[self.reactor_index].add(batch);
            self.metrics.accept_batches.inc();
            self.metrics.buf_allocs.add(2 * batch);
        }
    }

    fn conn_event(&mut self, idx: usize, event: Event, now: Instant) {
        let Some(conn) = self.conns.get(idx).and_then(Option::as_ref) else {
            return; // closed earlier in this event batch
        };
        // A client socket's interest is READABLE or WRITABLE, never both.
        match &conn.kind {
            Kind::Client(_) if event.closed => self.close_client(idx),
            Kind::Client(_) if event.readable => self.client_readable(idx, now),
            Kind::Client(_) if event.writable => self.resume_client(idx, now),
            Kind::Client(_) => {}
            Kind::Upstream(_) if event.closed => {
                let hung_up = || io::Error::new(io::ErrorKind::BrokenPipe, "origin hung up");
                let err = conn
                    .stream
                    .take_error()
                    .ok()
                    .flatten()
                    .unwrap_or_else(hung_up);
                self.upstream_broken(idx, err, now);
            }
            Kind::Upstream(_) => {
                if event.writable {
                    self.upstream_writable(idx, now);
                }
                if event.readable {
                    self.upstream_readable(idx, now);
                }
            }
        }
    }

    /// Drains the socket into the client's read buffer, then drives the
    /// request/response state machine.
    fn client_readable(&mut self, idx: usize, now: Instant) {
        let Some(Conn {
            stream,
            last_activity,
            kind: Kind::Client(client),
            ..
        }) = self.conns[idx].as_mut()
        else {
            return;
        };
        let scratch = &mut self.scratch;
        if client
            .fill(|buf, room| read_into(stream, scratch, buf, room))
            .is_err()
        {
            self.close_client(idx);
            return;
        }
        *last_activity = now;
        self.resume_client(idx, now);
    }

    /// The connection's resume sequence after any progress: drive it to
    /// quiescence, then close it if nothing is left to serve or move the
    /// epoll interest to what it now wants. Every event/completion path
    /// funnels through here.
    fn resume_client(&mut self, idx: usize, now: Instant) {
        if !self.drive_client(idx, now) {
            return;
        }
        let Some(Conn {
            kind: Kind::Client(client),
            ..
        }) = &self.conns[idx]
        else {
            return;
        };
        let interest = client.interest();
        if client.is_finished() || self.set_interest(idx, interest).is_err() {
            self.close_client(idx);
        }
    }

    /// Flushes whatever response is pending, then parses and dispatches
    /// buffered requests while the connection has none in flight, flushing
    /// each reply. Returns `false` if the connection was closed. Wraps the
    /// loop with the `driving` marker so completions for *this* client
    /// queue instead of recursing (a pipelined burst of synchronously
    /// failing misses must not nest one stack frame per request).
    fn drive_client(&mut self, idx: usize, now: Instant) -> bool {
        let prev = self.driving.replace(idx);
        let alive = self.drive_client_inner(idx, now);
        self.driving = prev;
        alive
    }

    fn drive_client_inner(&mut self, idx: usize, now: Instant) -> bool {
        loop {
            if !self.flush_client(idx, now) {
                return false;
            }
            let Some(Conn {
                stream,
                kind: Kind::Client(client),
                ..
            }) = self.conns[idx].as_mut()
            else {
                return false;
            };
            let request = match client.next_request(now) {
                Next::Request(request) => request,
                Next::Busy | Next::Incomplete => return true,
                Next::TooLarge => {
                    discard_input(stream);
                    client.refuse(StatusCode::PAYLOAD_TOO_LARGE);
                    continue;
                }
                Next::Malformed => {
                    self.close_client(idx);
                    return false;
                }
            };
            match self.service.respond(&request) {
                ServiceResult::Reply(reply) => client.queue(reply),
                // The fetch's completion resumes the connection. One that
                // concludes within this call (a connect failure, or a
                // coalesced job finishing) has only queued its reply, which
                // the next turn flushes.
                ServiceResult::Upstream { addr, request } => {
                    let submitted = self.pool.submit(addr, request, Waiter::Client(idx));
                    client.await_fetch(submitted.job());
                    match submitted {
                        Submit::Coalesced(_) => self.metrics.pool_coalesced.inc(),
                        Submit::New(_) => self.pump_origin(addr, now),
                    }
                }
            }
        }
    }

    /// Writes as much of the client's queued response as the socket
    /// accepts and merges the flush's syscall tallies into the shared
    /// metrics. Returns `false` if the connection was closed.
    fn flush_client(&mut self, idx: usize, now: Instant) -> bool {
        let Some(Conn {
            stream,
            last_activity,
            kind: Kind::Client(client),
            ..
        }) = self.conns[idx].as_mut()
        else {
            return false;
        };
        let mut stats = FlushStats::default();
        let flushed = client.flush(stream, &mut stats);
        self.metrics.write_calls.add(stats.write_calls);
        self.metrics.writev_calls.add(stats.writev_calls);
        self.metrics.write_stalls.add(stats.blocked);
        let Ok(done) = flushed else {
            self.close_client(idx);
            return false;
        };
        if done {
            *last_activity = now;
        }
        true
    }

    /// Starts queued fetches for `addr` on whatever capacity exists:
    /// parked keep-alive connections first, then fresh sockets up to the
    /// per-origin cap. Jobs beyond capacity stay queued; completions
    /// call back here.
    fn pump_origin(&mut self, addr: SocketAddr, now: Instant) {
        while let Some(job) = self.pool.front_queued(addr) {
            if let Some(conn_idx) = self.pool.claim_idle(addr) {
                self.metrics.pool_reuses.inc();
                self.pool.pop_queued(addr);
                self.pool.assign(job, conn_idx);
                if let Some(Conn {
                    last_activity,
                    kind: Kind::Upstream(up),
                    ..
                }) = self.conns[conn_idx].as_mut()
                {
                    up.job = Some(job);
                    *last_activity = now;
                }
                // The parked socket is almost certainly writable: push
                // the request now instead of waiting for a poll round.
                self.upstream_writable(conn_idx, now);
            } else if self.pool.can_open(addr) {
                self.pool.pop_queued(addr);
                if let Err(e) = self.open_upstream(addr, job, now) {
                    self.finish_fetch(job, Err(e), now);
                }
            } else {
                break; // at the per-origin cap; completions re-pump
            }
        }
    }

    /// Opens a fresh origin connection to fetch `job`; the nonblocking
    /// connect concludes via `EPOLLOUT`.
    fn open_upstream(&mut self, addr: SocketAddr, job: JobId, now: Instant) -> io::Result<()> {
        let stream = connect_nonblocking(addr)?;
        let idx = self.register_slot(&stream, Interest::WRITABLE)?;
        self.metrics.buf_allocs.inc();
        self.conns[idx] = Some(Conn {
            stream,
            interest: Interest::WRITABLE,
            last_activity: now,
            kind: Kind::Upstream(UpstreamState {
                addr,
                job: Some(job),
                connected: false,
                http: OriginConn::default(),
            }),
        });
        self.pool.assign(job, idx);
        self.pool.note_opened(addr);
        self.metrics.pool_opened.inc();
        Ok(())
    }

    fn upstream_writable(&mut self, idx: usize, now: Instant) {
        // Split borrows: the connection lives in `conns`, its request
        // bytes in the pool's job.
        let (conns, pool) = (&mut self.conns, &self.pool);
        let Some(conn) = conns[idx].as_mut() else {
            return;
        };
        let Kind::Upstream(up) = &mut conn.kind else {
            return;
        };
        if !up.connected {
            // Writability concludes the nonblocking connect; SO_ERROR
            // says how it went.
            match conn.stream.take_error() {
                Ok(None) => up.connected = true,
                Ok(Some(e)) | Err(e) => {
                    self.upstream_broken(idx, e, now);
                    return;
                }
            }
        }
        // Parked idle: nothing to write.
        let Some(request) = up.job.and_then(|job| pool.job(job)) else {
            return;
        };
        let interest = match up
            .http
            .send(&request.request, |bytes| (&conn.stream).write(bytes))
        {
            Ok(true) => {
                conn.last_activity = now;
                Interest::READABLE
            }
            // Partial write: wait for writability.
            Ok(false) => Interest::WRITABLE,
            Err(err) => {
                self.upstream_broken(idx, err, now);
                return;
            }
        };
        if let Err(err) = self.set_interest(idx, interest) {
            self.upstream_broken(idx, err, now);
        }
    }

    fn upstream_readable(&mut self, idx: usize, now: Instant) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let Kind::Upstream(up) = &mut conn.kind else {
            return;
        };
        let Some(job) = up.job else {
            // A parked idle connection turned readable: the origin
            // closed it (EOF) or sent nonsense — either way the socket
            // is useless; reap it before a job can be assigned to it.
            let err = io::Error::new(io::ErrorKind::BrokenPipe, "pooled origin socket closed");
            self.upstream_broken(idx, err, now);
            return;
        };
        let scratch = &mut self.scratch;
        if let Err(err) = up
            .http
            .fill(|buf, room| read_into(&conn.stream, scratch, buf, room))
        {
            self.upstream_broken(idx, err, now);
            return;
        }
        conn.last_activity = now;
        match up.http.response() {
            Received::Pending => {}
            Received::Failed(err) => self.upstream_broken(idx, err, now),
            Received::Done { response, reusable } => {
                let addr = up.addr;
                up.job = None;
                if reusable {
                    // Park for the next fetch to this origin. The socket
                    // is still READABLE from the request write, so the
                    // origin closing it wakes the reactor.
                    self.pool.release_idle(addr, idx, now);
                } else {
                    self.release_slot(idx);
                }
                self.finish_fetch(job, Ok(response), now);
                self.pump_origin(addr, now);
            }
        }
    }

    /// Tears down an upstream connection that can no longer serve. A job
    /// whose socket was stale ([`OriginConn::stale`]: reused, no response
    /// byte, not a timeout) is retried once on a fresh socket; everything
    /// else fails the job to its waiters.
    fn upstream_broken(&mut self, idx: usize, err: io::Error, now: Instant) {
        let Some(Conn {
            kind: Kind::Upstream(up),
            ..
        }) = self.conns[idx].as_ref()
        else {
            return;
        };
        let (addr, job, stale) = (up.addr, up.job, up.http.stale(&err));
        // Closes the socket before any retry connects.
        self.release_slot(idx);
        match job {
            // Died while parked: just forget it.
            None => {
                self.pool.forget_idle(idx);
            }
            Some(job) if stale && self.pool.retry_eligible(job) => {
                // The retry's own completion ends the job.
                self.metrics.pool_retries.inc();
                self.pool.requeue_for_retry(job);
            }
            Some(job) => self.finish_fetch(job, Err(err), now),
        }
        self.pump_origin(addr, now);
    }

    /// The one way a fetch ends, whatever ended it, at `now`: the job
    /// leaves the ledger. If the service waits on it,
    /// [`Service::own_fetched`] sees the outcome first; if clients still
    /// wait, [`Service::fetched`] makes one reply, which every client gets
    /// in arrival order (all but the last a clone).
    fn finish_fetch(&mut self, job: JobId, result: io::Result<Response>, now: Instant) {
        let Some(mut job) = self.pool.complete(job) else {
            return;
        };
        let waiters = job.waiters.len();
        job.waiters.retain(|&waiter| waiter != Waiter::Service);
        if job.waiters.len() < waiters {
            self.service.own_fetched(&job.request, &result, now);
        }
        let Some((&last, rest)) = job.waiters.split_last() else {
            return;
        };
        let reply = self.service.fetched(&job.request, result);
        for &client in rest {
            self.complete_client(client, reply.clone(), now);
        }
        self.complete_client(last, reply, now);
    }

    /// Takes connection `idx` out of the slab (an upstream socket also
    /// leaves its origin's open count) and defers the slot's reuse to the
    /// end of the event batch. The socket closes, leaving the poller, and
    /// its buffers are freed when the caller drops what is returned.
    fn release_slot(&mut self, idx: usize) -> Option<Conn> {
        let conn = self.conns[idx].take()?;
        self.freed_this_batch.push(idx);
        if let Kind::Upstream(up) = &conn.kind {
            self.pool.note_closed(up.addr);
        }
        Some(conn)
    }

    /// Delivers an asynchronously produced reply (upstream completion)
    /// to a client and resumes the connection — unless that client is
    /// the one currently being driven, in which case the reply is only
    /// queued and the active drive loop flushes it (keeping pipelined
    /// bursts iterative instead of recursive).
    fn complete_client(&mut self, waiter: Waiter, reply: Reply, now: Instant) {
        let Waiter::Client(idx) = waiter else { return };
        let Some(Conn {
            kind: Kind::Client(client),
            ..
        }) = self.conns[idx].as_mut()
        else {
            return; // client gone; drop the reply
        };
        client.queue(reply);
        if self.driving != Some(idx) {
            self.resume_client(idx, now);
        }
    }

    /// Closes connections that have made no progress in a long time,
    /// refuses requests still incomplete at their deadline, and reaps
    /// long-idle pooled origin sockets, as of `now`.
    fn sweep_idle(&mut self, now: Instant) {
        // By index: acting on one connection may close or open others.
        for idx in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[idx] else {
                continue;
            };
            let idle = now.duration_since(conn.last_activity);
            match &mut conn.kind {
                Kind::Client(_) if idle > IDLE_TIMEOUT => self.close_client(idx),
                Kind::Client(client) if client.overdue(now) => {
                    self.metrics.slow_requests.inc();
                    discard_input(&conn.stream);
                    client.refuse(StatusCode::REQUEST_TIMEOUT);
                    self.resume_client(idx, now);
                }
                Kind::Upstream(up) if up.job.is_some() && idle > UPSTREAM_TIMEOUT => {
                    // A timeout is a slow origin, not a stale socket: fail
                    // the job outright rather than burning the retry.
                    let err = io::Error::new(io::ErrorKind::TimedOut, "origin fetch timed out");
                    self.upstream_broken(idx, err, now);
                }
                Kind::Client(_) | Kind::Upstream(_) => {}
            }
        }
        // Pooled idle sockets past their keep time.
        for (idx, _) in self.pool.reap_idle(now, POOL_IDLE_TIMEOUT) {
            self.release_slot(idx);
        }
    }

    /// Closes a client connection, detaching it from any fetch it waits
    /// on.
    fn close_client(&mut self, idx: usize) {
        let Some(Conn {
            kind: Kind::Client(client),
            ..
        }) = self.release_slot(idx)
        else {
            return;
        };
        self.clients -= 1;
        self.metrics.conns[self.reactor_index].set(self.clients as u64);
        if let Some(job) = client.close() {
            // The last waiter leaving a queued fetch cancels it; a fetch
            // already on a connection finishes and parks, unread.
            self.pool
                .leave(job, |&waiter| waiter == Waiter::Client(idx));
        }
        self.resume_accepting();
    }

    /// When the parked backlog is next shed: [`PARK_DEADLINE`] after
    /// accepting paused at the connection bound, or after a shed pass
    /// that left clients parked; `None` while accepting.
    fn shed_at(&self) -> Option<Instant> {
        self.paused_since.map(|since| since + PARK_DEADLINE)
    }

    /// Gives parked backlog clients a deadline: once [`Reactor::shed_at`]
    /// has come, drain a batch of parked connections with a static `503`
    /// and a close instead of letting them wait forever. A pass that
    /// empties the backlog watches the listener again: the next client to
    /// arrive at the bound pauses it anew ([`Reactor::accept_ready`]) and
    /// is shed [`PARK_DEADLINE`] after its own arrival, and an empty
    /// backlog costs no wake.
    fn check_park_deadline(&mut self, now: Instant) {
        if self.shed_at().is_some_and(|at| now >= at) {
            if self.shed_backlog() && self.listener_interest(Interest::READABLE) {
                self.paused_since = None;
            } else {
                self.paused_since = Some(now);
            }
        }
    }

    /// Accepts and immediately rejects up to [`PARK_SHED_BATCH`] parked
    /// connections with [`PARKED_503`]; `true` if that emptied the
    /// backlog.
    fn shed_backlog(&mut self) -> bool {
        let mut shed = 0;
        loop {
            if shed == PARK_SHED_BATCH {
                break false;
            }
            match self.accept() {
                Ok(stream) => {
                    // Best effort: the head fits any fresh socket's send
                    // buffer; a peer that raced away just gets the close.
                    let _ = (&stream).write(PARKED_503);
                    discard_input(&stream);
                    shed += 1;
                    // Counted before the close, so a client that has read
                    // the EOF finds its shed in the count.
                    self.metrics.parked_shed.add(1);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                Err(ref e) if is_transient_accept_error(e) => {}
                Err(_) => break false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_request, read_response, write_request};
    use mutcon_http::types::{Method, StatusCode};
    use std::io::{Read, Write};

    struct Echo;
    impl Service for Echo {
        fn respond(&mut self, request: &Request) -> ServiceResult {
            ServiceResult::Reply(
                match request.method() {
                    Method::Get => Response::ok()
                        .body(request.target().as_bytes().to_vec())
                        .build(),
                    _ => Response::builder(StatusCode::METHOD_NOT_ALLOWED).build(),
                }
                .into(),
            )
        }
    }

    fn echo(_: usize, _: &Arc<EngineMetrics>) -> Box<dyn Service> {
        Box::new(Echo)
    }

    fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        write_request(&mut stream, &Request::get(path).build())?;
        let mut buf = BytesMut::new();
        read_response(&mut stream, &mut buf)
    }

    #[test]
    fn serves_requests_and_keep_alive() {
        let server = EventLoop::start("test-echo", default_reactors(), echo).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = BytesMut::new();
        for i in 0..3 {
            let path = format!("/ping/{i}");
            write_request(&mut stream, &Request::get(&path).build()).unwrap();
            let resp = read_response(&mut stream, &mut buf).unwrap();
            assert_eq!(resp.status(), StatusCode::OK);
            assert_eq!(&resp.body()[..], path.as_bytes());
        }
    }

    #[test]
    fn serves_pipelined_requests_in_order() {
        let server = EventLoop::start("test-pipeline", default_reactors(), echo).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Two requests in one write; responses must come back in order.
        let mut wire = Request::get("/first").build().to_bytes();
        wire.extend(Request::get("/second").build().to_bytes());
        stream.write_all(&wire).unwrap();
        let mut buf = BytesMut::new();
        let first = read_response(&mut stream, &mut buf).unwrap();
        let second = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(&first.body()[..], b"/first");
        assert_eq!(&second.body()[..], b"/second");
    }

    #[test]
    fn connection_close_is_honored() {
        let server = EventLoop::start("test-close", default_reactors(), echo).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_request(
            &mut stream,
            &Request::get("/last").connection_close().build(),
        )
        .unwrap();
        let mut buf = BytesMut::new();
        let resp = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(&resp.body()[..], b"/last");
        // The server echoes the close decision and hangs up.
        assert!(!resp.wants_keep_alive(), "response must advertise close");
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    #[test]
    fn multiple_reactors_all_serve() {
        let server = EventLoop::start("test-multi", 4, echo).unwrap();
        assert_eq!(server.reactor_count(), 4);
        // Enough connections that the kernel spreads them over several
        // listeners; every one must be served regardless of shard.
        for i in 0..32 {
            let resp = get(server.local_addr(), &format!("/conn/{i}")).unwrap();
            assert_eq!(resp.status(), StatusCode::OK);
            assert_eq!(&resp.body()[..], format!("/conn/{i}").as_bytes());
        }
    }

    /// Answers every request with the number of the instance serving it.
    struct Tagged(usize);
    impl Service for Tagged {
        fn respond(&mut self, _request: &Request) -> ServiceResult {
            ServiceResult::Reply(Response::ok().body(self.0.to_string()).build().into())
        }
    }

    /// The constructor runs once per reactor, in reactor order, and a
    /// connection, which lives on one reactor, is served by that
    /// reactor's instance alone.
    #[test]
    fn each_reactor_owns_one_service_instance() {
        let mut built = Vec::new();
        let server = EventLoop::start("test-instances", 4, |i, _| -> Box<dyn Service> {
            built.push(i);
            Box::new(Tagged(i))
        })
        .unwrap();
        assert_eq!(built, (0..server.reactor_count()).collect::<Vec<_>>());
        for _ in 0..8 {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut buf = BytesMut::new();
            let mut tags = Vec::new();
            for _ in 0..5 {
                write_request(&mut stream, &Request::get("/tag").build()).unwrap();
                let resp = read_response(&mut stream, &mut buf).unwrap();
                tags.push(String::from_utf8(resp.body().to_vec()).unwrap());
            }
            assert!(
                tags.iter().all(|tag| *tag == tags[0]),
                "several instances: {tags:?}"
            );
            assert!(tags[0].parse::<usize>().unwrap() < server.reactor_count());
        }
    }

    /// Waits until the loop's reactors hold `open` client connections.
    fn wait_for_connections(server: &EventLoop, open: &[usize]) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().reactor_connections() != open {
            assert!(
                Instant::now() < deadline,
                "the reactors never held {open:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fills a one-reactor loop's whole bound with idle keep-alive
    /// connections, returned so that they stay open.
    fn fill_the_bound(server: &EventLoop) -> Vec<TcpStream> {
        let clients = (0..MAX_CONNS)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        wait_for_connections(server, &[MAX_CONNS]);
        clients
    }

    #[test]
    fn connection_bound_parks_clients_in_backlog() {
        // One reactor so the whole bound is a single shard.
        let server = EventLoop::start("test-bound", 1, echo).unwrap();
        let mut held = fill_the_bound(&server);
        // One more client connects (kernel backlog) but is not served
        // until a slot frees.
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_request(&mut c, &Request::get("/queued").build()).unwrap();
        drop(held.pop()); // free a slot
        let mut buf = BytesMut::new();
        let resp = read_response(&mut c, &mut buf).unwrap();
        assert_eq!(&resp.body()[..], b"/queued");
    }

    #[test]
    fn half_closed_peer_still_gets_all_pipelined_responses() {
        // Write two requests, shut down the write side, then read: both
        // responses must arrive before the server closes.
        let server = EventLoop::start("test-half-close", default_reactors(), echo).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut wire = Request::get("/one").build().to_bytes();
        wire.extend(Request::get("/two").build().to_bytes());
        stream.write_all(&wire).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = BytesMut::new();
        let first = read_response(&mut stream, &mut buf).unwrap();
        let second = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(&first.body()[..], b"/one");
        assert_eq!(&second.body()[..], b"/two");
        // And then the server closes the drained connection.
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    #[test]
    fn malformed_input_closes_the_connection() {
        let server = EventLoop::start("test-garbage", default_reactors(), echo).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"definitely not http\r\n\r\n").unwrap();
        let mut sink = Vec::new();
        let n = stream.read_to_end(&mut sink).unwrap();
        assert_eq!(n, 0, "server must close without a response");
    }

    #[test]
    fn connection_bound_splits_exactly_across_reactors() {
        // Non-divisible bounds must neither lose nor invent slots: the
        // shares sum to the bound, every reactor keeps at least one
        // slot, and no two shares differ by more than one.
        for (max_conns, reactors) in [
            (1024, 3),
            (7, 4),
            (5, 5),
            (1023, 64),
            (2, 2),
            (1, 1),
            (64, 7),
            (100, 9),
        ] {
            let shares = split_conns(max_conns, reactors);
            assert_eq!(shares.len(), reactors);
            assert_eq!(
                shares.iter().sum::<usize>(),
                max_conns,
                "split of {max_conns} across {reactors} lost or invented slots: {shares:?}"
            );
            assert!(shares.iter().all(|&s| s >= 1), "{shares:?}");
            let (min, max) = (
                shares.iter().min().copied().unwrap(),
                shares.iter().max().copied().unwrap(),
            );
            assert!(max - min <= 1, "uneven split {shares:?}");
            // The extra slots go to the first shards, deterministically.
            assert!(shares.windows(2).all(|w| w[0] >= w[1]), "{shares:?}");
        }
    }

    /// An origin that never stops sending: every read fills the buffer,
    /// with `head` first and `x` after it. It panics far past an origin
    /// socket's bound, so a fill without the bound fails here, not hangs.
    struct Firehose {
        head: &'static [u8],
        sent: usize,
    }

    impl Read for Firehose {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            for (at, byte) in (self.sent..).zip(buf.iter_mut()) {
                *byte = self.head.get(at).copied().unwrap_or(b'x');
            }
            self.sent += buf.len();
            let ceiling = 4 * crate::conn::MAX_ORIGIN_BUFFERED;
            assert!(
                self.sent <= ceiling,
                "read {} bytes and still reading",
                self.sent
            );
            Ok(buf.len())
        }
    }

    /// An origin socket is read up to its bound and no further, however
    /// fast the origin sends: garbage with no head end fails the fetch
    /// (`upstream_readable` ends it in `upstream_broken`), and a response
    /// followed by more than it declared is served and its socket closed.
    #[test]
    fn an_origin_that_never_stops_sending_is_read_to_the_bound_and_no_further() {
        let mut scratch = vec![0; 16 * 1024];
        let ok: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
        for head in [&b""[..], ok] {
            let mut origin = OriginConn::default();
            let mut firehose = Firehose { head, sent: 0 };
            // What `upstream_readable` does with a readable origin socket.
            for _ in 0..2 {
                origin
                    .fill(|buf, room| read_into(&mut firehose, &mut scratch, buf, room))
                    .unwrap();
                assert_eq!(firehose.sent, crate::conn::MAX_ORIGIN_BUFFERED);
            }
            match origin.response() {
                Received::Failed(err) if head.is_empty() => {
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData)
                }
                Received::Done {
                    response,
                    reusable: false,
                } if !head.is_empty() => {
                    assert_eq!(&response.body()[..], b"ok")
                }
                other => panic!("{other:?} after {} bytes of {head:?}", firehose.sent),
            }
        }
    }

    /// One reactor on a fresh listener, not started: the test drives it.
    fn idle_reactor(metrics: &Arc<EngineMetrics>) -> Reactor {
        let reactor = Reactor {
            poller: Poller::new().unwrap(),
            waker: Waker::new().unwrap(),
            listener: listen_reuseport(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap(),
            service: Box::new(Echo),
            shutdown: Arc::new(AtomicBool::new(false)),
            max_conns: 4,
            conns: Vec::new(),
            free: Vec::new(),
            clients: 0,
            freed_this_batch: Vec::new(),
            pool: PoolCore::new(1),
            scratch: vec![0; 16 * 1024],
            driving: None,
            metrics: Arc::clone(metrics),
            reactor_index: 0,
            paused_since: None,
        };
        reactor
            .register(reactor.waker.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)
            .unwrap();
        reactor
            .register(
                reactor.listener.as_raw_fd(),
                TOKEN_LISTENER,
                Interest::READABLE,
            )
            .unwrap();
        reactor
    }

    /// An interest change reaches the kernel when it is made, as one
    /// counted `epoll_ctl`; setting the interest the kernel already holds
    /// issues none.
    #[test]
    fn only_a_changed_interest_issues_an_epoll_ctl() {
        let metrics = Arc::new(EngineMetrics::default());
        let mut reactor = idle_reactor(&metrics);
        assert_eq!(
            metrics.epoll_ctl_calls(),
            2,
            "the waker's ADD and the listener's"
        );
        let _client = TcpStream::connect(reactor.listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(4);
        reactor
            .poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let now = Instant::now();
        reactor.dispatch(&events, now);
        assert_eq!(reactor.clients, 1);
        assert_eq!(metrics.epoll_ctl_calls(), 3, "the accepted socket's ADD");

        let mut ctl = |interest| {
            reactor.set_interest(0, interest).unwrap();
            metrics.epoll_ctl_calls()
        };
        assert_eq!(ctl(Interest::READABLE), 3, "unchanged: no MOD");
        assert_eq!(ctl(Interest::WRITABLE), 4, "a change: one MOD");
        assert_eq!(ctl(Interest::WRITABLE), 4);
        assert_eq!(ctl(Interest::READABLE), 5);

        reactor.pause_accepting(now);
        reactor.pause_accepting(now);
        assert_eq!(metrics.epoll_ctl_calls(), 6, "the listener's MOD, once");
        reactor.close_client(0);
        assert!(reactor.accepting());
        assert_eq!(metrics.epoll_ctl_calls(), 7, "and back");
    }

    /// Applies event batches at `now` until `done` holds. Each wait is
    /// for readiness, not for time: the 5 s cap only ends a broken test.
    fn dispatch_until(reactor: &mut Reactor, now: Instant, done: impl Fn(&Reactor) -> bool) {
        let mut events = Events::with_capacity(16);
        while !done(reactor) {
            let ready = reactor
                .poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(ready > 0, "no readiness in 5 s");
            reactor.dispatch(&events, now);
        }
    }

    /// `idle_reactor` with one client accepted at `now`.
    fn reactor_with_client(metrics: &Arc<EngineMetrics>, now: Instant) -> (Reactor, TcpStream) {
        let mut reactor = idle_reactor(metrics);
        let client = TcpStream::connect(reactor.listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        dispatch_until(&mut reactor, now, |r| r.clients == 1);
        (reactor, client)
    }

    /// std's `accept` hands back a blocking socket; the reactor makes it
    /// nonblocking before it registers it, so a read with nothing sent
    /// returns at once instead of stalling every connection it serves.
    #[test]
    fn an_accepted_socket_is_nonblocking() {
        let metrics = Arc::new(EngineMetrics::default());
        let (reactor, _client) = reactor_with_client(&metrics, Instant::now());
        let accepted = &reactor.conns[0].as_ref().unwrap().stream;
        // The kernel's file status flags for the fd, in octal: checked
        // before the read, which would hang on a blocking socket.
        let fdinfo = format!("/proc/self/fdinfo/{}", accepted.as_raw_fd());
        let fdinfo = std::fs::read_to_string(fdinfo).unwrap();
        let flags = fdinfo.lines().find_map(|l| l.strip_prefix("flags:"));
        let flags = u32::from_str_radix(flags.unwrap().trim(), 8).unwrap();
        assert_ne!(flags & 0o4000, 0, "no O_NONBLOCK in flags {flags:o}");
        let read = (&*accepted).read(&mut [0; 1]);
        assert_eq!(read.unwrap_err().kind(), io::ErrorKind::WouldBlock);
    }

    // The timers below are functions of the reactor's state and the
    // instant it is handed: each test steps `now` past a deadline without
    // waiting for it.

    #[test]
    fn an_idle_client_is_closed_after_the_idle_timeout_and_not_before() {
        let metrics = Arc::new(EngineMetrics::default());
        let t0 = Instant::now();
        let (mut reactor, mut client) = reactor_with_client(&metrics, t0);
        reactor.sweep_idle(t0 + IDLE_TIMEOUT);
        assert_eq!(reactor.clients, 1, "kept at the timeout");
        reactor.sweep_idle(t0 + IDLE_TIMEOUT + Duration::from_millis(1));
        assert_eq!(reactor.clients, 0, "closed past it");
        assert_eq!(client.read(&mut [0; 1]).unwrap(), 0, "the client sees EOF");
    }

    /// Whether connection `idx` last made progress at `at`.
    fn active_at(reactor: &Reactor, idx: usize, at: Instant) -> bool {
        matches!(&reactor.conns[idx], Some(conn) if conn.last_activity == at)
    }

    /// A request whose bytes keep trickling in is never idle, so only the
    /// request deadline, `REQUEST_TIMEOUT` from its first byte, ends
    /// it: `408`, `connection: close`, a close, and a client beside it
    /// that is still served.
    #[test]
    fn a_partial_request_is_answered_408_after_the_request_timeout() {
        use crate::conn::REQUEST_TIMEOUT;

        let metrics = Arc::new(EngineMetrics::default());
        let t0 = Instant::now();
        let (mut reactor, mut client) = reactor_with_client(&metrics, t0);
        let mut other = TcpStream::connect(reactor.listener.local_addr().unwrap()).unwrap();
        other
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        dispatch_until(&mut reactor, t0, |r| r.clients == 2);

        // One piece a second from t1, the last at the deadline itself;
        // each is read at its own instant.
        let t1 = t0 + Duration::from_millis(1);
        let pieces = [
            "GET /slow",
            " HTTP/1.1\r\n",
            "host",
            ": x\r\n",
            "x-pad",
            ": p",
        ];
        for (at, piece) in (0..).map(|s| t1 + Duration::from_secs(s)).zip(pieces) {
            client.write_all(piece.as_bytes()).unwrap();
            dispatch_until(&mut reactor, at, |r| active_at(r, 0, at));
        }
        reactor.sweep_idle(t1 + REQUEST_TIMEOUT);
        assert_eq!(metrics.slow_requests(), 0, "not at the deadline");
        reactor.sweep_idle(t1 + REQUEST_TIMEOUT + Duration::from_millis(1));
        assert_eq!(metrics.slow_requests(), 1);
        let resp = read_response(&mut client, &mut BytesMut::new()).unwrap();
        assert_eq!(resp.status(), StatusCode::REQUEST_TIMEOUT);
        assert_eq!(resp.headers().get("connection"), Some("close"));
        assert_eq!(reactor.clients, 1, "closed after the 408");

        let late = t1 + REQUEST_TIMEOUT + Duration::from_millis(2);
        write_request(&mut other, &Request::get("/other").build()).unwrap();
        dispatch_until(&mut reactor, late, |r| active_at(r, 1, late));
        let resp = read_response(&mut other, &mut BytesMut::new()).unwrap();
        assert_eq!(&resp.body()[..], b"/other", "the other client is served");
    }

    /// The outcome of each fetch a service waited on, in finishing order.
    type Outcomes = Arc<std::sync::Mutex<Vec<Result<StatusCode, io::ErrorKind>>>>;

    /// Records the outcome of every fetch it waits on itself.
    struct Fetches(Outcomes);
    impl Service for Fetches {
        fn respond(&mut self, _request: &Request) -> ServiceResult {
            ServiceResult::Reply(Response::builder(StatusCode::NOT_FOUND).build().into())
        }
        fn own_fetched(&mut self, _request: &[u8], result: &io::Result<Response>, _now: Instant) {
            let outcome = result
                .as_ref()
                .map(Response::status)
                .map_err(io::Error::kind);
            self.0.lock().unwrap().push(outcome);
        }
    }

    /// Whether the reactor's one origin socket has written its whole
    /// request and waits for the response.
    fn sent_all(reactor: &Reactor) -> bool {
        reactor.conns.iter().flatten().any(|conn| {
            matches!(&conn.kind, Kind::Upstream(up) if up.job.is_some())
                && conn.interest == Interest::READABLE
        })
    }

    /// `idle_reactor` whose service has fetched once, at `now`, from the
    /// returned origin, over a keep-alive socket now parked in the pool.
    /// Returns the origin's end of that socket and the fetch outcomes.
    fn reactor_with_parked_origin(
        metrics: &Arc<EngineMetrics>,
        now: Instant,
    ) -> (Reactor, SocketAddr, TcpStream, Outcomes) {
        let mut reactor = idle_reactor(metrics);
        let outcomes = Arc::new(std::sync::Mutex::new(Vec::new()));
        reactor.service = Box::new(Fetches(Arc::clone(&outcomes)));
        let origin = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let addr = origin.local_addr().unwrap();
        reactor.pool.submit(
            addr,
            Request::get("/first").build().to_bytes(),
            Waiter::Service,
        );
        reactor.pump_origin(addr, now);
        let (mut upstream, _) = origin.accept().unwrap();
        upstream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // The connect concludes and the request goes out.
        dispatch_until(&mut reactor, now, sent_all);
        let mut buf = BytesMut::new();
        let sent = read_request(&mut upstream, &mut buf).unwrap().unwrap();
        assert_eq!(sent.target(), "/first");
        upstream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
            .unwrap();
        dispatch_until(&mut reactor, now, |r| r.pool.idle_len(addr) == 1);
        assert_eq!(*outcomes.lock().unwrap(), [Ok(StatusCode::OK)]);
        (reactor, addr, upstream, outcomes)
    }

    #[test]
    fn a_parked_origin_socket_is_reaped_after_the_pool_idle_timeout() {
        let metrics = Arc::new(EngineMetrics::default());
        let t0 = Instant::now();
        let (mut reactor, addr, mut upstream, _) = reactor_with_parked_origin(&metrics, t0);
        reactor.sweep_idle(t0 + POOL_IDLE_TIMEOUT);
        assert_eq!(
            (reactor.pool.idle_len(addr), reactor.pool.open_len(addr)),
            (1, 1),
            "kept"
        );
        reactor.sweep_idle(t0 + POOL_IDLE_TIMEOUT + Duration::from_millis(1));
        assert_eq!(
            (reactor.pool.idle_len(addr), reactor.pool.open_len(addr)),
            (0, 0),
            "reaped"
        );
        assert!(
            reactor.conns.iter().all(Option::is_none),
            "its slot is freed"
        );
        assert_eq!(
            upstream.read(&mut [0; 1]).unwrap(),
            0,
            "the origin sees EOF"
        );
    }

    /// A fetch on a reused socket that gets no answer fails with
    /// `TimedOut`: a slow origin, not a stale socket, so the one retry a
    /// stale socket earns is not spent and no fresh socket is opened.
    /// Meanwhile the reactor goes on serving its clients.
    #[test]
    fn a_held_fetch_times_out_after_the_upstream_timeout_and_is_not_retried() {
        let metrics = Arc::new(EngineMetrics::default());
        let t0 = Instant::now();
        let (mut reactor, addr, _upstream, outcomes) = reactor_with_parked_origin(&metrics, t0);
        let t1 = t0 + Duration::from_secs(1);
        reactor.pool.submit(
            addr,
            Request::get("/held").build().to_bytes(),
            Waiter::Service,
        );
        reactor.pump_origin(addr, t1);
        assert_eq!(metrics.pool_reuses(), 1);
        dispatch_until(&mut reactor, t1, sent_all);

        // A client served while the fetch is held; its slot is the one
        // after the origin socket's.
        let mut client = TcpStream::connect(reactor.listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        dispatch_until(&mut reactor, t1, |r| r.clients == 1);
        let t2 = t1 + Duration::from_secs(1);
        write_request(&mut client, &Request::get("/meanwhile").build()).unwrap();
        dispatch_until(&mut reactor, t2, |r| active_at(r, 1, t2));
        let resp = read_response(&mut client, &mut BytesMut::new()).unwrap();
        assert_eq!(resp.status(), StatusCode::NOT_FOUND, "the service's answer");
        assert_eq!(outcomes.lock().unwrap().len(), 1, "the fetch is still held");

        reactor.sweep_idle(t1 + UPSTREAM_TIMEOUT);
        assert_eq!(
            outcomes.lock().unwrap().len(),
            1,
            "still held at the timeout"
        );
        reactor.sweep_idle(t1 + UPSTREAM_TIMEOUT + Duration::from_millis(1));
        assert_eq!(outcomes.lock().unwrap()[1], Err(io::ErrorKind::TimedOut));
        assert_eq!(metrics.pool_retries(), 0);
        assert_eq!(metrics.pool_opened(), 1, "no fresh socket");
        assert_eq!(
            (reactor.pool.queued_len(addr), reactor.pool.open_len(addr)),
            (0, 0)
        );
    }

    /// The soft `RLIMIT_NOFILE` of this process, from `/proc/self/limits`.
    fn open_file_limit() -> u64 {
        let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
        let line = limits
            .lines()
            .find(|l| l.starts_with("Max open files"))
            .unwrap();
        line.split_whitespace().nth(3).unwrap().parse().unwrap()
    }

    /// Run by `running_out_of_descriptors_pauses_accepting` in a child
    /// process limited to 64 descriptors. Clients connect until the
    /// process has no descriptor left, then four of them are closed, so
    /// the reactor accepts four from the backlog and the next accept fails
    /// with `EMFILE`. A listener left watched would wake every wait at
    /// once with the backlog still there; it is paused like one at the
    /// connection bound, parked clients keep their deadline, a shed pass
    /// that cannot accept retries one deadline later, and a closed client
    /// watches the listener again.
    #[test]
    #[ignore = "needs `ulimit -n 64`; run by running_out_of_descriptors_pauses_accepting"]
    fn out_of_descriptors_in_a_limited_process() {
        assert!(open_file_limit() <= 64, "run under `ulimit -n 64`");
        let metrics = Arc::new(EngineMetrics::default());
        let mut reactor = idle_reactor(&metrics);
        reactor.max_conns = MAX_CONNS;
        let addr = reactor.listener.local_addr().unwrap();
        let mut clients = Vec::new();
        while let Ok(client) = TcpStream::connect(addr) {
            clients.push(client);
            assert!(clients.len() < 64, "the descriptor limit never hit");
        }
        clients.truncate(clients.len() - 4);

        let t0 = Instant::now();
        reactor.accept_ready(t0);
        assert_eq!(reactor.clients, 4);
        assert!(!reactor.accepting(), "the listener is still watched");
        assert_eq!(reactor.shed_at(), Some(t0 + PARK_DEADLINE));

        let t1 = t0 + PARK_DEADLINE;
        reactor.check_park_deadline(t1);
        assert_eq!(metrics.parked_shed(), 0, "no descriptor to shed with");
        assert_eq!(reactor.shed_at(), Some(t1 + PARK_DEADLINE));

        let idx = (0..reactor.conns.len())
            .find(|&i| matches!(&reactor.conns[i], Some(c) if matches!(c.kind, Kind::Client(_))))
            .unwrap();
        reactor.close_client(idx);
        assert!(reactor.accepting(), "a freed descriptor resumes accepting");
        reactor.accept_ready(t1);
        assert_eq!(reactor.clients, 4);
        assert!(!reactor.accepting());
    }

    #[test]
    fn running_out_of_descriptors_pauses_accepting() {
        let out = std::process::Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -n 64 && exec "$0" --ignored --exact "$1""#)
            .arg(std::env::current_exe().unwrap())
            .arg("server::tests::out_of_descriptors_in_a_limited_process")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    /// A listener paused at the connection bound is shed at
    /// `paused_since + PARK_DEADLINE` and not before, and the reactor's
    /// wait ends at that instant rather than at the next tick.
    #[test]
    fn the_parked_backlog_is_shed_at_the_park_deadline_and_not_before() {
        let metrics = Arc::new(EngineMetrics::default());
        let mut reactor = idle_reactor(&metrics);
        reactor.max_conns = 1;
        let addr = reactor.listener.local_addr().unwrap();
        let _held = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        dispatch_until(&mut reactor, t0, |r| !r.accepting());
        assert_eq!(reactor.shed_at(), Some(t0 + PARK_DEADLINE));

        let mut parked = TcpStream::connect(addr).unwrap();
        parked
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Wait (for readiness) until the backlog holds it, on a probe of
        // its own: the reactor's poller no longer watches the listener.
        let probe = Poller::new().unwrap();
        probe
            .register(reactor.listener.as_raw_fd(), 0, Interest::READABLE)
            .unwrap();
        let ready = probe.wait(&mut Events::with_capacity(1), Some(Duration::from_secs(5)));
        assert!(ready.unwrap() > 0, "no parked connection in 5 s");

        let none = Events::with_capacity(1);
        let mut last_sweep = t0;
        assert_eq!(reactor.turn(&none, t0, &mut last_sweep), TICK);
        let early = t0 + PARK_DEADLINE - Duration::from_millis(1);
        assert_eq!(
            reactor.turn(&none, early, &mut last_sweep),
            Duration::from_millis(1)
        );
        assert_eq!(metrics.parked_shed(), 0, "not before the deadline");
        let at = t0 + PARK_DEADLINE;
        assert_eq!(
            reactor.turn(&none, at, &mut last_sweep),
            TICK,
            "the backlog is empty"
        );
        assert_eq!(metrics.parked_shed(), 1);
        let resp = read_response(&mut parked, &mut BytesMut::new()).unwrap();
        assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(reactor.clients, 1, "the held client is untouched");
    }

    /// A shed pass that empties the backlog watches the listener again:
    /// the reactor wakes for no deadline while nobody is parked, and the
    /// next client to arrive at the bound is shed `PARK_DEADLINE` after
    /// its own arrival, not after the last pass.
    #[test]
    fn an_emptied_backlog_costs_no_wake_and_the_next_arrival_gets_its_own_deadline() {
        let metrics = Arc::new(EngineMetrics::default());
        let mut reactor = idle_reactor(&metrics);
        reactor.max_conns = 1;
        let addr = reactor.listener.local_addr().unwrap();
        let _held = TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();
        dispatch_until(&mut reactor, t0, |r| !r.accepting());

        // Nobody is parked: the pass at the deadline finds the backlog
        // empty and leaves no next deadline to wake for.
        let none = Events::with_capacity(1);
        let mut last_sweep = t0;
        let t1 = t0 + PARK_DEADLINE;
        assert_eq!(
            reactor.turn(&none, t1, &mut last_sweep),
            TICK,
            "no wake for an empty backlog"
        );
        assert_eq!((reactor.accepting(), reactor.shed_at()), (true, None));
        assert_eq!(
            reactor.turn(&none, t1 + PARK_DEADLINE, &mut last_sweep),
            TICK
        );
        assert_eq!(metrics.parked_shed(), 0);

        // A client arrives at the bound much later and parks with a
        // deadline of its own.
        let mut parked = TcpStream::connect(addr).unwrap();
        parked
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let t2 = t1 + 3 * PARK_DEADLINE;
        dispatch_until(&mut reactor, t2, |r| !r.accepting());
        assert_eq!(
            reactor.shed_at(),
            Some(t2 + PARK_DEADLINE),
            "its arrival's deadline"
        );
        let early = t2 + PARK_DEADLINE - Duration::from_millis(1);
        assert_eq!(
            reactor.turn(&none, early, &mut last_sweep),
            Duration::from_millis(1)
        );
        assert_eq!(metrics.parked_shed(), 0, "not before its deadline");
        assert_eq!(
            reactor.turn(&none, t2 + PARK_DEADLINE, &mut last_sweep),
            TICK
        );
        assert_eq!(metrics.parked_shed(), 1);
        let resp = read_response(&mut parked, &mut BytesMut::new()).unwrap();
        assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(reactor.clients, 1, "the held client is untouched");
    }

    #[test]
    fn the_sweep_runs_once_a_second_of_now_not_once_a_wake() {
        let metrics = Arc::new(EngineMetrics::default());
        let t0 = Instant::now();
        let (mut reactor, _client) = reactor_with_client(&metrics, t0);
        let none = Events::with_capacity(1);
        // Swept just before the client's idle timeout ran out.
        let swept = t0 + IDLE_TIMEOUT;
        let mut last_sweep = swept;
        for wake in 1..1000 {
            let now = swept + Duration::from_millis(wake);
            assert_eq!(reactor.turn(&none, now, &mut last_sweep), TICK);
        }
        assert_eq!(
            (reactor.clients, last_sweep),
            (1, swept),
            "999 wakes in the second, no sweep"
        );
        let next = swept + Duration::from_secs(1);
        reactor.turn(&none, next, &mut last_sweep);
        assert_eq!(
            (reactor.clients, last_sweep),
            (0, next),
            "the second's sweep closed it"
        );
    }

    #[test]
    fn the_wait_ends_at_the_due_instant_or_the_park_shed_whichever_is_first() {
        let now = Instant::now();
        let ms = Duration::from_millis;
        assert_eq!(wait_timeout(now, None, None), TICK);
        assert_eq!(wait_timeout(now, Some(now + ms(50)), None), ms(50));
        assert_eq!(wait_timeout(now, None, Some(now + ms(10))), ms(10));
        assert_eq!(
            wait_timeout(now, Some(now + ms(50)), Some(now + ms(10))),
            ms(10)
        );
        assert_eq!(
            wait_timeout(now, Some(now + ms(5)), Some(now + ms(10))),
            ms(5)
        );
        assert_eq!(
            wait_timeout(now, Some(now + ms(500)), Some(now + ms(300))),
            TICK
        );
        assert_eq!(
            wait_timeout(now + ms(20), Some(now + ms(10)), None),
            Duration::ZERO,
            "overdue"
        );
    }

    #[test]
    fn parked_clients_get_a_503_after_the_deadline() {
        // At the connection bound, further clients sit in the kernel
        // backlog. They must not wait forever: once the park deadline
        // lapses the reactor drains them with a clean `503`.
        let server = EventLoop::start("test-park-deadline", 1, echo).unwrap();
        let mut held = fill_the_bound(&server);
        // The next client is parked; instead of stalling forever it
        // must receive a 503 with a Retry-After hint, then EOF.
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_request(&mut c, &Request::get("/parked").build()).unwrap();
        let mut buf = BytesMut::new();
        let resp = read_response(&mut c, &mut buf).unwrap();
        assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers().get("retry-after"), Some("1"));
        let mut rest = Vec::new();
        assert_eq!(c.read_to_end(&mut rest).unwrap(), 0, "then a clean close");
        assert!(server.metrics().parked_shed() >= 1);
        // The slots themselves were untouched: freeing one serves a
        // newly connected client normally. The client connects once the
        // reactor has seen the slot free; before that it would arrive at
        // the bound, where a shed pass still draining the backlog may
        // rightly shed it.
        drop(held.pop());
        wait_for_connections(&server, &[MAX_CONNS - 1]);
        let resp = get(server.local_addr(), "/after").unwrap();
        assert_eq!(&resp.body()[..], b"/after");
    }

    #[test]
    fn engine_metrics_track_accepts_and_open_connections() {
        let mut lent = Vec::new();
        let server = EventLoop::start("test-metrics", 2, |i, metrics| {
            lent.push(Arc::clone(metrics));
            echo(i, metrics)
        })
        .unwrap();
        let metrics = Arc::clone(server.metrics());
        assert_eq!(metrics.reactor_count(), 2);
        assert_eq!(lent.len(), 2);
        assert!(lent.iter().all(|m| Arc::ptr_eq(m, &metrics)));
        assert_eq!(metrics.reactor_accepted().iter().sum::<u64>(), 0);
        for i in 0..6 {
            let resp = get(server.local_addr(), &format!("/m/{i}")).unwrap();
            assert_eq!(resp.status(), StatusCode::OK);
        }
        // Each `get` opened (and dropped) one connection; the reactors
        // notice the EOFs asynchronously.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let accepted: u64 = metrics.reactor_accepted().iter().sum();
            let open: usize = metrics.reactor_connections().iter().sum();
            if accepted == 6 && open == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "metrics never settled: accepted {accepted}, open {open}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
