//! The readiness-driven connection engine shared by the live origin and
//! the live proxy.
//!
//! The engine runs **one reactor per core** by default
//! ([`default_reactors`]; [`EngineConfig::reactors`] sets it): each
//! reactor thread owns its own coalesced-interest [`EpollBackend`], its
//! own eventfd waker, its
//! own connection slab, its own keep-alive origin pool — and its own
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
//! *READING* feeds partial reads to the resumable
//! [`mutcon_http::parse::RequestParser`]; a parsed request is handed to
//! the [`Service`], which answers immediately (*WRITING*) or by
//! fetching from an upstream origin. Upstream
//! fetches go through the reactor's **keep-alive origin pool**
//! ([`crate::upstream`]): identical concurrent misses coalesce onto one
//! fetch (N waiters, one origin round trip), finished connections park
//! for reuse instead of closing, idle pooled sockets are reaped, and a
//! pooled socket the origin silently closed is detected and the fetch
//! retried once on a fresh connection. `Connection: close` is honored in
//! both directions ([`mutcon_http::connection`]).
//!
//! *WRITING* goes through the zero-copy send path ([`crate::vectored`]):
//! each response is a reusable contiguous buffer (head + small inlined
//! bodies) plus an optional shared body slice, gathered into one
//! `writev(2)`. Cache hits arrive pre-serialized
//! ([`ServiceResult::Prepared`]) and never copy body bytes.
//! Connection buffers are recycled through a per-reactor pool, and the
//! accept loop drains the whole backlog per listener wakeup with
//! `accept4` (already-nonblocking sockets, one metrics store per
//! batch). [`EngineMetrics`] counts the syscalls and copies so the
//! effect is observable from `/admin/stats`.
//!
//! Concurrent-connection capacity is bounded by
//! [`EngineConfig::max_conns`] (default [`DEFAULT_MAX_CONNS`]), split
//! evenly across reactors: a reactor at its share drops its listener's
//! readiness interest, parking further clients in the kernel backlog
//! until a slot frees. On shutdown every reactor is woken and drains:
//! it stops accepting, finishes flushing in-flight responses (bounded
//! by a short grace period), then closes everything and joins.

use std::collections::HashMap;
use std::io;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use mutcon_core::limit::{Limiter, Outcome as LimitOutcome, Sample as LimitSample};
use mutcon_core::time::Duration as CoreDuration;
use mutcon_http::message::{Request, Response};
use mutcon_http::parse::{ParseError, RequestParser, ResponseParser};
use mutcon_http::types::StatusCode;
use mutcon_sim::reactor::backend::{BackendCounters, EpollBackend};
use mutcon_sim::reactor::{
    accept_nonblocking, connect_nonblocking, listen_reuseport, raise_nofile_limit, Event, Interest,
    Waker,
};

use crate::cache::L1Cache;
use crate::metrics::{metrics, Cell, Counter, Gauge};
use crate::overload::{
    partition_of, OverloadConfig, OverloadControl, PartitionSnap, ReactorOverloadSnap,
    MAX_PARTITIONS, OVERFLOW_PARTITION,
};
use crate::upstream::{AfterLeave, Job, JobId, PoolCore, Submit, MAX_CONNS_PER_ORIGIN};
use crate::vectored::{
    BufPool, FlushOutcome, FlushStats, WritePlan, INLINE_BODY, MAX_RETAINED_CAP,
};

/// Default concurrent-connection bound per event loop (split evenly
/// across its reactors). Sized for "hundreds of sockets through one
/// process" with headroom; load tests beyond it raise
/// [`crate::proxy::ProxyConfig::max_conns`].
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Default per-reactor L1 capacity in objects
/// ([`crate::proxy::ProxyConfig::l1_objects`]): big enough to hold the
/// hot head of a Zipf(≈1.0) catalog, small enough that N reactors'
/// copies stay a footnote next to the shared cache.
pub const DEFAULT_L1_OBJECTS: usize = 128;

/// Default refresh poll-worker count
/// ([`crate::proxy::ProxyConfig::refresh_workers`]): enough overlap to
/// hide origin latency on mid-sized catalogs without hoarding origin
/// sockets.
pub const DEFAULT_REFRESH_WORKERS: usize = 4;

/// Ceiling on the reactor count — beyond this the listeners outnumber
/// any plausible load.
pub const MAX_REACTORS: usize = 64;

/// The default reactor count: one per available core, capped at
/// [`MAX_REACTORS`].
pub fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_REACTORS)
}

/// Close client connections with no traffic for this long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// A request must be complete this long after its first byte: a sender
/// of one byte every few seconds never goes idle, so [`IDLE_TIMEOUT`]
/// alone would hold its slot forever. It gets a `408` and a close.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Fail upstream fetches that make no progress for this long (matches
/// the old blocking client's per-operation timeout ballpark).
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(5);
/// Reap pooled origin connections idle longer than this.
const POOL_IDLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Stop draining a client socket while this much input is already
/// buffered ahead of the state machine (pipelining back-pressure). Also
/// the largest request a client may send: one still incomplete when the
/// buffer is this full will never be read to its end, and gets a `413`.
const MAX_BUFFERED: usize = 256 * 1024;
/// Poll-loop tick when nothing else bounds the wait (idle sweeping,
/// shutdown responsiveness).
const TICK: Duration = Duration::from_millis(200);
/// How long a shutting-down reactor keeps serving to flush in-flight
/// responses before closing everything.
const DRAIN_GRACE: Duration = Duration::from_millis(250);
/// Ceiling when raising `RLIMIT_NOFILE` at startup: enough fd headroom
/// for 10k-connection wire runs without demanding the hard limit.
const NOFILE_CAP: u64 = 65536;

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
/// clamps); the audit tests below pin the exactness over non-divisible
/// combinations.
fn split_conns(max_conns: usize, reactors: usize) -> Vec<usize> {
    debug_assert!(reactors >= 1 && reactors <= max_conns);
    (0..reactors)
        .map(|i| max_conns / reactors + usize::from(i < max_conns % reactors))
        .collect()
}

/// Completion callback for an upstream fetch: receives the origin's
/// response (or the I/O error) and produces the reply for the waiting
/// client — either a full [`Response`] or a pre-serialized
/// [`PreparedResponse`] sharing a cached body.
pub type FinishUpstream = Box<dyn FnOnce(io::Result<Response>) -> Reply + Send>;

/// A response pre-serialized at store time, served without touching the
/// body bytes: the head is copied into the connection's write buffer
/// (~150 bytes), the body rides as a shared [`Bytes`] slice gathered by
/// `writev`. This is the zero-copy cache-hit path.
#[derive(Debug, Clone)]
pub struct PreparedResponse {
    /// Status line + headers, ending after the last header's CRLF (no
    /// terminating blank line) so per-response headers can still append.
    pub head: Bytes,
    /// Per-response header lines (e.g. `x-cache: hit\r\n`), appended
    /// after `head`. The engine adds `connection: close\r\n` and the
    /// blank line itself.
    pub extra: &'static [u8],
    /// The shared body slice — cloned by refcount bump, never copied.
    pub body: Bytes,
}

/// What an upstream completion hands back to the engine.
#[derive(Debug)]
pub enum Reply {
    /// A response to serialize per-connection.
    Full(Response),
    /// A pre-serialized response sharing its body allocation.
    Prepared(PreparedResponse),
}

/// What a [`Service`] wants done with a parsed request.
pub enum ServiceResult {
    /// Write this response now.
    Respond(Response),
    /// Write this pre-serialized response now, sharing its body bytes
    /// (no serialization, no body copy) — the cache-hit path.
    Prepared(PreparedResponse),
    /// Fetch from an upstream server first; `finish` turns its response
    /// into the client's. The fetch goes through the reactor's
    /// keep-alive origin pool; identical concurrent fetches coalesce.
    Upstream {
        /// Upstream address (the origin).
        addr: SocketAddr,
        /// The serialized request to send upstream — also the key
        /// identical concurrent fetches coalesce on.
        request: Vec<u8>,
        /// Builds the client response from the upstream outcome.
        finish: FinishUpstream,
    },
    /// Drop the connection without responding.
    Close,
}

impl std::fmt::Debug for ServiceResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ServiceResult::Respond(_) => "Respond",
            ServiceResult::Prepared(_) => "Prepared",
            ServiceResult::Upstream { .. } => "Upstream",
            ServiceResult::Close => "Close",
        };
        f.write_str(name)
    }
}

/// Request handler plugged into an [`EventLoop`]. May run on several
/// reactor threads concurrently, and must not block (upstream I/O goes
/// through [`ServiceResult::Upstream`]).
pub trait Service: Send + Sync + 'static {
    /// Whether to keep a freshly accepted connection (fault injection
    /// hooks return `false` to drop it on arrival).
    fn accept_connection(&self) -> bool {
        true
    }

    /// Handles one parsed request. `l1` is the calling reactor's own
    /// hot-object cache, lent for the call: a service that caches may
    /// look up and refill it without a lock, since no other thread ever
    /// sees it. The engine itself never reads or writes it.
    fn respond(&self, request: &Request, l1: &mut L1Cache) -> ServiceResult;

    /// Capacity in objects of the L1 each reactor constructs and lends
    /// to [`Service::respond`]. `0` (the default) is for a service that
    /// ignores the argument; the reactor then holds an empty minimal one.
    fn l1_capacity(&self) -> usize {
        0
    }
}

metrics! {
    /// Lightweight always-on counters an event loop's reactors maintain, for
    /// the admin control plane (`GET /admin/stats`). Per-reactor slots are
    /// sized at [`MAX_REACTORS`] up front so the struct can be shared with a
    /// [`Service`] before the final reactor count is known; all cells are
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
        /// Response bodies copied into a write buffer (small inlined
        /// bodies; never a prepared cache hit).
        body_copies: Counter => "wire.body_copies";
        /// Connection buffers recycled from a reactor's pool.
        buf_reuses: Counter => "wire.buf_reuses";
        /// Connection buffers allocated because the pool was empty.
        buf_allocs: Counter => "wire.buf_allocs";
        /// Most buffers any reactor's pool has held at once.
        buf_pool_high_water: Gauge<usize> => "wire.buf_pool_high_water";
        /// `epoll_ctl` ADD + MOD issued; with interest coalescing this
        /// grows with connections, not requests.
        epoll_ctl_calls: Counter => "wire.epoll_ctl_calls";
        /// Interest transitions the ledger absorbed before the kernel.
        interest_coalesced: Counter => "wire.interest_coalesced";
        /// Requests served from a reactor-local L1: one flag load, no
        /// shard lock. Counted by the service that uses the L1.
        l1_hits: Counter => "cache.l1.hits", "wire.l1_hits";
        /// L1 lookups whose copy had been superseded; the slot is dropped
        /// and the request falls through to the shared cache.
        l1_stale_rejects: Counter => "cache.l1.stale_rejects", "wire.l1_stale_rejects";
        /// L1 slots (re)filled from shared-cache hits.
        l1_refills: Counter => "cache.l1.refills";
        /// L1 slots evicted by probe-window pressure (not invalidation).
        l1_evictions: Counter => "cache.l1.evictions";
        /// Flush passes that ended with the socket still unwritable. The
        /// stall is inside the request's admission latency sample, so a
        /// stalling client pushes its partition's adaptive limit down.
        write_stalls: Counter => "wire.write_stalls";
        /// Requests still incomplete [`REQUEST_TIMEOUT`] after their first
        /// byte, answered `408` and closed.
        slow_requests: Counter => "wire.slow_requests";
    }
    plus {
        /// How many reactors report (0 until an event loop adopts the struct).
        reactors: Gauge<usize> = Gauge::default(),
        /// Client connections currently open, per reactor.
        conns: Vec<Gauge<usize>> = (0..MAX_REACTORS).map(|_| Gauge::default()).collect(),
        /// Client connections ever accepted, per reactor.
        accepted: Vec<Counter> = (0..MAX_REACTORS).map(|_| Counter::default()).collect(),
    }
}

impl EngineMetrics {
    /// How many reactors report into these counters.
    pub fn reactor_count(&self) -> usize {
        self.reactors.value()
    }

    /// Client connections currently open, one entry per reactor.
    pub fn reactor_connections(&self) -> Vec<usize> {
        self.conns[..self.reactor_count()].iter().map(Cell::value).collect()
    }

    /// Client connections ever accepted, one entry per reactor.
    pub fn reactor_accepted(&self) -> Vec<u64> {
        self.accepted[..self.reactor_count()].iter().map(Cell::value).collect()
    }

    /// `"epoll"` once per reactor; kept because `benchmark/` (read-only
    /// here) prints it in its report header.
    pub fn reactor_backends(&self) -> Vec<&'static str> {
        vec!["epoll"; self.reactor_count()]
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
    overload: Arc<OverloadControl>,
}

/// Everything an [`EventLoop`] is started with. `..Default::default()`
/// fills in what a caller does not care about.
#[derive(Debug)]
pub struct EngineConfig {
    /// Concurrent-connection bound, total across reactors
    /// ([`DEFAULT_MAX_CONNS`]). It is split exactly, and each shard
    /// enforces its share independently, since the kernel's
    /// `SO_REUSEPORT` balancing ignores occupancy.
    pub max_conns: usize,
    /// Reactor threads ([`default_reactors`]); clamped to
    /// `1..=`[`MAX_REACTORS`] and to `max_conns`, so a small bound is
    /// never multiplied.
    pub reactors: usize,
    /// Where the reactors count. The live proxy shares the struct with
    /// its admin control plane, which needs it before the loop exists.
    pub metrics: Arc<EngineMetrics>,
    /// The overload-control handle (see [`crate::overload`]). The live
    /// proxy shares it with its admin plane, which hot-swaps the
    /// admission and origin-pool limiters and reads back live limits,
    /// samples and shed counters.
    pub overload: Arc<OverloadControl>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_conns: DEFAULT_MAX_CONNS,
            reactors: default_reactors(),
            metrics: Arc::new(EngineMetrics::default()),
            overload: Arc::new(OverloadControl::default()),
        }
    }
}

impl EventLoop {
    /// Binds localhost listeners on a shared ephemeral port, one per
    /// reactor, and starts the reactor threads.
    ///
    /// # Errors
    ///
    /// Propagates socket and epoll setup failures, and rejects an
    /// overload handle whose initial configuration fails validation.
    pub fn start(
        name: &str,
        service: Arc<dyn Service>,
        config: EngineConfig,
    ) -> io::Result<EventLoop> {
        let EngineConfig { max_conns, reactors, metrics, overload } = config;
        overload
            .config()
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Raise the fd ceiling once per process so 10k-connection runs
        // don't trip the default 1024 soft limit.
        static RAISE_NOFILE: Once = Once::new();
        RAISE_NOFILE.call_once(|| match raise_nofile_limit(NOFILE_CAP) {
            Ok((before, after)) if after > before => {
                eprintln!("mutcon-live: raised RLIMIT_NOFILE {before} -> {after}");
            }
            Ok(_) => {}
            Err(err) => eprintln!("mutcon-live: could not raise RLIMIT_NOFILE: {err}"),
        });
        let max_conns = max_conns.max(1);
        // Never spawn more reactors than the connection bound allows:
        // the bound is enforced per shard (the kernel's SO_REUSEPORT
        // balancing ignores occupancy), and splitting it must not
        // multiply it — `max_conns: 2, reactors: 8` means 2
        // connections total, not 8.
        let reactors = reactors.clamp(1, MAX_REACTORS).min(max_conns);
        // The first listener picks the ephemeral port; its SO_REUSEPORT
        // siblings join it, one per reactor.
        let first = listen_reuseport("127.0.0.1:0".parse().expect("valid literal"))?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(listen_reuseport(addr)?);
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        metrics.reactors.set(reactors);
        let mut handles = Vec::with_capacity(reactors);
        // Split the bound exactly: the first (max_conns % reactors)
        // shards take one extra slot, total = max_conns.
        let shares = split_conns(max_conns, reactors);
        for (i, listener) in listeners.into_iter().enumerate() {
            let per_reactor = shares[i];
            let mut backend = EpollBackend::new(TOKEN_WAKER)?;
            backend.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
            let waker = backend.wake_handle();
            let reactor = Reactor {
                backend,
                listener,
                service: Arc::clone(&service),
                shutdown: Arc::clone(&shutdown),
                max_conns: per_reactor.max(1),
                conns: Vec::new(),
                free: Vec::new(),
                clients: 0,
                accepting: true,
                last_sweep: Instant::now(),
                freed_this_batch: Vec::new(),
                pool: PoolCore::default(),
                bufs: BufPool::new(),
                scratch: vec![0; 16 * 1024],
                driving: None,
                metrics: Arc::clone(&metrics),
                reactor_index: i,
                last_counters: BackendCounters::default(),
                overload: Arc::clone(&overload),
                overload_version: overload.version(),
                overload_config: overload.config(),
                admission: HashMap::new(),
                overload_dirty: true,
                samples_unpublished: false,
                paused_since: None,
                l1: L1Cache::new(service.l1_capacity()),
            };
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
            overload,
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

    /// The loop's always-on counters ([`EngineConfig::metrics`]).
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The shared overload-control handle (config installs, shed
    /// counters, per-reactor limit snapshots).
    pub fn overload(&self) -> &Arc<OverloadControl> {
        &self.overload
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

/// What a client connection is waiting on besides socket readiness.
enum Pending {
    /// Nothing: reading the next request.
    None,
    /// An upstream fetch (pool job id).
    Upstream(JobId),
}

struct ClientState {
    parser: RequestParser,
    read_buf: BytesMut,
    /// The outgoing response: a pooled contiguous buffer (head + small
    /// inlined bodies) plus an optional shared body slice, flushed with
    /// `writev` so a cache hit costs one syscall and zero body copies.
    write: WritePlan,
    pending: Pending,
    /// When the parser first found the request at the front of
    /// `read_buf` incomplete; `None` between requests.
    request_started: Option<Instant>,
    /// Peer sent EOF; close once the in-flight response is flushed.
    peer_closed: bool,
    /// The peer asked for `Connection: close`; serve the current
    /// request, flush, then close (later pipelined bytes are ignored).
    close_after_write: bool,
    /// The admission ticket for the request in flight. `None` when
    /// admission control is off or no request is in flight.
    admitted: Option<AdmissionTicket>,
}

/// An admission slot charged to a path partition for one in-flight
/// request. The ticket is released — and the limiter fed a latency
/// sample — only once the response is **fully flushed**, not when it is
/// queued: client write-stall time thereby joins the latency sample, so
/// slow-reading clients push the partition's adaptive limit down like
/// any other service-time inflation.
struct AdmissionTicket {
    /// The path partition the slot was charged against.
    partition: Arc<str>,
    /// When the request was admitted.
    started: Instant,
    /// The queued response's status, recorded at queue time; `None`
    /// until a response is queued (e.g. while an upstream fetch is in
    /// flight). The flush-completion path only samples the limiter once
    /// this is set.
    status: Option<u16>,
}

/// A connection to an upstream origin, owned by the reactor's pool.
struct UpstreamState {
    /// The origin this connection belongs to.
    addr: SocketAddr,
    /// The pool job being fetched, or `None` while parked idle.
    job: Option<JobId>,
    /// Request bytes written so far (the bytes live in the job).
    written: usize,
    read_buf: BytesMut,
    parser: ResponseParser,
    connected: bool,
    /// Responses served on this connection; `> 0` marks it as reused
    /// (eligible for the stale-socket retry).
    served: u32,
    /// When the current fetch was handed to this connection; the
    /// elapsed time at completion feeds the pool's adaptive limiter.
    fetch_started: Option<Instant>,
}

enum Kind {
    Client(ClientState),
    Upstream(UpstreamState),
}

struct Conn {
    stream: TcpStream,
    last_activity: Instant,
    kind: Kind,
}

/// The waiter payload the pool tracks per coalesced miss.
struct Waiting {
    client: usize,
    finish: FinishUpstream,
}

impl std::fmt::Debug for Waiting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waiting").field("client", &self.client).finish()
    }
}

struct Reactor {
    /// Readiness and the data-plane syscalls; every fd operation goes
    /// through it.
    backend: EpollBackend,
    listener: TcpListener,
    service: Arc<dyn Service>,
    shutdown: Arc<AtomicBool>,
    max_conns: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Client connections currently open (upstream sockets don't count
    /// against the accept bound).
    clients: usize,
    accepting: bool,
    last_sweep: Instant,
    /// Slots freed while processing the current event batch. Reuse is
    /// deferred to the end of the batch so a stale event queued for a
    /// closed connection's token can never be applied to a new
    /// connection occupying the same slot (it finds `None` instead).
    freed_this_batch: Vec<usize>,
    /// The keep-alive origin pool ledger (see [`crate::upstream`]).
    pool: PoolCore<Waiting>,
    /// Recycled read/write buffers, handed to new connections instead
    /// of fresh allocations (reactor-local: no locks).
    bufs: BufPool,
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
    /// Backend counter snapshot from the previous turn; the delta is
    /// folded into the shared metrics once per event-loop turn.
    last_counters: BackendCounters,
    /// The shared overload-control handle (hot config installs, shed
    /// counters, published snapshots).
    overload: Arc<OverloadControl>,
    /// Config version this reactor has applied; compared against the
    /// handle's version each turn (one relaxed-ish atomic load).
    overload_version: u64,
    /// The reactor's private copy of the overload config.
    overload_config: OverloadConfig,
    /// Per path-partition admission state, created lazily as
    /// partitions are first seen: at most [`MAX_PARTITIONS`] named ones
    /// plus [`OVERFLOW_PARTITION`]. Empty while admission is off.
    admission: HashMap<Arc<str>, PartitionState>,
    /// Something observable changed (limits, samples, shed counts);
    /// publish a fresh snapshot at the end of the turn.
    overload_dirty: bool,
    /// Fetches were recorded since the last publish (see `record_fetch`).
    samples_unpublished: bool,
    /// When `pause_accepting` parked the listener; after
    /// `park_deadline` the backlog is drained with `503`s instead of
    /// making parked clients wait forever.
    paused_since: Option<Instant>,
    /// The reactor-local hot-object cache, lent to the service with each
    /// request ([`Service::respond`]) and otherwise untouched. Owned here
    /// because one owner per reactor thread is what makes it lock-free.
    l1: L1Cache,
}

/// Admission state for one path partition.
struct PartitionState {
    limiter: Limiter,
    /// Requests admitted and not yet completed.
    in_flight: usize,
    /// Requests shed (`429`) from this partition.
    shed: u64,
}

/// Drops whatever `stream` (nonblocking) has received so far: closing
/// over unread bytes resets the connection, which can discard a response
/// still in flight to the peer.
fn discard_input(mut stream: &TcpStream) {
    let mut scratch = [0u8; 4096];
    while matches!(stream.read(&mut scratch), Ok(1..)) {}
}

/// Clones an `io::Error` well enough for fan-out to several waiters.
fn clone_err(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(1024);
        while !self.shutdown.load(Ordering::SeqCst) {
            if self.backend.wait(&mut events, Some(TICK)).is_err() {
                break;
            }
            self.dispatch(&events);
            self.sync_overload();
            self.check_park_deadline();
            self.publish_overload();
            self.flush_backend_counters();
            if self.last_sweep.elapsed() >= Duration::from_secs(1) {
                self.sweep_idle();
                self.last_sweep = Instant::now();
                self.overload_dirty |= self.samples_unpublished;
            }
        }
        self.drain(&mut events);
        self.flush_backend_counters();
        // Dropping the slab closes every socket.
    }

    /// Applies one event batch.
    fn dispatch(&mut self, events: &[Event]) {
        for &event in events {
            match event.token {
                TOKEN_LISTENER => self.accept_ready(),
                TOKEN_WAKER => self.backend.drain_waker(),
                token => self.conn_event(token - TOKEN_BASE, event),
            }
        }
        // Freed slots become reusable only once every event of the
        // batch has been applied (see `freed_this_batch`).
        self.free.append(&mut self.freed_this_batch);
    }

    /// Exports the backend's monotonic syscall-economy counters into the
    /// shared metrics as a delta, once per event-loop turn.
    fn flush_backend_counters(&mut self) {
        let now = self.backend.counters();
        let delta = now.since(self.last_counters);
        self.last_counters = now;
        self.metrics.epoll_ctl_calls.add(delta.epoll_ctl_calls);
        self.metrics.interest_coalesced.add(delta.interest_coalesced);
    }

    /// Graceful-shutdown tail: stop accepting, keep serving until every
    /// in-flight response is flushed or the grace period lapses.
    fn drain(&mut self, events: &mut Vec<Event>) {
        self.pause_accepting();
        let deadline = Instant::now() + DRAIN_GRACE;
        while self.has_inflight() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let timeout = (deadline - now).min(Duration::from_millis(10));
            if self.backend.wait(events, Some(timeout)).is_err() {
                break;
            }
            self.dispatch(events);
        }
    }

    /// Whether any connection still owes work (unflushed response bytes
    /// or an upstream fetch in flight).
    fn has_inflight(&self) -> bool {
        self.conns.iter().flatten().any(|conn| match &conn.kind {
            Kind::Client(client) => {
                client.write.has_unwritten() || !matches!(client.pending, Pending::None)
            }
            Kind::Upstream(up) => up.job.is_some(),
        })
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        }
    }

    fn pause_accepting(&mut self) {
        if self.accepting {
            self.accepting = false;
            self.backend.set_interest(TOKEN_LISTENER, Interest::NONE);
            self.paused_since = Some(Instant::now());
        }
    }

    fn resume_accepting(&mut self) {
        if !self.accepting && self.clients < self.max_conns {
            self.accepting = true;
            self.backend.set_interest(TOKEN_LISTENER, Interest::READABLE);
            self.paused_since = None;
        }
    }

    /// Drains the whole accept backlog in one batch. Each connection
    /// arrives already nonblocking (`accept4`, no per-accept `fcntl`)
    /// and adopts pooled read/write buffers; shared metrics are stored
    /// once per batch, not once per connection, and the listener's
    /// epoll interest is only touched when the batch hits the
    /// connection bound.
    fn accept_ready(&mut self) {
        let mut batch: u64 = 0;
        let mut reused: u64 = 0;
        let mut allocated: u64 = 0;
        while self.accepting {
            match accept_nonblocking(&self.listener) {
                Ok(stream) => {
                    if !self.service.accept_connection() {
                        continue; // dropped on arrival (fault injection)
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.alloc_slot();
                    if self
                        .backend
                        .register(stream.as_raw_fd(), idx + TOKEN_BASE, Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    let (wbuf, wfrom_pool) = self.bufs.take();
                    let (rbuf, rfrom_pool) = self.bufs.take();
                    reused += u64::from(wfrom_pool) + u64::from(rfrom_pool);
                    allocated += u64::from(!wfrom_pool) + u64::from(!rfrom_pool);
                    self.conns[idx] = Some(Conn {
                        stream,
                        last_activity: Instant::now(),
                        kind: Kind::Client(ClientState {
                            parser: RequestParser::new(),
                            read_buf: BytesMut::from_vec(rbuf),
                            write: WritePlan::with_buf(wbuf),
                            pending: Pending::None,
                            request_started: None,
                            peer_closed: false,
                            close_after_write: false,
                            admitted: None,
                        }),
                    });
                    self.clients += 1;
                    batch += 1;
                    if self.clients >= self.max_conns {
                        self.pause_accepting();
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if batch > 0 {
            self.metrics.conns[self.reactor_index].set(self.clients);
            self.metrics.accepted[self.reactor_index].add(batch);
            self.metrics.accept_batches.inc();
            self.metrics.buf_reuses.add(reused);
            self.metrics.buf_allocs.add(allocated);
        }
    }

    fn conn_event(&mut self, idx: usize, event: Event) {
        let Some(conn) = self.conns.get(idx).and_then(Option::as_ref) else {
            return; // closed earlier in this event batch
        };
        match &conn.kind {
            Kind::Client(_) => {
                if event.closed {
                    self.close_client(idx);
                    return;
                }
                if event.writable {
                    self.client_writable(idx);
                }
                if event.readable {
                    self.client_readable(idx);
                }
            }
            Kind::Upstream(_) => {
                if event.closed {
                    let err = self.conns[idx]
                        .as_ref()
                        .and_then(|c| c.stream.take_error().ok().flatten())
                        .unwrap_or_else(|| {
                            io::Error::new(io::ErrorKind::BrokenPipe, "origin hung up")
                        });
                    self.upstream_broken(idx, err, true);
                    return;
                }
                if event.writable {
                    self.upstream_writable(idx);
                }
                if event.readable {
                    self.upstream_readable(idx);
                }
            }
        }
    }

    /// Drains the socket into the client's read buffer, then drives the
    /// request/response state machine.
    fn client_readable(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let Kind::Client(client) = &mut conn.kind else { return };
        let mut saw_eof = false;
        let chunk = &mut self.scratch[..];
        while client.read_buf.len() < MAX_BUFFERED {
            match (&conn.stream).read(chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    client.read_buf.extend_from_slice(&chunk[..n]);
                    // A short read drained the socket; the backend
                    // raises a new event for more data or EOF.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_client(idx);
                    return;
                }
            }
        }
        conn.last_activity = Instant::now();
        client.peer_closed |= saw_eof;
        self.resume_client(idx);
    }

    fn client_writable(&mut self, idx: usize) {
        self.resume_client(idx);
    }

    /// The connection's resume sequence after any progress: flush
    /// whatever response is pending, drive buffered requests to
    /// quiescence, close a drained half-closed peer, and recompute the
    /// epoll interest. Every event/completion path funnels through
    /// here.
    fn resume_client(&mut self, idx: usize) {
        if !self.flush_client(idx) {
            return;
        }
        if !self.drive_client(idx) {
            return;
        }
        // EOF (or Connection: close) with nothing left to serve: close.
        if self.close_if_finished(idx) {
            return;
        }
        self.update_client_interest(idx);
    }

    /// Parses and dispatches buffered requests while the connection has
    /// no response in flight. Returns `false` if the connection was
    /// closed. Wraps the loop with the `driving` marker so completions
    /// for *this* client queue instead of recursing (a pipelined burst
    /// of synchronously failing misses must not nest one stack frame per
    /// request).
    fn drive_client(&mut self, idx: usize) -> bool {
        let prev = self.driving.replace(idx);
        let alive = self.drive_client_inner(idx);
        self.driving = prev;
        alive
    }

    fn drive_client_inner(&mut self, idx: usize) -> bool {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else { return false };
            let Kind::Client(client) = &mut conn.kind else { return false };
            if client.write.has_unwritten() || !matches!(client.pending, Pending::None) {
                return true; // busy; pipelined requests wait their turn
            }
            if client.close_after_write || client.read_buf.is_empty() {
                return true; // closing after the flush, or nothing to parse
            }
            let (request, consumed) = match client.parser.advance(&client.read_buf) {
                Ok(Some(parsed)) => parsed,
                Ok(None) if client.read_buf.len() < MAX_BUFFERED => {
                    client.request_started.get_or_insert_with(Instant::now);
                    return true;
                }
                Ok(None) | Err(ParseError::BodyTooLarge) => {
                    // Well-formed, but more than the buffer (or the
                    // parser) will hold.
                    self.refuse(idx, StatusCode::PAYLOAD_TOO_LARGE);
                    return self.flush_client(idx);
                }
                Err(_) => {
                    // The bytes can never become a request; the
                    // connection is beyond saving.
                    self.close_client(idx);
                    return false;
                }
            };
            client.read_buf.advance(consumed);
            client.request_started = None;
            if !request.wants_keep_alive() {
                client.close_after_write = true;
            }
            if !self.admit_or_shed(idx, &request) {
                // Shed: a 429 is queued. Flush and keep draining
                // pipelined input.
                if !self.flush_client(idx) {
                    return false;
                }
                continue;
            }
            match self.service.respond(&request, &mut self.l1) {
                ServiceResult::Respond(response) => {
                    self.queue_response(idx, response);
                    if !self.flush_client(idx) {
                        return false;
                    }
                }
                ServiceResult::Prepared(prepared) => {
                    self.queue_prepared(idx, prepared);
                    if !self.flush_client(idx) {
                        return false;
                    }
                }
                ServiceResult::Upstream {
                    addr,
                    request,
                    finish,
                } => {
                    self.submit_upstream(idx, addr, request, finish);
                    match self.conns.get(idx).and_then(Option::as_ref) {
                        None => return false,
                        Some(conn) => {
                            let Kind::Client(client) = &conn.kind else { return false };
                            if matches!(client.pending, Pending::Upstream(_)) {
                                // Fetch in flight; its completion
                                // resumes this connection.
                                return true;
                            }
                            // The fetch concluded synchronously (connect
                            // failure, or a coalesced job that finished
                            // within this very call): its response is
                            // queued. Flush and keep driving
                            // iteratively.
                            if !self.flush_client(idx) {
                                return false;
                            }
                        }
                    }
                }
                ServiceResult::Close => {
                    self.close_client(idx);
                    return false;
                }
            }
        }
    }

    /// Queues `status` as the connection's last response: it closes once
    /// that is flushed. What the client already sent is discarded first,
    /// or the close would reset the connection under the refusal.
    fn refuse(&mut self, idx: usize, status: StatusCode) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let Kind::Client(client) = &mut conn.kind else { return };
        client.close_after_write = true;
        client.request_started = None;
        client.read_buf.clear();
        discard_input(&conn.stream);
        self.queue_response(idx, Response::builder(status).build());
    }

    /// Writes as much of the pending response as the socket accepts —
    /// gathering the contiguous buffer and any shared body slice into
    /// one `writev` — and merges the flush's syscall tallies into the
    /// shared metrics. Returns `false` if the connection was closed.
    fn flush_client(&mut self, idx: usize) -> bool {
        let mut stats = FlushStats::default();
        let outcome = {
            let Some(conn) = self.conns[idx].as_mut() else { return false };
            let Kind::Client(client) = &mut conn.kind else { return false };
            if client.write.is_idle() {
                return true;
            }
            let outcome = client.write.flush(&mut conn.stream, MAX_RETAINED_CAP, &mut stats);
            if matches!(outcome, Ok(FlushOutcome::Done)) {
                conn.last_activity = Instant::now();
                // A half-closed peer may still have pipelined requests
                // buffered in read_buf; closing is decided centrally in
                // [`Reactor::close_if_finished`] once everything
                // parseable has been served.
            }
            outcome
        };
        self.metrics.write_calls.add(stats.write_calls);
        self.metrics.writev_calls.add(stats.writev_calls);
        self.metrics.write_stalls.add(stats.blocked);
        match outcome {
            Ok(FlushOutcome::Done) => {
                // The response reached the kernel in full: release the
                // admission ticket now, so any write-stall time the
                // flush accumulated is inside the latency sample.
                self.finish_admission(idx);
                true
            }
            Ok(_) => true,
            Err(_) => {
                self.close_client(idx);
                false
            }
        }
    }

    /// Closes a connection once nothing more can be served: the peer
    /// sent EOF (or asked for `Connection: close`), no response is in
    /// flight or owed, and (because [`Reactor::drive_client`] ran to
    /// quiescence first) no complete request remains buffered. Returns
    /// `true` if it closed.
    fn close_if_finished(&mut self, idx: usize) -> bool {
        let Some(conn) = self.conns[idx].as_ref() else { return true };
        let Kind::Client(client) = &conn.kind else { return false };
        if (client.peer_closed || client.close_after_write)
            && client.write.is_idle()
            && matches!(client.pending, Pending::None)
        {
            self.close_client(idx);
            return true;
        }
        false
    }

    /// Recomputes the client's desired readiness interest from its
    /// state. The backend's ledger coalesces: only a net change reaches
    /// the kernel, at the next wait.
    fn update_client_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_ref() else { return };
        let Kind::Client(client) = &conn.kind else { return };
        // Read interest stays armed while a fetch is pending: dropping and
        // re-arming it straddles two loop turns, which the ledger cannot
        // coalesce (two `epoll_ctl` per miss). It is dropped at the
        // buffering bound, and after the peer's EOF, which a
        // level-triggered poller would report on every turn.
        let interest = if client.write.has_unwritten() {
            Interest::WRITABLE
        } else if client.peer_closed || client.read_buf.len() >= MAX_BUFFERED {
            Interest::NONE
        } else {
            Interest::READABLE
        };
        self.backend.set_interest(idx + TOKEN_BASE, interest);
    }

    /// Queues a response on a client without driving the connection
    /// further (the caller decides when to flush/resume). The head is
    /// rendered straight into the connection's reusable write buffer;
    /// bodies at most [`INLINE_BODY`] bytes are inlined behind it (one
    /// contiguous `write`, counted as a body copy), larger ones ride as
    /// a shared slice gathered by `writev` — zero copies.
    fn queue_response(&mut self, idx: usize, mut response: Response) {
        self.note_response_status(idx, response.status().as_u16());
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let Kind::Client(client) = &mut conn.kind else { return };
        if client.close_after_write {
            mutcon_http::connection::set_close(response.headers_mut());
        }
        client.pending = Pending::None;
        debug_assert!(client.write.is_idle(), "one response in flight at a time");
        let buf = client.write.buf_mut();
        response.write_head(buf);
        buf.extend_from_slice(b"\r\n");
        let body = response.body();
        if !body.is_empty() {
            if body.len() <= INLINE_BODY {
                buf.extend_from_slice(body);
                self.metrics.body_copies.inc();
            } else {
                client.write.set_body(body.clone());
            }
        }
    }

    /// Queues a pre-serialized response: the stored head (and the
    /// per-response extras) are appended to the reusable write buffer,
    /// the shared body is attached untouched. This path never copies
    /// body bytes, whatever their size — the zero-copy cache hit.
    fn queue_prepared(&mut self, idx: usize, prepared: PreparedResponse) {
        self.note_response_status(idx, StatusCode::OK.as_u16());
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let Kind::Client(client) = &mut conn.kind else { return };
        client.pending = Pending::None;
        debug_assert!(client.write.is_idle(), "one response in flight at a time");
        let buf = client.write.buf_mut();
        buf.extend_from_slice(&prepared.head);
        buf.extend_from_slice(prepared.extra);
        if client.close_after_write {
            buf.extend_from_slice(b"connection: close\r\n");
        }
        buf.extend_from_slice(b"\r\n");
        client.write.set_body(prepared.body);
    }

    /// Files a cache miss with the pool: coalesces onto an identical
    /// in-flight fetch or starts a new one. On synchronous failure the
    /// error response is queued on the client (not flushed), so
    /// [`Reactor::drive_client_inner`] continues iteratively.
    fn submit_upstream(
        &mut self,
        client_idx: usize,
        addr: SocketAddr,
        wire: Vec<u8>,
        finish: FinishUpstream,
    ) {
        let waiter = Waiting {
            client: client_idx,
            finish,
        };
        let submitted = self.pool.submit(addr, wire, waiter);
        if matches!(submitted, Submit::Coalesced(_)) {
            self.metrics.pool_coalesced.inc();
        }
        let job = submitted.job();
        if let Some(conn) = self.conns[client_idx].as_mut() {
            if let Kind::Client(client) = &mut conn.kind {
                client.pending = Pending::Upstream(job);
            }
        }
        if matches!(submitted, Submit::New(_)) {
            self.pump_origin(addr);
        }
    }

    /// Starts queued fetches for `addr` on whatever capacity exists:
    /// parked keep-alive connections first, then fresh sockets up to the
    /// per-origin cap. Jobs beyond capacity stay queued; completions
    /// call back here.
    fn pump_origin(&mut self, addr: SocketAddr) {
        while let Some(job) = self.pool.front_queued(addr) {
            if let Some(conn_idx) = self.pool.claim_idle(addr) {
                self.metrics.pool_reuses.inc();
                self.pool.pop_queued(addr);
                self.pool.assign(job, conn_idx);
                if let Some(conn) = self.conns[conn_idx].as_mut() {
                    if let Kind::Upstream(up) = &mut conn.kind {
                        up.job = Some(job);
                        up.written = 0;
                        up.read_buf.clear();
                        up.parser = ResponseParser::new();
                        up.fetch_started = Some(Instant::now());
                    }
                    conn.last_activity = Instant::now();
                }
                // The parked socket is almost certainly writable: push
                // the request now instead of waiting for a poll round.
                self.upstream_writable(conn_idx);
            } else if self.pool.can_open(addr) {
                match connect_nonblocking(addr) {
                    Ok(stream) => {
                        let (rbuf, from_pool) = self.bufs.take();
                        if from_pool {
                            self.metrics.buf_reuses.inc();
                        } else {
                            self.metrics.buf_allocs.inc();
                        }
                        let idx = self.alloc_slot();
                        if self
                            .backend
                            .register(stream.as_raw_fd(), idx + TOKEN_BASE, Interest::WRITABLE)
                            .is_err()
                        {
                            self.free.push(idx);
                            self.pool.pop_queued(addr);
                            let err = io::Error::new(
                                io::ErrorKind::Other,
                                "cannot register upstream socket",
                            );
                            self.record_fetch(addr, Duration::ZERO, false);
                            if let Some(j) = self.pool.complete(job) {
                                self.deliver(j, Err(err));
                            }
                            continue;
                        }
                        self.conns[idx] = Some(Conn {
                            stream,
                            last_activity: Instant::now(),
                            kind: Kind::Upstream(UpstreamState {
                                addr,
                                job: Some(job),
                                written: 0,
                                read_buf: BytesMut::from_vec(rbuf),
                                parser: ResponseParser::new(),
                                connected: false,
                                served: 0,
                                fetch_started: Some(Instant::now()),
                            }),
                        });
                        self.pool.pop_queued(addr);
                        self.pool.assign(job, idx);
                        self.pool.note_opened(addr);
                        self.metrics.pool_opened.inc();
                        // The connect concludes via EPOLLOUT.
                    }
                    Err(e) => {
                        self.pool.pop_queued(addr);
                        // A synchronous connect failure is the strongest
                        // overload signal there is: collapse the cap.
                        self.record_fetch(addr, Duration::ZERO, false);
                        if let Some(j) = self.pool.complete(job) {
                            self.deliver(j, Err(e));
                        }
                        continue;
                    }
                }
            } else {
                break; // at the per-origin cap; completions re-pump
            }
        }
    }

    /// Feeds one fetch outcome to the pool's limiter. A moved cap or a
    /// failure is published this turn; a success that moved nothing only
    /// advanced the sample counters, which ride the next publish (at the
    /// latest the once-a-second sweep's).
    fn record_fetch(&mut self, addr: SocketAddr, elapsed: Duration, ok: bool) {
        let before = self.pool.current_cap();
        let after = self.pool.record_fetch(addr, elapsed, ok);
        self.overload_dirty |= !ok || after != before;
        self.samples_unpublished = true;
    }

    fn upstream_writable(&mut self, idx: usize) {
        // Split borrows: the connection lives in `conns`, its request
        // bytes in the pool's job.
        let (conns, pool) = (&mut self.conns, &self.pool);
        let Some(conn) = conns[idx].as_mut() else { return };
        let Kind::Upstream(up) = &mut conn.kind else { return };
        if !up.connected {
            // Writability concludes the nonblocking connect; SO_ERROR
            // says how it went.
            match conn.stream.take_error() {
                Ok(None) => up.connected = true,
                Ok(Some(e)) | Err(e) => {
                    self.upstream_broken(idx, e, true);
                    return;
                }
            }
        }
        let Some(job) = up.job else {
            return; // parked idle; nothing to write
        };
        let Some(request) = pool.job(job).map(|j| &j.request[..]) else {
            return;
        };
        let mut broken: Option<io::Error> = None;
        while up.written < request.len() {
            match (&conn.stream).write(&request[up.written..]) {
                Ok(0) => {
                    broken = Some(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "origin closed mid-request",
                    ));
                    break;
                }
                Ok(n) => up.written += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Partial write: wait for writability.
                    self.backend.set_interest(idx + TOKEN_BASE, Interest::WRITABLE);
                    return;
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    broken = Some(e);
                    break;
                }
            }
        }
        if let Some(err) = broken {
            self.upstream_broken(idx, err, true);
            return;
        }
        conn.last_activity = Instant::now();
        self.backend.set_interest(idx + TOKEN_BASE, Interest::READABLE);
    }

    fn upstream_readable(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let Kind::Upstream(up) = &mut conn.kind else { return };
        if up.job.is_none() {
            // A parked idle connection turned readable: the origin
            // closed it (EOF) or sent nonsense — either way the socket
            // is useless; reap it before a job can be assigned to it.
            let err = io::Error::new(io::ErrorKind::BrokenPipe, "pooled origin socket closed");
            self.upstream_broken(idx, err, true);
            return;
        }
        let mut saw_eof = false;
        let chunk = &mut self.scratch[..];
        loop {
            match (&conn.stream).read(chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    up.read_buf.extend_from_slice(&chunk[..n]);
                    // As in `client_readable`: short read means drained.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.upstream_broken(idx, e, true);
                    return;
                }
            }
        }
        conn.last_activity = Instant::now();
        match up.parser.advance(&up.read_buf) {
            Ok(Some((response, consumed))) => {
                let leftover = up.read_buf.len() > consumed;
                let reusable = !saw_eof && !leftover && response.wants_keep_alive();
                let addr = up.addr;
                let job = up.job.take().expect("checked above");
                up.served += 1;
                let fetch_started = up.fetch_started.take();
                if reusable {
                    // Park for the next fetch to this origin.
                    up.read_buf.clear();
                    up.parser = ResponseParser::new();
                    up.written = 0;
                    self.backend.set_interest(idx + TOKEN_BASE, Interest::READABLE);
                    self.pool.release_idle(addr, idx, Instant::now());
                } else {
                    // One-shot connection (origin said close, or the
                    // stream is already at EOF).
                    self.backend.deregister(idx + TOKEN_BASE);
                    if let Some(mut gone) = self.conns[idx].take() {
                        if let Kind::Upstream(dead) = &mut gone.kind {
                            self.recycle_upstream_buf(dead);
                        }
                    }
                    self.freed_this_batch.push(idx);
                    self.pool.note_closed(addr);
                }
                // Feed the fetch's latency to the adaptive cap before
                // re-pumping, so the pump sees the updated limit.
                let elapsed = fetch_started.map(|t| t.elapsed()).unwrap_or_default();
                self.record_fetch(addr, elapsed, true);
                if let Some(j) = self.pool.complete(job) {
                    self.deliver(j, Ok(response));
                }
                self.pump_origin(addr);
            }
            Ok(None) if saw_eof => {
                let err = io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "origin closed mid-response",
                );
                self.upstream_broken(idx, err, true);
            }
            Ok(None) => {}
            Err(e) => {
                let err = io::Error::new(io::ErrorKind::InvalidData, e);
                self.upstream_broken(idx, err, true);
            }
        }
    }

    /// Tears down an upstream connection that can no longer serve. A
    /// *reused* pooled socket that died before yielding a single
    /// response byte was closed by the origin while parked — its job is
    /// retried once on a fresh socket (unless `allow_retry` is false,
    /// e.g. a timeout: the origin is slow, not the socket stale);
    /// everything else fails the job to its waiters.
    fn upstream_broken(&mut self, idx: usize, err: io::Error, allow_retry: bool) {
        let Some(mut conn) = self.conns[idx].take() else { return };
        self.backend.deregister(idx + TOKEN_BASE);
        self.freed_this_batch.push(idx);
        let Kind::Upstream(up) = &mut conn.kind else { return };
        let addr = up.addr;
        self.pool.note_closed(addr);
        match up.job {
            None => {
                // Died while parked: just forget it.
                self.recycle_upstream_buf(up);
                self.pool.forget_idle(idx);
                drop(conn);
            }
            Some(job) => {
                let got_bytes = !up.read_buf.is_empty() || up.parser.in_progress();
                let served = up.served;
                let fetch_started = up.fetch_started.take();
                self.recycle_upstream_buf(up);
                drop(conn); // closes the socket before any retry connects
                if allow_retry && self.pool.retry_eligible(job, served, got_bytes) {
                    // A stale parked socket isn't overload; the retry's
                    // own completion will produce the sample.
                    self.metrics.pool_retries.inc();
                    self.pool.requeue_for_retry(job);
                } else {
                    let elapsed = fetch_started.map(|t| t.elapsed()).unwrap_or_default();
                    self.record_fetch(addr, elapsed, false);
                    if let Some(j) = self.pool.complete(job) {
                        self.deliver(j, Err(err));
                    }
                }
            }
        }
        self.pump_origin(addr);
    }

    /// Hands a finished job's outcome to every waiter, in arrival order.
    /// All but the last waiter receive clones.
    fn deliver(&mut self, job: Job<Waiting>, result: io::Result<Response>) {
        let mut waiters = job.waiters;
        match result {
            Ok(response) => {
                let last = waiters.pop();
                for waiter in waiters {
                    let reply = (waiter.finish)(Ok(response.clone()));
                    self.complete_client(waiter.client, reply);
                }
                if let Some(waiter) = last {
                    let reply = (waiter.finish)(Ok(response));
                    self.complete_client(waiter.client, reply);
                }
            }
            Err(err) => {
                for waiter in waiters {
                    let reply = (waiter.finish)(Err(clone_err(&err)));
                    self.complete_client(waiter.client, reply);
                }
            }
        }
    }

    /// Delivers an asynchronously produced reply (upstream completion)
    /// to a client and resumes the connection — unless that client is
    /// the one currently being driven, in which case the reply is only
    /// queued and the active drive loop flushes it (keeping pipelined
    /// bursts iterative instead of recursive).
    fn complete_client(&mut self, idx: usize, reply: Reply) {
        if self.conns[idx].is_none() {
            return; // client gone; drop the reply
        }
        match reply {
            Reply::Full(response) => self.queue_response(idx, response),
            Reply::Prepared(prepared) => self.queue_prepared(idx, prepared),
        }
        if self.driving == Some(idx) {
            return;
        }
        self.resume_client(idx);
    }

    /// Closes connections that have made no progress in a long time,
    /// refuses requests still incomplete at their deadline, and reaps
    /// long-idle pooled origin sockets.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        enum Stale {
            Idle,
            SlowRequest,
            Upstream,
        }
        let stale: Vec<(usize, Stale)> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(idx, conn)| {
                let conn = conn.as_ref()?;
                let idle = now.duration_since(conn.last_activity);
                match &conn.kind {
                    Kind::Client(_) if idle > IDLE_TIMEOUT => Some((idx, Stale::Idle)),
                    Kind::Client(client) => {
                        let started = client.request_started?;
                        (now.duration_since(started) > REQUEST_TIMEOUT)
                            .then_some((idx, Stale::SlowRequest))
                    }
                    Kind::Upstream(up) if up.job.is_some() && idle > UPSTREAM_TIMEOUT => {
                        Some((idx, Stale::Upstream))
                    }
                    Kind::Upstream(_) => None,
                }
            })
            .collect();
        for (idx, why) in stale {
            match why {
                Stale::Idle => self.close_client(idx),
                Stale::SlowRequest => {
                    self.metrics.slow_requests.inc();
                    self.refuse(idx, StatusCode::REQUEST_TIMEOUT);
                    self.resume_client(idx);
                }
                Stale::Upstream => {
                    // A timeout is a slow origin, not a stale socket: fail
                    // the job outright rather than burning the retry.
                    let err = io::Error::new(io::ErrorKind::TimedOut, "origin fetch timed out");
                    self.upstream_broken(idx, err, false);
                }
            }
        }
        // Pooled idle sockets past their keep time.
        for (idx, addr) in self.pool.reap_idle(now, POOL_IDLE_TIMEOUT) {
            if let Some(mut conn) = self.conns[idx].take() {
                self.backend.deregister(idx + TOKEN_BASE);
                if let Kind::Upstream(up) = &mut conn.kind {
                    self.recycle_upstream_buf(up);
                }
                self.freed_this_batch.push(idx);
                self.pool.note_closed(addr);
                drop(conn);
            }
        }
    }

    /// Closes a client connection, detaching it from any fetch it waits
    /// on (the last waiter leaving a queued fetch cancels it) and
    /// returning its buffers to the reactor's pool for the next
    /// connection.
    fn close_client(&mut self, idx: usize) {
        let Some(mut conn) = self.conns[idx].take() else { return };
        self.backend.deregister(idx + TOKEN_BASE);
        self.freed_this_batch.push(idx);
        if let Kind::Client(client) = &mut conn.kind {
            self.clients -= 1;
            self.metrics.conns[self.reactor_index].set(self.clients);
            if let Some(ticket) = client.admitted.take() {
                // Abandoned mid-request (or mid-flush): release the
                // slot without feeding the limiter (no clean completion
                // to measure).
                if let Some(part) = self.admission.get_mut(&ticket.partition) {
                    part.in_flight = part.in_flight.saturating_sub(1);
                    self.overload_dirty = true;
                }
            }
            match client.pending {
                Pending::Upstream(job) => {
                    match self.pool.leave(job, |w| w.client == idx) {
                        // Other clients still await the fetch, or a
                        // connection is already fetching (it will finish
                        // and park; the result is discarded).
                        AfterLeave::StillWanted | AfterLeave::Orphaned => {}
                        AfterLeave::Dropped => {}
                    }
                }
                Pending::None => {}
            }
            self.recycle_client_bufs(client);
        }
        drop(conn);
        self.resume_accepting();
    }

    /// Adopts a freshly installed overload config: one atomic load on
    /// the hot path; on a version bump the pool limiter is swapped (or
    /// removed, restoring the static cap) and every admission
    /// partition's limiter is reconfigured in place, carrying learned
    /// limits instead of resetting them.
    fn sync_overload(&mut self) {
        let version = self.overload.version();
        if version == self.overload_version {
            return;
        }
        self.overload_version = version;
        self.overload_config = self.overload.config();
        match &self.overload_config.pool {
            // Invalid specs can't get here: `install` validates.
            Some(spec) => {
                let _ = self.pool.set_limiter(spec.clone());
            }
            None => self.pool.clear_limiter(MAX_CONNS_PER_ORIGIN),
        }
        match &self.overload_config.admission {
            Some(spec) => {
                for part in self.admission.values_mut() {
                    let _ = part.limiter.reconfigure(spec.clone());
                }
            }
            None => self.admission.clear(),
        }
        self.overload_dirty = true;
    }

    /// Admission control for one parsed request. Returns `true` if the
    /// request may proceed (a ticket is attached to the client); on
    /// `false` a `429 Too Many Requests` has been queued.
    fn admit_or_shed(&mut self, idx: usize, request: &Request) -> bool {
        let Some(spec) = self.overload_config.admission.clone() else {
            return true;
        };
        let mut key = partition_of(request.target());
        // Clients choose the key, so the table is bounded: once it holds
        // `MAX_PARTITIONS` names, every new one shares the overflow slot.
        if !self.admission.contains_key(key) && self.admission.len() >= MAX_PARTITIONS {
            key = OVERFLOW_PARTITION;
        }
        if !self.admission.contains_key(key) {
            let initial = self.overload_config.admission_initial;
            let Ok(limiter) = Limiter::new(spec, initial) else {
                return true; // validated at install time; defensive
            };
            self.admission.insert(
                Arc::from(key),
                PartitionState {
                    limiter,
                    in_flight: 0,
                    shed: 0,
                },
            );
        }
        let Some((key_arc, _)) = self.admission.get_key_value(key) else {
            return true;
        };
        let key_arc = Arc::clone(key_arc);
        let Some(part) = self.admission.get_mut(key) else {
            return true;
        };
        if part.in_flight < part.limiter.limit() {
            part.in_flight += 1;
            if let Some(conn) = self.conns[idx].as_mut() {
                if let Kind::Client(client) = &mut conn.kind {
                    client.admitted = Some(AdmissionTicket {
                        partition: key_arc,
                        started: Instant::now(),
                        status: None,
                    });
                }
            }
            return true;
        }
        part.shed += 1;
        self.overload_dirty = true;
        self.overload.shed.inc();
        let retry = self.overload_config.retry_after_secs;
        let response = Response::builder(StatusCode::TOO_MANY_REQUESTS)
            .header("retry-after", retry.to_string())
            .build();
        self.queue_response(idx, response);
        false
    }

    /// Records the queued response's status on the client's admission
    /// ticket. The ticket itself is *not* released here: release (and
    /// the limiter's latency sample) happens at flush completion
    /// ([`Reactor::finish_admission`]), so the time spent stalled on an
    /// unwritable client socket is part of the measured latency.
    fn note_response_status(&mut self, idx: usize, status: u16) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let Kind::Client(client) = &mut conn.kind else { return };
        if let Some(ticket) = client.admitted.as_mut() {
            ticket.status = Some(status);
        }
    }

    /// Releases a client's admission ticket once its response is fully
    /// flushed: the partition's in-flight count drops and the limiter
    /// is fed the request's end-to-end service time — queue, service,
    /// upstream *and* client write stalls (5xx count as overload
    /// signals). A ticket whose response is not yet queued (upstream
    /// still in flight) is left alone.
    fn finish_admission(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let Kind::Client(client) = &mut conn.kind else { return };
        let Some(ticket) = client.admitted.as_ref() else {
            return;
        };
        let Some(status) = ticket.status else {
            return; // no response queued yet; the ticket stays charged
        };
        let Some(AdmissionTicket { partition, started, .. }) = client.admitted.take() else {
            return;
        };
        let Some(part) = self.admission.get_mut(&partition) else {
            return; // partition cleared by a config swap mid-request
        };
        let in_flight = part.in_flight;
        part.in_flight = in_flight.saturating_sub(1);
        let latency_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let sample = LimitSample {
            in_flight,
            latency: CoreDuration::from_millis(latency_ms),
            outcome: if status >= 500 {
                LimitOutcome::Overload
            } else {
                LimitOutcome::Success
            },
        };
        part.limiter.on_sample(&sample);
        self.overload_dirty = true;
    }

    /// Gives parked backlog clients a deadline: when accepting has been
    /// paused at the connection bound for longer than `park_deadline`,
    /// drain a batch of parked connections with a static `503` + close
    /// instead of letting them wait forever.
    fn check_park_deadline(&mut self) {
        if self.accepting {
            return;
        }
        let Some(since) = self.paused_since else { return };
        if since.elapsed() < self.overload_config.park_deadline {
            return;
        }
        self.shed_backlog();
        self.paused_since = Some(Instant::now());
    }

    /// Accepts and immediately rejects up to [`PARK_SHED_BATCH`] parked
    /// connections with `503 Service Unavailable` + `Retry-After`.
    fn shed_backlog(&mut self) {
        let head = format!(
            "HTTP/1.1 503 Service Unavailable\r\nretry-after: {}\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
            self.overload_config.retry_after_secs
        );
        let mut shed: u64 = 0;
        while (shed as usize) < PARK_SHED_BATCH {
            match accept_nonblocking(&self.listener) {
                Ok(stream) => {
                    // Best effort: the head fits any fresh socket's send
                    // buffer; a peer that raced away just gets the close.
                    let _ = (&stream).write(head.as_bytes());
                    discard_input(&stream);
                    shed += 1;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if shed > 0 {
            self.overload.parked_shed.add(shed);
            self.overload_dirty = true;
        }
    }

    /// Pushes this reactor's overload snapshot (pool limit, partition
    /// limits, shed counts) to the shared handle when anything changed.
    fn publish_overload(&mut self) {
        if !self.overload_dirty {
            return;
        }
        self.overload_dirty = false;
        self.samples_unpublished = false;
        let mut partitions: Vec<PartitionSnap> = self
            .admission
            .iter()
            .map(|(key, part)| PartitionSnap {
                partition: key.to_string(),
                limit: part.limiter.limit(),
                in_flight: part.in_flight,
                shed: part.shed,
            })
            .collect();
        partitions.sort_by(|a, b| a.partition.cmp(&b.partition));
        self.overload.publish(
            self.reactor_index,
            ReactorOverloadSnap {
                pool: Some(self.pool.limit_snapshot()),
                partitions,
            },
        );
    }

    /// Returns a closing client's buffers to the pool and refreshes the
    /// shared high-water mark.
    fn recycle_client_bufs(&mut self, client: &mut ClientState) {
        self.bufs.give(client.write.take_buf());
        self.bufs
            .give(std::mem::take(&mut client.read_buf).into_vec());
        self.metrics.buf_pool_high_water.raise(self.bufs.high_water());
    }

    /// Returns a closing upstream connection's read buffer to the pool.
    fn recycle_upstream_buf(&mut self, up: &mut UpstreamState) {
        self.bufs.give(std::mem::take(&mut up.read_buf).into_vec());
        self.metrics.buf_pool_high_water.raise(self.bufs.high_water());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_response, write_request};
    use mutcon_http::types::{Method, StatusCode};
    use std::io::{Read, Write};

    struct Echo;
    impl Service for Echo {
        fn respond(&self, request: &Request, _l1: &mut L1Cache) -> ServiceResult {
            if request.method() != &Method::Get {
                return ServiceResult::Close;
            }
            ServiceResult::Respond(
                Response::ok()
                    .body(request.target().as_bytes().to_vec())
                    .build(),
            )
        }
    }

    fn engine(max_conns: usize, reactors: usize) -> EngineConfig {
        EngineConfig { max_conns, reactors, ..EngineConfig::default() }
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
        let server = EventLoop::start("test-echo", Arc::new(Echo), EngineConfig::default()).unwrap();
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
        let server = EventLoop::start("test-pipeline", Arc::new(Echo), EngineConfig::default()).unwrap();
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
        let server = EventLoop::start("test-close", Arc::new(Echo), EngineConfig::default()).unwrap();
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
        let server = EventLoop::start("test-multi", Arc::new(Echo), engine(64, 4)).unwrap();
        assert_eq!(server.reactor_count(), 4);
        // Enough connections that the kernel spreads them over several
        // listeners; every one must be served regardless of shard.
        for i in 0..32 {
            let resp = get(server.local_addr(), &format!("/conn/{i}")).unwrap();
            assert_eq!(resp.status(), StatusCode::OK);
            assert_eq!(&resp.body()[..], format!("/conn/{i}").as_bytes());
        }
    }

    #[test]
    fn connection_bound_parks_clients_in_backlog() {
        // One reactor so the two capacity slots are a single bound.
        let server = EventLoop::start("test-bound", Arc::new(Echo), engine(2, 1)).unwrap();
        // Fill both slots with idle keep-alive connections.
        let _a = TcpStream::connect(server.local_addr()).unwrap();
        let _b = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // A third client connects (kernel backlog) but is not served
        // until a slot frees.
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_request(&mut c, &Request::get("/queued").build()).unwrap();
        drop(_a); // free a slot
        let mut buf = BytesMut::new();
        let resp = read_response(&mut c, &mut buf).unwrap();
        assert_eq!(&resp.body()[..], b"/queued");
    }

    #[test]
    fn half_closed_peer_still_gets_all_pipelined_responses() {
        // Write two requests, shut down the write side, then read: both
        // responses must arrive before the server closes.
        let server = EventLoop::start("test-half-close", Arc::new(Echo), EngineConfig::default()).unwrap();
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
        let server = EventLoop::start("test-garbage", Arc::new(Echo), EngineConfig::default()).unwrap();
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
    fn small_connection_bounds_cap_the_reactor_count() {
        // A bound of 2 must mean 2 connections total, not 2 per shard:
        // the reactor count collapses to the bound.
        let server = EventLoop::start("test-tiny-bound", Arc::new(Echo), engine(2, 8)).unwrap();
        assert_eq!(server.reactor_count(), 2);
        assert_eq!(get(server.local_addr(), "/ok").unwrap().status(), StatusCode::OK);
    }

    #[test]
    fn connection_bound_splits_exactly_across_reactors() {
        // Non-divisible bounds must neither lose nor invent slots: the
        // shares sum to the bound, every reactor keeps at least one
        // slot, and no two shares differ by more than one.
        for (max_conns, reactors) in
            [(1024, 3), (7, 4), (5, 5), (1023, 64), (2, 2), (1, 1), (64, 7), (100, 9)]
        {
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

    #[test]
    fn parked_clients_get_a_503_after_the_deadline() {
        // At the connection bound, further clients sit in the kernel
        // backlog. They must not wait forever: once the park deadline
        // lapses the reactor drains them with a clean `503`.
        let overload = Arc::new(OverloadControl::new(OverloadConfig {
            park_deadline: Duration::from_millis(50),
            ..OverloadConfig::default()
        }));
        let server = EventLoop::start(
            "test-park-deadline",
            Arc::new(Echo),
            EngineConfig { overload: Arc::clone(&overload), ..engine(2, 1) },
        )
        .unwrap();
        // Fill both slots with idle keep-alive connections.
        let _a = TcpStream::connect(server.local_addr()).unwrap();
        let _b = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // The third client is parked; instead of stalling forever it
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
        assert!(overload.parked_shed() >= 1);
        // The slots themselves were untouched: freeing one serves a
        // newly connected client normally.
        drop(_a);
        let resp = get(server.local_addr(), "/after").unwrap();
        assert_eq!(&resp.body()[..], b"/after");
    }

    #[test]
    fn engine_metrics_track_accepts_and_open_connections() {
        let metrics = Arc::new(EngineMetrics::default());
        let server = EventLoop::start(
            "test-metrics",
            Arc::new(Echo),
            EngineConfig { metrics: Arc::clone(&metrics), ..engine(64, 2) },
        )
        .unwrap();
        assert_eq!(metrics.reactor_count(), 2);
        assert!(Arc::ptr_eq(server.metrics(), &metrics));
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

    /// An echo service with a shared cache that uses the reactor's L1 the
    /// way the proxy does: the first GET for a path stores + refills,
    /// later GETs must be L1 hits, and a store invalidates every
    /// reactor's copy.
    struct CachedEcho {
        cache: crate::cache::ShardedCache,
        metrics: Arc<EngineMetrics>,
    }

    impl Service for CachedEcho {
        fn respond(&self, request: &Request, l1: &mut L1Cache) -> ServiceResult {
            use crate::cache::{CacheEntry, L1Lookup};
            let path = request.target();
            let prepared = |entry: &CacheEntry| {
                ServiceResult::Prepared(PreparedResponse {
                    head: entry.head().clone(),
                    extra: b"x-cache: l1\r\n",
                    body: entry.body().clone(),
                })
            };
            match l1.lookup(path, self.cache.generation()) {
                L1Lookup::Hit(entry) => {
                    self.metrics.l1_hits.inc();
                    return prepared(&entry);
                }
                L1Lookup::Stale => self.metrics.l1_stale_rejects.inc(),
                L1Lookup::Miss => {}
            }
            let entry = self.cache.get(path).unwrap_or_else(|| {
                let body = Bytes::from(format!("body:{path}").into_bytes());
                let stamp = mutcon_core::time::Timestamp::from_millis(1);
                self.cache.insert_if_newer(path, CacheEntry::new(body, stamp, None, None))
            });
            l1.insert(path, Arc::clone(&entry));
            self.metrics.l1_refills.inc();
            prepared(&entry)
        }

        fn l1_capacity(&self) -> usize {
            32
        }
    }

    fn cached_echo() -> (Arc<EngineMetrics>, Arc<CachedEcho>) {
        let metrics = Arc::new(EngineMetrics::default());
        let service = Arc::new(CachedEcho {
            cache: crate::cache::ShardedCache::new(None),
            metrics: Arc::clone(&metrics),
        });
        (metrics, service)
    }

    #[test]
    fn l1_serves_validated_hits_and_invalidates_on_store() {
        let (metrics, service) = cached_echo();
        let server = EventLoop::start(
            "test-l1",
            Arc::clone(&service) as Arc<dyn Service>,
            EngineConfig { metrics: Arc::clone(&metrics), ..engine(64, 1) },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = BytesMut::new();
        // First GET: shared-cache path, refills the reactor's L1.
        write_request(&mut stream, &Request::get("/obj").build()).unwrap();
        let first = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(&first.body()[..], b"body:/obj");
        assert_eq!(metrics.l1_hits(), 0);
        assert!(metrics.l1_refills() >= 1);
        // Second GET on the same (only) reactor: must be an L1 hit with
        // identical bytes.
        write_request(&mut stream, &Request::get("/obj").build()).unwrap();
        let second = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(&second.body()[..], b"body:/obj");
        assert_eq!(second.headers().get("x-cache"), Some("l1"));
        assert_eq!(metrics.l1_hits(), 1);
        // A store supersedes the copy the L1 holds: it must be rejected
        // and the fresh body served.
        service.cache.insert(
            "/obj",
            crate::cache::CacheEntry::new(
                Bytes::from_static(b"fresh"),
                mutcon_core::time::Timestamp::from_millis(2),
                None,
                None,
            ),
        );
        write_request(&mut stream, &Request::get("/obj").build()).unwrap();
        let third = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(&third.body()[..], b"fresh");
        assert_eq!(metrics.l1_hits(), 1, "stale copy must not count as a hit");
        assert_eq!(metrics.l1_stale_rejects(), 1);
        // The refill from the fresh store serves the next request.
        write_request(&mut stream, &Request::get("/obj").build()).unwrap();
        let fourth = read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(&fourth.body()[..], b"fresh");
        assert_eq!(metrics.l1_hits(), 2);
    }

    #[test]
    fn generation_bump_clears_the_l1() {
        let (metrics, service) = cached_echo();
        let server = EventLoop::start(
            "test-l1-gen",
            Arc::clone(&service) as Arc<dyn Service>,
            EngineConfig { metrics: Arc::clone(&metrics), ..engine(64, 1) },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = BytesMut::new();
        for _ in 0..2 {
            write_request(&mut stream, &Request::get("/gen").build()).unwrap();
            read_response(&mut stream, &mut buf).unwrap();
        }
        assert_eq!(metrics.l1_hits(), 1);
        // A bulk invalidation (rule swap / epoch adoption) empties the
        // L1 wholesale: the next request goes back to the shared cache
        // (a refill, not a hit, and not a stale reject either — the
        // whole map was dropped).
        service.cache.bump_generation();
        write_request(&mut stream, &Request::get("/gen").build()).unwrap();
        read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(metrics.l1_hits(), 1);
        assert!(metrics.l1_refills() >= 2);
    }
}
