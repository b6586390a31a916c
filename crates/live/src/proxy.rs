//! The live caching proxy daemon.
//!
//! Serves client `GET`s from its cache while a background *refresh
//! plane* — [`ProxyConfig::refresh_workers`] poll workers, each with
//! its own keep-alive origin connection, stepping one shared scheduling
//! state machine ([`crate::runtime`]) — keeps configured objects
//! Δt-consistent with the origin by LIMD-scheduled `If-Modified-Since`
//! polls, and, when a group rule is set, Mt-consistent with one another
//! via triggered polls, exactly as in the simulator. One binary-ready
//! struct, ephemeral ports, clean shutdown on drop: the "implement it
//! in a real proxy" future work of §7, in miniature.
//!
//! Connections are served by the shared readiness-driven engine
//! ([`crate::server`]): one reactor per core (or
//! [`ProxyConfig::reactors`]), each with its own `SO_REUSEPORT`
//! listener shard and its own keep-alive origin pool — cache misses
//! ride pooled persistent connections, and identical concurrent misses
//! coalesce into a single origin fetch. There is no thread pool and no
//! thread per connection. The cache is the 16-way sharded
//! [`crate::cache::ShardedCache`], shared by every reactor, so the
//! refresher's write locks stall only 1/16th of concurrent hits instead
//! of all of them. Entries pre-render their serving head at store time,
//! so a hit is two shared slices handed to `writev` — no serialization
//! and no body copy on the hot path, however many clients share the
//! entry. Concurrency is bounded by [`ProxyConfig::max_conns`].
//!
//! # The admin control plane
//!
//! The refresh rules live in the hot-swappable
//! [`crate::runtime::ConsistencyRuntime`] and are operable at runtime
//! through three endpoints the reactors serve **locally** (no cache, no
//! upstream):
//!
//! * `GET /admin/rules` — the current epoch, group rule and per-path
//!   live state (Δ, TTR bounds, current adaptive TTR, last poll) as
//!   JSON.
//! * `PUT /admin/rules` — validate → epoch bump → atomic swap. Bad
//!   rules (duplicate paths, zero Δ, inverted TTR bounds) are rejected
//!   with `400` and a reason; nothing changes. A successful swap keeps
//!   the cache and every established connection: unchanged paths keep
//!   their adaptive-TTR state, changed paths rebuild, removed paths
//!   stop polling and their cache entries are evicted.
//! * `GET /admin/stats` — per-shard cache occupancy and evictions,
//!   per-reactor connection counts, origin-pool reuse/coalesce
//!   counters, wire-path syscall/copy counters (`writev` vs `write`
//!   calls, accept batches, body copies, buffer-pool traffic, interest
//!   coalescing), the refresh plane's worker/in-flight/drift figures,
//!   and the proxy's poll/hit/miss counters.
//!
//! When a bearer token is configured ([`ProxyConfig::admin_token`]),
//! every `/admin/*` request must carry
//! `Authorization: Bearer <token>` or it is refused with `401`. A
//! configured [`ProxyConfig::rules_file`] is re-read on `SIGHUP`,
//! feeding the same install path as `PUT /admin/rules`.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use mutcon_core::limd::PollResult;
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::time::Duration;
use mutcon_sim::reactor::BackendKind;
use mutcon_http::headers::HeaderName;
use mutcon_http::message::{Request, Response};
use mutcon_http::types::{Method, StatusCode};
use mutcon_traces::json::Json;

use crate::cache::{CacheEntry, L1Cache, L1Lookup, ShardedCache};
use crate::client::{get_wire, ObjectStamps, PersistentClient};
use crate::metrics::{metrics, put, Counter};
use crate::overload::{parse_overload_body, render_overload, OverloadControl};
use crate::runtime::{ConsistencyRuntime, InstallReport, PollKind};
use crate::server::{
    default_reactors, EngineConfig, EngineMetrics, EventLoop, PreparedResponse, Reply, Service,
    ServiceResult, DEFAULT_L1_OBJECTS, DEFAULT_MAX_CONNS, DEFAULT_REFRESH_WORKERS,
};

/// Consistency requirements for one cached object.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshRule {
    /// Object path at the origin (and at this proxy).
    pub path: String,
    /// The Δt tolerance.
    pub delta: Duration,
    /// Upper TTR bound (defaults to 64·Δ).
    pub ttr_max: Duration,
}

impl RefreshRule {
    /// A rule with the default TTR ceiling.
    pub fn new(path: impl Into<String>, delta: Duration) -> Self {
        RefreshRule {
            path: path.into(),
            delta,
            // Saturating: an absurd Δ is for `runtime::validate` to
            // refuse with a reason, not for this to overflow on.
            ttr_max: delta.saturating_mul(64),
        }
    }

    /// Overrides the TTR ceiling.
    pub fn ttr_max(mut self, ttr_max: Duration) -> Self {
        self.ttr_max = ttr_max;
        self
    }
}

/// Mutual-consistency requirements across all rule paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupRule {
    /// The Mt tolerance δ.
    pub delta: Duration,
    /// Triggered polls or the rate heuristic.
    pub policy: MtPolicy,
}

/// Proxy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyConfig {
    /// Where the origin listens.
    pub origin_addr: SocketAddr,
    /// Objects to keep fresh.
    pub rules: Vec<RefreshRule>,
    /// Optional Mt coordination across all rule paths.
    pub group: Option<GroupRule>,
    /// Cache bound in objects (`None` = unbounded, the paper's model);
    /// enforced per shard with LRU eviction.
    pub cache_objects: Option<usize>,
    /// Reactor threads for the connection engine (`None` = one per
    /// core, [`crate::server::default_reactors`]).
    pub reactors: Option<usize>,
    /// Concurrent-connection bound across all reactors (`None` =
    /// [`crate::server::DEFAULT_MAX_CONNS`]).
    pub max_conns: Option<usize>,
    /// Read by nothing; kept because `benchmark/` (read-only here) sets it.
    pub backend: Option<BackendKind>,
    /// Per-reactor L1 hot-object cache capacity in objects (`None` =
    /// [`crate::server::DEFAULT_L1_OBJECTS`]; `Some(0)` disables the L1
    /// entirely). A validated L1 hit is served
    /// without touching any shared shard lock; coherence comes from the
    /// supersede flag on each copy (see [`crate::cache`]).
    pub l1_objects: Option<usize>,
    /// Poll workers for the refresh plane (`None` =
    /// [`crate::server::DEFAULT_REFRESH_WORKERS`]). Each worker owns
    /// one persistent keep-alive origin connection and takes due paths
    /// from the shared scheduler itself, so this is the number of polls
    /// on the wire at once.
    pub refresh_workers: Option<usize>,
    /// Bearer token gating the `/admin/*` plane (`None` or empty = no
    /// auth). When set, admin requests without
    /// `Authorization: Bearer <token>` get `401`.
    pub admin_token: Option<String>,
    /// Rules file re-read on `SIGHUP` (`None` = no signal hook). The
    /// file holds the same JSON body `PUT /admin/rules` accepts; a
    /// successful re-read feeds [`ConsistencyRuntime::install`] exactly
    /// as the HTTP handler does, a failed one bumps `reload_errors` and
    /// changes nothing.
    pub rules_file: Option<PathBuf>,
}

impl ProxyConfig {
    /// A configuration with no rules, no group, an unbounded cache and
    /// the default reactor and connection counts.
    pub fn new(origin_addr: SocketAddr) -> ProxyConfig {
        ProxyConfig {
            origin_addr,
            rules: Vec::new(),
            group: None,
            cache_objects: None,
            reactors: None,
            max_conns: None,
            backend: None,
            l1_objects: None,
            refresh_workers: None,
            admin_token: None,
            rules_file: None,
        }
    }
}

metrics! {
    /// The proxy's own counters, counted by the reactors (hits, misses),
    /// the poll workers and whoever reloads the rules.
    pub(crate) struct Counters, snapshot
    /// A snapshot of the proxy's counters.
    ProxyStats {
        /// Refresher polls sent to the origin.
        polls: Counter => "proxy.polls";
        /// Polls initiated by the mutual-consistency coordinator.
        triggered: Counter => "proxy.triggered";
        /// Polls that brought back a fresh copy.
        refreshes: Counter => "proxy.refreshes";
        /// Client requests served from cache.
        hits: Counter => "proxy.hits";
        /// Client requests that had to fetch from the origin.
        misses: Counter => "proxy.misses";
        /// Failed origin polls (timeouts, resets).
        errors: Counter => "proxy.errors";
        /// Rule reloads applied through `PUT /admin/rules` or `SIGHUP`.
        reloads: Counter => "proxy.reloads";
        /// `SIGHUP` re-reads that failed (unreadable file, bad JSON,
        /// invalid rules) and therefore changed nothing.
        reload_errors: Counter => "proxy.reload_errors";
    }
}

struct Shared {
    origin: SocketAddr,
    /// `origin` rendered once: the `host` of every upstream request.
    origin_host: String,
    cache: ShardedCache,
    counters: Counters,
    runtime: Arc<ConsistencyRuntime>,
    /// Bearer token gating `/admin/*`; `None` leaves the plane open.
    admin_token: Option<String>,
}

/// The running proxy; shuts down (and joins its threads) on drop.
pub struct LiveProxy {
    server: EventLoop,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    refresher: Option<JoinHandle<()>>,
    /// Keeps the `SIGHUP` → rules-file reload listener registered for
    /// the proxy's lifetime (dropped, and thus unregistered, with it).
    _sighup: Option<mutcon_sim::signal::SighupGuard>,
}

impl LiveProxy {
    /// Binds a localhost listener on an ephemeral port and starts the
    /// reactor and the background refresher. The refresh workers run
    /// (parked) even with an empty rule set, so rules installed later
    /// through `PUT /admin/rules` start polling without a restart.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; returns [`io::ErrorKind::InvalidInput`]
    /// for invalid rules (zero Δ, duplicate paths, inverted TTR bounds —
    /// the same validation `PUT /admin/rules` applies) and for a
    /// zero-object cache bound.
    pub fn start(config: ProxyConfig) -> io::Result<LiveProxy> {
        let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidInput, reason);
        if config.cache_objects == Some(0) {
            return Err(invalid("cache_objects must be positive (None = unbounded)".to_owned()));
        }
        let runtime = ConsistencyRuntime::new(config.rules, config.group).map_err(invalid)?;
        let shared = Arc::new(Shared {
            origin: config.origin_addr,
            origin_host: config.origin_addr.to_string(),
            cache: ShardedCache::new(config.cache_objects),
            counters: Counters::default(),
            runtime: Arc::clone(&runtime),
            admin_token: config.admin_token.filter(|t| !t.is_empty()),
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        let metrics = Arc::new(EngineMetrics::default());
        let overload = Arc::new(OverloadControl::default());
        let server = EventLoop::start(
            "mutcon-live-proxy-reactor",
            Arc::new(ProxyService {
                shared: Arc::clone(&shared),
                metrics: Arc::clone(&metrics),
                overload: Arc::clone(&overload),
                l1_objects: config.l1_objects.unwrap_or(DEFAULT_L1_OBJECTS),
            }),
            EngineConfig {
                max_conns: config.max_conns.unwrap_or(DEFAULT_MAX_CONNS),
                reactors: config.reactors.unwrap_or_else(default_reactors),
                metrics,
                overload,
            },
        )?;

        let refresher = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            let workers = config.refresh_workers.unwrap_or(DEFAULT_REFRESH_WORKERS);
            // Hosts the scope the poll workers live in: `run` spawns
            // them, and this thread only waits for them to leave.
            Some(
                std::thread::Builder::new()
                    .name("mutcon-live-refresh".into())
                    .spawn(move || {
                        let runtime = Arc::clone(&shared.runtime);
                        let shared = &shared;
                        runtime.run(
                            &shutdown,
                            workers,
                            // Each poll worker owns one persistent
                            // keep-alive origin connection; a stale
                            // socket reconnects transparently inside
                            // the client.
                            |_worker| {
                                let mut client = PersistentClient::new(
                                    shared.origin,
                                    StdDuration::from_secs(2),
                                );
                                move |kind: PollKind, path: &str| {
                                    if kind == PollKind::Triggered {
                                        shared.counters.triggered.inc();
                                    }
                                    poll_origin(shared, &mut client, path)
                                }
                            },
                            // Un-ruled paths lose their cached copy when
                            // a worker adopts the swap — this fires for
                            // every install, including direct
                            // `runtime().install()` callers that never
                            // touch the HTTP handler.
                            |removed| {
                                shared.cache.remove(removed);
                            },
                            // Every adopted swap — HTTP PUT or direct
                            // install — bulk-invalidates the reactors'
                            // L1s. (The PUT handler also bumps at
                            // install time; the double bump is harmless
                            // and closes the adoption lag.)
                            |_version| {
                                shared.cache.bump_generation();
                            },
                        );
                    })?,
            )
        };

        // SIGHUP → re-read the rules file, when one is configured. The
        // guard unregisters on drop, so the listener dies with the
        // proxy; the reload itself is the same validate → install →
        // evict/bump path `PUT /admin/rules` takes.
        let sighup = match config.rules_file {
            Some(path) => {
                let shared = Arc::clone(&shared);
                Some(
                    mutcon_sim::signal::on_sighup(move || {
                        reload_rules_file(&shared, &path);
                    })?,
                )
            }
            None => None,
        };

        Ok(LiveProxy {
            server,
            shared,
            shutdown,
            refresher,
            _sighup: sighup,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ProxyStats {
        self.shared.counters.snapshot()
    }

    /// Number of objects currently cached (across all shards).
    pub fn cached_objects(&self) -> usize {
        self.shared.cache.len()
    }

    /// How many reactor threads serve this proxy.
    pub fn reactor_count(&self) -> usize {
        self.server.reactor_count()
    }

    /// The hot-swappable consistency runtime (rules epoch + live state).
    /// The HTTP admin plane is a thin layer over this.
    pub fn runtime(&self) -> &Arc<ConsistencyRuntime> {
        &self.shared.runtime
    }

    /// The connection engine's always-on counters — syscall and copy
    /// tallies included, so tests can assert the hit path stays
    /// zero-copy without scraping `/admin/stats`.
    pub fn engine_metrics(&self) -> &Arc<EngineMetrics> {
        self.server.metrics()
    }

    /// The hot-swappable overload control (admission shedding + adaptive
    /// origin fan-out). `GET`/`PUT /admin/overload` is a thin layer over
    /// this, like the rules admin over [`LiveProxy::runtime`].
    pub fn overload(&self) -> &Arc<OverloadControl> {
        self.server.overload()
    }
}

impl Drop for LiveProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Idle workers wait on the runtime's condvar, possibly with
        // nothing due; the wake makes them observe the flag now instead
        // of at the next poll deadline.
        self.shared.runtime.wake();
        if let Some(handle) = self.refresher.take() {
            let _ = handle.join();
        }
        // The EventLoop field's own Drop wakes and joins the reactor.
    }
}

impl std::fmt::Debug for LiveProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveProxy")
            .field("addr", &self.local_addr())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The request handler running on the reactor thread.
struct ProxyService {
    shared: Arc<Shared>,
    metrics: Arc<EngineMetrics>,
    overload: Arc<OverloadControl>,
    /// Per-reactor L1 capacity (resolved from config at start; 0
    /// disables).
    l1_objects: usize,
}

impl Service for ProxyService {
    fn respond(&self, request: &Request, l1: &mut L1Cache) -> ServiceResult {
        let path = request.target();
        // The admin prefix is dispatched locally on the reactor — it
        // never touches the cache-miss/upstream machinery. When a
        // bearer token is configured, it gates every admin endpoint.
        if path.starts_with("/admin/") {
            if let Some(denied) = self.check_admin_auth(request) {
                return ServiceResult::Respond(denied);
            }
            return ServiceResult::Respond(self.admin(request));
        }
        if request.method() != &Method::Get {
            return ServiceResult::Respond(
                Response::builder(StatusCode::METHOD_NOT_ALLOWED).build(),
            );
        }

        // Cache hit: the entry's pre-rendered head and shared body go
        // out as-is — no serialization, no body copy, one writev. The
        // reactor's own L1 is asked first, so a hot path skips the shard
        // lock entirely; an L2 hit refills it for the *next* request.
        let cache = &self.shared.cache;
        let use_l1 = self.l1_objects > 0;
        let hit = |entry: &CacheEntry| {
            self.shared.counters.hits.inc();
            ServiceResult::Prepared(prepared(entry, true))
        };
        if use_l1 {
            match l1.lookup(path, cache.generation()) {
                L1Lookup::Hit(entry) => {
                    self.metrics.l1_hits.inc();
                    return hit(&entry);
                }
                L1Lookup::Stale => self.metrics.l1_stale_rejects.inc(),
                L1Lookup::Miss => {}
            }
        }
        if let Some(entry) = cache.get(path) {
            let response = hit(&entry);
            if use_l1 {
                self.metrics.l1_refills.inc();
                self.metrics.l1_evictions.add(u64::from(l1.insert(path, entry)));
            }
            return response;
        }

        // Miss: fetch from the origin through the reactor (its own
        // nonblocking state machine), cache, serve.
        self.shared.counters.misses.inc();
        let shared = Arc::clone(&self.shared);
        // `connection: keep-alive` advertised explicitly: the fetch
        // rides a pooled persistent origin connection, and identical
        // request bytes are the pool's coalescing key.
        let request = get_wire(path, &self.shared.origin_host, None);
        let path = path.to_owned();
        ServiceResult::Upstream {
            addr: self.shared.origin,
            request,
            finish: Box::new(move |result| match result {
                Ok(mut response) => {
                    let stored = match response.status() {
                        StatusCode::OK => store_response(&shared, &path, &response),
                        _ => None,
                    };
                    match stored {
                        // Serve the freshly stored entry the same
                        // zero-copy way a hit would.
                        Some(entry) => Reply::Prepared(prepared(&entry, false)),
                        // 404 etc., or a 200 without a modification
                        // stamp: pass through uncached. `Connection` is
                        // hop-by-hop (RFC 7230 §6.1): the origin's choice
                        // governs the pooled origin socket, not the
                        // client connection — strip it before forwarding
                        // (the engine re-adds `close` when the *client*
                        // asked for it).
                        None => {
                            response.headers_mut().remove(HeaderName::CONNECTION);
                            Reply::Full(response)
                        }
                    }
                }
                Err(_) => Reply::Full(
                    Response::builder(StatusCode::INTERNAL_SERVER_ERROR)
                        .body(&b"origin unreachable\n"[..])
                        .build(),
                ),
            }),
        }
    }

    fn l1_capacity(&self) -> usize {
        self.l1_objects
    }
}

/// Byte equality whose running time depends only on the lengths, so a
/// wrong token does not reveal how long a prefix of it was right.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |diff, (x, y)| diff | (x ^ y)) == 0
}

fn json_response(status: StatusCode, value: &Json) -> Response {
    Response::builder(status)
        .header(HeaderName::CONTENT_TYPE, "application/json")
        .body(format!("{value}\n").into_bytes())
        .build()
}

fn error_response(status: StatusCode, reason: &str) -> Response {
    let mut body = std::collections::BTreeMap::new();
    body.insert("error".to_owned(), Json::String(reason.to_owned()));
    json_response(status, &Json::Object(body))
}

fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

impl ProxyService {
    /// Returns the `401` response when a bearer token is configured and
    /// the request doesn't carry it; `None` admits the request. Uses
    /// the standard `Authorization: Bearer <token>` scheme
    /// (case-sensitive token, scheme per RFC 6750). The token compare
    /// takes the same time wherever the first wrong byte sits.
    fn check_admin_auth(&self, request: &Request) -> Option<Response> {
        let expected = self.shared.admin_token.as_deref()?;
        let authorized = request
            .headers()
            .get("authorization")
            .and_then(|value| value.trim().strip_prefix("Bearer "))
            .is_some_and(|token| constant_time_eq(token.trim().as_bytes(), expected.as_bytes()));
        if authorized {
            None
        } else {
            let mut response =
                error_response(StatusCode::UNAUTHORIZED, "missing or invalid bearer token");
            response
                .headers_mut()
                .insert("www-authenticate", "Bearer");
            Some(response)
        }
    }

    /// Dispatches one `/admin/…` request locally.
    fn admin(&self, request: &Request) -> Response {
        match (request.method(), request.target()) {
            (Method::Get, "/admin/rules") => self.rules_json(),
            (Method::Put, "/admin/rules") => self.apply_rules(request.body()),
            (Method::Get, "/admin/stats") => self.stats_json(),
            (Method::Get, "/admin/overload") => self.overload_text(),
            (Method::Put, "/admin/overload") => self.apply_overload(request.body()),
            (_, "/admin/rules" | "/admin/stats" | "/admin/overload") => {
                Response::builder(StatusCode::METHOD_NOT_ALLOWED).build()
            }
            _ => error_response(StatusCode::NOT_FOUND, "unknown admin endpoint"),
        }
    }

    /// `GET /admin/overload`: the installed config in the same
    /// `key=value` text form `PUT` accepts, so a round trip is
    /// copy-paste.
    fn overload_text(&self) -> Response {
        Response::ok()
            .header(HeaderName::CONTENT_TYPE, "text/plain")
            .body(render_overload(&self.overload.config()).into_bytes())
            .build()
    }

    /// `PUT /admin/overload`: parse → validate → versioned install; the
    /// reactors adopt the new limiters on their next loop turn, carrying
    /// learned limits over. Bad bodies change nothing.
    fn apply_overload(&self, body: &[u8]) -> Response {
        let Ok(text) = std::str::from_utf8(body) else {
            return error_response(StatusCode::BAD_REQUEST, "body is not UTF-8");
        };
        match parse_overload_body(text).map(|config| self.overload.install(config)) {
            Ok(Ok(version)) => {
                json_response(StatusCode::OK, &obj([("version", Json::Number(version as f64))]))
            }
            Ok(Err(reason)) | Err(reason) => {
                error_response(StatusCode::BAD_REQUEST, &reason.to_string())
            }
        }
    }

    /// `GET /admin/rules`: current epoch + per-path live state.
    fn rules_json(&self) -> Response {
        let runtime = &self.shared.runtime;
        let epoch = runtime.current();
        let status: HashMap<String, _> = runtime
            .status()
            .into_iter()
            .map(|s| (s.path.clone(), s))
            .collect();
        let rules: Vec<Json> = epoch
            .rules
            .iter()
            .zip(&epoch.limd)
            .map(|(rule, limd)| {
                let live = status.get(&rule.path);
                obj([
                    ("path", Json::String(rule.path.clone())),
                    ("delta_ms", Json::Number(rule.delta.as_millis() as f64)),
                    ("ttr_max_ms", Json::Number(rule.ttr_max.as_millis() as f64)),
                    ("limd", Json::String(limd.to_spec())),
                    (
                        "ttr_ms",
                        live.map_or(Json::Null, |s| Json::Number(s.ttr.as_millis() as f64)),
                    ),
                    (
                        "last_poll_unix_ms",
                        live.and_then(|s| s.last_poll_unix_ms)
                            .map_or(Json::Null, |ms| Json::Number(ms as f64)),
                    ),
                    (
                        "polls",
                        live.map_or(Json::Null, |s| Json::Number(s.polls as f64)),
                    ),
                    (
                        "rule_epoch",
                        live.map_or(Json::Null, |s| Json::Number(s.rule_epoch as f64)),
                    ),
                ])
            })
            .collect();
        let group = epoch.group.map_or(Json::Null, |g| {
            obj([
                ("delta_ms", Json::Number(g.delta.as_millis() as f64)),
                ("policy", Json::String(g.policy.to_string())),
            ])
        });
        let doc = obj([
            ("epoch", Json::Number(epoch.version as f64)),
            ("group", group),
            ("rules", Json::Array(rules)),
        ]);
        json_response(StatusCode::OK, &doc)
    }

    /// `PUT /admin/rules`: parse → validate → epoch bump → atomic swap.
    fn apply_rules(&self, body: &[u8]) -> Response {
        match parse_rules_body(body) {
            Err(reason) => error_response(StatusCode::BAD_REQUEST, &reason),
            Ok((rules, group)) => match self.shared.runtime.install(rules, group) {
                Err(reason) => error_response(StatusCode::BAD_REQUEST, &reason),
                Ok(report) => {
                    apply_install_effects(&self.shared, &report);
                    let doc = obj([
                        ("epoch", Json::Number(report.version as f64)),
                        (
                            "added",
                            Json::Array(report.added.iter().cloned().map(Json::String).collect()),
                        ),
                        (
                            "changed",
                            Json::Array(
                                report.changed.iter().cloned().map(Json::String).collect(),
                            ),
                        ),
                        (
                            "removed",
                            Json::Array(
                                report.removed.iter().cloned().map(Json::String).collect(),
                            ),
                        ),
                    ]);
                    json_response(StatusCode::OK, &doc)
                }
            },
        }
    }

    /// `GET /admin/stats`: every declared metric at its path, then the
    /// sections that are not counters: reactors and overload state.
    fn stats_json(&self) -> Response {
        let mut doc = Json::Null;
        self.shared.cache.render(&mut doc);
        self.metrics.render(&mut doc);
        self.overload.render(&mut doc);
        self.shared.runtime.refresh_metrics().render(&mut doc);
        self.shared.counters.render(&mut doc);
        put(&mut doc, "cache.l1.capacity", Json::Number(self.l1_objects as f64));
        let reactors = self
            .metrics
            .reactor_connections()
            .into_iter()
            .zip(self.metrics.reactor_accepted())
            .map(|(open, accepted)| {
                obj([
                    ("connections", Json::Number(open as f64)),
                    ("accepted", Json::Number(accepted as f64)),
                ])
            });
        put(&mut doc, "reactors", Json::Array(reactors.collect()));
        self.overload_json(&mut doc);
        json_response(StatusCode::OK, &doc)
    }

    /// The hand-built part of the `overload` section: installed config,
    /// and each reactor's live pool limit, recent fetch samples and
    /// admission partitions.
    fn overload_json(&self, doc: &mut Json) {
        let config = self.overload.config();
        let spec = |c: &Option<mutcon_core::limit::LimiterConfig>| {
            c.as_ref().map_or(Json::Null, |c| Json::String(c.to_spec()))
        };
        let reactors = self
            .overload
            .reactor_snapshots(self.metrics.reactor_count())
            .into_iter()
            .map(|r| {
                let pool = r.pool.map_or(Json::Null, |p| {
                    obj([
                        ("limit", Json::Number(p.limit as f64)),
                        ("algorithm", p.algorithm.map_or(Json::Null, Json::String)),
                        ("samples_ok", Json::Number(p.samples_ok as f64)),
                        ("samples_overload", Json::Number(p.samples_overload as f64)),
                        (
                            "recent",
                            Json::Array(
                                p.recent
                                    .iter()
                                    .map(|s| {
                                        obj([
                                            ("latency_ms", Json::Number(s.latency_ms as f64)),
                                            ("ok", Json::Bool(s.ok)),
                                            ("limit_after", Json::Number(s.limit_after as f64)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                });
                let partitions = Json::Array(
                    r.partitions
                        .into_iter()
                        .map(|p| {
                            obj([
                                ("partition", Json::String(p.partition)),
                                ("limit", Json::Number(p.limit as f64)),
                                ("in_flight", Json::Number(p.in_flight as f64)),
                                ("shed", Json::Number(p.shed as f64)),
                            ])
                        })
                        .collect(),
                );
                obj([("pool", pool), ("partitions", partitions)])
            });
        put(doc, "overload.reactors", Json::Array(reactors.collect()));
        put(doc, "overload.version", Json::Number(self.overload.version() as f64));
        put(doc, "overload.admission", spec(&config.admission));
        put(doc, "overload.pool", spec(&config.pool));
        put(doc, "overload.retry_after_secs", Json::Number(f64::from(config.retry_after_secs)));
        put(doc, "overload.park_deadline_ms", Json::Number(config.park_deadline.as_millis() as f64));
        put(doc, "overload.admission_initial", Json::Number(config.admission_initial as f64));
    }
}

/// Parses a `PUT /admin/rules` body:
///
/// ```json
/// {"rules": [{"path": "/obj", "delta_ms": 50, "ttr_max_ms": 3200}],
///  "group": {"delta_ms": 100, "policy": "triggered"}}
/// ```
///
/// `ttr_max_ms` defaults to 64·Δ (as [`RefreshRule::new`] does); `group`
/// may be absent or `null`; the policy string is the canonical
/// [`MtPolicy`] wire form (`baseline`, `triggered`, `rate:T`).
fn parse_rules_body(body: &[u8]) -> Result<(Vec<RefreshRule>, Option<GroupRule>), String> {
    // A typo'd key must not silently fall back to a default (the same
    // stance `LimdConfig::from_spec` takes).
    fn known_keys_only(value: &Json, allowed: &[&str], what: &str) -> Result<(), String> {
        let Json::Object(map) = value else {
            return Err(format!("{what} must be a JSON object"));
        };
        for key in map.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("{what}: unknown key `{key}`"));
            }
        }
        Ok(())
    }

    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = mutcon_traces::json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    known_keys_only(&doc, &["rules", "group"], "rules document")?;
    let rules_json = doc
        .get("rules")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing `rules` array".to_owned())?;
    let mut rules = Vec::with_capacity(rules_json.len());
    for (i, r) in rules_json.iter().enumerate() {
        known_keys_only(r, &["path", "delta_ms", "ttr_max_ms"], &format!("rule #{i}"))?;
        let path = r
            .get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("rule #{i}: missing `path` string"))?;
        let delta_ms = r
            .get("delta_ms")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("rule for {path}: `delta_ms` must be a non-negative integer"))?;
        let mut rule = RefreshRule::new(path, Duration::from_millis(delta_ms));
        if let Some(ttr) = r.get("ttr_max_ms") {
            let ttr_max = ttr
                .as_u64()
                .ok_or_else(|| format!("rule for {path}: `ttr_max_ms` must be a non-negative integer"))?;
            rule = rule.ttr_max(Duration::from_millis(ttr_max));
        }
        rules.push(rule);
    }
    let group = match doc.get("group") {
        None => None,
        Some(g) if g.is_null() => None,
        Some(g) => {
            known_keys_only(g, &["delta_ms", "policy"], "group")?;
            let delta_ms = g
                .get("delta_ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| "group: `delta_ms` must be a non-negative integer".to_owned())?;
            let policy = g
                .get("policy")
                .and_then(Json::as_str)
                .unwrap_or("triggered")
                .parse::<MtPolicy>()
                .map_err(|e| format!("group: {e}"))?;
            Some(GroupRule {
                delta: Duration::from_millis(delta_ms),
                policy,
            })
        }
    };
    Ok((rules, group))
}

/// The cache-and-counter side effects of an adopted rules install,
/// shared by the `PUT /admin/rules` handler and the `SIGHUP` file
/// reload.
///
/// Paths whose rule is gone lose their cached copy: nothing refreshes
/// them anymore, and the refresher's epoch gate keeps an in-flight poll
/// from putting one back. (The refresher also evicts on adoption — see
/// the `on_removed` hook — but that lags by up to one worker wake;
/// evicting here too makes the install's effect immediate. A later
/// client miss may re-cache the path like any unruled object: a fresh
/// copy at fetch time, just never refreshed thereafter.) The
/// generation bump bulk-invalidates every reactor's L1: the rule swap
/// may change what a path's bytes *mean* (Δ, group membership), so
/// reactor-local copies are cleared wholesale on their next lookup
/// rather than trusting per-path stamps alone.
fn apply_install_effects(shared: &Shared, report: &InstallReport) {
    for path in &report.removed {
        shared.cache.remove(path);
    }
    shared.cache.bump_generation();
    shared.counters.reloads.inc();
}

/// One `SIGHUP`-triggered re-read of the configured rules file: read →
/// parse → validate → install → the same effects as an admin `PUT`. Any
/// failure (unreadable file, bad JSON, invalid rules) bumps
/// `reload_errors` and leaves the running epoch untouched.
fn reload_rules_file(shared: &Shared, path: &Path) {
    let outcome = std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|body| parse_rules_body(&body))
        .and_then(|(rules, group)| shared.runtime.install(rules, group));
    match outcome {
        Ok(report) => apply_install_effects(shared, &report),
        Err(_) => {
            shared.counters.reload_errors.inc();
        }
    }
}

/// Stores a 200 response in the cache; returns the entry now resident —
/// the stored one, or a strictly fresher copy that a concurrent refresh
/// raced in first (a slow fetch must never roll the cache backwards).
/// `None` when the response carries no modification stamp and is
/// uncacheable.
fn store_response(shared: &Shared, path: &str, response: &Response) -> Option<Arc<CacheEntry>> {
    let stamps = ObjectStamps::of(response);
    let lm = stamps.last_modified?;
    // Pre-rendering the serving head happens here, at store time, on
    // the fetching/refreshing thread — never while a hit is served.
    let entry = CacheEntry::new(
        response.body().clone(),
        lm,
        stamps.value,
        stamps.version.map(str::to_owned),
    );
    let resident = shared.cache.insert_if_newer(path, entry);
    if resident.last_modified() == lm {
        shared.counters.refreshes.inc();
    }
    Some(resident)
}

/// One refresher poll over the persistent keep-alive connection.
/// Returns the poll result for the adaptation layers, or `None` on a
/// network error. The cache store is gated on the path still being ruled
/// in the **current** epoch: a rule removed while the poll was on the
/// wire means the response is discarded (and any raced-in entry
/// re-evicted), so a dead rule cannot resurrect its cache entry.
fn poll_origin(shared: &Shared, client: &mut PersistentClient, path: &str) -> Option<PollResult> {
    let validator = shared.cache.get(path).map(|e| e.last_modified());
    shared.counters.polls.inc();
    match client.get(path, validator) {
        Ok(response) if response.status() == StatusCode::NOT_MODIFIED => {
            Some(PollResult::NotModified)
        }
        Ok(response) if response.status() == StatusCode::OK => {
            // The LIMD layer observes what *this poll* saw, not what
            // ended up resident (a concurrent fetch may be fresher).
            let lm = ObjectStamps::of(&response).last_modified?;
            if !shared.runtime.contains(path) {
                shared.cache.remove(path);
                return None;
            }
            store_response(shared, path, &response)?;
            // Re-check after the store: an epoch swap that removed the
            // path *between* the gate and the insert is unwound here
            // (the admin handler's own evict covers the other order).
            if !shared.runtime.contains(path) {
                shared.cache.remove(path);
                return None;
            }
            let history = mutcon_http::extensions::modification_history(response.headers());
            Some(PollResult::Modified {
                last_modified: lm,
                history,
            })
        }
        Ok(_) | Err(_) => {
            shared.counters.errors.inc();
            None
        }
    }
}

/// The zero-copy serving form of a cache entry: the head pre-rendered
/// at store time, a static `x-cache` marker line, and the shared body
/// slice — two refcount bumps, no serialization.
fn prepared(entry: &CacheEntry, hit: bool) -> PreparedResponse {
    PreparedResponse {
        head: entry.head().clone(),
        extra: if hit {
            b"x-cache: hit\r\n"
        } else {
            b"x-cache: miss\r\n"
        },
        body: entry.body().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rules_body_accepts_the_documented_shape() {
        let (rules, group) = parse_rules_body(
            br#"{"rules": [{"path": "/a", "delta_ms": 50},
                           {"path": "/b", "delta_ms": 20, "ttr_max_ms": 400}],
                 "group": {"delta_ms": 100, "policy": "rate:0.5"}}"#,
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].path, "/a");
        assert_eq!(rules[0].delta, Duration::from_millis(50));
        assert_eq!(rules[0].ttr_max, Duration::from_millis(50) * 64);
        assert_eq!(rules[1].ttr_max, Duration::from_millis(400));
        let group = group.unwrap();
        assert_eq!(group.delta, Duration::from_millis(100));
        assert_eq!(group.policy, MtPolicy::RateHeuristic { threshold: 0.5 });
    }

    #[test]
    fn parse_rules_body_defaults_and_null_group() {
        let (rules, group) =
            parse_rules_body(br#"{"rules": [], "group": null}"#).unwrap();
        assert!(rules.is_empty());
        assert!(group.is_none());
        // Group absent entirely is also fine; policy defaults to triggered.
        let (_, group) = parse_rules_body(
            br#"{"rules": [], "group": {"delta_ms": 10}}"#,
        )
        .unwrap();
        assert_eq!(group.unwrap().policy, MtPolicy::TriggeredPolls);
    }

    #[test]
    fn parse_rules_body_rejects_malformed_input_with_reasons() {
        for (body, needle) in [
            (&b"not json"[..], "invalid JSON"),
            (br#"{}"#, "missing `rules`"),
            (br#"{"no_rules": 1}"#, "unknown key `no_rules`"),
            (br#"{"rules": [{"delta_ms": 5}]}"#, "missing `path`"),
            (br#"{"rules": [{"path": "/a"}]}"#, "delta_ms"),
            (br#"{"rules": [{"path": "/a", "delta_ms": -3}]}"#, "delta_ms"),
            (
                br#"{"rules": [{"path": "/a", "delta_ms": 5, "ttr_max_ms": 1.5}]}"#,
                "ttr_max_ms",
            ),
            (br#"{"rules": [], "group": {}}"#, "group"),
            // Typo'd keys must be rejected, not defaulted over.
            (
                br#"{"rules": [{"path": "/a", "delta_ms": 5, "ttr_maxms": 9}]}"#,
                "unknown key `ttr_maxms`",
            ),
            (br#"{"rules": [], "grupo": 1}"#, "unknown key `grupo`"),
            (
                br#"{"rules": [], "group": {"delta_ms": 5, "policy": "triggered", "extra": 1}}"#,
                "unknown key `extra`",
            ),
            (
                br#"{"rules": [], "group": {"delta_ms": 5, "policy": "nope"}}"#,
                "group",
            ),
            (&[0xff, 0xfe][..], "UTF-8"),
        ] {
            let err = parse_rules_body(body).unwrap_err();
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
        }
    }
}
