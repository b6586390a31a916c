//! The live caching proxy daemon.
//!
//! Serves client `GET`s from its cache while a *refresh plane* keeps
//! configured objects Δt-consistent with the origin by LIMD-scheduled
//! `If-Modified-Since` polls, and, when a group rule is set,
//! Mt-consistent with one another via triggered polls, exactly as in the
//! simulator. The plane runs on no thread of its own: reactor 0's service
//! instance steps the one shared scheduling state machine
//! ([`crate::runtime`]) at each wake, sends each due poll as a pooled
//! origin fetch beside the misses, at most
//! [`POLL_WIDTH`](crate::runtime::POLL_WIDTH) at once, and applies the
//! answer to the path its request names when the fetch completes. It
//! keeps no poll table and reads the wall clock once per wake. One
//! binary-ready struct, ephemeral ports, clean shutdown on drop: the
//! "implement it in a real proxy" future work of §7, in miniature.
//!
//! Connections are served by the shared readiness-driven engine
//! ([`crate::server`]): one reactor per core (or
//! [`ProxyConfig::reactors`]), each with its own `SO_REUSEPORT`
//! listener shard, its own keep-alive origin pool and its own instance of
//! the proxy's service — cache misses ride pooled persistent
//! connections, and identical concurrent misses coalesce into a single
//! origin fetch. There is no thread pool and no thread per connection.
//! The one cache is the 16-way sharded [`crate::cache::ShardedCache`],
//! shared by every reactor: a hit takes its shard's read lock and writes
//! nothing, and the refresher's write locks stall only 1/16th of
//! concurrent hits instead of all of them. Entries pre-render their
//! serving head at store time, so a hit is two shared slices handed to
//! `writev` — no serialization and no body copy on the hot path, however
//! many clients share the entry. Concurrency is bounded by
//! [`crate::server::MAX_CONNS`] connections, split across the reactors.
//!
//! # The admin control plane
//!
//! The refresh rules live in the hot-swappable
//! [`crate::runtime::ConsistencyRuntime`] and are operable at runtime
//! through three endpoints the reactors serve **locally** (no cache, no
//! upstream):
//!
//! * `GET /admin/rules` — the epoch in force, the group rule and
//!   per-path live state (Δ, TTR bounds, current adaptive TTR, last
//!   poll) as JSON, one row per path sorted by path, all read under the
//!   refresh plane's lock.
//! * `PUT /admin/rules` — validate, then reconcile the schedule and bump
//!   the epoch under the plane's lock. Bad rules (duplicate paths, zero
//!   Δ, inverted TTR bounds) are rejected with `400` and a reason;
//!   nothing changes. A successful swap is in force when the reply is
//!   sent, and keeps the cache and every established connection:
//!   unchanged paths keep their adaptive-TTR state, changed paths
//!   rebuild, removed paths stop polling and their cache entries are
//!   evicted (by the install hook, so a direct
//!   [`ConsistencyRuntime::install`] evicts them too).
//! * `GET /admin/stats` — per-shard cache occupancy and evictions,
//!   per-reactor connection counts, origin-pool reuse/coalesce
//!   counters, wire-path syscall/copy counters (`writev` vs `write`
//!   calls, accept batches, body copies, `epoll_ctl` calls), the refresh
//!   plane's poll/error/in-flight/drift figures, the proxy's
//!   hit/miss/store counters, and the parked clients the engine shed
//!   with `503`.
//!
//! When a bearer token is configured ([`ProxyConfig::admin_token`]),
//! every `/admin/*` request must carry
//! `Authorization: Bearer <token>` or it is refused with `401`.
//! `PUT /admin/rules` and a direct [`ConsistencyRuntime::install`] are
//! the only ways to change the rules in force.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mutcon_core::limd::PollResult;
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::time::{Duration, Timestamp};
use mutcon_http::headers::HeaderName;
use mutcon_http::message::{Request, Response};
use mutcon_http::types::{Method, StatusCode};
use mutcon_sim::reactor::BackendKind;
use mutcon_traces::json::Json;

use crate::cache::{CacheEntry, ShardedCache};
use crate::client::{get_wire, wire_target, ObjectStamps};
use crate::metrics::{metrics, obj, put, Counter};
use crate::origin::unix_now_ms;
use crate::runtime::{ConsistencyRuntime, Plane};
use crate::server::{default_reactors, EngineMetrics, EventLoop, Reply, Service, ServiceResult};

/// Paths under this prefix are the proxy's admin plane: answered on the
/// reactor, never from the cache or the origin, and never a rule path
/// (`runtime::validate` refuses one).
pub(crate) const ADMIN_PREFIX: &str = "/admin/";

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
    /// enforced per shard with CLOCK (second-chance) eviction.
    pub cache_objects: Option<usize>,
    /// Reactor threads for the connection engine (`None` = one per
    /// core, [`crate::server::default_reactors`]).
    pub reactors: Option<usize>,
    /// Read by nothing; kept because `benchmark/` (read-only here) sets it.
    pub backend: Option<BackendKind>,
    /// Bearer token gating the `/admin/*` plane (`None` or empty = no
    /// auth). When set, admin requests without
    /// `Authorization: Bearer <token>` get `401`.
    pub admin_token: Option<String>,
}

impl ProxyConfig {
    /// A configuration with no rules, no group, an unbounded cache and
    /// the default reactor count.
    pub fn new(origin_addr: SocketAddr) -> ProxyConfig {
        ProxyConfig {
            origin_addr,
            rules: Vec::new(),
            group: None,
            cache_objects: None,
            reactors: None,
            backend: None,
            admin_token: None,
        }
    }
}

metrics! {
    /// The proxy's own counters, all counted by the reactors (stores,
    /// hits, misses, `PUT` reloads). Its polls are the refresh plane's
    /// to count.
    pub(crate) struct Counters {
        /// Fetches and polls that stored a fresh copy; a fetch that
        /// coalesced many misses counts once.
        refreshes: Counter => "proxy.refreshes";
        /// Client requests served from cache.
        hits: Counter => "proxy.hits";
        /// Client requests that had to fetch from the origin.
        misses: Counter => "proxy.misses";
        /// Rule sets installed through `PUT /admin/rules`.
        reloads: Counter => "proxy.reloads";
    }
}

/// A snapshot of the proxy's counters, its polls read from the refresh
/// plane's ([`crate::runtime::RefreshMetrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProxyStats {
    /// Refresher polls sent to the origin (`refresh.polls`).
    pub polls: u64,
    /// Polls initiated by the mutual-consistency coordinator
    /// (`refresh.triggered`).
    pub triggered: u64,
    /// Fetches and polls that stored a fresh copy (`proxy.refreshes`).
    pub refreshes: u64,
    /// Client requests served from cache (`proxy.hits`).
    pub hits: u64,
    /// Client requests that had to fetch from the origin (`proxy.misses`).
    pub misses: u64,
    /// Failed origin polls (`refresh.errors`).
    pub errors: u64,
    /// Rule sets installed through `PUT /admin/rules` (`proxy.reloads`).
    pub reloads: u64,
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

/// The running proxy; shuts down (and joins its reactors) on drop.
pub struct LiveProxy {
    server: EventLoop,
    shared: Arc<Shared>,
}

impl LiveProxy {
    /// Binds a localhost listener on an ephemeral port and starts the
    /// reactors, the first of which steps the refresh plane. Rules
    /// installed later through `PUT /admin/rules` wake it, so they start
    /// polling without a restart.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; returns [`io::ErrorKind::InvalidInput`]
    /// for invalid rules (zero Δ, duplicate paths, inverted TTR bounds —
    /// the same validation `PUT /admin/rules` applies), for an IPv6
    /// origin and for a zero-object cache bound.
    pub fn start(config: ProxyConfig) -> io::Result<LiveProxy> {
        let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidInput, reason);
        if config.origin_addr.is_ipv6() {
            return Err(invalid(format!(
                "origin_addr {} must be IPv4",
                config.origin_addr
            )));
        }
        if config.cache_objects == Some(0) {
            return Err(invalid(
                "cache_objects must be positive (None = unbounded)".to_owned(),
            ));
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
        // Only reactor 0's instance, built first, steps the plane.
        let server = EventLoop::start(
            "mutcon-live-proxy-reactor",
            config.reactors.unwrap_or_else(default_reactors),
            |i, metrics| {
                Box::new(ProxyService {
                    shared: Arc::clone(&shared),
                    metrics: Arc::clone(metrics),
                    plane: i == 0,
                })
            },
        )?;
        // After each install, outside the plane's lock: an un-ruled path
        // loses its copy (a late poll cannot put it back, see
        // `crate::runtime`), so its next read goes to the origin, and
        // reactor 0 looks at the new schedule at once. No other
        // copy changes: an install rewrites no stored byte. The hook
        // holds the proxy weakly: the runtime is part of it.
        let proxy = Arc::downgrade(&shared);
        let waker = server.waker(0);
        runtime.on_install(move |report| {
            if let Some(shared) = proxy.upgrade() {
                for path in &report.removed {
                    shared.cache.remove(path);
                }
            }
            waker.wake();
        });
        Ok(LiveProxy { server, shared })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ProxyStats {
        let (counters, plane) = (&self.shared.counters, self.shared.runtime.refresh_metrics());
        ProxyStats {
            polls: plane.polls(),
            triggered: plane.triggered(),
            refreshes: counters.refreshes(),
            hits: counters.hits(),
            misses: counters.misses(),
            errors: plane.errors(),
            reloads: counters.reloads(),
        }
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

    /// The engine's counters again, for their overload pair
    /// ([`EngineMetrics::shed`], [`EngineMetrics::parked_shed`]). Kept
    /// because `benchmark/` (read-only here) reads it.
    pub fn overload(&self) -> &Arc<EngineMetrics> {
        self.server.metrics()
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

/// The request handler, one instance per reactor.
struct ProxyService {
    shared: Arc<Shared>,
    metrics: Arc<EngineMetrics>,
    /// Whether this is reactor 0's instance, which alone steps the
    /// refresh plane.
    plane: bool,
}

impl Service for ProxyService {
    fn respond(&mut self, request: &Request) -> ServiceResult {
        let path = request.target();
        // The admin prefix is dispatched locally on the reactor — it
        // never touches the cache-miss/upstream machinery. When a
        // bearer token is configured, it gates every admin endpoint.
        if path.starts_with(ADMIN_PREFIX) {
            let response = self
                .check_admin_auth(request)
                .unwrap_or_else(|| self.admin(request));
            return ServiceResult::Reply(response.into());
        }
        if request.method() != &Method::Get {
            let response = Response::builder(StatusCode::METHOD_NOT_ALLOWED).build();
            return ServiceResult::Reply(response.into());
        }

        // Cache hit: the entry's pre-rendered head and shared body go
        // out as-is — no serialization, no body copy, one writev. The
        // shard's read lock is the read's linearization point: the copy
        // served is the one resident when the lock was taken.
        if let Some(entry) = self.shared.cache.get(path) {
            self.shared.counters.hits.inc();
            return ServiceResult::Reply(prepared(&entry, true));
        }

        // Miss: fetch from the origin through the reactor (its own
        // nonblocking state machine); `fetched` caches and serves it.
        // `connection: keep-alive` advertised explicitly: the fetch
        // rides a pooled persistent origin connection, and identical
        // request bytes are the pool's coalescing key.
        self.shared.counters.misses.inc();
        ServiceResult::Upstream {
            addr: self.shared.origin,
            request: get_wire(path, &self.shared.origin_host, None),
        }
    }

    fn fetched(&mut self, request: &[u8], result: io::Result<Response>) -> Reply {
        let Ok(response) = result else {
            return Response::builder(StatusCode::INTERNAL_SERVER_ERROR)
                .body(&b"origin unreachable\n"[..])
                .build()
                .into();
        };
        // One store however many misses coalesced onto the fetch.
        let stored = match (response.status(), wire_target(request)) {
            (StatusCode::OK, Some(path)) => store_response(&self.shared, path, &response),
            _ => None,
        };
        match stored {
            // Serve the freshly stored entry the same zero-copy way a
            // hit would.
            Some(entry) => prepared(&entry, false),
            // 404 etc., or a 200 without a modification stamp: pass
            // through uncached. Rendering drops the origin's
            // `Connection`, which governs the pooled origin socket, not
            // the client's.
            None => response.into(),
        }
    }

    /// Reactor 0 reads the wall clock once and steps the refresh plane
    /// ([`ProxyService::refresh`]).
    fn own_work(
        &mut self,
        now: Instant,
        start: &mut dyn FnMut(SocketAddr, Vec<u8>),
    ) -> Option<Instant> {
        if !self.plane {
            return None;
        }
        self.refresh(now, Timestamp::from_millis(unix_now_ms()), start)
    }

    fn own_fetched(&mut self, request: &[u8], result: &io::Result<Response>, now: Instant) {
        let Some(path) = wire_target(request) else {
            return;
        };
        let shared = &*self.shared;
        let mut plane = shared.runtime.plane();
        let outcome = poll_outcome(shared, &plane, path, result);
        plane.finish(path, outcome, now);
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

impl ProxyService {
    /// One step of the refresh plane at `now`, `ts` on the LIMD/Mt
    /// timeline, reading no clock: hands every due poll the width admits
    /// to `start` as a conditional `GET`, validated by the cached copy's
    /// stamp, and returns when to step again.
    fn refresh(
        &self,
        now: Instant,
        ts: Timestamp,
        start: &mut dyn FnMut(SocketAddr, Vec<u8>),
    ) -> Option<Instant> {
        let shared = &*self.shared;
        let mut plane = shared.runtime.plane();
        while let Some(job) = plane.next_poll(now, ts) {
            let validator = shared.cache.get(&job.key).map(|e| e.last_modified());
            start(
                shared.origin,
                get_wire(&job.key, &shared.origin_host, validator),
            );
        }
        plane.next_wake()
    }

    /// Returns the `401` response when a bearer token is configured and
    /// the request doesn't carry it; `None` admits the request. Uses
    /// the standard `Authorization: Bearer <token>` scheme (RFC 6750),
    /// whose name matches without regard to case (RFC 7235 §2.1); the
    /// token is case-sensitive, and its compare takes the same time
    /// wherever the first wrong byte sits.
    fn check_admin_auth(&self, request: &Request) -> Option<Response> {
        let expected = self.shared.admin_token.as_deref()?;
        let authorized = request
            .headers()
            .get("authorization")
            .and_then(|value| value.trim().split_once(' '))
            .filter(|(scheme, _)| scheme.eq_ignore_ascii_case("Bearer"))
            .is_some_and(|(_, token)| {
                constant_time_eq(token.trim().as_bytes(), expected.as_bytes())
            });
        if authorized {
            None
        } else {
            let mut response =
                error_response(StatusCode::UNAUTHORIZED, "missing or invalid bearer token");
            response.headers_mut().insert("www-authenticate", "Bearer");
            Some(response)
        }
    }

    /// Dispatches one `/admin/…` request locally.
    fn admin(&self, request: &Request) -> Response {
        match (request.method(), request.target()) {
            (Method::Get, "/admin/rules") => self.rules_json(),
            (Method::Put, "/admin/rules") => self.apply_rules(request.body()),
            (Method::Get, "/admin/stats") => self.stats_json(),
            (_, "/admin/rules" | "/admin/stats") => {
                Response::builder(StatusCode::METHOD_NOT_ALLOWED).build()
            }
            _ => error_response(StatusCode::NOT_FOUND, "unknown admin endpoint"),
        }
    }

    /// `GET /admin/rules`: the epoch, the group and per-path live state,
    /// from one locked read of the schedule.
    fn rules_json(&self) -> Response {
        let (epoch, group, rows) = self.shared.runtime.rules();
        let num = |n: u64| Json::Number(n as f64);
        let rules = rows.into_iter().map(|(limd, s)| {
            obj([
                ("path", Json::String(s.path)),
                ("delta_ms", num(s.delta.as_millis())),
                ("ttr_max_ms", num(s.ttr_max.as_millis())),
                ("limd", Json::String(limd.to_spec())),
                ("ttr_ms", num(s.ttr.as_millis())),
                (
                    "last_poll_unix_ms",
                    s.last_poll_unix_ms.map_or(Json::Null, num),
                ),
                ("polls", num(s.polls)),
                ("rule_epoch", num(s.rule_epoch)),
            ])
        });
        let group = group.map_or(Json::Null, |g| {
            obj([
                ("delta_ms", num(g.delta.as_millis())),
                ("policy", Json::String(g.policy.to_string())),
            ])
        });
        let doc = obj([
            ("epoch", num(epoch)),
            ("group", group),
            ("rules", Json::Array(rules.collect())),
        ]);
        json_response(StatusCode::OK, &doc)
    }

    /// `PUT /admin/rules`: parse → validate → install.
    fn apply_rules(&self, body: &[u8]) -> Response {
        match parse_rules_body(body) {
            Err(reason) => error_response(StatusCode::BAD_REQUEST, &reason),
            Ok((rules, group)) => match self.shared.runtime.install(rules, group) {
                Err(reason) => error_response(StatusCode::BAD_REQUEST, &reason),
                Ok(report) => {
                    self.shared.counters.reloads.inc();
                    let paths = |paths: &[Arc<str>]| {
                        Json::Array(
                            paths
                                .iter()
                                .map(|path| Json::String(path.to_string()))
                                .collect(),
                        )
                    };
                    let doc = obj([
                        ("epoch", Json::Number(report.version as f64)),
                        ("added", paths(&report.added)),
                        ("changed", paths(&report.changed)),
                        ("removed", paths(&report.removed)),
                    ]);
                    json_response(StatusCode::OK, &doc)
                }
            },
        }
    }

    /// `GET /admin/stats`: every declared metric at its path, then what
    /// is not a counter: the reactors.
    fn stats_json(&self) -> Response {
        let mut doc = Json::Null;
        self.shared.cache.render(&mut doc);
        self.metrics.render(&mut doc);
        self.shared.runtime.refresh_metrics().render(&mut doc);
        self.shared.counters.render(&mut doc);
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
        json_response(StatusCode::OK, &doc)
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
/// [`MtPolicy`] wire form (`baseline`, `triggered`, `rate:T`). It checks
/// the document's shape only: the install that takes what it returns
/// validates the rules ([`crate::runtime::validate`]) and refuses them
/// with the reason a `400` carries.
fn parse_rules_body(body: &[u8]) -> Result<(Vec<RefreshRule>, Option<GroupRule>), String> {
    // A typo'd key must not silently fall back to a default.
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
        known_keys_only(
            r,
            &["path", "delta_ms", "ttr_max_ms"],
            &format!("rule #{i}"),
        )?;
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
            let ttr_max = ttr.as_u64().ok_or_else(|| {
                format!("rule for {path}: `ttr_max_ms` must be a non-negative integer")
            })?;
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

/// Stores a 200 response in the cache; returns the entry now resident —
/// the stored one, or a copy at least as fresh that was already there (a
/// slow fetch must never roll the cache backwards, and a second store of
/// one version, as when a miss coalesced onto a poll, changes nothing).
/// Counts a refresh only when the offered copy is the one resident.
/// `None` when the response carries no modification stamp and is
/// uncacheable.
fn store_response(shared: &Shared, path: &str, response: &Response) -> Option<Arc<CacheEntry>> {
    let stamps = ObjectStamps::of(response);
    let lm = stamps.last_modified?;
    // Pre-rendering the serving head happens here, at store time, on
    // the fetching/refreshing thread — never while a hit is served.
    let offered = Arc::new(CacheEntry::new(
        response.body().clone(),
        lm,
        stamps.value,
        stamps.version,
    ));
    let resident = shared.cache.insert_if_newer(path, Arc::clone(&offered));
    if Arc::ptr_eq(&resident, &offered) {
        shared.counters.refreshes.inc();
    }
    Some(resident)
}

/// What one refresher poll's answer means for the adaptation layers:
/// the poll result, or `None` (a failed poll, which `Plane::finish`
/// counts in `refresh.errors`) for a network error, a timeout, an
/// unexpected status or a `200` without a modification stamp. A `200`
/// is stored only while `plane`, the locked schedule, still rules the
/// path, so a rule removed while the poll was on the wire leaves no copy
/// behind (the ordering argument is in `crate::runtime`). Its result is
/// still returned; the scheduler drops the outcome of an un-ruled path
/// itself.
fn poll_outcome(
    shared: &Shared,
    plane: &Plane<'_>,
    path: &str,
    answer: &io::Result<Response>,
) -> Option<PollResult> {
    match answer {
        Ok(response) if response.status() == StatusCode::NOT_MODIFIED => {
            Some(PollResult::NotModified)
        }
        Ok(response) if response.status() == StatusCode::OK => {
            // The LIMD layer observes what *this poll* saw, not what
            // ended up resident (a concurrent fetch may be fresher).
            ObjectStamps::of(response).last_modified.map(|lm| {
                if plane.ruled(path) {
                    store_response(shared, path, response);
                }
                PollResult::Modified {
                    last_modified: lm,
                    history: mutcon_http::extensions::modification_history(response.headers()),
                }
            })
        }
        Ok(_) | Err(_) => None,
    }
}

/// The zero-copy serving form of a cache entry: the head pre-rendered
/// at store time, a static `x-cache` marker line, and the shared body
/// slice — two refcount bumps, no serialization.
fn prepared(entry: &CacheEntry, hit: bool) -> Reply {
    Reply {
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
        let (rules, group) = parse_rules_body(br#"{"rules": [], "group": null}"#).unwrap();
        assert!(rules.is_empty());
        assert!(group.is_none());
        // Group absent entirely is also fine; policy defaults to triggered.
        let (_, group) = parse_rules_body(br#"{"rules": [], "group": {"delta_ms": 10}}"#).unwrap();
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
            (
                br#"{"rules": [{"path": "/a", "delta_ms": -3}]}"#,
                "delta_ms",
            ),
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

    /// One random edit of `body`: a flipped bit, a byte overwritten or
    /// inserted from a set of punctuation and digits (or a byte that is
    /// not UTF-8), a range cut or duplicated, a line repeated, or the
    /// tail dropped.
    fn mutate(rng: &mut mutcon_sim::rng::SimRng, body: &[u8]) -> Vec<u8> {
        const SPECIAL: &[u8] = b"=#\n:,{}[]\"0123456789.-\xff\x80";
        let mut out = body.to_vec();
        let at = rng.uniform_u64(0, out.len() as u64 + 1) as usize;
        let span = (rng.uniform_u64(1, 9) as usize).min(out.len() - at);
        match rng.uniform_u64(0, 7) {
            0 if at < out.len() => out[at] ^= 1 << rng.uniform_u64(0, 8),
            1 if at < out.len() => out[at] = *rng.pick(SPECIAL),
            2 => drop(out.drain(at..at + span)),
            3 => {
                let copy = out[at..at + span].to_vec();
                out.splice(at..at, copy);
            }
            4 => {
                let line = out[at..]
                    .split(|&b| b == b'\n')
                    .next()
                    .unwrap_or_default()
                    .to_vec();
                out.splice(at..at, line.into_iter().chain([b'\n']));
            }
            5 => out.truncate(at),
            _ => out.insert(at, *rng.pick(SPECIAL)),
        }
        out
    }

    /// The seeded mutation corpus over the admin plane's one body parser
    /// (ROADMAP 5): it never panics, and a body that parses and installs
    /// puts exactly its paths in force.
    #[test]
    fn mutated_admin_bodies_never_panic_and_what_parses_holds() {
        let rules_bodies = [
            r#"{"rules": [{"path": "/a", "delta_ms": 50}, {"path": "/b", "delta_ms": 20, "ttr_max_ms": 400}],
                "group": {"delta_ms": 100, "policy": "rate:0.5"}}"#,
            r#"{"rules": [{"path": "/x/y", "delta_ms": 1000}], "group": null}"#,
        ];
        let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(0xad_317);
        let runtime = ConsistencyRuntime::new(Vec::new(), None).unwrap();
        let mut accepted = 0;
        for body in rules_bodies {
            for _ in 0..1_000 {
                let mut mutant = mutate(&mut rng, body.as_bytes());
                if rng.chance(0.3) {
                    mutant = mutate(&mut rng, &mutant);
                }
                let Ok((rules, group)) = parse_rules_body(&mutant) else {
                    continue;
                };
                let mut parsed: Vec<String> = rules.iter().map(|rule| rule.path.clone()).collect();
                if runtime.install(rules, group).is_ok() {
                    accepted += 1;
                    parsed.sort();
                    let installed: Vec<String> =
                        runtime.status().into_iter().map(|s| s.path).collect();
                    assert_eq!(installed, parsed);
                }
            }
        }
        // Enough mutants survive for the property to mean something.
        assert!(accepted >= 50, "{accepted} rules bodies accepted");
    }

    /// Reactor 0's service alone, with no listener and no reactor: its
    /// origin address is never dialed, because the test answers every
    /// fetch the service starts.
    fn plane_service(rules: Vec<RefreshRule>, group: Option<GroupRule>) -> ProxyService {
        let origin: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let shared = Shared {
            origin,
            origin_host: origin.to_string(),
            cache: ShardedCache::new(None),
            counters: Counters::default(),
            runtime: ConsistencyRuntime::new(rules, group).unwrap(),
            admin_token: None,
        };
        ProxyService {
            shared: Arc::new(shared),
            metrics: Arc::new(EngineMetrics::default()),
            plane: true,
        }
    }

    /// Trace time 0 on the Unix timeline, not on a whole second: an
    /// `If-Modified-Since` date of it rounds down to before the epoch.
    const EPOCH_UNIX_MS: u64 = 1_700_000_000_250;

    /// Figure 5's triggered column and the Table 2 group, live: reactor
    /// 0's service stepped through virtual instants against the
    /// simulator's own origin, every poll answered at rtt = 0 through the
    /// origin's `render` before the service is asked again, polls what
    /// `run_temporal` polls, instant for instant, with the same answers.
    /// The four-trace group is due together, so a step hands out a full
    /// [`POLL_WIDTH`](crate::runtime::POLL_WIDTH).
    #[test]
    fn reactor_0_in_virtual_time_polls_as_the_simulator_does() {
        use mutcon_core::limd::LimdConfig;
        use mutcon_core::object::ObjectId;
        use mutcon_http::parse::parse_request;
        use mutcon_proxy::drivers::{run_temporal, MutualSetup, TemporalPolicy, TemporalSimConfig};
        use mutcon_proxy::log::PollOutcome;
        use mutcon_proxy::origin::OriginServer;
        use mutcon_traces::catalog::NamedTrace;

        // Fig3Config's LIMD: the builder's defaults, Δ = 10 min, 60 min TTR cap.
        let (delta, ttr_max) = (Duration::from_mins(10), Duration::from_mins(60));
        let limd = LimdConfig::builder(delta).ttr_max(ttr_max).build().unwrap();
        // Paths named so that `(due, key)` order is the simulator's object
        // order; per group δ (min), the golden polls and triggered polls.
        type Golden = [(u64, usize, u64); 4];
        // (ms since trace time 0, status, version) per poll.
        type Polls = Vec<(u64, u16, Option<usize>)>;
        let pair: (&[&str], Golden) = (
            &["/0-cnn-fn", "/1-nyt-ap"],
            [(1, 389, 118), (5, 373, 102), (15, 325, 30), (30, 310, 5)],
        );
        let group: (&[&str], Golden) = (
            &["/0-cnn-fn", "/1-nyt-ap", "/2-nyt-reuters", "/3-guardian"],
            [(1, 1048, 545), (5, 857, 402), (15, 678, 145), (30, 612, 10)],
        );
        for (paths, goldens) in [pair, group] {
            let traces: Vec<_> = NamedTrace::TEMPORAL[..paths.len()]
                .iter()
                .map(|t| t.generate())
                .collect();
            let ids: Vec<_> = paths.iter().map(ObjectId::new).collect();
            let mut origin = OriginServer::new();
            for (id, trace) in ids.iter().zip(&traces) {
                origin.host(id.clone(), trace.clone());
            }
            let until = traces.iter().map(|t| t.end()).min().unwrap();
            for (group_min, golden, golden_triggered) in goldens {
                let group = GroupRule {
                    delta: Duration::from_mins(group_min),
                    policy: MtPolicy::TriggeredPolls,
                };
                let sim = run_temporal(
                    &origin,
                    &ids,
                    &TemporalSimConfig {
                        policy: TemporalPolicy::Limd(limd),
                        mutual: Some(MutualSetup {
                            delta: group.delta,
                            policy: group.policy,
                        }),
                        until,
                    },
                );
                let expected: Vec<Polls> = ids
                    .iter()
                    .map(|id| {
                        let polls = sim.logs[id].records().iter();
                        polls
                            .map(|r| match r.outcome {
                                PollOutcome::NotModified => (r.at.as_millis(), 304, None),
                                PollOutcome::Refreshed { version_index } => {
                                    (r.at.as_millis(), 200, Some(version_index))
                                }
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    expected.iter().map(Vec::len).sum::<usize>(),
                    golden,
                    "δ = {group_min} min"
                );
                assert_eq!(
                    sim.total_triggered(),
                    golden_triggered,
                    "δ = {group_min} min"
                );

                let rules = paths
                    .iter()
                    .map(|p| RefreshRule::new(*p, delta).ttr_max(ttr_max))
                    .collect();
                let mut service = plane_service(rules, Some(group));
                // After the install: every path is due at `base`.
                let base = Instant::now();
                let mut live: Vec<Polls> = vec![Vec::new(); paths.len()];
                let (mut offset, mut widest) = (Duration::ZERO, 0);
                loop {
                    let now = base + offset;
                    let mut sent = Vec::new();
                    let wake = service.refresh(
                        now,
                        Timestamp::from_millis(EPOCH_UNIX_MS) + offset,
                        &mut |_, wire| {
                            sent.push(wire);
                        },
                    );
                    widest = widest.max(sent.len());
                    if sent.is_empty() {
                        // Nothing more at this instant: on to the next due one,
                        // within the simulator's window.
                        let next = wake.map(|at| {
                            Duration::from_millis(at.duration_since(base).as_millis() as u64)
                        });
                        match next.filter(|&next| Timestamp::ZERO + next <= until) {
                            Some(next) => offset = next,
                            None => break,
                        }
                        continue;
                    }
                    for wire in sent {
                        let (request, _) = parse_request(&wire).unwrap().expect("a whole request");
                        let response = crate::origin::answer(
                            &origin,
                            EPOCH_UNIX_MS,
                            &request,
                            Timestamp::ZERO + offset,
                        );
                        let version = ObjectStamps::of(&response)
                            .version
                            .map(|v| v.parse().unwrap());
                        let path = paths
                            .iter()
                            .position(|p| *p == request.target())
                            .expect("a ruled path");
                        live[path].push((offset.as_millis(), response.status().as_u16(), version));
                        service.own_fetched(&wire, &Ok(response), now);
                    }
                }

                for (path, (live, expected)) in paths.iter().zip(live.iter().zip(&expected)) {
                    let first = live.iter().zip(expected).position(|(l, e)| l != e);
                    let first = first.unwrap_or(live.len().min(expected.len()));
                    assert!(
                        live.len() == expected.len() && first == live.len(),
                        "δ = {group_min} min, {path}: poll #{first} differs, live {:?} against the simulator's {:?} ({} against {} polls)",
                        live.get(first),
                        expected.get(first),
                        live.len(),
                        expected.len(),
                    );
                }
                let plane = service.shared.runtime.refresh_metrics();
                assert_eq!(
                    (plane.polls(), plane.triggered()),
                    (golden as u64, golden_triggered),
                    "δ = {group_min} min"
                );
                assert_eq!(
                    widest,
                    paths.len().min(crate::runtime::POLL_WIDTH),
                    "δ = {group_min} min"
                );
                assert_eq!(service.shared.runtime.refresh_metrics().in_flight(), 0);
            }
        }
    }

    /// The live origin is the simulator's origin model: on a grid of
    /// (instant, validator), with and without the history extension,
    /// `render`'s response, read back the way the proxy reads it, says
    /// exactly what `HostedObject::poll` answered.
    #[test]
    fn the_live_origin_renders_what_the_simulators_origin_answers() {
        use mutcon_core::object::ObjectId;
        use mutcon_core::value::Value;
        use mutcon_http::date::write_http_date;
        use mutcon_http::extensions::modification_history;
        use mutcon_http::parse::parse_request;
        use mutcon_proxy::origin::{HistorySupport, OriginServer};
        use mutcon_traces::{UpdateEvent, UpdateTrace};

        let at = Timestamp::from_millis;
        let unix = |t: Timestamp| at(EPOCH_UNIX_MS + t.as_millis());
        // Two objects updated at 2, 2.5 and 4 s in a window that ends at
        // 5 s: one created at trace time 0, one at 1 s.
        let trace = |created: u64| {
            let events = [(created, 1.5), (2_000, 2.5), (2_500, 3.5), (4_000, 4.5)]
                .map(|(ms, value)| UpdateEvent::valued(at(ms), Value::new(value)));
            UpdateTrace::new("valued", Timestamp::ZERO, at(5_000), events.to_vec()).unwrap()
        };
        let objects = [("/early", trace(0)), ("/late", trace(1_000))];
        let rules = objects
            .iter()
            .map(|(path, _)| RefreshRule::new(*path, Duration::from_millis(10)))
            .collect();
        let service = plane_service(rules, None);
        // What the proxy reads off a response, and what it makes of it.
        type ReadBack = (
            u16,
            Option<Timestamp>,
            Option<String>,
            Option<f64>,
            Option<Vec<Timestamp>>,
            Option<PollResult>,
        );
        let read_back = |path: &str, response: Response| -> ReadBack {
            let stamps = ObjectStamps::of(&response);
            let (version, value, last_modified) = (
                stamps.version.map(str::to_owned),
                stamps.value,
                stamps.last_modified,
            );
            let history = modification_history(response.headers());
            let outcome = poll_outcome(
                &service.shared,
                &service.shared.runtime.plane(),
                path,
                &Ok(response.clone()),
            );
            (
                response.status().as_u16(),
                last_modified,
                version,
                value,
                history,
                outcome,
            )
        };
        let (mut seen_304, mut seen_history_after_validator, mut seen_404) = (0, 0, 0);
        for history in [HistorySupport::None, HistorySupport::Full] {
            let mut origin = OriginServer::new().with_history(history);
            for (path, trace) in &objects {
                origin.host(ObjectId::new(path), trace.clone());
            }
            for (path, _) in &objects {
                let hosted = origin.object(&ObjectId::new(path)).unwrap();
                // The request's validator on the wire, and the one the
                // simulator is given: the `x-last-modified-ms` stamp of a
                // copy, or an `If-Modified-Since` date alone. That date
                // rounds trace time 0 down to before the epoch, so it
                // validates no version, not even one created at 0.
                let mut ims =
                    format!("GET {path} HTTP/1.1\r\nhost: o\r\nif-modified-since: ").into_bytes();
                write_http_date(&mut ims, unix(Timestamp::ZERO));
                ims.extend_from_slice(b"\r\n\r\n");
                let mut validators = vec![(get_wire(path, "o", None), None), (ims, None)];
                for ms in [0, 999, 1_000, 1_999, 2_000, 2_499, 2_500, 4_000, 9_999] {
                    validators.push((get_wire(path, "o", Some(unix(at(ms)))), Some(at(ms))));
                }
                for now in [
                    0, 500, 999, 1_000, 1_500, 2_000, 2_200, 2_500, 3_000, 4_000, 5_000, 60_000,
                ]
                .map(at)
                {
                    for (wire, validator) in &validators {
                        let (request, _) = parse_request(wire).unwrap().unwrap();
                        let live = read_back(
                            path,
                            crate::origin::answer(&origin, EPOCH_UNIX_MS, &request, now),
                        );
                        let expected: ReadBack = match hosted.poll(now, *validator) {
                            Err(_) => (404, None, None, None, None, None),
                            Ok(r) if r.not_modified => (
                                304,
                                Some(unix(r.last_modified)),
                                None,
                                None,
                                None,
                                Some(PollResult::NotModified),
                            ),
                            Ok(r) => {
                                let history = r
                                    .history
                                    .map(|h| h.iter().map(|&t| unix(t)).collect::<Vec<_>>());
                                let last_modified = unix(r.last_modified);
                                (
                                    200,
                                    Some(last_modified),
                                    Some(r.version_index.to_string()),
                                    r.value.map(Value::as_f64),
                                    history.clone(),
                                    Some(PollResult::Modified {
                                        last_modified,
                                        history,
                                    }),
                                )
                            }
                        };
                        assert_eq!(
                            live, expected,
                            "{history:?} {path} at {now} with {validator:?}"
                        );
                        seen_304 += u32::from(live.0 == 304);
                        seen_404 += u32::from(live.0 == 404);
                        seen_history_after_validator +=
                            u32::from(validator.is_some() && live.4.is_some());
                        if hosted.trace().version_index_at(now).is_some() && validator.is_none() {
                            // Unconditional, or validated by a pre-epoch date:
                            // a `200`, with the current version alone as its
                            // history.
                            assert_eq!(live.0, 200, "{history:?} {path} at {now}");
                            if history == HistorySupport::Full {
                                assert_eq!(
                                    live.4.as_deref(),
                                    live.1.as_slice().into(),
                                    "{path} at {now}"
                                );
                            }
                        }
                    }
                }
                // Past the window's end the last version stays current.
                let (request, _) = parse_request(&validators[0].0).unwrap().unwrap();
                let live = read_back(
                    path,
                    crate::origin::answer(&origin, EPOCH_UNIX_MS, &request, at(60_000)),
                );
                assert_eq!(
                    (live.1, live.2.as_deref()),
                    (Some(unix(at(4_000))), Some("3"))
                );
            }
        }
        assert!(seen_304 > 0 && seen_404 > 0 && seen_history_after_validator > 0);
    }
}
