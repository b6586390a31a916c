//! Adaptive overload control shared between the reactors and the admin
//! plane.
//!
//! The engine has two adaptive limiters, both driven by the
//! [`mutcon_core::limit`] rule (the LIMD/AIMD shape applied to
//! concurrency instead of poll intervals):
//!
//! * **admission** — per path-partition: once a partition's in-flight
//!   work exceeds its limiter's current limit, further requests are shed
//!   with `429 Too Many Requests` + `Retry-After` instead of queueing
//!   without bound. Partitions are the first path segment, so one hot
//!   object cannot starve the rest; a reactor tracks at most
//!   [`MAX_PARTITIONS`] of them by name and charges the rest to one
//!   shared [`OVERFLOW_PARTITION`].
//! * **origin pool** — the per-reactor fan-out cap follows observed
//!   per-fetch latency and errors instead of staying frozen at
//!   [`MAX_CONNS_PER_ORIGIN`]; the pool ledger
//!   ([`crate::upstream::PoolCore`]) only applies the cap each finished
//!   fetch hands back.
//!
//! [`OverloadControl`] is the shared handle and the only place this
//! state lives: one [`ReactorOverload`] slot per reactor, each behind
//! its own lock, holding that reactor's admission partitions, its pool
//! limiter with the recent fetch samples, and the config values the
//! reactor reads. A reactor only ever locks its own slot (uncontended):
//! once to admit a request and once to release it, once per finished
//! origin fetch. While admission is off a request pays one relaxed load
//! ([`OverloadControl::admits`]) and no lock. The admin plane's
//! [`OverloadControl::install`] validates a config and reconfigures
//! every slot in place, carrying learned limits over, so a config takes
//! effect at install; `GET /admin/stats` renders the slots directly.

use std::collections::{HashMap, VecDeque};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutcon_core::error::ConfigError;
use mutcon_core::limit::{Limiter, LimiterConfig, Sample};
use mutcon_core::time::Duration as CoreDuration;
use mutcon_traces::json::Json;
use parking_lot::Mutex;

use crate::metrics::{metrics, obj, put, Counter};
use crate::server::MAX_REACTORS;
use crate::upstream::MAX_CONNS_PER_ORIGIN;

/// Default `Retry-After` advertised on shed responses, in seconds.
pub const DEFAULT_RETRY_AFTER_SECS: u32 = 1;

/// Default deadline after which clients parked in the kernel backlog (a
/// reactor at its connection bound stops accepting) are given a clean
/// `503` instead of waiting forever.
pub const DEFAULT_PARK_DEADLINE: Duration = Duration::from_secs(1);

/// Default starting limit for a fresh admission partition.
pub const DEFAULT_ADMISSION_INITIAL: usize = 32;

/// How many recent origin fetches a slot keeps for `/admin/stats`.
const RECENT_SAMPLES: usize = 16;

/// Most admission partitions a reactor tracks by name. The key is the
/// first path segment, which clients choose: without a bound, a scan over
/// distinct paths grows the table — and every stats snapshot of it —
/// without limit.
pub const MAX_PARTITIONS: usize = 256;

/// The partition charged for every first path segment first seen after a
/// reactor's table reached [`MAX_PARTITIONS`]. It sheds and releases like
/// any other.
pub const OVERFLOW_PARTITION: &str = "*";

/// Paths under this prefix, the proxy's admin plane, are never admitted
/// or shed: an operator must reach `PUT /admin/overload` to turn
/// admission off even when a path scan has the overflow partition full,
/// and `GET /admin/stats`, which reads the partitions live, must not
/// count itself in them.
pub const ADMIN_PREFIX: &str = "/admin/";

/// The overload-control policy, installed as one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Admission limiter per path-partition; `None` disables shedding.
    pub admission: Option<LimiterConfig>,
    /// Origin-pool fan-out limiter; `None` keeps the static cap.
    pub pool: Option<LimiterConfig>,
    /// `Retry-After` value (seconds) on `429`/`503` responses.
    pub retry_after_secs: u32,
    /// How long accepting may stay paused at the connection bound before
    /// the parked backlog is drained with `503`s.
    pub park_deadline: Duration,
    /// Starting limit for a newly seen admission partition.
    pub admission_initial: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            admission: None,
            pool: None,
            retry_after_secs: DEFAULT_RETRY_AFTER_SECS,
            park_deadline: DEFAULT_PARK_DEADLINE,
            admission_initial: DEFAULT_ADMISSION_INITIAL,
        }
    }
}

impl OverloadConfig {
    /// Validates the configuration the way the rules runtime validates
    /// an epoch: every embedded limiter spec must be in range, and the
    /// scalar knobs must be sane.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(admission) = &self.admission {
            admission.validate()?;
        }
        if let Some(pool) = &self.pool {
            pool.validate()?;
        }
        if self.retry_after_secs == 0 {
            return Err(ConfigError::InvalidSpec {
                message: "`retry_after_secs` must be >= 1".into(),
            });
        }
        if self.park_deadline < Duration::from_millis(10) {
            return Err(ConfigError::InvalidSpec {
                message: "`park_deadline_ms` must be >= 10".into(),
            });
        }
        if self.admission_initial == 0 {
            return Err(ConfigError::InvalidSpec {
                message: "`admission_initial` must be >= 1".into(),
            });
        }
        Ok(())
    }
}

/// An admission slot charged to a path partition for one in-flight
/// request, from [`ReactorOverload::admit`]. It goes back exactly once:
/// to [`ReactorOverload::release`] when the response is fully flushed,
/// or to [`ReactorOverload::abandon`] when the client leaves first.
#[derive(Debug)]
pub(crate) struct Ticket {
    partition: Arc<str>,
    /// The slot's generation when the ticket was charged: a ticket from
    /// before the partitions were last cleared releases nothing.
    generation: u64,
    started: Instant,
}

/// Admission state for one path partition.
#[derive(Debug)]
struct Partition {
    limiter: Limiter,
    /// Requests admitted and not yet released or abandoned.
    in_flight: usize,
    /// Requests shed (`429`) from this partition.
    shed: u64,
}

/// One finished origin fetch, as `/admin/stats` shows it.
#[derive(Debug, Clone, Copy)]
struct FetchSample {
    latency_ms: u64,
    ok: bool,
    /// The per-origin cap after this sample was applied.
    limit_after: usize,
}

/// One reactor's overload state, in its [`OverloadControl`] slot. See
/// the module docs.
#[derive(Debug, Default)]
pub(crate) struct ReactorOverload {
    /// Admission limiter for new partitions; `None` while admission is
    /// off.
    admission: Option<LimiterConfig>,
    admission_initial: usize,
    retry_after_secs: u32,
    park_deadline: Duration,
    /// Bumped each time admission is turned off and the partitions go.
    generation: u64,
    /// Created as partitions are first seen: at most [`MAX_PARTITIONS`]
    /// named ones plus [`OVERFLOW_PARTITION`]. Empty while admission is
    /// off.
    partitions: HashMap<Arc<str>, Partition>,
    /// The origin pool's fan-out limiter; `None` keeps the static
    /// [`MAX_CONNS_PER_ORIGIN`].
    pool: Option<Limiter>,
    samples_ok: u64,
    samples_overload: u64,
    /// The most recent fetches, oldest first.
    recent: VecDeque<FetchSample>,
}

impl ReactorOverload {
    fn new(config: &OverloadConfig) -> ReactorOverload {
        let mut slot = ReactorOverload::default();
        slot.configure(config);
        slot
    }

    /// Takes `config` on in place. Partition and pool limits carry over,
    /// clamped into the new bounds; admission off drops the partitions.
    fn configure(&mut self, config: &OverloadConfig) {
        // `install` validated both specs, so no limiter call here fails.
        match &config.admission {
            Some(spec) => {
                for part in self.partitions.values_mut() {
                    let _ = part.limiter.reconfigure(spec.clone());
                }
            }
            None => {
                self.partitions.clear();
                self.generation += 1;
            }
        }
        let cap = self.pool_cap();
        self.pool = config.pool.clone().and_then(|spec| Limiter::new(spec, cap).ok());
        self.admission = config.admission.clone();
        self.admission_initial = config.admission_initial;
        self.retry_after_secs = config.retry_after_secs;
        self.park_deadline = config.park_deadline;
    }

    /// `Retry-After` (seconds) on `429` and `503` responses.
    pub(crate) fn retry_after_secs(&self) -> u32 {
        self.retry_after_secs
    }

    /// How long accepting may stay paused at the connection bound before
    /// the parked backlog is drained with `503`s.
    pub(crate) fn park_deadline(&self) -> Duration {
        self.park_deadline
    }

    /// The per-origin connection cap the reactor's pool ledger applies.
    pub(crate) fn pool_cap(&self) -> usize {
        self.pool.as_ref().map_or(MAX_CONNS_PER_ORIGIN, Limiter::limit)
    }

    /// Charges one request for `path` to its partition. `Ok(None)` while
    /// admission is off; `Err(retry_after_secs)` when the partition is
    /// at its limit and the request is shed.
    pub(crate) fn admit(&mut self, path: &str) -> Result<Option<Ticket>, u32> {
        let Some(spec) = &self.admission else { return Ok(None) };
        let mut key = partition_of(path);
        // Clients choose the key, so the table is bounded: once it holds
        // `MAX_PARTITIONS` names, every new one shares the overflow slot.
        if !self.partitions.contains_key(key) && self.partitions.len() >= MAX_PARTITIONS {
            key = OVERFLOW_PARTITION;
        }
        let partition = match self.partitions.get_key_value(key) {
            Some((name, _)) => Arc::clone(name),
            None => {
                let Ok(limiter) = Limiter::new(spec.clone(), self.admission_initial) else {
                    return Ok(None); // validated at install time; defensive
                };
                let name: Arc<str> = Arc::from(key);
                let part = Partition { limiter, in_flight: 0, shed: 0 };
                self.partitions.insert(Arc::clone(&name), part);
                name
            }
        };
        let Some(part) = self.partitions.get_mut(&partition) else { return Ok(None) };
        if part.in_flight >= part.limiter.limit() {
            part.shed += 1;
            return Err(self.retry_after_secs);
        }
        part.in_flight += 1;
        Ok(Some(Ticket { partition, generation: self.generation, started: Instant::now() }))
    }

    /// Gives a ticket back once its response is fully flushed and feeds
    /// the partition's limiter the request's end-to-end latency: queue,
    /// service, upstream and client write stalls (`5xx` counts as
    /// overload).
    pub(crate) fn release(&mut self, ticket: Ticket, status: u16) {
        let latency = millis(ticket.started.elapsed());
        if let Some((part, in_flight)) = self.discharge(&ticket) {
            let sample = match status {
                500.. => Sample::overload(in_flight, latency),
                _ => Sample::success(in_flight, latency),
            };
            part.limiter.on_sample(&sample);
        }
    }

    /// Gives a ticket back without a sample: the client left before its
    /// response was flushed, so there is no completion to measure.
    pub(crate) fn abandon(&mut self, ticket: Ticket) {
        self.discharge(&ticket);
    }

    /// Uncharges `ticket`'s partition, returning it with the in-flight
    /// count from before; `None` for a stale ticket.
    fn discharge(&mut self, ticket: &Ticket) -> Option<(&mut Partition, usize)> {
        if ticket.generation != self.generation {
            return None;
        }
        let part = self.partitions.get_mut(&ticket.partition)?;
        let in_flight = part.in_flight;
        part.in_flight = in_flight.saturating_sub(1);
        Some((part, in_flight))
    }

    /// Records one finished origin fetch, `in_flight` fetches still
    /// running at that origin: a response feeds the pool limiter its
    /// latency as a success, a failure (connect error, broken transfer,
    /// timeout) an overload signal. Returns the per-origin cap. Without
    /// a pool limiter the sample is only counted.
    pub(crate) fn record_fetch(&mut self, in_flight: usize, latency: Duration, ok: bool) -> usize {
        let latency = millis(latency);
        let limit_after = match (&mut self.pool, ok) {
            (Some(pool), true) => pool.on_sample(&Sample::success(in_flight, latency)),
            (Some(pool), false) => pool.on_sample(&Sample::overload(in_flight, latency)),
            (None, _) => MAX_CONNS_PER_ORIGIN,
        };
        if ok {
            self.samples_ok += 1;
        } else {
            self.samples_overload += 1;
        }
        if self.recent.len() == RECENT_SAMPLES {
            self.recent.pop_front();
        }
        let latency_ms = latency.as_millis();
        self.recent.push_back(FetchSample { latency_ms, ok, limit_after });
        limit_after
    }

    /// The slot as one element of `overload.reactors` in `/admin/stats`.
    fn render(&self) -> Json {
        let recent = self.recent.iter().map(|s| {
            obj([
                ("latency_ms", Json::Number(s.latency_ms as f64)),
                ("ok", Json::Bool(s.ok)),
                ("limit_after", Json::Number(s.limit_after as f64)),
            ])
        });
        let algorithm = self.pool.as_ref().map(|l| l.config());
        let pool = obj([
            ("limit", Json::Number(self.pool_cap() as f64)),
            ("algorithm", spec(algorithm)),
            ("samples_ok", Json::Number(self.samples_ok as f64)),
            ("samples_overload", Json::Number(self.samples_overload as f64)),
            ("recent", Json::Array(recent.collect())),
        ]);
        let mut partitions: Vec<_> = self.partitions.iter().collect();
        partitions.sort_by(|a, b| a.0.cmp(b.0));
        let partitions = partitions.into_iter().map(|(name, p)| {
            obj([
                ("partition", Json::String(name.to_string())),
                ("limit", Json::Number(p.limiter.limit() as f64)),
                ("in_flight", Json::Number(p.in_flight as f64)),
                ("shed", Json::Number(p.shed as f64)),
            ])
        });
        obj([("pool", pool), ("partitions", Json::Array(partitions.collect()))])
    }
}

/// A limiter spec in the stats document (`null` while off).
fn spec(config: Option<&LimiterConfig>) -> Json {
    config.map_or(Json::Null, |c| Json::String(c.to_spec()))
}

/// `elapsed` in the limiter's whole milliseconds.
fn millis(elapsed: Duration) -> CoreDuration {
    CoreDuration::from_millis(u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX))
}

metrics! {
    /// The shared overload-control handle. One per event loop; the proxy
    /// also hands it to its admin plane.
    pub struct OverloadControl {
        /// Requests shed with `429`, across all reactors.
        shed: Counter => "overload.shed";
        /// Parked backlog connections drained with `503`.
        parked_shed: Counter => "overload.parked_shed";
    }
    plus {
        /// How many configs [`OverloadControl::install`] has installed.
        version: AtomicU64 = AtomicU64::new(0),
        /// Whether admission is on: all a request pays while it is off.
        admission_on: AtomicBool = AtomicBool::new(false),
        /// The installed config, as `GET /admin/overload` shows it.
        config: Mutex<OverloadConfig> = Mutex::new(OverloadConfig::default()),
        /// One slot per reactor, each locked by its reactor and by
        /// `install` and the stats plane, never by another reactor.
        slots: Vec<Mutex<ReactorOverload>> = (0..MAX_REACTORS)
            .map(|_| Mutex::new(ReactorOverload::new(&OverloadConfig::default())))
            .collect(),
    }
}

impl OverloadControl {
    /// A handle starting from `config` (version 0: no install yet).
    pub fn new(config: OverloadConfig) -> OverloadControl {
        let control = OverloadControl::default();
        control.reconfigure(&config);
        *control.config.lock() = config;
        control
    }

    /// Validates and installs a new configuration, returning the new
    /// version. Every slot is reconfigured before this returns; learned
    /// limits are carried over, not reset.
    ///
    /// # Errors
    ///
    /// Returns the validation failure; on error nothing changes.
    pub fn install(&self, config: OverloadConfig) -> Result<u64, ConfigError> {
        config.validate()?;
        // Held throughout, so two installs cannot interleave their slots.
        let mut installed = self.config.lock();
        self.reconfigure(&config);
        *installed = config;
        Ok(self.version.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Reconfigures every slot in place, each under its own lock.
    fn reconfigure(&self, config: &OverloadConfig) {
        for slot in &self.slots {
            slot.lock().configure(config);
        }
        self.admission_on.store(config.admission.is_some(), Ordering::Relaxed);
    }

    /// How many configs have been installed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// A clone of the installed configuration.
    pub fn config(&self) -> OverloadConfig {
        self.config.lock().clone()
    }

    /// Whether a request for `path` goes through admission: admission is
    /// on and `path` is not the admin plane ([`ADMIN_PREFIX`]). One
    /// relaxed load; a reactor that reads `false` serves the request
    /// without touching its slot.
    pub(crate) fn admits(&self, path: &str) -> bool {
        self.admission_on.load(Ordering::Relaxed) && !path.starts_with(ADMIN_PREFIX)
    }

    /// Reactor `index`'s slot, locked.
    pub(crate) fn slot(&self, index: usize) -> impl DerefMut<Target = ReactorOverload> + '_ {
        self.slots[index].lock()
    }

    /// Writes the installed config and the first `reactors` slots to the
    /// `overload` section of a stats document (the shed counters are
    /// [`OverloadControl::render`]'s).
    pub fn render_state(&self, reactors: usize, doc: &mut Json) {
        let config = self.config();
        let slots = self.slots[..reactors].iter().map(|slot| slot.lock().render());
        put(doc, "overload.reactors", Json::Array(slots.collect()));
        put(doc, "overload.version", Json::Number(self.version() as f64));
        put(doc, "overload.admission", spec(config.admission.as_ref()));
        put(doc, "overload.pool", spec(config.pool.as_ref()));
        put(doc, "overload.retry_after_secs", Json::Number(f64::from(config.retry_after_secs)));
        put(doc, "overload.park_deadline_ms", Json::Number(config.park_deadline.as_millis() as f64));
        put(doc, "overload.admission_initial", Json::Number(config.admission_initial as f64));
    }
}

/// The admission partition of a request path: its first segment
/// (`/stocks/ibm?q=1` → `/stocks`), the whole path when it has no second
/// segment. Admission tracks in-flight work and limits per partition.
pub fn partition_of(path: &str) -> &str {
    let path = path.split('?').next().unwrap_or(path);
    if let Some(rest) = path.strip_prefix('/') {
        if let Some(i) = rest.find('/') {
            return &path[..i + 1];
        }
    }
    path
}

/// Serializes a config to the admin-plane text form (one `key=value` per
/// line), round-tripped exactly by [`parse_overload_body`].
pub fn render_overload(config: &OverloadConfig) -> String {
    let mut out = String::new();
    let limiter = |spec: &Option<LimiterConfig>| match spec {
        Some(c) => c.to_spec(),
        None => "off".to_owned(),
    };
    out.push_str(&format!("admission={}\n", limiter(&config.admission)));
    out.push_str(&format!("pool={}\n", limiter(&config.pool)));
    out.push_str(&format!("retry_after_secs={}\n", config.retry_after_secs));
    out.push_str(&format!("park_deadline_ms={}\n", config.park_deadline.as_millis()));
    out.push_str(&format!("admission_initial={}\n", config.admission_initial));
    out
}

/// Parses the admin-plane text form written by [`render_overload`].
/// Omitted keys keep their defaults; unknown or duplicate keys are
/// rejected (a typo must not silently fall back to a default). `#`
/// starts a comment.
///
/// # Errors
///
/// Returns [`ConfigError::InvalidSpec`] for malformed text and the
/// embedded limiter specs' validation errors.
pub fn parse_overload_body(body: &str) -> Result<OverloadConfig, ConfigError> {
    fn bad(message: impl Into<String>) -> ConfigError {
        ConfigError::InvalidSpec { message: message.into() }
    }
    let mut config = OverloadConfig::default();
    let mut seen: Vec<&str> = Vec::new();
    for raw in body.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(format!("`{line}` is not a key=value line")))?;
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return Err(bad(format!("duplicate key `{key}`")));
        }
        seen.push(key);
        let limiter = |value: &str| -> Result<Option<LimiterConfig>, ConfigError> {
            if value.eq_ignore_ascii_case("off") {
                Ok(None)
            } else {
                LimiterConfig::from_spec(value).map(Some)
            }
        };
        match key {
            "admission" => config.admission = limiter(value)?,
            "pool" => config.pool = limiter(value)?,
            "retry_after_secs" => {
                config.retry_after_secs = value
                    .parse::<u32>()
                    .map_err(|_| bad("`retry_after_secs` must be an integer second count"))?;
            }
            "park_deadline_ms" => {
                config.park_deadline = value
                    .parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| bad("`park_deadline_ms` must be an integer millisecond count"))?;
            }
            "admission_initial" => {
                config.admission_initial = value
                    .parse::<usize>()
                    .map_err(|_| bad("`admission_initial` must be an integer"))?;
            }
            other => return Err(bad(format!("unknown key `{other}`"))),
        }
    }
    config.validate()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_core::limit::AimdConfig;

    #[test]
    fn partitions_are_first_segments() {
        assert_eq!(partition_of("/stocks/ibm"), "/stocks");
        assert_eq!(partition_of("/stocks/msft?fast=1"), "/stocks");
        assert_eq!(partition_of("/news"), "/news");
        assert_eq!(partition_of("/news?page=2"), "/news");
        assert_eq!(partition_of("/"), "/");
        assert_eq!(partition_of("/a/b/c"), "/a");
    }

    #[test]
    fn overload_body_round_trips() {
        let config = OverloadConfig {
            admission: Some(LimiterConfig::Aimd(AimdConfig { max: 128, ..AimdConfig::default() })),
            pool: Some(LimiterConfig::Aimd(AimdConfig {
                min: 2,
                decrease: 0.5,
                ..AimdConfig::default()
            })),
            retry_after_secs: 2,
            park_deadline: Duration::from_millis(750),
            admission_initial: 16,
        };
        let text = render_overload(&config);
        let back = parse_overload_body(&text).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn defaults_and_comments_parse() {
        let config = parse_overload_body("# nothing set\n").unwrap();
        assert_eq!(config, OverloadConfig::default());
        let config = parse_overload_body("admission=aimd # shed hot paths\n").unwrap();
        assert_eq!(
            config.admission,
            Some(LimiterConfig::Aimd(AimdConfig::default()))
        );
    }

    #[test]
    fn bad_bodies_are_rejected() {
        for bad in [
            "admission=tcp",
            "nonsense",
            "admission=aimd\nadmission=off",
            "unknown_key=1",
            "retry_after_secs=0",
            "park_deadline_ms=1",
            "admission_initial=0",
            "shed_delay_ms=25",
            "pool=vegas",
            "admission=gradient:window=16",
            "park_deadline_ms=soon",
        ] {
            assert!(parse_overload_body(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn install_versions_and_validates() {
        let control = OverloadControl::default();
        assert_eq!(control.version(), 0);
        let v = control
            .install(OverloadConfig {
                admission: Some(LimiterConfig::Aimd(AimdConfig::default())),
                ..OverloadConfig::default()
            })
            .unwrap();
        assert_eq!(v, 1);
        assert!(control.config().admission.is_some());
        let rejected = control.install(OverloadConfig {
            retry_after_secs: 0,
            ..OverloadConfig::default()
        });
        assert!(rejected.is_err());
        assert_eq!(control.version(), 1, "a rejected install changes nothing");
        assert!(control.config().admission.is_some());
    }

    #[test]
    fn snapshots_aggregate_reactor_slots() {
        let control = OverloadControl::new(parse_overload_body("admission=aimd").unwrap());
        control.shed.add(3);
        control.parked_shed.inc();
        let _ticket = control.slot(1).admit("/x/1").unwrap();
        assert_eq!((control.shed(), control.parked_shed()), (3, 1));
        let mut doc = Json::Null;
        control.render_state(2, &mut doc);
        let reactors = doc.get("overload").unwrap().get("reactors").unwrap().as_array().unwrap();
        assert_eq!(reactors.len(), 2);
        assert!(reactors[0].get("partitions").unwrap().as_array().unwrap().is_empty());
        let partition = &reactors[1].get("partitions").unwrap().as_array().unwrap()[0];
        assert_eq!(partition.get("partition").unwrap().as_str(), Some("/x"));
        assert_eq!(partition.get("in_flight").unwrap().as_u64(), Some(1));
    }

    /// Admission on, starting at (and capped by) `limit`.
    fn pinned(limit: usize) -> OverloadConfig {
        OverloadConfig {
            admission: Some(LimiterConfig::Aimd(AimdConfig {
                max: limit,
                ..AimdConfig::default()
            })),
            admission_initial: limit,
            ..OverloadConfig::default()
        }
    }

    /// A slot configured with [`pinned`], and the `(limit, in_flight,
    /// shed)` of one of its partitions.
    fn admitting(limit: usize) -> ReactorOverload {
        ReactorOverload::new(&pinned(limit))
    }

    fn partition(slot: &ReactorOverload, name: &str) -> (usize, usize, u64) {
        let part = &slot.partitions[name];
        (part.limiter.limit(), part.in_flight, part.shed)
    }

    #[test]
    fn admission_admits_to_the_limit_then_sheds_with_retry_after() {
        let mut slot = admitting(2);
        let a = slot.admit("/p/a").unwrap().expect("admission is on");
        let b = slot.admit("/p/b?x=1").unwrap().expect("admission is on");
        assert_eq!(slot.admit("/p/c").unwrap_err(), DEFAULT_RETRY_AFTER_SECS);
        assert_eq!(partition(&slot, "/p"), (2, 2, 1));
        // Another partition is charged on its own.
        assert!(slot.admit("/q").unwrap().is_some());
        slot.release(a, 200);
        slot.abandon(b);
        assert_eq!(partition(&slot, "/p").1, 0);
        // Admission off: nothing is charged.
        assert!(ReactorOverload::new(&OverloadConfig::default()).admit("/p").unwrap().is_none());
    }

    #[test]
    fn release_samples_with_5xx_as_overload_and_abandon_samples_nothing() {
        let mut slot = admitting(8);
        // A 5xx backs the limit off: 8 → 6.
        let ticket = slot.admit("/p").unwrap().unwrap();
        slot.release(ticket, 503);
        assert_eq!(partition(&slot, "/p").0, 6);
        // A success with the limit more than 80% used grows it: 6 → 7.
        let tickets: Vec<_> = (0..6).map(|_| slot.admit("/p").unwrap().unwrap()).collect();
        let mut tickets = tickets.into_iter();
        slot.release(tickets.next().unwrap(), 200);
        assert_eq!(partition(&slot, "/p"), (7, 5, 0));
        // An abandoned ticket frees its place and moves no limit.
        slot.abandon(tickets.next().unwrap());
        assert_eq!(partition(&slot, "/p"), (7, 4, 0));
    }

    #[test]
    fn names_past_max_partitions_share_the_overflow_partition() {
        let mut slot = admitting(1);
        for i in 0..MAX_PARTITIONS {
            assert!(slot.admit(&format!("/n{i}")).is_ok());
        }
        let late = slot.admit("/late/a").unwrap().unwrap();
        assert_eq!(slot.admit("/later").unwrap_err(), DEFAULT_RETRY_AFTER_SECS);
        assert_eq!(slot.partitions.len(), MAX_PARTITIONS + 1);
        assert_eq!(partition(&slot, OVERFLOW_PARTITION), (1, 1, 1));
        slot.release(late, 200);
        assert_eq!(partition(&slot, OVERFLOW_PARTITION).1, 0);
    }

    #[test]
    fn a_ticket_from_before_admission_went_off_and_on_releases_nothing() {
        let mut slot = admitting(1);
        let a = slot.admit("/p/a").unwrap().unwrap();
        slot.configure(&OverloadConfig::default());
        assert!(slot.partitions.is_empty());
        slot.configure(&pinned(1));
        let b = slot.admit("/p/b").unwrap().unwrap();
        slot.release(a, 503);
        assert_eq!(partition(&slot, "/p"), (1, 1, 0), "a stale release must not free B's place");
        assert!(slot.admit("/p/c").is_err());
        slot.abandon(b);
        assert_eq!(partition(&slot, "/p").1, 0);
    }

    #[test]
    fn install_reconfigures_every_slot_in_place() {
        let control = OverloadControl::new(pinned(8));
        let ticket = control.slot(0).admit("/p").unwrap().unwrap();
        control.slot(0).release(ticket, 500);
        assert_eq!(partition(&control.slot(0), "/p").0, 6);
        // Learned limits carry over a swap, clamped into the new bounds.
        control.install(OverloadConfig { retry_after_secs: 7, ..pinned(4) }).unwrap();
        assert_eq!(partition(&control.slot(0), "/p").0, 4);
        assert_eq!(control.slot(MAX_REACTORS - 1).retry_after_secs(), 7);
        assert!(control.admits("/p") && !control.admits("/admin/stats"));
        control.install(OverloadConfig::default()).unwrap();
        assert!(!control.admits("/p"));
        assert!(control.slot(0).partitions.is_empty());
    }

    #[test]
    fn static_pool_counts_samples_but_keeps_its_cap() {
        let mut slot = ReactorOverload::new(&OverloadConfig::default());
        assert_eq!(slot.record_fetch(1, Duration::from_millis(5), true), MAX_CONNS_PER_ORIGIN);
        assert_eq!(slot.record_fetch(1, Duration::from_millis(5), false), MAX_CONNS_PER_ORIGIN);
        assert_eq!(slot.pool_cap(), MAX_CONNS_PER_ORIGIN);
        assert!(slot.pool.is_none());
        assert_eq!((slot.samples_ok, slot.samples_overload), (1, 1));
        assert_eq!(slot.recent.len(), 2);
        for _ in 0..2 * RECENT_SAMPLES {
            slot.record_fetch(1, Duration::from_millis(5), true);
        }
        assert_eq!(slot.recent.len(), RECENT_SAMPLES);
    }

    #[test]
    fn hot_swap_keeps_the_learned_cap() {
        let control = OverloadControl::new(parse_overload_body("pool=aimd").unwrap());
        assert_eq!(control.slot(0).pool_cap(), MAX_CONNS_PER_ORIGIN, "installed at the static cap");
        assert_eq!(control.slot(0).record_fetch(1, Duration::from_millis(50), false), 24);
        control.install(parse_overload_body("pool=aimd:m=0.5,max=64").unwrap()).unwrap();
        assert_eq!(control.slot(0).pool_cap(), 24, "a swap must not reset the cap");
        let bad = OverloadConfig { retry_after_secs: 0, ..parse_overload_body("pool=aimd").unwrap() };
        assert!(control.install(bad).is_err());
        assert_eq!(control.slot(0).pool_cap(), 24, "a rejected swap changes nothing");
        let recent = control.slot(0).recent[0];
        assert_eq!((recent.latency_ms, recent.ok, recent.limit_after), (50, false, 24));
        // Pool off restores the static cap.
        control.install(OverloadConfig::default()).unwrap();
        assert_eq!(control.slot(0).pool_cap(), MAX_CONNS_PER_ORIGIN);
    }
}
