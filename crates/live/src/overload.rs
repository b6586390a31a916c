//! Adaptive overload control shared between the reactors and the admin
//! plane.
//!
//! Two mechanisms keep a loaded proxy answering:
//!
//! * **origin pool** — the per-reactor fan-out cap follows observed
//!   per-fetch latency and errors, by the [`mutcon_core::limit`] rule
//!   (the LIMD/AIMD shape applied to concurrency instead of poll
//!   intervals), instead of staying frozen at [`MAX_CONNS_PER_ORIGIN`];
//!   the pool ledger ([`crate::upstream::PoolCore`]) only applies the
//!   cap each finished fetch hands back.
//! * **park-and-`503`** — a reactor at its connection bound stops
//!   accepting; clients parked in the kernel backlog longer than
//!   `park_deadline` get a static `503` + `Retry-After` instead of
//!   waiting forever.
//!
//! [`OverloadControl`] is the shared handle and the only place this
//! state lives: one [`ReactorOverload`] slot per reactor, each behind
//! its own lock, holding that reactor's pool limiter with the recent
//! fetch samples and the config values the reactor reads. A reactor only
//! ever locks its own slot (uncontended), once per finished origin
//! fetch. The admin plane's [`OverloadControl::install`] validates a
//! config and reconfigures every slot in place, carrying the learned
//! limit over, so a config takes effect at install; `GET /admin/stats`
//! renders the slots directly.

use std::collections::VecDeque;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mutcon_core::error::ConfigError;
use mutcon_core::limit::{Limiter, LimiterConfig, Sample};
use mutcon_core::time::Duration as CoreDuration;
use mutcon_traces::json::Json;
use parking_lot::Mutex;

use crate::metrics::{metrics, obj, put, Counter};
use crate::server::MAX_REACTORS;
use crate::upstream::MAX_CONNS_PER_ORIGIN;

/// Default `Retry-After` advertised on `503` responses, in seconds.
pub const DEFAULT_RETRY_AFTER_SECS: u32 = 1;

/// Default deadline after which clients parked in the kernel backlog (a
/// reactor at its connection bound stops accepting) are given a clean
/// `503` instead of waiting forever.
pub const DEFAULT_PARK_DEADLINE: Duration = Duration::from_secs(1);

/// How many recent origin fetches a slot keeps for `/admin/stats`.
const RECENT_SAMPLES: usize = 16;

/// The overload-control policy, installed as one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Origin-pool fan-out limiter; `None` keeps the static cap.
    pub pool: Option<LimiterConfig>,
    /// `Retry-After` value (seconds) on `503` responses.
    pub retry_after_secs: u32,
    /// How long accepting may stay paused at the connection bound before
    /// the parked backlog is drained with `503`s.
    pub park_deadline: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            pool: None,
            retry_after_secs: DEFAULT_RETRY_AFTER_SECS,
            park_deadline: DEFAULT_PARK_DEADLINE,
        }
    }
}

impl OverloadConfig {
    /// Validates the configuration the way the rules runtime validates
    /// an epoch: the pool limiter spec must be in range, and the scalar
    /// knobs must be sane.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), ConfigError> {
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
        Ok(())
    }
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
    retry_after_secs: u32,
    park_deadline: Duration,
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

    /// Takes `config` on in place. The pool limit carries over, clamped
    /// into the new bounds.
    fn configure(&mut self, config: &OverloadConfig) {
        // `install` validated the spec, so the limiter call cannot fail.
        let cap = self.pool_cap();
        self.pool = config.pool.clone().and_then(|spec| Limiter::new(spec, cap).ok());
        self.retry_after_secs = config.retry_after_secs;
        self.park_deadline = config.park_deadline;
    }

    /// `Retry-After` (seconds) on `503` responses.
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

    /// Records one finished origin fetch, `in_flight` fetches still
    /// running at that origin: a response feeds the pool limiter its
    /// latency as a success, a failure (connect error, broken transfer,
    /// timeout) an overload signal. Returns the per-origin cap. Without
    /// a pool limiter the sample is only counted.
    pub(crate) fn record_fetch(&mut self, in_flight: usize, latency: Duration, ok: bool) -> usize {
        let latency = CoreDuration::from_millis(u64::try_from(latency.as_millis()).unwrap_or(u64::MAX));
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
        obj([("pool", pool)])
    }
}

/// A limiter spec in the stats document (`null` while off).
fn spec(config: Option<&LimiterConfig>) -> Json {
    config.map_or(Json::Null, |c| Json::String(c.to_spec()))
}

metrics! {
    /// The shared overload-control handle. One per event loop; the proxy
    /// also hands it to its admin plane.
    pub struct OverloadControl {
        /// Parked backlog connections drained with `503`.
        parked_shed: Counter => "overload.parked_shed";
    }
    plus {
        /// How many configs [`OverloadControl::install`] has installed.
        version: AtomicU64 = AtomicU64::new(0),
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
    /// version. Every slot is reconfigured before this returns; the
    /// learned pool limit is carried over, not reset.
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
    }

    /// How many configs have been installed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// A clone of the installed configuration.
    pub fn config(&self) -> OverloadConfig {
        self.config.lock().clone()
    }

    /// Always 0: the proxy sheds no request by path. Parked connections
    /// drained with `503` are [`OverloadControl::parked_shed`]. Kept
    /// because `benchmark/` reads it.
    pub fn shed(&self) -> u64 {
        0
    }

    /// Reactor `index`'s slot, locked.
    pub(crate) fn slot(&self, index: usize) -> impl DerefMut<Target = ReactorOverload> + '_ {
        self.slots[index].lock()
    }

    /// Writes the installed config and the first `reactors` slots to the
    /// `overload` section of a stats document (the parked-shed counter is
    /// [`OverloadControl::render`]'s).
    pub fn render_state(&self, reactors: usize, doc: &mut Json) {
        let config = self.config();
        let slots = self.slots[..reactors].iter().map(|slot| slot.lock().render());
        put(doc, "overload.reactors", Json::Array(slots.collect()));
        put(doc, "overload.version", Json::Number(self.version() as f64));
        put(doc, "overload.pool", spec(config.pool.as_ref()));
        put(doc, "overload.retry_after_secs", Json::Number(f64::from(config.retry_after_secs)));
        put(doc, "overload.park_deadline_ms", Json::Number(config.park_deadline.as_millis() as f64));
    }
}

/// Serializes a config to the admin-plane text form (one `key=value` per
/// line), round-tripped exactly by [`parse_overload_body`].
pub fn render_overload(config: &OverloadConfig) -> String {
    let pool = config.pool.as_ref().map_or_else(|| "off".to_owned(), LimiterConfig::to_spec);
    format!(
        "pool={pool}\nretry_after_secs={}\npark_deadline_ms={}\n",
        config.retry_after_secs,
        config.park_deadline.as_millis()
    )
}

/// Parses the admin-plane text form written by [`render_overload`].
/// Omitted keys keep their defaults; unknown or duplicate keys are
/// rejected (a typo must not silently fall back to a default). `#`
/// starts a comment.
///
/// # Errors
///
/// Returns [`ConfigError::InvalidSpec`] for malformed text and the
/// embedded limiter spec's validation errors.
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
        match key {
            "pool" if value.eq_ignore_ascii_case("off") => config.pool = None,
            "pool" => config.pool = Some(LimiterConfig::from_spec(value)?),
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
    fn overload_body_round_trips() {
        let config = OverloadConfig {
            pool: Some(LimiterConfig::Aimd(AimdConfig {
                min: 2,
                decrease: 0.5,
                ..AimdConfig::default()
            })),
            retry_after_secs: 2,
            park_deadline: Duration::from_millis(750),
        };
        let text = render_overload(&config);
        let back = parse_overload_body(&text).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn defaults_and_comments_parse() {
        let config = parse_overload_body("# nothing set\n").unwrap();
        assert_eq!(config, OverloadConfig::default());
        let config = parse_overload_body("pool=aimd # adapt the fan-out\n").unwrap();
        assert_eq!(config.pool, Some(LimiterConfig::Aimd(AimdConfig::default())));
    }

    #[test]
    fn bad_bodies_are_rejected() {
        for bad in [
            "pool=tcp",
            "nonsense",
            "pool=aimd\npool=off",
            "unknown_key=1",
            "retry_after_secs=0",
            "park_deadline_ms=1",
            "admission=aimd",
            "admission_initial=32",
            "shed_delay_ms=25",
            "pool=vegas",
            "pool=gradient:window=16",
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
                pool: Some(LimiterConfig::Aimd(AimdConfig::default())),
                ..OverloadConfig::default()
            })
            .unwrap();
        assert_eq!(v, 1);
        assert!(control.config().pool.is_some());
        let rejected = control.install(OverloadConfig {
            retry_after_secs: 0,
            ..OverloadConfig::default()
        });
        assert!(rejected.is_err());
        assert_eq!(control.version(), 1, "a rejected install changes nothing");
        assert!(control.config().pool.is_some());
    }

    #[test]
    fn snapshots_aggregate_reactor_slots() {
        let control = OverloadControl::new(parse_overload_body("pool=aimd").unwrap());
        control.parked_shed.inc();
        control.slot(1).record_fetch(1, Duration::from_millis(5), true);
        assert_eq!((control.shed(), control.parked_shed()), (0, 1));
        let mut doc = Json::Null;
        control.render_state(2, &mut doc);
        let reactors = doc.get("overload").unwrap().get("reactors").unwrap().as_array().unwrap();
        assert_eq!(reactors.len(), 2);
        let samples = |i: usize| reactors[i].get("pool").unwrap().get("samples_ok").unwrap().as_u64();
        assert_eq!((samples(0), samples(1)), (Some(0), Some(1)));
    }

    #[test]
    fn install_reconfigures_every_slot_in_place() {
        let control = OverloadControl::new(parse_overload_body("pool=aimd").unwrap());
        assert_eq!(control.slot(0).record_fetch(1, Duration::from_millis(5), false), 24);
        // The learned cap carries over a swap, clamped into the new bounds.
        control.install(parse_overload_body("pool=aimd:max=16\nretry_after_secs=7").unwrap()).unwrap();
        assert_eq!(control.slot(0).pool_cap(), 16);
        assert_eq!(control.slot(MAX_REACTORS - 1).retry_after_secs(), 7);
        control.install(OverloadConfig::default()).unwrap();
        assert_eq!(control.slot(0).pool_cap(), MAX_CONNS_PER_ORIGIN);
        assert_eq!(control.slot(MAX_REACTORS - 1).retry_after_secs(), DEFAULT_RETRY_AFTER_SECS);
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
