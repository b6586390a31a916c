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
//! * **origin pool** — the per-reactor fan-out cap in
//!   [`crate::upstream::PoolCore`] follows observed per-fetch latency and
//!   errors instead of staying frozen at
//!   [`crate::upstream::MAX_CONNS_PER_ORIGIN`].
//!
//! [`OverloadControl`] is the shared handle: the admin plane installs a
//! validated [`OverloadConfig`] (versioned, same install discipline as
//! the rules epochs in [`crate::runtime`]), each reactor notices the
//! version bump on its next loop turn and reconfigures its local
//! limiters without dropping learned state, and the reactors push
//! per-reactor snapshots back so `GET /admin/stats` can report live
//! limits, recent samples and shed counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mutcon_core::error::ConfigError;
use mutcon_core::limit::LimiterConfig;
use parking_lot::Mutex;

use crate::metrics::{metrics, Counter};
use crate::server::MAX_REACTORS;
use crate::upstream::LimitSnapshot;

/// Default `Retry-After` advertised on shed responses, in seconds.
pub const DEFAULT_RETRY_AFTER_SECS: u32 = 1;

/// Default deadline after which clients parked in the kernel backlog (a
/// reactor at its connection bound stops accepting) are given a clean
/// `503` instead of waiting forever.
pub const DEFAULT_PARK_DEADLINE: Duration = Duration::from_secs(1);

/// Default starting limit for a fresh admission partition.
pub const DEFAULT_ADMISSION_INITIAL: usize = 32;

/// Most admission partitions a reactor tracks by name. The key is the
/// first path segment, which clients choose: without a bound, a scan over
/// distinct paths grows the table — and every stats snapshot of it —
/// without limit.
pub const MAX_PARTITIONS: usize = 256;

/// The partition charged for every first path segment first seen after a
/// reactor's table reached [`MAX_PARTITIONS`]. It sheds and releases like
/// any other.
pub const OVERFLOW_PARTITION: &str = "*";

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

/// One admission partition's state as a reactor reported it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSnap {
    /// Partition key (first path segment, e.g. `/stocks`, or
    /// [`OVERFLOW_PARTITION`]).
    pub partition: String,
    /// The partition's current admission limit on that reactor.
    pub limit: usize,
    /// Requests in flight on that reactor when the snapshot was taken.
    pub in_flight: usize,
    /// Requests shed from the partition on that reactor, ever.
    pub shed: u64,
}

/// Everything one reactor reports between loop turns.
#[derive(Debug, Clone, Default)]
pub struct ReactorOverloadSnap {
    /// Origin-pool limit state (cap, limiter spec, recent samples).
    pub pool: Option<LimitSnapshot>,
    /// Admission partitions, sorted by key; at most
    /// [`MAX_PARTITIONS`]` + 1` of them.
    pub partitions: Vec<PartitionSnap>,
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
        /// Bumped by [`OverloadControl::install`]; reactors reload lazily
        /// when their cached version falls behind (0 = never reconfigured).
        version: AtomicU64 = AtomicU64::new(0),
        config: Mutex<OverloadConfig> = Mutex::new(OverloadConfig::default()),
        /// One slot per reactor (no cross-reactor lock contention).
        slots: Vec<Mutex<ReactorOverloadSnap>> =
            (0..MAX_REACTORS).map(|_| Mutex::new(ReactorOverloadSnap::default())).collect(),
    }
}

impl OverloadControl {
    /// A handle starting from `config` (version 0; reactors adopt the
    /// initial config at startup without an install).
    pub fn new(config: OverloadConfig) -> OverloadControl {
        OverloadControl { config: Mutex::new(config), ..OverloadControl::default() }
    }

    /// Validates and installs a new configuration, returning the new
    /// version. Reactors reconfigure on their next loop turn; learned
    /// limits are carried over, not reset.
    ///
    /// # Errors
    ///
    /// Returns the validation failure; on error nothing changes.
    pub fn install(&self, config: OverloadConfig) -> Result<u64, ConfigError> {
        config.validate()?;
        let mut slot = self.config.lock();
        *slot = config;
        // Bump under the lock so a reactor that reads (version, config)
        // in that order can never pair a new version with an old config.
        Ok(self.version.fetch_add(1, Ordering::Release) + 1)
    }

    /// The installed-config version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A clone of the installed configuration.
    pub fn config(&self) -> OverloadConfig {
        self.config.lock().clone()
    }

    /// Stores reactor `index`'s snapshot (called from its thread).
    pub(crate) fn publish(&self, index: usize, snap: ReactorOverloadSnap) {
        if let Some(slot) = self.slots.get(index) {
            *slot.lock() = snap;
        }
    }

    /// What each of the first `reactors` reactors last published.
    pub fn reactor_snapshots(&self, reactors: usize) -> Vec<ReactorOverloadSnap> {
        self.slots.iter().take(reactors).map(|slot| slot.lock().clone()).collect()
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
        let control = OverloadControl::default();
        control.shed.add(3);
        control.parked_shed.inc();
        control.publish(
            1,
            ReactorOverloadSnap {
                pool: None,
                partitions: vec![PartitionSnap {
                    partition: "/x".into(),
                    limit: 8,
                    in_flight: 2,
                    shed: 5,
                }],
            },
        );
        assert_eq!((control.shed(), control.parked_shed()), (3, 1));
        let reactors = control.reactor_snapshots(2);
        assert_eq!(reactors.len(), 2);
        assert_eq!(reactors[1].partitions[0].partition, "/x");
    }
}
