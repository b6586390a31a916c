//! Overload control shared between the reactors and the admin plane:
//! park-and-`503`.
//!
//! A reactor at its connection bound stops accepting; clients parked in
//! the kernel backlog longer than `park_deadline` get a static `503` +
//! `Retry-After` instead of waiting forever. Origin fan-out is not
//! adapted: each reactor's pool opens at most
//! [`crate::upstream::MAX_CONNS_PER_ORIGIN`] sockets per origin and coalesces identical misses onto one fetch
//! ([`crate::upstream`]), so a crowd of misses queues at the proxy, not
//! at the origin.
//!
//! [`OverloadControl`] is the shared handle and the only place this
//! state lives: the installed [`OverloadConfig`] behind one lock, which a
//! reactor reads only while its listener is paused, and the parked-shed
//! counter. The admin plane's [`OverloadControl::install`] validates a
//! config and swaps it in, so a config takes effect at install.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mutcon_core::error::ConfigError;
use mutcon_traces::json::Json;
use parking_lot::Mutex;

use crate::metrics::{metrics, put, Counter};

/// Default `Retry-After` advertised on `503` responses, in seconds.
pub const DEFAULT_RETRY_AFTER_SECS: u32 = 1;

/// Default deadline after which clients parked in the kernel backlog (a
/// reactor at its connection bound stops accepting) are given a clean
/// `503` instead of waiting forever.
pub const DEFAULT_PARK_DEADLINE: Duration = Duration::from_secs(1);

/// The park-and-`503` policy, installed as one unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// `Retry-After` value (seconds) on `503` responses.
    pub retry_after_secs: u32,
    /// How long accepting may stay paused at the connection bound before
    /// the parked backlog is drained with `503`s.
    pub park_deadline: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            retry_after_secs: DEFAULT_RETRY_AFTER_SECS,
            park_deadline: DEFAULT_PARK_DEADLINE,
        }
    }
}

impl OverloadConfig {
    /// Validates the configuration the way the rules runtime validates
    /// an epoch: both values must be sane.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate(&self) -> Result<(), ConfigError> {
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
        /// The installed config: `GET /admin/overload` shows it, and a
        /// reactor with its listener paused reads it.
        config: Mutex<OverloadConfig> = Mutex::new(OverloadConfig::default()),
    }
}

impl OverloadControl {
    /// A handle starting from `config` (version 0: no install yet).
    pub fn new(config: OverloadConfig) -> OverloadControl {
        let control = OverloadControl::default();
        *control.config.lock() = config;
        control
    }

    /// Validates and installs a new configuration, returning the new
    /// version. The config is in force when this returns.
    ///
    /// # Errors
    ///
    /// Returns the validation failure; on error nothing changes.
    pub fn install(&self, config: OverloadConfig) -> Result<u64, ConfigError> {
        config.validate()?;
        // Held across the bump, so two installs cannot swap their order.
        let mut installed = self.config.lock();
        *installed = config;
        Ok(self.version.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// How many configs have been installed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// The installed configuration.
    pub fn config(&self) -> OverloadConfig {
        *self.config.lock()
    }

    /// Always 0: the proxy sheds no request by path. Parked connections
    /// drained with `503` are [`OverloadControl::parked_shed`]. Kept
    /// because `benchmark/` reads it.
    pub fn shed(&self) -> u64 {
        0
    }

    /// Writes the installed config and its version to the `overload`
    /// section of a stats document (the parked-shed counter is
    /// [`OverloadControl::render`]'s).
    pub fn render_state(&self, doc: &mut Json) {
        let config = self.config();
        put(doc, "overload.version", Json::Number(self.version() as f64));
        put(doc, "overload.retry_after_secs", Json::Number(f64::from(config.retry_after_secs)));
        put(doc, "overload.park_deadline_ms", Json::Number(config.park_deadline.as_millis() as f64));
    }
}

/// Serializes a config to the admin-plane text form (one `key=value` per
/// line), round-tripped exactly by [`parse_overload_body`].
pub fn render_overload(config: &OverloadConfig) -> String {
    format!(
        "retry_after_secs={}\npark_deadline_ms={}\n",
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
/// Returns [`ConfigError::InvalidSpec`] for malformed text, unknown keys
/// and out-of-range values.
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

    #[test]
    fn overload_body_round_trips() {
        let config = OverloadConfig {
            retry_after_secs: 2,
            park_deadline: Duration::from_millis(750),
        };
        let text = render_overload(&config);
        assert_eq!(text, "retry_after_secs=2\npark_deadline_ms=750\n");
        let back = parse_overload_body(&text).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn defaults_and_comments_parse() {
        let config = parse_overload_body("# nothing set\n").unwrap();
        assert_eq!(config, OverloadConfig::default());
        let config = parse_overload_body("retry_after_secs=3 # a slower client retry\n").unwrap();
        assert_eq!(config, OverloadConfig { retry_after_secs: 3, ..OverloadConfig::default() });
    }

    #[test]
    fn bad_bodies_are_rejected() {
        for bad in [
            "pool=aimd",
            "pool=off",
            "pool=tcp",
            "nonsense",
            "retry_after_secs=1\nretry_after_secs=2",
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
        // `pool` is not a key: it is refused by name like any other.
        let err = parse_overload_body("pool=aimd\n").unwrap_err();
        assert!(err.to_string().contains("unknown key `pool`"), "{err}");
    }

    #[test]
    fn install_versions_and_validates() {
        let control = OverloadControl::default();
        assert_eq!(control.version(), 0);
        let installed = OverloadConfig { retry_after_secs: 7, ..OverloadConfig::default() };
        assert_eq!(control.install(installed).unwrap(), 1);
        assert_eq!(control.config(), installed);
        let rejected = control.install(OverloadConfig {
            retry_after_secs: 0,
            ..OverloadConfig::default()
        });
        assert!(rejected.is_err());
        assert_eq!(control.version(), 1, "a rejected install changes nothing");
        assert_eq!(control.config(), installed);
    }
}
