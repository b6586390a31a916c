//! The adaptive concurrency limit, unified with LIMD.
//!
//! The paper's LIMD controller (§3.1, [`crate::limd`]) is AIMD-shaped: it
//! probes a poll interval upward linearly while the object looks stable and
//! backs off multiplicatively the moment consistency is violated. The very
//! same shape governs *concurrency* limits in production proxies: probe the
//! number of in-flight requests upward while work completes healthily, back
//! off multiplicatively on overload. This module is that rule applied to
//! in-flight work, reusing the LIMD parameter names (`l` for the linear
//! step, `m` for the decrease factor). Increase is gated on utilisation so
//! an idle limiter does not drift toward its ceiling.
//!
//! The rule is a pure function of (limit, sample): the caller feeds
//! [`Sample`]s (one per completed unit of work) through
//! [`Limiter::on_sample`] and reads the current limit back. Nothing here
//! blocks, allocates per-sample, or knows about sockets — the live proxy
//! drives one limiter per origin pool from its reactor threads.
//!
//! A configuration serializes to a one-line `aimd:key=value,...` spec
//! (mirroring [`crate::limd::LimdConfig::to_spec`]) so a control plane can
//! hot-swap the bounds over the wire.

use crate::error::ConfigError;
use crate::time::Duration;

/// How one completed unit of work went, as far as the limiter cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The work completed normally; its latency is meaningful.
    Success,
    /// The work failed in a way that indicates pressure (timeout,
    /// connection error, shed) — the limiter should back off.
    Overload,
}

/// One observation fed to a [`Limiter`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Concurrent units of work in flight when this one completed.
    pub in_flight: usize,
    /// Observed latency of this unit of work. The AIMD rule does not read
    /// it; it stays in the record because `benchmark/` (read-only here)
    /// builds samples with it.
    pub latency: Duration,
    /// Whether it succeeded or signalled overload.
    pub outcome: Outcome,
}

impl Sample {
    /// Convenience constructor for a successful sample.
    pub fn success(in_flight: usize, latency: Duration) -> Self {
        Sample { in_flight, latency, outcome: Outcome::Success }
    }

    /// Convenience constructor for an overload sample.
    pub fn overload(in_flight: usize, latency: Duration) -> Self {
        Sample { in_flight, latency, outcome: Outcome::Overload }
    }
}

/// The parameters of the additive-increase / multiplicative-decrease rule
/// — LIMD (§3.1) transplanted from poll intervals to in-flight work.
///
/// On [`Outcome::Success`] with the limit more than `utilisation` full,
/// the limit grows by `increase_by`; an under-utilised limiter holds still
/// (growing a limit nobody is pressing against only delays the reaction
/// when load arrives). On [`Outcome::Overload`] the limit is multiplied by
/// `decrease < 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdConfig {
    /// Inclusive lower bound for the limit.
    pub min: usize,
    /// Inclusive upper bound for the limit.
    pub max: usize,
    /// Additive step on healthy, utilised samples (LIMD's `l`).
    pub increase_by: usize,
    /// Multiplicative factor on overload, in `(0, 1)` (LIMD's `m`).
    pub decrease: f64,
    /// Utilisation gate in `(0, 1]`: grow only when
    /// `in_flight > limit * utilisation`.
    pub utilisation: f64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig { min: 1, max: 256, increase_by: 1, decrease: 0.75, utilisation: 0.8 }
    }
}

impl AimdConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.min == 0 {
            return Err(ConfigError::InvalidSpec { message: "`min` must be >= 1".into() });
        }
        if self.max < self.min {
            return Err(ConfigError::InvalidSpec {
                message: format!("`max` ({}) must be >= `min` ({})", self.max, self.min),
            });
        }
        if self.increase_by == 0 {
            return Err(ConfigError::InvalidSpec {
                message: "aimd `l` (increase step) must be >= 1".into(),
            });
        }
        if !(self.decrease > 0.0 && self.decrease < 1.0) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "m",
                value: self.decrease,
                range: "0 < m < 1",
            });
        }
        if !(self.utilisation > 0.0 && self.utilisation <= 1.0) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "util",
                value: self.utilisation,
                range: "0 < util <= 1",
            });
        }
        Ok(())
    }

    /// The update rule: maps (current limit, new sample) to the next
    /// limit, clamped into the configured bounds. Deterministic given the
    /// sample sequence — the live proxy's deterministic harness and the
    /// unit tests below rely on that.
    fn update(&self, old_limit: usize, sample: &Sample) -> usize {
        match sample.outcome {
            Outcome::Success => {
                let utilised = sample.in_flight as f64 > old_limit as f64 * self.utilisation;
                if utilised {
                    old_limit.saturating_add(self.increase_by).clamp(self.min, self.max)
                } else {
                    old_limit.clamp(self.min, self.max)
                }
            }
            // Floor (not round) before clamping, so the limit still
            // shrinks at small values instead of rounding back to where
            // it was.
            Outcome::Overload => ((old_limit as f64 * self.decrease).floor() as usize)
                .clamp(self.min, old_limit),
        }
    }
}

// ---------------------------------------------------------------------------
// Config enum + spec form (the hot-swappable wire shape)
// ---------------------------------------------------------------------------

/// The limiter's parameters in serializable form.
///
/// This is what the live proxy's admin plane ships over the wire: one
/// line, `aimd:key=value,...`, mirroring
/// [`crate::limd::LimdConfig::to_spec`]:
///
/// ```text
/// aimd:min=1,max=256,l=1,m=0.75,util=0.8
/// ```
///
/// There is one algorithm. This stays an enum with one variant because
/// `benchmark/` (read-only here) constructs `LimiterConfig::Aimd(..)`, and
/// the `aimd:` prefix is the wire format specs are already stored in.
#[derive(Debug, Clone, PartialEq)]
pub enum LimiterConfig {
    /// Additive-increase / multiplicative-decrease.
    Aimd(AimdConfig),
}

impl LimiterConfig {
    /// Checks the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for out-of-range parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let LimiterConfig::Aimd(c) = self;
        c.validate()
    }

    /// Serializes to the one-line spec form; [`LimiterConfig::from_spec`]
    /// round-trips this exactly.
    pub fn to_spec(&self) -> String {
        let LimiterConfig::Aimd(c) = self;
        format!(
            "aimd:min={},max={},l={},m={},util={}",
            c.min, c.max, c.increase_by, c.decrease, c.utilisation
        )
    }

    /// Parses the spec form written by [`LimiterConfig::to_spec`]. Every
    /// key defaults as in [`AimdConfig::default`]; unknown and duplicated
    /// keys are rejected (a typo must not silently fall back to a
    /// default).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidSpec`] for malformed text or an
    /// algorithm other than `aimd`, and the usual validation errors for
    /// out-of-range values.
    pub fn from_spec(spec: &str) -> Result<LimiterConfig, ConfigError> {
        fn bad(message: impl Into<String>) -> ConfigError {
            ConfigError::InvalidSpec { message: message.into() }
        }
        fn count(value: &str, key: &str) -> Result<usize, ConfigError> {
            value
                .parse::<usize>()
                .map_err(|_| bad(format!("`{key}` must be a non-negative integer")))
        }
        fn factor(value: &str, key: &str) -> Result<f64, ConfigError> {
            value.parse::<f64>().map_err(|_| bad(format!("`{key}` must be a number")))
        }

        let spec = spec.trim();
        let (name, params) = match spec.split_once(':') {
            Some((name, params)) => (name.trim(), params),
            None => (spec, ""),
        };
        if name != "aimd" {
            return Err(bad(format!("unknown algorithm `{name}` (expected aimd)")));
        }
        let mut c = AimdConfig::default();
        let mut seen: Vec<&str> = Vec::new();
        for pair in params.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| bad(format!("`{pair}` is not a key=value pair")))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.contains(&key) {
                return Err(bad(format!("duplicate key `{key}`")));
            }
            seen.push(key);
            match key {
                "min" => c.min = count(value, key)?,
                "max" => c.max = count(value, key)?,
                "l" => c.increase_by = count(value, key)?,
                "m" => c.decrease = factor(value, key)?,
                "util" => c.utilisation = factor(value, key)?,
                other => return Err(bad(format!("unknown aimd key `{other}`"))),
            }
        }
        // Validate eagerly so a control plane learns about a bad spec at
        // PUT time, not when the limiter is first driven.
        c.validate()?;
        Ok(LimiterConfig::Aimd(c))
    }
}

// ---------------------------------------------------------------------------
// Limiter: parameters + current limit, the unit both live users hold
// ---------------------------------------------------------------------------

/// The update rule's parameters together with the current limit.
#[derive(Debug)]
pub struct Limiter {
    config: LimiterConfig,
    limit: usize,
}

impl Limiter {
    /// Builds a limiter starting at `initial` (clamped into the configured
    /// bounds).
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation errors.
    pub fn new(config: LimiterConfig, initial: usize) -> Result<Self, ConfigError> {
        config.validate()?;
        let LimiterConfig::Aimd(c) = &config;
        let limit = initial.clamp(c.min, c.max);
        Ok(Limiter { config, limit })
    }

    /// The current limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The configuration this limiter was built from.
    pub fn config(&self) -> &LimiterConfig {
        &self.config
    }

    /// Feeds one sample and returns the (possibly unchanged) new limit.
    pub fn on_sample(&mut self, sample: &Sample) -> usize {
        let LimiterConfig::Aimd(c) = &self.config;
        self.limit = c.update(self.limit, sample);
        self.limit
    }

    /// Replaces the parameters, carrying the current limit over (clamped
    /// into the new bounds) so a hot-swap does not reset learned state to
    /// a cold start.
    ///
    /// # Errors
    ///
    /// Returns the new configuration's validation errors; on error the
    /// existing configuration keeps running untouched.
    pub fn reconfigure(&mut self, config: LimiterConfig) -> Result<(), ConfigError> {
        *self = Limiter::new(config, self.limit)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Drives a limiter through a scripted trace of (in_flight, latency_ms,
    /// outcome) triples and returns the limit after each sample.
    fn run_trace(limiter: &mut Limiter, trace: &[(usize, u64, Outcome)]) -> Vec<usize> {
        trace
            .iter()
            .map(|&(in_flight, latency, outcome)| {
                limiter.on_sample(&Sample { in_flight, latency: ms(latency), outcome })
            })
            .collect()
    }

    #[test]
    fn aimd_grows_additively_under_utilised_success() {
        let mut l =
            Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 10).unwrap();
        // Fully utilised, healthy latency: +1 per sample.
        let limits = run_trace(
            &mut l,
            &[(10, 5, Outcome::Success), (11, 5, Outcome::Success), (12, 5, Outcome::Success)],
        );
        assert_eq!(limits, vec![11, 12, 13]);
    }

    #[test]
    fn aimd_holds_when_under_utilised() {
        let mut l =
            Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 100).unwrap();
        // 10 in flight against a limit of 100: no pressure, no growth.
        let limits = run_trace(&mut l, &[(10, 5, Outcome::Success); 5]);
        assert_eq!(limits, vec![100; 5]);
    }

    #[test]
    fn aimd_backs_off_multiplicatively_and_respects_min() {
        let mut l =
            Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 100).unwrap();
        assert_eq!(l.on_sample(&Sample::overload(100, ms(500))), 75);
        assert_eq!(l.on_sample(&Sample::overload(75, ms(500))), 56);
        // Repeated overloads converge to min, never 0.
        for _ in 0..40 {
            l.on_sample(&Sample::overload(1, ms(500)));
        }
        assert_eq!(l.limit(), 1);
    }

    #[test]
    fn aimd_decrease_makes_progress_at_small_limits() {
        // floor() rather than round(): 3 * 0.75 = 2.25 must become 2.
        let mut l = Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 3).unwrap();
        assert_eq!(l.on_sample(&Sample::overload(3, ms(500))), 2);
    }

    #[test]
    fn aimd_respects_max() {
        let config = AimdConfig { max: 12, ..AimdConfig::default() };
        let mut l = Limiter::new(LimiterConfig::Aimd(config), 10).unwrap();
        for i in 0..10 {
            l.on_sample(&Sample::success(10 + i, ms(5)));
        }
        assert_eq!(l.limit(), 12);
    }

    #[test]
    fn spec_round_trips_every_algorithm() {
        let config =
            LimiterConfig::Aimd(AimdConfig { min: 2, max: 64, ..AimdConfig::default() });
        let spec = config.to_spec();
        assert_eq!(spec, "aimd:min=2,max=64,l=1,m=0.75,util=0.8");
        let back = LimiterConfig::from_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(back, config, "{spec}");
    }

    #[test]
    fn spec_defaults_and_whitespace() {
        assert_eq!(
            LimiterConfig::from_spec("aimd").unwrap(),
            LimiterConfig::Aimd(AimdConfig::default())
        );
        assert_eq!(
            LimiterConfig::from_spec(" aimd: min=2 , max=5 ").unwrap(),
            LimiterConfig::Aimd(AimdConfig { min: 2, max: 5, ..AimdConfig::default() })
        );
    }

    #[test]
    fn spec_rejects_garbage() {
        for bad in [
            "aimd:bogus=1",
            "aimd:min",
            "aimd:min=1,min=2",
            "aimd:min=0",
            "aimd:min=9,max=3",
            "aimd:m=1.5",
            "aimd:increase=1",
            "aimd:backoff=0.5",
        ] {
            assert!(
                LimiterConfig::from_spec(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn spec_rejects_every_algorithm_but_aimd() {
        for (bad, name) in
            [("vegas", "vegas"), ("gradient:window=16", "gradient"), ("tcp", "tcp")]
        {
            let err = LimiterConfig::from_spec(bad).unwrap_err();
            assert_eq!(
                err,
                ConfigError::InvalidSpec {
                    message: format!("unknown algorithm `{name}` (expected aimd)")
                },
                "{bad}"
            );
        }
    }

    #[test]
    fn reconfigure_carries_the_limit_across_a_swap() {
        let mut l =
            Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 10).unwrap();
        for i in 0..30 {
            l.on_sample(&Sample::success(10 + i, ms(5)));
        }
        let learned = l.limit();
        assert!(learned > 10);
        let tighter = AimdConfig { max: learned - 5, ..AimdConfig::default() };
        l.reconfigure(LimiterConfig::Aimd(tighter.clone())).unwrap();
        // Carried over, clamped into the new bounds — not reset to cold.
        assert_eq!(l.limit(), learned - 5);
        // A rejected swap leaves the running configuration untouched.
        let invalid = AimdConfig { min: 0, ..tighter.clone() };
        assert!(l.reconfigure(LimiterConfig::Aimd(invalid)).is_err());
        assert_eq!(l.config(), &LimiterConfig::Aimd(tighter));
        assert_eq!(l.limit(), learned - 5);
    }
}
