//! The AIMD concurrency-limit rule, kept as a benchmarked kernel.
//!
//! The paper's LIMD controller (§3.1, [`crate::limd`]) is AIMD-shaped: it
//! probes a poll interval upward linearly while the object looks stable and
//! backs off multiplicatively the moment consistency is violated. This
//! module is that rule applied to in-flight work, reusing the LIMD
//! parameter names (`l` for the linear step, `m` for the decrease factor).
//! Increase is gated on utilisation so an idle limiter does not drift
//! toward its ceiling.
//!
//! Nothing in the workspace drives it: the live proxy bounds origin fan-out
//! with a static per-origin cap. It stays only because `benchmark/` times
//! [`Limiter::on_sample`] as `core.limit.on_sample_ns`, and it holds what
//! that call needs: [`AimdConfig`], the one-variant [`LimiterConfig`],
//! [`Limiter`] and [`Sample`]. The rule is a pure function of
//! (limit, sample): nothing here blocks, allocates per sample, or knows
//! about sockets.

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
        Sample {
            in_flight,
            latency,
            outcome: Outcome::Success,
        }
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
        AimdConfig {
            min: 1,
            max: 256,
            increase_by: 1,
            decrease: 0.75,
            utilisation: 0.8,
        }
    }
}

impl AimdConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.min == 0 {
            return Err(ConfigError::InvalidSpec {
                message: "`min` must be >= 1".into(),
            });
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
    /// sample sequence — the unit tests below rely on that.
    fn update(&self, old_limit: usize, sample: &Sample) -> usize {
        match sample.outcome {
            Outcome::Success => {
                let utilised = sample.in_flight as f64 > old_limit as f64 * self.utilisation;
                if utilised {
                    old_limit
                        .saturating_add(self.increase_by)
                        .clamp(self.min, self.max)
                } else {
                    old_limit.clamp(self.min, self.max)
                }
            }
            // Floor (not round) before clamping, so the limit still
            // shrinks at small values instead of rounding back to where
            // it was.
            Outcome::Overload => {
                ((old_limit as f64 * self.decrease).floor() as usize).clamp(self.min, old_limit)
            }
        }
    }
}

/// The limiter's parameters. There is one algorithm; this stays an enum
/// with one variant because `benchmark/` constructs
/// `LimiterConfig::Aimd(..)`.
#[derive(Debug, Clone, PartialEq)]
pub enum LimiterConfig {
    /// Additive-increase / multiplicative-decrease.
    Aimd(AimdConfig),
}

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
        let LimiterConfig::Aimd(c) = &config;
        c.validate()?;
        let limit = initial.clamp(c.min, c.max);
        Ok(Limiter { config, limit })
    }

    /// Feeds one sample and returns the (possibly unchanged) new limit.
    pub fn on_sample(&mut self, sample: &Sample) -> usize {
        let LimiterConfig::Aimd(c) = &self.config;
        self.limit = c.update(self.limit, sample);
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn overload(in_flight: usize, latency: Duration) -> Sample {
        Sample {
            in_flight,
            latency,
            outcome: Outcome::Overload,
        }
    }

    /// Drives a limiter through a scripted trace of (in_flight, latency_ms,
    /// outcome) triples and returns the limit after each sample.
    fn run_trace(limiter: &mut Limiter, trace: &[(usize, u64, Outcome)]) -> Vec<usize> {
        trace
            .iter()
            .map(|&(in_flight, latency, outcome)| {
                limiter.on_sample(&Sample {
                    in_flight,
                    latency: ms(latency),
                    outcome,
                })
            })
            .collect()
    }

    #[test]
    fn aimd_grows_additively_under_utilised_success() {
        let mut l = Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 10).unwrap();
        // Fully utilised, healthy latency: +1 per sample.
        let limits = run_trace(
            &mut l,
            &[
                (10, 5, Outcome::Success),
                (11, 5, Outcome::Success),
                (12, 5, Outcome::Success),
            ],
        );
        assert_eq!(limits, vec![11, 12, 13]);
    }

    #[test]
    fn aimd_holds_when_under_utilised() {
        let mut l = Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 100).unwrap();
        // 10 in flight against a limit of 100: no pressure, no growth.
        let limits = run_trace(&mut l, &[(10, 5, Outcome::Success); 5]);
        assert_eq!(limits, vec![100; 5]);
    }

    #[test]
    fn aimd_backs_off_multiplicatively_and_respects_min() {
        let mut l = Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 100).unwrap();
        assert_eq!(l.on_sample(&overload(100, ms(500))), 75);
        assert_eq!(l.on_sample(&overload(75, ms(500))), 56);
        // Repeated overloads converge to min, never 0.
        for _ in 0..40 {
            l.on_sample(&overload(1, ms(500)));
        }
        assert_eq!(l.limit, 1);
    }

    #[test]
    fn aimd_decrease_makes_progress_at_small_limits() {
        // floor() rather than round(): 3 * 0.75 = 2.25 must become 2.
        let mut l = Limiter::new(LimiterConfig::Aimd(AimdConfig::default()), 3).unwrap();
        assert_eq!(l.on_sample(&overload(3, ms(500))), 2);
    }

    #[test]
    fn aimd_respects_max() {
        let config = AimdConfig {
            max: 12,
            ..AimdConfig::default()
        };
        let mut l = Limiter::new(LimiterConfig::Aimd(config), 10).unwrap();
        for i in 0..10 {
            l.on_sample(&Sample::success(10 + i, ms(5)));
        }
        assert_eq!(l.limit, 12);
    }
}
