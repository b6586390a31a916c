//! The adaptive-TTR algorithm for Δv-consistency in the value domain
//! (§4.1; originally from Srinivasan et al., RTSS'98 — the paper's
//! reference \[8\]).
//!
//! The proxy must refresh a cached value every time the server copy drifts
//! by Δ. It cannot see the drift without polling, so it *extrapolates*:
//! from the two most recent samples it computes the observed rate of
//! change `r = |P_cur − P_prev| / (t_cur − t_prev)` (Figure 2) and
//! schedules the next poll when the value, continuing at that rate, would
//! reach the tolerance:
//!
//! ```text
//! TTR_est = Δ / r                                    (Equation 9)
//! ```
//!
//! Two refinements tame the raw estimate:
//!
//! * **Exponential smoothing** — `TTR ← w · TTR_est + (1 − w) · TTR_prev`,
//!   damping reaction to a single noisy sample.
//! * **The α-blend with the most aggressive TTR seen so far**
//!   (Equation 10):
//!
//! ```text
//! TTR = max(TTR_min, min(TTR_max, α·TTR + (1−α)·TTR_observed_min))
//! ```
//!
//! Small α biases the result towards the smallest (most conservative) TTR
//! the object has ever required — the paper's knob for data with poor
//! temporal locality.
//!
//! ```
//! use mutcon_core::adaptive_ttr::AdaptiveTtrConfig;
//! use mutcon_core::time::{Duration, Timestamp};
//! use mutcon_core::value::Value;
//!
//! # fn main() -> Result<(), mutcon_core::error::ConfigError> {
//! let mut ttr = AdaptiveTtrConfig::builder(Value::new(0.5))
//!     .ttr_bounds(Duration::from_secs(5), Duration::from_secs(600))
//!     .build()?
//!     .into_state();
//!
//! ttr.on_poll(Timestamp::from_secs(0), Value::new(36.00));
//! // 0.10 drift over 60 s ⇒ r ≈ 0.00167/s ⇒ Δ/r = 300 s to drift 0.5.
//! let d = ttr.on_poll(Timestamp::from_secs(60), Value::new(36.10));
//! assert!(d > Duration::from_secs(5));
//! # Ok(())
//! # }
//! ```

use crate::error::ConfigError;
use crate::rate::ValueRateEstimator;
use crate::time::{Duration, Timestamp};
use crate::value::Value;

/// Validated configuration for the value-domain adaptive-TTR algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTtrConfig {
    delta: Value,
    smoothing: f64,
    alpha: f64,
    ttr_min: Duration,
    ttr_max: Duration,
}

impl AdaptiveTtrConfig {
    /// Starts building a configuration for value tolerance `delta`.
    ///
    /// Defaults: smoothing weight `w = 0.5`, blend `α = 0.5`, TTR bounds
    /// `[1 s, 10 min]`.
    pub fn builder(delta: Value) -> AdaptiveTtrConfigBuilder {
        AdaptiveTtrConfigBuilder {
            delta,
            smoothing: 0.5,
            alpha: 0.5,
            ttr_min: Duration::from_secs(1),
            ttr_max: Duration::from_mins(10),
        }
    }

    /// The Δv tolerance.
    pub fn delta(&self) -> Value {
        self.delta
    }

    /// Smoothing weight `w` given to the newest raw estimate.
    pub fn smoothing(&self) -> f64 {
        self.smoothing
    }

    /// Blend factor `α` between the smoothed TTR and the smallest observed
    /// TTR (Equation 10).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Lower TTR bound.
    pub fn ttr_min(&self) -> Duration {
        self.ttr_min
    }

    /// Upper TTR bound.
    pub fn ttr_max(&self) -> Duration {
        self.ttr_max
    }

    /// Consumes the configuration into a ready-to-drive state machine.
    pub fn into_state(self) -> AdaptiveTtr {
        AdaptiveTtr::new(self)
    }
}

/// Builder for [`AdaptiveTtrConfig`].
#[derive(Debug, Clone)]
pub struct AdaptiveTtrConfigBuilder {
    delta: Value,
    smoothing: f64,
    alpha: f64,
    ttr_min: Duration,
    ttr_max: Duration,
}

impl AdaptiveTtrConfigBuilder {
    /// Sets the smoothing weight `w ∈ [0, 1]` for the newest estimate.
    pub fn smoothing(mut self, w: f64) -> Self {
        self.smoothing = w;
        self
    }

    /// Sets the blend factor `α ∈ [0, 1]`; smaller is more conservative.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets both TTR bounds.
    pub fn ttr_bounds(mut self, min: Duration, max: Duration) -> Self {
        self.ttr_min = min;
        self.ttr_max = max;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if Δ is not positive, a weight is outside
    /// `[0, 1]`, or the TTR bounds are empty or inverted.
    pub fn build(self) -> Result<AdaptiveTtrConfig, ConfigError> {
        if self.delta <= Value::ZERO {
            return Err(ConfigError::ZeroTolerance { name: "delta" });
        }
        if !(0.0..=1.0).contains(&self.smoothing) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "w",
                value: self.smoothing,
                range: "[0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "alpha",
                value: self.alpha,
                range: "[0, 1]",
            });
        }
        if self.ttr_min.is_zero() {
            return Err(ConfigError::ZeroTolerance { name: "ttr_min" });
        }
        if self.ttr_min > self.ttr_max {
            return Err(ConfigError::InvalidTtrBounds {
                min: self.ttr_min,
                max: self.ttr_max,
            });
        }
        Ok(AdaptiveTtrConfig {
            delta: self.delta,
            smoothing: self.smoothing,
            alpha: self.alpha,
            ttr_min: self.ttr_min,
            ttr_max: self.ttr_max,
        })
    }
}

/// Adaptive Δv-consistency state for one value-bearing object.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveTtr {
    config: AdaptiveTtrConfig,
    estimator: ValueRateEstimator,
    /// The last slope the estimator returned (value units per ms).
    rate: Option<f64>,
    /// Previous smoothed TTR, in ms (None until the second poll).
    smoothed_ms: Option<f64>,
    /// Smallest raw TTR estimate seen so far, in ms.
    observed_min_ms: Option<f64>,
    current_ttr: Duration,
}

impl AdaptiveTtr {
    /// Creates a fresh state machine; until two samples arrive the TTR is
    /// `TTR_min` (poll conservatively while nothing is known).
    pub fn new(config: AdaptiveTtrConfig) -> Self {
        AdaptiveTtr {
            current_ttr: config.ttr_min,
            config,
            estimator: ValueRateEstimator::new(),
            rate: None,
            smoothed_ms: None,
            observed_min_ms: None,
        }
    }

    /// The last observed rate of change `r` (Figure 2), in value units
    /// per millisecond; `None` until two samples at distinct instants.
    ///
    /// The partitioned Mv approach (§4.2) apportions δ by these rates.
    pub fn rate(&self) -> Option<f64> {
        self.rate
    }

    /// Replaces the tolerance Δ, keeping the learned rate state.
    ///
    /// Used by the partitioned Mv approach (§4.2), which periodically
    /// re-apportions the group tolerance δ between the member objects as
    /// their relative rates of change shift.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroTolerance`] if `delta` is not positive.
    pub(crate) fn set_delta(&mut self, delta: Value) -> Result<(), ConfigError> {
        if delta <= Value::ZERO {
            return Err(ConfigError::ZeroTolerance { name: "delta" });
        }
        self.config.delta = delta;
        Ok(())
    }

    /// Feeds the value observed by a poll at `now`; returns the new TTR.
    ///
    /// The TTR is computed with `scale = 1`; use
    /// `AdaptiveTtr::on_poll_scaled` to apply a feedback factor (used by
    /// the Mv virtual-object policy, Equation 12).
    pub fn on_poll(&mut self, now: Timestamp, value: Value) -> Duration {
        self.on_poll_scaled(now, value, 1.0)
    }

    /// Like [`AdaptiveTtr::on_poll`], but multiplies the raw `Δ / r`
    /// estimate by `scale` before smoothing — the `θ` feedback factor of
    /// Equation 12 (`0 < θ ≤ 1`).
    pub(crate) fn on_poll_scaled(&mut self, now: Timestamp, value: Value, scale: f64) -> Duration {
        debug_assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let Some(rate) = self.estimator.observe(now, value) else {
            // First sample (or repeated timestamp): stay conservative.
            self.current_ttr = self.config.ttr_min;
            return self.current_ttr;
        };
        self.rate = Some(rate);

        // Equation 9: Δ / r, i.e. time for the value to drift by Δ at the
        // observed rate. A zero rate means "no drift observed": optimistic
        // estimate capped by TTR_max.
        let raw_ms = if rate <= 0.0 {
            self.config.ttr_max.as_millis() as f64
        } else {
            (self.config.delta.as_f64() / rate) * scale
        };

        // Exponential smoothing against the previous estimate.
        let smoothed = match self.smoothed_ms {
            None => raw_ms,
            Some(prev) => self.config.smoothing * raw_ms + (1.0 - self.config.smoothing) * prev,
        };
        self.smoothed_ms = Some(smoothed);

        // Track the most aggressive estimate ever required.
        let observed_min = match self.observed_min_ms {
            None => raw_ms,
            Some(min) => min.min(raw_ms),
        };
        self.observed_min_ms = Some(observed_min);

        // Equation 10: α-blend, then clamp.
        let blended = self.config.alpha * smoothed + (1.0 - self.config.alpha) * observed_min;
        self.current_ttr = Duration::from_secs_f64(blended / 1_000.0)
            .clamp(self.config.ttr_min, self.config.ttr_max);
        self.current_ttr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(delta: f64) -> AdaptiveTtrConfig {
        AdaptiveTtrConfig::builder(Value::new(delta))
            .smoothing(1.0) // no smoothing: raw estimates pass through
            .alpha(1.0) // no blending with observed min
            .ttr_bounds(Duration::from_secs(1), Duration::from_secs(3_600))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            AdaptiveTtrConfig::builder(Value::ZERO).build(),
            Err(ConfigError::ZeroTolerance { .. })
        ));
        assert!(matches!(
            AdaptiveTtrConfig::builder(Value::new(1.0))
                .smoothing(1.5)
                .build(),
            Err(ConfigError::ParameterOutOfRange { name: "w", .. })
        ));
        assert!(matches!(
            AdaptiveTtrConfig::builder(Value::new(1.0))
                .alpha(-0.1)
                .build(),
            Err(ConfigError::ParameterOutOfRange { name: "alpha", .. })
        ));
        assert!(matches!(
            AdaptiveTtrConfig::builder(Value::new(1.0))
                .ttr_bounds(Duration::from_secs(10), Duration::from_secs(1))
                .build(),
            Err(ConfigError::InvalidTtrBounds { .. })
        ));
        assert!(matches!(
            AdaptiveTtrConfig::builder(Value::new(1.0))
                .ttr_bounds(Duration::ZERO, Duration::from_secs(1))
                .build(),
            Err(ConfigError::ZeroTolerance { name: "ttr_min" })
        ));
    }

    #[test]
    fn first_poll_stays_at_ttr_min() {
        let mut s = cfg(0.5).into_state();
        let d = s.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        assert_eq!(d, Duration::from_secs(1));
    }

    #[test]
    fn equation_9_extrapolation() {
        let mut s = cfg(0.5).into_state();
        s.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        // Drift 0.1 in 10 s ⇒ r = 0.01/s ⇒ TTR = 0.5 / 0.01 = 50 s.
        let d = s.on_poll(Timestamp::from_secs(10), Value::new(100.1));
        assert_eq!(d, Duration::from_secs(50));
    }

    #[test]
    fn zero_rate_is_optimistic() {
        let mut s = cfg(0.5).into_state();
        s.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        let d = s.on_poll(Timestamp::from_secs(10), Value::new(100.0));
        assert_eq!(d, Duration::from_secs(3_600)); // ttr_max
    }

    #[test]
    fn fast_drift_clamps_to_ttr_min() {
        let mut s = cfg(0.5).into_state();
        s.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        // Drift 100 in 1 s ⇒ TTR = 0.005 s, clamped to 1 s.
        let d = s.on_poll(Timestamp::from_secs(1), Value::new(200.0));
        assert_eq!(d, Duration::from_secs(1));
    }

    #[test]
    fn smoothing_damps_spikes() {
        let c = AdaptiveTtrConfig::builder(Value::new(0.5))
            .smoothing(0.5)
            .alpha(1.0)
            .ttr_bounds(Duration::from_secs(1), Duration::from_secs(10_000))
            .build()
            .unwrap();
        let mut s = c.into_state();
        s.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        // Steady drift: raw = 50 s; smoothed = 50 s.
        s.on_poll(Timestamp::from_secs(10), Value::new(100.1));
        // Sudden stillness: raw = ttr_max = 10_000 s;
        // smoothed = 0.5·10_000 + 0.5·50 = 5_025 s.
        let d = s.on_poll(Timestamp::from_secs(20), Value::new(100.1));
        assert_eq!(d, Duration::from_secs(5_025));
    }

    #[test]
    fn alpha_blend_pulls_towards_observed_min() {
        let c = AdaptiveTtrConfig::builder(Value::new(0.5))
            .smoothing(1.0)
            .alpha(0.0) // fully conservative: always the observed min
            .ttr_bounds(Duration::from_secs(1), Duration::from_secs(10_000))
            .build()
            .unwrap();
        let mut s = c.into_state();
        s.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        // Fast drift: raw = 5 s → observed min = 5 s.
        s.on_poll(Timestamp::from_secs(10), Value::new(101.0));
        // Slow drift afterwards: raw = 500 s, but α = 0 keeps TTR at 5 s.
        let d = s.on_poll(Timestamp::from_secs(20), Value::new(101.01));
        assert_eq!(d, Duration::from_secs(5));
    }

    #[test]
    fn scale_shrinks_estimate() {
        let mut a = cfg(0.5).into_state();
        let mut b = cfg(0.5).into_state();
        a.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        b.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        let full = a.on_poll_scaled(Timestamp::from_secs(10), Value::new(100.1), 1.0);
        let half = b.on_poll_scaled(Timestamp::from_secs(10), Value::new(100.1), 0.5);
        assert_eq!(full, Duration::from_secs(50));
        assert_eq!(half, Duration::from_secs(25));
    }

    #[test]
    fn rate_is_the_last_observed_slope() {
        let mut s = cfg(0.5).into_state();
        assert_eq!(s.rate(), None);
        s.on_poll(Timestamp::from_secs(0), Value::new(100.0));
        assert_eq!(s.rate(), None);
        // 0.1 over 10 s; a repeated instant keeps the slope.
        s.on_poll(Timestamp::from_secs(10), Value::new(100.1));
        s.on_poll(Timestamp::from_secs(10), Value::new(100.2));
        assert!((s.rate().unwrap() - 0.1 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn ttr_always_within_bounds() {
        let mut s = AdaptiveTtrConfig::builder(Value::new(0.25))
            .smoothing(0.7)
            .alpha(0.3)
            .ttr_bounds(Duration::from_secs(2), Duration::from_secs(120))
            .build()
            .unwrap()
            .into_state();
        let mut t = Timestamp::ZERO;
        let mut v = 100.0;
        for i in 0..200 {
            t += Duration::from_secs(1 + (i % 7));
            v += if i % 3 == 0 { 0.8 } else { -0.05 };
            let d = s.on_poll(t, Value::new(v));
            assert!(d >= Duration::from_secs(2) && d <= Duration::from_secs(120));
        }
    }

    /// Random tunings on random walks stay inside the TTR bounds too.
    #[test]
    fn ttr_within_bounds_on_random_walks() {
        let (lo, hi) = (Duration::from_secs(1), Duration::from_mins(30));
        for seed in 0..512 {
            let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(seed);
            let mut s = AdaptiveTtrConfig::builder(Value::new(rng.uniform_range(0.05, 5.0)))
                .smoothing(rng.uniform())
                .alpha(rng.uniform())
                .ttr_bounds(lo, hi)
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
                .into_state();
            let mut t = Timestamp::ZERO;
            let mut v = 100.0;
            for _ in 0..rng.uniform_u64(1, 80) {
                t += Duration::from_secs(rng.uniform_u64(1, 601));
                v += rng.uniform_range(-5.0, 5.0);
                let d = s.on_poll(t, Value::new(v));
                assert!(
                    d >= lo && d <= hi,
                    "seed {seed}: ttr {d} outside [{lo}, {hi}]"
                );
            }
        }
    }
}
