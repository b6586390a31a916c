//! Rate estimation helpers shared by the adaptive algorithms.
//!
//! Two different "rates" appear in the paper:
//!
//! * the **update rate** of an object — how often the origin modifies it.
//!   The Mt heuristic (§3.2) compares update rates of related objects to
//!   decide which of them deserve a triggered poll. [`UpdateRateEstimator`]
//!   tracks an exponentially weighted moving average of inter-update
//!   intervals, fed by the `Last-Modified` stamps observed on polls.
//! * the **rate of change of a value** (§4.1, Figure 2) — the slope
//!   `r = |P_cur − P_prev| / (t_cur − t_prev)` used to extrapolate when the
//!   value will have drifted by Δ. `ValueRateEstimator` computes this
//!   instantaneous slope from consecutive samples.

use crate::time::Timestamp;
use crate::value::Value;

/// EWMA estimator of an object's update rate, fed with the modification
/// times learned from successive polls.
///
/// ```
/// use mutcon_core::rate::UpdateRateEstimator;
/// use mutcon_core::time::Timestamp;
///
/// let mut est = UpdateRateEstimator::new(0.3);
/// est.observe_modification(Timestamp::from_mins(0));
/// est.observe_modification(Timestamp::from_mins(10));
/// est.observe_modification(Timestamp::from_mins(20));
/// // Roughly one update every 10 minutes.
/// let per_min = est.rate_per_ms().unwrap() * 60_000.0;
/// assert!((per_min - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRateEstimator {
    /// Weight of the newest interval in the EWMA, in `(0, 1]`.
    alpha: f64,
    last_update: Option<Timestamp>,
    mean_interval_ms: Option<f64>,
}

impl UpdateRateEstimator {
    /// Creates an estimator whose EWMA gives weight `alpha` to the newest
    /// inter-update interval.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA weight must be in (0, 1], got {alpha}"
        );
        UpdateRateEstimator {
            alpha,
            last_update: None,
            mean_interval_ms: None,
        }
    }

    /// Records that the object was (last) modified at `at`.
    ///
    /// Feeding the same modification time twice is harmless: repeated and
    /// out-of-order stamps are ignored, so callers can simply report every
    /// `Last-Modified` value they see.
    pub fn observe_modification(&mut self, at: Timestamp) {
        match self.last_update {
            None => self.last_update = Some(at),
            Some(prev) if at > prev => {
                let interval = at.since(prev).as_millis() as f64;
                self.mean_interval_ms = Some(match self.mean_interval_ms {
                    None => interval,
                    Some(mean) => self.alpha * interval + (1.0 - self.alpha) * mean,
                });
                self.last_update = Some(at);
            }
            Some(_) => {} // duplicate or stale information
        }
    }

    /// Estimated updates per millisecond, or `None` before two distinct
    /// modifications have been observed.
    pub fn rate_per_ms(&self) -> Option<f64> {
        self.mean_interval_ms.map(|mean| {
            debug_assert!(mean > 0.0);
            1.0 / mean
        })
    }
}

/// Instantaneous value slope from consecutive samples (§4.1, Figure 2):
/// `r = |P_cur − P_prev| / (t_cur − t_prev)`, in value units per
/// millisecond.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ValueRateEstimator {
    prev: Option<(Timestamp, Value)>,
}

impl ValueRateEstimator {
    /// Creates an estimator with no history.
    pub fn new() -> Self {
        ValueRateEstimator::default()
    }

    /// Records a sample and returns the slope versus the previous sample,
    /// or `None` on the first sample or when time has not advanced.
    pub fn observe(&mut self, at: Timestamp, value: Value) -> Option<f64> {
        let rate = match self.prev {
            Some((t_prev, v_prev)) if at > t_prev => {
                let dv = value.abs_diff(v_prev).as_f64();
                let dt = at.since(t_prev).as_millis() as f64;
                Some(dv / dt)
            }
            _ => None,
        };
        self.prev = Some((at, value));
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_rate_needs_two_points() {
        let mut est = UpdateRateEstimator::new(0.5);
        assert_eq!(est.rate_per_ms(), None);
        est.observe_modification(Timestamp::from_secs(10));
        assert_eq!(est.rate_per_ms(), None);
        est.observe_modification(Timestamp::from_secs(20));
        let r = est.rate_per_ms().unwrap();
        assert!((r - 1.0 / 10_000.0).abs() < 1e-12);
        assert_eq!(est.mean_interval_ms, Some(10_000.0));
    }

    #[test]
    fn update_rate_ignores_duplicates_and_stale() {
        let mut est = UpdateRateEstimator::new(0.5);
        est.observe_modification(Timestamp::from_secs(10));
        est.observe_modification(Timestamp::from_secs(10));
        est.observe_modification(Timestamp::from_secs(5));
        assert_eq!(est.rate_per_ms(), None);
        est.observe_modification(Timestamp::from_secs(30));
        assert_eq!(est.mean_interval_ms, Some(20_000.0));
    }

    #[test]
    fn update_rate_ewma_blends() {
        let mut est = UpdateRateEstimator::new(0.5);
        est.observe_modification(Timestamp::from_secs(0));
        est.observe_modification(Timestamp::from_secs(10)); // mean = 10s
        est.observe_modification(Timestamp::from_secs(40)); // newest = 30s
                                                            // mean = 0.5*30 + 0.5*10 = 20s
        assert_eq!(est.mean_interval_ms, Some(20_000.0));
    }

    #[test]
    #[should_panic(expected = "EWMA weight")]
    fn update_rate_rejects_bad_alpha() {
        let _ = UpdateRateEstimator::new(0.0);
    }

    #[test]
    fn value_rate_slope() {
        let mut est = ValueRateEstimator::new();
        assert_eq!(
            est.observe(Timestamp::from_secs(0), Value::new(100.0)),
            None
        );
        let r = est
            .observe(Timestamp::from_secs(10), Value::new(105.0))
            .unwrap();
        // 5 units over 10_000 ms.
        assert!((r - 0.0005).abs() < 1e-12);
        // Direction does not matter: rate uses |Δv|.
        let r = est
            .observe(Timestamp::from_secs(20), Value::new(100.0))
            .unwrap();
        assert!((r - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn value_rate_requires_time_advance() {
        let mut est = ValueRateEstimator::new();
        est.observe(Timestamp::from_secs(1), Value::new(1.0));
        assert_eq!(est.observe(Timestamp::from_secs(1), Value::new(2.0)), None);
        // The repeated instant's sample replaced the first: 0.5 over 1 s.
        let r = est
            .observe(Timestamp::from_secs(2), Value::new(2.5))
            .unwrap();
        assert!((r - 0.0005).abs() < 1e-12);
    }
}
