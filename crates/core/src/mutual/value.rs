//! Mv-consistency coordination in the value domain (§4.2).
//!
//! The goal: keep `|f(S_a, S_b) − f(P_a, P_b)| < δ` for a user-chosen
//! function `f` over two cached values. Two approaches from the paper:
//!
//! * **Virtual object** ([`VirtualObjectPolicy`]) — treat `f(a, b)` itself
//!   as the value of a virtual object and run one §4.1
//!   [`AdaptiveTtr`] on it: estimate the rate `r` at which `f` changes
//!   (Equation 11) and poll both objects every `TTR = (δ/r)·θ`
//!   (Equation 12). The feedback factor `θ ∈ (0, 1]` shrinks
//!   multiplicatively whenever a violation is detected and recovers
//!   gradually in their absence, biasing the estimate conservative exactly
//!   when the linear extrapolation of `f` has been failing.
//! * **Partitioned tolerance** ([`PartitionedPolicy`]) — when `f` is
//!   difference-like, split δ into per-object budgets δ_a + δ_b = δ and
//!   enforce plain Δv-consistency on each object independently, one
//!   [`AdaptiveTtr`] per member; by the triangle inequality the mutual
//!   bound follows. The split is re-apportioned periodically so the
//!   faster-changing object gets the *smaller* tolerance:
//!   δ_a = (r_b/(r_a+r_b))·δ (§4.2), with each `r` the slope its member's
//!   adaptive TTR last observed ([`AdaptiveTtr::rate`]).
//!
//! Both configurations take the §4.1 tuning as one [`AdaptiveTtrConfig`]
//! (`w`, `α`, the TTR bounds) whose Δ is the mutual tolerance δ.
//!
//! The trade-off measured in Figure 7: partitioning tracks the server
//! function more tightly (higher fidelity) at the cost of more polls.
//!
//! ```
//! use mutcon_core::adaptive_ttr::AdaptiveTtrConfig;
//! use mutcon_core::functions::ValueFunction;
//! use mutcon_core::mutual::value::{PairMember, PartitionedConfig};
//! use mutcon_core::time::{Duration, Timestamp};
//! use mutcon_core::value::Value;
//!
//! # fn main() -> Result<(), mutcon_core::error::ConfigError> {
//! let ttr = AdaptiveTtrConfig::builder(Value::new(0.6))
//!     .ttr_bounds(Duration::from_secs(5), Duration::from_secs(300))
//!     .build()?;
//! let mut policy = PartitionedConfig::builder(ValueFunction::Difference, ttr)
//!     .build()?
//!     .into_policy();
//!
//! // Each member object polls on its own schedule.
//! let ttr_a = policy.on_poll(PairMember::A, Timestamp::from_secs(0), Value::new(36.10));
//! let ttr_b = policy.on_poll(PairMember::B, Timestamp::from_secs(0), Value::new(161.00));
//! assert!(ttr_a >= Duration::from_secs(5) && ttr_b >= Duration::from_secs(5));
//! # Ok(())
//! # }
//! ```

use crate::adaptive_ttr::{AdaptiveTtr, AdaptiveTtrConfig};
use crate::error::ConfigError;
use crate::functions::ValueFunction;
use crate::time::{Duration, Timestamp};
use crate::value::Value;

/// Configuration of the θ feedback factor of Equation 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackConfig {
    /// Multiplier applied to θ on a detected violation (`0 < · < 1`).
    pub decrease: f64,
    /// Multiplier applied to θ after a violation-free poll (`≥ 1`); θ is
    /// capped at 1.
    pub increase: f64,
    /// Floor for θ.
    pub min: f64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            decrease: 0.7,
            increase: 1.1,
            min: 0.05,
        }
    }
}

impl FeedbackConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        if !(self.decrease > 0.0 && self.decrease < 1.0) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "feedback.decrease",
                value: self.decrease,
                range: "(0, 1)",
            });
        }
        if !(self.increase >= 1.0 && self.increase.is_finite()) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "feedback.increase",
                value: self.increase,
                range: "[1, ∞)",
            });
        }
        if !(self.min > 0.0 && self.min <= 1.0) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "feedback.min",
                value: self.min,
                range: "(0, 1]",
            });
        }
        Ok(())
    }
}

/// Validated configuration for the virtual-object Mv approach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualObjectConfig {
    function: ValueFunction,
    ttr: AdaptiveTtrConfig,
    feedback: FeedbackConfig,
}

impl VirtualObjectConfig {
    /// Starts building a virtual-object policy for function `f`, run by
    /// the §4.1 adaptive TTR `ttr` whose Δ is the mutual tolerance δ of
    /// Equation 5.
    pub fn builder(function: ValueFunction, ttr: AdaptiveTtrConfig) -> VirtualObjectConfigBuilder {
        VirtualObjectConfigBuilder {
            function,
            ttr,
            feedback: FeedbackConfig::default(),
        }
    }

    /// The function being tracked.
    pub fn function(&self) -> ValueFunction {
        self.function
    }

    /// The mutual tolerance δ.
    pub fn delta(&self) -> Value {
        self.ttr.delta()
    }

    /// Consumes the configuration into a policy.
    pub fn into_policy(self) -> VirtualObjectPolicy {
        VirtualObjectPolicy::new(self)
    }
}

/// Builder for [`VirtualObjectConfig`].
#[derive(Debug, Clone)]
pub struct VirtualObjectConfigBuilder {
    function: ValueFunction,
    ttr: AdaptiveTtrConfig,
    feedback: FeedbackConfig,
}

impl VirtualObjectConfigBuilder {
    /// Sets the θ feedback dynamics.
    pub fn feedback(mut self, feedback: FeedbackConfig) -> Self {
        self.feedback = feedback;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the feedback parameters are outside
    /// their ranges.
    pub fn build(self) -> Result<VirtualObjectConfig, ConfigError> {
        self.feedback.validate()?;
        Ok(VirtualObjectConfig {
            function: self.function,
            ttr: self.ttr,
            feedback: self.feedback,
        })
    }
}

/// Outcome of one pair-poll under the virtual-object policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvDecision {
    /// When to poll the pair next, relative to this poll.
    pub ttr: Duration,
    /// Whether this poll detected that `f` had drifted ≥ δ since the
    /// previous poll (i.e. the guarantee was violated in the interim).
    pub violated: bool,
    /// The freshly observed `f(a, b)`.
    pub f_value: Value,
    /// The feedback factor θ after this poll.
    pub theta: f64,
}

/// The virtual-object Mv policy: both objects are polled together on a
/// single schedule derived from the rate of change of `f` (Equations 11
/// and 12).
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualObjectPolicy {
    config: VirtualObjectConfig,
    ttr: AdaptiveTtr,
    theta: f64,
    last_f: Option<Value>,
    polls: u64,
}

impl VirtualObjectPolicy {
    /// Creates the policy; θ starts at 1 ("initially θ = 1").
    pub fn new(config: VirtualObjectConfig) -> Self {
        VirtualObjectPolicy {
            ttr: AdaptiveTtr::new(config.ttr),
            config,
            theta: 1.0,
            last_f: None,
            polls: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &VirtualObjectConfig {
        &self.config
    }

    /// Current feedback factor θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Pair-polls performed so far.
    pub fn poll_count(&self) -> u64 {
        self.polls
    }

    /// Feeds the values fetched by polling *both* objects at `now`.
    pub fn on_poll(&mut self, now: Timestamp, value_a: Value, value_b: Value) -> MvDecision {
        let f_new = self.config.function.eval(value_a, value_b);
        self.polls += 1;

        // Violation: f drifted by at least δ between the previous poll and
        // this one, so the cached pair was (at some point) out of bounds.
        let violated = self
            .last_f
            .is_some_and(|prev| f_new.abs_diff(prev) >= self.config.delta());
        if violated {
            self.theta = (self.theta * self.config.feedback.decrease).max(self.config.feedback.min);
        } else {
            self.theta = (self.theta * self.config.feedback.increase).min(1.0);
        }
        self.last_f = Some(f_new);

        let ttr = self.ttr.on_poll_scaled(now, f_new, self.theta);
        MvDecision {
            ttr,
            violated,
            f_value: f_new,
            theta: self.theta,
        }
    }
}

/// Which member of the pair a partitioned-policy poll refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairMember {
    /// The first object (e.g. the first stock in the comparison).
    A,
    /// The second object.
    B,
}

/// Validated configuration for the partitioned Mv approach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionedConfig {
    function: ValueFunction,
    ttr: AdaptiveTtrConfig,
    repartition_every: u32,
}

impl PartitionedConfig {
    /// Starts building a partitioned policy for function `f` (which must
    /// support partitioning); each member runs the §4.1 adaptive TTR
    /// `ttr` on its share of `ttr`'s Δ, the mutual tolerance δ.
    pub fn builder(function: ValueFunction, ttr: AdaptiveTtrConfig) -> PartitionedConfigBuilder {
        PartitionedConfigBuilder {
            function,
            ttr,
            repartition_every: 8,
        }
    }

    /// The function being tracked.
    pub fn function(&self) -> ValueFunction {
        self.function
    }

    /// The mutual tolerance δ.
    pub fn delta(&self) -> Value {
        self.ttr.delta()
    }

    /// Consumes the configuration into a policy.
    pub fn into_policy(self) -> PartitionedPolicy {
        PartitionedPolicy::new(self)
    }
}

/// Builder for [`PartitionedConfig`].
#[derive(Debug, Clone)]
pub struct PartitionedConfigBuilder {
    function: ValueFunction,
    ttr: AdaptiveTtrConfig,
    repartition_every: u32,
}

impl PartitionedConfigBuilder {
    /// Sets how many polls elapse between re-apportionings of δ
    /// (0 disables re-apportioning; the initial even split persists).
    pub fn repartition_every(mut self, polls: u32) -> Self {
        self.repartition_every = polls;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the function does not support
    /// partitioning (e.g. [`ValueFunction::Ratio`]).
    pub fn build(self) -> Result<PartitionedConfig, ConfigError> {
        if self.function.lipschitz_weights().is_none() {
            return Err(ConfigError::ParameterOutOfRange {
                name: "function",
                value: f64::NAN,
                range: "a partitionable function (difference/sum/weighted-sum)",
            });
        }
        Ok(PartitionedConfig {
            function: self.function,
            ttr: self.ttr,
            repartition_every: self.repartition_every,
        })
    }
}

/// The partitioned Mv policy: δ is split into per-object tolerances that
/// each member enforces independently with the §4.1 adaptive TTR.
///
/// Maintaining `|P_a − S_a| < δ_a` and `|P_b − S_b| < δ_b` with
/// `w_a·δ_a + w_b·δ_b = δ` implies the mutual bound by the triangle
/// inequality (§4.2, footnote 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedPolicy {
    config: PartitionedConfig,
    weights: (f64, f64),
    a: AdaptiveTtr,
    b: AdaptiveTtr,
    tolerances: (Value, Value),
    polls_since_repartition: u32,
}

impl PartitionedPolicy {
    /// Creates the policy with an initial even split of δ.
    ///
    /// # Panics
    ///
    /// Never panics for configs built via [`PartitionedConfigBuilder`],
    /// which rejects non-partitionable functions.
    pub fn new(config: PartitionedConfig) -> Self {
        let weights = config
            .function
            .lipschitz_weights()
            .expect("PartitionedConfig guarantees a partitionable function");
        let (da, db) = Self::split(config.delta(), weights, 0.5);
        let member = |delta: Value| {
            let mut ttr = config.ttr.into_state();
            // split() keeps both tolerances positive.
            ttr.set_delta(delta).expect("positive tolerance");
            ttr
        };
        PartitionedPolicy {
            a: member(da),
            b: member(db),
            tolerances: (da, db),
            polls_since_repartition: 0,
            weights,
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PartitionedConfig {
        &self.config
    }

    /// The current per-object tolerances `(δ_a, δ_b)`.
    ///
    /// Invariant: `w_a·δ_a + w_b·δ_b = δ` (up to float rounding).
    pub fn tolerances(&self) -> (Value, Value) {
        self.tolerances
    }

    /// Splits δ so a share `frac_a ∈ (0, 1)` of the *weighted* budget goes
    /// to object A.
    fn split(delta: Value, weights: (f64, f64), frac_a: f64) -> (Value, Value) {
        let budget_a = delta.as_f64() * frac_a;
        let budget_b = delta.as_f64() - budget_a;
        (
            Value::new(budget_a / weights.0),
            Value::new(budget_b / weights.1),
        )
    }

    /// Feeds the value observed by polling one member at `now`; returns
    /// that member's next TTR.
    pub fn on_poll(&mut self, member: PairMember, now: Timestamp, value: Value) -> Duration {
        let ttr = match member {
            PairMember::A => self.a.on_poll(now, value),
            PairMember::B => self.b.on_poll(now, value),
        };
        self.polls_since_repartition += 1;
        if self.config.repartition_every > 0
            && self.polls_since_repartition >= self.config.repartition_every
        {
            self.repartition();
            self.polls_since_repartition = 0;
        }
        ttr
    }

    /// Re-apportions δ by the members' latest rate estimates: the faster
    /// object receives the smaller tolerance — δ_a = (r_b / (r_a + r_b))·δ.
    fn repartition(&mut self) {
        let (Some(ra), Some(rb)) = (self.a.rate(), self.b.rate()) else {
            return;
        };
        let total = ra + rb;
        if total <= 0.0 {
            return;
        }
        let frac_a = (rb / total).clamp(0.05, 0.95); // keep both positive
        let (da, db) = Self::split(self.config.delta(), self.weights, frac_a);
        self.tolerances = (da, db);
        // set_delta validated: split() keeps both tolerances positive.
        self.a.set_delta(da).expect("positive tolerance");
        self.b.set_delta(db).expect("positive tolerance");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// The §4.1 tuning with its defaults and the given bounds.
    fn ttr(delta: f64, min: Duration, max: Duration) -> AdaptiveTtrConfig {
        AdaptiveTtrConfig::builder(Value::new(delta))
            .ttr_bounds(min, max)
            .build()
            .unwrap()
    }

    fn default_ttr(delta: f64) -> AdaptiveTtrConfig {
        AdaptiveTtrConfig::builder(Value::new(delta))
            .build()
            .unwrap()
    }

    fn virtual_policy(delta: f64) -> VirtualObjectPolicy {
        let ttr = AdaptiveTtrConfig::builder(Value::new(delta))
            .smoothing(1.0)
            .alpha(1.0)
            .ttr_bounds(Duration::from_secs(1), Duration::from_secs(3_600))
            .build()
            .unwrap();
        VirtualObjectConfig::builder(ValueFunction::Difference, ttr)
            .build()
            .unwrap()
            .into_policy()
    }

    #[test]
    fn feedback_validation() {
        let bad = |f: FeedbackConfig| {
            VirtualObjectConfig::builder(ValueFunction::Difference, default_ttr(1.0))
                .feedback(f)
                .build()
        };
        assert!(bad(FeedbackConfig {
            decrease: 1.0,
            ..Default::default()
        })
        .is_err());
        assert!(bad(FeedbackConfig {
            increase: 0.9,
            ..Default::default()
        })
        .is_err());
        assert!(bad(FeedbackConfig {
            min: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(bad(FeedbackConfig::default()).is_ok());
    }

    #[test]
    fn virtual_object_tracks_f() {
        let mut p = virtual_policy(0.6);
        let d = p.on_poll(secs(0), Value::new(160.0), Value::new(36.0));
        assert_eq!(d.f_value, Value::new(124.0));
        assert!(!d.violated);
        assert_eq!(p.poll_count(), 1);
        // f drifts slowly: 0.1 in 10 s → TTR = 0.6/0.01 = 60 s.
        let d = p.on_poll(secs(10), Value::new(160.1), Value::new(36.0));
        assert!(!d.violated);
        assert_eq!(d.ttr, Duration::from_secs(60));
    }

    #[test]
    fn virtual_object_detects_violation_and_shrinks_theta() {
        let mut p = virtual_policy(0.6);
        p.on_poll(secs(0), Value::new(160.0), Value::new(36.0)); // f = 124.0
                                                                 // f jumps by 1.0 ≥ δ → violation, θ ← 0.7.
        let d = p.on_poll(secs(10), Value::new(161.0), Value::new(36.0));
        assert!(d.violated);
        assert!((d.theta - 0.7).abs() < 1e-12);
        // A calm poll grows θ back towards 1.
        let d = p.on_poll(secs(20), Value::new(161.0), Value::new(36.0));
        assert!(!d.violated);
        assert!((d.theta - 0.77).abs() < 1e-12);
    }

    #[test]
    fn theta_floors_and_caps() {
        let mut p = VirtualObjectConfig::builder(ValueFunction::Difference, default_ttr(0.1))
            .feedback(FeedbackConfig {
                decrease: 0.1,
                increase: 2.0,
                min: 0.05,
            })
            .build()
            .unwrap()
            .into_policy();
        let mut t = 0;
        // Repeated violations: θ must not go below the floor.
        for i in 0..5 {
            t += 10;
            p.on_poll(secs(t), Value::new(100.0 + i as f64), Value::ZERO);
        }
        assert!(p.theta() >= 0.05);
        // Calm polls: θ must not exceed 1.
        for _ in 0..10 {
            t += 10;
            p.on_poll(secs(t), Value::new(104.0), Value::ZERO);
        }
        assert!((p.theta() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_theta_means_shorter_ttr() {
        let mut calm = virtual_policy(0.6);
        let mut shaken = virtual_policy(0.6);
        calm.on_poll(secs(0), Value::new(160.0), Value::new(36.0));
        shaken.on_poll(secs(0), Value::new(160.0), Value::new(36.0));
        // Inject a violation into `shaken` only.
        shaken.on_poll(secs(5), Value::new(162.0), Value::new(36.0));
        calm.on_poll(secs(5), Value::new(160.05), Value::new(36.0));
        // Same slow drift afterwards; the shaken policy stays more
        // conservative (shorter TTR) because θ < 1.
        let d_calm = calm.on_poll(secs(15), Value::new(160.15), Value::new(36.0));
        let d_shaken = shaken.on_poll(secs(15), Value::new(162.1), Value::new(36.0));
        assert!(d_shaken.ttr < d_calm.ttr);
    }

    #[test]
    fn partitioned_rejects_ratio() {
        assert!(matches!(
            PartitionedConfig::builder(ValueFunction::Ratio, default_ttr(1.0)).build(),
            Err(ConfigError::ParameterOutOfRange {
                name: "function",
                ..
            })
        ));
    }

    #[test]
    fn partitioned_initial_split_is_even() {
        let p = PartitionedConfig::builder(ValueFunction::Difference, default_ttr(0.6))
            .build()
            .unwrap()
            .into_policy();
        let (da, db) = p.tolerances();
        assert!((da.as_f64() - 0.3).abs() < 1e-12);
        assert!((db.as_f64() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn partitioned_split_respects_weights() {
        let p = PartitionedConfig::builder(
            ValueFunction::WeightedSum { wa: 2.0, wb: 1.0 },
            default_ttr(1.0),
        )
        .build()
        .unwrap()
        .into_policy();
        let (da, db) = p.tolerances();
        // w_a·δ_a + w_b·δ_b = 2·0.25 + 1·0.5 = 1.0 = δ.
        assert!((2.0 * da.as_f64() + db.as_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partitioned_reapportions_towards_slower_object() {
        let ttr = ttr(1.0, Duration::from_secs(1), Duration::from_secs(3_600));
        let mut p = PartitionedConfig::builder(ValueFunction::Difference, ttr)
            .repartition_every(4)
            .build()
            .unwrap()
            .into_policy();
        // A changes fast (1.0/10s), B slowly (0.01/10s).
        let mut t = 0;
        for i in 0..6u64 {
            t += 10;
            p.on_poll(PairMember::A, secs(t), Value::new(100.0 + i as f64));
            p.on_poll(PairMember::B, secs(t), Value::new(36.0 + 0.01 * i as f64));
        }
        let (da, db) = p.tolerances();
        // Faster object A must hold the smaller tolerance.
        assert!(da < db, "expected δa < δb, got {da} vs {db}");
        // Budget preserved.
        assert!((da.as_f64() + db.as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partitioned_without_repartition_keeps_split() {
        let mut p = PartitionedConfig::builder(ValueFunction::Difference, default_ttr(1.0))
            .repartition_every(0)
            .build()
            .unwrap()
            .into_policy();
        let before = p.tolerances();
        let mut t = 0;
        for i in 0..10u64 {
            t += 10;
            p.on_poll(PairMember::A, secs(t), Value::new(100.0 + i as f64));
            p.on_poll(PairMember::B, secs(t), Value::new(36.0));
        }
        assert_eq!(p.tolerances(), before);
    }

    #[test]
    fn partitioned_ttrs_within_bounds() {
        let lo = Duration::from_secs(2);
        let hi = Duration::from_secs(500);
        let mut p = PartitionedConfig::builder(ValueFunction::Difference, ttr(0.5, lo, hi))
            .build()
            .unwrap()
            .into_policy();
        let mut t = 0;
        for i in 0..50u64 {
            t += 3 + i % 5;
            let ta = p.on_poll(PairMember::A, secs(t), Value::new(100.0 + (i % 7) as f64));
            let tb = p.on_poll(
                PairMember::B,
                secs(t),
                Value::new(36.0 + (i % 3) as f64 * 0.01),
            );
            assert!(ta >= lo && ta <= hi);
            assert!(tb >= lo && tb <= hi);
        }
    }

    /// Across any poll pattern the weighted budget `wa·δa + wb·δb` stays
    /// exactly δ, and both member tolerances stay positive.
    #[test]
    fn partitioned_budget_is_preserved_on_random_polls() {
        for seed in 0..512 {
            let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(seed);
            let delta = rng.uniform_range(0.1, 10.0);
            let (wa, wb) = (rng.uniform_range(0.5, 3.0), rng.uniform_range(0.5, 3.0));
            let mut p = PartitionedConfig::builder(
                ValueFunction::WeightedSum { wa, wb },
                default_ttr(delta),
            )
            .repartition_every(4)
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
            .into_policy();
            let mut t = 0;
            let mut values = [100.0, 50.0];
            for _ in 0..rng.uniform_u64(1, 100) {
                t += rng.uniform_u64(1, 601);
                let (member, i) = if rng.chance(0.5) {
                    (PairMember::A, 0)
                } else {
                    (PairMember::B, 1)
                };
                values[i] += rng.uniform_range(-2.0, 2.0);
                p.on_poll(member, secs(t), Value::new(values[i]));
                let (da, db) = p.tolerances();
                assert!(
                    da > Value::ZERO && db > Value::ZERO,
                    "seed {seed}: tolerances {da}, {db}"
                );
                let budget = wa * da.as_f64() + wb * db.as_f64();
                assert!(
                    (budget - delta).abs() < 1e-9,
                    "seed {seed}: budget {budget} drifted from δ {delta}"
                );
            }
        }
    }
}
