//! Mv-consistency coordination in the value domain (§4.2).
//!
//! The goal: keep `|f(S_a, S_b) − f(P_a, P_b)| < δ` over two cached
//! values. The paper lets the user choose `f`; it evaluates the
//! *difference* `f(a, b) = a − b` of two stock prices, and that is the
//! `f` implemented here. Two approaches from the paper:
//!
//! * **Virtual object** ([`VirtualObjectPolicy`]) — treat `f(a, b)` itself
//!   as the value of a virtual object and run one §4.1
//!   [`AdaptiveTtr`] on it: estimate the rate `r` at which `f` changes
//!   (Equation 11) and poll both objects every `TTR = (δ/r)·θ`
//!   (Equation 12). The feedback factor `θ ∈ (0, 1]` shrinks
//!   multiplicatively (× 0.7, `THETA_DECREASE`) whenever a violation is
//!   detected, down to a floor of 0.05 (`THETA_MIN`), and recovers
//!   gradually (× 1.1, `THETA_INCREASE`, up to 1) in their absence,
//!   biasing the estimate conservative exactly when the linear
//!   extrapolation of `f` has been failing.
//! * **Partitioned tolerance** ([`PartitionedPolicy`]) — split δ into
//!   per-object budgets δ_a + δ_b = δ and enforce plain Δv-consistency on
//!   each object independently, one [`AdaptiveTtr`] per member; by the
//!   triangle inequality, `|Δf| ≤ |ΔS_a| + |ΔS_b|` for the difference, the
//!   mutual bound follows. The split is re-apportioned periodically so the
//!   faster-changing object gets the *smaller* tolerance:
//!   δ_a = (r_b/(r_a+r_b))·δ (§4.2), with each `r` the slope its member's
//!   adaptive TTR last observed ([`AdaptiveTtr::rate`]).
//!
//! Both take the §4.1 tuning as one [`AdaptiveTtrConfig`] whose Δ is the
//! mutual tolerance δ.
//!
//! The trade-off measured in Figure 7: partitioning tracks the server
//! function more tightly (higher fidelity) at the cost of more polls.
//!
//! ```
//! use mutcon_core::adaptive_ttr::AdaptiveTtrConfig;
//! use mutcon_core::mutual::value::{PairMember, PartitionedConfig};
//! use mutcon_core::time::{Duration, Timestamp};
//! use mutcon_core::value::Value;
//!
//! # fn main() -> Result<(), mutcon_core::error::ConfigError> {
//! let ttr = AdaptiveTtrConfig::builder(Value::new(0.6)).build()?;
//! let mut policy = PartitionedConfig::builder(ttr).build().into_policy();
//!
//! // Each member object polls on its own schedule.
//! let ttr_a = policy.on_poll(PairMember::A, Timestamp::from_secs(0), Value::new(36.10));
//! let ttr_b = policy.on_poll(PairMember::B, Timestamp::from_secs(0), Value::new(161.00));
//! assert!(ttr_a >= Duration::from_secs(10) && ttr_b >= Duration::from_secs(10));
//! # Ok(())
//! # }
//! ```

use crate::adaptive_ttr::{AdaptiveTtr, AdaptiveTtrConfig};
use crate::time::{Duration, Timestamp};
use crate::value::Value;

/// Multiplier applied to θ on a detected violation.
const THETA_DECREASE: f64 = 0.7;
/// Multiplier applied to θ after a violation-free poll; θ is capped at 1.
const THETA_INCREASE: f64 = 1.1;
/// Floor for θ.
const THETA_MIN: f64 = 0.05;

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
    ttr: AdaptiveTtr,
    theta: f64,
    last_f: Option<Value>,
}

impl VirtualObjectPolicy {
    /// Creates the policy, run by the §4.1 adaptive TTR `ttr` whose Δ is
    /// the mutual tolerance δ of Equation 5; θ starts at 1 ("initially
    /// θ = 1").
    pub fn new(ttr: AdaptiveTtrConfig) -> Self {
        VirtualObjectPolicy {
            ttr: AdaptiveTtr::new(ttr),
            theta: 1.0,
            last_f: None,
        }
    }

    /// Feeds the values fetched by polling *both* objects at `now`.
    pub fn on_poll(&mut self, now: Timestamp, value_a: Value, value_b: Value) -> MvDecision {
        let f_new = value_a - value_b;

        // Violation: f drifted by at least δ between the previous poll and
        // this one, so the cached pair was (at some point) out of bounds.
        let violated = self
            .last_f
            .is_some_and(|prev| f_new.abs_diff(prev) >= self.ttr.delta());
        if violated {
            self.theta = (self.theta * THETA_DECREASE).max(THETA_MIN);
        } else {
            self.theta = (self.theta * THETA_INCREASE).min(1.0);
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

/// Configuration for the partitioned Mv approach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionedConfig {
    ttr: AdaptiveTtrConfig,
    repartition_every: u32,
}

impl PartitionedConfig {
    /// Starts building a partitioned policy; each member runs the §4.1
    /// adaptive TTR `ttr` on its share of `ttr`'s Δ, the mutual
    /// tolerance δ.
    pub fn builder(ttr: AdaptiveTtrConfig) -> PartitionedConfigBuilder {
        PartitionedConfigBuilder {
            ttr,
            repartition_every: 8,
        }
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

    /// Produces the configuration.
    pub fn build(self) -> PartitionedConfig {
        PartitionedConfig {
            ttr: self.ttr,
            repartition_every: self.repartition_every,
        }
    }
}

/// The partitioned Mv policy: δ is split into per-object tolerances that
/// each member enforces independently with the §4.1 adaptive TTR.
///
/// Maintaining `|P_a − S_a| < δ_a` and `|P_b − S_b| < δ_b` with
/// `δ_a + δ_b = δ` implies the mutual bound by the triangle inequality
/// (§4.2, footnote 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedPolicy {
    config: PartitionedConfig,
    a: AdaptiveTtr,
    b: AdaptiveTtr,
    tolerances: (Value, Value),
    polls_since_repartition: u32,
}

impl PartitionedPolicy {
    /// Creates the policy with an initial even split of δ.
    pub fn new(config: PartitionedConfig) -> Self {
        let (da, db) = Self::split(config.delta(), 0.5);
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
            config,
        }
    }

    /// Splits δ so a share `frac_a ∈ (0, 1)` of it goes to object A.
    fn split(delta: Value, frac_a: f64) -> (Value, Value) {
        let budget_a = delta.as_f64() * frac_a;
        let budget_b = delta.as_f64() - budget_a;
        (Value::new(budget_a), Value::new(budget_b))
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
        let (da, db) = Self::split(self.config.delta(), frac_a);
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

    /// The §4.1 tuning with its defaults.
    fn default_ttr(delta: f64) -> AdaptiveTtrConfig {
        AdaptiveTtrConfig::builder(Value::new(delta))
            .build()
            .unwrap()
    }

    fn virtual_policy(delta: f64) -> VirtualObjectPolicy {
        let ttr = AdaptiveTtrConfig::builder(Value::new(delta))
            .alpha(1.0)
            .build()
            .unwrap();
        VirtualObjectPolicy::new(ttr)
    }

    fn partitioned(ttr: AdaptiveTtrConfig, repartition_every: u32) -> PartitionedPolicy {
        PartitionedConfig::builder(ttr)
            .repartition_every(repartition_every)
            .build()
            .into_policy()
    }

    #[test]
    fn virtual_object_tracks_f() {
        let mut p = virtual_policy(0.6);
        let d = p.on_poll(secs(0), Value::new(160.0), Value::new(36.0));
        assert_eq!(d.f_value, Value::new(124.0));
        assert!(!d.violated);
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
        let mut p = VirtualObjectPolicy::new(default_ttr(0.1));
        let mut t = 0;
        // Eleven violations: 0.7^11 is below the floor, so θ rests on it.
        for i in 0..12 {
            t += 10;
            p.on_poll(secs(t), Value::new(100.0 + i as f64), Value::ZERO);
        }
        assert!((p.theta - THETA_MIN).abs() < 1e-12);
        // Calm polls: 0.05 · 1.1^32 > 1, and θ must not exceed 1.
        for _ in 0..40 {
            t += 10;
            p.on_poll(secs(t), Value::new(111.0), Value::ZERO);
        }
        assert!((p.theta - 1.0).abs() < 1e-12);
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
    fn partitioned_initial_split_is_even() {
        let p = partitioned(default_ttr(0.6), 8);
        let (da, db) = p.tolerances;
        assert!((da.as_f64() - 0.3).abs() < 1e-12);
        assert!((db.as_f64() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn partitioned_reapportions_towards_slower_object() {
        let mut p = partitioned(default_ttr(1.0), 4);
        // A changes fast (1.0/10s), B slowly (0.01/10s).
        let mut t = 0;
        for i in 0..6u64 {
            t += 10;
            p.on_poll(PairMember::A, secs(t), Value::new(100.0 + i as f64));
            p.on_poll(PairMember::B, secs(t), Value::new(36.0 + 0.01 * i as f64));
        }
        let (da, db) = p.tolerances;
        // Faster object A must hold the smaller tolerance.
        assert!(da < db, "expected δa < δb, got {da} vs {db}");
        // Budget preserved.
        assert!((da.as_f64() + db.as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partitioned_without_repartition_keeps_split() {
        let mut p = partitioned(default_ttr(1.0), 0);
        let before = p.tolerances;
        let mut t = 0;
        for i in 0..10u64 {
            t += 10;
            p.on_poll(PairMember::A, secs(t), Value::new(100.0 + i as f64));
            p.on_poll(PairMember::B, secs(t), Value::new(36.0));
        }
        assert_eq!(p.tolerances, before);
    }

    #[test]
    fn partitioned_ttrs_within_bounds() {
        let (lo, hi) = (Duration::from_secs(10), Duration::from_mins(10));
        let mut p = partitioned(default_ttr(0.5), 8);
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

    /// Across any poll pattern the budget `δa + δb` stays exactly δ, and
    /// both member tolerances stay positive.
    #[test]
    fn partitioned_budget_is_preserved_on_random_polls() {
        for seed in 0..512 {
            let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(seed);
            let delta = rng.uniform_range(0.1, 10.0);
            let mut p = partitioned(default_ttr(delta), 4);
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
                let (da, db) = p.tolerances;
                assert!(
                    da > Value::ZERO && db > Value::ZERO,
                    "seed {seed}: tolerances {da}, {db}"
                );
                let budget = da.as_f64() + db.as_f64();
                assert!(
                    (budget - delta).abs() < 1e-9,
                    "seed {seed}: budget {budget} drifted from δ {delta}"
                );
            }
        }
    }
}
