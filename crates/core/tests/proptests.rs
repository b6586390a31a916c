// Property tests require the external `proptest` crate, which is not
// vendored in this offline workspace; enable with `--features proptests`
// in an environment that can reach a cargo registry.
#![cfg(feature = "proptests")]
//! Property-based tests of the core algorithm invariants.

use proptest::prelude::*;

use mutcon_core::adaptive_ttr::AdaptiveTtrConfig;
use mutcon_core::fidelity::FidelityStats;
use mutcon_core::functions::ValueFunction;
use mutcon_core::limd::{DecreaseFactor, Limd, LimdConfig, PollResult};
use mutcon_core::mutual::value::{PairMember, PartitionedConfig};
use mutcon_core::semantics::ValidityInterval;
use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;

/// An arbitrary-but-valid LIMD configuration.
fn limd_config_strategy() -> impl Strategy<Value = LimdConfig> {
    (
        1u64..=60,          // delta (minutes)
        0.01f64..0.9,       // l
        0.05f64..0.9,       // m
        0.0f64..0.2,        // epsilon
        61u64..=240,        // ttr_max (minutes)
    )
        .prop_map(|(delta, l, m, eps, ttr_max)| {
            LimdConfig::builder(Duration::from_mins(delta))
                .linear_increase(l)
                .decrease(DecreaseFactor::Fixed(m))
                .epsilon(eps)
                .ttr_max(Duration::from_mins(ttr_max))
                .build()
                .expect("strategy produces valid configurations")
        })
}

/// A poll sequence: (gap to next poll in minutes, age of modification in
/// minutes if modified).
fn poll_sequence_strategy() -> impl Strategy<Value = Vec<(u64, Option<u64>)>> {
    prop::collection::vec((1u64..=120, prop::option::of(0u64..=600)), 1..60)
}

proptest! {
    /// LIMD's TTR never leaves its configured bounds, whatever it sees.
    #[test]
    fn limd_ttr_always_within_bounds(
        config in limd_config_strategy(),
        polls in poll_sequence_strategy(),
    ) {
        let mut limd = Limd::new(config);
        let mut now = Timestamp::ZERO;
        let mut last_mod = Timestamp::ZERO;
        for (gap, modified) in polls {
            now += Duration::from_mins(gap);
            let result = match modified {
                None => PollResult::NotModified,
                Some(age) => {
                    // Last-modified must move forward in time.
                    let lm = now.saturating_sub(Duration::from_mins(age)).max(last_mod);
                    last_mod = lm;
                    PollResult::modified(lm)
                }
            };
            let decision = limd.on_poll(now, &result);
            prop_assert!(decision.ttr >= config.ttr_min());
            prop_assert!(decision.ttr <= config.ttr_max());
            prop_assert_eq!(decision.ttr, limd.current_ttr());
        }
    }

    /// The adaptive value TTR also respects its bounds on arbitrary walks.
    #[test]
    fn adaptive_ttr_within_bounds(
        delta in 0.05f64..5.0,
        w in 0.0f64..=1.0,
        alpha in 0.0f64..=1.0,
        steps in prop::collection::vec((1u64..=600, -5.0f64..5.0), 1..80),
    ) {
        let lo = Duration::from_secs(1);
        let hi = Duration::from_mins(30);
        let mut state = AdaptiveTtrConfig::builder(Value::new(delta))
            .smoothing(w)
            .alpha(alpha)
            .ttr_bounds(lo, hi)
            .build()
            .expect("valid configuration")
            .into_state();
        let mut now = Timestamp::ZERO;
        let mut value = 100.0f64;
        for (gap, step) in steps {
            now += Duration::from_secs(gap);
            value += step;
            let ttr = state.on_poll(now, Value::new(value));
            prop_assert!(ttr >= lo && ttr <= hi);
        }
    }

    /// Partitioned Mv: the weighted tolerance budget is preserved exactly
    /// and both member tolerances stay positive, across any poll pattern.
    #[test]
    fn partitioned_budget_invariant(
        delta in 0.1f64..10.0,
        wa in 0.5f64..3.0,
        wb in 0.5f64..3.0,
        polls in prop::collection::vec(
            (prop::bool::ANY, 1u64..=600, -2.0f64..2.0), 1..100),
    ) {
        let function = ValueFunction::WeightedSum { wa, wb };
        let ttr = AdaptiveTtrConfig::builder(Value::new(delta))
            .build()
            .expect("valid configuration");
        let mut policy = PartitionedConfig::builder(function, ttr)
            .repartition_every(4)
            .build()
            .expect("valid configuration")
            .into_policy();
        let mut now = Timestamp::ZERO;
        let (mut va, mut vb) = (100.0f64, 50.0f64);
        for (which, gap, step) in polls {
            now += Duration::from_secs(gap);
            let member = if which { PairMember::A } else { PairMember::B };
            let value = if which { va += step; va } else { vb += step; vb };
            policy.on_poll(member, now, Value::new(value));
            let (da, db) = policy.tolerances();
            prop_assert!(da > Value::ZERO && db > Value::ZERO);
            let budget = wa * da.as_f64() + wb * db.as_f64();
            prop_assert!((budget - delta).abs() < 1e-9,
                "budget {budget} drifted from δ {delta}");
        }
    }

    /// The partitioned split is sound: individual compliance implies the
    /// mutual bound (the triangle-inequality argument of §4.2).
    #[test]
    fn partitioned_split_implies_mutual_bound(
        delta in 0.1f64..10.0,
        frac in 0.05f64..0.95,
        sa in -100.0f64..100.0,
        sb in -100.0f64..100.0,
        // Per-object drifts strictly inside the respective tolerances.
        da_frac in 0.0f64..0.999,
        db_frac in 0.0f64..0.999,
        sign_a in prop::bool::ANY,
        sign_b in prop::bool::ANY,
    ) {
        let da = delta * frac;
        let db = delta - da;
        let drift_a = da * da_frac * if sign_a { 1.0 } else { -1.0 };
        let drift_b = db * db_frac * if sign_b { 1.0 } else { -1.0 };
        let (pa, pb) = (sa + drift_a, sb + drift_b);
        let f = ValueFunction::Difference;
        let server = f.eval(Value::new(sa), Value::new(sb));
        let proxy = f.eval(Value::new(pa), Value::new(pb));
        prop_assert!(server.abs_diff(proxy).as_f64() < delta);
    }

    /// Validity-interval gap is symmetric, and dilating by the gap makes
    /// intervals "touch": gap(a, b) ≤ δ ⇔ mutual_t_satisfied.
    #[test]
    fn validity_gap_properties(
        s1 in 0u64..10_000,
        l1 in 0u64..5_000,
        s2 in 0u64..10_000,
        l2 in 0u64..5_000,
        delta in 0u64..6_000,
    ) {
        let a = ValidityInterval::closed(
            Timestamp::from_secs(s1), Timestamp::from_secs(s1 + l1));
        let b = ValidityInterval::closed(
            Timestamp::from_secs(s2), Timestamp::from_secs(s2 + l2));
        prop_assert_eq!(a.gap(b), b.gap(a));
        let delta = Duration::from_secs(delta);
        prop_assert_eq!(
            mutcon_core::semantics::mutual_t_satisfied(a, b, delta),
            a.gap(b) <= delta
        );
        // Zero gap iff the closed intervals intersect (or touch).
        let intersect = s1 <= s2 + l2 && s2 <= s1 + l1;
        prop_assert_eq!(a.gap(b).is_zero(), intersect);
    }

    /// Fidelity metrics always land in [0, 1] and degrade monotonically
    /// with added violations.
    #[test]
    fn fidelity_bounds_and_monotonicity(
        polls in 1u64..1_000,
        violations in 0u64..1_200,
        out_sync_ms in 0u64..10_000_000,
        observed_ms in 1u64..10_000_000,
    ) {
        let mut stats = FidelityStats::new(Duration::from_millis(observed_ms));
        stats.record_polls(polls);
        for _ in 0..violations {
            stats.record_violation(Duration::ZERO);
        }
        stats.add_out_of_sync(Duration::from_millis(out_sync_ms));
        let fv = stats.fidelity_by_violations();
        let ft = stats.fidelity_by_time();
        prop_assert!((0.0..=1.0).contains(&fv));
        prop_assert!((0.0..=1.0).contains(&ft));
        // One more violation can only lower (or keep) the fidelity.
        let before = stats.fidelity_by_violations();
        stats.record_violation(Duration::ZERO);
        prop_assert!(stats.fidelity_by_violations() <= before);
    }
}
