//! The value-domain simulation driver (§4.2, §6.2.3): [`run_value_pair`]
//! steps a pair of valued objects under one of the two Mv approaches.
//!
//! * [`ValuePairPolicy::Virtual`] — the pair is polled *together* on one
//!   schedule derived from the rate of change of `f` (Equations 11–12);
//!   each pair poll issues two HTTP requests.
//! * [`ValuePairPolicy::Partitioned`] — δ is split into per-object
//!   tolerances and each object polls independently.

use mutcon_core::mutual::value::{
    PairMember, PartitionedConfig, PartitionedPolicy, VirtualObjectConfig, VirtualObjectPolicy,
};
use mutcon_core::object::ObjectId;
use mutcon_core::time::Timestamp;
use mutcon_core::value::Value;

use crate::log::{PollLog, PollOutcome, PollRecord};
use crate::origin::{HostedObject, OriginServer};

/// Which Mv approach drives the pair.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePairPolicy {
    /// Track `f(a, b)` as a virtual object (§4.2, Equations 11–12).
    Virtual(VirtualObjectConfig),
    /// Split δ into per-object tolerances (§4.2, partitioned approach).
    Partitioned(PartitionedConfig),
}

/// Output of a pair run.
#[derive(Debug, Clone, Default)]
pub struct ValuePairOutput {
    /// Poll log of the first object.
    pub log_a: PollLog,
    /// Poll log of the second object.
    pub log_b: PollLog,
    /// Violations the *policy itself* detected (its internal feedback
    /// signal — ground-truth violations come from `metrics`).
    pub detected_violations: u64,
}

impl ValuePairOutput {
    /// Total polls (HTTP requests) across both objects.
    pub fn total_polls(&self) -> u64 {
        self.log_a.poll_count() + self.log_b.poll_count()
    }
}

fn poll_value(
    object: &HostedObject<'_>,
    now: Timestamp,
    validator: &mut Option<Timestamp>,
    log: &mut PollLog,
) -> Value {
    let resp = object
        .poll(now, *validator)
        .expect("object hosted by origin for the whole window");
    let outcome = if resp.not_modified {
        PollOutcome::NotModified
    } else {
        *validator = Some(resp.last_modified);
        PollOutcome::Refreshed {
            version_index: resp.version_index,
        }
    };
    log.push(PollRecord {
        at: now,
        outcome,
        triggered: false,
    });
    resp.value
        .expect("value-domain driver requires valued traces")
}

/// Runs a pair of valued objects under an Mv policy until `until`.
///
/// # Panics
///
/// Panics if either object is not hosted or its trace is not valued.
pub fn run_value_pair(
    origin: &OriginServer,
    a: &ObjectId,
    b: &ObjectId,
    policy: &ValuePairPolicy,
    until: Timestamp,
) -> ValuePairOutput {
    match policy {
        ValuePairPolicy::Virtual(cfg) => run_virtual(origin, a, b, cfg.into_policy(), until),
        ValuePairPolicy::Partitioned(cfg) => {
            run_partitioned(origin, a, b, cfg.into_policy(), until)
        }
    }
}

fn run_virtual(
    origin: &OriginServer,
    a: &ObjectId,
    b: &ObjectId,
    mut policy: VirtualObjectPolicy,
    until: Timestamp,
) -> ValuePairOutput {
    let mut out = ValuePairOutput::default();
    let mut validator_a = None;
    let mut validator_b = None;
    let mut now = Timestamp::ZERO;
    let obj_a = origin.object(a).expect("object hosted by origin");
    let obj_b = origin.object(b).expect("object hosted by origin");
    loop {
        let va = poll_value(&obj_a, now, &mut validator_a, &mut out.log_a);
        let vb = poll_value(&obj_b, now, &mut validator_b, &mut out.log_b);
        let decision = policy.on_poll(now, va, vb);
        if decision.violated {
            out.detected_violations += 1;
        }
        now += decision.ttr;
        if now > until {
            break;
        }
    }
    out
}

fn run_partitioned(
    origin: &OriginServer,
    a: &ObjectId,
    b: &ObjectId,
    mut policy: PartitionedPolicy,
    until: Timestamp,
) -> ValuePairOutput {
    let mut out = ValuePairOutput::default();
    let mut validator_a = None;
    let mut validator_b = None;
    let obj_a = origin.object(a).expect("object hosted by origin");
    let obj_b = origin.object(b).expect("object hosted by origin");
    // Each member's next poll, `None` once it would fall past `until`.
    let (mut next_a, mut next_b) = (Some(Timestamp::ZERO), Some(Timestamp::ZERO));
    let mut last = PairMember::B;
    while let Some((member, now)) = next_poll(next_a, next_b, last) {
        let (object, validator, log, next) = match member {
            PairMember::A => (&obj_a, &mut validator_a, &mut out.log_a, &mut next_a),
            PairMember::B => (&obj_b, &mut validator_b, &mut out.log_b, &mut next_b),
        };
        let value = poll_value(object, now, validator, log);
        let ttr = policy.on_poll(member, now, value);
        *next = Some(now + ttr).filter(|&at| at <= until);
        last = member;
    }
    out
}

/// Which member polls next, given each one's next instant and the member
/// polled `last`: the earlier instant, and at equal instants the member
/// scheduled earlier, which is the one not polled last (`A` before `B`
/// at time 0).
fn next_poll(
    a: Option<Timestamp>,
    b: Option<Timestamp>,
    last: PairMember,
) -> Option<(PairMember, Timestamp)> {
    match (a, b) {
        (Some(a), Some(b)) if a < b || (a == b && last == PairMember::B) => {
            Some((PairMember::A, a))
        }
        (Some(a), None) => Some((PairMember::A, a)),
        (_, Some(b)) => Some((PairMember::B, b)),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_core::adaptive_ttr::AdaptiveTtrConfig;
    use mutcon_core::functions::ValueFunction;
    use mutcon_core::time::Duration;
    use mutcon_traces::NamedTrace;

    fn stock_origin() -> (OriginServer, ObjectId, ObjectId) {
        let mut origin = OriginServer::new();
        let att = ObjectId::new("stock/T");
        let yahoo = ObjectId::new("stock/YHOO");
        origin.host(att.clone(), NamedTrace::Att.generate());
        origin.host(yahoo.clone(), NamedTrace::Yahoo.generate());
        (origin, att, yahoo)
    }

    fn until() -> Timestamp {
        Timestamp::ZERO + NamedTrace::Att.duration()
    }

    /// The §4.1 tuning at `delta` with TTR bounds `[ttr_min_s, 10 min]`.
    fn ttr(delta: f64, ttr_min_s: u64) -> AdaptiveTtrConfig {
        AdaptiveTtrConfig::builder(Value::new(delta))
            .ttr_bounds(Duration::from_secs(ttr_min_s), Duration::from_mins(10))
            .build()
            .unwrap()
    }

    #[test]
    fn virtual_pair_polls_in_lockstep() {
        let (origin, att, yahoo) = stock_origin();
        let cfg = VirtualObjectConfig::builder(ValueFunction::Difference, ttr(1.0, 10))
            .build()
            .unwrap();
        let out = run_value_pair(
            &origin,
            &att,
            &yahoo,
            &ValuePairPolicy::Virtual(cfg),
            until(),
        );
        // Lockstep: equal counts, identical instants.
        assert_eq!(out.log_a.poll_count(), out.log_b.poll_count());
        for (ra, rb) in out.log_a.records().iter().zip(out.log_b.records()) {
            assert_eq!(ra.at, rb.at);
        }
        assert_eq!(out.total_polls(), 2 * out.log_a.poll_count());
    }

    #[test]
    fn partitioned_pair_polls_independently() {
        let (origin, att, yahoo) = stock_origin();
        let cfg = PartitionedConfig::builder(ValueFunction::Difference, ttr(1.0, 10))
            .build()
            .unwrap();
        let out = run_value_pair(
            &origin,
            &att,
            &yahoo,
            &ValuePairPolicy::Partitioned(cfg),
            until(),
        );
        assert!(out.log_a.poll_count() > 2);
        assert!(out.log_b.poll_count() > 2);
        // Yahoo moves much more than AT&T; its schedule should be denser.
        assert!(
            out.log_b.poll_count() > out.log_a.poll_count(),
            "yahoo {} vs att {}",
            out.log_b.poll_count(),
            out.log_a.poll_count()
        );
    }

    #[test]
    fn partitioned_ties_go_to_the_member_scheduled_first() {
        use PairMember::{A, B};
        let t = Timestamp::from_secs;
        assert_eq!(
            next_poll(Some(t(0)), Some(t(0)), B),
            Some((A, t(0))),
            "A first at 0"
        );
        // After A polls, B was scheduled first; after B, A.
        assert_eq!(next_poll(Some(t(5)), Some(t(5)), A), Some((B, t(5))));
        assert_eq!(next_poll(Some(t(5)), Some(t(5)), B), Some((A, t(5))));
        // Apart, the earlier instant goes first whoever polled last.
        assert_eq!(next_poll(Some(t(6)), Some(t(5)), B), Some((B, t(5))));
        assert_eq!(next_poll(Some(t(5)), Some(t(6)), A), Some((A, t(5))));
        // A member past the window drops out.
        assert_eq!(next_poll(None, Some(t(9)), B), Some((B, t(9))));
        assert_eq!(next_poll(Some(t(9)), None, A), Some((A, t(9))));
        assert_eq!(next_poll(None, None, A), None);
    }

    #[test]
    fn tighter_delta_means_more_polls() {
        let (origin, att, yahoo) = stock_origin();
        let mk = |delta: f64| {
            let cfg = VirtualObjectConfig::builder(ValueFunction::Difference, ttr(delta, 5))
                .build()
                .unwrap();
            run_value_pair(
                &origin,
                &att,
                &yahoo,
                &ValuePairPolicy::Virtual(cfg),
                until(),
            )
            .total_polls()
        };
        let tight = mk(0.25);
        let loose = mk(5.0);
        assert!(
            tight > loose,
            "tight δ should poll more: {tight} vs {loose}"
        );
    }

    #[test]
    fn virtual_detects_some_violations_under_tight_delta() {
        let (origin, att, yahoo) = stock_origin();
        let cfg = VirtualObjectConfig::builder(ValueFunction::Difference, ttr(0.25, 30))
            .build()
            .unwrap();
        let out = run_value_pair(
            &origin,
            &att,
            &yahoo,
            &ValuePairPolicy::Virtual(cfg),
            until(),
        );
        // With a tight tolerance and a floor on the TTR, some drift slips
        // through — that is exactly what θ reacts to.
        assert!(out.detected_violations > 0);
    }
}
