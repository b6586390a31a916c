//! Mt-consistency coordination in the temporal domain (§3.2).
//!
//! With each object polled independently by LIMD at its own TTR, two
//! related objects drift out of phase — by Δ/2 on average when both poll
//! every Δ, and by more when LIMD has grown their TTRs. The key
//! observation of §3.2 is that *polls only need synchronizing when an
//! update actually happens*: in the absence of updates no mutual guarantee
//! can be violated, however out-of-phase the polls are.
//!
//! [`MtCoordinator`] therefore reacts to observed updates. When a poll of
//! object `o` reports a modification, the coordinator decides, for every
//! related object `q`:
//!
//! * **Baseline** — never trigger anything (individual LIMD only; worst
//!   fidelity, fewest polls).
//! * **Triggered polls** — poll `q` immediately, *unless* `q`'s previous
//!   poll was within δ or its next scheduled poll is within δ (those are
//!   already inside the user's tolerance). Guarantees 100% Mt fidelity at
//!   the price of extra polls.
//! * **Rate heuristic** — like triggered polls, but only for objects whose
//!   estimated update rate is at least comparable to `o`'s. Slower objects
//!   are left to their own LIMD schedule; this saves polls and costs an
//!   occasional violation when a slow object happens to change in concert
//!   with a fast one (quantified in Figure 5(b)).
//!
//! ```
//! use mutcon_core::mutual::temporal::{MtCoordinator, MtPolicy};
//! use mutcon_core::limd::PollResult;
//! use mutcon_core::object::ObjectId;
//! use mutcon_core::time::{Duration, Timestamp};
//!
//! let story = ObjectId::new("story.html");
//! let image = ObjectId::new("photo.jpg");
//! let mut mt = MtCoordinator::new(
//!     Duration::from_mins(5),
//!     MtPolicy::TriggeredPolls,
//!     [story.clone(), image.clone()],
//! );
//!
//! // The image was just polled; its next poll is far away.
//! mt.record_scheduled_poll(&image, Timestamp::from_mins(100));
//!
//! // Polling the story at t=30min reveals an update → the image needs an
//! // immediate poll to restore mutual consistency.
//! let result = PollResult::modified(Timestamp::from_mins(29));
//! let triggers = mt.on_poll(&story, Timestamp::from_mins(30), &result);
//! assert_eq!(triggers, vec![image]);
//! ```

use std::collections::BTreeMap;

use crate::limd::{PollResult, PollView};
use crate::object::ObjectId;
use crate::rate::UpdateRateEstimator;
use crate::time::{Duration, Timestamp};

/// Which §3.2 mutual-consistency strategy to run on top of LIMD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MtPolicy {
    /// Individual LIMD only; no mutual support.
    Baseline,
    /// An observed update triggers polls on all related objects.
    TriggeredPolls,
    /// An observed update triggers polls only on related objects changing
    /// at a comparable-or-faster estimated rate.
    RateHeuristic {
        /// `q` is triggered when `rate(q) ≥ threshold · rate(o)`.
        /// The paper's "approximately the same or faster rate" corresponds
        /// to a threshold slightly below 1 (default 0.75).
        threshold: f64,
    },
}

impl MtPolicy {
    /// The rate heuristic with the default comparability threshold.
    pub const HEURISTIC: MtPolicy = MtPolicy::RateHeuristic { threshold: 0.75 };
}

/// The canonical wire form: `baseline`, `triggered`, or `rate:THRESHOLD`
/// (round-tripped by the `FromStr` impl; the live proxy's admin API
/// ships policies in this form).
impl std::fmt::Display for MtPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtPolicy::Baseline => f.write_str("baseline"),
            MtPolicy::TriggeredPolls => f.write_str("triggered"),
            MtPolicy::RateHeuristic { threshold } => write!(f, "rate:{threshold}"),
        }
    }
}

impl std::str::FromStr for MtPolicy {
    type Err = crate::error::ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |message: String| crate::error::ConfigError::InvalidSpec { message };
        match s.trim() {
            "baseline" => Ok(MtPolicy::Baseline),
            "triggered" => Ok(MtPolicy::TriggeredPolls),
            "rate" => Ok(MtPolicy::HEURISTIC),
            other => match other.strip_prefix("rate:") {
                Some(threshold) => {
                    let threshold: f64 = threshold.trim().parse().map_err(|_| {
                        bad("`rate:THRESHOLD` needs a numeric threshold".to_owned())
                    })?;
                    if !(threshold.is_finite() && threshold >= 0.0) {
                        return Err(bad(
                            "rate threshold must be finite and non-negative".to_owned()
                        ));
                    }
                    Ok(MtPolicy::RateHeuristic { threshold })
                }
                None => Err(bad(format!(
                    "unknown Mt policy `{other}` (expected baseline, triggered, or rate:THRESHOLD)"
                ))),
            },
        }
    }
}

/// Per-object bookkeeping the coordinator needs.
#[derive(Debug, Clone)]
struct MemberState {
    last_poll: Option<Timestamp>,
    next_poll: Option<Timestamp>,
    rate: UpdateRateEstimator,
}

impl MemberState {
    fn new(rate_alpha: f64) -> Self {
        MemberState {
            last_poll: None,
            next_poll: None,
            rate: UpdateRateEstimator::new(rate_alpha),
        }
    }
}

/// Mt-consistency coordinator for one group of related objects.
///
/// Drive it alongside LIMD: report every poll through
/// [`MtCoordinator::on_poll`] (which returns the related objects that must
/// be polled *now*) and every (re)scheduled poll through
/// [`MtCoordinator::record_scheduled_poll`].
///
/// The key type `K` identifies group members. It defaults to
/// [`ObjectId`]; simulation drivers that intern object ids to dense
/// integer handles instantiate `MtCoordinator<u32>` so the per-poll
/// bookkeeping never touches (or clones) an `Arc<str>`.
#[derive(Debug, Clone)]
pub struct MtCoordinator<K = ObjectId> {
    delta: Duration,
    policy: MtPolicy,
    members: BTreeMap<K, MemberState>,
}

impl<K: Ord + Clone> MtCoordinator<K> {
    /// Default EWMA weight for update-rate estimation.
    const DEFAULT_RATE_ALPHA: f64 = 0.3;

    /// Creates a coordinator with tolerance `delta` (the δ of Equation 4)
    /// over the given group members.
    pub fn new(delta: Duration, policy: MtPolicy, members: impl IntoIterator<Item = K>) -> Self {
        MtCoordinator {
            delta,
            policy,
            members: members
                .into_iter()
                .map(|id| (id, MemberState::new(Self::DEFAULT_RATE_ALPHA)))
                .collect(),
        }
    }

    /// The mutual tolerance δ.
    pub fn delta(&self) -> Duration {
        self.delta
    }

    /// The active policy.
    pub fn policy(&self) -> MtPolicy {
        self.policy
    }

    /// Group members known to this coordinator.
    pub fn members(&self) -> impl Iterator<Item = &K> + '_ {
        self.members.keys()
    }

    /// Records when `object`'s next regular (LIMD-scheduled) poll will
    /// occur. Keeping this current lets the coordinator skip triggers that
    /// the regular schedule already covers.
    pub fn record_scheduled_poll(&mut self, object: &K, at: Timestamp) {
        if let Some(state) = self.members.get_mut(object) {
            state.next_poll = Some(at);
        }
    }

    /// Reports a completed poll of `object` at `now` and returns the
    /// related objects that should be polled immediately to preserve
    /// Mt-consistency.
    ///
    /// Objects outside the group are ignored and produce no triggers.
    pub fn on_poll(&mut self, object: &K, now: Timestamp, result: &PollResult) -> Vec<K> {
        self.observe(object, now, result.as_view())
    }

    /// Allocation-free equivalent of [`MtCoordinator::on_poll`] consuming
    /// a borrowed [`PollView`]. (The returned trigger list only allocates
    /// when there *are* triggers; the common no-trigger poll returns an
    /// unallocated empty `Vec`.)
    pub fn observe(&mut self, object: &K, now: Timestamp, view: PollView<'_>) -> Vec<K> {
        let Some(state) = self.members.get_mut(object) else {
            return Vec::new();
        };
        state.last_poll = Some(now);
        // A triggered poll (or regular poll) satisfies any pending trigger;
        // the next regular poll will be re-announced by the scheduler.
        let modified = match view {
            PollView::NotModified => false,
            PollView::Modified {
                last_modified,
                history,
            } => {
                if let Some(history) = history {
                    for &t in history {
                        state.rate.observe_modification(t);
                    }
                }
                state.rate.observe_modification(last_modified);
                true
            }
        };

        if !modified || matches!(self.policy, MtPolicy::Baseline) {
            return Vec::new();
        }

        let updated_rate = self.members[&*object].rate.rate_per_ms();
        // §3.2 suppresses triggers when the target's next/previous poll is
        // within δ. The previous-poll case is *provably* safe: a copy
        // polled x ≤ δ ago was current then, so its validity reaches to
        // within x of the fresh version — the Equation 4 gap stays ≤ δ.
        // The next-poll case only bounds how LONG a violation can last,
        // not whether one occurs, so applying it would break the paper's
        // "triggered polls have fidelity 1" property (Figure 5(b)).
        // We therefore use it only for the heuristic, which tolerates
        // occasional violations by design.
        let use_next_poll_suppression = matches!(self.policy, MtPolicy::RateHeuristic { .. });
        let mut triggers = Vec::new();
        for (id, member) in &self.members {
            if id == object {
                continue;
            }
            if !self.needs_trigger(member, now, use_next_poll_suppression) {
                continue;
            }
            if let MtPolicy::RateHeuristic { threshold } = self.policy {
                if !Self::comparable_rate(updated_rate, member.rate.rate_per_ms(), threshold) {
                    continue;
                }
            }
            triggers.push(id.clone());
        }
        triggers
    }

    /// §3.2: "an additional poll is triggered for an object only if its
    /// next/previous poll instant is more than δ time units away".
    fn needs_trigger(&self, member: &MemberState, now: Timestamp, use_next: bool) -> bool {
        if let Some(prev) = member.last_poll {
            if now.abs_diff(prev) <= self.delta {
                return false;
            }
        }
        if use_next {
            if let Some(next) = member.next_poll {
                if next >= now && next.since(now) <= self.delta {
                    return false;
                }
            }
        }
        true
    }

    /// Is `candidate`'s rate comparable to or faster than `updated`'s?
    ///
    /// Unknown rates err on the side of triggering — until both estimators
    /// have warmed up the heuristic behaves like plain triggered polls.
    fn comparable_rate(updated: Option<f64>, candidate: Option<f64>, threshold: f64) -> bool {
        match (updated, candidate) {
            (Some(u), Some(c)) => c >= u * threshold,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> ObjectId {
        ObjectId::new(s)
    }

    fn mins(m: u64) -> Timestamp {
        Timestamp::from_mins(m)
    }

    fn coordinator(policy: MtPolicy) -> MtCoordinator {
        MtCoordinator::new(
            Duration::from_mins(5),
            policy,
            [oid("a"), oid("b"), oid("c")],
        )
    }

    #[test]
    fn baseline_never_triggers() {
        let mut mt = coordinator(MtPolicy::Baseline);
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::modified(mins(29)));
        assert!(triggers.is_empty());
    }

    #[test]
    fn unmodified_polls_never_trigger() {
        let mut mt = coordinator(MtPolicy::TriggeredPolls);
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::NotModified);
        assert!(triggers.is_empty());
    }

    #[test]
    fn triggered_polls_hit_all_related() {
        let mut mt = coordinator(MtPolicy::TriggeredPolls);
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::modified(mins(29)));
        assert_eq!(triggers, vec![oid("b"), oid("c")]);
    }

    #[test]
    fn recent_previous_poll_suppresses_trigger() {
        let mut mt = coordinator(MtPolicy::TriggeredPolls);
        // b was polled 3 minutes ago (≤ δ = 5min).
        mt.on_poll(&oid("b"), mins(27), &PollResult::NotModified);
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::modified(mins(29)));
        assert_eq!(triggers, vec![oid("c")]);
    }

    #[test]
    fn imminent_next_poll_suppresses_trigger_for_heuristic() {
        let mut mt = coordinator(MtPolicy::HEURISTIC);
        // c's regular poll is due in 2 minutes (≤ δ).
        mt.record_scheduled_poll(&oid("c"), mins(32));
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::modified(mins(29)));
        assert_eq!(triggers, vec![oid("b")]);
    }

    #[test]
    fn imminent_next_poll_does_not_suppress_triggered_polls() {
        // Triggered polls must deliver fidelity 1, so only the provably
        // safe previous-poll suppression applies to them.
        let mut mt = coordinator(MtPolicy::TriggeredPolls);
        mt.record_scheduled_poll(&oid("c"), mins(32));
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::modified(mins(29)));
        assert_eq!(triggers, vec![oid("b"), oid("c")]);
    }

    #[test]
    fn distant_next_poll_does_not_suppress() {
        let mut mt = coordinator(MtPolicy::HEURISTIC);
        mt.record_scheduled_poll(&oid("c"), mins(60));
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::modified(mins(29)));
        assert_eq!(triggers, vec![oid("b"), oid("c")]);
    }

    #[test]
    fn heuristic_triggers_when_rates_unknown() {
        let mut mt = coordinator(MtPolicy::HEURISTIC);
        let triggers = mt.on_poll(&oid("a"), mins(30), &PollResult::modified(mins(29)));
        assert_eq!(triggers, vec![oid("b"), oid("c")]);
    }

    #[test]
    fn heuristic_skips_slower_objects() {
        let mut mt = MtCoordinator::new(
            Duration::from_mins(5),
            MtPolicy::RateHeuristic { threshold: 0.75 },
            [oid("fast"), oid("slow")],
        );
        // Teach the coordinator the rates: fast updates every 10 min,
        // slow every 60 min.
        mt.on_poll(&oid("fast"), mins(10), &PollResult::modified(mins(10)));
        mt.on_poll(&oid("fast"), mins(20), &PollResult::modified(mins(20)));
        mt.on_poll(&oid("slow"), mins(60), &PollResult::modified(mins(60)));
        mt.on_poll(&oid("slow"), mins(120), &PollResult::modified(mins(120)));

        // Now a fast-object update must NOT trigger the slow object…
        let triggers = mt.on_poll(&oid("fast"), mins(130), &PollResult::modified(mins(129)));
        assert!(
            triggers.is_empty(),
            "slow object unexpectedly triggered: {triggers:?}"
        );

        // …but a slow-object update triggers the fast object.
        let triggers = mt.on_poll(&oid("slow"), mins(180), &PollResult::modified(mins(179)));
        assert_eq!(triggers, vec![oid("fast")]);
    }

    #[test]
    fn history_feeds_rate_estimator() {
        let mut mt = MtCoordinator::new(
            Duration::from_mins(5),
            MtPolicy::HEURISTIC,
            [oid("fast"), oid("slow")],
        );
        // One poll each, with history: slow updates every 60 min, fast
        // every 4 min.
        let slow = PollResult::modified_with_history(mins(120), [mins(0), mins(60), mins(120)]);
        mt.on_poll(&oid("slow"), mins(130), &slow);
        let fast = PollResult::modified_with_history(mins(136), [mins(128), mins(132), mins(136)]);
        // Both rates are known after a single poll, so the fast update
        // leaves the slower object alone; an unknown rate would trigger it.
        assert!(mt.on_poll(&oid("fast"), mins(140), &fast).is_empty());
    }

    #[test]
    fn unknown_object_is_ignored() {
        let mut mt = coordinator(MtPolicy::TriggeredPolls);
        let triggers = mt.on_poll(&oid("zzz"), mins(30), &PollResult::modified(mins(29)));
        assert!(triggers.is_empty());
    }

    #[test]
    fn accessors() {
        let mt = coordinator(MtPolicy::TriggeredPolls);
        assert_eq!(mt.delta(), Duration::from_mins(5));
        assert_eq!(mt.policy(), MtPolicy::TriggeredPolls);
    }

    #[test]
    fn policy_wire_form_round_trips() {
        for policy in [
            MtPolicy::Baseline,
            MtPolicy::TriggeredPolls,
            MtPolicy::HEURISTIC,
            MtPolicy::RateHeuristic { threshold: 1.25 },
        ] {
            let wire = policy.to_string();
            assert_eq!(wire.parse::<MtPolicy>().unwrap(), policy, "{wire}");
        }
        assert_eq!("rate".parse::<MtPolicy>().unwrap(), MtPolicy::HEURISTIC);
        for bad in ["", "Baseline", "rate:", "rate:x", "rate:-1", "rate:inf"] {
            assert!(bad.parse::<MtPolicy>().is_err(), "accepted {bad:?}");
        }
    }
}
