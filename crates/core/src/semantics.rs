//! Formal consistency semantics (§2 of the paper).
//!
//! The paper's taxonomy (Table 1) classifies cache-consistency guarantees
//! along two axes:
//!
//! | Semantics | Domain   | Scope      | Example |
//! |-----------|----------|------------|---------|
//! | Δt        | temporal | individual | object `a` is always within 5 time units of its server copy |
//! | Mt        | temporal | mutual     | objects `a` and `b` are never out-of-sync by more than 5 time units |
//! | Δv        | value    | individual | value of `a` is within 2.5 of its server copy |
//! | Mv        | value    | mutual     | difference in values of `a` and `b` is within 2.5 of the difference at the server |
//!
//! This module gives those definitions executable form. The central notion
//! is the [`ValidityInterval`] of a cached copy: the span of *server* time
//! during which the version held by the proxy was the current version at
//! the origin. Both temporal predicates are expressed over validity
//! intervals:
//!
//! * **Δt-consistency** (Equation 2): at every instant `t` the cached copy
//!   must equal the server state at some instant in `(t − Δ, t]` — i.e. the
//!   copy's validity interval must reach past `t − Δ`.
//! * **Mt-consistency** (Equation 4): the two cached copies must have been
//!   simultaneously valid at the server up to a tolerance δ — i.e. the gap
//!   between their validity intervals is at most δ. With δ = 0 the
//!   intervals must overlap ("the objects should have simultaneously
//!   existed on the server at some point in the past").
//!
//! Value-domain predicates compare numeric values directly (Equations 3
//! and 5).
//!
//! ```
//! use mutcon_core::semantics::{delta_t_satisfied, ValidityInterval};
//! use mutcon_core::time::{Duration, Timestamp};
//!
//! // Cached version was current at the server during [0s, 60s).
//! let copy = ValidityInterval::closed(Timestamp::ZERO, Timestamp::from_secs(60));
//! let delta = Duration::from_secs(30);
//! // At t = 80s the copy is 20s stale: within Δ = 30s.
//! assert!(delta_t_satisfied(copy, Timestamp::from_secs(80), delta));
//! // At t = 95s it is 35s stale: Δ is violated.
//! assert!(!delta_t_satisfied(copy, Timestamp::from_secs(95), delta));
//! ```

use std::fmt;

use crate::time::{Duration, Timestamp};
use crate::value::Value;

/// The domain a consistency guarantee is expressed in (Table 1, column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Guarantees bound *time* staleness (any web object qualifies).
    Temporal,
    /// Guarantees bound *value* drift (only objects with a numeric value).
    Value,
}

/// Whether a guarantee constrains one object or a group (Table 1, column 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// One cached object versus its server copy.
    Individual,
    /// A set of related cached objects versus one another.
    Mutual,
}

/// A consistency guarantee from the paper's taxonomy, with its tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Semantics {
    /// Strong consistency (Equation 1): the proxy is always up to date.
    /// Provided here for completeness; it needs no mutual augmentation.
    Strong,
    /// Δt-consistency with tolerance Δ (Equation 2).
    DeltaT(Duration),
    /// Mt-consistency with tolerance δ (Equation 4).
    MutualT(Duration),
    /// Δv-consistency with tolerance Δ (Equation 3).
    DeltaV(Value),
    /// Mv-consistency with tolerance δ (Equation 5).
    MutualV(Value),
}

impl Semantics {
    /// The domain of this guarantee; strong consistency spans both and
    /// reports [`Domain::Temporal`] (it is defined over versions).
    pub fn domain(self) -> Domain {
        match self {
            Semantics::Strong | Semantics::DeltaT(_) | Semantics::MutualT(_) => Domain::Temporal,
            Semantics::DeltaV(_) | Semantics::MutualV(_) => Domain::Value,
        }
    }

    /// The scope of this guarantee.
    pub fn scope(self) -> Scope {
        match self {
            Semantics::MutualT(_) | Semantics::MutualV(_) => Scope::Mutual,
            _ => Scope::Individual,
        }
    }
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Semantics::Strong => write!(f, "strong"),
            Semantics::DeltaT(d) => write!(f, "Δt({d})"),
            Semantics::MutualT(d) => write!(f, "Mt({d})"),
            Semantics::DeltaV(v) => write!(f, "Δv({v})"),
            Semantics::MutualV(v) => write!(f, "Mv({v})"),
        }
    }
}

/// The span of server time during which a cached version was the *current*
/// version at the origin: `[start, end)`, with `end = None` while the
/// version is still live.
///
/// `start` is the version's creation time (its `Last-Modified` instant);
/// `end` is the time of the next server update, once one occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValidityInterval {
    start: Timestamp,
    end: Option<Timestamp>,
}

impl ValidityInterval {
    /// An interval for a version that is still current at the server.
    pub fn open(start: Timestamp) -> Self {
        ValidityInterval { start, end: None }
    }

    /// An interval for a version superseded at `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn closed(start: Timestamp, end: Timestamp) -> Self {
        assert!(
            end >= start,
            "validity interval ends ({end}) before it starts ({start})"
        );
        ValidityInterval {
            start,
            end: Some(end),
        }
    }

    /// When the version came into existence.
    pub fn start(self) -> Timestamp {
        self.start
    }

    /// When the version was superseded, or `None` if still current.
    pub fn end(self) -> Option<Timestamp> {
        self.end
    }

    /// `true` while the version is still the current one at the server.
    pub fn is_current(self) -> bool {
        self.end.is_none()
    }

    /// The smallest separation between some instant in `self` and some
    /// instant in `other` — zero when the intervals overlap or touch.
    ///
    /// This is the quantity bounded by δ in Mt-consistency: two cached
    /// versions are mutually consistent iff their validity intervals come
    /// within δ of each other.
    pub fn gap(self, other: ValidityInterval) -> Duration {
        // Treat each interval as [start, end], where a live version extends
        // to infinity. The gap is max(0, later.start − earlier.end).
        let (first, second) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        match first.end {
            None => Duration::ZERO, // first extends forever: they overlap
            Some(end) => second.start.checked_since(end).unwrap_or(Duration::ZERO),
        }
    }
}

impl fmt::Display for ValidityInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end {
            Some(end) => write!(f, "[{}, {})", self.start, end),
            None => write!(f, "[{}, now)", self.start),
        }
    }
}

/// Does a cached copy with validity interval `copy` satisfy Δt-consistency
/// with tolerance `delta` at instant `now`? (Equation 2.)
///
/// The copy satisfies the bound while its validity interval reaches past
/// `now − Δ`: some instant σ < Δ ago, the copy matched the server.
pub fn delta_t_satisfied(copy: ValidityInterval, now: Timestamp, delta: Duration) -> bool {
    match copy.end() {
        None => true, // still current: stale by 0
        // Valid until `end`; the copy matched the server as recently as
        // just before `end`, so staleness at `now` is `now − end`. Before
        // `end` the copy is still current, which satisfies any Δ, Δ = 0
        // included.
        Some(end) => now.checked_since(end).is_none_or(|stale| stale < delta),
    }
}

/// The instant at which Δt-consistency for `copy` *starts* being violated,
/// or `None` if the copy is still current (never violated).
///
/// A refresh strictly before this instant preserves the guarantee; this is
/// what a polling policy must beat.
pub fn delta_t_violation_onset(copy: ValidityInterval, delta: Duration) -> Option<Timestamp> {
    copy.end().map(|end| end.saturating_add(delta))
}

/// Do two cached copies satisfy Mt-consistency with tolerance `delta`?
/// (Equation 4.)
///
/// True when the copies' server-validity intervals come within `delta` of
/// each other; with `delta == 0` the versions must have coexisted at the
/// server.
pub fn mutual_t_satisfied(a: ValidityInterval, b: ValidityInterval, delta: Duration) -> bool {
    a.gap(b) <= delta
}

/// Does a cached value satisfy Δv-consistency with tolerance `delta`?
/// (Equation 3: `|S − P| < Δ`.)
pub fn delta_v_satisfied(server: Value, proxy: Value, delta: Value) -> bool {
    server.abs_diff(proxy) < delta
}

/// Do cached values satisfy Mv-consistency for a function with server-side
/// result `f_server` and proxy-side result `f_proxy`, with tolerance
/// `delta`? (Equation 5: `|f(S_a,S_b) − f(P_a,P_b)| < δ`.)
pub fn mutual_v_satisfied(f_server: Value, f_proxy: Value, delta: Value) -> bool {
    f_server.abs_diff(f_proxy) < delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// Two closed intervals drawn from `seed`, with their starts and
    /// lengths in seconds.
    fn random_pair(seed: u64) -> (ValidityInterval, ValidityInterval, [u64; 4]) {
        let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(seed);
        let [s1, l1, s2, l2] = [10_000, 5_000, 10_000, 5_000].map(|hi| rng.uniform_u64(0, hi));
        let a = ValidityInterval::closed(secs(s1), secs(s1 + l1));
        let b = ValidityInterval::closed(secs(s2), secs(s2 + l2));
        (a, b, [s1, l1, s2, l2])
    }

    #[test]
    fn taxonomy_classification() {
        assert_eq!(Semantics::Strong.domain(), Domain::Temporal);
        assert_eq!(Semantics::Strong.scope(), Scope::Individual);
        let dt = Semantics::DeltaT(Duration::from_mins(5));
        assert_eq!(
            (dt.domain(), dt.scope()),
            (Domain::Temporal, Scope::Individual)
        );
        let mt = Semantics::MutualT(Duration::from_mins(5));
        assert_eq!((mt.domain(), mt.scope()), (Domain::Temporal, Scope::Mutual));
        let dv = Semantics::DeltaV(Value::new(2.5));
        assert_eq!(
            (dv.domain(), dv.scope()),
            (Domain::Value, Scope::Individual)
        );
        let mv = Semantics::MutualV(Value::new(2.5));
        assert_eq!((mv.domain(), mv.scope()), (Domain::Value, Scope::Mutual));
    }

    #[test]
    fn semantics_display() {
        assert_eq!(Semantics::Strong.to_string(), "strong");
        assert_eq!(
            Semantics::DeltaT(Duration::from_mins(5)).to_string(),
            "Δt(5min)"
        );
        assert!(Semantics::MutualV(Value::new(2.5))
            .to_string()
            .starts_with("Mv"));
    }

    #[test]
    fn current_copy_always_delta_t_consistent() {
        let copy = ValidityInterval::open(secs(0));
        assert!(delta_t_satisfied(
            copy,
            secs(1_000_000),
            Duration::from_millis(1)
        ));
        assert_eq!(delta_t_violation_onset(copy, Duration::from_secs(1)), None);
    }

    #[test]
    fn superseded_copy_violates_after_delta() {
        // Version valid [0, 60); Δ = 30s → violation from t = 90s onwards.
        let copy = ValidityInterval::closed(secs(0), secs(60));
        let delta = Duration::from_secs(30);
        assert!(delta_t_satisfied(copy, secs(60), delta));
        assert!(delta_t_satisfied(copy, secs(89), delta));
        // At exactly end + Δ, staleness == Δ and Equation 2 requires σ < Δ.
        assert!(!delta_t_satisfied(copy, secs(90), delta));
        assert!(!delta_t_satisfied(copy, secs(200), delta));
        assert_eq!(delta_t_violation_onset(copy, delta), Some(secs(90)));
        // At Δ = 0 the copy is fresh until it is superseded, as an open
        // interval is, and stale from `end` on.
        assert!(delta_t_satisfied(copy, secs(59), Duration::ZERO));
        assert!(!delta_t_satisfied(copy, secs(60), Duration::ZERO));
        assert_eq!(
            delta_t_violation_onset(copy, Duration::ZERO),
            Some(secs(60))
        );
    }

    #[test]
    fn validity_gap_overlapping_is_zero() {
        let a = ValidityInterval::closed(secs(0), secs(50));
        let b = ValidityInterval::closed(secs(40), secs(90));
        assert_eq!(a.gap(b), Duration::ZERO);
        assert_eq!(b.gap(a), Duration::ZERO);
        // The gap is zero exactly when the closed intervals meet.
        for seed in 0..512 {
            let (a, b, [s1, l1, s2, l2]) = random_pair(seed);
            let meet = s1 <= s2 + l2 && s2 <= s1 + l1;
            assert_eq!(a.gap(b).is_zero(), meet, "seed {seed}: {a:?} and {b:?}");
        }
    }

    #[test]
    fn validity_gap_disjoint() {
        let a = ValidityInterval::closed(secs(0), secs(10));
        let b = ValidityInterval::closed(secs(25), secs(30));
        assert_eq!(a.gap(b), Duration::from_secs(15));
        assert_eq!(b.gap(a), Duration::from_secs(15));
        for seed in 0..512 {
            let (a, b, _) = random_pair(seed);
            assert_eq!(a.gap(b), b.gap(a), "seed {seed}: {a:?} and {b:?}");
        }
    }

    #[test]
    fn validity_gap_with_open_interval() {
        let old = ValidityInterval::closed(secs(0), secs(10));
        let live = ValidityInterval::open(secs(25));
        assert_eq!(old.gap(live), Duration::from_secs(15));
        // Two live versions always overlap "now".
        let live2 = ValidityInterval::open(secs(1000));
        assert_eq!(live.gap(live2), Duration::ZERO);
        // A live version starting before a closed one overlaps it.
        let early_live = ValidityInterval::open(secs(0));
        assert_eq!(early_live.gap(old), Duration::ZERO);
    }

    #[test]
    fn mutual_t_zero_delta_requires_overlap() {
        let a = ValidityInterval::closed(secs(0), secs(10));
        let b = ValidityInterval::closed(secs(10), secs(20));
        // Intervals touch: the versions coexisted at instant 10 boundary
        // (gap 0), which Equation 4 admits for δ = 0.
        assert!(mutual_t_satisfied(a, b, Duration::ZERO));
        let c = ValidityInterval::closed(secs(11), secs(20));
        assert!(!mutual_t_satisfied(a, c, Duration::ZERO));
        assert!(mutual_t_satisfied(a, c, Duration::from_secs(1)));
    }

    #[test]
    fn value_predicates_are_strict() {
        let delta = Value::new(0.5);
        assert!(delta_v_satisfied(Value::new(10.0), Value::new(10.4), delta));
        assert!(!delta_v_satisfied(
            Value::new(10.0),
            Value::new(10.5),
            delta
        ));
        assert!(mutual_v_satisfied(
            Value::new(124.0),
            Value::new(124.4),
            delta
        ));
        assert!(!mutual_v_satisfied(
            Value::new(124.0),
            Value::new(125.0),
            delta
        ));
    }

    #[test]
    #[should_panic(expected = "ends")]
    fn closed_interval_rejects_reversal() {
        let _ = ValidityInterval::closed(secs(10), secs(5));
    }

    #[test]
    fn interval_display() {
        assert_eq!(
            ValidityInterval::closed(secs(1), secs(2)).to_string(),
            "[t+1000ms, t+2000ms)"
        );
        assert_eq!(
            ValidityInterval::open(secs(1)).to_string(),
            "[t+1000ms, now)"
        );
    }
}
