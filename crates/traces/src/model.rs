//! The update-trace model.
//!
//! An [`UpdateTrace`] is the complete server-side history of one object
//! over an observation window: when it was updated and (for value-bearing
//! objects) what value each update produced. Traces drive the simulated
//! origin server, and — because they are *ground truth* — also the exact
//! fidelity accounting of the experiment harness.

use std::fmt;

use mutcon_core::semantics::ValidityInterval;
use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;

/// One server-side update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateEvent {
    /// When the update happened.
    pub at: Timestamp,
    /// The new value, for value-bearing objects.
    pub value: Option<Value>,
}

impl UpdateEvent {
    /// A purely temporal update (news page changed).
    pub fn temporal(at: Timestamp) -> Self {
        UpdateEvent { at, value: None }
    }

    /// A value update (stock tick).
    pub fn valued(at: Timestamp, value: Value) -> Self {
        UpdateEvent {
            at,
            value: Some(value),
        }
    }
}

/// Error returned for structurally invalid traces.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A trace needs at least one event (the object's initial version).
    Empty,
    /// Events must be strictly increasing in time.
    OutOfOrder {
        /// Index of the offending event.
        index: usize,
    },
    /// An event lies outside `[start, end]`.
    OutOfRange {
        /// Index of the offending event.
        index: usize,
    },
    /// `end` precedes `start`.
    InvalidWindow,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => f.write_str("trace must contain at least one event"),
            TraceError::OutOfOrder { index } => {
                write!(f, "event {index} is not strictly after its predecessor")
            }
            TraceError::OutOfRange { index } => {
                write!(f, "event {index} lies outside the trace window")
            }
            TraceError::InvalidWindow => f.write_str("trace end precedes start"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The full update history of one object over `[start, end]`.
///
/// The first event is the object's *initial version* (version 0); each
/// subsequent event increments the version, mirroring the paper's §2
/// version model.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateTrace {
    name: String,
    start: Timestamp,
    end: Timestamp,
    events: Vec<UpdateEvent>,
    /// The events' instants, kept as a parallel array so the origin can
    /// hand out *borrowed* modification-history slices (`&[Timestamp]`)
    /// on the poll hot path instead of collecting a fresh `Vec` per poll.
    times: Vec<Timestamp>,
}

impl UpdateTrace {
    /// Creates a trace, validating the invariants.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the window is inverted, the event list is
    /// empty, out of order, or strays outside the window.
    pub fn new(
        name: impl Into<String>,
        start: Timestamp,
        end: Timestamp,
        events: Vec<UpdateEvent>,
    ) -> Result<Self, TraceError> {
        if end < start {
            return Err(TraceError::InvalidWindow);
        }
        if events.is_empty() {
            return Err(TraceError::Empty);
        }
        for (i, w) in events.windows(2).enumerate() {
            if w[1].at <= w[0].at {
                return Err(TraceError::OutOfOrder { index: i + 1 });
            }
        }
        for (i, e) in events.iter().enumerate() {
            if e.at < start || e.at > end {
                return Err(TraceError::OutOfRange { index: i });
            }
        }
        let times = events.iter().map(|e| e.at).collect();
        Ok(UpdateTrace {
            name: name.into(),
            start,
            end,
            events,
            times,
        })
    }

    /// The trace's display name (e.g. `"CNN/FN"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Start of the observation window.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// End of the observation window.
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// Window length.
    pub fn duration(&self) -> Duration {
        self.end.since(self.start)
    }

    /// The events, oldest first.
    pub fn events(&self) -> &[UpdateEvent] {
        &self.events
    }

    /// Number of *updates* — transitions after the initial version.
    pub fn update_count(&self) -> usize {
        self.events.len() - 1
    }

    /// Index of the version current at time `t` (the last event at or
    /// before `t`), or `None` before the first event.
    pub fn version_index_at(&self, t: Timestamp) -> Option<usize> {
        match self.times.binary_search(&t) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// The event that created the version current at `t`.
    pub(crate) fn event_at(&self, t: Timestamp) -> Option<&UpdateEvent> {
        self.version_index_at(t).map(|i| &self.events[i])
    }

    /// The server-side value at `t`, for valued traces.
    pub fn value_at(&self, t: Timestamp) -> Option<Value> {
        self.event_at(t).and_then(|e| e.value)
    }

    /// Events with `t1 < at ≤ t2` — "updates since the previous poll" for
    /// a poll at `t2` following one at `t1`.
    pub(crate) fn events_between(&self, t1: Timestamp, t2: Timestamp) -> &[UpdateEvent] {
        let (lo, hi) = self.range_between(t1, t2);
        &self.events[lo..hi]
    }

    /// The instants of all events, oldest first (parallel to
    /// [`UpdateTrace::events`]).
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// Instants of events with `t1 < at ≤ t2`, as a borrowed slice — the
    /// §5.1 modification history for a poll at `t2` validated at `t1`,
    /// with no per-poll allocation.
    pub fn times_between(&self, t1: Timestamp, t2: Timestamp) -> &[Timestamp] {
        let (lo, hi) = self.range_between(t1, t2);
        &self.times[lo..hi]
    }

    fn range_between(&self, t1: Timestamp, t2: Timestamp) -> (usize, usize) {
        let lo = match self.times.binary_search(&t1) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        let hi = match self.times.binary_search(&t2) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        (lo, hi)
    }

    /// The server-validity interval of the version indexed `i`: from its
    /// creation to the next update (open-ended for the last version).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn validity_of(&self, i: usize) -> ValidityInterval {
        let start = self.events[i].at;
        match self.events.get(i + 1) {
            Some(next) => ValidityInterval::closed(start, next.at),
            None => ValidityInterval::open(start),
        }
    }

    /// Smallest and largest value in the trace, for valued traces with at
    /// least one value.
    pub fn value_range(&self) -> Option<(Value, Value)> {
        let mut iter = self.events.iter().filter_map(|e| e.value);
        let first = iter.next()?;
        Some(iter.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }
}

/// What the crate's tests read of a trace.
#[cfg(test)]
impl UpdateTrace {
    /// Whether the trace carries values on every event.
    pub(crate) fn is_valued(&self) -> bool {
        self.events.iter().all(|e| e.value.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn trace() -> UpdateTrace {
        UpdateTrace::new(
            "t",
            secs(0),
            secs(100),
            vec![
                UpdateEvent::valued(secs(0), Value::new(10.0)),
                UpdateEvent::valued(secs(20), Value::new(12.0)),
                UpdateEvent::valued(secs(50), Value::new(11.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert_eq!(
            UpdateTrace::new("x", secs(10), secs(0), vec![]).unwrap_err(),
            TraceError::InvalidWindow
        );
        assert_eq!(
            UpdateTrace::new("x", secs(0), secs(10), vec![]).unwrap_err(),
            TraceError::Empty
        );
        let dup = vec![
            UpdateEvent::temporal(secs(5)),
            UpdateEvent::temporal(secs(5)),
        ];
        assert_eq!(
            UpdateTrace::new("x", secs(0), secs(10), dup).unwrap_err(),
            TraceError::OutOfOrder { index: 1 }
        );
        let outside = vec![UpdateEvent::temporal(secs(11))];
        assert_eq!(
            UpdateTrace::new("x", secs(0), secs(10), outside).unwrap_err(),
            TraceError::OutOfRange { index: 0 }
        );
        assert!(!TraceError::Empty.to_string().is_empty());
    }

    #[test]
    fn basic_accessors() {
        let t = trace();
        assert_eq!(t.name(), "t");
        assert_eq!(t.duration(), Duration::from_secs(100));
        assert_eq!(t.update_count(), 2);
        assert_eq!(t.events().len(), 3);
        assert!(t.is_valued());
    }

    #[test]
    fn version_lookup() {
        let t = trace();
        assert_eq!(t.version_index_at(secs(0)), Some(0));
        assert_eq!(t.version_index_at(secs(19)), Some(0));
        assert_eq!(t.version_index_at(secs(20)), Some(1));
        assert_eq!(t.version_index_at(secs(99)), Some(2));
        // Before the first event the object has no version yet.
        let late =
            UpdateTrace::new("x", secs(0), secs(10), vec![UpdateEvent::temporal(secs(5))]).unwrap();
        assert_eq!(late.version_index_at(secs(1)), None);
    }

    #[test]
    fn value_lookup() {
        let t = trace();
        assert_eq!(t.value_at(secs(10)), Some(Value::new(10.0)));
        assert_eq!(t.value_at(secs(20)), Some(Value::new(12.0)));
        assert_eq!(t.value_at(secs(100)), Some(Value::new(11.0)));
        assert_eq!(t.value_range(), Some((Value::new(10.0), Value::new(12.0))));
    }

    #[test]
    fn events_between_is_half_open() {
        let t = trace();
        let between = t.events_between(secs(0), secs(50));
        assert_eq!(between.len(), 2);
        assert_eq!(between[0].at, secs(20));
        assert!(t.events_between(secs(50), secs(100)).is_empty());
        assert_eq!(t.events_between(secs(19), secs(20)).len(), 1);
    }

    #[test]
    fn times_mirror_events() {
        let t = trace();
        assert_eq!(t.times(), &[secs(0), secs(20), secs(50)]);
        assert_eq!(t.times_between(secs(0), secs(50)), &[secs(20), secs(50)]);
        assert!(t.times_between(secs(50), secs(100)).is_empty());
        assert_eq!(
            t.times_between(secs(0), secs(50)).len(),
            t.events_between(secs(0), secs(50)).len()
        );
    }

    #[test]
    fn validity_intervals() {
        let t = trace();
        assert_eq!(
            t.validity_of(0),
            ValidityInterval::closed(secs(0), secs(20))
        );
        assert_eq!(t.validity_of(2), ValidityInterval::open(secs(50)));
    }

    #[test]
    fn temporal_trace_has_no_values() {
        let t = UpdateTrace::new(
            "news",
            secs(0),
            secs(10),
            vec![
                UpdateEvent::temporal(secs(0)),
                UpdateEvent::temporal(secs(5)),
            ],
        )
        .unwrap();
        assert!(!t.is_valued());
        assert_eq!(t.value_at(secs(6)), None);
        assert_eq!(t.value_range(), None);
    }

    #[test]
    fn single_event_trace() {
        let t = UpdateTrace::new(
            "one",
            secs(0),
            secs(10),
            vec![UpdateEvent::temporal(secs(0))],
        )
        .unwrap();
        assert_eq!(t.update_count(), 0);
        assert_eq!(t.validity_of(0), ValidityInterval::open(secs(0)));
    }
}
