//! Trace statistics: table summaries and time-windowed update counts.
//!
//! [`summarize`] produces the rows of Tables 2 and 3;
//! [`updates_per_window`] produces the update-frequency timeline of
//! Figure 4(a); [`rate_ratio_timeline`] the frequency-ratio curve of
//! Figure 6(a).

use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;

use crate::model::UpdateTrace;

/// Summary statistics of one trace — one row of Table 2 or Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Trace name.
    pub name: String,
    /// Window length.
    pub duration: Duration,
    /// Number of updates (excluding the initial version).
    pub updates: usize,
    /// `duration / updates` — the "Avg. Update Frequency" column.
    pub mean_update_gap: Option<Duration>,
    /// Min/max value, for valued traces.
    pub value_range: Option<(Value, Value)>,
}

/// Summarizes a trace.
pub fn summarize(trace: &UpdateTrace) -> TraceSummary {
    let updates = trace.update_count();
    TraceSummary {
        name: trace.name().to_owned(),
        duration: trace.duration(),
        updates,
        mean_update_gap: (updates > 0).then(|| trace.duration() / updates as u64),
        value_range: trace.value_range(),
    }
}

/// Update count within one window of a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowCount {
    /// Window start.
    pub start: Timestamp,
    /// Updates with `start < at ≤ start + window` (the initial version is
    /// not an update).
    pub count: u32,
}

/// Counts updates per fixed window across the trace (Figure 4(a) uses
/// two-hour windows).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn updates_per_window(trace: &UpdateTrace, window: Duration) -> Vec<WindowCount> {
    assert!(!window.is_zero(), "window must be positive");
    let mut out = Vec::new();
    let mut cursor = trace.start();
    while cursor < trace.end() {
        let window_end = (cursor + window).min(trace.end());
        // events_between is exclusive of `cursor`, so the initial version
        // at the trace start is never miscounted as an update.
        let count = trace.events_between(cursor, window_end).len() as u32;
        out.push(WindowCount {
            start: cursor,
            count,
        });
        cursor += window;
    }
    out
}

/// Ratio of update frequencies of two traces per window (Figure 6(a)):
/// `count_a / count_b`, or `None` where `b` had no updates.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn rate_ratio_timeline(
    a: &UpdateTrace,
    b: &UpdateTrace,
    window: Duration,
) -> Vec<(Timestamp, Option<f64>)> {
    let wa = updates_per_window(a, window);
    let wb = updates_per_window(b, window);
    wa.into_iter()
        .zip(wb)
        .map(|(ca, cb)| {
            let ratio = (cb.count > 0).then(|| ca.count as f64 / cb.count as f64);
            (ca.start, ratio)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::UpdateEvent;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn make(name: &str, updates: &[u64]) -> UpdateTrace {
        let mut events = vec![UpdateEvent::temporal(secs(0))];
        events.extend(updates.iter().map(|&s| UpdateEvent::temporal(secs(s))));
        UpdateTrace::new(name, secs(0), secs(100), events).unwrap()
    }

    #[test]
    fn summary_of_temporal_trace() {
        let t = make("x", &[10, 20, 50, 90]);
        let s = summarize(&t);
        assert_eq!(s.name, "x");
        assert_eq!(s.updates, 4);
        assert_eq!(s.mean_update_gap, Some(Duration::from_secs(25)));
        assert_eq!(s.value_range, None);
    }

    #[test]
    fn summary_of_empty_update_trace() {
        let t = make("quiet", &[]);
        let s = summarize(&t);
        assert_eq!(s.updates, 0);
        assert_eq!(s.mean_update_gap, None);
    }

    #[test]
    fn windows_partition_updates() {
        let t = make("x", &[10, 20, 50, 90]);
        let w = updates_per_window(&t, Duration::from_secs(25));
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].count, 2); // 10, 20  (initial version at 0 excluded)
        assert_eq!(w[1].count, 1); // 50
        assert_eq!(w[2].count, 0);
        assert_eq!(w[3].count, 1); // 90
        let total: u32 = w.iter().map(|w| w.count).sum();
        assert_eq!(total as usize, t.update_count());
    }

    #[test]
    fn window_larger_than_trace() {
        let t = make("x", &[10]);
        let w = updates_per_window(&t, Duration::from_secs(1_000));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].count, 1);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let t = make("x", &[10]);
        let _ = updates_per_window(&t, Duration::ZERO);
    }

    #[test]
    fn ratio_timeline() {
        let a = make("a", &[5, 10, 30, 55]);
        let b = make("b", &[20, 60]);
        let r = rate_ratio_timeline(&a, &b, Duration::from_secs(50));
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], (secs(0), Some(3.0))); // a: 5,10,30 vs b: 20
        assert_eq!(r[1], (secs(50), Some(1.0))); // a: 55 vs b: 60
                                                 // Division by zero reported as None.
        let quiet = make("q", &[]);
        let r = rate_ratio_timeline(&a, &quiet, Duration::from_secs(50));
        assert_eq!(r[0].1, None);
    }
}
