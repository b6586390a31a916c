//! Trace transformations: time compression, shifting, windowing.
//!
//! The live proxy (`mutcon-live`) replays the multi-day catalog traces in
//! seconds by compressing their timeline; experiments slice traces into
//! windows to study particular stretches (e.g. Figure 8's 2500–5000 s
//! span).

use mutcon_core::time::{Duration, Timestamp};

use crate::model::{TraceError, UpdateEvent, UpdateTrace};

/// Scales the trace's timeline by `factor` (e.g. `0.001` replays a
/// ~50-hour trace in ~3 minutes). Event spacing is compressed or
/// stretched relative to the trace start; colliding events after heavy
/// compression are nudged apart by one millisecond, extending the window
/// if the nudges run past its end.
///
/// # Errors
///
/// Returns [`TraceError::InvalidWindow`] if `factor` is not positive and
/// finite.
pub fn scale_time(trace: &UpdateTrace, factor: f64) -> Result<UpdateTrace, TraceError> {
    if !(factor.is_finite() && factor > 0.0) {
        return Err(TraceError::InvalidWindow);
    }
    let start = trace.start();
    let scale = |t: Timestamp| -> Timestamp {
        let rel = t.since(start).as_millis() as f64 * factor;
        start + Duration::from_millis(rel.round() as u64)
    };
    let mut new_end = scale(trace.end());
    let mut events: Vec<UpdateEvent> = trace
        .events()
        .iter()
        .map(|e| UpdateEvent {
            at: scale(e.at),
            value: e.value,
        })
        .collect();
    // Restore strict monotonicity lost to rounding.
    for i in 1..events.len() {
        if events[i].at <= events[i - 1].at {
            events[i].at = events[i - 1].at + Duration::from_millis(1);
        }
    }
    if let Some(last) = events.last() {
        new_end = new_end.max(last.at);
    }
    UpdateTrace::new(trace.name().to_owned(), start, new_end, events)
}

/// Shifts the whole trace later by `offset`.
pub fn shift(trace: &UpdateTrace, offset: Duration) -> UpdateTrace {
    let events = trace
        .events()
        .iter()
        .map(|e| UpdateEvent {
            at: e.at + offset,
            value: e.value,
        })
        .collect();
    UpdateTrace::new(
        trace.name().to_owned(),
        trace.start() + offset,
        trace.end() + offset,
        events,
    )
    .expect("shifting preserves all invariants")
}

/// Restricts the trace to `[from, to]`, carrying the version current at
/// `from` in as the window's initial version (re-stamped at `from`).
///
/// # Errors
///
/// Returns [`TraceError::InvalidWindow`] if the window is inverted or
/// outside the trace, or [`TraceError::Empty`] if no version exists at
/// `from` (window opens before the object's first version).
pub fn window(
    trace: &UpdateTrace,
    from: Timestamp,
    to: Timestamp,
) -> Result<UpdateTrace, TraceError> {
    if to < from || from < trace.start() || to > trace.end() {
        return Err(TraceError::InvalidWindow);
    }
    let initial = trace.event_at(from).ok_or(TraceError::Empty)?;
    let mut events = vec![UpdateEvent {
        at: from,
        value: initial.value,
    }];
    events.extend(trace.events_between(from, to).iter().copied());
    UpdateTrace::new(format!("{}[{from}..{to}]", trace.name()), from, to, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::NewsTraceBuilder;
    use mutcon_core::value::Value;
    use mutcon_sim::rng::SimRng;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn t() -> UpdateTrace {
        UpdateTrace::new(
            "x",
            secs(0),
            secs(1_000),
            vec![
                UpdateEvent::valued(secs(0), Value::new(1.0)),
                UpdateEvent::valued(secs(100), Value::new(2.0)),
                UpdateEvent::valued(secs(500), Value::new(3.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scale_compresses() {
        let scaled = scale_time(&t(), 0.1).unwrap();
        assert_eq!(scaled.duration(), Duration::from_secs(100));
        assert_eq!(scaled.events()[1].at, secs(10));
        assert_eq!(scaled.events()[2].at, secs(50));
        assert_eq!(scaled.update_count(), 2);
        assert_eq!(scaled.events()[2].value, Some(Value::new(3.0)));
    }

    #[test]
    fn scale_stretches() {
        let scaled = scale_time(&t(), 2.0).unwrap();
        assert_eq!(scaled.duration(), Duration::from_secs(2_000));
        assert_eq!(scaled.events()[1].at, secs(200));
    }

    #[test]
    fn heavy_compression_keeps_strict_order() {
        let scaled = scale_time(&t(), 1e-6).unwrap();
        for w in scaled.events().windows(2) {
            assert!(w[1].at > w[0].at);
        }
    }

    #[test]
    fn scale_rejects_bad_factor() {
        assert!(scale_time(&t(), 0.0).is_err());
        assert!(scale_time(&t(), -1.0).is_err());
        assert!(scale_time(&t(), f64::NAN).is_err());
    }

    #[test]
    fn shift_moves_everything() {
        let shifted = shift(&t(), Duration::from_secs(50));
        assert_eq!(shifted.start(), secs(50));
        assert_eq!(shifted.end(), secs(1_050));
        assert_eq!(shifted.events()[1].at, secs(150));
        assert_eq!(shifted.duration(), t().duration());
    }

    #[test]
    fn window_carries_current_version() {
        let w = window(&t(), secs(200), secs(600)).unwrap();
        assert_eq!(w.start(), secs(200));
        assert_eq!(w.end(), secs(600));
        // Initial version: the value current at 200s (2.0), re-stamped.
        assert_eq!(w.events()[0].at, secs(200));
        assert_eq!(w.events()[0].value, Some(Value::new(2.0)));
        // Plus the update at 500s.
        assert_eq!(w.update_count(), 1);
        assert_eq!(w.events()[1].at, secs(500));
    }

    #[test]
    fn window_validation() {
        assert!(window(&t(), secs(600), secs(200)).is_err());
        assert!(window(&t(), secs(0), secs(2_000)).is_err());
        // Window starting exactly at an event keeps that event as initial.
        let w = window(&t(), secs(100), secs(1_000)).unwrap();
        assert_eq!(w.events()[0].value, Some(Value::new(2.0)));
        assert_eq!(w.update_count(), 1);
    }

    /// A ten-hour news trace of 1–79 updates drawn from `rng`.
    fn random_news(rng: &mut SimRng) -> Result<UpdateTrace, TraceError> {
        let updates = rng.uniform_u64(1, 80) as usize;
        NewsTraceBuilder::new("t", Duration::from_hours(10), updates)
            .seed(rng.uniform_u64(0, u64::MAX))
            .build()
    }

    /// On generated traces, scaling keeps the count and the strict order,
    /// and shifting moves every event by the offset.
    #[test]
    fn scale_and_shift_preserve_structure_of_generated_traces() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let trace = random_news(&mut rng).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let scaled = scale_time(&trace, rng.uniform_range(0.01, 10.0))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(scaled.update_count(), trace.update_count(), "seed {seed}");
            assert!(
                scaled.events().windows(2).all(|w| w[1].at > w[0].at),
                "seed {seed}: out of order"
            );

            let offset = Duration::from_secs(rng.uniform_u64(0, 10_000));
            let shifted = shift(&trace, offset);
            assert_eq!(shifted.duration(), trace.duration(), "seed {seed}");
            for (a, b) in trace.events().iter().zip(shifted.events()) {
                assert_eq!((b.at, b.value), (a.at + offset, a.value), "seed {seed}");
            }
        }
    }

    /// A window of a generated trace starts with the version current at
    /// its start, keeps exactly the updates inside it, and agrees with
    /// the original at its midpoint.
    #[test]
    fn windows_of_generated_traces_are_consistent() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let trace = random_news(&mut rng).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let total = trace.duration().as_millis() as f64;
            let from_frac = rng.uniform_range(0.0, 0.9);
            let len_frac = rng.uniform_range(0.05, 1.0);
            let from = Timestamp::from_millis((total * from_frac) as u64);
            let to = Timestamp::from_millis((total * (from_frac + len_frac)).min(total) as u64);
            let w = window(&trace, from, to).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!((w.start(), w.end()), (from, to), "seed {seed}");
            assert_eq!(w.events()[0].at, from, "seed {seed}");
            assert_eq!(
                w.update_count(),
                trace.events_between(from, to).len(),
                "seed {seed}"
            );
            let mid = Timestamp::from_millis((from.as_millis() + to.as_millis()) / 2);
            assert_eq!(
                w.event_at(mid).map(|e| e.value),
                trace.event_at(mid).map(|e| e.value),
                "seed {seed}"
            );
        }
    }
}
