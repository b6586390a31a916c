//! News-page update generator: a non-homogeneous Poisson process shaped by
//! a diurnal activity profile.
//!
//! Figure 4(a) of the paper shows the defining structure of news-update
//! traces: bursts of updates during the day and hours of total silence
//! every night. The generator reproduces it by drawing a caller-chosen
//! *exact* number of update instants from the normalized intensity
//! `λ(t) ∝ activity(hour-of-day(t))` — exact counts keep the Table 2
//! statistics on the nose, while the per-instant placement remains
//! random (seeded).

use mutcon_core::time::{Duration, Timestamp};
use mutcon_sim::rng::SimRng;

use crate::model::{TraceError, UpdateEvent, UpdateTrace};

/// Relative newsroom activity for each hour of the day (0–23): silent in
/// the small hours (02:00–05:59), a morning ramp, a midday/afternoon peak
/// and a gradual evening decline — the shape visible in Figure 4(a).
///
/// Values are relative weights (they need not sum to anything); hours with
/// weight zero never receive updates.
const NEWSROOM: [f64; 24] = [
    0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.2, 0.5, 0.9, 1.2, 1.4, 1.5, // 00–11
    1.5, 1.6, 1.6, 1.5, 1.4, 1.3, 1.1, 1.0, 0.9, 0.8, 0.6, 0.4, // 12–23
];

/// Builder for a news-style (temporal) update trace.
#[derive(Debug, Clone)]
pub struct NewsTraceBuilder {
    name: String,
    duration: Duration,
    updates: usize,
    start_hour: f64,
    seed: u64,
}

impl NewsTraceBuilder {
    /// Starts building a trace with the given name, window length, and
    /// exact update count (events beyond the initial version).
    pub fn new(name: impl Into<String>, duration: Duration, updates: usize) -> Self {
        NewsTraceBuilder {
            name: name.into(),
            duration,
            updates,
            start_hour: 13.0, // the paper's collections began early afternoon
            seed: 0,
        }
    }

    /// Wall-clock hour of day (0–24) at which the trace window opens;
    /// determines where the diurnal quiet periods fall.
    pub(crate) fn start_hour(mut self, hour: f64) -> Self {
        self.start_hour = hour.rem_euclid(24.0);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the trace: an initial version at the window start plus
    /// exactly `updates` diurnally placed update events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the window cannot hold the requested
    /// number of distinct millisecond instants.
    pub fn build(self) -> Result<UpdateTrace, TraceError> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let start = Timestamp::ZERO;
        let end = start + self.duration;

        // Piecewise-constant intensity over hour-aligned segments,
        // beginning mid-hour if start_hour is fractional.
        let segments = hour_segments(self.start_hour, self.duration, &NEWSROOM);
        let total_weight: f64 = segments.iter().map(|s| s.weight()).sum();
        // All-zero windows (short trace inside the quiet hours) fall back
        // to uniform placement rather than failing.
        let uniform = total_weight <= 0.0;

        let mut instants: Vec<u64> = (0..self.updates)
            .map(|_| {
                if uniform {
                    rng.uniform_u64(1, self.duration.as_millis().max(2))
                } else {
                    sample_from_segments(&segments, total_weight, &mut rng)
                }
            })
            .collect();
        instants.sort_unstable();
        // Enforce strict monotonicity at millisecond resolution; an update
        // at the very start would collide with the initial version.
        let mut prev = 0u64;
        for t in &mut instants {
            if *t <= prev {
                *t = prev + 1;
            }
            prev = *t;
        }
        if prev > self.duration.as_millis() {
            return Err(TraceError::OutOfRange {
                index: self.updates,
            });
        }

        let mut events = Vec::with_capacity(self.updates + 1);
        events.push(UpdateEvent::temporal(start));
        events.extend(
            instants
                .into_iter()
                .map(|ms| UpdateEvent::temporal(start + Duration::from_millis(ms))),
        );
        UpdateTrace::new(self.name, start, end, events)
    }
}

/// One hour-aligned stretch of the window with a constant intensity.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Offset of the segment start within the window, ms.
    offset_ms: u64,
    /// Segment length, ms.
    len_ms: u64,
    /// Profile weight (per-ms intensity, unnormalized).
    rate: f64,
}

impl Segment {
    fn weight(&self) -> f64 {
        self.rate * self.len_ms as f64
    }
}

fn hour_segments(start_hour: f64, duration: Duration, profile: &[f64; 24]) -> Vec<Segment> {
    const HOUR_MS: u64 = 3_600_000;
    let mut segments = Vec::new();
    let mut offset = 0u64;
    let total = duration.as_millis();
    // Absolute ms position on the wall clock, so hour boundaries align.
    let mut wall_ms = (start_hour * HOUR_MS as f64).round() as u64;
    while offset < total {
        let hour = (wall_ms / HOUR_MS) % 24;
        let until_next_hour = HOUR_MS - (wall_ms % HOUR_MS);
        let len = until_next_hour.min(total - offset);
        segments.push(Segment {
            offset_ms: offset,
            len_ms: len,
            rate: profile[hour as usize],
        });
        offset += len;
        wall_ms += len;
    }
    segments
}

fn sample_from_segments(segments: &[Segment], total_weight: f64, rng: &mut SimRng) -> u64 {
    let mut target = rng.uniform() * total_weight;
    for seg in segments {
        let w = seg.weight();
        if target < w || std::ptr::eq(seg, segments.last().expect("non-empty")) {
            if w <= 0.0 {
                // Degenerate final segment: place at its start.
                return seg.offset_ms;
            }
            let frac = (target / w).clamp(0.0, 1.0 - f64::EPSILON);
            return seg.offset_ms + (frac * seg.len_ms as f64) as u64;
        }
        target -= w;
    }
    unreachable!("sampling always terminates at the last segment");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_update_count_and_window() {
        let trace = NewsTraceBuilder::new("test", Duration::from_hours(48), 113)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(trace.update_count(), 113);
        assert_eq!(trace.duration(), Duration::from_hours(48));
        assert_eq!(trace.events()[0].at, Timestamp::ZERO);
        assert!(!trace.is_valued());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NewsTraceBuilder::new("t", Duration::from_hours(24), 50)
            .seed(1)
            .build()
            .unwrap();
        let b = NewsTraceBuilder::new("t", Duration::from_hours(24), 50)
            .seed(1)
            .build()
            .unwrap();
        let c = NewsTraceBuilder::new("t", Duration::from_hours(24), 50)
            .seed(2)
            .build()
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn quiet_hours_stay_quiet() {
        // Window starts at 13:00; hours 02:00–05:59 have zero weight.
        let trace = NewsTraceBuilder::new("t", Duration::from_hours(48), 500)
            .start_hour(13.0)
            .seed(3)
            .build()
            .unwrap();
        for e in &trace.events()[1..] {
            let wall_hour = ((13.0 + e.at.as_millis() as f64 / 3_600_000.0) % 24.0) as u32;
            assert!(
                !(2..6).contains(&wall_hour),
                "update at quiet hour {wall_hour} ({})",
                e.at
            );
        }
    }

    #[test]
    fn zero_weight_window_falls_back_to_uniform() {
        // 2-hour window starting 03:00: entirely inside the quiet period.
        let trace = NewsTraceBuilder::new("t", Duration::from_hours(2), 10)
            .start_hour(3.0)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(trace.update_count(), 10);
    }

    #[test]
    fn events_strictly_increase() {
        let trace = NewsTraceBuilder::new("t", Duration::from_secs(10), 500)
            .seed(11)
            .build()
            .unwrap();
        for w in trace.events().windows(2) {
            assert!(w[1].at > w[0].at);
        }
    }

    /// The profile's weights shape placement: over two days from
    /// midnight, the 13:00 hour (weight 1.6) gets many times the updates
    /// of the 01:00 hour (weight 0.1).
    #[test]
    fn profile_validation() {
        let trace = NewsTraceBuilder::new("t", Duration::from_hours(48), 2_000)
            .start_hour(0.0)
            .seed(13)
            .build()
            .unwrap();
        let in_hour = |h: u64| {
            trace.events()[1..]
                .iter()
                .filter(|e| (e.at.as_millis() / 3_600_000) % 24 == h)
                .count()
        };
        let (busy, quiet) = (in_hour(13), in_hour(1));
        assert!(busy > 5 * quiet.max(1), "13:00 {busy} vs 01:00 {quiet}");
    }

    #[test]
    fn overfull_window_errors() {
        // 5 ms window cannot hold 100 distinct update instants.
        let result = NewsTraceBuilder::new("t", Duration::from_millis(5), 100).build();
        assert!(result.is_err());
    }

    /// Any seed, size and phase: the exact update count, strictly
    /// increasing events from zero to at most the end, and two-hour
    /// windows whose counts add up to every update.
    #[test]
    fn invariants_hold_for_any_seed_size_and_phase() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let updates = rng.uniform_u64(0, 300) as usize;
            let trace =
                NewsTraceBuilder::new("t", Duration::from_hours(rng.uniform_u64(1, 100)), updates)
                    .start_hour(rng.uniform_range(0.0, 24.0))
                    .seed(rng.uniform_u64(0, u64::MAX))
                    .build()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(trace.update_count(), updates, "seed {seed}");
            assert_eq!(trace.events()[0].at, Timestamp::ZERO, "seed {seed}");
            assert!(
                trace.events().windows(2).all(|w| w[1].at > w[0].at),
                "seed {seed}: out of order"
            );
            assert!(
                trace.events().last().unwrap().at <= trace.end(),
                "seed {seed}: event after the end"
            );
            let windowed: u32 = crate::stats::updates_per_window(&trace, Duration::from_hours(2))
                .iter()
                .map(|w| w.count)
                .sum();
            assert_eq!(windowed as usize, updates, "seed {seed}");
        }
    }

    /// The newsroom profile's silent hours, 02:00–05:59, get no update
    /// for any seed.
    #[test]
    fn zero_weight_hours_stay_quiet_for_any_seed() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let trace = NewsTraceBuilder::new(
                "t",
                Duration::from_hours(48),
                rng.uniform_u64(1, 200) as usize,
            )
            .start_hour(0.0)
            .seed(rng.uniform_u64(0, u64::MAX))
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for e in &trace.events()[1..] {
                let hour = (e.at.as_millis() / 3_600_000) % 24;
                assert!(
                    !(2..6).contains(&hour),
                    "seed {seed}: update at hour {hour}"
                );
            }
        }
    }
}
