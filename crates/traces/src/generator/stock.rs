//! Stock-quote generator: a mean-reverting bounded random walk.
//!
//! Table 3 characterizes the paper's two stock traces by update count and
//! price band over a three-hour market window (AT&T: 653 updates in
//! \$35.8–36.5; Yahoo: 2204 updates in \$160.2–171.2). The generator
//! reproduces those statistics with:
//!
//! * tick instants on a jittered quasi-regular grid (quotes arrive at a
//!   fairly steady pace during market hours), and
//! * prices following an Ornstein–Uhlenbeck-style walk — a normal step
//!   plus mild pull towards the band centre, reflected at the band edges —
//!   which gives the *temporal locality* that makes rate extrapolation
//!   (§4.1) meaningful.

use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;
use mutcon_sim::rng::SimRng;

use crate::model::{TraceError, UpdateEvent, UpdateTrace};

/// Per-tick standard deviation of the walk, as a fraction of the band
/// width.
const VOLATILITY: f64 = 0.15;
/// Pull-to-centre strength per tick.
const MEAN_REVERSION: f64 = 0.02;

/// Builder for a stock-style (valued) update trace.
#[derive(Debug, Clone)]
pub struct StockTraceBuilder {
    name: String,
    duration: Duration,
    updates: usize,
    min: f64,
    max: f64,
    initial: Option<f64>,
    jitter: f64,
    seed: u64,
}

impl StockTraceBuilder {
    /// Starts building a trace with the given name, window length, exact
    /// update count and price band.
    pub fn new(
        name: impl Into<String>,
        duration: Duration,
        updates: usize,
        min: f64,
        max: f64,
    ) -> Self {
        StockTraceBuilder {
            name: name.into(),
            duration,
            updates,
            min,
            max,
            initial: None,
            jitter: 0.35,
            seed: 0,
        }
    }

    /// Sets the opening price (defaults to the band midpoint).
    pub fn initial(mut self, price: f64) -> Self {
        self.initial = Some(price);
        self
    }

    /// Tick-time jitter as a fraction of the grid spacing (default 0.35,
    /// clamped to `[0, 0.49]` so ticks cannot reorder).
    pub fn jitter(mut self, j: f64) -> Self {
        self.jitter = j.clamp(0.0, 0.49);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the trace: an opening quote at the window start plus
    /// exactly `updates` ticks.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for an inverted, degenerate or non-finite
    /// price band, an opening price outside the band, or a window too
    /// short to hold the ticks.
    pub fn build(self) -> Result<UpdateTrace, TraceError> {
        // Price-band and parameter validation; TraceError::InvalidWindow
        // covers window problems, parameter issues map onto OutOfRange.
        if !(self.min.is_finite() && self.max.is_finite()) || self.min >= self.max {
            return Err(TraceError::InvalidWindow);
        }
        let initial = self.initial.unwrap_or((self.min + self.max) / 2.0);
        if !(self.min..=self.max).contains(&initial) {
            return Err(TraceError::OutOfRange { index: 0 });
        }
        if self.duration.as_millis() <= self.updates as u64 {
            return Err(TraceError::OutOfRange {
                index: self.updates,
            });
        }

        let mut rng = SimRng::seed_from_u64(self.seed);
        let start = Timestamp::ZERO;
        let end = start + self.duration;
        let n = self.updates;

        // Jittered grid of tick instants.
        let spacing = self.duration.as_millis() as f64 / (n as f64 + 1.0);
        let mut instants: Vec<u64> = (1..=n)
            .map(|i| {
                let jitter = rng.uniform_range(-self.jitter, self.jitter) * spacing;
                ((i as f64 * spacing + jitter).max(1.0) as u64).min(self.duration.as_millis())
            })
            .collect();
        instants.sort_unstable();
        let mut prev = 0u64;
        for t in &mut instants {
            if *t <= prev {
                *t = prev + 1;
            }
            prev = *t;
        }
        if prev > self.duration.as_millis() {
            return Err(TraceError::OutOfRange { index: n });
        }

        // Mean-reverting bounded walk.
        let width = self.max - self.min;
        let mid = (self.min + self.max) / 2.0;
        // Scale the per-tick step so a full trace explores a good part of
        // the band regardless of tick count: σ_tick = volatility·width/√n.
        let sigma = VOLATILITY * width / (n.max(1) as f64).sqrt() * 4.0;
        let mut price = initial;
        let mut events = Vec::with_capacity(n + 1);
        events.push(UpdateEvent::valued(start, Value::new(price)));
        for ms in instants {
            let step = rng.normal(0.0, sigma) + MEAN_REVERSION * (mid - price);
            price = reflect(price + step, self.min, self.max);
            events.push(UpdateEvent::valued(
                start + Duration::from_millis(ms),
                Value::new(price),
            ));
        }
        UpdateTrace::new(self.name, start, end, events)
    }
}

/// Reflects `v` into `[min, max]`.
fn reflect(mut v: f64, min: f64, max: f64) -> f64 {
    let width = max - min;
    // A giant step could need several reflections.
    for _ in 0..64 {
        if v < min {
            v = min + (min - v);
        } else if v > max {
            v = max - (v - max);
        } else {
            return v;
        }
        // Pathological step sizes: clamp once reflections stop converging.
        if (v - min).abs() > 2.0 * width {
            return v.clamp(min, max);
        }
    }
    v.clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn att() -> UpdateTrace {
        StockTraceBuilder::new("AT&T", Duration::from_hours(3), 653, 35.8, 36.5)
            .seed(101)
            .build()
            .unwrap()
    }

    #[test]
    fn exact_count_and_band() {
        let t = att();
        assert_eq!(t.update_count(), 653);
        assert!(t.is_valued());
        let (lo, hi) = t.value_range().unwrap();
        assert!(lo.as_f64() >= 35.8 && hi.as_f64() <= 36.5);
        // The walk should explore a reasonable part of the band.
        assert!(
            hi.as_f64() - lo.as_f64() > 0.2,
            "band barely explored: {lo}..{hi}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = att();
        let b = att();
        assert_eq!(a, b);
        let c = StockTraceBuilder::new("AT&T", Duration::from_hours(3), 653, 35.8, 36.5)
            .seed(102)
            .build()
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn ticks_strictly_increase_and_stay_inside() {
        let t = att();
        for w in t.events().windows(2) {
            assert!(w[1].at > w[0].at);
        }
        assert!(t.events().last().unwrap().at <= t.end());
    }

    #[test]
    fn initial_price_respected() {
        let t = StockTraceBuilder::new("x", Duration::from_hours(1), 10, 100.0, 110.0)
            .initial(101.0)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(t.events()[0].value, Some(Value::new(101.0)));
    }

    #[test]
    fn validation_errors() {
        // Inverted band.
        assert!(
            StockTraceBuilder::new("x", Duration::from_hours(1), 10, 5.0, 4.0)
                .build()
                .is_err()
        );
        // Initial outside band.
        assert!(
            StockTraceBuilder::new("x", Duration::from_hours(1), 10, 1.0, 2.0)
                .initial(9.0)
                .build()
                .is_err()
        );
        // Window too small for the tick count.
        assert!(
            StockTraceBuilder::new("x", Duration::from_millis(5), 100, 1.0, 2.0)
                .build()
                .is_err()
        );
    }

    #[test]
    fn reflect_behaviour() {
        assert_eq!(reflect(5.0, 0.0, 10.0), 5.0);
        assert_eq!(reflect(-1.0, 0.0, 10.0), 1.0);
        assert_eq!(reflect(12.0, 0.0, 10.0), 8.0);
        let huge = reflect(1e9, 0.0, 10.0);
        assert!((0.0..=10.0).contains(&huge));
    }

    #[test]
    fn successive_ticks_have_local_steps() {
        // Temporal locality: the typical tick-to-tick move is far smaller
        // than the full band (otherwise rate extrapolation is hopeless).
        let t = att();
        let steps: Vec<f64> = t
            .events()
            .windows(2)
            .map(|w| (w[1].value.unwrap().as_f64() - w[0].value.unwrap().as_f64()).abs())
            .collect();
        let mean_step = steps.iter().sum::<f64>() / steps.len() as f64;
        assert!(mean_step < 0.2, "steps too wild: {mean_step}");
    }

    /// Any seed, size, window and band: the exact count, and every price
    /// inside the band.
    #[test]
    fn count_and_band_hold_for_any_seed_and_band() {
        for seed in 0..256 {
            let mut rng = SimRng::seed_from_u64(seed);
            let updates = rng.uniform_u64(1, 500) as usize;
            let mins = rng.uniform_u64(10, 300);
            let lo = rng.uniform_range(1.0, 200.0);
            let hi = lo + rng.uniform_range(0.5, 50.0);
            let t = StockTraceBuilder::new("s", Duration::from_mins(mins), updates, lo, hi)
                .seed(rng.uniform_u64(0, u64::MAX))
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(t.update_count(), updates, "seed {seed}");
            let (min, max) = t.value_range().unwrap();
            assert!(
                min.as_f64() >= lo - 1e-9 && max.as_f64() <= hi + 1e-9,
                "seed {seed}: prices {min}..{max} outside {lo}..{hi}"
            );
        }
    }
}
