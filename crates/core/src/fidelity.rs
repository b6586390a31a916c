//! Fidelity metrics (§6.1.3).
//!
//! Fidelity measures how well a consistency mechanism delivered its
//! promised guarantee. The paper uses two flavours:
//!
//! * **By violations** (Equation 13): `f = 1 − violations / polls`.
//! * **By time** (Equation 14): `f = 1 − out-of-sync time / trace
//!   duration`.
//!
//! [`FidelityStats`] accumulates the raw counters; the experiment harness
//! fills them from ground truth (the full server update history, which the
//! simulator — unlike a real proxy — can see).
//!
//! ```
//! use mutcon_core::fidelity::FidelityStats;
//! use mutcon_core::time::Duration;
//!
//! let mut stats = FidelityStats::new(Duration::from_hours(48));
//! for _ in 0..100 {
//!     stats.record_poll();
//! }
//! stats.record_violation(Duration::from_mins(30));
//! assert_eq!(stats.fidelity_by_violations(), 0.99);
//! assert!(stats.fidelity_by_time() > 0.98);
//! ```

use std::iter::Sum;

use crate::time::Duration;

/// Raw counters behind both fidelity metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FidelityStats {
    polls: u64,
    violations: u64,
    out_of_sync: Duration,
    observed: Duration,
}

impl FidelityStats {
    /// Creates empty statistics covering an observation window of
    /// `observed` (the trace duration in Equation 14).
    pub fn new(observed: Duration) -> Self {
        FidelityStats {
            observed,
            ..Default::default()
        }
    }

    /// Records one poll (one `If-Modified-Since` request).
    pub fn record_poll(&mut self) {
        self.polls += 1;
    }

    /// Records `n` polls at once.
    pub fn record_polls(&mut self, n: u64) {
        self.polls += n;
    }

    /// Records a detected violation together with the span for which the
    /// guarantee was broken (pass [`Duration::ZERO`] when only counting).
    pub fn record_violation(&mut self, out_of_sync: Duration) {
        self.violations += 1;
        self.out_of_sync = self.out_of_sync.saturating_add(out_of_sync);
    }

    /// Adds out-of-sync time without counting a discrete violation (used
    /// when violations and out-of-sync spans are accounted separately).
    pub fn add_out_of_sync(&mut self, d: Duration) {
        self.out_of_sync = self.out_of_sync.saturating_add(d);
    }

    /// Total polls.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Total violations.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total time the guarantee was broken.
    pub fn out_of_sync(&self) -> Duration {
        self.out_of_sync
    }

    /// The observation window.
    pub fn observed(&self) -> Duration {
        self.observed
    }

    /// Equation 13: `1 − violations / polls`, clamped into `[0, 1]`.
    ///
    /// With zero polls there is nothing to judge; the metric reports 1.
    pub fn fidelity_by_violations(&self) -> f64 {
        if self.polls == 0 {
            return 1.0;
        }
        (1.0 - self.violations as f64 / self.polls as f64).clamp(0.0, 1.0)
    }

    /// Equation 14: `1 − out-of-sync time / observed window`, clamped into
    /// `[0, 1]`. With an empty window the metric reports 1.
    pub fn fidelity_by_time(&self) -> f64 {
        if self.observed.is_zero() {
            return 1.0;
        }
        (1.0 - self.out_of_sync.as_millis() as f64 / self.observed.as_millis() as f64)
            .clamp(0.0, 1.0)
    }

    /// Merges another set of counters into this one (summing windows).
    pub(crate) fn merge(&mut self, other: &FidelityStats) {
        self.polls += other.polls;
        self.violations += other.violations;
        self.out_of_sync = self.out_of_sync.saturating_add(other.out_of_sync);
        self.observed = self.observed.saturating_add(other.observed);
    }
}

impl Sum for FidelityStats {
    fn sum<I: Iterator<Item = FidelityStats>>(iter: I) -> FidelityStats {
        let mut total = FidelityStats::default();
        for s in iter {
            total.merge(&s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_perfect_fidelity() {
        let s = FidelityStats::default();
        assert_eq!(s.fidelity_by_violations(), 1.0);
        assert_eq!(s.fidelity_by_time(), 1.0);
        assert_eq!(s.polls(), 0);
        assert_eq!(s.violations(), 0);
    }

    #[test]
    fn violation_fidelity_matches_equation_13() {
        let mut s = FidelityStats::new(Duration::from_hours(1));
        s.record_polls(10);
        s.record_violation(Duration::ZERO);
        s.record_violation(Duration::ZERO);
        assert_eq!(s.polls(), 10);
        assert_eq!(s.violations(), 2);
        assert!((s.fidelity_by_violations() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn time_fidelity_matches_equation_14() {
        let mut s = FidelityStats::new(Duration::from_mins(100));
        s.add_out_of_sync(Duration::from_mins(25));
        assert!((s.fidelity_by_time() - 0.75).abs() < 1e-12);
        assert_eq!(s.out_of_sync(), Duration::from_mins(25));
        assert_eq!(s.observed(), Duration::from_mins(100));
    }

    #[test]
    fn fidelity_clamps_at_zero() {
        let mut s = FidelityStats::new(Duration::from_mins(1));
        s.record_poll();
        s.record_violation(Duration::from_mins(10)); // more than the window
        s.record_violation(Duration::ZERO); // violations > polls
        assert_eq!(s.fidelity_by_violations(), 0.0);
        assert_eq!(s.fidelity_by_time(), 0.0);
    }

    #[test]
    fn merge_and_sum() {
        let mut a = FidelityStats::new(Duration::from_mins(10));
        a.record_polls(5);
        a.record_violation(Duration::from_mins(1));
        let mut b = FidelityStats::new(Duration::from_mins(20));
        b.record_polls(15);

        let total: FidelityStats = [a, b].into_iter().sum();
        assert_eq!(total.polls(), 20);
        assert_eq!(total.violations(), 1);
        assert_eq!(total.observed(), Duration::from_mins(30));
        assert_eq!(total.out_of_sync(), Duration::from_mins(1));
        assert!((total.fidelity_by_violations() - 0.95).abs() < 1e-12);
    }
}
