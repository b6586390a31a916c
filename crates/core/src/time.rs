//! Time primitives shared by every crate in the workspace.
//!
//! The simulator, the algorithms and the live proxy all reason about time as
//! an integer number of **milliseconds**. Two newtypes keep points in time
//! and spans of time from being confused ([C-NEWTYPE]):
//!
//! * [`Timestamp`] — an absolute point on the (virtual or real) timeline,
//!   measured in milliseconds since an arbitrary epoch.
//! * [`Duration`] — a non-negative span of time in milliseconds.
//!
//! Millisecond resolution is three orders of magnitude finer than the
//! paper's workloads need (trace updates arrive minutes apart; stock ticks
//! seconds apart) while keeping all arithmetic exact — no floating-point
//! drift in the event queue.
//!
//! ```
//! use mutcon_core::time::{Duration, Timestamp};
//!
//! let start = Timestamp::ZERO;
//! let later = start + Duration::from_mins(10);
//! assert_eq!(later.since(start), Duration::from_mins(10));
//! assert_eq!(Duration::from_mins(10).as_secs_f64(), 600.0);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};


/// An absolute point in time, in milliseconds since an arbitrary epoch.
///
/// For simulated experiments the epoch is the start of the simulation; for
/// the live proxy it is the Unix epoch. Only differences between timestamps
/// are ever semantically meaningful.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The origin of the timeline.
    pub const ZERO: Timestamp = Timestamp(0);
    /// The largest representable timestamp; useful as an "infinitely far in
    /// the future" sentinel for event scheduling.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Creates a timestamp `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000)
    }

    /// Creates a timestamp `mins` minutes after the epoch.
    pub const fn from_mins(mins: u64) -> Self {
        Timestamp(mins * 60_000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, rounded down.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float (useful for plotting/reports).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; use
    /// [`Timestamp::checked_since`] when the ordering is not statically
    /// known.
    pub fn since(self, earlier: Timestamp) -> Duration {
        self.checked_since(earlier).unwrap_or_else(|| {
            panic!("timestamp {self} is earlier than {earlier}");
        })
    }

    /// The span from `earlier` to `self`, or `None` if `earlier > self`.
    pub fn checked_since(self, earlier: Timestamp) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }

    /// The absolute distance between two timestamps.
    pub fn abs_diff(self, other: Timestamp) -> Duration {
        Duration(self.0.abs_diff(other.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction of a duration (clamps at the epoch).
    pub fn saturating_sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

/// A monotonic instant moved by a span of this timeline, so that code
/// generic over its clock can write `now + ttr` for either.
impl Add<Duration> for std::time::Instant {
    type Output = std::time::Instant;

    fn add(self, rhs: Duration) -> std::time::Instant {
        self + std::time::Duration::from_millis(rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;

    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl SubAssign<Duration> for Timestamp {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    fn sub(self, rhs: Timestamp) -> Duration {
        self.since(rhs)
    }
}

/// A non-negative span of time in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Duration(u64);

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        Duration(mins * 60_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        Duration(hours * 3_600_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond and clamping negatives to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || secs.is_nan() {
            Duration::ZERO
        } else {
            let ms = (secs * 1_000.0).round();
            if ms >= u64::MAX as f64 {
                Duration::MAX
            } else {
                Duration(ms as u64)
            }
        }
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds, rounded down.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// `true` when the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, saturating at the representable
    /// extremes. NaN scales are treated as zero.
    pub fn mul_f64(self, scale: f64) -> Duration {
        if scale.is_nan() || scale <= 0.0 {
            return Duration::ZERO;
        }
        let scaled = self.0 as f64 * scale;
        if scaled >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(scaled.round() as u64)
        }
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication.
    pub fn saturating_mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Clamps the duration into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Duration, hi: Duration) -> Duration {
        assert!(lo <= hi, "invalid clamp bounds: {lo} > {hi}");
        Duration(self.0.clamp(lo.0, hi.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(60_000) && self.0 > 0 {
            write!(f, "{}min", self.0 / 60_000)
        } else if self.0.is_multiple_of(1_000) && self.0 > 0 {
            write!(f, "{}s", self.0 / 1_000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;

    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;

    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc.saturating_add(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_mins(1), Duration::from_secs(60));
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
        assert_eq!(Timestamp::from_secs(2), Timestamp::from_millis(2_000));
        assert_eq!(Timestamp::from_mins(3), Timestamp::from_secs(180));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(100);
        let d = Duration::from_secs(40);
        assert_eq!(t + d, Timestamp::from_secs(140));
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn checked_since_handles_reversal() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(2);
        assert_eq!(late.checked_since(early), Some(Duration::from_secs(1)));
        assert_eq!(early.checked_since(late), None);
        assert_eq!(early.abs_diff(late), Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_reversal() {
        let _ = Timestamp::from_secs(1).since(Timestamp::from_secs(2));
    }

    #[test]
    fn duration_float_conversions() {
        assert_eq!(Duration::from_secs_f64(1.5), Duration::from_millis(1_500));
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::INFINITY), Duration::MAX);
        assert!((Duration::from_millis(2_500).as_secs_f64() - 2.5).abs() < 1e-12);
        assert!((Duration::from_mins(3).as_mins_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_saturates_and_rounds() {
        let d = Duration::from_secs(10);
        assert_eq!(d.mul_f64(1.5), Duration::from_secs(15));
        assert_eq!(d.mul_f64(0.0), Duration::ZERO);
        assert_eq!(d.mul_f64(-1.0), Duration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::MAX.mul_f64(2.0), Duration::MAX);
    }

    #[test]
    fn clamp_and_minmax() {
        let lo = Duration::from_secs(1);
        let hi = Duration::from_secs(10);
        assert_eq!(Duration::from_secs(5).clamp(lo, hi), Duration::from_secs(5));
        assert_eq!(Duration::ZERO.clamp(lo, hi), lo);
        assert_eq!(Duration::from_secs(100).clamp(lo, hi), hi);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    #[should_panic(expected = "invalid clamp bounds")]
    fn clamp_rejects_inverted_bounds() {
        let _ = Duration::ZERO.clamp(Duration::from_secs(2), Duration::from_secs(1));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Timestamp::MAX.saturating_add(Duration::from_secs(1)),
            Timestamp::MAX
        );
        assert_eq!(
            Timestamp::ZERO.saturating_sub(Duration::from_secs(1)),
            Timestamp::ZERO
        );
        assert_eq!(
            Duration::MAX.saturating_add(Duration::from_secs(1)),
            Duration::MAX
        );
        assert_eq!(
            Duration::ZERO.saturating_sub(Duration::from_secs(1)),
            Duration::ZERO
        );
        assert_eq!(Duration::from_secs(2).saturating_mul(3), Duration::from_secs(6));
        assert_eq!(Duration::from_millis(u64::MAX / 2).saturating_mul(64), Duration::MAX);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Duration::from_mins(5).to_string(), "5min");
        assert_eq!(Duration::from_secs(5).to_string(), "5s");
        assert_eq!(Duration::from_millis(50).to_string(), "50ms");
        assert_eq!(Duration::ZERO.to_string(), "0ms");
        assert_eq!(Timestamp::from_millis(7).to_string(), "t+7ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [Duration::from_secs(1), Duration::from_secs(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Duration::from_secs(3));
    }
}
