//! The LIMD (linear-increase multiplicative-decrease) adaptive TTR
//! algorithm for Δt-consistency (§3.1).
//!
//! A proxy can trivially guarantee Δt-consistency by polling every Δ time
//! units, but that is wasteful when the object changes less often than Δ.
//! LIMD *probes* for the object's actual rate of change, in the spirit of
//! TCP congestion control: the time-to-refresh (TTR) grows linearly while
//! no updates are missed and collapses multiplicatively when a consistency
//! violation is detected.
//!
//! The algorithm computes each new TTR from **only the two most recent
//! polls** — a deliberate design point of the paper (minimal proxy state,
//! trivial crash recovery: reset every TTR to `TTR_min`).
//!
//! The four cases of §3.1, applied after every poll:
//!
//! 1. **Unchanged** — `TTR ← TTR · (1 + l)`, gradual linear-ish growth
//!    towards `TTR_max`.
//! 2. **Changed, guarantee violated** — `TTR ← TTR · m`, exponential
//!    back-off towards `TTR_min` under successive violations.
//! 3. **Changed, no violation** — `TTR ← TTR · (1 + ε)` for a small ε:
//!    the proxy is polling at roughly the right frequency and only
//!    fine-tunes.
//! 4. **Changed after a long idle period** — `TTR ← TTR_min`: a cold
//!    object has become hot; restart probing from the most conservative
//!    setting.
//!
//! Every TTR is clamped into `[TTR_min, TTR_max]`, with `TTR_min = Δ` by
//! default (the minimum poll spacing that can still maintain the bound).
//!
//! The tunable parameters are `l`, the decrease rule `m` and the TTR
//! bounds ([`LimdConfigBuilder`]). The rest are constants at the values
//! every figure and ablation here uses: Case 3's ε is 0.02 (`EPSILON`),
//! and Case 2's adaptive `m` ([`DecreaseFactor::DeltaOverOutSync`],
//! §6.2.1) is clamped into `[0.05, 0.95]` (`M_FLOOR`, `M_CEILING`).
//!
//! # Violation detection
//!
//! A violation means the *first* update since the previous poll happened
//! more than Δ before the current poll (Figure 1). Plain HTTP reports only
//! the most recent `Last-Modified`, which misses the multi-update case of
//! Figure 1(b); the paper's proposed protocol extension (§5.1) supplies a
//! modification history that makes detection exact. [`PollResult`] carries
//! an optional history so both modes are expressible, and the choice is an
//! ablation axis in the benchmark suite.
//!
//! ```
//! use mutcon_core::limd::{Limd, LimdConfig, PollResult};
//! use mutcon_core::time::{Duration, Timestamp};
//!
//! # fn main() -> Result<(), mutcon_core::error::ConfigError> {
//! let config = LimdConfig::builder(Duration::from_mins(10))
//!     .linear_increase(0.2)
//!     .ttr_max(Duration::from_mins(60))
//!     .build()?;
//! let mut limd = Limd::new(config);
//!
//! // First poll at t = 10min: nothing changed → TTR grows by 20%.
//! let d = limd.on_poll(Timestamp::from_mins(10), &PollResult::NotModified);
//! assert_eq!(d.ttr, Duration::from_mins(12));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::error::ConfigError;
use crate::time::{Duration, Timestamp};

/// Case 3's fine-tuning factor ε (§3.1).
const EPSILON: f64 = 0.02;
/// Smallest adaptive `m`: guards against a collapse to zero.
const M_FLOOR: f64 = 0.05;
/// Largest adaptive `m`: stays below one so a violation still decreases.
const M_CEILING: f64 = 0.95;

/// How the multiplicative-decrease factor `m` is chosen when a violation
/// is detected (Case 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecreaseFactor {
    /// A fixed factor in `(0, 1)`.
    Fixed(f64),
    /// The rule used in the paper's evaluation (§6.2.1): `m` is the ratio
    /// of Δ to the observed out-of-sync span (current poll − first missed
    /// update). Bigger misses shrink the TTR harder. The ratio is clamped
    /// into `[0.05, 0.95]` to keep the state well-behaved.
    DeltaOverOutSync,
}

/// Validated configuration for the LIMD algorithm.
///
/// Build one through [`LimdConfig::builder`]; Δ is mandatory, everything
/// else has paper defaults (`l = 0.2`, adaptive `m`, `TTR_min = Δ`,
/// `TTR_max = 60 min`, idle threshold `TTR_max`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimdConfig {
    delta: Duration,
    linear_increase: f64,
    decrease: DecreaseFactor,
    ttr_min: Duration,
    ttr_max: Duration,
}

impl LimdConfig {
    /// Starts building a configuration for Δt tolerance `delta`.
    pub fn builder(delta: Duration) -> LimdConfigBuilder {
        LimdConfigBuilder {
            delta,
            linear_increase: 0.2,
            decrease: DecreaseFactor::DeltaOverOutSync,
            ttr_min: None,
            ttr_max: Duration::from_mins(60),
        }
    }

    /// The Δt tolerance this instance maintains.
    pub fn delta(&self) -> Duration {
        self.delta
    }

    /// Linear growth factor `l`.
    pub fn linear_increase(&self) -> f64 {
        self.linear_increase
    }

    /// Multiplicative decrease rule `m`.
    pub fn decrease(&self) -> DecreaseFactor {
        self.decrease
    }

    /// Lower TTR bound.
    pub fn ttr_min(&self) -> Duration {
        self.ttr_min
    }

    /// Upper TTR bound.
    pub fn ttr_max(&self) -> Duration {
        self.ttr_max
    }

    /// Serializes the configuration to its canonical one-line spec form:
    /// comma-separated `key=value` pairs, e.g.
    ///
    /// ```text
    /// delta_ms=600000,l=0.2,m=adaptive:0.05:0.95,eps=0.02,ttr_min_ms=600000,ttr_max_ms=3600000,idle_ms=3600000
    /// ```
    ///
    /// The decrease rule is `m=fixed:M` or `m=adaptive:FLOOR:CEILING`;
    /// `eps` is always 0.02 and `idle_ms`, the Case-4 idle threshold,
    /// always `TTR_max`.
    /// The live proxy's `GET /admin/rules` shows each path's config in
    /// this form.
    pub fn to_spec(&self) -> String {
        let m = match self.decrease {
            DecreaseFactor::Fixed(m) => format!("fixed:{m}"),
            DecreaseFactor::DeltaOverOutSync => format!("adaptive:{M_FLOOR}:{M_CEILING}"),
        };
        format!(
            "delta_ms={},l={},m={m},eps={EPSILON},ttr_min_ms={},ttr_max_ms={},idle_ms={}",
            self.delta.as_millis(),
            self.linear_increase,
            self.ttr_min.as_millis(),
            self.ttr_max.as_millis(),
            self.ttr_max.as_millis(),
        )
    }
}

/// Builder for [`LimdConfig`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct LimdConfigBuilder {
    delta: Duration,
    linear_increase: f64,
    decrease: DecreaseFactor,
    ttr_min: Option<Duration>,
    ttr_max: Duration,
}

impl LimdConfigBuilder {
    /// Sets the linear growth factor `l` (`0 < l < 1`). A large `l` makes
    /// the proxy *optimistic*: TTR climbs aggressively between updates.
    pub fn linear_increase(mut self, l: f64) -> Self {
        self.linear_increase = l;
        self
    }

    /// Sets the multiplicative decrease rule. A small fixed `m` makes the
    /// proxy *conservative*: it backs off hard after a violation.
    pub fn decrease(mut self, m: DecreaseFactor) -> Self {
        self.decrease = m;
        self
    }

    /// Overrides `TTR_min` (defaults to Δ, the minimum spacing needed to
    /// maintain the guarantee).
    pub fn ttr_min(mut self, ttr_min: Duration) -> Self {
        self.ttr_min = Some(ttr_min);
        self
    }

    /// Sets `TTR_max`.
    pub fn ttr_max(mut self, ttr_max: Duration) -> Self {
        self.ttr_max = ttr_max;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if Δ is zero, a factor is outside its
    /// admissible range, or `TTR_min > TTR_max`.
    pub fn build(self) -> Result<LimdConfig, ConfigError> {
        if self.delta.is_zero() {
            return Err(ConfigError::ZeroTolerance { name: "delta" });
        }
        if !(self.linear_increase > 0.0 && self.linear_increase < 1.0) {
            return Err(ConfigError::ParameterOutOfRange {
                name: "l",
                value: self.linear_increase,
                range: "(0, 1)",
            });
        }
        if let DecreaseFactor::Fixed(m) = self.decrease {
            if !(m > 0.0 && m < 1.0) {
                return Err(ConfigError::ParameterOutOfRange {
                    name: "m",
                    value: m,
                    range: "(0, 1)",
                });
            }
        }
        let ttr_min = self.ttr_min.unwrap_or(self.delta);
        if ttr_min > self.ttr_max {
            return Err(ConfigError::InvalidTtrBounds {
                min: ttr_min,
                max: self.ttr_max,
            });
        }
        if ttr_min.is_zero() {
            return Err(ConfigError::ZeroTolerance { name: "ttr_min" });
        }
        Ok(LimdConfig {
            delta: self.delta,
            linear_increase: self.linear_increase,
            decrease: self.decrease,
            ttr_min,
            ttr_max: self.ttr_max,
        })
    }
}

/// What the proxy learned from one `If-Modified-Since` poll.
#[derive(Debug, Clone, PartialEq)]
pub enum PollResult {
    /// `304 Not Modified`: no server update since the previous poll.
    NotModified,
    /// `200 OK` with a fresh copy.
    Modified {
        /// The new copy's `Last-Modified` stamp (its version creation
        /// time).
        last_modified: Timestamp,
        /// Modification times since the previous poll, oldest first, when
        /// the server implements the §5.1 history extension. `None` on a
        /// plain HTTP server.
        history: Option<Vec<Timestamp>>,
    },
}

impl PollResult {
    /// Convenience constructor for a plain-HTTP modified response.
    pub fn modified(last_modified: Timestamp) -> Self {
        PollResult::Modified {
            last_modified,
            history: None,
        }
    }

    /// This result as a borrowed [`PollView`] (the zero-copy form the
    /// algorithms consume).
    pub fn as_view(&self) -> PollView<'_> {
        match self {
            PollResult::NotModified => PollView::NotModified,
            PollResult::Modified {
                last_modified,
                history,
            } => PollView::Modified {
                last_modified: *last_modified,
                history: history.as_deref(),
            },
        }
    }
}

/// A borrowed view of one poll's outcome.
///
/// This is the form the hot simulation path uses: the modification
/// history stays a slice borrowed from the origin's trace, so driving
/// [`Limd::observe`] (and the Mt coordinator) allocates nothing per
/// poll. [`PollResult`] is the owned equivalent for callers that need to
/// store results; `result.as_view()` converts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PollView<'a> {
    /// `304 Not Modified`: no server update since the previous poll.
    NotModified,
    /// `200 OK` with a fresh copy.
    Modified {
        /// The new copy's `Last-Modified` stamp.
        last_modified: Timestamp,
        /// Modification times since the previous poll, oldest first,
        /// borrowed from the server's history (§5.1 extension).
        history: Option<&'a [Timestamp]>,
    },
}

/// Which of the four §3.1 cases a poll fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimdCase {
    /// Case 1: not modified since the last poll.
    Unchanged,
    /// Case 2: modified and the Δ bound was (detectably) violated.
    Violation,
    /// Case 3: modified with no violation.
    InSync,
    /// Case 4: modified after a long quiet spell; TTR reset.
    IdleReset,
}

impl fmt::Display for LimdCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LimdCase::Unchanged => "unchanged",
            LimdCase::Violation => "violation",
            LimdCase::InSync => "in-sync",
            LimdCase::IdleReset => "idle-reset",
        };
        f.write_str(s)
    }
}

/// The outcome of feeding one poll to [`Limd::on_poll`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimdDecision {
    /// Which §3.1 case applied.
    pub case: LimdCase,
    /// The new TTR; the next poll should happen this long after the poll
    /// that produced the decision.
    pub ttr: Duration,
    /// Span by which the guarantee was missed (zero unless
    /// `case == Violation`): current poll − first missed update − Δ.
    pub overshoot: Duration,
}

/// Adaptive Δt-consistency state for a single object.
///
/// Drive it by calling [`Limd::on_poll`] after every poll; schedule the
/// next poll [`LimdDecision::ttr`] later.
#[derive(Debug, Clone, PartialEq)]
pub struct Limd {
    config: LimdConfig,
    ttr: Duration,
    last_poll: Option<Timestamp>,
    /// Most recent modification time the proxy knows of.
    last_known_modification: Option<Timestamp>,
}

impl Limd {
    /// Creates a fresh instance; the initial TTR is `TTR_min` (the
    /// algorithm "begins by polling the server using a TTR value of Δ").
    pub fn new(config: LimdConfig) -> Self {
        Limd {
            ttr: config.ttr_min,
            config,
            last_poll: None,
            last_known_modification: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LimdConfig {
        &self.config
    }

    /// The TTR that will separate the previous poll from the next one.
    pub fn current_ttr(&self) -> Duration {
        self.ttr
    }

    /// Time of the most recent poll fed to [`Limd::on_poll`].
    pub fn last_poll(&self) -> Option<Timestamp> {
        self.last_poll
    }

    /// Feeds the outcome of a poll performed at `now` and returns the case
    /// taken plus the new TTR.
    ///
    /// `now` must not precede the previous poll; out-of-order feeding is a
    /// programming error.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the previous poll time.
    pub fn on_poll(&mut self, now: Timestamp, result: &PollResult) -> LimdDecision {
        self.observe(now, result.as_view())
    }

    /// Allocation-free equivalent of [`Limd::on_poll`], consuming a
    /// borrowed [`PollView`] (typically straight off the origin's trace).
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the previous poll time.
    pub fn observe(&mut self, now: Timestamp, view: PollView<'_>) -> LimdDecision {
        if let Some(prev) = self.last_poll {
            assert!(now >= prev, "polls must be fed in order: {now} < {prev}");
        }
        let decision = match view {
            PollView::NotModified => self.case_unchanged(),
            PollView::Modified {
                last_modified,
                history,
            } => self.case_modified(now, last_modified, history),
        };
        self.ttr = decision.ttr;
        self.last_poll = Some(now);
        if let PollView::Modified { last_modified, .. } = view {
            let newest = self
                .last_known_modification
                .map_or(last_modified, |m| m.max(last_modified));
            self.last_known_modification = Some(newest);
        }
        decision
    }

    fn clamp(&self, ttr: Duration) -> Duration {
        ttr.clamp(self.config.ttr_min, self.config.ttr_max)
    }

    fn case_unchanged(&self) -> LimdDecision {
        LimdDecision {
            case: LimdCase::Unchanged,
            ttr: self.clamp(self.ttr.mul_f64(1.0 + self.config.linear_increase)),
            overshoot: Duration::ZERO,
        }
    }

    fn case_modified(
        &self,
        now: Timestamp,
        last_modified: Timestamp,
        history: Option<&[Timestamp]>,
    ) -> LimdDecision {
        // Case 4 takes precedence: an update after a quiet spell longer
        // than `TTR_max`.
        if let Some(previous_mod) = self.last_known_modification {
            if last_modified
                .checked_since(previous_mod)
                .unwrap_or(Duration::ZERO)
                > self.config.ttr_max
            {
                return LimdDecision {
                    case: LimdCase::IdleReset,
                    ttr: self.config.ttr_min,
                    overshoot: Duration::ZERO,
                };
            }
        }

        // The guarantee is judged against the FIRST update since the last
        // poll (Figure 1(b)). With the §5.1 history extension we know it
        // exactly; with plain HTTP we only see the most recent update.
        let first_update = self.first_update_since_last_poll(last_modified, history);
        let staleness = now.checked_since(first_update).unwrap_or(Duration::ZERO);
        if staleness > self.config.delta {
            let overshoot = staleness - self.config.delta;
            let m = match self.config.decrease {
                DecreaseFactor::Fixed(m) => m,
                DecreaseFactor::DeltaOverOutSync => {
                    let ratio = self.config.delta.as_millis() as f64 / staleness.as_millis() as f64;
                    ratio.clamp(M_FLOOR, M_CEILING)
                }
            };
            LimdDecision {
                case: LimdCase::Violation,
                ttr: self.clamp(self.ttr.mul_f64(m)),
                overshoot,
            }
        } else {
            LimdDecision {
                case: LimdCase::InSync,
                ttr: self.clamp(self.ttr.mul_f64(1.0 + EPSILON)),
                overshoot: Duration::ZERO,
            }
        }
    }

    fn first_update_since_last_poll(
        &self,
        last_modified: Timestamp,
        history: Option<&[Timestamp]>,
    ) -> Timestamp {
        let Some(history) = history else {
            return last_modified;
        };
        let cutoff = self.last_poll.unwrap_or(Timestamp::ZERO);
        history
            .iter()
            .copied()
            .filter(|&t| t > cutoff)
            .min()
            .unwrap_or(last_modified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LimdConfig {
        LimdConfig::builder(Duration::from_mins(10))
            .linear_increase(0.2)
            .decrease(DecreaseFactor::Fixed(0.5))
            .ttr_max(Duration::from_mins(60))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_applies_paper_defaults() {
        let c = LimdConfig::builder(Duration::from_mins(5)).build().unwrap();
        assert_eq!(c.delta(), Duration::from_mins(5));
        assert_eq!(c.ttr_min(), Duration::from_mins(5));
        assert_eq!(c.ttr_max(), Duration::from_mins(60));
        assert_eq!(c.linear_increase(), 0.2);
        assert_eq!(c.decrease(), DecreaseFactor::DeltaOverOutSync);
    }

    #[test]
    fn builder_validates() {
        let d = Duration::from_mins(10);
        assert!(matches!(
            LimdConfig::builder(Duration::ZERO).build(),
            Err(ConfigError::ZeroTolerance { .. })
        ));
        assert!(matches!(
            LimdConfig::builder(d).linear_increase(1.5).build(),
            Err(ConfigError::ParameterOutOfRange { name: "l", .. })
        ));
        assert!(matches!(
            LimdConfig::builder(d)
                .decrease(DecreaseFactor::Fixed(1.0))
                .build(),
            Err(ConfigError::ParameterOutOfRange { name: "m", .. })
        ));
        assert!(matches!(
            LimdConfig::builder(d)
                .ttr_min(Duration::from_mins(90))
                .build(),
            Err(ConfigError::InvalidTtrBounds { .. })
        ));
    }

    #[test]
    fn case1_linear_growth_caps_at_max() {
        let mut limd = Limd::new(config());
        let mut now = Timestamp::ZERO;
        let mut prev = limd.current_ttr();
        for _ in 0..20 {
            now += limd.current_ttr();
            let d = limd.on_poll(now, &PollResult::NotModified);
            assert_eq!(d.case, LimdCase::Unchanged);
            assert!(d.ttr >= prev);
            assert!(d.ttr <= Duration::from_mins(60));
            prev = d.ttr;
        }
        assert_eq!(limd.current_ttr(), Duration::from_mins(60));
    }

    #[test]
    fn case2_fixed_multiplicative_decrease() {
        let mut limd = Limd::new(config());
        // Grow a little first.
        let t1 = Timestamp::from_mins(10);
        limd.on_poll(t1, &PollResult::NotModified); // ttr = 12min
        let t2 = t1 + limd.current_ttr();
        // Update happened 15 minutes before this poll → staleness > Δ.
        let lm = t2 - Duration::from_mins(15);
        let d = limd.on_poll(t2, &PollResult::modified(lm));
        assert_eq!(d.case, LimdCase::Violation);
        assert_eq!(d.overshoot, Duration::from_mins(5));
        // 12min * 0.5 = 6min, clamped up to ttr_min = 10min.
        assert_eq!(d.ttr, Duration::from_mins(10));
    }

    #[test]
    fn case2_successive_violations_floor_at_ttr_min() {
        let cfg = LimdConfig::builder(Duration::from_mins(10))
            .decrease(DecreaseFactor::Fixed(0.5))
            .ttr_min(Duration::from_mins(2))
            .ttr_max(Duration::from_mins(60))
            .build()
            .unwrap();
        let mut limd = Limd::new(cfg);
        // Climb to a high TTR.
        let mut now = Timestamp::ZERO;
        for _ in 0..30 {
            now += limd.current_ttr();
            limd.on_poll(now, &PollResult::NotModified);
        }
        assert_eq!(limd.current_ttr(), Duration::from_mins(60));
        // Hammer with violations; TTR must fall to ttr_min and stay there.
        // Keep modification gaps below the idle threshold so the idle
        // reset (Case 4) does not fire instead.
        for _ in 0..12 {
            now += limd.current_ttr();
            let lm = now - Duration::from_mins(30);
            let d = limd.on_poll(now, &PollResult::modified(lm));
            assert_eq!(d.case, LimdCase::Violation);
        }
        assert_eq!(limd.current_ttr(), Duration::from_mins(2));
    }

    #[test]
    fn case2_adaptive_m_scales_with_overshoot() {
        let cfg = LimdConfig::builder(Duration::from_mins(10))
            .decrease(DecreaseFactor::DeltaOverOutSync)
            .ttr_min(Duration::from_mins(1))
            .ttr_max(Duration::from_mins(60))
            .build()
            .unwrap();
        let mut limd = Limd::new(cfg);
        let mut now = Timestamp::ZERO;
        for _ in 0..30 {
            now += limd.current_ttr();
            limd.on_poll(now, &PollResult::NotModified);
        }
        let high = limd.current_ttr();

        // Mild violation: staleness 12min ⇒ m ≈ 10/12.
        let mut mild = limd.clone();
        now += mild.current_ttr();
        let d_mild = mild.on_poll(now, &PollResult::modified(now - Duration::from_mins(12)));
        // Severe violation: staleness 50min ⇒ m ≈ 0.2.
        let mut severe = limd.clone();
        let d_sev = severe.on_poll(now, &PollResult::modified(now - Duration::from_mins(50)));

        assert_eq!(d_mild.case, LimdCase::Violation);
        assert_eq!(d_sev.case, LimdCase::Violation);
        assert!(d_sev.ttr < d_mild.ttr);
        assert!(d_mild.ttr < high);
    }

    #[test]
    fn case3_fine_tunes_on_in_sync_update() {
        let mut limd = Limd::new(config());
        let t1 = Timestamp::from_mins(10);
        // Update 5 minutes ago: within Δ = 10min.
        let d = limd.on_poll(t1, &PollResult::modified(t1 - Duration::from_mins(5)));
        assert_eq!(d.case, LimdCase::InSync);
        assert_eq!(d.overshoot, Duration::ZERO);
        // 10min * 1.02 = 10.2min = 612_000 ms.
        assert_eq!(d.ttr, Duration::from_millis(612_000));
    }

    #[test]
    fn case4_idle_reset_fires_after_quiet_spell() {
        // The idle threshold is `TTR_max`, 60 minutes by default.
        let cfg = LimdConfig::builder(Duration::from_mins(10))
            .build()
            .unwrap();
        let mut limd = Limd::new(cfg);
        // Learn of a modification at t = 5min.
        let t1 = Timestamp::from_mins(10);
        limd.on_poll(t1, &PollResult::modified(Timestamp::from_mins(5)));
        // Grow during a long quiet stretch.
        let mut now = t1;
        for _ in 0..10 {
            now += limd.current_ttr();
            limd.on_poll(now, &PollResult::NotModified);
        }
        let grown = limd.current_ttr();
        assert!(grown > Duration::from_mins(10));
        // New modification 2 hours after the previous one → idle reset,
        // even though the update itself would also count as a violation.
        let lm = Timestamp::from_mins(5) + Duration::from_hours(2);
        let poll = lm + Duration::from_mins(1);
        let d = limd.on_poll(
            poll.max(now + limd.current_ttr()),
            &PollResult::modified(lm),
        );
        assert_eq!(d.case, LimdCase::IdleReset);
        assert_eq!(d.ttr, Duration::from_mins(10));
    }

    #[test]
    fn history_detects_figure_1b_violation() {
        // Last-modified alone looks fine (recent update within Δ), but the
        // history shows the FIRST update since the previous poll breached Δ.
        let mut limd = Limd::new(config());
        let t1 = Timestamp::from_mins(10);
        limd.on_poll(t1, &PollResult::NotModified);
        let t2 = t1 + limd.current_ttr();

        let early_update = t1 + Duration::from_mins(1); // > Δ before t2
        let late_update = t2 - Duration::from_mins(2); // within Δ of t2

        let mut with_history = limd.clone();
        let d = with_history.on_poll(
            t2,
            &PollResult::Modified {
                last_modified: late_update,
                history: Some(vec![early_update, late_update]),
            },
        );
        assert_eq!(d.case, LimdCase::Violation);

        let mut without = limd;
        let d = without.on_poll(t2, &PollResult::modified(late_update));
        assert_eq!(d.case, LimdCase::InSync);
    }

    #[test]
    fn history_entries_before_last_poll_are_ignored() {
        let mut limd = Limd::new(config());
        let t1 = Timestamp::from_mins(10);
        limd.on_poll(t1, &PollResult::NotModified);
        let t2 = t1 + limd.current_ttr();
        // History contains a stale entry from before t1; only the recent
        // one counts, and it is within Δ.
        let recent = t2 - Duration::from_mins(3);
        let d = limd.on_poll(
            t2,
            &PollResult::Modified {
                last_modified: recent,
                history: Some(vec![Timestamp::from_mins(2), recent]),
            },
        );
        assert_eq!(d.case, LimdCase::InSync);
    }

    #[test]
    #[should_panic(expected = "polls must be fed in order")]
    fn out_of_order_polls_panic() {
        let mut limd = Limd::new(config());
        limd.on_poll(Timestamp::from_mins(10), &PollResult::NotModified);
        limd.on_poll(Timestamp::from_mins(5), &PollResult::NotModified);
    }

    #[test]
    fn spec_renders_every_field() {
        let paper = LimdConfig::builder(Duration::from_mins(10))
            .build()
            .unwrap();
        assert_eq!(
            paper.to_spec(),
            "delta_ms=600000,l=0.2,m=adaptive:0.05:0.95,eps=0.02,ttr_min_ms=600000,ttr_max_ms=3600000,idle_ms=3600000"
        );
        let tuned = LimdConfig::builder(Duration::from_millis(50))
            .linear_increase(0.35)
            .decrease(DecreaseFactor::Fixed(0.5))
            .ttr_min(Duration::from_millis(25))
            .ttr_max(Duration::from_millis(3_200))
            .build()
            .unwrap();
        assert_eq!(
            tuned.to_spec(),
            "delta_ms=50,l=0.35,m=fixed:0.5,eps=0.02,ttr_min_ms=25,ttr_max_ms=3200,idle_ms=3200"
        );
    }

    /// Random valid configurations fed random poll sequences: the TTR
    /// never leaves `[ttr_min, ttr_max]`, and the decision is the state.
    #[test]
    fn ttr_stays_within_bounds_on_random_configs_and_polls() {
        for seed in 0..512 {
            let mut rng = mutcon_sim::rng::SimRng::seed_from_u64(seed);
            let config = LimdConfig::builder(Duration::from_mins(rng.uniform_u64(1, 61)))
                .linear_increase(rng.uniform_range(0.01, 0.9))
                .decrease(DecreaseFactor::Fixed(rng.uniform_range(0.05, 0.9)))
                .ttr_max(Duration::from_mins(rng.uniform_u64(61, 241)))
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut limd = Limd::new(config);
            let mut now = Timestamp::ZERO;
            let mut last_mod = Timestamp::ZERO;
            for _ in 0..rng.uniform_u64(1, 60) {
                now += Duration::from_mins(rng.uniform_u64(1, 121));
                let result = if rng.chance(0.5) {
                    // Last-modified moves forward only.
                    let age = Duration::from_mins(rng.uniform_u64(0, 601));
                    let aged = now.as_millis().saturating_sub(age.as_millis());
                    last_mod = Timestamp::from_millis(aged).max(last_mod);
                    PollResult::modified(last_mod)
                } else {
                    PollResult::NotModified
                };
                let ttr = limd.on_poll(now, &result).ttr;
                assert!(
                    (config.ttr_min()..=config.ttr_max()).contains(&ttr),
                    "seed {seed}: ttr {ttr} outside [{}, {}]",
                    config.ttr_min(),
                    config.ttr_max()
                );
                assert_eq!(ttr, limd.current_ttr(), "seed {seed}");
            }
        }
    }

    #[test]
    fn case_display() {
        assert_eq!(LimdCase::Unchanged.to_string(), "unchanged");
        assert_eq!(LimdCase::Violation.to_string(), "violation");
        assert_eq!(LimdCase::InSync.to_string(), "in-sync");
        assert_eq!(LimdCase::IdleReset.to_string(), "idle-reset");
    }
}
