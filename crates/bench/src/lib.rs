//! # mutcon-bench — the paper's experiment grid
//!
//! Shared definitions for the `repro` binary: which traces, which
//! parameter sweeps, and which configurations correspond to each table
//! and figure of the ICDCS'01 evaluation (§6.2). Keeping the grid in one
//! place guarantees that `repro` and `EXPERIMENTS.md` describe the same
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mutcon_core::time::Duration;
use mutcon_core::value::Value;
use mutcon_proxy::experiment::{Fig3Config, Fig7Config};
use mutcon_traces::NamedTrace;

/// The Δ grid of Figure 3 (minutes 1–60).
pub fn fig3_deltas() -> Vec<Duration> {
    [1u64, 2, 5, 10, 15, 20, 30, 45, 60]
        .into_iter()
        .map(Duration::from_mins)
        .collect()
}

/// The trace Figure 3 and Figure 4 report on.
pub const FIG3_TRACE: NamedTrace = NamedTrace::CnnFn;

/// Δ for the Figure 4 and Figure 5 runs (the paper fixes Δ = 10 min).
pub fn fixed_delta() -> Duration {
    Duration::from_mins(10)
}

/// The window of the Figure 4(a) update-frequency plot (2 hours).
pub fn fig4_window() -> Duration {
    Duration::from_hours(2)
}

/// The δ grid of Figure 5 (minutes 1–30).
pub fn fig5_deltas() -> Vec<Duration> {
    [1u64, 2, 5, 10, 15, 20, 25, 30]
        .into_iter()
        .map(Duration::from_mins)
        .collect()
}

/// The trace pair of Figure 5 (CNN/FN with NYTimes/AP).
pub const FIG5_PAIR: (NamedTrace, NamedTrace) = (NamedTrace::CnnFn, NamedTrace::NytAp);

/// The trace pair of Figure 6 (the two NYT feeds — actually related).
pub const FIG6_PAIR: (NamedTrace, NamedTrace) = (NamedTrace::NytAp, NamedTrace::NytReuters);

/// The δ grid of Figure 7 (dollars 0.25–5).
pub fn fig7_deltas() -> Vec<Value> {
    [0.25, 0.5, 0.6, 1.0, 2.0, 3.0, 4.0, 5.0]
        .into_iter()
        .map(Value::new)
        .collect()
}

/// The valued trace pair of Figures 7 and 8 — ordered (Yahoo, AT&T) so
/// the difference function matches the paper's positive-valued plot.
pub const VALUE_PAIR: (NamedTrace, NamedTrace) = (NamedTrace::Yahoo, NamedTrace::Att);

/// δ for the Figure 8 timeline ($0.6, per the paper).
pub fn fig8_delta() -> Value {
    Value::new(0.6)
}

/// The Figure 8 window (2500–5000 s into the traces).
pub fn fig8_window() -> (Duration, Duration) {
    (Duration::from_secs(2_500), Duration::from_secs(5_000))
}

/// The paper's LIMD configuration (§6.2.1).
pub fn paper_fig3_config() -> Fig3Config {
    Fig3Config::default()
}

/// The value-domain adaptive-TTR configuration used for Figures 7–8.
pub fn paper_fig7_config() -> Fig7Config {
    Fig7Config::default()
}

pub mod robustness;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_well_formed() {
        assert!(!fig3_deltas().is_empty());
        assert!(fig3_deltas().windows(2).all(|w| w[0] < w[1]));
        assert!(!fig5_deltas().is_empty());
        assert!(fig7_deltas().windows(2).all(|w| w[0] < w[1]));
        let (from, to) = fig8_window();
        assert!(from < to);
        assert_eq!(fixed_delta(), Duration::from_mins(10));
    }
}
