//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each function sweeps one knob while holding the paper's defaults for
//! everything else, reporting polls and fidelity so the knob's effect is
//! isolated:
//!
//! * [`limd_aggressiveness`] — the `l`/`m` trade-off of §3.1 ("the
//!   approach can be made optimistic … or conservative").
//! * [`violation_detection`] — plain `Last-Modified` vs the §5.1
//!   modification-history extension (exact Figure 1(b) detection).
//! * [`heuristic_threshold`] — how strict "approximately the same or
//!   faster rate" is in the Mt heuristic.
//! * [`alpha_blend`] — the Equation 10 α: biasing the value-domain TTR
//!   towards the smallest TTR ever required.

use mutcon_core::limd::DecreaseFactor;
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::time::Duration;
use mutcon_core::value::Value;
use mutcon_traces::UpdateTrace;

use crate::drivers::{
    run_temporal, run_value_pair, MutualSetup, TemporalPolicy, TemporalSimConfig, ValuePairPolicy,
};
use crate::experiment::{host, Fig3Config, Fig7Config};
use crate::metrics;
use crate::origin::HistorySupport;

/// One configuration's outcome in an ablation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Human-readable description of the knob setting.
    pub setting: String,
    /// Total polls.
    pub polls: u64,
    /// Fidelity by violations (Equation 13).
    pub fidelity_violations: f64,
    /// Fidelity by out-of-sync time (Equation 14).
    pub fidelity_time: f64,
}

fn run_limd_once(trace: &UpdateTrace, delta: Duration, config: &Fig3Config) -> AblationRow {
    let (origin, ids, until) = host([trace], config.history);
    let out = run_temporal(
        &origin,
        &ids,
        &TemporalSimConfig {
            policy: TemporalPolicy::Limd(config.limd(delta)),
            mutual: None,
            until,
        },
    );
    let stats = metrics::individual_temporal(trace, &out.logs[&ids[0]], delta, until);
    AblationRow {
        setting: String::new(),
        polls: stats.polls(),
        fidelity_violations: stats.fidelity_by_violations(),
        fidelity_time: stats.fidelity_by_time(),
    }
}

/// §3.1 aggressiveness: optimistic (large `l`) to conservative (small
/// `l`, harsh fixed `m`), at a fixed Δ.
pub fn limd_aggressiveness(trace: &UpdateTrace, delta: Duration) -> Vec<AblationRow> {
    let variants: [(&str, f64, DecreaseFactor); 4] = [
        (
            "optimistic   l=0.5, adaptive m",
            0.5,
            DecreaseFactor::DeltaOverOutSync,
        ),
        (
            "paper        l=0.2, adaptive m",
            0.2,
            DecreaseFactor::DeltaOverOutSync,
        ),
        (
            "conservative l=0.05, adaptive m",
            0.05,
            DecreaseFactor::DeltaOverOutSync,
        ),
        (
            "harsh        l=0.2, fixed m=0.2",
            0.2,
            DecreaseFactor::Fixed(0.2),
        ),
    ];
    variants
        .into_iter()
        .map(|(label, l, m)| {
            let config = Fig3Config {
                linear_increase: l,
                decrease: m,
                ..Fig3Config::default()
            };
            AblationRow {
                setting: label.to_owned(),
                ..run_limd_once(trace, delta, &config)
            }
        })
        .collect()
}

/// Plain HTTP vs the §5.1 modification-history extension.
pub fn violation_detection(trace: &UpdateTrace, delta: Duration) -> Vec<AblationRow> {
    let variants = [
        ("last-modified only (plain HTTP)", HistorySupport::None),
        ("modification history (§5.1)", HistorySupport::Full),
    ];
    variants
        .into_iter()
        .map(|(label, history)| {
            let config = Fig3Config {
                history,
                ..Fig3Config::default()
            };
            AblationRow {
                setting: label.to_owned(),
                ..run_limd_once(trace, delta, &config)
            }
        })
        .collect()
}

/// The Mt heuristic's rate-comparability threshold, from "trigger almost
/// everything" (0.25) to "only strictly faster" (1.5).
pub fn heuristic_threshold(
    trace_a: &UpdateTrace,
    trace_b: &UpdateTrace,
    delta: Duration,
    mutual_delta: Duration,
) -> Vec<AblationRow> {
    let (origin, ids, until) = host([trace_a, trace_b], HistorySupport::None);
    let limd = Fig3Config::default().limd(delta);
    [0.25, 0.5, 0.75, 1.0, 1.5]
        .into_iter()
        .map(|threshold| {
            let out = run_temporal(
                &origin,
                &ids,
                &TemporalSimConfig {
                    policy: TemporalPolicy::Limd(limd),
                    mutual: Some(MutualSetup {
                        delta: mutual_delta,
                        policy: MtPolicy::RateHeuristic { threshold },
                    }),
                    until,
                },
            );
            let stats = metrics::mutual_temporal(
                trace_a,
                &out.logs[&ids[0]],
                trace_b,
                &out.logs[&ids[1]],
                mutual_delta,
                until,
            );
            AblationRow {
                setting: format!("threshold = {threshold:.2}"),
                polls: stats.polls(),
                fidelity_violations: stats.fidelity_by_violations(),
                fidelity_time: stats.fidelity_by_time(),
            }
        })
        .collect()
}

/// The Equation 10 α-blend in the value domain: α = 1 ignores the
/// observed minimum; α = 0 always uses it (most conservative).
pub fn alpha_blend(trace_a: &UpdateTrace, trace_b: &UpdateTrace, delta: Value) -> Vec<AblationRow> {
    let (origin, ids, until) = host([trace_a, trace_b], HistorySupport::None);
    [1.0, 0.75, 0.5, 0.25, 0.0]
        .into_iter()
        .map(|alpha| {
            let ttr = Fig7Config { alpha }.ttr(delta);
            let out = run_value_pair(
                &origin,
                &ids[0],
                &ids[1],
                &ValuePairPolicy::Virtual(ttr),
                until,
            );
            let stats =
                metrics::mutual_value(trace_a, &out.log_a, trace_b, &out.log_b, delta, until);
            AblationRow {
                setting: format!("alpha = {alpha:.2}"),
                polls: stats.polls(),
                fidelity_violations: stats.fidelity_by_violations(),
                fidelity_time: stats.fidelity_by_time(),
            }
        })
        .collect()
}

/// Renders ablation rows as an aligned text table.
pub fn render(title: &str, rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{title}\n");
    writeln!(
        out,
        "{:<36} {:>7} {:>15} {:>10}",
        "setting", "polls", "fid(violations)", "fid(time)"
    )
    .expect("writing to String cannot fail");
    for r in rows {
        writeln!(
            out,
            "{:<36} {:>7} {:>15.3} {:>10.3}",
            r.setting, r.polls, r.fidelity_violations, r.fidelity_time
        )
        .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_traces::generator::{NewsTraceBuilder, StockTraceBuilder};

    fn news(name: &str, updates: usize, seed: u64) -> UpdateTrace {
        NewsTraceBuilder::new(name, Duration::from_hours(12), updates)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn aggressiveness_orders_polls() {
        let trace = news("n", 50, 1);
        let rows = limd_aggressiveness(&trace, Duration::from_mins(5));
        assert_eq!(rows.len(), 4);
        let optimistic = &rows[0];
        let conservative = &rows[2];
        // The conservative setting polls at least as often and is at
        // least as faithful.
        assert!(conservative.polls >= optimistic.polls);
        assert!(conservative.fidelity_violations >= optimistic.fidelity_violations - 0.05);
        let rendered = render("test", &rows);
        assert!(rendered.contains("optimistic"));
    }

    #[test]
    fn history_never_hurts() {
        let trace = news("n", 80, 2);
        let rows = violation_detection(&trace, Duration::from_mins(5));
        assert_eq!(rows.len(), 2);
        assert!(rows[1].fidelity_violations >= rows[0].fidelity_violations - 1e-9);
    }

    /// On the Figure 5 pair at δ = 5 min, as `repro ablation` runs it.
    /// (It used to run two ~100-poll synthetic traces and compare the
    /// first row with the last, where a single trigger decides: 124,
    /// 107, 106, 108, 105 polls while the simulator double-polled a
    /// triggered target whose own poll was due, 97, 92, 107, 109, 105 on
    /// the shared scheduler. On this pair those read 346, 335, 319, 328,
    /// 325 and 356, 350, 345, 334, 326: only the second is monotone.)
    #[test]
    fn threshold_monotonicity_in_polls() {
        use mutcon_traces::NamedTrace;
        let rows = heuristic_threshold(
            &NamedTrace::CnnFn.generate(),
            &NamedTrace::NytAp.generate(),
            Duration::from_mins(10),
            Duration::from_mins(5),
        );
        assert_eq!(rows.len(), 5);
        // Every stricter threshold triggers fewer polls (non-strictly).
        for step in rows.windows(2) {
            assert!(
                step[1].polls <= step[0].polls,
                "{} then {}",
                step[0].polls,
                step[1].polls
            );
        }
    }

    #[test]
    fn alpha_zero_is_most_conservative() {
        let a = StockTraceBuilder::new("hi", Duration::from_mins(45), 200, 160.0, 170.0)
            .seed(5)
            .build()
            .unwrap();
        let b = StockTraceBuilder::new("lo", Duration::from_mins(45), 80, 35.0, 37.0)
            .seed(6)
            .build()
            .unwrap();
        let rows = alpha_blend(&a, &b, Value::new(0.6));
        assert_eq!(rows.len(), 5);
        let alpha1 = &rows[0];
        let alpha0 = &rows[4];
        assert!(
            alpha0.polls >= alpha1.polls,
            "α=0 should poll at least as much: {} vs {}",
            alpha0.polls,
            alpha1.polls
        );
    }
}
