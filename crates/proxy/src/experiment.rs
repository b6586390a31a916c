//! Parameter sweeps regenerating the paper's figures (§6.2).
//!
//! Each function reproduces one figure's data series:
//!
//! | Function | Figure | Content |
//! |---|---|---|
//! | [`individual_temporal_sweep`] | 3(a–c) | LIMD vs baseline polls & fidelity across Δ |
//! | [`ttr_timeline`] | 4(a–b) | update frequency and LIMD TTR over time |
//! | [`mutual_temporal_sweep`] | 5(a–b) | baseline/triggered/heuristic polls & fidelity across δ |
//! | [`heuristic_timeline`] | 6(a–b) | update-rate ratio and extra polls over time |
//! | [`mutual_value_sweep`] | 7(a–b) | adaptive vs partitioned polls & fidelity across δ |
//! | [`value_timeline`] | 8(a–b) | `f` at proxy vs server over a window |
//!
//! Absolute numbers differ from the 2001 paper (the traces are calibrated
//! synthetics), but the comparative shapes are the reproduction target;
//! `EXPERIMENTS.md` records both.

use mutcon_core::functions::ValueFunction;
use mutcon_core::limd::{DecreaseFactor, LimdConfig};
use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::mutual::value::{PartitionedConfig, VirtualObjectConfig};
use mutcon_core::object::ObjectId;
use mutcon_core::time::{Duration, Timestamp};
use mutcon_core::value::Value;
use mutcon_traces::stats::{rate_ratio_timeline, updates_per_window, WindowCount};
use mutcon_traces::UpdateTrace;

use crate::drivers::{
    run_temporal, run_value_pair, MutualSetup, TemporalPolicy, TemporalSimConfig,
    TemporalSimOutput, ValuePairPolicy,
};
use crate::metrics;
use crate::metrics::FPoint;
use crate::origin::{HistorySupport, OriginServer};

/// LIMD tuning shared by the temporal experiments (§6.2.1 parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Config {
    /// Linear increase factor `l` (paper: 0.2).
    pub linear_increase: f64,
    /// Fine-tuning factor `ε` (paper: 0.02).
    pub epsilon: f64,
    /// Upper TTR bound (paper: 60 minutes).
    pub ttr_max: Duration,
    /// Multiplicative decrease rule (paper: Δ over observed out-of-sync).
    pub decrease: DecreaseFactor,
    /// Whether the origin provides the §5.1 modification history.
    pub history: HistorySupport,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            linear_increase: 0.2,
            epsilon: 0.02,
            ttr_max: Duration::from_mins(60),
            decrease: DecreaseFactor::PAPER,
            history: HistorySupport::None,
        }
    }
}

impl Fig3Config {
    fn limd(&self, delta: Duration) -> LimdConfig {
        LimdConfig::builder(delta)
            .linear_increase(self.linear_increase)
            .epsilon(self.epsilon)
            .ttr_max(self.ttr_max.max(delta))
            .decrease(self.decrease)
            .build()
            .expect("experiment parameters are valid")
    }
}

/// One Δ of the Figure 3 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// The Δt tolerance.
    pub delta: Duration,
    /// Polls of the every-Δ baseline.
    pub baseline_polls: u64,
    /// Ground-truth fidelity (violations) of the baseline (≈ 1).
    pub baseline_fidelity: f64,
    /// Polls of LIMD.
    pub limd_polls: u64,
    /// LIMD fidelity by violations (Equation 13) — Figure 3(b).
    pub limd_fidelity_violations: f64,
    /// LIMD fidelity by out-of-sync time (Equation 14) — Figure 3(c).
    pub limd_fidelity_time: f64,
}

fn host(trace: &UpdateTrace, history: HistorySupport) -> (OriginServer, ObjectId) {
    let id = ObjectId::new(trace.name());
    let mut origin = OriginServer::new().with_history(history);
    origin.host(id.clone(), trace.clone());
    (origin, id)
}

/// Figure 3: LIMD versus the every-Δ baseline on one trace, for each Δ.
pub fn individual_temporal_sweep(
    trace: &UpdateTrace,
    deltas: &[Duration],
    config: &Fig3Config,
) -> Vec<Fig3Row> {
    let (origin, id) = host(trace, config.history);
    let until = trace.end();
    let run = |policy, delta| {
        let out = run_temporal(
            &origin,
            std::slice::from_ref(&id),
            &TemporalSimConfig {
                policy,
                mutual: None,
                until,
            },
        );
        metrics::individual_temporal(trace, &out.logs[&id], delta, until)
    };

    deltas
        .iter()
        .map(|&delta| {
            let base_stats = run(TemporalPolicy::Periodic(delta), delta);
            let limd_stats = run(TemporalPolicy::Limd(config.limd(delta)), delta);
            Fig3Row {
                delta,
                baseline_polls: base_stats.polls(),
                baseline_fidelity: base_stats.fidelity_by_violations(),
                limd_polls: limd_stats.polls(),
                limd_fidelity_violations: limd_stats.fidelity_by_violations(),
                limd_fidelity_time: limd_stats.fidelity_by_time(),
            }
        })
        .collect()
}

/// Figure 4 data: windowed update counts and the LIMD TTR trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Output {
    /// Updates per window (Figure 4(a); the paper uses 2-hour windows).
    pub update_counts: Vec<WindowCount>,
    /// `(poll time, TTR chosen)` (Figure 4(b)).
    pub ttr: Vec<(Timestamp, Duration)>,
}

/// Figure 4: the adaptive behaviour of LIMD over one trace at a fixed Δ.
pub fn ttr_timeline(
    trace: &UpdateTrace,
    delta: Duration,
    window: Duration,
    config: &Fig3Config,
) -> Fig4Output {
    let (origin, id) = host(trace, config.history);
    let out = run_temporal(
        &origin,
        std::slice::from_ref(&id),
        &TemporalSimConfig {
            policy: TemporalPolicy::Limd(config.limd(delta)),
            mutual: None,
            until: trace.end(),
        },
    );
    Fig4Output {
        update_counts: updates_per_window(trace, window),
        ttr: out.ttr_timeline[&id].clone(),
    }
}

/// Poll count and fidelity of one mutual-consistency policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyResult {
    /// Total polls across the pair.
    pub polls: u64,
    /// Mt fidelity by violations.
    pub fidelity: f64,
}

/// One δ of the Figure 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// The Mt tolerance δ.
    pub mutual_delta: Duration,
    /// Plain LIMD with no mutual support.
    pub baseline: PolicyResult,
    /// LIMD plus triggered polls.
    pub triggered: PolicyResult,
    /// LIMD plus the rate heuristic.
    pub heuristic: PolicyResult,
}

fn run_pair_policy(
    origin: &OriginServer,
    ids: &[ObjectId; 2],
    traces: [&UpdateTrace; 2],
    limd: LimdConfig,
    mutual: Option<MutualSetup>,
    mutual_delta: Duration,
    until: Timestamp,
) -> (PolicyResult, TemporalSimOutput) {
    let out = run_temporal(
        origin,
        ids,
        &TemporalSimConfig {
            policy: TemporalPolicy::Limd(limd),
            mutual,
            until,
        },
    );
    let stats = metrics::mutual_temporal(
        traces[0],
        &out.logs[&ids[0]],
        traces[1],
        &out.logs[&ids[1]],
        mutual_delta,
        until,
    );
    (
        PolicyResult {
            polls: stats.polls(),
            fidelity: stats.fidelity_by_violations(),
        },
        out,
    )
}

/// Figure 5: the three Mt approaches over a pair of traces across δ, at a
/// fixed individual Δ (the paper uses Δ = 10 minutes).
pub fn mutual_temporal_sweep(
    trace_a: &UpdateTrace,
    trace_b: &UpdateTrace,
    delta: Duration,
    mutual_deltas: &[Duration],
    config: &Fig3Config,
) -> Vec<Fig5Row> {
    let ids = [ObjectId::new(trace_a.name()), ObjectId::new(trace_b.name())];
    let mut origin = OriginServer::new().with_history(config.history);
    origin.host(ids[0].clone(), trace_a.clone());
    origin.host(ids[1].clone(), trace_b.clone());
    let until = trace_a.end().min(trace_b.end());
    let limd = config.limd(delta);

    mutual_deltas
        .iter()
        .map(|&md| {
            let run = |policy: Option<MtPolicy>| {
                let mutual = policy.map(|policy| MutualSetup { delta: md, policy });
                run_pair_policy(&origin, &ids, [trace_a, trace_b], limd, mutual, md, until).0
            };
            Fig5Row {
                mutual_delta: md,
                baseline: run(None),
                triggered: run(Some(MtPolicy::TriggeredPolls)),
                heuristic: run(Some(MtPolicy::HEURISTIC)),
            }
        })
        .collect()
}

/// Figure 6 data: update-rate ratio and coordinator-triggered extra polls
/// per window.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Output {
    /// Ratio of the two traces' windowed update counts (Figure 6(a)).
    pub rate_ratio: Vec<(Timestamp, Option<f64>)>,
    /// Extra (triggered) polls per window (Figure 6(b)).
    pub extra_polls: Vec<WindowCount>,
}

/// Figure 6: the heuristic's adaptivity over a pair of traces.
pub fn heuristic_timeline(
    trace_a: &UpdateTrace,
    trace_b: &UpdateTrace,
    delta: Duration,
    mutual_delta: Duration,
    window: Duration,
    config: &Fig3Config,
) -> Fig6Output {
    let ids = [ObjectId::new(trace_a.name()), ObjectId::new(trace_b.name())];
    let mut origin = OriginServer::new().with_history(config.history);
    origin.host(ids[0].clone(), trace_a.clone());
    origin.host(ids[1].clone(), trace_b.clone());
    let until = trace_a.end().min(trace_b.end());

    let out = run_temporal(
        &origin,
        &ids,
        &TemporalSimConfig {
            policy: TemporalPolicy::Limd(config.limd(delta)),
            mutual: Some(MutualSetup {
                delta: mutual_delta,
                policy: MtPolicy::HEURISTIC,
            }),
            until,
        },
    );

    // Bucket triggered-poll instants into windows.
    let mut extra_polls = Vec::new();
    let mut cursor = Timestamp::ZERO;
    while cursor < until {
        let end = (cursor + window).min(until);
        let count = out
            .triggered_instants
            .iter()
            .filter(|&&t| t >= cursor && t < end)
            .count() as u32;
        extra_polls.push(WindowCount {
            start: cursor,
            count,
        });
        cursor = end;
    }

    Fig6Output {
        rate_ratio: rate_ratio_timeline(trace_a, trace_b, window),
        extra_polls,
    }
}

/// Adaptive-TTR tuning for the value-domain experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Config {
    /// Smoothing weight `w`.
    pub smoothing: f64,
    /// Blend factor `α` (Equation 10).
    pub alpha: f64,
    /// Lower TTR bound.
    pub ttr_min: Duration,
    /// Upper TTR bound.
    pub ttr_max: Duration,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            smoothing: 0.5,
            alpha: 0.5,
            ttr_min: Duration::from_secs(10),
            ttr_max: Duration::from_mins(10),
        }
    }
}

/// One δ of the Figure 7 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// The Mv tolerance δ (dollars, for the stock workloads).
    pub delta: Value,
    /// Polls of the virtual-object (adaptive) approach.
    pub adaptive_polls: u64,
    /// Mv fidelity of the adaptive approach.
    pub adaptive_fidelity: f64,
    /// Polls of the partitioned approach.
    pub partitioned_polls: u64,
    /// Mv fidelity of the partitioned approach.
    pub partitioned_fidelity: f64,
}

/// The two Mv approaches (virtual-object, partitioned) at one δ, both
/// over the difference function of the paper's stock-comparison scenario.
fn value_pair_policies(delta: Value, config: &Fig7Config) -> [ValuePairPolicy; 2] {
    let f = ValueFunction::Difference;
    [
        ValuePairPolicy::Virtual(
            VirtualObjectConfig::builder(f, delta)
                .smoothing(config.smoothing)
                .alpha(config.alpha)
                .ttr_bounds(config.ttr_min, config.ttr_max)
                .build()
                .expect("experiment parameters are valid"),
        ),
        ValuePairPolicy::Partitioned(
            PartitionedConfig::builder(f, delta)
                .smoothing(config.smoothing)
                .alpha(config.alpha)
                .ttr_bounds(config.ttr_min, config.ttr_max)
                .build()
                .expect("experiment parameters are valid"),
        ),
    ]
}

/// Figure 7: adaptive versus partitioned Mv-consistency over a pair of
/// valued traces, for each δ (the function is the difference, as in the
/// paper's stock-comparison scenario).
pub fn mutual_value_sweep(
    trace_a: &UpdateTrace,
    trace_b: &UpdateTrace,
    deltas: &[Value],
    config: &Fig7Config,
) -> Vec<Fig7Row> {
    let ids = [ObjectId::new(trace_a.name()), ObjectId::new(trace_b.name())];
    let mut origin = OriginServer::new();
    origin.host(ids[0].clone(), trace_a.clone());
    origin.host(ids[1].clone(), trace_b.clone());
    let until = trace_a.end().min(trace_b.end());
    let f = ValueFunction::Difference;

    deltas
        .iter()
        .map(|&delta| {
            let [adaptive_stats, partitioned_stats] =
                value_pair_policies(delta, config).map(|policy| {
                    let out = run_value_pair(&origin, &ids[0], &ids[1], &policy, until);
                    metrics::mutual_value(trace_a, &out.log_a, trace_b, &out.log_b, f, delta, until)
                });
            Fig7Row {
                delta,
                adaptive_polls: adaptive_stats.polls(),
                adaptive_fidelity: adaptive_stats.fidelity_by_violations(),
                partitioned_polls: partitioned_stats.polls(),
                partitioned_fidelity: partitioned_stats.fidelity_by_violations(),
            }
        })
        .collect()
}

/// Figure 8 data: the `f` step functions under both approaches.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Output {
    /// Server-vs-proxy `f` under the virtual-object approach.
    pub adaptive: Vec<FPoint>,
    /// Server-vs-proxy `f` under the partitioned approach.
    pub partitioned: Vec<FPoint>,
}

/// Figure 8: how closely each approach tracks `f` at the server within a
/// time window (the paper shows 2500–5000 s at δ = $0.6).
pub fn value_timeline(
    trace_a: &UpdateTrace,
    trace_b: &UpdateTrace,
    delta: Value,
    from: Timestamp,
    to: Timestamp,
    config: &Fig7Config,
) -> Fig8Output {
    let ids = [ObjectId::new(trace_a.name()), ObjectId::new(trace_b.name())];
    let mut origin = OriginServer::new();
    origin.host(ids[0].clone(), trace_a.clone());
    origin.host(ids[1].clone(), trace_b.clone());
    let until = trace_a.end().min(trace_b.end());
    let f = ValueFunction::Difference;

    let [adaptive, partitioned] = value_pair_policies(delta, config)
        .map(|policy| run_value_pair(&origin, &ids[0], &ids[1], &policy, until));

    Fig8Output {
        adaptive: metrics::f_timeline(trace_a, &adaptive.log_a, trace_b, &adaptive.log_b, f, from, to),
        partitioned: metrics::f_timeline(
            trace_a,
            &partitioned.log_a,
            trace_b,
            &partitioned.log_b,
            f,
            from,
            to,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutcon_traces::generator::{NewsTraceBuilder, StockTraceBuilder};

    /// Small, fast traces for experiment smoke tests.
    fn small_news(name: &str, updates: usize, seed: u64) -> UpdateTrace {
        NewsTraceBuilder::new(name, Duration::from_hours(12), updates)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn small_stock(name: &str, updates: usize, lo: f64, hi: f64, seed: u64) -> UpdateTrace {
        StockTraceBuilder::new(name, Duration::from_mins(60), updates, lo, hi)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn fig3_limd_saves_polls_at_small_delta() {
        let trace = small_news("n", 30, 1);
        let deltas = [Duration::from_mins(1), Duration::from_mins(30)];
        let rows = individual_temporal_sweep(&trace, &deltas, &Fig3Config::default());
        assert_eq!(rows.len(), 2);
        // Small Δ (1 min) ≪ mean gap (24 min): LIMD must poll far less.
        assert!(rows[0].limd_polls * 2 < rows[0].baseline_polls);
        // Baseline fidelity ≈ 1 by construction.
        assert!(rows[0].baseline_fidelity > 0.99);
        // Larger Δ → fewer baseline polls.
        assert!(rows[1].baseline_polls < rows[0].baseline_polls);
        // Fidelities are probabilities.
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.limd_fidelity_violations));
            assert!((0.0..=1.0).contains(&r.limd_fidelity_time));
        }
    }

    #[test]
    fn fig4_timelines_cover_trace() {
        let trace = small_news("n", 40, 2);
        let out = ttr_timeline(
            &trace,
            Duration::from_mins(10),
            Duration::from_hours(2),
            &Fig3Config::default(),
        );
        assert_eq!(out.update_counts.len(), 6); // 12 h / 2 h
        let total: u32 = out.update_counts.iter().map(|w| w.count).sum();
        assert_eq!(total as usize, trace.update_count());
        assert!(!out.ttr.is_empty());
        // TTRs respect the configured bounds.
        for (_, ttr) in &out.ttr {
            assert!(*ttr >= Duration::from_mins(10));
            assert!(*ttr <= Duration::from_mins(60));
        }
    }

    #[test]
    fn fig5_policy_ordering_holds() {
        let a = small_news("a", 60, 3);
        let b = small_news("b", 40, 4);
        let rows = mutual_temporal_sweep(
            &a,
            &b,
            Duration::from_mins(10),
            &[Duration::from_mins(1), Duration::from_mins(15)],
            &Fig3Config::default(),
        );
        for row in &rows {
            // Triggered polls at least as many as baseline; heuristic between.
            assert!(row.triggered.polls >= row.baseline.polls);
            assert!(row.heuristic.polls >= row.baseline.polls);
            assert!(row.triggered.polls >= row.heuristic.polls);
            // Triggered polls give perfect mutual fidelity.
            assert!(
                row.triggered.fidelity > 0.999,
                "triggered fidelity {} at δ={}",
                row.triggered.fidelity,
                row.mutual_delta
            );
            // Baseline is never better than the coordinated policies.
            assert!(row.baseline.fidelity <= row.triggered.fidelity + 1e-9);
        }
    }

    #[test]
    fn fig6_extra_polls_are_bucketed() {
        let a = small_news("a", 80, 5);
        let b = small_news("b", 20, 6);
        let out = heuristic_timeline(
            &a,
            &b,
            Duration::from_mins(10),
            Duration::from_mins(2),
            Duration::from_hours(2),
            &Fig3Config::default(),
        );
        assert_eq!(out.extra_polls.len(), 6);
        assert_eq!(out.rate_ratio.len(), 6);
    }

    #[test]
    fn fig7_partitioned_trades_polls_for_fidelity() {
        let a = small_stock("a", 100, 35.8, 36.5, 7);
        let b = small_stock("b", 300, 160.2, 171.2, 8);
        let rows = mutual_value_sweep(
            &a,
            &b,
            &[Value::new(0.5), Value::new(5.0)],
            &Fig7Config::default(),
        );
        // Looser δ → fewer polls for both approaches.
        assert!(rows[1].adaptive_polls <= rows[0].adaptive_polls);
        assert!(rows[1].partitioned_polls <= rows[0].partitioned_polls);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.adaptive_fidelity));
            assert!((0.0..=1.0).contains(&r.partitioned_fidelity));
        }
    }

    #[test]
    fn fig8_proxy_tracks_server() {
        // As in the paper: f = (high-priced stock) − (low-priced stock).
        let a = small_stock("a", 300, 160.2, 171.2, 10);
        let b = small_stock("b", 100, 35.8, 36.5, 9);
        let out = value_timeline(
            &a,
            &b,
            Value::new(0.6),
            Timestamp::from_secs(600),
            Timestamp::from_secs(1_800),
            &Fig7Config::default(),
        );
        assert!(!out.adaptive.is_empty());
        assert!(!out.partitioned.is_empty());
        for p in out.adaptive.iter().chain(&out.partitioned) {
            assert!(p.at >= Timestamp::from_secs(600));
            assert!(p.at <= Timestamp::from_secs(1_800));
            // f stays within the band implied by the two price ranges.
            assert!(p.server > 123.0 && p.server < 136.0, "f_server = {}", p.server);
        }
    }
}
