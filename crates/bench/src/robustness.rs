//! Robustness of the paper's results across synthetic "collections".
//!
//! The 2001 evaluation measured one real collection window per workload.
//! Our traces are calibrated synthetics, so we can do better: regenerate
//! each workload under R different seeds (R independent "collection
//! runs") and re-run the experiment grids on every realization. If the
//! comparative claims hold across all realizations — not just the pinned
//! catalog seed — the reproduction is robust to trace randomness.
//!
//! Beyond the three figure grids, the sweep covers the four ablation
//! grids (LIMD aggressiveness, violation detection, heuristic threshold,
//! α-blend) and a **multi-object group**: all four temporal traces
//! coordinated as one Mt group — the paper only ever pairs two objects,
//! so this probes the n > 2 regime its §4 algorithms claim to cover.
//!
//! This is also the experiment engine's heaviest workload: R repeats ×
//! (eight grids) of fully independent simulations. `repro bench`/`repro
//! all` run it and record the wall-clock in `BENCH_repro.json`.

use mutcon_core::mutual::temporal::MtPolicy;
use mutcon_core::object::ObjectId;
use mutcon_core::time::Duration;
use mutcon_proxy::ablation;
use mutcon_proxy::drivers::{
    run_temporal, MutualSetup, TemporalPolicy, TemporalSimConfig, TemporalSimOutput,
};
use mutcon_proxy::experiment::{
    host, individual_temporal_sweep, mutual_temporal_sweep, mutual_value_sweep,
};
use mutcon_proxy::metrics;
use mutcon_proxy::origin::HistorySupport;
use mutcon_traces::{NamedTrace, UpdateTrace};

use crate::{
    fig3_deltas, fig5_deltas, fig7_deltas, fig8_delta, fixed_delta, paper_fig3_config,
    paper_fig7_config, FIG3_TRACE, FIG5_PAIR, VALUE_PAIR,
};

/// Seed offset between successive synthetic collections (arbitrary, just
/// far enough apart to avoid overlapping generator streams).
const SEED_STRIDE: u64 = 0x0001_0000;

/// Aggregate of one figure grid across all realizations.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Which grid ("fig3", "fig5", "fig7").
    pub grid: &'static str,
    /// Realizations evaluated.
    pub runs: usize,
    /// Total polls across all realizations (adaptive policy only).
    pub polls_total: u64,
    /// Mean total polls per realization (adaptive policy only).
    pub polls_mean: f64,
    /// Smallest / largest total polls across realizations.
    pub polls_min: u64,
    /// Largest total polls across realizations.
    pub polls_max: u64,
    /// Mean fidelity (by violations) of the adaptive policy.
    pub fidelity_mean: f64,
    /// Worst-case fidelity across realizations.
    pub fidelity_min: f64,
    /// In how many realizations the paper's comparative claim held
    /// (fig3: LIMD polls < baseline polls at the tightest Δ; fig5:
    /// triggered fidelity ≈ 1; fig7: at the paper's δ = \$0.6 the
    /// partitioned approach spends more polls than the virtual-object
    /// one — the §6.2.3 cost/fidelity trade-off).
    pub claim_held: usize,
}

/// One realization's contribution: total polls, mean fidelity, claim.
struct GridOutcome {
    polls: u64,
    fidelity: f64,
    claim: bool,
}

fn fig3_outcome(collection: u64) -> GridOutcome {
    let trace = FIG3_TRACE.generate_with_seed(FIG3_TRACE.seed() + collection * SEED_STRIDE);
    let rows = individual_temporal_sweep(&trace, &fig3_deltas(), &paper_fig3_config());
    GridOutcome {
        polls: rows.iter().map(|r| r.limd_polls).sum(),
        fidelity: rows.iter().map(|r| r.limd_fidelity_violations).sum::<f64>()
            / rows.len() as f64,
        claim: rows[0].limd_polls < rows[0].baseline_polls,
    }
}

fn fig5_outcome(collection: u64) -> GridOutcome {
    let (a, b) = FIG5_PAIR;
    let ta = a.generate_with_seed(a.seed() + collection * SEED_STRIDE);
    let tb = b.generate_with_seed(b.seed() + collection * SEED_STRIDE);
    let rows = mutual_temporal_sweep(&ta, &tb, fixed_delta(), &fig5_deltas(), &paper_fig3_config());
    GridOutcome {
        polls: rows.iter().map(|r| r.heuristic.polls).sum(),
        fidelity: rows.iter().map(|r| r.heuristic.fidelity).sum::<f64>() / rows.len() as f64,
        claim: rows.iter().all(|r| r.triggered.fidelity > 0.999),
    }
}

fn fig7_outcome(collection: u64) -> GridOutcome {
    let (a, b) = VALUE_PAIR;
    let ta = a.generate_with_seed(a.seed() + collection * SEED_STRIDE);
    let tb = b.generate_with_seed(b.seed() + collection * SEED_STRIDE);
    let deltas = fig7_deltas();
    let rows = mutual_value_sweep(&ta, &tb, &deltas, &paper_fig7_config());
    // The paper reports the trade-off at δ = $0.6 (neither approach
    // saturates there; at the grid's extremes both converge).
    let at_paper_delta = deltas
        .iter()
        .position(|d| *d == crate::fig8_delta())
        .expect("fig7 grid contains the paper's delta");
    GridOutcome {
        polls: rows.iter().map(|r| r.adaptive_polls).sum(),
        fidelity: rows.iter().map(|r| r.adaptive_fidelity).sum::<f64>() / rows.len() as f64,
        claim: rows[at_paper_delta].partitioned_polls > rows[at_paper_delta].adaptive_polls,
    }
}

/// δ for the multi-object group run (the Figure 5 grid's midpoint).
fn group_delta() -> Duration {
    Duration::from_mins(5)
}

/// Ablation A across collections; the claim is the §3.1 trade-off: the
/// conservative setting polls at least as much and is (about) at least
/// as faithful as the optimistic one.
fn abl_a_outcome(collection: u64) -> GridOutcome {
    let trace = FIG3_TRACE.generate_with_seed(FIG3_TRACE.seed() + collection * SEED_STRIDE);
    let rows = ablation::limd_aggressiveness(&trace, fixed_delta());
    let (optimistic, conservative) = (&rows[0], &rows[2]);
    GridOutcome {
        polls: rows.iter().map(|r| r.polls).sum(),
        fidelity: rows.iter().map(|r| r.fidelity_violations).sum::<f64>() / rows.len() as f64,
        claim: conservative.polls >= optimistic.polls
            && conservative.fidelity_violations >= optimistic.fidelity_violations - 0.05,
    }
}

/// Ablation B: the §5.1 modification-history extension never hurts
/// violation-detection fidelity.
fn abl_b_outcome(collection: u64) -> GridOutcome {
    let t = NamedTrace::Guardian;
    let trace = t.generate_with_seed(t.seed() + collection * SEED_STRIDE);
    let rows = ablation::violation_detection(&trace, fixed_delta());
    GridOutcome {
        polls: rows.iter().map(|r| r.polls).sum(),
        fidelity: rows.iter().map(|r| r.fidelity_violations).sum::<f64>() / rows.len() as f64,
        claim: rows[1].fidelity_violations >= rows[0].fidelity_violations - 1e-9,
    }
}

/// Ablation C: a stricter rate-comparability threshold triggers no more
/// polls than the loosest one.
fn abl_c_outcome(collection: u64) -> GridOutcome {
    let (a, b) = FIG5_PAIR;
    let ta = a.generate_with_seed(a.seed() + collection * SEED_STRIDE);
    let tb = b.generate_with_seed(b.seed() + collection * SEED_STRIDE);
    let rows = ablation::heuristic_threshold(&ta, &tb, fixed_delta(), group_delta());
    GridOutcome {
        polls: rows.iter().map(|r| r.polls).sum(),
        fidelity: rows.iter().map(|r| r.fidelity_violations).sum::<f64>() / rows.len() as f64,
        claim: rows.last().expect("non-empty grid").polls <= rows[0].polls,
    }
}

/// Ablation D: α = 0 (always respect the observed minimum TTR) polls at
/// least as much as α = 1.
fn abl_d_outcome(collection: u64) -> GridOutcome {
    let (a, b) = VALUE_PAIR;
    let ta = a.generate_with_seed(a.seed() + collection * SEED_STRIDE);
    let tb = b.generate_with_seed(b.seed() + collection * SEED_STRIDE);
    let rows = ablation::alpha_blend(&ta, &tb, fig8_delta());
    GridOutcome {
        polls: rows.iter().map(|r| r.polls).sum(),
        fidelity: rows.iter().map(|r| r.fidelity_violations).sum::<f64>() / rows.len() as f64,
        claim: rows[4].polls >= rows[0].polls,
    }
}

/// Mean pairwise Mt fidelity (by violations) over every pair in the
/// group — the n > 2 generalization of the Figure 5 metric.
fn group_fidelity(
    traces: &[UpdateTrace],
    ids: &[ObjectId],
    out: &TemporalSimOutput,
    until: mutcon_core::time::Timestamp,
) -> f64 {
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..traces.len() {
        for j in (i + 1)..traces.len() {
            let stats = metrics::mutual_temporal(
                &traces[i],
                &out.logs[&ids[i]],
                &traces[j],
                &out.logs[&ids[j]],
                group_delta(),
                until,
            );
            total += stats.fidelity_by_violations();
            pairs += 1;
        }
    }
    total / pairs.max(1) as f64
}

/// The multi-object (n = 4) Mt group: all temporal traces in one related
/// group under triggered polls versus the no-coordination baseline. The
/// claim is that triggered coordination fires and never degrades mean
/// pairwise fidelity.
fn multi_object_outcome(collection: u64) -> GridOutcome {
    let traces: Vec<UpdateTrace> = NamedTrace::TEMPORAL
        .iter()
        .map(|t| t.generate_with_seed(t.seed() + collection * SEED_STRIDE))
        .collect();
    let (origin, ids, until) = host(&traces, HistorySupport::None);
    let run = |policy: MtPolicy| {
        run_temporal(
            &origin,
            &ids,
            &TemporalSimConfig {
                policy: TemporalPolicy::Limd(paper_fig3_config().limd(fixed_delta())),
                mutual: Some(MutualSetup {
                    delta: group_delta(),
                    policy,
                }),
                until,
            },
        )
    };
    let baseline = run(MtPolicy::Baseline);
    let triggered = run(MtPolicy::TriggeredPolls);
    let baseline_fidelity = group_fidelity(&traces, &ids, &baseline, until);
    let triggered_fidelity = group_fidelity(&traces, &ids, &triggered, until);
    GridOutcome {
        polls: triggered.total_polls(),
        fidelity: triggered_fidelity,
        claim: triggered.total_triggered() > 0
            && triggered_fidelity >= baseline_fidelity - 1e-9,
    }
}

/// Runs the three figure grids, the four ablation grids and the
/// multi-object group across `repeats` seed-shifted realizations of
/// their traces and aggregates per grid. Deterministic for a given
/// `repeats`.
pub fn robustness_grid(repeats: u64) -> Vec<RobustnessRow> {
    let grids: [(&'static str, fn(u64) -> GridOutcome); 8] = [
        ("fig3", fig3_outcome),
        ("fig5", fig5_outcome),
        ("fig7", fig7_outcome),
        ("ablA", abl_a_outcome),
        ("ablB", abl_b_outcome),
        ("ablC", abl_c_outcome),
        ("ablD", abl_d_outcome),
        ("multi4", multi_object_outcome),
    ];

    grids
        .iter()
        .map(|(name, outcome)| {
            let per_grid: Vec<GridOutcome> = (0..repeats).map(outcome).collect();
            let n = per_grid.len().max(1);
            let polls_total: u64 = per_grid.iter().map(|o| o.polls).sum();
            RobustnessRow {
                grid: name,
                runs: per_grid.len(),
                polls_total,
                polls_mean: polls_total as f64 / n as f64,
                polls_min: per_grid.iter().map(|o| o.polls).min().unwrap_or(0),
                polls_max: per_grid.iter().map(|o| o.polls).max().unwrap_or(0),
                fidelity_mean: per_grid.iter().map(|o| o.fidelity).sum::<f64>() / n as f64,
                fidelity_min: per_grid
                    .iter()
                    .map(|o| o.fidelity)
                    .fold(f64::INFINITY, f64::min),
                claim_held: per_grid.iter().filter(|o| o.claim).count(),
            }
        })
        .collect()
}

/// Total polls simulated by [`robustness_grid`]'s rows (for the
/// benchmark report).
pub fn total_polls(rows: &[RobustnessRow]) -> u64 {
    rows.iter().map(|r| r.polls_total).sum()
}

/// Renders the aggregate as an aligned text table.
pub fn render(rows: &[RobustnessRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "Robustness — figure, ablation and multi-object grids across seed-shifted synthetic collections\n",
    );
    writeln!(
        out,
        "{:<6} {:>5} {:>12} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "grid", "runs", "polls(mean)", "min", "max", "fid(mean)", "fid(min)", "claim held"
    )
    .expect("writing to String cannot fail");
    for r in rows {
        writeln!(
            out,
            "{:<6} {:>5} {:>12.1} {:>9} {:>9} {:>9.3} {:>9.3} {:>8}/{}",
            r.grid,
            r.runs,
            r.polls_mean,
            r.polls_min,
            r.polls_max,
            r.fidelity_mean,
            r.fidelity_min,
            r.claim_held,
            r.runs
        )
        .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_aggregates_are_sane() {
        let rows = robustness_grid(2);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.runs, 2);
            assert!(r.polls_min <= r.polls_max);
            assert!(r.polls_mean >= r.polls_min as f64);
            assert!(r.polls_mean <= r.polls_max as f64);
            assert!(r.polls_total >= r.polls_min * r.runs as u64);
            assert!(r.polls_total <= r.polls_max * r.runs as u64);
            assert!((0.0..=1.0).contains(&r.fidelity_min));
            assert!(r.fidelity_mean >= r.fidelity_min);
            assert!(r.claim_held <= r.runs);
        }
        let rendered = render(&rows);
        assert!(rendered.contains("fig3"));
        assert!(rendered.contains("fig7"));
        assert!(rendered.contains("ablA"));
        assert!(rendered.contains("multi4"));
        assert!(total_polls(&rows) > 0);
    }

    #[test]
    fn multi_object_group_coordinates_all_four_traces() {
        let outcome = multi_object_outcome(0);
        assert!(outcome.polls > 0);
        assert!((0.0..=1.0).contains(&outcome.fidelity));
        assert!(
            outcome.claim,
            "triggered coordination must fire and not degrade fidelity"
        );
    }

    #[test]
    fn comparative_claims_hold_across_collections() {
        // The reproduction target: the paper's qualitative claims are
        // not artifacts of one lucky seed.
        let rows = robustness_grid(3);
        for r in &rows {
            assert_eq!(
                r.claim_held, r.runs,
                "{} claim failed in {}/{} collections",
                r.grid,
                r.runs - r.claim_held,
                r.runs
            );
        }
    }
}
