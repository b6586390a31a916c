//! Integration tests asserting the paper's headline claims (§1, §6) on
//! the full calibrated workloads — the quantitative shapes the
//! reproduction must preserve.

use mutcon::core::time::Duration;
use mutcon::core::value::Value;
use mutcon::proxy::experiment::{
    individual_temporal_sweep, mutual_temporal_sweep, mutual_value_sweep, ttr_timeline, Fig3Config,
    Fig7Config,
};
use mutcon::traces::NamedTrace;

/// §6.2.1 / Figure 3: with Δ ≪ the update period, LIMD polls roughly at
/// the object's change rate — "a reduction by a factor of 6 in the number
/// of polls with only a 20% loss in fidelity" for CNN/FN at Δ = 1 min.
#[test]
fn limd_saves_a_large_factor_at_small_delta() {
    let trace = NamedTrace::CnnFn.generate();
    let rows = individual_temporal_sweep(&trace, &[Duration::from_mins(1)], &Fig3Config::default());
    let row = &rows[0];
    let factor = row.baseline_polls as f64 / row.limd_polls as f64;
    assert!(
        factor > 3.0,
        "expected a large poll reduction, got {factor:.1}x ({} vs {})",
        row.baseline_polls,
        row.limd_polls
    );
    assert!(
        row.limd_fidelity_violations > 0.75,
        "fidelity collapsed: {}",
        row.limd_fidelity_violations
    );
    assert!(row.baseline_fidelity > 0.999);
}

/// §6.2.1 / Figure 3: when Δ exceeds the update period, LIMD converges to
/// the baseline — same polls, fidelity → 1.
#[test]
fn limd_converges_to_baseline_at_large_delta() {
    let trace = NamedTrace::CnnFn.generate();
    let rows =
        individual_temporal_sweep(&trace, &[Duration::from_mins(60)], &Fig3Config::default());
    let row = &rows[0];
    let ratio = row.limd_polls as f64 / row.baseline_polls as f64;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "LIMD should track the baseline at Δ=60min: {} vs {}",
        row.limd_polls,
        row.baseline_polls
    );
    assert!(row.limd_fidelity_violations > 0.95);
}

/// Figure 3(b)/(c): both fidelity metrics tell the same qualitative
/// story — they improve as Δ loosens.
#[test]
fn both_fidelity_metrics_improve_with_delta() {
    let trace = NamedTrace::CnnFn.generate();
    let rows = individual_temporal_sweep(
        &trace,
        &[Duration::from_mins(2), Duration::from_mins(45)],
        &Fig3Config::default(),
    );
    assert!(rows[1].limd_fidelity_violations >= rows[0].limd_fidelity_violations);
    assert!(rows[1].limd_fidelity_time >= rows[0].limd_fidelity_time);
}

/// Figure 4: LIMD's TTR climbs towards TTR_max during the nightly quiet
/// period and spends time at/near TTR_min during busy spells.
#[test]
fn limd_ttr_adapts_to_diurnal_pattern() {
    let trace = NamedTrace::CnnFn.generate();
    let out = ttr_timeline(
        &trace,
        Duration::from_mins(10),
        Duration::from_hours(2),
        &Fig3Config::default(),
    );
    let max_ttr = out.ttr.iter().map(|(_, d)| *d).max().expect("non-empty");
    let min_ttr = out.ttr.iter().map(|(_, d)| *d).min().expect("non-empty");
    assert_eq!(
        max_ttr,
        Duration::from_mins(60),
        "TTR should reach TTR_max during the night"
    );
    assert_eq!(
        min_ttr,
        Duration::from_mins(10),
        "TTR should sit at TTR_min = Δ during bursts"
    );
    // The night shows up as empty update windows.
    assert!(
        out.update_counts.iter().any(|w| w.count == 0),
        "expected quiet windows in the diurnal workload"
    );
}

/// §6.2.2 / Figure 5: triggered polls give fidelity 1; the heuristic sits
/// between baseline and triggered in both polls and fidelity; and the
/// incremental cost of mutual consistency stays modest (the paper claims
/// < 20% for the heuristic).
#[test]
fn mutual_consistency_cost_and_fidelity_ordering() {
    let a = NamedTrace::CnnFn.generate();
    let b = NamedTrace::NytAp.generate();
    let deltas = [
        Duration::from_mins(1),
        Duration::from_mins(5),
        Duration::from_mins(15),
        Duration::from_mins(30),
    ];
    let rows = mutual_temporal_sweep(
        &a,
        &b,
        Duration::from_mins(10),
        &deltas,
        &Fig3Config::default(),
    );
    for row in &rows {
        assert_eq!(
            row.triggered.fidelity, 1.0,
            "triggered polls must be perfect at δ={}",
            row.mutual_delta
        );
        // A triggered refresh of one object can itself create a brief
        // inconsistency its slow partner is not polled to repair, so the
        // heuristic may dip marginally below baseline at loose δ; the
        // paper's qualitative claim is the 0.87–1.0 band.
        assert!(row.heuristic.fidelity >= row.baseline.fidelity - 0.03);
        assert!(row.heuristic.fidelity > 0.87, "heuristic fidelity too low");
        // Triggered-poll refreshes perturb the LIMD trajectories, so the
        // poll ordering is only approximate at loose δ where few triggers
        // fire; allow a 10% + small-constant slack.
        assert!(
            row.heuristic.polls as f64 <= row.triggered.polls as f64 * 1.1 + 20.0,
            "heuristic polls {} far above triggered {} at δ={}",
            row.heuristic.polls,
            row.triggered.polls,
            row.mutual_delta
        );
    }
    // At the tightest δ the selective heuristic is strictly cheaper than
    // triggering everything.
    assert!(rows[0].heuristic.polls < rows[0].triggered.polls);
    // Where mutual support matters (tight δ), the heuristic clearly beats
    // plain LIMD. (The margin was 0.040, 0.963 against 0.924, while the
    // simulator polled a triggered target a second time at the instant
    // its own poll was due; it is 0.025, 0.949 against 0.924, on the
    // scheduler the live proxy runs, which polls it once.)
    assert!(
        rows[0].heuristic.fidelity > rows[0].baseline.fidelity + 0.02,
        "heuristic {:.3} should beat baseline {:.3} at δ=1min",
        rows[0].heuristic.fidelity,
        rows[0].baseline.fidelity
    );
    // Incremental cost of the heuristic at the tightest δ.
    let tight = &rows[0];
    let overhead = tight.heuristic.polls as f64 / tight.baseline.polls as f64 - 1.0;
    assert!(
        overhead < 0.25,
        "heuristic overhead {:.0}% exceeds the paper's ~20% bound",
        overhead * 100.0
    );
    // Fidelity improves (or holds) as δ loosens.
    assert!(rows.last().unwrap().heuristic.fidelity >= rows[0].heuristic.fidelity);
}

/// §6.2.3 / Figure 7: fewer polls for looser δ; the partitioned approach
/// buys higher fidelity than the adaptive one at a higher poll cost (for
/// moderate δ, where neither approach saturates).
#[test]
fn value_domain_tradeoff() {
    let yahoo = NamedTrace::Yahoo.generate();
    let att = NamedTrace::Att.generate();
    let deltas = [Value::new(0.6), Value::new(1.0), Value::new(5.0)];
    let rows = mutual_value_sweep(&yahoo, &att, &deltas, &Fig7Config::default());

    // Poll counts decrease with δ for both approaches.
    for pair in rows.windows(2) {
        assert!(pair[1].adaptive_polls <= pair[0].adaptive_polls);
        assert!(pair[1].partitioned_polls <= pair[0].partitioned_polls);
    }
    // At the paper's δ = $0.6: partitioned = more polls, more fidelity.
    let at_06 = &rows[0];
    assert!(
        at_06.partitioned_polls > at_06.adaptive_polls,
        "partitioned {} vs adaptive {}",
        at_06.partitioned_polls,
        at_06.adaptive_polls
    );
    assert!(
        at_06.partitioned_fidelity > at_06.adaptive_fidelity,
        "partitioned {:.3} vs adaptive {:.3}",
        at_06.partitioned_fidelity,
        at_06.adaptive_fidelity
    );
    for r in &rows {
        assert!(r.adaptive_fidelity > 0.8);
        assert!(r.partitioned_fidelity > 0.9);
    }
}

/// Table 2 and 3 statistics reproduce exactly by construction.
#[test]
fn workload_tables_reproduce() {
    for nt in NamedTrace::TEMPORAL.iter().chain(&NamedTrace::VALUE) {
        let trace = nt.generate();
        assert_eq!(trace.update_count(), nt.update_count(), "{}", nt.name());
        assert_eq!(trace.duration(), nt.duration(), "{}", nt.name());
        if let Some((lo, hi)) = nt.value_band() {
            let (min_v, max_v) = trace.value_range().expect("valued trace");
            assert!(min_v >= lo && max_v <= hi, "{} out of band", nt.name());
        }
    }
}
