//! The experiment engine must be bit-for-bit deterministic: the same
//! seed catalog gives the same figure rows and the same report bytes,
//! run after run.

use mutcon_bench::{
    fig3_deltas, fig7_deltas, fixed_delta, paper_fig3_config, paper_fig7_config, robustness,
    FIG3_TRACE, FIG5_PAIR, VALUE_PAIR,
};
use mutcon_core::time::Duration;
use mutcon_proxy::experiment::{
    individual_temporal_sweep, mutual_temporal_sweep, mutual_value_sweep, Fig3Row, Fig5Row, Fig7Row,
};
use mutcon_proxy::{ablation, report};

/// Everything the comparison covers, captured in one run.
#[derive(Debug, PartialEq)]
struct Snapshot {
    fig3_rows: Vec<Fig3Row>,
    fig3_report: String,
    fig5_rows: Vec<Fig5Row>,
    fig7_rows: Vec<Fig7Row>,
    fig7_report: String,
    ablation_a: String,
    ablation_c: String,
    robustness: Vec<robustness::RobustnessRow>,
}

fn snapshot() -> Snapshot {
    let cnn = FIG3_TRACE.generate();
    let fig3_rows = individual_temporal_sweep(&cnn, &fig3_deltas(), &paper_fig3_config());
    let fig3_report = report::fig3(&cnn, &fig3_rows);

    let (a, b) = FIG5_PAIR;
    let fig5_rows = mutual_temporal_sweep(
        &a.generate(),
        &b.generate(),
        fixed_delta(),
        &[Duration::from_mins(1), Duration::from_mins(10)],
        &paper_fig3_config(),
    );

    let (ya, att) = VALUE_PAIR;
    let fig7_rows = mutual_value_sweep(
        &ya.generate(),
        &att.generate(),
        &fig7_deltas(),
        &paper_fig7_config(),
    );
    let fig7_report = report::fig7(&fig7_rows);

    let ablation_a = ablation::render("A", &ablation::limd_aggressiveness(&cnn, fixed_delta()));
    let ablation_c = ablation::render(
        "C",
        &ablation::heuristic_threshold(
            &a.generate(),
            &b.generate(),
            fixed_delta(),
            Duration::from_mins(5),
        ),
    );

    Snapshot {
        fig3_rows,
        fig3_report,
        fig5_rows,
        fig7_rows,
        fig7_report,
        ablation_a,
        ablation_c,
        robustness: robustness::robustness_grid(3),
    }
}

#[test]
fn same_seed_gives_same_bytes() {
    assert_eq!(snapshot(), snapshot());
}
