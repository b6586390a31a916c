//! The paper's rows, pinned: Figures 5–8, ablation D and every
//! robustness grid's poll total. `determinism.rs` compares two runs with
//! each other, so a change that moves a figure passes it; here it shows
//! up as a diff of this file, to be reviewed with its cause. (`repro`
//! prints the same numbers.)

use mutcon_bench::{
    fig4_window, fig7_deltas, fig8_delta, fig8_window, fixed_delta, paper_fig3_config,
    paper_fig7_config, robustness, FIG5_PAIR, FIG6_PAIR, VALUE_PAIR,
};
use mutcon_core::time::{Duration, Timestamp};
use mutcon_proxy::experiment::{
    heuristic_timeline, mutual_temporal_sweep, mutual_value_sweep, value_timeline,
};
use mutcon_proxy::{ablation, report};

/// Figure 5 at Δ = 10 min: polls and fidelity of plain LIMD, triggered
/// polls and the rate heuristic.
const FIG5: &str = "
delta_min  baseline   triggered  heuristic
        1  315 0.924  389 1.000  351 0.949
        5  315 0.971  373 1.000  345 0.968
       15  315 0.997  325 1.000  318 0.997
       30  315 0.997  310 1.000  315 0.997
";

#[test]
fn fig5_rows_are_the_committed_ones() {
    let (a, b) = FIG5_PAIR;
    let deltas = [1, 5, 15, 30].map(Duration::from_mins);
    let rows = mutual_temporal_sweep(&a.generate(), &b.generate(), fixed_delta(), &deltas, &paper_fig3_config());
    let mut table = String::from("\ndelta_min  baseline   triggered  heuristic\n");
    for row in &rows {
        // The paper's claim is exact, not "rounds to": §3.2's triggered
        // polls leave no Mt violation.
        assert_eq!(row.triggered.fidelity, 1.0, "δ = {}", row.mutual_delta);
        let cell = |r: &mutcon_proxy::experiment::PolicyResult| format!("{} {:.3}", r.polls, r.fidelity);
        table += &format!(
            "{:>9}  {}  {}  {}\n",
            row.mutual_delta.as_millis() / 60_000,
            cell(&row.baseline),
            cell(&row.triggered),
            cell(&row.heuristic),
        );
    }
    assert_eq!(table, FIG5);
}

/// `repro bench`'s four Table 2 traces as one triggered Mt group, ten
/// seed-shifted collections: 9,170 polls (11,030 before PR 20's cascade
/// fix, 9,222 before the simulator and the live proxy shared a scheduler).
/// Every other grid's poll total is pinned beside it (the mean column of
/// `repro bench` times ten).
#[test]
fn multi4_polls_are_the_committed_ones() {
    let grid = robustness::robustness_grid(10);
    let multi4 = grid.iter().find(|row| row.grid == "multi4").expect("the n = 4 group");
    assert_eq!(multi4.polls_total, 9_170);
    assert_eq!((multi4.fidelity_min, multi4.claim_held), (1.0, 10));
    assert!(grid.iter().all(|row| row.claim_held == row.runs), "{grid:?}");
    let totals: Vec<(&str, u64)> = grid.iter().map(|row| (row.grid, row.polls_total)).collect();
    assert_eq!(
        totals,
        [
            ("fig3", 17_872),
            ("fig5", 24_936),
            ("fig7", 19_872),
            ("ablA", 6_692),
            ("ablB", 5_682),
            ("ablC", 16_174),
            ("ablD", 27_266),
            ("multi4", 9_170),
        ]
    );
}

/// Figure 7, as `repro fig7` prints it: polls and Mv fidelity of the
/// virtual-object (adaptive) and partitioned approaches per δ.
const FIG7: &str = "
delta  adaptive    partitioned
 0.25  1264 0.877   837 0.773
 0.50   346 0.890   949 0.980
 0.60   314 0.898   734 0.975
 1.00   102 0.892   441 0.991
 2.00    46 1.000   394 0.997
 3.00    42 1.000   194 1.000
 4.00    42 1.000    56 1.000
 5.00    42 1.000   143 1.000
";

#[test]
fn fig7_rows_are_the_committed_ones() {
    let (a, b) = VALUE_PAIR;
    let rows =
        mutual_value_sweep(&a.generate(), &b.generate(), &fig7_deltas(), &paper_fig7_config());
    let mut table = String::from("\ndelta  adaptive    partitioned\n");
    for r in &rows {
        table += &format!(
            "{:>5.2}  {:>4} {:.3}  {:>4} {:.3}\n",
            r.delta.as_f64(),
            r.adaptive_polls,
            r.adaptive_fidelity,
            r.partitioned_polls,
            r.partitioned_fidelity,
        );
    }
    assert_eq!(table, FIG7);
}

/// Ablation D (the Equation 10 α-blend at δ = $0.6), as `repro ablation`
/// prints it.
const ABLATION_D: &str = "
alpha  polls  fid(violations)  fid(time)
 1.00    240            0.887      0.720
 0.75    262            0.889      0.693
 0.50    314            0.898      0.755
 0.25    268            0.925      0.776
 0.00   2046            0.996      0.996
";

#[test]
fn ablation_d_rows_are_the_committed_ones() {
    let (a, b) = VALUE_PAIR;
    let rows = ablation::alpha_blend(&a.generate(), &b.generate(), fig8_delta());
    let mut table = String::from("\nalpha  polls  fid(violations)  fid(time)\n");
    for (alpha, r) in [1.0, 0.75, 0.5, 0.25, 0.0].iter().zip(&rows) {
        assert_eq!(r.setting, format!("alpha = {alpha:.2}"));
        table += &format!(
            "{alpha:>5.2}  {:>5}  {:>15.3}  {:>9.3}\n",
            r.polls, r.fidelity_violations, r.fidelity_time
        );
    }
    assert_eq!(table, ABLATION_D);
}

/// Figure 6(b): the heuristic's extra (triggered) polls per two-hour
/// window, as `repro fig6` prints them.
const FIG6_EXTRA_POLLS: [u32; 23] =
    [0, 4, 2, 6, 3, 2, 0, 0, 0, 0, 6, 3, 5, 2, 4, 4, 3, 1, 0, 0, 0, 0, 0];

#[test]
fn fig6_extra_polls_are_the_committed_ones() {
    let (a, b) = FIG6_PAIR;
    let out = heuristic_timeline(
        &a.generate(),
        &b.generate(),
        fixed_delta(),
        Duration::from_mins(5),
        fig4_window(),
        &paper_fig3_config(),
    );
    let extra: Vec<u32> = out.extra_polls.iter().map(|w| w.count).collect();
    assert_eq!(extra, FIG6_EXTRA_POLLS);
}

/// Figure 8's `f` series at δ = $0.6, every point of both approaches
/// rendered by `report::fig8`, pinned as its row count and the 64-bit
/// FNV-1a digest of the text.
#[test]
fn fig8_series_is_the_committed_one() {
    let (a, b) = VALUE_PAIR;
    let (from, to) = fig8_window();
    let out = value_timeline(
        &a.generate(),
        &b.generate(),
        fig8_delta(),
        Timestamp::ZERO + from,
        Timestamp::ZERO + to,
        &paper_fig7_config(),
    );
    let text = report::fig8(&out, usize::MAX);
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (out.adaptive.len(), out.partitioned.len(), digest),
        (685, 830, 0xf631_7f7f_d41f_fb0c)
    );
}
